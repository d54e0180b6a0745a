//! Bounded memoization of *successful* signature verifications.
//!
//! Signature verification dominates the verify-enabled hot path: the
//! same file certificate is re-verified at the insert coordinator, at
//! every replica holder, at diversion targets, and again on reclaim.
//! [`VerifyMemo`] short-circuits those repeats with a bounded set of
//! digests of `(signing bytes ‖ signature)` pairs that have already
//! verified on this node.
//!
//! # Soundness
//!
//! The memo key is recomputed from the certificate's *current* field
//! values on every check — it is never carried inside the certificate
//! or trusted from the wire. A tampered certificate therefore hashes to
//! a different key than its untampered twin and takes the full
//! verification path, where the signature check rejects it. Only the
//! signature predicate — a pure function of `(signing bytes,
//! signature)` — is memoized; cheap relational checks that depend on
//! *other* state (content-hash comparison, reclaim owner equality,
//! zero-replication) are always re-evaluated by the callers in
//! `cert.rs`. Failed verifications are never recorded.
//!
//! # Bound
//!
//! Entries live in two generations. Inserts go to the current
//! generation; when it fills to half the configured capacity the
//! previous generation is dropped and the current one takes its place.
//! Total residency never exceeds `capacity`, and a hit in the old
//! generation re-promotes the entry, so hot certificates survive
//! rotation (the scheme is the classic two-generation approximation of
//! LRU, avoiding per-entry bookkeeping).
//!
//! Hits and misses are exported through `past-obs` as
//! `crypto.verify.memo_hit` / `crypto.verify.memo_miss` (no-ops unless
//! a recorder is installed).

use past_id::IdHashSet;

use crate::sha1::{Digest, Sha1};
use crate::sign::Signature;

/// Bounded two-generation memo of verified `(signing bytes, signature)`
/// digests. One per node; see the module docs for the soundness
/// argument.
#[derive(Debug)]
pub struct VerifyMemo {
    /// Maximum total resident entries across both generations.
    capacity: usize,
    cur: IdHashSet<Digest>,
    prev: IdHashSet<Digest>,
    hits: u64,
    misses: u64,
}

impl VerifyMemo {
    /// Creates a memo bounded to `capacity` entries.
    ///
    /// Allocates nothing: a node that never verifies (certificate
    /// verification off) carries an empty memo, and the first recorded
    /// verification pays for the table.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (each generation holds at least one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "memo needs room for two generations");
        VerifyMemo {
            capacity,
            cur: IdHashSet::default(),
            prev: IdHashSet::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The configured bound on resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident (both generations).
    pub fn len(&self) -> usize {
        self.cur.len() + self.prev.len()
    }

    /// Whether no verification has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty() && self.prev.is_empty()
    }

    /// Table slots currently allocated across both generations (zero
    /// until the first verification is recorded).
    pub fn allocated_slots(&self) -> usize {
        self.cur.capacity() + self.prev.capacity()
    }

    /// Checks hit since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checks that took the full verification path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The memo key for a signed blob: SHA-1 over the signing bytes and
    /// a serialization of the signature. Recomputed from current field
    /// values on every check, so any tampering changes the key.
    pub fn key(signing_bytes: &[u8], sig: &Signature) -> Digest {
        let mut h = Sha1::new();
        h.update(signing_bytes);
        match sig {
            Signature::Schnorr(sig) => {
                h.update(&[0u8]);
                h.update(&sig.e.to_be_bytes());
                h.update(&sig.s.to_be_bytes());
            }
            Signature::Keyed(d) => {
                h.update(&[1u8]);
                h.update(d.as_bytes());
            }
        }
        h.finalize()
    }

    /// Memoized evaluation of a signature predicate: returns `true`
    /// immediately when `key` was previously recorded, otherwise runs
    /// `verify` and records the key only on success.
    pub fn check(&mut self, key: Digest, verify: impl FnOnce() -> bool) -> bool {
        if self.lookup(key) {
            self.hits += 1;
            past_obs::counter("crypto.verify.memo_hit", 1);
            return true;
        }
        self.misses += 1;
        past_obs::counter("crypto.verify.memo_miss", 1);
        let ok = verify();
        if ok {
            self.record(key);
        }
        ok
    }

    /// Looks `key` up in both generations, promoting old-generation hits
    /// so hot entries survive rotation.
    fn lookup(&mut self, key: Digest) -> bool {
        if self.cur.contains(&key) {
            return true;
        }
        if self.prev.remove(&key) {
            self.record(key);
            return true;
        }
        false
    }

    fn record(&mut self, key: Digest) {
        let half = self.capacity / 2;
        if self.cur.len() >= half {
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;

    fn sig(tag: u8) -> Signature {
        Signature::Keyed(Digest([tag; 20]))
    }

    #[test]
    fn records_only_successful_verifications() {
        let mut m = VerifyMemo::new(8);
        let k = VerifyMemo::key(b"payload", &sig(1));
        assert!(!m.check(k, || false));
        // The failure was not recorded: the next check re-runs verify.
        assert!(m.is_empty());
        assert!(m.check(k, || true));
        // Now it short-circuits: a verify closure returning false is
        // never consulted.
        assert!(m.check(k, || false));
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn allocates_on_first_record_not_at_construction() {
        let mut m = VerifyMemo::new(1024);
        assert_eq!(m.allocated_slots(), 0);
        let k = VerifyMemo::key(b"payload", &sig(1));
        assert!(!m.check(k, || false));
        assert_eq!(m.allocated_slots(), 0, "a failure records nothing");
        assert!(m.check(k, || true));
        assert!(m.allocated_slots() > 0);
    }

    #[test]
    fn key_binds_every_byte_of_message_and_signature() {
        let base = VerifyMemo::key(b"payload", &sig(1));
        assert_ne!(base, VerifyMemo::key(b"payloae", &sig(1)));
        assert_ne!(base, VerifyMemo::key(b"payload", &sig(2)));
        let schnorr = Signature::schnorr(crate::U256::from_u128(7), crate::U256::from_u128(9));
        assert_ne!(base, VerifyMemo::key(b"payload", &schnorr));
    }

    #[test]
    fn residency_never_exceeds_capacity() {
        let cap = 16;
        let mut m = VerifyMemo::new(cap);
        for i in 0..10_000u32 {
            let k = Sha1::digest(&i.to_be_bytes());
            m.check(k, || true);
            assert!(m.len() <= cap, "memo grew past its bound: {}", m.len());
        }
        // Old entries were evicted: entry 0 misses again.
        let k0 = Sha1::digest(&0u32.to_be_bytes());
        let mut ran = false;
        m.check(k0, || {
            ran = true;
            true
        });
        assert!(ran, "evicted entry must take the full path");
    }

    #[test]
    fn hot_entries_survive_rotation() {
        let mut m = VerifyMemo::new(4);
        let hot = Sha1::digest(b"hot");
        m.check(hot, || true);
        for i in 0..64u32 {
            // Touch the hot key between batches of cold ones.
            assert!(m.check(hot, || false), "hot entry evicted at {i}");
            let k = Sha1::digest(&i.to_be_bytes());
            m.check(k, || true);
        }
    }
}
