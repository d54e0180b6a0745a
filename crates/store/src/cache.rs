//! Disk caching of popular files (paper §4).
//!
//! PAST nodes use the *unused* portion of their advertised disk space to
//! cache files that pass through them during lookups and inserts. Cached
//! copies may be evicted at any time — in particular, a node evicts
//! cached files to make room for new primary or diverted replicas, so
//! cache effectiveness degrades gracefully as storage utilization rises.
//!
//! The replacement policy the paper adopts is **GreedyDual-Size (GD-S)**
//! (Cao & Irani, USITS '97): each cached file `d` carries a weight
//! `H_d = L + c(d)/s(d)`, where `s(d)` is its size, `c(d)` its cost
//! (1 to maximize hit rate) and `L` an inflation value set to the evicted
//! victim's weight. The classic "subtract H_v from everyone" formulation
//! is implemented with the equivalent L-offset trick so that eviction is
//! O(log n). An LRU policy is provided for the paper's comparison, and a
//! popularity-proportional random policy (admit with probability that
//! saturates toward 1 as the observed request rate grows, evict uniformly
//! at random) in the spirit of the power-law caching analysis of Sarshar
//! & Roychowdhury (arXiv cs/0210010) serves as a stateless-replacement
//! baseline for the flash-crowd study.

// `Resident::stamp` is a `Cell` inside a set element; the set's `Hash`
// and `Eq` read `cert.file_id` alone (`ByCert`), never the stamp.
#![allow(clippy::mutable_key_type)]

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use past_crypto::{FileCertificate, SharedFileCert};
use past_id::{FileId, IdHashMap};

use crate::table::{ByCert, FileTable};

/// Everything the cache keeps about one resident file: one 16-byte
/// record in one table, so a probe touches one bucket. The file's id and
/// size are the certificate's.
#[derive(Debug)]
struct Resident {
    /// Where the policy keeps this file: under GD-S and LRU the touch
    /// sequence of its live entry in the order heap, under
    /// PopularityRandom its position in `slots`. A `Cell`, because the
    /// table is a set and a touch restamps the record in place; the
    /// table hashes and compares `cert.file_id` alone, which never
    /// changes while the record is in it.
    stamp: Cell<u64>,
    /// The file's certificate, so a cache hit can serve the file.
    cert: SharedFileCert,
}

impl AsRef<FileCertificate> for Resident {
    fn as_ref(&self) -> &FileCertificate {
        &self.cert
    }
}

/// An order-heap entry: one touch of a file, smallest `(weight bits,
/// touch sequence)` first. The sequence is unique per touch, so the
/// order is total without the file; the entry names its file by a
/// handle on the certificate rather than a second copy of the id.
#[derive(Debug)]
struct OrderEntry {
    bits: u64,
    seq: u64,
    cert: SharedFileCert,
}

impl OrderEntry {
    /// Min-heap key: `BinaryHeap` pops the largest.
    fn key(&self) -> Reverse<(u64, u64)> {
        Reverse((self.bits, self.seq))
    }

    /// Whether this is its file's live entry: the file is resident and
    /// was last touched by this entry.
    fn is_live(&self, residents: &FileTable<Resident>) -> bool {
        residents
            .get(&self.cert.file_id)
            .is_some_and(|r| r.0.stamp.get() == self.seq)
    }
}

impl PartialEq for OrderEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for OrderEntry {}

impl PartialOrd for OrderEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Which replacement policy a cache runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CachePolicyKind {
    /// GreedyDual-Size with unit cost (the paper's choice).
    GreedyDualSize,
    /// Least-recently-used.
    Lru,
    /// Popularity-proportional random: admit with probability
    /// `seen / (seen + 4)` where `seen` is the number of requests for the
    /// file observed at this node, evict a uniformly random resident.
    /// Randomness comes from a private SplitMix64 stream seeded with a
    /// fixed constant, so runs stay deterministic and no shared RNG
    /// stream is consumed.
    PopularityRandom,
    /// Caching disabled (the paper's "None" baseline in Figure 8).
    None,
}

/// A cache lifecycle event, used to key per-policy obs counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheEvent {
    /// A probe found the file.
    Hit,
    /// A probe missed.
    Miss,
    /// A file was admitted.
    Insert,
    /// A resident file was evicted by the policy.
    Evict,
}

impl CacheEvent {
    /// Every event, for exhaustiveness tests.
    pub const ALL: [CacheEvent; 4] = [
        CacheEvent::Hit,
        CacheEvent::Miss,
        CacheEvent::Insert,
        CacheEvent::Evict,
    ];
}

impl CachePolicyKind {
    /// Every policy, for exhaustiveness tests.
    pub const ALL: [CachePolicyKind; 4] = [
        CachePolicyKind::GreedyDualSize,
        CachePolicyKind::Lru,
        CachePolicyKind::PopularityRandom,
        CachePolicyKind::None,
    ];
}

/// Fixed seed for the popularity-random policy's private SplitMix64
/// stream (the golden-ratio increment itself).
const POPRAND_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Admission half-point: a file seen `POPRAND_HALF` times is admitted
/// with probability 1/2; the probability saturates toward 1 as the
/// observed request count grows.
const POPRAND_HALF: u64 = 4;

/// One step of SplitMix64 (Steele et al., the JDK's seeding generator).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Internal replacement state.
#[derive(Debug)]
enum PolicyState {
    /// GD-S and LRU: residents ranked by `(weight, touch sequence)`. LRU
    /// is the constant-weight case, which leaves recency alone to decide.
    ///
    /// Deletion from `order` is lazy. Every touch pushes a fresh entry
    /// and stamps the resident with its sequence; an entry is live iff
    /// its file is resident and carries that stamp. Entries orphaned by
    /// a re-touch, a removal or an eviction are skipped when popped and
    /// swept once they outnumber the live ones (see `Cache::compact`).
    Ranked {
        /// Inflation value L (stays 0 under LRU).
        inflation: f64,
        /// Monotonic touch sequence: breaks weight ties by recency.
        seq: u64,
        /// Min-heap over the residents' live entries, plus stale ones.
        order: BinaryHeap<OrderEntry>,
    },
    PopRandom {
        /// Private SplitMix64 state (admission coin + victim choice).
        rng: u64,
        /// Requests observed per file (probes and insert offers),
        /// saturating. Grows with the node's working set.
        seen: IdHashMap<FileId, u32>,
        /// Residents in arbitrary order, for O(1) uniform victim choice;
        /// each resident's `stamp` is its position here.
        slots: Vec<FileId>,
    },
    None,
}

impl PolicyState {
    /// Ranks a file that was just admitted or referenced: pushes a fresh
    /// order entry weighing `L + benefit` and stamps the resident with
    /// its touch sequence, which makes it the file's live entry.
    /// Popularity tracking happens in `note_request` and eviction there
    /// is uniform, so under the unranked policies a touch carries no
    /// information.
    fn rank(&mut self, r: &Resident, benefit: f64) {
        let PolicyState::Ranked {
            inflation,
            seq,
            order,
        } = self
        else {
            return;
        };
        let h = *inflation + benefit;
        // `to_bits` orders finite non-negative floats as `total_cmp` does.
        debug_assert!(h.is_finite() && h.is_sign_positive(), "weight {h}");
        *seq += 1;
        order.push(OrderEntry {
            bits: h.to_bits(),
            seq: *seq,
            cert: r.cert.clone(),
        });
        r.stamp.set(*seq);
    }

    /// Places a newly admitted file: PopularityRandom gives it the next
    /// slot, the ranked policies their first order entry.
    fn place(&mut self, r: &Resident, benefit: f64) {
        match self {
            PolicyState::PopRandom { slots, .. } => {
                r.stamp.set(slots.len() as u64);
                slots.push(r.cert.file_id);
            }
            _ => self.rank(r, benefit),
        }
    }
}

/// PopularityRandom: frees slot `i` and returns the file that held it.
/// `swap_remove` moves the last resident into the gap, so that one is
/// restamped with its new position.
fn vacate(slots: &mut Vec<FileId>, residents: &FileTable<Resident>, i: usize) -> FileId {
    let id = slots.swap_remove(i);
    if let Some(moved) = slots.get(i) {
        let ByCert(r) = residents.get(moved).expect("slots and residents in sync");
        r.stamp.set(i as u64);
    }
    id
}

/// A size-bounded file cache with pluggable replacement policy.
///
/// The cache holds one record per resident file (its certificate and
/// its place in the replacement order); actual content lives with the
/// simulation's file registry. Its capacity is managed by the
/// surrounding [`crate::NodeStore`]: replicas take precedence, and the
/// store shrinks the cache (evicting entries) whenever replicas need the
/// space.
#[derive(Debug)]
pub struct Cache {
    kind: CachePolicyKind,
    residents: FileTable<Resident>,
    used: u64,
    policy: PolicyState,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Cache {
    /// Bytes of one order-heap entry under GD-S and LRU. The heap holds
    /// one per resident plus the stale ones awaiting a sweep, at most
    /// `2·len + 64` in all.
    pub const ORDER_ENTRY_BYTES: usize = std::mem::size_of::<OrderEntry>();

    /// Creates an empty cache with the given policy.
    pub fn new(kind: CachePolicyKind) -> Self {
        let policy = match kind {
            CachePolicyKind::GreedyDualSize | CachePolicyKind::Lru => PolicyState::Ranked {
                inflation: 0.0,
                seq: 0,
                order: BinaryHeap::new(),
            },
            CachePolicyKind::PopularityRandom => PolicyState::PopRandom {
                rng: POPRAND_SEED,
                seen: IdHashMap::default(),
                slots: Vec::new(),
            },
            CachePolicyKind::None => PolicyState::None,
        };
        Cache {
            kind,
            residents: FileTable::default(),
            used: 0,
            policy,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// The policy in use.
    pub fn kind(&self) -> CachePolicyKind {
        self.kind
    }

    /// Bytes currently occupied by cached files.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: FileId) -> bool {
        self.residents.contains(&id)
    }

    /// The certificate of a cached file.
    pub fn cert(&self, id: FileId) -> Option<&SharedFileCert> {
        self.residents.get(&id).map(|r| &r.0.cert)
    }

    /// (hits, misses, insertions, evictions) so far.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.insertions, self.evictions)
    }

    /// Probes the cache for `id`, updating recency/weight and hit
    /// statistics. Returns the file size if present.
    pub fn probe(&mut self, id: FileId) -> Option<u64> {
        self.note_request(id);
        match self.residents.get(&id) {
            Some(ByCert(r)) => {
                let size = r.cert.file_size;
                self.policy.rank(r, benefit(self.kind, size));
                self.hits += 1;
                past_obs::counter(self.metric_name(CacheEvent::Hit), 1);
                self.compact();
                Some(size)
            }
            None => {
                self.misses += 1;
                past_obs::counter(self.metric_name(CacheEvent::Miss), 1);
                None
            }
        }
    }

    /// The `past-obs` counter name for one cache event under this
    /// policy. Exhaustive: every (policy, event) pair has its own name
    /// (see the uniqueness test below).
    fn metric_name(&self, event: CacheEvent) -> &'static str {
        use CacheEvent as E;
        use CachePolicyKind as P;
        match (self.kind, event) {
            (P::GreedyDualSize, E::Hit) => "store.cache.hit.gds",
            (P::GreedyDualSize, E::Miss) => "store.cache.miss.gds",
            (P::GreedyDualSize, E::Insert) => "store.cache.insert.gds",
            (P::GreedyDualSize, E::Evict) => "store.cache.evict.gds",
            (P::Lru, E::Hit) => "store.cache.hit.lru",
            (P::Lru, E::Miss) => "store.cache.miss.lru",
            (P::Lru, E::Insert) => "store.cache.insert.lru",
            (P::Lru, E::Evict) => "store.cache.evict.lru",
            (P::PopularityRandom, E::Hit) => "store.cache.hit.poprand",
            (P::PopularityRandom, E::Miss) => "store.cache.miss.poprand",
            (P::PopularityRandom, E::Insert) => "store.cache.insert.poprand",
            (P::PopularityRandom, E::Evict) => "store.cache.evict.poprand",
            (P::None, E::Hit) => "store.cache.hit.none",
            (P::None, E::Miss) => "store.cache.miss.none",
            (P::None, E::Insert) => "store.cache.insert.none",
            (P::None, E::Evict) => "store.cache.evict.none",
        }
    }

    /// Records one observed request for `id` (popularity-random only:
    /// the admission probability is driven by this count).
    fn note_request(&mut self, id: FileId) {
        if let PolicyState::PopRandom { seen, .. } = &mut self.policy {
            let n = seen.entry(id).or_insert(0);
            *n = n.saturating_add(1);
        }
    }

    /// Popularity-random admission coin: admit with probability
    /// `seen / (seen + POPRAND_HALF)`. Other policies always admit.
    fn admit(&mut self, id: FileId) -> bool {
        match &mut self.policy {
            PolicyState::PopRandom { rng, seen, .. } => {
                let n = seen.get(&id).copied().unwrap_or(0) as u128;
                let r = splitmix64(rng) as u128;
                // r / 2^64 < n / (n + HALF), in exact integer arithmetic.
                r * (n + POPRAND_HALF as u128) < n << 64
            }
            _ => true,
        }
    }

    /// Offers the file `cert` describes, evicting lowest-priority entries
    /// until it fits within `budget` total bytes. Returns whether the
    /// file is cached afterwards.
    ///
    /// The offer is refused (nothing cached) when the policy is
    /// [`CachePolicyKind::None`], the file alone exceeds the budget, or
    /// the popularity-random admission coin says no. Offering a file
    /// that is already cached refreshes it.
    pub fn insert(&mut self, cert: &SharedFileCert, budget: u64) -> bool {
        if matches!(self.policy, PolicyState::None) {
            return false;
        }
        let (id, size) = (cert.file_id, cert.file_size);
        self.note_request(id);
        if let Some(ByCert(old)) = self.residents.get(&id) {
            // A certificate of another size for the same id would
            // desynchronize the GDS weight from the byte accounting in
            // `used`.
            debug_assert_eq!(
                old.cert.file_size, size,
                "cached size for re-inserted id drifted from the caller's"
            );
            // The refreshed record keeps the certificate it was offered
            // and, under PopularityRandom, the slot it already has.
            let r = Resident {
                stamp: old.stamp.clone(),
                cert: cert.clone(),
            };
            self.policy.rank(&r, benefit(self.kind, size));
            self.residents.replace(ByCert(r));
            self.compact();
            return true;
        }
        if size > budget || !self.admit(id) {
            return false;
        }
        while self.used + size > budget && self.evict_one().is_some() {}
        debug_assert!(self.used + size <= budget);
        let r = Resident {
            stamp: Cell::new(0),
            cert: cert.clone(),
        };
        self.policy.place(&r, benefit(self.kind, size));
        self.residents.insert(ByCert(r));
        self.used += size;
        self.insertions += 1;
        past_obs::counter(self.metric_name(CacheEvent::Insert), 1);
        self.compact();
        true
    }

    /// Shrinks the cache to at most `budget` bytes (called by the store
    /// when replicas claim space).
    pub fn shrink_to(&mut self, budget: u64) {
        while self.used > budget && self.evict_one().is_some() {}
        self.compact();
    }

    /// Removes a specific file (e.g. it became a primary replica here).
    pub fn remove(&mut self, id: FileId) -> bool {
        let Some(ByCert(r)) = self.residents.take(&id) else {
            return false;
        };
        self.used -= r.cert.file_size;
        if let PolicyState::PopRandom { slots, .. } = &mut self.policy {
            vacate(slots, &self.residents, r.stamp.get() as usize);
        }
        self.compact();
        true
    }

    /// Evicts the policy's next victim and returns it.
    fn evict_one(&mut self) -> Option<FileId> {
        let victim = match &mut self.policy {
            PolicyState::Ranked {
                inflation, order, ..
            } => loop {
                let e = order.pop()?;
                if e.is_live(&self.residents) {
                    // GreedyDual aging: L rises to the victim's weight.
                    *inflation = f64::from_bits(e.bits);
                    break e.cert.file_id;
                }
            },
            PolicyState::PopRandom { rng, slots, .. } => {
                if slots.is_empty() {
                    return None;
                }
                let i = (splitmix64(rng) % slots.len() as u64) as usize;
                vacate(slots, &self.residents, i)
            }
            PolicyState::None => return None,
        };
        let ByCert(r) = self
            .residents
            .take(&victim)
            .expect("policy and residents in sync");
        self.used -= r.cert.file_size;
        self.evictions += 1;
        past_obs::counter(self.metric_name(CacheEvent::Evict), 1);
        Some(victim)
    }

    /// Sweeps stale order entries once they outnumber the live ones (one
    /// per resident) by a margin, so the heap stays within
    /// `2·len + 64` entries whatever the mix of touches and removals.
    /// A sweep costs one pass over the heap and leaves it all live, and
    /// at least `len + 64` operations staled the entries it drops, so
    /// the amortized price per operation is constant.
    fn compact(&mut self) {
        if let PolicyState::Ranked { order, .. } = &mut self.policy {
            if order.len() > 2 * self.residents.len() + 64 {
                order.retain(|e| e.is_live(&self.residents));
            }
        }
    }
}

/// The benefit term of a policy's weights: under GD-S c(d)/s(d) with
/// c(d) = 1, guarding the zero-size files present in the NLANR trace;
/// under LRU a constant, which leaves the touch sequence to decide.
fn benefit(kind: CachePolicyKind, size: u64) -> f64 {
    match kind {
        CachePolicyKind::GreedyDualSize => 1.0 / (size.max(1) as f64),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::{FileCertificate, KeyPair, Scheme, Sha1};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn fid(v: u32) -> FileId {
        let mut bytes = [0u8; 20];
        bytes[..4].copy_from_slice(&v.to_be_bytes());
        FileId::from_bytes(bytes)
    }

    /// A certificate for file `fid(v)` of `size` bytes. The cache reads
    /// nothing else of it, so the rest is filler.
    fn cert(v: u32, size: u64) -> SharedFileCert {
        let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(1));
        SharedFileCert::new(FileCertificate {
            file_id: fid(v),
            ..FileCertificate::issue_unsigned(&owner, "f", Sha1::digest(b""), size, 1, 0, 0)
        })
    }

    /// Deterministic per-id size, so re-inserts of the same id always
    /// agree with the stored size (the refresh path asserts this).
    fn sized(id: u8) -> u64 {
        (id as u64 * 37) % 977 + 1
    }

    /// Evicts everything: the residents in the policy's victim order.
    fn drain(c: &mut Cache) -> Vec<FileId> {
        std::iter::from_fn(|| c.evict_one()).collect()
    }

    #[test]
    fn insert_and_probe() {
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        let a = cert(1, 100);
        assert!(c.insert(&a, 1000));
        assert_eq!(c.probe(fid(1)), Some(100));
        assert_eq!(c.probe(fid(2)), None);
        assert_eq!(c.stats().0, 1);
        assert_eq!(c.stats().1, 1);
        assert!(std::sync::Arc::ptr_eq(c.cert(fid(1)).unwrap(), &a));
        assert!(c.cert(fid(2)).is_none());
    }

    #[test]
    fn gds_evicts_larger_file_first() {
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        c.insert(&cert(1, 900), 1000); // benefit 1/900 — low priority
        c.insert(&cert(2, 50), 1000); // benefit 1/50 — higher
        assert!(c.insert(&cert(3, 100), 1000));
        assert!(!c.contains(fid(1)), "big file is the GD-S victim");
        assert_eq!(drain(&mut c), vec![fid(3), fid(2)]);
    }

    #[test]
    fn gds_recency_via_inflation() {
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        // Two same-size files; a is older but gets re-referenced after an
        // eviction raised L, so b becomes the victim.
        c.insert(&cert(1, 400), 1000);
        c.insert(&cert(2, 400), 1000);
        // Force an eviction to inflate L: insert big file into small room.
        c.insert(&cert(3, 400), 1000);
        assert!(!c.contains(fid(1)), "oldest same-size entry evicted");
        // Re-reference fid(2) — its weight now includes the raised L.
        c.probe(fid(2));
        c.insert(&cert(4, 400), 1000);
        assert!(!c.contains(fid(3)), "unreferenced entry evicted");
        assert!(c.contains(fid(2)));
        assert_eq!(c.stats().3, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CachePolicyKind::Lru);
        c.insert(&cert(1, 400), 1000);
        c.insert(&cert(2, 400), 1000);
        c.probe(fid(1)); // 2 is now least recent
        c.insert(&cert(3, 400), 1000);
        assert!(!c.contains(fid(2)));
        assert_eq!(drain(&mut c), vec![fid(1), fid(3)]);
    }

    #[test]
    fn none_policy_caches_nothing() {
        let mut c = Cache::new(CachePolicyKind::None);
        assert!(!c.insert(&cert(1, 10), 1000));
        assert!(!c.contains(fid(1)));
        assert_eq!(c.probe(fid(1)), None);
    }

    #[test]
    fn oversized_file_refused() {
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        assert!(!c.insert(&cert(1, 2000), 1000));
        assert!(!c.contains(fid(1)));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn duplicate_insert_refreshes() {
        let mut c = Cache::new(CachePolicyKind::Lru);
        c.insert(&cert(1, 400), 1000);
        c.insert(&cert(2, 400), 1000);
        let again = cert(1, 400);
        assert!(c.insert(&again, 1000)); // refresh, not duplicate
        assert_eq!(c.len(), 2);
        assert_eq!(c.used(), 800);
        assert!(
            std::sync::Arc::ptr_eq(c.cert(fid(1)).unwrap(), &again),
            "a refresh keeps the certificate it was offered"
        );
        c.insert(&cert(3, 400), 1000);
        assert!(!c.contains(fid(2)), "refresh made fid(1) most recent");
        assert!(c.contains(fid(1)));
    }

    #[test]
    fn gds_refresh_uses_stored_size() {
        // A refresh must key the GDS weight off the stored size: the
        // ordering between a refreshed large file and a small file has
        // to stay benefit-correct afterwards.
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        c.insert(&cert(1, 900), 1000); // benefit 1/900
        c.insert(&cert(2, 50), 1000); // benefit 1/50
        c.insert(&cert(1, 900), 1000); // refresh (same size by contract)
        c.insert(&cert(3, 100), 1000);
        assert!(
            !c.contains(fid(1)),
            "refreshed big file still the GD-S victim"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shrink_to_evicts_until_budget() {
        let mut c = Cache::new(CachePolicyKind::Lru);
        for i in 0..5 {
            c.insert(&cert(i, 100), 1000);
        }
        c.shrink_to(250);
        assert_eq!(c.stats().3, 3);
        assert!(c.used() <= 250);
        assert_eq!(drain(&mut c), vec![fid(3), fid(4)]);
    }

    #[test]
    fn remove_specific_entry() {
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        c.insert(&cert(1, 100), 1000);
        assert!(c.remove(fid(1)));
        assert!(!c.remove(fid(1)));
        assert_eq!(c.used(), 0);
        // Removal must not corrupt the order structures.
        c.insert(&cert(2, 100), 1000);
        assert_eq!(c.probe(fid(2)), Some(100));
        assert_eq!(drain(&mut c), vec![fid(2)]);
    }

    #[test]
    fn zero_size_files_supported() {
        // The NLANR trace contains 0-byte files; GD-S weights must stay
        // finite.
        let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
        c.insert(&cert(1, 0), 10);
        assert!(c.contains(fid(1)));
        assert_eq!(c.probe(fid(1)), Some(0));
    }

    #[test]
    fn metric_names_unique_and_exhaustive() {
        // Every (policy, event) pair maps to its own counter; the old
        // `store.cache.other` catch-all must be gone.
        let mut names = std::collections::BTreeSet::new();
        for kind in CachePolicyKind::ALL {
            let c = Cache::new(kind);
            for event in CacheEvent::ALL {
                let name = c.metric_name(event);
                assert!(name.starts_with("store.cache."), "{name}");
                assert_ne!(name, "store.cache.other");
                assert!(names.insert(name), "duplicate metric name: {name}");
            }
        }
        assert_eq!(names.len(), CachePolicyKind::ALL.len() * CacheEvent::ALL.len());
    }

    #[test]
    fn poprand_admission_warms_with_popularity() {
        // A file offered over and over gets admitted within a few tries
        // (p ≥ 1/5 per offer, rising), while the budget invariant holds.
        let mut c = Cache::new(CachePolicyKind::PopularityRandom);
        let f = cert(7, 100);
        let attempts = (1..=64)
            .find(|_| c.insert(&f, 1000))
            .expect("popular file never admitted");
        assert!(attempts <= 64);
        assert!(c.contains(fid(7)));
        assert_eq!(c.used(), 100);
        // Once resident, repeated offers refresh rather than duplicate.
        c.insert(&f, 1000);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn poprand_is_deterministic() {
        let run = || {
            let mut c = Cache::new(CachePolicyKind::PopularityRandom);
            let mut log = Vec::new();
            for i in 0..200u32 {
                let cached = c.insert(&cert(i % 23, 50), 300);
                let mut residents: Vec<u32> = (0..23).filter(|v| c.contains(fid(*v))).collect();
                residents.sort_unstable();
                log.push((cached, residents));
                c.probe(fid((i * 7) % 23));
            }
            (log, c.stats())
        };
        assert_eq!(run(), run(), "fixed-seed policy must replay identically");
    }

    #[test]
    fn poprand_evicts_to_fit() {
        let mut c = Cache::new(CachePolicyKind::PopularityRandom);
        // Warm the files up so admission is near-certain.
        for _ in 0..20 {
            for i in 0..6u32 {
                c.probe(fid(i));
            }
        }
        for i in 0..6u32 {
            let f = cert(i, 100);
            let _ = (0..16).find(|_| c.insert(&f, 300));
        }
        assert!(c.used() <= 300);
        assert!(c.len() <= 3);
        assert!(c.stats().3 > 0, "evictions must have occurred");
    }

    /// GD-S and LRU by brute force: every resident carries its
    /// `(weight, touch sequence)` and the victim is the minimum over all
    /// of them, found by a scan under `f64::total_cmp`.
    struct Model {
        kind: CachePolicyKind,
        inflation: f64,
        seq: u64,
        /// `(file, size, weight, touch sequence)`.
        residents: Vec<(FileId, u64, f64, u64)>,
    }

    impl Model {
        fn used(&self) -> u64 {
            self.residents.iter().map(|r| r.1).sum()
        }

        fn touch(&mut self, id: FileId, size: u64) {
            self.seq += 1;
            let rank = (id, size, self.inflation + benefit(self.kind, size), self.seq);
            match self.residents.iter_mut().find(|r| r.0 == id) {
                Some(r) => *r = rank,
                None => self.residents.push(rank),
            }
        }

        fn evict(&mut self) -> Option<FileId> {
            let i = (0..self.residents.len()).min_by(|&a, &b| {
                let (a, b) = (&self.residents[a], &self.residents[b]);
                a.2.total_cmp(&b.2).then(a.3.cmp(&b.3))
            })?;
            let (id, _, weight, _) = self.residents.swap_remove(i);
            self.inflation = weight;
            Some(id)
        }

        fn insert(&mut self, id: FileId, size: u64, budget: u64) {
            let resident = self.residents.iter().any(|r| r.0 == id);
            if !resident {
                if size > budget {
                    return;
                }
                while self.used() + size > budget && self.evict().is_some() {}
            }
            self.touch(id, size);
        }

        fn probe(&mut self, id: FileId) {
            if let Some(size) = self.residents.iter().find(|r| r.0 == id).map(|r| r.1) {
                self.touch(id, size);
            }
        }

        fn shrink_to(&mut self, budget: u64) {
            while self.used() > budget && self.evict().is_some() {}
        }
    }

    proptest! {
        #[test]
        fn prop_victims_match_brute_force_minimum(
            ops in prop::collection::vec(any::<(u8, u8)>(), 0..1200),
            evicting: bool,
        ) {
            // Evictions pop the stale entries below their victim, so a
            // cache under pressure keeps its heap short by itself. Half
            // the cases therefore never evict (no budget, no shrinking):
            // there only the sweep bounds the heap.
            let budget = if evicting { 4096 } else { u64::MAX };
            // Few distinct files, so that touches outnumber residents.
            let files: Vec<SharedFileCert> = (0..48).map(|v| cert(v, sized(v as u8))).collect();
            for kind in [CachePolicyKind::GreedyDualSize, CachePolicyKind::Lru] {
                let mut c = Cache::new(kind);
                let mut m = Model { kind, inflation: 0.0, seq: 0, residents: Vec::new() };
                for (op, pick) in &ops {
                    let f = &files[*pick as usize % files.len()];
                    let (id, size) = (f.file_id, f.file_size);
                    match op % 8 {
                        0..=2 => {
                            prop_assert!(c.insert(f, budget));
                            m.insert(id, size, budget);
                        }
                        3..=5 => {
                            c.probe(id);
                            m.probe(id);
                        }
                        6 => {
                            c.remove(id);
                            m.residents.retain(|r| r.0 != id);
                        }
                        _ if evicting => {
                            c.shrink_to(size * 3);
                            m.shrink_to(size * 3);
                        }
                        _ => {}
                    }
                    let PolicyState::Ranked { inflation, order, .. } = &c.policy else {
                        unreachable!()
                    };
                    prop_assert_eq!(inflation.to_bits(), m.inflation.to_bits());
                    prop_assert!(order.len() <= 2 * c.len() + 64, "heap {}", order.len());
                    prop_assert_eq!(c.len(), m.residents.len());
                    prop_assert_eq!(c.used(), m.used());
                    for r in &m.residents {
                        prop_assert!(c.contains(r.0), "model and cache contents diverged");
                    }
                }
                // What is left leaves in the model's order too.
                let rest: Vec<FileId> = std::iter::from_fn(|| m.evict()).collect();
                prop_assert_eq!(drain(&mut c), rest);
            }
        }

        #[test]
        fn prop_used_equals_sum_of_entries(ops: Vec<(u8, u8)>) {
            for kind in [
                CachePolicyKind::GreedyDualSize,
                CachePolicyKind::Lru,
                CachePolicyKind::PopularityRandom,
            ] {
                let mut c = Cache::new(kind);
                for (op, id) in &ops {
                    match op % 5 {
                        0 | 1 => { c.insert(&cert(*id as u32, sized(*id)), 4096); }
                        2 => { c.probe(fid(*id as u32)); }
                        3 => { c.remove(fid(*id as u32)); }
                        _ => { c.shrink_to(sized(*id) * 2); }
                    }
                    let sum: u64 = c.residents.iter().map(|r| r.0.cert.file_size).sum();
                    prop_assert_eq!(c.used(), sum);
                    prop_assert!(c.used() <= 4096);
                    // PopularityRandom: every resident's stamp is its slot.
                    if let PolicyState::PopRandom { slots, .. } = &c.policy {
                        prop_assert_eq!(slots.len(), c.len());
                        for (i, id) in slots.iter().enumerate() {
                            let stamp = c.residents.get(id).map(|r| r.0.stamp.get());
                            prop_assert_eq!(stamp, Some(i as u64));
                        }
                    }
                }
            }
        }

        #[test]
        fn prop_budget_respected(sizes: Vec<u16>, budget in 1u64..5000) {
            let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
            for (i, s) in sizes.iter().enumerate() {
                c.insert(&cert(i as u32, *s as u64), budget);
                prop_assert!(c.used() <= budget);
            }
        }

        #[test]
        fn prop_gds_inflation_monotone(ops: Vec<(u8, u8)>) {
            // The GreedyDual L value only ever rises (to the evicted
            // victim's weight) — it is the aging clock of the policy.
            let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
            let read_l = |c: &Cache| match &c.policy {
                PolicyState::Ranked { inflation, .. } => *inflation,
                _ => unreachable!(),
            };
            let mut last = read_l(&c);
            for (op, id) in &ops {
                match op % 5 {
                    0 | 1 => { c.insert(&cert(*id as u32, sized(*id)), 2048); }
                    2 => { c.probe(fid(*id as u32)); }
                    3 => { c.remove(fid(*id as u32)); }
                    _ => { c.shrink_to(sized(*id)); }
                }
                let now = read_l(&c);
                prop_assert!(now >= last, "L fell from {} to {}", last, now);
                last = now;
            }
        }
    }
}
