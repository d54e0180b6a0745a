//! Sampled challenge-response storage audits (the defense side).
//!
//! LOCKSS-style rate-limited sampling: each audit sweep a node picks a
//! batch of files it is responsible for, samples one other replica
//! holder per file, and challenges it to prove possession of the file
//! via SHA-1(file ‖ nonce) ([`past_crypto::possession_proof`]). The
//! [`AuditBook`] tracks outstanding challenges and enforces the
//! protocol's freshness rules:
//!
//! - every challenge carries a fresh nonce derived from the auditor's
//!   identity and a monotone sequence number (no RNG stream is
//!   consumed — see [`past_crypto::audit_nonce`]);
//! - a proof only counts against the one outstanding challenge whose
//!   sequence number it echoes; a replayed proof for an already-settled
//!   or never-issued challenge is rejected outright;
//! - a proof that echoes the right sequence number but was computed
//!   over a stale nonce (or corrupted content) fails digest comparison.
//!
//! The node layer reacts to failures: local shunning and
//! re-replication through the neighbor-loss repair path.

use std::collections::BTreeMap;

use past_crypto::{audit_nonce, possession_proof, verify_possession, Digest};
use past_id::FileId;
use past_pastry::NodeEntry;
use past_net::SimTime;

/// One outstanding audit challenge.
#[derive(Clone, Copy, Debug)]
pub struct PendingAudit {
    /// File being audited.
    pub file_id: FileId,
    /// Expected content hash (from the auditor's own certificate).
    pub expected: Digest,
    /// The challenged holder.
    pub holder: NodeEntry,
    /// The nonce this challenge was issued with.
    pub nonce: u64,
    /// When the challenge was sent.
    pub sent_at: SimTime,
}

/// The verdict on an incoming possession proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The proof matches SHA-1(expected content ‖ challenge nonce).
    Pass,
    /// The proof is absent, wrong, or computed over a stale nonce.
    Fail,
    /// No such challenge is outstanding (replay or spurious proof) —
    /// ignored, no score effect either way.
    Stale,
}

/// Auditor-side bookkeeping for outstanding challenges.
#[derive(Clone, Debug, Default)]
pub struct AuditBook {
    pending: BTreeMap<u64, PendingAudit>,
    next_seq: u64,
}

/// Running audit counters, with the first-detection timestamp the
/// harness turns into a detection-latency metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Challenges issued.
    pub challenges: u64,
    /// Proofs that verified.
    pub passed: u64,
    /// Proofs that failed verification (wrong digest or "not held").
    pub failed: u64,
    /// Challenges that timed out unanswered.
    pub timeouts: u64,
    /// When this auditor first caught a holder (failed proof or
    /// timeout), if ever.
    pub first_detection: Option<SimTime>,
}

impl AuditStats {
    fn record_detection(&mut self, now: SimTime) {
        if self.first_detection.is_none() {
            self.first_detection = Some(now);
        }
    }
}

impl AuditBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        AuditBook::default()
    }

    /// Issues a challenge against `holder` for `file_id`, deriving the
    /// nonce from `auditor_id` (any stable identity bytes) and the
    /// book's own monotone sequence counter. Returns `(seq, nonce)` for
    /// the wire message.
    pub fn issue(
        &mut self,
        auditor_id: &[u8],
        file_id: FileId,
        expected: Digest,
        holder: NodeEntry,
        now: SimTime,
        stats: &mut AuditStats,
    ) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let nonce = audit_nonce(auditor_id, seq);
        self.pending.insert(
            seq,
            PendingAudit {
                file_id,
                expected,
                holder,
                nonce,
                sent_at: now,
            },
        );
        stats.challenges += 1;
        (seq, nonce)
    }

    /// Settles the challenge `seq` with the holder's proof. `None`
    /// means the holder reported not having the copy (counts as a
    /// failure). The challenge is consumed either way, so a second
    /// proof for the same `seq` — a replay — comes back
    /// [`AuditVerdict::Stale`].
    pub fn settle(
        &mut self,
        seq: u64,
        proof: Option<&Digest>,
        now: SimTime,
        stats: &mut AuditStats,
    ) -> (AuditVerdict, Option<PendingAudit>) {
        let Some(pending) = self.pending.remove(&seq) else {
            return (AuditVerdict::Stale, None);
        };
        let ok = match proof {
            Some(p) => verify_possession(&pending.expected, pending.nonce, p),
            None => false,
        };
        if ok {
            stats.passed += 1;
            (AuditVerdict::Pass, Some(pending))
        } else {
            stats.failed += 1;
            stats.record_detection(now);
            (AuditVerdict::Fail, Some(pending))
        }
    }

    /// Expires the challenge `seq` after its timeout fired unanswered.
    /// Returns the abandoned challenge, or `None` if it was already
    /// settled (the proof raced the timer).
    pub fn expire(
        &mut self,
        seq: u64,
        now: SimTime,
        stats: &mut AuditStats,
    ) -> Option<PendingAudit> {
        let pending = self.pending.remove(&seq)?;
        stats.timeouts += 1;
        stats.record_detection(now);
        Some(pending)
    }

    /// Number of challenges still outstanding.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// Computes the proof an *honest* holder returns: the possession digest
/// over its stored copy's content hash.
pub fn honest_proof(content: &Digest, nonce: u64) -> Digest {
    possession_proof(content, nonce)
}

/// Computes the proof a holder serving *corrupted* content produces:
/// it hashes the bytes it actually has, which differ from what the
/// certificate committed to. Modeled by perturbing the content hash.
pub fn corrupted_proof(content: &Digest, nonce: u64) -> Digest {
    let mut bad = *content;
    bad.0[0] ^= 0xff;
    possession_proof(&bad, nonce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::Sha1;
    use past_id::NodeId;
    use past_net::Addr;

    fn holder() -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(42), Addr(42))
    }

    fn content() -> Digest {
        Sha1::digest(b"file body")
    }

    #[test]
    fn honest_holder_always_passes() {
        let mut book = AuditBook::new();
        let mut stats = AuditStats::default();
        for i in 0..16 {
            let fid = content().to_file_id();
            let (seq, nonce) =
                book.issue(b"auditor", fid, content(), holder(), SimTime(i), &mut stats);
            let proof = honest_proof(&content(), nonce);
            let (verdict, pending) = book.settle(seq, Some(&proof), SimTime(i), &mut stats);
            assert_eq!(verdict, AuditVerdict::Pass);
            assert_eq!(pending.unwrap().file_id, fid);
        }
        assert_eq!(stats.passed, 16);
        assert_eq!(stats.failed, 0);
        assert!(stats.first_detection.is_none());
    }

    #[test]
    fn corrupted_and_discarded_always_fail() {
        let mut book = AuditBook::new();
        let mut stats = AuditStats::default();
        let fid = content().to_file_id();
        // Corrupted copy: wrong digest.
        let (seq, nonce) = book.issue(b"a", fid, content(), holder(), SimTime(5), &mut stats);
        let bad = corrupted_proof(&content(), nonce);
        assert_eq!(
            book.settle(seq, Some(&bad), SimTime(6), &mut stats).0,
            AuditVerdict::Fail
        );
        // Discarded copy: no proof at all.
        let (seq, _) = book.issue(b"a", fid, content(), holder(), SimTime(7), &mut stats);
        assert_eq!(
            book.settle(seq, None, SimTime(8), &mut stats).0,
            AuditVerdict::Fail
        );
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.first_detection, Some(SimTime(6)));
    }

    #[test]
    fn replayed_stale_proof_rejected() {
        let mut book = AuditBook::new();
        let mut stats = AuditStats::default();
        let fid = content().to_file_id();
        let (seq1, nonce1) = book.issue(b"a", fid, content(), holder(), SimTime(1), &mut stats);
        let proof1 = honest_proof(&content(), nonce1);
        assert_eq!(
            book.settle(seq1, Some(&proof1), SimTime(2), &mut stats).0,
            AuditVerdict::Pass
        );
        // Replaying the settled challenge's proof is ignored.
        assert_eq!(
            book.settle(seq1, Some(&proof1), SimTime(3), &mut stats).0,
            AuditVerdict::Stale
        );
        // A new challenge gets a fresh nonce: answering it with the old
        // challenge's proof fails digest comparison.
        let (seq2, nonce2) = book.issue(b"a", fid, content(), holder(), SimTime(4), &mut stats);
        assert_ne!(nonce1, nonce2);
        assert_eq!(
            book.settle(seq2, Some(&proof1), SimTime(5), &mut stats).0,
            AuditVerdict::Fail
        );
        // A proof for a never-issued seq is also stale.
        assert_eq!(
            book.settle(999, Some(&proof1), SimTime(6), &mut stats).0,
            AuditVerdict::Stale
        );
        assert_eq!(stats.passed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn timeout_expires_once_and_races_cleanly() {
        let mut book = AuditBook::new();
        let mut stats = AuditStats::default();
        let fid = content().to_file_id();
        let (seq, nonce) = book.issue(b"a", fid, content(), holder(), SimTime(1), &mut stats);
        assert_eq!(book.outstanding(), 1);
        assert!(book.expire(seq, SimTime(10), &mut stats).is_some());
        assert!(book.expire(seq, SimTime(11), &mut stats).is_none());
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.first_detection, Some(SimTime(10)));
        // A proof arriving after the timeout is stale, not a pass.
        let proof = honest_proof(&content(), nonce);
        assert_eq!(
            book.settle(seq, Some(&proof), SimTime(12), &mut stats).0,
            AuditVerdict::Stale
        );
        assert_eq!(book.outstanding(), 0);
    }
}
