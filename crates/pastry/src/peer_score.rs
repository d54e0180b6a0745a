//! Per-peer reliability tracking.
//!
//! Every node keeps a small history for each peer it has interacted
//! with: how many exchanges succeeded, how many timed out, when the
//! peer was last seen, and an exponentially-decayed reliability score.
//! The score is a fixed-point value in `[0, 1000]` (milli-units) that
//! moves toward 1000 on success, toward 0 on failure, and decays back
//! toward the uninformed prior (500) with a configurable half-life —
//! stale evidence loses weight, so a peer that flapped an hour ago is
//! not punished forever.
//!
//! All arithmetic is integer fixed-point: scores are byte-identical
//! across platforms and shard counts, and `reliability_milli` is safe
//! to use as a deterministic sort key.

use past_id::{IdHashMap, NodeId};
use past_net::{SimDuration, SimTime};

/// The uninformed prior: what we assume about a peer we know nothing
/// about, and the value stale scores decay back toward.
pub const RELIABILITY_PRIOR_MILLI: u64 = 500;

/// EWMA step: each observation moves the score 1/4 of the way toward
/// its target (1000 on success, 0 on failure).
const STEP_SHIFT: u32 = 2;

/// One peer's interaction history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerScore {
    /// Exchanges that completed (acks, pongs, fulfilled fetches).
    pub successes: u64,
    /// Exchanges that timed out or were abandoned.
    pub failures: u64,
    /// Last time any evidence about this peer arrived.
    pub last_seen: SimTime,
    /// Decayed reliability in milli-units at `last_seen`.
    pub reliability_milli: u64,
}

impl PeerScore {
    fn fresh(now: SimTime) -> Self {
        PeerScore {
            successes: 0,
            failures: 0,
            last_seen: now,
            reliability_milli: RELIABILITY_PRIOR_MILLI,
        }
    }

    /// The score decayed from `last_seen` to `now`, without recording
    /// new evidence. Decay halves the distance to the prior once per
    /// half-life, with linear interpolation inside a half-life.
    pub fn decayed(&self, now: SimTime, half_life: SimDuration) -> u64 {
        decay_toward_prior(self.reliability_milli, now - self.last_seen, half_life)
    }

    fn observe(&mut self, now: SimTime, half_life: SimDuration, success: bool) {
        let rel = self.decayed(now, half_life);
        self.reliability_milli = if success {
            self.successes += 1;
            rel + ((1000 - rel) >> STEP_SHIFT)
        } else {
            self.failures += 1;
            rel - (rel >> STEP_SHIFT)
        };
        self.last_seen = now;
    }
}

/// Applies `elapsed` worth of exponential decay toward the prior.
///
/// The decay factor `2^-(elapsed / half_life)` is evaluated in integer
/// fixed-point: a right shift per whole half-life elapsed, then a
/// linear interpolation toward the next halving for the remainder.
fn decay_toward_prior(rel: u64, elapsed: SimDuration, half_life: SimDuration) -> u64 {
    if half_life == SimDuration::ZERO || elapsed == SimDuration::ZERO {
        return rel;
    }
    let h = half_life.micros();
    let whole = elapsed.micros() / h;
    if whole >= 63 {
        return RELIABILITY_PRIOR_MILLI;
    }
    let frac = elapsed.micros() % h;
    // Distance from the prior, halved `whole` times, then shrunk
    // linearly by frac/h of another halving (u128: |delta| ≤ 500 and
    // frac < h ≤ u64::MAX, so the product needs the headroom).
    let delta = rel as i64 - RELIABILITY_PRIOR_MILLI as i64;
    let halved = delta >> whole; // arithmetic shift keeps the sign
    let interp = halved - ((halved as i128) * (frac as i128) / (2 * h as i128)) as i64;
    (RELIABILITY_PRIOR_MILLI as i64 + interp) as u64
}

/// The per-node table of peer scores.
#[derive(Clone, Debug, Default)]
pub struct PeerScoreTable {
    half_life: SimDuration,
    scores: IdHashMap<NodeId, PeerScore>,
}

impl PeerScoreTable {
    /// A table decaying scores with the given half-life (zero disables
    /// decay).
    pub fn new(half_life: SimDuration) -> Self {
        PeerScoreTable {
            half_life,
            scores: IdHashMap::default(),
        }
    }

    /// Records a successful exchange with `id` at `now`.
    pub fn record_success(&mut self, id: NodeId, now: SimTime) {
        self.scores
            .entry(id)
            .or_insert_with(|| PeerScore::fresh(now))
            .observe(now, self.half_life, true);
    }

    /// Records a failed exchange (timeout, abandoned transfer) with
    /// `id` at `now`.
    pub fn record_failure(&mut self, id: NodeId, now: SimTime) {
        self.scores
            .entry(id)
            .or_insert_with(|| PeerScore::fresh(now))
            .observe(now, self.half_life, false);
    }

    /// The decayed reliability of `id` at `now`, in milli-units.
    /// Unknown peers get the prior — no evidence either way.
    pub fn reliability_milli(&self, id: NodeId, now: SimTime) -> u64 {
        self.scores
            .get(&id)
            .map(|s| s.decayed(now, self.half_life))
            .unwrap_or(RELIABILITY_PRIOR_MILLI)
    }

    /// The raw score record for `id`, if any evidence exists.
    pub fn get(&self, id: NodeId) -> Option<&PeerScore> {
        self.scores.get(&id)
    }

    /// Number of peers with recorded evidence.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` when no evidence has been recorded.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: SimDuration = SimDuration::from_secs(60);

    fn id(v: u128) -> NodeId {
        NodeId::from_u128(v)
    }

    #[test]
    fn unknown_peer_gets_prior() {
        let t = PeerScoreTable::new(H);
        assert_eq!(t.reliability_milli(id(1), SimTime(5)), 500);
    }

    #[test]
    fn successes_raise_failures_lower() {
        let mut t = PeerScoreTable::new(H);
        let now = SimTime(1_000);
        t.record_success(id(1), now);
        assert!(t.reliability_milli(id(1), now) > 500);
        t.record_failure(id(2), now);
        assert!(t.reliability_milli(id(2), now) < 500);
        let s = t.get(id(1)).unwrap();
        assert_eq!((s.successes, s.failures), (1, 0));
    }

    #[test]
    fn score_saturates_within_bounds() {
        let mut t = PeerScoreTable::new(H);
        let now = SimTime(0);
        for _ in 0..100 {
            t.record_success(id(1), now);
            t.record_failure(id(2), now);
        }
        assert!(t.reliability_milli(id(1), now) <= 1000);
        // 1 - (1 - 1/4)^100 → the EWMA converges just short of 1000.
        assert!(t.reliability_milli(id(1), now) >= 990);
        assert!(t.reliability_milli(id(2), now) <= 10);
    }

    #[test]
    fn decay_halves_distance_per_half_life() {
        let mut t = PeerScoreTable::new(H);
        for _ in 0..100 {
            t.record_success(id(1), SimTime(0));
        }
        let at0 = t.reliability_milli(id(1), SimTime(0));
        let at1 = t.reliability_milli(id(1), SimTime(0) + H);
        let at2 = t.reliability_milli(id(1), SimTime(0) + H + H);
        assert_eq!(at1 - 500, (at0 - 500) >> 1);
        assert_eq!(at2 - 500, (at0 - 500) >> 2);
        // Far future: fully decayed back to the prior.
        assert_eq!(t.reliability_milli(id(1), SimTime(u64::MAX / 2)), 500);
    }

    #[test]
    fn decay_interpolates_monotonically() {
        let mut t = PeerScoreTable::new(H);
        t.record_failure(id(1), SimTime(0));
        let mut prev = t.reliability_milli(id(1), SimTime(0));
        for step in 1..=8 {
            let now = SimTime(step * H.micros() / 4);
            let cur = t.reliability_milli(id(1), now);
            assert!(cur >= prev, "decay toward prior must be monotone");
            prev = cur;
        }
        assert!(prev <= 500);
    }

    #[test]
    fn zero_half_life_disables_decay() {
        let mut t = PeerScoreTable::new(SimDuration::ZERO);
        t.record_success(id(1), SimTime(0));
        let early = t.reliability_milli(id(1), SimTime(0));
        assert_eq!(t.reliability_milli(id(1), SimTime(u64::MAX)), early);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// An arbitrary bounded evidence sequence: (success?, gap µs).
        fn evidence() -> impl Strategy<Value = Vec<(bool, u64)>> {
            prop::collection::vec((any::<bool>(), 0u64..10 * H.micros()), 0..64)
        }

        proptest! {
            #[test]
            fn prop_score_stays_within_bounds(seq in evidence()) {
                let mut t = PeerScoreTable::new(H);
                let mut now = SimTime(0);
                for (success, gap) in seq {
                    now += SimDuration::from_micros(gap);
                    if success {
                        t.record_success(id(7), now);
                    } else {
                        t.record_failure(id(7), now);
                    }
                    let rel = t.reliability_milli(id(7), now);
                    prop_assert!(rel <= 1000, "score {rel} escaped [0, 1000]");
                }
            }

            #[test]
            fn prop_decay_monotone_toward_prior(
                seq in evidence(),
                probes in prop::collection::vec(0u64..100 * H.micros(), 1..16),
            ) {
                let mut t = PeerScoreTable::new(H);
                let mut now = SimTime(0);
                for (success, gap) in seq {
                    now += SimDuration::from_micros(gap);
                    if success {
                        t.record_success(id(7), now);
                    } else {
                        t.record_failure(id(7), now);
                    }
                }
                // After the last evidence, the score only ever moves
                // toward the prior, never past it and never away.
                let mut probes = probes;
                probes.sort_unstable();
                let at_last = t.reliability_milli(id(7), now);
                let mut prev = at_last;
                for gap in probes {
                    let cur = t.reliability_milli(id(7), now + SimDuration::from_micros(gap));
                    if at_last >= RELIABILITY_PRIOR_MILLI {
                        prop_assert!(cur <= prev && cur >= RELIABILITY_PRIOR_MILLI);
                    } else {
                        prop_assert!(cur >= prev && cur <= RELIABILITY_PRIOR_MILLI);
                    }
                    prev = cur;
                }
            }

            #[test]
            fn prop_same_evidence_same_score(seq in evidence()) {
                // Determinism: two tables fed the identical evidence
                // stream agree exactly — the property that makes scores
                // safe as sort keys and invariant across shard counts.
                let mut a = PeerScoreTable::new(H);
                let mut b = PeerScoreTable::new(H);
                let mut now = SimTime(0);
                for (success, gap) in seq {
                    now += SimDuration::from_micros(gap);
                    if success {
                        a.record_success(id(7), now);
                        b.record_success(id(7), now);
                    } else {
                        a.record_failure(id(7), now);
                        b.record_failure(id(7), now);
                    }
                }
                prop_assert_eq!(a.len(), b.len());
                prop_assert_eq!(a.get(id(7)), b.get(id(7)));
                prop_assert_eq!(
                    a.reliability_milli(id(7), now + H),
                    b.reliability_milli(id(7), now + H)
                );
            }
        }
    }
}
