//! PAST node configuration.

use past_net::SimDuration;
use past_store::{CachePolicyKind, StorePolicy};

/// Replication factor `k`: copies are kept on the `k` nodes with nodeIds
/// numerically closest to the fileId (the paper's 5, chosen from the
/// availability analysis of Bolosky et al.).
pub const K: usize = 5;

/// Configuration of a PAST node.
#[derive(Clone, Debug)]
pub struct PastConfig {
    /// Storage-management thresholds (`t_pri`, `t_div`, cache fraction).
    pub policy: StorePolicy,
    /// Cache replacement policy.
    pub cache_policy: CachePolicyKind,
    /// Maximum number of *re-salting* retries after a failed insert
    /// attempt (paper: 3 retries, i.e. at most 4 attempts total).
    pub max_file_diversions: u32,
    /// Whether storage nodes verify certificate signatures and clients
    /// verify store receipts. Disabled in the very large trace-driven
    /// experiments (certificates are still issued and shipped; only the
    /// checks are skipped).
    pub verify_certificates: bool,
    /// Client-side per-attempt timeout for insert/lookup/reclaim. Zero
    /// disables timeouts (static experiments never need them and the
    /// event queue drains faster without timer events).
    pub client_timeout: SimDuration,
    /// Period of the anti-entropy sweep: each node re-audits a batch of
    /// its primary replicas against the current replica set and
    /// re-issues repairs ("slow repair"). Zero disables the sweep —
    /// the default, because the periodic timer keeps the event queue
    /// non-empty, which static experiments driving the simulator with
    /// `run_until_idle` cannot tolerate. Bounded (`run_for`) churn
    /// experiments enable it. Under `PastryConfig::warm_restart` the
    /// sweep ships certificates and receivers fetch what they miss,
    /// instead of re-shipping whole replicas.
    pub anti_entropy_period: SimDuration,
    /// Period of the sampled storage-audit sweep: each sweep the node
    /// challenges a sampled replica holder per audited file to prove
    /// possession via SHA-1(file ‖ nonce) (LOCKSS-style rate-limited
    /// sampling). Failed or timed-out proofs shun the holder locally
    /// and trigger re-replication through the normal neighbor-loss
    /// repair path. Zero disables audits — the default; audit
    /// scheduling is RNG-free, so enabling it never perturbs any seeded
    /// RNG stream.
    ///
    /// A nonzero period also arms the defence's client half, lookup
    /// content verification: the client recomputes the content hash of
    /// a lookup answer against the signed certificate, discards a
    /// corrupted answer, shuns the server and retries the lookup (up to
    /// `k` times) before accepting defeat.
    pub audit_period: SimDuration,
    /// Width of the windowed time-series buckets for the obs layer:
    /// lookup completions, cache hits, hop counts, and per-node served
    /// load are additionally recorded per fixed sim-time window of this
    /// width (bucket = now / width), so they can be charted *over time*
    /// — e.g. across a flash-crowd popularity flip. Zero disables the
    /// windows — the default, keeping metrics reports byte-identical to
    /// earlier revisions.
    pub obs_window: SimDuration,
}

impl Default for PastConfig {
    fn default() -> Self {
        PastConfig {
            policy: StorePolicy::default(),
            cache_policy: CachePolicyKind::GreedyDualSize,
            max_file_diversions: 3,
            verify_certificates: false,
            client_timeout: SimDuration::ZERO,
            anti_entropy_period: SimDuration::ZERO,
            audit_period: SimDuration::ZERO,
            obs_window: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PastConfig::default();
        assert_eq!(c.max_file_diversions, 3);
        assert!((c.policy.t_pri - 0.1).abs() < 1e-12);
        assert!((c.policy.t_div - 0.05).abs() < 1e-12);
        // The Byzantine defense layer is opt-in: default runs make no
        // audit sends and no lookup retries.
        assert_eq!(c.audit_period, SimDuration::ZERO);
    }
}
