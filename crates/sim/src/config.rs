//! Experiment configuration.

use past_core::PastConfig;
use past_net::SimDuration;
use past_pastry::PastryConfig;
use past_store::{CachePolicyKind, StorePolicy};
use past_workload::CapacityDistribution;

/// Which topology the overlay runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologyKind {
    /// Uniform random placement in the unit square.
    Euclidean,
    /// Geographic clusters (the §5.2 caching experiment: 8 NLANR sites).
    Clustered {
        /// Number of clusters.
        clusters: u32,
    },
}

/// Full configuration of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Number of PAST nodes (the paper fixes 2250).
    pub nodes: usize,
    /// Leaf set size l (paper: 16 or 32).
    pub leaf_set_size: usize,
    /// Primary-replica acceptance threshold t_pri.
    pub t_pri: f64,
    /// Diverted-replica acceptance threshold t_div.
    pub t_div: f64,
    /// Cache replacement policy.
    pub cache_policy: CachePolicyKind,
    /// Cache admission fraction c (paper: 1).
    pub cache_fraction: f64,
    /// Maximum re-salting retries (paper: 3; the no-diversion baseline
    /// uses 0).
    pub max_file_diversions: u32,
    /// Node capacity distribution (Table 1 shape), scaled to the trace
    /// by the runner.
    pub capacity: CapacityDistribution,
    /// Whether to replay repeated references as lookups (caching
    /// experiments) or only first appearances as inserts (storage
    /// experiments).
    pub replay_lookups: bool,
    /// Topology.
    pub topology: TopologyKind,
    /// Master seed.
    pub seed: u64,
    /// Simulation shards: 0 runs the single-threaded legacy engine,
    /// `n ≥ 1` runs the sharded engine with `n` shards (same seed ⇒
    /// same execution at any shard count; see `past_net::ShardedSim`).
    pub shards: usize,
    /// Width of the windowed time-series buckets ([`PastConfig::obs_window`]):
    /// when nonzero (and metrics recording is on), lookup completions,
    /// cache hits, hop counts and per-node served load are additionally
    /// bucketed by fixed sim-time windows, and the runner extracts them
    /// into [`crate::ExperimentResult::windows`]. Zero — the default —
    /// disables the windows and keeps metrics reports byte-identical to
    /// earlier revisions.
    pub obs_window: SimDuration,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            nodes: 2250,
            leaf_set_size: 32,
            t_pri: 0.1,
            t_div: 0.05,
            cache_policy: CachePolicyKind::None,
            cache_fraction: 1.0,
            max_file_diversions: 3,
            capacity: CapacityDistribution::d1(),
            replay_lookups: false,
            topology: TopologyKind::Euclidean,
            seed: 2001,
            shards: 0,
            obs_window: SimDuration::ZERO,
        }
    }
}

impl ExperimentConfig {
    /// The §5.1 baseline: no replica diversion (t_pri = 1 accepts
    /// anything that fits), no diverted replicas (t_div = 0), no
    /// re-salting.
    pub fn no_diversion(mut self) -> Self {
        self.t_pri = 1.0;
        self.t_div = 0.0;
        self.max_file_diversions = 0;
        self
    }

    /// Derives the per-node PAST configuration: the experiment's own
    /// parameters over [`PastConfig::default`] (timeouts, maintenance,
    /// audits and verification all stay off, as in the paper's replays).
    pub fn past_config(&self) -> PastConfig {
        PastConfig {
            policy: StorePolicy {
                t_pri: self.t_pri,
                t_div: self.t_div,
                cache_fraction: self.cache_fraction,
            },
            cache_policy: self.cache_policy,
            max_file_diversions: self.max_file_diversions,
            obs_window: self.obs_window,
            ..PastConfig::default()
        }
    }

    /// Derives the Pastry configuration (keep-alives off: the trace
    /// replay runs on a static overlay, exactly like the paper's
    /// experiments).
    pub fn pastry_config(&self) -> PastryConfig {
        PastryConfig {
            leaf_set_size: self.leaf_set_size,
            keep_alive_period: SimDuration::ZERO,
            ..PastryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = ExperimentConfig::default();
        assert_eq!(c.nodes, 2250);
        assert_eq!(c.leaf_set_size, 32);
        assert!((c.t_pri - 0.1).abs() < 1e-12);
    }

    #[test]
    fn no_diversion_baseline() {
        let c = ExperimentConfig::default().no_diversion();
        assert_eq!(c.t_pri, 1.0);
        assert_eq!(c.t_div, 0.0);
        assert_eq!(c.max_file_diversions, 0);
        let pc = c.past_config();
        assert_eq!(pc.max_file_diversions, 0);
    }
}
