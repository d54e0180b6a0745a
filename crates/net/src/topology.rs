//! Proximity and latency models.
//!
//! The paper defines network proximity as "a scalar metric such as the
//! number of IP routing hops, bandwidth, geographic distance, etc.".
//! Pastry uses the metric to prefer nearby nodes in routing tables; the
//! simulator uses it to derive per-message latency. Three models are
//! provided:
//!
//! - [`EuclideanTopology`]: nodes placed uniformly in a unit square,
//!   distance is Euclidean — the model used by the Pastry paper's own
//!   emulations.
//! - [`ClusteredTopology`]: nodes grouped into geographic clusters with
//!   small intra-cluster and large inter-cluster distances; this mirrors
//!   the §5.2 caching experiment, where the eight NLANR proxy sites are
//!   "distributed geographically across the USA" and clients from one
//!   trace issue requests from nearby PAST nodes.
//! - [`UniformTopology`]: constant distance between all pairs (a control
//!   model that removes locality entirely).

use rand::Rng;

use crate::addr::Addr;
use crate::time::SimDuration;

/// A proximity/latency model over node addresses.
pub trait Topology {
    /// Scalar proximity metric between two nodes. Smaller is closer.
    /// Symmetric; zero only for a node and itself.
    fn distance(&self, a: Addr, b: Addr) -> f64;

    /// One-way message latency between two nodes.
    fn latency(&self, a: Addr, b: Addr) -> SimDuration;

    /// Number of addressable slots (addresses `0..capacity` are valid).
    fn capacity(&self) -> usize;

    /// A lower bound on [`Topology::latency`] over all node pairs: the
    /// conservative-lookahead window of the sharded engine. Any message
    /// sent at time `t` arrives no earlier than `t + min_latency()`, so
    /// shards may process a window of that width without synchronizing.
    ///
    /// The default is [`SimDuration::ZERO`] (no lookahead available);
    /// the sharded engine rejects such topologies, so custom models
    /// must override this to opt in.
    fn min_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Nodes at uniformly random points in the unit square; latency is
/// proportional to Euclidean distance plus a fixed per-hop cost.
#[derive(Clone, Debug)]
pub struct EuclideanTopology {
    points: Vec<(f64, f64)>,
    /// Fixed cost added to every message (protocol processing, first/last
    /// mile), in microseconds.
    base_latency_us: u64,
    /// Latency per unit of distance, in microseconds.
    us_per_unit: u64,
}

impl EuclideanTopology {
    /// Places `n` nodes uniformly at random.
    ///
    /// Default latency parameters give a continental-scale spread:
    /// 1 ms base cost plus up to ~40 ms across the unit square diagonal.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let points = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        EuclideanTopology {
            points,
            base_latency_us: 1_000,
            us_per_unit: 30_000,
        }
    }

    /// Overrides the latency parameters.
    pub fn with_latency(mut self, base_us: u64, us_per_unit: u64) -> Self {
        self.base_latency_us = base_us;
        self.us_per_unit = us_per_unit;
        self
    }

    /// Returns the coordinates of a node.
    pub fn point(&self, a: Addr) -> (f64, f64) {
        self.points[a.index()]
    }
}

impl Topology for EuclideanTopology {
    fn distance(&self, a: Addr, b: Addr) -> f64 {
        let (ax, ay) = self.points[a.index()];
        let (bx, by) = self.points[b.index()];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    fn latency(&self, a: Addr, b: Addr) -> SimDuration {
        let d = self.distance(a, b);
        SimDuration::from_micros(self.base_latency_us + (d * self.us_per_unit as f64) as u64)
    }

    fn capacity(&self) -> usize {
        self.points.len()
    }

    fn min_latency(&self) -> SimDuration {
        // Every latency is base + (distance-proportional) ≥ base.
        SimDuration::from_micros(self.base_latency_us)
    }
}

/// Nodes partitioned into geographic clusters.
///
/// Distance is `intra` within a cluster and `inter` between clusters
/// (optionally modulated per cluster pair by their index distance, which
/// gives a crude east–west coast spread).
#[derive(Clone, Debug)]
pub struct ClusteredTopology {
    cluster_of: Vec<u32>,
    clusters: u32,
    intra: f64,
    inter: f64,
    base_latency_us: u64,
    us_per_unit: u64,
}

impl ClusteredTopology {
    /// Assigns `n` nodes round-robin to `clusters` clusters.
    pub fn round_robin(n: usize, clusters: u32) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let cluster_of = (0..n).map(|i| (i as u32) % clusters).collect();
        ClusteredTopology {
            cluster_of,
            clusters,
            intra: 0.05,
            inter: 1.0,
            base_latency_us: 1_000,
            us_per_unit: 30_000,
        }
    }

    /// Builds a topology from an explicit cluster assignment.
    pub fn from_assignment(cluster_of: Vec<u32>, clusters: u32) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(
            cluster_of.iter().all(|&c| c < clusters),
            "cluster index out of range"
        );
        ClusteredTopology {
            cluster_of,
            clusters,
            intra: 0.05,
            inter: 1.0,
            base_latency_us: 1_000,
            us_per_unit: 30_000,
        }
    }

    /// Returns the cluster a node belongs to.
    pub fn cluster(&self, a: Addr) -> u32 {
        self.cluster_of[a.index()]
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u32 {
        self.clusters
    }
}

impl Topology for ClusteredTopology {
    fn distance(&self, a: Addr, b: Addr) -> f64 {
        if a == b {
            return 0.0;
        }
        let ca = self.cluster_of[a.index()];
        let cb = self.cluster_of[b.index()];
        if ca == cb {
            self.intra
        } else {
            // Spread clusters on a line so that distant clusters cost more.
            let span = (ca as f64 - cb as f64).abs() / self.clusters.max(1) as f64;
            self.inter * (0.5 + span)
        }
    }

    fn latency(&self, a: Addr, b: Addr) -> SimDuration {
        let d = self.distance(a, b);
        SimDuration::from_micros(self.base_latency_us + (d * self.us_per_unit as f64) as u64)
    }

    fn capacity(&self) -> usize {
        self.cluster_of.len()
    }

    fn min_latency(&self) -> SimDuration {
        SimDuration::from_micros(self.base_latency_us)
    }
}

/// All pairs equidistant: the degenerate control model.
#[derive(Clone, Debug)]
pub struct UniformTopology {
    n: usize,
    latency: SimDuration,
}

impl UniformTopology {
    /// Creates a uniform topology over `n` nodes with the given latency.
    pub fn new(n: usize, latency: SimDuration) -> Self {
        UniformTopology { n, latency }
    }
}

impl Topology for UniformTopology {
    fn distance(&self, a: Addr, b: Addr) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }

    fn latency(&self, _a: Addr, _b: Addr) -> SimDuration {
        self.latency
    }

    fn capacity(&self) -> usize {
        self.n
    }

    fn min_latency(&self) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn euclidean_distance_symmetric_and_zero_on_self() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = EuclideanTopology::random(10, &mut rng);
        for i in 0..10u32 {
            assert_eq!(t.distance(Addr(i), Addr(i)), 0.0);
            for j in 0..10u32 {
                assert!((t.distance(Addr(i), Addr(j)) - t.distance(Addr(j), Addr(i))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn euclidean_latency_includes_base() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = EuclideanTopology::random(4, &mut rng).with_latency(500, 10_000);
        assert!(t.latency(Addr(0), Addr(1)).micros() >= 500);
    }

    #[test]
    fn clustered_intra_closer_than_inter() {
        let t = ClusteredTopology::round_robin(16, 4);
        // Addresses 0 and 4 share cluster 0; 0 and 1 do not.
        assert_eq!(t.cluster(Addr(0)), t.cluster(Addr(4)));
        assert_ne!(t.cluster(Addr(0)), t.cluster(Addr(1)));
        assert!(t.distance(Addr(0), Addr(4)) < t.distance(Addr(0), Addr(1)));
    }

    #[test]
    fn clustered_respects_explicit_assignment() {
        let t = ClusteredTopology::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(t.cluster(Addr(1)), 0);
        assert_eq!(t.cluster(Addr(2)), 1);
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    #[should_panic]
    fn clustered_rejects_bad_assignment() {
        ClusteredTopology::from_assignment(vec![0, 5], 2);
    }

    #[test]
    fn euclidean_min_latency_is_base_cost() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = EuclideanTopology::random(16, &mut rng);
        assert_eq!(t.min_latency(), SimDuration::from_micros(1_000));
        let t = t.with_latency(250, 10_000);
        assert_eq!(t.min_latency(), SimDuration::from_micros(250));
        // It really is a lower bound over all pairs.
        for i in 0..16u32 {
            for j in 0..16u32 {
                assert!(t.latency(Addr(i), Addr(j)) >= t.min_latency());
            }
        }
    }

    #[test]
    fn clustered_min_latency_is_base_cost() {
        let t = ClusteredTopology::round_robin(16, 4);
        assert_eq!(t.min_latency(), SimDuration::from_micros(1_000));
        for i in 0..16u32 {
            for j in 0..16u32 {
                assert!(t.latency(Addr(i), Addr(j)) >= t.min_latency());
            }
        }
    }

    #[test]
    fn uniform_min_latency_is_its_constant() {
        let t = UniformTopology::new(5, SimDuration::from_millis(2));
        assert_eq!(t.min_latency(), SimDuration::from_millis(2));
        let zero = UniformTopology::new(5, SimDuration::ZERO);
        assert_eq!(zero.min_latency(), SimDuration::ZERO);
    }

    #[test]
    fn default_min_latency_is_zero() {
        // Custom models that don't override min_latency() advertise no
        // lookahead and are rejected by the sharded engine.
        struct Custom;
        impl Topology for Custom {
            fn distance(&self, _: Addr, _: Addr) -> f64 {
                1.0
            }
            fn latency(&self, _: Addr, _: Addr) -> SimDuration {
                SimDuration::from_millis(1)
            }
            fn capacity(&self) -> usize {
                2
            }
        }
        assert_eq!(Custom.min_latency(), SimDuration::ZERO);
    }

    #[test]
    fn uniform_is_flat() {
        let t = UniformTopology::new(5, SimDuration::from_millis(2));
        assert_eq!(t.latency(Addr(0), Addr(1)), SimDuration::from_millis(2));
        assert_eq!(t.distance(Addr(3), Addr(3)), 0.0);
        assert_eq!(t.distance(Addr(3), Addr(4)), 1.0);
    }
}
