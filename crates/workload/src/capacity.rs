//! Node storage-capacity distributions (Table 1 of the paper).
//!
//! The storage space contributed by each PAST node is drawn from a
//! truncated normal distribution with mean `m`, standard deviation `σ`
//! and explicit lower/upper bounds. The paper's four distributions
//! d1–d4 (all in MBytes, scaled ~1000× below practice so that bounded
//! traces can reach high utilization):
//!
//! | name | m  | σ    | lower | upper |
//! |------|----|------|-------|-------|
//! | d1   | 27 | 10.8 | 2     | 51    |
//! | d2   | 27 | 9.6  | 4     | 49    |
//! | d3   | 27 | 54.0 | 6     | 48    |
//! | d4   | 27 | 54.0 | 1     | 53    |

use rand::Rng;

use crate::dist::TruncatedNormal;

/// One megabyte in bytes.
pub const MB: u64 = 1 << 20;

/// A named truncated-normal capacity distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityDistribution {
    /// Display name ("d1" … "d4" or custom).
    pub name: String,
    /// Mean, in bytes.
    pub mean: f64,
    /// Standard deviation, in bytes.
    pub sd: f64,
    /// Lower truncation bound, in bytes.
    pub lower: f64,
    /// Upper truncation bound, in bytes.
    pub upper: f64,
}

impl CapacityDistribution {
    /// Table 1, distribution d1: m 27 MB, σ 10.8 MB, bounds [2, 51] MB
    /// (±2.3σ).
    pub fn d1() -> Self {
        Self::mb("d1", 27.0, 10.8, 2.0, 51.0)
    }

    /// Table 1, distribution d2: m 27 MB, σ 9.6 MB, bounds [4, 49] MB.
    pub fn d2() -> Self {
        Self::mb("d2", 27.0, 9.6, 4.0, 49.0)
    }

    /// Table 1, distribution d3: m 27 MB, σ 54 MB, bounds [6, 48] MB
    /// (large σ, arbitrary bounds — more small nodes).
    pub fn d3() -> Self {
        Self::mb("d3", 27.0, 54.0, 6.0, 48.0)
    }

    /// Table 1, distribution d4: m 27 MB, σ 54 MB, bounds [1, 53] MB.
    pub fn d4() -> Self {
        Self::mb("d4", 27.0, 54.0, 1.0, 53.0)
    }

    /// All four Table 1 distributions, in order.
    pub fn table1() -> [CapacityDistribution; 4] {
        [Self::d1(), Self::d2(), Self::d3(), Self::d4()]
    }

    /// Builds a distribution from MByte-denominated parameters.
    pub fn mb(name: &str, mean: f64, sd: f64, lower: f64, upper: f64) -> Self {
        CapacityDistribution {
            name: name.to_string(),
            mean: mean * MB as f64,
            sd: sd * MB as f64,
            lower: lower * MB as f64,
            upper: upper * MB as f64,
        }
    }

    /// Returns a copy with every parameter multiplied by `factor`
    /// (the paper scales d1 by 10 for the filesystem workload; the
    /// reproduction also scales to match its trace sizes).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        CapacityDistribution {
            name: self.name.clone(),
            mean: self.mean * factor,
            sd: self.sd * factor,
            lower: self.lower * factor,
            upper: self.upper * factor,
        }
    }

    /// Samples the capacities of `n` nodes, in bytes.
    pub fn sample_nodes<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        let d = TruncatedNormal::new(self.mean, self.sd, self.lower, self.upper);
        (0..n).map(|_| d.sample(rng).round() as u64).collect()
    }

    /// The scale factor that makes `n` nodes' expected total capacity
    /// equal `target_total` bytes. Used to match scaled-down traces while
    /// preserving the distribution's *shape* (ratio of σ, bounds to mean).
    pub fn scale_for_total(&self, n: usize, target_total: f64) -> f64 {
        // The truncation in Table 1 is nearly symmetric, so the mean of
        // the truncated distribution is close to `mean`.
        target_total / (self.mean * n as f64)
    }
}

/// Admission control on advertised capacities (paper §3.2): PAST assumes
/// node capacities within two orders of magnitude of each other. A
/// joining node much larger than the leaf-set average must split into
/// multiple virtual nodes; one much smaller is rejected.
#[derive(Clone, Copy, Debug)]
pub enum Admission {
    /// Join as a single node.
    Accept,
    /// Too large: rejoin as this many virtual nodes, each with capacity
    /// `advertised / count`.
    Split {
        /// Number of virtual nodes to create.
        count: u32,
    },
    /// Too small relative to the current membership: rejected.
    Reject,
}

/// Applies the §3.2 admission rule given the advertised capacity and the
/// average capacity among the joining node's prospective leaf set.
pub fn admit(advertised: u64, leaf_set_average: f64) -> Admission {
    if leaf_set_average <= 0.0 {
        return Admission::Accept;
    }
    let ratio = advertised as f64 / leaf_set_average;
    if ratio > 100.0 {
        // Split so each virtual node is within an order of magnitude of
        // the average.
        let count = (ratio / 10.0).ceil() as u32;
        Admission::Split { count }
    } else if ratio < 0.01 {
        Admission::Reject
    } else {
        Admission::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn table1_parameters() {
        let d1 = CapacityDistribution::d1();
        assert_eq!(d1.mean, 27.0 * MB as f64);
        assert_eq!(d1.lower, 2.0 * MB as f64);
        let all = CapacityDistribution::table1();
        assert_eq!(all.len(), 4);
        assert_eq!(all[2].name, "d3");
        assert_eq!(all[3].upper, 53.0 * MB as f64);
    }

    #[test]
    fn samples_within_bounds_and_near_expected_total() {
        let mut rng = StdRng::seed_from_u64(1);
        for dist in CapacityDistribution::table1() {
            let caps = dist.sample_nodes(2250, &mut rng);
            assert_eq!(caps.len(), 2250);
            for &c in &caps {
                assert!(c as f64 >= dist.lower - 1.0 && c as f64 <= dist.upper + 1.0);
            }
            // Paper's Table 1 totals are ~59.6–61.5 GB for 2250 nodes;
            // allow ±10% (d3/d4 have asymmetric truncation).
            let total: u64 = caps.iter().sum();
            let expect = 2250.0 * dist.mean;
            assert!(
                (total as f64 / expect - 1.0).abs() < 0.12,
                "{}: total {total}",
                dist.name
            );
        }
    }

    #[test]
    fn scaled_preserves_shape() {
        let d = CapacityDistribution::d1().scaled(10.0);
        assert_eq!(d.mean, 270.0 * MB as f64);
        assert_eq!(d.lower, 20.0 * MB as f64);
        assert_eq!(d.upper, 510.0 * MB as f64);
    }

    #[test]
    fn scale_for_total_inverts() {
        let d = CapacityDistribution::d1();
        let f = d.scale_for_total(1000, 1000.0 * 54.0 * MB as f64);
        assert!((f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn admission_rules() {
        assert!(matches!(admit(50 * MB, 40.0 * MB as f64), Admission::Accept));
        assert!(matches!(
            admit(10_000 * MB, 40.0 * MB as f64),
            Admission::Split { .. }
        ));
        assert!(matches!(admit(1, 40.0 * MB as f64), Admission::Reject));
        // No information: accept.
        assert!(matches!(admit(1, 0.0), Admission::Accept));
    }

    #[test]
    fn split_count_brings_ratio_down() {
        let avg = 40.0 * MB as f64;
        if let Admission::Split { count } = admit(10_000 * MB, avg) {
            let per_node = 10_000.0 * MB as f64 / count as f64;
            assert!(per_node / avg <= 100.0);
        } else {
            panic!("expected split");
        }
    }
}
