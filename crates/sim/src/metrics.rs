//! Metric collection: everything needed to regenerate the paper's
//! tables and figures from one experiment run.

use past_core::HitKind;

/// One insert's outcome, recorded at completion time, with the replica
/// totals at that moment (the exact Figure 5 curve reads those).
#[derive(Clone, Copy, Debug)]
pub struct InsertRecord {
    /// Global storage utilization (0..=1) when the insert completed.
    pub utilization: f64,
    /// File size in bytes.
    pub size: u64,
    /// Attempts made (1 = stored at the first fileId; 2–4 = file
    /// diversions; the paper aborts after 4).
    pub attempts: u32,
    /// Replicas stored in the whole system when the insert completed.
    pub replicas: u32,
    /// Diverted replicas among them.
    pub diverted: u32,
    /// Whether the insert succeeded.
    pub success: bool,
}

/// One lookup's outcome.
#[derive(Clone, Copy, Debug)]
pub struct LookupRecord {
    /// Global storage utilization when the lookup completed.
    pub utilization: f64,
    /// Whether the file was found.
    pub found: bool,
    /// Routing hops until the file was found.
    pub hops: u32,
    /// Whether a cached copy answered.
    pub cache_hit: bool,
}

/// Per-window aggregate of a per-node windowed counter: how one
/// window's served load spreads over the nodes that served anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeWindowStat {
    /// Sum over all nodes in the window.
    pub total: u64,
    /// Distinct nodes that contributed.
    pub nodes: u64,
    /// Largest single node's contribution (the hot node).
    pub max: u64,
}

/// The windowed time series extracted from the obs registry after a run
/// with [`crate::ExperimentConfig::obs_window`] set: counters and
/// per-node load spread per fixed sim-time bucket. Buckets are
/// `sim_time / width_us`; multiply by `width_us` to recover time.
#[derive(Clone, Debug, Default)]
pub struct WindowSeries {
    /// Bucket width in simulated microseconds.
    pub width_us: u64,
    /// Plain windowed counters (`past.win.lookup`, `.cached`, `.hops`),
    /// name → bucket → count.
    pub counters: std::collections::BTreeMap<String, std::collections::BTreeMap<u64, u64>>,
    /// Per-node windowed counters (`past.win.served`), aggregated per
    /// bucket into total / distinct-node / max statistics.
    pub node_stats:
        std::collections::BTreeMap<String, std::collections::BTreeMap<u64, NodeWindowStat>>,
}

/// Aggregated result of one experiment run.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// Per-insert records in completion order.
    pub inserts: Vec<InsertRecord>,
    /// Per-lookup records in completion order (empty for storage-only
    /// runs).
    pub lookups: Vec<LookupRecord>,
    /// Exact insert completions over the run. Always maintained, even
    /// when per-record vectors are thinned with
    /// [`crate::Runner::with_record_sampling`] — XL-scale replays use
    /// these for counters instead of `inserts.len()`.
    pub inserts_total: u64,
    /// Exact successful inserts (see [`Self::inserts_total`]).
    pub inserts_ok: u64,
    /// Exact lookup completions (see [`Self::inserts_total`]).
    pub lookups_total: u64,
    /// Exact found lookups (see [`Self::inserts_total`]).
    pub lookups_ok: u64,
    /// Replicas held at the end of the run (primary + diverted): every
    /// store counted, every drop subtracted.
    pub replicas_stored: u64,
    /// Diverted replicas held at the end of the run.
    pub replicas_diverted: u64,
    /// Total advertised capacity (bytes).
    pub total_capacity: u64,
    /// Replica bytes stored at the end of the run.
    pub stored_bytes: u64,
    /// Wall-clock seconds the run took (for the harness log).
    pub wall_seconds: f64,
    /// The `past-obs` metrics report (present when the run was built
    /// with [`crate::Runner::with_metrics`]). Deterministic for a
    /// given seed — byte-identical across same-seed reruns.
    pub metrics_json: Option<String>,
    /// Windowed time series (present when the run was built with
    /// metrics recording and a nonzero
    /// [`crate::ExperimentConfig::obs_window`]).
    pub windows: Option<WindowSeries>,
    /// Simulated time (µs) at which the trace replay started — overlay
    /// construction runs before this. Subtract from window-bucket times
    /// to get replay-relative time.
    pub replay_start_us: u64,
    /// Network-level event totals for the whole run (overlay
    /// construction included), for throughput reporting.
    pub net: past_net::NetStats,
}

impl ExperimentResult {
    /// Final global storage utilization in [0, 1].
    pub fn final_utilization(&self) -> f64 {
        if self.total_capacity == 0 {
            return 0.0;
        }
        self.stored_bytes as f64 / self.total_capacity as f64
    }

    /// Fraction of inserts that succeeded.
    pub fn success_ratio(&self) -> f64 {
        if self.inserts.is_empty() {
            return 0.0;
        }
        self.inserts.iter().filter(|r| r.success).count() as f64 / self.inserts.len() as f64
    }

    /// Fraction of successful inserts that needed at least one file
    /// diversion (Table 2's "File diversion" column).
    pub fn file_diversion_ratio(&self) -> f64 {
        let succeeded: Vec<&InsertRecord> = self.inserts.iter().filter(|r| r.success).collect();
        if succeeded.is_empty() {
            return 0.0;
        }
        succeeded.iter().filter(|r| r.attempts > 1).count() as f64 / succeeded.len() as f64
    }

    /// Fraction of stored replicas that are diverted replicas (Table 2's
    /// "Replica diversion" column, Figure 5's y-axis).
    pub fn replica_diversion_ratio(&self) -> f64 {
        if self.replicas_stored == 0 {
            return 0.0;
        }
        self.replicas_diverted as f64 / self.replicas_stored as f64
    }

    /// Cumulative failure ratio at each utilization grid point
    /// (Figures 2 and 3): failed inserts so far / inserts so far, at the
    /// last insert not exceeding each utilization level.
    pub fn cumulative_failure_curve(&self, grid_points: usize) -> Vec<(f64, f64)> {
        let mut curve = Vec::with_capacity(grid_points + 1);
        let mut failed = 0u64;
        let mut total = 0u64;
        let mut iter = self.inserts.iter().peekable();
        for g in 0..=grid_points {
            let u = g as f64 / grid_points as f64;
            while let Some(r) = iter.peek() {
                if r.utilization <= u {
                    total += 1;
                    if !r.success {
                        failed += 1;
                    }
                    iter.next();
                } else {
                    break;
                }
            }
            let ratio = if total == 0 {
                0.0
            } else {
                failed as f64 / total as f64
            };
            curve.push((u, ratio));
        }
        curve
    }

    /// Cumulative ratios of files diverted exactly 1, 2 and 3 times, and
    /// of insert failures, versus utilization (Figure 4).
    pub fn diversion_histogram_curve(&self, grid_points: usize) -> Vec<(f64, [f64; 4])> {
        let mut curve = Vec::with_capacity(grid_points + 1);
        let mut counts = [0u64; 4]; // 1, 2, 3 diversions, failures
        let mut total = 0u64;
        let mut iter = self.inserts.iter().peekable();
        for g in 0..=grid_points {
            let u = g as f64 / grid_points as f64;
            while let Some(r) = iter.peek() {
                if r.utilization <= u {
                    total += 1;
                    if !r.success {
                        counts[3] += 1;
                    } else if r.attempts >= 2 {
                        counts[(r.attempts as usize - 2).min(2)] += 1;
                    }
                    iter.next();
                } else {
                    break;
                }
            }
            let ratios = if total == 0 {
                [0.0; 4]
            } else {
                [
                    counts[0] as f64 / total as f64,
                    counts[1] as f64 / total as f64,
                    counts[2] as f64 / total as f64,
                    counts[3] as f64 / total as f64,
                ]
            };
            curve.push((u, ratios));
        }
        curve
    }

    /// The exact Figure 5 curve: cumulative ratio of diverted replicas to
    /// stored replicas at each utilization grid point.
    pub fn replica_diversion_curve(&self, grid_points: usize) -> Vec<(f64, f64)> {
        let mut curve = Vec::with_capacity(grid_points + 1);
        let mut last = (0u32, 0u32);
        let mut iter = self.inserts.iter().peekable();
        for g in 0..=grid_points {
            let u = g as f64 / grid_points as f64;
            while let Some(r) = iter.peek() {
                if r.utilization <= u {
                    last = (r.replicas, r.diverted);
                    iter.next();
                } else {
                    break;
                }
            }
            let ratio = if last.0 == 0 {
                0.0
            } else {
                last.1 as f64 / last.0 as f64
            };
            curve.push((u, ratio));
        }
        curve
    }

    /// Failed insertions as (utilization, file size) points (the Figure
    /// 6/7 scatter).
    pub fn failure_scatter(&self) -> Vec<(f64, u64)> {
        self.inserts
            .iter()
            .filter(|r| !r.success)
            .map(|r| (r.utilization, r.size))
            .collect()
    }

    /// Global cache hit ratio and mean lookup hops per utilization
    /// bucket (Figure 8). Returns (bucket center, hit ratio, mean hops,
    /// lookups in bucket).
    pub fn cache_curve(&self, buckets: usize) -> Vec<(f64, f64, f64, u64)> {
        let mut hit = vec![0u64; buckets];
        let mut hops = vec![0u64; buckets];
        let mut count = vec![0u64; buckets];
        for r in self.lookups.iter().filter(|r| r.found) {
            let b = ((r.utilization * buckets as f64) as usize).min(buckets - 1);
            count[b] += 1;
            hops[b] += r.hops as u64;
            if r.cache_hit {
                hit[b] += 1;
            }
        }
        (0..buckets)
            .filter(|&b| count[b] > 0)
            .map(|b| {
                (
                    (b as f64 + 0.5) / buckets as f64,
                    hit[b] as f64 / count[b] as f64,
                    hops[b] as f64 / count[b] as f64,
                    count[b],
                )
            })
            .collect()
    }

    /// The share of found lookups that a cached copy answered.
    pub fn lookup_hit_ratio(&self) -> f64 {
        let found = self.lookups.iter().filter(|r| r.found).count();
        if found == 0 {
            return 0.0;
        }
        self.lookups
            .iter()
            .filter(|r| r.found && r.cache_hit)
            .count() as f64
            / found as f64
    }
}

/// Converts a completion hit kind into the cache-hit flag used in the
/// Figure 8 accounting.
pub fn is_cache_hit(kind: Option<HitKind>) -> bool {
    matches!(kind, Some(HitKind::Cached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(u: f64, success: bool, attempts: u32, size: u64) -> InsertRecord {
        InsertRecord {
            utilization: u,
            size,
            attempts,
            replicas: 0,
            diverted: 0,
            success,
        }
    }

    #[test]
    fn ratios() {
        let r = ExperimentResult {
            inserts: vec![
                rec(0.1, true, 1, 10),
                rec(0.5, true, 2, 10),
                rec(0.9, false, 4, 10),
                rec(0.95, true, 1, 10),
            ],
            replicas_stored: 100,
            replicas_diverted: 15,
            total_capacity: 1000,
            stored_bytes: 950,
            ..Default::default()
        };
        assert!((r.success_ratio() - 0.75).abs() < 1e-12);
        assert!((r.file_diversion_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.replica_diversion_ratio() - 0.15).abs() < 1e-12);
        assert!((r.final_utilization() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn cumulative_failure_curve_monotone_inputs() {
        let r = ExperimentResult {
            inserts: vec![
                rec(0.2, true, 1, 1),
                rec(0.4, true, 1, 1),
                rec(0.6, false, 4, 1),
                rec(0.8, false, 4, 1),
            ],
            ..Default::default()
        };
        let curve = r.cumulative_failure_curve(10);
        assert_eq!(curve.len(), 11);
        // At u = 0.5, one of two inserts so far... both succeeded.
        let at = |u: f64| curve.iter().find(|(g, _)| (*g - u).abs() < 1e-9).unwrap().1;
        assert_eq!(at(0.5), 0.0);
        assert!((at(0.6) - 1.0 / 3.0).abs() < 1e-12);
        assert!((at(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diversion_histogram_counts_by_attempts() {
        let r = ExperimentResult {
            inserts: vec![
                rec(0.1, true, 1, 1),
                rec(0.2, true, 2, 1), // diverted once
                rec(0.3, true, 3, 1), // diverted twice
                rec(0.4, true, 4, 1), // diverted three times
                rec(0.5, false, 4, 1),
            ],
            ..Default::default()
        };
        let curve = r.diversion_histogram_curve(2);
        let last = curve.last().unwrap().1;
        assert!((last[0] - 0.2).abs() < 1e-12);
        assert!((last[1] - 0.2).abs() < 1e-12);
        assert!((last[2] - 0.2).abs() < 1e-12);
        assert!((last[3] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn failure_scatter_filters_failures() {
        let r = ExperimentResult {
            inserts: vec![rec(0.1, true, 1, 5), rec(0.9, false, 4, 77)],
            ..Default::default()
        };
        assert_eq!(r.failure_scatter(), vec![(0.9, 77)]);
    }

    #[test]
    fn cache_curve_buckets() {
        let mk = |u: f64, hops: u32, hit: bool| LookupRecord {
            utilization: u,
            found: true,
            hops,
            cache_hit: hit,
        };
        let r = ExperimentResult {
            lookups: vec![mk(0.05, 1, true), mk(0.08, 3, false), mk(0.95, 2, false)],
            ..Default::default()
        };
        let curve = r.cache_curve(10);
        assert_eq!(curve.len(), 2);
        let (c0, hit0, hops0, n0) = curve[0];
        assert!((c0 - 0.05).abs() < 1e-9);
        assert!((hit0 - 0.5).abs() < 1e-12);
        assert!((hops0 - 2.0).abs() < 1e-12);
        assert_eq!(n0, 2);
    }
}
