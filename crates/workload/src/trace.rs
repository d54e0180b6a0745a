//! The workload configs and the materialised [`Trace`], calibrated to
//! the paper's workloads (§5.1): an NLANR-like web-proxy request stream
//! and a filesystem snapshot, both reproduced from their published
//! statistics (the original traces are not redistributable — see
//! DESIGN.md §2). The generator itself is `crate::stream`.

/// A file in a workload: logical name index and size in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileSpec {
    /// Dense index; the file's textual name is `format!("f{index}")`.
    pub index: u32,
    /// File size in bytes.
    pub size: u64,
}

impl FileSpec {
    /// The file's textual name (hashed into the fileId).
    pub fn name(&self) -> String {
        format!("f{}", self.index)
    }
}

/// One trace record: a client references a file. The first reference to
/// a file is an insert; subsequent references are lookups (exactly how
/// the paper replays the NLANR log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing client (0-based).
    pub client: u32,
    /// Referenced file index.
    pub file: u32,
    /// Whether this is the file's first appearance (an insert).
    pub is_insert: bool,
}

/// A complete workload trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// File population (index-aligned).
    pub files: Vec<FileSpec>,
    /// Request stream in temporal order.
    pub ops: Vec<TraceOp>,
    /// Number of distinct clients.
    pub clients: u32,
    /// Number of geographic client clusters (the eight NLANR sites).
    pub clusters: u32,
    /// Cluster of each client (index-aligned, `clients` entries).
    pub client_cluster: Vec<u32>,
}

impl Trace {
    /// Total bytes across all unique files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Number of unique files.
    pub fn unique_files(&self) -> usize {
        self.files.len()
    }

    /// Iterator over only the insert operations (the storage experiments
    /// replay these; repeated references are ignored there).
    pub fn inserts(&self) -> impl Iterator<Item = &TraceOp> {
        self.ops.iter().filter(|op| op.is_insert)
    }

    /// Mean file size in bytes.
    pub fn mean_file_size(&self) -> f64 {
        if self.files.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.files.len() as f64
    }

    /// Median file size in bytes.
    pub fn median_file_size(&self) -> u64 {
        if self.files.is_empty() {
            return 0;
        }
        let mut sizes: Vec<u64> = self.files.iter().map(|f| f.size).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }
}

/// Generator for the NLANR-like web-proxy workload.
///
/// Published statistics reproduced: 4,000,000 entries referencing
/// 1,863,055 unique URLs (a ~2.15 requests-per-URL ratio), mean size
/// 10,517 B, median 1,312 B, max 138 MB, including zero-byte files;
/// 775 clients spread over 8 geographically distributed sites; Zipf-like
/// request popularity. Scale down via `unique_files` while keeping every
/// ratio intact.
#[derive(Clone, Debug)]
pub struct WebTraceConfig {
    /// Number of unique files (the paper's trace: 1,863,055).
    pub unique_files: usize,
    /// Total requests (paper: 4,000,000 — ~2.147× the unique count).
    pub requests: usize,
    /// Zipf exponent for request popularity (Breslau et al.: ~0.8).
    pub zipf_alpha: f64,
    /// Number of clients (paper: 775).
    pub clients: u32,
    /// Number of client clusters (paper: 8 NLANR sites).
    pub clusters: u32,
    /// Probability that a request comes from the file's affinity cluster
    /// (models the geographic locality the §5.2 experiment relies on).
    pub cluster_affinity: f64,
    /// Median file size in bytes (paper: 1,312).
    pub median_size: f64,
    /// Mean file size in bytes (paper: 10,517).
    pub mean_size: f64,
    /// Maximum file size in bytes (paper: 138 MB).
    pub max_size: f64,
    /// Probability a file's size comes from the Pareto tail. Web size
    /// distributions are lognormal-bodied with a Pareto tail holding a
    /// large share of the bytes; PAST's policies depend on that
    /// concentration (see `past_workload::dist::SizeModel`).
    pub tail_prob: f64,
    /// Pareto tail scale (minimum tail size) in bytes.
    pub tail_x_m: f64,
    /// Pareto tail shape.
    pub tail_alpha: f64,
    /// Fraction of zero-byte files (the NLANR trace's smallest file is 0).
    pub zero_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebTraceConfig {
    fn default() -> Self {
        WebTraceConfig {
            unique_files: 50_000,
            requests: 107_350, // preserves the paper's 2.147 refs/URL
            zipf_alpha: 0.8,
            clients: 775,
            clusters: 8,
            cluster_affinity: 0.5,
            median_size: 1_312.0,
            mean_size: 10_517.0,
            max_size: 138.0e6,
            // Calibrated so that ~0.03% of files exceed 2.9 MB while
            // holding ~37% of all bytes — matching the published tail of
            // the NLANR trace (964 of 1.86 M files above the 2 MB node
            // lower bound, yet enough byte mass that rejecting only them
            // sheds a third of the demand).
            tail_prob: 0.005,
            tail_x_m: 100.0e3,
            tail_alpha: 0.85,
            zero_fraction: 0.001,
            seed: 0x9a57,
        }
    }
}

impl WebTraceConfig {
    /// Keeps the requests/unique ratio while changing the scale.
    pub fn with_unique_files(mut self, n: usize) -> Self {
        let ratio = self.requests as f64 / self.unique_files as f64;
        self.unique_files = n;
        self.requests = (n as f64 * ratio).round() as usize;
        self
    }

    /// Generates the trace: [`WebTraceConfig::stream`], materialised
    /// (see `OpStream::next` for the construction).
    pub fn generate(&self) -> Trace {
        self.stream().into_trace()
    }
}

/// Generator for a flash-crowd workload: a web-like request stream
/// whose popularity distribution *flips* mid-run. Up to the flip point
/// requests follow Zipf(`zipf_alpha_before`) by introduction order (the
/// familiar NLANR shape); from the flip onward, a small set of
/// previously *cold* files — the most recently introduced ones at flip
/// time — suddenly attracts `hot_fraction` of all re-references
/// (uniformly spread across the set), with the remainder drawn from
/// Zipf(`zipf_alpha_after`). With the default 4-file hot set at 50%,
/// each hot file takes ~12.5% of post-flip lookups: well past the >10%
/// single-file threshold that defines a flash crowd here.
///
/// Sizes, clusters, and client assignment follow [`WebTraceConfig`]
/// exactly, so results compare directly against the §5.2 caching setup.
#[derive(Clone, Debug)]
pub struct FlashCrowdConfig {
    /// Number of unique files.
    pub unique_files: usize,
    /// Total requests. Flash-crowd runs are lookup-heavy: the default
    /// keeps 7 requests per unique file.
    pub requests: usize,
    /// Zipf exponent before the flip.
    pub zipf_alpha_before: f64,
    /// Zipf exponent after the flip (for the non-hot remainder).
    pub zipf_alpha_after: f64,
    /// Flip point as a fraction of the request stream, in `[0, 1]`.
    pub flip_at: f64,
    /// Number of cold files that go hot at the flip (the most recently
    /// introduced files at that moment).
    pub hot_set: usize,
    /// Fraction of post-flip re-references that target the hot set.
    pub hot_fraction: f64,
    /// Number of clients.
    pub clients: u32,
    /// Number of client clusters.
    pub clusters: u32,
    /// Probability a request comes from the file's affinity cluster.
    pub cluster_affinity: f64,
    /// Median file size in bytes.
    pub median_size: f64,
    /// Mean file size in bytes.
    pub mean_size: f64,
    /// Maximum file size in bytes.
    pub max_size: f64,
    /// Probability a file's size comes from the Pareto tail.
    pub tail_prob: f64,
    /// Pareto tail scale in bytes.
    pub tail_x_m: f64,
    /// Pareto tail shape.
    pub tail_alpha: f64,
    /// Fraction of zero-byte files.
    pub zero_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig {
            unique_files: 20_000,
            requests: 140_000,
            zipf_alpha_before: 0.8,
            zipf_alpha_after: 0.8,
            flip_at: 0.5,
            hot_set: 4,
            hot_fraction: 0.5,
            clients: 775,
            clusters: 8,
            cluster_affinity: 0.5,
            median_size: 1_312.0,
            mean_size: 10_517.0,
            max_size: 138.0e6,
            tail_prob: 0.005,
            tail_x_m: 100.0e3,
            tail_alpha: 0.85,
            zero_fraction: 0.001,
            seed: 0xfc01,
        }
    }
}

impl FlashCrowdConfig {
    /// Keeps the requests/unique ratio while changing the scale.
    pub fn with_unique_files(mut self, n: usize) -> Self {
        let ratio = self.requests as f64 / self.unique_files as f64;
        self.unique_files = n;
        self.requests = (n as f64 * ratio).round() as usize;
        self
    }

    /// The 0-based request index at which popularity flips.
    pub fn flip_index(&self) -> usize {
        ((self.flip_at * self.requests as f64).floor() as usize).min(self.requests)
    }

    /// The hot file range `[lo, lo + n)`: the `hot_set` most recently
    /// introduced files at the flip point (guaranteed cold before the
    /// flip under Zipf-by-introduction-order popularity).
    pub fn hot_range(&self) -> (usize, usize) {
        let flip = self.flip_index();
        // Introduced count after the first `flip` requests: the uniform
        // introduction schedule has introduced exactly
        // ceil(flip * unique / requests) files by then.
        let introduced =
            ((flip * self.unique_files).div_ceil(self.requests)).min(self.unique_files);
        let n = self.hot_set.min(introduced);
        (introduced - n, n)
    }

    /// Generates the trace: [`FlashCrowdConfig::stream`], materialised.
    pub fn generate(&self) -> Trace {
        self.stream().into_trace()
    }
}

/// Generator for the filesystem workload: insert-only, heavier-tailed
/// sizes (paper: 2,027,908 files, 166.6 GB, mean 88,233 B, median
/// 4,578 B, max 2.7 GB).
#[derive(Clone, Debug)]
pub struct FsTraceConfig {
    /// Number of files.
    pub files: usize,
    /// Median file size in bytes (paper: 4,578).
    pub median_size: f64,
    /// Mean file size in bytes (paper: 88,233).
    pub mean_size: f64,
    /// Maximum file size in bytes (paper: 2.7 GB).
    pub max_size: f64,
    /// Probability a file's size comes from the Pareto tail.
    pub tail_prob: f64,
    /// Pareto tail scale in bytes.
    pub tail_x_m: f64,
    /// Pareto tail shape.
    pub tail_alpha: f64,
    /// Number of inserting clients.
    pub clients: u32,
    /// Number of client clusters.
    pub clusters: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FsTraceConfig {
    fn default() -> Self {
        FsTraceConfig {
            files: 50_000,
            median_size: 4_578.0,
            mean_size: 88_233.0,
            max_size: 2.7e9,
            tail_prob: 0.005,
            tail_x_m: 1.0e6,
            tail_alpha: 0.9,
            clients: 775,
            clusters: 8,
            seed: 0xf5,
        }
    }
}

impl FsTraceConfig {
    /// Generates the insert-only trace: [`FsTraceConfig::stream`],
    /// materialised.
    pub fn generate(&self) -> Trace {
        self.stream().into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_web() -> Trace {
        WebTraceConfig {
            unique_files: 2_000,
            requests: 4_294,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn web_trace_introduces_every_file_exactly_once() {
        let t = small_web();
        let mut inserted = HashSet::new();
        let mut seen = HashSet::new();
        for op in &t.ops {
            if op.is_insert {
                assert!(inserted.insert(op.file), "duplicate insert of {}", op.file);
            } else {
                assert!(seen.contains(&op.file), "lookup before insert");
            }
            seen.insert(op.file);
        }
        assert_eq!(inserted.len(), t.unique_files());
    }

    #[test]
    fn web_trace_sizes_match_published_stats() {
        let t = WebTraceConfig {
            unique_files: 60_000,
            requests: 128_820,
            ..Default::default()
        }
        .generate();
        let median = t.median_file_size() as f64;
        assert!(
            (median / 1312.0 - 1.0).abs() < 0.15,
            "median {median} (target 1312)"
        );
        let mean = t.mean_file_size();
        assert!(
            (mean / 10517.0 - 1.0).abs() < 0.5,
            "mean {mean} (target 10517)"
        );
        assert!(t.files.iter().all(|f| f.size as f64 <= 138.0e6));
    }

    #[test]
    fn web_trace_popularity_is_skewed() {
        let t = small_web();
        // Early-introduced files must collect far more lookups than late
        // ones (Zipf by introduction order).
        let lookups = |range: std::ops::Range<u32>| {
            t.ops
                .iter()
                .filter(|o| !o.is_insert && range.contains(&o.file))
                .count()
        };
        let head = lookups(0..100);
        let tail = lookups(1900..2000);
        assert!(
            head > tail * 5,
            "expected Zipf skew, head {head} vs tail {tail}"
        );
    }

    #[test]
    fn web_trace_client_fields_valid() {
        let t = small_web();
        assert_eq!(t.client_cluster.len(), t.clients as usize);
        for op in &t.ops {
            assert!(op.client < t.clients);
        }
        for &c in &t.client_cluster {
            assert!(c < t.clusters);
        }
    }

    #[test]
    fn with_unique_files_preserves_ratio() {
        let cfg = WebTraceConfig::default().with_unique_files(10_000);
        let ratio = cfg.requests as f64 / cfg.unique_files as f64;
        assert!((ratio - 2.147).abs() < 0.01);
    }

    #[test]
    fn flash_crowd_introduces_every_file_exactly_once() {
        let t = FlashCrowdConfig {
            unique_files: 1_500,
            requests: 10_500,
            ..Default::default()
        }
        .generate();
        let mut inserted = HashSet::new();
        let mut seen = HashSet::new();
        for op in &t.ops {
            if op.is_insert {
                assert!(inserted.insert(op.file), "duplicate insert of {}", op.file);
            } else {
                assert!(seen.contains(&op.file), "lookup before insert");
            }
            seen.insert(op.file);
        }
        assert_eq!(inserted.len(), t.unique_files());
    }

    #[test]
    fn flash_crowd_flips_popularity() {
        let cfg = FlashCrowdConfig {
            unique_files: 2_000,
            requests: 14_000,
            ..Default::default()
        };
        let t = cfg.generate();
        let flip = cfg.flip_index();
        let (hot_lo, hot_n) = cfg.hot_range();
        assert_eq!(hot_n, cfg.hot_set);
        let hot = |f: u32| (f as usize) >= hot_lo && (f as usize) < hot_lo + hot_n;
        let pre: Vec<&TraceOp> = t.ops[..flip].iter().filter(|o| !o.is_insert).collect();
        let post: Vec<&TraceOp> = t.ops[flip..].iter().filter(|o| !o.is_insert).collect();
        let pre_hot = pre.iter().filter(|o| hot(o.file)).count();
        let post_hot = post.iter().filter(|o| hot(o.file)).count();
        // Cold before the flip (the hot files sit right below the
        // introduction frontier, deep in the Zipf tail)...
        assert!(
            (pre_hot as f64) < 0.01 * pre.len() as f64,
            "hot set already popular before the flip: {pre_hot}/{}",
            pre.len()
        );
        // ...and the crowd afterwards: the set takes ~hot_fraction of
        // lookups, and a *single* cold file exceeds the 10% flash-crowd
        // threshold.
        assert!(
            post_hot as f64 > 0.8 * cfg.hot_fraction * post.len() as f64,
            "hot set too cold after the flip: {post_hot}/{}",
            post.len()
        );
        let mut per_file = vec![0usize; cfg.unique_files];
        for o in &post {
            per_file[o.file as usize] += 1;
        }
        let top_hot = (hot_lo..hot_lo + hot_n).map(|i| per_file[i]).max().unwrap();
        assert!(
            top_hot as f64 > 0.10 * post.len() as f64,
            "top hot file only {top_hot}/{} post-flip lookups",
            post.len()
        );
    }

    #[test]
    fn fs_trace_insert_only_and_heavier() {
        let t = FsTraceConfig {
            files: 30_000,
            ..Default::default()
        }
        .generate();
        assert!(t.ops.iter().all(|o| o.is_insert));
        assert_eq!(t.ops.len(), 30_000);
        let median = t.median_file_size() as f64;
        assert!(
            (median / 4578.0 - 1.0).abs() < 0.15,
            "median {median} (target 4578)"
        );
        // Heavier tail than the web workload.
        let web = small_web();
        assert!(t.mean_file_size() > web.mean_file_size());
    }

    #[test]
    fn trace_totals_consistent() {
        let t = small_web();
        let sum: u64 = t.files.iter().map(|f| f.size).sum();
        assert_eq!(t.total_bytes(), sum);
        assert_eq!(t.inserts().count(), t.unique_files());
    }

    #[test]
    fn file_names_unique() {
        let t = small_web();
        let names: HashSet<String> = t.files.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), t.files.len());
    }
}
