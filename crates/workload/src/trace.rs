//! The workload configs and the materialised [`Trace`], calibrated to
//! the paper's workloads (§5.1): an NLANR-like web-proxy request stream
//! and a filesystem snapshot, both reproduced from their published
//! statistics (the original traces are not redistributable — see
//! DESIGN.md §2). Those statistics are the constants below; a config
//! sets only the scale and the seed. The generator itself is
//! `crate::stream`.

use crate::dist::SizeStats;
use crate::stream::StreamTrace;

/// A file in a workload. Its index is its position in [`Trace::files`],
/// and its textual name is `format!("f{index}")` (see
/// [`crate::Workload::file_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileSpec {
    /// File size in bytes.
    pub size: u64,
}

/// One trace record: a client references a file. The first reference to
/// a file is an insert; subsequent references are lookups (exactly how
/// the paper replays the NLANR log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing client (0-based, below [`CLIENTS`]).
    pub client: u16,
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

/// Distinct clients in every workload (the NLANR log's 775). A client
/// is drawn as a `u32` below this and kept as a `u16`.
pub const CLIENTS: u32 = 775;

const _: () = assert!(CLIENTS <= 1 << 16, "a client must fit TraceOp::client");

/// Geographic client clusters (the eight NLANR sites). Client `c` sits
/// in cluster `c % CLUSTERS`: round-robin, so the sites are balanced.
pub const CLUSTERS: u32 = 8;

/// Probability that a web request comes from the file's affinity
/// cluster (models the geographic locality the §5.2 experiment relies
/// on); otherwise the cluster is uniform.
pub(crate) const CLUSTER_AFFINITY: f64 = 0.5;

/// Zipf exponent of web request popularity (Breslau et al.: ~0.8), and
/// of the flash crowd's before its flip.
pub(crate) const ZIPF_ALPHA: f64 = 0.8;

/// Fraction of zero-byte web files (the NLANR trace's smallest is 0).
pub(crate) const ZERO_FRACTION: f64 = 0.001;

/// The NLANR web trace's file sizes: median 1,312 B, mean 10,517 B, max
/// 138 MB. The tail is calibrated so that ~0.03% of files exceed 2.9 MB
/// while holding ~37% of all bytes — matching the published tail of the
/// trace (964 of 1.86 M files above the 2 MB node lower bound, yet
/// enough byte mass that rejecting only them sheds a third of the
/// demand).
pub const WEB_SIZES: SizeStats = SizeStats {
    median: 1_312.0,
    mean: 10_517.0,
    max: 138.0e6,
    tail_prob: 0.005,
    tail_x_m: 100.0e3,
    tail_alpha: 0.85,
};

/// The filesystem trace's file sizes: median 4,578 B, mean 88,233 B,
/// max 2.7 GB, with a heavier tail than the web trace's.
pub const FS_SIZES: SizeStats = SizeStats {
    median: 4_578.0,
    mean: 88_233.0,
    max: 2.7e9,
    tail_prob: 0.005,
    tail_x_m: 1.0e6,
    tail_alpha: 0.9,
};

/// Requests per unique file of the web trace: 4,000,000 entries for
/// 1,863,055 unique URLs.
const WEB_REQUESTS_PER_FILE: f64 = 2.147;

/// Requests per unique file of the flash crowd, which is lookup-heavy.
const FLASH_REQUESTS_PER_FILE: f64 = 7.0;

/// The flash crowd's flip point as a fraction of the request stream.
const FLIP_AT: f64 = 0.5;

/// Cold files that go hot at the flip (the most recently introduced).
const HOT_SET: usize = 4;

/// Share of post-flip re-references that target the hot set.
pub(crate) const HOT_FRACTION: f64 = 0.5;

/// `files × per_file`, rounded: the request count of a scaled trace.
fn scaled_requests(files: usize, per_file: f64) -> usize {
    (files as f64 * per_file).round() as usize
}

/// Generator for the NLANR-like web-proxy workload.
///
/// Published statistics reproduced: 4,000,000 entries referencing
/// 1,863,055 unique URLs (a ~2.15 requests-per-URL ratio), the sizes of
/// [`WEB_SIZES`] including zero-byte files, [`CLIENTS`] clients spread
/// over [`CLUSTERS`] geographically distributed sites, Zipf-like request
/// popularity. Scale down via `unique_files` while keeping every ratio
/// intact.
#[derive(Clone, Debug)]
pub struct WebTraceConfig {
    /// Number of unique files (the paper's trace: 1,863,055).
    pub unique_files: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebTraceConfig {
    fn default() -> Self {
        WebTraceConfig {
            unique_files: 50_000,
            seed: 0x9a57,
        }
    }
}

impl WebTraceConfig {
    /// The same trace shape at `n` unique files.
    pub fn with_unique_files(mut self, n: usize) -> Self {
        self.unique_files = n;
        self
    }

    /// Total requests: 2.147 per unique file (4,000,000 at the paper's
    /// scale).
    pub fn requests(&self) -> usize {
        scaled_requests(self.unique_files, WEB_REQUESTS_PER_FILE)
    }

    /// Builds the lazy request stream: the flash-crowd stream with no
    /// flip, which draws exactly what a plain web replay draws.
    pub fn stream(&self) -> StreamTrace {
        let requests = self.requests();
        StreamTrace::web(
            self.unique_files,
            requests,
            self.seed,
            requests,
            (0, 0),
            ZIPF_ALPHA,
        )
    }

    /// Generates the trace: [`WebTraceConfig::stream`], materialised
    /// (see `OpStream::next` for the construction).
    pub fn generate(&self) -> Trace {
        self.stream().into_trace()
    }
}

/// Generator for a flash-crowd workload: a web-like request stream
/// whose popularity distribution *flips* mid-run. Up to the flip point
/// (half-way) requests follow Zipf(0.8) by introduction order (the
/// familiar NLANR shape); from the flip onward, a small set of
/// previously *cold* files — the four most recently introduced ones at
/// flip time — suddenly attracts half of all re-references (uniformly
/// spread across the set), with the remainder drawn from
/// Zipf(`zipf_alpha_after`). Each hot file then takes ~12.5% of
/// post-flip lookups: well past the >10% single-file threshold that
/// defines a flash crowd here.
///
/// Sizes, clusters, and client assignment follow [`WebTraceConfig`]
/// exactly, so results compare directly against the §5.2 caching setup.
#[derive(Clone, Debug)]
pub struct FlashCrowdConfig {
    /// Number of unique files.
    pub unique_files: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent after the flip (for the non-hot remainder).
    pub zipf_alpha_after: f64,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig {
            unique_files: 20_000,
            seed: 0xfc01,
            zipf_alpha_after: ZIPF_ALPHA,
        }
    }
}

impl FlashCrowdConfig {
    /// The same trace shape at `n` unique files.
    pub fn with_unique_files(mut self, n: usize) -> Self {
        self.unique_files = n;
        self
    }

    /// Total requests: 7 per unique file.
    pub fn requests(&self) -> usize {
        scaled_requests(self.unique_files, FLASH_REQUESTS_PER_FILE)
    }

    /// The 0-based request index at which popularity flips.
    pub fn flip_index(&self) -> usize {
        let requests = self.requests();
        ((FLIP_AT * requests as f64).floor() as usize).min(requests)
    }

    /// The hot file range `[lo, lo + n)`: the four most recently
    /// introduced files at the flip point (guaranteed cold before the
    /// flip under Zipf-by-introduction-order popularity).
    pub fn hot_range(&self) -> (usize, usize) {
        let flip = self.flip_index();
        // Introduced count after the first `flip` requests: the uniform
        // introduction schedule has introduced exactly
        // ceil(flip * unique / requests) files by then.
        let introduced =
            ((flip * self.unique_files).div_ceil(self.requests())).min(self.unique_files);
        let n = HOT_SET.min(introduced);
        (introduced - n, n)
    }

    /// Builds the lazy request stream.
    pub fn stream(&self) -> StreamTrace {
        StreamTrace::web(
            self.unique_files,
            self.requests(),
            self.seed,
            self.flip_index(),
            self.hot_range(),
            self.zipf_alpha_after,
        )
    }

    /// Generates the trace: [`FlashCrowdConfig::stream`], materialised.
    pub fn generate(&self) -> Trace {
        self.stream().into_trace()
    }
}

/// Generator for the filesystem workload: insert-only, with the sizes
/// of [`FS_SIZES`] (paper: 2,027,908 files, 166.6 GB).
#[derive(Clone, Debug)]
pub struct FsTraceConfig {
    /// Number of files.
    pub files: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FsTraceConfig {
    fn default() -> Self {
        FsTraceConfig {
            files: 50_000,
            seed: 0xf5,
        }
    }
}

impl FsTraceConfig {
    /// Builds the lazy insert-only stream.
    pub fn stream(&self) -> StreamTrace {
        StreamTrace::fs(self.files, self.seed)
    }

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
        WebTraceConfig::default()
            .with_unique_files(2_000)
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
        let t = WebTraceConfig::default()
            .with_unique_files(60_000)
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
        for op in &t.ops {
            assert!(u32::from(op.client) < CLIENTS);
        }
    }

    #[test]
    fn with_unique_files_preserves_ratio() {
        // Exact request counts at the scales the goldens, the recorded
        // results and the benchmark replay: files × 2.147 (web) and × 7
        // (flash crowd), rounded half away from zero.
        for (files, requests) in [
            (500, 1_074),
            (2_000, 4_294),
            (60_000, 128_820),
            (100_000, 214_700),
            (1_863_055, 3_999_979),
        ] {
            let cfg = WebTraceConfig::default().with_unique_files(files);
            assert_eq!(cfg.requests(), requests, "web trace at {files} files");
        }
        for (files, requests) in [(1_000, 7_000), (1_500, 10_500), (2_000, 14_000)] {
            let cfg = FlashCrowdConfig::default().with_unique_files(files);
            assert_eq!(cfg.requests(), requests, "flash crowd at {files} files");
        }
    }

    #[test]
    fn flash_crowd_introduces_every_file_exactly_once() {
        let t = FlashCrowdConfig::default()
            .with_unique_files(1_500)
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
        let cfg = FlashCrowdConfig::default().with_unique_files(2_000);
        let t = cfg.generate();
        let flip = cfg.flip_index();
        let (hot_lo, hot_n) = cfg.hot_range();
        assert_eq!(hot_n, HOT_SET);
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
        // ...and the crowd afterwards: the set takes ~HOT_FRACTION of
        // lookups, and a *single* cold file exceeds the 10% flash-crowd
        // threshold.
        assert!(
            post_hot as f64 > 0.8 * HOT_FRACTION * post.len() as f64,
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
        let names: HashSet<String> =
            (0..t.unique_files() as u32).map(|i| crate::Workload::file_name(&t, i)).collect();
        assert_eq!(names.len(), t.files.len());
    }
}
