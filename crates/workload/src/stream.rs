//! The op generator: every workload is a lazily replayed stream.
//!
//! A [`StreamTrace`] is a *seeded cursor*: the per-file tables that must
//! exist up front (sizes, affinity clusters) are generated eagerly but
//! stored packed (4 B + 1 B per file), and the per-request draws are
//! replayed on demand from a snapshot of the generator's RNG state. At
//! the 10M-file scale that saves the ~170 MB of 8-byte `TraceOp`s plus
//! ~80 MB of 8-byte `FileSpec`s a materialised [`Trace`] holds for the
//! whole replay.
//!
//! This is the only generator. `generate()` on each config is
//! `stream()` collected into a [`Trace`], so the two forms cannot
//! drift; `tests/golden.rs` pins what each config emits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{SizeModel, Zipf};
use crate::trace::{
    FileSpec, Trace, TraceOp, CLIENTS, CLUSTERS, CLUSTER_AFFINITY, FS_SIZES, HOT_FRACTION,
    WEB_SIZES, ZERO_FRACTION, ZIPF_ALPHA,
};

/// Packed per-file size table: 4 bytes per file, with a sorted spill
/// list for the (practically nonexistent) sizes above `u32::MAX` — the
/// calibrated web and filesystem workloads max out at 138 MB and
/// 2.7 GB respectively, both below 4 GiB.
#[derive(Clone, Debug, Default)]
pub struct SizeTable {
    packed: Vec<u32>,
    /// `(index, size)` for oversized files; sorted by construction.
    spill: Vec<(u32, u64)>,
    total: u64,
}

/// Sentinel in `packed` marking an entry that lives in `spill`.
const SPILLED: u32 = u32::MAX;

impl SizeTable {
    /// Creates an empty table with room for `n` files.
    pub fn with_capacity(n: usize) -> Self {
        SizeTable {
            packed: Vec::with_capacity(n),
            spill: Vec::new(),
            total: 0,
        }
    }

    /// Appends the next file's size.
    pub fn push(&mut self, size: u64) {
        let index = self.packed.len() as u32;
        if size >= SPILLED as u64 {
            self.spill.push((index, size));
            self.packed.push(SPILLED);
        } else {
            self.packed.push(size as u32);
        }
        self.total += size;
    }

    /// The size of file `i`.
    pub fn get(&self, i: u32) -> u64 {
        let v = self.packed[i as usize];
        if v == SPILLED {
            let at = self
                .spill
                .binary_search_by_key(&i, |&(idx, _)| idx)
                .expect("spilled size present");
            self.spill[at].1
        } else {
            v as u64
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Sum of all sizes.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The workload-specific part of a streaming trace.
#[derive(Clone, Debug)]
enum StreamKind {
    /// Filesystem snapshot: insert-only, uniform client per file.
    Fs,
    /// Web-proxy replay: uniform introduction + Zipf re-reference by
    /// introduction order, optionally flipping to a flash crowd mid-run
    /// (see [`crate::FlashCrowdConfig`]; the NLANR-like
    /// [`crate::WebTraceConfig`] is the case with no flip).
    Web {
        /// Affinity cluster of each file.
        file_cluster: Vec<u8>,
        zipf: Zipf,
        /// The post-flip sampler, when its exponent differs.
        zipf_after: Option<Zipf>,
        /// Request index of the popularity flip.
        flip_index: usize,
        /// First hot file index.
        hot_lo: usize,
        /// Hot set size.
        hot_n: usize,
    },
}

/// A lazily replayed workload: per-file tables plus the RNG state from
/// which the request stream re-derives on demand.
///
/// Build one with `stream()` on [`crate::WebTraceConfig`],
/// [`crate::FsTraceConfig`] or [`crate::FlashCrowdConfig`]; iterate with
/// [`StreamTrace::ops`] (restartable — each call replays from the
/// captured RNG snapshot).
#[derive(Clone, Debug)]
pub struct StreamTrace {
    kind: StreamKind,
    sizes: SizeTable,
    requests: usize,
    /// RNG state captured after the per-file phases, right before the
    /// first per-request draw.
    op_rng: StdRng,
}

impl StreamTrace {
    /// The eager per-file phase every generator starts with: seed the
    /// RNG and draw one size per file. What comes back is the
    /// insert-only stream, one request per file; the web generator goes
    /// on to draw its affinity table from `op_rng` and sets `kind` and
    /// `requests`.
    fn per_file(seed: u64, files: usize, mut size: impl FnMut(&mut StdRng) -> u64) -> StreamTrace {
        assert!(files >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = SizeTable::with_capacity(files);
        for _ in 0..files {
            sizes.push(size(&mut rng));
        }
        StreamTrace {
            kind: StreamKind::Fs,
            sizes,
            requests: files,
            op_rng: rng,
        }
    }

    /// The filesystem stream: [`FS_SIZES`], one insert per file.
    pub(crate) fn fs(files: usize, seed: u64) -> StreamTrace {
        let size_dist = SizeModel::calibrated(&FS_SIZES);
        StreamTrace::per_file(seed, files, |rng| size_dist.sample(rng).round() as u64)
    }

    /// The web-proxy stream: [`WEB_SIZES`] with zero-byte files, an
    /// affinity cluster per file, Zipf([`ZIPF_ALPHA`]) re-references.
    /// From request `flip_index` on, the files `[hot_lo, hot_lo +
    /// hot_n)` take [`HOT_FRACTION`] of the re-references and the rest
    /// follow Zipf(`alpha_after`); a flip index of `requests` is no
    /// flip at all.
    pub(crate) fn web(
        files: usize,
        requests: usize,
        seed: u64,
        flip_index: usize,
        (hot_lo, hot_n): (usize, usize),
        alpha_after: f64,
    ) -> StreamTrace {
        let size_dist = SizeModel::calibrated(&WEB_SIZES);
        let mut t = StreamTrace::per_file(seed, files, |rng| {
            if rng.gen::<f64>() < ZERO_FRACTION {
                0
            } else {
                size_dist.sample(rng).round() as u64
            }
        });
        let file_cluster = (0..files)
            .map(|_| t.op_rng.gen_range(0..CLUSTERS) as u8)
            .collect();
        t.kind = StreamKind::Web {
            file_cluster,
            zipf: Zipf::new(files, ZIPF_ALPHA),
            zipf_after: (alpha_after != ZIPF_ALPHA).then(|| Zipf::new(files, alpha_after)),
            flip_index,
            hot_lo,
            hot_n,
        };
        t.requests = requests;
        t
    }

    /// Materialises the stream: every size and every op, in order.
    pub(crate) fn into_trace(self) -> Trace {
        let ops = self.ops().collect();
        let files = (0..self.sizes.len() as u32)
            .map(|i| FileSpec { size: self.sizes.get(i) })
            .collect();
        Trace { files, ops }
    }

    /// Total bytes across all unique files.
    pub fn total_bytes(&self) -> u64 {
        self.sizes.total()
    }

    /// Number of unique files.
    pub fn unique_files(&self) -> usize {
        self.sizes.len()
    }

    /// Number of requests the stream will yield.
    pub fn op_count(&self) -> usize {
        self.requests
    }

    /// The size of file `i`.
    pub fn file_size(&self, i: u32) -> u64 {
        self.sizes.get(i)
    }

    /// A restartable cursor over the request stream.
    pub fn ops(&self) -> OpStream<'_> {
        OpStream {
            trace: self,
            rng: self.op_rng.clone(),
            next: 0,
            introduced: 0,
        }
    }
}

/// Lazy iterator over a [`StreamTrace`]'s request stream.
#[derive(Clone, Debug)]
pub struct OpStream<'a> {
    trace: &'a StreamTrace,
    rng: StdRng,
    next: usize,
    introduced: usize,
}

impl Iterator for OpStream<'_> {
    type Item = TraceOp;

    /// Draws the next request.
    ///
    /// Web construction: unique files are introduced at a uniform rate
    /// through the stream (matching how new URLs keep appearing
    /// throughout a proxy log); every other request draws a *seen* file
    /// with Zipf popularity by introduction order (early files are the
    /// popular ones, as in real logs) — or, once a flash crowd has
    /// started, a member of the hot set with probability
    /// `HOT_FRACTION`. Each file has an affinity cluster; a request is
    /// issued from that cluster with probability `CLUSTER_AFFINITY`,
    /// else from a uniformly random one.
    fn next(&mut self) -> Option<TraceOp> {
        let t = self.trace;
        if self.next >= t.requests {
            return None;
        }
        let r = self.next;
        self.next += 1;
        let StreamKind::Web {
            file_cluster,
            zipf,
            zipf_after,
            flip_index,
            hot_lo,
            hot_n,
        } = &t.kind
        else {
            return Some(TraceOp {
                client: self.rng.gen_range(0..CLIENTS) as u16,
                file: r as u32,
                is_insert: true,
            });
        };
        let unique = t.sizes.len();
        let flipped = r >= *flip_index;
        // Keep the introduction rate uniform: by request r we want
        // about r * unique/requests files introduced.
        let target = ((r + 1) as f64 * unique as f64 / t.requests as f64).ceil() as usize;
        let (file_idx, is_insert) = if self.introduced < target && self.introduced < unique {
            self.introduced += 1;
            (self.introduced - 1, true)
        } else if flipped && *hot_n > 0 && self.rng.gen::<f64>() < HOT_FRACTION {
            // The flash crowd: a uniformly chosen member of the hot
            // set (already introduced — the set sits right below the
            // introduction frontier at flip time). No draw is spent on
            // the test when there is no hot set.
            (hot_lo + self.rng.gen_range(0..*hot_n), false)
        } else {
            // Re-reference: Zipf rank over *introduced* files (rank 1 =
            // first-introduced = most popular). Re-draw until the rank
            // lands within the introduced prefix; introduction tracks
            // the stream position, so this terminates fast.
            let zipf = zipf_after.as_ref().filter(|_| flipped).unwrap_or(zipf);
            let mut rank = zipf.sample(&mut self.rng);
            while rank > self.introduced {
                rank = zipf.sample(&mut self.rng);
            }
            (rank - 1, false)
        };
        let cluster = if self.rng.gen::<f64>() < CLUSTER_AFFINITY {
            file_cluster[file_idx] as u32
        } else {
            self.rng.gen_range(0..CLUSTERS)
        };
        // Pick a client within the chosen cluster.
        let member = self.rng.gen_range(0..CLIENTS.div_ceil(CLUSTERS));
        let client = (member * CLUSTERS + cluster).min(CLIENTS - 1);
        Some(TraceOp {
            client: client as u16,
            file: file_idx as u32,
            is_insert,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.requests - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OpStream<'_> {}

/// A replayable workload: what the experiment runner needs to build an
/// overlay (aggregate statistics) and drive a replay (the op stream and
/// per-file metadata), abstracted over materialized ([`Trace`]) and
/// streaming ([`StreamTrace`]) representations.
pub trait Workload {
    /// Total bytes across all unique files.
    fn total_bytes(&self) -> u64;
    /// Number of unique files.
    fn unique_files(&self) -> usize;
    /// Number of requests.
    fn op_count(&self) -> usize;
    /// The size of file `i`.
    fn file_size(&self, i: u32) -> u64;
    /// The textual name of file `i` (hashed into the fileId).
    fn file_name(&self, i: u32) -> String {
        format!("f{i}")
    }
    /// The request stream in temporal order.
    fn ops_iter(&self) -> Box<dyn Iterator<Item = TraceOp> + '_>;
}

impl Workload for Trace {
    fn total_bytes(&self) -> u64 {
        Trace::total_bytes(self)
    }
    fn unique_files(&self) -> usize {
        Trace::unique_files(self)
    }
    fn op_count(&self) -> usize {
        self.ops.len()
    }
    fn file_size(&self, i: u32) -> u64 {
        self.files[i as usize].size
    }
    fn ops_iter(&self) -> Box<dyn Iterator<Item = TraceOp> + '_> {
        Box::new(self.ops.iter().copied())
    }
}

impl Workload for StreamTrace {
    fn total_bytes(&self) -> u64 {
        StreamTrace::total_bytes(self)
    }
    fn unique_files(&self) -> usize {
        StreamTrace::unique_files(self)
    }
    fn op_count(&self) -> usize {
        self.requests
    }
    fn file_size(&self, i: u32) -> u64 {
        self.sizes.get(i)
    }
    fn ops_iter(&self) -> Box<dyn Iterator<Item = TraceOp> + '_> {
        Box::new(self.ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_restartable() {
        let stream = crate::WebTraceConfig::default()
            .with_unique_files(500)
            .stream();
        let a: Vec<TraceOp> = stream.ops().collect();
        let b: Vec<TraceOp> = stream.ops().collect();
        assert_eq!(a, b, "each cursor replays from the same RNG snapshot");
    }

    #[test]
    fn size_table_spills_oversized_entries() {
        let mut t = SizeTable::with_capacity(3);
        t.push(100);
        t.push(u32::MAX as u64 + 7);
        t.push(0);
        assert_eq!(t.get(0), 100);
        assert_eq!(t.get(1), u32::MAX as u64 + 7);
        assert_eq!(t.get(2), 0);
        assert_eq!(t.total(), 100 + u32::MAX as u64 + 7);
        assert_eq!(t.len(), 3);
    }
}
