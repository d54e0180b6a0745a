//! The trace-replay harness: an [`Overlay`] whose capacities are scaled
//! to a workload trace, the client→node mapping, and the
//! [`ExperimentResult`] accounting of the paper's metrics.

use std::collections::{BTreeMap, HashMap};

use past_core::{PastEvent, K};
use past_id::FileId;
use past_net::{Addr, ClusteredTopology, EuclideanTopology, SimDuration, Topology};
use past_pastry::NodeEntry;
use past_workload::{Workload, CLIENTS, CLUSTERS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{ExperimentConfig, TopologyKind};
use crate::engine::Engine;
use crate::metrics::{
    is_cache_hit, ExperimentResult, InsertRecord, LookupRecord, NodeWindowStat, WindowSeries,
};
use crate::overlay::Overlay;

/// Ratio of the trace's replica bytes (total bytes × k) to total node
/// capacity: capacities are scaled so the trace sweeps utilization up to
/// ~150%. The paper's d1 + NLANR combination works out to ≈ 1.5.
const OVERCOMMIT: f64 = 1.5;

/// How a replay paces its operations.
#[derive(Clone, Copy)]
enum Pacing {
    /// Drain the network to idle after each operation.
    Closed,
    /// Inject operation `i` at `start + i × gap`, whatever is in flight.
    Open(SimDuration),
}

/// A built overlay plus replay state.
pub struct Runner {
    cfg: ExperimentConfig,
    overlay: Overlay,
    /// fileId assigned to each successfully inserted trace file, indexed
    /// by trace file: 21 bytes per file, no hashing. Allocated only when
    /// `cfg.replay_lookups` is set — insert-only replays (the XL/XL2
    /// rows) never read it, and at 10M files it would cost 210 MB.
    file_ids: Vec<Option<FileId>>,
    /// Keep 1-in-N per-event records (`inserts`, `lookups`); 1 = keep
    /// everything (the default).
    record_every: u64,
    result: ExperimentResult,
    /// Progress callback (trace ops completed, total).
    progress: Option<Box<dyn FnMut(usize, usize)>>,
    /// Metrics recording: label, snapshot interval in trace ops, and
    /// whether the report is also written to
    /// `results/metrics_<label>.json` (true for [`Self::with_metrics`];
    /// [`Self::with_metrics_quiet`] keeps it in-memory only, so sweeps
    /// over dozens of configurations don't litter the results dir).
    metrics: Option<(String, usize, bool)>,
}

impl Runner {
    /// Builds the overlay for `cfg`, scaling node capacities so that the
    /// trace's total replica bytes overcommit the system by 1.5
    /// (`OVERCOMMIT`). Accepts any [`Workload`] — a materialized
    /// [`past_workload::Trace`] or a lazy [`past_workload::StreamTrace`].
    pub fn build<W: Workload + ?Sized>(cfg: ExperimentConfig, trace: &W) -> Self {
        let mut seeder = StdRng::seed_from_u64(cfg.seed);
        // Scale capacities to the trace (preserving the Table 1 shape).
        let trace_replica_bytes = trace.total_bytes() as f64 * K as f64;
        let target_total = trace_replica_bytes / OVERCOMMIT;
        let scale = cfg.capacity.scale_for_total(cfg.nodes, target_total);
        let capacity_dist = cfg.capacity.scaled(scale);
        let capacities = capacity_dist.sample_nodes(cfg.nodes, &mut seeder);

        let topo: Box<dyn Topology> = match cfg.topology {
            TopologyKind::Euclidean => Box::new(EuclideanTopology::random(cfg.nodes, &mut seeder)),
            TopologyKind::Clustered { clusters } => {
                Box::new(ClusteredTopology::round_robin(cfg.nodes, clusters))
            }
        };
        let engine = Engine::build(topo, cfg.seed ^ 0x517, cfg.shards);
        let overlay = Overlay::build(
            engine,
            &cfg.pastry_config(),
            &cfg.past_config(),
            &capacities,
            &mut seeder,
        );
        let file_ids = if cfg.replay_lookups {
            vec![None; trace.unique_files()]
        } else {
            Vec::new()
        };
        Runner {
            cfg,
            overlay,
            file_ids,
            record_every: 1,
            result: ExperimentResult {
                total_capacity: capacities.iter().sum(),
                ..Default::default()
            },
            progress: None,
            metrics: None,
        }
    }

    /// Thins the per-event record vectors (`inserts`, `lookups`) to
    /// 1-in-`every` entries. The exact aggregate
    /// counters ([`ExperimentResult::inserts_total`] and friends) are
    /// unaffected — only the utilization-curve resolution drops. The
    /// default (`every = 1`) records everything; XL-scale replays pass
    /// a larger stride so 10M completions do not materialize hundreds
    /// of MB of records.
    pub fn with_record_sampling(mut self, every: usize) -> Self {
        self.record_every = every.max(1) as u64;
        self
    }

    /// Installs a progress callback invoked every 1000 trace operations.
    pub fn with_progress(mut self, f: impl FnMut(usize, usize) + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Enables `past-obs` metrics recording over the replay: a registry
    /// snapshot is taken every `snapshot_every` trace operations (plus a
    /// final one), and the full report is written to
    /// `results/metrics_<label>.json` and returned in
    /// [`ExperimentResult::metrics_json`]. Recording starts at replay
    /// time, so overlay-construction traffic is excluded.
    pub fn with_metrics(mut self, label: &str, snapshot_every: usize) -> Self {
        self.metrics = Some((label.to_string(), snapshot_every.max(1), true));
        self
    }

    /// Like [`Self::with_metrics`], but the report stays in
    /// [`ExperimentResult::metrics_json`] only — nothing is written to
    /// the results directory. Parameter sweeps that run the same
    /// experiment dozens of times use this to avoid one file per cell.
    pub fn with_metrics_quiet(mut self, label: &str, snapshot_every: usize) -> Self {
        self.metrics = Some((label.to_string(), snapshot_every.max(1), false));
        self
    }

    /// Engine-agnostic access to the simulation backend.
    pub fn engine(&self) -> &Engine {
        &self.overlay.engine
    }

    /// The overlay's node identities.
    pub fn entries(&self) -> &[NodeEntry] {
        self.overlay.entries()
    }

    /// Maps a trace client to its access-point node, respecting cluster
    /// co-location for clustered topologies (requests from one NLANR
    /// site issue from PAST nodes in that site's cluster).
    fn node_of_client(&self, client: u16) -> Addr {
        let (client, n) = (u32::from(client), self.cfg.nodes);
        let base = (client as usize * n) / CLIENTS as usize;
        match self.cfg.topology {
            TopologyKind::Euclidean => Addr(base.min(n - 1) as u32),
            TopologyKind::Clustered { clusters } => {
                let want = client % CLUSTERS;
                // Node i's cluster is i % clusters (round-robin layout).
                let aligned = base - (base % clusters as usize) + want as usize;
                Addr(aligned.min(n - 1) as u32)
            }
        }
    }

    /// Replays the trace **closed-loop**: first references insert,
    /// repeated references look up (when `replay_lookups` is set), and
    /// the network drains to idle after each operation. Returns the
    /// collected metrics.
    pub fn run<W: Workload + ?Sized>(self, trace: &W) -> ExperimentResult {
        self.replay(trace, Pacing::Closed)
    }

    /// Replays the trace **open-loop**: operation `i` is injected at
    /// simulated time `start + i × gap` without waiting for earlier
    /// operations to finish, so many inserts are in flight at once.
    /// This is the throughput mode the sharded engine is built for —
    /// per-op replay (`run`) drains the network between operations,
    /// which leaves too few concurrent events to spread across shards.
    ///
    /// Lookups of files whose insert has not yet completed are skipped
    /// (the per-op replay cannot hit that case; an open-loop replay
    /// can).
    pub fn run_pipelined<W: Workload + ?Sized>(
        self,
        trace: &W,
        gap: SimDuration,
    ) -> ExperimentResult {
        self.replay(trace, Pacing::Open(gap))
    }

    /// The replay loop of both modes. A completed insert is attributed
    /// to its trace file by the `(client node, client-local seq)` pair
    /// that `PastNode` stamps on every `InsertDone` upcall.
    fn replay<W: Workload + ?Sized>(mut self, trace: &W, pacing: Pacing) -> ExperimentResult {
        let started = std::time::Instant::now();
        if let Some((label, ..)) = &self.metrics {
            self.overlay.start_recording(label);
        }
        let t0 = self.overlay.engine.now();
        self.result.replay_start_us = t0.micros();
        let total_ops = trace.op_count();
        // One record per `record_every` completions: every file is
        // inserted once, every other op is a lookup when lookups replay.
        let records = |ops: usize| ops.div_ceil(self.record_every as usize);
        let lookups = if self.cfg.replay_lookups {
            total_ops - trace.unique_files()
        } else {
            0
        };
        self.result.inserts.reserve_exact(records(trace.unique_files()));
        self.result.lookups.reserve_exact(records(lookups));
        // (client addr, client-local seq) → trace file index, kept only
        // where the fileId will be looked up later.
        let mut pending: HashMap<(u32, u64), u32> = HashMap::new();
        for (i, op) in trace.ops_iter().enumerate() {
            if let Pacing::Open(gap) = pacing {
                let at = t0 + SimDuration(gap.0.saturating_mul(i as u64));
                self.overlay.engine.run_until(at);
                self.collect(&mut pending);
            }
            let addr = self.node_of_client(op.client);
            let issued = if op.is_insert {
                let name = trace.file_name(op.file);
                let seq = self.overlay.insert(addr, &name, trace.file_size(op.file));
                if self.cfg.replay_lookups {
                    pending.insert((addr.0, seq), op.file);
                }
                true
            } else if let Some(&Some(fid)) = self.file_ids.get(op.file as usize) {
                self.overlay.lookup(addr, fid);
                true
            } else {
                false
            };
            if issued && matches!(pacing, Pacing::Closed) {
                self.overlay.engine.run_until_idle();
                self.collect(&mut pending);
            }
            if let Some((_, every, _)) = &self.metrics {
                if (i + 1) % every == 0 {
                    let gauges = self.gauges();
                    self.overlay.snapshot(&gauges);
                }
            }
            if i % 1000 == 0 {
                if let Some(cb) = self.progress.as_mut() {
                    cb(i, total_ops);
                }
            }
        }
        self.overlay.engine.run_until_idle();
        self.collect(&mut pending);
        if let Some((.., write)) = self.metrics {
            let (seed, gauges) = (self.cfg.seed, self.gauges());
            if let Some((json, rec)) = self.overlay.finish_recording(seed, &gauges, write) {
                self.result.metrics_json = Some(json);
                self.result.windows = self.extract_windows(&rec);
            }
        }
        self.result.wall_seconds = started.elapsed().as_secs_f64();
        self.result.net = self.overlay.engine.stats();
        self.result
    }

    /// The harness-level gauges of a metrics snapshot.
    fn gauges(&self) -> [(&'static str, i64); 2] {
        [
            ("sim.stored_bytes", self.result.stored_bytes as i64),
            ("sim.replicas_now", self.result.replicas_stored as i64),
        ]
    }

    /// Builds the [`WindowSeries`] from the final (shard-merged)
    /// registry state when [`ExperimentConfig::obs_window`] is nonzero.
    /// Per-node series are collapsed to per-bucket total /
    /// distinct-node / max — the load-spread statistics the flash-crowd
    /// study charts.
    fn extract_windows(&self, rec: &past_obs::Recorder) -> Option<WindowSeries> {
        let width_us = self.cfg.obs_window.micros();
        if width_us == 0 {
            return None;
        }
        let m = rec.metrics();
        let mut series = WindowSeries {
            width_us,
            ..Default::default()
        };
        for (name, buckets) in m.windows() {
            series.counters.insert(name.clone(), buckets.clone());
        }
        for (name, cells) in m.node_windows() {
            let mut per: BTreeMap<u64, NodeWindowStat> = BTreeMap::new();
            for (&(bucket, _node), &count) in cells {
                let s = per.entry(bucket).or_default();
                s.total += count;
                s.nodes += 1;
                s.max = s.max.max(count);
            }
            series.node_stats.insert(name.clone(), per);
        }
        Some(series)
    }

    /// Folds the upcalls emitted since the last drain into the result,
    /// and remembers the fileId of each successful insert in `pending`.
    fn collect(&mut self, pending: &mut HashMap<(u32, u64), u32>) {
        for (_, addr, event) in self.overlay.drain_upcalls() {
            if let PastEvent::InsertDone {
                seq,
                file_id,
                success,
                ..
            } = event
            {
                if let (Some(file), true) = (pending.remove(&(addr.0, seq)), success) {
                    self.file_ids[file as usize] = Some(file_id);
                }
            }
            self.result.absorb(event, self.record_every);
        }
    }
}

impl ExperimentResult {
    /// Accounts one upcall, keeping 1-in-`record_every` of the
    /// per-event records.
    fn absorb(&mut self, event: PastEvent, record_every: u64) {
        match event {
            PastEvent::ReplicaStored { size, diverted, .. } => {
                self.stored_bytes += size;
                self.replicas_stored += 1;
                self.replicas_diverted += diverted as u64;
            }
            PastEvent::ReplicaDropped { size, diverted, .. } => {
                self.stored_bytes = self.stored_bytes.saturating_sub(size);
                self.replicas_stored = self.replicas_stored.saturating_sub(1);
                self.replicas_diverted = self.replicas_diverted.saturating_sub(diverted as u64);
            }
            PastEvent::InsertDone {
                size,
                attempts,
                success,
                ..
            } => {
                self.inserts_ok += success as u64;
                if self.inserts_total.is_multiple_of(record_every) {
                    let count = |n: u64| u32::try_from(n).expect("replica count fits u32");
                    self.inserts.push(InsertRecord {
                        utilization: self.final_utilization(),
                        size,
                        attempts,
                        replicas: count(self.replicas_stored),
                        diverted: count(self.replicas_diverted),
                        success,
                    });
                }
                self.inserts_total += 1;
            }
            PastEvent::LookupDone {
                found, hops, kind, ..
            } => {
                self.lookups_ok += found as u64;
                if self.lookups_total.is_multiple_of(record_every) {
                    let utilization = self.final_utilization();
                    self.lookups.push(LookupRecord {
                        utilization,
                        found,
                        hops,
                        cache_hit: is_cache_hit(kind),
                    });
                }
                self.lookups_total += 1;
            }
            PastEvent::ReclaimDone { .. } => {}
        }
    }
}

/// Convenience: build and run in one call.
pub fn run_experiment<W: Workload + ?Sized>(cfg: ExperimentConfig, trace: &W) -> ExperimentResult {
    Runner::build(cfg, trace).run(trace)
}
