//! The experiment runner: builds a PAST overlay and replays a workload
//! trace against it, collecting the paper's metrics.

use past_core::{PastEvent, PastNode, PastOverlayNode};
use past_crypto::{KeyPair, Scheme};
use past_id::{FileId, IdHashMap};
use past_net::{Addr, ClusteredTopology, EuclideanTopology, SimTime, Simulator, Topology};

use crate::engine::Engine;
use past_pastry::{NodeEntry, PastryNode};
use past_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ExperimentConfig, TopologyKind};
use crate::metrics::{
    is_cache_hit, ExperimentResult, InsertRecord, LookupRecord, NodeWindowStat, ReplicaSample,
    WindowSeries,
};

/// A built overlay plus replay state.
pub struct Runner {
    cfg: ExperimentConfig,
    sim: Engine,
    entries: Vec<NodeEntry>,
    total_capacity: u64,
    stored_bytes: u64,
    replicas_now: u64,
    diverted_now: u64,
    /// fileId assigned to each successfully inserted trace file.
    /// Populated only when `cfg.replay_lookups` is set — insert-only
    /// replays (the XL/XL2 rows) never read it, and at 10M files the
    /// map alone would cost hundreds of MB.
    file_ids: IdHashMap<u32, FileId>,
    /// Keep 1-in-N per-event records (`inserts`, `lookups`,
    /// `replica_samples`); 1 = keep everything (the default).
    record_every: usize,
    /// Insert/lookup completions seen, for the sampling phase.
    inserts_seen: u64,
    lookups_seen: u64,
    /// Reused upcall drain buffer (one allocation for the whole replay
    /// instead of one per trace operation).
    upcall_buf: Vec<(SimTime, Addr, PastEvent)>,
    result: ExperimentResult,
    /// Progress callback (trace ops completed, total).
    progress: Option<Box<dyn FnMut(usize, usize)>>,
    /// Metrics recording (label, snapshot interval in trace ops).
    metrics: Option<(String, usize)>,
    /// Whether the metrics report is also written to
    /// `results/metrics_<label>.json` (true for [`Self::with_metrics`];
    /// [`Self::with_metrics_quiet`] keeps it in-memory only, so sweeps
    /// over dozens of configurations don't litter the results dir).
    metrics_write: bool,
}

impl Runner {
    /// Builds the overlay for `cfg`, scaling node capacities so that the
    /// trace's total replica bytes overcommit the system by
    /// `cfg.overcommit`. Accepts any [`Workload`] — a materialized
    /// [`past_workload::Trace`] or a lazy [`past_workload::StreamTrace`].
    pub fn build<W: Workload + ?Sized>(cfg: ExperimentConfig, trace: &W) -> Self {
        let mut seeder = StdRng::seed_from_u64(cfg.seed);
        // Scale capacities to the trace (preserving the Table 1 shape).
        let trace_replica_bytes = trace.total_bytes() as f64 * cfg.k as f64;
        let target_total = trace_replica_bytes / cfg.overcommit;
        let scale = cfg.capacity.scale_for_total(cfg.nodes, target_total);
        let capacity_dist = cfg.capacity.scaled(scale);
        let capacities = capacity_dist.sample_nodes(cfg.nodes, &mut seeder);
        let total_capacity: u64 = capacities.iter().sum();

        let topo: Box<dyn Topology> = match cfg.topology {
            TopologyKind::Euclidean => Box::new(EuclideanTopology::random(cfg.nodes, &mut seeder)),
            TopologyKind::Clustered { clusters } => {
                Box::new(ClusteredTopology::round_robin(cfg.nodes, clusters))
            }
        };
        let mut sim = Engine::build(topo, cfg.seed ^ 0x517, cfg.shards);
        // One insert fans out to ~k replicate/receipt exchanges per hop;
        // sizing the queue to the overlay keeps the binary heap from
        // repeatedly doubling (and copying every in-flight message)
        // while the first operations warm it up.
        sim.reserve_capacity(cfg.nodes.saturating_mul(8).min(1 << 20), 256);
        let past_cfg = cfg.past_config();
        let pastry_cfg = cfg.pastry_config();
        let mut entries = Vec::with_capacity(cfg.nodes);
        for (i, &capacity) in capacities.iter().enumerate() {
            let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
            let id = past_crypto::derive_node_id(&keys.public());
            let addr = Addr(i as u32);
            let entry = NodeEntry::new(id, addr);
            let app = PastNode::new(past_cfg.clone(), keys, capacity, u64::MAX / 2);
            let bootstrap = if i == 0 {
                None
            } else {
                Some(Addr(seeder.gen_range(0..i) as u32))
            };
            sim.add_node(
                addr,
                PastryNode::new(pastry_cfg.clone(), entry, app, bootstrap),
            );
            sim.run_until_idle();
            entries.push(entry);
        }
        Runner {
            cfg,
            sim,
            entries,
            total_capacity,
            stored_bytes: 0,
            replicas_now: 0,
            diverted_now: 0,
            file_ids: IdHashMap::default(),
            record_every: 1,
            inserts_seen: 0,
            lookups_seen: 0,
            upcall_buf: Vec::with_capacity(64),
            result: ExperimentResult {
                total_capacity,
                ..Default::default()
            },
            progress: None,
            metrics: None,
            metrics_write: true,
        }
    }

    /// Thins the per-event record vectors (`inserts`, `lookups`,
    /// `replica_samples`) to 1-in-`every` entries. The exact aggregate
    /// counters ([`ExperimentResult::inserts_total`] and friends) are
    /// unaffected — only the utilization-curve resolution drops. The
    /// default (`every = 1`) records everything; XL-scale replays pass
    /// a larger stride so 10M completions do not materialize hundreds
    /// of MB of records.
    pub fn with_record_sampling(mut self, every: usize) -> Self {
        self.record_every = every.max(1);
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
        self.metrics = Some((label.to_string(), snapshot_every.max(1)));
        self.metrics_write = true;
        self
    }

    /// Like [`Self::with_metrics`], but the report stays in
    /// [`ExperimentResult::metrics_json`] only — nothing is written to
    /// the results directory. Parameter sweeps that run the same
    /// experiment dozens of times use this to avoid one file per cell.
    pub fn with_metrics_quiet(mut self, label: &str, snapshot_every: usize) -> Self {
        self.metrics = Some((label.to_string(), snapshot_every.max(1)));
        self.metrics_write = false;
        self
    }

    /// Current global storage utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.stored_bytes as f64 / self.total_capacity as f64
    }

    /// Access to the built overlay (for tests and custom experiments).
    ///
    /// # Panics
    ///
    /// Panics under the sharded engine (`cfg.shards >= 1`); scenario
    /// surgery against raw simulator internals is a legacy-engine
    /// affordance. Use [`Runner::engine`] for engine-agnostic access.
    pub fn sim(&self) -> &Simulator<PastOverlayNode> {
        self.sim
            .as_single()
            .expect("Runner::sim() requires the single-threaded engine (cfg.shards == 0)")
    }

    /// Engine-agnostic access to the simulation backend.
    pub fn engine(&self) -> &Engine {
        &self.sim
    }

    /// The overlay's node identities.
    pub fn entries(&self) -> &[NodeEntry] {
        &self.entries
    }

    /// Maps a trace client to its access-point node, respecting cluster
    /// co-location for clustered topologies (requests from one NLANR
    /// site issue from PAST nodes in that site's cluster).
    fn node_of_client<W: Workload + ?Sized>(&self, client: u32, trace: &W) -> Addr {
        let n = self.cfg.nodes;
        let base = (client as usize * n) / trace.client_count().max(1) as usize;
        match self.cfg.topology {
            TopologyKind::Euclidean => Addr(base.min(n - 1) as u32),
            TopologyKind::Clustered { clusters } => {
                let want = trace.cluster_of_client(client);
                // Node i's cluster is i % clusters (round-robin layout).
                let aligned = base - (base % clusters as usize) + want as usize;
                Addr(aligned.min(n - 1) as u32)
            }
        }
    }

    /// Replays the trace: first references insert, repeated references
    /// look up (when `replay_lookups` is set). Returns the collected
    /// metrics.
    pub fn run<W: Workload + ?Sized>(mut self, trace: &W) -> ExperimentResult {
        let started = std::time::Instant::now();
        if self.metrics.is_some() {
            past_obs::install(past_obs::Recorder::new());
        }
        self.result.replay_start_us = self.sim.now().micros();
        let total_ops = trace.op_count();
        for (i, op) in trace.ops_iter().enumerate() {
            let addr = self.node_of_client(op.client, trace);
            if op.is_insert {
                self.do_insert(addr, op.file, &trace.file_name(op.file), trace.file_size(op.file));
            } else if self.cfg.replay_lookups {
                if let Some(fid) = self.file_ids.get(&op.file).copied() {
                    self.do_lookup(addr, fid);
                }
            }
            if let Some((_, every)) = &self.metrics {
                if (i + 1) % every == 0 {
                    self.snapshot_metrics();
                }
            }
            if i % 1000 == 0 {
                if let Some(cb) = self.progress.as_mut() {
                    cb(i, total_ops);
                }
            }
        }
        self.finish_metrics();
        self.result.stored_bytes = self.stored_bytes;
        self.result.wall_seconds = started.elapsed().as_secs_f64();
        self.result.net = self.sim.stats();
        self.result
    }

    /// Final metrics snapshot + report extraction, shared by both replay
    /// modes: uninstalls the recorder, renders the JSON report (written
    /// to the results dir unless the quiet variant was used) and pulls
    /// the windowed time series out of the registry when
    /// [`ExperimentConfig::obs_window`] is nonzero.
    fn finish_metrics(&mut self) {
        if let Some((label, _)) = self.metrics.take() {
            self.snapshot_metrics();
            if let Some(rec) = past_obs::uninstall() {
                let json = rec.report_json(&label, self.cfg.seed);
                if self.metrics_write {
                    let _ = crate::report::write_metrics_file(&label, &json);
                }
                self.result.metrics_json = Some(json);
                self.result.windows = self.extract_windows(&rec);
            }
        }
    }

    /// Builds the [`WindowSeries`] from the final (shard-merged)
    /// registry state. Per-node series are collapsed to per-bucket
    /// total / distinct-node / max — the load-spread statistics the
    /// flash-crowd study charts.
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
            let mut per: std::collections::BTreeMap<u64, NodeWindowStat> =
                std::collections::BTreeMap::new();
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

    /// Records harness-level gauges and appends a registry snapshot
    /// stamped with the current sim time.
    fn snapshot_metrics(&mut self) {
        self.sim.sync_obs();
        past_obs::gauge("net.queue_len", self.sim.queue_len() as i64);
        past_obs::gauge("sim.stored_bytes", self.stored_bytes as i64);
        past_obs::gauge("sim.replicas_now", self.replicas_now as i64);
        let at = self.sim.now().micros();
        past_obs::with_recorder(|r| r.take_snapshot(at));
    }

    /// Replays the trace **open-loop**: operation `i` is injected at
    /// simulated time `start + i × gap` without waiting for earlier
    /// operations to finish, so many inserts are in flight at once.
    /// This is the throughput mode the sharded engine is built for —
    /// per-op replay (`run`) drains the network between operations,
    /// which leaves too few concurrent events to spread across shards.
    ///
    /// Completed operations are attributed to their trace entry by the
    /// `(client node, client-local seq)` pair that `PastNode` stamps on
    /// every `InsertDone`/`LookupDone` upcall. Lookups of files whose
    /// insert has not yet completed are skipped (the per-op replay
    /// cannot hit that case; an open-loop replay can).
    pub fn run_pipelined<W: Workload + ?Sized>(
        mut self,
        trace: &W,
        gap: past_net::SimDuration,
    ) -> ExperimentResult {
        let started = std::time::Instant::now();
        if self.metrics.is_some() {
            past_obs::install(past_obs::Recorder::new());
        }
        self.result.replay_start_us = self.sim.now().micros();
        let total_ops = trace.op_count();
        let t0 = self.sim.now();
        // (client addr, client-local seq) → trace file index.
        let mut pending: std::collections::HashMap<(u32, u64), u32> =
            std::collections::HashMap::new();
        for (i, op) in trace.ops_iter().enumerate() {
            let at = t0 + past_net::SimDuration(gap.0.saturating_mul(i as u64));
            self.sim.run_until(at);
            self.collect_pipelined(&mut pending);
            let addr = self.node_of_client(op.client, trace);
            if op.is_insert {
                let name = trace.file_name(op.file);
                let size = trace.file_size(op.file);
                let mut seq = 0u64;
                self.sim.invoke(addr, |node, ctx| {
                    node.invoke_app(ctx, |app, actx| {
                        seq = app.insert(actx, &name, size);
                    });
                });
                pending.insert((addr.0, seq), op.file);
            } else if self.cfg.replay_lookups {
                if let Some(fid) = self.file_ids.get(&op.file).copied() {
                    self.sim.invoke(addr, move |node, ctx| {
                        node.invoke_app(ctx, |app, actx| {
                            app.lookup(actx, fid);
                        });
                    });
                }
            }
            if let Some((_, every)) = &self.metrics {
                if (i + 1) % every == 0 {
                    self.snapshot_metrics();
                }
            }
            if i % 1000 == 0 {
                if let Some(cb) = self.progress.as_mut() {
                    cb(i, total_ops);
                }
            }
        }
        self.sim.run_until_idle();
        self.collect_pipelined(&mut pending);
        self.finish_metrics();
        self.result.stored_bytes = self.stored_bytes;
        self.result.wall_seconds = started.elapsed().as_secs_f64();
        self.result.net = self.sim.stats();
        self.result
    }

    fn do_insert(&mut self, addr: Addr, file_index: u32, name: &str, size: u64) {
        let name = name.to_string();
        self.sim.invoke(addr, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.insert(actx, &name, size);
            });
        });
        self.sim.run_until_idle();
        self.collect(Some(file_index));
    }

    fn do_lookup(&mut self, addr: Addr, fid: FileId) {
        self.sim.invoke(addr, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.lookup(actx, fid);
            });
        });
        self.sim.run_until_idle();
        self.collect(None);
    }

    fn collect(&mut self, file_index: Option<u32>) {
        let mut buf = std::mem::take(&mut self.upcall_buf);
        buf.clear();
        self.sim.drain_upcalls_into(&mut buf);
        for (_, _, event) in buf.drain(..) {
            self.absorb_event(event, file_index);
        }
        self.upcall_buf = buf;
    }

    /// Open-loop drain: attributes each `InsertDone` to its trace file
    /// via the issuing node's `(addr, seq)` recorded at injection time.
    fn collect_pipelined(&mut self, pending: &mut std::collections::HashMap<(u32, u64), u32>) {
        let mut buf = std::mem::take(&mut self.upcall_buf);
        buf.clear();
        self.sim.drain_upcalls_into(&mut buf);
        for (_, addr, event) in buf.drain(..) {
            let file_index = if let PastEvent::InsertDone { seq, .. } = &event {
                pending.remove(&(addr.0, *seq))
            } else {
                None
            };
            self.absorb_event(event, file_index);
        }
        self.upcall_buf = buf;
    }

    fn absorb_event(&mut self, event: PastEvent, file_index: Option<u32>) {
        match event {
            PastEvent::ReplicaStored { size, diverted, .. } => {
                self.stored_bytes += size;
                self.replicas_now += 1;
                self.result.replicas_stored += 1;
                if diverted {
                    self.diverted_now += 1;
                    self.result.replicas_diverted += 1;
                }
            }
            PastEvent::ReplicaDropped { size, diverted, .. } => {
                self.stored_bytes = self.stored_bytes.saturating_sub(size);
                self.replicas_now = self.replicas_now.saturating_sub(1);
                self.result.replicas_stored = self.result.replicas_stored.saturating_sub(1);
                if diverted {
                    self.diverted_now = self.diverted_now.saturating_sub(1);
                    self.result.replicas_diverted = self.result.replicas_diverted.saturating_sub(1);
                }
            }
            PastEvent::InsertDone {
                file_id,
                size,
                attempts,
                success,
                ..
            } => {
                if success {
                    self.result.inserts_ok += 1;
                    if let Some(idx) = file_index {
                        if self.cfg.replay_lookups {
                            self.file_ids.insert(idx, file_id);
                        }
                    }
                }
                self.result.inserts_total += 1;
                self.inserts_seen += 1;
                if (self.inserts_seen - 1).is_multiple_of(self.record_every as u64) {
                    let utilization = self.utilization();
                    self.result.inserts.push(InsertRecord {
                        utilization,
                        size,
                        attempts,
                        success,
                    });
                    self.result.replica_samples.push(ReplicaSample {
                        utilization,
                        replicas: self.replicas_now,
                        diverted: self.diverted_now,
                    });
                }
            }
            PastEvent::LookupDone {
                found, hops, kind, ..
            } => {
                self.result.lookups_total += 1;
                if found {
                    self.result.lookups_ok += 1;
                }
                self.lookups_seen += 1;
                if (self.lookups_seen - 1).is_multiple_of(self.record_every as u64) {
                    let utilization = self.utilization();
                    self.result.lookups.push(LookupRecord {
                        utilization,
                        found,
                        hops,
                        cache_hit: is_cache_hit(kind),
                    });
                }
            }
            PastEvent::ReclaimDone { .. }
            | PastEvent::InsertAttemptAborted { .. }
            | PastEvent::MaintExhausted { .. } => {}
        }
    }
}

/// Convenience: build and run in one call.
pub fn run_experiment<W: Workload + ?Sized>(cfg: ExperimentConfig, trace: &W) -> ExperimentResult {
    Runner::build(cfg, trace).run(trace)
}
