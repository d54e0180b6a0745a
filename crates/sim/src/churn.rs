//! Churn experiment driver and global invariant auditor.
//!
//! [`ChurnRunner`] builds a PAST overlay with failure detection armed
//! (keep-alives + per-hop acks), inserts a working set from a protected
//! client node, subjects the overlay to a [`FaultPlan`] (crash/recover
//! schedules, partitions, message loss), and — after the network has
//! quiesced — walks every live node to check the paper's global
//! invariants (§3.5):
//!
//! - **replication**: every inserted, unreclaimed file is backed by
//!   `min(k, live nodes)` reachable copies, where a copy is either a
//!   primary replica or a valid A→B pointer to a live diverted holder;
//! - **pointer integrity**: no dangling pointers (targets dead or no
//!   longer holding the bytes); a pointer carries its certificate in
//!   the same `past-store` record, so the two cannot come apart;
//! - **quota conservation**: the client's ledger charges exactly
//!   `k × size` for each successful, unreclaimed insert.
//!
//! The result is a structured [`InvariantReport`], so tests and the
//! `repro churn_availability` experiment can assert on individual
//! violations instead of a boolean.

use std::collections::{BTreeSet, HashMap};

use past_core::{AuditStats, MaintStats, PastConfig, PastEvent, PastNode, PastOverlayNode};
use past_crypto::{KeyPair, Scheme};
use past_id::FileId;
use past_net::{
    Addr, ByzantineBehavior, EuclideanTopology, FaultPlan, NetStats, SimDuration, SimTime,
    Simulator,
};

use crate::engine::Engine;
use past_pastry::{NodeEntry, PastryConfig, PastryNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a churn experiment.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Overlay size.
    pub nodes: usize,
    /// Master seed (topology, keys, bootstrap choices, workload).
    pub seed: u64,
    /// Per-node PAST configuration (k, acceptance policies, the
    /// reliable-maintenance knobs under test).
    pub past: PastConfig,
    /// Pastry configuration; must arm keep-alives so failures are
    /// detected and repaired.
    pub pastry: PastryConfig,
    /// Per-node disk capacity.
    pub capacity: u64,
    /// Number of files the client inserts before churn starts.
    pub files: usize,
    /// Size of each inserted file.
    pub file_size: u64,
    /// Simulation shards: 0 = single-threaded legacy engine, `n ≥ 1` =
    /// sharded engine with `n` shards (shard-count invariant results).
    pub shards: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            nodes: 30,
            seed: 1,
            past: PastConfig {
                cache_policy: past_store::CachePolicyKind::None,
                ..Default::default()
            },
            pastry: PastryConfig {
                leaf_set_size: 16,
                neighborhood_size: 16,
                keep_alive_period: SimDuration::from_secs(5),
                failure_timeout: SimDuration::from_secs(15),
                per_hop_acks: true,
                ..Default::default()
            },
            capacity: 40_000_000,
            files: 8,
            file_size: 20_000,
            shards: 0,
        }
    }
}

/// One replication-invariant violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnderReplicated {
    /// The file concerned.
    pub file_id: FileId,
    /// Reachable copies found (primaries + valid pointers).
    pub found: usize,
    /// Copies the invariant requires (`min(k, live nodes)`).
    pub required: usize,
}

/// Outcome of one global invariant audit (see the module docs for the
/// invariants themselves).
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    /// Files audited (successful, unreclaimed inserts).
    pub files: usize,
    /// Live nodes walked.
    pub live_nodes: usize,
    /// Files with fewer than `min(k, live)` reachable copies.
    pub under_replicated: Vec<UnderReplicated>,
    /// Pointers whose target is dead or no longer holds the bytes.
    pub dangling_pointers: usize,
    /// Bytes the client's quota ledger should be charged.
    pub quota_expected: u64,
    /// Bytes the ledger actually charges.
    pub quota_used: u64,
    /// Nodes running a Byzantine strategy at audit time.
    pub byzantine_nodes: usize,
    /// Copies counted above that sit on a malicious holder
    /// (informational: such copies are liabilities, not assets).
    pub replicas_on_malicious: usize,
}

impl InvariantReport {
    /// Whether every audited invariant holds.
    pub fn is_clean(&self) -> bool {
        self.under_replicated.is_empty()
            && self.dangling_pointers == 0
            && self.quota_expected == self.quota_used
    }

    /// Human-readable one-line summary (for assertions and logs).
    pub fn summary(&self) -> String {
        format!(
            "files={} live={} under_replicated={} dangling={} quota={}/{}",
            self.files,
            self.live_nodes,
            self.under_replicated.len(),
            self.dangling_pointers,
            self.quota_used,
            self.quota_expected,
        )
    }
}

/// Drives one churn experiment: build → insert → churn → heal → audit.
pub struct ChurnRunner {
    cfg: ChurnConfig,
    sim: Engine,
    entries: Vec<NodeEntry>,
    /// Successful, unreclaimed inserts (the audited working set).
    files: Vec<(FileId, u64)>,
    inserts_attempted: usize,
    lookups_attempted: usize,
    lookups_ok: usize,
    workload_rng: StdRng,
    /// Label for `past-obs` recording (None = recording off).
    metrics_label: Option<String>,
    /// Downtime durations of every crash/recover pair installed through
    /// [`Self::run_with_faults`] (from `FaultPlan::downtimes`), so runs
    /// can report downtime distributions alongside availability.
    downtimes: Vec<(Addr, SimDuration)>,
    /// Nodes currently running a Byzantine strategy (installed through
    /// [`Self::apply_byzantine`]).
    malicious: BTreeSet<Addr>,
    /// When the Byzantine strategies were switched on (detection
    /// latency is measured from here).
    malice_start: Option<SimTime>,
    /// Lookups whose final answer was corrupted content.
    corrupted_lookups: u64,
}

/// The client access point; excluded from churn plans built by
/// [`ChurnRunner::poisson_plan`] so quota accounting stays auditable.
pub const CLIENT: Addr = Addr(0);

impl ChurnRunner {
    /// Builds the overlay (no churn yet).
    pub fn build(cfg: ChurnConfig) -> Self {
        let mut seeder = StdRng::seed_from_u64(cfg.seed);
        let topo = EuclideanTopology::random(cfg.nodes, &mut seeder);
        let mut sim = Engine::build(Box::new(topo), cfg.seed ^ 0xc4a2, cfg.shards);
        let mut entries = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
            let id = past_crypto::derive_node_id(&keys.public());
            let addr = Addr(i as u32);
            let entry = NodeEntry::new(id, addr);
            let app = PastNode::new(cfg.past.clone(), keys, cfg.capacity, u64::MAX / 2);
            let bootstrap = if i == 0 {
                None
            } else {
                Some(Addr(seeder.gen_range(0..i) as u32))
            };
            sim.add_node(
                addr,
                PastryNode::new(cfg.pastry.clone(), entry, app, bootstrap),
            );
            // Keep-alives are armed, so the queue never drains: settle
            // each join with a bounded window instead.
            sim.run_for(SimDuration::from_secs(1));
            entries.push(entry);
        }
        sim.run_for(SimDuration::from_secs(10));
        sim.discard_upcalls();
        let workload_rng = StdRng::seed_from_u64(cfg.seed ^ 0x90ad);
        ChurnRunner {
            cfg,
            sim,
            entries,
            files: Vec::new(),
            inserts_attempted: 0,
            lookups_attempted: 0,
            lookups_ok: 0,
            workload_rng,
            metrics_label: None,
            downtimes: Vec::new(),
            malicious: BTreeSet::new(),
            malice_start: None,
            corrupted_lookups: 0,
        }
    }

    /// Enables `past-obs` recording for the phases that follow. The
    /// caller drives snapshots ([`Self::snapshot_metrics`]) at phase
    /// boundaries and closes the run with [`Self::finish_metrics`],
    /// which writes `results/metrics_<label>.json`.
    pub fn enable_metrics(&mut self, label: &str) {
        self.metrics_label = Some(label.to_string());
        past_obs::install(past_obs::Recorder::new());
    }

    /// Appends a registry snapshot stamped with the current sim time
    /// (no-op unless [`Self::enable_metrics`] was called).
    pub fn snapshot_metrics(&mut self) {
        self.sim.sync_obs();
        past_obs::gauge("net.queue_len", self.sim.queue_len() as i64);
        past_obs::gauge("sim.files_live", self.files.len() as i64);
        let at = self.sim.now().micros();
        past_obs::with_recorder(|r| r.take_snapshot(at));
    }

    /// Takes a final snapshot, writes `results/metrics_<label>.json`,
    /// and returns the report JSON (None if recording was off).
    pub fn finish_metrics(&mut self) -> Option<String> {
        let label = self.metrics_label.take()?;
        self.snapshot_metrics();
        let rec = past_obs::uninstall()?;
        let json = rec.report_json(&label, self.cfg.seed);
        let _ = crate::report::write_metrics_file(&label, &json);
        Some(json)
    }

    /// The legacy simulator (for custom fault plans and inspection).
    ///
    /// # Panics
    ///
    /// Panics under the sharded engine (`cfg.shards >= 1`); use the
    /// engine-agnostic wrappers ([`Self::run_for`],
    /// [`Self::set_loss_probability`], …) or [`Self::engine`] instead.
    pub fn sim(&self) -> &Simulator<PastOverlayNode> {
        self.sim
            .as_single()
            .expect("ChurnRunner::sim() requires the single-threaded engine (cfg.shards == 0)")
    }

    /// Mutable legacy simulator access (for scenario surgery in tests:
    /// direct kills, recoveries, extra invocations). Same engine
    /// restriction as [`Self::sim`].
    pub fn sim_mut(&mut self) -> &mut Simulator<PastOverlayNode> {
        self.sim
            .as_single_mut()
            .expect("ChurnRunner::sim_mut() requires the single-threaded engine (cfg.shards == 0)")
    }

    /// Engine-agnostic access to the simulation backend.
    pub fn engine(&self) -> &Engine {
        &self.sim
    }

    /// Advances simulated time by `span` on whichever engine is active.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Sets the global i.i.d. message-loss probability on whichever
    /// engine is active.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.sim.set_loss_probability(p);
    }

    /// Discards pending upcalls on whichever engine is active.
    pub fn discard_upcalls(&mut self) {
        self.sim.discard_upcalls();
    }

    /// Removes a node on whichever engine is active, returning its
    /// protocol state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<PastOverlayNode> {
        self.sim.remove_node(addr)
    }

    /// The overlay's node identities.
    pub fn entries(&self) -> &[NodeEntry] {
        &self.entries
    }

    /// Live nodes currently holding a replica (primary or diverted) of
    /// `fid`.
    pub fn holders_of(&self, fid: FileId) -> Vec<Addr> {
        self.entries
            .iter()
            .filter(|e| self.sim.is_up(e.addr))
            .filter(|e| {
                self.sim
                    .node(e.addr)
                    .map(|n| n.app().store().holds_replica(fid))
                    .unwrap_or(false)
            })
            .map(|e| e.addr)
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> past_net::SimTime {
        self.sim.now()
    }

    /// The audited working set: (fileId, size) of successful inserts.
    pub fn files(&self) -> &[(FileId, u64)] {
        &self.files
    }

    /// Inserts the configured working set from the client node and
    /// records the successful fileIds. Returns how many succeeded.
    pub fn insert_files(&mut self) -> usize {
        let mut buf = Vec::new();
        for i in 0..self.cfg.files {
            let name = format!("churn{i}");
            let size = self.cfg.file_size;
            self.inserts_attempted += 1;
            self.sim.invoke(CLIENT, move |node, ctx| {
                node.invoke_app(ctx, |app, actx| {
                    app.insert(actx, &name, size);
                });
            });
            self.sim.run_for(SimDuration::from_secs(2));
            self.sim.drain_upcalls_into(&mut buf);
            for (_, _, ev) in buf.drain(..) {
                if let PastEvent::InsertDone {
                    file_id,
                    size,
                    success: true,
                    ..
                } = ev
                {
                    self.files.push((file_id, size));
                }
            }
        }
        self.files.len()
    }

    /// Builds a Poisson churn plan over every node except the client,
    /// covering the next `span` of simulated time.
    pub fn poisson_plan(
        &self,
        mtbf: SimDuration,
        mean_downtime: SimDuration,
        span: SimDuration,
    ) -> FaultPlan {
        let victims: Vec<Addr> = (1..self.cfg.nodes).map(|i| Addr(i as u32)).collect();
        let start = self.sim.now();
        FaultPlan::new().poisson_churn(
            self.cfg.seed ^ 0xfa11,
            &victims,
            mtbf,
            mean_downtime,
            start,
            start + span,
        )
    }

    /// Installs a fault plan and runs the overlay for `span`. Downtime
    /// durations the plan recorded (Poisson churn, `restart_at`) are
    /// accumulated for [`Self::downtime_summary`].
    pub fn run_with_faults(&mut self, plan: FaultPlan, span: SimDuration) {
        self.downtimes.extend_from_slice(plan.downtimes());
        self.sim.set_fault_plan(plan);
        self.sim.run_for(span);
    }

    /// Downtime durations of every crash/recover pair run so far.
    pub fn downtimes(&self) -> &[(Addr, SimDuration)] {
        &self.downtimes
    }

    /// Builds a Byzantine plan converting `fraction` of the non-client
    /// nodes to adversarial strategies (deterministic in the seed).
    ///
    /// Node *selection* uses [`FaultPlan::byzantine`]'s uniform sample;
    /// the uniform `full()` strategy it assigns is then replaced with a
    /// deterministic mix cycling through the four behaviors (in sorted
    /// address order) so every adversary class is represented: a full
    /// adversary drops its copies and therefore never serves corrupted
    /// content, which would make residual-corruption measurements
    /// vacuous.
    pub fn byzantine_plan(&self, fraction: f64) -> FaultPlan {
        let victims: Vec<Addr> = (1..self.cfg.nodes).map(|i| Addr(i as u32)).collect();
        let selected = FaultPlan::new().byzantine(self.cfg.seed ^ 0xb42, &victims, fraction);
        let mut plan = FaultPlan::new();
        for (i, (addr, _)) in selected.byzantine_nodes().into_iter().enumerate() {
            let behavior = match i % 4 {
                0 => ByzantineBehavior {
                    corrupt_content: true,
                    ..Default::default()
                },
                1 => ByzantineBehavior {
                    drop_replicas: true,
                    ..Default::default()
                },
                2 => ByzantineBehavior {
                    ack_then_discard: true,
                    inflate_free: true,
                    ..Default::default()
                },
                _ => ByzantineBehavior::full(),
            };
            plan = plan.mark_byzantine(addr, behavior);
        }
        plan
    }

    /// Flips the plan's Byzantine nodes to their assigned strategies.
    /// Nodes with `drop_replicas` discard their stored primaries on the
    /// spot (the "silently lose data" adversary); the other behaviors
    /// take effect on future message handling.
    pub fn apply_byzantine(&mut self, plan: &FaultPlan) {
        for (addr, behavior) in plan.byzantine_nodes() {
            if let Some(node) = self.sim.node_mut(addr) {
                node.app_mut().set_malice(behavior);
                if behavior.drop_replicas {
                    node.app_mut().malice_drop_replicas();
                }
                self.malicious.insert(addr);
            }
        }
        if !self.malicious.is_empty() && self.malice_start.is_none() {
            self.malice_start = Some(self.sim.now());
        }
    }

    /// Nodes currently running a Byzantine strategy.
    pub fn malicious(&self) -> &BTreeSet<Addr> {
        &self.malicious
    }

    /// Lookups whose *final* answer was corrupted content (after any
    /// verify-and-retry rounds) — the residual corruption the defense
    /// failed to filter.
    pub fn corrupted_lookups(&self) -> u64 {
        self.corrupted_lookups
    }

    /// Audit counters `(challenges, passed, failed, timeouts)` summed
    /// over every node.
    pub fn audit_totals(&self) -> (u64, u64, u64, u64) {
        let mut total = AuditStats::default();
        for e in &self.entries {
            if let Some(n) = self.sim.node(e.addr) {
                let s = n.app().audit_stats();
                total.challenges += s.challenges;
                total.passed += s.passed;
                total.failed += s.failed;
                total.timeouts += s.timeouts;
            }
        }
        (total.challenges, total.passed, total.failed, total.timeouts)
    }

    /// The earliest moment any auditor convicted a holder (first failed
    /// or timed-out audit anywhere in the overlay).
    pub fn first_detection(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .filter_map(|e| self.sim.node(e.addr))
            .filter_map(|n| n.app().audit_stats().first_detection)
            .min()
    }

    /// Time from switching the adversary on to the first audit
    /// conviction anywhere (None if nothing was detected yet, or no
    /// adversary was installed).
    pub fn detection_latency(&self) -> Option<SimDuration> {
        Some(self.first_detection()? - self.malice_start?)
    }

    /// `(count, mean, max)` of the downtimes run so far (micros), or
    /// `None` if no timed outage was installed.
    pub fn downtime_summary(&self) -> Option<(usize, u64, u64)> {
        if self.downtimes.is_empty() {
            return None;
        }
        let micros: Vec<u64> = self.downtimes.iter().map(|(_, d)| d.micros()).collect();
        let sum: u64 = micros.iter().sum();
        let max = *micros.iter().max().expect("non-empty");
        Some((micros.len(), sum / micros.len() as u64, max))
    }

    /// Issues `count` lookups of the working set from random *live*
    /// nodes, advancing the clock by `gap` after each. Returns how many
    /// of them found the file.
    pub fn lookup_round(&mut self, count: usize, gap: SimDuration) -> usize {
        if self.files.is_empty() {
            return 0;
        }
        let mut ok = 0;
        let mut buf = Vec::new();
        for i in 0..count {
            let (fid, _) = self.files[i % self.files.len()];
            let mut live: Vec<Addr> = self.sim.live_addrs();
            // Honest clients only: a malicious issuer would "lose" its
            // own request. The filter is gated on the set being
            // non-empty so default (adversary-free) runs draw the exact
            // same workload_rng sequence as before.
            if !self.malicious.is_empty() {
                live.retain(|a| !self.malicious.contains(a));
            }
            if live.is_empty() {
                break;
            }
            let from = live[self.workload_rng.gen_range(0..live.len())];
            self.sim.invoke(from, move |node, ctx| {
                node.invoke_app(ctx, |app, actx| {
                    app.lookup(actx, fid);
                });
            });
            self.sim.run_for(gap);
            self.lookups_attempted += 1;
            self.sim.drain_upcalls_into(&mut buf);
            for (_, _, ev) in buf.drain(..) {
                if let PastEvent::LookupDone {
                    found, corrupted, ..
                } = ev
                {
                    if corrupted {
                        self.corrupted_lookups += 1;
                    }
                    if found {
                        ok += 1;
                        self.lookups_ok += 1;
                    }
                }
            }
        }
        ok
    }

    /// Recovers every crashed node, clears the fault plan, and lets the
    /// network settle for `settle`.
    pub fn heal(&mut self, settle: SimDuration) {
        self.sim.set_fault_plan(FaultPlan::new());
        for i in 0..self.cfg.nodes {
            let addr = Addr(i as u32);
            if self.sim.node(addr).is_some() && !self.sim.is_up(addr) {
                self.sim.recover_node(addr);
            }
        }
        self.sim.run_for(settle);
        self.sim.discard_upcalls();
    }

    /// Runs in `step` increments until the replication invariant holds
    /// for every file or `max` elapses. Returns the time it took, or
    /// `None` on timeout. This is the benchmark's time-to-rereplication.
    pub fn time_to_full_replication(
        &mut self,
        step: SimDuration,
        max: SimDuration,
    ) -> Option<SimDuration> {
        let start = self.sim.now();
        loop {
            if self.audit().under_replicated.is_empty() {
                return Some(self.sim.now() - start);
            }
            if self.sim.now() - start >= max {
                return None;
            }
            self.sim.run_for(step);
            self.sim.discard_upcalls();
        }
    }

    /// Total lookups issued / found so far.
    pub fn lookup_totals(&self) -> (usize, usize) {
        (self.lookups_attempted, self.lookups_ok)
    }

    /// Network-level fault counters.
    pub fn net_stats(&self) -> NetStats {
        self.sim.stats()
    }

    /// Reliable-maintenance counters summed over every node (including
    /// currently crashed ones — their counters survive the crash).
    pub fn maint_totals(&self) -> MaintStats {
        let mut total = MaintStats::default();
        for e in &self.entries {
            if let Some(n) = self.sim.node(e.addr) {
                let s = n.app().maint_stats();
                total.sent += s.sent;
                total.retries += s.retries;
                total.acked += s.acked;
                total.exhausted += s.exhausted;
                total.bytes_rereplication += s.bytes_rereplication;
                total.bytes_refresh += s.bytes_refresh;
            }
        }
        total
    }

    /// `(warm, cold)` restart counts summed over every node.
    pub fn restart_totals(&self) -> (u64, u64) {
        let mut warm = 0;
        let mut cold = 0;
        for e in &self.entries {
            if let Some(n) = self.sim.node(e.addr) {
                let (w, c) = n.restart_counts();
                warm += w;
                cold += c;
            }
        }
        (warm, cold)
    }

    /// Walks every live node and checks the global invariants. See the
    /// module docs for what each counter means.
    pub fn audit(&self) -> InvariantReport {
        let mut report = InvariantReport {
            files: self.files.len(),
            ..Default::default()
        };
        let live: Vec<&PastOverlayNode> = self
            .entries
            .iter()
            .filter(|e| self.sim.is_up(e.addr))
            .filter_map(|e| self.sim.node(e.addr))
            .collect();
        report.live_nodes = live.len();

        // Is `holder` alive and holding the bytes of `fid`?
        let holds_live = |holder: &NodeEntry, fid: FileId| -> bool {
            self.sim.is_up(holder.addr)
                && self
                    .sim
                    .node(holder.addr)
                    .map(|n| n.app().store().holds_replica(fid))
                    .unwrap_or(false)
        };

        // Reachable copies per audited file: a primary replica counts
        // directly; a diverted replica counts through the A→B pointer
        // that owns it (never directly, to avoid double counting).
        let mut copies: HashMap<FileId, usize> = HashMap::new();
        for node in &live {
            let app = node.app();
            for (fid, _cert) in app.store().primaries() {
                *copies.entry(*fid).or_insert(0) += 1;
            }
            for (fid, pointer) in app.store().pointers() {
                if holds_live(&pointer.holder, *fid) {
                    *copies.entry(*fid).or_insert(0) += 1;
                } else {
                    report.dangling_pointers += 1;
                }
            }
        }
        for &(fid, _) in &self.files {
            let found = copies.get(&fid).copied().unwrap_or(0);
            let required = (self.cfg.past.k as usize).min(report.live_nodes);
            if found < required {
                report.under_replicated.push(UnderReplicated {
                    file_id: fid,
                    found,
                    required,
                });
            }
        }

        // Informational adversary accounting (never flips is_clean():
        // a copy on a malicious holder still satisfies replication by
        // count; the defense layer's job is to migrate it away, and the
        // benchmarks watch this counter trend to zero).
        for e in &self.entries {
            if !self.malicious.contains(&e.addr) || !self.sim.is_up(e.addr) {
                continue;
            }
            report.byzantine_nodes += 1;
            if let Some(n) = self.sim.node(e.addr) {
                report.replicas_on_malicious += n
                    .app()
                    .store()
                    .primaries()
                    .filter(|(fid, _)| self.files.iter().any(|&(f, _)| f == **fid))
                    .count();
            }
        }

        // Quota conservation at the (churn-protected) client.
        report.quota_expected = self
            .files
            .iter()
            .map(|&(_, size)| size.saturating_mul(self.cfg.past.k as u64))
            .sum();
        report.quota_used = self
            .sim
            .node(CLIENT)
            .map(|n| n.app().quota().used())
            .unwrap_or(0);
        report
    }
}
