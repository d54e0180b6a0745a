//! The churn harness: an [`Overlay`] with failure detection armed
//! (keep-alives + per-hop acks), a working set inserted from a
//! protected client node, and the [`FaultPlan`]s (crash/recover
//! schedules, partitions, message loss, Byzantine strategies) the
//! overlay is subjected to before [`Overlay::audit`] walks it.

use std::collections::BTreeSet;

use past_core::{MaintStats, PastConfig, PastEvent};
use past_id::FileId;
use past_net::{
    Addr, ByzantineBehavior, EuclideanTopology, FaultPlan, NetStats, SimDuration, SimTime,
};
use past_pastry::{NodeEntry, PastryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::overlay::{InvariantReport, Overlay};

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
    /// Number of files the client inserts before churn starts, 20 kB
    /// each.
    pub files: usize,
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
                keep_alive_period: SimDuration::from_secs(5),
                failure_timeout: SimDuration::from_secs(15),
                per_hop_acks: true,
                ..Default::default()
            },
            capacity: 40_000_000,
            files: 8,
            shards: 0,
        }
    }
}

/// Size of each file of a churn experiment's working set.
const FILE_SIZE: u64 = 20_000;

/// Drives one churn experiment: build → insert → churn → heal → audit.
pub struct ChurnRunner {
    cfg: ChurnConfig,
    overlay: Overlay,
    /// Successful, unreclaimed inserts (the audited working set).
    files: Vec<(FileId, u64)>,
    lookups_attempted: usize,
    lookups_ok: usize,
    workload_rng: StdRng,
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
        let engine = Engine::build(Box::new(topo), cfg.seed ^ 0xc4a2, cfg.shards);
        let capacities = vec![cfg.capacity; cfg.nodes];
        let overlay = Overlay::build(engine, &cfg.pastry, &cfg.past, &capacities, &mut seeder);
        let workload_rng = StdRng::seed_from_u64(cfg.seed ^ 0x90ad);
        ChurnRunner {
            cfg,
            overlay,
            files: Vec::new(),
            lookups_attempted: 0,
            lookups_ok: 0,
            workload_rng,
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
        self.overlay.start_recording(label);
    }

    /// Appends a registry snapshot stamped with the current sim time
    /// (no-op unless [`Self::enable_metrics`] was called).
    pub fn snapshot_metrics(&mut self) {
        self.overlay
            .snapshot(&[("sim.files_live", self.files.len() as i64)]);
    }

    /// Takes a final snapshot, writes `results/metrics_<label>.json`,
    /// and returns the report JSON (None if recording was off).
    pub fn finish_metrics(&mut self) -> Option<String> {
        let gauges = [("sim.files_live", self.files.len() as i64)];
        let (json, _) = self
            .overlay
            .finish_recording(self.cfg.seed, &gauges, true)?;
        Some(json)
    }

    /// The overlay under the harness: client operations, per-node folds
    /// and the auditor on any file list.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The engine the overlay runs on (for custom fault plans and
    /// inspection), whichever `cfg.shards` selected.
    pub fn sim(&self) -> &Engine {
        &self.overlay.engine
    }

    /// Mutable engine access (for scenario surgery in tests: direct
    /// kills, recoveries, extra invocations).
    pub fn sim_mut(&mut self) -> &mut Engine {
        &mut self.overlay.engine
    }

    /// Advances simulated time by `span` on whichever engine is active.
    pub fn run_for(&mut self, span: SimDuration) {
        self.overlay.engine.run_for(span);
    }

    /// Sets the global i.i.d. message-loss probability on whichever
    /// engine is active.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.overlay.engine.set_loss_probability(p);
    }

    /// Discards pending upcalls on whichever engine is active.
    pub fn discard_upcalls(&mut self) {
        self.overlay.engine.discard_upcalls();
    }

    /// The overlay's node identities.
    pub fn entries(&self) -> &[NodeEntry] {
        self.overlay.entries()
    }

    /// Live nodes currently holding a replica (primary or diverted) of
    /// `fid`.
    pub fn holders_of(&self, fid: FileId) -> Vec<Addr> {
        self.overlay.holders_of(fid)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.overlay.engine.now()
    }

    /// The audited working set: (fileId, size) of successful inserts.
    pub fn files(&self) -> &[(FileId, u64)] {
        &self.files
    }

    /// Inserts the configured working set from the client node and
    /// records the successful fileIds. Returns how many succeeded.
    pub fn insert_files(&mut self) -> usize {
        for i in 0..self.cfg.files {
            self.overlay.insert(CLIENT, &format!("churn{i}"), FILE_SIZE);
            self.overlay.engine.run_for(SimDuration::from_secs(2));
            self.files.extend(self.overlay.drain_inserted());
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
        let start = self.overlay.engine.now();
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
        self.overlay.engine.set_fault_plan(plan);
        self.overlay.engine.run_for(span);
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
            if let Some(node) = self.overlay.engine.node_mut(addr) {
                node.app_mut().set_malice(behavior);
                if behavior.drop_replicas {
                    node.app_mut().malice_drop_replicas();
                }
                self.malicious.insert(addr);
            }
        }
        if !self.malicious.is_empty() && self.malice_start.is_none() {
            self.malice_start = Some(self.overlay.engine.now());
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
        let total = self.overlay.audit_totals();
        (total.challenges, total.passed, total.failed, total.timeouts)
    }

    /// Time from switching the adversary on to the first audit
    /// conviction anywhere (None if nothing was detected yet, or no
    /// adversary was installed).
    pub fn detection_latency(&self) -> Option<SimDuration> {
        Some(self.overlay.audit_totals().first_detection? - self.malice_start?)
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
        for i in 0..count {
            let (fid, _) = self.files[i % self.files.len()];
            let mut live: Vec<Addr> = self.overlay.engine.live_addrs().collect();
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
            self.overlay.lookup(from, fid);
            self.overlay.engine.run_for(gap);
            self.lookups_attempted += 1;
            for (_, _, ev) in self.overlay.drain_upcalls() {
                if let PastEvent::LookupDone {
                    found, corrupted, ..
                } = ev
                {
                    self.corrupted_lookups += corrupted as u64;
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
        self.overlay.engine.set_fault_plan(FaultPlan::new());
        for i in 0..self.cfg.nodes {
            let addr = Addr(i as u32);
            if self.overlay.engine.node(addr).is_some() && !self.overlay.engine.is_up(addr) {
                self.overlay.engine.recover_node(addr);
            }
        }
        self.overlay.engine.run_for(settle);
        self.overlay.engine.discard_upcalls();
    }

    /// Runs in `step` increments until the replication invariant holds
    /// for every file or `max` elapses. Returns the time it took, or
    /// `None` on timeout. This is the benchmark's time-to-rereplication.
    pub fn time_to_full_replication(
        &mut self,
        step: SimDuration,
        max: SimDuration,
    ) -> Option<SimDuration> {
        let start = self.overlay.engine.now();
        loop {
            if self.audit().under_replicated.is_empty() {
                return Some(self.overlay.engine.now() - start);
            }
            if self.overlay.engine.now() - start >= max {
                return None;
            }
            self.overlay.engine.run_for(step);
            self.overlay.engine.discard_upcalls();
        }
    }

    /// Total lookups issued / found so far.
    pub fn lookup_totals(&self) -> (usize, usize) {
        (self.lookups_attempted, self.lookups_ok)
    }

    /// Network-level fault counters.
    pub fn net_stats(&self) -> NetStats {
        self.overlay.engine.stats()
    }

    /// Reliable-maintenance counters summed over every node (including
    /// currently crashed ones — their counters survive the crash).
    pub fn maint_totals(&self) -> MaintStats {
        self.overlay.maint_totals()
    }

    /// `(warm, cold)` restart counts summed over every node.
    pub fn restart_totals(&self) -> (u64, u64) {
        self.overlay.restart_totals()
    }

    /// Audits the global invariants over the working set
    /// ([`Overlay::audit`]).
    pub fn audit(&self) -> InvariantReport {
        self.overlay.audit(&self.files)
    }
}
