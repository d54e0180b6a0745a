//! The one emulated overlay under both harnesses.
//!
//! [`Overlay`] owns the [`Engine`] and the node list, and is the only
//! place outside `past-core` / `past-pastry` that constructs a node,
//! issues a client operation, drains upcalls, runs a `past-obs`
//! recording, folds per-node counters or audits the paper's global
//! storage invariants (§3.5):
//!
//! - **replication**: every audited file is backed by `min(k, live
//!   nodes)` reachable copies, where a copy is either a primary replica
//!   or a valid A→B pointer to a live diverted holder;
//! - **pointer integrity**: no dangling pointers (targets dead or no
//!   longer holding the bytes); a pointer carries its certificate in
//!   the same `past-store` record, so the two cannot come apart;
//! - **quota conservation**: the clients' ledgers charge exactly
//!   `k × size` for each audited file.
//!
//! The audit's result is a structured [`InvariantReport`], so tests and
//! `repro churn_availability` can assert on individual violations
//! instead of a boolean. [`crate::Runner`] and [`crate::ChurnRunner`]
//! add what is specific to a trace replay and to a fault schedule.

use std::collections::HashMap;

use past_core::{
    AuditStats, MaintStats, PastConfig, PastEvent, PastMsg, PastNode, PastOverlayNode, K,
};
use past_crypto::{KeyPair, Scheme};
use past_id::FileId;
use past_net::{Addr, ByzantineBehavior, SimDuration, SimTime};
use past_obs::Recorder;
use past_pastry::{AppCtx, NodeEntry, PastryConfig, PastryNode};
use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::Engine;

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
    /// Bytes the clients' quota ledgers should be charged.
    pub quota_expected: u64,
    /// Bytes the ledgers actually charge.
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

/// A built PAST overlay on either engine.
pub struct Overlay {
    /// The simulation backend: the clock, faults, node state.
    pub engine: Engine,
    entries: Vec<NodeEntry>,
    /// Reused upcall drain buffer (one allocation for the whole run
    /// instead of one per operation).
    upcalls: Vec<(SimTime, Addr, PastEvent)>,
    /// Label of the `past-obs` recording in progress, if any.
    recording: Option<String>,
}

impl Overlay {
    /// Boots one node per entry of `capacities` on `engine`, node `i` at
    /// `Addr(i)`: a key pair from `seeder`, the nodeId derived from the
    /// key, a join through a uniformly drawn earlier node. With
    /// keep-alives armed the event queue never drains, so each join
    /// settles in a bounded window (and the overlay in ten more
    /// seconds); a static overlay settles each join until idle.
    pub fn build(
        mut engine: Engine,
        pastry: &PastryConfig,
        past: &PastConfig,
        capacities: &[u64],
        seeder: &mut StdRng,
    ) -> Overlay {
        let nodes = capacities.len();
        let bounded = pastry.keep_alive_period.micros() > 0;
        // One insert fans out to ~k replicate/receipt exchanges per hop;
        // sizing the queue to the overlay keeps the binary heap from
        // repeatedly doubling (and copying every in-flight message)
        // while the first operations warm it up.
        engine.reserve_capacity(nodes.saturating_mul(8).min(1 << 20), 256);
        let mut entries = Vec::with_capacity(nodes);
        for (i, &capacity) in capacities.iter().enumerate() {
            let keys = KeyPair::generate(Scheme::Keyed, seeder);
            let entry = NodeEntry::new(past_crypto::derive_node_id(&keys.public()), Addr(i as u32));
            let app = PastNode::new(past.clone(), keys, capacity, u64::MAX / 2);
            let bootstrap = (i > 0).then(|| Addr(seeder.gen_range(0..i) as u32));
            engine.add_node(
                entry.addr,
                PastryNode::new(pastry.clone(), entry, app, bootstrap),
            );
            if bounded {
                engine.run_for(SimDuration::from_secs(1));
            } else {
                engine.run_until_idle();
            }
            entries.push(entry);
        }
        if bounded {
            engine.run_for(SimDuration::from_secs(10));
        }
        engine.discard_upcalls();
        Overlay {
            engine,
            entries,
            upcalls: Vec::with_capacity(64),
            recording: None,
        }
    }

    /// The overlay's node identities, in address order.
    pub fn entries(&self) -> &[NodeEntry] {
        &self.entries
    }

    fn client(
        &mut self,
        from: Addr,
        op: impl FnOnce(&mut PastNode, &mut AppCtx<'_, '_, PastMsg, PastEvent>),
    ) {
        self.engine
            .invoke(from, |node, ctx| node.invoke_app(ctx, op));
    }

    /// Node `from` inserts a file. Returns the client-local sequence
    /// number its `InsertDone` upcall will carry.
    pub fn insert(&mut self, from: Addr, name: &str, size: u64) -> u64 {
        let mut seq = 0;
        self.client(from, |app, ctx| seq = app.insert(ctx, name, size));
        seq
    }

    /// Node `from` looks a file up.
    pub fn lookup(&mut self, from: Addr, file_id: FileId) {
        self.client(from, |app, ctx| {
            app.lookup(ctx, file_id);
        });
    }

    /// Node `from` reclaims a file it owns.
    pub fn reclaim(&mut self, from: Addr, file_id: FileId) {
        self.client(from, |app, ctx| {
            app.reclaim(ctx, file_id);
        });
    }

    /// The upcalls emitted since the last drain, in emission order.
    pub fn drain_upcalls(&mut self) -> std::vec::Drain<'_, (SimTime, Addr, PastEvent)> {
        self.engine.drain_upcalls_into(&mut self.upcalls);
        self.upcalls.drain(..)
    }

    /// The `(fileId, size)` of each insert that completed successfully
    /// since the last drain; every other pending upcall is dropped.
    pub fn drain_inserted(&mut self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.drain_upcalls()
            .filter_map(|(_, _, event)| match event {
                PastEvent::InsertDone {
                    file_id,
                    size,
                    success: true,
                    ..
                } => Some((file_id, size)),
                _ => None,
            })
    }

    /// Starts a `past-obs` recording of whatever runs from here on.
    pub fn start_recording(&mut self, label: &str) {
        self.recording = Some(label.to_string());
        past_obs::install(Recorder::new());
    }

    /// Appends a registry snapshot stamped with the current sim time,
    /// after setting the queue-length gauge and the caller's `gauges`
    /// (no-op unless a recording is in progress).
    pub fn snapshot(&mut self, gauges: &[(&str, i64)]) {
        if self.recording.is_none() {
            return;
        }
        self.engine.sync_obs();
        past_obs::gauge("net.queue_len", self.engine.queue_len() as i64);
        for &(name, value) in gauges {
            past_obs::gauge(name, value);
        }
        let at = self.engine.now().micros();
        past_obs::with_recorder(|r| r.take_snapshot(at));
    }

    /// Takes a final snapshot and ends the recording. Returns the report
    /// JSON and the recorder (`None` if no recording was in progress).
    /// With `write` the report also goes to
    /// `results/metrics_<label>.json`; a failure to write it is a
    /// warning on stderr, since the report is returned either way.
    pub fn finish_recording(
        &mut self,
        seed: u64,
        gauges: &[(&str, i64)],
        write: bool,
    ) -> Option<(String, Recorder)> {
        self.snapshot(gauges);
        let label = self.recording.take()?;
        let rec = past_obs::uninstall()?;
        let json = rec.report_json(&label, seed);
        if write {
            if let Err(e) = crate::report::write_metrics_file(&label, &json) {
                eprintln!("warning: {e}");
            }
        }
        Some((json, rec))
    }

    /// Every node still present, crashed ones included (their counters
    /// survive the crash), in address order.
    fn nodes(&self) -> impl Iterator<Item = &PastOverlayNode> {
        self.entries.iter().filter_map(|e| self.engine.node(e.addr))
    }

    /// The nodes that are up, in address order.
    fn live(&self) -> impl Iterator<Item = (&NodeEntry, &PastOverlayNode)> {
        self.entries
            .iter()
            .filter(|e| self.engine.is_up(e.addr))
            .filter_map(|e| Some((e, self.engine.node(e.addr)?)))
    }

    /// Live nodes currently holding a replica (primary or diverted) of
    /// `file_id`.
    pub fn holders_of(&self, file_id: FileId) -> Vec<Addr> {
        self.live()
            .filter(|(_, n)| n.app().store().holds_replica(file_id))
            .map(|(e, _)| e.addr)
            .collect()
    }

    /// Reliable-maintenance counters summed over every node.
    pub fn maint_totals(&self) -> MaintStats {
        self.nodes().fold(MaintStats::default(), |mut t, n| {
            let s = n.app().maint_stats();
            t.sent += s.sent;
            t.retries += s.retries;
            t.acked += s.acked;
            t.exhausted += s.exhausted;
            t.bytes_rereplication += s.bytes_rereplication;
            t.bytes_refresh += s.bytes_refresh;
            t
        })
    }

    /// Storage-audit counters summed over every node, with the earliest
    /// moment any auditor convicted a holder.
    pub fn audit_totals(&self) -> AuditStats {
        self.nodes().fold(AuditStats::default(), |mut t, n| {
            let s = n.app().audit_stats();
            t.challenges += s.challenges;
            t.passed += s.passed;
            t.failed += s.failed;
            t.timeouts += s.timeouts;
            t.first_detection = t.first_detection.into_iter().chain(s.first_detection).min();
            t
        })
    }

    /// `(warm, cold)` restart counts summed over every node.
    pub fn restart_totals(&self) -> (u64, u64) {
        self.nodes().fold((0, 0), |(warm, cold), n| {
            let (w, c) = n.restart_counts();
            (warm + w, cold + c)
        })
    }

    /// Walks every live node and checks the global invariants over
    /// `files`, the `(fileId, size)` of the successful, unreclaimed
    /// inserts. See the module docs for what each counter means.
    pub fn audit(&self, files: &[(FileId, u64)]) -> InvariantReport {
        let mut report = InvariantReport {
            files: files.len(),
            live_nodes: self.live().count(),
            ..Default::default()
        };
        // Is `holder` alive and holding the bytes of `fid`?
        let holds_live = |holder: &NodeEntry, fid: FileId| -> bool {
            self.engine.is_up(holder.addr)
                && self
                    .engine
                    .node(holder.addr)
                    .is_some_and(|n| n.app().store().holds_replica(fid))
        };

        // Reachable copies per file: a primary replica counts directly;
        // a diverted replica counts through the A→B pointer that owns
        // it (never directly, to avoid double counting).
        let mut copies: HashMap<FileId, usize> = HashMap::new();
        for (_, node) in self.live() {
            let store = node.app().store();
            for (fid, _cert) in store.primaries() {
                *copies.entry(*fid).or_insert(0) += 1;
            }
            for (fid, pointer) in store.pointers() {
                if holds_live(&pointer.holder, *fid) {
                    *copies.entry(*fid).or_insert(0) += 1;
                } else {
                    report.dangling_pointers += 1;
                }
            }
            // Informational adversary accounting (never flips
            // is_clean(): a copy on a malicious holder still satisfies
            // replication by count; the defense layer's job is to
            // migrate it away, and the benchmarks watch this counter
            // trend to zero).
            if node.app().malice() != ByzantineBehavior::default() {
                report.byzantine_nodes += 1;
                report.replicas_on_malicious += store
                    .primaries()
                    .filter(|(fid, _)| files.iter().any(|&(f, _)| f == **fid))
                    .count();
            }
        }
        let required = K.min(report.live_nodes);
        for &(file_id, _) in files {
            let found = copies.get(&file_id).copied().unwrap_or(0);
            if found < required {
                report.under_replicated.push(UnderReplicated {
                    file_id,
                    found,
                    required,
                });
            }
        }

        // Quota conservation, over every node that may have issued an
        // insert (a node that never did charges nothing).
        report.quota_expected = files
            .iter()
            .map(|&(_, size)| size.saturating_mul(K as u64))
            .sum();
        report.quota_used = self.nodes().map(|n| n.app().quota().used()).sum();
        report
    }
}
