//! Robustness: self-healing maintenance under deterministic fault
//! plans, checked by the global invariant auditor.
//!
//! The central scenario kills replica holders and then opens a network
//! partition exactly over the window in which the survivors detect the
//! failures and ship their repairs. The first transmissions die in the
//! partition; the acked retries outlive it and the k-copies invariant
//! is restored.

use past_net::{Addr, FaultPlan, SimDuration};
use past_sim::{ChurnConfig, ChurnRunner, InvariantReport, CLIENT};

fn scenario_cfg() -> ChurnConfig {
    let mut cfg = ChurnConfig {
        nodes: 30,
        files: 6,
        seed: 11,
        ..Default::default()
    };
    // A 25 s failure timeout keeps the 14 s partition (plus keep-alive
    // staleness) safely below the detection threshold: the cut must not
    // trigger spurious failure detections, whose repairs would re-create
    // the working set on each side of the cut independently.
    cfg.pastry.failure_timeout = SimDuration::from_secs(25);
    cfg
}

/// Builds the overlay, inserts the working set, and permanently kills
/// two of its replica holders. Returns the runner, the per-file holder
/// sets at kill time, and the kill timestamp.
fn build_and_kill() -> (ChurnRunner, Vec<Vec<Addr>>, past_net::SimTime) {
    let mut r = ChurnRunner::build(scenario_cfg());
    let inserted = r.insert_files();
    assert!(inserted >= 4, "only {inserted} inserts succeeded");
    assert!(
        r.audit().is_clean(),
        "pre-churn audit must be clean: {}",
        r.audit().summary()
    );
    let mut victims: Vec<Addr> = Vec::new();
    for &(fid, _) in r.files() {
        for h in r.holders_of(fid) {
            if h != CLIENT && !victims.contains(&h) {
                victims.push(h);
            }
            if victims.len() == 2 {
                break;
            }
        }
        if victims.len() == 2 {
            break;
        }
    }
    assert_eq!(victims.len(), 2, "need two non-client holders to kill");
    let holders_before: Vec<Vec<Addr>> = r.files().iter().map(|&(f, _)| r.holders_of(f)).collect();
    let t0 = r.now();
    for &v in &victims {
        r.sim_mut().remove_node(v);
    }
    (r, holders_before, t0)
}

/// Observation pass: let the repairs complete unimpeded and report
/// which nodes they re-created replicas on. Deterministic in the seed,
/// so a second run of the same scenario repairs onto the same targets.
fn observe_repair_targets() -> Vec<Addr> {
    let (mut r, before, _) = build_and_kill();
    r.run_with_faults(FaultPlan::new(), SimDuration::from_secs(60));
    let mut targets: Vec<Addr> = Vec::new();
    for (i, &(fid, _)) in r.files().iter().enumerate() {
        for h in r.holders_of(fid) {
            if !before[i].contains(&h) && !targets.contains(&h) {
                targets.push(h);
            }
        }
    }
    targets
}

/// Runs the kill + partition scenario. The partition isolates every
/// node the repairs will target — every survivor's first re-replication
/// attempt dies on the wire — over exactly the window in which the
/// failures are detected.
fn kill_and_partition() -> (ChurnRunner, InvariantReport) {
    let targets = observe_repair_targets();
    assert!(
        !targets.is_empty(),
        "repairs must re-create replicas somewhere"
    );
    let (mut r, _, t0) = build_and_kill();
    // Failure detection happens 20–30 s after the kill (failure timeout
    // 25 s, minus up to 5 s of keep-alive staleness, plus sweep phase);
    // the partition covers that window, so the repairs the detection
    // triggers are lost on the wire.
    let plan = FaultPlan::new().partition(
        t0 + SimDuration::from_secs(18),
        t0 + SimDuration::from_secs(32),
        targets,
    );
    r.run_with_faults(plan, SimDuration::from_secs(45));
    r.heal(SimDuration::from_secs(60));
    let report = r.audit();
    (r, report)
}

#[test]
fn acked_retries_restore_invariants_after_partition() {
    let (r, report) = kill_and_partition();
    assert!(
        report.under_replicated.is_empty(),
        "acked maintenance left files under-replicated: {}",
        report.summary()
    );
    assert!(report.is_clean(), "audit violations: {}", report.summary());
    assert_eq!(
        r.overlay().audit(r.files()).summary(),
        report.summary(),
        "ChurnRunner::audit is the overlay's audit of the working set"
    );
    let maint = r.maint_totals();
    assert!(
        maint.retries > 0,
        "the partition must have forced maintenance retransmissions"
    );
    assert!(
        r.net_stats().partition_dropped > 0,
        "the partition never dropped a message — scenario miscalibrated"
    );
}

#[test]
fn poisson_churn_with_acked_maintenance_keeps_files_available() {
    let mut cfg = ChurnConfig {
        nodes: 25,
        files: 5,
        seed: 5,
        ..Default::default()
    };
    // Anti-entropy sweeps give abandoned repairs a second chance during
    // sustained churn (bounded runs only — see the config docs).
    cfg.past.anti_entropy_period = SimDuration::from_secs(10);
    let mut r = ChurnRunner::build(cfg);
    let inserted = r.insert_files();
    assert!(inserted >= 3, "only {inserted} inserts succeeded");

    let plan = r.poisson_plan(
        SimDuration::from_secs(120),
        SimDuration::from_secs(15),
        SimDuration::from_secs(60),
    );
    r.run_with_faults(plan, SimDuration::from_secs(60));
    // Lookups from live nodes while churn is still settling.
    let ok = r.lookup_round(10, SimDuration::from_secs(2));
    assert!(ok > 0, "no lookup succeeded under churn");

    r.heal(SimDuration::from_secs(60));
    let report = r.audit();
    assert!(
        report.under_replicated.is_empty(),
        "churn survivors under-replicated after heal: {}",
        report.summary()
    );
    assert_eq!(
        report.quota_used,
        report.quota_expected,
        "quota not conserved: {}",
        report.summary()
    );
}
