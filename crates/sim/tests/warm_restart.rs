//! Warm-restart integration tests.
//!
//! Four contracts from the warm-restart work:
//!
//! - **only a crash arms a warm restart**: a recovery rebuilds from the
//!   kept state only if the node crashed since its last recovery;
//!   otherwise it rejoins cold.
//! - **over-replication reconciles**: a holder that rejoins after its
//!   replica was re-created elsewhere briefly yields k+1 copies; the
//!   advertise/`MigrationDone` reconciliation must deterministically
//!   drop the surplus back to k.
//! - **warm off stays deterministic**: with `warm_restart` off the same
//!   seed must reproduce the run exactly (byte-identical metrics), and
//!   no warm-restart machinery may fire.
//! - **engine parity**: a churn run with warm restarts on must produce
//!   identical results on the legacy engine and at any shard count.

use past_net::{Addr, FaultPlan, SimDuration};
use past_sim::{ChurnConfig, ChurnRunner};

fn warm_cfg(seed: u64, warm: bool, shards: usize) -> ChurnConfig {
    let mut cfg = ChurnConfig {
        nodes: 24,
        seed,
        files: 6,
        shards,
        ..Default::default()
    };
    // Arm the anti-entropy sweep: reconciliation rides on it.
    cfg.past.anti_entropy_period = SimDuration::from_secs(10);
    cfg.pastry.warm_restart = warm;
    cfg
}

/// With `warm_restart` on, recovering a node that has not crashed since
/// its last recovery rejoins cold; a crash followed by a recovery
/// rebuilds warm, once.
#[test]
fn only_a_crash_arms_a_warm_restart() {
    let mut r = ChurnRunner::build(warm_cfg(3, true, 0));
    let node = Addr(1);
    assert_eq!(r.restart_totals(), (0, 0));
    r.sim_mut().recover_node(node);
    assert_eq!(r.restart_totals(), (0, 1), "no crash since last recovery");
    r.sim_mut().fail_node(node);
    r.run_for(SimDuration::from_secs(5));
    r.sim_mut().recover_node(node);
    assert_eq!(r.restart_totals(), (1, 1), "a crash, then a recovery");
    r.sim_mut().recover_node(node);
    assert_eq!(r.restart_totals(), (1, 2), "one crash, one warm restart");
}

/// Satellite regression: crash one replica holder long enough for the
/// survivors to re-create its copy (k restored among the living), then
/// let it rejoin warm. Its disk still holds the replica, so the overlay
/// briefly has k+1 copies; the advertise-then-`MigrationDone`
/// reconciliation must drop the surplus holder and settle back on
/// exactly k.
#[test]
fn recovered_holder_reconciles_over_replication() {
    let k = 5;
    let mut r = ChurnRunner::build(warm_cfg(42, true, 0));
    assert!(r.insert_files() > 0, "insert failed");
    let (fid, _) = r.files()[0];
    let holders = r.holders_of(fid);
    assert_eq!(holders.len(), k, "expected k initial holders");

    // Crash a non-client holder for 60 s: well past the 15 s failure
    // detector, so the survivors notice and re-replicate.
    let victim = *holders
        .iter()
        .find(|a| a.0 != 0)
        .expect("a non-client holder");
    let t = r.now();
    let plan = FaultPlan::new().restart_at(
        t + SimDuration::from_secs(1),
        victim,
        SimDuration::from_secs(60),
    );
    r.run_with_faults(plan, SimDuration::from_secs(45));

    // While the victim is down, the invariant is restored among the
    // survivors: k live copies, none of them the victim.
    let during = r.holders_of(fid);
    assert!(!during.contains(&victim), "victim must be down");
    assert_eq!(
        during.len(),
        k,
        "failure repair must restore k live copies"
    );

    // The victim recovers at t+61 s (the plan stays installed across
    // run_for); give the sweeps time to reconcile the k+1-th copy.
    r.run_for(SimDuration::from_secs(120));
    let after = r.holders_of(fid);
    assert_eq!(
        after.len(),
        k,
        "over-replication must reconcile back to k copies (got {:?})",
        after
    );
    let report = r.audit();
    assert!(
        report.under_replicated.is_empty(),
        "reconciliation must not drop below k: {:?}",
        report.under_replicated
    );
}

fn churn_outcome(seed: u64, warm: bool, shards: usize, label: &str) -> (String, Vec<u64>) {
    let mut r = ChurnRunner::build(warm_cfg(seed, warm, shards));
    r.enable_metrics(label);
    let inserted = r.insert_files();
    r.snapshot_metrics();
    let plan = r.poisson_plan(
        SimDuration::from_secs(60),
        SimDuration::from_secs(20),
        SimDuration::from_secs(120),
    );
    r.run_with_faults(plan, SimDuration::from_secs(60));
    r.lookup_round(10, SimDuration::from_secs(1));
    r.run_for(SimDuration::from_secs(60));
    r.heal(SimDuration::from_secs(30));
    let audit = r.audit();
    let (attempted, ok) = r.lookup_totals();
    let net = r.net_stats();
    let maint = r.maint_totals();
    let (restarts_warm, restarts_cold) = r.restart_totals();
    let json = r.finish_metrics().expect("metrics enabled");
    let counters = vec![
        inserted as u64,
        attempted as u64,
        ok as u64,
        net.events,
        net.delivered,
        net.dropped,
        net.timers_fired,
        net.crashes,
        net.recoveries,
        audit.live_nodes as u64,
        audit.under_replicated.len() as u64,
        audit.quota_used,
        maint.sent,
        maint.bytes_rereplication,
        maint.bytes_refresh,
        restarts_warm,
        restarts_cold,
    ];
    (json, counters)
}

/// With `warm_restart` off, the same seed reproduces the run exactly —
/// byte-identical metrics report, identical counters — and the warm
/// machinery stays inert (no warm restarts, no snapshot traffic).
#[test]
fn warm_off_runs_are_byte_identical() {
    let (json1, counters1) = churn_outcome(9, false, 0, "warm_off_det");
    let (json2, counters2) = churn_outcome(9, false, 0, "warm_off_det");
    assert_eq!(counters1, counters2, "warm-off run not deterministic");
    assert_eq!(json1, json2, "warm-off metrics not byte-identical");
    let restarts_warm = counters1[15];
    let restarts_cold = counters1[16];
    assert_eq!(restarts_warm, 0, "no warm restarts with the knob off");
    assert!(restarts_cold > 0, "churn must restart nodes");
}

/// A churn run with warm restarts on must be engine-independent: the
/// legacy single-threaded engine and the sharded engine at any shard
/// count produce identical counters and byte-identical metrics.
#[test]
fn warm_churn_matches_across_engines_and_shard_counts() {
    let (json0, counters0) = churn_outcome(7, true, 0, "warm_parity");
    let restarts_warm = counters0[15];
    assert!(restarts_warm > 0, "churn must warm-restart nodes");
    for shards in [1usize, 2, 4, 8] {
        let (json, counters) = churn_outcome(7, true, shards, "warm_parity");
        assert_eq!(
            counters0, counters,
            "warm churn counters diverged at {shards} shards"
        );
        assert_eq!(
            json0, json,
            "warm churn metrics not byte-identical at {shards} shards"
        );
    }
}
