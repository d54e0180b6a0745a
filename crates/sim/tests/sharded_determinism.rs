//! Shard-count determinism: the same seed must produce byte-identical
//! metrics reports and identical perf counters at any shard count.
//!
//! This is the contract the sharded engine is built around (per-node
//! RNG streams, shard-invariant event keys, deterministic merge at the
//! barrier) — and the gate that lets perf numbers from `--shards 8` be
//! compared against `--shards 1` at all.

use past_net::SimDuration;
use past_sim::{ChurnConfig, ChurnRunner, ExperimentConfig, Runner, TopologyKind};
use past_workload::{Trace, WebTraceConfig};

fn trace() -> Trace {
    WebTraceConfig::default().with_unique_files(300).generate()
}

fn runner_cfg(shards: usize) -> ExperimentConfig {
    ExperimentConfig {
        nodes: 25,
        leaf_set_size: 16,
        topology: TopologyKind::Euclidean,
        seed: 2001,
        replay_lookups: true,
        shards,
        ..Default::default()
    }
}

/// Every observable a perf comparison would read: the paper-facing
/// aggregates plus the network counters (all shard-invariant by design;
/// `queue_peak` is excluded — it is documented as per-shard-summed).
fn runner_fingerprint(shards: usize) -> (String, Vec<u64>) {
    let t = trace();
    let result = Runner::build(runner_cfg(shards), &t)
        .with_metrics(&format!("sharded_det_{shards}"), 100)
        .run(&t);
    let net = result.net;
    let counters = vec![
        net.events,
        net.delivered,
        net.dropped,
        net.timers_fired,
        result.inserts.len() as u64,
        result.inserts.iter().filter(|i| i.success).count() as u64,
        result.lookups.len() as u64,
        result.lookups.iter().filter(|l| l.found).count() as u64,
        result.replicas_stored,
        result.replicas_diverted,
        result.stored_bytes,
    ];
    let mut json = result.metrics_json.expect("metrics enabled");
    // The report header embeds the label (which encodes the shard
    // count, so files don't collide); normalize it before comparing.
    json = json.replace(&format!("sharded_det_{shards}"), "sharded_det");
    (json, counters)
}

#[test]
fn trace_replay_is_shard_count_invariant() {
    let (json1, counters1) = runner_fingerprint(1);
    assert!(counters1[1] > 0, "workload must deliver messages");
    assert!(counters1[5] > 0, "workload must complete inserts");
    for shards in [2usize, 4, 8] {
        let (json, counters) = runner_fingerprint(shards);
        assert_eq!(
            counters1, counters,
            "perf counters diverged at {shards} shards"
        );
        assert_eq!(
            json1, json,
            "metrics report not byte-identical at {shards} shards"
        );
    }
}

/// The open-loop replay (the mode the perf sweep measures) must be as
/// shard-invariant as the per-op replay: injection times are absolute
/// sim times, and completions are attributed by `(client, seq)`.
#[test]
fn pipelined_replay_is_shard_count_invariant() {
    let t = trace();
    let fingerprint = |shards: usize| {
        let result =
            Runner::build(runner_cfg(shards), &t).run_pipelined(&t, SimDuration::from_millis(2));
        (
            result.net.events,
            result.net.delivered,
            result.inserts.len() as u64,
            result.inserts.iter().filter(|i| i.success).count() as u64,
            result.lookups.len() as u64,
            result.lookups.iter().filter(|l| l.found).count() as u64,
            result.replicas_stored,
            result.stored_bytes,
        )
    };
    let base = fingerprint(1);
    assert!(base.3 > 0, "pipelined replay must complete inserts");
    assert!(base.5 > 0, "pipelined replay must complete lookups");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            base,
            fingerprint(shards),
            "pipelined counters diverged at {shards} shards"
        );
    }
}

fn churn_fingerprint(shards: usize) -> (String, Vec<u64>) {
    let cfg = ChurnConfig {
        nodes: 20,
        seed: 11,
        files: 5,
        shards,
        ..Default::default()
    };
    let mut r = ChurnRunner::build(cfg);
    r.enable_metrics(&format!("sharded_churn_det_{shards}"));
    let inserted = r.insert_files();
    r.snapshot_metrics();
    let plan = r.poisson_plan(
        SimDuration::from_secs(60),
        SimDuration::from_secs(20),
        SimDuration::from_secs(120),
    );
    r.run_with_faults(plan, SimDuration::from_secs(120));
    r.lookup_round(10, SimDuration::from_secs(1));
    r.heal(SimDuration::from_secs(30));
    let audit = r.audit();
    let (attempted, ok) = r.lookup_totals();
    let net = r.net_stats();
    let mut json = r.finish_metrics().expect("metrics enabled");
    json = json.replace(&format!("sharded_churn_det_{shards}"), "sharded_churn_det");
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
    ];
    (json, counters)
}

#[test]
fn churn_run_is_shard_count_invariant() {
    let (json1, counters1) = churn_fingerprint(1);
    assert!(counters1[7] > 0, "churn must crash nodes");
    for shards in [2usize, 4, 8] {
        let (json, counters) = churn_fingerprint(shards);
        assert_eq!(
            counters1, counters,
            "churn counters diverged at {shards} shards"
        );
        assert_eq!(
            json1, json,
            "churn metrics report not byte-identical at {shards} shards"
        );
    }
}

/// One adversarial churn run with the full defense stack armed:
/// sampled audits, lookup content verification, and shunning of
/// convicted holders. Every observable the byzantine bench reads goes
/// into the fingerprint.
fn byz_fingerprint(shards: usize, fraction: f64, audits: bool) -> Vec<u64> {
    let mut cfg = ChurnConfig {
        nodes: 20,
        seed: 7,
        files: 6,
        shards,
        ..Default::default()
    };
    if audits {
        cfg.past.audit_period = SimDuration::from_secs(10);
    }
    let mut r = ChurnRunner::build(cfg);
    let inserted = r.insert_files() as u64;
    let plan = r.byzantine_plan(fraction);
    r.apply_byzantine(&plan);
    r.run_for(SimDuration::from_secs(90));
    r.discard_upcalls();
    let found = r.lookup_round(12, SimDuration::from_secs(1)) as u64;
    let audit = r.audit();
    let (challenges, passed, failed, timeouts) = r.audit_totals();
    let shunned: u64 = r
        .entries()
        .iter()
        .filter_map(|e| r.sim().node(e.addr))
        .map(|n| n.shunned().len() as u64)
        .sum();
    let detection = r.detection_latency().map(|d| d.micros()).unwrap_or(0);
    let net = r.net_stats();
    vec![
        inserted,
        found,
        r.corrupted_lookups(),
        challenges,
        passed,
        failed,
        timeouts,
        detection,
        shunned,
        net.events,
        net.delivered,
        net.timers_fired,
        audit.live_nodes as u64,
        audit.byzantine_nodes as u64,
        audit.replicas_on_malicious as u64,
    ]
}

/// Adversarial regression: a fixed-seed byzantine run (20% malicious,
/// audits + verification + demotion all armed) must produce identical
/// observables on the legacy engine and at every shard count. The
/// defense layer draws no engine randomness (audit nonces and holder
/// sampling are hash-derived), so this must hold exactly.
#[test]
fn byzantine_run_is_shard_count_invariant() {
    let base = byz_fingerprint(0, 0.2, true);
    assert!(base[3] > 0, "audits must issue challenges");
    assert!(base[5] + base[6] > 0, "the adversary must be detected");
    for shards in [1usize, 2, 4] {
        assert_eq!(
            base,
            byz_fingerprint(shards, 0.2, true),
            "byzantine run diverged at {shards} shards"
        );
    }
}

/// With the adversary fraction at zero and every defense knob off, the
/// byzantine plumbing must be completely inert: the sharded run stays
/// byte-identical to the legacy engine.
#[test]
fn byzantine_off_run_matches_legacy_engine() {
    let base = byz_fingerprint(0, 0.0, false);
    assert_eq!(base[2], 0, "no adversary, no corrupted lookups");
    assert_eq!(base[3], 0, "audits off, no challenges");
    for shards in [1usize, 2] {
        assert_eq!(
            base,
            byz_fingerprint(shards, 0.0, false),
            "defense-off run diverged from legacy at {shards} shards"
        );
    }
}

/// The gated trace workloads (certificate verification off, randomized
/// routing off, no loss/jitter) consume no simulator randomness, so the
/// sharded engine's per-node RNG streams are behaviorally inert there —
/// and its results must agree with the legacy engine's paper-facing
/// aggregates exactly.
#[test]
fn sharded_engine_matches_legacy_on_gated_trace_workload() {
    let t = trace();
    let legacy = Runner::build(runner_cfg(0), &t).run(&t);
    let sharded = Runner::build(runner_cfg(1), &t).run(&t);
    assert_eq!(legacy.inserts.len(), sharded.inserts.len());
    assert_eq!(
        legacy.inserts.iter().filter(|i| i.success).count(),
        sharded.inserts.iter().filter(|i| i.success).count()
    );
    assert_eq!(legacy.lookups.len(), sharded.lookups.len());
    assert_eq!(
        legacy.lookups.iter().filter(|l| l.found).count(),
        sharded.lookups.iter().filter(|l| l.found).count()
    );
    assert_eq!(legacy.replicas_stored, sharded.replicas_stored);
    assert_eq!(legacy.stored_bytes, sharded.stored_bytes);
    assert_eq!(legacy.net.delivered, sharded.net.delivered);
    assert_eq!(legacy.net.events, sharded.net.events);
}
