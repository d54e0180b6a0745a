//! End-to-end Byzantine defense: sampled audits detect misbehaving
//! replica holders, demote and shun them, and the maintenance plane
//! re-replicates the working set onto honest nodes.
//!
//! The adversary mix comes from `ChurnRunner::byzantine_plan`: content
//! corrupters, replica droppers, ack-then-discarders and free-space
//! liars, all switched on mid-run against an overlay built with the
//! full defense stack (periodic audits, lookup content verification,
//! shunning of convicted holders).

use past_net::SimDuration;
use past_sim::{ChurnConfig, ChurnRunner};

fn defended_cfg(seed: u64, nodes: usize, audits: bool) -> ChurnConfig {
    let mut cfg = ChurnConfig {
        nodes,
        seed,
        files: 6,
        ..Default::default()
    };
    if audits {
        cfg.past.audit_period = SimDuration::from_secs(10);
    }
    cfg
}

/// The full defense loop: a 20% adversary is detected by the sampled
/// audits, convicted holders get shunned, and the working set is
/// re-replicated back to full strength on honest nodes.
#[test]
fn audits_detect_demote_and_rereplicate() {
    let mut r = ChurnRunner::build(defended_cfg(9, 20, true));
    let inserted = r.insert_files();
    assert!(inserted >= 4, "only {inserted} inserts succeeded");
    assert!(r.audit().is_clean(), "pre-adversary audit must be clean");

    let plan = r.byzantine_plan(0.2);
    r.apply_byzantine(&plan);
    assert!(
        r.malicious().len() >= 3,
        "20% of 19 nodes must convert several adversaries"
    );
    // The droppers discarded their copies on the spot: the working set
    // is under-replicated until the defense notices and repairs.
    assert!(
        !r.audit().under_replicated.is_empty(),
        "replica droppers must leave a visible hole"
    );

    r.run_for(SimDuration::from_secs(120));
    r.discard_upcalls();

    let (challenges, _passed, failed, timeouts) = r.audit_totals();
    assert!(challenges > 0, "audit sweeps must issue challenges");
    assert!(
        failed + timeouts > 0,
        "the adversary must be convicted by at least one audit"
    );
    let latency = r
        .detection_latency()
        .expect("a conviction implies a detection timestamp");
    assert!(
        latency <= SimDuration::from_secs(120),
        "detection must happen inside the run window"
    );
    let shunned: usize = r
        .entries()
        .iter()
        .filter_map(|e| r.sim().node(e.addr))
        .map(|n| n.shunned().len())
        .sum();
    assert!(shunned > 0, "convictions must shun the guilty holders");

    // Re-replication: the audit-triggered repairs restore min(k, live)
    // reachable copies for every file.
    let healed = r.time_to_full_replication(SimDuration::from_secs(10), SimDuration::from_secs(300));
    assert!(
        healed.is_some(),
        "working set never returned to full replication: {}",
        r.audit().summary()
    );
}

/// Acceptance: at 10% malicious, the defended overlay answers lookups
/// with strictly less residual corruption than the undefended one on
/// the same seed — and (small overlay, leaf-set routing) with none.
#[test]
fn audits_reduce_residual_corruption() {
    let run = |audits: bool| {
        let mut r = ChurnRunner::build(defended_cfg(39, 16, audits));
        let inserted = r.insert_files();
        assert!(inserted >= 4, "only {inserted} inserts succeeded");
        let plan = r.byzantine_plan(0.10);
        r.apply_byzantine(&plan);
        assert!(!r.malicious().is_empty(), "10% must convert someone");
        r.run_for(SimDuration::from_secs(60));
        r.discard_upcalls();
        r.lookup_round(24, SimDuration::from_secs(1));
        r.corrupted_lookups()
    };
    let undefended = run(false);
    let defended = run(true);
    assert!(
        undefended > 0,
        "the corrupter must fool at least one undefended lookup"
    );
    assert_eq!(
        defended, 0,
        "verify-and-retry plus shunning must filter every corrupted answer"
    );
}

/// RNG-stream neutrality: audit scheduling, nonce derivation and holder
/// sampling are all hash-derived, so switching audits on in an honest
/// overlay must not shift any per-node RNG stream. Randomized routing
/// makes the streams observable — every routing decision draws from
/// them — so identical placements and lookup outcomes across the two
/// runs prove the audits consumed nothing.
#[test]
fn audits_never_perturb_the_rng_stream() {
    let fingerprint = |audit_period: SimDuration| {
        let mut cfg = defended_cfg(21, 18, false);
        cfg.past.audit_period = audit_period;
        cfg.pastry.randomized_routing = true;
        let mut r = ChurnRunner::build(cfg);
        let inserted = r.insert_files();
        r.run_for(SimDuration::from_secs(60));
        r.discard_upcalls();
        let found = r.lookup_round(12, SimDuration::from_secs(1));
        let holders: Vec<Vec<past_net::Addr>> =
            r.files().iter().map(|&(f, _)| r.holders_of(f)).collect();
        let report = r.audit();
        (
            inserted,
            found,
            holders,
            report.quota_used,
            report.under_replicated.len(),
        )
    };
    let audits_off = fingerprint(SimDuration::ZERO);
    let audits_on = fingerprint(SimDuration::from_secs(10));
    assert_eq!(
        audits_off, audits_on,
        "audits must be invisible to the randomized-routing RNG streams"
    );
}
