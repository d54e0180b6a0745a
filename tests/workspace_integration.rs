//! Workspace-level integration tests: exercise the full stack through
//! the `past` facade — smartcard identities, the Pastry overlay, PAST
//! storage management, caching and quotas together, plus a smoke of
//! the churn, sharded and flash-crowd planes.

use past::core::{PastConfig, PastEvent, PastNode, PastOverlayNode, K};
use past::crypto::{CardIssuer, Scheme};
use past::net::{Addr, EuclideanTopology, SimDuration, Simulator};
use past::pastry::{NodeEntry, PastryConfig, PastryNode};
use past::sim::{
    run_experiment, ChurnConfig, ChurnRunner, Engine, ExperimentConfig, Overlay, Runner,
    TopologyKind, CLIENT,
};
use past::store::CachePolicyKind;
use past::workload::{FlashCrowdConfig, WebTraceConfig, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an overlay whose node identities come from issuer-signed
/// smartcards, verifying each certificate as the paper's security model
/// prescribes.
fn build_card_overlay(
    nodes: usize,
    seed: u64,
) -> (Simulator<PastOverlayNode>, Vec<NodeEntry>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let issuer = CardIssuer::new(Scheme::Keyed, &mut rng);
    let topology = EuclideanTopology::random(nodes, &mut rng);
    let mut sim: Simulator<PastOverlayNode> = Simulator::new(Box::new(topology), seed);
    let pastry_cfg = PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::ZERO,
        ..Default::default()
    };
    let past_cfg = PastConfig {
        verify_certificates: true,
        ..Default::default()
    };
    let mut entries = Vec::new();
    for i in 0..nodes {
        let card = issuer.issue_card(1 << 30, &mut rng);
        // Every node verifies its card against the issuer key before
        // joining — a forged nodeId can never enter the overlay.
        card.node_id_cert()
            .verify(&issuer.public())
            .expect("issuer-signed card");
        let id = card.node_id();
        let addr = Addr(i as u32);
        let entry = NodeEntry::new(id, addr);
        let app = PastNode::new(
            past_cfg.clone(),
            card.keypair().clone(),
            100 << 20,
            1 << 30,
        );
        let bootstrap = (i > 0).then(|| Addr(rng.gen_range(0..i) as u32));
        sim.add_node(addr, PastryNode::new(pastry_cfg.clone(), entry, app, bootstrap));
        sim.run_until_idle();
        entries.push(entry);
    }
    (sim, entries)
}

#[test]
fn smartcard_identities_insert_and_lookup_with_verification() {
    let (mut sim, _) = build_card_overlay(30, 401);
    // verify_certificates = true: every storage node checks the file
    // certificate signature, every receipt is verified by the client.
    sim.invoke(Addr(2), |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.insert(actx, "verified.doc", 64 << 10);
        });
    });
    sim.run_until_idle();
    let mut fid = None;
    for (_, _, e) in sim.drain_upcalls() {
        if let PastEvent::InsertDone {
            file_id, success, ..
        } = e
        {
            assert!(success, "verified insert failed");
            fid = Some(file_id);
        }
    }
    let fid = fid.expect("insert completed");
    sim.invoke(Addr(17), move |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.lookup(actx, fid);
        });
    });
    sim.run_until_idle();
    let found = sim.drain_upcalls().iter().any(|(_, _, e)| {
        matches!(e, PastEvent::LookupDone { found: true, .. })
    });
    assert!(found);
}

#[test]
fn quota_debits_and_refunds_across_the_stack() {
    let (mut sim, _) = build_card_overlay(25, 402);
    let k = 5u64;
    let size = 10_000u64;
    sim.invoke(Addr(1), move |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.insert(actx, "quota-file", size);
        });
    });
    sim.run_until_idle();
    let mut fid = None;
    for (_, _, e) in sim.drain_upcalls() {
        if let PastEvent::InsertDone { file_id, .. } = e {
            fid = Some(file_id);
        }
    }
    assert_eq!(
        sim.node(Addr(1)).unwrap().app().quota().used(),
        k * size,
        "insert debits size x k"
    );
    let fid = fid.unwrap();
    sim.invoke(Addr(1), move |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.reclaim(actx, fid);
        });
    });
    sim.run_until_idle();
    sim.drain_upcalls();
    assert_eq!(
        sim.node(Addr(1)).unwrap().app().quota().used(),
        0,
        "reclaim refunds the quota"
    );
}

#[test]
fn only_the_owner_can_reclaim() {
    let (mut sim, _) = build_card_overlay(25, 403);
    sim.invoke(Addr(1), |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.insert(actx, "mine.txt", 5_000);
        });
    });
    sim.run_until_idle();
    let mut fid = None;
    for (_, _, e) in sim.drain_upcalls() {
        if let PastEvent::InsertDone { file_id, .. } = e {
            fid = Some(file_id);
        }
    }
    let fid = fid.unwrap();
    // A different node (different smartcard) tries to reclaim.
    sim.invoke(Addr(9), move |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.reclaim(actx, fid);
        });
    });
    sim.run_until_idle();
    let rejected = sim
        .drain_upcalls()
        .iter()
        .any(|(_, _, e)| matches!(e, PastEvent::ReclaimDone { ok: false, .. }));
    assert!(rejected, "foreign reclaim must be rejected");
    // The file is still there.
    sim.invoke(Addr(12), move |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            app.lookup(actx, fid);
        });
    });
    sim.run_until_idle();
    let found = sim
        .drain_upcalls()
        .iter()
        .any(|(_, _, e)| matches!(e, PastEvent::LookupDone { found: true, .. }));
    assert!(found);
}

#[test]
fn end_to_end_experiment_reaches_high_utilization() {
    // A miniature version of the paper's headline result through the
    // public experiment API.
    let trace = WebTraceConfig::default()
        .with_unique_files(16_600) // ~830 files/node at 20 nodes
        .generate();
    let cfg = ExperimentConfig {
        nodes: 20,
        leaf_set_size: 16,
        ..Default::default()
    };
    let result = run_experiment(cfg, &trace);
    assert!(result.final_utilization() > 0.80);
    assert!(result.success_ratio() > 0.90);
}

#[test]
fn crashed_holders_are_repaired_and_quota_stays_exact() {
    // The churn plane: crash two replica holders, let the survivors
    // detect it (15 s failure timeout) and re-replicate, bring the
    // crashed nodes back, and audit the §3.5 invariants globally.
    let mut r = ChurnRunner::build(ChurnConfig {
        nodes: 20,
        files: 6,
        seed: 406,
        ..Default::default()
    });
    assert_eq!(r.insert_files(), 6);
    let (first, _) = r.files()[0];
    let victims: Vec<Addr> = r
        .holders_of(first)
        .into_iter()
        .filter(|&a| a != CLIENT)
        .take(2)
        .collect();
    assert_eq!(victims.len(), 2);
    for &v in &victims {
        r.sim_mut().fail_node(v);
    }
    r.run_for(SimDuration::from_secs(60));
    r.heal(SimDuration::from_secs(60));
    let report = r.audit();
    assert!(
        report.under_replicated.is_empty(),
        "k copies of every file after heal: {}",
        report.summary()
    );
    assert_eq!(report.quota_used, report.quota_expected);
    assert_eq!(report.files, 6);
}

#[test]
fn static_overlay_audits_clean_after_a_trace_replay() {
    // The §3.5 auditor on a trace replay instead of the churn plane's
    // fixed file list: every node of a static overlay inserts and looks
    // up web-trace files, closed loop, until the disks are full enough
    // that replicas are diverted and inserts fail.
    let nodes = 40;
    let trace = WebTraceConfig::default().with_unique_files(3_000).generate();
    let cfg = ExperimentConfig {
        nodes,
        leaf_set_size: 16,
        cache_policy: CachePolicyKind::GreedyDualSize,
        ..Default::default()
    };
    // Uniform disks that together hold half the trace's k replicas.
    let capacity = trace.total_bytes() * K as u64 / (2 * nodes as u64);
    let mut rng = StdRng::seed_from_u64(22);
    let topology = EuclideanTopology::random(nodes, &mut rng);
    let mut overlay = Overlay::build(
        Engine::build(Box::new(topology), 22, 0),
        &cfg.pastry_config(),
        &cfg.past_config(),
        &vec![capacity; nodes],
        &mut rng,
    );
    let mut stored = vec![None; trace.unique_files()];
    for op in trace.ops_iter() {
        let from = Addr(u32::from(op.client) % nodes as u32);
        if op.is_insert {
            overlay.insert(from, &trace.file_name(op.file), trace.file_size(op.file));
        } else if let Some((fid, _)) = stored[op.file as usize] {
            overlay.lookup(from, fid);
        }
        overlay.engine.run_until_idle();
        if let Some(done) = overlay.drain_inserted().next() {
            stored[op.file as usize] = Some(done);
        }
    }
    let files: Vec<_> = stored.into_iter().flatten().collect();
    let stores = || {
        let nodes = overlay.entries().iter();
        nodes.map(|e| overlay.engine.node(e.addr).expect("built").app().store())
    };
    let pointers: usize = stores().map(|s| s.pointer_count()).sum();
    let cached: u64 = stores().map(|s| s.cache().used()).sum();
    assert!(
        files.len() < trace.unique_files() && pointers > 0 && cached > 0,
        "the replay must fill disks and caches: {} of {} inserted, {pointers} diverted, {cached} B cached",
        files.len(),
        trace.unique_files()
    );

    let report = overlay.audit(&files);
    assert_eq!(report.dangling_pointers, 0, "{}", report.summary());
    assert!(report.under_replicated.is_empty(), "{}", report.summary());
    assert_eq!(report.quota_used, report.quota_expected, "{}", report.summary());
    for store in stores() {
        assert!(store.replica_used() <= store.capacity());
        assert!(store.cache().used() <= store.free(), "cache exceeds the unused space");
    }
}

#[test]
fn replay_counters_are_equal_at_one_and_two_shards() {
    // The sharded plane: same seed, same trace, same counters at any
    // shard count.
    let trace = WebTraceConfig::default().with_unique_files(400).generate();
    let counters = |shards: usize| {
        let r = run_experiment(
            ExperimentConfig {
                nodes: 24,
                leaf_set_size: 16,
                replay_lookups: true,
                shards,
                ..Default::default()
            },
            &trace,
        );
        (
            (r.inserts_total, r.inserts_ok, r.lookups_total, r.lookups_ok),
            (r.replicas_stored, r.replicas_diverted, r.stored_bytes),
            (r.net.events, r.net.delivered, r.net.timers_fired),
        )
    };
    let one = counters(1);
    assert!(one.0 .1 > 0 && one.0 .3 > 0, "replay did work: {one:?}");
    assert_eq!(one, counters(2));
}

#[test]
fn cache_policy_none_matches_store_accounting() {
    let trace = WebTraceConfig::default().with_unique_files(600).generate();
    let cfg = ExperimentConfig {
        nodes: 40,
        leaf_set_size: 16,
        cache_policy: CachePolicyKind::None,
        replay_lookups: true,
        ..Default::default()
    };
    let result = run_experiment(cfg, &trace);
    assert!(result.lookups.iter().all(|l| !l.cache_hit));
    assert!(result.lookups.iter().filter(|l| l.found).count() > 0);
}

#[test]
fn flash_crowd_is_absorbed_by_route_through_caching() {
    // The flash-crowd plane, one cell of `repro flash_crowd` with and
    // without caches: half-way through an open-loop replay four cold
    // files take half the lookups, and the windowed series say where
    // they were served.
    let wl = FlashCrowdConfig::default().with_unique_files(600);
    let trace = wl.stream();
    let gap = SimDuration::from_millis(2);
    let run = |cache_policy| {
        let cfg = ExperimentConfig {
            nodes: 60,
            cache_policy,
            replay_lookups: true,
            topology: TopologyKind::Clustered { clusters: 8 },
            seed: 0xf1a5,
            obs_window: SimDuration::from_secs(1),
            ..Default::default()
        };
        let r = Runner::build(cfg, &trace)
            .with_metrics_quiet("flash_crowd_smoke", usize::MAX)
            .run_pipelined(&trace, gap);
        let series = r.windows.as_ref().expect("obs_window is set");
        let total = |name: &str| {
            series
                .counters
                .get(name)
                .map_or(0, |w| w.values().sum::<u64>())
        };
        assert_eq!(total("past.win.lookup"), r.lookups_ok);
        assert!(r.lookups_ok > 0, "the replay looked files up");
        let flip_us = r.replay_start_us + wl.flip_index() as u64 * gap.micros();
        let hot_node_peak = series.node_stats["past.win.served"]
            .range(flip_us / series.width_us..)
            .map(|(_, served)| served.max)
            .max()
            .expect("windows after the flip");
        (hot_node_peak, total("past.win.lookup.cached"))
    };
    let (gds_peak, gds_cached) = run(CachePolicyKind::GreedyDualSize);
    let (none_peak, none_cached) = run(CachePolicyKind::None);
    assert!(gds_cached > 0, "GD-S caches answered lookups");
    assert_eq!(none_cached, 0, "no cache, no cache hit");
    assert!(
        gds_peak < none_peak,
        "the hot node serves less with route-through caching: {gds_peak} vs {none_peak}"
    );
}
