//! Reliable maintenance under message loss: inserts and lookups issued
//! over a lossy network eventually succeed thanks to client timeouts
//! (re-salt retries), per-hop routing retransmissions, and the acked
//! maintenance plane — and the retry counters reflect the work done.

use past_core::{PastConfig, PastEvent, PastNode, PastOverlayNode};
use past_crypto::{KeyPair, Scheme};
use past_id::FileId;
use past_net::{Addr, EuclideanTopology, SimDuration, Simulator};
use past_pastry::{NodeEntry, PastryConfig, PastryNode};
use past_store::CachePolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(n: usize, seed: u64) -> (Simulator<PastOverlayNode>, Vec<NodeEntry>) {
    let past_cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        // Arm the client timeout so lost replies surface as retries
        // instead of hung operations.
        client_timeout: SimDuration::from_secs(5),
        ..Default::default()
    };
    let pastry_cfg = PastryConfig {
        leaf_set_size: 16,
        // Keep-alives stay off (the queue must drain), but per-hop acks
        // retransmit routed messages the lossy network eats.
        keep_alive_period: SimDuration::ZERO,
        per_hop_acks: true,
        ..Default::default()
    };
    let mut seeder = StdRng::seed_from_u64(seed);
    let topo = EuclideanTopology::random(n, &mut seeder);
    let mut sim: Simulator<PastOverlayNode> = Simulator::new(Box::new(topo), seed ^ 0x1055);
    let mut entries = Vec::new();
    for i in 0..n {
        let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
        let id = past_crypto::derive_node_id(&keys.public());
        let addr = Addr(i as u32);
        let entry = NodeEntry::new(id, addr);
        let app = PastNode::new(past_cfg.clone(), keys, 40_000_000, u64::MAX / 2);
        let bootstrap = if i == 0 {
            None
        } else {
            Some(Addr(seeder.gen_range(0..i) as u32))
        };
        sim.add_node(addr, PastryNode::new(pastry_cfg.clone(), entry, app, bootstrap));
        sim.run_until_idle();
        entries.push(entry);
    }
    sim.drain_upcalls();
    (sim, entries)
}

#[test]
fn inserts_and_lookups_survive_twenty_percent_loss() {
    let (mut sim, entries) = build(25, 42);
    // The overlay is built loss-free; the workload runs over a network
    // that drops one message in five.
    sim.set_loss_probability(0.2);

    // A single insert attempt needs ~2k+2 consecutive direct messages
    // to survive, so at 20% loss most protocol-level attempts fail; the
    // client timeout turns each failure into a clean retry. Each file
    // is re-submitted until it sticks.
    let mut stored: Vec<FileId> = Vec::new();
    let total = 6;
    let mut submissions = 0u32;
    for i in 0..total {
        let mut done = None;
        for round in 0..12 {
            let name = format!("lossy{i}.{round}");
            submissions += 1;
            sim.invoke(Addr(0), move |node, ctx| {
                node.invoke_app(ctx, |app, actx| {
                    app.insert(actx, &name, 20_000);
                });
            });
            sim.run_until_idle();
            for (_, _, ev) in sim.drain_upcalls() {
                if let PastEvent::InsertDone {
                    file_id,
                    success: true,
                    ..
                } = ev
                {
                    done = Some(file_id);
                }
            }
            if done.is_some() {
                break;
            }
        }
        let fid = done.unwrap_or_else(|| panic!("file {i} never inserted under 20% loss"));
        stored.push(fid);
    }
    assert!(
        submissions > total,
        "every insert succeeded first try — loss never bit"
    );

    // Lookups retry from different access points until the file is
    // found (a lost reply shows up as `found: false` after the client
    // timeout).
    let mut rng = StdRng::seed_from_u64(7);
    for &fid in &stored {
        let mut found = false;
        for _ in 0..6 {
            let from = entries[rng.gen_range(0..entries.len())].addr;
            sim.invoke(from, move |node, ctx| {
                node.invoke_app(ctx, |app, actx| {
                    app.lookup(actx, fid);
                });
            });
            sim.run_until_idle();
            found = sim.drain_upcalls().iter().any(|(_, _, ev)| {
                matches!(ev, PastEvent::LookupDone { found: true, .. })
            });
            if found {
                break;
            }
        }
        assert!(found, "file {fid} unreachable despite retries");
    }

    // The loss actually happened, and the recovery machinery carried
    // real traffic: the network dropped messages and the maintenance
    // plane retransmitted.
    assert!(sim.stats().lost > 0, "no message was ever lost at 20%");
    let maint_retries: u64 = entries
        .iter()
        .filter_map(|e| sim.node(e.addr))
        .map(|n| n.app().maint_stats().retries)
        .sum();
    assert!(
        maint_retries > 0,
        "20% loss must force maintenance retransmissions"
    );
    let maint_acked: u64 = entries
        .iter()
        .filter_map(|e| sim.node(e.addr))
        .map(|n| n.app().maint_stats().acked)
        .sum();
    assert!(maint_acked > 0, "maintenance acks never arrived");
}
