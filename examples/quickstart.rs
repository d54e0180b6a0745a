//! Quickstart: build a small PAST overlay, insert a file, look it up
//! from another node, then reclaim it — all through
//! [`past::sim::Overlay`], the harness every experiment runs on.
//!
//! Run with: `cargo run --release --example quickstart`

use past::core::{PastConfig, PastEvent};
use past::net::{Addr, EuclideanTopology, SimDuration};
use past::pastry::PastryConfig;
use past::sim::{Engine, Overlay};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let nodes = 50;
    let mut rng = StdRng::seed_from_u64(7);

    // 1. An emulated network: nodes scattered in a unit square, message
    //    latency proportional to distance.
    let topology = EuclideanTopology::random(nodes, &mut rng);
    let engine = Engine::build(Box::new(topology), 7, 0);

    // 2. Boot the overlay: every node gets a key pair, derives its
    //    nodeId from the key (so it cannot choose its position), and
    //    joins via an existing contact.
    let pastry_cfg = PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::ZERO, // static demo network
        ..Default::default()
    };
    let past_cfg = PastConfig::default(); // k = 5, t_pri = 0.1, t_div = 0.05, GD-S cache
    println!("booting a {nodes}-node PAST overlay ...");
    let capacities = vec![100 << 20; nodes];
    let mut overlay = Overlay::build(engine, &pastry_cfg, &past_cfg, &capacities, &mut rng);
    println!(
        "overlay ready ({} messages exchanged)\n",
        overlay.engine.stats().delivered
    );

    // 3. Insert a file from node 3. The fileId is the SHA-1 of
    //    (name, owner key, salt); k = 5 replicas land on the nodes with
    //    the numerically closest nodeIds.
    overlay.insert(Addr(3), "vacation-photos.tar", 4 << 20);
    overlay.engine.run_until_idle();
    let mut file_id = None;
    for (_, _, event) in overlay.drain_upcalls() {
        if let PastEvent::InsertDone {
            file_id: fid,
            success,
            attempts,
            ..
        } = event
        {
            println!("insert: success={success} attempts={attempts} fileId={fid}");
            file_id = success.then_some(fid);
        }
    }
    let file_id = file_id.expect("insert succeeded");

    // 4. Look the file up from a distant node; Pastry routes toward the
    //    fileId and the first node holding a copy answers.
    overlay.lookup(Addr(42), file_id);
    overlay.engine.run_until_idle();
    let mut looked_up = false;
    for (_, _, event) in overlay.drain_upcalls() {
        if let PastEvent::LookupDone {
            found, hops, kind, ..
        } = event
        {
            println!("lookup from n42: found={found} hops={hops} served_by={kind:?}");
            looked_up = found;
        }
    }
    assert!(looked_up, "the lookup found the file");

    // 5. Reclaim the storage (only the owner's signed reclaim
    //    certificate is accepted) and confirm the space returns.
    overlay.reclaim(Addr(3), file_id);
    overlay.engine.run_until_idle();
    let mut reclaimed = false;
    for (_, _, event) in overlay.drain_upcalls() {
        if let PastEvent::ReclaimDone { ok, freed, .. } = event {
            println!("reclaim: ok={ok} freed={freed} bytes of quota");
            reclaimed = ok;
        }
    }
    let node = overlay.engine.node(Addr(3)).expect("node 3 was built");
    let used = node.app().quota().used();
    println!("client quota in use after reclaim: {used} bytes");
    assert!(reclaimed && used == 0, "the reclaim refunded the quota");
}
