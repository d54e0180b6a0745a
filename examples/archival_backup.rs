//! Archival backup scenario: a user archives a filesystem snapshot into
//! PAST, nodes fail, and every file remains retrievable — the paper's
//! core durability argument ("obviates the need for physical transport
//! of storage media to protect backup and archival data"). Runs on a
//! [`past::sim::Overlay`] with keep-alives armed.
//!
//! Run with: `cargo run --release --example archival_backup`

use past::core::{PastConfig, PastEvent};
use past::net::{Addr, EuclideanTopology, SimDuration};
use past::pastry::PastryConfig;
use past::sim::{Engine, Overlay};
use past::store::CachePolicyKind;
use past::workload::FsTraceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest file the archive stores.
const MAX_ARCHIVED_FILE: u64 = 4 << 20;

fn main() {
    let nodes = 60;
    let mut rng = StdRng::seed_from_u64(11);
    let topology = EuclideanTopology::random(nodes, &mut rng);

    // Keep-alives ON: the overlay must detect failures and re-replicate.
    let pastry_cfg = PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::from_secs(5),
        failure_timeout: SimDuration::from_secs(15),
        // Lazy routing-table repair: forwards detect dead next hops by
        // timeout and route around them.
        per_hop_acks: true,
        ..Default::default()
    };
    let past_cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    println!("booting a {nodes}-node archival overlay (keep-alives on) ...");
    let mut overlay = Overlay::build(
        Engine::build(Box::new(topology), 11, 0),
        &pastry_cfg,
        &past_cfg,
        &vec![200 << 20; nodes],
        &mut rng,
    );

    // Archive a small filesystem snapshot (sizes follow the paper's
    // filesystem workload statistics) from one access point. This
    // archive holds no file above 4 MB: the tail's multi-GB giants are
    // capped there.
    let snapshot = FsTraceConfig {
        files: 200,
        ..Default::default()
    }
    .generate();
    println!("archiving {} files ...", snapshot.files.len());
    let mut archived = Vec::new();
    for (i, spec) in snapshot.files.iter().enumerate() {
        let size = spec.size.min(MAX_ARCHIVED_FILE);
        overlay.insert(Addr(0), &format!("backup/f{i}"), size);
        overlay.engine.run_for(SimDuration::from_secs(2));
        archived.extend(overlay.drain_inserted().map(|(fid, _)| fid));
    }
    println!("{} files archived with k = 5 replicas each", archived.len());
    assert_eq!(archived.len(), snapshot.files.len(), "an insert failed");

    // Disaster: 8 nodes fail (scattered). Keep-alives detect the
    // failures; §3.5 maintenance re-creates lost replicas.
    let victims = [5u32, 12, 19, 26, 33, 40, 47, 54];
    println!("failing {} nodes ...", victims.len());
    for v in victims {
        overlay.engine.fail_node(Addr(v));
    }
    overlay.engine.run_for(SimDuration::from_secs(180));
    overlay.engine.discard_upcalls();

    // Every archived file must still be retrievable from a live node.
    // A request routed through a stale table entry can be swallowed by a
    // dead node; like a real client, retry from a different access point.
    let mut found = 0;
    let mut lost = 0;
    for (i, &fid) in archived.iter().enumerate() {
        let mut ok = false;
        for attempt in 0..3u32 {
            let from = Addr((1 + i as u32 * 7 + attempt * 13) % nodes as u32);
            if victims.contains(&from.0) {
                continue;
            }
            overlay.lookup(from, fid);
            overlay.engine.run_for(SimDuration::from_secs(3));
            for (_, _, event) in overlay.drain_upcalls() {
                if let PastEvent::LookupDone { found: f, .. } = event {
                    ok = ok || f;
                }
            }
            if ok {
                break;
            }
        }
        if ok {
            found += 1;
        } else {
            lost += 1;
        }
    }
    println!("after failures: {found} retrievable, {lost} lost");
    assert_eq!(lost, 0, "archival durability violated");
    println!("all archived files survived the failures.");
}
