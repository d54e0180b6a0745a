//! Content distribution scenario: a popular file is fetched by clients
//! all over an 8-site network; PAST's route-through caching pulls copies
//! toward each site, cutting fetch distance and balancing query load —
//! the §4/§5.2 story. One [`past::sim::Overlay`] per cache policy.
//!
//! Run with: `cargo run --release --example content_distribution`

use past::core::{HitKind, PastConfig, PastEvent};
use past::net::{Addr, ClusteredTopology, SimDuration};
use past::pastry::PastryConfig;
use past::sim::{Engine, Overlay};
use past::store::CachePolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(nodes: usize, cache: CachePolicyKind, seed: u64) -> Overlay {
    let topology = ClusteredTopology::round_robin(nodes, 8);
    let pastry_cfg = PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::ZERO,
        ..Default::default()
    };
    let past_cfg = PastConfig {
        cache_policy: cache,
        ..Default::default()
    };
    Overlay::build(
        Engine::build(Box::new(topology), seed, 0),
        &pastry_cfg,
        &past_cfg,
        &vec![64 << 20; nodes],
        &mut StdRng::seed_from_u64(seed),
    )
}

fn run_workload(overlay: &mut Overlay, nodes: usize) -> (f64, f64, u64) {
    // Publish one popular file.
    overlay.insert(Addr(0), "viral-video.mp4", 2 << 20);
    overlay.engine.run_until_idle();
    let (file_id, _) = overlay.drain_inserted().next().expect("publish succeeded");
    // 400 fetches from clients across all 8 sites.
    let mut rng = StdRng::seed_from_u64(99);
    let mut early_hops = 0u64;
    let mut late_hops = 0u64;
    let mut cache_hits = 0u64;
    let mut fetched = 0;
    let rounds = 400;
    for r in 0..rounds {
        overlay.lookup(Addr(rng.gen_range(0..nodes) as u32), file_id);
        overlay.engine.run_until_idle();
        for (_, _, e) in overlay.drain_upcalls() {
            if let PastEvent::LookupDone {
                found: true,
                hops,
                kind,
                ..
            } = e
            {
                fetched += 1;
                if r < rounds / 4 {
                    early_hops += hops as u64;
                } else if r >= 3 * rounds / 4 {
                    late_hops += hops as u64;
                }
                if matches!(kind, Some(HitKind::Cached)) {
                    cache_hits += 1;
                }
            }
        }
    }
    assert_eq!(fetched, rounds, "every fetch found the file");
    (
        early_hops as f64 / (rounds / 4) as f64,
        late_hops as f64 / (rounds / 4) as f64,
        cache_hits,
    )
}

fn main() {
    let nodes = 120;
    println!("content distribution across 8 sites, {nodes} nodes\n");
    for (label, policy) in [
        ("GreedyDual-Size", CachePolicyKind::GreedyDualSize),
        ("LRU", CachePolicyKind::Lru),
        ("no caching", CachePolicyKind::None),
    ] {
        let mut overlay = build(nodes, policy, 21);
        let (early, late, hits) = run_workload(&mut overlay, nodes);
        println!(
            "{label:>16}: mean hops first-quarter {early:.2} -> last-quarter {late:.2}  (cache hits: {hits})"
        );
    }
    println!(
        "\nWith caching, popular content migrates toward its consumers:\n\
         late fetches take fewer Pastry hops and most are served from caches."
    );
}
