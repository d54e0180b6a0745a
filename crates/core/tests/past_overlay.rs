//! End-to-end PAST tests over the emulated network: insert/lookup/
//! reclaim, replica diversion, file diversion, caching and replica
//! maintenance under churn.

use past_core::{HitKind, PastConfig, PastEvent, PastNode, PastOverlayNode};
use past_crypto::{KeyPair, Scheme};
use past_id::{FileId, NodeId};
use past_net::{Addr, EuclideanTopology, SimDuration, Simulator};
use past_pastry::{NodeEntry, PastryConfig, PastryNode};
use past_store::CachePolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Overlay {
    sim: Simulator<PastOverlayNode>,
    entries: Vec<NodeEntry>,
    /// With keep-alives armed the event queue never drains; bounded
    /// overlays settle by running a fixed window instead.
    bounded: bool,
}

fn pastry_cfg() -> PastryConfig {
    PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::ZERO,
        ..Default::default()
    }
}

fn build(n: usize, seed: u64, past_cfg: &PastConfig, capacity: impl Fn(usize) -> u64) -> Overlay {
    build_with_pastry(n, seed, past_cfg, &pastry_cfg(), capacity)
}

fn build_with_pastry(
    n: usize,
    seed: u64,
    past_cfg: &PastConfig,
    pastry: &PastryConfig,
    capacity: impl Fn(usize) -> u64,
) -> Overlay {
    let mut seeder = StdRng::seed_from_u64(seed);
    let topo = EuclideanTopology::random(n, &mut seeder);
    let mut sim: Simulator<PastOverlayNode> = Simulator::new(Box::new(topo), seed ^ 0x5a5a);
    let mut entries = Vec::new();
    for i in 0..n {
        let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
        let id = past_crypto::derive_node_id(&keys.public());
        let addr = Addr(i as u32);
        let entry = NodeEntry::new(id, addr);
        let app = PastNode::new(past_cfg.clone(), keys, capacity(i), u64::MAX / 2);
        let bootstrap = if i == 0 {
            None
        } else {
            Some(Addr(seeder.gen_range(0..i) as u32))
        };
        sim.add_node(addr, PastryNode::new(pastry.clone(), entry, app, bootstrap));
        if pastry.keep_alive_period.micros() == 0 {
            sim.run_until_idle();
        } else {
            sim.run_for(SimDuration::from_secs(1));
        }
        entries.push(entry);
    }
    let bounded = pastry.keep_alive_period.micros() > 0;
    Overlay {
        sim,
        entries,
        bounded,
    }
}

impl Overlay {
    fn settle(&mut self) {
        if self.bounded {
            self.sim.run_for(SimDuration::from_secs(10));
        } else {
            self.sim.run_until_idle();
        }
    }

    fn insert(&mut self, from: Addr, name: &str, size: u64) -> Vec<PastEvent> {
        let name = name.to_string();
        self.sim.invoke(from, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.insert(actx, &name, size);
            });
        });
        self.settle();
        self.events()
    }

    fn lookup(&mut self, from: Addr, file_id: FileId) -> Vec<PastEvent> {
        self.sim.invoke(from, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.lookup(actx, file_id);
            });
        });
        self.settle();
        self.events()
    }

    fn reclaim(&mut self, from: Addr, file_id: FileId) -> Vec<PastEvent> {
        self.sim.invoke(from, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.reclaim(actx, file_id);
            });
        });
        self.settle();
        self.events()
    }

    fn events(&mut self) -> Vec<PastEvent> {
        self.sim
            .drain_upcalls()
            .into_iter()
            .map(|(_, _, e)| e)
            .collect()
    }

    fn replica_holders(&self, file_id: FileId) -> Vec<NodeId> {
        self.entries
            .iter()
            .filter(|e| {
                self.sim
                    .node(e.addr)
                    .map(|n| n.app().store().holds_replica(file_id))
                    .unwrap_or(false)
            })
            .map(|e| e.id)
            .collect()
    }

    /// The paper's storage invariant, checked against ground truth: each
    /// of the k live nodes closest to the fileId holds the replica or a
    /// pointer to a live diverted replica.
    fn check_storage_invariant(&self, file_id: FileId, k: usize) -> Result<(), String> {
        let key = file_id.as_key();
        let mut live: Vec<NodeEntry> = self
            .entries
            .iter()
            .filter(|e| self.sim.is_up(e.addr))
            .copied()
            .collect();
        live.sort_by(|a, b| {
            a.id.ring_distance(key)
                .cmp(&b.id.ring_distance(key))
                .then(a.id.cmp(&b.id))
        });
        for e in live.iter().take(k) {
            let node = self.sim.node(e.addr).expect("live node");
            let store = node.app().store();
            let has = store.holds_replica(file_id)
                || store
                    .pointer(file_id)
                    .is_some_and(|p| self.holder_has(p.holder, file_id));
            if !has {
                return Err(format!("node {} lacks replica/pointer", e.id));
            }
        }
        Ok(())
    }

    fn holder_has(&self, holder: NodeEntry, file_id: FileId) -> bool {
        self.sim
            .node(holder.addr)
            .map(|n| n.app().store().holds_replica(file_id))
            .unwrap_or(false)
    }
}

fn insert_done(events: &[PastEvent]) -> Option<(FileId, u32, bool)> {
    events.iter().find_map(|e| match e {
        PastEvent::InsertDone {
            file_id,
            attempts,
            success,
            ..
        } => Some((*file_id, *attempts, *success)),
        _ => None,
    })
}

fn lookup_done(events: &[PastEvent]) -> Option<(bool, u32, Option<HitKind>)> {
    events.iter().find_map(|e| match e {
        PastEvent::LookupDone {
            found, hops, kind, ..
        } => Some((*found, *hops, *kind)),
        _ => None,
    })
}

#[test]
fn insert_stores_k_replicas() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(30, 1, &cfg, |_| 50_000_000);
    let events = o.insert(Addr(3), "hello.txt", 10_000);
    let (fid, attempts, ok) = insert_done(&events).expect("insert completed");
    assert!(ok, "insert failed: {events:?}");
    assert_eq!(attempts, 1, "no file diversion expected");
    let stored = events
        .iter()
        .filter(|e| matches!(e, PastEvent::ReplicaStored { diverted: false, .. }))
        .count();
    assert_eq!(stored, 5, "k = 5 primary replicas");
    assert_eq!(o.replica_holders(fid).len(), 5);
    o.check_storage_invariant(fid, 5).unwrap();
}

#[test]
fn replicas_land_on_numerically_closest_nodes() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(40, 2, &cfg, |_| 50_000_000);
    let events = o.insert(Addr(0), "placement", 1_000);
    let (fid, _, ok) = insert_done(&events).unwrap();
    assert!(ok);
    let key = fid.as_key();
    let mut by_distance: Vec<NodeId> = o.entries.iter().map(|e| e.id).collect();
    by_distance.sort_by_key(|id| id.ring_distance(key));
    let holders = o.replica_holders(fid);
    // All 5 holders must be within the 7 ground-truth closest (leaf-set
    // views may differ slightly from ground truth at the margin).
    for h in &holders {
        let rank = by_distance.iter().position(|id| id == h).unwrap();
        assert!(rank < 7, "replica on distant node (rank {rank})");
    }
}

#[test]
fn lookup_finds_file_with_bounded_hops() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(40, 3, &cfg, |_| 50_000_000);
    let events = o.insert(Addr(7), "findme", 2_000);
    let (fid, _, ok) = insert_done(&events).unwrap();
    assert!(ok);
    for addr in [Addr(0), Addr(20), Addr(39)] {
        let events = o.lookup(addr, fid);
        let (found, hops, kind) = lookup_done(&events).expect("lookup completed");
        assert!(found, "file not found from {addr}");
        assert!(hops <= 4, "hops {hops} too high for N=40");
        assert!(kind.is_some());
    }
}

#[test]
fn lookup_missing_file_misses() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(25, 4, &cfg, |_| 50_000_000);
    let bogus = FileId::from_key(NodeId::from_u128(12345), 0);
    let events = o.lookup(Addr(5), bogus);
    let (found, _, kind) = lookup_done(&events).expect("lookup completed");
    assert!(!found);
    assert!(kind.is_none());
}

#[test]
fn reclaim_frees_replicas_and_quota() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(30, 5, &cfg, |_| 50_000_000);
    let events = o.insert(Addr(2), "temp.dat", 5_000);
    let (fid, _, ok) = insert_done(&events).unwrap();
    assert!(ok);
    let used_before = o.sim.node(Addr(2)).unwrap().app().quota().used();
    assert_eq!(used_before, 5 * 5_000);
    let events = o.reclaim(Addr(2), fid);
    let reclaimed = events.iter().any(
        |e| matches!(e, PastEvent::ReclaimDone { ok: true, freed, .. } if *freed == 25_000),
    );
    assert!(reclaimed, "reclaim failed: {events:?}");
    assert_eq!(o.replica_holders(fid).len(), 0, "all replicas dropped");
    assert_eq!(o.sim.node(Addr(2)).unwrap().app().quota().used(), 0);
    // Weak semantics: a subsequent lookup may fail (here, with no caches,
    // it must).
    let events = o.lookup(Addr(9), fid);
    assert!(!lookup_done(&events).unwrap().0);
}

#[test]
fn replica_diversion_engages_on_full_nodes() {
    // Nodes have small disks: with t_pri = 0.1 a 30 kB file needs
    // 300 kB free, which half the nodes lack.
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(40, 6, &cfg, |i| {
        if i % 2 == 0 {
            100_000 // Small: rejects 30 kB primaries.
        } else {
            10_000_000
        }
    });
    let mut diverted_total = 0;
    let mut inserted = Vec::new();
    for n in 0..20 {
        let events = o.insert(Addr(1), &format!("file{n}"), 30_000);
        if let Some((fid, _, true)) = insert_done(&events) {
            inserted.push(fid);
            diverted_total += events
                .iter()
                .filter(|e| matches!(e, PastEvent::ReplicaStored { diverted: true, .. }))
                .count();
        }
    }
    assert!(!inserted.is_empty(), "some inserts must succeed");
    assert!(
        diverted_total > 0,
        "replica diversion never engaged despite full nodes"
    );
    for fid in &inserted {
        o.check_storage_invariant(*fid, 5).unwrap();
        let events = o.lookup(Addr(30), *fid);
        assert!(lookup_done(&events).unwrap().0, "diverted file not found");
    }
}

#[test]
fn file_diversion_retries_and_fails_cleanly() {
    // Every node is tiny: a 50 kB file can never be stored anywhere
    // (t_pri = 0.1 of 100 kB = 10 kB), so all 4 attempts fail.
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut o = build(25, 7, &cfg, |_| 100_000);
    let events = o.insert(Addr(0), "too-big", 50_000);
    let (_, attempts, ok) = insert_done(&events).unwrap();
    assert!(!ok);
    assert_eq!(attempts, 4, "3 re-salts after the initial attempt");
    // Failed attempts must not leak replicas.
    let leaked: usize = o
        .entries
        .iter()
        .map(|e| o.sim.node(e.addr).unwrap().app().store().primary_count())
        .sum();
    assert_eq!(leaked, 0, "aborted inserts leaked replicas");
    // Quota was refunded.
    assert_eq!(o.sim.node(Addr(0)).unwrap().app().quota().used(), 0);
}

#[test]
fn quota_exhaustion_rejects_insert_locally() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let mut seeder = StdRng::seed_from_u64(8);
    let topo = EuclideanTopology::random(5, &mut seeder);
    let mut sim: Simulator<PastOverlayNode> = Simulator::new(Box::new(topo), 8);
    // One node with a 1000-byte quota.
    let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
    let id = past_crypto::derive_node_id(&keys.public());
    let app = PastNode::new(cfg.clone(), keys, 10_000_000, 1_000);
    sim.add_node(
        Addr(0),
        PastryNode::new(pastry_cfg(), NodeEntry::new(id, Addr(0)), app, None),
    );
    sim.run_until_idle();
    sim.invoke(Addr(0), |node, ctx| {
        node.invoke_app(ctx, |app, actx| {
            // 5 × 300 = 1500 > 1000: quota refuses before routing.
            app.insert(actx, "f", 300);
        });
    });
    sim.run_until_idle();
    let events: Vec<PastEvent> = sim.drain_upcalls().into_iter().map(|(_, _, e)| e).collect();
    assert!(events.iter().any(|e| matches!(
        e,
        PastEvent::InsertDone {
            success: false,
            attempts: 0,
            ..
        }
    )));
}

#[test]
fn caching_reduces_hops_for_popular_file() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::GreedyDualSize,
        ..Default::default()
    };
    let mut o = build(50, 9, &cfg, |_| 50_000_000);
    let events = o.insert(Addr(10), "hot", 4_000);
    let (fid, _, ok) = insert_done(&events).unwrap();
    assert!(ok);
    // Many lookups from many clients populate caches along the paths.
    let mut first_hops = Vec::new();
    let mut later_hops = Vec::new();
    for round in 0..3 {
        for i in 0..25u32 {
            let events = o.lookup(Addr(i), fid);
            let (found, hops, _) = lookup_done(&events).unwrap();
            assert!(found);
            if round == 0 {
                first_hops.push(hops);
            } else {
                later_hops.push(hops);
            }
        }
    }
    let avg = |v: &[u32]| v.iter().sum::<u32>() as f64 / v.len() as f64;
    assert!(
        avg(&later_hops) <= avg(&first_hops),
        "caching should not increase fetch distance (first {:.2}, later {:.2})",
        avg(&first_hops),
        avg(&later_hops)
    );
    // At least some later lookups must be served from caches.
    let cached_hits: usize = o
        .entries
        .iter()
        .map(|e| o.sim.node(e.addr).unwrap().app().store().cache().stats().0 as usize)
        .sum();
    assert!(cached_hits > 0, "no cache hits recorded");
}

#[test]
fn maintenance_restores_replicas_after_failure() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let pastry = PastryConfig {
        leaf_set_size: 16,
        keep_alive_period: SimDuration::from_secs(5),
        failure_timeout: SimDuration::from_secs(15),
        ..Default::default()
    };
    let mut o = build_with_pastry(30, 10, &cfg, &pastry, |_| 50_000_000);
    o.sim.run_for(SimDuration::from_secs(30));
    o.events();
    let all = o.insert(Addr(4), "durable", 8_000);
    let (fid, _, ok) = insert_done(&all).expect("insert completed");
    assert!(ok);
    let holders = o.replica_holders(fid);
    assert_eq!(holders.len(), 5);
    // Fail one replica holder.
    let victim = *o.entries.iter().find(|e| e.id == holders[0]).unwrap();
    o.sim.fail_node(victim.addr);
    // Let failure detection and §3.5 re-replication run.
    o.sim.run_for(SimDuration::from_secs(120));
    o.events();
    let live_holders: Vec<NodeId> = o
        .replica_holders(fid)
        .into_iter()
        .filter(|id| *id != victim.id)
        .collect();
    assert!(
        live_holders.len() >= 5,
        "replication not restored: {} live holders",
        live_holders.len()
    );
    o.check_storage_invariant(fid, 5).unwrap();
}

#[test]
fn settle_on_insert_is_deterministic() {
    let cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let run = |seed| {
        let mut o = build(20, seed, &cfg, |_| 50_000_000);
        let events = o.insert(Addr(0), "det", 1_234);
        insert_done(&events).unwrap()
    };
    assert_eq!(run(42), run(42));
}
