//! A golden fingerprint of each engine's event order and random draws.
//!
//! One protocol runs on `Simulator` and on `ShardedSim` at one and four
//! shards, under global loss, link loss, jitter, a partition and Poisson
//! churn. Its handlers draw from `ctx.rng()`, arm timers and emit
//! upcalls, and every node folds each handler call it gets — kind, time,
//! sender or timer token, payload — into an FNV-1a hash of its own. A
//! node's hash depends only on what it was handed, so it is the same at
//! any shard count, where one hash over all handler calls would depend
//! on the order shards ran in. The fingerprint hashes the per-node
//! hashes in address order, the drained upcalls and every `NetStats`
//! field but `queue_peak` (a sum of per-shard peaks).
//!
//! The invariance tests compare an engine only against itself; these
//! constants compare it against its past. A change to an event key, to
//! the order of the faults against the events, or to the stream an RNG
//! draw comes from moves them.

use past_net::{
    Addr, Ctx, EuclideanTopology, FaultPlan, NetStats, Protocol, ShardedSim, SimDuration, SimTime,
    Simulator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: u32 = 24;
const SEED: u64 = 0x601d;

/// The fingerprint under the legacy order, `(arrival, global seq)` with
/// one engine-wide RNG.
const LEGACY: u64 = 0xedfc_aeba_8c68_c130;
/// The fingerprint under the shard order, `(arrival, sent, source,
/// source seq)` with per-node RNG streams, at any shard count.
const SHARDED: u64 = 0x0858_ccb8_9722_f0c6;

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

struct Node {
    hash: u64,
}

#[derive(Clone)]
struct Msg {
    ttl: u8,
    payload: u64,
}

impl Node {
    fn fold(&mut self, kind: u64, now: SimTime, who: u64, payload: u64) {
        for word in [kind, now.0, who, payload] {
            self.hash = fnv(self.hash, word);
        }
    }
}

impl Protocol for Node {
    type Msg = Msg;
    type Upcall = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, u64>) {
        self.fold(0, ctx.now(), 0, 0);
        let dst = Addr(ctx.rng().gen_range(0..NODES));
        let payload = ctx.rng().gen();
        ctx.send(dst, Msg { ttl: 4, payload });
        let delay = SimDuration::from_millis(ctx.rng().gen_range(10..60));
        ctx.set_timer(delay, 8);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, u64>, from: Addr, msg: Msg) {
        self.fold(1, ctx.now(), from.0 as u64, msg.payload ^ msg.ttl as u64);
        if msg.ttl > 0 {
            let dst = Addr(ctx.rng().gen_range(0..NODES));
            let payload = msg.payload.rotate_left(7) ^ ctx.rng().gen::<u64>();
            ctx.send(
                dst,
                Msg {
                    ttl: msg.ttl - 1,
                    payload,
                },
            );
        } else {
            ctx.emit(self.hash);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, u64>, token: u64) {
        self.fold(2, ctx.now(), token, 0);
        if token > 0 {
            let dst = Addr(ctx.rng().gen_range(0..NODES));
            ctx.send(
                dst,
                Msg {
                    ttl: 2,
                    payload: token,
                },
            );
            ctx.set_timer(SimDuration::from_millis(25), token - 1);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.fold(3, now, 0, 0);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg, u64>) {
        self.fold(4, ctx.now(), 0, 0);
        self.on_start(ctx);
    }
}

fn topology() -> Box<EuclideanTopology> {
    Box::new(EuclideanTopology::random(
        NODES as usize,
        &mut StdRng::seed_from_u64(5),
    ))
}

fn faults() -> FaultPlan {
    let churned: Vec<Addr> = (1..NODES).map(Addr).collect();
    FaultPlan::new()
        .poisson_churn(
            17,
            &churned,
            SimDuration::from_secs(2),
            SimDuration::from_millis(500),
            SimTime::ZERO,
            SimTime(6_000_000),
        )
        .partition(
            SimTime(1_000_000),
            SimTime(2_500_000),
            vec![Addr(0), Addr(1), Addr(2), Addr(3)],
        )
        .link_loss(Addr(0), Addr(5), 0.5)
        .jitter(SimDuration::from_millis(3))
}

/// Every field but `queue_peak`, after checking that each fault fired.
fn stats_words(s: NetStats) -> [u64; 9] {
    assert!(s.lost > 0 && s.partition_dropped > 0 && s.jittered > 0);
    assert!(s.crashes > 0 && s.recoveries > 0 && s.timers_fired > 0);
    assert!(
        s.dropped > s.lost + s.partition_dropped,
        "sends to crashed nodes"
    );
    [
        s.delivered,
        s.dropped,
        s.timers_fired,
        s.events,
        s.crashes,
        s.recoveries,
        s.lost,
        s.partition_dropped,
        s.jittered,
    ]
}

/// Runs the script on either engine (they share no trait) and returns
/// its fingerprint.
macro_rules! fingerprint {
    ($sim:expr) => {{
        let mut sim = $sim;
        for a in 0..NODES {
            sim.add_node(Addr(a), Node { hash: FNV_OFFSET });
        }
        sim.set_loss_probability(0.05);
        sim.set_fault_plan(faults());
        let mut upcalls = Vec::new();
        for round in 0..40u32 {
            let from = Addr(round % NODES);
            let to = Addr(round * 7 % NODES);
            if sim.is_up(from) {
                sim.invoke(from, move |_, ctx| {
                    ctx.send(
                        to,
                        Msg {
                            ttl: 3,
                            payload: round as u64,
                        },
                    )
                });
            }
            sim.run_for(SimDuration::from_millis(200));
            sim.drain_upcalls_into(&mut upcalls);
        }
        sim.run_until_idle();
        sim.drain_upcalls_into(&mut upcalls);
        assert!(upcalls.len() > 10, "the script must emit upcalls");
        let mut h = FNV_OFFSET;
        for a in 0..NODES {
            h = fnv(h, sim.node(Addr(a)).expect("never removed").hash);
        }
        for (t, a, u) in upcalls {
            h = fnv(fnv(fnv(h, t.0), a.0 as u64), u);
        }
        for word in stats_words(sim.stats()) {
            h = fnv(h, word);
        }
        h
    }};
}

#[test]
fn legacy_order_matches_its_golden_fingerprint() {
    let h = fingerprint!(Simulator::new(topology(), SEED));
    assert_eq!(h, LEGACY, "got {h:#018x}");
}

#[test]
fn shard_order_matches_its_golden_fingerprint_at_one_and_four_shards() {
    for shards in [1, 4] {
        let h = fingerprint!(ShardedSim::new(topology(), SEED, shards));
        assert_eq!(h, SHARDED, "{shards} shards: got {h:#018x}");
    }
}
