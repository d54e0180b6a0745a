//! The sharded simulation engine.
//!
//! [`ShardedSim`] partitions the emulated world round-robin across
//! `shards` event cores (node `a` lives on shard `a % shards`), each
//! under the shard order of [`crate::shard`]: its own event heap,
//! per-node RNG streams and fault sub-schedule. Shards advance window
//! by window under **conservative lookahead**: with `L =
//! topology.min_latency()`, every message sent at time `t` arrives no
//! earlier than `t + L`, so all shards can process the window `[T, T +
//! L)` independently — any message one shard sends another inside the
//! window lands in a *later* window. The windows, the barrier and the
//! upcall merge are this module's; everything a shard does inside a
//! window is the event core's, shared with [`crate::Simulator`]. At
//! each window barrier the coordinator exchanges cross-shard sends and
//! picks the next window start as the earliest pending timestamp
//! anywhere.
//!
//! # Determinism
//!
//! The same seed produces the same execution at *any* shard count —
//! including byte-identical metrics reports — because nothing a node
//! observes depends on the partitioning:
//!
//! - events are totally ordered by the shard-invariant key
//!   `(arrival, sent, source, source-seq)` (see [`crate::shard`]);
//! - every random draw comes from a per-node stream seeded by
//!   `(master seed, address)`, with loss drawn by the destination and
//!   jitter by the source;
//! - upcalls and observability fragments are merged in that same
//!   deterministic order at the barrier.
//!
//! Every window runs its shards one after another on the calling
//! thread, as the paper's prototype ran every node in one process.

use std::sync::Arc;

use crate::addr::Addr;
use crate::fault::FaultPlan;
use crate::proto::{Ctx, NetStats, Protocol};
use crate::shard::{ShardCore, ShardOrder};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// The sharded discrete-event simulator: a drop-in counterpart to
/// [`crate::Simulator`] that partitions nodes across shards and runs
/// them under conservative lookahead.
///
/// # Panics
///
/// Construction panics if the topology's
/// [`min_latency`](Topology::min_latency) is zero — a zero lower bound
/// leaves no lookahead window, so such topologies must run on
/// [`crate::Simulator`].
pub struct ShardedSim<P: Protocol> {
    cores: Vec<ShardCore<P>>,
    shards: usize,
    lookahead: SimDuration,
    time: SimTime,
    upcall_buf: Vec<(SimTime, Addr, P::Upcall)>,
}

impl<P: Protocol> ShardedSim<P> {
    /// Creates a sharded simulator over `topology` with `shards` shards
    /// and deterministic per-node randomness derived from `seed`.
    pub fn new(topology: Box<dyn Topology>, seed: u64, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        let lookahead = topology.min_latency();
        assert!(
            lookahead > SimDuration::ZERO,
            "ShardedSim requires a topology with a positive min_latency(): \
             conservative lookahead needs a nonzero lower bound on link \
             latency. Override Topology::min_latency() for this topology, \
             or use the legacy Simulator."
        );
        let topology: Arc<dyn Topology> = Arc::from(topology);
        let cores = (0..shards)
            .map(|shard| {
                let order = ShardOrder {
                    shard,
                    shards,
                    master_seed: seed,
                };
                ShardCore::new(order, Arc::clone(&topology))
            })
            .collect();
        ShardedSim {
            cores,
            shards,
            lookahead,
            time: SimTime::ZERO,
            upcall_buf: Vec::new(),
        }
    }

    fn core(&self, addr: Addr) -> &ShardCore<P> {
        &self.cores[addr.index() % self.shards]
    }

    fn core_mut(&mut self, addr: Addr) -> &mut ShardCore<P> {
        &mut self.cores[addr.index() % self.shards]
    }

    /// Pre-sizes the event heaps and upcall buffers (split evenly
    /// across shards).
    pub fn reserve_capacity(&mut self, events: usize, upcalls: usize) {
        let per = events / self.shards + 1;
        let per_up = upcalls / self.shards + 1;
        for c in &mut self.cores {
            c.reserve(per, per_up);
        }
    }

    /// Global i.i.d. message-loss probability (drawn from the
    /// destination node's RNG stream).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        for c in &mut self.cores {
            c.set_loss_probability(p);
        }
    }

    /// Installs a fault plan: each shard keeps the crash/recover entries
    /// of its own nodes; partitions, link loss and jitter are shared.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        for c in &mut self.cores {
            c.set_fault_plan(Arc::clone(&plan));
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Aggregated network counters (each field sums across shards; see
    /// [`NetStats::queue_peak`] for its caveat).
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats::default();
        for c in &self.cores {
            s.merge_from(&c.stats());
        }
        s
    }

    /// Adds a node and runs its `on_start` handler.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the topology capacity or is occupied.
    pub fn add_node(&mut self, addr: Addr, proto: P) {
        self.core_mut(addr).add_node(addr, proto);
    }

    /// Whether a node exists and is up.
    pub fn is_up(&self, addr: Addr) -> bool {
        self.core(addr).is_up(addr)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, addr: Addr) -> Option<&P> {
        self.core(addr).node(addr)
    }

    /// Mutable access to a node's protocol state.
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.core_mut(addr).node_mut(addr)
    }

    /// All live addresses, in address order.
    pub fn live_addrs(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self
            .cores
            .iter()
            .flat_map(|c| c.live_addrs())
            .collect();
        v.sort_unstable();
        v
    }

    /// Marks a node as failed (state retained; messages and timers to
    /// it are dropped).
    pub fn fail_node(&mut self, addr: Addr) {
        self.core_mut(addr).fail_node(addr);
    }

    /// Brings a failed node back up and runs its `on_recover` handler.
    ///
    /// # Panics
    ///
    /// Panics if no node state exists at `addr`.
    pub fn recover_node(&mut self, addr: Addr) {
        self.ensure_obs_fragments();
        self.core_mut(addr).recording(|c| c.recover_node(addr));
    }

    /// Removes a node entirely, returning its protocol state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<P> {
        self.core_mut(addr).remove_node(addr)
    }

    /// Runs `f` against a live node right now (the entry point for
    /// workload injection).
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or down.
    pub fn invoke<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        self.ensure_obs_fragments();
        self.core_mut(addr).recording(|c| c.invoke(addr, f));
    }

    /// Takes all pending upcalls in deterministic order: by time, then
    /// address, then per-node emission order.
    pub fn drain_upcalls(&mut self) -> Vec<(SimTime, Addr, P::Upcall)> {
        let mut out = Vec::new();
        self.drain_upcalls_into(&mut out);
        out
    }

    /// Like [`ShardedSim::drain_upcalls`], appending into `buf`.
    pub fn drain_upcalls_into(&mut self, buf: &mut Vec<(SimTime, Addr, P::Upcall)>) {
        let mut merged = std::mem::take(&mut self.upcall_buf);
        for c in &mut self.cores {
            merged.append(&mut c.upcalls);
        }
        // A node's upcalls all sit in its own shard's buffer, in
        // emission order, so a stable sort by (time, address) puts them
        // in per-node emission order.
        merged.sort_by_key(|&(t, a, _)| (t, a));
        buf.append(&mut merged);
        self.upcall_buf = merged;
    }

    /// Discards all pending upcalls.
    pub fn discard_upcalls(&mut self) {
        for c in &mut self.cores {
            c.upcalls.clear();
        }
    }

    /// Total queued events across all shards.
    pub fn queue_len(&self) -> usize {
        self.cores.iter().map(|c| c.queue_len()).sum()
    }

    /// Runs until no events or scheduled faults remain anywhere.
    pub fn run_until_idle(&mut self) {
        self.run_windows(None);
        self.sync_clocks();
    }

    /// Runs every event and fault with timestamp `<= deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_windows(Some(deadline));
        self.time = self.time.max(deadline);
        self.sync_clocks();
    }

    /// Runs for a span of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.time + span);
    }

    /// Folds every shard's observability fragment into the recorder
    /// installed on the calling thread and finalizes completed spans.
    /// Call before reading metrics snapshots; a no-op when metrics are
    /// off.
    pub fn sync_obs(&mut self) {
        if !past_obs::is_enabled() {
            return;
        }
        let cores = &mut self.cores;
        past_obs::with_recorder(|primary| {
            for c in cores.iter_mut() {
                if let Some(rec) = c.recorder.as_mut() {
                    primary.absorb(rec);
                }
            }
            primary.finalize_completed_spans();
        });
    }

    /// The main loop: pick the earliest pending timestamp anywhere,
    /// execute one lookahead window on every shard, exchange
    /// cross-shard messages, repeat.
    fn run_windows(&mut self, deadline: Option<SimTime>) {
        self.ensure_obs_fragments();
        // Injection between runs (add_node/invoke) may have deposited
        // cross-shard sends; route them before looking for work.
        self.exchange();
        loop {
            let next = self
                .cores
                .iter()
                .filter_map(|c| c.next_ts())
                .min();
            let Some(t) = next else { break };
            if deadline.is_some_and(|d| t > d) {
                break;
            }
            // The window is `[t, t + L)`, cut at the deadline.
            let last = SimTime(t.0 + self.lookahead.0 - 1);
            self.execute_window(deadline.map_or(last, |d| last.min(d)));
            self.exchange();
        }
    }

    /// Runs every shard through `last`, each with its fragment recorder
    /// in place.
    fn execute_window(&mut self, last: SimTime) {
        for c in &mut self.cores {
            c.recording(|c| c.run_through(last));
        }
    }

    /// The barrier exchange: every shard takes what every other sent it
    /// during the window. Heap order is shard-invariant, so routing
    /// order does not matter.
    fn exchange(&mut self) {
        for d in 0..self.shards {
            let (before, rest) = self.cores.split_at_mut(d);
            let (to, after) = rest.split_first_mut().expect("d < shards");
            for from in before.iter_mut().chain(after) {
                to.receive(from);
            }
        }
    }

    /// Gives every shard a fragment recorder when metrics are on, so
    /// instrumentation lands in a mergeable per-shard registry.
    fn ensure_obs_fragments(&mut self) {
        if !past_obs::is_enabled() {
            return;
        }
        for c in &mut self.cores {
            c.recorder.get_or_insert_with(past_obs::Recorder::fragment);
        }
    }

    /// Brings the clock to the latest shard's and every shard's clock to
    /// it, so the next injection dispatches at a consistent `now`.
    fn sync_clocks(&mut self) {
        let t = self.cores.iter().map(|c| c.now()).fold(self.time, SimTime::max);
        self.time = t;
        for c in &mut self.cores {
            c.advance_to(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::topology::{EuclideanTopology, Topology, UniformTopology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::rc::Rc;

    fn euclid(n: usize, seed: u64) -> EuclideanTopology {
        EuclideanTopology::random(n, &mut StdRng::seed_from_u64(seed))
    }

    /// A gossip protocol exercising sends, timers, upcalls and RNG:
    /// every node pings a few pseudo-random peers on start; each ping
    /// is re-forwarded while its TTL lasts; pongs bump a counter and
    /// emit an upcall. Every node also counts its pongs into one
    /// `Rc<Cell<_>>` shared by all nodes of the run.
    struct Gossip {
        n: u32,
        pongs: u64,
        fanout: u32,
        all_pongs: Rc<Cell<u64>>,
    }

    #[derive(Clone)]
    enum Msg {
        Ping { ttl: u8 },
        Pong,
    }

    impl Protocol for Gossip {
        type Msg = Msg;
        type Upcall = (Addr, u64);

        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>) {
            for _ in 0..self.fanout {
                let dst = Addr(ctx.rng().gen_range(0..self.n));
                ctx.send(dst, Msg::Ping { ttl: 3 });
            }
            if self.fanout > 0 {
                ctx.set_timer(SimDuration::from_millis(40), 1);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>, from: Addr, msg: Msg) {
            match msg {
                Msg::Ping { ttl } => {
                    ctx.send(from, Msg::Pong);
                    if ttl > 0 {
                        let dst = Addr(ctx.rng().gen_range(0..self.n));
                        ctx.send(dst, Msg::Ping { ttl: ttl - 1 });
                    }
                }
                Msg::Pong => {
                    self.pongs += 1;
                    self.all_pongs.set(self.all_pongs.get() + 1);
                    if self.pongs.is_multiple_of(5) {
                        let me = ctx.addr();
                        let pongs = self.pongs;
                        ctx.emit((me, pongs));
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>, _token: u64) {
            let dst = Addr(ctx.rng().gen_range(0..self.n));
            ctx.send(dst, Msg::Ping { ttl: 1 });
        }
    }

    fn build(n: u32, shards: usize) -> ShardedSim<Gossip> {
        let topo = euclid(n as usize, 99);
        let mut sim = ShardedSim::new(Box::new(topo), 42, shards);
        let all_pongs = Rc::new(Cell::new(0));
        for a in 0..n {
            sim.add_node(
                Addr(a),
                Gossip {
                    n,
                    pongs: 0,
                    fanout: 2,
                    all_pongs: Rc::clone(&all_pongs),
                },
            );
        }
        sim
    }

    fn fingerprint(sim: &mut ShardedSim<Gossip>) -> (Vec<u64>, Vec<(u64, u32, u64)>, NetStats) {
        let pongs: Vec<u64> = (0..sim.live_addrs().len() as u32)
            .map(|a| sim.node(Addr(a)).map(|g| g.pongs).unwrap_or(0))
            .collect();
        let ups: Vec<(u64, u32, u64)> = sim
            .drain_upcalls()
            .into_iter()
            .map(|(t, a, (src, p))| {
                assert_eq!(a, src);
                (t.0, a.0, p)
            })
            .collect();
        (pongs, ups, sim.stats())
    }

    #[test]
    #[should_panic(expected = "positive min_latency")]
    fn zero_latency_topology_rejected() {
        struct Instant(usize);
        impl Topology for Instant {
            fn latency(&self, _: Addr, _: Addr) -> SimDuration {
                SimDuration::ZERO
            }
            fn distance(&self, _: Addr, _: Addr) -> f64 {
                0.0
            }
            fn capacity(&self) -> usize {
                self.0
            }
        }
        let _: ShardedSim<Gossip> = ShardedSim::new(Box::new(Instant(8)), 1, 2);
    }

    #[test]
    fn stats_invariant_across_shard_counts() {
        let mut reference = None;
        for &shards in &[1usize, 2, 4, 8] {
            let mut sim = build(48, shards);
            sim.run_until_idle();
            let fp = fingerprint(&mut sim);
            assert!(fp.2.delivered > 0, "workload must exercise the network");
            let probe = (
                fp.0.clone(),
                fp.1.clone(),
                (
                    fp.2.delivered,
                    fp.2.dropped,
                    fp.2.events,
                    fp.2.timers_fired,
                ),
            );
            match &reference {
                None => reference = Some(probe),
                Some(r) => assert_eq!(r, &probe, "divergence at {shards} shards"),
            }
        }
    }

    /// Node state may share an `Rc` across nodes — and so across
    /// shards — because every shard runs on the calling thread.
    #[test]
    fn rc_shared_node_state_is_shard_invariant() {
        let run = |shards: usize| {
            let mut sim = build(32, shards);
            sim.run_until_idle();
            let all = sim.node(Addr(0)).unwrap().all_pongs.get();
            let (pongs, ..) = fingerprint(&mut sim);
            assert_eq!(all, pongs.iter().sum::<u64>());
            all
        };
        let one = run(1);
        assert!(one > 0, "workload must exchange pongs");
        assert_eq!(one, run(4));
    }

    #[test]
    fn faults_loss_and_jitter_are_shard_invariant() {
        let run = |shards: usize| {
            let n = 40u32;
            let mut sim = build(n, shards);
            sim.set_loss_probability(0.2);
            let nodes: Vec<Addr> = (1..n).map(Addr).collect();
            let plan = FaultPlan::new()
                .poisson_churn(
                    7,
                    &nodes,
                    SimDuration::from_secs(3),
                    SimDuration::from_secs(1),
                    SimTime::ZERO,
                    SimTime(20_000_000),
                )
                .partition(
                    SimTime(1_000_000),
                    SimTime(2_000_000),
                    vec![Addr(0), Addr(1), Addr(2)],
                )
                .jitter(SimDuration::from_millis(5));
            sim.set_fault_plan(plan);
            sim.run_for(SimDuration::from_secs(30));
            sim.run_until_idle();
            // Idle: every message was delivered, lost, cut off or sent
            // to a crashed node, and each way out freed its slot.
            for core in &sim.cores {
                let (slots, vacant) = core.parcels_occupancy();
                assert_eq!(slots, vacant, "a dropped message kept its slot");
            }
            let fp = fingerprint(&mut sim);
            let s = fp.2;
            (
                fp.0,
                fp.1,
                (
                    s.delivered,
                    s.dropped,
                    s.lost,
                    s.partition_dropped,
                    s.jittered,
                    s.events,
                    s.timers_fired,
                    s.crashes,
                    s.recoveries,
                ),
            )
        };
        let a = run(1);
        for shards in [2, 4, 8] {
            assert_eq!(a, run(shards), "divergence at {shards} shards");
        }
        assert!(a.2 .2 > 0, "loss must have fired to make the test meaningful");
        assert!(a.2 .3 > 0, "the partition must have cut messages off");
        assert!(a.2 .1 > a.2 .2 + a.2 .3, "messages to crashed nodes too");
        assert!(a.2 .7 > 0, "churn must have fired");
    }

    #[test]
    fn run_until_processes_events_at_exactly_the_deadline() {
        let topo = UniformTopology::new(4, SimDuration::from_millis(10));
        let mut sim: ShardedSim<Gossip> = ShardedSim::new(Box::new(topo), 1, 2);
        for a in 0..4 {
            sim.add_node(
                Addr(a),
                Gossip {
                    n: 4,
                    pongs: 0,
                    fanout: 0,
                    all_pongs: Rc::default(),
                },
            );
        }
        sim.discard_upcalls();
        // One ping sent at t=0 arrives at exactly t=10ms.
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping { ttl: 0 }));
        sim.run_until(SimTime(10_000));
        assert_eq!(sim.now(), SimTime(10_000));
        assert_eq!(sim.stats().delivered, 1, "deadline events must process");
        // The pong (t=20ms) is still queued.
        assert_eq!(sim.queue_len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn matches_uniform_topology_intuition_on_single_shard_vs_legacy() {
        // An RNG-free deterministic workload must produce identical
        // counters on the legacy engine and the sharded engine.
        struct Relay {
            hops: u64,
        }
        #[derive(Clone)]
        struct Token(u8);
        impl Protocol for Relay {
            type Msg = Token;
            type Upcall = u64;
            fn on_message(&mut self, ctx: &mut Ctx<'_, Token, u64>, _from: Addr, msg: Token) {
                self.hops += 1;
                if msg.0 > 0 {
                    let next = Addr((ctx.addr().0 + 1) % 6);
                    ctx.send(next, Token(msg.0 - 1));
                } else {
                    let hops = self.hops;
                    ctx.emit(hops);
                }
            }
        }
        let mut legacy = Simulator::new(Box::new(euclid(6, 5)), 9);
        for a in 0..6 {
            legacy.add_node(Addr(a), Relay { hops: 0 });
        }
        legacy.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Token(20)));
        legacy.run_until_idle();

        for shards in [1usize, 3] {
            let mut sharded: ShardedSim<Relay> =
                ShardedSim::new(Box::new(euclid(6, 5)), 9, shards);
            for a in 0..6 {
                sharded.add_node(Addr(a), Relay { hops: 0 });
            }
            sharded.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Token(20)));
            sharded.run_until_idle();
            assert_eq!(sharded.stats().delivered, legacy.stats().delivered);
            assert_eq!(sharded.stats().events, legacy.stats().events);
            assert_eq!(sharded.now(), legacy.now());
            for a in 0..6 {
                assert_eq!(
                    sharded.node(Addr(a)).unwrap().hops,
                    legacy.node(Addr(a)).unwrap().hops
                );
            }
        }
    }
}
