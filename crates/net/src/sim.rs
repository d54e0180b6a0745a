//! The single-threaded engine: one event core under the legacy order.
//!
//! The paper's prototype ran up to 2250 PAST nodes inside a single Java VM
//! communicating through a network emulation layer. This module is the
//! Rust equivalent: every node is a deterministic state machine driven by
//! delivered messages and timers; an event queue orders all activity by
//! simulated time with a strict total order, so any experiment is
//! exactly reproducible from its seed.
//!
//! The legacy order is one shard: a node's slot is its address, an
//! event's key is `(arrival, global enqueue seq)` with one counter per
//! engine, and loss, jitter and [`Ctx::rng`] all draw from one
//! engine-wide `StdRng`. The shard order under [`crate::ShardedSim`]
//! keys and draws differently, so the two engines run the same seed
//! differently; `benchmark/pins.json` is recorded on this one.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::addr::Addr;
use crate::engine::{Core, Order};
use crate::fault::FaultPlan;
use crate::proto::{Ctx, NetStats, Protocol};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// The legacy order (see the module docs).
pub(crate) struct Legacy {
    seq: u64,
    rng: StdRng,
}

impl Order for Legacy {
    type Tie = u64;
    type Stream = ();
    type Topology = Box<dyn Topology>;

    fn partition(&self) -> (usize, usize) {
        (1, 0)
    }

    fn stream(&self, _: Addr) {}

    fn rng<'a>(&'a mut self, _: &'a mut ()) -> &'a mut StdRng {
        &mut self.rng
    }

    fn tie(&mut self, _: &mut (), _: Addr, _: SimTime) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// The discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use past_net::{Addr, Ctx, Protocol, SimDuration, Simulator, UniformTopology};
///
/// struct Echo;
/// impl Protocol for Echo {
///     type Msg = u32;
///     type Upcall = u32;
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, from: Addr, msg: u32) {
///         if msg > 0 {
///             ctx.send(from, msg - 1);
///         } else {
///             ctx.emit(0);
///         }
///     }
/// }
///
/// let topo = UniformTopology::new(2, SimDuration::from_millis(1));
/// let mut sim = Simulator::new(Box::new(topo), 42);
/// sim.add_node(Addr(0), Echo);
/// sim.add_node(Addr(1), Echo);
/// sim.invoke(Addr(0), |_echo, ctx| ctx.send(Addr(1), 5));
/// sim.run_until_idle();
/// assert_eq!(sim.drain_upcalls().len(), 1);
/// ```
pub struct Simulator<P: Protocol> {
    core: Core<P, Legacy>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates an empty simulator over `topology`, seeded for determinism.
    pub fn new(topology: Box<dyn Topology>, seed: u64) -> Self {
        let order = Legacy {
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        Simulator {
            core: Core::new(order, topology),
        }
    }

    /// Pre-sizes the event queue (heap and message slab) and the upcall
    /// buffer. Large experiments keep hundreds of thousands of events
    /// in flight; reserving up front avoids the doubling reallocations
    /// on the way there.
    pub fn reserve_capacity(&mut self, events: usize, upcalls: usize) {
        self.core.reserve(events, upcalls);
    }

    /// Sets an i.i.d. message-loss probability (0 disables loss).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.core.set_loss_probability(p);
    }

    /// Installs a fault plan. Crash/recover entries are interleaved
    /// with the event queue by timestamp; partitions, per-link loss and
    /// jitter act on individual messages. Entries scheduled before the
    /// current time apply immediately on the next step (time never
    /// rewinds). Replaces any previously installed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core.set_fault_plan(Arc::new(plan));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.core.stats()
    }

    /// Adds a node and runs its `on_start` handler.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the topology capacity or is occupied.
    pub fn add_node(&mut self, addr: Addr, proto: P) {
        self.core.add_node(addr, proto);
    }

    /// Returns whether `addr` hosts a live node.
    pub fn is_up(&self, addr: Addr) -> bool {
        self.core.is_up(addr)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, addr: Addr) -> Option<&P> {
        self.core.node(addr)
    }

    /// Mutable access to a node's protocol state (bypasses the network —
    /// intended for harness inspection and test setup).
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.core.node_mut(addr)
    }

    /// Iterates over all live node addresses.
    pub fn live_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.core.live_addrs()
    }

    /// Marks a node as failed: pending and future messages/timers for it
    /// are dropped, but its state (disk contents) is retained. The
    /// protocol's context-free [`Protocol::on_crash`] hook runs once per
    /// up→down transition (e.g. to mark a warm restart).
    pub fn fail_node(&mut self, addr: Addr) {
        self.core.fail_node(addr);
    }

    /// Brings a failed node back online and runs its `on_recover` handler.
    ///
    /// # Panics
    ///
    /// Panics if no node state exists at `addr`.
    pub fn recover_node(&mut self, addr: Addr) {
        self.core.recover_node(addr);
    }

    /// Permanently removes a node, dropping its state. Returns the state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<P> {
        self.core.remove_node(addr)
    }

    /// Runs `f` against a live node immediately (at the current simulated
    /// time), flushing any sends/timers/upcalls it produces. This is how a
    /// harness injects client operations.
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or down.
    pub fn invoke<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        self.core.invoke(addr, f);
    }

    /// Drains the collected upcalls.
    pub fn drain_upcalls(&mut self) -> Vec<(SimTime, Addr, P::Upcall)> {
        std::mem::take(&mut self.core.upcalls)
    }

    /// Drains the collected upcalls into `buf`, retaining the internal
    /// buffer's capacity. Harnesses that collect after every operation
    /// should prefer this over [`Self::drain_upcalls`]: neither side
    /// reallocates once the buffers reach steady-state size.
    pub fn drain_upcalls_into(&mut self, buf: &mut Vec<(SimTime, Addr, P::Upcall)>) {
        buf.append(&mut self.core.upcalls);
    }

    /// Throws away the collected upcalls without surrendering the
    /// buffer (for harness phases that only advance the clock).
    pub fn discard_upcalls(&mut self) {
        self.core.upcalls.clear();
    }

    /// Runs until the event queue and fault schedule are exhausted.
    pub fn run_until_idle(&mut self) {
        self.core.run_through(SimTime(u64::MAX));
    }

    /// Runs until the queue is empty or `deadline` is reached; events
    /// and faults at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.core.run_through(deadline);
        self.core.advance_to(deadline);
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now() + span);
    }

    /// Number of queued events (for harness diagnostics and back-pressure).
    pub fn queue_len(&self) -> usize {
        self.core.queue_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformTopology;

    /// Test protocol: counts pings, echoes pongs, supports timers.
    struct PingPong {
        pings_seen: u32,
        timer_tokens: Vec<u64>,
    }

    impl PingPong {
        fn new() -> Self {
            PingPong {
                pings_seen: 0,
                timer_tokens: Vec::new(),
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Msg = Msg;
        type Upcall = &'static str;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, &'static str>, from: Addr, msg: Msg) {
            match msg {
                Msg::Ping => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => ctx.emit("pong"),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, &'static str>, token: u64) {
            self.timer_tokens.push(token);
            ctx.emit("timer");
        }
    }

    fn sim2() -> Simulator<PingPong> {
        let topo = UniformTopology::new(4, SimDuration::from_millis(5));
        let mut sim = Simulator::new(Box::new(topo), 1);
        sim.add_node(Addr(0), PingPong::new());
        sim.add_node(Addr(1), PingPong::new());
        sim
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut sim = sim2();
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
        let ups = sim.drain_upcalls();
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].1, Addr(0));
        // Two 5 ms hops.
        assert_eq!(ups[0].0, SimTime(10_000));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = sim2();
        sim.invoke(Addr(0), |_p, ctx| {
            ctx.set_timer(SimDuration::from_millis(30), 3);
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(20), 2);
        });
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(0)).unwrap().timer_tokens, vec![1, 2, 3]);
    }

    #[test]
    fn messages_to_dead_nodes_dropped() {
        let mut sim = sim2();
        sim.fail_node(Addr(1));
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 0);
    }

    #[test]
    fn failed_node_keeps_state_and_recovers() {
        let mut sim = sim2();
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
        sim.fail_node(Addr(1));
        assert!(!sim.is_up(Addr(1)));
        sim.recover_node(Addr(1));
        assert!(sim.is_up(Addr(1)));
        // Disk state survived the failure.
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
    }

    #[test]
    fn timers_suppressed_while_down() {
        let mut sim = sim2();
        sim.invoke(Addr(1), |_p, ctx| ctx.set_timer(SimDuration::from_millis(1), 9));
        sim.fail_node(Addr(1));
        sim.run_until_idle();
        assert!(sim.node(Addr(1)).unwrap().timer_tokens.is_empty());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = sim2();
        sim.invoke(Addr(0), |_p, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(50), 2);
        });
        sim.run_until(SimTime(20_000));
        assert_eq!(sim.node(Addr(0)).unwrap().timer_tokens, vec![1]);
        assert_eq!(sim.now(), SimTime(20_000));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(0)).unwrap().timer_tokens, vec![1, 2]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let topo = UniformTopology::new(4, SimDuration::from_millis(5));
            let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), seed);
            sim.add_node(Addr(0), PingPong::new());
            sim.add_node(Addr(1), PingPong::new());
            sim.set_loss_probability(0.5);
            for _ in 0..32 {
                sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
            }
            sim.run_until_idle();
            sim.node(Addr(1)).unwrap().pings_seen
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn loss_probability_drops_messages() {
        let topo = UniformTopology::new(2, SimDuration::from_millis(1));
        let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), 11);
        sim.add_node(Addr(0), PingPong::new());
        sim.add_node(Addr(1), PingPong::new());
        sim.set_loss_probability(1.0);
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.stats().delivered, 0);
    }

    /// A slot is reserved at `send` and must be freed on every way out
    /// of the queue: delivery, a partition, loss, a crashed destination,
    /// a removed one and an address that never held a node. The slab is
    /// then never longer than the deepest backlog.
    #[test]
    fn every_way_out_of_the_queue_frees_the_slot() {
        use crate::fault::FaultPlan;
        let topo = UniformTopology::new(7, SimDuration::from_millis(5));
        let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), 9);
        for i in 0..6 {
            sim.add_node(Addr(i), PingPong::new());
        }
        sim.set_fault_plan(
            FaultPlan::new()
                .partition(SimTime::ZERO, SimTime(1_000_000), vec![Addr(0)])
                .link_loss(Addr(1), Addr(2), 1.0),
        );
        sim.fail_node(Addr(3));
        sim.remove_node(Addr(4));
        for _ in 0..8 {
            // Cut off by the partition.
            sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
            // Lost; to a crashed node; to a removed one; to an address
            // that never held one; delivered, and so is its pong.
            sim.invoke(Addr(1), |_p, ctx| {
                for dst in [2, 3, 4, 6, 5] {
                    ctx.send(Addr(dst), Msg::Ping);
                }
            });
            sim.run_for(SimDuration::from_millis(2));
        }
        sim.run_until_idle();
        let stats = sim.stats();
        assert_eq!(stats.partition_dropped, 8);
        assert_eq!(stats.lost, 8);
        assert_eq!(stats.dropped, 8 + 8 + 3 * 8);
        assert_eq!(stats.delivered, 2 * 8, "ping and pong");
        let (slots, vacant) = sim.core.parcels_occupancy();
        assert_eq!(slots, vacant, "a dropped message kept its slot");
        assert!(slots as u64 <= stats.queue_peak);
    }

    #[test]
    #[should_panic]
    fn double_occupancy_panics() {
        let mut sim = sim2();
        sim.add_node(Addr(0), PingPong::new());
    }

    #[test]
    fn remove_node_returns_state() {
        let mut sim = sim2();
        let state = sim.remove_node(Addr(0)).unwrap();
        assert_eq!(state.pings_seen, 0);
        assert!(!sim.is_up(Addr(0)));
        assert!(sim.remove_node(Addr(0)).is_none());
    }

    #[test]
    fn live_addrs_lists_up_nodes() {
        let mut sim = sim2();
        sim.fail_node(Addr(0));
        let live: Vec<Addr> = sim.live_addrs().collect();
        assert_eq!(live, vec![Addr(1)]);
    }

    #[test]
    fn fault_plan_crash_and_recover_applied_in_order() {
        use crate::fault::FaultPlan;
        let mut sim = sim2();
        sim.set_fault_plan(
            FaultPlan::new()
                .crash_at(SimTime(10_000), Addr(1))
                .recover_at(SimTime(40_000), Addr(1)),
        );
        // Sent at t=0, arrives t=5ms: delivered before the crash.
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        // A timer at t=20ms sends another ping, arriving at t=25ms
        // while Addr(1) is down: dropped.
        sim.invoke(Addr(0), |_p, ctx| ctx.set_timer(SimDuration::from_millis(20), 7));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
        let stats = sim.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert!(sim.is_up(Addr(1)), "recovery applied even after queue drained");
    }

    #[test]
    fn fault_plan_partition_drops_both_directions() {
        use crate::fault::FaultPlan;
        let topo = UniformTopology::new(4, SimDuration::from_millis(5));
        let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), 3);
        for i in 0..4 {
            sim.add_node(Addr(i), PingPong::new());
        }
        sim.set_fault_plan(FaultPlan::new().partition(
            SimTime::ZERO,
            SimTime(1_000_000),
            vec![Addr(0), Addr(1)],
        ));
        // Across the cut, both directions: dropped.
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(2), Msg::Ping));
        sim.invoke(Addr(2), |_p, ctx| ctx.send(Addr(0), Msg::Ping));
        // Same side: delivered.
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.stats().partition_dropped, 2);
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
        assert_eq!(sim.node(Addr(0)).unwrap().pings_seen, 0);
        assert_eq!(sim.node(Addr(2)).unwrap().pings_seen, 0);
        // After the window, the same send goes through.
        sim.run_until(SimTime(2_000_000));
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(2), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(2)).unwrap().pings_seen, 1);
    }

    #[test]
    fn fault_plan_link_loss_is_per_link() {
        use crate::fault::FaultPlan;
        let topo = UniformTopology::new(3, SimDuration::from_millis(1));
        let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), 5);
        for i in 0..3 {
            sim.add_node(Addr(i), PingPong::new());
        }
        sim.set_fault_plan(FaultPlan::new().link_loss(Addr(0), Addr(1), 1.0));
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(2), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 0, "lossy link");
        assert_eq!(sim.node(Addr(2)).unwrap().pings_seen, 1, "clean link");
        assert_eq!(sim.stats().lost, 1);
    }

    #[test]
    fn fault_plan_jitter_delays_but_preserves_delivery() {
        use crate::fault::FaultPlan;
        let mut sim = sim2();
        sim.set_fault_plan(FaultPlan::new().jitter(SimDuration::from_millis(50)));
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().pings_seen, 1);
        assert!(sim.stats().jittered >= 1);
        // Base latency 5ms; jittered delivery lands in [5ms, 55ms].
        assert!(sim.now() >= SimTime(5_000));
        assert!(sim.now() <= SimTime(110_000));
    }

    #[test]
    fn fault_plan_runs_deterministically() {
        use crate::fault::FaultPlan;
        let run = |seed| {
            let topo = UniformTopology::new(8, SimDuration::from_millis(5));
            let mut sim: Simulator<PingPong> = Simulator::new(Box::new(topo), seed);
            let addrs: Vec<Addr> = (0..8).map(Addr).collect();
            for &a in &addrs {
                sim.add_node(a, PingPong::new());
            }
            sim.set_fault_plan(
                FaultPlan::new()
                    .poisson_churn(
                        seed,
                        &addrs,
                        SimDuration::from_secs(30),
                        SimDuration::from_secs(5),
                        SimTime::ZERO,
                        SimTime(120_000_000),
                    )
                    .jitter(SimDuration::from_millis(10))
                    .link_loss(Addr(0), Addr(1), 0.3),
            );
            for i in 0..64u32 {
                let from = Addr(i % 8);
                let to = Addr((i + 1) % 8);
                if sim.is_up(from) {
                    sim.invoke(from, move |_p, ctx| ctx.send(to, Msg::Ping));
                }
                sim.run_for(SimDuration::from_secs(2));
            }
            sim.run_until_idle();
            let s = sim.stats();
            (s.delivered, s.dropped, s.crashes, s.recoveries, s.lost)
        };
        assert_eq!(run(11), run(11));
    }
}
