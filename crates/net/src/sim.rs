//! The single-threaded discrete-event simulator core.
//!
//! The paper's prototype ran up to 2250 PAST nodes inside a single Java VM
//! communicating through a network emulation layer. This module is the
//! Rust equivalent: every node is a deterministic state machine driven by
//! delivered messages and timers; an event queue orders all activity by
//! simulated time with a strict total order (time, then sequence number),
//! so any experiment is exactly reproducible from its seed.
//!
//! The protocol surface ([`Protocol`], [`Ctx`], [`NetStats`]) lives in
//! [`crate::proto`], shared with the multi-core [`crate::ShardedSim`]
//! engine; this file is the reference engine both are measured against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::Addr;
use crate::fault::{FaultPlan, NodeFault};
use crate::proto::{Ctx, NetStats, Output, Protocol};
use crate::queue::{Event, EventQueue, Parcels};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// The strict total order of this engine: arrival time, then the global
/// enqueue sequence number.
pub(crate) type SeqKey = (SimTime, u64);

struct NodeSlot<P> {
    proto: Option<P>,
    up: bool,
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
    nodes: Vec<NodeSlot<P>>,
    queue: EventQueue<SeqKey>,
    parcels: Parcels<P::Msg>,
    topology: Box<dyn Topology>,
    time: SimTime,
    seq: u64,
    rng: StdRng,
    loss_probability: f64,
    fault_plan: FaultPlan,
    fault_schedule: Vec<(SimTime, NodeFault)>,
    fault_cursor: usize,
    stats: NetStats,
    upcalls: Vec<(SimTime, Addr, P::Upcall)>,
    scratch: Vec<Output<P::Upcall>>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates an empty simulator over `topology`, seeded for determinism.
    pub fn new(topology: Box<dyn Topology>, seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: EventQueue::with_capacity(1024),
            parcels: Parcels::with_capacity(1024),
            topology,
            time: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            loss_probability: 0.0,
            fault_plan: FaultPlan::default(),
            fault_schedule: Vec::new(),
            fault_cursor: 0,
            stats: NetStats::default(),
            upcalls: Vec::with_capacity(64),
            scratch: Vec::with_capacity(64),
        }
    }

    /// Pre-sizes the event queue (heap and message slab) and the upcall
    /// buffer. Large experiments keep hundreds of thousands of events
    /// in flight; reserving up front avoids the doubling reallocations
    /// on the way there.
    pub fn reserve_capacity(&mut self, events: usize, upcalls: usize) {
        self.queue.reserve(events);
        self.parcels.reserve(events);
        self.upcalls
            .reserve(upcalls.saturating_sub(self.upcalls.len()));
    }

    /// Sets an i.i.d. message-loss probability (0 disables loss).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_probability = p;
    }

    /// Installs a fault plan. Crash/recover entries are interleaved
    /// with the event queue by timestamp; partitions, per-link loss and
    /// jitter act on individual messages. Entries scheduled before the
    /// current time apply immediately on the next step (time never
    /// rewinds). Replaces any previously installed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_schedule = plan.schedule();
        self.fault_plan = plan;
        self.fault_cursor = 0;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        &*self.topology
    }

    /// Adds a node and runs its `on_start` handler.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the topology capacity or is occupied.
    pub fn add_node(&mut self, addr: Addr, proto: P) {
        assert!(
            addr.index() < self.topology.capacity(),
            "address {addr} outside topology capacity {}",
            self.topology.capacity()
        );
        if self.nodes.len() <= addr.index() {
            self.nodes.resize_with(addr.index() + 1, || NodeSlot {
                proto: None,
                up: false,
            });
        }
        let slot = &mut self.nodes[addr.index()];
        assert!(slot.proto.is_none(), "address {addr} already occupied");
        slot.proto = Some(proto);
        slot.up = true;
        self.dispatch(addr, |p, ctx| p.on_start(ctx));
    }

    /// Returns whether `addr` hosts a live node.
    pub fn is_up(&self, addr: Addr) -> bool {
        self.nodes
            .get(addr.index())
            .map(|s| s.proto.is_some() && s.up)
            .unwrap_or(false)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, addr: Addr) -> Option<&P> {
        self.nodes.get(addr.index()).and_then(|s| s.proto.as_ref())
    }

    /// Mutable access to a node's protocol state (bypasses the network —
    /// intended for harness inspection and test setup).
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.nodes
            .get_mut(addr.index())
            .and_then(|s| s.proto.as_mut())
    }

    /// Iterates over all live node addresses.
    pub fn live_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.proto.is_some() && s.up)
            .map(|(i, _)| Addr(i as u32))
    }

    /// Marks a node as failed: pending and future messages/timers for it
    /// are dropped, but its state (disk contents) is retained. The
    /// protocol's context-free [`Protocol::on_crash`] hook runs once per
    /// up→down transition (e.g. to snapshot state for a warm restart).
    pub fn fail_node(&mut self, addr: Addr) {
        let now = self.time;
        if let Some(slot) = self.nodes.get_mut(addr.index()) {
            if slot.up {
                if let Some(proto) = slot.proto.as_mut() {
                    proto.on_crash(now);
                }
            }
            slot.up = false;
        }
    }

    /// Brings a failed node back online and runs its `on_recover` handler.
    ///
    /// # Panics
    ///
    /// Panics if no node state exists at `addr`.
    pub fn recover_node(&mut self, addr: Addr) {
        let slot = self
            .nodes
            .get_mut(addr.index())
            .expect("no node at address");
        assert!(slot.proto.is_some(), "no node state at {addr}");
        slot.up = true;
        self.dispatch(addr, |p, ctx| p.on_recover(ctx));
    }

    /// Permanently removes a node, dropping its state. Returns the state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<P> {
        self.nodes.get_mut(addr.index()).and_then(|s| {
            s.up = false;
            s.proto.take()
        })
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
        assert!(self.is_up(addr), "invoke on absent/down node {addr}");
        self.dispatch(addr, f);
    }

    /// Drains the collected upcalls.
    pub fn drain_upcalls(&mut self) -> Vec<(SimTime, Addr, P::Upcall)> {
        std::mem::take(&mut self.upcalls)
    }

    /// Drains the collected upcalls into `buf`, retaining the internal
    /// buffer's capacity. Harnesses that collect after every operation
    /// should prefer this over [`Self::drain_upcalls`]: neither side
    /// reallocates once the buffers reach steady-state size.
    pub fn drain_upcalls_into(&mut self, buf: &mut Vec<(SimTime, Addr, P::Upcall)>) {
        buf.append(&mut self.upcalls);
    }

    /// Throws away the collected upcalls without surrendering the
    /// buffer (for harness phases that only advance the clock).
    pub fn discard_upcalls(&mut self) {
        self.upcalls.clear();
    }

    /// Processes a single event or scheduled fault. Returns `false`
    /// when both the event queue and the fault schedule are exhausted.
    pub fn step(&mut self) -> bool {
        // Apply scheduled faults due at or before the next event; a
        // fault at the same instant as a delivery applies first, so a
        // message to a node crashing "now" is dropped.
        while let Some(fault_at) = self.next_fault_at() {
            match self.queue.peek_key() {
                Some((at, _)) if at < fault_at => break,
                Some(_) => self.apply_next_fault(),
                None => {
                    self.apply_next_fault();
                    return true;
                }
            }
        }
        self.step_event()
    }

    /// Runs until the event queue and fault schedule are exhausted.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or `deadline` is reached; events
    /// and faults at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            let next_event = self.queue.peek_key().map(|(at, _)| at);
            let next_fault = self.next_fault_at();
            let fault_first = match (next_fault, next_event) {
                (Some(f), Some(e)) => f <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if fault_first {
                if next_fault.expect("fault_first") > deadline {
                    break;
                }
                self.apply_next_fault();
            } else {
                match next_event {
                    Some(e) if e <= deadline => {
                        self.step_event();
                    }
                    _ => break,
                }
            }
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    fn next_fault_at(&self) -> Option<SimTime> {
        self.fault_schedule
            .get(self.fault_cursor)
            .map(|(t, _)| *t)
    }

    /// Applies the next scheduled fault, advancing simulated time to
    /// its timestamp. Faults against absent nodes, crashes of already
    /// down nodes and recoveries of up (or removed) nodes are no-ops.
    fn apply_next_fault(&mut self) {
        let (t, fault) = self.fault_schedule[self.fault_cursor];
        self.fault_cursor += 1;
        if t > self.time {
            self.time = t;
        }
        match fault {
            NodeFault::Crash(addr) => {
                if self.is_up(addr) {
                    self.fail_node(addr);
                    self.stats.crashes += 1;
                }
            }
            NodeFault::Recover(addr) => {
                let down = self
                    .nodes
                    .get(addr.index())
                    .map(|s| s.proto.is_some() && !s.up)
                    .unwrap_or(false);
                if down {
                    self.recover_node(addr);
                    self.stats.recoveries += 1;
                }
            }
        }
    }

    /// Pops and processes one queued event (no fault handling).
    fn step_event(&mut self) -> bool {
        let Some(((at, _), event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.time, "time must be monotonic");
        self.time = at;
        self.stats.events += 1;
        match event {
            Event::Deliver { slot } => self.deliver(slot),
            Event::Timer { node, token } => {
                if self.is_up(node) {
                    self.stats.timers_fired += 1;
                    past_obs::counter("net.timers_fired", 1);
                    self.dispatch(node, |p, ctx| p.on_timer(ctx, token));
                }
            }
        }
        true
    }

    /// Delivers the parcel in `slot`, or drops it: source and
    /// destination are read where they lie, every drop frees the slot,
    /// and a delivery moves the message out once, into the handler.
    fn deliver(&mut self, slot: u32) {
        let (src, dst) = self.parcels.route(slot);
        if self.fault_plan.severed(self.time, src, dst) {
            self.stats.dropped += 1;
            self.stats.partition_dropped += 1;
            past_obs::counter("net.partition_dropped", 1);
            return self.parcels.discard(slot);
        }
        let p = self.loss_probability.max(self.fault_plan.loss_on(src, dst));
        if p > 0.0 && self.rng.gen::<f64>() < p {
            self.stats.dropped += 1;
            self.stats.lost += 1;
            past_obs::counter("net.lost", 1);
            return self.parcels.discard(slot);
        }
        let Some(proto) = self
            .nodes
            .get_mut(dst.index())
            .filter(|s| s.up)
            .and_then(|s| s.proto.as_mut())
        else {
            self.stats.dropped += 1;
            past_obs::counter("net.dropped_dead", 1);
            return self.parcels.discard(slot);
        };
        self.stats.delivered += 1;
        past_obs::counter("net.delivered", 1);
        let msg = self.parcels.take(slot);
        let mut ctx = Ctx {
            now: self.time,
            self_addr: dst,
            topology: &*self.topology,
            rng: &mut self.rng,
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        proto.on_message(&mut ctx, src, msg);
        self.flush(dst);
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.time + span;
        self.run_until(deadline);
    }

    /// Number of queued events (for harness diagnostics and back-pressure).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Runs a handler against the node at `addr`, borrowed in place in
    /// the node vector, then turns its outputs into queued events. The
    /// node, the topology, the RNG, the parcel slab and the output
    /// scratch are disjoint fields, so nothing is moved out for the
    /// duration of the call.
    fn dispatch<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        let Some(proto) = self
            .nodes
            .get_mut(addr.index())
            .and_then(|s| s.proto.as_mut())
        else {
            return;
        };
        let mut ctx = Ctx {
            now: self.time,
            self_addr: addr,
            topology: &*self.topology,
            rng: &mut self.rng,
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        f(proto, &mut ctx);
        self.flush(addr);
    }

    /// Queues what the handler that just ran at `addr` asked for, in
    /// the order it asked: latency, the jitter draw, the sequence number
    /// and the heap entry of a send are all assigned here, so event
    /// keys and RNG draws do not depend on when the message was written.
    fn flush(&mut self, addr: Addr) {
        for output in self.scratch.drain(..) {
            match output {
                Output::Send { dst, slot } => {
                    let mut latency = self.topology.latency(addr, dst);
                    let jitter_max = self.fault_plan.jitter_max().micros();
                    if jitter_max > 0 {
                        let j = self.rng.gen_range(0..jitter_max + 1);
                        latency = latency + SimDuration::from_micros(j);
                        self.stats.jittered += 1;
                    }
                    if past_obs::is_enabled() {
                        past_obs::counter("net.sent", 1);
                        past_obs::observe("net.transit_us", latency.micros());
                    }
                    self.seq += 1;
                    self.queue
                        .push_deliver((self.time + latency, self.seq), slot);
                }
                Output::Timer { delay, token } => {
                    self.seq += 1;
                    self.queue
                        .push_timer((self.time + delay, self.seq), addr, token);
                }
                Output::Upcall(u) => {
                    self.upcalls.push((self.time, addr, u));
                }
            }
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
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
        let (slots, vacant) = sim.parcels.occupancy();
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
