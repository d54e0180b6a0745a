//! The one event core under both engines.
//!
//! A [`Core`] is a node table, an [`EventQueue`] and the [`Parcels`]
//! slab its deliveries point into, a crash/recover schedule, the
//! [`NetStats`], the upcalls and the handler output scratch, and all
//! that acts on them: adding, failing, recovering and removing a node,
//! applying a scheduled fault, stepping, delivering, dispatching a
//! handler and flushing what it asked for. Both public engines are this
//! core and differ only in its [`Order`], a type parameter fixed by the
//! engine a caller constructs:
//!
//! - [`crate::Simulator`] is one core under the legacy order
//!   (`sim.rs`): one shard, events keyed `(arrival, global seq)`, every
//!   random draw from one engine-wide stream.
//! - [`crate::ShardedSim`] runs one core per shard under the shard order
//!   (`shard.rs`): events keyed `(arrival, sent, source, source seq)`,
//!   every draw from a node's own stream.
//!
//! The lookahead windows, the barrier that moves cross-shard sends
//! between cores and the upcall merge are `ShardedSim`'s.

use std::ops::Deref;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::addr::Addr;
use crate::fault::{FaultPlan, NodeFault};
use crate::proto::{Ctx, NetStats, Output, Protocol};
use crate::queue::{Event, EventQueue, Parcels};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// What the two engines differ on: how an event is keyed past its
/// arrival time, and which RNG stream a draw comes from. It also says
/// which addresses a core holds and how it holds the topology; the
/// legacy order is one shard that holds them all, so it pays nothing
/// for partitioning.
pub(crate) trait Order {
    /// Breaks ties between events of one arrival time; `(arrival, tie)`
    /// is unique per event, so the pop order is a pure function of it.
    type Tie: Ord + Copy;
    /// What a node's slot holds besides the node: its RNG stream and
    /// output counter under the shard order, nothing under the legacy.
    type Stream;
    /// How the core holds the topology: a box of its own under the
    /// legacy order, a share of the one every shard reads under the
    /// shard order. A `Box<dyn _>` reaches its value without the
    /// offset an `Arc<dyn _>` works out on every use.
    type Topology: Deref<Target = dyn Topology>;

    /// `(shards, shard)`: the core holds the addresses `a` with
    /// `a % shards == shard`, `a` in slot `a / shards`. The legacy
    /// order's is the constant `(1, 0)`, so its slot is the address and
    /// no division is made.
    fn partition(&self) -> (usize, usize);
    /// The stream of a new slot for `addr`.
    fn stream(&self, addr: Addr) -> Self::Stream;
    /// The RNG that draws for the node owning `stream`: its handlers,
    /// the jitter of its sends and the loss of messages to it.
    fn rng<'a>(&'a mut self, stream: &'a mut Self::Stream) -> &'a mut StdRng;
    /// The tie of the next send or timer that `src`, owning `stream`,
    /// emits at `now`.
    fn tie(&mut self, stream: &mut Self::Stream, src: Addr, now: SimTime) -> Self::Tie;
    /// Numbers an upcall among `stream`'s outputs.
    fn count_upcall(&mut self, _stream: &mut Self::Stream) {}
}

/// A node's place in the table; `proto` is `None` until a node is added
/// and after it is removed.
struct Slot<P, S> {
    proto: Option<P>,
    up: bool,
    stream: S,
}

/// A cross-shard send waiting in an outbox for the barrier: its key,
/// and the slot its message keeps in the *sender's* slab until the
/// barrier moves it into the destination's.
struct Outbound<T> {
    key: (SimTime, T),
    slot: u32,
}

/// One event core (see the module docs).
pub(crate) struct Core<P: Protocol, O: Order> {
    order: O,
    slots: Vec<Slot<P, O::Stream>>,
    queue: EventQueue<(SimTime, O::Tie)>,
    parcels: Parcels<P::Msg>,
    topology: O::Topology,
    time: SimTime,
    loss_probability: f64,
    fault_plan: Arc<FaultPlan>,
    /// The crash/recover entries of this core's nodes, in time order.
    fault_schedule: Vec<(SimTime, NodeFault)>,
    fault_cursor: usize,
    stats: NetStats,
    pub(crate) upcalls: Vec<(SimTime, Addr, P::Upcall)>,
    /// Sends to nodes of other shards, one box per shard, until the
    /// barrier; empty under the legacy order.
    outboxes: Vec<Vec<Outbound<O::Tie>>>,
    /// The shard's `past-obs` fragment while metrics are on. The legacy
    /// engine has none and records into the caller's recorder.
    pub(crate) recorder: Option<past_obs::Recorder>,
    scratch: Vec<Output<P::Upcall>>,
}

impl<P: Protocol, O: Order> Core<P, O> {
    pub(crate) fn new(order: O, topology: O::Topology) -> Self {
        let shards = order.partition().0;
        Core {
            order,
            slots: Vec::new(),
            queue: EventQueue::with_capacity(256),
            parcels: Parcels::with_capacity(256),
            topology,
            time: SimTime::ZERO,
            loss_probability: 0.0,
            fault_plan: Arc::new(FaultPlan::default()),
            fault_schedule: Vec::new(),
            fault_cursor: 0,
            stats: NetStats::default(),
            upcalls: Vec::new(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            recorder: None,
            scratch: Vec::with_capacity(64),
        }
    }

    fn owns(&self, addr: Addr) -> bool {
        let (shards, shard) = self.order.partition();
        addr.index() % shards == shard
    }

    fn index(&self, addr: Addr) -> usize {
        debug_assert!(self.owns(addr), "address {addr} not held by this core");
        addr.index() / self.order.partition().0
    }

    fn slot(&self, addr: Addr) -> Option<&Slot<P, O::Stream>> {
        self.slots.get(self.index(addr))
    }

    /// The slot index of `addr`, the table grown to it first. Growth is
    /// deterministic: a stream is a pure function of its address.
    fn grow_to(&mut self, addr: Addr) -> usize {
        let i = self.index(addr);
        let (shards, shard) = self.order.partition();
        while self.slots.len() <= i {
            let stream = self
                .order
                .stream(Addr((self.slots.len() * shards + shard) as u32));
            self.slots.push(Slot {
                proto: None,
                up: false,
                stream,
            });
        }
        i
    }

    /// Pre-sizes the event queue, the slab and the upcall buffer.
    pub(crate) fn reserve(&mut self, events: usize, upcalls: usize) {
        self.queue.reserve(events);
        self.parcels.reserve(events);
        self.upcalls
            .reserve(upcalls.saturating_sub(self.upcalls.len()));
    }

    pub(crate) fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_probability = p;
    }

    /// Installs `plan`, keeping the crash/recover entries of this
    /// core's nodes.
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        let mut schedule = plan.schedule();
        schedule.retain(|&(_, NodeFault::Crash(a) | NodeFault::Recover(a))| self.owns(a));
        self.fault_schedule = schedule;
        self.fault_cursor = 0;
        self.fault_plan = plan;
    }

    pub(crate) fn now(&self) -> SimTime {
        self.time
    }

    /// Moves the clock forward to `t` (never back).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.time = self.time.max(t);
    }

    pub(crate) fn stats(&self) -> NetStats {
        self.stats
    }

    /// Pending events: the queue and the outboxes.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len() + self.outboxes.iter().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn add_node(&mut self, addr: Addr, proto: P) {
        assert!(
            addr.index() < self.topology.capacity(),
            "address {addr} outside topology capacity {}",
            self.topology.capacity()
        );
        let i = self.grow_to(addr);
        let slot = &mut self.slots[i];
        assert!(slot.proto.is_none(), "address {addr} already occupied");
        slot.proto = Some(proto);
        slot.up = true;
        self.dispatch(addr, |p, ctx| p.on_start(ctx));
    }

    pub(crate) fn is_up(&self, addr: Addr) -> bool {
        self.slot(addr).is_some_and(|s| s.proto.is_some() && s.up)
    }

    pub(crate) fn node(&self, addr: Addr) -> Option<&P> {
        self.slot(addr)?.proto.as_ref()
    }

    pub(crate) fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        let i = self.index(addr);
        self.slots.get_mut(i)?.proto.as_mut()
    }

    /// Live addresses held by this core, in address order.
    pub(crate) fn live_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        let (shards, shard) = self.order.partition();
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.proto.is_some() && s.up)
            .map(move |(i, _)| Addr((i * shards + shard) as u32))
    }

    /// Marks a node failed, keeping its state. [`Protocol::on_crash`]
    /// runs once per up→down transition; it is context-free, so it
    /// sends, arms and draws nothing.
    pub(crate) fn fail_node(&mut self, addr: Addr) {
        let now = self.time;
        let i = self.index(addr);
        if let Some(slot) = self.slots.get_mut(i) {
            if let (true, Some(proto)) = (slot.up, slot.proto.as_mut()) {
                proto.on_crash(now);
            }
            slot.up = false;
        }
    }

    pub(crate) fn recover_node(&mut self, addr: Addr) {
        let i = self.grow_to(addr);
        let slot = &mut self.slots[i];
        assert!(slot.proto.is_some(), "no node state at {addr}");
        slot.up = true;
        self.dispatch(addr, |p, ctx| p.on_recover(ctx));
    }

    pub(crate) fn remove_node(&mut self, addr: Addr) -> Option<P> {
        let i = self.index(addr);
        let slot = self.slots.get_mut(i)?;
        slot.up = false;
        slot.proto.take()
    }

    /// Runs `f` against a live node now and queues what it asked for.
    pub(crate) fn invoke<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        assert!(self.is_up(addr), "invoke on absent/down node {addr}");
        self.dispatch(addr, f);
    }

    /// Runs `f` with this core's fragment recorder, if it has one, in
    /// the thread's `past-obs` slot, so what `f` records lands in the
    /// core's mergeable fragment.
    pub(crate) fn recording(&mut self, f: impl FnOnce(&mut Self)) {
        let Some(recorder) = self.recorder.take() else {
            return f(self);
        };
        let prev = past_obs::install(recorder);
        f(self);
        self.recorder = past_obs::uninstall();
        if let Some(p) = prev {
            past_obs::install(p);
        }
    }

    fn next_fault_at(&self) -> Option<SimTime> {
        self.fault_schedule.get(self.fault_cursor).map(|(t, _)| *t)
    }

    /// The earliest pending timestamp, event or fault.
    pub(crate) fn next_ts(&self) -> Option<SimTime> {
        let next_event = self.queue.peek_key().map(|(at, _)| at);
        next_event.into_iter().chain(self.next_fault_at()).min()
    }

    /// Processes every scheduled fault and queued event at or before
    /// `last`, in time order. A fault goes first on a tie, so a message
    /// to a node crashing "now" is dropped.
    pub(crate) fn run_through(&mut self, last: SimTime) {
        loop {
            let fault = self.next_fault_at().filter(|&f| f <= last);
            let due = |&(at, _): &(SimTime, O::Tie)| at <= last && fault.is_none_or(|f| at < f);
            match self.queue.pop_if(due) {
                Some(((at, _), event)) => self.step_event(at, event),
                None if fault.is_some() => self.apply_next_fault(),
                None => break,
            }
        }
    }

    /// Applies the next scheduled fault, advancing the clock to its
    /// timestamp. Faults against absent nodes, crashes of down nodes
    /// and recoveries of up (or removed) nodes are no-ops.
    fn apply_next_fault(&mut self) {
        let (t, fault) = self.fault_schedule[self.fault_cursor];
        self.fault_cursor += 1;
        self.advance_to(t);
        match fault {
            NodeFault::Crash(addr) => {
                if self.is_up(addr) {
                    self.fail_node(addr);
                    self.stats.crashes += 1;
                }
            }
            NodeFault::Recover(addr) => {
                if self.slot(addr).is_some_and(|s| s.proto.is_some() && !s.up) {
                    self.recover_node(addr);
                    self.stats.recoveries += 1;
                }
            }
        }
    }

    fn step_event(&mut self, at: SimTime, event: Event) {
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
        if p > 0.0 {
            let i = self.grow_to(dst);
            if self.order.rng(&mut self.slots[i].stream).gen::<f64>() < p {
                self.stats.dropped += 1;
                self.stats.lost += 1;
                past_obs::counter("net.lost", 1);
                return self.parcels.discard(slot);
            }
        }
        let i = self.index(dst);
        let Some(Slot {
            proto: Some(proto),
            up: true,
            stream,
        }) = self.slots.get_mut(i)
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
            rng: self.order.rng(stream),
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        proto.on_message(&mut ctx, src, msg);
        self.flush(dst);
    }

    /// Runs a handler against the node at `addr`, borrowed in place in
    /// its slot, then queues its outputs. The node, the topology, the
    /// RNG, the parcel slab and the output scratch are disjoint fields,
    /// so nothing is moved out for the duration of the call.
    fn dispatch<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        let i = self.index(addr);
        let Some(Slot {
            proto: Some(proto),
            stream,
            ..
        }) = self.slots.get_mut(i)
        else {
            return;
        };
        let mut ctx = Ctx {
            now: self.time,
            self_addr: addr,
            topology: &*self.topology,
            rng: self.order.rng(stream),
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        f(proto, &mut ctx);
        self.flush(addr);
    }

    /// Queues what the handler that just ran at `addr` asked for, in
    /// the order it asked: latency, the jitter draw, the key and the
    /// heap entry of a send are all assigned here, so event keys and RNG
    /// draws do not depend on when the message was written. A send's
    /// message stays where `Ctx::send` wrote it; a send to another
    /// shard's node waits in an outbox for the barrier.
    fn flush(&mut self, addr: Addr) {
        let now = self.time;
        let (shards, shard) = self.order.partition();
        let jitter_max = self.fault_plan.jitter_max().micros();
        let i = self.index(addr);
        let stream = &mut self.slots[i].stream;
        for output in self.scratch.drain(..) {
            match output {
                Output::Send { dst, slot } => {
                    let mut latency = self.topology.latency(addr, dst);
                    if jitter_max > 0 {
                        let j = self.order.rng(stream).gen_range(0..jitter_max + 1);
                        latency = latency + SimDuration::from_micros(j);
                        self.stats.jittered += 1;
                    }
                    if past_obs::is_enabled() {
                        past_obs::counter("net.sent", 1);
                        past_obs::observe("net.transit_us", latency.micros());
                    }
                    let key = (now + latency, self.order.tie(stream, addr, now));
                    let to = dst.index() % shards;
                    if to == shard {
                        self.queue.push_deliver(key, slot);
                    } else {
                        self.outboxes[to].push(Outbound { key, slot });
                    }
                }
                Output::Timer { delay, token } => {
                    let key = (now + delay, self.order.tie(stream, addr, now));
                    self.queue.push_timer(key, addr, token);
                }
                Output::Upcall(u) => {
                    self.order.count_upcall(stream);
                    self.upcalls.push((now, addr, u));
                }
            }
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }

    /// The barrier exchange, one direction: takes what `from` sent this
    /// core's shard during the window, each message moving from `from`'s
    /// slab straight into this one's. `from` keeps its outbox, emptied,
    /// with its capacity.
    pub(crate) fn receive(&mut self, from: &mut Self) {
        let batch = &mut from.outboxes[self.order.partition().1];
        if batch.is_empty() {
            return;
        }
        for Outbound { key, slot } in batch.drain(..) {
            let slot = self.parcels.move_from(&mut from.parcels, slot);
            self.queue.push_deliver(key, slot);
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }

    /// See [`Parcels::occupancy`].
    #[cfg(test)]
    pub(crate) fn parcels_occupancy(&self) -> (usize, usize) {
        self.parcels.occupancy()
    }
}
