//! One shard of the multi-core simulation engine: a disjoint subset of
//! nodes with its own event queue, per-node RNG streams, fault
//! sub-schedule and outboxes for cross-shard sends.
//!
//! # The shard-invariant total order
//!
//! The single-threaded engine orders same-timestamp events by a global
//! enqueue sequence number, which cannot be reproduced when shards run
//! concurrently. Shards instead key every event by
//! `(arrival, sent, source, source_seq)` where `source_seq` is a
//! per-*node* output counter. A node's outputs are numbered by its own
//! execution history, which depends only on the events it received —
//! never on how nodes are partitioned — so the key (and with it the
//! entire execution) is identical at any shard count. Uniqueness holds
//! because `(source, source_seq)` is unique per output.
//!
//! Randomness follows the same rule: each node owns an RNG stream
//! seeded from `(master seed, address)`; loss is drawn from the
//! *destination* node's stream (deliveries to a node are totally
//! ordered by the key above), jitter from the *source* node's stream
//! (outputs are ordered by `source_seq`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::Addr;
use crate::fault::{FaultPlan, NodeFault};
use crate::proto::{Ctx, NetStats, Output, Protocol};
use crate::queue::{Event, EventQueue, Parcels};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Derives a node's RNG seed from the master seed (SplitMix64
/// finalizer over a golden-ratio-spread address, so adjacent addresses
/// land in unrelated streams).
fn node_rng_seed(master: u64, addr: Addr) -> u64 {
    let mut z = master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(addr.0 as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard-invariant total order (see module docs): `(arrival, sent,
/// source, source_seq)`. Arrival ties break by send time first, which
/// also matches the legacy engine's enqueue order whenever send times
/// differ; `source_seq` is the source node's output sequence number.
pub(crate) type ShardKey = (SimTime, SimTime, u32, u64);

/// A cross-shard send waiting in an outbox for the next barrier: its
/// key, and the slot its message keeps in the *sender's* slab until the
/// barrier moves it, once, into the destination's.
pub(crate) struct Outbound {
    key: ShardKey,
    slot: u32,
}

struct ShardSlot<P> {
    proto: Option<P>,
    up: bool,
    /// This node's private RNG stream.
    rng: StdRng,
    /// Output counter: numbers every send, timer and upcall the node
    /// emits, in emission order.
    oseq: u64,
}

/// One shard: the nodes `addr.index() % shards == shard_id`, their
/// event queue, and the outboxes toward every other shard.
pub(crate) struct ShardCore<P: Protocol> {
    shard_id: usize,
    shards: usize,
    /// Slots indexed by `addr.index() / shards`.
    slots: Vec<Option<ShardSlot<P>>>,
    queue: EventQueue<ShardKey>,
    parcels: Parcels<P::Msg>,
    topology: Arc<dyn Topology>,
    master_seed: u64,
    time: SimTime,
    loss_probability: f64,
    fault_plan: Arc<FaultPlan>,
    /// This shard's slice of the crash/recover schedule.
    fault_schedule: Vec<(SimTime, NodeFault)>,
    fault_cursor: usize,
    stats: NetStats,
    /// `(at, node, node_oseq, upcall)` — the extra fields order
    /// same-instant upcalls deterministically at the merge.
    upcalls: Vec<(SimTime, Addr, u64, P::Upcall)>,
    /// Cross-shard sends of the current window, one box per destination
    /// shard (an own-shard send only gains its heap entry).
    outboxes: Vec<Vec<Outbound>>,
    /// Fragment recorder for `past-obs` (present only while the
    /// harness records metrics).
    pub(crate) recorder: Option<past_obs::Recorder>,
    scratch: Vec<Output<P::Upcall>>,
}

impl<P: Protocol> ShardCore<P> {
    pub(crate) fn new(
        shard_id: usize,
        shards: usize,
        topology: Arc<dyn Topology>,
        master_seed: u64,
    ) -> Self {
        ShardCore {
            shard_id,
            shards,
            slots: Vec::new(),
            queue: EventQueue::with_capacity(256),
            parcels: Parcels::with_capacity(256),
            topology,
            master_seed,
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

    pub(crate) fn owns(&self, addr: Addr) -> bool {
        addr.index() % self.shards == self.shard_id
    }

    fn local_index(&self, addr: Addr) -> usize {
        debug_assert!(self.owns(addr), "addr {addr} not owned by shard");
        addr.index() / self.shards
    }

    /// The slot for `addr`, created (empty, with its RNG stream) on
    /// first touch. Lazy creation is deterministic because the stream
    /// is a pure function of `(master_seed, addr)`.
    fn slot_mut(&mut self, addr: Addr) -> &mut ShardSlot<P> {
        let li = self.local_index(addr);
        if self.slots.len() <= li {
            self.slots.resize_with(li + 1, || None);
        }
        let seed = node_rng_seed(self.master_seed, addr);
        self.slots[li].get_or_insert_with(|| ShardSlot {
            proto: None,
            up: false,
            rng: StdRng::seed_from_u64(seed),
            oseq: 0,
        })
    }

    fn slot(&self, addr: Addr) -> Option<&ShardSlot<P>> {
        self.slots.get(addr.index() / self.shards)?.as_ref()
    }

    pub(crate) fn add_node(&mut self, addr: Addr, proto: P, at: SimTime) {
        assert!(
            addr.index() < self.topology.capacity(),
            "address {addr} outside topology capacity {}",
            self.topology.capacity()
        );
        let slot = self.slot_mut(addr);
        assert!(slot.proto.is_none(), "address {addr} already occupied");
        slot.proto = Some(proto);
        slot.up = true;
        self.dispatch(addr, at, |p, ctx| p.on_start(ctx));
    }

    pub(crate) fn is_up(&self, addr: Addr) -> bool {
        self.slot(addr)
            .map(|s| s.proto.is_some() && s.up)
            .unwrap_or(false)
    }

    pub(crate) fn node(&self, addr: Addr) -> Option<&P> {
        self.slot(addr).and_then(|s| s.proto.as_ref())
    }

    pub(crate) fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.slots
            .get_mut(addr.index() / self.shards)?
            .as_mut()
            .and_then(|s| s.proto.as_mut())
    }

    /// Live addresses owned by this shard, in address order.
    pub(crate) fn live_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.slots.iter().enumerate().filter_map(|(li, s)| {
            let s = s.as_ref()?;
            (s.proto.is_some() && s.up)
                .then(|| Addr((li * self.shards + self.shard_id) as u32))
        })
    }

    pub(crate) fn fail_node(&mut self, addr: Addr) {
        let now = self.time;
        if let Some(s) = self
            .slots
            .get_mut(addr.index() / self.shards)
            .and_then(|s| s.as_mut())
        {
            if s.up {
                if let Some(proto) = s.proto.as_mut() {
                    // Context-free by design, so the hook cannot observe
                    // shard boundaries (no sends, timers, or RNG draws).
                    proto.on_crash(now);
                }
            }
            s.up = false;
        }
    }

    pub(crate) fn recover_node(&mut self, addr: Addr, at: SimTime) {
        let slot = self.slot_mut(addr);
        assert!(slot.proto.is_some(), "no node state at {addr}");
        slot.up = true;
        self.dispatch(addr, at, |p, ctx| p.on_recover(ctx));
    }

    pub(crate) fn remove_node(&mut self, addr: Addr) -> Option<P> {
        let s = self
            .slots
            .get_mut(addr.index() / self.shards)?
            .as_mut()?;
        s.up = false;
        s.proto.take()
    }

    pub(crate) fn set_loss_probability(&mut self, p: f64) {
        self.loss_probability = p;
    }

    pub(crate) fn set_fault_inputs(
        &mut self,
        schedule: Vec<(SimTime, NodeFault)>,
        plan: Arc<FaultPlan>,
    ) {
        self.fault_schedule = schedule;
        self.fault_cursor = 0;
        self.fault_plan = plan;
    }

    pub(crate) fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Pending events: the local queue plus anything awaiting the next
    /// barrier exchange in the outboxes.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len() + self.outboxes.iter().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn reserve(&mut self, events: usize, upcalls: usize) {
        self.queue.reserve(events);
        self.parcels.reserve(events);
        self.upcalls
            .reserve(upcalls.saturating_sub(self.upcalls.len()));
    }

    /// See [`Parcels::occupancy`].
    #[cfg(test)]
    pub(crate) fn parcels_occupancy(&self) -> (usize, usize) {
        self.parcels.occupancy()
    }

    pub(crate) fn set_time(&mut self, t: SimTime) {
        debug_assert!(t >= self.time, "shard time must be monotonic");
        self.time = t;
    }

    pub(crate) fn time(&self) -> SimTime {
        self.time
    }

    pub(crate) fn take_upcalls(&mut self, buf: &mut Vec<(SimTime, Addr, u64, P::Upcall)>) {
        buf.append(&mut self.upcalls);
    }

    pub(crate) fn discard_upcalls(&mut self) {
        self.upcalls.clear();
    }

    /// The barrier exchange, one direction: takes what `from` sent this
    /// shard during the window, each message moving from `from`'s slab
    /// into this one's. `from` keeps its outbox, emptied, with its
    /// capacity.
    pub(crate) fn receive(&mut self, from: &mut Self) {
        let batch = &mut from.outboxes[self.shard_id];
        if batch.is_empty() {
            return;
        }
        for Outbound { key, slot } in batch.drain(..) {
            let (src, dst) = from.parcels.route(slot);
            debug_assert!(self.owns(dst));
            let slot = self.parcels.insert(src, dst, from.parcels.take(slot));
            self.queue.push_deliver(key, slot);
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }

    /// The earliest pending timestamp on this shard (event or fault).
    pub(crate) fn next_ts(&self) -> Option<SimTime> {
        let e = self.next_event_at();
        let f = self.next_fault_at();
        match (e, f) {
            (Some(e), Some(f)) => Some(e.min(f)),
            (Some(e), None) => Some(e),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|key| key.0)
    }

    fn next_fault_at(&self) -> Option<SimTime> {
        self.fault_schedule
            .get(self.fault_cursor)
            .map(|(t, _)| *t)
    }

    /// Processes every event and fault with timestamp `< end`,
    /// swapping this shard's fragment recorder into the thread-local
    /// slot for the duration (protocol instrumentation reaches the
    /// right recorder on any thread).
    pub(crate) fn run_window(&mut self, end: SimTime) {
        if self.recorder.is_some() {
            let prev = past_obs::install(self.recorder.take().expect("checked"));
            self.run_window_inner(end);
            self.recorder = past_obs::uninstall();
            if let Some(p) = prev {
                past_obs::install(p);
            }
        } else {
            self.run_window_inner(end);
        }
    }

    fn run_window_inner(&mut self, end: SimTime) {
        loop {
            let next_event = self.next_event_at();
            let next_fault = self.next_fault_at();
            // Fault-before-event on ties, exactly like the legacy engine.
            let fault_first = match (next_fault, next_event) {
                (Some(f), Some(e)) => f <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if fault_first {
                let f = next_fault.expect("fault_first");
                if f >= end {
                    break;
                }
                self.apply_next_fault();
            } else {
                match next_event {
                    Some(e) if e < end => self.step_event(),
                    _ => break,
                }
            }
        }
    }

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
                    .slot(addr)
                    .map(|s| s.proto.is_some() && !s.up)
                    .unwrap_or(false);
                if down {
                    let at = self.time;
                    self.recover_node(addr, at);
                    self.stats.recoveries += 1;
                }
            }
        }
    }

    fn step_event(&mut self) {
        let Some((key, event)) = self.queue.pop() else {
            return;
        };
        debug_assert!(key.0 >= self.time, "time must be monotonic");
        self.time = key.0;
        self.stats.events += 1;
        match event {
            Event::Deliver { slot } => self.deliver(slot),
            Event::Timer { node, token } => {
                if self.is_up(node) {
                    self.stats.timers_fired += 1;
                    past_obs::counter("net.timers_fired", 1);
                    let at = self.time;
                    self.dispatch(node, at, |p, ctx| p.on_timer(ctx, token));
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
        // Loss draws come from the destination's stream so their order
        // is pinned by the delivery order.
        if p > 0.0 && self.slot_mut(dst).rng.gen::<f64>() < p {
            self.stats.dropped += 1;
            self.stats.lost += 1;
            past_obs::counter("net.lost", 1);
            return self.parcels.discard(slot);
        }
        let li = self.local_index(dst);
        let Some(ShardSlot {
            proto: Some(proto),
            up: true,
            rng,
            ..
        }) = self.slots.get_mut(li).and_then(Option::as_mut)
        else {
            self.stats.dropped += 1;
            past_obs::counter("net.dropped_dead", 1);
            return self.parcels.discard(slot);
        };
        self.stats.delivered += 1;
        past_obs::counter("net.delivered", 1);
        let at = self.time;
        let msg = self.parcels.take(slot);
        let mut ctx = Ctx {
            now: at,
            self_addr: dst,
            topology: &*self.topology,
            rng,
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        proto.on_message(&mut ctx, src, msg);
        self.flush(dst, at);
    }

    /// Like [`ShardCore::dispatch`], but with this shard's fragment
    /// recorder swapped into the thread-local slot — the coordinator
    /// uses this for injection (`invoke`, recoveries) so spans and
    /// counters land in the same mergeable registry as window
    /// processing does, at any shard count.
    pub(crate) fn dispatch_obs<F>(&mut self, addr: Addr, at: SimTime, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        if self.recorder.is_some() {
            let prev = past_obs::install(self.recorder.take().expect("checked"));
            self.dispatch(addr, at, f);
            self.recorder = past_obs::uninstall();
            if let Some(p) = prev {
                past_obs::install(p);
            }
        } else {
            self.dispatch(addr, at, f);
        }
    }

    /// Runs a handler against a node, borrowed in place in its slot, and
    /// flushes its outputs.
    pub(crate) fn dispatch<F>(&mut self, addr: Addr, at: SimTime, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        // Materialize the slot so its RNG exists even for a first-ever
        // touch; the slot, the topology, the parcel slab and the output
        // scratch are disjoint fields from here on.
        let li = self.local_index(addr);
        self.slot_mut(addr);
        let slot = self.slots[li].as_mut().expect("slot just materialized");
        let Some(proto) = slot.proto.as_mut() else {
            return;
        };
        let mut ctx = Ctx {
            now: at,
            self_addr: addr,
            topology: &*self.topology,
            rng: &mut slot.rng,
            parcels: &mut self.parcels,
            out: &mut self.scratch,
        };
        f(proto, &mut ctx);
        self.flush(addr, at);
    }

    /// Queues what the handler that just ran at `addr` asked for, in
    /// the order it asked. A send's message stays where `Ctx::send` wrote
    /// it: an own-shard send gains its heap entry, a cross-shard send an
    /// outbox entry for the barrier to act on.
    fn flush(&mut self, addr: Addr, at: SimTime) {
        let li = self.local_index(addr);
        let node = self.slots[li].as_mut().expect("a handler just ran here");
        let jitter_max = self.fault_plan.jitter_max().micros();
        for output in self.scratch.drain(..) {
            match output {
                Output::Send { dst, slot } => {
                    let mut latency = self.topology.latency(addr, dst);
                    if jitter_max > 0 {
                        // Jitter comes from the sender's stream, in
                        // output order.
                        let j = node.rng.gen_range(0..jitter_max + 1);
                        latency = latency + SimDuration::from_micros(j);
                        self.stats.jittered += 1;
                    }
                    if past_obs::is_enabled() {
                        past_obs::counter("net.sent", 1);
                        past_obs::observe("net.transit_us", latency.micros());
                    }
                    node.oseq += 1;
                    let key = (at + latency, at, addr.0, node.oseq);
                    let dst_shard = dst.index() % self.shards;
                    if dst_shard == self.shard_id {
                        self.queue.push_deliver(key, slot);
                    } else {
                        self.outboxes[dst_shard].push(Outbound { key, slot });
                    }
                }
                Output::Timer { delay, token } => {
                    node.oseq += 1;
                    self.queue
                        .push_timer((at + delay, at, addr.0, node.oseq), addr, token);
                }
                Output::Upcall(u) => {
                    node.oseq += 1;
                    self.upcalls.push((at, addr, node.oseq, u));
                }
            }
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len() as u64);
    }
}
