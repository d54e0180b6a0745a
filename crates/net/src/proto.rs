//! The protocol-facing surface shared by both simulation engines.
//!
//! [`Protocol`] and [`Ctx`] are what node state machines program
//! against; [`NetStats`] is what harnesses read back. Both the
//! single-threaded [`crate::Simulator`] and the sharded
//! [`crate::ShardedSim`] drive the same trait through the same context,
//! so protocol code is engine-agnostic by construction.

use rand::rngs::StdRng;

use crate::addr::Addr;
use crate::queue::Parcels;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// A protocol instance running on one emulated node.
///
/// Handlers receive a [`Ctx`] for sending messages, arming timers,
/// querying the proximity metric and emitting *upcalls* (protocol-level
/// events that the experiment harness collects, e.g. "insert completed").
pub trait Protocol: Sized {
    /// Message type exchanged between nodes.
    type Msg;
    /// Harness-visible event type.
    type Upcall;

    /// Invoked once when the node is added to the network (and again on
    /// recovery unless [`Protocol::on_recover`] is overridden).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>) {
        let _ = ctx;
    }

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>, from: Addr, msg: Self::Msg);

    /// Invoked when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>, token: u64) {
        let _ = (ctx, token);
    }

    /// Invoked when the node crashes (scheduled fault or harness call).
    /// Deliberately context-free: a crashing node cannot send messages,
    /// arm timers, or draw randomness — which also makes the hook
    /// trivially invariant across shard counts. The node's state is
    /// kept while it is down, so protocols use the hook only to drop
    /// what a real crash would lose and to mark a warm restart.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when a previously failed node comes back online.
    /// Defaults to [`Protocol::on_start`].
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>) {
        self.on_start(ctx);
    }
}

/// Handler context: the API a protocol uses to interact with the network.
pub struct Ctx<'a, M, U> {
    pub(crate) now: SimTime,
    pub(crate) self_addr: Addr,
    pub(crate) topology: &'a dyn Topology,
    pub(crate) rng: &'a mut StdRng,
    /// The engine's parcel slab: a sent message is written here, once.
    pub(crate) parcels: &'a mut Parcels<M>,
    pub(crate) out: &'a mut Vec<Output<U>>,
}

/// What a handler asked for, in the order it asked; the engine turns
/// these into queued events once the handler returns. A send is only
/// the slot its message already occupies.
pub(crate) enum Output<U> {
    Send { dst: Addr, slot: u32 },
    Timer { delay: SimDuration, token: u64 },
    Upcall(U),
}

impl<'a, M, U> Ctx<'a, M, U> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's address.
    pub fn addr(&self) -> Addr {
        self.self_addr
    }

    /// Sends `msg` to `dst`; it arrives after the topology's latency.
    #[inline]
    pub fn send(&mut self, dst: Addr, msg: M) {
        let slot = self.parcels.insert(self.self_addr, dst, msg);
        self.out.push(Output::Send { dst, slot });
    }

    /// Arms a timer that fires after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.out.push(Output::Timer { delay, token });
    }

    /// Emits a harness-visible event.
    pub fn emit(&mut self, upcall: U) {
        self.out.push(Output::Upcall(upcall));
    }

    /// Scalar proximity between this node and `other` (e.g. an RTT probe).
    pub fn proximity(&self, other: Addr) -> f64 {
        self.topology.distance(self.self_addr, other)
    }

    /// Deterministic RNG. Under the single-threaded engine this is one
    /// per-simulation stream; under the sharded engine it is a per-node
    /// stream seeded from `(master seed, address)`, which keeps every
    /// draw independent of how nodes are partitioned into shards.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Counters describing network-level activity, including every fault
/// injected by an installed [`crate::FaultPlan`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages dropped for any reason (dead/absent destination,
    /// injected loss, or an active partition).
    pub dropped: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Events processed in total.
    pub events: u64,
    /// Scheduled node crashes applied.
    pub crashes: u64,
    /// Scheduled node recoveries applied.
    pub recoveries: u64,
    /// Messages dropped by injected loss (global or per-link).
    pub lost: u64,
    /// Messages dropped by an active partition.
    pub partition_dropped: u64,
    /// Messages whose latency received injected jitter.
    pub jittered: u64,
    /// High-water mark of the event queue (sizing diagnostics). Under
    /// the sharded engine this is the sum of per-shard peaks — an
    /// upper bound on the true global peak, and the one stats field
    /// that is *not* invariant across shard counts.
    pub queue_peak: u64,
}

impl NetStats {
    /// Folds another engine shard's counters into this one. Every field
    /// sums, `queue_peak` included: the merged value is the *sum of the
    /// per-shard peaks*, an upper bound on the global peak (shards need
    /// not peak at the same instant) rather than the peak itself. It is
    /// kept that way because recorded results pin it.
    pub fn merge_from(&mut self, o: &NetStats) {
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.timers_fired += o.timers_fired;
        self.events += o.events;
        self.crashes += o.crashes;
        self.recoveries += o.recoveries;
        self.lost += o.lost;
        self.partition_dropped += o.partition_dropped;
        self.jittered += o.jittered;
        self.queue_peak += o.queue_peak;
    }
}
