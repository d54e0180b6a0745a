//! The event queue and the parcel slab of the event core.
//!
//! A binary heap sifts its entries by value, so an entry that carries the
//! message inline makes every level of every push and pop a copy of the
//! whole message (an `Envelope<PastMsg>` is 176 bytes; the heap is 13
//! levels deep at an 8k-event backlog). Here the heaps hold only what
//! ordering needs, and nothing between a send and its delivery holds
//! the message but the slab:
//!
//! - **Parcels** ([`Parcels`]): [`crate::Ctx::send`] writes (source,
//!   destination, message) into a free slot of the slab and hands the
//!   core the `u32` slot. The core reads source and destination in
//!   place for its drop checks, then either frees the slot or moves the
//!   message out once, into the destination's handler. Freed slots go
//!   on a free list and are reused before the slab grows, so the slab
//!   is never longer than the most parcels in flight at once. The slab
//!   is a field of the core beside the queue, not of the queue, so
//!   that a handler's [`crate::Ctx`] can borrow it while the core
//!   still holds the nodes.
//! - **Deliveries**: the heap entry is the ordering key plus the slot.
//! - **Timers** carry no slot: a timer *is* `(node, token)`, twelve
//!   bytes, less than the slab line a slot would point at, so it rides
//!   whole in a heap of its own. Timers wait seconds where messages wait
//!   milliseconds; kept apart they do not deepen the heap the messages
//!   sift through.
//!
//! [`EventQueue::pop_if`] takes whichever head has the smaller key, so the
//! two heaps behave as one queue under the core's total order. Keys
//! must be unique (both orders' are), which makes the pop order a pure
//! function of the keys pushed.
//!
//! A key is `(arrival, tie)`, the tie the event core's order's: the
//! global `seq` under the legacy order, `(sent, src, sseq)` under the
//! shard order. The arrival time is all the core reads back.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::addr::Addr;

/// A message in flight. `msg` is `None` while the slot is on the free
/// list; an `Option` field rather than an `Option<Parcel>` so that a
/// send writes the message straight into the slot.
struct Parcel<M> {
    src: Addr,
    dst: Addr,
    msg: Option<M>,
}

/// The slab every in-flight message waits in, from `send` to delivery.
pub(crate) struct Parcels<M> {
    slots: Vec<Parcel<M>>,
    /// Vacant indices of `slots`, reused last-freed-first.
    free: Vec<u32>,
}

impl<M> Parcels<M> {
    pub(crate) fn with_capacity(parcels: usize) -> Self {
        Parcels {
            slots: Vec::with_capacity(parcels),
            free: Vec::new(),
        }
    }

    /// Makes room for `parcels` in flight without regrowing.
    pub(crate) fn reserve(&mut self, parcels: usize) {
        self.slots
            .reserve(parcels.saturating_sub(self.slots.len()));
    }

    /// Stores a message and returns its slot.
    #[inline]
    pub(crate) fn insert(&mut self, src: Addr, dst: Addr, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let parcel = &mut self.slots[slot as usize];
                parcel.src = src;
                parcel.dst = dst;
                parcel.msg = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX messages in flight");
                self.slots.push(Parcel {
                    src,
                    dst,
                    msg: Some(msg),
                });
                slot
            }
        }
    }

    /// Moves the parcel in `from`'s `slot` into this slab and returns
    /// its new slot, freeing the old one. The message goes slab to slab
    /// in one step, swapped with a vacant slot's `None`, not through
    /// the stack.
    #[inline]
    pub(crate) fn move_from(&mut self, from: &mut Parcels<M>, slot: u32) -> u32 {
        let (src, dst) = from.route(slot);
        let to = match self.free.pop() {
            Some(to) => to,
            None => {
                self.slots.push(Parcel {
                    src,
                    dst,
                    msg: None,
                });
                u32::try_from(self.slots.len() - 1)
                    .expect("more than u32::MAX messages in flight")
            }
        };
        let parcel = &mut self.slots[to as usize];
        parcel.src = src;
        parcel.dst = dst;
        std::mem::swap(&mut parcel.msg, &mut from.slots[slot as usize].msg);
        from.free.push(slot);
        to
    }

    /// `(source, destination)` of the parcel in `slot`.
    #[inline]
    pub(crate) fn route(&self, slot: u32) -> (Addr, Addr) {
        let parcel = &self.slots[slot as usize];
        (parcel.src, parcel.dst)
    }

    /// Moves the message out of `slot` and frees it. The move comes
    /// last: with nothing after it, the message is copied from the slab
    /// straight into the place the caller wants it, not via a temporary.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32) -> M {
        self.free.push(slot);
        self.slots[slot as usize]
            .msg
            .take()
            .expect("a queued delivery owns its slot")
    }

    /// `(slots, vacant slots)`: equal when nothing is in flight.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }

    /// Drops the message in `slot` where it lies and frees the slot.
    pub(crate) fn discard(&mut self, slot: u32) {
        let parcel = &mut self.slots[slot as usize];
        debug_assert!(parcel.msg.is_some(), "a queued delivery owns its slot");
        parcel.msg = None;
        self.free.push(slot);
    }
}

/// A heap entry: `item` ordered by `key` alone, earliest key first
/// (`BinaryHeap` is a max-heap, so the comparison is inverted).
struct Keyed<K, T> {
    key: K,
    item: T,
}

impl<K: Ord, T> PartialEq for Keyed<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, T> Eq for Keyed<K, T> {}
impl<K: Ord, T> PartialOrd for Keyed<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Keyed<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Heap entry of a delivery: the ordering key and the parcel's slot.
type DeliverEntry<K> = Keyed<K, u32>;

/// Heap entry of a timer: the ordering key and the timer itself,
/// `(node, token)`.
type TimerEntry<K> = Keyed<K, (Addr, u64)>;

/// What [`EventQueue::pop_if`] hands back.
pub(crate) enum Event {
    /// The parcel in `slot` of the engine's [`Parcels`] is due.
    Deliver { slot: u32 },
    Timer { node: Addr, token: u64 },
}

/// A priority queue of deliveries and timers ordered by `K`, earliest
/// first (see the module docs).
pub(crate) struct EventQueue<K> {
    deliveries: BinaryHeap<DeliverEntry<K>>,
    timers: BinaryHeap<TimerEntry<K>>,
}

impl<K: Ord + Copy> EventQueue<K> {
    pub(crate) fn with_capacity(events: usize) -> Self {
        EventQueue {
            deliveries: BinaryHeap::with_capacity(events),
            timers: BinaryHeap::new(),
        }
    }

    /// Queued events of both kinds.
    pub(crate) fn len(&self) -> usize {
        self.deliveries.len() + self.timers.len()
    }

    /// Makes room for a backlog of `events` without regrowing.
    pub(crate) fn reserve(&mut self, events: usize) {
        self.deliveries
            .reserve(events.saturating_sub(self.deliveries.len()));
    }

    /// Queues the delivery of the parcel in `slot`.
    pub(crate) fn push_deliver(&mut self, key: K, slot: u32) {
        self.deliveries.push(Keyed { key, item: slot });
    }

    pub(crate) fn push_timer(&mut self, key: K, node: Addr, token: u64) {
        self.timers.push(Keyed {
            key,
            item: (node, token),
        });
    }

    /// The key `pop` would return next.
    pub(crate) fn peek_key(&self) -> Option<K> {
        match (self.deliveries.peek(), self.timers.peek()) {
            (Some(d), Some(t)) => Some(d.key.min(t.key)),
            (Some(d), None) => Some(d.key),
            (None, Some(t)) => Some(t.key),
            (None, None) => None,
        }
    }

    /// Removes and returns the event with the smallest key.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<(K, Event)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the event with the smallest key if `due`
    /// holds for that key; one look at the two heads serves both the
    /// check and the pop.
    #[inline]
    pub(crate) fn pop_if(&mut self, due: impl FnOnce(&K) -> bool) -> Option<(K, Event)> {
        let (head, timer_first) = match (self.deliveries.peek(), self.timers.peek()) {
            (Some(d), Some(t)) if t.key < d.key => (t.key, true),
            (Some(d), _) => (d.key, false),
            (None, Some(t)) => (t.key, true),
            (None, None) => return None,
        };
        if !due(&head) {
            return None;
        }
        if timer_first {
            let Keyed {
                key,
                item: (node, token),
            } = self.timers.pop()?;
            return Some((key, Event::Timer { node, token }));
        }
        let Keyed { key, item: slot } = self.deliveries.pop()?;
        Some((key, Event::Deliver { slot }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Order;
    use crate::proto::Output;
    use crate::shard::ShardOrder;
    use crate::sim::Legacy;
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::mem::size_of;

    type SeqKey = (SimTime, <Legacy as Order>::Tie);
    type ShardKey = (SimTime, <ShardOrder as Order>::Tie);

    /// What the sift path and the output scratch move, under each
    /// order's own key type: a later field must not silently refatten
    /// them.
    #[test]
    fn heap_entries_and_outputs_stay_small() {
        assert!(size_of::<DeliverEntry<SeqKey>>() <= 24);
        assert!(size_of::<DeliverEntry<ShardKey>>() <= 40);
        // A timer entry is the whole timer, whatever the message type.
        assert!(size_of::<TimerEntry<SeqKey>>() <= 32);
        assert!(size_of::<TimerEntry<ShardKey>>() <= 48);
        // An output names a message by its slot; nothing in it is as
        // wide as a message.
        assert!(size_of::<Output<u64>>() <= 24);
        assert!(size_of::<Event>() <= 16);
    }

    /// The whole event in one heap entry, as both engines queued it
    /// before the slab: the reference the queue is held to.
    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone)]
    enum Whole {
        Deliver { src: u32, dst: u32, msg: [u64; 4] },
        Timer { node: u32, token: u64 },
    }

    /// Pops one event and resolves a delivery against the slab the way
    /// an engine does: read the route in place, then either move the
    /// message out (`deliver`) or drop it where it lies.
    fn pop_whole(
        queue: &mut EventQueue<SeqKey>,
        parcels: &mut Parcels<[u64; 4]>,
        deliver: bool,
    ) -> Option<(SeqKey, Whole)> {
        let (key, event) = queue.pop()?;
        let whole = match event {
            Event::Deliver { slot } => {
                let (src, dst) = parcels.route(slot);
                let msg = if deliver {
                    parcels.take(slot)
                } else {
                    let msg = parcels.slots[slot as usize].msg.expect("queued");
                    parcels.discard(slot);
                    msg
                };
                Whole::Deliver {
                    src: src.0,
                    dst: dst.0,
                    msg,
                }
            }
            Event::Timer { node, token } => Whole::Timer {
                node: node.0,
                token,
            },
        };
        Some((key, whole))
    }

    proptest! {
        /// Any interleaving of sends, flushes, timers and pops —
        /// duplicate timestamps included, messages delivered or dropped
        /// — pops in exactly the order of a heap of whole events. A
        /// slot is reserved at send, before its key exists, and freed on
        /// either way out, so the slab never outgrows the most parcels
        /// in flight (queued or sent and not yet flushed) at once.
        #[test]
        fn pops_like_a_heap_of_whole_events(
            ops in prop::collection::vec((0u8..7, 0u64..8, 0u32..16), 0..400)
        ) {
            let mut queue: EventQueue<SeqKey> = EventQueue::with_capacity(4);
            let mut parcels: Parcels<[u64; 4]> = Parcels::with_capacity(4);
            let mut reference: BinaryHeap<Reverse<(SeqKey, Whole)>> = BinaryHeap::new();
            // Sent by the "running handler", not yet flushed: the
            // engine's output scratch.
            let mut unflushed: Vec<(u32, u64, Whole)> = Vec::new();
            let mut seq = 0u64;
            let mut sent = 0u64;
            let mut peak_in_flight = 0usize;
            for (op, at, who) in ops {
                match op {
                    // `Ctx::send`: the slot is taken now.
                    0..=2 => {
                        sent += 1;
                        let msg = [sent, at, who as u64, !sent];
                        let slot = parcels.insert(Addr(who), Addr(who + 1), msg);
                        unflushed.push((slot, at, Whole::Deliver { src: who, dst: who + 1, msg }));
                    }
                    // The flush: keys are assigned in output order.
                    3 => {
                        for (slot, at, whole) in unflushed.drain(..) {
                            seq += 1;
                            let key = (SimTime(at), seq);
                            queue.push_deliver(key, slot);
                            reference.push(Reverse((key, whole)));
                        }
                    }
                    4 => {
                        seq += 1;
                        let key = (SimTime(at), seq);
                        queue.push_timer(key, Addr(who), seq ^ 0xABCD);
                        reference.push(Reverse((key, Whole::Timer { node: who, token: seq ^ 0xABCD })));
                    }
                    // Pop, delivering (5) or dropping (6) a message.
                    _ => {
                        prop_assert_eq!(queue.peek_key(), reference.peek().map(|r| r.0 .0));
                        let got = pop_whole(&mut queue, &mut parcels, op == 5);
                        let want = reference.pop().map(|r| r.0);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(queue.len(), reference.len());
                let in_flight = queue.deliveries.len() + unflushed.len();
                peak_in_flight = peak_in_flight.max(in_flight);
                prop_assert!(parcels.slots.len() <= peak_in_flight);
                prop_assert_eq!(parcels.slots.len(), in_flight + parcels.free.len());
            }
            for (slot, at, whole) in unflushed.drain(..) {
                seq += 1;
                queue.push_deliver((SimTime(at), seq), slot);
                reference.push(Reverse(((SimTime(at), seq), whole)));
            }
            while let Some(want) = reference.pop() {
                let got = pop_whole(&mut queue, &mut parcels, want.0 .0 .1 % 2 == 0);
                prop_assert_eq!(got, Some(want.0));
            }
            prop_assert!(queue.pop().is_none());
            prop_assert_eq!(parcels.free.len(), parcels.slots.len());
        }
    }

    #[test]
    fn shard_keys_break_ties_by_sent_source_and_sequence() {
        let mut queue: EventQueue<ShardKey> = EventQueue::with_capacity(0);
        let mut parcels: Parcels<&str> = Parcels::with_capacity(0);
        let at = SimTime(10);
        let mut send = |queue: &mut EventQueue<ShardKey>, key: ShardKey, msg| {
            let slot = parcels.insert(Addr(key.1 .1), Addr(0), msg);
            queue.push_deliver(key, slot);
        };
        send(&mut queue, (at, (SimTime(5), 2, 1)), "later-sent");
        queue.push_timer((at, (SimTime(3), 7, 9)), Addr(7), 42);
        send(&mut queue, (at, (SimTime(3), 1, 4)), "lower-src");
        send(&mut queue, (SimTime(9), (SimTime(8), 9, 9)), "earliest");
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|(_, e)| match e {
                Event::Deliver { slot } => parcels.take(slot).to_string(),
                Event::Timer { token, .. } => format!("timer-{token}"),
            })
            .collect();
        assert_eq!(order, ["earliest", "lower-src", "timer-42", "later-sent"]);
    }
}
