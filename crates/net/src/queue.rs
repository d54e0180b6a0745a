//! The event queue shared by both engines.
//!
//! A binary heap sifts its entries by value, so an entry that carries the
//! message inline makes every level of every push and pop a copy of the
//! whole message (an `Envelope<PastMsg>` is 176 bytes; the heap is 13
//! levels deep at an 8k-event backlog). Here the heaps hold only what
//! ordering needs:
//!
//! - **Deliveries**: the heap entry is the ordering key plus a `u32`
//!   slot. The parcel (source, destination, message) sits in a slab and
//!   is written once on push and moved out once on pop; freed slots go
//!   on a free list and are reused before the slab grows, so the slab
//!   is never longer than the deepest delivery backlog.
//! - **Timers** carry no slot: a timer *is* `(node, token)`, twelve
//!   bytes, less than the slab line a slot would point at, so it rides
//!   whole in a heap of its own. Timers wait seconds where messages wait
//!   milliseconds; kept apart they do not deepen the heap the messages
//!   sift through.
//!
//! [`EventQueue::pop`] takes whichever head has the smaller key, so the
//! two heaps behave as one queue under the engine's total order. Keys
//! must be unique (both engines' are), which makes the pop order a pure
//! function of the keys pushed.
//!
//! The key type is the engine's: `(at, seq)` for [`crate::Simulator`],
//! `(at, sent, src, sseq)` for the sharded engine. The first field of
//! either is the arrival time, which is all the engines read back.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::addr::Addr;

/// A message in flight, as stored in the slab.
struct Parcel<M> {
    src: Addr,
    dst: Addr,
    msg: M,
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

/// What [`EventQueue::pop`] hands back.
pub(crate) enum Event<M> {
    Deliver { src: Addr, dst: Addr, msg: M },
    Timer { node: Addr, token: u64 },
}

/// A priority queue of deliveries and timers ordered by `K`, earliest
/// first (see the module docs).
pub(crate) struct EventQueue<K, M> {
    deliveries: BinaryHeap<DeliverEntry<K>>,
    parcels: Vec<Option<Parcel<M>>>,
    /// Vacant indices of `parcels`, reused last-freed-first.
    free: Vec<u32>,
    timers: BinaryHeap<TimerEntry<K>>,
}

impl<K: Ord + Copy, M> EventQueue<K, M> {
    pub(crate) fn with_capacity(events: usize) -> Self {
        EventQueue {
            deliveries: BinaryHeap::with_capacity(events),
            parcels: Vec::with_capacity(events),
            free: Vec::new(),
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
        self.parcels
            .reserve(events.saturating_sub(self.parcels.len()));
    }

    pub(crate) fn push_deliver(&mut self, key: K, src: Addr, dst: Addr, msg: M) {
        let parcel = Some(Parcel { src, dst, msg });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.parcels[slot as usize] = parcel;
                slot
            }
            None => {
                let slot = u32::try_from(self.parcels.len())
                    .expect("more than u32::MAX messages in flight");
                self.parcels.push(parcel);
                slot
            }
        };
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
    pub(crate) fn pop(&mut self) -> Option<(K, Event<M>)> {
        let timer_first = match (self.deliveries.peek(), self.timers.peek()) {
            (Some(d), Some(t)) => t.key < d.key,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if timer_first {
            let Keyed {
                key,
                item: (node, token),
            } = self.timers.pop()?;
            return Some((key, Event::Timer { node, token }));
        }
        let Keyed { key, item: slot } = self.deliveries.pop()?;
        let Parcel { src, dst, msg } = self.parcels[slot as usize]
            .take()
            .expect("a queued delivery owns its slot");
        self.free.push(slot);
        Some((key, Event::Deliver { src, dst, msg }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardKey;
    use crate::sim::SeqKey;
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::mem::size_of;

    /// What the sift path moves, under each engine's own key type: a
    /// later field must not silently refatten it.
    #[test]
    fn heap_entries_stay_small() {
        assert!(size_of::<DeliverEntry<SeqKey>>() <= 24);
        assert!(size_of::<DeliverEntry<ShardKey>>() <= 40);
        // A timer entry is the whole timer, whatever the message type.
        assert!(size_of::<TimerEntry<SeqKey>>() <= 32);
        assert!(size_of::<TimerEntry<ShardKey>>() <= 48);
    }

    /// The whole event in one heap entry, as both engines queued it
    /// before the slab: the reference the queue is held to.
    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone)]
    enum Whole {
        Deliver { src: u32, dst: u32, msg: [u64; 4] },
        Timer { node: u32, token: u64 },
    }

    fn flatten(ev: Event<[u64; 4]>) -> Whole {
        match ev {
            Event::Deliver { src, dst, msg } => Whole::Deliver {
                src: src.0,
                dst: dst.0,
                msg,
            },
            Event::Timer { node, token } => Whole::Timer {
                node: node.0,
                token,
            },
        }
    }

    proptest! {
        /// Any push/pop interleaving — duplicate timestamps included —
        /// pops in exactly the order of a heap of whole events; slots
        /// are reused; the slab never outgrows the peak backlog.
        #[test]
        fn pops_like_a_heap_of_whole_events(
            ops in prop::collection::vec((0u8..5, 0u64..8, 0u32..16), 0..400)
        ) {
            let mut queue: EventQueue<SeqKey, [u64; 4]> = EventQueue::with_capacity(4);
            let mut reference: BinaryHeap<Reverse<(SeqKey, Whole)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut peak_deliveries = 0usize;
            let mut pushed_deliveries = 0usize;
            for (op, at, who) in ops {
                match op {
                    // Pop twice as rarely as push so backlogs build up.
                    0 | 1 => {
                        seq += 1;
                        let key = (SimTime(at), seq);
                        let msg = [seq, at, who as u64, !seq];
                        queue.push_deliver(key, Addr(who), Addr(who + 1), msg);
                        reference.push(Reverse((key, Whole::Deliver { src: who, dst: who + 1, msg })));
                        pushed_deliveries += 1;
                    }
                    2 => {
                        seq += 1;
                        let key = (SimTime(at), seq);
                        queue.push_timer(key, Addr(who), seq ^ 0xABCD);
                        reference.push(Reverse((key, Whole::Timer { node: who, token: seq ^ 0xABCD })));
                    }
                    _ => {
                        prop_assert_eq!(queue.peek_key(), reference.peek().map(|r| r.0 .0));
                        let got = queue.pop().map(|(k, e)| (k, flatten(e)));
                        let want = reference.pop().map(|r| r.0);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(queue.len(), reference.len());
                peak_deliveries = peak_deliveries.max(queue.deliveries.len());
                prop_assert!(queue.parcels.len() <= peak_deliveries);
                prop_assert_eq!(
                    queue.parcels.len(),
                    queue.deliveries.len() + queue.free.len()
                );
            }
            // Slots were reused rather than appended once pops freed some.
            prop_assert!(queue.parcels.len() <= pushed_deliveries);
            while let Some(want) = reference.pop() {
                let got = queue.pop().map(|(k, e)| (k, flatten(e)));
                prop_assert_eq!(got, Some(want.0));
            }
            prop_assert!(queue.pop().is_none());
            prop_assert_eq!(queue.free.len(), queue.parcels.len());
        }
    }

    #[test]
    fn shard_keys_break_ties_by_sent_source_and_sequence() {
        let mut queue: EventQueue<ShardKey, &str> = EventQueue::with_capacity(0);
        let at = SimTime(10);
        queue.push_deliver((at, SimTime(5), 2, 1), Addr(2), Addr(0), "later-sent");
        queue.push_timer((at, SimTime(3), 7, 9), Addr(7), 42);
        queue.push_deliver((at, SimTime(3), 1, 4), Addr(1), Addr(0), "lower-src");
        queue.push_deliver((SimTime(9), SimTime(8), 9, 9), Addr(9), Addr(0), "earliest");
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|(_, e)| match e {
                Event::Deliver { msg, .. } => msg.to_string(),
                Event::Timer { token, .. } => format!("timer-{token}"),
            })
            .collect();
        assert_eq!(order, ["earliest", "lower-src", "timer-42", "later-sent"]);
    }
}
