//! The shard order: how one shard of [`crate::ShardedSim`] keys its
//! events and draws its randomness. A shard is the event core under
//! this order, holding the nodes `addr.index() % shards == shard`.
//!
//! # The shard-invariant total order
//!
//! The legacy order breaks ties between same-timestamp events by a
//! global enqueue sequence number, which cannot be reproduced when
//! shards run concurrently. The shard order instead keys every event by
//! `(arrival, sent, source, source_seq)`, where `source_seq` is a
//! per-*node* output counter. A node's outputs are numbered by its own
//! execution history, which depends only on the events it received —
//! never on how nodes are partitioned — so the key (and with it the
//! entire execution) is identical at any shard count. Uniqueness holds
//! because `(source, source_seq)` is unique per output. Arrival ties
//! break by send time first, which also matches the legacy order
//! whenever send times differ.
//!
//! Randomness follows the same rule: each node owns an RNG stream
//! seeded from `(master seed, address)`; loss is drawn from the
//! *destination* node's stream (deliveries to a node are totally
//! ordered by the key above), jitter and handler draws from the node's
//! own (its outputs are ordered by `source_seq`).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::addr::Addr;
use crate::engine::{Core, Order};
use crate::time::SimTime;
use crate::topology::Topology;

/// One shard of the sharded engine.
pub(crate) type ShardCore<P> = Core<P, ShardOrder>;

/// The shard order of one shard (see the module docs).
pub(crate) struct ShardOrder {
    pub(crate) shard: usize,
    pub(crate) shards: usize,
    pub(crate) master_seed: u64,
}

/// A node's private RNG stream, and its output counter: it numbers
/// every send, timer and upcall the node emits, in emission order.
pub(crate) struct NodeStream {
    rng: StdRng,
    oseq: u64,
}

impl Order for ShardOrder {
    type Tie = (SimTime, u32, u64);
    type Stream = NodeStream;
    type Topology = Arc<dyn Topology>;

    fn partition(&self) -> (usize, usize) {
        (self.shards, self.shard)
    }

    /// SplitMix64 finalizer over a golden-ratio-spread address, so
    /// adjacent addresses land in unrelated streams.
    fn stream(&self, addr: Addr) -> NodeStream {
        let mut z = self.master_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(addr.0 as u64 + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        NodeStream {
            rng: StdRng::seed_from_u64(z ^ (z >> 31)),
            oseq: 0,
        }
    }

    fn rng<'a>(&'a mut self, stream: &'a mut NodeStream) -> &'a mut StdRng {
        &mut stream.rng
    }

    fn tie(&mut self, stream: &mut NodeStream, src: Addr, now: SimTime) -> Self::Tie {
        stream.oseq += 1;
        (now, src.0, stream.oseq)
    }

    fn count_upcall(&mut self, stream: &mut NodeStream) {
        stream.oseq += 1;
    }
}
