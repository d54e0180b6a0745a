//! Model check of the sender filter.
//!
//! `PastryState::on_sender_seen` skips an entry it has stamped since the
//! last change that could matter to it. The claim is that a skip is a
//! no-op, so a state driven through the filter and a reference that
//! drives `LeafSet::insert` + `RoutingTable::consider` +
//! `NeighborhoodSet::consider` directly, on every observation, must hold
//! the same members after every step and report the same `LeafChange`.
//!
//! Proximities come from a continuous range (ties never happen) or from
//! a set of three values, the shape `ClusteredTopology` produces (ties
//! are the rule, and the neighbourhood set swaps equal members back and
//! forth). The second shape fails if the filter's epoch stops advancing
//! on a neighbourhood change, both fail if it stops advancing on
//! removals.
//!
//! Some entries share an address under two ids, and some an id at two
//! addresses. The latter is what the filter's slots are chosen by id
//! for: the table and the neighbourhood set follow an id to the address
//! it was last seen at, and a stamp left behind for the old one would
//! hide the way back.

use past_id::NodeId;
use past_net::Addr;
use past_pastry::{
    LeafChange, LeafSet, NeighborhoodSet, NodeEntry, PastryConfig, PastryState, RoutingTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct addresses; the entries beyond them reuse an address under a
/// different id (two ids then share a proximity), and the last `MOVED`
/// reuse an *id* at a new address (one id then has two entries, and the
/// routing table and neighbourhood set follow whichever was seen last).
const ADDRS: usize = 200;
const REUSED: usize = 40;
const MOVED: usize = 20;
const ENTRIES: usize = ADDRS + REUSED + MOVED;

fn cfg() -> PastryConfig {
    // Small sets, so that they fill up and every observation competes.
    PastryConfig {
        leaf_set_size: 8,
        ..Default::default()
    }
}

/// What `PastryState` does on each event, without a filter.
struct Reference {
    own: NodeEntry,
    leaf: LeafSet,
    table: RoutingTable,
    neighborhood: NeighborhoodSet,
}

impl Reference {
    fn new(own: NodeEntry, cfg: &PastryConfig) -> Self {
        Reference {
            own,
            leaf: LeafSet::new(own.id, cfg.leaf_half()),
            table: RoutingTable::new(own.id),
            neighborhood: NeighborhoodSet::new(own.id, cfg.leaf_set_size),
        }
    }

    fn seen(&mut self, entry: NodeEntry, proximity: f64) -> LeafChange {
        if entry.id == self.own.id {
            return LeafChange::None;
        }
        let added = self.leaf.insert(entry);
        self.table.consider(entry, proximity);
        self.neighborhood.consider(entry, proximity);
        if added {
            LeafChange::Added
        } else {
            LeafChange::None
        }
    }

    fn failed(&mut self, id: NodeId) -> LeafChange {
        let was_leaf = self.leaf.remove(id).is_some();
        self.table.remove(id);
        self.neighborhood.remove(id);
        if was_leaf {
            LeafChange::Removed
        } else {
            LeafChange::None
        }
    }
}

fn assert_same(state: &PastryState, reference: &Reference, step: usize) {
    let leaf: Vec<NodeEntry> = state.leaf_set().members().copied().collect();
    let want: Vec<NodeEntry> = reference.leaf.members().copied().collect();
    assert_eq!(leaf, want, "leaf sets differ after step {step}");
    let cells: Vec<_> = state.routing_table().entries().copied().collect();
    let want: Vec<_> = reference.table.entries().copied().collect();
    assert_eq!(cells, want, "routing tables differ after step {step}");
    let near: Vec<_> = state.neighborhood().members().copied().collect();
    let want: Vec<_> = reference.neighborhood.members().copied().collect();
    assert_eq!(near, want, "neighbourhood sets differ after step {step}");
}

/// Replays `ops` on both sides. An op is `(kind, entry index)`: kinds
/// 0–11 observe the entry, 12–13 declare it failed.
fn replay(seed: u64, tied: bool, ops: &[(u8, usize)]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = cfg();
    let own = NodeEntry::new(NodeId::from_u128(rng.gen()), Addr(ADDRS as u32));
    let mut entries: Vec<NodeEntry> = (0..ADDRS + REUSED)
        .map(|i| NodeEntry::new(NodeId::from_u128(rng.gen()), Addr((i % ADDRS) as u32)))
        .collect();
    // A pure function of the address, as every topology's distance is.
    let mut proximity: Vec<f64> = (0..=ADDRS)
        .map(|_| {
            if tied {
                [1.0, 40.0, 90.0][rng.gen_range(0..3)]
            } else {
                rng.gen_range(0.0..1000.0)
            }
        })
        .collect();
    // The moved ids' new addresses follow the owner's, each as far away
    // as the old one: `NeighborhoodSet::consider` requires a member to
    // come back at the proximity it is ranked at.
    for i in 0..MOVED {
        entries.push(NodeEntry::new(entries[i].id, Addr((ADDRS + 1 + i) as u32)));
        proximity.push(proximity[i]);
    }

    let mut state = PastryState::new(own, &cfg);
    let mut reference = Reference::new(own, &cfg);
    let mut skipped = 0usize;
    for (step, &(kind, idx)) in ops.iter().enumerate() {
        let entry = entries[idx];
        match kind {
            0..=11 => {
                let mut computed = false;
                let got = state.on_sender_seen(entry, || {
                    computed = true;
                    proximity[entry.addr.index()]
                });
                skipped += usize::from(!computed);
                let want = reference.seen(entry, proximity[entry.addr.index()]);
                assert_eq!(got, want, "LeafChange differs at step {step}");
            }
            _ => {
                let got = state.on_node_failed(entry.id);
                assert_eq!(got, reference.failed(entry.id), "step {step}");
            }
        }
        assert_same(&state, &reference, step);
    }
    // The check means nothing if the filter never skipped.
    if ops.len() >= 1000 {
        assert!(skipped > 0, "no observation was ever skipped");
    }
}

proptest! {
    #[test]
    fn filtered_state_equals_unfiltered_reference_without_ties(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..14, 0usize..ENTRIES), 1000..3000)
    ) {
        replay(seed, false, &ops);
    }

    #[test]
    fn filtered_state_equals_unfiltered_reference_with_tied_proximities(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..14, 0usize..ENTRIES), 1000..3000)
    ) {
        replay(seed, true, &ops);
    }
}
