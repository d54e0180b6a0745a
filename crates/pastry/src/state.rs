//! Combined per-node Pastry state and the routing decision procedure.

use past_id::NodeId;
use past_net::Addr;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{PastryConfig, B};
use crate::leaf_set::{LeafSet, NodeEntry};
use crate::neighborhood::NeighborhoodSet;
use crate::routing_table::RoutingTable;

/// The outcome of a routing decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NextHop {
    /// This node is the numerically closest live node it knows of; the
    /// message is delivered here.
    Local,
    /// Forward to the given node.
    Forward(NodeEntry),
}

/// Which routing structure resolved a hop (paper §2.1's three cases,
/// plus local delivery). Exposed for hop-level tracing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopClass {
    /// Delivered locally (own key, leaf-set middle, or no better node).
    Local,
    /// Resolved by the leaf set (the key fell within its range).
    LeafSet,
    /// Resolved by the routing table's primary cell.
    Table,
    /// The rare case: no table entry, so a numerically closer known
    /// node with an equal-length prefix was used (or, under randomized
    /// routing, a non-primary admissible candidate).
    Rare,
}

impl HopClass {
    /// The metric counter name bumped when a hop of this class is
    /// taken (see `past-obs`).
    pub fn metric_name(self) -> &'static str {
        match self {
            HopClass::Local => "pastry.resolve.local",
            HopClass::LeafSet => "pastry.resolve.leaf_set",
            HopClass::Table => "pastry.resolve.table",
            HopClass::Rare => "pastry.resolve.rare",
        }
    }
}

/// What changed in the leaf set after learning about or losing a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LeafChange {
    /// No leaf-set change.
    None,
    /// The node entered the leaf set.
    Added,
    /// The node left the leaf set.
    Removed,
}

/// Slots of a node's sender filter, direct-mapped by the low bits of
/// the sender's id: 32 stamps of 24 bytes, 768 bytes per node that has
/// heard from anyone.
const SEEN_SLOTS: usize = 32;

/// "This entry went through [`PastryState::on_node_seen`] at `epoch`."
/// The entry's two fields are held flat: with the epoch in what would be
/// a `NodeEntry`'s padding, a stamp is 24 bytes, not 32.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    id: NodeId,
    addr: Addr,
    epoch: u32,
}

impl Stamp {
    /// Epochs start at 1, so no live epoch matches a vacant slot.
    const VACANT: Stamp = Stamp {
        id: NodeId::MIN,
        addr: Addr(0),
        epoch: 0,
    };
}

/// The full Pastry state of one node: leaf set, routing table and
/// neighborhood set (cf. Figure 1 of the paper).
#[derive(Clone, Debug)]
pub struct PastryState {
    own: NodeEntry,
    leaf: LeafSet,
    table: RoutingTable,
    neighborhood: NeighborhoodSet,
    /// Advances whenever a node that was observed and changed nothing
    /// could change something if observed again (see
    /// [`PastryState::on_sender_seen`]).
    epoch: u32,
    /// The sender filter, allocated on the first observation.
    seen: Option<Box<[Stamp; SEEN_SLOTS]>>,
}

impl PastryState {
    /// What the sender filter adds to a node once it has heard from
    /// anyone (see [`PastryState::on_sender_seen`]).
    pub const SENDER_FILTER_BYTES: usize = std::mem::size_of::<[Stamp; SEEN_SLOTS]>();

    /// Creates the state for a node.
    pub fn new(own: NodeEntry, cfg: &PastryConfig) -> Self {
        cfg.validate();
        PastryState {
            own,
            leaf: LeafSet::new(own.id, cfg.leaf_half()),
            table: RoutingTable::new(own.id),
            neighborhood: NeighborhoodSet::new(own.id, cfg.leaf_set_size),
            epoch: 1,
            seen: None,
        }
    }

    /// This node's identity.
    pub fn own(&self) -> NodeEntry {
        self.own
    }

    /// Read access to the leaf set.
    pub fn leaf_set(&self) -> &LeafSet {
        &self.leaf
    }

    /// Read access to the routing table.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// Read access to the neighborhood set.
    pub fn neighborhood(&self) -> &NeighborhoodSet {
        &self.neighborhood
    }

    /// Records that a node was seen (piggybacked on every message and on
    /// explicit announcements). Updates all three structures; returns the
    /// leaf-set effect so the caller can trigger application callbacks.
    pub fn on_node_seen(&mut self, entry: NodeEntry, proximity: f64) -> LeafChange {
        if entry.id == self.own.id {
            return LeafChange::None;
        }
        let leaf_changed = self.leaf.insert(entry);
        self.table.consider(entry, proximity);
        if self.neighborhood.consider(entry, proximity) {
            self.advance_epoch();
        }
        if leaf_changed {
            LeafChange::Added
        } else {
            LeafChange::None
        }
    }

    /// [`PastryState::on_node_seen`] for a caller whose proximity is a
    /// pure function of `entry.addr` (every [`past_net::Topology`]
    /// distance is): an entry observed since the last change that could
    /// matter to it is skipped with one compare, before `proximity` is
    /// even computed.
    ///
    /// Why a skip is a no-op. Once `on_node_seen(entry)` has run, running
    /// it again changes nothing for as long as nothing is *removed* from
    /// the leaf set or the routing table and the neighbourhood set does
    /// not change at all:
    ///
    /// - The leaf set keeps the `half` nearest ids per side and ring
    ///   distances are unique, so other insertions only push the bar an
    ///   entry has to clear down: a member stays or is displaced for
    ///   good, a rejected entry stays rejected.
    /// - A routing-table cell is replaced only by a *strictly* closer
    ///   node, so the same holds per cell.
    /// - The neighbourhood set does not have that property: among
    ///   members of *equal* proximity (the rule on a clustered topology,
    ///   which has a handful of distinct distances) the binary search
    ///   lands anywhere in the run of equals and the truncation evicts a
    ///   different member, which is then re-admitted the next time it is
    ///   seen. Hence any change to it counts, not only removals.
    ///
    /// So the epoch advances on every removal
    /// ([`PastryState::on_node_failed`]) and whenever
    /// [`NeighborhoodSet::consider`] reports a change, and a stamp from
    /// an earlier epoch is ignored. A rebuilt state starts with no
    /// stamps.
    ///
    /// The slot is chosen by id, not by address, so an id has at most
    /// one stamp: the entry it was last *processed* as. The routing table
    /// and the neighbourhood set re-address a known id seen somewhere
    /// new, and a stamp for the old address, kept in a slot of its own,
    /// would outlive that and then hide the way back.
    #[inline]
    pub fn on_sender_seen(
        &mut self,
        entry: NodeEntry,
        proximity: impl FnOnce() -> f64,
    ) -> LeafChange {
        let slot = entry.id.as_u128() as usize % SEEN_SLOTS;
        if let Some(stamps) = &self.seen {
            let stamp = &stamps[slot];
            if stamp.epoch == self.epoch && stamp.id == entry.id && stamp.addr == entry.addr {
                return LeafChange::None;
            }
        }
        let change = self.on_node_seen(entry, proximity());
        let stamps = self
            .seen
            .get_or_insert_with(|| Box::new([Stamp::VACANT; SEEN_SLOTS]));
        stamps[slot] = Stamp {
            id: entry.id,
            addr: entry.addr,
            epoch: self.epoch,
        };
        change
    }

    /// Invalidates every stamp of the sender filter.
    fn advance_epoch(&mut self) {
        // A silent wrap could revive a stamp 2^32 changes old; no replay
        // comes within orders of magnitude of that many at one node.
        self.epoch = self
            .epoch
            .checked_add(1)
            .expect("2^32 Pastry state changes at one node");
    }

    /// Records that a node is presumed failed. Returns the leaf-set
    /// effect (PAST re-creates replicas when a leaf neighbor is lost).
    pub fn on_node_failed(&mut self, id: NodeId) -> LeafChange {
        let was_leaf = self.leaf.remove(id).is_some();
        let was_routed = self.table.remove(id);
        let was_neighbor = self.neighborhood.remove(id);
        if was_leaf || was_routed || was_neighbor {
            self.advance_epoch();
        }
        if was_leaf {
            LeafChange::Removed
        } else {
            LeafChange::None
        }
    }

    /// All distinct nodes this node knows about.
    pub fn known_nodes(&self) -> Vec<NodeEntry> {
        let mut nodes: Vec<NodeEntry> = self.leaf.members().copied().collect();
        for cell in self.table.entries() {
            nodes.push(cell.entry);
        }
        for n in self.neighborhood.members() {
            nodes.push(n.entry);
        }
        nodes.sort_by_key(|e| e.id);
        nodes.dedup_by_key(|e| e.id);
        nodes
    }

    /// The `k` candidate replica holders for `key`, judged locally.
    pub fn replica_candidates(&self, key: NodeId, k: usize) -> Vec<NodeEntry> {
        self.leaf.replica_candidates(key, k, self.own.addr)
    }

    /// [`PastryState::replica_candidates`] into a caller-owned buffer
    /// (cleared first), each paired with its ring distance to `key`.
    pub fn replica_candidates_into(&self, key: NodeId, k: usize, out: &mut Vec<(u128, NodeEntry)>) {
        self.leaf
            .replica_candidates_into(key, k, self.own.addr, out);
    }

    /// Whether this node believes it is among the `k` closest to `key`.
    pub fn is_among_k_closest(&self, key: NodeId, k: usize) -> bool {
        self.leaf.is_among_k_closest(key, k)
    }

    /// The Pastry routing decision for `key` (paper §2.1).
    ///
    /// 1. If `key` falls within the leaf-set range, the message goes
    ///    directly to the numerically closest member (possibly this node).
    /// 2. Otherwise the routing table supplies a node sharing a prefix at
    ///    least one digit longer than this node's.
    /// 3. If that cell is empty, fall back to any known node whose prefix
    ///    match is at least as long and which is numerically closer to the
    ///    key ("the rare case").
    ///
    /// With `randomized` routing enabled (and an RNG supplied), the choice
    /// among admissible candidates is randomized with a heavy bias toward
    /// the best candidate, which defends against malicious nodes sitting
    /// on a deterministic route.
    pub fn next_hop(
        &self,
        key: NodeId,
        randomized: bool,
        best_hop_bias: f64,
        rng: Option<&mut StdRng>,
    ) -> NextHop {
        self.next_hop_explained(key, randomized, best_hop_bias, rng).0
    }

    /// [`next_hop`](Self::next_hop), plus which routing structure
    /// resolved the decision (for hop-level tracing).
    pub fn next_hop_explained(
        &self,
        key: NodeId,
        randomized: bool,
        best_hop_bias: f64,
        rng: Option<&mut StdRng>,
    ) -> (NextHop, HopClass) {
        if key == self.own.id {
            return (NextHop::Local, HopClass::Local);
        }
        // Step 1: leaf set.
        if self.leaf.covers(key) {
            let best_member = self.leaf.closest(key);
            if self.leaf.is_empty() || self.own.id.closer_to(key, best_member.id) {
                return (NextHop::Local, HopClass::Local);
            }
            return (NextHop::Forward(best_member), HopClass::LeafSet);
        }
        // Step 2 & 3: prefix routing with fallback, optionally randomized.
        let shared = self.own.id.shared_prefix_digits(key, B);
        let primary = self
            .table
            .cell_for(key)
            .and_then(|c| c.as_ref())
            .map(|c| c.entry);
        if !randomized {
            if let Some(entry) = primary {
                return (NextHop::Forward(entry), HopClass::Table);
            }
            return match self.rare_case_candidate(key, shared) {
                Some(entry) => (NextHop::Forward(entry), HopClass::Rare),
                None => (NextHop::Local, HopClass::Local),
            };
        }
        // Randomized: gather all admissible candidates. Admissibility
        // (prefix at least as long, numerically closer than this node)
        // guarantees progress and thus loop freedom.
        let mut candidates: Vec<NodeEntry> = Vec::new();
        if let Some(p) = primary {
            candidates.push(p);
        }
        for node in self.known_nodes() {
            if Some(node.id) == primary.map(|p| p.id) {
                continue;
            }
            if node.id.shared_prefix_digits(key, B) >= shared && node.id.closer_to(key, self.own.id)
            {
                candidates.push(node);
            }
        }
        // The hop class reflects whether the routing table's primary
        // cell ends up chosen (Table) or an admissible alternative
        // does (Rare), mirroring the deterministic classification.
        if candidates.is_empty() {
            return (NextHop::Local, HopClass::Local);
        }
        let class_of = |e: NodeEntry| {
            if primary.map(|p| p.id) == Some(e.id) {
                HopClass::Table
            } else {
                HopClass::Rare
            }
        };
        if candidates.len() == 1 {
            return (NextHop::Forward(candidates[0]), class_of(candidates[0]));
        }
        if let Some(rng) = rng {
            if rng.gen::<f64>() >= best_hop_bias {
                let idx = 1 + rng.gen_range(0..candidates.len() - 1);
                return (NextHop::Forward(candidates[idx]), class_of(candidates[idx]));
            }
        }
        (NextHop::Forward(candidates[0]), class_of(candidates[0]))
    }

    /// Step 3 of routing: among all known nodes, one whose prefix match
    /// with `key` is at least `shared` digits and which is numerically
    /// closer to `key` than this node; the numerically closest such node
    /// is chosen. Iterates the three structures directly (this path is
    /// hot at the final hops of every route, so no allocation).
    fn rare_case_candidate(&self, key: NodeId, shared: u32) -> Option<NodeEntry> {
        let mut best: Option<NodeEntry> = None;
        let mut consider = |node: NodeEntry| {
            if node.id.shared_prefix_digits(key, B) >= shared
                && node.id.closer_to(key, self.own.id)
                && best.is_none_or(|b| node.id.closer_to(key, b.id))
            {
                best = Some(node);
            }
        };
        for e in self.leaf.members() {
            consider(*e);
        }
        for c in self.table.entries() {
            consider(c.entry);
        }
        for n in self.neighborhood.members() {
            consider(n.entry);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_net::Addr;
    use rand::SeedableRng;

    fn cfg() -> PastryConfig {
        PastryConfig {
            leaf_set_size: 4,
            ..Default::default()
        }
    }

    fn entry(v: u128) -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(v), Addr((v & 0xffff_ffff) as u32))
    }

    fn state_with(own: u128, others: &[u128]) -> PastryState {
        let mut st = PastryState::new(entry(own), &cfg());
        for &o in others {
            st.on_node_seen(entry(o), 1.0);
        }
        st
    }

    #[test]
    fn next_hop_local_for_own_key() {
        let st = state_with(100, &[90, 110]);
        assert_eq!(
            st.next_hop(NodeId::from_u128(100), false, 1.0, None),
            NextHop::Local
        );
    }

    #[test]
    fn next_hop_uses_leaf_set_in_range() {
        let st = state_with(100, &[90, 110]);
        // Leaf set is not full, so everything is "in range"; 109 resolves
        // to node 110.
        assert_eq!(
            st.next_hop(NodeId::from_u128(109), false, 1.0, None),
            NextHop::Forward(entry(110))
        );
        // 101 resolves locally (own id 100 is closest).
        assert_eq!(
            st.next_hop(NodeId::from_u128(101), false, 1.0, None),
            NextHop::Local
        );
    }

    #[test]
    fn next_hop_uses_routing_table_outside_leaf_range() {
        // Construct a full leaf set around own=2^96, then route to a far key.
        let own = 1u128 << 96;
        let near: Vec<u128> = vec![own - 1, own - 2, own + 1, own + 2];
        let mut st = state_with(own, &near);
        let far_node = entry(0xf000_0000_0000_0000_0000_0000_0000_0000);
        st.on_node_seen(far_node, 1.0);
        let key = NodeId::from_u128(0xf000_0000_0000_0000_0000_0000_0000_1234);
        assert_eq!(
            st.next_hop(key, false, 1.0, None),
            NextHop::Forward(far_node)
        );
    }

    #[test]
    fn next_hop_progress_invariant_randomized() {
        // Whatever hop is chosen, it must be numerically closer to the key
        // than this node (loop freedom).
        let own = 1u128 << 96;
        let mut st = state_with(
            own,
            &[own - 1, own - 2, own + 1, own + 2],
        );
        for v in [0xf0u128 << 120, 0xf1u128 << 120, 0xf2u128 << 120] {
            st.on_node_seen(entry(v), 1.0);
        }
        let key = NodeId::from_u128(0xf3u128 << 120);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            match st.next_hop(key, true, 0.5, Some(&mut rng)) {
                NextHop::Forward(e) => {
                    assert!(e.id.closer_to(key, st.own().id));
                }
                NextHop::Local => panic!("progress expected"),
            }
        }
    }

    #[test]
    fn rare_case_falls_back_to_known_closer_node() {
        // Full leaf set that does not cover the key, an empty routing cell
        // for it, but a neighborhood node that is closer.
        let own = 1u128 << 96;
        let mut st = state_with(own, &[own - 1, own - 2, own + 1, own + 2]);
        // This node shares 0 digits with the key but is numerically closer.
        let key = NodeId::from_u128(0x8000_0000_0000_0000_0000_0000_0000_0000);
        let closer = entry(0x7000_0000_0000_0000_0000_0000_0000_0000);
        // Manually plant in neighborhood only (same cell logic would also
        // put it in the routing table; remove it there to force step 3).
        st.on_node_seen(closer, 1.0);
        st.table.remove(closer.id);
        let hop = st.next_hop(key, false, 1.0, None);
        assert_eq!(hop, NextHop::Forward(closer));
    }

    #[test]
    fn outside_leaf_range_still_makes_progress() {
        // With a full leaf set straddling `own`, any outside key has a
        // leaf member ring-wise closer than `own`; routing must forward
        // to some node strictly closer to the key — never stall.
        let own = 1u128 << 96;
        let st = state_with(own, &[own - 1, own - 2, own + 1, own + 2]);
        let key = NodeId::from_u128(0x9000_0000_0000_0000_0000_0000_0000_0000);
        match st.next_hop(key, false, 1.0, None) {
            NextHop::Forward(e) => assert!(e.id.closer_to(key, st.own().id)),
            NextHop::Local => panic!("expected progress toward the key"),
        }
    }

    #[test]
    fn empty_state_delivers_locally() {
        let st = state_with(42, &[]);
        let key = NodeId::from_u128(0x9000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(st.next_hop(key, false, 1.0, None), NextHop::Local);
    }

    #[test]
    fn node_seen_and_failed_update_all_structures() {
        let mut st = state_with(100, &[]);
        let e = entry(90);
        assert_eq!(st.on_node_seen(e, 1.0), LeafChange::Added);
        assert_eq!(st.on_node_seen(e, 1.0), LeafChange::None);
        assert!(st.leaf_set().contains(e.id));
        assert!(!st.routing_table().is_empty());
        assert_eq!(st.on_node_failed(e.id), LeafChange::Removed);
        assert_eq!(st.on_node_failed(e.id), LeafChange::None);
        assert!(!st.leaf_set().contains(e.id));
        assert_eq!(st.routing_table().len(), 0);
        assert_eq!(st.neighborhood().len(), 0);
    }

    #[test]
    fn known_nodes_deduplicates() {
        let st = state_with(100, &[90, 110]);
        // Nodes 90 and 110 appear in leaf set, routing table and
        // neighborhood; known_nodes must report each once.
        assert_eq!(st.known_nodes().len(), 2);
    }

    #[test]
    fn replica_candidates_judged_from_leaf_set() {
        let st = state_with(100, &[90, 95, 105, 110]);
        let reps = st.replica_candidates(NodeId::from_u128(102), 3);
        let ids: Vec<u128> = reps.iter().map(|e| e.id.as_u128()).collect();
        assert_eq!(ids, vec![100, 105, 95]);
        assert!(st.is_among_k_closest(NodeId::from_u128(102), 3));
        assert!(!st.is_among_k_closest(NodeId::from_u128(93), 1));
    }
}
