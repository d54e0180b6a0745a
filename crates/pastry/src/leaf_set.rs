//! The leaf set: the `l` nodes with nodeIds numerically closest to the
//! present node (`l/2` larger, `l/2` smaller).
//!
//! The leaf set anchors both routing correctness (a message whose key
//! falls within the leaf-set range is delivered to the numerically
//! closest member in one hop) and PAST's storage invariant (the `k`
//! replica holders of a file are, by construction, within the leaf sets
//! of one another, which is what makes replica diversion a purely local
//! operation).

use past_id::NodeId;
use past_net::Addr;

/// A known node: identifier plus network address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct NodeEntry {
    /// The node's Pastry identifier.
    pub id: NodeId,
    /// The node's emulated network address.
    pub addr: Addr,
}

impl NodeEntry {
    /// Convenience constructor.
    pub fn new(id: NodeId, addr: Addr) -> Self {
        NodeEntry { id, addr }
    }
}

/// Where `id` stands in the order of closeness to `key`: ring distance,
/// then raw id — [`NodeId::closer_to`]'s total order as a sort key.
fn rank(id: NodeId, key: NodeId) -> (u128, NodeId) {
    (id.ring_distance(key), id)
}

/// The leaf set of one node.
#[derive(Clone, Debug)]
pub struct LeafSet {
    own: NodeId,
    half: usize,
    /// Nodes counter-clockwise of `own` (numerically smaller, with
    /// wraparound), sorted nearest-first.
    smaller: Vec<NodeEntry>,
    /// Nodes clockwise of `own`, sorted nearest-first.
    larger: Vec<NodeEntry>,
}

impl LeafSet {
    /// Creates an empty leaf set for a node with identifier `own`,
    /// keeping up to `half` entries per side.
    pub fn new(own: NodeId, half: usize) -> Self {
        assert!(half >= 1, "leaf set must keep at least one node per side");
        LeafSet {
            own,
            half,
            smaller: Vec::with_capacity(half),
            larger: Vec::with_capacity(half),
        }
    }

    /// The owning node's identifier.
    pub fn own_id(&self) -> NodeId {
        self.own
    }

    /// Entries per side.
    pub fn half(&self) -> usize {
        self.half
    }

    /// Returns `true` if `id` belongs on the clockwise ("larger") side.
    fn is_cw(&self, id: NodeId) -> bool {
        self.own.cw_distance(id) <= self.own.ccw_distance(id)
    }

    /// Inserts a node, evicting the farthest member of its side when full.
    /// Returns `true` if the set changed.
    ///
    /// Runs for the sender of every received message, and almost every
    /// sender is too far away to be kept, so the first test is O(1):
    /// a full side rejects anything beyond its last member. A member is
    /// never beyond the last member of its own side, so that reject
    /// cannot hide a duplicate; candidates inside the kept range are
    /// still scanned.
    pub fn insert(&mut self, entry: NodeEntry) -> bool {
        if entry.id == self.own {
            return false;
        }
        let own = self.own;
        let half = self.half;
        if self.is_cw(entry.id) {
            Self::insert_side(&mut self.larger, entry, half, |id| own.cw_distance(id))
        } else {
            Self::insert_side(&mut self.smaller, entry, half, |id| own.ccw_distance(id))
        }
    }

    /// `side` is the one [`LeafSet::is_cw`] assigns `entry` to — the
    /// only side that can already hold it.
    fn insert_side(
        side: &mut Vec<NodeEntry>,
        entry: NodeEntry,
        half: usize,
        dist: impl Fn(NodeId) -> u128,
    ) -> bool {
        let d = dist(entry.id);
        if side.len() == half && side.last().is_some_and(|last| d > dist(last.id)) {
            return false;
        }
        if side.iter().any(|e| e.id == entry.id) {
            return false;
        }
        let pos = side
            .binary_search_by(|e| dist(e.id).cmp(&d))
            .unwrap_or_else(|p| p);
        if pos >= half {
            return false;
        }
        side.insert(pos, entry);
        side.truncate(half);
        true
    }

    /// Removes a node by identifier. Returns its entry if present.
    pub fn remove(&mut self, id: NodeId) -> Option<NodeEntry> {
        for side in [&mut self.smaller, &mut self.larger] {
            if let Some(pos) = side.iter().position(|e| e.id == id) {
                return Some(side.remove(pos));
            }
        }
        None
    }

    /// Returns `true` if `id` is a member.
    ///
    /// Only the side `id` falls on (clockwise or counter-clockwise of
    /// this node, whichever is nearer) can hold it, and that side is
    /// sorted by distance from this node: anything beyond its last
    /// member is rejected in O(1), the rest found by binary search.
    pub fn contains(&self, id: NodeId) -> bool {
        let own = self.own;
        if self.is_cw(id) {
            Self::side_contains(&self.larger, id, |m| own.cw_distance(m))
        } else {
            Self::side_contains(&self.smaller, id, |m| own.ccw_distance(m))
        }
    }

    /// `side` is the one [`LeafSet::is_cw`] assigns `id` to, and `dist`
    /// its order.
    fn side_contains(side: &[NodeEntry], id: NodeId, dist: impl Fn(NodeId) -> u128) -> bool {
        let d = dist(id);
        match side.last() {
            Some(last) if d <= dist(last.id) => {
                side.binary_search_by(|e| dist(e.id).cmp(&d)).is_ok()
            }
            _ => false,
        }
    }

    /// Iterates over all members (both sides), no particular order.
    pub fn members(&self) -> impl Iterator<Item = &NodeEntry> {
        self.smaller.iter().chain(self.larger.iter())
    }

    /// The `i`-th member in [`LeafSet::members`] order, for a caller that
    /// must change the set between one member and the next.
    pub fn member(&self, i: usize) -> Option<NodeEntry> {
        match i.checked_sub(self.smaller.len()) {
            None => self.smaller.get(i),
            Some(j) => self.larger.get(j),
        }
        .copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.smaller.len() + self.larger.len()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The farthest member on each side (counter-clockwise extreme,
    /// clockwise extreme), if present. PAST's §3.5 overflow handling asks
    /// exactly these two nodes to search *their* leaf sets for space.
    pub fn extremes(&self) -> (Option<NodeEntry>, Option<NodeEntry>) {
        (self.smaller.last().copied(), self.larger.last().copied())
    }

    /// Whether `key` falls within the leaf-set range, i.e. between the
    /// extreme members (inclusive). If either side is not full, this node
    /// knows every node on that arc, so the range extends accordingly and
    /// we report coverage (routing then resolves to the closest member).
    pub fn covers(&self, key: NodeId) -> bool {
        if self.smaller.len() < self.half || self.larger.len() < self.half {
            return true;
        }
        let low = self.smaller.last().expect("side full").id;
        let high = self.larger.last().expect("side full").id;
        // The covered arc runs clockwise from `low` through `own` to `high`.
        low.cw_distance(key) <= low.cw_distance(high)
    }

    /// The member (or the node itself) numerically closest to `key`.
    pub fn closest(&self, key: NodeId) -> NodeEntry {
        let mut best: Option<NodeEntry> = None;
        for e in self.members() {
            match best {
                None => best = Some(*e),
                Some(b) => {
                    if e.id.closer_to(key, b.id) {
                        best = Some(*e);
                    }
                }
            }
        }
        // Compare against self (address unknown here, so the caller passes
        // its own entry); we return the best member and let the caller
        // compare with itself via `closer_to`.
        best.unwrap_or(NodeEntry::new(self.own, Addr(u32::MAX)))
    }

    /// The `k` nodes numerically closest to `key` among this node and its
    /// leaf set — PAST's candidate replica holders for a file with this
    /// key. `own_addr` supplies this node's address for the self entry.
    pub fn replica_candidates(&self, key: NodeId, k: usize, own_addr: Addr) -> Vec<NodeEntry> {
        let mut ranked = Vec::with_capacity(k.min(self.len() + 1));
        self.replica_candidates_into(key, k, own_addr, &mut ranked);
        ranked.into_iter().map(|(_, e)| e).collect()
    }

    /// [`LeafSet::replica_candidates`] into a caller-owned buffer
    /// (cleared first), each candidate paired with its ring distance to
    /// `key` — for sweeps that ask once per stored file.
    ///
    /// Hot path: also runs on every insert attempt at the coordinator.
    /// `out` is kept sorted closest-first and at most `k` long while the
    /// members stream past, so a member that does not make the cut
    /// costs one distance and one comparison against the current
    /// `k`-th. Each side is walked from whichever end is nearer the
    /// key, so that most members do not make the cut; the walk order is
    /// only that, a speed-up: the result is identical to sorting
    /// everything by (ring distance, id) — [`NodeId::closer_to`]'s
    /// order, which is total — and truncating.
    pub fn replica_candidates_into(
        &self,
        key: NodeId,
        k: usize,
        own_addr: Addr,
        out: &mut Vec<(u128, NodeEntry)>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let mut consider = |e: &NodeEntry| {
            let r = rank(e.id, key);
            if out.len() == k {
                let (kth_distance, kth) = out[k - 1];
                if r >= (kth_distance, kth.id) {
                    return;
                }
                out.pop();
            }
            let pos = out.partition_point(|&(d, c)| (d, c.id) < r);
            out.insert(pos, (r.0, *e));
        };
        for side in [&self.smaller, &self.larger] {
            let nearer_at_far_end = match (side.first(), side.last()) {
                (Some(first), Some(last)) => last.id.closer_to(key, first.id),
                _ => false,
            };
            if nearer_at_far_end {
                side.iter().rev().for_each(&mut consider);
            } else {
                side.iter().for_each(&mut consider);
            }
        }
        consider(&NodeEntry::new(self.own, own_addr));
    }

    /// Returns `true` if this node is among the `k` numerically closest
    /// to `key`, judged from its local leaf set. Equivalent to checking
    /// membership in [`LeafSet::replica_candidates`] but allocation-free
    /// (this test runs on every forwarded insert).
    ///
    /// A side is an arc of at most half the ring that starts at `own`,
    /// and along such an arc the ring distance to `key` is unimodal:
    /// it falls to `key` and rises after it, or rises to the antipode of
    /// `key` and falls after it. So the members closer to `key` than
    /// `own` sit in a run at the near end of a side, or in a run at its
    /// far end, and only those runs are read: usually one member at
    /// each end of each side. Counting stops at the `k`-th.
    pub fn is_among_k_closest(&self, key: NodeId, k: usize) -> bool {
        let own = rank(self.own, key);
        let closer = |e: &&NodeEntry| rank(e.id, key) < own;
        let mut count = 0;
        for side in [&self.smaller, &self.larger] {
            let near = side.iter().take_while(closer).take(k - count).count();
            count += near;
            if count < k && near < side.len() {
                count += side.iter().rev().take_while(closer).take(k - count).count();
            }
            if count == k {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(v: u128) -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(v), Addr(v as u32))
    }

    /// `LeafSet::insert` as it was before the O(1) reject: scan every
    /// member for a duplicate, then binary-search the side.
    fn insert_scan_first(ls: &mut LeafSet, entry: NodeEntry) -> bool {
        if entry.id == ls.own || ls.contains(entry.id) {
            return false;
        }
        let own = ls.own;
        let (side, dist): (_, fn(NodeId, NodeId) -> u128) = if ls.is_cw(entry.id) {
            (&mut ls.larger, NodeId::cw_distance)
        } else {
            (&mut ls.smaller, NodeId::ccw_distance)
        };
        let pos = side
            .binary_search_by(|e| dist(own, e.id).cmp(&dist(own, entry.id)))
            .unwrap_or_else(|p| p);
        if pos >= ls.half {
            return false;
        }
        side.insert(pos, entry);
        side.truncate(ls.half);
        true
    }

    fn set_with(own: u128, half: usize, ids: &[u128]) -> LeafSet {
        let mut ls = LeafSet::new(NodeId::from_u128(own), half);
        for &id in ids {
            ls.insert(entry(id));
        }
        ls
    }

    #[test]
    fn insert_splits_sides() {
        let ls = set_with(100, 2, &[90, 95, 105, 110]);
        assert_eq!(ls.len(), 4);
        assert!(ls.contains(NodeId::from_u128(90)));
        assert!(ls.contains(NodeId::from_u128(110)));
    }

    #[test]
    fn eviction_keeps_nearest() {
        let ls = set_with(100, 2, &[90, 95, 97, 80]);
        // Smaller side holds only the two nearest: 97 and 95.
        assert!(ls.contains(NodeId::from_u128(97)));
        assert!(ls.contains(NodeId::from_u128(95)));
        assert!(!ls.contains(NodeId::from_u128(90)));
        assert!(!ls.contains(NodeId::from_u128(80)));
    }

    #[test]
    fn duplicate_and_self_inserts_rejected() {
        let mut ls = set_with(100, 2, &[90]);
        assert!(!ls.insert(entry(90)));
        assert!(!ls.insert(entry(100)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn remove_returns_entry() {
        let mut ls = set_with(100, 2, &[90, 110]);
        let removed = ls.remove(NodeId::from_u128(110)).unwrap();
        assert_eq!(removed.addr, Addr(110));
        assert!(!ls.contains(NodeId::from_u128(110)));
        assert!(ls.remove(NodeId::from_u128(110)).is_none());
    }

    #[test]
    fn wraparound_sides() {
        // Node near the top of the ring: slightly larger ids wrap to 0+.
        let own = u128::MAX - 5;
        let ls = set_with(own, 2, &[u128::MAX - 1, 3, u128::MAX - 10, u128::MAX - 20]);
        // u128::MAX-1 and 3 are clockwise (larger side with wraparound).
        let (ccw, cw) = ls.extremes();
        assert_eq!(cw.unwrap().id, NodeId::from_u128(3));
        assert_eq!(ccw.unwrap().id, NodeId::from_u128(u128::MAX - 20));
    }

    #[test]
    fn covers_within_range() {
        let ls = set_with(100, 2, &[80, 90, 110, 120]);
        assert!(ls.covers(NodeId::from_u128(100)));
        assert!(ls.covers(NodeId::from_u128(85)));
        assert!(ls.covers(NodeId::from_u128(80)));
        assert!(ls.covers(NodeId::from_u128(120)));
        assert!(!ls.covers(NodeId::from_u128(79)));
        assert!(!ls.covers(NodeId::from_u128(121)));
        assert!(!ls.covers(NodeId::from_u128(u128::MAX / 2)));
    }

    #[test]
    fn covers_everything_when_not_full() {
        let ls = set_with(100, 2, &[90, 110]);
        assert!(ls.covers(NodeId::from_u128(u128::MAX / 2)));
    }

    #[test]
    fn closest_finds_nearest_member() {
        let ls = set_with(100, 2, &[80, 90, 110, 120]);
        assert_eq!(ls.closest(NodeId::from_u128(111)).id, NodeId::from_u128(110));
        assert_eq!(ls.closest(NodeId::from_u128(84)).id, NodeId::from_u128(80));
    }

    #[test]
    fn replica_candidates_sorted_by_distance() {
        let ls = set_with(100, 3, &[80, 90, 110, 120, 130]);
        let reps = ls.replica_candidates(NodeId::from_u128(105), 3, Addr(100));
        let ids: Vec<u128> = reps.iter().map(|e| e.id.as_u128()).collect();
        assert_eq!(ids, vec![100, 110, 90]);
    }

    #[test]
    fn is_among_k_closest() {
        let ls = set_with(100, 3, &[80, 90, 110, 120, 130]);
        assert!(ls.is_among_k_closest(NodeId::from_u128(99), 1));
        assert!(!ls.is_among_k_closest(NodeId::from_u128(121), 1));
        // Key 101: distances are 100→1, 110→9, 90→11, so own is in the top 3.
        assert!(ls.is_among_k_closest(NodeId::from_u128(101), 3));
        // Key 121: distances are 120→1, 130→9, 110→11; own (21) is not.
        assert!(!ls.is_among_k_closest(NodeId::from_u128(121), 3));
    }

    proptest! {
        #[test]
        fn prop_sides_never_exceed_half(own: u128, ids: Vec<u128>, half in 1usize..8) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), half);
            for id in ids {
                ls.insert(entry(id));
            }
            prop_assert!(ls.smaller.len() <= half);
            prop_assert!(ls.larger.len() <= half);
        }

        #[test]
        fn prop_sides_sorted_nearest_first(own: u128, ids: Vec<u128>, half in 1usize..8) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), half);
            for id in ids {
                ls.insert(entry(id));
            }
            let o = NodeId::from_u128(own);
            for w in ls.smaller.windows(2) {
                prop_assert!(o.ccw_distance(w[0].id) <= o.ccw_distance(w[1].id));
            }
            for w in ls.larger.windows(2) {
                prop_assert!(o.cw_distance(w[0].id) <= o.cw_distance(w[1].id));
            }
        }

        #[test]
        fn prop_kept_members_are_the_nearest_per_side(own: u128, ids: Vec<u128>, half in 1usize..4) {
            // After inserting everything, each side must contain exactly the
            // `half` nearest ids on that side (dedup'd, excluding own).
            let o = NodeId::from_u128(own);
            let mut ls = LeafSet::new(o, half);
            let mut uniq: Vec<u128> = ids.clone();
            uniq.sort();
            uniq.dedup();
            uniq.retain(|&v| v != own);
            for &id in &uniq {
                ls.insert(entry(id));
            }
            let mut cw: Vec<u128> = uniq
                .iter()
                .copied()
                .filter(|&v| o.cw_distance(NodeId::from_u128(v)) <= o.ccw_distance(NodeId::from_u128(v)))
                .collect();
            cw.sort_by_key(|&v| o.cw_distance(NodeId::from_u128(v)));
            cw.truncate(half);
            let mut got: Vec<u128> = ls.larger.iter().map(|e| e.id.as_u128()).collect();
            got.sort_by_key(|&v| o.cw_distance(NodeId::from_u128(v)));
            prop_assert_eq!(got, cw);
        }

        #[test]
        fn prop_insert_equals_scan_first_version(
            own in 0u128..64,
            half in 1usize..5,
            ops in prop::collection::vec((0u8..8, 0u128..64), 0..200),
        ) {
            // Ids from a small ring so duplicates, evictions and
            // re-insertions after removal all occur.
            let own = own << 121;
            let mut fast = LeafSet::new(NodeId::from_u128(own), half);
            let mut slow = LeafSet::new(NodeId::from_u128(own), half);
            for (op, id) in ops {
                let e = NodeEntry::new(NodeId::from_u128(id << 121), Addr(id as u32));
                if op == 0 {
                    prop_assert_eq!(fast.remove(e.id), slow.remove(e.id));
                } else {
                    prop_assert_eq!(fast.insert(e), insert_scan_first(&mut slow, e));
                }
                prop_assert_eq!(&fast.smaller, &slow.smaller);
                prop_assert_eq!(&fast.larger, &slow.larger);
            }
        }

        #[test]
        fn prop_replica_candidates_equal_sort_and_truncate(own: u128, ids: Vec<u128>, key: u128, k in 0usize..8) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), 8);
            for id in ids {
                ls.insert(entry(id));
            }
            let keyn = NodeId::from_u128(key);
            let mut all: Vec<NodeEntry> = ls.members().copied().collect();
            all.push(NodeEntry::new(ls.own, Addr(7)));
            all.sort_by_key(|e| rank(e.id, keyn));
            all.truncate(k);
            prop_assert_eq!(&ls.replica_candidates(keyn, k, Addr(7)), &all);
            prop_assert_eq!(
                ls.is_among_k_closest(keyn, k),
                all.iter().any(|e| e.id == ls.own)
            );
            // The buffer form clears what it is handed.
            let mut buf = vec![(0, entry(1)); 3];
            ls.replica_candidates_into(keyn, k, Addr(7), &mut buf);
            let ranked: Vec<_> = all.iter().map(|e| (e.id.ring_distance(keyn), *e)).collect();
            prop_assert_eq!(&buf, &ranked);
        }

        #[test]
        fn prop_side_order_lookups_equal_scans_on_a_small_ring(
            own in 0u128..64,
            half in 1usize..6,
            ops in prop::collection::vec((0u8..4, 0u128..64), 0..60),
        ) {
            // A ring of 64 ids (`prop_insert_equals_scan_first_version`'s
            // `id << 121` fills half the ring), so sides fill, wrap, reach
            // the antipode and see removals. After every op, every id is
            // looked up and every key on the ring's half-steps is asked
            // for every k, so some keys sit exactly between two ids and
            // tie.
            let own = own << 122;
            let mut ls = LeafSet::new(NodeId::from_u128(own), half);
            for (op, id) in ops {
                let e = NodeEntry::new(NodeId::from_u128(id << 122), Addr(id as u32));
                if op == 0 {
                    ls.remove(e.id);
                } else {
                    ls.insert(e);
                }
                for probe in 0u128..64 {
                    let probe = NodeId::from_u128(probe << 122);
                    prop_assert_eq!(ls.contains(probe), ls.members().any(|m| m.id == probe));
                }
                for key in 0u128..128 {
                    let key = NodeId::from_u128(key << 121);
                    // Own's place in sort-and-truncate order: it is among
                    // the k closest exactly when k is beyond it.
                    let place = ls.members().filter(|m| rank(m.id, key) < rank(ls.own, key)).count();
                    for k in 0..=ls.len() + 1 {
                        prop_assert_eq!(ls.is_among_k_closest(key, k), place < k, "k {}", k);
                    }
                }
            }
        }

        #[test]
        fn prop_replica_candidates_closest_first(own: u128, ids: Vec<u128>, key: u128, k in 1usize..6) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), 8);
            for id in ids {
                ls.insert(entry(id));
            }
            let keyn = NodeId::from_u128(key);
            let reps = ls.replica_candidates(keyn, k, Addr(0));
            prop_assert!(reps.len() <= k);
            for w in reps.windows(2) {
                prop_assert!(w[0].id.ring_distance(keyn) <= w[1].id.ring_distance(keyn));
            }
        }
    }
}
