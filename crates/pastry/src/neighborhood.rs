//! The neighborhood set: the `l` nodes closest to the present node
//! according to the *proximity* metric (not the nodeId space).
//!
//! The neighborhood set is not used in routing; it seeds locality-aware
//! routing-table construction during node addition and recovery.

use past_id::NodeId;

use crate::leaf_set::NodeEntry;

/// One neighborhood member with its proximity to the owner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The member node.
    pub entry: NodeEntry,
    /// Proximity to the set's owner.
    pub proximity: f64,
}

/// The neighborhood set of one node: up to `capacity` proximally closest
/// nodes, sorted closest-first.
#[derive(Clone, Debug)]
pub struct NeighborhoodSet {
    own: NodeId,
    capacity: usize,
    members: Vec<Neighbor>,
}

impl NeighborhoodSet {
    /// Creates an empty set with the given capacity.
    pub fn new(own: NodeId, capacity: usize) -> Self {
        NeighborhoodSet {
            own,
            capacity,
            members: Vec::with_capacity(capacity),
        }
    }

    /// Considers a node for membership; keeps the `capacity` closest.
    /// Returns `true` if the set changed.
    ///
    /// `proximity` must be a pure function of the (owner, `entry`)
    /// address pair, as every [`past_net::Topology`] distance is: a
    /// member then always comes back with the proximity it is ranked
    /// at. That is what lets a full set reject anything beyond its last
    /// member in O(1) — this runs for the sender of every received
    /// message, and almost every sender is too far to keep — without
    /// first scanning for a member to refresh.
    pub fn consider(&mut self, entry: NodeEntry, proximity: f64) -> bool {
        if entry.id == self.own {
            return false;
        }
        if self.members.len() == self.capacity
            && self
                .members
                .last()
                .is_some_and(|last| proximity > last.proximity)
        {
            debug_assert!(
                !self.members.iter().any(|n| n.entry.id == entry.id),
                "member {:?} reported farther than it is ranked: proximity is not pure",
                entry.id
            );
            return false;
        }
        if let Some(pos) = self.members.iter().position(|n| n.entry.id == entry.id) {
            if self.members[pos].entry.addr != entry.addr
                || self.members[pos].proximity != proximity
            {
                self.members.remove(pos);
                // Reinsert at the right rank below.
            } else {
                return false;
            }
        }
        let pos = self
            .members
            .binary_search_by(|n| n.proximity.partial_cmp(&proximity).expect("finite proximity"))
            .unwrap_or_else(|p| p);
        if pos >= self.capacity {
            return false;
        }
        self.members.insert(pos, Neighbor { entry, proximity });
        self.members.truncate(self.capacity);
        true
    }

    /// Removes a node. Returns `true` if present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        if let Some(pos) = self.members.iter().position(|n| n.entry.id == id) {
            self.members.remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates over members, closest first.
    pub fn members(&self) -> impl Iterator<Item = &Neighbor> {
        self.members.iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_net::Addr;
    use proptest::prelude::*;

    /// `NeighborhoodSet::consider` as it was before the O(1) reject:
    /// scan for a member to refresh, then binary-search.
    fn consider_scan_first(nh: &mut NeighborhoodSet, entry: NodeEntry, proximity: f64) -> bool {
        if entry.id == nh.own {
            return false;
        }
        if let Some(pos) = nh.members.iter().position(|n| n.entry.id == entry.id) {
            if nh.members[pos].entry.addr == entry.addr && nh.members[pos].proximity == proximity {
                return false;
            }
            nh.members.remove(pos);
        }
        let pos = nh
            .members
            .binary_search_by(|n| {
                n.proximity
                    .partial_cmp(&proximity)
                    .expect("finite proximity")
            })
            .unwrap_or_else(|p| p);
        if pos >= nh.capacity {
            return false;
        }
        nh.members.insert(pos, Neighbor { entry, proximity });
        nh.members.truncate(nh.capacity);
        true
    }

    proptest! {
        #[test]
        fn prop_consider_equals_scan_first_version(
            capacity in 0usize..6,
            ops in prop::collection::vec((0u8..8, 0u32..24), 0..200),
        ) {
            let own = NodeId::from_u128(1000);
            let mut fast = NeighborhoodSet::new(own, capacity);
            let mut slow = NeighborhoodSet::new(own, capacity);
            for (op, v) in ops {
                let e = entry(v);
                // Proximity is a function of the address alone, with
                // ties between addresses (v and v + 12 collide).
                let proximity = ((v % 12) * 7 % 12) as f64;
                if op == 0 {
                    prop_assert_eq!(fast.remove(e.id), slow.remove(e.id));
                } else {
                    prop_assert_eq!(
                        fast.consider(e, proximity),
                        consider_scan_first(&mut slow, e, proximity)
                    );
                }
                prop_assert_eq!(&fast.members, &slow.members);
            }
        }
    }

    fn entry(v: u32) -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(v as u128), Addr(v))
    }

    #[test]
    fn keeps_closest_by_proximity() {
        let mut nh = NeighborhoodSet::new(NodeId::from_u128(0), 2);
        nh.consider(entry(1), 5.0);
        nh.consider(entry(2), 1.0);
        nh.consider(entry(3), 3.0);
        let ids: Vec<u32> = nh.members().map(|n| n.entry.addr.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn rejects_self_and_duplicates() {
        let own = NodeId::from_u128(9);
        let mut nh = NeighborhoodSet::new(own, 4);
        assert!(!nh.consider(NodeEntry::new(own, Addr(9)), 0.0));
        assert!(nh.consider(entry(1), 1.0));
        assert!(!nh.consider(entry(1), 1.0), "identical refresh is a no-op");
        assert_eq!(nh.len(), 1);
    }

    #[test]
    fn refresh_updates_rank() {
        let mut nh = NeighborhoodSet::new(NodeId::from_u128(0), 4);
        nh.consider(entry(1), 5.0);
        nh.consider(entry(2), 1.0);
        // Node 1 moves closer; it should now rank first.
        assert!(nh.consider(entry(1), 0.5));
        let ids: Vec<u32> = nh.members().map(|n| n.entry.addr.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(nh.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut nh = NeighborhoodSet::new(NodeId::from_u128(0), 4);
        nh.consider(entry(1), 1.0);
        assert!(nh.remove(NodeId::from_u128(1)));
        assert!(!nh.remove(NodeId::from_u128(1)));
        assert!(nh.is_empty());
    }

    #[test]
    fn far_node_rejected_when_full() {
        let mut nh = NeighborhoodSet::new(NodeId::from_u128(0), 2);
        nh.consider(entry(1), 1.0);
        nh.consider(entry(2), 2.0);
        assert!(!nh.consider(entry(3), 9.0));
        assert_eq!(nh.len(), 2);
    }
}
