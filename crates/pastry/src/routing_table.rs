//! The prefix routing table.
//!
//! A node's routing table is organized into ⌈log_2^b N⌉ levels with
//! 2^b − 1 entries each: the entries at level `n` refer to nodes whose
//! nodeId shares the present node's id in the first `n` digits but
//! differs in digit `n`. Among the potentially many candidate nodes per
//! cell, Pastry keeps one that is *close to the present node according to
//! the proximity metric* — the source of its locality properties.

use past_id::NodeId;

use crate::config::B;
use crate::leaf_set::NodeEntry;

/// Cells per row: one per base-2^b digit value.
const COLS: usize = 1 << B;

/// One routing-table cell: a known node plus its measured proximity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteCell {
    /// The referenced node.
    pub entry: NodeEntry,
    /// Proximity of that node to the table's owner (smaller = closer).
    pub proximity: f64,
}

/// The routing table of one node.
///
/// Cells live in one contiguous row-major allocation: `consider` runs on
/// every received message, and a vec-of-vecs costs an extra pointer chase
/// (and a cache miss) per access on that path.
///
/// Only the rows touched so far are allocated. An overlay of N nodes
/// populates about ⌈log_2^b N⌉ rows (§2.1), so the other rows of the
/// id space would be 64-byte empties the node drags along: `cells` is
/// the row-major *prefix* of the full table, `consider` grows it to
/// cover the row it places into, and every read past the prefix sees
/// an empty cell without allocating.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    own: NodeId,
    cells: Vec<Option<RouteCell>>,
}

impl RoutingTable {
    /// Creates an empty table for a node with identifier `own`.
    pub fn new(own: NodeId) -> Self {
        RoutingTable {
            own,
            cells: Vec::new(),
        }
    }

    /// The owner's identifier.
    pub fn own_id(&self) -> NodeId {
        self.own
    }

    /// Number of rows (levels) the id space gives the table, allocated
    /// or not.
    pub fn row_count(&self) -> usize {
        NodeId::digit_count(B) as usize
    }

    /// Number of leading rows that hold memory: one past the highest row
    /// `consider` ever placed a node into.
    pub fn allocated_rows(&self) -> usize {
        self.cells.len() / COLS
    }

    /// Returns the cell that would route toward `key` from this node:
    /// row = length of the common prefix of `own` and `key`, column =
    /// `key`'s digit at that position. `None` if `key == own`.
    pub fn cell_for(&self, key: NodeId) -> Option<&Option<RouteCell>> {
        if key == self.own {
            return None;
        }
        let row = self.own.shared_prefix_digits(key, B) as usize;
        let col = key.digit(row as u32, B) as usize;
        Some(self.cells.get(row * COLS + col).unwrap_or(&None))
    }

    /// Looks up the entry at (row, col).
    pub fn get(&self, row: usize, col: usize) -> Option<&RouteCell> {
        assert!(row < self.row_count(), "row {row} out of range");
        assert!(col < COLS, "column {col} out of range");
        self.cells.get(row * COLS + col)?.as_ref()
    }

    /// Considers `candidate` for inclusion. It is placed in the cell
    /// determined by its id; an existing occupant is replaced only if the
    /// candidate is strictly closer by proximity. Returns `true` if the
    /// table changed.
    pub fn consider(&mut self, candidate: NodeEntry, proximity: f64) -> bool {
        if candidate.id == self.own {
            return false;
        }
        let row = self.own.shared_prefix_digits(candidate.id, B) as usize;
        let col = candidate.id.digit(row as u32, B) as usize;
        let needed = (row + 1) * COLS;
        if self.cells.len() < needed {
            // Rows are added a handful of times in a node's life, so
            // take exactly the room they need, not the doubling `resize`
            // would reserve.
            self.cells.reserve_exact(needed - self.cells.len());
            self.cells.resize(needed, None);
        }
        let cell = &mut self.cells[row * COLS + col];
        match cell {
            None => {
                *cell = Some(RouteCell {
                    entry: candidate,
                    proximity,
                });
                true
            }
            Some(existing) => {
                if existing.entry.id == candidate.id {
                    // Refresh the address/proximity of a known node.
                    if existing.entry.addr != candidate.addr || existing.proximity != proximity {
                        existing.entry = candidate;
                        existing.proximity = proximity;
                        return true;
                    }
                    false
                } else if proximity < existing.proximity {
                    *cell = Some(RouteCell {
                        entry: candidate,
                        proximity,
                    });
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes a node (after it is presumed failed). Returns `true` if an
    /// entry was removed.
    pub fn remove(&mut self, id: NodeId) -> bool {
        if id == self.own {
            return false;
        }
        let row = self.own.shared_prefix_digits(id, B) as usize;
        let col = id.digit(row as u32, B) as usize;
        match self.cells.get_mut(row * COLS + col) {
            Some(cell) if cell.is_some_and(|c| c.entry.id == id) => {
                *cell = None;
                true
            }
            _ => false,
        }
    }

    /// Returns row `n` of the table (cloned cells) — sent to joining
    /// nodes, which initialize row `i` from the `i`-th node on the join
    /// route.
    pub fn row(&self, n: usize) -> Vec<Option<RouteCell>> {
        assert!(n < self.row_count(), "row {n} out of range");
        match self.cells.get(n * COLS..(n + 1) * COLS) {
            Some(row) => row.to_vec(),
            None => vec![None; COLS],
        }
    }

    /// Iterates over all populated entries, in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = &RouteCell> {
        self.cells.iter().filter_map(|c| c.as_ref())
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Returns `true` if no cell is populated.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_net::Addr;
    use proptest::prelude::*;

    fn entry(v: u128) -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(v), Addr((v & 0xffff) as u32))
    }

    fn own() -> NodeId {
        NodeId::from_u128(0x1023_3102 << 96)
    }

    #[test]
    fn consider_places_by_prefix() {
        let mut rt = RoutingTable::new(own());
        // Shares no prefix: digit 0 differs (own digit 0 = 1; candidate = 0xf...).
        let far = entry(0xf000_0000 << 96);
        assert!(rt.consider(far, 1.0));
        assert_eq!(rt.get(0, 0xf).unwrap().entry, far);
        // Shares 3 hex digits "102": row 3, col = 0.
        let near = entry(0x1020_0000 << 96);
        assert!(rt.consider(near, 2.0));
        assert_eq!(rt.get(3, 0).unwrap().entry, near);
    }

    #[test]
    fn closer_candidate_replaces() {
        let mut rt = RoutingTable::new(own());
        let a = entry(0xf000_0000 << 96);
        let b = entry(0xf111_0000 << 96);
        rt.consider(a, 5.0);
        assert!(!rt.consider(b, 5.0), "not strictly closer");
        assert_eq!(rt.get(0, 0xf).unwrap().entry, a);
        assert!(rt.consider(b, 1.0));
        assert_eq!(rt.get(0, 0xf).unwrap().entry, b);
    }

    #[test]
    fn refresh_same_node() {
        let mut rt = RoutingTable::new(own());
        let a = entry(0xf000_0000 << 96);
        rt.consider(a, 5.0);
        // Same id, new proximity: refreshed in place.
        assert!(rt.consider(a, 2.0));
        assert_eq!(rt.get(0, 0xf).unwrap().proximity, 2.0);
        assert!(!rt.consider(a, 2.0), "no-op refresh reports no change");
    }

    #[test]
    fn own_id_never_inserted() {
        let mut rt = RoutingTable::new(own());
        assert!(!rt.consider(NodeEntry::new(own(), Addr(1)), 0.0));
        assert!(rt.is_empty());
    }

    #[test]
    fn cell_for_routes_by_shared_prefix() {
        let mut rt = RoutingTable::new(own());
        let target = NodeId::from_u128(0x1028_0000 << 96);
        // Routing toward `target` consults row 3 (shared "102"), col 8.
        let hop = entry(0x1028_9999 << 96);
        rt.consider(hop, 1.0);
        let cell = rt.cell_for(target).unwrap();
        assert_eq!(cell.as_ref().unwrap().entry, hop);
        assert!(rt.cell_for(own()).is_none());
    }

    #[test]
    fn remove_only_matching_id() {
        let mut rt = RoutingTable::new(own());
        let a = entry(0xf000_0000 << 96);
        rt.consider(a, 1.0);
        // Removing a different node that maps to the same cell is a no-op.
        assert!(!rt.remove(NodeId::from_u128(0xf111_0000 << 96)));
        assert!(rt.remove(a.id));
        assert!(rt.get(0, 0xf).is_none());
    }

    #[test]
    fn row_extraction() {
        let mut rt = RoutingTable::new(own());
        let a = entry(0xf000_0000 << 96);
        rt.consider(a, 1.0);
        let row0 = rt.row(0);
        assert_eq!(row0.len(), 16);
        assert_eq!(row0[0xf].as_ref().unwrap().entry, a);
        assert!(row0[0].is_none());
    }

    #[test]
    fn table_dimensions_match_paper() {
        // (2^b − 1) * ceil(log_2^b N) entries max; with b=4 and 128-bit
        // ids there are 32 rows of 16 columns (one column per row is the
        // node's own digit and stays empty).
        let rt = RoutingTable::new(own());
        assert_eq!(rt.row_count(), 32);
        assert_eq!(rt.row(0).len(), 16);
        assert_eq!(rt.row(31).len(), 16);
    }

    #[test]
    fn cell_is_forty_bytes() {
        // The footprint figures in DESIGN.md ("What a node and a cached
        // file cost") are rows × 16 × this: a 24-byte entry, its
        // proximity and the `Option` tag.
        assert!(std::mem::size_of::<Option<RouteCell>>() <= 40);
    }

    #[test]
    fn rows_are_allocated_by_consider_alone() {
        let mut rt = RoutingTable::new(own());
        let deep = entry(0x1023_3100 << 96); // shares 7 digits with own
        assert_eq!(rt.allocated_rows(), 0);
        // Reads and removals past the prefix see empty cells and leave
        // it alone.
        assert!(rt.get(7, 0).is_none());
        assert!(rt.cell_for(deep.id).unwrap().is_none());
        assert!(rt.row(7).iter().all(Option::is_none));
        assert!(!rt.remove(deep.id));
        assert_eq!(rt.allocated_rows(), 0);
        rt.consider(entry(0xf000_0000 << 96), 1.0);
        assert_eq!(rt.allocated_rows(), 1);
        rt.consider(deep, 1.0);
        assert_eq!(rt.allocated_rows(), 8);
        assert_eq!(rt.get(7, 0).unwrap().entry, deep);
    }

    /// The table before rows were allocated on demand: all 32 × 16 cells,
    /// always. The reference the on-demand table must be
    /// indistinguishable from.
    struct Dense(Vec<Option<RouteCell>>);

    impl Dense {
        fn slot(&mut self, id: NodeId) -> &mut Option<RouteCell> {
            let row = own().shared_prefix_digits(id, 4) as usize;
            &mut self.0[row * 16 + id.digit(row as u32, 4) as usize]
        }

        fn consider(&mut self, candidate: NodeEntry, proximity: f64) -> bool {
            if candidate.id == own() {
                return false;
            }
            let cell = self.slot(candidate.id);
            let replace = match cell {
                None => true,
                Some(c) if c.entry.id == candidate.id => {
                    c.entry.addr != candidate.addr || c.proximity != proximity
                }
                Some(c) => proximity < c.proximity,
            };
            if replace {
                *cell = Some(RouteCell {
                    entry: candidate,
                    proximity,
                });
            }
            replace
        }

        fn remove(&mut self, id: NodeId) -> bool {
            if id == own() {
                return false;
            }
            let cell = self.slot(id);
            let hit = matches!(cell, Some(c) if c.entry.id == id);
            if hit {
                *cell = None;
            }
            hit
        }
    }

    /// An id sharing exactly the first `prefix` digits with `own()` (all
    /// of them at 32, which is `own()` itself) and continuing with the
    /// two digits of `tail`, so that draws collide in cells, repeat ids
    /// and reach every row.
    fn id_at(prefix: u8, tail: u8) -> u128 {
        let keep = (prefix as u32 % 33) * 4;
        let own = own().as_u128();
        if keep == 128 {
            return own;
        }
        let mask = !(u128::MAX >> keep);
        let mut v = (own & mask) | ((tail as u128) << 120 >> keep);
        let digit_shift = 124 - keep;
        if (v >> digit_shift) & 0xf == (own >> digit_shift) & 0xf {
            v ^= 1 << digit_shift; // keep the shared prefix exact
        }
        v
    }

    proptest! {
        #[test]
        fn prop_on_demand_rows_match_dense_table(
            ops in prop::collection::vec(any::<(u8, u8, u8, u8)>(), 0..200),
        ) {
            let mut rt = RoutingTable::new(own());
            let mut dense = Dense(vec![None; 32 * 16]);
            let mut deepest = 0;
            for (op, prefix, tail, prox) in ops {
                let e = entry(id_at(prefix, tail));
                if op % 4 == 0 {
                    prop_assert_eq!(rt.remove(e.id), dense.remove(e.id));
                } else {
                    let p = (prox % 4) as f64;
                    prop_assert_eq!(rt.consider(e, p), dense.consider(e, p));
                    if e.id != own() {
                        deepest = deepest.max(own().shared_prefix_digits(e.id, 4) as usize + 1);
                    }
                }
                prop_assert_eq!(rt.allocated_rows(), deepest);
                match rt.cell_for(e.id) {
                    Some(cell) => prop_assert_eq!(cell, &*dense.slot(e.id)),
                    None => prop_assert_eq!(e.id, own()),
                }
            }
            for r in 0..32 {
                prop_assert_eq!(&rt.row(r)[..], &dense.0[r * 16..(r + 1) * 16]);
                for c in 0..16 {
                    prop_assert_eq!(rt.get(r, c), dense.0[r * 16 + c].as_ref());
                }
            }
            let order: Vec<&RouteCell> = dense.0.iter().flatten().collect();
            prop_assert_eq!(rt.entries().collect::<Vec<_>>(), order);
            prop_assert_eq!(rt.len(), order.len());
            prop_assert_eq!(rt.is_empty(), order.is_empty());
        }

        #[test]
        fn prop_entry_shares_exactly_row_digits(ids: Vec<u128>) {
            let mut rt = RoutingTable::new(own());
            for v in ids {
                rt.consider(entry(v), 1.0);
            }
            for r in 0..rt.row_count() {
                for (c, cell) in rt.row(r).iter().enumerate() {
                    if let Some(cell) = cell {
                        let shared = rt.own.shared_prefix_digits(cell.entry.id, 4) as usize;
                        prop_assert_eq!(shared, r);
                        prop_assert_eq!(cell.entry.id.digit(r as u32, 4) as usize, c);
                    }
                }
            }
        }

        #[test]
        fn prop_consider_keeps_closest(v1: u128, suffix: u128, p1: f64, p2: f64) {
            prop_assume!(p1.is_finite() && p2.is_finite());
            let o = own();
            let e1 = entry(v1);
            prop_assume!(e1.id != o);
            // Derive a second id in the same cell: keep the digits up to and
            // including the first digit differing from `own`, randomize the
            // rest.
            let row = o.shared_prefix_digits(e1.id, 4);
            let keep_bits = (row + 1) * 4;
            let mask = if keep_bits >= 128 { u128::MAX } else { !(u128::MAX >> keep_bits) };
            let v2 = (v1 & mask) | (suffix & !mask);
            let e2 = entry(v2);
            prop_assume!(e1.id != e2.id);
            let mut rt = RoutingTable::new(o);
            rt.consider(e1, p1);
            rt.consider(e2, p2);
            let row = o.shared_prefix_digits(e1.id, 4) as usize;
            let col = e1.id.digit(row as u32, 4) as usize;
            let kept = rt.get(row, col).unwrap();
            if p2 < p1 {
                prop_assert_eq!(kept.entry, e2);
            } else {
                prop_assert_eq!(kept.entry, e1);
            }
        }
    }
}
