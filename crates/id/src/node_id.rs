//! The 128-bit node identifier.

use std::fmt;

use rand::Rng;

use crate::digits::Digits;
use crate::ring;

/// Number of bits in a [`NodeId`].
pub const NODE_ID_BITS: u32 = 128;

/// Number of bytes in a [`NodeId`].
pub const NODE_ID_BYTES: usize = 16;

/// A 128-bit identifier on the circular Pastry namespace.
///
/// The namespace ranges from 0 to 2^128 − 1 and wraps around; all distance
/// computations are performed modulo 2^128. NodeIds are assigned
/// quasi-randomly (the paper uses the SHA-1 hash of the node's public key)
/// so that adjacent nodeIds are diverse in geography, ownership and
/// jurisdiction.
///
/// `NodeId` is also used as the *routing key* derived from a file
/// identifier: PAST stores a file on the `k` nodes whose nodeIds are
/// numerically closest to the 128 most significant bits of the fileId
/// (see [`crate::FileId::as_key`]).
///
/// Stored at 8-byte alignment: a `u128` is 16-byte aligned on x86-64,
/// which pads every record that holds an id beside a 4-byte address
/// (a `NodeEntry` is 24 bytes this way, not 32). The derives copy the
/// field out by value, so order, equality and the single `write_u128`
/// into a hasher are those of the raw `u128`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(Rust, packed(8))]
pub struct NodeId(u128);

impl NodeId {
    /// The smallest identifier (all zero bits).
    pub const MIN: NodeId = NodeId(0);

    /// The largest identifier (all one bits).
    pub const MAX: NodeId = NodeId(u128::MAX);

    /// Creates an identifier from a raw 128-bit value.
    pub const fn from_u128(raw: u128) -> Self {
        NodeId(raw)
    }

    /// Returns the raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Creates an identifier from 16 big-endian bytes.
    pub fn from_bytes(bytes: [u8; NODE_ID_BYTES]) -> Self {
        NodeId(u128::from_be_bytes(bytes))
    }

    /// Returns the identifier as 16 big-endian bytes.
    pub fn to_bytes(self) -> [u8; NODE_ID_BYTES] {
        self.0.to_be_bytes()
    }

    /// Draws a uniformly distributed identifier from `rng`.
    ///
    /// The paper relies on nodeIds and fileIds being uniformly distributed
    /// in their domains; that property makes the number of files per node
    /// roughly balanced before any explicit load balancing.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        NodeId(rng.gen())
    }

    /// Returns the absolute distance to `other` on the ring (the shorter
    /// way around).
    pub fn ring_distance(self, other: NodeId) -> u128 {
        ring::ring_distance(self.0, other.0)
    }

    /// Returns the clockwise (increasing id, wrapping) distance to `other`.
    pub fn cw_distance(self, other: NodeId) -> u128 {
        ring::cw_distance(self.0, other.0)
    }

    /// Returns the counter-clockwise distance to `other`.
    pub fn ccw_distance(self, other: NodeId) -> u128 {
        ring::ccw_distance(self.0, other.0)
    }

    /// Returns `true` if `self` is numerically closer to `key` than
    /// `other` is, breaking exact ties toward the smaller raw id so that
    /// closeness induces a total order.
    pub fn closer_to(self, key: NodeId, other: NodeId) -> bool {
        let da = self.ring_distance(key);
        let db = other.ring_distance(key);
        da < db || (da == db && self.0 < other.0)
    }

    /// Extracts digit `index` (0 = most significant) in base 2^b.
    ///
    /// # Panics
    ///
    /// Panics if `b` is 0, larger than 32, does not divide 128, or if
    /// `index` is out of range for that base.
    pub fn digit(self, index: u32, b: u32) -> u32 {
        Digits::check_base(b);
        let count = NODE_ID_BITS / b;
        assert!(index < count, "digit index {index} out of range for b={b}");
        let shift = NODE_ID_BITS - (index + 1) * b;
        ((self.0 >> shift) & ((1u128 << b) - 1)) as u32
    }

    /// Number of base-2^b digits in an id.
    pub fn digit_count(b: u32) -> u32 {
        Digits::check_base(b);
        NODE_ID_BITS / b
    }

    /// Length of the common prefix with `other`, in base-2^b digits.
    pub fn shared_prefix_digits(self, other: NodeId, b: u32) -> u32 {
        Digits::check_base(b);
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return NODE_ID_BITS / b;
        }
        diff.leading_zeros() / b
    }

    /// Returns a copy of `self` with digit `index` (base 2^b) replaced by
    /// `value`, useful for synthesizing routing-table probes and tests.
    ///
    /// # Panics
    ///
    /// Panics if `value >= 2^b` or the index is out of range.
    pub fn with_digit(self, index: u32, b: u32, value: u32) -> NodeId {
        Digits::check_base(b);
        let count = NODE_ID_BITS / b;
        assert!(index < count, "digit index {index} out of range for b={b}");
        assert!(value < (1 << b), "digit value {value} out of range for b={b}");
        let shift = NODE_ID_BITS - (index + 1) * b;
        let mask = ((1u128 << b) - 1) << shift;
        NodeId((self.0 & !mask) | ((value as u128) << shift))
    }

    /// Formats the identifier as base-2^b digits (for diagnostics
    /// mirroring the paper's base-4 examples).
    pub fn to_digit_string(self, b: u32) -> String {
        Digits::check_base(b);
        let count = NODE_ID_BITS / b;
        let mut s = String::with_capacity(count as usize);
        for i in 0..count {
            let d = self.digit(i, b);
            if d < 10 {
                s.push((b'0' + d as u8) as char);
            } else {
                s.push((b'a' + (d - 10) as u8) as char);
            }
        }
        s
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:032x})", self.as_u128())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.as_u128())
    }
}

impl From<u128> for NodeId {
    fn from(raw: u128) -> Self {
        NodeId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn ring_distance_is_shorter_way_around() {
        let a = NodeId::from_u128(1);
        let b = NodeId::MAX;
        assert_eq!(a.ring_distance(b), 2);
        assert_eq!(b.ring_distance(a), 2);
    }

    #[test]
    fn ring_distance_to_self_is_zero() {
        let a = NodeId::from_u128(42);
        assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn cw_and_ccw_distances_wrap() {
        let a = NodeId::from_u128(10);
        let b = NodeId::from_u128(4);
        assert_eq!(a.cw_distance(b), u128::MAX - 5);
        assert_eq!(a.ccw_distance(b), 6);
    }

    #[test]
    fn digit_extraction_matches_hex() {
        let id = NodeId::from_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(id.digit(0, 4), 0x0);
        assert_eq!(id.digit(1, 4), 0x1);
        assert_eq!(id.digit(15, 4), 0xf);
        assert_eq!(id.digit(31, 4), 0xf);
    }

    #[test]
    fn digit_extraction_base2() {
        let id = NodeId::from_u128(1u128 << 127);
        assert_eq!(id.digit(0, 1), 1);
        assert_eq!(id.digit(1, 1), 0);
    }

    #[test]
    fn shared_prefix_digits_examples() {
        let a = NodeId::from_u128(0x1000);
        let b = NodeId::from_u128(0x1008);
        assert_eq!(a.shared_prefix_digits(b, 4), 31);
        assert_eq!(a.shared_prefix_digits(a, 4), 32);
        let c = NodeId::from_u128(1u128 << 127);
        assert_eq!(a.shared_prefix_digits(c, 4), 0);
    }

    #[test]
    fn with_digit_roundtrip() {
        let id = NodeId::from_u128(0);
        let id2 = id.with_digit(3, 4, 0xa);
        assert_eq!(id2.digit(3, 4), 0xa);
        assert_eq!(id2.digit(2, 4), 0);
        assert_eq!(id2.with_digit(3, 4, 0), id);
    }

    #[test]
    fn closer_to_is_total_on_ties() {
        let key = NodeId::from_u128(100);
        let a = NodeId::from_u128(95);
        let b = NodeId::from_u128(105);
        // Equal distance: the tie breaks toward the smaller raw id.
        assert!(a.closer_to(key, b));
        assert!(!b.closer_to(key, a));
    }

    #[test]
    fn digit_string_matches_paper_notation() {
        // The paper's example node 10233102 is base 4 over 16-bit ids; we
        // check our rendering over the high digits of a 128-bit id.
        let id = NodeId::from_u128(0x4e4d_2000_0000_0000_0000_0000_0000_0000);
        // 0x4e4d = 0b01_00_11_10_01_00_11_01 = digits 1,0,3,2,1,0,3,1 in base 4.
        let s = id.to_digit_string(2);
        assert!(s.starts_with("10321031"));
    }

    #[test]
    fn byte_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let id = NodeId::random(&mut rng);
            assert_eq!(NodeId::from_bytes(id.to_bytes()), id);
        }
    }

    #[test]
    fn stored_at_eight_byte_alignment_and_otherwise_a_u128() {
        use std::hash::{Hash, Hasher};
        assert_eq!(std::mem::size_of::<NodeId>(), NODE_ID_BYTES);
        assert_eq!(std::mem::align_of::<NodeId>(), 8);
        // Order, text and hash stream are the raw value's.
        let raw = [0, 1, 0xdead_beef, 1 << 64, (1 << 64) + 1, 1 << 127, u128::MAX];
        for (a, b) in raw.iter().flat_map(|a| raw.iter().map(move |b| (*a, *b))) {
            assert_eq!(NodeId::from_u128(a).cmp(&NodeId::from_u128(b)), a.cmp(&b));
        }
        for v in raw {
            let id = NodeId::from_u128(v);
            assert_eq!(format!("{id}"), format!("{v:032x}"));
            assert_eq!(format!("{id:?}"), format!("NodeId({v:032x})"));
            let (mut by_id, mut by_raw) = (crate::IdHasher::default(), crate::IdHasher::default());
            id.hash(&mut by_id);
            v.hash(&mut by_raw);
            assert_eq!(by_id.finish(), by_raw.finish());
        }
    }

    #[test]
    #[should_panic]
    fn digit_index_out_of_range_panics() {
        NodeId::from_u128(0).digit(32, 4);
    }

    #[test]
    #[should_panic]
    fn bad_base_panics() {
        NodeId::from_u128(0).digit(0, 3);
    }

    proptest! {
        #[test]
        fn prop_ring_distance_symmetric(a: u128, b: u128) {
            let (a, b) = (NodeId::from_u128(a), NodeId::from_u128(b));
            prop_assert_eq!(a.ring_distance(b), b.ring_distance(a));
        }

        #[test]
        fn prop_ring_distance_at_most_half(a: u128, b: u128) {
            let (a, b) = (NodeId::from_u128(a), NodeId::from_u128(b));
            prop_assert!(a.ring_distance(b) <= 1u128 << 127);
        }

        #[test]
        fn prop_cw_plus_ccw_is_zero_mod_ring(a: u128, b: u128) {
            let (a, b) = (NodeId::from_u128(a), NodeId::from_u128(b));
            let cw = a.cw_distance(b);
            let ccw = a.ccw_distance(b);
            if a != b {
                prop_assert_eq!(cw.wrapping_add(ccw), 0u128);
            } else {
                prop_assert_eq!(cw, 0); prop_assert_eq!(ccw, 0);
            }
        }

        #[test]
        fn prop_shared_prefix_consistent_with_digits(a: u128, b: u128, bb in prop::sample::select(vec![1u32, 2, 4, 8])) {
            let (a, b) = (NodeId::from_u128(a), NodeId::from_u128(b));
            let p = a.shared_prefix_digits(b, bb);
            for i in 0..p {
                prop_assert_eq!(a.digit(i, bb), b.digit(i, bb));
            }
            if p < NodeId::digit_count(bb) {
                prop_assert_ne!(a.digit(p, bb), b.digit(p, bb));
            }
        }

        #[test]
        fn prop_digit_reassembly(a: u128, bb in prop::sample::select(vec![1u32, 2, 4, 8])) {
            let id = NodeId::from_u128(a);
            let mut acc: u128 = 0;
            for i in 0..NodeId::digit_count(bb) {
                acc = (acc << bb) | id.digit(i, bb) as u128;
            }
            prop_assert_eq!(acc, a);
        }

        #[test]
        fn prop_closer_to_antisymmetric(a: u128, b: u128, key: u128) {
            let (a, b, key) = (NodeId::from_u128(a), NodeId::from_u128(b), NodeId::from_u128(key));
            if a != b {
                prop_assert_ne!(a.closer_to(key, b), b.closer_to(key, a));
            }
        }
    }
}
