//! Base-2^b digit utilities shared by node and file identifiers.
//!
//! Pastry interprets identifiers as strings of digits with base 2^b
//! (b = 4 in the paper and in `past-pastry`). Each routing step
//! resolves at least one more digit of the destination key.

/// Namespace for digit-base helpers.
pub struct Digits;

impl Digits {
    /// Valid digit bases: b must be in 1..=8 and divide 128 so that an id
    /// decomposes into a whole number of digits.
    pub const VALID_BASES: [u32; 4] = [1, 2, 4, 8];

    /// Panics unless `b` is a supported digit width.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not one of 1, 2, 4, 8.
    pub fn check_base(b: u32) {
        assert!(
            Self::VALID_BASES.contains(&b),
            "digit base b={b} unsupported (must be one of {:?})",
            Self::VALID_BASES
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn base_zero_rejected() {
        Digits::check_base(0);
    }

    #[test]
    #[should_panic]
    fn base_three_rejected() {
        Digits::check_base(3);
    }
}
