//! Pastry configuration parameters.

use past_net::SimDuration;

/// Digit width `b` in bits: ids are strings of base-2^b digits, and
/// the routing table has 2^b columns (the paper's value, 4).
pub const B: u32 = 4;

/// Tunable Pastry parameters (paper §2.1).
#[derive(Clone, Debug)]
pub struct PastryConfig {
    /// Leaf set size `l`: the l/2 numerically closest larger and l/2
    /// closest smaller nodeIds. Typical value 32. Eventual delivery is
    /// guaranteed unless ⌊l/2⌋ adjacent nodes fail simultaneously. The
    /// neighborhood set (the nodes closest under the *proximity*
    /// metric, which seed routing state during join) has `l` members
    /// too, as in the paper.
    pub leaf_set_size: usize,
    /// Period between keep-alive probes to leaf-set members. A zero
    /// period disables keep-alives entirely (useful for static-network
    /// experiments, where it lets the event queue drain).
    pub keep_alive_period: SimDuration,
    /// Unresponsive-node timeout `T`: after this long without hearing from
    /// a leaf-set member, it is presumed failed.
    pub failure_timeout: SimDuration,
    /// Enables randomized routing: instead of always taking the best next
    /// hop, occasionally take another admissible hop (one sharing at least
    /// as long a prefix and numerically closer to the key). Defends
    /// against malicious nodes that swallow messages on a fixed route.
    pub randomized_routing: bool,
    /// Per-hop acknowledgments for routed messages: the forwarding node
    /// detects a dead next hop by timeout, removes it from its state
    /// ("routing table entries that refer to failed nodes are repaired
    /// lazily") and re-forwards around it. Costs one extra message and a
    /// timer per hop; static-network experiments disable it.
    pub per_hop_acks: bool,
    /// Warm restarts: a recovering node rebuilds from the state it kept
    /// across the crash (leaf set, routing table, neighborhood) —
    /// re-feeding every entry through the normal validation
    /// paths — instead of rejoining cold. The application reads the
    /// same flag: a restarted PAST node re-advertises the primaries its
    /// store still holds, and its anti-entropy sweep and
    /// over-replication reconciliation switch to the advertise-based
    /// forms. Off by default so legacy runs stay byte-identical.
    pub warm_restart: bool,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            leaf_set_size: 32,
            keep_alive_period: SimDuration::from_secs(30),
            failure_timeout: SimDuration::from_secs(90),
            randomized_routing: false,
            per_hop_acks: false,
            warm_restart: false,
        }
    }
}

impl PastryConfig {
    /// Validates invariants between parameters.
    ///
    /// # Panics
    ///
    /// Panics if the leaf set is not a non-zero even size.
    pub fn validate(&self) {
        assert!(
            self.leaf_set_size >= 2 && self.leaf_set_size.is_multiple_of(2),
            "leaf set size must be even and >= 2"
        );
    }

    /// Half the leaf set: entries kept on each side of the node.
    pub fn leaf_half(&self) -> usize {
        self.leaf_set_size / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = PastryConfig::default();
        c.validate();
        assert_eq!(c.leaf_set_size, 32);
        assert_eq!(c.leaf_half(), 16);
        // Robustness extensions ship disabled: default runs must stay
        // byte-identical to the paper configuration.
        assert!(!c.warm_restart);
    }

    #[test]
    #[should_panic]
    fn odd_leaf_set_rejected() {
        PastryConfig {
            leaf_set_size: 15,
            ..Default::default()
        }
        .validate();
    }
}
