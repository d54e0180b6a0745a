//! Pastry: the peer-to-peer routing substrate PAST is layered on
//! (Rowstron & Druschel, Middleware 2001; summarized in §2.1 of the PAST
//! paper).
//!
//! Given a 128-bit key, Pastry routes a message to the live node whose
//! nodeId is numerically closest to the key in under ⌈log_2^b N⌉ steps
//! under normal operation. Each node maintains three structures:
//!
//! - a [`RoutingTable`] of (2^b − 1) × ⌈log_2^b N⌉ prefix-matched entries
//!   chosen for network proximity,
//! - a [`LeafSet`] of the l numerically closest nodes (routing anchor and
//!   PAST's replica neighborhood), and
//! - a [`NeighborhoodSet`] of the l proximally closest nodes (join-time
//!   locality seeding).
//!
//! [`PastryNode`] drives these over the `past-net` simulator: node join,
//! keep-alive failure detection, leaf-set repair, randomized routing, and
//! hosting of an [`Application`] (PAST) with per-hop interception.

mod config;
mod leaf_set;
mod neighborhood;
mod node;
mod routing_table;
mod state;

pub use config::{PastryConfig, B};
pub use leaf_set::{LeafSet, NodeEntry};
pub use neighborhood::{Neighbor, NeighborhoodSet};
pub use node::{AppCtx, Application, Body, Envelope, PastryNode};
pub use routing_table::{RouteCell, RoutingTable};
pub use state::{HopClass, LeafChange, NextHop, PastryState};
