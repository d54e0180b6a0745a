//! Deterministic discrete-event network emulation for the PAST
//! reproduction.
//!
//! The PAST prototype (§5 of the paper) ran its experiments with up to
//! 2250 nodes inside a single process, communicating through a network
//! emulation environment. This crate provides that substrate:
//!
//! - [`Simulator`]: the single-threaded event-queue simulator driving
//!   per-node [`Protocol`] state machines with messages and timers,
//!   fully deterministic for a given seed.
//! - [`ShardedSim`]: the sharded multi-core engine — nodes are
//!   partitioned across shards that advance in parallel under
//!   conservative lookahead (window = the topology's
//!   [`Topology::min_latency`]), with the *same seed producing the same
//!   execution at any shard count*.
//! - [`Topology`] implementations supplying the scalar *proximity metric*
//!   that Pastry's locality heuristics depend on, and per-message latency:
//!   [`EuclideanTopology`], [`ClusteredTopology`] (the eight-site NLANR
//!   layout of §5.2) and [`UniformTopology`].
//! - [`FaultPlan`]: deterministic, seeded fault injection — crash and
//!   recovery schedules (including Poisson churn), per-link message
//!   loss, latency jitter, two-sided network partitions, and seeded
//!   per-node Byzantine strategy assignment ([`ByzantineBehavior`]).
//! - [`SimTime`]/[`SimDuration`] and [`Addr`] vocabulary types.

mod addr;
mod fault;
mod proto;
mod queue;
mod shard;
mod sharded;
mod sim;
mod time;
mod topology;

pub use addr::Addr;
pub use fault::{ByzantineBehavior, FaultPlan, NodeFault, Partition};
pub use proto::{Ctx, NetStats, Protocol};
pub use sharded::ShardedSim;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
pub use topology::{ClusteredTopology, EuclideanTopology, Topology, UniformTopology};
