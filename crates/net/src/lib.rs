//! Deterministic discrete-event network emulation for the PAST
//! reproduction.
//!
//! The PAST prototype (§5 of the paper) ran its experiments with up to
//! 2250 nodes inside a single process, communicating through a network
//! emulation environment. This crate provides that substrate:
//!
//! - [`Simulator`] and [`ShardedSim`]: two engines over one event core,
//!   driving per-node [`Protocol`] state machines with messages and
//!   timers, fully deterministic for a given seed. The core holds the
//!   nodes, the event queue, the faults and the statistics; an *order*
//!   owns what the engines differ on, the event key and which RNG
//!   stream draws. [`Simulator`] is one core under the legacy order
//!   (one global sequence number, one engine-wide RNG). [`ShardedSim`]
//!   partitions nodes across cores under the shard order (per-node
//!   sequence numbers and RNG streams), which advance window by window
//!   on one thread under conservative lookahead (window = the topology's
//!   [`Topology::min_latency`]) with the *same seed producing the same
//!   execution at any shard count*; its windows and barrier are its
//!   own.
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
mod engine;
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
