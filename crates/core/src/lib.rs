//! PAST: a large-scale, persistent peer-to-peer storage utility
//! (Rowstron & Druschel, SOSP 2001) — the paper's primary contribution.
//!
//! A [`PastNode`] is a Pastry application ([`past_pastry::Application`])
//! that implements:
//!
//! - the client operations **Insert**, **Lookup** and **Reclaim** (§2.2),
//!   with signed file certificates, store receipts and quota accounting;
//! - **storage management** (§3): the `t_pri`/`t_div` acceptance
//!   policies, *replica diversion* into the leaf set with A→B pointers
//!   and C→B backup pointers, and *file diversion* by re-salting the
//!   fileId (up to three retries);
//! - **replica maintenance** (§3.5): restoring the k-copies invariant on
//!   node arrival and failure, over acked, retransmitted messages;
//! - **caching** (§4): route-through insertion into the unused disk
//!   space, GreedyDual-Size replacement, and lookup responses that
//!   retrace the request path to populate caches;
//! - **Byzantine defense** (beyond the paper, LOCKSS-style): sampled
//!   challenge-response storage audits ([`AuditBook`]) that demote and
//!   shun holders failing possession proofs, plus client-side lookup
//!   content verification with shun-and-retry, both armed by one
//!   audit period that defaults to off.
//!
//! Nodes emit [`PastEvent`]s, from which the experiment harness
//! (`past-sim`) reconstructs every metric in the paper's evaluation.

mod audit;
mod config;
mod events;
mod insert;
mod lookup;
mod maintain;
mod messages;
mod node;
mod obs;
mod reclaim;

pub use audit::{AuditBook, AuditStats, AuditVerdict, PendingAudit};
pub use config::{PastConfig, K};
pub use events::PastEvent;
pub use messages::{HitKind, MsgKind, PastMsg, ReqId};
pub use node::{MaintStats, PastNode};

/// A PAST node hosted on the Pastry overlay (what the simulator runs).
pub type PastOverlayNode = past_pastry::PastryNode<PastNode>;
