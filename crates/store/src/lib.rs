//! Per-node storage management and caching for PAST (paper §3 and §4).
//!
//! [`NodeStore`] manages one node's advertised disk space: primary
//! replicas, diverted replicas held for leaf-set neighbors, the A→B and
//! C→B diversion pointers of §3.3 ([`Pointer`], [`BackupPointer`]: one
//! 16-byte record each, certificate included, nodes named by handles
//! into a per-store peer table), and a [`Cache`] occupying the unused
//! remainder with GreedyDual-Size or LRU replacement.
//!
//! The acceptance thresholds [`StorePolicy::t_pri`]/[`StorePolicy::t_div`]
//! implement the §3.3.1 policies: a node N rejects a file D when
//! `size(D)/free(N) > t`, discriminating against large files as the node
//! fills, with a stricter threshold for diverted replicas so that space
//! remains for primaries.

mod cache;
mod store;
mod table;

pub use cache::{Cache, CacheEvent, CachePolicyKind};
pub use store::{
    BackupPointer, BackupPointerRef, NodeStore, Pointer, PointerRef, ReplicaRef, Resolution,
    StoreError, StorePolicy, StoredReplica,
};
