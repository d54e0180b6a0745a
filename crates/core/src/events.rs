//! Harness-visible events (upcalls) emitted by PAST nodes.
//!
//! The experiment harness reconstructs every metric the paper reports
//! from this stream: insert success/failure and re-salt counts (Tables
//! 2–4, Figures 2–4, 6, 7), replica diversion ratios (Figure 5), global
//! utilization (all storage figures), and lookup hops / cache hit rates
//! (Figure 8).

use past_id::FileId;

use crate::messages::HitKind;

/// An event emitted by a PAST node.
#[derive(Clone, Debug, PartialEq)]
pub enum PastEvent {
    /// A client insert completed (successfully or not).
    InsertDone {
        /// Client-local sequence number of the operation.
        seq: u64,
        /// The final fileId (of the last salt attempt).
        file_id: FileId,
        /// File size in bytes.
        size: u64,
        /// Total attempts made (1 = no file diversion; the paper allows
        /// up to 4).
        attempts: u32,
        /// Whether the insert succeeded.
        success: bool,
    },
    /// A client lookup completed.
    LookupDone {
        /// Client-local sequence number.
        seq: u64,
        /// The file looked up.
        file_id: FileId,
        /// Whether the file was found.
        found: bool,
        /// Pastry routing hops until the file was found (the paper's
        /// fetch-distance metric; includes the +1 for a diverted fetch).
        hops: u32,
        /// What kind of copy answered (when found).
        kind: Option<HitKind>,
        /// Whether the final answer's content did not match the
        /// certificate's content hash (served by a Byzantine holder and
        /// not recovered by retries). Always `false` on misses.
        corrupted: bool,
    },
    /// A client reclaim completed.
    ReclaimDone {
        /// Client-local sequence number.
        seq: u64,
        /// The file reclaimed.
        file_id: FileId,
        /// Whether a responsible node accepted the reclaim.
        ok: bool,
        /// Bytes credited back against the quota.
        freed: u64,
    },
    /// A node stored a replica (primary or diverted). Drives the global
    /// utilization and diversion-ratio accounting.
    ReplicaStored {
        /// File concerned.
        file_id: FileId,
        /// Bytes stored.
        size: u64,
        /// `true` when stored as a diverted replica.
        diverted: bool,
    },
    /// A node dropped a replica (insert abort, reclaim, migration).
    ReplicaDropped {
        /// File concerned.
        file_id: FileId,
        /// Bytes freed.
        size: u64,
        /// Whether the dropped copy was a diverted replica.
        diverted: bool,
    },
}
