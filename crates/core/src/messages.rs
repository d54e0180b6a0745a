//! PAST wire messages (carried as the Pastry application payload).

use past_crypto::{Digest, SharedFileCert, SharedReceipt, SharedReclaimCert};
use past_id::{FileId, NodeId};
use past_pastry::NodeEntry;

/// Identifies a client operation: the issuing node plus a local sequence
/// number. Replies are sent directly to `client.addr`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReqId {
    /// The client node that issued the operation.
    pub client: NodeEntry,
    /// Client-local sequence number.
    pub seq: u64,
}

impl ReqId {
    /// Hashable key form.
    pub fn key(&self) -> (NodeId, u64) {
        (self.client.id, self.seq)
    }
}

/// How a lookup was satisfied (for the caching experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitKind {
    /// Served from a primary replica.
    Primary,
    /// Served from a diverted replica (one extra hop through the pointer).
    Diverted,
    /// Served from a node's disk cache.
    Cached,
}

/// A PAST message. Every message piggybacks the sender's current free
/// space, which feeds the diversion-target selection policy ("choose the
/// node with maximal remaining free space").
#[derive(Clone, Debug)]
pub struct PastMsg {
    /// Sender's free bytes at send time.
    pub free: u64,
    /// The payload.
    pub kind: MsgKind,
}

/// PAST message bodies.
#[derive(Clone, Debug)]
pub enum MsgKind {
    /// Routed toward the fileId: an insert request carrying the file
    /// certificate (the file content travels with it).
    Insert {
        /// Operation id.
        req: ReqId,
        /// Signed file certificate.
        cert: SharedFileCert,
    },
    /// Routed toward the fileId: a lookup request. `path` accumulates the
    /// nodes traversed so the response can retrace it (populating caches).
    Lookup {
        /// Operation id.
        req: ReqId,
        /// Requested file.
        file_id: FileId,
        /// Nodes traversed so far (client excluded).
        path: Vec<NodeEntry>,
    },
    /// Routed toward the fileId: a reclaim request.
    Reclaim {
        /// Operation id.
        req: ReqId,
        /// Signed reclaim certificate.
        cert: SharedReclaimCert,
    },
    /// Coordinator → the other k−1 replica holders: store a replica.
    Replicate {
        /// Operation id.
        req: ReqId,
        /// The file certificate.
        cert: SharedFileCert,
        /// The coordinating node (receives the result).
        coordinator: NodeEntry,
    },
    /// Replica holder → coordinator: outcome of a store attempt.
    ReplicateResult {
        /// Operation id.
        req: ReqId,
        /// File concerned.
        file_id: FileId,
        /// Whether the holder stored the replica, itself or through a
        /// diversion (`false` when both failed).
        stored: bool,
        /// The signed store receipt: present when `stored` and the run
        /// verifies certificates, since only then is one signed.
        receipt: Option<SharedReceipt>,
        /// The node reporting.
        storer: NodeEntry,
    },
    /// Node A → node B: hold a diverted replica on A's behalf (§3.3).
    Divert {
        /// Insert operation id (`None` during §3.5 maintenance).
        req: Option<ReqId>,
        /// The file certificate.
        cert: SharedFileCert,
        /// The diverting node A.
        requester: NodeEntry,
    },
    /// B → A: diversion outcome.
    DivertResult {
        /// File concerned.
        file_id: FileId,
        /// Whether B accepted the replica.
        accepted: bool,
        /// The answering node B.
        holder: NodeEntry,
    },
    /// Install a diversion pointer: `holder` stores the replica. With
    /// `backup`, this is the C→B pointer placed on the k+1-th closest
    /// node to guard against A's failure.
    InstallPointer {
        /// File concerned.
        file_id: FileId,
        /// The replica holder (B).
        holder: NodeEntry,
        /// Whether this is the backup (C) pointer.
        backup: bool,
        /// Certificate, kept so the pointer owner can re-create the
        /// replica if the holder fails.
        cert: SharedFileCert,
    },
    /// Drop a replica/pointer for `file_id` (insert abort or reclaim).
    Discard {
        /// File concerned.
        file_id: FileId,
    },
    /// Coordinator → client: insert outcome.
    InsertReply {
        /// Operation id.
        req: ReqId,
        /// File concerned.
        file_id: FileId,
        /// Store receipts from each replica holder (empty when the run
        /// does not verify certificates).
        receipts: Vec<SharedReceipt>,
        /// Number of replicas the coordinator aimed for.
        expected: u32,
        /// Overall success.
        ok: bool,
    },
    /// A node that found the file answers back along the request path;
    /// each node on `reverse_path` caches the file and forwards.
    LookupHit {
        /// Operation id.
        req: ReqId,
        /// Certificate (stands in for the file content).
        cert: SharedFileCert,
        /// Pastry hops the request took until the hit.
        hops: u32,
        /// What kind of copy answered.
        kind: HitKind,
        /// Remaining nodes to traverse; the client is last.
        reverse_path: Vec<NodeEntry>,
        /// Whether the served content does not match the certificate's
        /// content hash (a Byzantine holder answered from a corrupted
        /// copy). Honest relays propagate the flag — in the real system
        /// any node can recompute SHA-1 over the received bytes.
        corrupted: bool,
        /// The node that answered (for client-side shunning when
        /// content verification detects corruption).
        server: NodeEntry,
    },
    /// The responsible node does not have the file.
    LookupMiss {
        /// Operation id.
        req: ReqId,
        /// File concerned.
        file_id: FileId,
    },
    /// A (pointer owner) → B (replica holder): answer this lookup.
    FetchDiverted {
        /// Operation id.
        req: ReqId,
        /// File concerned.
        file_id: FileId,
        /// Hops the request had taken when it hit the pointer (the extra
        /// A→B hop is added by B).
        hops: u32,
        /// Request path for the response to retrace.
        path: Vec<NodeEntry>,
    },
    /// Coordinator → replica holders: execute a verified reclaim.
    ReclaimExec {
        /// The reclaim certificate (re-verified by each holder).
        cert: SharedReclaimCert,
    },
    /// Coordinator → client: reclaim outcome (weak semantics — the
    /// coordinator replies once the reclaim is dispatched).
    ReclaimReply {
        /// Operation id.
        req: ReqId,
        /// File concerned.
        file_id: FileId,
        /// Whether a responsible node processed the reclaim.
        ok: bool,
        /// Bytes whose reclamation was initiated (size × replicas), for
        /// the client's quota credit.
        freed: u64,
    },
    /// Responsible node → advertising holder: send me the file, which
    /// the holder's advertisement said this node misses (warm-restart
    /// reconciliation; the shipped bytes count as refresh bytes).
    FetchReplica {
        /// File concerned.
        file_id: FileId,
    },
    /// Replica holder → replica set: "I hold this file" — the cheap
    /// (certificate-sized) alternative to shipping the whole replica.
    /// Sent routed toward the fileId by a warm-restarted node so it
    /// converges on the current coordinator, and directly by the
    /// anti-entropy sweep in warm-restart mode. A receiver missing the
    /// replica fetches it; a receiver that holds it and judges the
    /// advertiser outside the k closest answers `MigrationDone` so the
    /// farthest holder drops (over-replication reconciliation).
    ReplicaAdvertise {
        /// The file certificate.
        cert: SharedFileCert,
        /// The advertising holder.
        holder: NodeEntry,
    },
    /// Replica holder → new responsible node: the file (as its
    /// certificate).
    ReplicaTransfer {
        /// The file certificate.
        cert: SharedFileCert,
    },
    /// New responsible node → old holder: migration complete, you may
    /// drop your copy if no longer responsible.
    MigrationDone {
        /// File concerned.
        file_id: FileId,
    },
    /// Reliable-delivery envelope for maintenance traffic
    /// (`ReplicaTransfer`, `InstallPointer`, `FetchReplica`,
    /// `ReplicaAdvertise`, `Discard`): the sender retransmits `inner`
    /// with exponential
    /// backoff until a matching [`MsgKind::MaintAck`] arrives or its
    /// retry budget is exhausted.
    MaintSeq {
        /// Sender-local maintenance sequence number.
        seq: u64,
        /// The enveloped maintenance message.
        inner: Box<MsgKind>,
    },
    /// Receiver → sender: acknowledges receipt of `MaintSeq { seq }`.
    MaintAck {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Auditor → replica holder: prove possession of `file_id` by
    /// answering SHA-1(file ‖ nonce) (sampled storage audit).
    AuditChallenge {
        /// Auditor-local challenge sequence number (echoed back).
        seq: u64,
        /// File audited.
        file_id: FileId,
        /// One-shot nonce for this challenge.
        nonce: u64,
        /// The auditing node (receives the proof).
        auditor: NodeEntry,
    },
    /// Replica holder → auditor: the possession proof.
    AuditProof {
        /// Echo of the challenge's sequence number.
        seq: u64,
        /// File audited.
        file_id: FileId,
        /// SHA-1(content ‖ nonce), or `None` for "copy not held".
        proof: Option<Digest>,
        /// The answering holder.
        holder: NodeEntry,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_net::Addr;

    #[test]
    fn req_id_key_distinguishes_clients_and_seqs() {
        let a = ReqId {
            client: NodeEntry::new(NodeId::from_u128(1), Addr(1)),
            seq: 9,
        };
        let b = ReqId {
            client: NodeEntry::new(NodeId::from_u128(2), Addr(2)),
            seq: 9,
        };
        assert_ne!(a.key(), b.key());
        let c = ReqId { seq: 10, ..a };
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), a.key());
    }
}
