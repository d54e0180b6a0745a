//! The PAST node: a Pastry [`Application`] implementing the paper's
//! insert/lookup/reclaim operations, storage management (replica and
//! file diversion) and caching.


use past_crypto::{
    Digest, FileCertificate, KeyPair, QuotaLedger, ReclaimCertificate, SharedFileCert,
    SharedReceipt, SharedReclaimCert,
};
use past_id::{FileId, IdHashMap, NodeId};
use past_net::ByzantineBehavior;
use past_pastry::{AppCtx, Application, NodeEntry};
use past_store::{NodeStore, Resolution};

use crate::audit::{corrupted_proof, honest_proof, AuditBook, AuditStats, AuditVerdict};
use crate::config::{PastConfig, K};
use crate::events::PastEvent;
use crate::messages::{HitKind, MsgKind, PastMsg, ReqId};
use crate::obs;

/// Context alias used by every PAST handler.
pub(crate) type PCtx<'a, 'b> = AppCtx<'a, 'b, PastMsg, PastEvent>;

/// Timer token for the anti-entropy sweep.
pub(crate) const ANTI_ENTROPY_TOKEN: u64 = 1;
/// Timer token for the sampled storage-audit sweep.
pub(crate) const AUDIT_SWEEP_TOKEN: u64 = 2;
/// Audit-challenge timeout tokens: `AUDIT_TIMEOUT_BASE + audit seq`
/// (the namespace spans up to `TIMEOUT_BASE`, far beyond any sim's
/// challenge count).
pub(crate) const AUDIT_TIMEOUT_BASE: u64 = 1 << 10;
/// Client timeout tokens: `TIMEOUT_BASE + seq`.
pub(crate) const TIMEOUT_BASE: u64 = 1 << 20;
/// Maintenance retransmission tokens: `MAINT_RETRY_BASE + maint seq`.
pub(crate) const MAINT_RETRY_BASE: u64 = 1 << 36;

/// Maximum files audited per storage-audit sweep.
const AUDIT_BATCH: usize = 4;
/// How long an auditor waits for a possession proof before treating the
/// challenge as failed.
const AUDIT_TIMEOUT: past_net::SimDuration = past_net::SimDuration::from_secs(2);

/// A client operation awaiting completion.
#[derive(Clone, Debug)]
pub(crate) enum PendingOp {
    /// An insert, possibly across several salt attempts.
    Insert {
        /// File name (re-hashed on each re-salt).
        name: String,
        /// File size.
        size: u64,
        /// Attempts made so far (1-based once routed).
        attempts: u32,
        /// Certificate of the current attempt.
        cert: SharedFileCert,
    },
    /// A lookup.
    Lookup {
        /// The requested file.
        file_id: FileId,
        /// Re-routes issued after a corrupted answer (only while audits
        /// are armed; capped at `k`).
        retries: u32,
    },
    /// A reclaim.
    Reclaim {
        /// The reclaimed file.
        file_id: FileId,
    },
}

/// Coordinator-side state for one insert attempt.
#[derive(Clone, Debug)]
pub(crate) struct InsertCoord {
    /// The fileId this coordinator is inserting. Re-salted attempts
    /// reuse the client's request seq, so results from an earlier
    /// attempt that raced to the same root must not be credited here.
    pub file_id: FileId,
    /// The replica set this coordinator selected.
    pub expected: Vec<NodeEntry>,
    /// Receipts collected so far (none when receipts are not signed).
    pub receipts: Vec<SharedReceipt>,
    /// Nodes that confirmed storage (for discards on abort); the
    /// attempt succeeds when every expected node is here.
    pub stored: Vec<NodeEntry>,
}

/// Node-A-side state for one pending replica diversion.
#[derive(Clone, Debug)]
pub(crate) struct PendingDiversion {
    /// The certificate.
    pub cert: SharedFileCert,
    /// The insert operation and the coordinator expecting this node's
    /// ReplicateResult (`None` for §3.5 maintenance re-creation).
    pub origin: Option<(ReqId, NodeEntry)>,
}

/// Counters for the reliable maintenance plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Maintenance messages sent (first transmissions).
    pub sent: u64,
    /// Retransmissions after a missed ack.
    pub retries: u64,
    /// Messages acknowledged by their receiver.
    pub acked: u64,
    /// Messages abandoned after the retry budget ran out.
    pub exhausted: u64,
    /// File bytes shipped to restore a lost replica (failure recovery).
    /// First transmissions only; retries are visible through `retries`.
    pub bytes_rereplication: u64,
    /// File bytes re-shipped by the anti-entropy sweep to refresh
    /// copies the receiver may already hold (including fetches answered
    /// for a warm-restart advertisement).
    pub bytes_refresh: u64,
}

/// An unacknowledged reliable maintenance message.
#[derive(Clone, Debug)]
pub(crate) struct PendingMaint {
    /// Destination.
    pub to: NodeEntry,
    /// The enveloped message, kept for retransmission.
    pub kind: MsgKind,
    /// Retransmissions so far.
    pub attempts: u32,
    /// Delay before the next retransmission (doubles each retry).
    pub backoff: past_net::SimDuration,
}

/// A PAST storage node (and client access point).
pub struct PastNode {
    pub(crate) cfg: PastConfig,
    /// The node's smartcard key pair (signs receipts; owns inserted
    /// files when this node acts as a client).
    pub(crate) keys: KeyPair,
    /// The local storage manager: replicas, cache and the file table's
    /// diversion pointers (with their certificates).
    pub(crate) store: NodeStore<NodeEntry>,
    /// Last known free space of other nodes (piggybacked on messages).
    pub(crate) free_info: IdHashMap<NodeId, u64>,
    /// Client storage quota.
    pub(crate) quota: QuotaLedger,
    /// Client-side sequence counter.
    pub(crate) next_seq: u64,
    /// Client-side pending operations, by sequence number.
    pub(crate) pending: IdHashMap<u64, PendingOp>,
    /// Coordinator state for in-flight insert attempts.
    pub(crate) coords: IdHashMap<(NodeId, u64), InsertCoord>,
    /// Node-A state for in-flight diversions, keyed by fileId.
    pub(crate) diversions: IdHashMap<FileId, PendingDiversion>,
    /// Unacked reliable maintenance messages, by maintenance seq.
    pub(crate) maint_pending: IdHashMap<u64, PendingMaint>,
    /// Next maintenance sequence number.
    pub(crate) next_maint_seq: u64,
    /// Reliable-maintenance counters.
    pub(crate) maint_stats: MaintStats,
    /// Resume point of the anti-entropy sweep (last fileId audited).
    pub(crate) anti_entropy_cursor: Option<FileId>,
    /// This node's Byzantine strategy (all-false = honest).
    pub(crate) malice: ByzantineBehavior,
    /// Outstanding possession challenges this node issued as auditor.
    pub(crate) audits: AuditBook,
    /// Audit counters (auditor side).
    pub(crate) audit_stats: AuditStats,
    /// Resume point of the audit sweep (last fileId challenged).
    pub(crate) audit_cursor: Option<FileId>,
}

impl PastNode {
    /// Creates a PAST node with the given configuration, signing keys,
    /// advertised capacity (bytes) and client quota (bytes).
    pub fn new(cfg: PastConfig, keys: KeyPair, capacity: u64, quota: u64) -> Self {
        let store = NodeStore::new(capacity, cfg.policy, cfg.cache_policy);
        PastNode {
            cfg,
            keys,
            store,
            free_info: IdHashMap::default(),
            quota: QuotaLedger::new(quota),
            next_seq: 0,
            pending: IdHashMap::default(),
            coords: IdHashMap::default(),
            diversions: IdHashMap::default(),
            maint_pending: IdHashMap::default(),
            next_maint_seq: 0,
            maint_stats: MaintStats::default(),
            anti_entropy_cursor: None,
            malice: ByzantineBehavior::default(),
            audits: AuditBook::new(),
            audit_stats: AuditStats::default(),
            audit_cursor: None,
        }
    }

    /// Read access to the storage manager.
    pub fn store(&self) -> &NodeStore<NodeEntry> {
        &self.store
    }

    /// Read access to the client quota.
    pub fn quota(&self) -> &QuotaLedger {
        &self.quota
    }

    /// The node's configuration.
    pub fn config(&self) -> &PastConfig {
        &self.cfg
    }

    /// Counters for the reliable maintenance plane.
    pub fn maint_stats(&self) -> MaintStats {
        self.maint_stats
    }

    /// This node's Byzantine strategy (all-false = honest).
    pub fn malice(&self) -> ByzantineBehavior {
        self.malice
    }

    /// Installs a Byzantine strategy (harness-driven fault injection).
    pub fn set_malice(&mut self, behavior: ByzantineBehavior) {
        self.malice = behavior;
    }

    /// Audit counters (auditor side).
    pub fn audit_stats(&self) -> AuditStats {
        self.audit_stats
    }

    /// Byzantine `drop_replicas`: silently discard every replica this
    /// node holds — no events, no discard cascade, no one told. Invoked
    /// by the harness when the strategy is switched on.
    pub fn malice_drop_replicas(&mut self) {
        let ids: Vec<FileId> = self.store.primaries().map(|(id, _)| *id).collect();
        for id in ids {
            self.store.remove_replica(id);
        }
    }

    /// Wraps a message body with the free-space piggyback. A node lying
    /// about its free space (`inflate_free`) advertises its whole
    /// capacity to attract replica diversions it then mistreats.
    pub(crate) fn msg(&self, kind: MsgKind) -> PastMsg {
        PastMsg {
            free: if self.malice.inflate_free {
                self.store.capacity()
            } else {
                self.store.free()
            },
            kind,
        }
    }

    /// Sends a PAST message directly to another node.
    pub(crate) fn send_to(&self, ctx: &mut PCtx<'_, '_>, to: NodeEntry, kind: MsgKind) {
        let m = self.msg(kind);
        ctx.send_app(to.addr, m);
    }

    /// Arms the timer of each periodic sweep among `tokens` whose period
    /// is nonzero: both when the node joins or restarts warm, its own
    /// when a sweep has run.
    fn arm_sweeps(&self, ctx: &mut PCtx<'_, '_>, tokens: impl IntoIterator<Item = u64>) {
        for token in tokens {
            let period = match token {
                ANTI_ENTROPY_TOKEN => self.cfg.anti_entropy_period,
                _ => self.cfg.audit_period,
            };
            if period.micros() > 0 {
                ctx.set_app_timer(period, token);
            }
        }
    }

    /// Records a peer's advertised free space. Free-space info is only
    /// ever consulted for current leaf-set members (diversion targeting,
    /// §3.3), so advertisements from other correspondents — e.g. the
    /// random clients of routed requests — are dropped rather than
    /// growing the map to overlay size with entries nothing reads.
    pub(crate) fn note_free(&mut self, ctx: &PCtx<'_, '_>, node: NodeId, free: u64) {
        if ctx.pastry().leaf_set().contains(node) {
            self.free_info.insert(node, free);
        }
    }

    /// Storage-node certificate check: passes when verification is
    /// disabled, otherwise verifies the owner's signature.
    pub(crate) fn cert_ok(&self, cert: &FileCertificate) -> bool {
        !self.cfg.verify_certificates || cert.verify(None).is_ok()
    }

    /// Starts a client timeout for `seq` if timeouts are enabled.
    pub(crate) fn arm_timeout(&self, ctx: &mut PCtx<'_, '_>, seq: u64) {
        if self.cfg.client_timeout.micros() > 0 {
            ctx.set_app_timer(self.cfg.client_timeout, TIMEOUT_BASE + seq);
        }
    }

    // ------------------------------------------------------------------
    // Client API (invoked by the harness via `PastryNode::invoke_app`).
    // ------------------------------------------------------------------

    /// Issues an insert of `size` bytes under `name`. Returns the
    /// client-local sequence number; completion arrives as
    /// [`PastEvent::InsertDone`].
    pub fn insert(&mut self, ctx: &mut PCtx<'_, '_>, name: &str, size: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if past_obs::is_enabled() {
            past_obs::counter("past.insert.started", 1);
            past_obs::span_start(
                obs::client_span(ctx.own().addr, seq),
                "insert",
                ctx.now().micros(),
            );
        }
        // "The required storage (file size times k) is debited against
        // the client's storage quota."
        if self.quota.debit(size.saturating_mul(K as u64)).is_err() {
            past_obs::span_end(
                obs::client_span(ctx.own().addr, seq),
                ctx.now().micros(),
                "quota_exhausted",
            );
            ctx.emit(PastEvent::InsertDone {
                seq,
                file_id: FileId::from_bytes([0u8; 20]),
                size,
                attempts: 0,
                success: false,
            });
            return seq;
        }
        let cert = SharedFileCert::new(self.issue_cert(ctx, name, size, 1));
        self.pending.insert(
            seq,
            PendingOp::Insert {
                name: name.to_string(),
                size,
                attempts: 1,
                cert: cert.clone(),
            },
        );
        self.route_insert(ctx, seq, cert);
        self.arm_timeout(ctx, seq);
        seq
    }

    /// Issues a lookup for `file_id`. Completion arrives as
    /// [`PastEvent::LookupDone`].
    pub fn lookup(&mut self, ctx: &mut PCtx<'_, '_>, file_id: FileId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if past_obs::is_enabled() {
            past_obs::counter("past.lookup.started", 1);
            past_obs::span_start(
                obs::client_span(ctx.own().addr, seq),
                "lookup",
                ctx.now().micros(),
            );
        }
        // Check local storage first: a client that stores or caches the
        // file fetches it at zero routing hops.
        match self.store.resolve(file_id) {
            Resolution::Primary | Resolution::DivertedHere => {
                past_obs::span_end(
                    obs::client_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    "local_primary",
                );
                self.note_lookup_window(ctx, HitKind::Primary, 0);
                self.note_served_window(ctx);
                ctx.emit(PastEvent::LookupDone {
                    seq,
                    file_id,
                    found: true,
                    hops: 0,
                    kind: Some(HitKind::Primary),
                    corrupted: false,
                });
                return seq;
            }
            Resolution::Cached => {
                past_obs::span_end(
                    obs::client_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    "local_cached",
                );
                self.note_lookup_window(ctx, HitKind::Cached, 0);
                self.note_served_window(ctx);
                ctx.emit(PastEvent::LookupDone {
                    seq,
                    file_id,
                    found: true,
                    hops: 0,
                    kind: Some(HitKind::Cached),
                    corrupted: false,
                });
                return seq;
            }
            Resolution::Pointer(holder) => {
                let req = ReqId {
                    client: ctx.own(),
                    seq,
                };
                past_obs::span_event(
                    obs::req_span(&req),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "local_pointer",
                    holder.addr.0 as i64,
                );
                self.pending
                    .insert(seq, PendingOp::Lookup { file_id, retries: 0 });
                self.send_to(
                    ctx,
                    holder,
                    MsgKind::FetchDiverted {
                        req,
                        file_id,
                        hops: 0,
                        path: Vec::new(),
                    },
                );
                self.arm_timeout(ctx, seq);
                return seq;
            }
            Resolution::Miss => {}
        }
        let req = ReqId {
            client: ctx.own(),
            seq,
        };
        self.pending
            .insert(seq, PendingOp::Lookup { file_id, retries: 0 });
        let m = self.msg(MsgKind::Lookup {
            req,
            file_id,
            path: Vec::new(),
        });
        ctx.route(file_id.as_key(), m);
        self.arm_timeout(ctx, seq);
        seq
    }

    /// Issues a reclaim for `file_id` (this node must be the file's
    /// owner). Completion arrives as [`PastEvent::ReclaimDone`].
    pub fn reclaim(&mut self, ctx: &mut PCtx<'_, '_>, file_id: FileId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if past_obs::is_enabled() {
            past_obs::counter("past.reclaim.started", 1);
            past_obs::span_start(
                obs::client_span(ctx.own().addr, seq),
                "reclaim",
                ctx.now().micros(),
            );
        }
        let req = ReqId {
            client: ctx.own(),
            seq,
        };
        // Reclaim certificates are always signed: storage nodes verify
        // them regardless of `verify_certificates` (see `PastConfig`).
        let cert = SharedReclaimCert::new(ReclaimCertificate::issue(
            &self.keys,
            file_id,
            ctx.now().micros(),
            ctx.rng(),
        ));
        self.pending.insert(seq, PendingOp::Reclaim { file_id });
        let m = self.msg(MsgKind::Reclaim { req, cert });
        ctx.route(file_id.as_key(), m);
        self.arm_timeout(ctx, seq);
        seq
    }

    /// Issues the file certificate for an insert attempt. The salt is the
    /// attempt number, so each file diversion re-salts deterministically.
    pub(crate) fn issue_cert(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        name: &str,
        size: u64,
        attempt: u32,
    ) -> FileCertificate {
        let content_hash = past_crypto::Sha1::digest(name.as_bytes());
        if self.cfg.verify_certificates {
            FileCertificate::issue(
                &self.keys,
                name,
                content_hash,
                size,
                K as u32,
                attempt as u64,
                ctx.now().micros(),
                ctx.rng(),
            )
        } else {
            // Signature skipped: unread when verification is off, and
            // the fileId/signed fields are identical either way.
            FileCertificate::issue_unsigned(
                &self.keys,
                name,
                content_hash,
                size,
                K as u32,
                attempt as u64,
                ctx.now().micros(),
            )
        }
    }

    pub(crate) fn route_insert(&self, ctx: &mut PCtx<'_, '_>, seq: u64, cert: SharedFileCert) {
        let req = ReqId {
            client: ctx.own(),
            seq,
        };
        let key = cert.file_id.as_key();
        let m = self.msg(MsgKind::Insert { req, cert });
        ctx.route(key, m);
    }

    /// Handles a client timeout.
    fn on_timeout(&mut self, ctx: &mut PCtx<'_, '_>, seq: u64) {
        let op = match self.pending.remove(&seq) {
            Some(op) => op,
            None => return, // Completed before the timer fired.
        };
        match op {
            PendingOp::Insert {
                name,
                size,
                attempts,
                cert,
            } => {
                past_obs::span_event(
                    obs::client_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "timeout",
                    attempts as i64,
                );
                // Treat like a failed attempt: re-salt or give up.
                self.retry_or_fail_insert(ctx, seq, name, size, attempts, cert);
            }
            PendingOp::Lookup { file_id, .. } => {
                if past_obs::is_enabled() {
                    past_obs::counter("past.lookup.timeout", 1);
                    past_obs::span_end(
                        obs::client_span(ctx.own().addr, seq),
                        ctx.now().micros(),
                        "timeout",
                    );
                }
                ctx.emit(PastEvent::LookupDone {
                    seq,
                    file_id,
                    found: false,
                    hops: 0,
                    kind: None,
                    corrupted: false,
                });
            }
            PendingOp::Reclaim { file_id } => {
                if past_obs::is_enabled() {
                    past_obs::counter("past.reclaim.timeout", 1);
                    past_obs::span_end(
                        obs::client_span(ctx.own().addr, seq),
                        ctx.now().micros(),
                        "timeout",
                    );
                }
                ctx.emit(PastEvent::ReclaimDone {
                    seq,
                    file_id,
                    ok: false,
                    freed: 0,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Sampled storage audits (LOCKSS-style defense layer).
    // ------------------------------------------------------------------

    /// One audit sweep: round-robin over this node's primaries (sorted,
    /// resuming at the cursor), challenging one sampled *other* replica
    /// holder per file to prove possession of the copy. Sampling and
    /// nonces are SHA-1-derived from stable identities and counters, so
    /// audits never consume any seeded RNG stream.
    pub(crate) fn audit_sweep(&mut self, ctx: &mut PCtx<'_, '_>) {
        let mut ids: Vec<FileId> = self.store.primaries().map(|(id, _)| *id).collect();
        if ids.is_empty() {
            return;
        }
        ids.sort();
        let start = match self.audit_cursor {
            Some(cursor) => ids.partition_point(|id| *id <= cursor) % ids.len(),
            None => 0,
        };
        let own = ctx.own();
        let own_id = own.id.to_bytes();
        let batch = AUDIT_BATCH.min(ids.len());
        let mut candidates = Vec::with_capacity(K);
        for i in 0..batch {
            let file_id = ids[(start + i) % ids.len()];
            self.audit_cursor = Some(file_id);
            let expected = match self.store.replica(file_id) {
                Some(r) => r.cert.content_hash,
                None => continue,
            };
            ctx.replica_candidates_into(file_id.as_key(), K, &mut candidates);
            candidates.retain(|(_, e)| e.id != own.id);
            if candidates.is_empty() {
                continue;
            }
            // Sample the challenged holder by hashing (auditor, file)
            // with the running challenge count, so repeated audits of
            // the same file rotate across holders.
            let mut seed = Vec::with_capacity(own_id.len() + 20);
            seed.extend_from_slice(&own_id);
            seed.extend_from_slice(file_id.as_bytes());
            let pick = past_crypto::audit_nonce(&seed, self.audit_stats.challenges) as usize
                % candidates.len();
            let (_, holder) = candidates[pick];
            let (seq, nonce) = self.audits.issue(
                &own_id,
                file_id,
                expected,
                holder,
                ctx.now(),
                &mut self.audit_stats,
            );
            past_obs::counter("past.audit.challenge", 1);
            self.send_to(
                ctx,
                holder,
                MsgKind::AuditChallenge {
                    seq,
                    file_id,
                    nonce,
                    auditor: own,
                },
            );
            ctx.set_app_timer(AUDIT_TIMEOUT, AUDIT_TIMEOUT_BASE + seq);
        }
    }

    /// Holder side of an audit challenge. An honest holder proves
    /// possession (or honestly confesses to not having the copy); a
    /// content-corrupting holder hashes the bytes it actually serves,
    /// which fail verification; a holder that silently dropped its
    /// replicas has nothing to prove and stays silent, letting the
    /// auditor's timeout convict it.
    fn on_audit_challenge(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        seq: u64,
        file_id: FileId,
        nonce: u64,
        auditor: NodeEntry,
    ) {
        let proof = match self.store.replica(file_id) {
            Some(r) if self.malice.corrupt_content => {
                Some(corrupted_proof(&r.cert.content_hash, nonce))
            }
            Some(r) => Some(honest_proof(&r.cert.content_hash, nonce)),
            None if self.malice.is_malicious() => return,
            None => None,
        };
        let holder = ctx.own();
        self.send_to(
            ctx,
            auditor,
            MsgKind::AuditProof {
                seq,
                file_id,
                proof,
                holder,
            },
        );
    }

    /// Auditor side of a returned possession proof. Failures demote the
    /// challenged holder: the overlay shuns it (eviction from leaf set
    /// and routing table), which triggers re-replication through the
    /// normal neighbor-loss repair path.
    fn on_audit_proof(&mut self, ctx: &mut PCtx<'_, '_>, seq: u64, proof: Option<Digest>) {
        let (verdict, pending) =
            self.audits
                .settle(seq, proof.as_ref(), ctx.now(), &mut self.audit_stats);
        match (verdict, pending) {
            (AuditVerdict::Pass, Some(_)) => past_obs::counter("past.audit.pass", 1),
            (AuditVerdict::Fail, Some(p)) => {
                past_obs::counter("past.audit.fail", 1);
                ctx.demote_peer(p.holder.id);
            }
            _ => {}
        }
    }

    /// An audit challenge timed out unanswered: treat like a failed
    /// proof (unless the proof raced the timer and already settled it).
    fn on_audit_timeout(&mut self, ctx: &mut PCtx<'_, '_>, seq: u64) {
        if let Some(p) = self.audits.expire(seq, ctx.now(), &mut self.audit_stats) {
            past_obs::counter("past.audit.timeout", 1);
            ctx.demote_peer(p.holder.id);
        }
    }

    /// Hands a direct message to its handler. A maintenance envelope is
    /// acked and its payload dispatched here like any direct message.
    fn dispatch(&mut self, ctx: &mut PCtx<'_, '_>, from: NodeEntry, kind: MsgKind) {
        match kind {
            MsgKind::Replicate {
                req,
                cert,
                coordinator,
            } => self.attempt_store(ctx, cert, Some((req, coordinator))),
            MsgKind::ReplicateResult {
                req,
                file_id,
                stored,
                receipt,
                storer,
            } => self.on_replicate_result(ctx, req, file_id, stored, receipt, storer),
            MsgKind::Divert {
                req,
                cert,
                requester,
            } => self.on_divert_request(ctx, req, cert, requester),
            MsgKind::DivertResult {
                file_id,
                accepted,
                holder,
            } => self.on_divert_result(ctx, file_id, accepted, holder),
            MsgKind::InstallPointer {
                file_id,
                holder,
                backup,
                cert,
            } => self.on_install_pointer(from, file_id, holder, backup, cert),
            MsgKind::Discard { file_id } => self.on_discard(ctx, file_id),
            MsgKind::InsertReply {
                req,
                file_id,
                receipts,
                expected,
                ok,
            } => self.on_insert_reply(ctx, req, file_id, receipts, expected, ok),
            MsgKind::LookupHit {
                req,
                cert,
                hops,
                kind,
                reverse_path,
                corrupted,
                server,
            } => self.on_lookup_hit(ctx, req, cert, hops, kind, reverse_path, corrupted, server),
            MsgKind::LookupMiss { req, file_id } => self.on_lookup_miss(ctx, req, file_id),
            MsgKind::FetchDiverted {
                req,
                file_id,
                hops,
                path,
            } => self.on_fetch_diverted(ctx, req, file_id, hops, path),
            MsgKind::ReclaimExec { cert } => self.on_reclaim_exec(ctx, cert),
            MsgKind::ReclaimReply {
                req,
                file_id,
                ok,
                freed,
            } => self.on_reclaim_reply(ctx, req, file_id, ok, freed),
            MsgKind::FetchReplica { file_id } => self.on_fetch_replica(ctx, from, file_id),
            MsgKind::ReplicaAdvertise { cert, holder } => {
                self.on_replica_advertise(ctx, cert, holder)
            }
            MsgKind::ReplicaTransfer { cert } => self.on_replica_transfer(ctx, from, cert),
            MsgKind::MigrationDone { file_id } => self.on_migration_done(ctx, file_id),
            MsgKind::MaintSeq { seq, inner } => {
                // Ack first — receipt, not outcome, is what the sender
                // retries on; every maintenance handler is idempotent.
                self.send_to(ctx, from, MsgKind::MaintAck { seq });
                self.dispatch(ctx, from, *inner);
            }
            MsgKind::MaintAck { seq } => self.on_maint_ack(ctx, seq),
            MsgKind::AuditChallenge {
                seq,
                file_id,
                nonce,
                auditor,
            } => self.on_audit_challenge(ctx, seq, file_id, nonce, auditor),
            MsgKind::AuditProof { seq, proof, .. } => self.on_audit_proof(ctx, seq, proof),
            MsgKind::Insert { .. } | MsgKind::Lookup { .. } | MsgKind::Reclaim { .. } => {
                debug_assert!(false, "routed message arrived as a direct message");
            }
        }
    }
}

impl Application for PastNode {
    type Msg = PastMsg;
    type Upcall = PastEvent;

    fn deliver(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        key: NodeId,
        msg: PastMsg,
        hops: u32,
        _source: NodeEntry,
    ) {
        match msg.kind {
            MsgKind::Insert { req, cert } => {
                self.note_free(ctx, req.client.id, msg.free);
                self.coordinate_insert(ctx, req, cert);
            }
            MsgKind::Lookup { req, file_id, path } => {
                self.note_free(ctx, req.client.id, msg.free);
                self.lookup_at_responsible(ctx, req, file_id, path, hops);
            }
            MsgKind::Reclaim { req, cert } => {
                self.note_free(ctx, req.client.id, msg.free);
                self.coordinate_reclaim(ctx, req, cert);
            }
            MsgKind::ReplicaAdvertise { cert, holder } => {
                // Routed by a warm-restarted holder toward the fileId so
                // it converges on the current responsible node.
                self.note_free(ctx, holder.id, msg.free);
                self.on_replica_advertise(ctx, cert, holder);
            }
            other => {
                // Direct message kinds are never routed; receiving one
                // here indicates a logic error upstream.
                debug_assert!(false, "unexpected routed message: {other:?} at {key}");
            }
        }
    }

    fn forward(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        key: NodeId,
        msg: &mut PastMsg,
        hops: u32,
        _source: NodeEntry,
    ) -> bool {
        match &mut msg.kind {
            MsgKind::Insert { req, cert } => {
                past_obs::span_event(
                    obs::req_span(req),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "hop",
                    hops as i64,
                );
                // "When an insert request message first reaches a node
                // with a nodeId among the k numerically closest to the
                // fileId", that node takes over as coordinator.
                if ctx.is_among_k_closest(key, K) {
                    let (req, cert) = (*req, cert.clone());
                    self.note_free(ctx, req.client.id, msg.free);
                    self.coordinate_insert(ctx, req, cert);
                    return false;
                }
                // Cache the file passing through (§4: files routed
                // through a node as part of an insert are cached).
                self.store.cache_file(cert);
                true
            }
            MsgKind::Lookup { req, file_id, path } => {
                let (req, file_id) = (*req, *file_id);
                past_obs::span_event(
                    obs::req_span(&req),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "hop",
                    hops as i64,
                );
                // "As soon as the request message reaches a node that
                // stores the file, that node responds with the content."
                match self.store.resolve(file_id) {
                    Resolution::Primary | Resolution::DivertedHere => {
                        let path = path.clone();
                        self.answer_lookup(ctx, req, file_id, path, hops, HitKind::Primary);
                        return false;
                    }
                    Resolution::Cached => {
                        let path = path.clone();
                        self.answer_lookup(ctx, req, file_id, path, hops, HitKind::Cached);
                        return false;
                    }
                    Resolution::Pointer(holder) => {
                        let path = path.clone();
                        self.send_to(
                            ctx,
                            holder,
                            MsgKind::FetchDiverted {
                                req,
                                file_id,
                                hops,
                                path,
                            },
                        );
                        return false;
                    }
                    Resolution::Miss => {}
                }
                path.push(ctx.own());
                true
            }
            MsgKind::Reclaim { req, cert } => {
                if ctx.is_among_k_closest(key, K) {
                    let (req, cert) = (*req, cert.clone());
                    self.coordinate_reclaim(ctx, req, cert);
                    return false;
                }
                true
            }
            _ => true,
        }
    }

    fn on_app_message(&mut self, ctx: &mut PCtx<'_, '_>, from: NodeEntry, msg: PastMsg) {
        self.note_free(ctx, from.id, msg.free);
        self.dispatch(ctx, from, msg.kind);
    }

    fn on_joined(&mut self, ctx: &mut PCtx<'_, '_>) {
        self.arm_sweeps(ctx, ANTI_ENTROPY_TOKEN..=AUDIT_SWEEP_TOKEN);
    }

    fn on_restore(&mut self, ctx: &mut PCtx<'_, '_>) {
        // The periodic sweeps' timer chains broke while the node was
        // down (timers addressed to a down node are discarded); re-arm
        // them so a warm-restarted node resumes background repair.
        self.arm_sweeps(ctx, ANTI_ENTROPY_TOKEN..=AUDIT_SWEEP_TOKEN);
        // Re-advertise every primary the store ("disk") still holds with
        // the cheap certificate-sized message, routed so it converges on
        // the file's current responsible node. Sorted by fileId: the
        // store's maps iterate in per-instance random order.
        let mut primaries: Vec<SharedFileCert> = self
            .store
            .primaries()
            .map(|(_, cert)| cert.clone())
            .collect();
        primaries.sort_unstable_by_key(|cert| cert.file_id);
        let own = ctx.own();
        for cert in primaries {
            let key = cert.file_id.as_key();
            let m = self.msg(MsgKind::ReplicaAdvertise { cert, holder: own });
            ctx.route(key, m);
        }
    }

    fn on_neighbor_added(&mut self, ctx: &mut PCtx<'_, '_>, node: NodeEntry) {
        self.handle_neighbor_added(ctx, node);
    }

    fn on_neighbor_removed(&mut self, ctx: &mut PCtx<'_, '_>, node: NodeEntry) {
        self.handle_neighbor_removed(ctx, node);
    }

    fn on_app_timer(&mut self, ctx: &mut PCtx<'_, '_>, token: u64) {
        if token == ANTI_ENTROPY_TOKEN {
            self.anti_entropy_sweep(ctx);
            self.arm_sweeps(ctx, [token]);
        } else if token >= MAINT_RETRY_BASE {
            self.on_maint_retry(ctx, token - MAINT_RETRY_BASE);
        } else if token >= TIMEOUT_BASE {
            self.on_timeout(ctx, token - TIMEOUT_BASE);
        } else if token >= AUDIT_TIMEOUT_BASE {
            self.on_audit_timeout(ctx, token - AUDIT_TIMEOUT_BASE);
        } else if token == AUDIT_SWEEP_TOKEN {
            self.audit_sweep(ctx);
            self.arm_sweeps(ctx, [token]);
        }
    }
}
