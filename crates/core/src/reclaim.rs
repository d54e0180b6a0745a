//! The reclaim path (§2.2): weak-semantics reclamation of a file's
//! storage, authorized by a signed reclaim certificate.

use past_crypto::SharedReclaimCert;
use past_id::FileId;
use past_store::Resolution;

use crate::config::K;
use crate::events::PastEvent;
use crate::messages::{MsgKind, ReqId};
use crate::node::{PCtx, PastNode, PendingOp};
use crate::obs;

impl PastNode {
    /// A reclaim request reached one of the k responsible nodes: verify
    /// ownership, dispatch the reclamation to the replica set and answer
    /// the client. Reclaim has weak semantics ("reclaim does not
    /// guarantee that the file is no longer available"), so the
    /// coordinator replies without waiting for the holders.
    pub(crate) fn coordinate_reclaim(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        cert: SharedReclaimCert,
    ) {
        let file_id = cert.file_id;
        // Verify against the locally stored certificate where possible.
        let stored_cert = self.store.certificate(file_id).cloned();
        let ok = match &stored_cert {
            Some(sc) => cert.verify(sc).is_ok(),
            None => false,
        };
        if !ok {
            self.send_to(
                ctx,
                req.client,
                MsgKind::ReclaimReply {
                    req,
                    file_id,
                    ok: false,
                    freed: 0,
                },
            );
            return;
        }
        let stored_cert = stored_cert.expect("checked above");
        let freed = stored_cert
            .file_size
            .saturating_mul(stored_cert.replicas as u64);
        // Dispatch to every candidate holder (including self).
        let candidates = ctx.replica_candidates(file_id.as_key(), K);
        past_obs::span_event(
            obs::req_span(&req),
            ctx.now().micros(),
            ctx.own().addr.0,
            "coordinate",
            candidates.len() as i64,
        );
        let own = ctx.own();
        for node in candidates {
            if node.id == own.id {
                self.on_reclaim_exec(ctx, cert.clone());
            } else {
                self.send_to(ctx, node, MsgKind::ReclaimExec { cert: cert.clone() });
            }
        }
        self.send_to(
            ctx,
            req.client,
            MsgKind::ReclaimReply {
                req,
                file_id,
                ok: true,
                freed,
            },
        );
    }

    /// A replica holder executes a reclaim: each node re-verifies the
    /// certificate against its own stored copy ("the replica storing
    /// nodes verify that the file's legitimate owner is requesting the
    /// operation").
    pub(crate) fn on_reclaim_exec(&mut self, ctx: &mut PCtx<'_, '_>, cert: SharedReclaimCert) {
        let file_id = cert.file_id;
        match self.store.resolve(file_id) {
            Resolution::Primary | Resolution::DivertedHere => {
                let stored = &self.store.replica(file_id).expect("resolved").cert;
                if cert.verify(stored).is_ok() {
                    let replica = self.store.remove_replica(file_id).expect("resolved");
                    ctx.emit(PastEvent::ReplicaDropped {
                        file_id,
                        size: replica.size(),
                        diverted: replica.diverted_from.is_some(),
                    });
                }
            }
            Resolution::Pointer(holder) => {
                let stored = self.store.pointer(file_id).expect("resolved").cert;
                if cert.verify(stored).is_ok() {
                    let pointer = self.store.remove_pointer(file_id).expect("resolved");
                    self.send_to(ctx, holder, MsgKind::ReclaimExec { cert: cert.clone() });
                    if let Some(c_node) = pointer.backup_at {
                        self.send_to(ctx, c_node, MsgKind::Discard { file_id });
                    }
                }
            }
            Resolution::Cached | Resolution::Miss => {
                // Nothing authoritative here; a backup pointer goes on
                // the owner's word, like the records above.
                if let Some(backup) = self.store.backup_pointer(file_id) {
                    if cert.verify(backup.cert).is_ok() {
                        self.store.remove_backup_pointer(file_id);
                    }
                }
            }
        }
    }

    /// Client receives the reclaim verdict and credits its quota.
    pub(crate) fn on_reclaim_reply(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        ok: bool,
        freed: u64,
    ) {
        match self.pending.remove(&req.seq) {
            Some(PendingOp::Reclaim { .. }) => {
                if past_obs::is_enabled() {
                    past_obs::counter(
                        if ok {
                            "past.reclaim.ok"
                        } else {
                            "past.reclaim.fail"
                        },
                        1,
                    );
                    past_obs::span_end(
                        obs::req_span(&req),
                        ctx.now().micros(),
                        if ok { "ok" } else { "failed" },
                    );
                }
                if ok {
                    let _ = self.quota.credit(freed);
                }
                ctx.emit(PastEvent::ReclaimDone {
                    seq: req.seq,
                    file_id,
                    ok,
                    freed: if ok { freed } else { 0 },
                });
            }
            Some(other) => {
                self.pending.insert(req.seq, other);
            }
            None => {}
        }
    }
}
