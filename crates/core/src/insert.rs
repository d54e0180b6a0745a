//! The insert path: coordination, replica storage, replica diversion
//! (§3.3) and file diversion (§3.4).

use std::cmp::Reverse;

use past_crypto::{SharedFileCert, SharedReceipt, StoreReceipt};
use past_id::FileId;
use past_pastry::NodeEntry;
use past_store::StoreError;

use crate::config::K;
use crate::events::PastEvent;
use crate::messages::{MsgKind, ReqId};
use crate::obs;
use crate::node::{InsertCoord, PCtx, PastNode, PendingDiversion, PendingOp};

impl PastNode {
    /// Coordinates an insert at the first among-k node the request
    /// reaches: store locally, fan the request out to the other k−1
    /// replica holders, and collect their outcomes (and receipts, when
    /// they are signed).
    pub(crate) fn coordinate_insert(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        cert: SharedFileCert,
    ) {
        let file_id = cert.file_id;
        // Certificate verification by the first storage node ("that node
        // verifies the file certificate ... If everything checks out").
        if !self.cert_ok(&cert) {
            self.send_to(
                ctx,
                req.client,
                MsgKind::InsertReply {
                    req,
                    file_id,
                    receipts: Vec::new(),
                    expected: K as u32,
                    ok: false,
                },
            );
            return;
        }
        // Rare fileId collisions are detected and lead to the rejection
        // of the later-inserted file.
        if self.store.holds_replica(file_id) {
            self.send_to(
                ctx,
                req.client,
                MsgKind::InsertReply {
                    req,
                    file_id,
                    receipts: Vec::new(),
                    expected: K as u32,
                    ok: false,
                },
            );
            return;
        }
        if let Some(existing) = self.coords.get(&req.key()) {
            if existing.file_id == file_id {
                // Duplicate delivery (per-hop retransmission) of a
                // request we are already coordinating: ignore it.
                return;
            }
            // A leftover coordinator from an earlier attempt of the same
            // client op (re-salted attempts reuse the request seq).
            // Abort it before coordinating the new attempt.
            let stale = self.coords.remove(&req.key()).expect("present");
            for node in stale.stored {
                self.send_discard(ctx, node, stale.file_id);
            }
        }
        let candidates = ctx.replica_candidates(file_id.as_key(), K);
        let own = ctx.own();
        past_obs::span_event(
            obs::req_span(&req),
            ctx.now().micros(),
            own.addr.0,
            "coordinate",
            candidates.len() as i64,
        );
        self.coords.insert(
            req.key(),
            InsertCoord {
                file_id,
                expected: candidates.clone(),
                receipts: Vec::with_capacity(if self.cfg.verify_certificates { K } else { 0 }),
                stored: Vec::with_capacity(K),
            },
        );
        for node in candidates {
            if node.id == own.id {
                self.attempt_store(ctx, cert.clone(), Some((req, own)));
            } else {
                self.send_to(
                    ctx,
                    node,
                    MsgKind::Replicate {
                        req,
                        cert: cert.clone(),
                        coordinator: own,
                    },
                );
            }
        }
    }

    /// One of the k replica holders attempts to store the file: locally
    /// first, then via replica diversion. `origin` names the insert and
    /// its coordinator, which gets the outcome; it is `None` during §3.5
    /// maintenance re-replication (no outcome is reported then).
    pub(crate) fn attempt_store(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        cert: SharedFileCert,
        origin: Option<(ReqId, NodeEntry)>,
    ) {
        let file_id = cert.file_id;
        if !self.cert_ok(&cert) {
            if let Some((req, coord)) = origin {
                self.report_store_result(ctx, req, file_id, false, None, coord);
            }
            return;
        }
        match self.store.store_primary(cert.clone()) {
            Ok(()) => {
                ctx.emit(PastEvent::ReplicaStored {
                    file_id,
                    size: cert.file_size,
                    diverted: false,
                });
                if let Some((req, coord)) = origin {
                    let receipt = self.issue_receipt(ctx, file_id, false);
                    self.report_store_result(ctx, req, file_id, true, receipt, coord);
                }
                // Byzantine acknowledge-then-discard: the acknowledgement
                // went out, the copy silently doesn't. No drop event — the
                // harness's global auditor must not see the betrayal.
                if self.malice.ack_then_discard {
                    self.store.remove_replica(file_id);
                }
            }
            Err(StoreError::Duplicate) => {
                // Already stored (duplicate replicate): report as stored.
                if let Some((req, coord)) = origin {
                    let receipt = self.issue_receipt(ctx, file_id, false);
                    self.report_store_result(ctx, req, file_id, true, receipt, coord);
                }
            }
            Err(StoreError::OverThreshold { .. }) => {
                // Replica diversion: ask a leaf-set node outside the k
                // closest, preferring maximal remaining free space.
                match self.pick_diversion_target(ctx, file_id) {
                    Some(target) => {
                        if past_obs::is_enabled() {
                            past_obs::counter("past.divert.requested", 1);
                            if let Some((req, _)) = origin {
                                past_obs::span_event(
                                    obs::req_span(&req),
                                    ctx.now().micros(),
                                    ctx.own().addr.0,
                                    "divert_request",
                                    target.addr.0 as i64,
                                );
                            }
                        }
                        self.diversions.insert(
                            file_id,
                            PendingDiversion {
                                cert: cert.clone(),
                                origin,
                            },
                        );
                        let own = ctx.own();
                        self.send_to(
                            ctx,
                            target,
                            MsgKind::Divert {
                                req: origin.map(|(req, _)| req),
                                cert,
                                requester: own,
                            },
                        );
                    }
                    None => {
                        if let Some((req, coord)) = origin {
                            self.report_store_result(ctx, req, file_id, false, None, coord);
                        }
                    }
                }
            }
        }
    }

    /// Chooses node B for a diverted replica: in the leaf set, not among
    /// the k closest to the fileId, not already holding the file, with
    /// maximal known remaining free space. Nodes with unknown free space
    /// are tried optimistically. Different replica holders de-collide by
    /// offsetting their pick with their rank in the replica set.
    pub(crate) fn pick_diversion_target(
        &self,
        ctx: &mut PCtx<'_, '_>,
        file_id: FileId,
    ) -> Option<NodeEntry> {
        let key = file_id.as_key();
        let candidates = ctx.replica_candidates(key, K);
        let own = ctx.own();
        // Rank by known free space, descending; unknown is optimistic.
        // Ties keep leaf-set order.
        let mut eligible: Vec<(Reverse<u64>, usize, NodeEntry)> = ctx
            .pastry()
            .leaf_set()
            .members()
            .filter(|m| !candidates.iter().any(|c| c.id == m.id))
            .enumerate()
            .map(|(i, m)| {
                let free = self.free_info.get(&m.id).copied().unwrap_or(u64::MAX);
                (Reverse(free), i, *m)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let rank = candidates
            .iter()
            .position(|c| c.id == own.id)
            .unwrap_or(0);
        // Only the rank-th best is read, so select it instead of sorting:
        // (score, leaf-set index) is the order a stable sort would give.
        let nth = rank % eligible.len();
        let (_, target, _) = eligible.select_nth_unstable_by_key(nth, |&(score, i, _)| (score, i));
        Some(target.2)
    }

    /// Node B receives a diversion request: apply the `t_div` acceptance
    /// policy and answer.
    pub(crate) fn on_divert_request(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: Option<ReqId>,
        cert: SharedFileCert,
        requester: NodeEntry,
    ) {
        let file_id = cert.file_id;
        let size = cert.file_size;
        let accepted =
            self.cert_ok(&cert) && self.store.store_diverted(cert, requester).is_ok();
        if past_obs::is_enabled() {
            past_obs::counter(
                if accepted {
                    "past.divert.accepted"
                } else {
                    "past.divert.rejected"
                },
                1,
            );
            if let Some(req) = req {
                past_obs::span_event(
                    obs::req_span(&req),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    if accepted {
                        "divert_accept"
                    } else {
                        "divert_reject"
                    },
                    size as i64,
                );
            }
        }
        if accepted {
            ctx.emit(PastEvent::ReplicaStored {
                file_id,
                size,
                diverted: true,
            });
        }
        let own = ctx.own();
        self.send_to(
            ctx,
            requester,
            MsgKind::DivertResult {
                file_id,
                accepted,
                holder: own,
            },
        );
    }

    /// Node A receives B's answer to a diversion request.
    pub(crate) fn on_divert_result(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        file_id: FileId,
        accepted: bool,
        holder: NodeEntry,
    ) {
        let pending = match self.diversions.remove(&file_id) {
            Some(p) => p,
            None => return, // Stale (aborted in the meantime).
        };
        if accepted {
            // Install the A→B pointer and the C→B backup pointer on the
            // k+1-th closest node, then report success.
            self.store.install_pointer(file_id, holder, pending.cert.clone());
            let key = file_id.as_key();
            let own = ctx.own();
            let kplus1 = ctx.replica_candidates(key, K + 1);
            if let Some(c_node) = kplus1.last().copied() {
                if c_node.id != own.id && c_node.id != holder.id && kplus1.len() > K {
                    self.store.set_pointer_backup(file_id, c_node);
                    self.send_maint(
                        ctx,
                        c_node,
                        MsgKind::InstallPointer {
                            file_id,
                            holder,
                            backup: true,
                            cert: pending.cert.clone(),
                        },
                    );
                }
            }
            if let Some((req, coord)) = pending.origin {
                let receipt = self.issue_receipt(ctx, file_id, true);
                self.report_store_result(ctx, req, file_id, true, receipt, coord);
            }
        } else if let Some((req, coord)) = pending.origin {
            // "When one of the k nodes declines ... and the node it then
            // chooses also declines, then the entire file is diverted."
            self.report_store_result(ctx, req, file_id, false, None, coord);
        }
    }

    /// Installs a pointer received from a diverting node (backup C role)
    /// or from a displaced node during maintenance (regular A role).
    /// `from` is the installing node; for backups it identifies the
    /// diverting node A, so the pointer is promoted only when *that*
    /// node fails.
    pub(crate) fn on_install_pointer(
        &mut self,
        from: NodeEntry,
        file_id: FileId,
        holder: NodeEntry,
        backup: bool,
        cert: SharedFileCert,
    ) {
        if backup {
            self.store.install_backup_pointer(file_id, holder, cert, from);
        } else {
            self.store.install_pointer(file_id, holder, cert);
        }
    }

    /// Signs a store receipt for a file this node is responsible for.
    /// Only a client that verifies receipts reads one, so with
    /// verification off there is none.
    pub(crate) fn issue_receipt(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        file_id: FileId,
        diverted: bool,
    ) -> Option<SharedReceipt> {
        self.cfg.verify_certificates.then(|| {
            SharedReceipt::new(StoreReceipt::issue(
                &self.keys,
                file_id,
                diverted,
                ctx.now().micros(),
                ctx.rng(),
            ))
        })
    }

    /// Routes a store outcome to the coordinator (inline when this node
    /// coordinates its own replica).
    pub(crate) fn report_store_result(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        stored: bool,
        receipt: Option<SharedReceipt>,
        coordinator: NodeEntry,
    ) {
        let own = ctx.own();
        if coordinator.id == own.id {
            self.on_replicate_result(ctx, req, file_id, stored, receipt, own);
        } else {
            self.send_to(
                ctx,
                coordinator,
                MsgKind::ReplicateResult {
                    req,
                    file_id,
                    stored,
                    receipt,
                    storer: own,
                },
            );
        }
    }

    /// Coordinator handles one replica holder's outcome.
    pub(crate) fn on_replicate_result(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        stored: bool,
        receipt: Option<SharedReceipt>,
        storer: NodeEntry,
    ) {
        let coord = match self.coords.get_mut(&req.key()) {
            // A coordinator for a *different* fileId under the same key
            // belongs to a later re-salted attempt; results from the
            // aborted earlier attempt must not touch it.
            Some(c) if c.file_id == file_id => c,
            _ => {
                // The attempt was already aborted; a straggler stored a
                // replica that must now be discarded.
                if stored {
                    self.send_discard(ctx, storer, file_id);
                }
                return;
            }
        };
        // Per-hop retries can duplicate messages; count each storer once.
        if coord.stored.iter().any(|s| s.id == storer.id) {
            return;
        }
        if stored {
            coord.receipts.extend(receipt);
            coord.stored.push(storer);
            if coord.stored.len() == coord.expected.len() {
                let coord = self.coords.remove(&req.key()).expect("present");
                self.send_to(
                    ctx,
                    req.client,
                    MsgKind::InsertReply {
                        req,
                        file_id,
                        receipts: coord.receipts,
                        expected: coord.expected.len() as u32,
                        ok: true,
                    },
                );
            }
        } else {
            // Abort: discard everything stored so far, fail the attempt
            // back to the client (file diversion follows).
            let coord = self.coords.remove(&req.key()).expect("present");
            if past_obs::is_enabled() {
                past_obs::counter("past.insert.attempt_aborted", 1);
                past_obs::span_event(
                    obs::req_span(&req),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "abort",
                    coord.stored.len() as i64,
                );
            }
            for node in coord.stored {
                self.send_discard(ctx, node, file_id);
            }
            self.send_to(
                ctx,
                req.client,
                MsgKind::InsertReply {
                    req,
                    file_id,
                    receipts: Vec::new(),
                    expected: coord.expected.len() as u32,
                    ok: false,
                },
            );
        }
    }

    /// Sends a discard (reliably), handling the self-addressed case
    /// inline.
    pub(crate) fn send_discard(&mut self, ctx: &mut PCtx<'_, '_>, node: NodeEntry, file_id: FileId) {
        if node.id == ctx.own().id {
            self.on_discard(ctx, file_id);
        } else {
            self.send_maint(ctx, node, MsgKind::Discard { file_id });
        }
    }

    /// Drops any role this node has for `file_id` (replica, diverted
    /// replica, pointer, backup pointer), cascading to the diverted
    /// holder where needed.
    pub(crate) fn on_discard(&mut self, ctx: &mut PCtx<'_, '_>, file_id: FileId) {
        if let Some(replica) = self.store.remove_replica(file_id) {
            ctx.emit(PastEvent::ReplicaDropped {
                file_id,
                size: replica.size(),
                diverted: replica.diverted_from.is_some(),
            });
        }
        if let Some(pointer) = self.store.remove_pointer(file_id) {
            self.send_maint(ctx, pointer.holder, MsgKind::Discard { file_id });
            if let Some(c_node) = pointer.backup_at {
                self.send_maint(ctx, c_node, MsgKind::Discard { file_id });
            }
        }
        self.store.remove_backup_pointer(file_id);
        // Pending diversion for an aborted insert: drop silently; a late
        // DivertResult will find no pending entry and be ignored, and the
        // B-side replica is discarded via the holder cascade above.
        self.diversions.remove(&file_id);
    }

    /// Client receives the coordinator's verdict.
    pub(crate) fn on_insert_reply(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        receipts: Vec<SharedReceipt>,
        expected: u32,
        ok: bool,
    ) {
        let op = match self.pending.remove(&req.seq) {
            Some(op) => op,
            None => return, // Already timed out or duplicate reply.
        };
        let (name, size, attempts, cert) = match op {
            PendingOp::Insert {
                name,
                size,
                attempts,
                cert,
            } => (name, size, attempts, cert),
            other => {
                self.pending.insert(req.seq, other);
                return;
            }
        };
        // Ignore replies for earlier (re-salted) attempts.
        if cert.file_id != file_id {
            self.pending.insert(
                req.seq,
                PendingOp::Insert {
                    name,
                    size,
                    attempts,
                    cert,
                },
            );
            return;
        }
        // A verifying client counts the copies by their receipts; with
        // verification off no receipt is signed and the coordinator's
        // verdict stands alone.
        let verified = !self.cfg.verify_certificates
            || (receipts.len() as u32 == expected && receipts.iter().all(|r| r.verify().is_ok()));
        if ok && verified {
            if past_obs::is_enabled() {
                past_obs::counter("past.insert.ok", 1);
                past_obs::observe("past.insert.attempts", attempts as u64);
                past_obs::span_end(obs::req_span(&req), ctx.now().micros(), "ok");
            }
            ctx.emit(PastEvent::InsertDone {
                seq: req.seq,
                file_id,
                size,
                attempts,
                success: true,
            });
        } else {
            self.retry_or_fail_insert(ctx, req.seq, name, size, attempts, cert);
        }
    }

    /// File diversion: re-salt and retry, up to the configured number of
    /// retries; then report failure and refund the quota.
    pub(crate) fn retry_or_fail_insert(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        seq: u64,
        name: String,
        size: u64,
        attempts: u32,
        old_cert: SharedFileCert,
    ) {
        if attempts <= self.cfg.max_file_diversions {
            if past_obs::is_enabled() {
                past_obs::counter("past.insert.re_salt", 1);
                past_obs::span_event(
                    obs::client_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    ctx.own().addr.0,
                    "re_salt",
                    (attempts + 1) as i64,
                );
            }
            let cert = SharedFileCert::new(self.issue_cert(ctx, &name, size, attempts + 1));
            self.pending.insert(
                seq,
                PendingOp::Insert {
                    name,
                    size,
                    attempts: attempts + 1,
                    cert: cert.clone(),
                },
            );
            self.route_insert(ctx, seq, cert);
            self.arm_timeout(ctx, seq);
        } else {
            // Refund the quota debited at issue time.
            let _ = self
                .quota
                .credit(size.saturating_mul(K as u64));
            if past_obs::is_enabled() {
                past_obs::counter("past.insert.fail", 1);
                past_obs::span_end(
                    obs::client_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    "failed",
                );
            }
            ctx.emit(PastEvent::InsertDone {
                seq,
                file_id: old_cert.file_id,
                size,
                attempts,
                success: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PastConfig, PastOverlayNode};
    use past_crypto::{KeyPair, Scheme};
    use past_net::{Addr, EuclideanTopology, Simulator};
    use past_pastry::{PastryConfig, PastryNode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CLIENT: Addr = Addr(3);

    /// A settled overlay of 20 nodes, keep-alives off.
    fn overlay(verify_certificates: bool) -> Simulator<PastOverlayNode> {
        let past = PastConfig {
            verify_certificates,
            ..Default::default()
        };
        let pastry = PastryConfig {
            leaf_set_size: 16,
            keep_alive_period: past_net::SimDuration::ZERO,
            ..Default::default()
        };
        let mut seeder = StdRng::seed_from_u64(5);
        let topo = EuclideanTopology::random(20, &mut seeder);
        let mut sim = Simulator::new(Box::new(topo), 5);
        for i in 0..20 {
            let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
            let entry = NodeEntry::new(past_crypto::derive_node_id(&keys.public()), Addr(i));
            let app = PastNode::new(past.clone(), keys, 1 << 30, u64::MAX / 2);
            let bootstrap = (i > 0).then(|| Addr(seeder.gen_range(0..i)));
            sim.add_node(
                entry.addr,
                PastryNode::new(pastry.clone(), entry, app, bootstrap),
            );
            sim.run_until_idle();
        }
        sim.discard_upcalls();
        sim
    }

    /// Starts an insert at the client and, before any message of it is
    /// delivered, hands the client a coordinator's success reply carrying
    /// `receipts` valid receipts. Returns the attempts the insert is then
    /// on (`None` once it is done) and the outcomes it reported.
    fn reply_with_receipts(
        sim: &mut Simulator<PastOverlayNode>,
        receipts: usize,
    ) -> (Option<u32>, Vec<bool>) {
        let mut attempts = None;
        sim.invoke(CLIENT, |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                let seq = app.insert(actx, "f", 1_000);
                let file_id = match &app.pending[&seq] {
                    PendingOp::Insert { cert, .. } => cert.file_id,
                    _ => unreachable!("an insert is pending"),
                };
                let mut rng = StdRng::seed_from_u64(9);
                let receipts = (0..receipts)
                    .map(|_| {
                        let storer = KeyPair::generate(Scheme::Keyed, &mut rng);
                        SharedReceipt::new(StoreReceipt::issue(
                            &storer, file_id, false, 0, &mut rng,
                        ))
                    })
                    .collect();
                let req = ReqId {
                    client: actx.own(),
                    seq,
                };
                app.on_insert_reply(actx, req, file_id, receipts, K as u32, true);
                attempts = match app.pending.get(&seq) {
                    Some(PendingOp::Insert { attempts, .. }) => Some(*attempts),
                    _ => None,
                };
            });
        });
        let outcomes = sim
            .drain_upcalls()
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                PastEvent::InsertDone { success, .. } => Some(success),
                _ => None,
            })
            .collect();
        (attempts, outcomes)
    }

    /// With verification on the client counts copies by their receipts:
    /// k − 1 valid receipts fail the attempt (the insert is re-salted),
    /// k complete it.
    #[test]
    fn a_verifying_client_needs_k_valid_receipts() {
        let mut sim = overlay(true);
        assert_eq!(reply_with_receipts(&mut sim, K - 1), (Some(2), vec![]));
        assert_eq!(reply_with_receipts(&mut sim, K), (None, vec![true]));
    }

    /// With verification off no receipt is signed: an insert replicated
    /// over the overlay completes, and so does a reply that carries an
    /// empty receipt list.
    #[test]
    fn without_verification_an_insert_completes_without_receipts() {
        let mut sim = overlay(false);
        assert_eq!(reply_with_receipts(&mut sim, 0), (None, vec![true]));
        sim.run_until_idle();
        sim.discard_upcalls();
        sim.invoke(CLIENT, |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.insert(actx, "g", 1_000);
            });
        });
        sim.run_until_idle();
        let done: Vec<_> = sim
            .drain_upcalls()
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                PastEvent::InsertDone {
                    success, attempts, ..
                } => Some((success, attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![(true, 1)]);
    }
}
