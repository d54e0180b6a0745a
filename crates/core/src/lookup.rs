//! The lookup path: interception at the first node storing the file,
//! pointer indirection for diverted replicas, and response-path caching.

use past_crypto::SharedFileCert;
use past_id::FileId;
use past_pastry::NodeEntry;
use past_store::Resolution;

use crate::config::K;
use crate::events::PastEvent;
use crate::messages::{HitKind, MsgKind, ReqId};
use crate::node::{PCtx, PastNode, PendingOp};
use crate::obs;

fn hit_label(kind: HitKind) -> &'static str {
    match kind {
        HitKind::Primary => "hit_primary",
        HitKind::Diverted => "hit_diverted",
        HitKind::Cached => "hit_cached",
    }
}

fn hit_counter(kind: HitKind) -> &'static str {
    match kind {
        HitKind::Primary => "past.lookup.hit.primary",
        HitKind::Diverted => "past.lookup.hit.diverted",
        HitKind::Cached => "past.lookup.hit.cached",
    }
}

impl PastNode {
    /// The current windowed-metrics bucket, or `None` when windowed
    /// time series are disabled (`obs_window` zero or no recorder).
    pub(crate) fn win_bucket(&self, ctx: &PCtx<'_, '_>) -> Option<u64> {
        let width = self.cfg.obs_window.micros();
        if width == 0 || !past_obs::is_enabled() {
            return None;
        }
        Some(ctx.now().micros() / width)
    }

    /// Records a completed client lookup into the windowed time series
    /// (completion count, cache-hit count, hop sum per window).
    pub(crate) fn note_lookup_window(&self, ctx: &PCtx<'_, '_>, kind: HitKind, hops: u32) {
        if let Some(bucket) = self.win_bucket(ctx) {
            past_obs::window_add("past.win.lookup", bucket, 1);
            if kind == HitKind::Cached {
                past_obs::window_add("past.win.lookup.cached", bucket, 1);
            }
            if hops > 0 {
                past_obs::window_add("past.win.lookup.hops", bucket, hops as u64);
            }
        }
    }

    /// Records this node serving one lookup answer into the per-node
    /// windowed series (the max/mean spread per window is the
    /// flash-crowd load-concentration chart).
    pub(crate) fn note_served_window(&self, ctx: &PCtx<'_, '_>) {
        if let Some(bucket) = self.win_bucket(ctx) {
            past_obs::window_node_add("past.win.served", bucket, ctx.own().addr.0, 1);
        }
    }

    /// A lookup reached the node responsible for the key without being
    /// intercepted earlier.
    pub(crate) fn lookup_at_responsible(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        path: Vec<NodeEntry>,
        hops: u32,
    ) {
        match self.store.resolve(file_id) {
            Resolution::Primary | Resolution::DivertedHere => {
                self.answer_lookup(ctx, req, file_id, path, hops, HitKind::Primary);
            }
            Resolution::Cached => {
                self.answer_lookup(ctx, req, file_id, path, hops, HitKind::Cached);
            }
            Resolution::Pointer(holder) => {
                // One additional RPC reaches the diverted replica.
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
            }
            Resolution::Miss => {
                self.send_to(ctx, req.client, MsgKind::LookupMiss { req, file_id });
            }
        }
    }

    /// Replies to a lookup from this node's copy of the file, sending the
    /// response back along the request path so intermediate nodes can
    /// cache it.
    pub(crate) fn answer_lookup(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        path: Vec<NodeEntry>,
        hops: u32,
        kind: HitKind,
    ) {
        let cert = match self.store.certificate(file_id) {
            Some(c) => c.clone(),
            None => {
                self.send_to(ctx, req.client, MsgKind::LookupMiss { req, file_id });
                return;
            }
        };
        past_obs::span_event(
            obs::req_span(&req),
            ctx.now().micros(),
            ctx.own().addr.0,
            hit_label(kind),
            hops as i64,
        );
        self.note_served_window(ctx);
        // A content-corrupting holder serves bytes that no longer match
        // the certificate; the flag travels with the hit and stands in
        // for the client's own hash comparison of the received content.
        let corrupted = self.malice.corrupt_content;
        let server = ctx.own();
        // Response retraces the request path (closest forwarder first),
        // ending at the client.
        let mut reverse: Vec<NodeEntry> = path.into_iter().rev().collect();
        reverse.push(req.client);
        self.forward_hit(ctx, req, cert, hops, kind, reverse, corrupted, server);
    }

    /// Sends a hit to the next node on the reverse path (or completes the
    /// operation when this node *is* the client).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_hit(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        cert: SharedFileCert,
        hops: u32,
        kind: HitKind,
        mut reverse_path: Vec<NodeEntry>,
        corrupted: bool,
        server: NodeEntry,
    ) {
        // Skip self-entries (the responder may be on the recorded path).
        let own = ctx.own();
        while let Some(first) = reverse_path.first() {
            if first.id == own.id {
                reverse_path.remove(0);
            } else {
                break;
            }
        }
        match reverse_path.first().copied() {
            Some(next) => {
                let rest = reverse_path[1..].to_vec();
                self.send_to(
                    ctx,
                    next,
                    MsgKind::LookupHit {
                        req,
                        cert,
                        hops,
                        kind,
                        reverse_path: rest,
                        corrupted,
                        server,
                    },
                );
            }
            None => {
                // The path is exhausted: this node must be the client.
                debug_assert_eq!(req.client.id, own.id);
                self.complete_lookup(ctx, req, cert, hops, kind, corrupted, server);
            }
        }
    }

    /// A hit traveling back toward the client passes through this node:
    /// cache it (§4) and forward. Corrupted content is never cached —
    /// the relay's own hash check rejects it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_lookup_hit(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        cert: SharedFileCert,
        hops: u32,
        kind: HitKind,
        reverse_path: Vec<NodeEntry>,
        corrupted: bool,
        server: NodeEntry,
    ) {
        if !corrupted {
            self.store.cache_file(&cert);
        }
        if req.client.id == ctx.own().id && reverse_path.is_empty() {
            self.complete_lookup(ctx, req, cert, hops, kind, corrupted, server);
        } else {
            self.forward_hit(ctx, req, cert, hops, kind, reverse_path, corrupted, server);
        }
    }

    /// Completes a pending client lookup. In content-verification mode a
    /// corrupted answer is not accepted: the client demotes and shuns
    /// the offending server and re-routes the lookup (the shun steers
    /// the retry to a different replica holder), giving up only after
    /// `k` retries.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete_lookup(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        cert: SharedFileCert,
        hops: u32,
        kind: HitKind,
        corrupted: bool,
        server: NodeEntry,
    ) {
        match self.pending.remove(&req.seq) {
            Some(PendingOp::Lookup { file_id, retries }) => {
                debug_assert_eq!(file_id, cert.file_id);
                // Content verification is the client half of the audit
                // defence: armed with it, or not at all.
                if corrupted && self.cfg.audit_period.micros() > 0 {
                    past_obs::counter("past.lookup.corrupted", 1);
                    ctx.demote_peer(server.id);
                    if (retries as usize) < K {
                        past_obs::counter("past.lookup.retry", 1);
                        self.pending.insert(
                            req.seq,
                            PendingOp::Lookup {
                                file_id,
                                retries: retries + 1,
                            },
                        );
                        let m = self.msg(MsgKind::Lookup {
                            req,
                            file_id,
                            path: Vec::new(),
                        });
                        ctx.route(file_id.as_key(), m);
                        return;
                    }
                }
                if past_obs::is_enabled() {
                    past_obs::counter("past.lookup.ok", 1);
                    past_obs::counter(hit_counter(kind), 1);
                    past_obs::observe("past.lookup.hops", hops as u64);
                    past_obs::span_end(obs::req_span(&req), ctx.now().micros(), hit_label(kind));
                }
                self.note_lookup_window(ctx, kind, hops);
                ctx.emit(PastEvent::LookupDone {
                    seq: req.seq,
                    file_id,
                    found: true,
                    hops,
                    kind: Some(kind),
                    corrupted,
                });
            }
            Some(other) => {
                self.pending.insert(req.seq, other);
            }
            None => {} // Timed out already.
        }
    }

    /// Client receives a definitive miss.
    pub(crate) fn on_lookup_miss(&mut self, ctx: &mut PCtx<'_, '_>, req: ReqId, file_id: FileId) {
        match self.pending.remove(&req.seq) {
            Some(PendingOp::Lookup { .. }) => {
                if past_obs::is_enabled() {
                    past_obs::counter("past.lookup.miss", 1);
                    past_obs::span_end(obs::req_span(&req), ctx.now().micros(), "miss");
                }
                ctx.emit(PastEvent::LookupDone {
                    seq: req.seq,
                    file_id,
                    found: false,
                    hops: 0,
                    kind: None,
                    corrupted: false,
                });
            }
            Some(other) => {
                self.pending.insert(req.seq, other);
            }
            None => {}
        }
    }

    /// Node B (diverted-replica holder) answers a pointer-indirected
    /// lookup; the extra A→B RPC counts as one more hop.
    pub(crate) fn on_fetch_diverted(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        req: ReqId,
        file_id: FileId,
        hops: u32,
        path: Vec<NodeEntry>,
    ) {
        past_obs::span_event(
            obs::req_span(&req),
            ctx.now().micros(),
            ctx.own().addr.0,
            "fetch_diverted",
            hops as i64,
        );
        if self.store.holds_replica(file_id) {
            self.answer_lookup(ctx, req, file_id, path, hops + 1, HitKind::Diverted);
        } else {
            // Stale pointer (replica discarded or migrated away).
            self.send_to(ctx, req.client, MsgKind::LookupMiss { req, file_id });
        }
    }

}
