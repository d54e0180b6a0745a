//! Replica maintenance (§3.5): keeping k copies per file as nodes join,
//! fail and recover. A joining node gets a pointer to the data it
//! displaces; the data itself does not move (§3.5's optional background
//! migration is not implemented).

use past_crypto::SharedFileCert;
use past_id::{FileId, NodeId};
use past_net::SimDuration;
use past_pastry::{NodeEntry, PastryState};

use crate::config::K;
use crate::events::PastEvent;
use crate::messages::MsgKind;
use crate::node::{PCtx, PastNode, PendingMaint, MAINT_RETRY_BASE};
use crate::obs;

/// Ack timeout for a maintenance message: each unacked send is
/// retransmitted after it, the timeout doubling on every retry.
const MAINT_ACK_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Maximum retransmissions per maintenance message before the repair
/// is abandoned (counted in `MaintStats::exhausted`).
const MAINT_RETRY_BUDGET: u32 = 5;
/// Maximum primaries re-audited per anti-entropy sweep.
const ANTI_ENTROPY_BATCH: usize = 8;

/// Whether `node`, a leaf-set member, is among the `k` closest to `key`
/// *instead of* this node. `candidates` is scratch space.
///
/// The newcomer takes this node's place only for keys it is closer to:
/// if it is among the `k` closest and this node is not, it ranks before
/// this node. Two distances therefore settle most keys without a
/// leaf-set scan, and nearly every other key is one this node still
/// answers for, which needs no candidate list.
fn displaced_by(
    pastry: &PastryState,
    node: NodeId,
    key: NodeId,
    k: usize,
    candidates: &mut Vec<(u128, NodeEntry)>,
) -> bool {
    if !node.closer_to(key, pastry.own().id) || pastry.is_among_k_closest(key, k) {
        return false;
    }
    pastry.replica_candidates_into(key, k, candidates);
    candidates.iter().any(|(_, c)| c.id == node)
}

impl PastNode {
    /// Sends a maintenance message reliably: enveloped with a sequence
    /// number, retransmitted with exponential backoff until the
    /// receiver acks or the retry budget runs out.
    pub(crate) fn send_maint(&mut self, ctx: &mut PCtx<'_, '_>, to: NodeEntry, kind: MsgKind) {
        self.maint_stats.sent += 1;
        past_obs::counter("maint.sent", 1);
        let seq = self.next_maint_seq;
        self.next_maint_seq += 1;
        if past_obs::is_enabled() {
            past_obs::span_start(
                obs::maint_span(ctx.own().addr, seq),
                "maint",
                ctx.now().micros(),
            );
            past_obs::span_event(
                obs::maint_span(ctx.own().addr, seq),
                ctx.now().micros(),
                ctx.own().addr.0,
                "send",
                to.addr.0 as i64,
            );
        }
        self.maint_pending.insert(
            seq,
            PendingMaint {
                to,
                kind: kind.clone(),
                attempts: 0,
                backoff: MAINT_ACK_TIMEOUT,
            },
        );
        self.send_to(
            ctx,
            to,
            MsgKind::MaintSeq {
                seq,
                inner: Box::new(kind),
            },
        );
        ctx.set_app_timer(MAINT_ACK_TIMEOUT, MAINT_RETRY_BASE + seq);
    }

    /// Accounts maintenance payload bytes by class, in the struct
    /// counters and, when a recorder is installed, the obs counters.
    pub(crate) fn count_maint_bytes(&mut self, bytes: u64, refresh: bool) {
        let stats = &mut self.maint_stats;
        let (total, name) = if refresh {
            (&mut stats.bytes_refresh, "maint.bytes.refresh")
        } else {
            (&mut stats.bytes_rereplication, "maint.bytes.rereplication")
        };
        *total += bytes;
        past_obs::counter(name, bytes);
    }

    /// The receiver acknowledged maintenance message `seq`.
    pub(crate) fn on_maint_ack(&mut self, ctx: &mut PCtx<'_, '_>, seq: u64) {
        if self.maint_pending.remove(&seq).is_some() {
            self.maint_stats.acked += 1;
            if past_obs::is_enabled() {
                past_obs::counter("maint.acked", 1);
                past_obs::span_end(
                    obs::maint_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    "acked",
                );
            }
        }
    }

    /// The ack timer for maintenance message `seq` fired: retransmit
    /// with doubled backoff, or give up once the budget is spent.
    pub(crate) fn on_maint_retry(&mut self, ctx: &mut PCtx<'_, '_>, seq: u64) {
        let entry = match self.maint_pending.get_mut(&seq) {
            Some(e) => e,
            None => return, // Acked before the timer fired.
        };
        if entry.attempts >= MAINT_RETRY_BUDGET {
            self.maint_pending.remove(&seq);
            self.maint_stats.exhausted += 1;
            if past_obs::is_enabled() {
                past_obs::counter("maint.exhausted", 1);
                past_obs::span_end(
                    obs::maint_span(ctx.own().addr, seq),
                    ctx.now().micros(),
                    "exhausted",
                );
            }
            return;
        }
        entry.attempts += 1;
        entry.backoff = entry.backoff + entry.backoff;
        let (to, kind, backoff, attempts) =
            (entry.to, entry.kind.clone(), entry.backoff, entry.attempts);
        self.maint_stats.retries += 1;
        if past_obs::is_enabled() {
            past_obs::counter("maint.retry", 1);
            past_obs::span_event(
                obs::maint_span(ctx.own().addr, seq),
                ctx.now().micros(),
                ctx.own().addr.0,
                "retry",
                attempts as i64,
            );
        }
        self.send_to(
            ctx,
            to,
            MsgKind::MaintSeq {
                seq,
                inner: Box::new(kind),
            },
        );
        ctx.set_app_timer(backoff, MAINT_RETRY_BASE + seq);
    }
    /// A node entered this node's leaf set. For every primary replica
    /// whose replica set now includes the newcomer *instead of* this
    /// node, install a pointer on the newcomer (semantically a replica
    /// diversion, per §3.5) so responsibility transfers immediately. The
    /// data stays where it is: the pointer lasts until the file is
    /// reclaimed or its holder fails.
    pub(crate) fn handle_neighbor_added(&mut self, ctx: &mut PCtx<'_, '_>, node: NodeEntry) {
        let own = ctx.own();
        // One buffer for the whole sweep: it asks once per stored primary.
        let mut candidates = Vec::with_capacity(K);
        let mut displaced: Vec<(FileId, SharedFileCert)> = self
            .store
            .primaries()
            .filter(|(id, _)| displaced_by(ctx.pastry(), node.id, id.as_key(), K, &mut candidates))
            .map(|(id, cert)| (*id, cert.clone()))
            .collect();
        // The store's maps iterate in per-instance random order; batches
        // derived from them are sorted so same-seed runs send identical
        // message sequences (maintenance seq numbers included).
        displaced.sort_by_key(|(id, _)| *id);
        for (file_id, cert) in displaced {
            // "The joining node may install a pointer in its file table,
            // referring to the node that has just ceased to be one of the
            // k numerically closest, and requiring that node to keep the
            // replica."
            self.send_maint(
                ctx,
                node,
                MsgKind::InstallPointer {
                    file_id,
                    holder: own,
                    backup: false,
                    cert,
                },
            );
        }
    }

    /// A node left this node's leaf set (presumed failed). Restore the
    /// storage invariant for every file this node shares responsibility
    /// for, and repair diversion pointers that referenced the failed
    /// node.
    pub(crate) fn handle_neighbor_removed(&mut self, ctx: &mut PCtx<'_, '_>, failed: NodeEntry) {
        let own = ctx.own();
        // (a) Primary replicas: if the failed node was in the replica set
        // and this node is the set's closest member, ship a copy to the
        // node that newly completes the set.
        let mut to_restore: Vec<(NodeEntry, SharedFileCert)> = Vec::new();
        let mut candidates = Vec::with_capacity(K);
        for (id, stored) in self.store.primaries() {
            let key = id.as_key();
            // Only the set's closest member restores, which rules out
            // k − 1 holders in k before any candidate list is built.
            if !ctx.is_among_k_closest(key, 1) {
                continue;
            }
            ctx.replica_candidates_into(key, K, &mut candidates);
            // Was the failed node responsible? Compare its distance to
            // the current farthest candidate.
            let Some(&(farthest_distance, farthest)) = candidates.last() else {
                continue;
            };
            let failed_was_in = failed.id.ring_distance(key) <= farthest_distance;
            if failed_was_in && farthest.id != own.id {
                to_restore.push((farthest, stored.clone()));
            }
        }
        to_restore.sort_by_key(|(_, cert)| cert.file_id);
        for (node, cert) in to_restore {
            self.count_maint_bytes(cert.file_size, false);
            self.send_maint(ctx, node, MsgKind::ReplicaTransfer { cert });
        }
        // (b) A→B pointers whose holder B failed: the diverted replica is
        // lost; re-create it (locally if possible, else divert again).
        let mut lost: Vec<FileId> = self
            .store
            .pointers()
            .filter(|(_, p)| p.holder.id == failed.id)
            .map(|(id, _)| *id)
            .collect();
        lost.sort();
        for file_id in lost {
            if let Some(pointer) = self.store.remove_pointer(file_id) {
                if let Some(c_node) = pointer.backup_at {
                    self.send_maint(ctx, c_node, MsgKind::Discard { file_id });
                }
                // Re-create the replica: §3.3's machinery is reused with
                // no coordinator (no receipts at maintenance time).
                self.attempt_store(ctx, pointer.cert, None);
            }
        }
        // (c) Backup pointers installed by the failed diverting node A:
        // promote them to regular pointers so the diverted replica at B
        // stays reachable from this node. Only pointers whose recorded
        // installer is the failed node are promoted; backups for live
        // diverting nodes stay backups.
        let mut promoted: Vec<FileId> = self
            .store
            .backup_pointers()
            .filter(|(_, b)| b.holder.id != failed.id && b.owner.id == failed.id)
            .map(|(id, _)| *id)
            .collect();
        promoted.sort();
        for file_id in promoted {
            if let Some(backup) = self.store.remove_backup_pointer(file_id) {
                self.store.install_pointer(file_id, backup.holder, backup.cert);
            }
        }
        // (d) Backup pointers whose replica holder B failed reference a
        // replica that no longer exists; A's branch (b) re-creates it,
        // so the stale backup is dropped here.
        let mut stale: Vec<FileId> = self
            .store
            .backup_pointers()
            .filter(|(_, b)| b.holder.id == failed.id)
            .map(|(id, _)| *id)
            .collect();
        stale.sort();
        for file_id in stale {
            self.store.remove_backup_pointer(file_id);
        }
    }

    /// A replica holder receives a request for a file's content from a
    /// responsible node that lacks the copy this holder advertised. The
    /// shipped bytes count as refresh bytes.
    pub(crate) fn on_fetch_replica(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        from: NodeEntry,
        file_id: FileId,
    ) {
        // A replica-dropping Byzantine node refuses maintenance service
        // outright (it has discarded its copies anyway).
        if self.malice.drop_replicas {
            return;
        }
        if let Some(replica) = self.store.replica(file_id) {
            let cert = replica.cert.clone();
            self.count_maint_bytes(cert.file_size, true);
            self.send_maint(ctx, from, MsgKind::ReplicaTransfer { cert });
        }
    }

    /// A file arrives for this node to store as part of maintenance
    /// (failure recovery or an anti-entropy refresh). Stored with the
    /// §3.5 overflow handling: locally, else diverted, else dropped
    /// (replication temporarily below k).
    pub(crate) fn on_replica_transfer(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        from: NodeEntry,
        cert: SharedFileCert,
    ) {
        let file_id = cert.file_id;
        if self.store.holds_replica(file_id) {
            // Already held — but the sender believing it should ship us a
            // copy can itself be stale: a node that cold-rejoined after
            // the replica set moved on keeps re-creating a k+1-th copy.
            // In warm-restart mode, reconcile deterministically: a sender
            // outside the current replica set (i.e. farther than every
            // candidate) is told to drop; its own `on_migration_done`
            // re-checks standing before doing so.
            if ctx.config().warm_restart {
                let candidates = ctx.replica_candidates(file_id.as_key(), K);
                if !candidates.iter().any(|c| c.id == from.id) {
                    self.send_to(ctx, from, MsgKind::MigrationDone { file_id });
                }
            }
            return;
        }
        let size = cert.file_size;
        if self.store.store_primary(cert.clone()).is_ok() {
            ctx.emit(PastEvent::ReplicaStored {
                file_id,
                size,
                diverted: false,
            });
            // The copy retires any pointer this node kept for the file,
            // and the sender may now drop its own if no longer responsible.
            self.store.remove_pointer(file_id);
            self.send_to(ctx, from, MsgKind::MigrationDone { file_id });
        } else {
            // Reuse replica diversion with no coordinator.
            self.attempt_store(ctx, cert, None);
        }
    }

    /// The receiver of this node's copy holds the file now: drop the
    /// replica if this node is no longer among the file's k closest.
    pub(crate) fn on_migration_done(&mut self, ctx: &mut PCtx<'_, '_>, file_id: FileId) {
        if ctx.is_among_k_closest(file_id.as_key(), K) {
            return; // Still responsible: keep the copy.
        }
        if let Some(replica) = self.store.remove_replica(file_id) {
            ctx.emit(PastEvent::ReplicaDropped {
                file_id,
                size: replica.size(),
                diverted: replica.diverted_from.is_some(),
            });
        }
    }

    /// Anti-entropy sweep (LOCKSS-style "slow repair"): re-audit a
    /// bounded, round-robin batch of this node's primary replicas
    /// against the current replica set and re-ship copies to every
    /// current candidate. Receivers deduplicate (and answer with
    /// `MigrationDone` when the sender should migrate the file away),
    /// so repeated sweeps converge without amplification; the batch
    /// limit is the rate limit. This is the slow path that eventually
    /// restores `k` replicas even when the event-driven repairs of
    /// [`Self::handle_neighbor_removed`] were lost or exhausted their
    /// retries.
    pub(crate) fn anti_entropy_sweep(&mut self, ctx: &mut PCtx<'_, '_>) {
        let own = ctx.own();
        let mut ids: Vec<FileId> = self.store.primaries().map(|(id, _)| *id).collect();
        if ids.is_empty() {
            return;
        }
        ids.sort();
        // Resume after the cursor, wrapping, so every file is audited
        // once per full rotation regardless of the batch size.
        let start = match self.anti_entropy_cursor {
            Some(cursor) => ids.partition_point(|id| *id <= cursor),
            None => 0,
        };
        let take = ids.len().min(ANTI_ENTROPY_BATCH);
        let batch: Vec<FileId> = ids
            .iter()
            .cycle()
            .skip(start)
            .take(take)
            .copied()
            .collect();
        self.anti_entropy_cursor = batch.last().copied();
        for file_id in batch {
            let cert = match self.store.replica(file_id) {
                Some(r) => r.cert.clone(),
                None => continue,
            };
            for node in ctx.replica_candidates(file_id.as_key(), K) {
                if node.id == own.id {
                    continue;
                }
                if ctx.config().warm_restart {
                    // Advertise-then-fetch: ship the certificate, not
                    // the file. Receivers that miss the replica pull it
                    // (`FetchReplica`); receivers that hold it reconcile
                    // over-replication instead of absorbing a redundant
                    // full copy.
                    self.send_maint(
                        ctx,
                        node,
                        MsgKind::ReplicaAdvertise {
                            cert: cert.clone(),
                            holder: own,
                        },
                    );
                } else {
                    self.count_maint_bytes(cert.file_size, true);
                    self.send_maint(ctx, node, MsgKind::ReplicaTransfer { cert: cert.clone() });
                }
            }
        }
    }

    /// A holder advertised a replica (warm-restart mode: on recovery,
    /// routed toward the fileId; during anti-entropy, sent directly to
    /// the replica set). Cheap reconciliation in both directions: a
    /// receiver missing the file pulls it from the advertiser, a
    /// receiver holding it tells an advertiser that fell out of the
    /// replica set to drop. Never installs pointers — the invariant
    /// audit counts pointers as copies, so an advertisement must not
    /// mint one.
    pub(crate) fn on_replica_advertise(
        &mut self,
        ctx: &mut PCtx<'_, '_>,
        cert: SharedFileCert,
        holder: NodeEntry,
    ) {
        let file_id = cert.file_id;
        let own = ctx.own();
        if holder.id == own.id {
            return;
        }
        if !self.store.holds_replica(file_id) {
            // Only pull content this node is actually responsible for,
            // and only under a valid certificate.
            if ctx.is_among_k_closest(file_id.as_key(), K) && self.cert_ok(&cert) {
                self.send_maint(ctx, holder, MsgKind::FetchReplica { file_id });
            }
            return;
        }
        let candidates = ctx.replica_candidates(file_id.as_key(), K);
        if !candidates.iter().any(|c| c.id == holder.id) {
            self.send_to(ctx, holder, MsgKind::MigrationDone { file_id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_net::Addr;
    use past_pastry::PastryConfig;
    use proptest::prelude::*;

    proptest! {
        /// The closer-than-own shortcut in `displaced_by` rejects only
        /// keys the full test rejects too: a sweep with it selects the
        /// files a sweep without it selects.
        #[test]
        fn prop_shortcut_selects_what_the_leaf_set_scan_selects(
            own: u128,
            members: Vec<(u128, bool)>,
            newcomer: (u128, bool),
            offsets: Vec<i64>,
            far_keys: Vec<u128>,
            k in 1usize..7,
        ) {
            let entry = |v: u128, a: u32| NodeEntry::new(NodeId::from_u128(v), Addr(a));
            let cfg = PastryConfig { leaf_set_size: 8, ..Default::default() };
            let mut pastry = PastryState::new(entry(own, 0), &cfg);
            // Half the ids are drawn near the node, so that sides fill
            // up and the newcomer competes for a place in them.
            let place = |(v, near): (u128, bool)| if near { own.wrapping_add(v >> 100) } else { v };
            for (i, m) in members.into_iter().enumerate() {
                pastry.on_node_seen(entry(place(m), i as u32 + 1), 1.0);
            }
            let newcomer = place(newcomer);
            pastry.on_node_seen(entry(newcomer, u32::MAX), 1.0);
            let node = NodeId::from_u128(newcomer);
            // Keys around the node and the newcomer, where replica sets
            // change hands, and anywhere on the ring.
            let keys = offsets
                .iter()
                .flat_map(|o| [own.wrapping_add(*o as u128), newcomer.wrapping_add(*o as u128)])
                .chain(far_keys)
                .map(NodeId::from_u128);
            let mut candidates = Vec::new();
            for key in keys {
                let scanned = !pastry.is_among_k_closest(key, k)
                    && pastry.replica_candidates(key, k).iter().any(|c| c.id == node);
                prop_assert_eq!(displaced_by(&pastry, node, key, k, &mut candidates), scanned);
            }
        }
    }
}
