//! The message-driven Pastry node: join protocol, keep-alives, failure
//! detection and repair, and routed message delivery with per-hop
//! application interception.


use std::cell::RefCell;

use past_id::{IdHashMap, NodeId};
use past_net::{Addr, Ctx, Protocol, SimDuration, SimTime};

use crate::config::{PastryConfig, B};
use crate::leaf_set::NodeEntry;
use crate::routing_table::RouteCell;
use crate::state::{LeafChange, NextHop, PastryState};

/// Timer token for the periodic keep-alive sweep.
const KEEPALIVE_TOKEN: u64 = 0;
/// Per-hop forward-acknowledgment tokens occupy [FWD, APP).
const FWD_TOKEN_BASE: u64 = 1 << 16;
/// Application timer tokens are offset into their own namespace.
const APP_TOKEN_BASE: u64 = 1 << 48;

/// How long a forwarding node waits for the next hop's receipt
/// acknowledgment before presuming it failed (`per_hop_acks`).
const FORWARD_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Warm-restart reconnection fan-out: on recovery, probe at most this
/// many restored leaf-set members (lowest id first) instead of the
/// whole leaf set.
const RESTART_PROBE_FANOUT: usize = 8;
/// Under randomized routing, the probability of taking the best hop
/// ("heavily biased towards the best choice to ensure low average route
/// delay").
const BEST_HOP_BIAS: f64 = 0.9;

/// The body of a Pastry wire message.
#[derive(Clone, Debug)]
pub enum Body<M> {
    /// A routed application message converging on `key`.
    Route {
        /// Destination key.
        key: NodeId,
        /// Network messages traversed so far.
        hops: u32,
        /// The node that originated the route.
        source: NodeEntry,
        /// Application payload.
        msg: M,
    },
    /// Join request converging on the joiner's nodeId; accumulates
    /// routing-table rows from each node along the path.
    JoinRequest {
        /// The joining node.
        joiner: NodeEntry,
        /// (row index, row cells) collected along the route.
        rows: Vec<(u32, Vec<Option<RouteCell>>)>,
        /// Nodes traversed so far.
        path: Vec<NodeEntry>,
    },
    /// Terminal reply from the numerically closest node Z to the joiner.
    JoinReply {
        /// Z's leaf set (Z itself is the envelope sender).
        leaf: Vec<NodeEntry>,
        /// Accumulated routing rows.
        rows: Vec<(u32, Vec<Option<RouteCell>>)>,
        /// Join route path.
        path: Vec<NodeEntry>,
    },
    /// The initial contact A sends its neighborhood set to the joiner
    /// ("X obtains ... the neighborhood set from A").
    NeighborhoodReply {
        /// A's neighborhood members.
        members: Vec<NodeEntry>,
    },
    /// A newly joined node announces itself to every node it knows.
    Announce,
    /// Acknowledgment carrying the receiver's leaf set, which accelerates
    /// convergence of the joiner's state.
    AnnounceAck {
        /// Receiver's leaf-set members.
        leaf: Vec<NodeEntry>,
    },
    /// Keep-alive probe.
    Ping,
    /// Keep-alive response.
    Pong,
    /// Request for the receiver's current leaf set (repair/recovery).
    LeafSetRequest,
    /// Leaf-set contents for repair/recovery.
    LeafSetReply {
        /// Members of the sender's leaf set.
        members: Vec<NodeEntry>,
    },
    /// Notification that `failed` was detected as unresponsive.
    FailureNotice {
        /// The presumed-failed node.
        failed: NodeId,
    },
    /// A direct (unrouted) application message.
    App(M),
}

/// A wire message: sender identity plus body. The sender field lets every
/// receiving node opportunistically refresh its state.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Identity of the sending node.
    pub sender: NodeEntry,
    /// Message body.
    pub body: Body<M>,
}

/// The interface an overlay application (PAST) implements.
///
/// All callbacks receive an [`AppCtx`] exposing routing, direct sends,
/// timers, the proximity metric and read access to the Pastry state.
pub trait Application: Sized {
    /// Application message payload.
    type Msg: Clone;
    /// Harness-visible events.
    type Upcall;

    /// This node completed its join and is fully part of the overlay.
    fn on_joined(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>) {
        let _ = ctx;
    }

    /// A routed message reached the node responsible for `key`.
    fn deliver(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>,
        key: NodeId,
        msg: Self::Msg,
        hops: u32,
        source: NodeEntry,
    );

    /// A routed message is passing through on its way to `key`.
    /// Return `false` to consume it here (delivery will not happen).
    /// The payload may be mutated (e.g. annotated) before forwarding.
    fn forward(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>,
        key: NodeId,
        msg: &mut Self::Msg,
        hops: u32,
        source: NodeEntry,
    ) -> bool {
        let _ = (ctx, key, msg, hops, source);
        true
    }

    /// A direct application message arrived.
    fn on_app_message(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>,
        from: NodeEntry,
        msg: Self::Msg,
    );

    /// A node entered this node's leaf set.
    fn on_neighbor_added(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>,
        node: NodeEntry,
    ) {
        let _ = (ctx, node);
    }

    /// A node left this node's leaf set (failed or displaced).
    fn on_neighbor_removed(
        &mut self,
        ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>,
        node: NodeEntry,
    ) {
        let _ = (ctx, node);
    }

    /// An application timer armed via [`AppCtx::set_app_timer`] fired.
    fn on_app_timer(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>, token: u64) {
        let _ = (ctx, token);
    }

    /// The node warm-restarted: its Pastry state was rebuilt from what
    /// it kept across the crash, and the application's own state is as
    /// it was when the node went down. The application should restart
    /// its timers and re-advertise anything the overlay may have
    /// re-replicated meanwhile.
    fn on_restore(&mut self, ctx: &mut AppCtx<'_, '_, Self::Msg, Self::Upcall>) {
        let _ = ctx;
    }
}

/// Context handed to application callbacks.
pub struct AppCtx<'a, 'b, M, U> {
    state: &'a PastryState,
    cfg: &'a PastryConfig,
    demotions: &'a RefCell<Vec<NodeId>>,
    net: &'a mut Ctx<'b, Envelope<M>, U>,
}

impl<'a, 'b, M: Clone, U> AppCtx<'a, 'b, M, U> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// This node's identity.
    pub fn own(&self) -> NodeEntry {
        self.state.own()
    }

    /// Read access to the Pastry state (leaf set, routing table, ...).
    pub fn pastry(&self) -> &PastryState {
        self.state
    }

    /// The node's Pastry configuration.
    pub fn config(&self) -> &PastryConfig {
        self.cfg
    }

    /// Emits a harness-visible event.
    pub fn emit(&mut self, upcall: U) {
        self.net.emit(upcall);
    }

    /// Deterministic RNG.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.net.rng()
    }

    /// Proximity between this node and `other`.
    pub fn proximity(&self, other: Addr) -> f64 {
        self.net.proximity(other)
    }

    /// Routes `msg` toward the node responsible for `key`. The message
    /// will surface at each intermediate node's [`Application::forward`]
    /// and at the destination's [`Application::deliver`].
    ///
    /// The message is injected via loopback so that the node's full
    /// forwarding path (including per-hop failure detection when
    /// [`PastryConfig::per_hop_acks`] is on) handles every hop uniformly;
    /// the loopback does not count as a routing hop.
    #[inline]
    pub fn route(&mut self, key: NodeId, msg: M) {
        let own = self.state.own();
        self.net.send(
            own.addr,
            Envelope {
                sender: own,
                body: Body::Route {
                    key,
                    hops: 0,
                    source: own,
                    msg,
                },
            },
        );
    }

    /// Sends a direct, unrouted application message to a known node.
    #[inline]
    pub fn send_app(&mut self, to: Addr, msg: M) {
        let own = self.state.own();
        self.net.send(
            to,
            Envelope {
                sender: own,
                body: Body::App(msg),
            },
        );
    }

    /// Arms an application timer; it fires at
    /// [`Application::on_app_timer`] with the same token.
    pub fn set_app_timer(&mut self, delay: past_net::SimDuration, token: u64) {
        self.net.set_timer(delay, APP_TOKEN_BASE + token);
    }

    /// The k locally judged replica holders for `key`.
    pub fn replica_candidates(&self, key: NodeId, k: usize) -> Vec<NodeEntry> {
        self.state.replica_candidates(key, k)
    }

    /// [`AppCtx::replica_candidates`] into a caller-owned buffer
    /// (cleared first), each paired with its ring distance to `key` —
    /// for sweeps that ask once per stored file.
    pub fn replica_candidates_into(&self, key: NodeId, k: usize, out: &mut Vec<(u128, NodeEntry)>) {
        self.state.replica_candidates_into(key, k, out);
    }

    /// Whether this node is among the k numerically closest to `key`.
    pub fn is_among_k_closest(&self, key: NodeId, k: usize) -> bool {
        self.state.is_among_k_closest(key, k)
    }

    /// Queues `id` for demotion once the current callback returns: the
    /// overlay evicts it from the leaf set and routing table exactly as
    /// if it had failed (including the gossiped failure notice) and
    /// *shuns* it — the node is never re-admitted into this node's
    /// Pastry state. Used by the audit layer against peers caught
    /// failing a possession proof or serving corrupted content.
    pub fn demote_peer(&mut self, id: NodeId) {
        self.demotions.borrow_mut().push(id);
    }
}

/// A routed message awaiting evidence that its next hop is alive
/// (per-hop lazy repair, see [`PastryConfig::per_hop_acks`]).
struct PendingForward<M> {
    next: NodeEntry,
    sent_at: SimTime,
    key: NodeId,
    /// Hop count the message arrived with (re-forwarding re-runs the
    /// same step).
    hops_in: u32,
    source: NodeEntry,
    msg: M,
}

/// A Pastry overlay node hosting an [`Application`].
pub struct PastryNode<A: Application> {
    cfg: PastryConfig,
    state: PastryState,
    app: A,
    bootstrap: Option<Addr>,
    joined: bool,
    last_heard: IdHashMap<NodeId, SimTime>,
    pending_forwards: IdHashMap<u64, PendingForward<A::Msg>>,
    next_forward_id: u64,
    /// Demotions queued by the application via [`AppCtx::demote_peer`],
    /// applied (eviction + shun) after the callback returns.
    demotions: RefCell<Vec<NodeId>>,
    /// Peers this node refuses to re-admit (failed storage audits).
    shunned: std::collections::BTreeSet<NodeId>,
    /// Crashed under `warm_restart` and not yet recovered: the next
    /// recovery rebuilds from the state the node kept.
    crashed: bool,
    /// Recoveries that rebuilt from the kept state.
    restarts_warm: u64,
    /// Recoveries that rejoined cold (warm restarts off, or no crash
    /// since the last recovery).
    restarts_cold: u64,
}

impl<A: Application> PastryNode<A> {
    /// Creates a node. `bootstrap` is the address of a nearby existing
    /// node (`None` for the first node of a new overlay).
    pub fn new(cfg: PastryConfig, own: NodeEntry, app: A, bootstrap: Option<Addr>) -> Self {
        cfg.validate();
        PastryNode {
            state: PastryState::new(own, &cfg),
            cfg,
            app,
            bootstrap,
            joined: false,
            last_heard: IdHashMap::default(),
            pending_forwards: IdHashMap::default(),
            next_forward_id: 0,
            demotions: RefCell::new(Vec::new()),
            shunned: std::collections::BTreeSet::new(),
            crashed: false,
            restarts_warm: 0,
            restarts_cold: 0,
        }
    }

    /// Read access to the Pastry state.
    pub fn state(&self) -> &PastryState {
        &self.state
    }

    /// Read access to the hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the hosted application (harness/test setup).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Whether the node completed its join.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// This node's identity.
    pub fn own(&self) -> NodeEntry {
        self.state.own()
    }

    /// `(warm, cold)` recovery counts for this node.
    pub fn restart_counts(&self) -> (u64, u64) {
        (self.restarts_warm, self.restarts_cold)
    }

    /// Runs `f` against the hosted application with a full [`AppCtx`].
    /// This is the entry point for harness-initiated operations (e.g. a
    /// PAST client issuing an insert), used with the simulator's `invoke`.
    pub fn invoke_app<F>(&mut self, ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>, f: F)
    where
        F: FnOnce(&mut A, &mut AppCtx<'_, '_, A::Msg, A::Upcall>),
    {
        let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
        f(&mut self.app, &mut app_ctx);
        self.drain_demotions(ctx);
    }

    /// Peers this node shuns (failed storage audits or corrupted
    /// serving). Shunned peers are never re-admitted to the leaf set,
    /// routing table or neighborhood set.
    pub fn shunned(&self) -> &std::collections::BTreeSet<NodeId> {
        &self.shunned
    }

    fn app_ctx<'a, 'b>(
        state: &'a PastryState,
        cfg: &'a PastryConfig,
        demotions: &'a RefCell<Vec<NodeId>>,
        net: &'a mut Ctx<'b, Envelope<A::Msg>, A::Upcall>,
    ) -> AppCtx<'a, 'b, A::Msg, A::Upcall> {
        AppCtx {
            state,
            cfg,
            demotions,
            net,
        }
    }

    /// Applies demotions the application queued during its callbacks:
    /// each demoted peer is shunned and evicted through the normal
    /// failure path (leaf-set repair, failure-notice gossip, the app's
    /// `on_neighbor_removed`). Loops because the eviction callbacks can
    /// themselves queue further demotions.
    fn drain_demotions(&mut self, ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>) {
        // Runs after every message and timer; only a failed audit ever
        // queues anything.
        while !self.demotions.borrow().is_empty() {
            let batch: Vec<NodeId> = std::mem::take(&mut *self.demotions.borrow_mut());
            for id in batch {
                if id == self.state.own().id || !self.shunned.insert(id) {
                    continue;
                }
                past_obs::counter("pastry.peer.shunned", 1);
                self.handle_failure(ctx, id, true);
            }
        }
    }

    #[inline]
    fn send(
        &self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        to: Addr,
        body: Body<A::Msg>,
    ) {
        ctx.send(
            to,
            Envelope {
                sender: self.state.own(),
                body,
            },
        );
    }

    /// Records contact with a node, updating Pastry state and firing the
    /// application's neighbor callbacks on leaf-set changes.
    fn note_node(
        &mut self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        entry: NodeEntry,
        update_heard: bool,
    ) {
        if entry.id == self.state.own().id {
            return;
        }
        // A shunned peer (failed storage audit) never re-enters this
        // node's Pastry state, no matter who vouches for it.
        if !self.shunned.is_empty() && self.shunned.contains(&entry.id) {
            return;
        }
        // `last_heard` has exactly two readers — the keep-alive sweep and
        // the forward-ack check — both disabled in static-overlay replay
        // configs, so the per-message timestamp write would be pure
        // overhead there.
        if self.cfg.keep_alive_period.micros() > 0 || self.cfg.per_hop_acks {
            if update_heard {
                self.last_heard.insert(entry.id, ctx.now());
            } else {
                // Hearsay is not proof of liveness, but it must start the
                // liveness clock: a default of time zero would let the first
                // keep-alive sweep declare a freshly learned node failed
                // without ever probing it.
                self.last_heard.entry(entry.id).or_insert_with(|| ctx.now());
            }
        }
        let change = self
            .state
            .on_sender_seen(entry, || ctx.proximity(entry.addr));
        if change == LeafChange::Added {
            let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
            self.app.on_neighbor_added(&mut app_ctx, entry);
        }
    }

    /// Marks a node failed, repairing the leaf set and informing the app.
    fn handle_failure(
        &mut self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        failed: NodeId,
        notify_leaf: bool,
    ) {
        self.last_heard.remove(&failed);
        let was_member = self.state.leaf_set().contains(failed);
        let entry = self
            .state
            .leaf_set()
            .members()
            .find(|e| e.id == failed)
            .copied();
        let change = self.state.on_node_failed(failed);
        if change == LeafChange::Removed {
            if notify_leaf {
                for m in self.state.leaf_set().members() {
                    self.send(ctx, m.addr, Body::FailureNotice { failed });
                }
            }
            // Repair: pull leaf sets from the current extremes so the gap
            // left by the failed node is refilled.
            let (ccw, cw) = self.state.leaf_set().extremes();
            for e in [ccw, cw].into_iter().flatten() {
                self.send(ctx, e.addr, Body::LeafSetRequest);
            }
            if let Some(entry) = entry {
                let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
                self.app.on_neighbor_removed(&mut app_ctx, entry);
            }
        }
        debug_assert!(was_member == (change == LeafChange::Removed));
    }

    fn handle_route(
        &mut self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        key: NodeId,
        hops: u32,
        source: NodeEntry,
        mut msg: A::Msg,
    ) {
        let (hop, class) = self.state.next_hop_explained(
            key,
            self.cfg.randomized_routing,
            BEST_HOP_BIAS,
            Some(ctx.rng()),
        );
        past_obs::counter(class.metric_name(), 1);
        match hop {
            NextHop::Local => {
                past_obs::counter("pastry.delivered", 1);
                past_obs::observe("pastry.route.hops", hops as u64);
                let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
                self.app.deliver(&mut app_ctx, key, msg, hops, source);
            }
            NextHop::Forward(next) => {
                let keep_going = {
                    let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
                    self.app.forward(&mut app_ctx, key, &mut msg, hops, source)
                };
                if keep_going {
                    if self.cfg.per_hop_acks {
                        // Lazy repair: probe the next hop; if it stays
                        // silent past the timeout, presume it failed and
                        // re-route around it.
                        let id = self.next_forward_id;
                        self.next_forward_id += 1;
                        self.pending_forwards.insert(
                            id,
                            PendingForward {
                                next,
                                sent_at: ctx.now(),
                                key,
                                hops_in: hops,
                                source,
                                msg: msg.clone(),
                            },
                        );
                        ctx.set_timer(FORWARD_ACK_TIMEOUT, FWD_TOKEN_BASE + id);
                        self.send(ctx, next.addr, Body::Ping);
                    }
                    self.send(
                        ctx,
                        next.addr,
                        Body::Route {
                            key,
                            hops: hops + 1,
                            source,
                            msg,
                        },
                    );
                }
            }
        }
    }

    /// A forward-ack timer fired: if the next hop has been silent since
    /// the forward, presume it failed (lazy routing-table repair) and
    /// re-route the message.
    fn check_pending_forward(&mut self, ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>, id: u64) {
        let pf = match self.pending_forwards.remove(&id) {
            Some(pf) => pf,
            None => return,
        };
        let heard = self
            .last_heard
            .get(&pf.next.id)
            .copied()
            .unwrap_or(SimTime::ZERO);
        if heard >= pf.sent_at {
            return; // The hop answered (Pong or any traffic): delivered.
        }
        self.handle_failure(ctx, pf.next.id, true);
        // Route around the failed hop. The failed node is gone from this
        // node's state, so next_hop picks an alternative (or delivers
        // locally if none remains).
        self.handle_route(ctx, pf.key, pf.hops_in, pf.source, pf.msg);
    }

    fn handle_join_request(
        &mut self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        joiner: NodeEntry,
        mut rows: Vec<(u32, Vec<Option<RouteCell>>)>,
        mut path: Vec<NodeEntry>,
    ) {
        // First node contacted additionally ships its neighborhood set
        // ("X obtains ... the neighborhood set from A").
        if path.is_empty() {
            let members: Vec<NodeEntry> = self
                .state
                .neighborhood()
                .members()
                .map(|n| n.entry)
                .collect();
            self.send(ctx, joiner.addr, Body::NeighborhoodReply { members });
        }
        // Contribute the routing-table row matching the current prefix
        // overlap ("the ith row of the routing table from the ith node
        // encountered along the route from A to Z").
        let row_idx = self.state.own().id.shared_prefix_digits(joiner.id, B);
        let row_idx = row_idx.min(self.state.routing_table().row_count() as u32 - 1);
        rows.push((row_idx, self.state.routing_table().row(row_idx as usize)));
        path.push(self.state.own());
        let hop = self
            .state
            .next_hop(joiner.id, false, 1.0, None);
        match hop {
            NextHop::Forward(next) if next.id != joiner.id => {
                self.send(ctx, next.addr, Body::JoinRequest { joiner, rows, path });
            }
            _ => {
                // This node is Z, the numerically closest: reply with the
                // leaf set and everything collected.
                let leaf: Vec<NodeEntry> = self.state.leaf_set().members().copied().collect();
                self.send(ctx, joiner.addr, Body::JoinReply { leaf, rows, path });
            }
        }
    }

    fn handle_join_reply(
        &mut self,
        ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>,
        z: NodeEntry,
        leaf: Vec<NodeEntry>,
        rows: Vec<(u32, Vec<Option<RouteCell>>)>,
        path: Vec<NodeEntry>,
    ) {
        for entry in leaf
            .into_iter()
            .chain(path)
            .chain(std::iter::once(z))
            .chain(
                rows.into_iter()
                    .flat_map(|(_, row)| row.into_iter().flatten().map(|c| c.entry)),
            )
        {
            self.note_node(ctx, entry, false);
        }
        if !self.joined {
            self.joined = true;
            // Announce arrival to every node that needs to know.
            let known = self.state.known_nodes();
            for n in &known {
                self.send(ctx, n.addr, Body::Announce);
            }
            let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
            self.app.on_joined(&mut app_ctx);
        }
    }

    /// Warm recovery from the state the node kept across the crash:
    /// reset the Pastry state and re-feed every remembered leaf,
    /// routing and neighborhood entry through the normal observation
    /// path (`on_node_seen`), so the rebuilt structures pass the same
    /// invariant checks live traffic would. Then probe a bounded number
    /// of leaf-set members, lowest id first, instead of the whole leaf
    /// set.
    fn restart_warm(&mut self, ctx: &mut Ctx<'_, Envelope<A::Msg>, A::Upcall>) {
        let now = ctx.now();
        let own = self.state.own();
        let remembered: Vec<NodeEntry> = self
            .state
            .leaf_set()
            .members()
            .copied()
            .chain(self.state.routing_table().entries().map(|c| c.entry))
            .chain(self.state.neighborhood().members().map(|n| n.entry))
            .collect();
        self.state = PastryState::new(own, &self.cfg);
        let track_heard = self.cfg.keep_alive_period.micros() > 0 || self.cfg.per_hop_acks;
        for entry in remembered {
            if entry.id == own.id {
                continue;
            }
            // Fresh proximity measurement, not the kept one: the
            // network may have changed while we were down.
            let proximity = ctx.proximity(entry.addr);
            self.state.on_node_seen(entry, proximity);
            if track_heard {
                // Restart the liveness clock; the probes below and the
                // keep-alive sweep re-verify everyone from here.
                self.last_heard.insert(entry.id, now);
            }
        }
        self.joined = true;
        let mut members: Vec<NodeEntry> = self.state.leaf_set().members().copied().collect();
        members.sort_by_key(|m| m.id);
        for m in members.into_iter().take(RESTART_PROBE_FANOUT) {
            self.send(ctx, m.addr, Body::LeafSetRequest);
            self.send(ctx, m.addr, Body::Announce);
        }
        let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
        self.app.on_restore(&mut app_ctx);
    }
}

impl<A: Application> Protocol for PastryNode<A> {
    type Msg = Envelope<A::Msg>;
    type Upcall = A::Upcall;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>) {
        if self.cfg.keep_alive_period.micros() > 0 {
            ctx.set_timer(self.cfg.keep_alive_period, KEEPALIVE_TOKEN);
        }
        match self.bootstrap {
            Some(contact) => {
                self.send(
                    ctx,
                    contact,
                    Body::JoinRequest {
                        joiner: self.state.own(),
                        rows: Vec::new(),
                        path: Vec::new(),
                    },
                );
            }
            None => {
                self.joined = true;
                let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
                self.app.on_joined(&mut app_ctx);
            }
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        if self.cfg.warm_restart {
            // In-flight forwards die with the process; the rest of the
            // node's state is what it kept, and nothing touches it
            // until it recovers.
            self.pending_forwards.clear();
            self.crashed = true;
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>) {
        if self.cfg.keep_alive_period.micros() > 0 {
            ctx.set_timer(self.cfg.keep_alive_period, KEEPALIVE_TOKEN);
        }
        if self.cfg.warm_restart {
            if std::mem::take(&mut self.crashed) {
                self.restarts_warm += 1;
                past_obs::counter("maint.restart.warm", 1);
                self.restart_warm(ctx);
                return;
            }
            past_obs::counter("maint.restart.cold", 1);
        }
        self.restarts_cold += 1;
        // "A recovering node contacts the nodes in its last known leaf
        // set, obtains their current leaf sets, updates its own leaf set
        // and then notifies the members of its new leaf set."
        for m in self.state.leaf_set().members() {
            self.send(ctx, m.addr, Body::LeafSetRequest);
            self.send(ctx, m.addr, Body::Announce);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>, _from: Addr, env: Envelope<A::Msg>) {
        let sender = env.sender;
        // Opportunistically refresh state from the sender identity —
        // except for a join request arriving from the not-yet-joined node
        // itself, which must not enter routing state early.
        let skip_note = matches!(&env.body, Body::JoinRequest { joiner, .. } if joiner.id == sender.id);
        if !skip_note {
            self.note_node(ctx, sender, true);
        }
        match env.body {
            Body::Route {
                key,
                hops,
                source,
                msg,
            } => self.handle_route(ctx, key, hops, source, msg),
            Body::JoinRequest { joiner, rows, path } => {
                self.handle_join_request(ctx, joiner, rows, path)
            }
            Body::JoinReply { leaf, rows, path } => {
                self.handle_join_reply(ctx, sender, leaf, rows, path)
            }
            Body::NeighborhoodReply { members } => {
                for m in members {
                    self.note_node(ctx, m, false);
                }
            }
            Body::Announce => {
                let leaf: Vec<NodeEntry> = self.state.leaf_set().members().copied().collect();
                self.send(ctx, sender.addr, Body::AnnounceAck { leaf });
            }
            Body::AnnounceAck { leaf } => {
                for m in leaf {
                    self.note_node(ctx, m, false);
                }
            }
            Body::Ping => {
                self.send(ctx, sender.addr, Body::Pong);
            }
            // The liveness evidence is the `note_node` above.
            Body::Pong => {}
            Body::LeafSetRequest => {
                let members: Vec<NodeEntry> = self.state.leaf_set().members().copied().collect();
                self.send(ctx, sender.addr, Body::LeafSetReply { members });
            }
            Body::LeafSetReply { members } => {
                for m in members {
                    self.note_node(ctx, m, false);
                }
            }
            Body::FailureNotice { failed } => {
                // Do not cascade: trust the notice, repair locally.
                self.handle_failure(ctx, failed, false);
            }
            Body::App(msg) => {
                let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
                self.app.on_app_message(&mut app_ctx, sender, msg);
            }
        }
        self.drain_demotions(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Upcall>, token: u64) {
        if token >= APP_TOKEN_BASE {
            let mut app_ctx = Self::app_ctx(&self.state, &self.cfg, &self.demotions, ctx);
            self.app.on_app_timer(&mut app_ctx, token - APP_TOKEN_BASE);
            self.drain_demotions(ctx);
            return;
        }
        if token >= FWD_TOKEN_BASE {
            self.check_pending_forward(ctx, token - FWD_TOKEN_BASE);
            return;
        }
        debug_assert_eq!(token, KEEPALIVE_TOKEN);
        let now = ctx.now();
        // By position, not over a copy of the set: declaring a member
        // failed removes it, which moves the next one into its place.
        let mut i = 0;
        while let Some(m) = self.state.leaf_set().member(i) {
            let heard = self.last_heard.get(&m.id).copied().unwrap_or(SimTime::ZERO);
            if now - heard >= self.cfg.failure_timeout {
                self.handle_failure(ctx, m.id, true);
                debug_assert!(!self.state.leaf_set().contains(m.id));
                continue;
            }
            if now - heard >= self.cfg.keep_alive_period {
                self.send(ctx, m.addr, Body::Ping);
            }
            i += 1;
        }
        if self.cfg.keep_alive_period.micros() > 0 {
            ctx.set_timer(self.cfg.keep_alive_period, KEEPALIVE_TOKEN);
        }
    }
}
