//! The sharded multi-core simulation engine.
//!
//! [`ShardedSim`] partitions the emulated world round-robin across
//! `shards` event cores (node `a` lives on shard `a % shards`), each
//! under the shard order of [`crate::shard`]: its own event heap,
//! per-node RNG streams and fault sub-schedule. Shards advance in
//! parallel under **conservative lookahead**: with `L =
//! topology.min_latency()`, every message sent at time `t` arrives no
//! earlier than `t + L`, so all shards can process the window `[T, T +
//! L)` independently — any message one shard sends another inside the
//! window lands in a *later* window. The windows, the barrier and the
//! upcall merge are this module's; everything a shard does inside a
//! window is the event core's, shared with [`crate::Simulator`]. At
//! each window barrier the coordinator exchanges cross-shard sends and
//! picks the next window start as the earliest pending timestamp
//! anywhere.
//!
//! # Determinism
//!
//! The same seed produces the same execution at *any* shard count —
//! including byte-identical metrics reports — because nothing a node
//! observes depends on the partitioning:
//!
//! - events are totally ordered by the shard-invariant key
//!   `(arrival, sent, source, source-seq)` (see [`crate::shard`]);
//! - every random draw comes from a per-node stream seeded by
//!   `(master seed, address)`, with loss drawn by the destination and
//!   jitter by the source;
//! - upcalls and observability fragments are merged in that same
//!   deterministic order at the barrier.
//!
//! Worker threads are purely an execution detail: windows are handed to
//! a small thread pool when the host has spare cores and run inline on
//! the coordinator thread otherwise, with identical results by
//! construction. `PAST_SHARD_THREADS` overrides the pool size (0 forces
//! inline execution).

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::addr::Addr;
use crate::fault::FaultPlan;
use crate::proto::{Ctx, NetStats, Protocol};
use crate::shard::{ShardCore, ShardOrder};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

struct Job<P: Protocol> {
    idx: usize,
    core: ShardCore<P>,
    last: SimTime,
}

/// A window-granular worker pool: the coordinator moves whole shard
/// cores through channels (no shared mutable state, no unsafe), workers
/// run one window and send the core back.
struct WorkerPool<P: Protocol> {
    job_tx: Option<Sender<Job<P>>>,
    jobs: Arc<Mutex<Receiver<Job<P>>>>,
    done_rx: Receiver<(usize, ShardCore<P>)>,
    handles: Vec<JoinHandle<()>>,
}

impl<P> WorkerPool<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Upcall: Send + 'static,
{
    fn spawn(workers: usize) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job<P>>();
        let jobs = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                let done = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("past-shard-{i}"))
                    .spawn(move || loop {
                        // The guard drops as soon as recv returns, so a
                        // worker only holds the lock while the queue is
                        // empty — which is exactly when there is
                        // nothing for anyone else to take.
                        let job = {
                            let guard = jobs.lock().expect("job queue lock");
                            guard.recv()
                        };
                        match job {
                            Ok(mut job) => {
                                run_window(&mut job.core, job.last);
                                if done.send((job.idx, job.core)).is_err() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn shard worker thread")
            })
            .collect();
        WorkerPool {
            job_tx: Some(job_tx),
            jobs,
            done_rx,
            handles,
        }
    }

    /// Grabs a queued job without blocking (the coordinator helps drain
    /// the queue while waiting). `try_lock` keeps this deadlock-free: a
    /// worker parked in `recv` holds the lock, but only when the queue
    /// is already empty.
    fn try_steal(&self) -> Option<Job<P>> {
        match self.jobs.try_lock() {
            Ok(guard) => guard.try_recv().ok(),
            Err(_) => None,
        }
    }
}

impl<P: Protocol> Drop for WorkerPool<P> {
    fn drop(&mut self) {
        self.job_tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Processes one window of a shard, through `last` inclusive, with the
/// shard's fragment recorder in place (protocol instrumentation reaches
/// the right recorder on any thread).
fn run_window<P: Protocol>(core: &mut ShardCore<P>, last: SimTime) {
    core.recording(|c| c.run_through(last));
}

/// The sharded discrete-event simulator: a drop-in counterpart to
/// [`crate::Simulator`] that partitions nodes across shards and runs
/// them under conservative lookahead.
///
/// # Panics
///
/// Construction panics if the topology's
/// [`min_latency`](Topology::min_latency) is zero — a zero lower bound
/// leaves no lookahead window, so such topologies must run on the
/// single-threaded engine.
pub struct ShardedSim<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Upcall: Send + 'static,
{
    /// `None` only transiently, while a core is out on a worker thread.
    cores: Vec<Option<ShardCore<P>>>,
    shards: usize,
    lookahead: SimDuration,
    time: SimTime,
    worker_threads: usize,
    pool: Option<WorkerPool<P>>,
    upcall_buf: Vec<(SimTime, Addr, P::Upcall)>,
}

impl<P> ShardedSim<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Upcall: Send + 'static,
{
    /// Creates a sharded simulator over `topology` with `shards` shards
    /// and deterministic per-node randomness derived from `seed`.
    pub fn new(topology: Box<dyn Topology>, seed: u64, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        let lookahead = topology.min_latency();
        assert!(
            lookahead > SimDuration::ZERO,
            "ShardedSim requires a topology with a positive min_latency(): \
             conservative lookahead needs a nonzero lower bound on link \
             latency. Override Topology::min_latency() for this topology, \
             or use the single-threaded Simulator."
        );
        let topology: Arc<dyn Topology> = Arc::from(topology);
        let cores = (0..shards)
            .map(|shard| {
                let order = ShardOrder {
                    shard,
                    shards,
                    master_seed: seed,
                };
                Some(ShardCore::new(order, Arc::clone(&topology)))
            })
            .collect();
        ShardedSim {
            cores,
            shards,
            lookahead,
            time: SimTime::ZERO,
            worker_threads: default_worker_threads(shards),
            pool: None,
            upcall_buf: Vec::new(),
        }
    }

    /// Overrides the worker-thread count (0 forces inline execution on
    /// the coordinator thread; results are identical either way). Also
    /// settable via the `PAST_SHARD_THREADS` environment variable.
    pub fn set_worker_threads(&mut self, n: usize) {
        let n = n.min(self.shards.saturating_sub(1));
        if n != self.worker_threads {
            self.worker_threads = n;
            // Joins the old pool; a right-sized one respawns lazily.
            self.pool = None;
        }
    }

    fn cores_mut(&mut self) -> impl Iterator<Item = &mut ShardCore<P>> {
        self.cores.iter_mut().flatten()
    }

    fn core(&self, addr: Addr) -> &ShardCore<P> {
        self.cores[addr.index() % self.shards]
            .as_ref()
            .expect("core present between windows")
    }

    fn core_mut(&mut self, addr: Addr) -> &mut ShardCore<P> {
        self.cores[addr.index() % self.shards]
            .as_mut()
            .expect("core present between windows")
    }

    /// Pre-sizes the event heaps and upcall buffers (split evenly
    /// across shards).
    pub fn reserve_capacity(&mut self, events: usize, upcalls: usize) {
        let per = events / self.shards + 1;
        let per_up = upcalls / self.shards + 1;
        for c in self.cores_mut() {
            c.reserve(per, per_up);
        }
    }

    /// Global i.i.d. message-loss probability (drawn from the
    /// destination node's RNG stream).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        for c in self.cores_mut() {
            c.set_loss_probability(p);
        }
    }

    /// Installs a fault plan: each shard keeps the crash/recover entries
    /// of its own nodes; partitions, link loss and jitter are shared.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        for c in self.cores_mut() {
            c.set_fault_plan(Arc::clone(&plan));
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Aggregated network counters (each field sums across shards; see
    /// [`NetStats::queue_peak`] for its caveat).
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats::default();
        for c in self.cores.iter().flatten() {
            s.merge_from(&c.stats());
        }
        s
    }

    /// Adds a node and runs its `on_start` handler.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds the topology capacity or is occupied.
    pub fn add_node(&mut self, addr: Addr, proto: P) {
        self.core_mut(addr).add_node(addr, proto);
    }

    /// Whether a node exists and is up.
    pub fn is_up(&self, addr: Addr) -> bool {
        self.core(addr).is_up(addr)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, addr: Addr) -> Option<&P> {
        self.core(addr).node(addr)
    }

    /// Mutable access to a node's protocol state.
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.core_mut(addr).node_mut(addr)
    }

    /// All live addresses, in address order.
    pub fn live_addrs(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self
            .cores
            .iter()
            .flatten()
            .flat_map(|c| c.live_addrs())
            .collect();
        v.sort_unstable();
        v
    }

    /// Marks a node as failed (state retained; messages and timers to
    /// it are dropped).
    pub fn fail_node(&mut self, addr: Addr) {
        self.core_mut(addr).fail_node(addr);
    }

    /// Brings a failed node back up and runs its `on_recover` handler.
    ///
    /// # Panics
    ///
    /// Panics if no node state exists at `addr`.
    pub fn recover_node(&mut self, addr: Addr) {
        self.ensure_obs_fragments();
        self.core_mut(addr).recording(|c| c.recover_node(addr));
    }

    /// Removes a node entirely, returning its protocol state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<P> {
        self.core_mut(addr).remove_node(addr)
    }

    /// Runs `f` against a live node right now (the entry point for
    /// workload injection).
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or down.
    pub fn invoke<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Upcall>),
    {
        self.ensure_obs_fragments();
        self.core_mut(addr).recording(|c| c.invoke(addr, f));
    }

    /// Takes all pending upcalls in deterministic order: by time, then
    /// address, then per-node emission order.
    pub fn drain_upcalls(&mut self) -> Vec<(SimTime, Addr, P::Upcall)> {
        let mut out = Vec::new();
        self.drain_upcalls_into(&mut out);
        out
    }

    /// Like [`ShardedSim::drain_upcalls`], appending into `buf`.
    pub fn drain_upcalls_into(&mut self, buf: &mut Vec<(SimTime, Addr, P::Upcall)>) {
        let mut merged = std::mem::take(&mut self.upcall_buf);
        for c in self.cores_mut() {
            merged.append(&mut c.upcalls);
        }
        // A node's upcalls all sit in its own shard's buffer, in
        // emission order, so a stable sort by (time, address) puts them
        // in per-node emission order.
        merged.sort_by_key(|&(t, a, _)| (t, a));
        buf.append(&mut merged);
        self.upcall_buf = merged;
    }

    /// Discards all pending upcalls.
    pub fn discard_upcalls(&mut self) {
        for c in self.cores_mut() {
            c.upcalls.clear();
        }
    }

    /// Total queued events across all shards.
    pub fn queue_len(&self) -> usize {
        self.cores.iter().flatten().map(|c| c.queue_len()).sum()
    }

    /// Runs until no events or scheduled faults remain anywhere.
    pub fn run_until_idle(&mut self) {
        self.run_windows(None);
        self.sync_clocks();
    }

    /// Runs every event and fault with timestamp `<= deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_windows(Some(deadline));
        self.time = self.time.max(deadline);
        self.sync_clocks();
    }

    /// Runs for a span of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.time + span);
    }

    /// Folds every shard's observability fragment into the recorder
    /// installed on the calling thread and finalizes completed spans.
    /// Call before reading metrics snapshots; a no-op when metrics are
    /// off.
    pub fn sync_obs(&mut self) {
        if !past_obs::is_enabled() {
            return;
        }
        let cores = &mut self.cores;
        past_obs::with_recorder(|primary| {
            for c in cores.iter_mut().flatten() {
                if let Some(rec) = c.recorder.as_mut() {
                    primary.absorb(rec);
                }
            }
            primary.finalize_completed_spans();
        });
    }

    /// The main loop: pick the earliest pending timestamp anywhere,
    /// execute one lookahead window on every shard, exchange
    /// cross-shard messages, repeat.
    fn run_windows(&mut self, deadline: Option<SimTime>) {
        self.ensure_obs_fragments();
        // Injection between runs (add_node/invoke) may have deposited
        // cross-shard sends; route them before looking for work.
        self.exchange();
        loop {
            let next = self
                .cores
                .iter()
                .flatten()
                .filter_map(|c| c.next_ts())
                .min();
            let Some(t) = next else { break };
            if deadline.is_some_and(|d| t > d) {
                break;
            }
            // The window is `[t, t + L)`, cut at the deadline.
            let last = SimTime(t.0 + self.lookahead.0 - 1);
            self.execute_window(deadline.map_or(last, |d| last.min(d)));
            self.exchange();
        }
    }

    /// Runs every shard through `last` — on the worker pool when one is
    /// configured, inline otherwise. Identical results either way.
    fn execute_window(&mut self, last: SimTime) {
        if self.worker_threads == 0 {
            for c in self.cores_mut() {
                run_window(c, last);
            }
            return;
        }
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::spawn(self.worker_threads));
        }
        let pool = self.pool.take().expect("pool just ensured");
        let mut pending = 0usize;
        for i in 1..self.shards {
            let core = self.cores[i].take().expect("core present");
            pool.job_tx
                .as_ref()
                .expect("job channel open")
                .send(Job { idx: i, core, last })
                .expect("worker pool alive");
            pending += 1;
        }
        // Shard 0 always runs on the coordinator thread…
        run_window(self.cores[0].as_mut().expect("core present"), last);
        // …which then helps drain the queue when workers are
        // oversubscribed.
        while let Some(mut job) = pool.try_steal() {
            run_window(&mut job.core, job.last);
            self.cores[job.idx] = Some(job.core);
            pending -= 1;
        }
        while pending > 0 {
            let (idx, core) = pool.done_rx.recv().expect("worker returned core");
            self.cores[idx] = Some(core);
            pending -= 1;
        }
        self.pool = Some(pool);
    }

    /// The barrier exchange: every shard takes what every other sent it
    /// during the window. Heap order is shard-invariant, so routing
    /// order does not matter.
    fn exchange(&mut self) {
        for d in 0..self.shards {
            let (before, rest) = self.cores.split_at_mut(d);
            let (to, after) = rest.split_first_mut().expect("d < shards");
            let to = to.as_mut().expect("core present");
            for from in before.iter_mut().chain(after).flatten() {
                to.receive(from);
            }
        }
    }

    /// Gives every shard a fragment recorder when metrics are on, so
    /// instrumentation lands in a mergeable per-shard registry no
    /// matter which thread runs the window.
    fn ensure_obs_fragments(&mut self) {
        if !past_obs::is_enabled() {
            return;
        }
        for c in self.cores_mut() {
            c.recorder.get_or_insert_with(past_obs::Recorder::fragment);
        }
    }

    /// Brings the clock to the latest shard's and every shard's clock to
    /// it, so the next injection dispatches at a consistent `now`.
    fn sync_clocks(&mut self) {
        let t = self.cores.iter().flatten().map(|c| c.now()).fold(self.time, SimTime::max);
        self.time = t;
        for c in self.cores_mut() {
            c.advance_to(t);
        }
    }
}

/// Default pool size: one thread per shard beyond the first, capped by
/// the machine's available parallelism (0 on a single-core host —
/// inline execution, no thread overhead). `PAST_SHARD_THREADS`
/// overrides.
fn default_worker_threads(shards: usize) -> usize {
    if let Ok(v) = std::env::var("PAST_SHARD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.min(shards.saturating_sub(1));
        }
    }
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    avail.min(shards).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::topology::{EuclideanTopology, Topology, UniformTopology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn euclid(n: usize, seed: u64) -> EuclideanTopology {
        EuclideanTopology::random(n, &mut StdRng::seed_from_u64(seed))
    }

    /// A gossip protocol exercising sends, timers, upcalls and RNG:
    /// every node pings a few pseudo-random peers on start; each ping
    /// is re-forwarded while its TTL lasts; pongs bump a counter and
    /// emit an upcall.
    struct Gossip {
        n: u32,
        pongs: u64,
        fanout: u32,
    }

    #[derive(Clone)]
    enum Msg {
        Ping { ttl: u8 },
        Pong,
    }

    impl Protocol for Gossip {
        type Msg = Msg;
        type Upcall = (Addr, u64);

        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>) {
            for _ in 0..self.fanout {
                let dst = Addr(ctx.rng().gen_range(0..self.n));
                ctx.send(dst, Msg::Ping { ttl: 3 });
            }
            if self.fanout > 0 {
                ctx.set_timer(SimDuration::from_millis(40), 1);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>, from: Addr, msg: Msg) {
            match msg {
                Msg::Ping { ttl } => {
                    ctx.send(from, Msg::Pong);
                    if ttl > 0 {
                        let dst = Addr(ctx.rng().gen_range(0..self.n));
                        ctx.send(dst, Msg::Ping { ttl: ttl - 1 });
                    }
                }
                Msg::Pong => {
                    self.pongs += 1;
                    if self.pongs.is_multiple_of(5) {
                        let me = ctx.addr();
                        let pongs = self.pongs;
                        ctx.emit((me, pongs));
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, (Addr, u64)>, _token: u64) {
            let dst = Addr(ctx.rng().gen_range(0..self.n));
            ctx.send(dst, Msg::Ping { ttl: 1 });
        }
    }

    fn build(n: u32, shards: usize, threads: Option<usize>) -> ShardedSim<Gossip> {
        let topo = euclid(n as usize, 99);
        let mut sim = ShardedSim::new(Box::new(topo), 42, shards);
        if let Some(t) = threads {
            sim.set_worker_threads(t);
        }
        for a in 0..n {
            sim.add_node(
                Addr(a),
                Gossip {
                    n,
                    pongs: 0,
                    fanout: 2,
                },
            );
        }
        sim
    }

    fn fingerprint(sim: &mut ShardedSim<Gossip>) -> (Vec<u64>, Vec<(u64, u32, u64)>, NetStats) {
        let pongs: Vec<u64> = (0..sim.live_addrs().len() as u32)
            .map(|a| sim.node(Addr(a)).map(|g| g.pongs).unwrap_or(0))
            .collect();
        let ups: Vec<(u64, u32, u64)> = sim
            .drain_upcalls()
            .into_iter()
            .map(|(t, a, (src, p))| {
                assert_eq!(a, src);
                (t.0, a.0, p)
            })
            .collect();
        (pongs, ups, sim.stats())
    }

    #[test]
    #[should_panic(expected = "positive min_latency")]
    fn zero_latency_topology_rejected() {
        struct Instant(usize);
        impl Topology for Instant {
            fn latency(&self, _: Addr, _: Addr) -> SimDuration {
                SimDuration::ZERO
            }
            fn distance(&self, _: Addr, _: Addr) -> f64 {
                0.0
            }
            fn capacity(&self) -> usize {
                self.0
            }
        }
        let _: ShardedSim<Gossip> = ShardedSim::new(Box::new(Instant(8)), 1, 2);
    }

    #[test]
    fn stats_invariant_across_shard_counts() {
        let mut reference = None;
        for &shards in &[1usize, 2, 4, 8] {
            let mut sim = build(48, shards, Some(0));
            sim.run_until_idle();
            let fp = fingerprint(&mut sim);
            assert!(fp.2.delivered > 0, "workload must exercise the network");
            let probe = (
                fp.0.clone(),
                fp.1.clone(),
                (
                    fp.2.delivered,
                    fp.2.dropped,
                    fp.2.events,
                    fp.2.timers_fired,
                ),
            );
            match &reference {
                None => reference = Some(probe),
                Some(r) => assert_eq!(r, &probe, "divergence at {shards} shards"),
            }
        }
    }

    #[test]
    fn threaded_execution_matches_inline() {
        let run = |threads: usize| {
            let mut sim = build(32, 4, Some(threads));
            sim.run_until_idle();
            fingerprint(&mut sim)
        };
        let (p0, u0, s0) = run(0);
        let (p3, u3, s3) = run(3);
        assert_eq!(p0, p3);
        assert_eq!(u0, u3);
        assert_eq!(s0.delivered, s3.delivered);
        assert_eq!(s0.events, s3.events);
        assert_eq!(s0.timers_fired, s3.timers_fired);
    }

    #[test]
    fn faults_loss_and_jitter_are_shard_invariant() {
        let run = |shards: usize| {
            let n = 40u32;
            let mut sim = build(n, shards, Some(if shards > 1 { 2 } else { 0 }));
            sim.set_loss_probability(0.2);
            let nodes: Vec<Addr> = (1..n).map(Addr).collect();
            let plan = FaultPlan::new()
                .poisson_churn(
                    7,
                    &nodes,
                    SimDuration::from_secs(3),
                    SimDuration::from_secs(1),
                    SimTime::ZERO,
                    SimTime(20_000_000),
                )
                .partition(
                    SimTime(1_000_000),
                    SimTime(2_000_000),
                    vec![Addr(0), Addr(1), Addr(2)],
                )
                .jitter(SimDuration::from_millis(5));
            sim.set_fault_plan(plan);
            sim.run_for(SimDuration::from_secs(30));
            sim.run_until_idle();
            // Idle: every message was delivered, lost, cut off or sent
            // to a crashed node, and each way out freed its slot.
            for core in sim.cores.iter().flatten() {
                let (slots, vacant) = core.parcels_occupancy();
                assert_eq!(slots, vacant, "a dropped message kept its slot");
            }
            let fp = fingerprint(&mut sim);
            let s = fp.2;
            (
                fp.0,
                fp.1,
                (
                    s.delivered,
                    s.dropped,
                    s.lost,
                    s.partition_dropped,
                    s.jittered,
                    s.events,
                    s.timers_fired,
                    s.crashes,
                    s.recoveries,
                ),
            )
        };
        let a = run(1);
        for shards in [2, 4, 8] {
            assert_eq!(a, run(shards), "divergence at {shards} shards");
        }
        assert!(a.2 .2 > 0, "loss must have fired to make the test meaningful");
        assert!(a.2 .3 > 0, "the partition must have cut messages off");
        assert!(a.2 .1 > a.2 .2 + a.2 .3, "messages to crashed nodes too");
        assert!(a.2 .7 > 0, "churn must have fired");
    }

    #[test]
    fn run_until_processes_events_at_exactly_the_deadline() {
        let topo = UniformTopology::new(4, SimDuration::from_millis(10));
        let mut sim: ShardedSim<Gossip> = ShardedSim::new(Box::new(topo), 1, 2);
        for a in 0..4 {
            sim.add_node(
                Addr(a),
                Gossip {
                    n: 4,
                    pongs: 0,
                    fanout: 0,
                },
            );
        }
        sim.discard_upcalls();
        // One ping sent at t=0 arrives at exactly t=10ms.
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Msg::Ping { ttl: 0 }));
        sim.run_until(SimTime(10_000));
        assert_eq!(sim.now(), SimTime(10_000));
        assert_eq!(sim.stats().delivered, 1, "deadline events must process");
        // The pong (t=20ms) is still queued.
        assert_eq!(sim.queue_len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn matches_uniform_topology_intuition_on_single_shard_vs_legacy() {
        // An RNG-free deterministic workload must produce identical
        // counters on the legacy engine and the sharded engine.
        struct Relay {
            hops: u64,
        }
        #[derive(Clone)]
        struct Token(u8);
        impl Protocol for Relay {
            type Msg = Token;
            type Upcall = u64;
            fn on_message(&mut self, ctx: &mut Ctx<'_, Token, u64>, _from: Addr, msg: Token) {
                self.hops += 1;
                if msg.0 > 0 {
                    let next = Addr((ctx.addr().0 + 1) % 6);
                    ctx.send(next, Token(msg.0 - 1));
                } else {
                    let hops = self.hops;
                    ctx.emit(hops);
                }
            }
        }
        let mut legacy = Simulator::new(Box::new(euclid(6, 5)), 9);
        for a in 0..6 {
            legacy.add_node(Addr(a), Relay { hops: 0 });
        }
        legacy.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Token(20)));
        legacy.run_until_idle();

        for shards in [1usize, 3] {
            let mut sharded: ShardedSim<Relay> =
                ShardedSim::new(Box::new(euclid(6, 5)), 9, shards);
            for a in 0..6 {
                sharded.add_node(Addr(a), Relay { hops: 0 });
            }
            sharded.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), Token(20)));
            sharded.run_until_idle();
            assert_eq!(sharded.stats().delivered, legacy.stats().delivered);
            assert_eq!(sharded.stats().events, legacy.stats().events);
            assert_eq!(sharded.now(), legacy.now());
            for a in 0..6 {
                assert_eq!(
                    sharded.node(Addr(a)).unwrap().hops,
                    legacy.node(Addr(a)).unwrap().hops
                );
            }
        }
    }
}
