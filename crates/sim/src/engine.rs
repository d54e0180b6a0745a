//! Engine selection: one overlay, two simulation backends.
//!
//! [`Engine`] dispatches the harness-facing simulator API to either the
//! legacy `past_net::Simulator` (the default, `shards = 0` —
//! bit-for-bit the behavior every golden test pins) or the sharded
//! `past_net::ShardedSim` (`shards ≥ 1`, whose
//! results are invariant across shard counts but keyed by a different
//! event order than the legacy engine).

use past_core::{PastEvent, PastOverlayNode};
use past_net::{Addr, FaultPlan, NetStats, ShardedSim, SimDuration, SimTime, Simulator, Topology};

/// A simulation backend driving the PAST overlay.
// One Engine exists per harness and it never moves after construction,
// so the size asymmetry between the variants costs nothing; boxing the
// large one would add an indirection to every dispatched call instead.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    /// The single-threaded event-queue engine.
    Single(Simulator<PastOverlayNode>),
    /// The sharded conservative-lookahead engine.
    Sharded(ShardedSim<PastOverlayNode>),
}

impl Engine {
    /// Builds the engine selected by `shards` (0 = legacy single).
    pub fn build(topology: Box<dyn Topology>, seed: u64, shards: usize) -> Self {
        if shards == 0 {
            Engine::Single(Simulator::new(topology, seed))
        } else {
            Engine::Sharded(ShardedSim::new(topology, seed, shards))
        }
    }

    pub fn reserve_capacity(&mut self, events: usize, upcalls: usize) {
        match self {
            Engine::Single(s) => s.reserve_capacity(events, upcalls),
            Engine::Sharded(s) => s.reserve_capacity(events, upcalls),
        }
    }

    pub fn add_node(&mut self, addr: Addr, proto: PastOverlayNode) {
        match self {
            Engine::Single(s) => s.add_node(addr, proto),
            Engine::Sharded(s) => s.add_node(addr, proto),
        }
    }

    pub fn invoke<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(
            &mut PastOverlayNode,
            &mut past_net::Ctx<
                '_,
                <PastOverlayNode as past_net::Protocol>::Msg,
                <PastOverlayNode as past_net::Protocol>::Upcall,
            >,
        ),
    {
        match self {
            Engine::Single(s) => s.invoke(addr, f),
            Engine::Sharded(s) => s.invoke(addr, f),
        }
    }

    pub fn run_until_idle(&mut self) {
        match self {
            Engine::Single(s) => s.run_until_idle(),
            Engine::Sharded(s) => s.run_until_idle(),
        }
    }

    pub fn run_for(&mut self, span: SimDuration) {
        match self {
            Engine::Single(s) => s.run_for(span),
            Engine::Sharded(s) => s.run_for(span),
        }
    }

    pub fn run_until(&mut self, deadline: SimTime) {
        match self {
            Engine::Single(s) => s.run_until(deadline),
            Engine::Sharded(s) => s.run_until(deadline),
        }
    }

    pub fn now(&self) -> SimTime {
        match self {
            Engine::Single(s) => s.now(),
            Engine::Sharded(s) => s.now(),
        }
    }

    pub fn stats(&self) -> NetStats {
        match self {
            Engine::Single(s) => s.stats(),
            Engine::Sharded(s) => s.stats(),
        }
    }

    pub fn queue_len(&self) -> usize {
        match self {
            Engine::Single(s) => s.queue_len(),
            Engine::Sharded(s) => s.queue_len(),
        }
    }

    pub fn drain_upcalls_into(&mut self, buf: &mut Vec<(SimTime, Addr, PastEvent)>) {
        match self {
            Engine::Single(s) => s.drain_upcalls_into(buf),
            Engine::Sharded(s) => s.drain_upcalls_into(buf),
        }
    }

    pub fn discard_upcalls(&mut self) {
        match self {
            Engine::Single(s) => s.discard_upcalls(),
            Engine::Sharded(s) => s.discard_upcalls(),
        }
    }

    pub fn node(&self, addr: Addr) -> Option<&PastOverlayNode> {
        match self {
            Engine::Single(s) => s.node(addr),
            Engine::Sharded(s) => s.node(addr),
        }
    }

    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut PastOverlayNode> {
        match self {
            Engine::Single(s) => s.node_mut(addr),
            Engine::Sharded(s) => s.node_mut(addr),
        }
    }

    pub fn is_up(&self, addr: Addr) -> bool {
        match self {
            Engine::Single(s) => s.is_up(addr),
            Engine::Sharded(s) => s.is_up(addr),
        }
    }

    /// Live addresses, in address order under both engines.
    pub fn live_addrs(&self) -> std::vec::IntoIter<Addr> {
        match self {
            Engine::Single(s) => s.live_addrs().collect::<Vec<_>>().into_iter(),
            Engine::Sharded(s) => s.live_addrs().into_iter(),
        }
    }

    pub fn fail_node(&mut self, addr: Addr) {
        match self {
            Engine::Single(s) => s.fail_node(addr),
            Engine::Sharded(s) => s.fail_node(addr),
        }
    }

    /// Removes a node for good, returning its state.
    pub fn remove_node(&mut self, addr: Addr) -> Option<PastOverlayNode> {
        match self {
            Engine::Single(s) => s.remove_node(addr),
            Engine::Sharded(s) => s.remove_node(addr),
        }
    }

    pub fn recover_node(&mut self, addr: Addr) {
        match self {
            Engine::Single(s) => s.recover_node(addr),
            Engine::Sharded(s) => s.recover_node(addr),
        }
    }

    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        match self {
            Engine::Single(s) => s.set_fault_plan(plan),
            Engine::Sharded(s) => s.set_fault_plan(plan),
        }
    }

    pub fn set_loss_probability(&mut self, p: f64) {
        match self {
            Engine::Single(s) => s.set_loss_probability(p),
            Engine::Sharded(s) => s.set_loss_probability(p),
        }
    }

    /// Folds per-shard observability fragments into the recorder
    /// installed on this thread. Must run before every metrics snapshot
    /// under the sharded engine; a no-op under the legacy engine (which
    /// records straight into the installed recorder).
    pub fn sync_obs(&mut self) {
        match self {
            Engine::Single(_) => {}
            Engine::Sharded(s) => s.sync_obs(),
        }
    }
}
