//! What a harness may do to a node between steps, on both engines.
//!
//! The engines borrow a node in place while its handler runs; between
//! steps the harness still reads it, writes it, fails and recovers it,
//! and takes it out by value, and sees every write a handler made.

use past_net::{Addr, Ctx, Protocol, ShardedSim, SimDuration, SimTime, Simulator, UniformTopology};

/// Counts what reaches it and remembers its lifecycle hooks.
#[derive(Debug, Default, PartialEq)]
struct Probe {
    seen: u32,
    starts: u32,
    recovers: u32,
    crashed_at: Vec<SimTime>,
}

impl Protocol for Probe {
    type Msg = u32;
    type Upcall = (u32, u32);

    fn on_start(&mut self, _ctx: &mut Ctx<'_, u32, (u32, u32)>) {
        self.starts += 1;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, (u32, u32)>, _from: Addr, msg: u32) {
        self.seen += msg;
        ctx.emit((ctx.addr().0, self.seen));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.crashed_at.push(now);
    }

    fn on_recover(&mut self, _ctx: &mut Ctx<'_, u32, (u32, u32)>) {
        self.recovers += 1;
    }
}

fn topology() -> Box<UniformTopology> {
    Box::new(UniformTopology::new(4, SimDuration::from_millis(5)))
}

/// The same script against either engine (they share no trait).
macro_rules! harness_script {
    ($sim:expr) => {{
        let mut sim = $sim;
        for a in 0..3 {
            sim.add_node(Addr(a), Probe::default());
        }
        assert_eq!(sim.node(Addr(1)).unwrap().starts, 1);

        // A handler's write is visible in place after the step...
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), 1));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().seen, 1);
        // ...and a harness write is what the next handler starts from.
        sim.node_mut(Addr(1)).unwrap().seen = 10;
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), 1));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().seen, 11);
        assert_eq!(
            sim.drain_upcalls()
                .into_iter()
                .map(|(_, _, u)| u)
                .collect::<Vec<_>>(),
            [(1, 1), (1, 11)]
        );

        // A failed node keeps its state, gets the crash hook once, and
        // hears nothing.
        let failed_at = sim.now();
        sim.fail_node(Addr(1));
        sim.fail_node(Addr(1));
        assert!(!sim.is_up(Addr(1)));
        assert_eq!(sim.node(Addr(1)).unwrap().crashed_at, [failed_at]);
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), 1));
        sim.run_until_idle();
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.node(Addr(1)).unwrap().seen, 11);
        assert_eq!(
            sim.live_addrs().into_iter().collect::<Vec<_>>(),
            [Addr(0), Addr(2)]
        );

        sim.recover_node(Addr(1));
        assert!(sim.is_up(Addr(1)));
        assert_eq!(sim.node(Addr(1)).unwrap().recovers, 1);
        sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(1), 1));
        sim.run_until_idle();
        assert_eq!(sim.node(Addr(1)).unwrap().seen, 12);

        // Removal hands the state back by value and leaves nothing behind.
        let state = sim.remove_node(Addr(1)).expect("node present");
        assert_eq!(
            state,
            Probe {
                seen: 12,
                starts: 1,
                recovers: 1,
                crashed_at: vec![failed_at],
            }
        );
        assert!(sim.node(Addr(1)).is_none());
        assert!(sim.node_mut(Addr(1)).is_none());
        assert!(!sim.is_up(Addr(1)));
        assert!(sim.remove_node(Addr(1)).is_none());
        // The address is free again.
        sim.add_node(Addr(1), Probe::default());
        assert_eq!(sim.node(Addr(1)).unwrap().seen, 0);
        assert_eq!(sim.queue_len(), 0);
    }};
}

#[test]
fn legacy_engine_harness_access() {
    harness_script!(Simulator::<Probe>::new(topology(), 1));
}

#[test]
fn sharded_engine_harness_access() {
    for shards in [1, 3] {
        harness_script!(ShardedSim::<Probe>::new(topology(), 1, shards));
    }
}

#[test]
#[should_panic(expected = "invoke on absent/down node")]
fn legacy_invoke_on_down_node_panics() {
    let mut sim = Simulator::<Probe>::new(topology(), 1);
    sim.add_node(Addr(0), Probe::default());
    sim.fail_node(Addr(0));
    sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(0), 1));
}

#[test]
#[should_panic(expected = "invoke on absent/down node")]
fn legacy_invoke_on_removed_node_panics() {
    let mut sim = Simulator::<Probe>::new(topology(), 1);
    sim.add_node(Addr(0), Probe::default());
    sim.remove_node(Addr(0));
    sim.invoke(Addr(0), |_p, ctx| ctx.send(Addr(0), 1));
}

#[test]
#[should_panic(expected = "invoke on absent/down node")]
fn sharded_invoke_on_down_node_panics() {
    let mut sim = ShardedSim::<Probe>::new(topology(), 1, 2);
    sim.add_node(Addr(1), Probe::default());
    sim.fail_node(Addr(1));
    sim.invoke(Addr(1), |_p, ctx| ctx.send(Addr(1), 1));
}

#[test]
#[should_panic(expected = "invoke on absent/down node")]
fn sharded_invoke_on_removed_node_panics() {
    let mut sim = ShardedSim::<Probe>::new(topology(), 1, 2);
    sim.add_node(Addr(1), Probe::default());
    sim.remove_node(Addr(1));
    sim.invoke(Addr(1), |_p, ctx| ctx.send(Addr(1), 1));
}
