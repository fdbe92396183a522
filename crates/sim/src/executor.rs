//! Runtime-agnostic execution of [`Node`] state machines.
//!
//! Gryphon's protocol logic is written once as synchronous [`Node`]
//! state machines and run on two very different engines: the
//! deterministic virtual-time simulator ([`Sim`], this crate) for the
//! paper's experiments, and the threaded wall-clock runtime
//! (`gryphon-net`) for throughput benchmarks. The [`Executor`] trait is
//! the narrow waist the two share, so harness code that only needs
//! "spawn nodes, wire them, push messages, let time pass, read a
//! counter" can be written once and pointed at either engine.
//!
//! The trait is deliberately smaller than either engine's full API:
//! link shaping, crash injection, trace rings and typed handles stay on
//! the concrete types. `advance_us` means *virtual* time on the
//! simulator (exact) and *wall-clock* time on the threaded runtime
//! (approximate) — generic code must treat it as "at least this much
//! progress", which is all the protocols require.

use crate::runtime::{LinkParams, Node, Sim};
use gryphon_types::{NetMsg, NodeId};

/// A runtime that can host [`Node`]s and drive them with messages and
/// time. Implemented by [`Sim`] (virtual time, deterministic) and by
/// `gryphon_net::NetExecutor` (threads, wall clock).
pub trait Executor {
    /// Registers `node` under `name` and returns its id. Ids are
    /// assigned in registration order on both engines, so wiring code
    /// can rely on them matching across runtimes.
    fn spawn(&mut self, name: &str, node: Box<dyn Node>) -> NodeId;

    /// Declares a bidirectional link between `a` and `b` with the
    /// engine's default characteristics. The threaded runtime is fully
    /// connected already and treats this as a no-op.
    fn connect(&mut self, a: NodeId, b: NodeId);

    /// Delivers `msg` to `to` from the control pseudo-node.
    fn inject(&mut self, to: NodeId, msg: NetMsg);

    /// Lets at least `us` microseconds of runtime-time elapse (virtual
    /// on the simulator, wall-clock on threads).
    fn advance_us(&mut self, us: u64);

    /// Current value of counter `name` across the whole runtime
    /// (summed over shards on the threaded engine).
    fn counter(&self, name: &str) -> f64;
}

impl Executor for Sim {
    fn spawn(&mut self, name: &str, node: Box<dyn Node>) -> NodeId {
        self.add_node(name, node)
    }

    fn connect(&mut self, a: NodeId, b: NodeId) {
        Sim::connect(self, a, b, LinkParams::default().latency_us);
    }

    fn inject(&mut self, to: NodeId, msg: NetMsg) {
        let now = self.now_us();
        self.inject_ctrl(now, to, msg);
    }

    fn advance_us(&mut self, us: u64) {
        let until = self.now_us().saturating_add(us);
        self.run_until(until);
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics().counter(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{NodeCtx, TimerKey};
    use gryphon_types::{SubInterestMsg, SubscriberId, SubscriptionSpec};

    /// Counts every message and sets a timer that counts once more.
    struct Counting;

    impl Node for Counting {
        fn on_message(&mut self, _from: NodeId, _msg: NetMsg, ctx: &mut dyn NodeCtx) {
            ctx.count("seen", 1.0);
            ctx.set_timer(500, TimerKey(7));
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut dyn NodeCtx) {
            ctx.count("fired", 1.0);
        }
    }

    fn interest() -> NetMsg {
        NetMsg::SubInterest(SubInterestMsg::full(
            1,
            vec![(SubscriberId(1), SubscriptionSpec::new("class = 1"))],
        ))
    }

    /// Generic driver usable against any engine — the shape harnesses
    /// and benches reuse.
    fn drive(ex: &mut dyn Executor) -> (f64, f64) {
        let a = ex.spawn("a", Box::new(Counting));
        let b = ex.spawn("b", Box::new(Counting));
        ex.connect(a, b);
        ex.inject(a, interest());
        ex.inject(b, interest());
        ex.advance_us(10_000);
        (ex.counter("seen"), ex.counter("fired"))
    }

    #[test]
    fn sim_implements_executor() {
        let mut sim = Sim::new(7);
        let (seen, fired) = drive(&mut sim);
        assert_eq!(seen, 2.0);
        assert_eq!(fired, 2.0);
    }
}
