//! A capturing [`NodeCtx`] for driving one state machine directly in
//! tests and benches, without a runtime.

use crate::runtime::{NodeCtx, TimerKey};
use gryphon_types::{NetMsg, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Records everything a node does to the outside world: sends, timers,
/// `work` and `attribute` calls. The node is always `NodeId(1)`, and the
/// clock is whatever the test sets `now_us` to. Metric hooks are discarded, and no hook allocates once
/// the capturing vectors have warmed up (clear them with
/// [`Vec::clear`] to keep their capacity), so allocation-counting tests
/// can drive nodes through it.
#[derive(Debug)]
pub struct RecordingCtx {
    /// Current time `now_us()` reports.
    pub now_us: u64,
    /// Every `send`, in call order.
    pub sent: Vec<(NodeId, NetMsg)>,
    /// Every `set_timer` as `(delay_us, key)`, in call order.
    pub timers: Vec<(u64, TimerKey)>,
    /// Sum of every `work` charge.
    pub busy_us: u64,
    /// Every `attribute` as `(dim, entity, weight)`, in call order.
    pub attributed: Vec<(&'static str, u64, u64)>,
    rng: SmallRng,
}

impl Default for RecordingCtx {
    /// An empty context at time 0 (RNG seed 0).
    fn default() -> RecordingCtx {
        RecordingCtx {
            now_us: 0,
            sent: Vec::new(),
            timers: Vec::new(),
            busy_us: 0,
            attributed: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
        }
    }
}

impl NodeCtx for RecordingCtx {
    fn now_us(&self) -> u64 {
        self.now_us
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, to: NodeId, msg: NetMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.timers.push((delay_us, key));
    }
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, cost_us: u64) {
        self.busy_us += cost_us;
    }
    fn record(&mut self, _series: &str, _value: f64) {}
    fn count(&mut self, _counter: &str, _delta: f64) {}
    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.attributed.push((dim, entity, weight));
    }
}
