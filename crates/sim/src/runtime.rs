//! The discrete-event scheduler, links, timers and fault injection.

use crate::Metrics;
use gryphon_types::{NetMsg, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Sender id used for messages injected by the harness (not a real node).
pub const CONTROL_NODE: NodeId = NodeId(u32::MAX);

/// Opaque timer identifier chosen by the node that sets it.
///
/// Timers cannot be cancelled; nodes ignore stale keys instead (the usual
/// state-machine idiom — a timer's meaning is checked against current
/// state when it fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey(pub u64);

/// Context handed to a node during a callback.
///
/// Everything a node can do to the outside world goes through this trait,
/// which is what lets identical broker code run under the deterministic
/// simulator and the threaded runtime.
pub trait NodeCtx {
    /// Current virtual (or wall) time in microseconds.
    fn now_us(&self) -> u64;
    /// This node's id.
    fn me(&self) -> NodeId;
    /// Sends `msg` to `to` over the configured link (silently dropped if
    /// no link exists — mirrors a closed TCP connection).
    fn send(&mut self, to: NodeId, msg: NetMsg);
    /// Fires [`Node::on_timer`] with `key` after `delay_us`.
    fn set_timer(&mut self, delay_us: u64, key: TimerKey);
    /// Deterministic per-run RNG.
    fn rng(&mut self) -> &mut SmallRng;
    /// Accounts `cost_us` of CPU work to this node (drives the paper's
    /// CPU-idle plots; does not delay message processing).
    fn work(&mut self, cost_us: u64);
    /// Appends a sample to a metrics series at the current time.
    fn record(&mut self, series: &str, value: f64);
    /// Bumps a metrics counter.
    fn count(&mut self, counter: &str, delta: f64);
    /// Records one sample into a metrics histogram (see
    /// [`crate::metrics::names`] for the registry). Default: discarded.
    fn observe(&mut self, _name: &str, _value: f64) {}
    /// Sets a metrics gauge to its current level (telemetry samplers
    /// snapshot gauges each window; see DESIGN.md §13). Publishers that
    /// exist per entity append a shard suffix (`.n<node>`, `.p<pubend>`,
    /// `.w<worker>`) to the registered base name. Default: discarded.
    fn gauge(&mut self, _name: &str, _value: f64) {}
    /// Emits a structured trace event attributed to this node. Default:
    /// discarded. Instrumentation sites should go through
    /// [`trace_event!`](crate::trace_event) rather than calling this
    /// directly, so the `trace` feature can compile the overhead out.
    fn trace(&mut self, _event: crate::trace::TraceEvent) {}
    /// Records a busy interval of `dur_us` ending *now* on this node's
    /// timeline track, tagged with a forensics kind (one of the
    /// `KIND_*` constants in [`crate::forensics`]). Pure observation for
    /// the exported Perfetto trace — never affects scheduling. Default:
    /// discarded (also when the contention profiler is disarmed).
    fn interval(&mut self, _kind: &'static str, _dur_us: u64) {}
    /// Attributes `weight` to `entity` on a population-sketch dimension
    /// (one of the `DIM_*` constants in [`crate::sketch`]): per-entity
    /// heavy-hitter accounting in O(K) memory (DESIGN.md §18). Pure
    /// observation — the armed sketch drains into `topk.ndjson` each
    /// sampler window and never affects scheduling. Default: discarded
    /// (also when the sketch is disarmed).
    fn attribute(&mut self, _dim: &'static str, _entity: u64, _weight: u64) {}
}

/// A state machine hosted by a runtime.
pub trait Node: Send {
    /// Called once when the runtime starts (or when the node is added to
    /// an already-running sim). Establish initial timers here.
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}
    /// A message arrived.
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx);
    /// A timer set via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx);
    /// The runtime restarted this node after a crash: volatile state is
    /// still in `self` and must be discarded/rebuilt from persistent
    /// storage by this method.
    fn on_restart(&mut self, _ctx: &mut dyn NodeCtx) {}
}

/// Link properties for one direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Base propagation + processing latency.
    pub latency_us: u64,
    /// Uniform random extra latency in `[0, jitter_us]` (FIFO order is
    /// still enforced).
    pub jitter_us: u64,
    /// Probability in `[0, 1]` that a message is dropped.
    pub loss: f64,
    /// Serialization bandwidth; `None` = infinite. Messages queue behind
    /// one another ([`gryphon_types::NetMsg::size_hint`] bytes each), which
    /// is what bounds catchup burst rates after an SHB failure.
    pub bytes_per_sec: Option<u64>,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency_us: 1_000,
            jitter_us: 0,
            loss: 0.0,
            bytes_per_sec: None,
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: NetMsg,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
}

struct Scheduled {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct NodeSlot {
    node: Option<Box<dyn Node>>,
    name: String,
    up: bool,
    busy_us: u64,
    type_id: Option<std::any::TypeId>,
}

/// The deterministic simulator. See the [crate docs](crate) for an
/// overview and example.
pub struct Sim {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<NodeSlot>,
    links: HashMap<(NodeId, NodeId), LinkParams>,
    /// FIFO enforcement: last scheduled arrival per directed link.
    last_arrival: HashMap<(NodeId, NodeId), u64>,
    /// Bandwidth serialization: when each directed link frees up.
    link_busy_until: HashMap<(NodeId, NodeId), u64>,
    rng: SmallRng,
    metrics: Metrics,
    #[cfg(feature = "trace")]
    trace: crate::trace::TraceBuffer,
    #[cfg(feature = "trace")]
    watchdogs: crate::trace::Watchdogs,
    #[cfg(feature = "trace")]
    lineage: crate::lineage::Lineage,
    /// Directory for flight-recorder post-mortems (`None` = disabled).
    #[cfg(feature = "trace")]
    flight_dir: Option<std::path::PathBuf>,
    #[cfg(feature = "trace")]
    flight_dumps: u32,
    /// Panic on delivery-ledger violations (default: armed under
    /// `cfg(debug_assertions)`, like the watchdogs).
    #[cfg(feature = "trace")]
    ledger_panic: bool,
    /// Fixed CPU charge per delivered message/timer (µs).
    pub base_event_cost_us: u64,
    events_processed: u64,
    /// Per-window observer (`None` = telemetry disabled): the sampler,
    /// the optional health engine and population sketch. Windows close
    /// between scheduler events, never through them, so enabling it
    /// cannot perturb protocol ordering.
    observer: Option<crate::telemetry::Observer>,
    /// Tail-forensics interval ring (`None` = disarmed): bounded
    /// busy-interval records per node, drained into each window next to
    /// the lineage exemplar reservoir (armed with it under the `trace`
    /// feature). Pure observer: arming it leaves traces and deliveries
    /// bit-identical.
    forensics: Option<crate::forensics::IntervalRing>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now_us", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            last_arrival: HashMap::new(),
            link_busy_until: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            metrics: Metrics::default(),
            #[cfg(feature = "trace")]
            trace: crate::trace::TraceBuffer::new(),
            #[cfg(feature = "trace")]
            watchdogs: {
                // Deferred panics let the flight recorder dump a
                // post-mortem before the process dies.
                let mut w = crate::trace::Watchdogs::default();
                w.defer_panic = true;
                w
            },
            #[cfg(feature = "trace")]
            lineage: crate::lineage::Lineage::default(),
            #[cfg(feature = "trace")]
            flight_dir: None,
            #[cfg(feature = "trace")]
            flight_dumps: 0,
            #[cfg(feature = "trace")]
            ledger_panic: cfg!(debug_assertions),
            base_event_cost_us: 0,
            events_processed: 0,
            observer: None,
            forensics: None,
        }
    }

    /// Registers `node` under a human-readable `name`, returning its id.
    /// `on_start` runs at the current virtual time.
    pub fn add_node(&mut self, name: &str, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            node: Some(node),
            name: name.to_owned(),
            up: true,
            busy_us: 0,
            type_id: None,
        });
        self.with_node(id, |node, ctx| node.on_start(ctx));
        id
    }

    /// Creates symmetric links `a ↔ b` with the given one-way latency.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency_us: u64) {
        let p = LinkParams {
            latency_us,
            ..LinkParams::default()
        };
        self.connect_with(a, b, p);
    }

    /// Creates symmetric links `a ↔ b` with full parameters.
    pub fn connect_with(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert((a, b), params);
        self.links.insert((b, a), params);
    }

    /// Removes the links between `a` and `b` (partition).
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) {
        self.links.remove(&(a, b));
        self.links.remove(&(b, a));
    }

    /// Injects `msg` for `to` at absolute virtual time `at_us` (no link
    /// traversal), appearing to come from `from`.
    pub fn inject_from(&mut self, at_us: u64, to: NodeId, from: NodeId, msg: NetMsg) {
        self.push(at_us, EventKind::Deliver { to, from, msg });
    }

    /// Injects a control message (sender [`CONTROL_NODE`]).
    pub fn inject(&mut self, at_us: u64, to: NodeId, from: NodeId, msg: NetMsg) {
        // `from` kept for source attribution in tests; CONTROL injection
        // uses `inject_ctrl`.
        self.inject_from(at_us, to, from, msg);
    }

    /// Injects a message whose sender is the harness itself.
    pub fn inject_ctrl(&mut self, at_us: u64, to: NodeId, msg: NetMsg) {
        self.inject_from(at_us, to, CONTROL_NODE, msg);
    }

    /// Schedules a crash of `node` at `at_us` for `duration_us`, after
    /// which the node restarts (volatile state wiped by its
    /// [`Node::on_restart`]). While down, deliveries and timers for the
    /// node are silently dropped.
    pub fn schedule_crash(&mut self, node: NodeId, at_us: u64, duration_us: u64) {
        self.push(at_us, EventKind::Crash { node });
        self.push(at_us + duration_us, EventKind::Restart { node });
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { time, seq, kind }));
    }

    /// Runs until the queue is empty or virtual time would exceed
    /// `until_us`. Returns the number of events processed.
    pub fn run_until(&mut self, until_us: u64) -> u64 {
        let mut n = 0;
        loop {
            let head_time = match self.queue.peek() {
                Some(Reverse(head)) if head.time <= until_us => head.time,
                _ => break,
            };
            // Telemetry samples due strictly before (or at) the next
            // event fire first, reading state as of that virtual moment
            // without touching the queue.
            self.fire_due_samples(head_time);
            let Reverse(ev) = self.queue.pop().expect("peeked");
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.dispatch(ev.kind);
            n += 1;
        }
        self.fire_due_samples(until_us);
        self.now = self.now.max(until_us);
        self.events_processed += n;
        n
    }

    /// Runs to quiescence (empty queue). Returns events processed.
    /// Intended for tests; live workloads self-perpetuate via timers, so
    /// use [`Sim::run_until`] there.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut n = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            let head_time = head.time;
            self.fire_due_samples(head_time);
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.time;
            self.dispatch(ev.kind);
            n += 1;
        }
        self.events_processed += n;
        n
    }

    /// Enables the windowed telemetry sampler at a fixed virtual-time
    /// `interval_us` (see [`crate::telemetry`]). Each due window closes
    /// between scheduler events: it snapshots the scheduler's
    /// outstanding-event count as the
    /// [`telemetry.queue_depth`](crate::names::TELEMETRY_QUEUE_DEPTH)
    /// gauge, then runs [`Observer::window`](crate::telemetry::Observer::window).
    /// Sampling appends only to metrics — traces and deliveries are
    /// bit-identical with the sampler on or off. A second call restarts
    /// the sampler on a fresh timeline and keeps an armed health engine
    /// and sketch.
    pub fn enable_telemetry(&mut self, interval_us: u64) {
        match self.observer.as_mut() {
            Some(observer) => observer.reset_sampler(interval_us),
            None => self.observer = Some(crate::telemetry::Observer::new(interval_us)),
        }
    }

    /// The telemetry timeline collected so far (`None` when disabled).
    pub fn telemetry(&self) -> Option<&crate::telemetry::Timeline> {
        self.observer.as_ref().map(|o| o.timeline())
    }

    /// Takes the telemetry timeline out of the sim (disabling further
    /// sampling), e.g. to attach it to a report.
    pub fn take_telemetry(&mut self) -> Option<crate::telemetry::Timeline> {
        self.observer.take().map(|o| o.into_timeline())
    }

    /// Arms the online health engine over `rules` (see
    /// [`crate::health`]). Call after [`Sim::enable_telemetry`] — the
    /// engine judges the sampler's timeline once per window. Each
    /// rule's `health.alert.<rule>` counter is registered at zero
    /// immediately so exports show the armed rule set even when nothing
    /// ever fires. Like the sampler, the engine is a pure observer: it
    /// never touches the event queue, and on a clean run it emits no
    /// trace events at all.
    ///
    /// # Panics
    ///
    /// Panics when telemetry is disabled.
    pub fn enable_health(&mut self, rules: Vec<crate::health::HealthRule>) {
        let engine = crate::health::HealthEngine::new(rules);
        engine.prime(&mut self.metrics);
        self.observer
            .as_mut()
            .expect("enable_health requires enable_telemetry first")
            .arm_health(engine);
    }

    /// Arms tail forensics: an exemplar reservoir on the lineage stage
    /// histograms (with the `trace` feature) and a bounded busy-interval
    /// recorder fed by [`Sim::charge`] / [`NodeCtx::interval`]. Both
    /// streams drain into the telemetry timeline once per window (so
    /// telemetry should be enabled too; without it the interval ring
    /// simply fills and evicts). Pure observer — see DESIGN.md §17.
    pub fn enable_forensics(&mut self, cfg: crate::forensics::ForensicsConfig) {
        #[cfg(feature = "trace")]
        self.lineage
            .arm_exemplars(crate::forensics::ExemplarReservoir::new(&cfg));
        self.forensics = Some(crate::forensics::IntervalRing::new(cfg.interval_capacity));
    }

    /// Arms the population sketch: per-entity top-K attribution
    /// ([`NodeCtx::attribute`]) plus the subscriber lag spectrum, in
    /// O(K) memory per dimension, drained into top-K snapshots on the
    /// telemetry timeline once per window. Call after
    /// [`Sim::enable_telemetry`]. Pure observer — see DESIGN.md §18.
    ///
    /// # Panics
    ///
    /// Panics when telemetry is disabled.
    pub fn enable_sketch(&mut self, cfg: crate::sketch::SketchConfig) {
        self.observer
            .as_mut()
            .expect("enable_sketch requires enable_telemetry first")
            .arm_sketch(cfg);
    }

    /// Closes every window due at or before `upto_us`.
    fn fire_due_samples(&mut self, upto_us: u64) {
        let Some(mut observer) = self.observer.take() else {
            return;
        };
        while observer.next_at_us() <= upto_us {
            let at = observer.next_at_us();
            self.metrics
                .set_gauge(crate::names::TELEMETRY_QUEUE_DEPTH, self.queue.len() as f64);
            let input = self.drain_forensics();
            let alerts = observer.window(at, &mut self.metrics, input);
            #[cfg(feature = "trace")]
            for alert in alerts {
                self.push_trace(
                    CONTROL_NODE,
                    crate::trace::TraceEvent::HealthAlert {
                        firing: alert.state == crate::health::AlertState::Firing,
                        rule: alert.rule,
                        series: alert.series,
                    },
                );
            }
            #[cfg(not(feature = "trace"))]
            let _ = alerts;
        }
        self.observer = Some(observer);
    }

    /// Drains what the forensics observers collected this window: tail
    /// exemplars (resolved against their assembled lineage spans) and
    /// busy intervals. Empty while forensics is disarmed.
    fn drain_forensics(&mut self) -> crate::telemetry::WindowInput {
        let mut input = crate::telemetry::WindowInput::default();
        let Some(ring) = self.forensics.as_mut() else {
            return input;
        };
        input.intervals_dropped = ring.take_dropped();
        input.intervals = ring.drain();
        #[cfg(feature = "trace")]
        if let Some(r) = self.lineage.exemplars_mut() {
            input.exemplars_dropped = r.take_dropped();
            let drained = r.drain_sorted();
            input.exemplars = drained
                .iter()
                .map(|s| crate::forensics::Exemplar::resolve(s, self.lineage.span(s.key)))
                .collect();
        }
        input
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                if !self.slot(to).map(|s| s.up).unwrap_or(false) {
                    return;
                }
                self.charge(to, self.base_event_cost_us);
                self.with_node(to, |node, ctx| node.on_message(from, msg, ctx));
            }
            EventKind::Timer { node, key } => {
                if !self.slot(node).map(|s| s.up).unwrap_or(false) {
                    return;
                }
                self.charge(node, self.base_event_cost_us);
                self.with_node(node, |n, ctx| n.on_timer(key, ctx));
            }
            EventKind::Crash { node } => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = false;
                }
            }
            EventKind::Restart { node } => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = true;
                }
                // Watchdog delivery state for the node resets here, before
                // `on_restart` rebuilds from persistent storage.
                #[cfg(feature = "trace")]
                self.push_trace(node, crate::trace::TraceEvent::NodeRestarted);
                self.with_node(node, |n, ctx| n.on_restart(ctx));
            }
        }
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot> {
        self.nodes.get(id.0 as usize)
    }

    fn charge(&mut self, id: NodeId, cost: u64) {
        if let Some(slot) = self.nodes.get_mut(id.0 as usize) {
            slot.busy_us += cost;
        }
        if cost > 0 {
            self.push_interval(id, crate::forensics::KIND_BUSY, cost);
        }
    }

    /// Records a busy interval of `dur_us` ending at the current virtual
    /// time on `id`'s timeline track (no-op while forensics is
    /// disarmed). Never touches the event queue.
    fn push_interval(&mut self, id: NodeId, kind: &'static str, dur_us: u64) {
        let now = self.now;
        if let Some(ring) = self.forensics.as_mut() {
            ring.push(crate::forensics::BusyInterval {
                track: id.0,
                kind,
                start_us: now.saturating_sub(dur_us),
                dur_us,
            });
        }
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut dyn NodeCtx)) {
        let Some(slot) = self.nodes.get_mut(id.0 as usize) else {
            return;
        };
        let Some(mut node) = slot.node.take() else {
            return; // re-entrant dispatch is impossible; defensive
        };
        let mut ctx = SimCtx { sim: self, me: id };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.0 as usize].node = Some(node);
    }

    /// Current virtual time (µs).
    pub fn now_us(&self) -> u64 {
        self.now
    }

    /// Metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access for the harness (e.g. recording workload
    /// ground truth alongside node-recorded series).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Accumulated CPU work of `node` (µs).
    pub fn busy_us(&self, node: NodeId) -> u64 {
        self.slot(node).map(|s| s.busy_us).unwrap_or(0)
    }

    /// `true` when the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).map(|s| s.up).unwrap_or(false)
    }

    /// The registered display name of `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.slot(node).map(|s| s.name.as_str()).unwrap_or("?")
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// Trace-stream and watchdog access (only with the `trace` feature,
/// which is on by default).
#[cfg(feature = "trace")]
impl Sim {
    fn push_trace(&mut self, node: NodeId, event: crate::trace::TraceEvent) {
        let rec = crate::trace::TraceRecord {
            t_us: self.now,
            node,
            event,
        };
        let wd_before = self.watchdogs.violations();
        let ledger_before = self.lineage.violations();
        self.watchdogs.observe(&rec, &mut self.metrics);
        self.lineage.observe(&rec, &mut self.metrics);
        let wd_hit = self.watchdogs.violations() > wd_before;
        let ledger_hit = self.lineage.violations() > ledger_before;
        if wd_hit || ledger_hit {
            self.flight_dump(&rec, wd_hit);
        }
        let before = self.trace.dropped();
        self.trace.push(rec);
        let evicted = self.trace.dropped() - before;
        if evicted > 0 {
            self.metrics
                .count(crate::metrics::names::TRACE_DROPPED, evicted as f64);
        }
        // Panics were deferred across the dump; raise them now.
        if let Some(detail) = self.watchdogs.take_deferred_panic() {
            panic!("invariant watchdog: {detail}");
        }
        if ledger_hit && self.ledger_panic {
            let detail = self.lineage.last_violation().unwrap_or("?").to_owned();
            panic!("delivery ledger: {detail}");
        }
    }

    /// Writes a post-mortem for the violation just observed on `rec`:
    /// the reason, the offending record, that event's reconstructed
    /// lineage span, a metrics snapshot (Prometheus text) and the tail
    /// of the trace ring. Bounded to [`Self::MAX_FLIGHT_DUMPS`] files
    /// per run; a disabled recorder (`flight_dir == None`) costs one
    /// branch.
    fn flight_dump(&mut self, rec: &crate::trace::TraceRecord, watchdog: bool) {
        const TRACE_TAIL: usize = 256;
        let Some(dir) = self.flight_dir.clone() else {
            return;
        };
        if self.flight_dumps >= Self::MAX_FLIGHT_DUMPS {
            return;
        }
        let seq = self.flight_dumps;
        self.flight_dumps += 1;
        self.metrics
            .count(crate::metrics::names::LINEAGE_FLIGHT_DUMPS, 1.0);
        let reason = if watchdog {
            format!("watchdog: {}", self.watchdogs.last_detail().unwrap_or("?"))
        } else {
            format!("ledger: {}", self.lineage.last_violation().unwrap_or("?"))
        };
        let mut out = String::new();
        out.push_str(&format!(
            "# gryphon flight recorder post-mortem {seq}\n\
             time_us: {}\nnode: {} ({})\nreason: {reason}\n\
             offending_event: {:?}\n\n",
            rec.t_us,
            rec.node,
            self.node_name(rec.node),
            rec.event,
        ));
        out.push_str("## lineage of offending event\n");
        match rec.event.lineage_key() {
            Some(key) => match self.lineage.span(key) {
                Some(span) => out.push_str(&span.render(key)),
                None => out.push_str(&format!("{key}: no span assembled\n")),
            },
            None => out.push_str("(event carries no lineage key)\n"),
        }
        out.push_str("\n## metrics snapshot\n");
        out.push_str(&crate::lineage::prometheus_text(&self.metrics));
        out.push_str(&format!("\n## trace ring tail (last {TRACE_TAIL})\n"));
        let len = self.trace.iter().count();
        for r in self.trace.iter().skip(len.saturating_sub(TRACE_TAIL)) {
            out.push_str(&format!("{} {} {:?}\n", r.t_us, r.node, r.event));
        }
        let path = dir.join(format!("postmortem-{seq}.txt"));
        // Best-effort: a full disk must not mask the original violation.
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(&path, out);
    }

    /// The retained trace records, oldest first.
    pub fn trace_records(&self) -> impl Iterator<Item = &crate::trace::TraceRecord> {
        self.trace.iter()
    }

    /// The trace ring buffer (for capacity/drop introspection).
    pub fn trace_buffer(&self) -> &crate::trace::TraceBuffer {
        &self.trace
    }

    /// Resizes the trace ring (`0` retains nothing; watchdogs still run).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Arms or disarms panicking on watchdog violations (default:
    /// armed under `cfg(debug_assertions)`).
    pub fn set_watchdog_panic(&mut self, panic_on_violation: bool) {
        self.watchdogs.panic_on_violation = panic_on_violation;
    }

    /// Total invariant violations the watchdogs have flagged.
    pub fn watchdog_violations(&self) -> u64 {
        self.watchdogs.violations()
    }

    /// Feeds a synthetic trace event through the buffer and watchdogs as
    /// if `node` emitted it now — the corruption hook fault-injection
    /// tests use to prove the watchdogs actually bite.
    pub fn inject_trace(&mut self, node: NodeId, event: crate::trace::TraceEvent) {
        self.push_trace(node, event);
    }

    /// Post-mortem files per run the flight recorder will write before
    /// going quiet (a violation storm must not fill the disk).
    pub const MAX_FLIGHT_DUMPS: u32 = 8;

    /// The delivery-lineage assembler/ledger fed by every trace event.
    pub fn lineage(&self) -> &crate::lineage::Lineage {
        &self.lineage
    }

    /// Arms or disarms panicking on delivery-ledger violations
    /// (default: armed under `cfg(debug_assertions)`).
    pub fn set_ledger_panic(&mut self, panic_on_violation: bool) {
        self.ledger_panic = panic_on_violation;
    }

    /// Enables full-audit mode on the ledger (records per-session
    /// delivered sets so [`Sim::ledger_audit`] can compute *missing*
    /// deliveries; only meaningful under match-all filters).
    pub fn set_full_audit(&mut self, on: bool) {
        self.lineage.set_full_audit(on);
    }

    /// Directory where the flight recorder writes post-mortems on any
    /// watchdog or ledger violation (`None` disables it, the default).
    pub fn set_flight_dir(&mut self, dir: Option<std::path::PathBuf>) {
        self.flight_dir = dir;
    }

    /// Post-mortems written so far this run.
    pub fn flight_dumps(&self) -> u32 {
        self.flight_dumps
    }

    /// Exactly-once violations the delivery ledger has flagged.
    pub fn ledger_violations(&self) -> u64 {
        self.lineage.violations()
    }

    /// Offline exactly-once audit over everything observed so far.
    pub fn ledger_audit(&self) -> crate::lineage::LedgerAudit {
        self.lineage.audit()
    }
}

/// Inert stand-ins for the trace/watchdog API when the `trace` feature
/// is disabled, so downstream code compiles identically in both
/// configurations (no records are ever collected, no invariant ever
/// flagged).
#[cfg(not(feature = "trace"))]
impl Sim {
    /// Always empty without the `trace` feature.
    pub fn trace_records(&self) -> impl Iterator<Item = &crate::trace::TraceRecord> {
        std::iter::empty()
    }

    /// No-op without the `trace` feature.
    pub fn set_trace_capacity(&mut self, _capacity: usize) {}

    /// No-op without the `trace` feature.
    pub fn set_watchdog_panic(&mut self, _panic_on_violation: bool) {}

    /// Always zero without the `trace` feature.
    pub fn watchdog_violations(&self) -> u64 {
        0
    }

    /// Dropped without the `trace` feature.
    pub fn inject_trace(&mut self, _node: NodeId, _event: crate::trace::TraceEvent) {}

    /// No-op without the `trace` feature.
    pub fn set_ledger_panic(&mut self, _panic_on_violation: bool) {}

    /// No-op without the `trace` feature.
    pub fn set_full_audit(&mut self, _on: bool) {}

    /// No-op without the `trace` feature.
    pub fn set_flight_dir(&mut self, _dir: Option<std::path::PathBuf>) {}

    /// Always zero without the `trace` feature.
    pub fn flight_dumps(&self) -> u32 {
        0
    }

    /// Always zero without the `trace` feature.
    pub fn ledger_violations(&self) -> u64 {
        0
    }

    /// Always clean without the `trace` feature.
    pub fn ledger_audit(&self) -> crate::lineage::LedgerAudit {
        crate::lineage::LedgerAudit::default()
    }
}

/// Typed handle to a node for harness-side inspection.
///
/// [`Sim::add_node`] erases the concrete type; experiments that need to
/// read a node's state between events (e.g. a client's received-message
/// log) register it through [`Sim::add_typed_node`] and keep the returned
/// [`Handle`], which can borrow the node back from the sim.
pub struct Handle<T> {
    id: NodeId,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> Handle<T> {
    /// The node id this handle refers to.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.id)
    }
}

struct Typed<T>(T);

impl<T: Node + 'static> Node for Typed<T> {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.0.on_start(ctx)
    }
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        self.0.on_message(from, msg, ctx)
    }
    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        self.0.on_timer(key, ctx)
    }
    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        self.0.on_restart(ctx)
    }
}

impl Sim {
    /// Like [`Sim::add_node`] but preserves the concrete type for later
    /// inspection via [`Sim::node`] / [`Sim::node_ref`].
    pub fn add_typed_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        let id = self.add_node(name, Box::new(Typed(node)));
        self.nodes[id.0 as usize].type_id = Some(std::any::TypeId::of::<Typed<T>>());
        Handle {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// Mutable access to a typed node between events.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a `T` (impossible when the
    /// handle came from [`Sim::add_typed_node`]) or during dispatch.
    pub fn node<T: Node + 'static>(&mut self, h: Handle<T>) -> &mut T {
        let slot = self
            .nodes
            .get_mut(h.id.0 as usize)
            .expect("handle from this sim");
        assert_eq!(
            slot.type_id,
            Some(std::any::TypeId::of::<Typed<T>>()),
            "handle type mismatch"
        );
        let node = slot.node.as_mut().expect("node() called during dispatch");
        let typed: &mut Typed<T> = unsafe {
            // SAFETY: the TypeId check above proves the concrete type in
            // this slot is exactly Typed<T>, and slots are never replaced.
            &mut *(node.as_mut() as *mut dyn Node as *mut Typed<T>)
        };
        &mut typed.0
    }

    /// Shared access to a typed node between events.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Sim::node`].
    pub fn node_ref<T: Node + 'static>(&self, h: Handle<T>) -> &T {
        let slot = self
            .nodes
            .get(h.id.0 as usize)
            .expect("handle from this sim");
        assert_eq!(
            slot.type_id,
            Some(std::any::TypeId::of::<Typed<T>>()),
            "handle type mismatch"
        );
        let node = slot
            .node
            .as_ref()
            .expect("node_ref() called during dispatch");
        let typed: &Typed<T> = unsafe {
            // SAFETY: as in `node`.
            &*(node.as_ref() as *const dyn Node as *const Typed<T>)
        };
        &typed.0
    }
}

struct SimCtx<'a> {
    sim: &'a mut Sim,
    me: NodeId,
}

impl NodeCtx for SimCtx<'_> {
    fn now_us(&self) -> u64 {
        self.sim.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) {
        let Some(&params) = self.sim.links.get(&(self.me, to)) else {
            return; // no link: dropped, like a closed connection
        };
        // Loss models congestion drops on the stream-recovery path.
        // Control traffic (interest, release, client sessions) rides
        // reliable TCP in the modeled system, and the knowledge/curiosity
        // protocol is the part designed to self-heal — so only those two
        // message kinds are subject to loss.
        let lossy_kind = matches!(msg, NetMsg::Knowledge(_) | NetMsg::Curiosity(_));
        if lossy_kind && params.loss > 0.0 && self.sim.rng.gen::<f64>() < params.loss {
            self.sim.metrics.count("net.dropped", 1.0);
            return;
        }
        let jitter = if params.jitter_us > 0 {
            self.sim.rng.gen_range(0..=params.jitter_us)
        } else {
            0
        };
        let key = (self.me, to);
        // Serialization delay: the message occupies the link for
        // size/bandwidth, queueing behind earlier messages.
        let depart = match params.bytes_per_sec {
            Some(bw) if bw > 0 => {
                let busy_until = self.sim.link_busy_until.get(&key).copied().unwrap_or(0);
                let start = self.sim.now.max(busy_until);
                let tx = (msg.size_hint() as u64).saturating_mul(1_000_000) / bw;
                let depart = start + tx;
                self.sim.link_busy_until.insert(key, depart);
                depart
            }
            _ => self.sim.now,
        };
        let arrival = depart + params.latency_us + jitter;
        // FIFO per directed link.
        let last = self.sim.last_arrival.get(&key).copied().unwrap_or(0);
        let arrival = arrival.max(last);
        self.sim.last_arrival.insert(key, arrival);
        self.sim.push(
            arrival,
            EventKind::Deliver {
                to,
                from: self.me,
                msg,
            },
        );
    }

    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        let at = self.sim.now + delay_us;
        self.sim.push(at, EventKind::Timer { node: self.me, key });
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    fn work(&mut self, cost_us: u64) {
        self.sim.charge(self.me, cost_us);
    }

    fn record(&mut self, series: &str, value: f64) {
        let now = self.sim.now;
        self.sim.metrics.record(now, series, value);
    }

    fn count(&mut self, counter: &str, delta: f64) {
        self.sim.metrics.count(counter, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.sim.metrics.observe(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.sim.metrics.set_gauge(name, value);
    }

    #[cfg(feature = "trace")]
    fn trace(&mut self, event: crate::trace::TraceEvent) {
        self.sim.push_trace(self.me, event);
    }

    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        if dur_us > 0 {
            self.sim.push_interval(self.me, kind, dur_us);
        }
    }

    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        if let Some(sketch) = self.sim.observer.as_mut().and_then(|o| o.sketch_mut()) {
            sketch.attribute(dim, entity, weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::SubInterestMsg;

    fn dummy_msg() -> NetMsg {
        NetMsg::SubInterest(SubInterestMsg::full(0, vec![]))
    }

    /// A message of the lossy kind (loss only applies to the self-healing
    /// knowledge/curiosity streams; control rides reliable TCP).
    fn lossy_msg() -> NetMsg {
        NetMsg::Knowledge(gryphon_types::KnowledgeMsg {
            pubend: gryphon_types::PubendId(0),
            parts: vec![],
            nack_response: false,
            interest_version: 0,
        })
    }

    /// Records every arrival time; bounces optionally.
    struct Recorder {
        arrivals: Vec<u64>,
        bounce: bool,
    }

    impl Node for Recorder {
        fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
            self.arrivals.push(ctx.now_us());
            ctx.record("arrival", 1.0);
            ctx.work(10);
            if self.bounce {
                ctx.send(from, msg);
            }
        }
        fn on_timer(&mut self, _: TimerKey, ctx: &mut dyn NodeCtx) {
            self.arrivals.push(ctx.now_us());
        }
    }

    #[test]
    fn link_latency_and_fifo() {
        let mut sim = Sim::new(1);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 500,
                jitter_us: 400,
                loss: 0.0,
                bytes_per_sec: None,
            },
        );
        // Inject at b as-if from a at t=0,1,2; b bounces each back to a
        // over the jittery link.
        for t in 0..3 {
            sim.inject_from(t, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        let arr = &sim.node_ref(a).arrivals;
        assert_eq!(arr.len(), 3);
        assert!(
            arr.windows(2).all(|w| w[0] <= w[1]),
            "FIFO violated: {arr:?}"
        );
        assert!(arr[0] >= 500);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
                ctx.set_timer(300, TimerKey(3));
                ctx.set_timer(100, TimerKey(1));
                ctx.set_timer(200, TimerKey(2));
            }
            fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {}
            fn on_timer(&mut self, key: TimerKey, _: &mut dyn NodeCtx) {
                self.fired.push(key.0);
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.add_typed_node("t", TimerNode { fired: vec![] });
        sim.run_until(250);
        assert_eq!(sim.node_ref(h).fired, vec![1, 2]);
        sim.run_to_quiescence();
        assert_eq!(sim.node_ref(h).fired, vec![1, 2, 3]);
    }

    #[test]
    fn crash_drops_messages_and_restart_notifies() {
        struct CrashNode {
            got: u64,
            restarted: bool,
        }
        impl Node for CrashNode {
            fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {
                self.got += 1;
            }
            fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
            fn on_restart(&mut self, _: &mut dyn NodeCtx) {
                self.restarted = true;
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.add_typed_node(
            "c",
            CrashNode {
                got: 0,
                restarted: false,
            },
        );
        sim.schedule_crash(h.id(), 100, 1_000);
        sim.inject_ctrl(50, h.id(), dummy_msg()); // before crash: delivered
        sim.inject_ctrl(500, h.id(), dummy_msg()); // during crash: dropped
        sim.inject_ctrl(2_000, h.id(), dummy_msg()); // after restart
        sim.run_to_quiescence();
        let n = sim.node_ref(h);
        assert_eq!(n.got, 2);
        assert!(n.restarted);
        assert!(sim.is_up(h.id()));
    }

    #[test]
    fn loss_drops_stream_messages_only() {
        let mut sim = Sim::new(7);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 10,
                jitter_us: 0,
                loss: 0.5,
                bytes_per_sec: None,
            },
        );
        for t in 0..100 {
            sim.inject_from(t * 100, b.id(), a.id(), lossy_msg());
        }
        sim.run_to_quiescence();
        let delivered = sim.node_ref(a).arrivals.len();
        assert!(
            delivered > 20 && delivered < 80,
            "loss ~50%, got {delivered}"
        );
        assert_eq!(
            sim.metrics().counter("net.dropped") as usize + delivered,
            100
        );
        // Control traffic is immune (modeled TCP).
        let mut sim = Sim::new(7);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 10,
                jitter_us: 0,
                loss: 0.5,
                bytes_per_sec: None,
            },
        );
        for t in 0..50 {
            sim.inject_from(t * 100, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        assert_eq!(
            sim.node_ref(a).arrivals.len(),
            50,
            "control traffic must not drop"
        );
    }

    #[test]
    fn work_accumulates_and_metrics_record() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        sim.inject_ctrl(0, a.id(), dummy_msg());
        sim.inject_ctrl(1, a.id(), dummy_msg());
        sim.run_to_quiescence();
        assert_eq!(sim.busy_us(a.id()), 20);
        assert_eq!(sim.metrics().series("arrival").len(), 2);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let a = sim.add_typed_node(
                "a",
                Recorder {
                    arrivals: vec![],
                    bounce: false,
                },
            );
            let b = sim.add_typed_node(
                "b",
                Recorder {
                    arrivals: vec![],
                    bounce: true,
                },
            );
            sim.connect_with(
                a.id(),
                b.id(),
                LinkParams {
                    latency_us: 100,
                    jitter_us: 300,
                    loss: 0.1,
                    bytes_per_sec: None,
                },
            );
            for t in 0..50 {
                sim.inject_from(t * 37, b.id(), a.id(), dummy_msg());
            }
            sim.run_to_quiescence();
            sim.node_ref(a).arrivals.clone()
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ");
    }

    #[test]
    fn send_without_link_is_dropped() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        // No link a→b configured.
        sim.inject_ctrl(0, a.id(), dummy_msg()); // a bounces to CONTROL (no link) — dropped
        sim.run_to_quiescence();
        assert!(sim.node_ref(b).arrivals.is_empty());
    }

    #[test]
    fn bandwidth_serializes_messages() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 100,
                jitter_us: 0,
                loss: 0.0,
                bytes_per_sec: Some(64_000), // dummy msg is 16+0 bytes → 250 µs each
            },
        );
        for _ in 0..4 {
            sim.inject_from(0, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        let arr = &sim.node_ref(a).arrivals;
        assert_eq!(arr.len(), 4);
        // Each back-to-back message departs one transmit-time later.
        let gaps: Vec<u64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g >= 200),
            "serialization gaps: {gaps:?}"
        );
    }

    /// A second `enable_telemetry` restarts the sampler but keeps the
    /// health engine and sketch armed before it.
    #[test]
    fn re_enabling_telemetry_keeps_health_and_sketch() {
        struct Hot;
        impl Node for Hot {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
                ctx.set_timer(100, TimerKey(0));
            }
            fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {}
            fn on_timer(&mut self, _: TimerKey, ctx: &mut dyn NodeCtx) {
                ctx.attribute(crate::sketch::DIM_SUB_BYTES, 7, 900);
                for entity in 1..=4 {
                    ctx.attribute(crate::sketch::DIM_SUB_BYTES, entity, 25);
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.add_typed_node("hot", Hot);
        sim.enable_telemetry(1_000);
        sim.enable_health(crate::health::default_rules());
        sim.enable_sketch(crate::sketch::SketchConfig::default());
        sim.enable_telemetry(1_000);
        sim.run_until(1_500);
        let t = sim.telemetry().expect("telemetry armed");
        assert_eq!(t.topks().len(), 1);
        assert!(
            t.alerts().iter().any(|a| a.rule == "entity_dominance"),
            "{:?}",
            t.alerts()
        );
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        sim.inject_ctrl(100, a.id(), dummy_msg());
        sim.inject_ctrl(200, a.id(), dummy_msg());
        let n = sim.run_until(150);
        assert_eq!(n, 1);
        assert_eq!(sim.now_us(), 150);
        let n = sim.run_until(250);
        assert_eq!(n, 1);
    }
}
