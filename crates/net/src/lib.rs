//! Threaded runtime for Gryphon nodes.
//!
//! The same [`Node`] state machines that run under the
//! deterministic simulator run here on **real OS threads** connected by
//! crossbeam channels, with wall-clock timers. The paper's wall-clock
//! microbenchmarks and the `rt_pipeline`/`rt_shard` benches use this
//! runtime; the figure reproductions use the simulator (deterministic
//! virtual time).
//!
//! Differences from the simulator, by design:
//!
//! * links deliver immediately (no modeled latency — thread scheduling
//!   provides real, not modeled, delays), so use this runtime for
//!   *throughput*, not latency shapes;
//! * there is no crash injection;
//! * determinism is not guaranteed.
//!
//! # Sharding
//!
//! A *logical* node may be backed by several worker threads
//! ([`NetBuilder::add_sharded_node`]), each running its own state
//! machine over a disjoint subset of pubends. Messages addressed to the
//! logical node are routed by [`NetMsg::pubend_key`]: pubend-scoped
//! traffic goes to the shard owning `pubend % n` (so everything for one
//! pubend stays ordered on one thread — each `PubendPipeline` has
//! exactly one owner), client/interest control traffic is broadcast to
//! every shard, and anything else lands on shard 0. Cross-pubend work
//! runs in parallel; per-pubend FIFO order is preserved because
//! crossbeam channels are FIFO per producer and a pubend never changes
//! shards.
//!
//! Each worker owns its own [`Metrics`] and protocol
//! [`Watchdogs`](gryphon_sim::Watchdogs) (no shared lock on the hot
//! path); [`RunningNet::counter`] sums the live per-worker counters and
//! [`RunningNet::stop`] merges everything into one [`NetResult`].
//!
//! # Telemetry
//!
//! [`RunningNet::start_sampler`] drives the same per-window
//! [`Observer`] as the simulator from a wall-clock thread: each window
//! probes every worker's channel occupancy (`telemetry.queue_depth.w<i>`)
//! and busy/idle utilization (`telemetry.worker_utilization.w<i>`),
//! drains the workers' sketch shards and interval rings in
//! worker-index order, and samples all protocol gauges and counter
//! rates into a [`Timeline`] judged by the default health rules,
//! returned via [`RunningNet::telemetry`] and [`NetResult::telemetry`].
//! [`RunningNet::stop`] closes the last window. Arming telemetry also
//! turns on per-dispatch service-time histograms
//! (`telemetry.service_time_us`).
//! [`RunningNet::serve_metrics`] exposes the same merged snapshot live
//! as Prometheus text over a tiny blocking-TCP endpoint, and
//! [`RunningNet::metrics_snapshot`] gives programmatic mid-run access
//! with documented merge semantics.
//!
//! # Examples
//!
//! ```
//! use gryphon_net::NetBuilder;
//! use gryphon_sim::{Node, NodeCtx, TimerKey};
//! use gryphon_types::{NetMsg, NodeId, SubInterestMsg};
//!
//! struct Counter(u64);
//! impl Node for Counter {
//!     fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) { self.0 += 1; }
//!     fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
//! }
//!
//! let mut net = NetBuilder::new();
//! let h = net.add_node("counter", Counter(0));
//! let running = net.start();
//! for _ in 0..10 {
//!     running.inject(h.id(), NetMsg::SubInterest(SubInterestMsg::full(0, vec![])));
//! }
//! running.run_for(std::time::Duration::from_millis(50));
//! let result = running.stop();
//! assert_eq!(result.node::<Counter>(h).0, 10);
//! ```

use crossbeam::channel::{bounded, Receiver, Sender};
use gryphon_sim::forensics::{self, BusyInterval, Exemplar, ExemplarReservoir, IntervalRing};
use gryphon_sim::telemetry::{Observer, TextServer, Timeline, WindowInput};
use gryphon_sim::{
    names, ForensicsConfig, Lineage, Metrics, Node, NodeCtx, PopulationSketch, SketchConfig,
    TimerKey, TraceEvent, TraceRecord, Watchdogs,
};
use gryphon_types::{NetMsg, NodeId};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::TypeId;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Storage profile for threaded-runtime processes: real files — and real
/// fsyncs through the group-commit pipeline — when `GRYPHON_STORAGE_DIR`
/// is set, heap-backed media otherwise.
///
/// The simulator always builds its brokers on
/// [`MemFactory`](gryphon_storage::MemFactory) (deterministic, modeled
/// latency); the threaded runtime is where the durability engine meets an
/// actual device. Benches and integration runs opt in by exporting
/// `GRYPHON_STORAGE_DIR=/path/to/dir`; each call gets its own `tag`
/// subdirectory under that root so concurrent nodes never share a
/// namespace.
pub fn storage_factory(tag: &str) -> Box<dyn gryphon_storage::MediaFactory> {
    match std::env::var_os("GRYPHON_STORAGE_DIR") {
        Some(root) => {
            let dir = std::path::Path::new(&root).join(tag);
            std::fs::create_dir_all(&dir).expect("GRYPHON_STORAGE_DIR must be writable");
            Box::new(gryphon_storage::FileFactory::new(dir).expect("storage dir must open"))
        }
        None => Box::new(gryphon_storage::MemFactory::new()),
    }
}

enum Ev {
    /// A message plus its enqueue instant (stamped only while telemetry
    /// is armed, so the un-profiled hot path never reads the clock) —
    /// the dequeuing worker turns the stamp into `net.queue_wait_us`
    /// and a `queue` interval on its forensics track.
    Msg(NodeId, NetMsg, Option<Instant>),
}

/// Typed handle to a node registered with [`NetBuilder::add_node`] or
/// [`NetBuilder::add_sharded_node`]. The id is the *logical* node id.
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
    /// The logical node id.
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

/// One logical node: the worker threads backing it and its handle type.
struct LogicalEntry {
    workers: Vec<usize>,
    type_id: TypeId,
}

/// Routes messages addressed to logical nodes onto worker channels.
#[derive(Clone)]
struct Router {
    senders: Arc<Vec<Sender<Ev>>>,
    logical: Arc<Vec<LogicalEntry>>,
    /// Shared with [`RunningNet`]: when armed, sends carry an enqueue
    /// stamp so queue-wait can be attributed at dequeue.
    tel_enabled: Arc<AtomicBool>,
}

impl Router {
    /// Delivers `msg` to logical node `to` (see the module docs for the
    /// shard-routing policy). `blocking` selects backpressure (harness
    /// injection) vs best-effort (node-to-node sends, where a full
    /// channel behaves like a saturated TCP connection and the
    /// protocols recover via nacks).
    fn deliver(&self, from: NodeId, to: NodeId, msg: NetMsg, blocking: bool) {
        let Some(entry) = self.logical.get(to.0 as usize) else {
            return;
        };
        let n = entry.workers.len();
        let target = if n == 1 {
            Some(entry.workers[0])
        } else {
            match msg.pubend_key() {
                Some(p) => Some(entry.workers[p.0 as usize % n]),
                // Subscription interest and client control traffic is
                // relevant to every shard (each shard matches it against
                // its own pubends); duplicate ConnectOk/Ack handling is
                // idempotent on the client side.
                None => match &msg {
                    NetMsg::Client(_) | NetMsg::SubInterest(_) => None,
                    _ => Some(entry.workers[0]),
                },
            }
        };
        match target {
            Some(w) => self.send_to(w, from, msg, blocking),
            None => {
                for &w in &entry.workers {
                    self.send_to(w, from, msg.clone(), blocking);
                }
            }
        }
    }

    fn send_to(&self, w: usize, from: NodeId, msg: NetMsg, blocking: bool) {
        if let Some(tx) = self.senders.get(w) {
            let enq = self.tel_enabled.load(Ordering::Relaxed).then(Instant::now);
            if blocking {
                let _ = tx.send(Ev::Msg(from, msg, enq));
            } else {
                let _ = tx.try_send(Ev::Msg(from, msg, enq));
            }
        }
    }
}

/// Builder: register nodes, then [`NetBuilder::start`].
pub struct NetBuilder {
    workers: Vec<(String, Box<dyn Node>)>,
    logical: Vec<LogicalEntry>,
}

impl Default for NetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetBuilder {
            workers: Vec::new(),
            logical: Vec::new(),
        }
    }

    /// Registers a node; its logical id is its registration order.
    pub fn add_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        self.add_entry(name, vec![Box::new(Typed(node))], TypeId::of::<Typed<T>>())
    }

    /// Registers a logical node backed by one worker thread per element
    /// of `shards`. Shard `i` owns every pubend with `p.0 % n == i`; see
    /// the module docs for the routing policy. All shards share the one
    /// logical id returned here.
    pub fn add_sharded_node<T: Node + 'static>(&mut self, name: &str, shards: Vec<T>) -> Handle<T> {
        assert!(
            !shards.is_empty(),
            "a sharded node needs at least one shard"
        );
        let boxed: Vec<Box<dyn Node>> = shards
            .into_iter()
            .map(|s| Box::new(Typed(s)) as Box<dyn Node>)
            .collect();
        self.add_entry(name, boxed, TypeId::of::<Typed<T>>())
    }

    fn add_entry<T>(
        &mut self,
        name: &str,
        shards: Vec<Box<dyn Node>>,
        type_id: TypeId,
    ) -> Handle<T> {
        let n = shards.len();
        let mut workers = Vec::with_capacity(n);
        for (i, node) in shards.into_iter().enumerate() {
            let wname = if n == 1 {
                name.to_owned()
            } else {
                format!("{name}.{i}")
            };
            workers.push(self.workers.len());
            self.workers.push((wname, node));
        }
        let id = NodeId(self.logical.len() as u32);
        self.logical.push(LogicalEntry { workers, type_id });
        Handle {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// Spawns one thread per worker and starts them (running `on_start`).
    pub fn start(self) -> RunningNet {
        let n = self.workers.len();
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<Ev>(65_536);
            senders.push(tx);
            receivers.push(rx);
        }
        // Telemetry probes: queue-depth sampling needs each worker's
        // channel occupancy, so keep receiver clones around (they only
        // ever call `len()`, never `recv`).
        let probe_receivers: Vec<Receiver<Ev>> = receivers.iter().map(Receiver::clone).collect();
        // `GRYPHON_PROFILE=1` arms the contention profiler from the very
        // first dispatch (bench baselines run with it on); otherwise
        // profiling turns on when `start_sampler` arms telemetry.
        let profile_env = std::env::var_os("GRYPHON_PROFILE").is_some_and(|v| v != "0");
        let tel_enabled = Arc::new(AtomicBool::new(profile_env));
        let active_ns: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let forensics_cfg = ForensicsConfig::default();
        let intervals: Vec<Arc<Mutex<IntervalRing>>> = (0..n)
            .map(|_| {
                Arc::new(Mutex::new(IntervalRing::new(
                    forensics_cfg.interval_capacity,
                )))
            })
            .collect();
        // Always-on population attribution: one O(K) sketch shard per
        // worker, merged in worker-index order by each observer window.
        // Attributions arrive at sweep cadence, not per delivery, so
        // each shard's lock is uncontended in steady state.
        let sketches: Vec<Arc<Mutex<PopulationSketch>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(PopulationSketch::new(SketchConfig::default()))))
            .collect();
        let senders = Arc::new(senders);
        // Worker → logical-id map for event attribution.
        let mut owner = vec![NodeId(0); n];
        for (lid, entry) in self.logical.iter().enumerate() {
            for &w in &entry.workers {
                owner[w] = NodeId(lid as u32);
            }
        }
        let logical = Arc::new(self.logical);
        let router = Router {
            senders: Arc::clone(&senders),
            logical: Arc::clone(&logical),
            tel_enabled: Arc::clone(&tel_enabled),
        };
        let metrics: Vec<Arc<Mutex<Metrics>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Metrics::default())))
            .collect();
        // Always-on tail forensics: every worker's lineage shard carries
        // an exemplar reservoir from the start (offers are two compares
        // against a cached threshold in steady state), so the slowest
        // end-to-end spans of any run are attributable after the fact.
        let lineages: Vec<Arc<Mutex<Lineage>>> = (0..n)
            .map(|_| {
                let mut l = Lineage::default();
                l.arm_exemplars(ExemplarReservoir::new(&forensics_cfg));
                Arc::new(Mutex::new(l))
            })
            .collect();
        let mut joins = Vec::with_capacity(n);
        for (i, ((name, mut node), rx)) in self.workers.into_iter().zip(receivers).enumerate() {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics[i]);
            let lineage = Arc::clone(&lineages[i]);
            let router = router.clone();
            let me = owner[i];
            let tel_enabled = Arc::clone(&tel_enabled);
            let active_ns = Arc::clone(&active_ns[i]);
            let intervals = Arc::clone(&intervals[i]);
            let sketch = Arc::clone(&sketches[i]);
            joins.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        let mut worker = Worker {
                            me,
                            index: i as u32,
                            router,
                            metrics,
                            watchdogs: Watchdogs::default(),
                            lineage,
                            epoch,
                            timers: BinaryHeap::new(),
                            rng: SmallRng::seed_from_u64(i as u64),
                            busy_us: 0,
                            tel_enabled,
                            active_ns,
                            intervals,
                            sketch,
                        };
                        worker.with_ctx(|node, ctx| node.on_start(ctx), node.as_mut());
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let timeout = worker.next_deadline(Duration::from_millis(20));
                            match rx.recv_timeout(timeout) {
                                Ok(Ev::Msg(from, msg, enq)) => {
                                    worker.note_queue_wait(enq);
                                    worker.with_ctx(
                                        |node, ctx| node.on_message(from, msg, ctx),
                                        node.as_mut(),
                                    );
                                }
                                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                            }
                            worker.fire_due(node.as_mut());
                        }
                        node
                    })
                    .expect("spawn node thread"),
            );
        }
        RunningNet {
            router,
            stop,
            joins,
            lineages,
            logical,
            epoch,
            tel_enabled,
            shards: Shards {
                metrics,
                tel_metrics: Arc::new(Mutex::new(Metrics::default())),
                receivers: probe_receivers,
                active_ns,
                intervals,
                sketches,
            },
            sampler: None,
            scrape: None,
        }
    }
}

#[derive(PartialEq, Eq)]
struct TimerEntry {
    deadline: Instant,
    key: TimerKey,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.deadline.cmp(&self.deadline) // min-heap
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Worker {
    /// Logical id of the node this worker backs (shared by all shards).
    me: NodeId,
    /// Worker-thread index — the forensics track id in exported traces.
    index: u32,
    router: Router,
    /// This worker's private metrics shard (uncontended in steady state;
    /// [`RunningNet::counter`] locks it briefly to read).
    metrics: Arc<Mutex<Metrics>>,
    /// Per-worker protocol watchdogs fed from this shard's trace stream.
    watchdogs: Watchdogs,
    /// Per-worker delivery-lineage shard, merged deterministically (in
    /// worker-index order) at [`RunningNet::stop`] like the metrics.
    lineage: Arc<Mutex<Lineage>>,
    epoch: Instant,
    timers: BinaryHeap<TimerEntry>,
    rng: SmallRng,
    busy_us: u64,
    /// Set once [`RunningNet::start_sampler`] arms telemetry; gates the
    /// per-dispatch timing below so the hot path pays nothing otherwise.
    tel_enabled: Arc<AtomicBool>,
    /// Wall-clock nanoseconds this worker spent inside node callbacks
    /// (shared with the sampler thread, which derives per-window
    /// busy/idle utilization from its deltas).
    active_ns: Arc<AtomicU64>,
    /// Bounded per-worker busy-interval ring (dispatch/queue slices for
    /// the exported trace); drained by every observer window.
    intervals: Arc<Mutex<IntervalRing>>,
    /// This worker's population-sketch shard (O(K) memory), fed by
    /// [`NodeCtx::attribute`] and merged in worker-index order by every
    /// observer window.
    sketch: Arc<Mutex<PopulationSketch>>,
}

impl Worker {
    fn next_deadline(&self, cap: Duration) -> Duration {
        match self.timers.peek() {
            Some(e) => e
                .deadline
                .saturating_duration_since(Instant::now())
                .min(cap),
            None => cap,
        }
    }

    fn fire_due(&mut self, node: &mut dyn Node) {
        loop {
            let due = matches!(self.timers.peek(),
                Some(e) if e.deadline <= Instant::now());
            if !due {
                break;
            }
            let key = self.timers.pop().expect("peeked").key;
            self.with_ctx(|n, ctx| n.on_timer(key, ctx), node);
        }
    }

    /// Attributes the time a just-dequeued message spent in this
    /// worker's channel: the `net.queue_wait_us` histogram plus a
    /// `queue` slice on the worker's forensics track. No-op for
    /// unstamped messages (telemetry was off at enqueue).
    fn note_queue_wait(&mut self, enq: Option<Instant>) {
        let Some(t0) = enq else {
            return;
        };
        let wait = t0.elapsed();
        self.metrics
            .lock()
            .observe(names::NET_QUEUE_WAIT_US, wait.as_secs_f64() * 1e6);
        let start_us = t0.duration_since(self.epoch).as_micros() as u64;
        let dur_us = wait.as_micros() as u64;
        if dur_us > 0 {
            self.intervals.lock().push(BusyInterval {
                track: self.index,
                kind: forensics::KIND_QUEUE,
                start_us,
                dur_us,
            });
        }
    }

    fn with_ctx(&mut self, f: impl FnOnce(&mut dyn Node, &mut dyn NodeCtx), node: &mut dyn Node) {
        // Service-time probe: only timed once telemetry is armed (an
        // `Instant::now()` pair per dispatch is cheap but not free, so
        // the un-sampled hot path skips it entirely).
        let timed = self.tel_enabled.load(Ordering::Relaxed);
        let started = timed.then(Instant::now);
        // Split borrows: move timers out so the ctx can push new ones.
        let mut pending_timers = Vec::new();
        {
            let mut ctx = ThreadCtx {
                worker: self,
                new_timers: &mut pending_timers,
            };
            f(node, &mut ctx);
        }
        if let Some(t0) = started {
            let dt = t0.elapsed();
            self.active_ns
                .fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            self.metrics
                .lock()
                .observe(names::TELEMETRY_SERVICE_TIME_US, dt.as_secs_f64() * 1e6);
            let dur_us = dt.as_micros() as u64;
            if dur_us > 0 {
                self.intervals.lock().push(BusyInterval {
                    track: self.index,
                    kind: forensics::KIND_DISPATCH,
                    start_us: t0.duration_since(self.epoch).as_micros() as u64,
                    dur_us,
                });
            }
        }
        for (delay, key) in pending_timers {
            self.timers.push(TimerEntry {
                deadline: Instant::now() + Duration::from_micros(delay),
                key,
            });
        }
    }
}

struct ThreadCtx<'a> {
    worker: &'a mut Worker,
    new_timers: &'a mut Vec<(u64, TimerKey)>,
}

impl NodeCtx for ThreadCtx<'_> {
    fn now_us(&self) -> u64 {
        self.worker.epoch.elapsed().as_micros() as u64
    }

    fn me(&self) -> NodeId {
        self.worker.me
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) {
        // Best-effort: a full channel drops the message, like a
        // saturated TCP connection with a dead reader; the protocols
        // recover via nacks.
        self.worker.router.deliver(self.worker.me, to, msg, false);
    }

    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.new_timers.push((delay_us, key));
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.worker.rng
    }

    fn work(&mut self, cost_us: u64) {
        self.worker.busy_us += cost_us;
    }

    fn record(&mut self, series: &str, value: f64) {
        let now = self.now_us();
        self.worker.metrics.lock().record(now, series, value);
    }

    fn count(&mut self, counter: &str, delta: f64) {
        self.worker.metrics.lock().count(counter, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.worker.metrics.lock().observe(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.worker.metrics.lock().set_gauge(name, value);
    }

    fn trace(&mut self, event: TraceEvent) {
        // No ring buffer here (the threaded runtime is for throughput,
        // not post-mortems), but the protocol watchdogs still consume
        // every event so invariant violations surface as watchdog.*
        // counters — exactly what the sharded-net tests assert on.
        let rec = TraceRecord {
            t_us: self.worker.epoch.elapsed().as_micros() as u64,
            node: self.worker.me,
            event,
        };
        let mut m = self.worker.metrics.lock();
        self.worker.watchdogs.observe(&rec, &mut m);
        // The lineage lock is this worker's own — uncontended except
        // during a stop()-time merge.
        self.worker.lineage.lock().observe(&rec, &mut m);
    }

    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        if dur_us == 0 || !self.worker.tel_enabled.load(Ordering::Relaxed) {
            return;
        }
        let now = self.worker.epoch.elapsed().as_micros() as u64;
        self.worker.intervals.lock().push(BusyInterval {
            track: self.worker.index,
            kind,
            start_us: now.saturating_sub(dur_us),
            dur_us,
        });
    }

    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.worker.sketch.lock().attribute(dim, entity, weight);
    }
}

/// The background sampler thread started by [`RunningNet::start_sampler`].
struct SamplerHandle {
    /// Shared with the sampler thread; [`RunningNet::telemetry`] and
    /// [`RunningNet::stop`] read the timeline out of it.
    observer: Arc<Mutex<Observer>>,
    stop: Arc<AtomicBool>,
    /// Yields the thread's window clock, which the final window at
    /// [`RunningNet::stop`] continues.
    join: std::thread::JoinHandle<WindowClock>,
}

/// Where the last wall-clock window closed: the instant and each
/// worker's cumulative busy nanoseconds, from which the next window
/// derives per-worker utilization.
struct WindowClock {
    wall: Instant,
    active_ns: Vec<u64>,
}

/// Every per-worker observation shard plus the sampler-owned one —
/// what a snapshot merges and what a window drains.
#[derive(Clone)]
struct Shards {
    /// Worker metric shards (each uncontended in steady state).
    metrics: Vec<Arc<Mutex<Metrics>>>,
    /// Runtime-health gauges and observer output (queue depth, worker
    /// utilization, sketch gauges, alert and drop counters) — a
    /// separate shard so the sampler never writes into a worker's
    /// private metrics.
    tel_metrics: Arc<Mutex<Metrics>>,
    /// Receiver clones kept solely for occupancy probes (`len()`).
    receivers: Vec<Receiver<Ev>>,
    /// Wall-clock nanoseconds each worker spent inside node callbacks.
    active_ns: Vec<Arc<AtomicU64>>,
    /// Per-worker forensics interval rings.
    intervals: Vec<Arc<Mutex<IntervalRing>>>,
    /// Per-worker population-sketch shards.
    sketches: Vec<Arc<Mutex<PopulationSketch>>>,
}

impl Shards {
    /// Merges the metric shards into one consistent snapshot.
    ///
    /// Mid-run merge semantics (the live `/metrics` endpoint and
    /// [`RunningNet::metrics_snapshot`] both use this, so a scrape never
    /// sees half-merged values):
    ///
    /// * shards are merged **in worker-index order**, same as the final
    ///   [`RunningNet::stop`] merge — counters and histograms sum, series
    ///   concatenate, same-named gauges add;
    /// * each shard's lock is held only while that shard is copied, so a
    ///   snapshot is per-shard-atomic: it never tears an individual
    ///   counter, but shards are copied at slightly different instants
    ///   (unavoidable without a stop-the-world pause, and fine for
    ///   monotone counters);
    /// * the telemetry shard (`tel_metrics`) merges **last**, and the
    ///   momentary queue-depth gauges are re-probed and overwritten after
    ///   the merge, so gauges reflect "now", not the sampler's last window.
    fn snapshot(&self) -> Metrics {
        let mut merged = self.merged_workers();
        merged.merge(&self.tel_metrics.lock());
        self.probe_queue_depth(&mut merged);
        merged
    }

    /// The worker metric shards merged in worker-index order.
    fn merged_workers(&self) -> Metrics {
        let mut merged = Metrics::default();
        for m in &self.metrics {
            merged.merge(&m.lock());
        }
        merged
    }

    /// Sets each worker's channel occupancy (`telemetry.queue_depth.w<i>`)
    /// and their total. `set_gauge`, not merge-add, so the total
    /// overwrites whatever stale sum a shard merge produced.
    fn probe_queue_depth(&self, metrics: &mut Metrics) {
        let mut total = 0usize;
        for (i, rx) in self.receivers.iter().enumerate() {
            let depth = rx.len();
            total += depth;
            metrics.set_gauge(
                &format!("{}.w{i}", names::TELEMETRY_QUEUE_DEPTH),
                depth as f64,
            );
        }
        metrics.set_gauge(names::TELEMETRY_QUEUE_DEPTH, total as f64);
    }

    /// Closes one observer window at `t_us`: drains every worker's
    /// sketch shard and interval ring in worker-index order, probes
    /// queue depth and per-worker utilization since `clock`, and runs
    /// [`Observer::window`] over the merged worker metrics with the
    /// sampler-owned shard as the observer's registry. `exemplars` are
    /// handed over only by the final window at [`RunningNet::stop`].
    fn window(
        &self,
        observer: &Mutex<Observer>,
        clock: &mut WindowClock,
        t_us: u64,
        exemplars: Vec<Exemplar>,
        exemplars_dropped: u64,
    ) {
        let now = Instant::now();
        let window_ns = now.duration_since(clock.wall).as_nanos() as u64;
        clock.wall = now;
        let mut input = WindowInput {
            shards: Some(self.merged_workers()),
            exemplars,
            exemplars_dropped,
            ..WindowInput::default()
        };
        for ring in &self.intervals {
            let mut ring = ring.lock();
            input.intervals_dropped += ring.take_dropped();
            input.intervals.extend(ring.drain());
        }
        let mut observer = observer.lock();
        if let Some(sketch) = observer.sketch_mut() {
            for shard in &self.sketches {
                let fresh = PopulationSketch::new(sketch.config());
                sketch.absorb(&std::mem::replace(&mut *shard.lock(), fresh));
            }
        }
        let mut tm = self.tel_metrics.lock();
        self.probe_queue_depth(&mut tm);
        for (i, a) in self.active_ns.iter().enumerate() {
            let cur = a.load(Ordering::Relaxed);
            let busy = cur.saturating_sub(clock.active_ns[i]);
            clock.active_ns[i] = cur;
            let util = if window_ns > 0 {
                (busy as f64 / window_ns as f64).min(1.0)
            } else {
                0.0
            };
            tm.set_gauge(
                &format!("{}.w{i}", names::TELEMETRY_WORKER_UTILIZATION),
                util,
            );
        }
        observer.window(t_us, &mut tm, input);
    }
}

/// A started network; inject messages, then [`RunningNet::stop`].
pub struct RunningNet {
    router: Router,
    stop: Arc<AtomicBool>,
    joins: Vec<std::thread::JoinHandle<Box<dyn Node>>>,
    lineages: Vec<Arc<Mutex<Lineage>>>,
    logical: Arc<Vec<LogicalEntry>>,
    /// Wall-clock zero shared with every worker; telemetry windows are
    /// stamped as microseconds since this instant.
    epoch: Instant,
    tel_enabled: Arc<AtomicBool>,
    shards: Shards,
    sampler: Option<SamplerHandle>,
    scrape: Option<TextServer>,
}

impl RunningNet {
    /// Injects a message from the harness (sender =
    /// [`gryphon_sim::CONTROL_NODE`]), with backpressure.
    pub fn inject(&self, to: NodeId, msg: NetMsg) {
        self.router
            .deliver(gryphon_sim::CONTROL_NODE, to, msg, true);
    }

    /// Lets the network run for `d` wall-clock time.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Live value of counter `name`, summed across worker shards —
    /// lets harnesses poll for progress without stopping the net.
    pub fn counter(&self, name: &str) -> f64 {
        self.shards
            .metrics
            .iter()
            .map(|m| m.lock().counter(name))
            .sum()
    }

    /// A consistent mid-run snapshot of all metric kinds (counters,
    /// gauges, histograms, series) merged across every worker shard —
    /// see `Shards::snapshot` for the exact semantics. Safe to call at
    /// any point; the live `/metrics` endpoint serves exactly this.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.shards.snapshot()
    }

    /// Arms telemetry and spawns a background sampler thread that closes
    /// an [`Observer`] window every `interval` — the wall-clock twin of
    /// the simulator's virtual-time windows. Each window probes every
    /// worker's channel occupancy (`telemetry.queue_depth.w<i>`) and
    /// busy/idle utilization (`telemetry.worker_utilization.w<i>`,
    /// fraction of the window spent inside node callbacks), drains the
    /// workers' sketch shards and interval rings, samples a merged
    /// snapshot and judges it with the default health rules, so
    /// `lag_skew` and `entity_dominance` fire live. Also enables
    /// per-dispatch service-time histograms on every worker.
    /// Idempotent: a second call is a no-op.
    pub fn start_sampler(&mut self, interval: Duration) {
        if self.sampler.is_some() {
            return;
        }
        self.tel_enabled.store(true, Ordering::Relaxed);
        let interval = interval.max(Duration::from_micros(1));
        let mut observer = Observer::new(interval.as_micros() as u64);
        // Counters primed so the `health.alert.*` family is visible
        // even when nothing fires.
        let health = gryphon_sim::HealthEngine::new(gryphon_sim::default_rules());
        health.prime(&mut self.shards.tel_metrics.lock());
        observer.arm_health(health);
        observer.arm_sketch(SketchConfig::default());
        let observer = Arc::new(Mutex::new(observer));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_observer = Arc::clone(&observer);
        let thread_stop = Arc::clone(&stop);
        let shards = self.shards.clone();
        let epoch = self.epoch;
        let mut clock = WindowClock {
            wall: Instant::now(),
            active_ns: vec![0; shards.active_ns.len()],
        };
        let join = std::thread::Builder::new()
            .name("telemetry-sampler".into())
            .spawn(move || {
                loop {
                    std::thread::sleep(interval);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let t_us = epoch.elapsed().as_micros() as u64;
                    shards.window(&thread_observer, &mut clock, t_us, Vec::new(), 0);
                }
                clock
            })
            .expect("spawn telemetry sampler");
        self.sampler = Some(SamplerHandle {
            observer,
            stop,
            join,
        });
    }

    /// The telemetry timeline collected so far (a clone; `None` until
    /// [`RunningNet::start_sampler`] has been called).
    pub fn telemetry(&self) -> Option<Timeline> {
        self.sampler
            .as_ref()
            .map(|h| h.observer.lock().timeline().clone())
    }

    /// Serves the merged metrics snapshot as Prometheus text over a tiny
    /// blocking-TCP endpoint (e.g. `addr = "127.0.0.1:0"`); returns the
    /// bound address. The endpoint stays up until [`RunningNet::stop`].
    ///
    /// # Errors
    ///
    /// Returns the bind error if `addr` cannot be bound.
    pub fn serve_metrics(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let shards = self.shards.clone();
        // `/healthz` reports the live alert count — arm the sampler
        // before serving if health-rule evaluation should feed it.
        let health_observer = self.sampler.as_ref().map(|h| Arc::clone(&h.observer));
        let server = TextServer::serve_with_health(
            addr,
            move || gryphon_sim::lineage::prometheus_text(&shards.snapshot()),
            move || match &health_observer {
                Some(o) => format!("alerts {}\n", o.lock().timeline().alerts().len()),
                None => "alerts 0\n".to_owned(),
            },
        )?;
        let bound = server.local_addr();
        self.scrape = Some(server);
        Ok(bound)
    }

    /// Stops all node threads and returns their final states.
    ///
    /// With the sampler armed, the run ends on one last observer window
    /// after every worker has stopped. That window alone carries the
    /// tail exemplars, resolved against the *merged* lineage so a span
    /// whose stages ran on different workers still renders end to end
    /// — the one intended difference from the simulator, which hands
    /// exemplars over every window. Without one, a throwaway window
    /// over the folded sketch shards still publishes the `sketch.*`
    /// gauges into [`NetResult::metrics`].
    pub fn stop(mut self) -> NetResult {
        // Scrape endpoint and sampler go down first so neither observes
        // a half-stopped net.
        drop(self.scrape.take());
        let sampler = self.sampler.take().map(|h| {
            h.stop.store(true, Ordering::Relaxed);
            let clock = h.join.join().expect("telemetry sampler thread");
            (h.observer, clock)
        });
        self.stop.store(true, Ordering::Relaxed);
        let workers: Vec<Box<dyn Node>> = self
            .joins
            .drain(..)
            .map(|j| j.join().expect("node thread"))
            .collect();
        // Lineage shards merge in worker-index order — the same
        // deterministic discipline as the metrics merge, so repeated
        // runs of a deterministic workload produce identical ledgers.
        // The merge also absorbs every worker's exemplar reservoir.
        let mut lineage = Lineage::default();
        for l in &self.lineages {
            lineage.merge(&l.lock());
        }
        let telemetry = sampler.map(|(observer, mut clock)| {
            let (dropped, samples) = match lineage.exemplars_mut() {
                Some(r) => (r.take_dropped(), r.drain_sorted()),
                None => (0, Vec::new()),
            };
            let exemplars = samples
                .iter()
                .map(|s| Exemplar::resolve(s, lineage.span(s.key)))
                .collect();
            let t_us = self.epoch.elapsed().as_micros() as u64;
            self.shards
                .window(&observer, &mut clock, t_us, exemplars, dropped);
            Arc::try_unwrap(observer)
                .map(|m| m.into_inner().into_timeline())
                .unwrap_or_else(|arc| arc.lock().timeline().clone())
        });
        // The sampler-owned shard merges after the worker shards, same
        // position it holds in live snapshots.
        let mut metrics = self.shards.merged_workers();
        metrics.merge(&self.shards.tel_metrics.lock());
        if telemetry.is_none() {
            // Unsampled: one throwaway window over the folded sketch
            // shards, so the run still reports its lag-spectrum and
            // dominance gauges.
            let mut observer = Observer::new(1);
            observer.arm_sketch(SketchConfig::default());
            if let Some(sketch) = observer.sketch_mut() {
                for shard in &self.shards.sketches {
                    sketch.absorb(&shard.lock());
                }
            }
            let t_us = self.epoch.elapsed().as_micros() as u64;
            observer.window(t_us, &mut metrics, WindowInput::default());
        }
        NetResult {
            workers,
            metrics,
            lineage,
            telemetry,
            logical: Arc::clone(&self.logical),
        }
    }
}

/// Final node states and metrics after [`RunningNet::stop`].
pub struct NetResult {
    workers: Vec<Box<dyn Node>>,
    /// Per-worker metrics merged into one run-wide view.
    pub metrics: Metrics,
    /// Per-worker delivery-lineage shards merged into one run-wide
    /// ledger (worker-index order; see [`RunningNet::stop`]).
    pub lineage: Lineage,
    /// Wall-clock telemetry timeline, present when
    /// [`RunningNet::start_sampler`] ran during the net's lifetime.
    pub telemetry: Option<Timeline>,
    logical: Arc<Vec<LogicalEntry>>,
}

impl NetResult {
    /// Borrows a node's final state (shard 0 for sharded nodes).
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch (impossible for handles from the same
    /// builder).
    pub fn node<T: Node + 'static>(&self, h: Handle<T>) -> &T {
        self.shard(h, 0)
    }

    /// Borrows one shard of a sharded node's final state.
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch or an out-of-range shard index.
    pub fn shard<T: Node + 'static>(&self, h: Handle<T>, shard: usize) -> &T {
        let entry = &self.logical[h.id.0 as usize];
        assert_eq!(
            entry.type_id,
            TypeId::of::<Typed<T>>(),
            "handle type mismatch"
        );
        let node = self.workers[entry.workers[shard]].as_ref();
        let typed: &Typed<T> = unsafe {
            // SAFETY: TypeId verified above; nodes are never replaced.
            &*(node as *const dyn Node as *const Typed<T>)
        };
        &typed.0
    }

    /// Number of worker shards backing logical node `h`.
    pub fn shard_count<T>(&self, h: Handle<T>) -> usize {
        self.logical[h.id.0 as usize].workers.len()
    }

    /// Total protocol-watchdog violations across all workers (gap-free
    /// constream, monotone doubt, only-once logging).
    pub fn watchdog_violations(&self) -> f64 {
        self.metrics.counter(names::WATCHDOG_CONSTREAM_GAP)
            + self.metrics.counter(names::WATCHDOG_DOUBT_REGRESSION)
            + self.metrics.counter(names::WATCHDOG_DUPLICATE_LOG)
    }

    /// Exactly-once violations the merged delivery ledger flagged across
    /// all workers.
    pub fn ledger_violations(&self) -> u64 {
        self.lineage.violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{PubendId, PublishMsg, SubInterestMsg};

    struct Echo {
        got: u64,
        timer_fired: bool,
    }

    impl Node for Echo {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
            ctx.set_timer(5_000, TimerKey(1));
        }
        fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
            self.got += 1;
            ctx.count("echo.got", 1.0);
            if from != gryphon_sim::CONTROL_NODE {
                ctx.send(from, msg);
            }
        }
        fn on_timer(&mut self, _: TimerKey, ctx: &mut dyn NodeCtx) {
            self.timer_fired = true;
            ctx.record("echo.timer", 1.0);
        }
    }

    fn dummy() -> NetMsg {
        NetMsg::SubInterest(SubInterestMsg::full(0, vec![]))
    }

    fn publish(p: u32) -> NetMsg {
        NetMsg::Publish(PublishMsg {
            pubend: PubendId(p),
            attrs: Default::default(),
            payload: Default::default(),
        })
    }

    #[test]
    fn messages_flow_between_threads() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let c = b.add_node(
            "c",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        for _ in 0..100 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert_eq!(result.node(a).got, 100);
        assert_eq!(result.node(c).got, 0);
        assert_eq!(result.metrics.counter("echo.got"), 100.0);
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert!(result.node(a).timer_fired, "5 ms timer within 50 ms run");
        assert_eq!(result.metrics.series("echo.timer").len(), 1);
    }

    #[test]
    fn sharded_node_routes_by_pubend_and_broadcasts_control() {
        let mut b = NetBuilder::new();
        let shards: Vec<Echo> = (0..4)
            .map(|_| Echo {
                got: 0,
                timer_fired: false,
            })
            .collect();
        let h = b.add_sharded_node("shards", shards);
        let net = b.start();
        // 8 pubends × 3 messages: pubend p lands on shard p % 4.
        for p in 0..8u32 {
            for _ in 0..3 {
                net.inject(h.id(), publish(p));
            }
        }
        // Unkeyed control traffic is broadcast to every shard.
        net.inject(h.id(), dummy());
        net.run_for(Duration::from_millis(80));
        let result = net.stop();
        assert_eq!(result.shard_count(h), 4);
        for s in 0..4 {
            // Two pubends × 3 each + 1 broadcast control message.
            assert_eq!(result.shard(h, s).got, 7, "shard {s}");
        }
        // Per-worker metrics merged on stop: 4 shards × 7 messages.
        assert_eq!(result.metrics.counter("echo.got"), 28.0);
        assert_eq!(result.watchdog_violations(), 0.0);
    }

    #[test]
    fn sampler_collects_runtime_health_series() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let mut net = b.start();
        net.start_sampler(Duration::from_millis(5));
        for _ in 0..200 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(60));
        // Live timeline is readable mid-run...
        let live = net.telemetry().expect("sampler armed");
        assert!(!live.is_empty(), "sampler took at least one window");
        let result = net.stop();
        // ...and the final timeline rides out on the NetResult.
        let t = result.telemetry.expect("telemetry present after stop");
        for series in [
            "telemetry.queue_depth",
            "telemetry.queue_depth.w0",
            "telemetry.worker_utilization.w0",
            "echo.got.rate",
        ] {
            assert!(
                !t.series(series).is_empty(),
                "series {series} missing; have {:?}",
                t.series_names()
            );
        }
        // Arming telemetry turns on the per-dispatch service-time
        // histogram on every worker.
        assert!(result
            .metrics
            .histogram_names()
            .contains(&names::TELEMETRY_SERVICE_TIME_US));
    }

    #[test]
    fn metrics_snapshot_is_consistent_mid_run() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        for _ in 0..50 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(50));
        let snap = net.metrics_snapshot();
        // All three metric kinds come back in one consistent view:
        // counters from the worker shard, plus freshly probed
        // queue-depth gauges (drained by now, so zero).
        assert_eq!(snap.counter("echo.got"), 50.0);
        assert_eq!(snap.gauge("telemetry.queue_depth"), Some(0.0));
        assert_eq!(snap.gauge("telemetry.queue_depth.w0"), Some(0.0));
        net.stop();
    }

    #[test]
    fn serve_metrics_scrapes_prometheus_text_mid_run() {
        use std::io::{Read as _, Write as _};
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let mut net = b.start();
        let addr = net.serve_metrics("127.0.0.1:0").expect("bind scrape");
        for _ in 0..25 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(50));
        let mut sock = std::net::TcpStream::connect(addr).expect("connect scrape");
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send request");
        let mut resp = String::new();
        sock.read_to_string(&mut resp).expect("read response");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp}");
        assert!(resp.contains("# TYPE echo_got counter"), "got: {resp}");
        assert!(resp.contains("echo_got 25"), "got: {resp}");
        assert!(
            resp.contains("# TYPE telemetry_queue_depth gauge"),
            "got: {resp}"
        );
        net.stop();
    }
}
