//! Builds the PHB → IB → SHB → subscriber-host tree on the threaded
//! runtime and drives one workload through it with an open-loop
//! generator.

use crate::check;
use crate::host::{HostCounters, Receipt, Session, SubHost};
use crate::procfs::{self, ThreadCpu};
use crate::trace::{self, DispatchSpan, StorageSpan, TimedFactory, Traced};
use crate::workload::{
    broker_config, Role, Workload, DORMANT_PERIOD_US, LEAD_US, PROBE_INTERVAL_US, PUBENDS,
};
use gryphon::{Broker, SubscriberClient, SubscriberConfig};
use gryphon_net::{Handle, NetBuilder, RunningNet};
use gryphon_storage::{MediaFactory, MemFactory};
use gryphon_types::{Attributes, NetMsg, NodeId, PubendId, PublishMsg, SubscriberId};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker thread names, in node-id order. Broker CPU is the first three.
pub const NODES: [&str; 4] = ["phb", "ib", "shb", "subhost"];

/// Broker worker threads: the CPU a broker deployment pays.
pub const BROKERS: [&str; 3] = ["phb", "ib", "shb"];

const PHB: NodeId = NodeId(0);
const SHB: NodeId = NodeId(2);

/// Far enough in the future never to fire during a run.
const NEVER_US: u64 = 1_000_000_000_000;

/// How long the benchmark waits for set-up or for the last deliveries
/// before declaring the run failed.
const PATIENCE: Duration = Duration::from_secs(30);

/// First connects in flight at once (see [`SubHost`]).
const CONNECT_WINDOW: usize = 32;

/// Application payload per event (the paper's 250 bytes).
const PAYLOAD_LEN: usize = 250;

/// A started network and the handles to read it back.
pub struct Started {
    net: RunningNet,
    brokers: [Handle<Traced<Broker>>; 3],
    host: Handle<Traced<SubHost>>,
    counters: Arc<HostCounters>,
    /// When `NetBuilder::start` was called.
    pub started: Instant,
    /// Seconds from start until every subscriber had its `ConnectOk`.
    pub setup_s: f64,
}

fn client_config(w: &Workload, role: Role) -> SubscriberConfig {
    let mut cfg = SubscriberConfig {
        ack_interval_us: w.ack_interval_us,
        probe_interval_us: PROBE_INTERVAL_US,
        ..SubscriberConfig::default()
    };
    // A client's disconnect timer re-arms every period and acts only
    // while connected. Dormant subscribers retry every period, so each
    // leaves within one period of its `ConnectOk` however long set-up
    // takes, and never returns.
    let (period, phase, outage) = match role {
        Role::Live => return cfg,
        Role::Dormant => (DORMANT_PERIOD_US, DORMANT_PERIOD_US, NEVER_US),
        Role::Reconnect { phase_us } => (w.outage_period_us, phase_us, w.outage_us),
    };
    cfg.disconnect_period_us = Some(period);
    cfg.disconnect_phase_us = Some(phase);
    cfg.disconnect_duration_us = outage;
    cfg
}

/// Builds the tree for `w` and starts it, waiting until every durable
/// subscriber is connected. With `traced`, every node records spans and
/// every broker's storage is timed.
pub fn start(w: &Workload, traced: bool) -> Result<Started, String> {
    let cfg = broker_config();
    let factory = || -> Box<dyn MediaFactory> {
        if traced {
            Box::new(TimedFactory::new(Box::new(MemFactory::new())))
        } else {
            Box::new(MemFactory::new())
        }
    };
    let wrap = |b: Broker| {
        let mut t = Traced::new(b);
        t.enabled = traced;
        t
    };
    let mut phb =
        Broker::new(0, factory(), cfg.clone()).hosting_pubends((0..PUBENDS).map(PubendId));
    phb.add_child(NodeId(1));
    let mut ib = Broker::new(1, factory(), cfg.clone());
    ib.set_parent(PHB);
    ib.add_child(SHB);
    let mut shb = Broker::new(2, factory(), cfg).hosting_subscribers();
    shb.set_parent(NodeId(1));
    let clients = w
        .subs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SubscriberClient::new(
                SubscriberId(1 + i as u64),
                SHB,
                s.filter.expr().as_str(),
                client_config(w, s.role),
            )
        })
        .collect();
    let counters = Arc::new(HostCounters::default());
    let mut host = Traced::new(SubHost::new(
        clients,
        1,
        CONNECT_WINDOW,
        w.dormant_from(),
        Arc::clone(&counters),
    ));
    host.enabled = traced;

    let mut b = NetBuilder::new();
    let brokers = [
        b.add_node(NODES[0], wrap(phb)),
        b.add_node(NODES[1], wrap(ib)),
        b.add_node(NODES[2], wrap(shb)),
    ];
    let host = b.add_node(NODES[3], host);
    let started = Instant::now();
    let net = b.start();
    let n = w.subs.len() as u64;
    while counters.first_connect_oks.load(Ordering::Relaxed) < n {
        if started.elapsed() > PATIENCE {
            net.stop();
            return Err(format!(
                "set-up: only {} of {n} subscribers connected",
                counters.first_connect_oks.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Started {
        net,
        brokers,
        host,
        counters,
        started,
        setup_s,
    })
}

impl Started {
    /// Stops the network without measuring anything.
    pub fn discard(self) {
        self.net.stop();
    }
}

/// Spans one node recorded during a traced pass.
pub struct NodeSpans {
    /// Worker thread name.
    pub name: &'static str,
    /// Dispatch spans.
    pub spans: Vec<DispatchSpan>,
    /// Their storage children.
    pub storage: Vec<StorageSpan>,
}

/// Everything one pass produced.
pub struct Pass {
    /// Load start, nanoseconds after the epoch.
    pub gen_start_ns: u64,
    /// Timed window, nanoseconds after the epoch.
    pub window_ns: (u64, u64),
    /// Per-thread CPU over the timed window.
    pub cpu: BTreeMap<String, ThreadCpu>,
    /// Per-thread CPU in each second of the timed window, with the
    /// number of events due in it.
    pub cpu_windows: Vec<(u64, BTreeMap<String, ThreadCpu>)>,
    /// Share of the machine's CPU time stolen in each of those seconds.
    pub steal_windows: Vec<f64>,
    /// Generator lateness per event, microseconds.
    pub late_us: Vec<f32>,
    /// Time spent blocked in `RunningNet::inject`.
    pub inject_block_ns: u64,
    /// Events published.
    pub events: u64,
    /// Accepted deliveries.
    pub receipts: Vec<Receipt>,
    /// Session edges.
    pub sessions: Vec<Session>,
    /// Protocol faults outside the checker's view: gap deliveries,
    /// misrouted deliveries, client-side order violations, watchdog and
    /// ledger violations.
    pub protocol_faults: BTreeMap<&'static str, u64>,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the timed window.
    pub steal_frac: f64,
    /// Client acks sent during the timed window.
    pub acks_in_window: u64,
    /// `true` when every expected delivery arrived before the deadline.
    pub drained: bool,
    /// Peak RSS after the run, MiB.
    pub peak_rss_mb: f64,
    /// Per-node spans (empty unless traced).
    pub nodes: Vec<NodeSpans>,
}

fn publish(w: &Workload, seq: u64, payload: &bytes::Bytes) -> NetMsg {
    let ev = w.event(seq);
    let mut attrs = Attributes::new();
    attrs.insert("_seq".into(), (seq as i64).into());
    attrs.insert("class".into(), ev.class.into());
    attrs.insert("price".into(), ev.price.into());
    NetMsg::Publish(PublishMsg {
        pubend: PubendId(ev.pubend),
        attrs,
        payload: payload.clone(),
    })
}

/// CPU counters read at one instant of the timed window.
struct Sample {
    at_ns: u64,
    /// First event not yet published.
    seq: u64,
    threads: BTreeMap<String, ThreadCpu>,
    machine: Option<[u64; 8]>,
}

impl Sample {
    fn take(seq: u64) -> Sample {
        Sample {
            at_ns: trace::now_ns(),
            seq,
            threads: procfs::threads_by_name(),
            machine: procfs::machine_cpu(),
        }
    }
}

/// Runs the workload on a started network: waits for dormant
/// subscribers to leave, generates the open-loop load, waits for the
/// last expected delivery, stops the network and collects the results.
pub fn drive(w: &Workload, s: Started, expected_total: u64) -> Result<Pass, String> {
    let dormant = (w.subs.len() - w.dormant_from()) as u64;
    while s.counters.dormant_disconnects.load(Ordering::Relaxed) < dormant {
        if s.started.elapsed() > 2 * PATIENCE {
            s.net.stop();
            return Err("dormant subscribers never disconnected".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let lead = s.started + Duration::from_micros(LEAD_US);
    if let Some(d) = lead.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }

    let total = w.total_events();
    let first_timed = w.first_timed();
    let payload = bytes::Bytes::from(vec![0u8; PAYLOAD_LEN]);
    let mut late_us = Vec::with_capacity(total as usize);
    let mut inject_block_ns = 0u64;
    let gen_start = Instant::now();
    let gen_start_ns = gen_start.duration_since(trace::epoch()).as_nanos() as u64;
    // Thread CPU is sampled at the start of the timed window and at the
    // first event due in each later second of it.
    let per_window = w.rate_eps as u64;
    let mut samples: Vec<Sample> = Vec::new();
    let mut acks0 = 0;
    let mut seq = 0u64;
    let mut tick = 0u64;
    while seq < total {
        let now = gen_start.elapsed().as_nanos() as u64;
        while seq < total && w.due_ns(seq) <= now {
            if seq >= first_timed && (seq - first_timed).is_multiple_of(per_window.max(1)) {
                samples.push(Sample::take(seq));
                if seq == first_timed {
                    acks0 = s.counters.acks.load(Ordering::Relaxed);
                }
            }
            let msg = publish(w, seq, &payload);
            let t0 = Instant::now();
            let late =
                (t0.duration_since(gen_start).as_nanos() as u64).saturating_sub(w.due_ns(seq));
            late_us.push(late as f32 / 1e3);
            s.net.inject(PHB, msg);
            inject_block_ns += t0.elapsed().as_nanos() as u64;
            seq += 1;
        }
        // Sleep to the next 1 ms tick (skipping ticks already past).
        let now = gen_start.elapsed().as_nanos() as u64;
        tick = tick.max(now / 1_000_000) + 1;
        let next = gen_start + Duration::from_nanos(tick * 1_000_000);
        if let Some(d) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
    // The timed window closes when the last event was due.
    let end_due = gen_start + Duration::from_nanos(w.due_ns(total));
    if let Some(d) = end_due.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
    samples.push(Sample::take(total));
    let acks1 = s.counters.acks.load(Ordering::Relaxed);
    let steal = |a: &Sample, b: &Sample| match (a.machine, b.machine) {
        (Some(a), Some(b)) => procfs::steal_frac(a, b),
        _ => 0.0,
    };
    let delta = |a: &BTreeMap<String, ThreadCpu>, b: &BTreeMap<String, ThreadCpu>| {
        b.iter()
            .map(|(k, v)| (k.clone(), v.since(a.get(k).copied().unwrap_or_default())))
            .collect::<BTreeMap<_, _>>()
    };
    let first = &samples[0];
    let last = &samples[samples.len() - 1];
    let cpu = delta(&first.threads, &last.threads);
    let cpu_windows = samples
        .windows(2)
        .map(|p| (p[1].seq - p[0].seq, delta(&p[0].threads, &p[1].threads)))
        .collect();
    let window_ns = (first.at_ns, last.at_ns);
    let steal_frac = steal(first, last);
    let steal_windows = samples.windows(2).map(|p| steal(&p[0], &p[1])).collect();

    let deadline = Instant::now() + PATIENCE;
    let mut drained = true;
    while s.counters.events.load(Ordering::Relaxed) < expected_total {
        if Instant::now() > deadline {
            drained = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Let trailing duplicates, if any, arrive before the books close.
    std::thread::sleep(Duration::from_millis(20));
    let result = s.net.stop();
    let peak_rss_mb = procfs::peak_rss_mb();
    let host = result.node(s.host);
    let clients = host.inner.clients();
    let mut protocol_faults = BTreeMap::new();
    protocol_faults.insert("gap_deliveries", host.inner.gaps);
    protocol_faults.insert("misrouted_deliveries", host.inner.misrouted);
    protocol_faults.insert(
        "client_order_violations",
        clients.iter().map(SubscriberClient::order_violations).sum(),
    );
    protocol_faults.insert("watchdog_violations", result.watchdog_violations() as u64);
    protocol_faults.insert("ledger_violations", result.ledger_violations());
    let mut nodes = Vec::new();
    if host.enabled {
        for (i, h) in s.brokers.iter().enumerate() {
            let n = result.node(*h);
            nodes.push(NodeSpans {
                name: NODES[i],
                spans: n.spans.clone(),
                storage: n.storage.clone(),
            });
        }
        nodes.push(NodeSpans {
            name: NODES[3],
            spans: host.spans.clone(),
            storage: host.storage.clone(),
        });
    }
    Ok(Pass {
        gen_start_ns,
        window_ns,
        cpu,
        cpu_windows,
        steal_windows,
        late_us,
        inject_block_ns,
        events: total,
        receipts: host.inner.receipts.clone(),
        sessions: host.inner.sessions.clone(),
        protocol_faults,
        acks_in_window: acks1 - acks0,
        steal_frac,
        drained,
        peak_rss_mb,
        nodes,
    })
}

/// The delivery verdict of one pass.
pub struct Verdict {
    /// Expected deliveries (all subscribers, all events).
    pub expected: u64,
    /// Checker faults.
    pub faults: check::Faults,
    /// Latency of each expected timed delivery to an always-connected
    /// subscriber, in ms; missing ones are infinite.
    pub latencies_ms: Vec<f64>,
    /// The same latencies split into one-second windows of due time.
    pub windows_ms: Vec<Vec<f64>>,
    /// Catchup episodes of reconnecting subscribers.
    pub episodes: Vec<check::Episode>,
}

impl Verdict {
    /// All faults, checker and protocol.
    pub fn failed(&self, pass: &Pass) -> u64 {
        self.faults.total() + pass.protocol_faults.values().sum::<u64>()
    }
}

/// Checks a pass against ground truth and derives its latencies.
pub fn verdict(w: &Workload, exp: &[Vec<u64>], pass: &Pass) -> Verdict {
    let got = check::by_sub(&pass.receipts, w.subs.len());
    let due = |seq: u64| pass.gen_start_ns + w.due_ns(seq);
    let pubend_of = |seq: u64| (seq % PUBENDS as u64) as u32;
    let first_timed = w.first_timed();
    let mut faults = check::Faults::default();
    let mut latencies_ms = Vec::new();
    let windows = (w.measure_us as usize).div_ceil(1_000_000).max(1);
    let mut windows_ms = vec![Vec::new(); windows];
    let timed_from = w.due_ns(first_timed);
    let checked: Vec<_> = exp
        .iter()
        .enumerate()
        .map(|(s, exp_s)| check::check_sub(exp_s, &got[s], pubend_of, PUBENDS))
        .collect();
    // Earliest arrival of each event at an always-connected subscriber.
    let mut live_first = vec![u64::MAX; w.total_events() as usize];
    for (s, (f, arrival)) in checked.iter().enumerate() {
        faults.add(*f);
        if !w.is_live(s) {
            continue;
        }
        for (i, &seq) in exp[s].iter().enumerate() {
            if let Some(at) = arrival[i] {
                let first = &mut live_first[seq as usize];
                *first = (*first).min(at);
            }
            if seq >= first_timed {
                let l = match arrival[i] {
                    Some(at) => at.saturating_sub(due(seq)) as f64 / 1e6,
                    None => f64::INFINITY,
                };
                latencies_ms.push(l);
                let win = ((w.due_ns(seq) - timed_from) / 1_000_000_000) as usize;
                windows_ms[win.min(windows - 1)].push(l);
            }
        }
    }
    let live = |seq: u64| Some(live_first[seq as usize]).filter(|&at| at != u64::MAX);
    let mut episodes = Vec::new();
    for (s, (_, arrival)) in checked.iter().enumerate() {
        if !w.is_live(s) {
            episodes.extend(
                check::outages(&pass.sessions, s as u32)
                    .into_iter()
                    .filter_map(|o| check::episode(s as u32, o, &exp[s], arrival, due, live)),
            );
        }
    }
    Verdict {
        expected: exp.iter().map(|e| e.len() as u64).sum(),
        faults,
        latencies_ms,
        windows_ms,
        episodes,
    }
}
