//! Per-layer metrics from a traced pass, and the reconciliation of each
//! node's span time against its thread's measured CPU.

use crate::check::{median, percentile};
use crate::procfs::ThreadCpu;
use crate::run::{NodeSpans, Pass, Verdict, BROKERS, NODES};
use crate::trace::{self_time_ns, DispatchKind, Op, Stream};
use crate::workload::Workload;
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
use std::collections::BTreeMap;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: u64,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Span totals of one node over a time range.
#[derive(Debug, Default, Clone)]
pub struct NodeTotals {
    /// Callbacks.
    pub dispatches: u64,
    /// Sum of callback self times, ns.
    pub self_ns: u64,
    /// Sum of storage-call time, ns (covered part of the callbacks).
    pub storage_ns: u64,
}

/// Dispatch spans of `node` starting in `[from, to)`:
/// `(kind, duration, self time)` in ns.
fn spans_in(node: &NodeSpans, (from, to): (u64, u64)) -> Vec<(DispatchKind, u64, u64)> {
    node.spans
        .iter()
        .filter(|s| (from..to).contains(&s.start_ns))
        .map(|s| {
            let kids: Vec<(u64, u64)> = node.storage[s.children.0 as usize..s.children.1 as usize]
                .iter()
                .map(|c| (c.start_ns, c.dur_ns))
                .collect();
            (s.kind, s.dur_ns, self_time_ns(s.start_ns, s.dur_ns, &kids))
        })
        .collect()
}

/// Totals of `node` over `range`.
pub fn totals(node: &NodeSpans, range: (u64, u64)) -> NodeTotals {
    let mut t = NodeTotals::default();
    for (_, dur, slf) in spans_in(node, range) {
        t.dispatches += 1;
        t.self_ns += slf;
        t.storage_ns += dur - slf;
    }
    t
}

/// Self times (ns) of `kind` callbacks of `node` over `range`.
fn self_of(node: &NodeSpans, range: (u64, u64), kind: DispatchKind) -> Vec<f64> {
    spans_in(node, range)
        .into_iter()
        .filter(|s| s.0 == kind)
        .map(|s| s.2 as f64)
        .collect()
}

/// Storage calls of `node` on `stream` with `op` whose parent callback
/// started in `range`: `(count, total ns, total bytes, durations)`.
fn storage_of(
    node: &NodeSpans,
    range: (u64, u64),
    stream: Stream,
    op: Op,
) -> (u64, u64, u64, Vec<f64>) {
    let mut out = (0, 0, 0, Vec::new());
    for s in node
        .spans
        .iter()
        .filter(|s| (range.0..range.1).contains(&s.start_ns))
    {
        for c in &node.storage[s.children.0 as usize..s.children.1 as usize] {
            if c.stream == stream && c.op == op {
                out.0 += 1;
                out.1 += c.dur_ns;
                out.2 += c.bytes;
                out.3.push(c.dur_ns as f64);
            }
        }
    }
    out
}

/// Offline replay of the workload's timed events against all of its
/// filters through [`SubscriptionIndex::matches_into`].
#[derive(Debug, Clone, Copy)]
pub struct MatchReplay {
    /// Mean matching time per event, ns.
    pub ns_per_event: f64,
    /// Mean matches per event.
    pub matches_per_event: f64,
    /// Events whose index result differs from the naive evaluator.
    pub mismatches: u64,
    /// Events replayed per pass.
    pub events: u64,
}

/// Replays events `first..end` of `w` through a fresh index of every
/// subscription, timing repeated passes for at least `min_s` seconds.
pub fn replay_matching(w: &Workload, first: u64, end: u64, min_s: f64) -> MatchReplay {
    let mut index = SubscriptionIndex::new();
    for (i, s) in w.subs.iter().enumerate() {
        let f = Filter::parse(&s.filter.expr()).expect("generated filters parse");
        index.insert(SubscriberId(1 + i as u64), f);
    }
    let events: Vec<Event> = (first..end)
        .map(|seq| {
            let a = w.event(seq);
            Event::builder(PubendId(a.pubend))
                .attr("_seq", seq as i64)
                .attr("class", a.class)
                .attr("price", a.price)
                .build(Timestamp(seq + 1))
        })
        .collect();
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    let mut matches = 0u64;
    let mut mismatches = 0u64;
    for (k, e) in events.iter().enumerate() {
        index.matches_into(e, &mut scratch, &mut out);
        matches += out.len() as u64;
        let a = w.event(first + k as u64);
        let naive: Vec<SubscriberId> = (0..w.subs.len())
            .filter(|&i| w.subs[i].filter.matches(&a))
            .map(|i| SubscriberId(1 + i as u64))
            .collect();
        if naive != out {
            mismatches += 1;
        }
    }
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < min_s {
        for e in &events {
            index.matches_into(e, &mut scratch, &mut out);
        }
        passes += 1;
    }
    let n = events.len().max(1) as f64;
    MatchReplay {
        ns_per_event: t0.elapsed().as_nanos() as f64 / (passes as f64 * n),
        matches_per_event: matches as f64 / n,
        mismatches,
        events: events.len() as u64,
    }
}

/// Per-node reconciliation: thread CPU against span time.
#[derive(Debug, Clone)]
pub struct Reconcile {
    /// Worker thread name.
    pub node: &'static str,
    /// Thread CPU over the window, µs.
    pub cpu_us: f64,
    /// Callback self time, µs.
    pub self_us: f64,
    /// Storage-call time, µs.
    pub storage_us: f64,
}

impl Reconcile {
    /// CPU not inside any callback, as a share of CPU: channel wakeups,
    /// the runtime loop and timer heap (negative when callbacks were
    /// preempted, i.e. span wall time exceeded CPU time).
    pub fn unexplained_frac(&self) -> f64 {
        (self.cpu_us - self.self_us - self.storage_us) / self.cpu_us
    }
}

/// Reconciles every node of a traced pass.
pub fn reconcile(pass: &Pass) -> Vec<Reconcile> {
    pass.nodes
        .iter()
        .map(|n| {
            let t = totals(n, pass.window_ns);
            Reconcile {
                node: n.name,
                cpu_us: pass.cpu.get(n.name).map_or(0.0, |c| c.total_us()),
                self_us: t.self_ns as f64 / 1e3,
                storage_us: t.storage_ns as f64 / 1e3,
            }
        })
        .collect()
}

fn broker_cpu_us(cpu: &BTreeMap<String, ThreadCpu>) -> f64 {
    BROKERS
        .iter()
        .map(|b| cpu.get(*b).map_or(0.0, |c| c.total_us()))
        .sum()
}

/// Broker CPU per event, µs: the median over the timed window's
/// one-second windows, so a burst of CPU stolen by a neighbour in one
/// second does not move it.
pub fn broker_cpu_per_event(pass: &Pass) -> f64 {
    let per_window: Vec<f64> = pass
        .cpu_windows
        .iter()
        .filter(|(events, _)| *events > 0)
        .map(|(events, cpu)| broker_cpu_us(cpu) / *events as f64)
        .collect();
    median(&per_window)
}

/// The per-layer metrics of a traced pass. `plain` is the untraced pass
/// of the same run: the generator's validity metrics come from it, and
/// comparing the two gives the tracing overhead.
pub fn per_layer(
    w: &Workload,
    traced: (&Pass, &Verdict),
    plain: (&Pass, &Verdict),
    matching: &MatchReplay,
) -> Vec<Metric> {
    let (pass, verdict) = traced;
    let timed = w.total_events() - w.first_timed();
    let e = timed as f64;
    let win = pass.window_ns;
    let win_s = (win.1 - win.0) as f64 / 1e9;
    // Catchup work may finish after the timed window: count it over the
    // whole load phase.
    let all = (pass.gen_start_ns, u64::MAX);
    let caught_up: u64 = verdict.episodes.iter().map(|e| e.missed).sum();
    let per_cu = |x: f64| {
        if caught_up == 0 {
            0.0
        } else {
            x / caught_up as f64
        }
    };
    let node = |name: &str| {
        pass.nodes
            .iter()
            .find(|n| n.name == name)
            .expect("traced pass has every node")
    };
    let mut m = Vec::new();
    let us = |ns: f64| ns / 1e3;

    for name in NODES {
        let cpu = pass.cpu.get(name).copied().unwrap_or_default();
        m.push(metric(
            format!("net.{name}.cpu_user_us_per_event"),
            cpu.user_us() / e,
            "us",
            timed,
        ));
        m.push(metric(
            format!("net.{name}.cpu_sys_us_per_event"),
            cpu.sys_us() / e,
            "us",
            timed,
        ));
        let t = totals(node(name), win);
        m.push(metric(
            format!("net.{name}.dispatches_per_event"),
            t.dispatches as f64 / e,
            "count",
            t.dispatches,
        ));
    }
    let phb_cpu = pass.cpu.get("phb").map_or(0.0, |c| c.total_us());
    m.push(metric(
        "net.phb.cpu_share",
        phb_cpu / broker_cpu_us(&pass.cpu),
        "frac",
        timed,
    ));

    let phb = node("phb");
    let mut publish = self_of(phb, win, DispatchKind::Publish);
    m.push(metric(
        "phb.publish_self_us_p50",
        us(percentile(&mut publish, 0.5)),
        "us",
        publish.len() as u64,
    ));
    let timers = self_of(phb, win, DispatchKind::Timer);
    m.push(metric(
        "phb.timer_self_us_per_event",
        us(timers.iter().sum::<f64>()) / e,
        "us",
        timers.len() as u64,
    ));

    let (n, ns, bytes, _) = storage_of(phb, win, Stream::Events, Op::Append);
    m.push(metric(
        "storage.events.append_us_per_event",
        us(ns as f64) / e,
        "us",
        n,
    ));
    m.push(metric(
        "storage.events.append_bytes_per_event",
        bytes as f64 / e,
        "B",
        n,
    ));
    let (n, _, _, mut syncs) = storage_of(phb, win, Stream::Events, Op::Sync);
    m.push(metric(
        "storage.events.syncs_per_s",
        n as f64 / win_s,
        "1/s",
        n,
    ));
    m.push(metric(
        "storage.events.sync_us_p50",
        us(percentile(&mut syncs, 0.5)),
        "us",
        n,
    ));

    let ib = node("ib");
    let k = self_of(ib, win, DispatchKind::Knowledge);
    m.push(metric(
        "ib.knowledge_self_us_per_event",
        us(k.iter().sum::<f64>()) / e,
        "us",
        k.len() as u64,
    ));
    // The IB's curiosity self time is not reported: no workload nacks
    // the IB (every catchup is served from the SHB's PFS and cache), so
    // it would read 0 on every run.
    let cur = self_of(ib, all, DispatchKind::Curiosity);
    m.push(metric(
        "ib.curiosity_msgs_per_caught_up_event",
        per_cu(cur.len() as f64),
        "count",
        cur.len() as u64,
    ));

    let shb = node("shb");
    let k = self_of(shb, win, DispatchKind::Knowledge);
    m.push(metric(
        "shb.knowledge_msgs_per_event",
        k.len() as f64 / e,
        "count",
        k.len() as u64,
    ));
    m.push(metric(
        "shb.knowledge_self_us_per_event",
        us(k.iter().sum::<f64>()) / e,
        "us",
        k.len() as u64,
    ));
    let c = self_of(shb, win, DispatchKind::Client);
    m.push(metric(
        "shb.client_self_us_per_event",
        us(c.iter().sum::<f64>()) / e,
        "us",
        c.len() as u64,
    ));
    let t = self_of(shb, win, DispatchKind::Timer);
    m.push(metric(
        "shb.timer_self_us_per_event",
        us(t.iter().sum::<f64>()) / e,
        "us",
        t.len() as u64,
    ));
    let (n, ns, bytes, _) = storage_of(shb, win, Stream::Pfs, Op::Append);
    m.push(metric(
        "storage.pfs.append_us_per_event",
        us(ns as f64) / e,
        "us",
        n,
    ));
    m.push(metric(
        "storage.pfs.append_bytes_per_event",
        bytes as f64 / e,
        "B",
        n,
    ));
    let (n, _, _, _) = storage_of(shb, win, Stream::Meta, Op::Sync);
    m.push(metric(
        "storage.meta.syncs_per_s",
        n as f64 / win_s,
        "1/s",
        n,
    ));
    let (n, ns, bytes, _) = storage_of(shb, all, Stream::Pfs, Op::Read);
    m.push(metric(
        "storage.pfs.read_us_per_caught_up_event",
        per_cu(us(ns as f64)),
        "us",
        n,
    ));
    m.push(metric(
        "storage.pfs.read_bytes_per_caught_up_event",
        per_cu(bytes as f64),
        "B",
        n,
    ));

    m.push(metric(
        "matching.ns_per_event",
        matching.ns_per_event,
        "ns",
        matching.events,
    ));
    m.push(metric(
        "matching.matches_per_event",
        matching.matches_per_event,
        "count",
        matching.events,
    ));
    let shb_self_us = totals(shb, win).self_ns as f64 / 1e3;
    m.push(metric(
        "matching.share_of_shb_self",
        matching.ns_per_event * e / 1e3 / shb_self_us,
        "frac",
        timed,
    ));

    let host = node("subhost");
    let d = self_of(host, win, DispatchKind::Server);
    m.push(metric(
        "client.deliver_self_us_per_delivery",
        us(d.iter().sum::<f64>()) / d.len().max(1) as f64,
        "us",
        d.len() as u64,
    ));
    m.push(metric(
        "client.acks_per_s",
        pass.acks_in_window as f64 / win_s,
        "1/s",
        pass.acks_in_window,
    ));

    let (gen, _) = plain;
    let mut late: Vec<f64> = gen.late_us.iter().map(|&l| l as f64 / 1e3).collect();
    m.push(metric(
        "gen.late_p99_ms",
        percentile(&mut late, 0.99),
        "ms",
        late.len() as u64,
    ));
    m.push(metric("env.steal_frac", gen.steal_frac, "frac", 1));
    m.push(metric(
        "gen.inject_block_us_per_event",
        gen.inject_block_ns as f64 / 1e3 / gen.events as f64,
        "us",
        gen.events,
    ));

    let rec = reconcile(pass);
    let mut broker = Reconcile {
        node: "brokers",
        cpu_us: 0.0,
        self_us: 0.0,
        storage_us: 0.0,
    };
    for r in &rec {
        m.push(metric(
            format!("layer.{}.unexplained_frac", r.node),
            r.unexplained_frac(),
            "frac",
            1,
        ));
        if BROKERS.contains(&r.node) {
            broker.cpu_us += r.cpu_us;
            broker.self_us += r.self_us;
            broker.storage_us += r.storage_us;
        }
    }
    m.push(metric(
        "layer.unexplained_frac",
        broker.unexplained_frac(),
        "frac",
        1,
    ));

    let traced_cpu = broker_cpu_per_event(pass);
    let plain_cpu = broker_cpu_per_event(plain.0);
    m.push(metric(
        "trace.overhead_broker_cpu_frac",
        traced_cpu / plain_cpu - 1.0,
        "frac",
        timed,
    ));
    let p50 = |v: &Verdict| {
        let mut l = v.latencies_ms.clone();
        percentile(&mut l, 0.5)
    };
    m.push(metric(
        "trace.overhead_deliver_p50_frac",
        p50(verdict) / p50(plain.1) - 1.0,
        "frac",
        timed,
    ));
    m
}
