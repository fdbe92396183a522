//! Ground truth, the delivery checker, and the statistics built on it.
//!
//! Expected deliveries come from [`SubFilter::matches`], a naive
//! evaluator independent of the matching engine under test. The checker
//! then requires exactly-once, in-order delivery per (subscriber,
//! pubend): every expected event arrives once, nothing else arrives, and
//! each pubend's events arrive in publish order.

use crate::host::{Receipt, Session, SessionKind};
use crate::workload::{Role, Workload};

/// Expected event sequence numbers per subscriber, ascending. Dormant
/// subscribers never reconnect during a run and expect nothing.
pub fn expected(w: &Workload, events: u64) -> Vec<Vec<u64>> {
    let mut exp = vec![Vec::new(); w.subs.len()];
    let active: Vec<usize> = (0..w.subs.len())
        .filter(|&s| w.subs[s].role != Role::Dormant)
        .collect();
    for seq in 0..events {
        let ev = w.event(seq);
        for &s in &active {
            if w.subs[s].filter.matches(&ev) {
                exp[s].push(seq);
            }
        }
    }
    exp
}

/// Delivery faults found by [`check_sub`]; all must be zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Expected events never received.
    pub missing: u64,
    /// Events received more than once.
    pub duplicate: u64,
    /// Events received after a later event of the same pubend.
    pub misordered: u64,
    /// Events received that the subscriber should not get.
    pub unexpected: u64,
}

impl Faults {
    /// Sum of all faults.
    pub fn total(&self) -> u64 {
        self.missing + self.duplicate + self.misordered + self.unexpected
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Faults) {
        self.missing += other.missing;
        self.duplicate += other.duplicate;
        self.misordered += other.misordered;
        self.unexpected += other.unexpected;
    }
}

/// Checks one subscriber's receipts (`(seq, at_ns)` in arrival order)
/// against its expected sequence numbers. Returns the faults and, per
/// expected event, the arrival instant of its first receipt.
pub fn check_sub(
    exp: &[u64],
    got: &[(u64, u64)],
    pubend_of: impl Fn(u64) -> u32,
    pubends: u32,
) -> (Faults, Vec<Option<u64>>) {
    let mut f = Faults::default();
    let mut arrival: Vec<Option<u64>> = vec![None; exp.len()];
    let mut last: Vec<Option<u64>> = vec![None; pubends as usize];
    for &(seq, at) in got {
        let Ok(i) = exp.binary_search(&seq) else {
            f.unexpected += 1;
            continue;
        };
        if arrival[i].is_some() {
            f.duplicate += 1;
            continue;
        }
        arrival[i] = Some(at);
        let p = pubend_of(seq) as usize;
        match last[p] {
            Some(l) if seq < l => f.misordered += 1,
            _ => last[p] = Some(seq),
        }
    }
    f.missing = arrival.iter().filter(|a| a.is_none()).count() as u64;
    (f, arrival)
}

/// Nearest-rank percentile `q` (in `0..=1`) of `values`, which it
/// sorts. Missing deliveries are `f64::INFINITY` and sort last, so they
/// count as infinitely late.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The 99th percentile of the latencies in the quarter of the one-second
/// `windows` (rounded up) whose machine had the least CPU `steal` (ties
/// go to the earlier window). The quarter is chosen by the hypervisor's
/// steal, not by latency, so a tail the program causes in some seconds
/// shows in about the same share of the chosen ones, while seconds in
/// which other guests held this machine's CPUs are left out. Returns the
/// percentile and the number of latencies it was taken over.
pub fn quiet_p99(windows: &[Vec<f64>], steal: &[f64]) -> (f64, u64) {
    let mut order: Vec<usize> = (0..windows.len().min(steal.len())).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut pool: Vec<f64> = order[..order.len().div_ceil(4)]
        .iter()
        .flat_map(|&i| windows[i].iter().copied())
        .collect();
    (percentile(&mut pool, 0.99), pool.len() as u64)
}

/// Median of `values` (interpolated between the middle two).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One disconnection of a reconnecting subscriber and its recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Client index.
    pub sub: u32,
    /// When it sent `Disconnect`.
    pub down_ns: u64,
    /// When it next sent `Connect`.
    pub up_ns: u64,
    /// Backlog: expected events due before the reconnect that arrived
    /// after it (they were published, or still in flight, while the
    /// subscriber was away).
    pub missed: u64,
    /// Seconds the backlog delivery lagged behind what the subscriber
    /// could have had (infinite if a backlog event never arrived); see
    /// [`episode`].
    pub catchup_s: f64,
}

impl Episode {
    /// Backlog events delivered per second of catchup.
    pub fn rate_eps(&self) -> f64 {
        self.missed as f64 / self.catchup_s
    }
}

/// Disconnect/reconnect pairs in one client's session log.
pub fn outages(sessions: &[Session], sub: u32) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut down = None;
    for s in sessions.iter().filter(|s| s.sub == sub) {
        match s.kind {
            SessionKind::Disconnect => down = Some(s.at_ns),
            SessionKind::Connect => {
                if let Some(d) = down.take() {
                    out.push((d, s.at_ns));
                }
            }
        }
    }
    out
}

/// Measures the catchup after one outage. `exp` and `arrival` are the
/// subscriber's expected events and their arrival instants, `due_ns` an
/// event's due instant and `live_ns` its earliest arrival at an
/// always-connected subscriber (`None` if none expects it), all on the
/// same clock. `None` when the outage left no backlog.
///
/// A backlog event is ready at the reconnect, or when the live path
/// delivered it if that was later (it was still in flight); without a
/// live arrival its due instant stands in. The catchup is the largest
/// delay of a backlog arrival past its ready instant, so the live
/// path's own latency is not counted in it.
pub fn episode(
    sub: u32,
    (down_ns, up_ns): (u64, u64),
    exp: &[u64],
    arrival: &[Option<u64>],
    due_ns: impl Fn(u64) -> u64,
    live_ns: impl Fn(u64) -> Option<u64>,
) -> Option<Episode> {
    let mut missed = 0u64;
    let mut lag = Some(0u64);
    for (i, &seq) in exp.iter().enumerate() {
        if due_ns(seq) >= up_ns {
            break;
        }
        match arrival[i] {
            Some(at) if at < up_ns => {}
            Some(at) => {
                missed += 1;
                let ready = up_ns.max(live_ns(seq).unwrap_or_else(|| due_ns(seq)));
                lag = lag.map(|l| l.max(at.saturating_sub(ready)));
            }
            None => {
                missed += 1;
                lag = None;
            }
        }
    }
    (missed > 0).then(|| Episode {
        sub,
        down_ns,
        up_ns,
        missed,
        catchup_s: lag.map_or(f64::INFINITY, |l| l as f64 / 1e9),
    })
}

/// Groups receipts by subscriber: `(seq, at_ns)` in arrival order.
pub fn by_sub(receipts: &[Receipt], subs: usize) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); subs];
    for r in receipts {
        if let Some(v) = out.get_mut(r.sub as usize) {
            v.push((r.seq, r.at_ns));
        }
    }
    out
}
