//! Time-resolved telemetry: windowed sampling of gauges and counter
//! rates into a deterministic in-memory timeline (DESIGN.md §13).
//!
//! End-of-run snapshots (metrics, lineage, Prometheus dumps) cannot
//! show the paper's *dynamics* — doubt-horizon width, catchup backlog
//! and queue depth all spike around failures and drain afterwards. The
//! [`Sampler`] closes that gap: on a fixed interval (virtual time under
//! [`Sim`](crate::Sim), wall time under `gryphon-net`) it snapshots
//! every registered gauge and converts every counter into a per-window
//! rate, appending to a [`Timeline`] that exports as ndjson, CSV, or an
//! ASCII sparkline block.
//!
//! Sampling never feeds back into the run: the simulator fires samples
//! between scheduler events without enqueueing anything, so traces and
//! deliveries stay bit-identical with the sampler on or off (the
//! `golden_determinism` suite asserts this).
//!
//! # Shard suffixes and aggregates
//!
//! Gauge publishers that exist per entity append a shard suffix to the
//! registered base name: `.w<i>` per worker, `.n<i>` per node, `.p<i>`
//! per pubend (possibly chained, e.g.
//! `telemetry.doubt_width_ticks.n3.p1`). The sampler records each
//! suffixed series verbatim *and* derives the unsuffixed base series as
//! the sum over shards, so `telemetry.catchup_backlog_ticks` is always
//! present as the run-wide backlog no matter how many SHBs publish it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::forensics::{intern_kind, BusyInterval, Exemplar};
use crate::health::{AlertRecord, AlertState, HealthEngine};
use crate::metrics::{names, Histogram, Metrics};
use crate::sketch::{
    intern_dim, name_culprit, PopulationSketch, SketchConfig, TopKEntry, TopKSnapshot,
    DIM_SUB_BYTES,
};

/// Default bound on resolved tail exemplars a timeline retains (oldest
/// evicted first; see [`Timeline::push_exemplar`]). Overridable at
/// runtime via [`TimelineCaps`].
pub const TIMELINE_EXEMPLAR_CAP: usize = 4_096;

/// Default bound on busy intervals a timeline retains (oldest evicted
/// first; see [`Timeline::push_interval`]). Overridable at runtime via
/// [`TimelineCaps`].
pub const TIMELINE_INTERVAL_CAP: usize = 131_072;

/// Default bound on top-K snapshots a timeline retains (oldest evicted
/// first; see [`Timeline::push_topk`]). Overridable at runtime via
/// [`TimelineCaps`].
pub const TIMELINE_TOPK_CAP: usize = 8_192;

/// Environment variable overriding the timeline retention caps, e.g.
/// `GRYPHON_TIMELINE_CAPS=exemplars=1024,intervals=65536,topks=512`
/// (any subset; unnamed caps keep their compiled defaults).
pub const TIMELINE_CAPS_ENV: &str = "GRYPHON_TIMELINE_CAPS";

/// Runtime-configurable retention bounds for the timeline's forensics
/// streams. The compiled `TIMELINE_*_CAP` constants are the defaults;
/// deployments tune them per run via [`TIMELINE_CAPS_ENV`] or topology
/// defaults without recompiling. Caps only bound observer-side
/// retention, so overriding them cannot perturb a run (the
/// `golden_determinism` suite pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineCaps {
    /// Bound on resolved tail exemplars (oldest evicted first).
    pub exemplars: usize,
    /// Bound on busy intervals (oldest evicted first).
    pub intervals: usize,
    /// Bound on top-K snapshots (oldest evicted first).
    pub topks: usize,
}

impl Default for TimelineCaps {
    fn default() -> TimelineCaps {
        TimelineCaps {
            exemplars: TIMELINE_EXEMPLAR_CAP,
            intervals: TIMELINE_INTERVAL_CAP,
            topks: TIMELINE_TOPK_CAP,
        }
    }
}

impl TimelineCaps {
    /// Parses a `key=value,key=value` override string (keys:
    /// `exemplars`, `intervals`, `topks`; any subset, each clamped to
    /// ≥ 1). Unknown keys and malformed values are errors so a typo in
    /// an env override fails loudly instead of silently keeping the
    /// default.
    pub fn parse(s: &str) -> Result<TimelineCaps, String> {
        let mut caps = TimelineCaps::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("timeline caps: missing '=' in {part:?}"))?;
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("timeline caps: bad value in {part:?}"))?;
            let n = n.max(1);
            match key.trim() {
                "exemplars" => caps.exemplars = n,
                "intervals" => caps.intervals = n,
                "topks" => caps.topks = n,
                other => return Err(format!("timeline caps: unknown key {other:?}")),
            }
        }
        Ok(caps)
    }

    /// The caps in effect for new timelines: [`TIMELINE_CAPS_ENV`] when
    /// set and well-formed, otherwise the compiled defaults (a
    /// malformed override is reported on stderr once per call rather
    /// than silently shrinking retention).
    pub fn resolved() -> TimelineCaps {
        match std::env::var(TIMELINE_CAPS_ENV) {
            Ok(s) => match TimelineCaps::parse(&s) {
                Ok(caps) => caps,
                Err(e) => {
                    eprintln!("ignoring {TIMELINE_CAPS_ENV}: {e}");
                    TimelineCaps::default()
                }
            },
            Err(_) => TimelineCaps::default(),
        }
    }
}

/// A deterministic in-memory time series store: one sample vector per
/// series name, ordered by sample time, plus the structured health
/// alerts raised while the timeline was collected (kept separate from
/// the sample series so sample exports stay pure), plus the forensics
/// streams (tail exemplars and busy intervals, DESIGN.md §17) — also
/// separate, so `to_ndjson`/`to_csv` stay sample-only.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    interval_us: u64,
    caps: TimelineCaps,
    series: BTreeMap<String, Vec<(u64, f64)>>,
    alerts: Vec<AlertRecord>,
    exemplars: std::collections::VecDeque<Exemplar>,
    intervals: std::collections::VecDeque<BusyInterval>,
    topks: std::collections::VecDeque<TopKSnapshot>,
}

impl Timeline {
    /// An empty timeline tagged with its sampling interval, bounded by
    /// the process-resolved retention caps ([`TimelineCaps::resolved`]).
    pub fn new(interval_us: u64) -> Timeline {
        Timeline::with_caps(interval_us, TimelineCaps::resolved())
    }

    /// An empty timeline with explicit retention caps (tests and
    /// topology defaults; [`Timeline::new`] resolves them from the
    /// environment).
    pub fn with_caps(interval_us: u64, caps: TimelineCaps) -> Timeline {
        Timeline {
            interval_us,
            caps,
            series: BTreeMap::new(),
            alerts: Vec::new(),
            exemplars: std::collections::VecDeque::new(),
            intervals: std::collections::VecDeque::new(),
            topks: std::collections::VecDeque::new(),
        }
    }

    /// The retention caps in effect for this timeline.
    pub fn caps(&self) -> TimelineCaps {
        self.caps
    }

    /// Replaces the retention caps (topology defaults apply theirs
    /// after construction); an over-cap backlog is trimmed oldest-first
    /// on the next push.
    pub fn set_caps(&mut self, caps: TimelineCaps) {
        self.caps = caps;
    }

    /// The sampling interval this timeline was collected at.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Appends a `(t_us, value)` sample to `name`.
    pub fn record(&mut self, t_us: u64, name: &str, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_default()
            .push((t_us, value));
    }

    /// All series names (sorted).
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// The samples of series `name` (empty if never recorded).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Appends a structured health-alert transition. Alerts live next
    /// to — not inside — the sample series: `to_ndjson`/`to_csv` stay
    /// sample-only and alerts export via
    /// [`alerts_ndjson`](Timeline::alerts_ndjson).
    pub fn push_alert(&mut self, alert: AlertRecord) {
        self.alerts.push(alert);
    }

    /// The health-alert transitions recorded so far, in time order.
    pub fn alerts(&self) -> &[AlertRecord] {
        &self.alerts
    }

    /// Appends a resolved tail exemplar, evicting the oldest past the
    /// exemplar cap; returns the number evicted (0 or 1) so the runtime
    /// can count it into `forensics.exemplar_dropped`.
    pub fn push_exemplar(&mut self, ex: Exemplar) -> u64 {
        self.exemplars.push_back(ex);
        if self.exemplars.len() > self.caps.exemplars {
            self.exemplars.pop_front();
            1
        } else {
            0
        }
    }

    /// The resolved tail exemplars, oldest first.
    pub fn exemplars(&self) -> impl ExactSizeIterator<Item = &Exemplar> {
        self.exemplars.iter()
    }

    /// Appends a busy interval, evicting the oldest past the interval
    /// cap; returns the number evicted (0 or 1) so the runtime can
    /// count it into `forensics.interval_dropped`.
    pub fn push_interval(&mut self, iv: BusyInterval) -> u64 {
        self.intervals.push_back(iv);
        if self.intervals.len() > self.caps.intervals {
            self.intervals.pop_front();
            1
        } else {
            0
        }
    }

    /// The recorded busy intervals, oldest first.
    pub fn intervals(&self) -> impl ExactSizeIterator<Item = &BusyInterval> {
        self.intervals.iter()
    }

    /// Appends one window's top-K snapshot, evicting the oldest past
    /// the top-K cap; returns the number evicted (0 or 1) so the
    /// runtime can count it into `forensics.topk_dropped`.
    pub fn push_topk(&mut self, snap: TopKSnapshot) -> u64 {
        self.topks.push_back(snap);
        if self.topks.len() > self.caps.topks {
            self.topks.pop_front();
            1
        } else {
            0
        }
    }

    /// The recorded top-K snapshots, oldest first.
    pub fn topks(&self) -> impl ExactSizeIterator<Item = &TopKSnapshot> {
        self.topks.iter()
    }

    /// Total sample count across all series.
    pub fn len(&self) -> usize {
        self.series.values().map(|v| v.len()).sum()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds `other` into `self`, re-sorting each series by sample time.
    ///
    /// The sort is stable, so when shards carry equal timestamps the
    /// merged order is the merge-call order — merging per-worker
    /// timelines in worker-index order therefore yields one canonical
    /// result regardless of thread interleaving.
    pub fn merge(&mut self, other: &Timeline) {
        if self.interval_us == 0 {
            self.interval_us = other.interval_us;
        }
        for (name, samples) in &other.series {
            let s = self.series.entry(name.clone()).or_default();
            s.extend_from_slice(samples);
            s.sort_by_key(|&(t, _)| t);
        }
        self.alerts.extend(other.alerts.iter().cloned());
        self.alerts.sort_by_key(|a| a.t_us);
        self.exemplars.extend(other.exemplars.iter().cloned());
        self.exemplars
            .make_contiguous()
            .sort_by(|a, b| a.t_us.cmp(&b.t_us).then_with(|| a.series.cmp(&b.series)));
        while self.exemplars.len() > self.caps.exemplars {
            self.exemplars.pop_front();
        }
        self.intervals.extend(other.intervals.iter().copied());
        self.intervals
            .make_contiguous()
            .sort_by_key(|iv| (iv.start_us, iv.track));
        while self.intervals.len() > self.caps.intervals {
            self.intervals.pop_front();
        }
        self.topks.extend(other.topks.iter().cloned());
        self.topks
            .make_contiguous()
            .sort_by_key(|s| (s.t_us, s.dim));
        while self.topks.len() > self.caps.topks {
            self.topks.pop_front();
        }
    }

    /// Renders every sample as one JSON object per line, sorted by
    /// series name then time: `{"series":"…","t_us":N,"value":V}`.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, samples) in &self.series {
            for &(t, v) in samples {
                out.push_str(&format!(
                    "{{\"series\":\"{}\",\"t_us\":{},\"value\":{}}}\n",
                    json_escape(name),
                    t,
                    json_num(v)
                ));
            }
        }
        out
    }

    /// Renders the timeline as RFC-4180-ish CSV with a
    /// `series,t_us,value` header, sorted like
    /// [`to_ndjson`](Timeline::to_ndjson).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_us,value\n");
        for (name, samples) in &self.series {
            let quoted = if name.contains([',', '"', '\n']) {
                format!("\"{}\"", name.replace('"', "\"\""))
            } else {
                name.clone()
            };
            for &(t, v) in samples {
                out.push_str(&format!("{quoted},{t},{v}\n"));
            }
        }
        out
    }

    /// Parses a timeline back from [`to_ndjson`](Timeline::to_ndjson)
    /// output — the doctor's bundle-reader path. The writer pins the
    /// exact line shape (`{"series":"…","t_us":N,"value":V}`) and Rust's
    /// float `Display` is shortest-round-trip, so a parse of an export
    /// reproduces the original samples bit-for-bit (`null` values come
    /// back as NaN, matching what `to_ndjson` collapsed them from).
    ///
    /// `interval_us` is not stored in the ndjson stream; callers supply
    /// it from the bundle manifest.
    pub fn from_ndjson(s: &str, interval_us: u64) -> Result<Timeline, String> {
        let mut t = Timeline::new(interval_us);
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("timeline ndjson line {}: {what}: {line}", ln + 1);
            let rest = line
                .strip_prefix("{\"series\":\"")
                .ok_or_else(|| err("missing series prefix"))?;
            let (name, rest) = take_json_string(rest).ok_or_else(|| err("unterminated series"))?;
            let rest = rest
                .strip_prefix(",\"t_us\":")
                .ok_or_else(|| err("missing t_us"))?;
            let digits_end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let t_us: u64 = rest[..digits_end].parse().map_err(|_| err("bad t_us"))?;
            let rest = rest[digits_end..]
                .strip_prefix(",\"value\":")
                .ok_or_else(|| err("missing value"))?;
            let num = rest.strip_suffix('}').ok_or_else(|| err("missing }"))?;
            let value = if num == "null" {
                f64::NAN
            } else {
                num.parse().map_err(|_| err("bad value"))?
            };
            t.record(t_us, &name, value);
        }
        Ok(t)
    }

    /// Parses a timeline back from [`to_csv`](Timeline::to_csv) output
    /// (the `series,t_us,value` header plus one row per sample; series
    /// names containing `,`/`"`/newline arrive RFC-4180 quoted).
    pub fn from_csv(s: &str, interval_us: u64) -> Result<Timeline, String> {
        let mut t = Timeline::new(interval_us);
        let mut lines = s.lines().enumerate();
        match lines.next() {
            Some((_, "series,t_us,value")) => {}
            other => return Err(format!("timeline csv: bad header {other:?}")),
        }
        for (ln, line) in lines {
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("timeline csv line {}: {what}: {line}", ln + 1);
            let (name, rest) = if let Some(q) = line.strip_prefix('"') {
                // Quoted name: scan for the closing quote, un-doubling "".
                let mut name = String::new();
                let mut chars = q.chars();
                loop {
                    match chars.next() {
                        Some('"') => match chars.clone().next() {
                            Some('"') => {
                                chars.next();
                                name.push('"');
                            }
                            _ => break,
                        },
                        Some(c) => name.push(c),
                        None => return Err(err("unterminated quote")),
                    }
                }
                let rest = chars.as_str();
                let rest = rest.strip_prefix(',').ok_or_else(|| err("missing comma"))?;
                (name, rest)
            } else {
                let (name, rest) = line.split_once(',').ok_or_else(|| err("missing comma"))?;
                (name.to_owned(), rest)
            };
            let (t_str, v_str) = rest.split_once(',').ok_or_else(|| err("missing value"))?;
            let t_us: u64 = t_str.parse().map_err(|_| err("bad t_us"))?;
            let value: f64 = v_str.parse().map_err(|_| err("bad value"))?;
            t.record(t_us, &name, value);
        }
        Ok(t)
    }

    /// Renders the alert log as one JSON object per line in time order:
    /// `{"t_us":…,"rule":"…","series":"…","value":…,"threshold":…,
    /// "state":"firing"|"cleared","detail":"…"}`.
    pub fn alerts_ndjson(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            out.push_str(&format!(
                "{{\"t_us\":{},\"rule\":\"{}\",\"series\":\"{}\",\"value\":{},\
                 \"threshold\":{},\"state\":\"{}\",\"detail\":\"{}\"}}\n",
                a.t_us,
                json_escape(&a.rule),
                json_escape(&a.series),
                json_num(a.value),
                json_num(a.threshold),
                a.state.as_str(),
                json_escape(&a.detail)
            ));
        }
        out
    }

    /// Parses an alert log back from
    /// [`alerts_ndjson`](Timeline::alerts_ndjson) output.
    pub fn alerts_from_ndjson(s: &str) -> Result<Vec<AlertRecord>, String> {
        let mut out = Vec::new();
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("alerts ndjson line {}: {what}: {line}", ln + 1);
            let rest = line
                .strip_prefix("{\"t_us\":")
                .ok_or_else(|| err("missing t_us"))?;
            let digits_end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let t_us: u64 = rest[..digits_end].parse().map_err(|_| err("bad t_us"))?;
            let rest = rest[digits_end..]
                .strip_prefix(",\"rule\":\"")
                .ok_or_else(|| err("missing rule"))?;
            let (rule, rest) = take_json_string(rest).ok_or_else(|| err("unterminated rule"))?;
            let rest = rest
                .strip_prefix(",\"series\":\"")
                .ok_or_else(|| err("missing series"))?;
            let (series, rest) =
                take_json_string(rest).ok_or_else(|| err("unterminated series"))?;
            let rest = rest
                .strip_prefix(",\"value\":")
                .ok_or_else(|| err("missing value"))?;
            let (value, rest) = take_json_number(rest).ok_or_else(|| err("bad value"))?;
            let rest = rest
                .strip_prefix(",\"threshold\":")
                .ok_or_else(|| err("missing threshold"))?;
            let (threshold, rest) = take_json_number(rest).ok_or_else(|| err("bad threshold"))?;
            let rest = rest
                .strip_prefix(",\"state\":\"")
                .ok_or_else(|| err("missing state"))?;
            let (state_str, rest) =
                take_json_string(rest).ok_or_else(|| err("unterminated state"))?;
            let state = match state_str.as_str() {
                "firing" => AlertState::Firing,
                "cleared" => AlertState::Cleared,
                _ => return Err(err("unknown state")),
            };
            let rest = rest
                .strip_prefix(",\"detail\":\"")
                .ok_or_else(|| err("missing detail"))?;
            let (detail, rest) =
                take_json_string(rest).ok_or_else(|| err("unterminated detail"))?;
            if rest != "}" {
                return Err(err("trailing content"));
            }
            out.push(AlertRecord {
                t_us,
                rule,
                series,
                value,
                threshold,
                state,
                detail,
            });
        }
        Ok(out)
    }

    /// Renders the exemplar log as one JSON object per line in retained
    /// order: `{"t_us":…,"series":"…","value":…,"pubend":…,"ts":…}`
    /// followed by whichever of `birth_us`/`log_us`/`forward_us`/
    /// `ingest_us` anchors resolved (absent anchors are omitted).
    pub fn exemplars_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.exemplars {
            out.push_str(&format!(
                "{{\"t_us\":{},\"series\":\"{}\",\"value\":{},\"pubend\":{},\"ts\":{}",
                e.t_us,
                json_escape(&e.series),
                json_num(e.value),
                e.pubend,
                e.ts
            ));
            for (k, v) in [
                ("birth_us", e.birth_us),
                ("log_us", e.log_us),
                ("forward_us", e.forward_us),
                ("ingest_us", e.ingest_us),
            ] {
                if let Some(v) = v {
                    out.push_str(&format!(",\"{k}\":{v}"));
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parses an exemplar log back from
    /// [`exemplars_ndjson`](Timeline::exemplars_ndjson) output.
    pub fn exemplars_from_ndjson(s: &str) -> Result<Vec<Exemplar>, String> {
        let mut out = Vec::new();
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("exemplars ndjson line {}: {what}: {line}", ln + 1);
            let rest = line
                .strip_prefix("{\"t_us\":")
                .ok_or_else(|| err("missing t_us"))?;
            let (t_us, rest) = take_u64(rest).ok_or_else(|| err("bad t_us"))?;
            let rest = rest
                .strip_prefix(",\"series\":\"")
                .ok_or_else(|| err("missing series"))?;
            let (series, rest) =
                take_json_string(rest).ok_or_else(|| err("unterminated series"))?;
            let rest = rest
                .strip_prefix(",\"value\":")
                .ok_or_else(|| err("missing value"))?;
            let (value, rest) = take_json_number(rest).ok_or_else(|| err("bad value"))?;
            let rest = rest
                .strip_prefix(",\"pubend\":")
                .ok_or_else(|| err("missing pubend"))?;
            let (pubend, rest) = take_u64(rest).ok_or_else(|| err("bad pubend"))?;
            let rest = rest
                .strip_prefix(",\"ts\":")
                .ok_or_else(|| err("missing ts"))?;
            let (ts, rest) = take_u64(rest).ok_or_else(|| err("bad ts"))?;
            let mut rest = rest;
            let mut anchors = [None; 4];
            for (i, k) in ["birth_us", "log_us", "forward_us", "ingest_us"]
                .iter()
                .enumerate()
            {
                let prefix = format!(",\"{k}\":");
                if let Some(r) = rest.strip_prefix(prefix.as_str()) {
                    let (v, r) = take_u64(r).ok_or_else(|| err("bad anchor"))?;
                    anchors[i] = Some(v);
                    rest = r;
                }
            }
            if rest != "}" {
                return Err(err("trailing content"));
            }
            out.push(Exemplar {
                t_us,
                series,
                value,
                pubend: pubend as u32,
                ts,
                birth_us: anchors[0],
                log_us: anchors[1],
                forward_us: anchors[2],
                ingest_us: anchors[3],
            });
        }
        Ok(out)
    }

    /// Renders the busy-interval log as one JSON object per line in
    /// retained order:
    /// `{"track":…,"kind":"…","start_us":…,"dur_us":…}`.
    pub fn intervals_ndjson(&self) -> String {
        let mut out = String::new();
        for iv in &self.intervals {
            out.push_str(&format!(
                "{{\"track\":{},\"kind\":\"{}\",\"start_us\":{},\"dur_us\":{}}}\n",
                iv.track,
                json_escape(iv.kind),
                iv.start_us,
                iv.dur_us
            ));
        }
        out
    }

    /// Parses a busy-interval log back from
    /// [`intervals_ndjson`](Timeline::intervals_ndjson) output; unknown
    /// kinds collapse to `"other"` rather than failing.
    pub fn intervals_from_ndjson(s: &str) -> Result<Vec<BusyInterval>, String> {
        let mut out = Vec::new();
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("intervals ndjson line {}: {what}: {line}", ln + 1);
            let rest = line
                .strip_prefix("{\"track\":")
                .ok_or_else(|| err("missing track"))?;
            let (track, rest) = take_u64(rest).ok_or_else(|| err("bad track"))?;
            let rest = rest
                .strip_prefix(",\"kind\":\"")
                .ok_or_else(|| err("missing kind"))?;
            let (kind, rest) = take_json_string(rest).ok_or_else(|| err("unterminated kind"))?;
            let rest = rest
                .strip_prefix(",\"start_us\":")
                .ok_or_else(|| err("missing start_us"))?;
            let (start_us, rest) = take_u64(rest).ok_or_else(|| err("bad start_us"))?;
            let rest = rest
                .strip_prefix(",\"dur_us\":")
                .ok_or_else(|| err("missing dur_us"))?;
            let (dur_us, rest) = take_u64(rest).ok_or_else(|| err("bad dur_us"))?;
            if rest != "}" {
                return Err(err("trailing content"));
            }
            out.push(BusyInterval {
                track: track as u32,
                kind: intern_kind(&kind),
                start_us,
                dur_us,
            });
        }
        Ok(out)
    }

    /// Renders the top-K snapshot log as one JSON object per line in
    /// retained order: `{"t_us":…,"dim":"…","total":…,"entries":
    /// [{"entity":…,"count":…,"err":…},…]}` with entries in ranked
    /// order (count descending, entity ascending on ties).
    pub fn topks_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.topks {
            out.push_str(&format!(
                "{{\"t_us\":{},\"dim\":\"{}\",\"total\":{},\"entries\":[",
                s.t_us,
                json_escape(s.dim),
                s.total
            ));
            for (i, e) in s.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"entity\":{},\"count\":{},\"err\":{}}}",
                    e.entity, e.count, e.err
                ));
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parses a top-K snapshot log back from
    /// [`topks_ndjson`](Timeline::topks_ndjson) output; unknown
    /// dimensions collapse to `"other"` rather than failing (same
    /// policy as interval kinds).
    pub fn topks_from_ndjson(s: &str) -> Result<Vec<TopKSnapshot>, String> {
        let mut out = Vec::new();
        for (ln, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("topk ndjson line {}: {what}: {line}", ln + 1);
            let rest = line
                .strip_prefix("{\"t_us\":")
                .ok_or_else(|| err("missing t_us"))?;
            let (t_us, rest) = take_u64(rest).ok_or_else(|| err("bad t_us"))?;
            let rest = rest
                .strip_prefix(",\"dim\":\"")
                .ok_or_else(|| err("missing dim"))?;
            let (dim, rest) = take_json_string(rest).ok_or_else(|| err("unterminated dim"))?;
            let rest = rest
                .strip_prefix(",\"total\":")
                .ok_or_else(|| err("missing total"))?;
            let (total, rest) = take_u64(rest).ok_or_else(|| err("bad total"))?;
            let mut rest = rest
                .strip_prefix(",\"entries\":[")
                .ok_or_else(|| err("missing entries"))?;
            let mut entries = Vec::new();
            while let Some(r) = rest.strip_prefix("{\"entity\":") {
                let (entity, r) = take_u64(r).ok_or_else(|| err("bad entity"))?;
                let r = r
                    .strip_prefix(",\"count\":")
                    .ok_or_else(|| err("missing count"))?;
                let (count, r) = take_u64(r).ok_or_else(|| err("bad count"))?;
                let r = r
                    .strip_prefix(",\"err\":")
                    .ok_or_else(|| err("missing err"))?;
                let (e, r) = take_u64(r).ok_or_else(|| err("bad err"))?;
                entries.push(TopKEntry {
                    entity,
                    count,
                    err: e,
                });
                rest = r
                    .strip_prefix('}')
                    .ok_or_else(|| err("unterminated entry"))?;
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                }
            }
            if rest != "]}" {
                return Err(err("trailing content"));
            }
            out.push(TopKSnapshot {
                t_us,
                dim: intern_dim(&dim),
                total,
                entries,
            });
        }
        Ok(out)
    }
}

/// Consumes a leading run of ASCII digits as a `u64`, yielding the
/// remainder (used by the fixed-order ndjson parsers above).
fn take_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok().map(|v| (v, &s[end..]))
}

/// Consumes an escaped JSON string body up to its closing quote,
/// returning the unescaped content and the remainder after the quote.
/// Only the escapes [`json_escape`] emits are understood.
fn take_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Consumes a JSON number (or the `null` that [`json_num`] writes for
/// non-finite values, returned as NaN), yielding the remainder.
fn take_json_number(s: &str) -> Option<(f64, &str)> {
    if let Some(rest) = s.strip_prefix("null") {
        return Some((f64::NAN, rest));
    }
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    s[..end].parse().ok().map(|v| (v, &s[end..]))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders `values` as a fixed-palette ASCII sparkline, resampled by
/// bucket mean to at most `width` glyphs. Flat series render as a line
/// of mid-height blocks rather than dividing by a zero range.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Resample to ≤ width columns: mean of each equal span.
    let cols = width.min(values.len());
    let mut sampled = Vec::with_capacity(cols);
    for c in 0..cols {
        let lo = c * values.len() / cols;
        let hi = ((c + 1) * values.len() / cols).max(lo + 1);
        let span = &values[lo..hi];
        sampled.push(span.iter().sum::<f64>() / span.len() as f64);
    }
    let min = sampled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sampled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    sampled
        .iter()
        .map(|&v| {
            if !(max - min).is_normal() {
                GLYPHS[3]
            } else {
                let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
                GLYPHS[((frac * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Strips trailing shard segments (`.w<i>`, `.n<i>`, `.p<i>`, chained)
/// from a gauge name; `None` when the name carries no shard suffix.
///
/// ```
/// use gryphon_sim::telemetry::strip_shard_suffix;
/// assert_eq!(
///     strip_shard_suffix("telemetry.doubt_width_ticks.n3.p1"),
///     Some("telemetry.doubt_width_ticks")
/// );
/// assert_eq!(strip_shard_suffix("telemetry.queue_depth"), None);
/// ```
pub fn strip_shard_suffix(name: &str) -> Option<&str> {
    let mut base = name;
    while let Some((head, tail)) = base.rsplit_once('.') {
        let mut chars = tail.chars();
        let is_shard = matches!(chars.next(), Some('w' | 'n' | 'p'))
            && chars.clone().next().is_some()
            && chars.all(|c| c.is_ascii_digit());
        if !is_shard || head.is_empty() {
            break;
        }
        base = head;
    }
    (base.len() < name.len()).then_some(base)
}

/// The registered base name a timeline series derives from: strips a
/// `.rate` suffix (counter-rate series) or a `.q<digits>` suffix
/// (windowed histogram quantile series, e.g.
/// `lineage.stage.deliver_us.q99`), then any shard segments.
pub fn series_base_name(series: &str) -> &str {
    let stem = series.strip_suffix(".rate").unwrap_or(series);
    let stem = match stem.rsplit_once('.') {
        Some((head, tail))
            if tail.len() > 1
                && tail.starts_with('q')
                && tail[1..].chars().all(|c| c.is_ascii_digit()) =>
        {
            head
        }
        _ => stem,
    };
    strip_shard_suffix(stem).unwrap_or(stem)
}

/// Windowed sampler: every `interval_us` it snapshots all gauges and
/// turns counter deltas into per-second rates, appending to a
/// [`Timeline`]. The caller owns the clock — the simulator fires due
/// samples between scheduler events; the threaded runtime fires them
/// from a wall-clock thread.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval_us: u64,
    next_at_us: u64,
    last_t_us: u64,
    last_counters: BTreeMap<String, f64>,
    last_histograms: BTreeMap<String, Histogram>,
    timeline: Timeline,
}

impl Sampler {
    /// A sampler firing every `interval_us` (clamped to ≥ 1).
    pub fn new(interval_us: u64) -> Sampler {
        let interval_us = interval_us.max(1);
        Sampler {
            interval_us,
            next_at_us: interval_us,
            last_t_us: 0,
            last_counters: BTreeMap::new(),
            last_histograms: BTreeMap::new(),
            timeline: Timeline::new(interval_us),
        }
    }

    /// Time of the next due sample.
    pub fn next_at_us(&self) -> u64 {
        self.next_at_us
    }

    /// Takes one sample at `t_us` from `metrics`: every gauge becomes a
    /// point on its own series (plus the shard-stripped aggregate sum),
    /// every counter becomes a point on `<name>.rate` holding its
    /// per-second rate over the elapsed window, and every histogram that
    /// saw samples this window contributes `<name>.q50/.q95/.q99`
    /// points from the window-only distribution (cumulative minus the
    /// previous snapshot — see [`Histogram::delta_since`]). The `q`
    /// spelling keeps quantile suffixes disjoint from `.p<i>` pubend
    /// shard suffixes.
    pub fn sample(&mut self, t_us: u64, metrics: &Metrics) {
        let mut aggregates: BTreeMap<&str, f64> = BTreeMap::new();
        for name in metrics.gauge_names() {
            let v = metrics.gauge(name).unwrap_or(0.0);
            self.timeline.record(t_us, name, v);
            if let Some(base) = strip_shard_suffix(name) {
                *aggregates.entry(base).or_insert(0.0) += v;
            }
        }
        let rendered: Vec<(String, f64)> = aggregates
            .into_iter()
            .map(|(base, v)| (base.to_owned(), v))
            .collect();
        for (base, v) in rendered {
            self.timeline.record(t_us, &base, v);
        }
        let dt_s = t_us.saturating_sub(self.last_t_us) as f64 / 1e6;
        for name in metrics.counter_names() {
            let cur = metrics.counter(name);
            let prev = self.last_counters.get(name).copied().unwrap_or(0.0);
            let rate = if dt_s > 0.0 { (cur - prev) / dt_s } else { 0.0 };
            self.timeline.record(t_us, &format!("{name}.rate"), rate);
            self.last_counters.insert(name.to_owned(), cur);
        }
        for name in metrics.histogram_names() {
            let Some(hist) = metrics.histogram(name) else {
                continue;
            };
            let window = match self.last_histograms.get(name) {
                Some(prev) => hist.delta_since(prev),
                None => hist.clone(),
            };
            if window.count() > 0 {
                for (suffix, q) in [("q50", 0.5), ("q95", 0.95), ("q99", 0.99)] {
                    if let Some(v) = window.percentile(q) {
                        self.timeline.record(t_us, &format!("{name}.{suffix}"), v);
                    }
                }
            }
            self.last_histograms.insert(name.to_owned(), hist.clone());
        }
        self.last_t_us = t_us;
        self.next_at_us = t_us.saturating_add(self.interval_us);
    }

    /// The timeline collected so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable access to the timeline, used by the health engine to
    /// attach alert records to the run it judged.
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// Consumes the sampler, yielding its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }
}

/// What a driver hands one [`Observer::window`] besides its metrics.
///
/// The forensics streams arrive already drained from the driver's
/// bounded collectors: tail exemplars resolved against their lineage
/// spans, busy intervals in track order, and the records each
/// collector shed since the last window (surfaced as the
/// `forensics.*_dropped` counters together with the timeline's own
/// evictions).
#[derive(Debug, Default)]
pub struct WindowInput {
    /// Metric shards the sample reads beneath the observer's own
    /// registry, already merged (the threaded runtime's worker shards,
    /// in worker-index order). `None` when the registry passed to
    /// [`Observer::window`] is the whole run.
    pub shards: Option<Metrics>,
    /// Resolved tail exemplars, worst first.
    pub exemplars: Vec<Exemplar>,
    /// Exemplars the reservoir shed since the last window.
    pub exemplars_dropped: u64,
    /// Busy intervals collected since the last window.
    pub intervals: Vec<BusyInterval>,
    /// Intervals the ring shed since the last window.
    pub intervals_dropped: u64,
}

/// The per-window observer: the [`Sampler`], the optional
/// [`HealthEngine`] and the window's [`PopulationSketch`], closed once
/// per window by [`Observer::window`] (DESIGN.md §13).
///
/// Every driver owns its clock and calls the same method: the
/// simulator between scheduler events, `mega_subs` once per census
/// phase, and the threaded runtime from its sampler thread and once
/// more at `stop()`. The observer only appends to metrics and the
/// timeline, so it never feeds back into the run.
#[derive(Debug, Clone)]
pub struct Observer {
    sampler: Sampler,
    health: Option<HealthEngine>,
    sketch: Option<PopulationSketch>,
}

impl Observer {
    /// An observer sampling every `interval_us`, with health and the
    /// sketch disarmed.
    pub fn new(interval_us: u64) -> Observer {
        Observer {
            sampler: Sampler::new(interval_us),
            health: None,
            sketch: None,
        }
    }

    /// Restarts sampling every `interval_us` on a fresh timeline,
    /// keeping the armed health engine and sketch.
    pub fn reset_sampler(&mut self, interval_us: u64) {
        self.sampler = Sampler::new(interval_us);
    }

    /// Arms `engine` to judge every window (prime its counters on the
    /// driver's registry first; see [`HealthEngine::prime`]).
    pub fn arm_health(&mut self, engine: HealthEngine) {
        self.health = Some(engine);
    }

    /// Arms the window's population sketch.
    pub fn arm_sketch(&mut self, cfg: SketchConfig) {
        self.sketch = Some(PopulationSketch::new(cfg));
    }

    /// The window's sketch, for drivers feeding
    /// [`NodeCtx::attribute`](crate::NodeCtx::attribute) into it
    /// (`None` while disarmed).
    pub fn sketch_mut(&mut self) -> Option<&mut PopulationSketch> {
        self.sketch.as_mut()
    }

    /// Time of the next due window.
    pub fn next_at_us(&self) -> u64 {
        self.sampler.next_at_us()
    }

    /// The timeline collected so far.
    pub fn timeline(&self) -> &Timeline {
        self.sampler.timeline()
    }

    /// Consumes the observer, yielding its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.sampler.into_timeline()
    }

    /// Closes the window at `at_us`, in this order: drain the sketch,
    /// publish its lag-spectrum and dominance gauges into `metrics`,
    /// sample, let the health engine judge the window (naming the
    /// culprit entity of sketch-driven alerts and counting firings as
    /// `health.alert.<rule>`), then append the top-K snapshots and the
    /// forensics streams to the timeline. Returns the alerts it pushed.
    pub fn window(
        &mut self,
        at_us: u64,
        metrics: &mut Metrics,
        input: WindowInput,
    ) -> Vec<AlertRecord> {
        let snaps = self.sketch.as_mut().map(|sk| {
            let (snaps, stats) = sk.drain(at_us);
            // Gauges land before the sample so this window's snapshot
            // reflects this window's sweep.
            if let Some(stats) = stats {
                metrics.set_gauge(names::SKETCH_LAG_POPULATION, stats.population as f64);
                metrics.set_gauge(names::SKETCH_LAG_P50_US, stats.p50_us as f64);
                metrics.set_gauge(names::SKETCH_LAG_P99_US, stats.p99_us as f64);
                metrics.set_gauge(names::SKETCH_LAG_MAX_US, stats.max_us as f64);
                metrics.set_gauge(names::SKETCH_LAG_SKEW, stats.skew());
            }
            if let Some(bytes) = snaps.iter().find(|s| s.dim == DIM_SUB_BYTES) {
                metrics.set_gauge(names::SKETCH_DOMINANCE_SHARE, bytes.alarm_share());
            }
            snaps
        });
        match input.shards {
            Some(mut view) => {
                view.merge(metrics);
                self.sampler.sample(at_us, &view);
            }
            None => self.sampler.sample(at_us, metrics),
        }
        let mut pushed = Vec::new();
        if let Some(engine) = self.health.as_mut() {
            for mut alert in engine.evaluate(at_us, self.sampler.timeline()) {
                if let Some(snaps) = &snaps {
                    name_culprit(&mut alert.detail, &alert.series, snaps);
                }
                if alert.state == AlertState::Firing {
                    metrics.count(&format!("health.alert.{}", alert.rule), 1.0);
                }
                pushed.push(alert.clone());
                self.sampler.timeline_mut().push_alert(alert);
            }
        }
        let timeline = self.sampler.timeline_mut();
        let dropped: u64 = snaps
            .into_iter()
            .flatten()
            .map(|s| timeline.push_topk(s))
            .sum();
        count_dropped(metrics, names::FORENSICS_TOPK_DROPPED, dropped);
        let dropped = input.exemplars_dropped
            + input
                .exemplars
                .into_iter()
                .map(|ex| timeline.push_exemplar(ex))
                .sum::<u64>();
        count_dropped(metrics, names::FORENSICS_EXEMPLAR_DROPPED, dropped);
        let dropped = input.intervals_dropped
            + input
                .intervals
                .into_iter()
                .map(|iv| timeline.push_interval(iv))
                .sum::<u64>();
        count_dropped(metrics, names::FORENSICS_INTERVAL_DROPPED, dropped);
        pushed
    }
}

/// Counts `dropped` shed records on `counter`, leaving the counter
/// unregistered while nothing was ever shed.
fn count_dropped(metrics: &mut Metrics, counter: &str, dropped: u64) {
    if dropped > 0 {
        metrics.count(counter, dropped as f64);
    }
}

/// A tiny blocking-TCP text endpoint: serves whatever `content()`
/// returns to every HTTP GET, `Connection: close` per request, plus a
/// `/healthz` liveness route answering with `health()` (an alert-count
/// body). Used for the live `/metrics` scrape
/// (`RunningNet::serve_metrics`) and `xp --metrics-addr`; shut down
/// explicitly via [`TextServer::shutdown`] or implicitly on drop —
/// either way the accept thread is joined, never leaked.
pub struct TextServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TextServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `content()` from a
    /// background thread until the server is shut down. `/healthz`
    /// reports zero alerts; use
    /// [`serve_with_health`](TextServer::serve_with_health) to wire a
    /// real alert count.
    pub fn serve<F>(addr: &str, content: F) -> std::io::Result<TextServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        Self::serve_with_health(addr, content, || "alerts 0\n".to_owned())
    }

    /// Like [`serve`](TextServer::serve), with a dedicated `health()`
    /// closure answering `GET /healthz` (convention: `alerts <n>\n`,
    /// always status 200 — liveness, not judgement; the body carries
    /// the count for the caller to alert on).
    pub fn serve_with_health<F, H>(addr: &str, content: F, health: H) -> std::io::Result<TextServer>
    where
        F: Fn() -> String + Send + 'static,
        H: Fn() -> String + Send + 'static,
    {
        let listener = std::net::TcpListener::bind(addr)?;
        // Nonblocking accept so the thread can observe the stop flag;
        // each accepted socket is switched back to blocking I/O.
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("telemetry-scrape".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut sock, _)) => {
                            let _ = sock.set_nonblocking(false);
                            let _ =
                                sock.set_read_timeout(Some(std::time::Duration::from_millis(500)));
                            match read_request_line(&mut sock) {
                                Some((method, path)) if method == "GET" => {
                                    let body =
                                        if path == "/healthz" || path.starts_with("/healthz?") {
                                            health()
                                        } else {
                                            content()
                                        };
                                    let head = format!(
                                        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; \
                                         version=0.0.4\r\nContent-Length: {}\r\nConnection: \
                                         close\r\n\r\n",
                                        body.len()
                                    );
                                    let _ = sock.write_all(head.as_bytes());
                                    let _ = sock.write_all(body.as_bytes());
                                }
                                _ => {
                                    let _ = sock.write_all(
                                        b"HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\n\
                                          Content-Length: 0\r\nConnection: close\r\n\r\n",
                                    );
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(TextServer {
            local_addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops the accept loop and joins the accept thread; the listening
    /// socket is closed when this returns. Idempotent — `Drop` routes
    /// through here too.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for TextServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads the request head until the header terminator, EOF, timeout, or
/// a sanity cap, and returns the request-line `(method, path)` tokens
/// (`None` on a garbled request, which the caller answers with 405).
fn read_request_line(sock: &mut std::net::TcpStream) -> Option<(String, String)> {
    let mut buf = [0u8; 1024];
    let mut seen: Vec<u8> = Vec::new();
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8_192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = std::str::from_utf8(&seen).ok()?;
    let request_line = head.lines().next()?;
    let mut tokens = request_line.split_whitespace();
    let method = tokens.next()?;
    let path = tokens.next()?;
    (!method.is_empty()).then(|| (method.to_owned(), path.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    #[test]
    fn sampler_snapshots_gauges_and_counter_rates() {
        let mut m = Metrics::default();
        let mut s = Sampler::new(1_000_000);
        m.set_gauge("telemetry.queue_depth", 4.0);
        m.count("delivered", 100.0);
        s.sample(1_000_000, &m);
        m.set_gauge("telemetry.queue_depth", 9.0);
        m.count("delivered", 50.0);
        s.sample(2_000_000, &m);

        let t = s.timeline();
        assert_eq!(
            t.series("telemetry.queue_depth"),
            &[(1_000_000, 4.0), (2_000_000, 9.0)]
        );
        // First window rate covers t=0..1s (100 events), second 1..2s.
        assert_eq!(
            t.series("delivered.rate"),
            &[(1_000_000, 100.0), (2_000_000, 50.0)]
        );
    }

    /// One window, in order: the sketch's dominance gauge lands before
    /// the sample, the rule judging it names the leading entity, and
    /// the sample reads the worker shards beneath the registry.
    #[test]
    fn observer_window_runs_the_sequence_once() {
        use crate::sketch::DIM_SUB_BYTES;
        let mut obs = Observer::new(1_000);
        let mut m = Metrics::default();
        let engine = HealthEngine::new(crate::health::default_rules());
        engine.prime(&mut m);
        obs.arm_health(engine);
        obs.arm_sketch(SketchConfig::default());
        let sketch = obs.sketch_mut().expect("armed");
        sketch.attribute(DIM_SUB_BYTES, 7, 900);
        for entity in 1..=4 {
            sketch.attribute(DIM_SUB_BYTES, entity, 25);
        }
        let mut shards = Metrics::default();
        shards.count("worker.delivered", 5.0);
        let input = WindowInput {
            shards: Some(shards),
            ..WindowInput::default()
        };
        let alerts = obs.window(1_000, &mut m, input);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "entity_dominance");
        assert!(
            alerts[0]
                .detail
                .contains("hottest_subs_by_bytes entity 7 ("),
            "{}",
            alerts[0].detail
        );
        assert_eq!(m.counter("health.alert.entity_dominance"), 1.0);
        let t = obs.timeline();
        assert_eq!(t.series(names::SKETCH_DOMINANCE_SHARE), &[(1_000, 0.9)]);
        assert_eq!(t.series("worker.delivered.rate"), &[(1_000, 5_000.0)]);
        assert_eq!(t.alerts().len(), 1);
        assert_eq!(t.topks().len(), 1);
        assert_eq!(obs.next_at_us(), 2_000);
    }

    #[test]
    fn sharded_gauges_aggregate_to_base_name() {
        let mut m = Metrics::default();
        m.set_gauge("telemetry.queue_depth.w0", 3.0);
        m.set_gauge("telemetry.queue_depth.w1", 5.0);
        m.set_gauge("telemetry.doubt_width_ticks.n3.p1", 7.0);
        let mut s = Sampler::new(500);
        s.sample(500, &m);
        let t = s.timeline();
        assert_eq!(t.series("telemetry.queue_depth"), &[(500, 8.0)]);
        assert_eq!(t.series("telemetry.queue_depth.w1"), &[(500, 5.0)]);
        assert_eq!(t.series("telemetry.doubt_width_ticks"), &[(500, 7.0)]);
    }

    #[test]
    fn shard_suffix_stripping() {
        assert_eq!(strip_shard_suffix("a.b.w12"), Some("a.b"));
        assert_eq!(strip_shard_suffix("a.n3.p4"), Some("a"));
        assert_eq!(strip_shard_suffix("a.b"), None);
        assert_eq!(strip_shard_suffix("a.w"), None); // no digits
        assert_eq!(strip_shard_suffix("a.q4"), None); // unknown kind
        assert_eq!(series_base_name("shb.delivered.rate"), "shb.delivered");
        assert_eq!(
            series_base_name("telemetry.catchup_backlog_ticks.n5"),
            names::TELEMETRY_CATCHUP_BACKLOG_TICKS
        );
        // Quantile suffixes strip like .rate does, and stay disjoint
        // from `.p<i>` pubend shard suffixes.
        assert_eq!(
            series_base_name("lineage.stage.deliver_us.q99"),
            names::LINEAGE_STAGE_DELIVER_US
        );
        assert_eq!(series_base_name("a.q"), "a.q"); // no digits: not a quantile
        assert_eq!(series_base_name("a.p99"), "a"); // pubend shard, not quantile
    }

    #[test]
    fn exports_are_deterministic_and_parseable() {
        let mut t = Timeline::new(250);
        t.record(250, "b", 1.5);
        t.record(500, "b", 2.5);
        t.record(250, "a", f64::NAN);
        let nd = t.to_ndjson();
        assert_eq!(
            nd,
            "{\"series\":\"a\",\"t_us\":250,\"value\":null}\n\
             {\"series\":\"b\",\"t_us\":250,\"value\":1.5}\n\
             {\"series\":\"b\",\"t_us\":500,\"value\":2.5}\n"
        );
        let csv = t.to_csv();
        assert!(csv.starts_with("series,t_us,value\n"));
        assert!(csv.contains("b,250,1.5\n"));
    }

    #[test]
    fn timeline_merge_is_worker_index_deterministic() {
        let mut w0 = Timeline::new(100);
        w0.record(100, "x", 1.0);
        w0.record(200, "x", 2.0);
        let mut w1 = Timeline::new(100);
        w1.record(100, "x", 10.0);
        let mut merged = Timeline::new(0);
        merged.merge(&w0);
        merged.merge(&w1);
        // Stable sort: equal timestamps keep merge-call (worker-index)
        // order.
        assert_eq!(merged.series("x"), &[(100, 1.0), (100, 10.0), (200, 2.0)]);
        assert_eq!(merged.interval_us(), 100);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        let flat = sparkline(&[3.0, 3.0, 3.0], 10);
        assert_eq!(flat.chars().count(), 3);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(ramp, "▁▂▃▄▅▆▇█");
        // Resampling caps the width.
        let wide: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&wide, 60).chars().count(), 60);
    }

    /// The bundle-format pin (ISSUE 6 satellite): a populated timeline
    /// exported to ndjson and CSV must re-parse — the doctor's reader
    /// path — into the identical sample store, byte-for-byte on
    /// re-export.
    #[test]
    fn timeline_ndjson_and_csv_round_trip() {
        let mut m = Metrics::default();
        m.set_gauge("telemetry.queue_depth.w0", 3.0);
        m.set_gauge("telemetry.queue_depth.w1", 5.0);
        m.set_gauge("telemetry.doubt_width_ticks.n3.p1", 7.25);
        m.count("shb.delivered", 123.0);
        m.observe("lineage.stage.deliver_us", 1_234.5);
        let mut s = Sampler::new(500_000);
        s.sample(500_000, &m);
        m.count("shb.delivered", 77.0);
        m.set_gauge("telemetry.queue_depth.w0", 0.125);
        s.sample(1_000_000, &m);
        let original = s.into_timeline();
        assert!(!original.is_empty());
        assert!(!original.series("telemetry.queue_depth").is_empty());
        assert!(!original.series("shb.delivered.rate").is_empty());

        let nd = original.to_ndjson();
        let parsed = Timeline::from_ndjson(&nd, original.interval_us()).unwrap();
        assert_eq!(parsed.series_names(), original.series_names());
        for name in original.series_names() {
            assert_eq!(parsed.series(name), original.series(name), "series {name}");
        }
        // Byte-for-byte: re-export of the parse equals the export.
        assert_eq!(parsed.to_ndjson(), nd);

        let csv = original.to_csv();
        let from_csv = Timeline::from_csv(&csv, original.interval_us()).unwrap();
        assert_eq!(from_csv.to_csv(), csv);
        assert_eq!(from_csv.to_ndjson(), nd);
    }

    #[test]
    fn timeline_parsers_reject_garbage_and_handle_quoting() {
        assert!(Timeline::from_ndjson("{\"nope\":1}\n", 500).is_err());
        assert!(Timeline::from_csv("wrong,header\n", 500).is_err());
        // Awkward series names survive both formats.
        let mut t = Timeline::new(250);
        t.record(250, "weird \"name\", with, commas", 1.5);
        t.record(500, "tab\tseries", -0.75);
        let nd = t.to_ndjson();
        let parsed = Timeline::from_ndjson(&nd, 250).unwrap();
        assert_eq!(parsed.to_ndjson(), nd);
        let csv = t.to_csv();
        let parsed_csv = Timeline::from_csv(&csv, 250).unwrap();
        assert_eq!(parsed_csv.to_ndjson(), nd);
        // Non-finite values collapse to null and come back NaN.
        let mut nan = Timeline::new(250);
        nan.record(250, "x", f64::NAN);
        let back = Timeline::from_ndjson(&nan.to_ndjson(), 250).unwrap();
        assert!(back.series("x")[0].1.is_nan());
    }

    #[test]
    fn sampler_emits_windowed_histogram_quantiles() {
        let mut m = Metrics::default();
        for v in [100.0, 200.0, 300.0] {
            m.observe("lat_us", v);
        }
        let mut s = Sampler::new(1_000_000);
        s.sample(1_000_000, &m);
        // Second window: much slower samples; the windowed q50 must
        // reflect only them, not the cumulative distribution.
        for v in [10_000.0, 20_000.0, 30_000.0] {
            m.observe("lat_us", v);
        }
        s.sample(2_000_000, &m);
        // Third window: no new samples → no new quantile points.
        s.sample(3_000_000, &m);
        let t = s.timeline();
        let q50 = t.series("lat_us.q50");
        assert_eq!(q50.len(), 2, "quiet windows must not emit points");
        assert!(q50[0].1 < 1_000.0, "first window q50 {}", q50[0].1);
        assert!(q50[1].1 > 5_000.0, "second window q50 {}", q50[1].1);
        assert_eq!(t.series("lat_us.q95").len(), 2);
        assert_eq!(t.series("lat_us.q99").len(), 2);
    }

    #[test]
    fn alerts_live_beside_samples_and_round_trip() {
        use crate::health::{AlertRecord, AlertState};
        let mut t = Timeline::new(500);
        t.record(500, "g", 1.0);
        t.push_alert(AlertRecord {
            t_us: 500,
            rule: "queue_depth".into(),
            series: "telemetry.queue_depth".into(),
            value: 2e6,
            threshold: 1e6,
            state: AlertState::Firing,
            detail: "level 2000000 > ceiling 1000000".into(),
        });
        t.push_alert(AlertRecord {
            t_us: 1_000,
            rule: "queue_depth".into(),
            series: "telemetry.queue_depth".into(),
            value: 10.0,
            threshold: 0.0,
            state: AlertState::Cleared,
            detail: "back \"within\" bounds".into(),
        });
        // Sample exports stay alert-free.
        assert_eq!(t.to_ndjson().lines().count(), 1);
        assert_eq!(t.len(), 1);
        let nd = t.alerts_ndjson();
        assert_eq!(nd.lines().count(), 2);
        let parsed = Timeline::alerts_from_ndjson(&nd).unwrap();
        assert_eq!(parsed, t.alerts());
        // Merge carries alerts across and keeps time order.
        let mut merged = Timeline::new(0);
        merged.merge(&t);
        assert_eq!(merged.alerts().len(), 2);
        assert!(merged.alerts()[0].t_us <= merged.alerts()[1].t_us);
        assert!(Timeline::alerts_from_ndjson("{\"bogus\":1}").is_err());
    }

    /// The forensics streams (exemplars, busy intervals) live beside
    /// the sample series, export as their own ndjson files, re-parse
    /// byte-for-byte, and stay strictly bounded.
    #[test]
    fn exemplars_and_intervals_round_trip_and_stay_bounded() {
        use crate::forensics::{BusyInterval, Exemplar, KIND_COMMIT, KIND_DISPATCH};
        let mut t = Timeline::new(500);
        t.record(500, "g", 1.0);
        assert_eq!(
            t.push_exemplar(Exemplar {
                t_us: 900,
                series: "lineage.stage.deliver_us".into(),
                value: 1_250.5,
                pubend: 3,
                ts: 41,
                birth_us: Some(100),
                log_us: Some(400),
                forward_us: None,
                ingest_us: Some(700),
            }),
            0
        );
        t.push_interval(BusyInterval {
            track: 2,
            kind: KIND_COMMIT,
            start_us: 650,
            dur_us: 250,
        });
        t.push_interval(BusyInterval {
            track: 0,
            kind: KIND_DISPATCH,
            start_us: 700,
            dur_us: 10,
        });
        // Sample exports stay sample-only.
        assert_eq!(t.to_ndjson().lines().count(), 1);
        let ex_nd = t.exemplars_ndjson();
        assert!(!ex_nd.contains("\"forward_us\""), "{ex_nd}");
        let parsed = Timeline::exemplars_from_ndjson(&ex_nd).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], *t.exemplars().next().unwrap());
        let iv_nd = t.intervals_ndjson();
        let parsed_iv = Timeline::intervals_from_ndjson(&iv_nd).unwrap();
        assert_eq!(parsed_iv.len(), 2);
        assert_eq!(parsed_iv[0].kind, KIND_COMMIT);
        // Re-export of the parse equals the export.
        let mut back = Timeline::new(500);
        for e in parsed {
            back.push_exemplar(e);
        }
        for iv in parsed_iv {
            back.push_interval(iv);
        }
        assert_eq!(back.exemplars_ndjson(), ex_nd);
        assert_eq!(back.intervals_ndjson(), iv_nd);
        // Unknown kinds collapse to "other"; garbage is rejected.
        let odd = Timeline::intervals_from_ndjson(
            "{\"track\":1,\"kind\":\"weird\",\"start_us\":1,\"dur_us\":2}\n",
        )
        .unwrap();
        assert_eq!(odd[0].kind, "other");
        assert!(Timeline::exemplars_from_ndjson("{\"bogus\":1}\n").is_err());
        assert!(Timeline::intervals_from_ndjson("{\"bogus\":1}\n").is_err());
        // Bounded: pushes past the cap evict the oldest and report it.
        let mut full = Timeline::new(1);
        let mut evicted = 0u64;
        for i in 0..(TIMELINE_INTERVAL_CAP as u64 + 10) {
            evicted += full.push_interval(BusyInterval {
                track: 0,
                kind: KIND_DISPATCH,
                start_us: i,
                dur_us: 1,
            });
        }
        assert_eq!(full.intervals().len(), TIMELINE_INTERVAL_CAP);
        assert_eq!(evicted, 10);
        assert_eq!(full.intervals().next().unwrap().start_us, 10);
        // Caps are runtime-configurable (ISSUE 10 satellite): an
        // override string tightens the same bound without recompiling.
        let caps = TimelineCaps::parse("intervals=16, exemplars=8,topks=4").unwrap();
        assert_eq!(
            caps,
            TimelineCaps {
                exemplars: 8,
                intervals: 16,
                topks: 4
            }
        );
        let mut tight = Timeline::with_caps(1, caps);
        let mut evicted = 0u64;
        for i in 0..20u64 {
            evicted += tight.push_interval(BusyInterval {
                track: 0,
                kind: KIND_DISPATCH,
                start_us: i,
                dur_us: 1,
            });
        }
        assert_eq!(tight.intervals().len(), 16);
        assert_eq!(evicted, 4);
        // Partial overrides keep compiled defaults; garbage is loud.
        let partial = TimelineCaps::parse("exemplars=100").unwrap();
        assert_eq!(partial.intervals, TIMELINE_INTERVAL_CAP);
        assert_eq!(partial.topks, TIMELINE_TOPK_CAP);
        assert_eq!(TimelineCaps::parse("").unwrap(), TimelineCaps::default());
        assert!(TimelineCaps::parse("exemplars=lots").is_err());
        assert!(TimelineCaps::parse("mystery=4").is_err());
        assert!(TimelineCaps::parse("exemplars").is_err());
        // Zero clamps to 1 (a cap of 0 would make every push a drop).
        assert_eq!(TimelineCaps::parse("topks=0").unwrap().topks, 1);
        // Merge carries both streams across.
        let mut merged = Timeline::new(0);
        merged.merge(&t);
        assert_eq!(merged.exemplars().len(), 1);
        assert_eq!(merged.intervals().len(), 2);
        assert_eq!(
            merged.intervals().next().unwrap().kind,
            KIND_COMMIT,
            "sorted by start_us"
        );
    }

    /// The top-K stream (ISSUE 10): snapshots live beside the sample
    /// series, export as their own ndjson file, re-parse byte-for-byte,
    /// stay bounded, and merge deterministically.
    #[test]
    fn topk_snapshots_round_trip_and_stay_bounded() {
        use crate::sketch::{TopKEntry, TopKSnapshot, DIM_SUB_BYTES, DIM_SUB_LAG};
        let mut t = Timeline::with_caps(
            500,
            TimelineCaps {
                topks: 3,
                ..TimelineCaps::default()
            },
        );
        t.record(500, "g", 1.0);
        assert_eq!(
            t.push_topk(TopKSnapshot {
                t_us: 500,
                dim: DIM_SUB_LAG,
                total: 5_010,
                entries: vec![
                    TopKEntry {
                        entity: 42,
                        count: 5_000,
                        err: 0
                    },
                    TopKEntry {
                        entity: 7,
                        count: 10,
                        err: 2
                    },
                ],
            }),
            0
        );
        t.push_topk(TopKSnapshot {
            t_us: 500,
            dim: DIM_SUB_BYTES,
            total: 0,
            entries: vec![],
        });
        // Sample exports stay sample-only.
        assert_eq!(t.to_ndjson().lines().count(), 1);
        let nd = t.topks_ndjson();
        assert!(
            nd.starts_with(
                "{\"t_us\":500,\"dim\":\"slowest_subs_by_lag\",\"total\":5010,\
                 \"entries\":[{\"entity\":42,\"count\":5000,\"err\":0},"
            ),
            "{nd}"
        );
        let parsed = Timeline::topks_from_ndjson(&nd).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], *t.topks().next().unwrap());
        let mut back = Timeline::new(500);
        for s in parsed {
            back.push_topk(s);
        }
        assert_eq!(back.topks_ndjson(), nd);
        // Unknown dims collapse to "other"; garbage is rejected.
        let odd = Timeline::topks_from_ndjson(
            "{\"t_us\":1,\"dim\":\"weird\",\"total\":1,\
             \"entries\":[{\"entity\":1,\"count\":1,\"err\":0}]}\n",
        )
        .unwrap();
        assert_eq!(odd[0].dim, "other");
        assert!(Timeline::topks_from_ndjson("{\"bogus\":1}\n").is_err());
        // Bounded: pushes past the cap evict the oldest and report it.
        let mut evicted = 0u64;
        for i in 0..5u64 {
            evicted += t.push_topk(TopKSnapshot {
                t_us: 1_000 + i,
                dim: DIM_SUB_LAG,
                total: 1,
                entries: vec![],
            });
        }
        assert_eq!(t.topks().len(), 3);
        assert_eq!(evicted, 4);
        // Merge carries the stream across sorted by (t_us, dim).
        let mut merged = Timeline::new(0);
        merged.merge(&t);
        assert_eq!(merged.topks().len(), 3);
        assert!(merged
            .topks()
            .zip(merged.topks().skip(1))
            .all(|(a, b)| a.t_us <= b.t_us));
    }

    /// The `/healthz` satellite: liveness route answers 200 with the
    /// alert-count body, and `shutdown` joins the accept thread and
    /// closes the listener.
    #[test]
    fn text_server_healthz_and_shutdown() {
        let mut srv = TextServer::serve_with_health(
            "127.0.0.1:0",
            || "metrics\n".to_owned(),
            || "alerts 3\n".to_owned(),
        )
        .unwrap();
        let addr = srv.local_addr();
        let fetch = |path: &str| {
            let mut sock = std::net::TcpStream::connect(addr).unwrap();
            sock.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut resp = String::new();
            sock.read_to_string(&mut resp).unwrap();
            resp
        };
        let health = fetch("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("alerts 3\n"), "{health}");
        let metrics = fetch("/metrics");
        assert!(metrics.ends_with("metrics\n"), "{metrics}");
        srv.shutdown();
        srv.shutdown(); // idempotent
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "listener must close on shutdown"
        );
    }

    #[test]
    fn text_server_serves_scrapes() {
        let srv = TextServer::serve("127.0.0.1:0", || "# TYPE up gauge\nup 1\n".into()).unwrap();
        let addr = srv.local_addr();
        for _ in 0..2 {
            let mut sock = std::net::TcpStream::connect(addr).unwrap();
            sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut resp = String::new();
            sock.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
            assert!(resp.contains("Content-Type: text/plain; version=0.0.4\r\n"));
            assert!(resp.contains("Content-Length: "), "{resp}");
            assert!(resp.ends_with("up 1\n"), "{resp}");
        }
    }

    #[test]
    fn text_server_rejects_non_get() {
        let srv = TextServer::serve("127.0.0.1:0", || "secret\n".into()).unwrap();
        let addr = srv.local_addr();
        for req in [
            "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
            "DELETE / HTTP/1.1\r\nHost: x\r\n\r\n",
        ] {
            let mut sock = std::net::TcpStream::connect(addr).unwrap();
            sock.write_all(req.as_bytes()).unwrap();
            let mut resp = String::new();
            sock.read_to_string(&mut resp).unwrap();
            assert!(
                resp.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
                "{resp}"
            );
            assert!(resp.contains("Allow: GET\r\n"), "{resp}");
            assert!(!resp.contains("secret"), "body must not leak: {resp}");
        }
        // GET still works after rejected requests.
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        sock.read_to_string(&mut resp).unwrap();
        assert!(resp.ends_with("secret\n"), "{resp}");
    }
}
