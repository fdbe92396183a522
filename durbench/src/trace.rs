//! Spans recorded from outside the program, around the calls into each
//! layer's public interfaces.
//!
//! * [`Traced`] wraps a [`Node`] and records one [`DispatchSpan`] per
//!   `on_message` (tagged by [`NetMsg`] variant) and per `on_timer`.
//! * [`TimedFactory`] wraps a [`MediaFactory`]; every medium it opens
//!   records one [`StorageSpan`] per `append`, `sync` and `read_at`,
//!   tagged with the stream the medium belongs to.
//!
//! Storage spans land in a thread-local buffer; the enclosing dispatch
//! on the same thread drains them as its children when it returns.
//! Spans stay in memory and are read back after the run.

use gryphon_sim::{Node, NodeCtx, TimerKey};
use gryphon_storage::{Media, MediaFactory, MediaStats, StorageError};
use gryphon_types::{NetMsg, NodeId};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: the clock every
/// span and receipt is stamped with.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The instant [`now_ns`] counts from.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// What a dispatch span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DispatchKind {
    /// `on_start`.
    Start,
    /// `on_timer`.
    Timer,
    /// `on_message` with [`NetMsg::Publish`].
    Publish,
    /// `on_message` with [`NetMsg::Knowledge`].
    Knowledge,
    /// `on_message` with [`NetMsg::Curiosity`].
    Curiosity,
    /// `on_message` with [`NetMsg::Release`].
    Release,
    /// `on_message` with [`NetMsg::SubInterest`].
    SubInterest,
    /// `on_message` with [`NetMsg::Client`].
    Client,
    /// `on_message` with [`NetMsg::Server`].
    Server,
}

impl DispatchKind {
    /// The variant tag of `msg`.
    pub fn of(msg: &NetMsg) -> DispatchKind {
        match msg {
            NetMsg::Publish(_) => DispatchKind::Publish,
            NetMsg::Knowledge(_) => DispatchKind::Knowledge,
            NetMsg::Curiosity(_) => DispatchKind::Curiosity,
            NetMsg::Release(_) => DispatchKind::Release,
            NetMsg::SubInterest(_) => DispatchKind::SubInterest,
            NetMsg::Client(_) => DispatchKind::Client,
            NetMsg::Server(_) => DispatchKind::Server,
        }
    }
}

/// Which persistent stream a medium belongs to, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stream {
    /// The PHB's only-once event log (`-events`).
    Events,
    /// The SHB's persistent filtering stream (`-pfs`).
    Pfs,
    /// The PFS's own metadata table (`-pfsmeta`).
    PfsMeta,
    /// The SHB's subscription metadata table (`-meta`).
    Meta,
    /// Anything else.
    Other,
}

impl Stream {
    /// Classifies a medium name such as `b2-pfs-00000001.seg`.
    pub fn of(name: &str) -> Stream {
        // `-pfsmeta` contains both `-pfs` and `meta`: test it first.
        if name.contains("-pfsmeta") {
            Stream::PfsMeta
        } else if name.contains("-pfs") {
            Stream::Pfs
        } else if name.contains("-events") {
            Stream::Events
        } else if name.contains("-meta") {
            Stream::Meta
        } else {
            Stream::Other
        }
    }
}

/// A storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// [`Media::append`].
    Append,
    /// [`Media::sync`].
    Sync,
    /// [`Media::read_at`].
    Read,
}

/// One storage call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageSpan {
    /// The stream of the medium called.
    pub stream: Stream,
    /// The call.
    pub op: Op,
    /// Start, nanoseconds after the epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes appended or read (0 for a sync).
    pub bytes: u64,
}

/// One node callback, with the storage calls made inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchSpan {
    /// The callback.
    pub kind: DispatchKind,
    /// Start, nanoseconds after the epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// This span's children: `storage[children.0..children.1]` of the
    /// owning [`Traced`].
    pub children: (u32, u32),
}

thread_local! {
    static PENDING: RefCell<Vec<StorageSpan>> = const { RefCell::new(Vec::new()) };
}

/// A span's self time: `dur_ns` minus the part of `[start, start+dur)`
/// that the union of `children` covers. Children may nest or overlap;
/// covered time is counted once and clipped to the parent.
pub fn self_time_ns(start_ns: u64, dur_ns: u64, children: &[(u64, u64)]) -> u64 {
    let end = start_ns + dur_ns;
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(start_ns), (s + d).min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    dur_ns - covered
}

/// A node wrapped to record a span per callback.
pub struct Traced<N> {
    /// The wrapped node.
    pub inner: N,
    /// Record spans; when `false` every callback goes straight through.
    pub enabled: bool,
    /// Dispatch spans, in order.
    pub spans: Vec<DispatchSpan>,
    /// Storage spans, grouped by parent dispatch.
    pub storage: Vec<StorageSpan>,
}

impl<N: Node> Traced<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        Traced {
            inner,
            enabled: true,
            spans: Vec::new(),
            storage: Vec::new(),
        }
    }

    fn record(&mut self, kind: DispatchKind, start_ns: u64) {
        let dur_ns = now_ns() - start_ns;
        let first = self.storage.len();
        PENDING.with(|p| self.storage.append(&mut p.borrow_mut()));
        self.spans.push(DispatchSpan {
            kind,
            start_ns,
            dur_ns,
            children: (first as u32, self.storage.len() as u32),
        });
    }
}

impl<N: Node> Node for Traced<N> {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        let t0 = now_ns();
        self.inner.on_start(ctx);
        self.record(DispatchKind::Start, t0);
    }
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        if !self.enabled {
            return self.inner.on_message(from, msg, ctx);
        }
        let kind = DispatchKind::of(&msg);
        let t0 = now_ns();
        self.inner.on_message(from, msg, ctx);
        self.record(kind, t0);
    }
    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        if !self.enabled {
            return self.inner.on_timer(key, ctx);
        }
        let t0 = now_ns();
        self.inner.on_timer(key, ctx);
        self.record(DispatchKind::Timer, t0);
    }
    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        let t0 = now_ns();
        self.inner.on_restart(ctx);
        self.record(DispatchKind::Start, t0);
    }
}

/// A media factory whose media time every storage call.
pub struct TimedFactory {
    inner: Box<dyn MediaFactory>,
}

impl TimedFactory {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn MediaFactory>) -> Self {
        TimedFactory { inner }
    }
}

impl MediaFactory for TimedFactory {
    fn clone_box(&self) -> Box<dyn MediaFactory> {
        Box::new(TimedFactory {
            inner: self.inner.clone_box(),
        })
    }
    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError> {
        Ok(Box::new(TimedMedia {
            inner: self.inner.open(name)?,
            stream: Stream::of(name),
        }))
    }
    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
}

struct TimedMedia {
    inner: Box<dyn Media>,
    stream: Stream,
}

impl TimedMedia {
    fn timed<T>(&mut self, op: Op, bytes: usize, f: impl FnOnce(&mut dyn Media) -> T) -> T {
        let start_ns = now_ns();
        let r = f(self.inner.as_mut());
        let span = StorageSpan {
            stream: self.stream,
            op,
            start_ns,
            dur_ns: now_ns() - start_ns,
            bytes: bytes as u64,
        };
        PENDING.with(|p| p.borrow_mut().push(span));
        r
    }
}

impl Media for TimedMedia {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.timed(Op::Append, data.len(), |m| m.append(data))
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let n = buf.len();
        self.timed(Op::Read, n, |m| m.read_at(offset, buf))
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.timed(Op::Sync, 0, |m| m.sync())
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }
    fn stats(&self) -> MediaStats {
        self.inner.stats()
    }
}
