//! The subscriber host: every durable subscriber of a workload, as a
//! real [`SubscriberClient`], on one worker thread.
//!
//! The host is a [`Node`] that owns the clients and gives each a view
//! of the worker's context in which timer keys are namespaced by client
//! index. It routes `ConnectOk`/`Deliver` by subscriber id, stamps the
//! receipt instant of every event delivery, and watches the clients'
//! `Connect`/`Disconnect`/`Ack` sends so the benchmark knows when each
//! session began and ended.
//!
//! Clients start in admission order: at most `window` of them are
//! waiting for their first `ConnectOk` at any time, and each one that
//! gets it admits the next. Every new subscription makes the SHB resend
//! its whole interest set upstream, so an unbounded connect storm would
//! queue O(subscriptions²) filter copies in the brokers' channels.

use crate::trace::now_ns;
use gryphon::SubscriberClient;
use gryphon_sim::{Node, NodeCtx, TimerKey, TraceEvent};
use gryphon_types::{AttrValue, ClientMsg, DeliveryKind, NetMsg, NodeId, ServerMsg};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Packs `(client, key)` into one worker timer key. Client keys must
/// fit in 32 bits; the client index (plus one, so a namespaced key is
/// never a bare client key) fills the upper half.
pub fn ns_key(client: usize, key: TimerKey) -> TimerKey {
    assert!(key.0 >> 32 == 0, "client timer key {key:?} exceeds 32 bits");
    TimerKey(((client as u64 + 1) << 32) | key.0)
}

/// Inverse of [`ns_key`]; `None` for a key no client set.
pub fn split_key(key: TimerKey) -> Option<(usize, TimerKey)> {
    let hi = key.0 >> 32;
    (hi > 0).then(|| ((hi - 1) as usize, TimerKey(key.0 & 0xFFFF_FFFF)))
}

/// One event delivery accepted by a connected client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Client index (subscriber id minus the host's base id).
    pub sub: u32,
    /// The event's `_seq` attribute.
    pub seq: u64,
    /// Receipt instant, nanoseconds after the benchmark epoch.
    pub at_ns: u64,
}

/// A session edge observed at the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// The client sent `Connect`.
    Connect,
    /// The client sent `Disconnect`.
    Disconnect,
}

/// A timestamped session edge of one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Client index.
    pub sub: u32,
    /// What happened.
    pub kind: SessionKind,
    /// When, nanoseconds after the benchmark epoch.
    pub at_ns: u64,
}

/// Counters the benchmark polls while the network runs.
#[derive(Debug, Default)]
pub struct HostCounters {
    /// Clients that have received their first `ConnectOk`.
    pub first_connect_oks: AtomicU64,
    /// `Disconnect` messages sent by dormant clients (each sends one).
    pub dormant_disconnects: AtomicU64,
    /// `Ack` messages sent.
    pub acks: AtomicU64,
    /// Event deliveries accepted.
    pub events: AtomicU64,
}

/// Hosts durable subscribers `base..base + clients.len()`.
pub struct SubHost {
    clients: Vec<SubscriberClient>,
    base: u64,
    counters: Arc<HostCounters>,
    ever_ok: Vec<bool>,
    /// Clients admitted (started) so far, in index order.
    admitted: usize,
    window: usize,
    /// Clients from this index on are dormant.
    dormant_from: usize,
    /// Accepted event deliveries, in arrival order.
    pub receipts: Vec<Receipt>,
    /// Session edges, in order.
    pub sessions: Vec<Session>,
    /// Gap deliveries (potential loss) — must stay 0.
    pub gaps: u64,
    /// Deliveries addressed to a subscriber this host does not know.
    pub misrouted: u64,
}

impl SubHost {
    /// A host for `clients`, whose subscriber ids start at `base`,
    /// admitting at most `window` first connects at a time. Clients from
    /// index `dormant_from` on are dormant: they disconnect once, after
    /// set-up, and never return.
    pub fn new(
        clients: Vec<SubscriberClient>,
        base: u64,
        window: usize,
        dormant_from: usize,
        counters: Arc<HostCounters>,
    ) -> Self {
        let n = clients.len();
        SubHost {
            clients,
            base,
            counters,
            ever_ok: vec![false; n],
            admitted: 0,
            window: window.max(1),
            dormant_from,
            receipts: Vec::new(),
            sessions: Vec::new(),
            gaps: 0,
            misrouted: 0,
        }
    }

    /// The hosted clients, by index.
    pub fn clients(&self) -> &[SubscriberClient] {
        &self.clients
    }

    fn admit_next(&mut self, ctx: &mut dyn NodeCtx) {
        if self.admitted < self.clients.len() {
            let i = self.admitted;
            self.admitted += 1;
            self.with_client(i, ctx, |c, v| c.on_start(v));
        }
    }

    fn with_client(
        &mut self,
        i: usize,
        ctx: &mut dyn NodeCtx,
        f: impl FnOnce(&mut SubscriberClient, &mut dyn NodeCtx),
    ) {
        let mut view = ClientCtx {
            outer: ctx,
            client: i,
            dormant: i >= self.dormant_from,
            sessions: &mut self.sessions,
            counters: &self.counters,
        };
        f(&mut self.clients[i], &mut view);
    }
}

impl Node for SubHost {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        while self.admitted < self.window.min(self.clients.len()) {
            self.admit_next(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        let sub = match &msg {
            NetMsg::Server(ServerMsg::ConnectOk { sub, .. })
            | NetMsg::Server(ServerMsg::ConnectErr { sub, .. })
            | NetMsg::Server(ServerMsg::Deliver { sub, .. }) => *sub,
            _ => return,
        };
        let Some(i) = sub
            .0
            .checked_sub(self.base)
            .map(|i| i as usize)
            .filter(|&i| i < self.clients.len())
        else {
            self.misrouted += 1;
            return;
        };
        match &msg {
            NetMsg::Server(ServerMsg::ConnectOk { .. }) if !self.ever_ok[i] => {
                self.ever_ok[i] = true;
                self.counters
                    .first_connect_oks
                    .fetch_add(1, Ordering::Relaxed);
                self.admit_next(ctx);
            }
            NetMsg::Server(ServerMsg::Deliver { msg: d, .. }) => match &d.kind {
                // A client drops deliveries that arrive while it is
                // disconnected; only accepted ones are receipts.
                DeliveryKind::Event(e) if self.clients[i].is_connected() => {
                    if let Some(AttrValue::Int(seq)) = e.attr("_seq") {
                        let at_ns = now_ns();
                        self.receipts.push(Receipt {
                            sub: i as u32,
                            seq: *seq as u64,
                            at_ns,
                        });
                        self.counters.events.fetch_add(1, Ordering::Relaxed);
                    }
                }
                DeliveryKind::Gap(_) => self.gaps += 1,
                _ => {}
            },
            _ => {}
        }
        self.with_client(i, ctx, |c, v| c.on_message(from, msg, v));
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        if let Some((i, inner)) = split_key(key).filter(|&(i, _)| i < self.clients.len()) {
            self.with_client(i, ctx, |c, v| c.on_timer(inner, v));
        }
    }
}

/// One client's view of the host worker's context.
struct ClientCtx<'a> {
    outer: &'a mut dyn NodeCtx,
    client: usize,
    dormant: bool,
    sessions: &'a mut Vec<Session>,
    counters: &'a HostCounters,
}

impl NodeCtx for ClientCtx<'_> {
    fn now_us(&self) -> u64 {
        self.outer.now_us()
    }
    fn me(&self) -> NodeId {
        self.outer.me()
    }
    fn send(&mut self, to: NodeId, msg: NetMsg) {
        let kind = match &msg {
            NetMsg::Client(ClientMsg::Connect { .. }) => Some(SessionKind::Connect),
            NetMsg::Client(ClientMsg::Disconnect { .. }) => {
                if self.dormant {
                    self.counters
                        .dormant_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(SessionKind::Disconnect)
            }
            NetMsg::Client(ClientMsg::Ack { .. }) => {
                self.counters.acks.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => None,
        };
        if let Some(kind) = kind {
            self.sessions.push(Session {
                sub: self.client as u32,
                kind,
                at_ns: now_ns(),
            });
        }
        self.outer.send(to, msg);
    }
    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.outer.set_timer(delay_us, ns_key(self.client, key));
    }
    fn rng(&mut self) -> &mut SmallRng {
        self.outer.rng()
    }
    fn work(&mut self, cost_us: u64) {
        self.outer.work(cost_us);
    }
    fn record(&mut self, series: &str, value: f64) {
        self.outer.record(series, value);
    }
    fn count(&mut self, counter: &str, delta: f64) {
        self.outer.count(counter, delta);
    }
    fn observe(&mut self, name: &str, value: f64) {
        self.outer.observe(name, value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.outer.gauge(name, value);
    }
    fn trace(&mut self, event: TraceEvent) {
        self.outer.trace(event);
    }
    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        self.outer.interval(kind, dur_us);
    }
    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.outer.attribute(dim, entity, weight);
    }
}
