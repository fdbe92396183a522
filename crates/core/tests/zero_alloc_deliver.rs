//! Proves the SHB constream deliver path allocates nothing per event
//! once warm (ISSUE 7 / DESIGN.md §15).
//!
//! The path under test is the full steady-state pipeline for connected
//! subscribers: knowledge ingest → matching (slab slots) → PFS write →
//! slab indexing → delivery send. After warm-up, every buffer it needs
//! is reusable — the event buffer (`Arc` clones), the match-slot buffer,
//! the PFS scratch encodings, the cached gauge-name strings — so a
//! measured burst must leave the process-wide allocation counter
//! untouched.
//!
//! The burst re-processes a span whose PFS records are already durable
//! (exactly the crash-recovery replay the constream performs), so the
//! PFS write is an idempotent no-op and deliveries still flow.
//!
//! Single `#[test]` on purpose: the counter is process-wide and the
//! default harness is multi-threaded, so sibling tests would be noise.

use gryphon::broker::Shb;
use gryphon::config::BrokerConfig;
use gryphon_sim::testing::RecordingCtx;
use gryphon_storage::MemFactory;
use gryphon_streams::KnowledgeStream;
use gryphon_types::{Event, NodeId, PubendId, SubscriberId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter update has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const P: PubendId = PubendId(0);
const CLIENT: NodeId = NodeId(9);

fn reconnect_all(shb: &mut Shb, subs: u64, config: &BrokerConfig, ctx: &mut RecordingCtx) {
    for i in 0..subs {
        shb.connect(
            SubscriberId(i + 1),
            CLIENT,
            None,
            Some(gryphon_types::SubscriptionSpec::new(format!(
                "class = {}",
                i % 16
            ))),
            false,
            false,
            &HashMap::new(),
            None,
            config,
            ctx,
        )
        .expect("connect");
    }
}

#[test]
fn constream_deliver_allocates_nothing_after_warmup() {
    let config = BrokerConfig::default();
    let mut ctx = RecordingCtx::default();
    let mut shb = Shb::open(&MemFactory::new(), "t", &config);
    const SUBS: u64 = 48;
    const TICKS: u64 = 200;
    reconnect_all(&mut shb, SUBS, &config, &mut ctx);

    // A fully known cache: one event per tick, spread across 16 classes,
    // so each event matches SUBS/16 subscribers.
    let mut cache = KnowledgeStream::new();
    for t in 1..=TICKS {
        let e = Event::builder(P)
            .attr("class", (t % 16) as i64)
            .build_ref(Timestamp(t));
        assert!(cache.set_data(e));
    }
    cache.set_silence(Timestamp(1), Timestamp(TICKS));

    // Warm-up pass: grows every reusable buffer and writes the PFS
    // records for [1, TICKS].
    shb.constream_advance(P, &cache, Timestamp(TICKS), &config, &mut ctx);
    let warm_delivered = shb.delivered;
    assert_eq!(warm_delivered, TICKS * (SUBS / 16), "workload must match");

    // Crash recovery: connections drop, the volatile cursor rewinds to
    // the (unsynced) durable point, and the clients reconnect. The next
    // advance re-processes the same span — deliveries flow again while
    // the PFS writes are idempotent no-ops.
    shb.post_restart();
    reconnect_all(&mut shb, SUBS, &config, &mut ctx);
    ctx.sent.clear(); // capacity retained from the warm-up pass

    let before = ALLOCS.load(Ordering::SeqCst);
    shb.constream_advance(P, &cache, Timestamp(TICKS), &config, &mut ctx);
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        shb.delivered,
        warm_delivered * 2,
        "measured pass must re-deliver the full span"
    );
    assert_eq!(
        after - before,
        0,
        "constream deliver path allocated on the warm path"
    );
}
