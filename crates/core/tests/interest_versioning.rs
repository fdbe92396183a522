//! Tests for interest-version causality: a new subscription must never
//! be started across ticks that upstream brokers filtered without its
//! filter — including through multi-level trees and around broker
//! restarts.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_sim::{Handle, Sim};
use gryphon_storage::MemFactory;
use gryphon_types::{NodeId, PubendId, SubscriberId};

fn attrs_for(seq: u64) -> gryphon_types::Attributes {
    let mut a = gryphon_types::Attributes::new();
    a.insert("class".into(), ((seq as i64) % 4).into());
    a
}

struct Tree {
    sim: Sim,
    shb: Handle<Broker>,
}

/// PHB → intermediate → SHB, one publisher at 200 ev/s.
fn tree(seed: u64) -> Tree {
    tree_on(seed, MemFactory::new())
}

/// [`tree`] with the SHB on `shb_storage`.
fn tree_on(seed: u64, shb_storage: MemFactory) -> Tree {
    let mut sim = Sim::new(seed);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), BrokerConfig::default())
            .hosting_pubends([PubendId(0)]),
    );
    let mid = sim.add_typed_node(
        "mid",
        Broker::new(1, Box::new(MemFactory::new()), BrokerConfig::default()),
    );
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(2, Box::new(shb_storage), BrokerConfig::default()).hosting_subscribers(),
    );
    sim.node(phb).add_child(mid.id());
    sim.node(mid).set_parent(phb.id());
    sim.node(mid).add_child(shb.id());
    sim.node(shb).set_parent(mid.id());
    sim.connect(phb.id(), mid.id(), 1_000);
    sim.connect(mid.id(), shb.id(), 1_000);
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb.id(), PubendId(0), 200.0).with_attrs(|seq, _| attrs_for(seq)),
    );
    sim.connect(publisher.id(), phb.id(), 500);
    Tree { sim, shb }
}

/// A subscriber added mid-run through a 2-hop interest chain receives a
/// contiguous run from its (causally safe) start — no partial view of
/// ticks filtered before its filter propagated.
#[test]
fn late_subscription_through_two_hops_is_hole_free() {
    let mut t = tree(31);
    // Let the system run with NO subscriber: everything is downgraded to
    // silence at the PHB already (empty interest).
    t.sim.run_until(5_000_000);
    let sub = t.sim.add_typed_node(
        "late",
        SubscriberClient::new(
            SubscriberId(1),
            t.shb.id(),
            "class = 2",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(sub.id(), t.shb.id(), 500);
    t.sim.run_until(20_000_000);
    let client = t.sim.node_ref(sub);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let seqs: Vec<i64> = client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect();
    assert!(seqs.len() > 500, "late subscriber stalled: {}", seqs.len());
    for (i, w) in seqs.windows(2).enumerate() {
        assert_eq!(
            w[1],
            w[0] + 4,
            "hole/dup at {i}: {:?}",
            &seqs[..(i + 2).min(seqs.len())]
        );
    }
    // The connect was parked until the interest chain confirmed.
    assert!(t.sim.metrics().counter("shb.parked_connects") >= 1.0);
}

/// Several subscribers joining in a staggered burst (each bumping the
/// interest version while earlier ones are still parked) all get
/// contiguous streams.
#[test]
fn burst_of_new_subscriptions_all_start_cleanly() {
    let mut t = tree(32);
    t.sim.run_until(3_000_000);
    let mut subs = Vec::new();
    for i in 0..8u64 {
        let sub = t.sim.add_typed_node(
            &format!("s{i}"),
            SubscriberClient::new(
                SubscriberId(i + 1),
                t.shb.id(),
                format!("class = {}", i % 4).as_str(),
                SubscriberConfig {
                    collect: true,
                    connect_at_us: i * 700, // staggered connects, sub-ms apart
                    ..SubscriberConfig::default()
                },
            ),
        );
        t.sim.connect(sub.id(), t.shb.id(), 500);
        subs.push(sub);
    }
    t.sim.run_until(15_000_000);
    for sub in subs {
        let client = t.sim.node_ref(sub);
        assert_eq!(client.order_violations(), 0);
        let seqs: Vec<i64> = client
            .received()
            .iter()
            .filter(|r| r.kind == "event")
            .filter_map(|r| r.seq)
            .collect();
        assert!(seqs.len() > 300, "{:?}: {}", sub.id(), seqs.len());
        assert!(
            seqs.windows(2).all(|w| w[1] == w[0] + 4),
            "{:?} got a hole: {seqs:?}",
            sub.id()
        );
    }
}

/// An intermediate broker restart must not let stale interest filter a
/// newly joined subscription's events (children refresh their interest;
/// unknown children are forwarded unfiltered).
#[test]
fn intermediate_restart_does_not_poison_new_subscriptions() {
    let mut t = tree(33);
    // Warm subscriber so traffic flows end to end.
    let warm = t.sim.add_typed_node(
        "warm",
        SubscriberClient::new(
            SubscriberId(50),
            t.shb.id(),
            "class = 0",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(warm.id(), t.shb.id(), 500);
    t.sim.run_until(4_000_000);
    // Crash the intermediate briefly; its interest tables evaporate. It
    // comes back between two of its child's periodic refreshes, so it
    // knows nothing of the child for a while.
    t.sim
        .schedule_crash(gryphon_types::NodeId(1), 4_000_000, 620_000);
    // A new subscription joins immediately after the restart, while the
    // intermediate's view of the world is still cold.
    let late = t.sim.add_typed_node(
        "late",
        SubscriberClient::new(
            SubscriberId(51),
            t.shb.id(),
            "class = 3",
            SubscriberConfig {
                collect: true,
                connect_at_us: 650_000,
                probe_interval_us: 1_000_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(late.id(), t.shb.id(), 500);
    t.sim.run_until(20_000_000);
    let client = t.sim.node_ref(late);
    assert_eq!(client.order_violations(), 0);
    let seqs: Vec<i64> = client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect();
    assert!(seqs.len() > 400, "{}", seqs.len());
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 4),
        "hole after intermediate restart"
    );
    // And the warm subscriber survived the restart unharmed too: the
    // restarted intermediate reports nothing upward until it has heard
    // its child again, so the PHB never filters the warm subscription's
    // events under a partial set.
    let warm = t.sim.node_ref(warm);
    assert_eq!(warm.order_violations(), 0);
    assert_eq!(warm.gaps_received(), 0);
    let seqs = event_seqs(warm);
    assert!(seqs.len() > 700, "warm subscriber stalled: {}", seqs.len());
    assert_eq!(seqs[0], 0, "warm subscriber missed the start");
    if let Some(w) = seqs.windows(2).find(|w| w[1] != w[0] + 4) {
        panic!("warm subscriber hole across the intermediate restart: {w:?}");
    }
}

/// An SHB that boots with subscriptions recovered from storage must not
/// let its parent take version 0 for the empty set: a new subscription
/// joining before the first periodic refresh would otherwise go up as a
/// delta on top of "nothing", and the intermediate would filter the
/// recovered subscription's events away under that partial set.
#[test]
fn recovered_subscriptions_survive_a_join_before_the_first_refresh() {
    let storage = MemFactory::new();
    // First life: subscription 60 registers at a stand-alone SHB.
    {
        let mut sim = Sim::new(36);
        let shb = sim.add_typed_node(
            "shb",
            Broker::new(2, Box::new(storage.clone()), BrokerConfig::default())
                .hosting_subscribers(),
        );
        let sub = sim.add_typed_node(
            "recovered",
            SubscriberClient::new(
                SubscriberId(60),
                shb.id(),
                "class = 0",
                SubscriberConfig::default(),
            ),
        );
        sim.connect(sub.id(), shb.id(), 500);
        sim.run_until(1_000_000);
        assert!(sim.node_ref(sub).is_connected());
    }
    // Second life: the same storage under PHB → intermediate → SHB, with
    // a brand-new subscription joining at 50 ms.
    let mut t = tree_on(37, storage);
    let recovered = t.sim.add_typed_node(
        "recovered",
        SubscriberClient::new(
            SubscriberId(60),
            t.shb.id(),
            "class = 0",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(recovered.id(), t.shb.id(), 500);
    let fresh = t.sim.add_typed_node(
        "fresh",
        SubscriberClient::new(
            SubscriberId(61),
            t.shb.id(),
            "class = 1",
            SubscriberConfig {
                connect_at_us: 50_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(fresh.id(), t.shb.id(), 500);
    t.sim.run_until(10_000_000);
    assert!(t.sim.node_ref(fresh).is_connected());
    let client = t.sim.node_ref(recovered);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let seqs = event_seqs(client);
    assert!(
        seqs.len() > 400,
        "recovered subscriber starved: {}",
        seqs.len()
    );
    assert_eq!(seqs[0], 0, "recovered subscriber missed the start");
    if let Some(w) = seqs.windows(2).find(|w| w[1] != w[0] + 4) {
        panic!("recovered subscriber hole: {w:?}");
    }
}

/// Reconnect-anywhere from `from` to `to`, where the aggregate interest
/// of their common ancestor already holds the subscription with the same
/// spec: the move changes nothing upstream, so the new SHB's parked
/// connect must be released by the confirmation already held, not wait
/// for an unrelated interest change or the parked-connect timeout.
fn reconnect_anywhere_completes_promptly(
    mut sim: Sim,
    phb: NodeId,
    from: Handle<Broker>,
    to: Handle<Broker>,
) {
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb, PubendId(0), 200.0).with_attrs(|seq, _| attrs_for(seq)),
    );
    sim.connect(publisher.id(), phb, 500);
    let first = sim.add_typed_node(
        "session-a",
        SubscriberClient::new(
            SubscriberId(77),
            from.id(),
            "class = 1",
            SubscriberConfig {
                disconnect_period_us: Some(2_000_000),
                disconnect_duration_us: 600_000_000,
                probe_interval_us: 600_000_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    sim.connect(first.id(), from.id(), 500);
    sim.run_until(3_000_000);
    let ct = sim.node_ref(first).checkpoint().clone();
    let second = sim.add_typed_node(
        "session-b",
        SubscriberClient::new(
            SubscriberId(77),
            to.id(),
            "class = 1",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        )
        .with_checkpoint(ct),
    );
    sim.connect(second.id(), to.id(), 500);
    sim.run_until(3_200_000);
    assert!(
        sim.node_ref(second).is_connected(),
        "reconnect-anywhere still parked 200 ms later"
    );
    sim.run_until(8_000_000);
    assert_eq!(sim.metrics().counter("shb.parked_timeout"), 0.0);
    let client = sim.node_ref(second);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let seqs = event_seqs(client);
    assert!(seqs.len() > 200, "{}", seqs.len());
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 4), "{seqs:?}");
}

/// Sibling SHBs under one intermediate (PHB → intermediate → {A, B}).
#[test]
fn reconnect_anywhere_between_siblings_is_not_parked() {
    let mut sim = Sim::new(38);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), BrokerConfig::default())
            .hosting_pubends([PubendId(0)]),
    );
    let mid = sim.add_typed_node(
        "mid",
        Broker::new(1, Box::new(MemFactory::new()), BrokerConfig::default()),
    );
    sim.node(phb).add_child(mid.id());
    sim.node(mid).set_parent(phb.id());
    sim.connect(phb.id(), mid.id(), 1_000);
    let mut shbs = Vec::new();
    for i in 0..2u32 {
        let shb = sim.add_typed_node(
            &format!("shb{i}"),
            Broker::new(2 + i, Box::new(MemFactory::new()), BrokerConfig::default())
                .hosting_subscribers(),
        );
        sim.node(mid).add_child(shb.id());
        sim.node(shb).set_parent(mid.id());
        sim.connect(mid.id(), shb.id(), 1_000);
        shbs.push(shb);
    }
    reconnect_anywhere_completes_promptly(sim, phb.id(), shbs[0], shbs[1]);
}

/// From an SHB up to the SHB that is its parent (PHB → A → B, moving
/// from B to A): A's own registration replaces its child's in A's
/// aggregate with the same spec.
#[test]
fn reconnect_anywhere_to_the_parent_shb_is_not_parked() {
    let mut sim = Sim::new(39);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), BrokerConfig::default())
            .hosting_pubends([PubendId(0)]),
    );
    let upper = sim.add_typed_node(
        "upper",
        Broker::new(1, Box::new(MemFactory::new()), BrokerConfig::default()).hosting_subscribers(),
    );
    let lower = sim.add_typed_node(
        "lower",
        Broker::new(2, Box::new(MemFactory::new()), BrokerConfig::default()).hosting_subscribers(),
    );
    sim.node(phb).add_child(upper.id());
    sim.node(upper).set_parent(phb.id());
    sim.node(upper).add_child(lower.id());
    sim.node(lower).set_parent(upper.id());
    sim.connect(phb.id(), upper.id(), 1_000);
    sim.connect(upper.id(), lower.id(), 1_000);
    reconnect_anywhere_completes_promptly(sim, phb.id(), lower, upper);
}

fn event_seqs(client: &SubscriberClient) -> Vec<i64> {
    client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect()
}

/// PHB (four pubends) → intermediate → SHB with knowledge batching on:
/// subscriptions that join under load receive every matching event
/// after their granted start, on every pubend. The interest stamp that
/// confirms a parked connect may ride on any pubend's batch, while the
/// connect's start floors come from every pubend's cache high-water
/// mark — so no batch filtered under an older stamp may reach the child
/// after a newer-stamped one. Uneven pubend rates leave a sparse
/// pubend's batch pending while a busy pubend's batch already carries
/// the new stamp, and each subscription matches only a band of publish
/// times around its own join, so every event of its band published
/// before its interest arrived was downgraded on the way. Ground truth
/// (every event's timestamp) comes from a match-all subscriber on a
/// separate SHB, whose interest never reaches the intermediate's filter.
#[test]
fn joins_under_multi_pubend_batching_are_hole_free() {
    const RATES: [f64; 4] = [2_000.0, 1_000.0, 300.0, 40.0];
    const JOINS: u64 = 24;
    const JOIN_AT_MS: u64 = 1_000;
    const SPACING_MS: u64 = 150;
    let config = BrokerConfig {
        knowledge_flush_interval_us: 10_000,
        ..BrokerConfig::default()
    };
    let mut sim = Sim::new(34);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), config.clone())
            .hosting_pubends((0..RATES.len() as u32).map(PubendId)),
    );
    let mid = sim.add_typed_node(
        "mid",
        Broker::new(1, Box::new(MemFactory::new()), config.clone()),
    );
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(2, Box::new(MemFactory::new()), config.clone()).hosting_subscribers(),
    );
    let truth_shb = sim.add_typed_node(
        "truth_shb",
        Broker::new(3, Box::new(MemFactory::new()), config).hosting_subscribers(),
    );
    sim.node(phb).add_child(mid.id());
    sim.node(phb).add_child(truth_shb.id());
    sim.node(mid).set_parent(phb.id());
    sim.node(mid).add_child(shb.id());
    sim.node(shb).set_parent(mid.id());
    sim.node(truth_shb).set_parent(phb.id());
    sim.connect(phb.id(), mid.id(), 1_000);
    sim.connect(mid.id(), shb.id(), 1_000);
    sim.connect(phb.id(), truth_shb.id(), 1_000);
    let interval_us = |p: usize| (1_000_000.0 / RATES[p]) as u64;
    // `t`: the publish time in ms of event `seq` on pubend `p`.
    let publish_ms = move |p: usize, seq: i64| (seq as u64 + 1) * interval_us(p) / 1_000;
    for (p, rate) in RATES.into_iter().enumerate() {
        let publisher = sim.add_typed_node(
            &format!("pub{p}"),
            PublisherClient::new(phb.id(), PubendId(p as u32), rate).with_attrs(move |seq, _| {
                let mut a = gryphon_types::Attributes::new();
                a.insert("t".into(), (publish_ms(p, seq as i64) as i64).into());
                a
            }),
        );
        sim.connect(publisher.id(), phb.id(), 500);
    }
    let truth = sim.add_typed_node(
        "truth",
        SubscriberClient::new(
            SubscriberId(1_000),
            truth_shb.id(),
            "t >= 0",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    sim.connect(truth.id(), truth_shb.id(), 500);
    sim.run_until(JOIN_AT_MS * 1_000);
    let mut subs = Vec::new();
    for i in 0..JOINS {
        let join = JOIN_AT_MS + i * SPACING_MS;
        let band = (join - 60, join + SPACING_MS - 60);
        let sub = sim.add_typed_node(
            &format!("s{i}"),
            SubscriberClient::new(
                SubscriberId(i + 1),
                shb.id(),
                format!("t >= {} && t < {}", band.0, band.1).as_str(),
                SubscriberConfig {
                    collect: true,
                    connect_at_us: i * SPACING_MS * 1_000,
                    ..SubscriberConfig::default()
                },
            ),
        );
        sim.connect(sub.id(), shb.id(), 500);
        subs.push((sub, band));
    }
    sim.run_until((JOIN_AT_MS + (JOINS + 2) * SPACING_MS) * 1_000);
    assert!(sim.metrics().counter("shb.parked_connects") >= JOINS as f64);
    let truth = sim.node_ref(truth);
    for (sub, (lo, hi)) in subs {
        let client = sim.node_ref(sub);
        assert_eq!(client.order_violations(), 0);
        assert_eq!(client.gaps_received(), 0);
        let start = &client.connect_starts()[0];
        let mut delivered = 0;
        for p in 0..RATES.len() {
            let pubend = PubendId(p as u32);
            let events = |c: &SubscriberClient| -> Vec<i64> {
                c.received()
                    .iter()
                    .filter(|r| r.kind == "event" && r.pubend == pubend)
                    .filter(|r| r.ts > start.get(pubend))
                    .filter_map(|r| r.seq)
                    .filter(|&seq| (lo..hi).contains(&publish_ms(p, seq)))
                    .collect()
            };
            let got = events(client);
            assert_eq!(
                got,
                events(truth),
                "{:?} on pubend {p} (start {:?})",
                sub.id(),
                start.get(pubend)
            );
            delivered += got.len();
        }
        assert!(delivered > 100, "{:?}: {delivered}", sub.id());
    }
}

/// Registering N subscriptions through SHB → intermediate → PHB puts
/// O(N) subscription entries on the wire (one delta entry per hop per
/// subscription, plus the periodic full refreshes), not the O(N²) of
/// re-sending the whole set on every change.
#[test]
fn registering_n_subscriptions_costs_linear_interest_traffic() {
    const N: u64 = 1_000;
    let mut t = tree(35);
    t.sim.run_until(100_000);
    let mut subs = Vec::new();
    for i in 0..N {
        let sub = t.sim.add_typed_node(
            &format!("s{i}"),
            SubscriberClient::new(
                SubscriberId(i + 1),
                t.shb.id(),
                format!("class = {} && price < {}", i % 4, i).as_str(),
                SubscriberConfig {
                    connect_at_us: i * 200,
                    ..SubscriberConfig::default()
                },
            ),
        );
        t.sim.connect(sub.id(), t.shb.id(), 500);
        subs.push(sub);
    }
    // Connects arrive over 100–300 ms; every one is confirmed by 400 ms.
    t.sim.run_until(400_000);
    for sub in &subs {
        assert!(
            t.sim.node_ref(*sub).is_connected(),
            "{:?} still parked",
            sub.id()
        );
    }
    let entries = t
        .sim
        .metrics()
        .counter(gryphon_sim::names::INTEREST_ENTRIES_SENT);
    // One delta entry per subscription on each of two hops, plus the
    // one full refresh per hop at 250 ms.
    assert!(
        entries <= 5.0 * N as f64,
        "{entries} interest entries for {N} subscriptions"
    );
    assert!(entries >= 2.0 * N as f64, "{entries}");
}
