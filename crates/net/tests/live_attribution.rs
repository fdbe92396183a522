//! Live population attribution on the threaded runtime: with the
//! sampler armed, each wall-clock window drains the workers' sketch
//! shards, so the `entity_dominance` rule fires mid-run and names the
//! subscriber hogging the delivered bytes. Without a sampler, `stop()`
//! still folds the shards into the run's `sketch.*` gauges.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_net::{storage_factory, NetBuilder};
use gryphon_sim::{names, AlertState};
use gryphon_types::{NodeId, PubendId, SubscriberId};
use std::time::{Duration, Instant};

/// The match-all subscriber; four one-class subscribers share the rest.
const HOG: SubscriberId = SubscriberId(100);

/// PHB → SHB with the hog beside four one-class subscribers and one
/// publisher; storage names start with `prefix`.
fn hog_net(prefix: &str) -> NetBuilder {
    let config = BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 200,
        pfs_sync_interval_us: 1_000,
        pubend_silence_interval_us: 2_000,
        release_interval_us: 10_000,
        // The population sweep feeding the sketch rides this timer.
        meta_persist_interval_us: 20_000,
        ..BrokerConfig::default()
    };
    // Ids in registration order: phb=0, shb=1, subscribers 2..=6, pub=7.
    let mut builder = NetBuilder::new();
    let mut phb = Broker::new(0, storage_factory(&format!("{prefix}-phb")), config.clone())
        .hosting_pubends([PubendId(0)]);
    phb.add_child(NodeId(1));
    builder.add_node("phb", phb);
    let mut shb =
        Broker::new(1, storage_factory(&format!("{prefix}-shb")), config).hosting_subscribers();
    shb.set_parent(NodeId(0));
    let shb = builder.add_node("shb", shb);
    let sub_config = SubscriberConfig {
        ack_interval_us: 5_000,
        probe_interval_us: 50_000,
        ..SubscriberConfig::default()
    };
    // The hog takes every event; each other subscriber takes one class
    // in twenty, so the hog holds 1 / (1 + 4/20) ≈ 83% of the bytes.
    builder.add_node(
        "hog",
        SubscriberClient::new(HOG, shb.id(), "", sub_config.clone()),
    );
    for class in 0..4u64 {
        builder.add_node(
            &format!("sub{class}"),
            SubscriberClient::new(
                SubscriberId(class + 1),
                shb.id(),
                format!("class = {class}").as_str(),
                sub_config.clone(),
            ),
        );
    }
    builder.add_node(
        "pub",
        PublisherClient::new(NodeId(0), PubendId(0), 2_000.0).with_attrs(|seq, _| {
            let mut a = gryphon_types::Attributes::new();
            a.insert("class".into(), ((seq % 20) as i64).into());
            a
        }),
    );
    builder
}

#[test]
fn entity_dominance_fires_live_and_names_the_hog() {
    let mut net = hog_net("la").start();
    net.start_sampler(Duration::from_millis(50));

    // Read the live timeline — before `stop()` — until the rule fires.
    let deadline = Instant::now() + Duration::from_secs(10);
    let firing = loop {
        net.run_for(Duration::from_millis(50));
        let timeline = net.telemetry().expect("sampler armed");
        let alert = timeline
            .alerts()
            .iter()
            .find(|a| a.rule == "entity_dominance" && a.state == AlertState::Firing)
            .cloned();
        if alert.is_some() || Instant::now() > deadline {
            break alert;
        }
    };
    net.stop();
    let alert = firing.expect("entity_dominance never fired while the net ran");
    assert!(alert.value > 0.75, "dominance share {}", alert.value);
    assert!(
        alert
            .detail
            .contains(&format!("hottest_subs_by_bytes entity {} (", HOG.0)),
        "alert does not name the hog: {}",
        alert.detail
    );
}

#[test]
fn unsampled_stop_still_reports_sketch_gauges() {
    let net = hog_net("la-unsampled").start();
    net.run_for(Duration::from_millis(300));
    let result = net.stop();
    assert!(result.telemetry.is_none());
    let share = result
        .metrics
        .gauge(names::SKETCH_DOMINANCE_SHARE)
        .expect("dominance gauge published at stop");
    assert!(share > 0.75, "dominance share {share}");
    assert!(result.metrics.gauge(names::SKETCH_LAG_POPULATION).is_some());
}
