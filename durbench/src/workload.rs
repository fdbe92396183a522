//! Workload definitions and the seed-derived inputs they generate.
//!
//! Every input — each event's pubend, attributes and due time, each
//! subscription's filter and schedule — is a pure function of the
//! workload, the seed and the run length, so the same arguments give the
//! same inputs and the checker can recompute ground truth on its own.

use gryphon::BrokerConfig;

/// Fixed broker configuration shared by every workload (see the
/// benchmark doc for the latency floor it implies).
pub fn broker_config() -> BrokerConfig {
    BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 100,
        pfs_sync_interval_us: 1_000,
        knowledge_flush_interval_us: 1_000,
        ..BrokerConfig::default()
    }
}

/// Pubends hosted at the PHB, as in the paper's topologies (and the
/// harness's default `TopologySpec`).
pub const PUBENDS: u32 = 4;

/// Event classes; class popularity is Zipf-distributed with exponent 1.
pub const CLASSES: u32 = 50;

/// Client liveness-probe period.
pub const PROBE_INTERVAL_US: u64 = 2_000_000;

/// Load starts this long after the network starts (or once set-up is
/// done, if that takes longer).
pub const LEAD_US: u64 = 500_000;

/// Events published before the timed window (checked, not timed).
pub const WARMUP_US: u64 = 1_000_000;

/// Dormant subscribers disconnect at their first multiple of this
/// period after their `ConnectOk`.
pub const DORMANT_PERIOD_US: u64 = 2_000_000;

/// A subscription's content filter, kept structurally so the checker
/// can evaluate it without the matching engine under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubFilter {
    /// Matches every event (the empty filter expression).
    All,
    /// `class = class && price < below`.
    ClassBelow {
        /// Required `class` attribute.
        class: i64,
        /// Exclusive upper bound on the `price` attribute.
        below: i64,
    },
}

impl SubFilter {
    /// The filter in the matching engine's text grammar.
    pub fn expr(&self) -> String {
        match self {
            SubFilter::All => String::new(),
            SubFilter::ClassBelow { class, below } => {
                format!("class = {class} && price < {below}")
            }
        }
    }

    /// Naive evaluation against an event's attributes.
    pub fn matches(&self, ev: &EventAttrs) -> bool {
        match *self {
            SubFilter::All => true,
            SubFilter::ClassBelow { class, below } => ev.class == class && ev.price < below,
        }
    }
}

/// How a workload draws a subscriber's filter.
#[derive(Debug, Clone, Copy)]
enum FilterKind {
    /// [`SubFilter::All`].
    All,
    /// `class = k && price < v`, `k` round robin and `v` drawn from the
    /// seed.
    Drawn,
    /// `class = k` for a fixed popular `k`.
    OneClass,
}

/// How a durable subscriber behaves during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connected for the whole run.
    Live,
    /// Registers, then disconnects before load starts and stays away:
    /// a durable subscription whose matching events the SHB still
    /// records in its PFS.
    Dormant,
    /// Disconnects for the workload's outage every outage period, the
    /// first time `phase_us` after it starts.
    Reconnect {
        /// Offset of the first outage from the client's start.
        phase_us: u64,
    },
}

/// One durable subscriber of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubPlan {
    /// Its content filter.
    pub filter: SubFilter,
    /// Its connection schedule.
    pub role: Role,
}

/// The attributes of one generated event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventAttrs {
    /// Pubend the event is published on.
    pub pubend: u32,
    /// Zipf-distributed class.
    pub class: i64,
    /// Uniform price in `0..100`.
    pub price: i64,
}

/// A complete workload: offered load, subscribers and schedule.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Offered publish rate, events per second (open loop).
    pub rate_eps: f64,
    /// Latency limit: a delivery later than this counts as late.
    pub limit_ms: f64,
    /// The durable subscribers, hosted as subscriber ids `1..=len`;
    /// dormant ones come last.
    pub subs: Vec<SubPlan>,
    /// Client acknowledgment period.
    pub ack_interval_us: u64,
    /// Period of each reconnecting subscriber's outages.
    pub outage_period_us: u64,
    /// Length of each outage.
    pub outage_us: u64,
    /// Workload seed.
    pub seed: u64,
    /// Timed window length.
    pub measure_us: u64,
    /// Cumulative class-popularity distribution.
    class_cdf: Vec<f64>,
}

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["firehose", "selective", "reconnect_catchup"];

/// SplitMix64: a small, seedable, well-mixed generator for inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Workload {
    /// Builds workload `name` for `seed` with a timed window of
    /// `measure_s` seconds; `None` for an unknown name.
    pub fn new(name: &str, seed: u64, measure_s: f64) -> Option<Workload> {
        let mut w = Workload {
            rate_eps: 0.0,
            limit_ms: 0.0,
            subs: Vec::new(),
            ack_interval_us: 100_000,
            outage_period_us: 0,
            outage_us: 0,
            seed,
            measure_us: (measure_s * 1e6) as u64,
            class_cdf: Vec::new(),
        };
        // Per workload: offered rate, latency limit, and how many
        // subscribers of each role with which kind of filter.
        use FilterKind::{All, Drawn, OneClass};
        let (live, live_kind, reconnecting, reconnect_kind, dormant) = match name {
            "firehose" => {
                w.rate_eps = 20_000.0;
                w.limit_ms = 25.0;
                w.outage_period_us = 1_000_000;
                w.outage_us = 250_000;
                // One class per reconnecting subscriber keeps its
                // catchups short, so the live path keeps the tail.
                (4, All, 4, OneClass, 0)
            }
            "selective" => {
                w.rate_eps = 2_000.0;
                w.limit_ms = 50.0;
                w.ack_interval_us = 500_000;
                w.outage_period_us = 2_000_000;
                w.outage_us = 1_000_000;
                (968, Drawn, 32, OneClass, 2_000)
            }
            "reconnect_catchup" => {
                w.rate_eps = 5_000.0;
                w.limit_ms = 25.0;
                // Outages long enough that draining their backlog (5 000
                // events) outweighs the fixed cost of a reconnect; four
                // catchups start in every second.
                w.outage_period_us = 2_000_000;
                w.outage_us = 1_000_000;
                (8, All, 8, All, 0)
            }
            _ => return None,
        };
        for i in 0..live + reconnecting + dormant {
            let (kind, role) = if i < live {
                (live_kind, Role::Live)
            } else if i < live + reconnecting {
                // Stagger the reconnecting subscribers' outages evenly
                // across one period.
                let j = (i - live) as u64;
                let phase_us = w.outage_period_us * (j + 1) / reconnecting as u64;
                (reconnect_kind, Role::Reconnect { phase_us })
            } else {
                (Drawn, Role::Dormant)
            };
            let r = mix(seed ^ 0x5EED_0000_0000 ^ i as u64);
            let filter = match kind {
                All => SubFilter::All,
                // Classes round robin, so every seed puts the same number
                // of subscriptions on each class; the bound is drawn.
                Drawn => SubFilter::ClassBelow {
                    class: (i % CLASSES as usize) as i64,
                    below: 1 + (r % 100) as i64,
                },
                // Classes 1, 2, … in subscriber order (11% of events
                // and fewer each): the same backlog sizes for every
                // seed, so catchup rates compare across seeds.
                OneClass => SubFilter::ClassBelow {
                    class: 1 + (i - live) as i64,
                    below: 100,
                },
            };
            w.subs.push(SubPlan { filter, role });
        }
        let weights: Vec<f64> = (1..=CLASSES).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        w.class_cdf = weights
            .iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect();
        Some(w)
    }

    /// Number of events published: warmup plus timed window.
    pub fn total_events(&self) -> u64 {
        ((WARMUP_US + self.measure_us) as f64 * self.rate_eps / 1e6) as u64
    }

    /// Due time of event `seq`, nanoseconds after load start.
    pub fn due_ns(&self, seq: u64) -> u64 {
        (seq as f64 * 1e9 / self.rate_eps) as u64
    }

    /// First event of the timed window.
    pub fn first_timed(&self) -> u64 {
        (WARMUP_US as f64 * self.rate_eps / 1e6) as u64
    }

    /// The attributes of event `seq` (a pure function of seed and seq).
    pub fn event(&self, seq: u64) -> EventAttrs {
        let r = mix(self.seed.rotate_left(17) ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
        let u = unit(r);
        let class = self.class_cdf.partition_point(|&c| c < u) as i64;
        EventAttrs {
            pubend: (seq % PUBENDS as u64) as u32,
            class: class.min(CLASSES as i64 - 1),
            price: (mix(r) % 100) as i64,
        }
    }

    /// Index of the first dormant subscriber: they come last.
    pub fn dormant_from(&self) -> usize {
        self.subs
            .iter()
            .position(|s| s.role == Role::Dormant)
            .unwrap_or(self.subs.len())
    }

    /// `true` for subscribers that never disconnect.
    pub fn is_live(&self, sub: usize) -> bool {
        self.subs[sub].role == Role::Live
    }
}
