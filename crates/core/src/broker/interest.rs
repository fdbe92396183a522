//! A parent's view of one child broker's subscription interest, kept
//! exact under incremental [`SubInterestMsg`] deltas.
//!
//! Each message costs O(entries it carries): a delta is applied onto the
//! stored set when it chains on the stored version, and a full set is
//! diffed against the stored one, so only new or changed specs are
//! parsed. Whatever cannot be applied leaves the child *unknown* — it is
//! then forwarded unfiltered, never filtered under a partial set.

use gryphon_matching::{Filter, SubscriptionIndex};
use gryphon_types::{InterestChange, SubInterestMsg, SubscriberId, SubscriptionSpec};
use std::collections::BTreeMap;

/// How far the stored set can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Knowledge {
    /// Nothing heard since this broker booted. A delta on top of version
    /// `0` still applies: every sender's version `0` is its empty set (a
    /// broker that boots with recovered subscriptions moves to a fresh
    /// version and sends a full set before any delta).
    #[default]
    Never,
    /// `specs` is the child's set at `version`.
    Exact,
    /// `specs` is the child's set at some older version (a delta went
    /// missing). It still holds every subscription the child could have
    /// had confirmed, so it stays in this broker's own upward aggregate,
    /// but downward filtering is off until the next full set.
    Stale,
}

/// One child's interest set as its parent sees it.
#[derive(Default)]
pub(crate) struct ChildInterest {
    /// The child's subscriptions, ascending by id so upward aggregation
    /// is deterministic.
    specs: BTreeMap<SubscriberId, SubscriptionSpec>,
    /// Compiled filters of `specs` (for D→S downgrades).
    index: SubscriptionIndex,
    /// Highest interest version heard from the child.
    version: u64,
    knowledge: Knowledge,
}

/// What one message does to a [`ChildInterest`]; computed read-only by
/// [`ChildInterest::plan`] so the caller can look at the affected ids
/// before the set changes.
#[derive(Debug)]
pub(crate) enum Plan {
    /// Stale, duplicate, or a refresh of the version already held.
    Ignore,
    /// The child's set at `version` cannot be derived: forget exactness.
    Lose {
        /// The version the child is now at.
        version: u64,
    },
    /// Bring the stored set to the child's set at `version`.
    Apply {
        /// The version the set becomes exact for.
        version: u64,
        /// Specs to insert or replace (each differs from the stored one).
        upsert: Vec<(SubscriberId, SubscriptionSpec)>,
        /// Ids to delete (each currently stored).
        remove: Vec<SubscriberId>,
    },
}

impl Plan {
    /// Subscriber ids whose spec the plan changes.
    pub(crate) fn touched(&self) -> Vec<SubscriberId> {
        match self {
            Plan::Apply { upsert, remove, .. } => upsert
                .iter()
                .map(|(sub, _)| *sub)
                .chain(remove.iter().copied())
                .collect(),
            Plan::Ignore | Plan::Lose { .. } => Vec::new(),
        }
    }
}

impl ChildInterest {
    /// Decides what `msg` does to the stored set (see the module docs).
    pub(crate) fn plan(&self, msg: SubInterestMsg) -> Plan {
        let v = msg.version;
        match msg.change {
            InterestChange::Full(subs) => {
                let exact = self.knowledge == Knowledge::Exact;
                if v < self.version || (exact && v == self.version) {
                    return Plan::Ignore;
                }
                let incoming: BTreeMap<SubscriberId, SubscriptionSpec> = subs.into_iter().collect();
                let remove = self
                    .specs
                    .keys()
                    .filter(|sub| !incoming.contains_key(sub))
                    .copied()
                    .collect();
                let upsert = incoming
                    .into_iter()
                    .filter(|(sub, spec)| self.specs.get(sub) != Some(spec))
                    .collect();
                Plan::Apply {
                    version: v,
                    upsert,
                    remove,
                }
            }
            InterestChange::Delta { base, add, remove } => {
                if v <= self.version {
                    return Plan::Ignore;
                }
                let chains = match self.knowledge {
                    Knowledge::Exact => base == self.version,
                    Knowledge::Never => base == 0,
                    Knowledge::Stale => false,
                };
                if !chains {
                    return Plan::Lose { version: v };
                }
                Plan::Apply {
                    version: v,
                    upsert: add
                        .into_iter()
                        .filter(|(sub, spec)| self.specs.get(sub) != Some(spec))
                        .collect(),
                    remove: remove
                        .into_iter()
                        .filter(|sub| self.specs.contains_key(sub))
                        .collect(),
                }
            }
        }
    }

    /// Applies a plan from [`Self::plan`]; returns whether the set is now
    /// exact at a newly applied version. Only upserted specs are parsed
    /// (a spec that fails to parse is kept for upward aggregation but
    /// filters nothing, as the SHB rejects such specs at connect).
    pub(crate) fn apply(&mut self, plan: Plan) -> bool {
        match plan {
            Plan::Ignore => false,
            Plan::Lose { version } => {
                self.version = version;
                if self.knowledge == Knowledge::Exact {
                    self.knowledge = Knowledge::Stale;
                }
                false
            }
            Plan::Apply {
                version,
                upsert,
                remove,
            } => {
                for sub in remove {
                    self.specs.remove(&sub);
                    self.index.remove(sub);
                }
                for (sub, spec) in upsert {
                    match Filter::parse(spec.expr()) {
                        Ok(filter) => self.index.insert(sub, filter),
                        Err(_) => {
                            self.index.remove(sub);
                        }
                    }
                    self.specs.insert(sub, spec);
                }
                self.version = version;
                self.knowledge = Knowledge::Exact;
                true
            }
        }
    }

    /// The filter to downgrade this child's knowledge with; `None` while
    /// the set is not exact (forward unfiltered).
    pub(crate) fn filter(&self) -> Option<&SubscriptionIndex> {
        (self.knowledge == Knowledge::Exact).then_some(&self.index)
    }

    /// The version the stored set is exact for, if it is.
    pub(crate) fn exact_version(&self) -> Option<u64> {
        (self.knowledge == Knowledge::Exact).then_some(self.version)
    }

    /// Whether the set has been exact at some point since this broker
    /// booted (the stored set then holds everything the child could have
    /// had confirmed).
    pub(crate) fn heard(&self) -> bool {
        self.knowledge != Knowledge::Never
    }

    /// The stored spec of `sub`.
    pub(crate) fn spec(&self, sub: SubscriberId) -> Option<&SubscriptionSpec> {
        self.specs.get(&sub)
    }

    /// The stored set, ascending by id.
    pub(crate) fn specs(&self) -> impl Iterator<Item = (SubscriberId, &SubscriptionSpec)> + '_ {
        self.specs.iter().map(|(sub, spec)| (*sub, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(k: u64) -> SubscriptionSpec {
        SubscriptionSpec::new(format!("class = {k}"))
    }

    fn receive(c: &mut ChildInterest, msg: SubInterestMsg) -> bool {
        let plan = c.plan(msg);
        c.apply(plan)
    }

    fn delta(
        version: u64,
        base: u64,
        add: Vec<(SubscriberId, SubscriptionSpec)>,
        remove: Vec<SubscriberId>,
    ) -> SubInterestMsg {
        SubInterestMsg {
            version,
            change: InterestChange::Delta { base, add, remove },
        }
    }

    fn set(c: &ChildInterest) -> BTreeMap<SubscriberId, SubscriptionSpec> {
        c.specs().map(|(s, spec)| (s, spec.clone())).collect()
    }

    #[test]
    fn first_delta_applies_onto_the_empty_version_zero() {
        let mut c = ChildInterest::default();
        assert!(c.filter().is_none());
        assert!(receive(
            &mut c,
            delta(5, 0, vec![(SubscriberId(1), spec(1))], vec![])
        ));
        assert_eq!(c.exact_version(), Some(5));
        assert_eq!(c.filter().map(|i| i.len()), Some(1));
    }

    #[test]
    fn broken_chain_is_unknown_until_a_full_set() {
        let mut c = ChildInterest::default();
        receive(
            &mut c,
            SubInterestMsg::full(3, vec![(SubscriberId(1), spec(1))]),
        );
        // Version 4 (adding sub 2) was lost; 5 chains on 4.
        assert!(!receive(
            &mut c,
            delta(5, 4, vec![(SubscriberId(3), spec(3))], vec![])
        ));
        assert!(c.filter().is_none(), "unknown child must be unfiltered");
        assert!(c.heard(), "stale set still counts for upward aggregation");
        // Deltas do not resynchronize, even if they chain on the latest.
        assert!(!receive(&mut c, delta(6, 5, vec![], vec![SubscriberId(1)])));
        assert!(c.filter().is_none());
        let full = vec![(SubscriberId(2), spec(2)), (SubscriberId(3), spec(3))];
        assert!(receive(&mut c, SubInterestMsg::full(6, full.clone())));
        assert_eq!(c.exact_version(), Some(6));
        assert_eq!(set(&c), full.into_iter().collect());
    }

    #[test]
    fn same_version_refresh_is_a_noop_and_a_new_one_a_diff() {
        let mut c = ChildInterest::default();
        let full = vec![(SubscriberId(1), spec(1)), (SubscriberId(2), spec(2))];
        receive(&mut c, SubInterestMsg::full(3, full.clone()));
        assert!(matches!(
            c.plan(SubInterestMsg::full(3, full)),
            Plan::Ignore
        ));
        let plan = c.plan(SubInterestMsg::full(
            4,
            vec![(SubscriberId(2), spec(7)), (SubscriberId(9), spec(9))],
        ));
        let mut touched = plan.touched();
        touched.sort();
        assert_eq!(
            touched,
            vec![SubscriberId(1), SubscriberId(2), SubscriberId(9)]
        );
    }

    /// The sender's side of the protocol: its set per version, in send
    /// order, as full or delta messages.
    #[derive(Debug, Clone)]
    enum Op {
        /// Add or replace `sub` with a spec of class `k`.
        Put(u64, u64),
        /// Remove `sub`.
        Del(u64),
        /// Send the full set (periodic refresh).
        Refresh,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..6, 0u64..3).prop_map(|(s, k)| Op::Put(s, k)),
            (0u64..6).prop_map(Op::Del),
            Just(Op::Refresh),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under drops and reorders, the receiver's set is always either
        /// exactly the sender's set at the version it claims, or unknown
        /// (and then forwarded unfiltered) — never a partial set.
        #[test]
        fn apply_rules_never_yield_a_partial_set(
            ops in prop::collection::vec(arb_op(), 1..40),
            fate in prop::collection::vec(0u8..10, 40),
        ) {
            // Sender: history of sets by version.
            let mut history: BTreeMap<u64, BTreeMap<SubscriberId, SubscriptionSpec>> =
                BTreeMap::new();
            let mut cur: BTreeMap<SubscriberId, SubscriptionSpec> = BTreeMap::new();
            let mut version = 0u64;
            history.insert(0, cur.clone());
            let mut sent = Vec::new();
            for op in &ops {
                match *op {
                    Op::Put(s, k) => {
                        let (sub, sp) = (SubscriberId(s), spec(k));
                        if cur.get(&sub) == Some(&sp) {
                            continue;
                        }
                        cur.insert(sub, sp.clone());
                        version += 1;
                        sent.push(delta(version, version - 1, vec![(sub, sp)], vec![]));
                    }
                    Op::Del(s) => {
                        if cur.remove(&SubscriberId(s)).is_none() {
                            continue;
                        }
                        version += 1;
                        sent.push(delta(version, version - 1, vec![], vec![SubscriberId(s)]));
                    }
                    Op::Refresh => sent.push(SubInterestMsg::full(
                        version,
                        cur.iter().map(|(s, sp)| (*s, sp.clone())).collect(),
                    )),
                }
                history.insert(version, cur.clone());
            }
            // Network: drop (fate 0-1), swap with the next (fate 2), else deliver.
            let mut wire: Vec<SubInterestMsg> = Vec::new();
            let mut i = 0;
            while i < sent.len() {
                let f = fate[i % fate.len()];
                if f < 2 {
                    i += 1;
                    continue;
                }
                if f == 2 && i + 1 < sent.len() {
                    wire.push(sent[i + 1].clone());
                    wire.push(sent[i].clone());
                    i += 2;
                    continue;
                }
                wire.push(sent[i].clone());
                i += 1;
            }
            let mut c = ChildInterest::default();
            for msg in wire {
                receive(&mut c, msg);
                if let Some(v) = c.exact_version() {
                    prop_assert_eq!(&set(&c), &history[&v], "exact at {} but wrong set", v);
                    let indexed = c.filter().map(|i| i.len()).unwrap_or(0);
                    prop_assert_eq!(indexed, history[&v].len());
                } else {
                    prop_assert!(c.filter().is_none());
                }
            }
        }
    }
}
