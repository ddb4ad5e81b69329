//! Property-based tests on the policy model, the Policy Manager's
//! invariants, and the compiled snapshot classifier that decides flows.

use dfi_core::policy::{
    Decision, EndpointPattern, EndpointView, FlowProperties, FlowView, PolicyAction, PolicyManager,
    PolicyRule, PolicySnapshot, Wild, WildName, DEFAULT_DENY_ID,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_name() -> impl Strategy<Value = String> {
    // A small alphabet so matches actually occur; mixed case so the
    // case-insensitive name semantics (and the snapshot's case-folded
    // bucket tables) are exercised.
    "[a-dA-D]{1,3}"
}

fn arb_wildname() -> impl Strategy<Value = WildName> {
    prop_oneof![Just(WildName::Any), arb_name().prop_map(WildName::Is)]
}

fn arb_port() -> impl Strategy<Value = Wild<u16>> {
    prop_oneof![Just(Wild::Any), (1u16..5).prop_map(Wild::Is)]
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    (1u8..4).prop_map(|b| Ipv4Addr::new(10, 0, 0, b))
}

fn arb_wild_ip() -> impl Strategy<Value = Wild<Ipv4Addr>> {
    prop_oneof![Just(Wild::Any), arb_ip().prop_map(Wild::Is)]
}

prop_compose! {
    fn arb_pattern()(
        username in arb_wildname(),
        hostname in arb_wildname(),
        ip in arb_wild_ip(),
        port in arb_port(),
    ) -> EndpointPattern {
        EndpointPattern { username, hostname, ip, port, ..EndpointPattern::any() }
    }
}

prop_compose! {
    fn arb_rule()(
        allow in any::<bool>(),
        src in arb_pattern(),
        dst in arb_pattern(),
        tcp_only in any::<bool>(),
    ) -> PolicyRule {
        PolicyRule {
            action: if allow { PolicyAction::Allow } else { PolicyAction::Deny },
            flow: if tcp_only { FlowProperties::tcp() } else { FlowProperties::any() },
            src,
            dst,
        }
    }
}

prop_compose! {
    fn arb_view()(
        users in proptest::collection::vec(arb_name(), 0..3),
        hosts in proptest::collection::vec(arb_name(), 0..3),
        ip in proptest::option::of(arb_ip()),
        port in proptest::option::of(1u16..5),
    ) -> EndpointView {
        EndpointView {
            usernames: users,
            hostnames: hosts,
            ip,
            port,
            ..EndpointView::default()
        }
    }
}

prop_compose! {
    fn arb_flow()(
        src in arb_view(),
        dst in arb_view(),
        tcp in any::<bool>(),
    ) -> FlowView {
        FlowView {
            ethertype: 0x0800,
            ip_proto: Some(if tcp { 6 } else { 17 }),
            src,
            dst,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// If two rules both match some concrete flow, they must be reported
    /// as overlapping — conflict detection can be conservative, but it may
    /// never miss a genuine overlap (that would leave stale switch rules
    /// alive, the bug class the Policy Manager exists to prevent).
    #[test]
    fn matching_rules_always_overlap(r1 in arb_rule(), r2 in arb_rule(), flow in arb_flow()) {
        if r1.matches(&flow) && r2.matches(&flow) {
            prop_assert!(r1.overlaps(&r2), "{r1:?} and {r2:?} both match {flow:?}");
            prop_assert!(r2.overlaps(&r1), "overlap must be symmetric");
        }
    }

    #[test]
    fn allow_all_matches_every_flow(flow in arb_flow()) {
        prop_assert!(PolicyRule::allow_all().matches(&flow));
    }

    #[test]
    fn overlap_is_symmetric(r1 in arb_rule(), r2 in arb_rule()) {
        prop_assert_eq!(r1.overlaps(&r2), r2.overlaps(&r1));
    }

    #[test]
    fn overlap_is_reflexive(r in arb_rule()) {
        prop_assert!(r.overlaps(&r));
    }

    /// The decision always corresponds to a stored rule that matches the
    /// flow (or the default deny), and no stored matching rule has
    /// strictly higher priority than the winner.
    #[test]
    fn decision_is_sound_and_maximal(
        rules in proptest::collection::vec((arb_rule(), 1u32..5), 0..12),
        flow in arb_flow(),
    ) {
        let mut pm = PolicyManager::new();
        for (rule, prio) in &rules {
            pm.insert(rule.clone(), *prio, "prop");
        }
        let Decision { action, policy } = PolicySnapshot::compile(&pm, 1).classify(&flow);
        if policy == DEFAULT_DENY_ID {
            prop_assert_eq!(action, PolicyAction::Deny);
            for sp in pm.iter() {
                prop_assert!(!sp.rule.matches(&flow), "a matching rule was ignored");
            }
        } else {
            let winner = pm.get(policy).expect("decision references stored policy");
            prop_assert!(winner.rule.matches(&flow));
            prop_assert_eq!(winner.rule.action, action);
            for sp in pm.iter() {
                if sp.rule.matches(&flow) {
                    prop_assert!(
                        sp.priority <= winner.priority,
                        "rule {:?} (prio {}) outranks winner (prio {})",
                        sp.id, sp.priority, winner.priority
                    );
                    if sp.priority == winner.priority && action == PolicyAction::Allow {
                        prop_assert_eq!(
                            sp.rule.action,
                            PolicyAction::Allow,
                            "equal-priority deny must have won"
                        );
                    }
                }
            }
        }
    }

    /// Revoking everything returns the manager to default deny.
    #[test]
    fn revoking_all_rules_restores_default_deny(
        rules in proptest::collection::vec(arb_rule(), 1..8),
        flow in arb_flow(),
    ) {
        let mut pm = PolicyManager::new();
        let ids: Vec<_> = rules
            .into_iter()
            .map(|r| pm.insert(r, 3, "prop").0)
            .collect();
        for id in ids {
            prop_assert!(pm.revoke(id));
        }
        prop_assert!(pm.is_empty());
        let d = PolicySnapshot::compile(&pm, 1).classify(&flow);
        prop_assert_eq!(d.policy, DEFAULT_DENY_ID);
        prop_assert_eq!(d.action, PolicyAction::Deny);
    }

    /// Conflict reporting: every reported id exists (or is the default
    /// deny), is outranked by the new rule (strictly lower priority, or
    /// equal priority with the new rule a Deny), and has opposite action.
    #[test]
    fn conflict_reports_are_valid(
        existing in proptest::collection::vec((arb_rule(), 1u32..5), 0..8),
        new_rule in arb_rule(),
        new_prio in 1u32..5,
    ) {
        let mut pm = PolicyManager::new();
        for (rule, prio) in &existing {
            pm.insert(rule.clone(), *prio, "prop");
        }
        let snapshot: Vec<_> = pm.iter().map(|sp| (sp.id, sp.priority, sp.rule.clone())).collect();
        let (new_id, flush) = pm.insert(new_rule.clone(), new_prio, "prop");
        for id in flush {
            if id == DEFAULT_DENY_ID {
                prop_assert_eq!(new_rule.action, PolicyAction::Allow);
                continue;
            }
            prop_assert_ne!(id, new_id);
            let (_, prio, rule) = snapshot
                .iter()
                .find(|(sid, _, _)| *sid == id)
                .expect("flush id refers to a pre-existing rule");
            prop_assert!(
                *prio < new_prio
                    || (*prio == new_prio && new_rule.action == PolicyAction::Deny),
                "flushed rule (prio {}) is not outranked by the new {:?} (prio {})",
                prio, new_rule.action, new_prio
            );
            prop_assert_ne!(rule.action, new_rule.action);
            prop_assert!(rule.overlaps(&new_rule));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The proof obligation of the snapshot data plane: the compiled
    /// immutable classifier must be **bit-identical** — same winning
    /// policy id, not merely the same action — to the linear oracle, on
    /// arbitrary insert/revoke histories and flows:
    /// `snapshot.classify ≡ pm.query_linear` and
    /// `snapshot.classify_class ≡ pm.query_class_linear`. This
    /// equivalence is what licenses the hot path to read *only* the
    /// snapshot.
    #[test]
    fn snapshot_classify_matches_linear(
        ops in proptest::collection::vec((arb_rule(), 1u32..5, any::<bool>()), 0..16),
        flows in proptest::collection::vec(arb_flow(), 1..6),
    ) {
        let mut pm = PolicyManager::new();
        let mut live = Vec::new();
        for (rule, prio, revoke_oldest) in &ops {
            let (id, _) = pm.insert(rule.clone(), *prio, "prop");
            live.push(id);
            if *revoke_oldest && live.len() > 1 {
                let victim = live.remove(0);
                prop_assert!(pm.revoke(victim));
            }
        }
        let snap = PolicySnapshot::compile(&pm, 1);
        prop_assert_eq!(snap.rule_count(), pm.len());
        prop_assert_eq!(snap.revision(), pm.revision());
        for flow in &flows {
            prop_assert_eq!(
                snap.classify(flow),
                pm.query_linear(flow),
                "snapshot classify diverged from the linear oracle on {:?}",
                flow
            );
            prop_assert_eq!(
                snap.classify_class(flow),
                pm.query_class_linear(flow),
                "snapshot classify_class diverged from the linear oracle on {:?}",
                flow
            );
        }
    }

    /// Soundness of the wildcard-caching extension: when `classify_class`
    /// declares a flow's port class uniform, every member of the class
    /// (any src/dst port combination) must receive that same verdict from
    /// the per-flow `classify`.
    #[test]
    fn classify_class_is_sound(
        rules in proptest::collection::vec((arb_rule(), 1u32..5), 0..10),
        flow in arb_flow(),
        probe_ports in proptest::collection::vec((1u16..6, 1u16..6), 1..8),
    ) {
        let mut pm = PolicyManager::new();
        for (rule, prio) in &rules {
            pm.insert(rule.clone(), *prio, "prop");
        }
        let snap = PolicySnapshot::compile(&pm, 1);
        if let Some(class) = snap.classify_class(&flow) {
            for (sport, dport) in probe_ports {
                let mut member = flow.clone();
                member.src.port = Some(sport);
                member.dst.port = Some(dport);
                let per_flow = snap.classify(&member);
                prop_assert_eq!(
                    per_flow.action, class.action,
                    "class said {:?} but member ({},{}) decided {:?}",
                    class, sport, dport, per_flow
                );
            }
        }
    }
}
