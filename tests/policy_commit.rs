//! Policy commits: one PDP event is one certify → compile → publish.
//!
//! On the paper's AT-RBAC testbed a SIEM log-on inserts one rule per role
//! peer and direction, and a log-off revokes them. Each must reach the
//! data plane as one unit: one snapshot publication, one
//! `SnapshotPublished` on the bus, the same ids the rules would get from
//! sequential inserts, and — for a log-off — none of the revoked cookies
//! left on any switch. With the certification gate wired, a commit that
//! holds one refused mutation is deferred whole: none of its mutations is
//! served until the next clean commit publishes them all.

use dfi_analyze::certify::wire_snapshot_gate;
use dfi_repro::core::events::{topic, DfiEvent};
use dfi_repro::core::pdp::priority;
use dfi_repro::core::policy::{EndpointPattern, PolicyId, PolicyMutation, PolicyRule};
use dfi_repro::core::Dfi;
use dfi_repro::simnet::Sim;
use dfi_repro::worm::host::SMB_PORT;
use dfi_repro::worm::{Condition, Testbed, TestbedConfig};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Every event published on the snapshot topic, in order.
fn snapshot_log(dfi: &Dfi) -> Rc<RefCell<Vec<DfiEvent>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&log);
    dfi.bus()
        .subscribe(topic::SNAPSHOTS, move |_, ev: &DfiEvent| {
            sink.borrow_mut().push(ev.clone());
        });
    log
}

fn published(log: &RefCell<Vec<DfiEvent>>) -> usize {
    log.borrow()
        .iter()
        .filter(|ev| matches!(ev, DfiEvent::SnapshotPublished { .. }))
        .count()
}

/// The ids the served snapshot holds.
fn served_ids(dfi: &Dfi) -> HashSet<PolicyId> {
    dfi.snapshot().rules().map(|(id, _)| id).collect()
}

#[test]
fn at_rbac_log_on_and_log_off_are_one_commit_each() {
    let mut sim = Sim::new(7);
    let tb = Testbed::build(&mut sim, &TestbedConfig::small(), Condition::AtRbac);
    sim.run();
    let log = snapshot_log(&tb.dfi);
    let host = &tb.hosts[0];
    let name = host.hostname();
    let user = host
        .with(|n| n.primary_user.clone())
        .expect("end hosts have a primary user");
    let peers = tb.roles.role_peers(&name);
    assert!(peers.len() >= 2, "the host has role peers: {peers:?}");

    // The same inserts, sequentially, on a clone of the store.
    let mut clone = tb.dfi.with_pm(|pm| pm.clone());
    let expected: Vec<(PolicyId, PolicyRule)> = peers
        .iter()
        .flat_map(|peer| {
            [
                PolicyRule::allow(EndpointPattern::host(&name), EndpointPattern::host(peer)),
                PolicyRule::allow(EndpointPattern::host(peer), EndpointPattern::host(&name)),
            ]
        })
        .map(|rule| {
            let (id, _) = clone.insert(rule.clone(), priority::AT_RBAC, "at-rbac");
            (id, rule)
        })
        .collect();

    let before = tb.dfi.metrics().snapshots_published;
    let known: HashSet<PolicyId> = tb.dfi.with_pm(|pm| pm.iter().map(|p| p.id).collect());
    tb.siem.log_on(&mut sim, &user, &name);
    sim.run();
    assert_eq!(
        tb.dfi.metrics().snapshots_published,
        before + 1,
        "one log-on, one publication"
    );
    assert_eq!(published(&log), 1, "one SnapshotPublished on the bus");
    let granted: Vec<(PolicyId, PolicyRule)> = tb.dfi.with_pm(|pm| {
        pm.iter()
            .filter(|p| !known.contains(&p.id))
            .map(|p| (p.id, p.rule.clone()))
            .collect()
    });
    assert_eq!(granted, expected, "same rules, same order, same ids");
    let served = served_ids(&tb.dfi);
    assert!(expected.iter().all(|(id, _)| served.contains(id)));

    // Install flow rules under the grant's cookies on the switches.
    for peer in &peers {
        let dst = tb
            .hosts
            .iter()
            .find(|h| h.hostname() == *peer)
            .expect("peers are testbed hosts");
        host.connect(&mut sim, dst.ip(), SMB_PORT, |_, _| {});
    }
    sim.run();
    let grant: HashSet<u64> = expected.iter().map(|(id, _)| id.0).collect();
    let holding = |tb: &Testbed| {
        tb.switches
            .iter()
            .flat_map(dfi_repro::dataplane::Switch::table0_cookies)
            .filter(|c| grant.contains(c))
            .count()
    };
    assert!(holding(&tb) > 0, "the connects installed grant rules");

    let before = tb.dfi.metrics().snapshots_published;
    tb.siem.log_off(&mut sim, &user, &name);
    sim.run();
    assert_eq!(
        tb.dfi.metrics().snapshots_published,
        before + 1,
        "one log-off, one publication"
    );
    assert_eq!(published(&log), 2);
    assert_eq!(holding(&tb), 0, "no switch keeps a revoked cookie");
    let served = served_ids(&tb.dfi);
    assert!(expected.iter().all(|(id, _)| !served.contains(id)));
}

#[test]
fn a_refused_commit_defers_whole_and_the_next_clean_commit_publishes_it() {
    let mut sim = Sim::new(17);
    let dfi = Dfi::with_defaults();
    let allow_all = dfi.insert_policy(&mut sim, PolicyRule::allow_all(), 1, "test");
    let pair = dfi.insert_policy(
        &mut sim,
        PolicyRule::allow(EndpointPattern::host("h1"), EndpointPattern::host("h2")),
        5,
        "test",
    );
    let _certifier = wire_snapshot_gate(&dfi, None);
    let log = snapshot_log(&dfi);
    let published_before = dfi.metrics().snapshots_published;
    let served_before = served_ids(&dfi);

    // One commit: a clean revoke, then the blanket Deny that conflicts
    // with (and shadows) the allow-all.
    let blanket = PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any());
    let outcome = dfi.commit_policy(
        &mut sim,
        vec![
            PolicyMutation::Revoke(pair),
            PolicyMutation::insert(blanket, 10, "test"),
        ],
    );
    let deny = outcome.inserted[0];
    sim.run();
    let m = dfi.metrics();
    assert_eq!(m.snapshot_refusals, 1, "the commit is refused");
    assert_eq!(m.snapshots_published, published_before);
    assert!(matches!(
        log.borrow().as_slice(),
        [DfiEvent::SnapshotRefused { .. }]
    ));
    assert_eq!(
        served_ids(&dfi),
        served_before,
        "none of the commit's mutations is served, the clean revoke included"
    );
    assert!(
        dfi.with_pm(|pm| pm.get(pair).is_none() && pm.get(deny).is_some()),
        "the Policy Manager keeps every mutation"
    );
    assert_eq!(
        served_ids(&dfi),
        served_before,
        "reading the Policy Manager serves nothing uncertified"
    );

    // Resolving the conflict is the next clean commit; it publishes the
    // deferred mutations with it.
    assert!(dfi.revoke_policy(&mut sim, allow_all));
    sim.run();
    assert_eq!(dfi.metrics().snapshots_published, published_before + 1);
    assert_eq!(served_ids(&dfi), HashSet::from([deny]));
    assert_eq!(dfi.snapshot().revision(), dfi.with_pm(|pm| pm.revision()));
}
