//! Integration tests for the PCP decision cache: memoization of identical
//! flows and — the part that matters for security — event-driven
//! invalidation that exactly tracks binding churn and policy flushes.

use dfi_core::events::{topic, DfiEvent, SnapshotWitness};
use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::{Dfi, DfiConfig, GateVerdict};
use dfi_dataplane::{Network, Switch, SwitchConfig, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::{Dist, Sim};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

const LAT: Duration = Duration::from_micros(50);

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(i)
}

fn ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, i)
}

fn test_config() -> DfiConfig {
    DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    }
}

struct Rig {
    sim: Sim,
    dfi: Dfi,
    sw: Switch,
    tx: Vec<Tx>,
}

/// One switch, three hosts (ports 1..=3), DFI interposed before a reactive
/// controller.
fn rig() -> Rig {
    let mut sim = Sim::new(7);
    let mut net = Network::new();
    let sw = net.add_switch(SwitchConfig::new(0xD1));
    let mut tx = Vec::new();
    for port in 1..=3u32 {
        tx.push(net.attach_host(&sw, port, LAT, Rc::new(|_, _| {})));
    }
    let ctrl = dfi_controller::Controller::reactive();
    let dfi = Dfi::new(test_config());
    dfi.interpose(&mut sim, &sw, move |sim, sink| ctrl.connect(sim, sink));
    sim.run();
    Rig { sim, dfi, sw, tx }
}

fn syn(src: u32, dst: u32, dport: u16) -> Vec<u8> {
    build::tcp_syn(
        mac(src),
        mac(dst),
        ip(src as u8),
        ip(dst as u8),
        50_000,
        dport,
    )
}

fn publish(r: &mut Rig, topic: &str, ev: DfiEvent) {
    let bus = r.dfi.bus().clone();
    bus.publish(&mut r.sim, topic, ev);
    r.sim.run();
}

fn session(user: &str, host: &str, logged_on: bool) -> DfiEvent {
    DfiEvent::Session {
        user: user.into(),
        host: host.into(),
        logged_on,
    }
}

fn name(hostname: &str, addr: Ipv4Addr) -> DfiEvent {
    DfiEvent::Name {
        hostname: hostname.into(),
        ip: addr,
        removed: false,
    }
}

#[test]
fn burst_of_identical_flows_hits_the_memo() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    // Three copies of the same flow arrive before the first decision's
    // switch rule is installed: every one becomes a packet-in, but only
    // the first pays for entity resolution and the policy query.
    for _ in 0..3 {
        r.tx[0].send(&mut r.sim, syn(1, 2, 445));
    }
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.packet_ins, 3);
    assert_eq!(m.allowed, 3);
    assert_eq!(m.decision_cache_misses, 1);
    assert_eq!(m.decision_cache_hits, 2);
    assert_eq!(m.decision_cache_entries, 1);
}

#[test]
fn distinct_flows_do_not_share_entries() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 80));
    r.tx[0].send(&mut r.sim, syn(1, 2, 443)); // different dst port
    r.tx[2].send(&mut r.sim, syn(3, 2, 80)); // different src host
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(
        m.decision_cache_misses, 3,
        "each canonical tuple decided once"
    );
    assert_eq!(m.decision_cache_hits, 0);
    assert_eq!(m.decision_cache_entries, 3);
}

/// The stale-decision regression test: a binding expiration must
/// invalidate exactly the cached decisions that resolved through it —
/// no fewer (stale allows would outlive the log-off) and no more
/// (unrelated flows keep their entries).
#[test]
fn session_expiry_invalidates_exactly_the_affected_decisions() {
    let mut r = rig();
    // DNS: h1 → ip1, h3 → ip3. SIEM: alice on h1, carol on h3 (session
    // events use short machine names; DNS publishes FQDNs).
    publish(&mut r, topic::NAMES, name("h1.corp.local", ip(1)));
    publish(&mut r, topic::NAMES, name("h3.corp.local", ip(3)));
    publish(&mut r, topic::SESSIONS, session("alice", "h1", true));
    publish(&mut r, topic::SESSIONS, session("carol", "h3", true));
    // Policy: whatever alice and carol are logged onto may start flows.
    let alice_rule = r.dfi.insert_policy(
        &mut r.sim,
        PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
        10,
        "test",
    );
    r.dfi.insert_policy(
        &mut r.sim,
        PolicyRule::allow(EndpointPattern::user("carol"), EndpointPattern::any()),
        10,
        "test",
    );
    r.sim.run();

    r.tx[0].send(&mut r.sim, syn(1, 2, 80));
    r.tx[2].send(&mut r.sim, syn(3, 2, 80));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.allowed, 2);
    assert_eq!(m.decision_cache_entries, 2);
    assert_eq!(m.decision_cache_invalidations, 0);

    // Alice logs off h1. The memoized h1→h2 decision resolved through the
    // alice@h1 binding and must die; carol's flow is untouched.
    publish(&mut r, topic::SESSIONS, session("alice", "h1", false));
    let m = r.dfi.metrics();
    assert_eq!(
        m.decision_cache_invalidations, 1,
        "exactly the alice-dependent entry dropped"
    );
    assert_eq!(m.decision_cache_entries, 1, "carol's entry survives");

    // The real system's S-RBAC PDP reacts to the log-off by flushing the
    // rules derived from alice's policy; model that flush, then replay the
    // flow. It must be re-decided from scratch — nobody is logged onto h1
    // anymore, so the alice rule no longer matches and the flow falls to
    // the default deny. A stale memo hit would have re-allowed it.
    r.dfi.flush_policy_rules(&mut r.sim, alice_rule);
    r.sim.run();
    let allowed_before = r.dfi.metrics().allowed;
    r.tx[0].send(&mut r.sim, syn(1, 2, 80));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.allowed, allowed_before, "stale allow must not be served");
    assert_eq!(m.denied, 1);
    assert_eq!(
        m.decision_cache_misses, 3,
        "replayed flow re-resolved, not served from the memo"
    );
}

#[test]
fn policy_revocation_invalidates_its_decisions() {
    let mut r = rig();
    let rule = r
        .dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 22));
    r.sim.run();
    assert_eq!(r.dfi.metrics().decision_cache_entries, 1);

    // Revocation drops the switch rules (cookie flush) and the memoized
    // decisions tagged with the revoked policy, in the same breath.
    assert!(r.sw.table0_cookies().contains(&rule.0));
    assert!(r.dfi.revoke_policy(&mut r.sim, rule));
    r.sim.run();
    assert!(!r.sw.table0_cookies().contains(&rule.0));
    let m = r.dfi.metrics();
    assert_eq!(m.decision_cache_entries, 0);
    assert_eq!(m.decision_cache_invalidations, 1);

    // The replay is re-decided under the new (empty) policy: default deny.
    r.tx[0].send(&mut r.sim, syn(1, 2, 22));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.denied, 1);
    assert_eq!(m.decision_cache_misses, 2);
    assert_eq!(m.decision_cache_hits, 0);
}

/// The snapshot-epoch staleness regression test: a decision cached while a
/// refused publication is *deferred* is decided by the old snapshot. When
/// the deferred mutations finally publish (the recovery), that cached
/// verdict must not survive — even though no per-policy flush touches it —
/// because the new snapshot may reverse it. Epoch tagging is the only
/// thing standing between the replayed flow and a stale Allow.
#[test]
fn stale_allow_is_not_served_after_a_deny_snapshot_publishes() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    // A placeholder rule whose later revocation is the "operator resolves
    // the conflict" mutation. It matches nothing in this rig, and —
    // crucially — revoking it flushes only its own id, so the recovery's
    // epoch expiry is the sole defense against the stale entry below.
    let placeholder = r.dfi.insert_policy(
        &mut r.sim,
        PolicyRule::deny(EndpointPattern::user("nobody"), EndpointPattern::any()),
        5,
        "test",
    );
    r.sim.run();

    // Install a certification gate that refuses while `refuse` is set.
    let refuse = Rc::new(RefCell::new(false));
    let flag = Rc::clone(&refuse);
    r.dfi.set_snapshot_gate(Box::new(move |_pm| GateVerdict {
        witnesses: if *flag.borrow() {
            vec![SnapshotWitness {
                kind: "allow-deny-conflict".into(),
                rules: Vec::new(),
                message: "test: publication refused".into(),
            }]
        } else {
            Vec::new()
        },
        findings: Vec::new(),
    }));

    // A blanket Deny arrives but its snapshot is refused: the Policy
    // Manager keeps the rule, the last certified (Allow) snapshot keeps
    // serving flows.
    *refuse.borrow_mut() = true;
    r.dfi.insert_policy(
        &mut r.sim,
        PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
        10,
        "test",
    );
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.snapshot_refusals, 1);
    assert_eq!(
        m.snapshots_published, 2,
        "the refused candidate never swapped in"
    );

    // Traffic decided during the deferral is allowed by the stale snapshot
    // (uninterrupted service is the point of deferring) and memoized under
    // the stale epoch.
    r.tx[0].send(&mut r.sim, syn(1, 2, 443));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.allowed, 1);
    assert_eq!(m.decision_cache_entries, 1);

    // The conflict is resolved; the next mutation certifies clean and the
    // deferred Deny finally publishes (the recovery).
    *refuse.borrow_mut() = false;
    assert!(r.dfi.revoke_policy(&mut r.sim, placeholder));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.snapshots_published, 3);
    assert!(m.snapshot_epoch > 2, "recovery advanced the epoch");

    // The replayed flow must be re-decided under the Deny snapshot — the
    // memo entry from the deferral window is expired by epoch, never
    // served.
    r.tx[0].send(&mut r.sim, syn(1, 2, 443));
    r.sim.run();
    let m = r.dfi.metrics();
    assert_eq!(m.allowed, 1, "stale Allow must not be served");
    assert_eq!(m.denied, 1);
    assert_eq!(m.decision_cache_hits, 0);
    assert_eq!(
        m.decision_cache_misses, 2,
        "replay re-decided, not served from the stale-epoch memo"
    );
}

#[test]
fn dhcp_rebind_invalidates_flows_on_that_address() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 8080));
    r.sim.run();
    assert_eq!(r.dfi.metrics().decision_cache_entries, 1);
    // ip(1) is re-leased to a different adapter: any decision involving
    // that address may now resolve differently (and the old flow would be
    // a spoof).
    publish(
        &mut r,
        topic::LEASES,
        DfiEvent::Lease {
            mac: mac(9),
            ip: ip(1),
            hostname: None,
            released: false,
        },
    );
    let m = r.dfi.metrics();
    assert_eq!(m.decision_cache_entries, 0);
    assert_eq!(m.decision_cache_invalidations, 1);
}
