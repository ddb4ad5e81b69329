//! End-to-end check of the cross-layer passes against a *live* testbed:
//! a real switch with DFI interposed installs Table-0 verdict rules from
//! traffic, and the analyzer audits the resulting snapshots.
//!
//! The invariant chain: a healthy deployment yields a clean audit; a
//! policy mutation that sidesteps DFI's flush path (modeling a lost
//! flush, the fault the differential oracle hunts dynamically) is caught
//! statically as an orphan cookie or a stale rule.

use dfi_analyze::{Analyzer, DiagnosticKind, Severity, TableZeroSnapshot};
use dfi_core::policy::{EndpointPattern, PolicyId, PolicyRule};
use dfi_core::{Dfi, DfiConfig};
use dfi_dataplane::{Network, Switch, SwitchConfig, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::{Dist, Sim};
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

struct Rig {
    sim: Sim,
    dfi: Dfi,
    sw: Switch,
    tx: Vec<Tx>,
}

/// One switch, three hosts (ports 1..=3), DFI interposed before a
/// reactive controller — the rig of the root `decision_freshness` tests.
fn rig() -> Rig {
    let mut sim = Sim::new(7);
    let mut net = Network::new();
    let sw = net.add_switch(SwitchConfig::new(0xD1));
    let mut tx = Vec::new();
    for port in 1..=3u32 {
        tx.push(net.attach_host(&sw, port, LAT, Rc::new(|_, _| {})));
    }
    let ctrl = dfi_controller::Controller::reactive();
    let dfi = Dfi::new(DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    });
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

/// Audits the rig's switch against its current policy and bindings.
fn audit(r: &Rig) -> Vec<dfi_analyze::Diagnostic> {
    let snap = TableZeroSnapshot::capture(&r.sw);
    let az = r.dfi.with_pm(|pm| Analyzer::from_pm(pm));
    r.dfi.with_erm(|erm| az.check_table0(&snap, erm))
}

#[test]
fn healthy_deployment_audits_clean() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 445));
    r.tx[2].send(&mut r.sim, syn(3, 2, 80));
    r.sim.run();
    assert!(r.dfi.metrics().allowed >= 2, "traffic must have flowed");
    let snap = TableZeroSnapshot::capture(&r.sw);
    assert!(
        !snap.rules.is_empty(),
        "allowed flows must have cached verdict rules in table 0"
    );
    assert_eq!(audit(&r), vec![], "live table agrees with live policy");
}

#[test]
fn denied_flow_leaves_consistent_default_deny_rule() {
    let mut r = rig();
    // No policy at all: the flow falls to the default deny, and whatever
    // the switch caches must replay as exactly that.
    r.tx[0].send(&mut r.sim, syn(1, 2, 22));
    r.sim.run();
    assert_eq!(r.dfi.metrics().denied, 1);
    assert_eq!(audit(&r), vec![]);
}

#[test]
fn revocation_behind_dfis_back_is_an_orphan_cookie() {
    let mut r = rig();
    let id = r
        .dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 445));
    r.sim.run();
    assert_eq!(audit(&r), vec![]);

    // Revoke directly in the Policy Manager, skipping revoke_policy's
    // cookie flush — the moral equivalent of a flush lost to the network.
    assert!(r.dfi.with_pm(|pm| pm.revoke(id)));
    let diags = audit(&r);
    assert!(!diags.is_empty(), "orphaned verdict rules must be reported");
    for d in &diags {
        assert_eq!(d.kind, DiagnosticKind::OrphanCookie);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.rules, vec![id]);
        assert_eq!(d.dpids, vec![0xD1]);
    }
}

#[test]
fn outranking_deny_behind_dfis_back_is_a_stale_rule() {
    let mut r = rig();
    let allow_id = r
        .dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();
    r.tx[0].send(&mut r.sim, syn(1, 2, 445));
    r.sim.run();
    assert_eq!(audit(&r), vec![]);

    // A higher-priority deny lands in the Policy Manager without the
    // conflict flush ever reaching the switch: the cached allow rules now
    // contradict what arbitration would decide.
    let deny_id: PolicyId = r.dfi.with_pm(|pm| {
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            50,
            "test",
        )
        .0
    });
    let diags = audit(&r);
    let stale: Vec<_> = diags
        .iter()
        .filter(|d| d.kind == DiagnosticKind::StaleRule)
        .collect();
    assert!(!stale.is_empty(), "contradicted allow rules must be stale");
    for d in stale {
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.rules, vec![allow_id, deny_id]);
        assert_eq!(d.dpids, vec![0xD1]);
        let w = d.witness.as_ref().expect("stale findings carry a witness");
        // The witness really is decided the other way by live policy.
        assert_eq!(r.dfi.with_pm(|pm| pm.query_linear(w).policy), deny_id);
    }
}
