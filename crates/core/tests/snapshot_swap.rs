//! Live-rig tests for the snapshot data plane: traffic continuity across
//! rapid control-plane snapshot swaps, and the decisions of coalesced
//! packet-in reads against one frozen snapshot.

use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::{Dfi, DfiConfig};
use dfi_dataplane::{Network, Switch, SwitchConfig, Tx};
use dfi_openflow::{Message, OfMessage, PacketIn};
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
    rx: Vec<Rc<RefCell<Vec<Vec<u8>>>>>,
}

/// One switch, three hosts (ports 1..=3) with delivery logs, DFI
/// interposed before a reactive controller.
fn rig() -> Rig {
    let mut sim = Sim::new(31);
    let mut net = Network::new();
    let sw = net.add_switch(SwitchConfig::new(0xD1));
    let mut tx = Vec::new();
    let mut rx = Vec::new();
    for port in 1..=3u32 {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        tx.push(net.attach_host(
            &sw,
            port,
            LAT,
            Rc::new(move |_, f: &[u8]| l.borrow_mut().push(f.to_vec())),
        ));
        rx.push(log);
    }
    let ctrl = dfi_controller::Controller::reactive();
    let dfi = Dfi::new(test_config());
    dfi.interpose(&mut sim, &sw, move |sim, sink| ctrl.connect(sim, sink));
    sim.run();
    Rig {
        sim,
        dfi,
        sw,
        tx,
        rx,
    }
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

/// One hundred rapid publish cycles (insert + revoke churn, two swaps per
/// round) while a flow per round traverses the rig: every flow must be
/// decided correctly and delivered — no drops, no mis-decisions — because
/// each in-flight decision reads one immutable snapshot, never a policy
/// store mid-mutation.
#[test]
fn traffic_is_uninterrupted_across_rapid_snapshot_swaps() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();

    for i in 0..100u32 {
        // Churn: an unrelated per-round rule appears and disappears,
        // publishing a fresh snapshot each time.
        let churn = r.dfi.insert_policy(
            &mut r.sim,
            PolicyRule::allow(
                EndpointPattern::user(&format!("churn-user-{i}")),
                EndpointPattern::any(),
            ),
            10,
            "test",
        );
        assert!(r.dfi.revoke_policy(&mut r.sim, churn));
        // A distinct flow per round (unique dst port) so each one is a
        // fresh packet-in decided against whatever snapshot is current.
        r.tx[0].send(&mut r.sim, syn(1, 2, 1000 + i as u16));
        r.sim.run();
    }

    let m = r.dfi.metrics();
    assert_eq!(m.allowed, 100, "every flow allowed across the swaps");
    assert_eq!(m.denied, 0, "no flow mis-decided to deny");
    assert_eq!(m.packet_ins, 100);
    // 1 seed publish + (insert + revoke) × 100 rounds, none refused.
    assert_eq!(m.snapshots_published, 201);
    assert_eq!(m.snapshot_refusals, 0);
    assert_eq!(m.snapshot_epoch, 201);
    assert_eq!(r.dfi.snapshot().epoch(), 201);
    assert_eq!(
        r.rx[1].borrow().len(),
        100,
        "every allowed flow delivered to the destination host"
    );
}

/// A control-channel read carrying several packet-in frames is admitted as
/// one PCP job and every flow in it is resolved and classified against
/// one frozen snapshot.
#[test]
fn packet_in_burst_is_classified_in_one_batch() {
    let mut r = rig();
    let allow = r
        .dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();

    // Three punts coalesced into one buffer, as a switch under load
    // would batch onto the control channel: two flows from port 1, one
    // from port 3.
    let mut buf = Vec::new();
    for (xid, in_port, frame) in [
        (101u32, 1u32, syn(1, 2, 80)),
        (102, 1, syn(1, 2, 443)),
        (103, 3, syn(3, 2, 80)),
    ] {
        OfMessage::new(
            xid,
            Message::PacketIn(PacketIn::table_miss(in_port, 0, frame)),
        )
        .encode_into(&mut buf);
    }
    let sink = r.dfi.from_switch_sink(0);
    sink(&mut r.sim, &buf);
    r.sim.run();

    let m = r.dfi.metrics();
    assert_eq!(m.packet_in_bursts, 1, "one coalesced read, one burst");
    assert_eq!(m.packet_ins, 3);
    assert_eq!(
        m.burst_flows_classified, 3,
        "all three flows classified in the burst"
    );
    assert_eq!(m.allowed, 3);
    assert_eq!(m.denied, 0);
    assert_eq!(m.decision_cache_misses, 3);
    // Exact-match rules were installed for each flow under the deciding
    // policy's cookie, and the packets were forwarded on to the
    // destination host.
    assert!(r.sw.table0_cookies().contains(&allow.0));
    assert_eq!(
        r.rx[1].borrow().len(),
        3,
        "all burst packets delivered to the destination"
    );
}

/// A second burst of the same flows is decided afresh: nothing is
/// memoized, so every flow of both bursts is resolved and classified.
#[test]
fn repeat_burst_is_classified_again() {
    let mut r = rig();
    r.dfi
        .insert_policy(&mut r.sim, PolicyRule::allow_all(), 1, "test");
    r.sim.run();

    let burst = |xids: [u32; 2]| {
        let mut buf = Vec::new();
        for (xid, dport) in xids.into_iter().zip([8080u16, 8443]) {
            OfMessage::new(
                xid,
                Message::PacketIn(PacketIn::table_miss(1, 0, syn(1, 2, dport))),
            )
            .encode_into(&mut buf);
        }
        buf
    };
    let sink = r.dfi.from_switch_sink(0);
    sink(&mut r.sim, &burst([201, 202]));
    r.sim.run();
    sink(&mut r.sim, &burst([203, 204]));
    r.sim.run();

    let m = r.dfi.metrics();
    assert_eq!(m.packet_in_bursts, 2);
    assert_eq!(m.packet_ins, 4);
    assert_eq!(m.allowed, 4);
    assert_eq!(
        m.burst_flows_classified, 4,
        "the second burst is re-classified"
    );
    assert_eq!(m.decision_cache_hits, 0);
    assert_eq!(m.decision_cache_misses, 4);
}
