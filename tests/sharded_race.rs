//! The cross-shard binding race: PR 2's stale-decision regression
//! (`binding_expiry_beats_fault_delayed_packet_in` in
//! `fault_injection.rs`) replayed across a shard boundary.
//!
//! Two switches land on *different* shards of a 2-way [`Dfi::sharded`]. A
//! flow on shard B is decided Allow but its install is lost; a re-punt of
//! the same flow is already in flight, delayed by the faulty channel, when
//! the user's session expires — the log-off and the policy revocation both
//! enter through the *front-end* (bus broadcast + fleet-wide flush
//! fanout), so shard A processes the expiry too even though the raced punt
//! sits on shard B. The delayed punt must still be re-decided Deny, no
//! Allow rule (fresh or retried) may survive on any switch, nothing is
//! delivered, and the shards end on one agreed epoch.

use dfi_repro::controller::Controller;
use dfi_repro::core::events::{topic, DfiEvent};
use dfi_repro::core::policy::{EndpointPattern, PolicyRule, DEFAULT_DENY_ID};
use dfi_repro::core::{Dfi, DfiConfig};
use dfi_repro::dataplane::{faulty_sink, Network, SwitchConfig};
use dfi_repro::packet::headers::build;
use dfi_repro::packet::MacAddr;
use dfi_repro::simnet::{FaultPlan, Sim, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

const LAT: Duration = Duration::from_micros(50);
const SEED: u64 = 44;

fn h1_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, 1)
}

fn h2_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, 1)
}

fn syn(sport: u16) -> Vec<u8> {
    build::tcp_syn(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        h1_ip(),
        h2_ip(),
        sport,
        80,
    )
}

#[test]
fn cross_shard_binding_expiry_beats_fault_delayed_packet_in() {
    // Same fault plans and timeline as the unsharded regression.
    let up = FaultPlan {
        seed: 12,
        delay: 1.0,
        delay_min: Duration::from_millis(5),
        delay_max: Duration::from_millis(5),
        ..FaultPlan::none()
    }
    .with_window(SimTime::from_millis(100), SimTime::from_millis(130));
    let down =
        FaultPlan::lossy(13, 1.0).with_window(SimTime::from_millis(100), SimTime::from_millis(130));
    let line = format!("repro: seed={SEED} shards=2 up='{up}' down='{down}'");

    let mut sim = Sim::new(SEED);
    let sharded = Dfi::sharded(2, &DfiConfig::default());

    // Two dpids owned by different shards — found, not hardcoded, so the
    // test keeps its meaning if the partition function ever changes.
    let dpid_a = 1u64;
    let dpid_b = (2..64)
        .find(|d| sharded.shard_of(*d) != sharded.shard_of(dpid_a))
        .expect("some dpid in 2..64 must land on the other shard");
    assert_ne!(sharded.shard_of(dpid_a), sharded.shard_of(dpid_b), "{line}");

    let mut net = Network::new();
    let sw_a = net.add_switch(SwitchConfig::new(dpid_a));
    let sw_b = net.add_switch(SwitchConfig::new(dpid_b));

    // Shard A's switch: clean interposition, a silent bystander host.
    let ctrl = Controller::reactive();
    let _ = net.attach_silent_host(&sw_a, 1, LAT);
    {
        let c = ctrl.clone();
        sharded.interpose(&mut sim, &sw_a, move |sim, sink| c.connect(sim, sink));
    }

    // Shard B's switch carries the raced flow, wired through the fault
    // injectors by hand (`up` = switch→shard, `down` = shard→switch).
    let rx: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let log = rx.clone();
    let tx = net.attach_host(&sw_b, 1, LAT, Rc::new(|_, _| {}));
    let _h2 = net.attach_host(
        &sw_b,
        2,
        LAT,
        Rc::new(move |_sim: &mut Sim, frame: &[u8]| log.borrow_mut().push(frame.to_vec())),
    );
    let (to_switch, _down_handle) = faulty_sink(down, sw_b.control_ingress());
    let conn = sharded.attach_switch_channel(to_switch, sw_b.dpid());
    let (to_dfi, _up_handle) = faulty_sink(up, sharded.from_switch_sink(conn));
    sw_b.connect_control(&mut sim, to_dfi);
    let to_controller = ctrl.connect(&mut sim, sharded.from_controller_sink(conn));
    sharded.set_controller_sink(conn, to_controller);
    sim.run();

    // Bindings enter through the front-end bus, reaching both shards.
    for (topic, ev) in [
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac: MacAddr::from_index(1),
                ip: h1_ip(),
                hostname: Some("lhost".into()),
                released: false,
            },
        ),
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac: MacAddr::from_index(2),
                ip: h2_ip(),
                hostname: Some("rhost".into()),
                released: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: "lhost".into(),
                ip: h1_ip(),
                removed: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: "rhost".into(),
                ip: h2_ip(),
                removed: false,
            },
        ),
        (
            topic::SESSIONS,
            DfiEvent::Session {
                user: "lee".into(),
                host: "lhost".into(),
                logged_on: true,
            },
        ),
    ] {
        sharded.bus().publish(&mut sim, topic, ev);
    }
    sim.run();

    // The session-scoped allow, inserted through the front-end.
    let allow_id = sharded.insert_policy(
        &mut sim,
        PolicyRule::allow(EndpointPattern::user("lee"), EndpointPattern::any()),
        50,
        "sharded-race",
    );
    sim.run();

    // t=100ms: first packet. Decided Allow (~110 ms) and memoized on shard
    // B; the install is dropped by the window and enters the retry loop.
    let t = tx.clone();
    sim.schedule_in(Duration::from_millis(100), move |sim| {
        t.send(sim, syn(50_000));
    });
    // t=116ms: same flow again — no rule landed, so the switch punts; the
    // faulty channel holds the punt until ~121 ms.
    let t = tx.clone();
    sim.schedule_in(Duration::from_millis(116), move |sim| {
        t.send(sim, syn(50_000));
    });
    // t=118ms: the session expires. The log-off broadcast invalidates the
    // binding on BOTH shards and the revocation's flush fanout cancels the
    // pending Allow-install retries fleet-wide — after the punt above left
    // the switch, before shard B decides it.
    let s = sharded.clone();
    sim.schedule_in(Duration::from_millis(118), move |sim| {
        s.bus().publish(
            sim,
            topic::SESSIONS,
            DfiEvent::Session {
                user: "lee".into(),
                host: "lhost".into(),
                logged_on: false,
            },
        );
        s.revoke_policy(sim, allow_id);
    });
    sim.run();

    let m = sharded.metrics();
    assert_eq!(
        m.allowed, 1,
        "only the pre-log-off decision may allow: {line}"
    );
    assert!(
        m.denied >= 1,
        "the delayed punt must be re-decided to Deny: {line}"
    );
    for sw in [&sw_a, &sw_b] {
        for cookie in sw.table0_cookies() {
            assert_eq!(
                cookie,
                DEFAULT_DENY_ID.0,
                "no Allow rule may survive the cross-shard revocation on \
                 dpid {}: {line}",
                sw.dpid()
            );
        }
    }
    assert!(
        rx.borrow().is_empty(),
        "nothing was deliverable under the fault window: {line}"
    );
    assert!(
        sharded.epochs_agree(),
        "shards must agree on the served epoch {:?}: {line}",
        sharded.served_epochs()
    );
}
