//! The cross-shard binding race replayed across a **real thread
//! boundary**: PR 2's stale-decision regression
//! (`binding_expiry_beats_fault_delayed_packet_in`) with the two switches
//! owned by different worker threads of a [`ParallelShardedDfi`].
//!
//! Worker B's switch carries the raced flow, wired through the fault
//! injectors inside its own thread: a flow is decided Allow but its
//! install is lost, and a re-punt of the same flow is already sitting in
//! the delayed switch→DFI channel when the user's session expires. The
//! log-off and the revocation enter through the *front-end thread* — a
//! broadcast binding batch, a fleet-wide flush fanout, and an epoch
//! barrier all crossing the command channels — so worker A processes the
//! expiry too even though the raced punt lives entirely on worker B. The
//! delayed punt must still be re-decided Deny, no Allow rule (fresh or
//! retried) may survive on any switch, nothing is delivered, and every
//! worker ends on one agreed epoch.
//!
//! Service times are pinned to constants (means of the calibrated
//! defaults) because each worker owns an independently-seeded clock: the
//! race window must come from the fault plans, not from rng stream
//! alignment.

use dfi_repro::controller::Controller;
use dfi_repro::core::events::DfiEvent;
use dfi_repro::core::policy::{EndpointPattern, PolicyRule, DEFAULT_DENY_ID};
use dfi_repro::core::{
    binding_op_of_event, DfiConfig, ObserveFn, ParallelShardedDfi, WorkerWorld, WorldBuilder,
};
use dfi_repro::dataplane::{faulty_sink, Network, SwitchConfig};
use dfi_repro::packet::headers::build;
use dfi_repro::packet::MacAddr;
use dfi_repro::simnet::topo::shard_of;
use dfi_repro::simnet::{Dist, FaultPlan, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
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

/// Constant-service-time calibration: the deterministic race timeline must
/// not depend on which worker's rng stream draws the latencies.
fn race_config() -> DfiConfig {
    DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    }
}

/// Worker A: a clean bystander switch with a silent host.
fn builder_a(dpid: u64) -> WorldBuilder {
    Box::new(move |sim, dfi, _outbox| {
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(dpid));
        let _ = net.attach_silent_host(&sw, 1, LAT);
        let ctrl = Controller::reactive();
        dfi.interpose(sim, &sw, move |sim, sink| ctrl.connect(sim, sink));
        let observe: ObserveFn = Box::new(move |_sim| {
            let mut c = sw.table0_cookies();
            c.sort_unstable();
            c.dedup();
            (Vec::new(), vec![(sw.dpid(), c)])
        });
        WorkerWorld {
            taps: Vec::new(),
            boundaries: Vec::new(),
            observe,
        }
    })
}

/// Worker B: carries the raced flow, its control channel wired through the
/// fault injectors by hand (`up` = switch→DFI, `down` = DFI→switch).
fn builder_b(dpid: u64, up: FaultPlan, down: FaultPlan) -> WorldBuilder {
    Box::new(move |sim, dfi, _outbox| {
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(dpid));
        let tx = net.attach_host(&sw, 1, LAT, Rc::new(|_, _| {}));
        let delivered = Rc::new(RefCell::new(0u64));
        let log = delivered.clone();
        let _h2 = net.attach_host(
            &sw,
            2,
            LAT,
            Rc::new(move |_sim, _frame: &[u8]| *log.borrow_mut() += 1),
        );
        let ctrl = Controller::reactive();
        let (to_switch, _down_handle) = faulty_sink(down.clone(), sw.control_ingress());
        let conn = dfi.attach_switch_channel(to_switch, sw.dpid());
        let (to_dfi, _up_handle) = faulty_sink(up.clone(), dfi.from_switch_sink(conn));
        sw.connect_control(sim, to_dfi);
        let to_controller = ctrl.connect(sim, dfi.from_controller_sink(conn));
        dfi.set_controller_sink(conn, to_controller);
        let observe: ObserveFn = Box::new(move |_sim| {
            let mut c = sw.table0_cookies();
            c.sort_unstable();
            c.dedup();
            (vec![(0, *delivered.borrow())], vec![(sw.dpid(), c)])
        });
        WorkerWorld {
            taps: vec![tx],
            boundaries: Vec::new(),
            observe,
        }
    })
}

#[test]
fn threaded_binding_expiry_beats_fault_delayed_packet_in() {
    // Same fault plans and timeline as the unsharded and cooperative
    // regressions.
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
    let line = format!("repro: seed={SEED} threads=2 up='{up}' down='{down}'");

    // Two dpids owned by different workers — found, not hardcoded.
    let dpid_a = 1u64;
    let dpid_b = (2..64)
        .find(|d| shard_of(*d, 2) != shard_of(dpid_a, 2))
        .expect("some dpid in 2..64 must land on the other shard");
    let worker_b = shard_of(dpid_b, 2);
    let mut builders: Vec<Option<WorldBuilder>> = vec![None, None];
    builders[shard_of(dpid_a, 2)] = Some(builder_a(dpid_a));
    builders[worker_b] = Some(builder_b(dpid_b, up, down));
    let builders: Vec<WorldBuilder> = builders.into_iter().map(Option::unwrap).collect();
    let mut fleet = ParallelShardedDfi::new(&race_config(), SEED, builders, HashMap::new());

    // Bindings enter through the front-end, reaching both workers.
    for ev in [
        DfiEvent::Lease {
            mac: MacAddr::from_index(1),
            ip: h1_ip(),
            hostname: Some("lhost".into()),
            released: false,
        },
        DfiEvent::Lease {
            mac: MacAddr::from_index(2),
            ip: h2_ip(),
            hostname: Some("rhost".into()),
            released: false,
        },
        DfiEvent::Name {
            hostname: "lhost".into(),
            ip: h1_ip(),
            removed: false,
        },
        DfiEvent::Name {
            hostname: "rhost".into(),
            ip: h2_ip(),
            removed: false,
        },
        DfiEvent::Session {
            user: "lee".into(),
            host: "lhost".into(),
            logged_on: true,
        },
    ] {
        let op = binding_op_of_event(&ev).expect("every boot event is a binding op");
        fleet.apply_binding_ops(vec![op]);
    }
    fleet.drain();

    // The session-scoped allow, inserted through the front-end's epoch
    // barrier.
    let allow_id = fleet.insert_policy(
        PolicyRule::allow(EndpointPattern::user("lee"), EndpointPattern::any()),
        50,
        "threaded-race",
    );

    // t=100ms: first packet. Decided Allow (~111 ms) and memoized on
    // worker B; the install is dropped by the window and enters the retry
    // loop. t=116ms: same flow again — no rule landed, so the switch
    // punts; the faulty channel holds the punt until ~121 ms.
    fleet.punt_at(worker_b, 0, syn(50_000), SimTime::from_millis(100));
    fleet.punt_at(worker_b, 0, syn(50_000), SimTime::from_millis(116));

    // Run every worker to t=118ms: the raced punt has left the switch and
    // sits in the delayed channel. Then the session expires: the log-off
    // batch invalidates the binding on BOTH workers and the revocation's
    // flush fanout + epoch barrier cancel the pending Allow-install
    // retries fleet-wide — all from the front-end thread, before worker B
    // decides the delayed punt.
    fleet.advance_all(SimTime::from_millis(118));
    let op = binding_op_of_event(&DfiEvent::Session {
        user: "lee".into(),
        host: "lhost".into(),
        logged_on: false,
    })
    .expect("a log-off is a binding op");
    fleet.apply_binding_ops(vec![op]);
    assert!(
        fleet.revoke_policy(allow_id),
        "the allow must exist: {line}"
    );

    let report = fleet.drain();
    assert_eq!(
        report.metrics.allowed, 1,
        "only the pre-log-off decision may allow: {line}"
    );
    assert!(
        report.metrics.denied >= 1,
        "the delayed punt must be re-decided to Deny: {line}"
    );
    for (dpid, cookies) in &report.cookies {
        for cookie in cookies {
            assert_eq!(
                *cookie, DEFAULT_DENY_ID.0,
                "no Allow rule may survive the cross-thread revocation on \
                 dpid {dpid}: {line}"
            );
        }
    }
    assert_eq!(
        report.deliveries.get(&0).copied().unwrap_or(0),
        0,
        "nothing was deliverable under the fault window: {line}"
    );
    assert!(
        report.epochs_agree(),
        "workers must agree on the served epoch {:?}: {line}",
        report.served_epochs
    );
    fleet.shutdown().expect("no shard worker panicked");
}
