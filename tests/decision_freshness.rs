//! Decisions stay fresh with no memo: every punted packet is resolved on
//! the shard's live ERM replica and classified against the snapshot it
//! serves, so a flow replayed after a binding or policy change is decided
//! under that change.
//!
//! Every case runs on the three proxy modes: the paper's single proxy
//! (`Dfi::new`), two direct shards (`Dfi::sharded(2, ..)`) and two worker
//! threads (`ParallelShardedDfi`). The rig is one switch with three hosts
//! behind a reactive controller; in the two-shard modes the switch's owner
//! decides and the other shard only receives the fan-outs. Service times
//! are constants so the timeline does not depend on which clock draws
//! them.

use dfi_repro::controller::Controller;
use dfi_repro::core::events::{DfiEvent, RepairStepData, SnapshotWitness};
use dfi_repro::core::policy::{EndpointPattern, PolicyId, PolicyRule};
use dfi_repro::core::{
    binding_op_of_event, Dfi, DfiConfig, DfiMetrics, GateVerdict, ObserveFn, ParallelShardedDfi,
    SnapshotGate, WorkerWorld, WorldBuilder,
};
use dfi_repro::dataplane::{Network, SwitchConfig, Tx};
use dfi_repro::packet::headers::build;
use dfi_repro::packet::MacAddr;
use dfi_repro::simnet::topo::shard_of;
use dfi_repro::simnet::{Dist, Sim};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

const LAT: Duration = Duration::from_micros(50);
const DPID: u64 = 0xD1;
const SEED: u64 = 7;

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(i)
}

fn ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, i)
}

/// A TCP SYN from the host on port `src` to the host on port `dst`.
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

fn config() -> DfiConfig {
    DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    }
}

/// What a case does to a proxy; every call runs the mode to quiescence.
trait Mode {
    fn name(&self) -> &'static str;
    /// Routes a sensor event's binding op to the shards.
    fn sense(&mut self, ev: &DfiEvent);
    fn insert(&mut self, rule: PolicyRule, priority: u32) -> PolicyId;
    fn revoke(&mut self, id: PolicyId) -> bool;
    /// Deletes `id`'s rules from every switch.
    fn flush(&mut self, id: PolicyId);
    fn set_gate(&mut self, gate: SnapshotGate);
    /// Sends each frame from the host on `port`, back to back.
    fn send(&mut self, port: u32, frames: &[Vec<u8>]);
    fn metrics(&mut self) -> DfiMetrics;
}

struct Direct {
    name: &'static str,
    sim: Sim,
    dfi: Dfi,
    tx: Vec<Tx>,
}

impl Direct {
    fn new(name: &'static str, dfi: Dfi) -> Direct {
        let mut sim = Sim::new(SEED);
        let mut net = Network::new();
        let sw = net.add_switch(SwitchConfig::new(DPID));
        let tx = (1..=3u32)
            .map(|port| net.attach_silent_host(&sw, port, LAT))
            .collect();
        let ctrl = Controller::reactive();
        dfi.interpose(&mut sim, &sw, move |sim, sink| ctrl.connect(sim, sink));
        sim.run();
        Direct { name, sim, dfi, tx }
    }
}

impl Mode for Direct {
    fn name(&self) -> &'static str {
        self.name
    }
    fn sense(&mut self, ev: &DfiEvent) {
        let op = binding_op_of_event(ev).expect("a binding event");
        let _epoch = self.dfi.apply_binding_ops(vec![op]);
        self.sim.run();
    }
    fn insert(&mut self, rule: PolicyRule, priority: u32) -> PolicyId {
        let id = self
            .dfi
            .insert_policy(&mut self.sim, rule, priority, "freshness");
        self.sim.run();
        id
    }
    fn revoke(&mut self, id: PolicyId) -> bool {
        let known = self.dfi.revoke_policy(&mut self.sim, id);
        self.sim.run();
        known
    }
    fn flush(&mut self, id: PolicyId) {
        self.dfi.flush_policy_rules(&mut self.sim, id);
        self.sim.run();
    }
    fn set_gate(&mut self, gate: SnapshotGate) {
        self.dfi.set_snapshot_gate(gate);
    }
    fn send(&mut self, port: u32, frames: &[Vec<u8>]) {
        for frame in frames {
            self.tx[port as usize - 1].send(&mut self.sim, frame.clone());
        }
        self.sim.run();
    }
    fn metrics(&mut self) -> DfiMetrics {
        self.dfi.metrics()
    }
}

struct Threaded {
    fleet: ParallelShardedDfi,
    owner: usize,
}

impl Threaded {
    fn new() -> Threaded {
        let owner = shard_of(DPID, 2);
        let builders: Vec<WorldBuilder> = (0..2)
            .map(|w| -> WorldBuilder {
                let owns = w == owner;
                Box::new(move |sim, dfi, _outbox| {
                    let mut net = Network::new();
                    let mut taps = Vec::new();
                    if owns {
                        let sw = net.add_switch(SwitchConfig::new(DPID));
                        taps = (1..=3u32)
                            .map(|port| net.attach_silent_host(&sw, port, LAT))
                            .collect();
                        let ctrl = Controller::reactive();
                        dfi.interpose(sim, &sw, move |sim, sink| ctrl.connect(sim, sink));
                    }
                    let observe: ObserveFn = Box::new(|_sim| (Vec::new(), Vec::new()));
                    WorkerWorld {
                        taps,
                        boundaries: Vec::new(),
                        observe,
                    }
                })
            })
            .collect();
        let fleet = ParallelShardedDfi::new(&config(), SEED, builders, HashMap::new());
        Threaded { fleet, owner }
    }
}

impl Mode for Threaded {
    fn name(&self) -> &'static str {
        "ParallelShardedDfi x2"
    }
    fn sense(&mut self, ev: &DfiEvent) {
        let op = binding_op_of_event(ev).expect("a binding event");
        self.fleet.apply_binding_ops(vec![op]);
        self.fleet.drain();
    }
    fn insert(&mut self, rule: PolicyRule, priority: u32) -> PolicyId {
        let id = self.fleet.insert_policy(rule, priority, "freshness");
        self.fleet.drain();
        id
    }
    fn revoke(&mut self, id: PolicyId) -> bool {
        let known = self.fleet.revoke_policy(id);
        self.fleet.drain();
        known
    }
    fn flush(&mut self, id: PolicyId) {
        let step = RepairStepData::FlushCookie {
            cookie: id.0,
            dpids: Vec::new(),
        };
        self.fleet.apply_repair_steps(&[step]);
        self.fleet.drain();
    }
    fn set_gate(&mut self, gate: SnapshotGate) {
        self.fleet.set_snapshot_gate(gate);
    }
    fn send(&mut self, port: u32, frames: &[Vec<u8>]) {
        for frame in frames {
            self.fleet.punt(self.owner, port - 1, frame.clone());
        }
        self.fleet.drain();
    }
    fn metrics(&mut self) -> DfiMetrics {
        self.fleet.drain().metrics
    }
}

/// Runs `case` once on each proxy mode.
fn on_every_mode(case: impl Fn(&mut dyn Mode)) {
    case(&mut Direct::new("Dfi::new", Dfi::new(config())));
    case(&mut Direct::new(
        "Dfi::sharded x2",
        Dfi::sharded(2, &config()),
    ));
    case(&mut Threaded::new());
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

/// Alice logs off and the rules her policy compiled are flushed: the
/// replayed flow resolves to no user and falls to the default deny, while
/// carol's flow was decided on its own bindings all along.
#[test]
fn a_log_off_plus_flush_denies_the_replayed_flow() {
    on_every_mode(|m| {
        // DNS publishes FQDNs; SIEM sessions use short machine names.
        m.sense(&name("h1.corp.local", ip(1)));
        m.sense(&name("h3.corp.local", ip(3)));
        m.sense(&session("alice", "h1", true));
        m.sense(&session("carol", "h3", true));
        let alice = m.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
        );
        m.insert(
            PolicyRule::allow(EndpointPattern::user("carol"), EndpointPattern::any()),
            10,
        );
        m.send(1, &[syn(1, 2, 80)]);
        m.send(3, &[syn(3, 2, 80)]);
        assert_eq!(m.metrics().allowed, 2, "{}", m.name());

        m.sense(&session("alice", "h1", false));
        m.flush(alice);
        m.send(1, &[syn(1, 2, 80)]);
        let metrics = m.metrics();
        assert_eq!(
            metrics.allowed,
            2,
            "{}: no allow after the log-off",
            m.name()
        );
        assert_eq!(metrics.denied, 1, "{}", m.name());
        assert_eq!(metrics.decision_cache_misses, 3, "{}", m.name());
    });
}

/// Revoking the deciding policy flushes its rules; the replayed flow is
/// decided under the snapshot without it: default deny.
#[test]
fn a_revoke_denies_the_replayed_flow() {
    on_every_mode(|m| {
        let rule = m.insert(PolicyRule::allow_all(), 1);
        m.send(1, &[syn(1, 2, 22)]);
        assert_eq!(m.metrics().allowed, 1, "{}", m.name());
        assert!(m.revoke(rule), "{}", m.name());
        m.send(1, &[syn(1, 2, 22)]);
        let metrics = m.metrics();
        assert_eq!(metrics.allowed, 1, "{}", m.name());
        assert_eq!(metrics.denied, 1, "{}", m.name());
    });
}

/// A blanket Deny whose snapshot the gate refuses leaves the last
/// certified (Allow) snapshot serving, so a flow decided during the
/// deferral is allowed. Once the gate certifies again, the deferred Deny
/// publishes, the recovery re-flushes the deferred cookies, and the
/// replayed flow is decided under the Deny.
#[test]
fn a_refused_then_recovered_deny_commit_denies_the_replayed_flow() {
    on_every_mode(|m| {
        m.insert(PolicyRule::allow_all(), 1);
        // Matches nothing here; revoking it is the commit that certifies.
        let placeholder = m.insert(
            PolicyRule::deny(EndpointPattern::user("nobody"), EndpointPattern::any()),
            5,
        );
        let refuse = Rc::new(RefCell::new(false));
        let flag = Rc::clone(&refuse);
        m.set_gate(Box::new(move |_pm| GateVerdict {
            witnesses: if *flag.borrow() {
                vec![SnapshotWitness {
                    kind: "allow-deny-conflict".into(),
                    rules: Vec::new(),
                    message: "publication refused".into(),
                }]
            } else {
                Vec::new()
            },
            findings: Vec::new(),
        }));

        *refuse.borrow_mut() = true;
        m.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            10,
        );
        m.send(1, &[syn(1, 2, 443)]);
        let metrics = m.metrics();
        assert_eq!(metrics.snapshot_refusals, 1, "{}", m.name());
        assert_eq!(
            metrics.allowed,
            1,
            "{}: the stale snapshot serves",
            m.name()
        );

        *refuse.borrow_mut() = false;
        assert!(m.revoke(placeholder), "{}", m.name());
        m.send(1, &[syn(1, 2, 443)]);
        let metrics = m.metrics();
        assert_eq!(metrics.allowed, 1, "{}: no stale allow", m.name());
        assert_eq!(metrics.denied, 1, "{}", m.name());
    });
}

/// The flow's source address is re-leased to another adapter: once the
/// switch's rule is gone, the replayed packet contradicts the new IP↔MAC
/// binding and is denied by the anti-spoofing check.
#[test]
fn a_dhcp_re_lease_spoof_denies_the_replayed_flow() {
    on_every_mode(|m| {
        let rule = m.insert(PolicyRule::allow_all(), 1);
        m.send(1, &[syn(1, 2, 8080)]);
        assert_eq!(m.metrics().allowed, 1, "{}", m.name());
        m.sense(&DfiEvent::Lease {
            mac: mac(9),
            ip: ip(1),
            hostname: None,
            released: false,
        });
        m.flush(rule);
        m.send(1, &[syn(1, 2, 8080)]);
        let metrics = m.metrics();
        assert_eq!(metrics.allowed, 1, "{}", m.name());
        assert_eq!(metrics.spoof_denied, 1, "{}", m.name());
    });
}

/// Three copies of one flow punt before its rule is installed, and each is
/// resolved and classified: the counters the wall-clock benchmark divides
/// by read 0 hits and 3 misses.
#[test]
fn three_punts_of_one_flow_are_three_decisions() {
    on_every_mode(|m| {
        m.insert(PolicyRule::allow_all(), 1);
        let frame = syn(1, 2, 445);
        m.send(1, &[frame.clone(), frame.clone(), frame]);
        let metrics = m.metrics();
        assert_eq!(metrics.packet_ins, 3, "{}", m.name());
        assert_eq!(metrics.allowed, 3, "{}", m.name());
        assert_eq!(metrics.decision_cache_hits, 0, "{}", m.name());
        assert_eq!(metrics.decision_cache_misses, 3, "{}", m.name());
    });
}
