//! `testbed_day`: the paper's §V-B testbed (`dfi_worm::Testbed`) under
//! AT-RBAC — a 14-switch star, 86 end hosts and 6 servers, DHCP/DNS/SIEM
//! sensors on DFI's bus and the reactive controller behind the proxy.
//!
//! Each round replays one day of the testbed's own log-on scripts
//! (`Testbed::scripts`): every SIEM log-on and log-off in scripted order,
//! each making AT-RBAC insert or revoke the host's role rules. Between
//! them the logged-on users open `Host::connect`s, and hosts move their
//! DHCP leases, published on the bus as the sensors publish them.

use crate::fleet::LEASE_MOVES_PER_FLOW;
use crate::harness::{self, Harness, Punt, Rig, Window, WindowKind};
use crate::report::Outcome;
use dfi_core::events::{topic, DfiEvent};
use dfi_core::pdp::priority;
use dfi_core::policy::{EndpointPattern, PolicyAction, PolicyId, PolicyRule, DEFAULT_DENY_ID};
use dfi_dataplane::{ByteSink, Switch};
use dfi_openflow::{Message, OfMessage};
use dfi_packet::PacketHeaders;
use dfi_simnet::{Sim, SimRng, SimTime};
use dfi_worm::host::SMB_PORT;
use dfi_worm::{Condition, Testbed, TestbedConfig};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Budget seconds per round; each round replays one scripted day.
const SECONDS_PER_DAY: u64 = 7;
/// Kerberos: one of the authentication ports AT-RBAC keeps open to the
/// directory server for hosts with no user.
const KERBEROS_PORT: u16 = 88;
/// Sim time a connect gets to settle before its host's first SYN
/// retransmission (3 s): decision, installs, acks and the handshake all
/// land well inside it.
const SETTLE: Duration = Duration::from_millis(2_500);

/// Connect mix. The repository models no benign traffic, so these are
/// the benchmark's own: from a logged-on host, most connects go to a role
/// peer (servers mostly, so cross-switch dominates) and the rest to a
/// non-peer, which AT-RBAC denies at the first hop.
const PEER_SHARE: f64 = 0.85;
const SERVER_SHARE: f64 = 0.80;
/// Connects each logged-on user opens per scripted hour (one every ten
/// minutes), also the benchmark's own: over a scripted day it grows Table
/// 0 into the thousands.
const CONNECTS_PER_USER_HOUR: f64 = 6.0;

/// Packet-Ins captured on their way from the switches to the proxy during
/// one operation, in one reused buffer.
#[derive(Default)]
struct Capture {
    bytes: Vec<u8>,
    frames: Vec<(u64, usize, usize)>,
}

pub struct Day {
    sim: Sim,
    tb: Testbed,
    capture: Rc<RefCell<Capture>>,
    switch_of: HashMap<u64, Switch>,
    /// End hosts (indices into `tb.hosts`) and whether their user is on.
    end_hosts: Vec<usize>,
    logged_on: Vec<bool>,
    /// AT-RBAC rule ids per logged-on host, as the store clone assigned.
    grants: HashMap<usize, Vec<PolicyId>>,
    rng: SimRng,
    default_deny_note: bool,
}

impl Day {
    fn build(seed: u64) -> Day {
        let mut sim = Sim::new(seed);
        let tb = Testbed::build(&mut sim, &TestbedConfig::default(), Condition::AtRbac);
        // Re-wire each switch's channel to the proxy through a tap that
        // copies Packet-Ins (connection i is switch i: the testbed
        // interposes the switches in order).
        let capture = Rc::new(RefCell::new(Capture::default()));
        for (conn, sw) in tb.switches.iter().enumerate() {
            let to_proxy = tb.dfi.from_switch_sink(conn);
            let cap = capture.clone();
            let dpid = sw.dpid();
            let tap: ByteSink = Rc::new(move |sim, bytes: &[u8]| {
                const OFPT_PACKET_IN: u8 = 10;
                if bytes.get(1) == Some(&OFPT_PACKET_IN) {
                    let mut c = cap.borrow_mut();
                    let start = c.bytes.len();
                    c.bytes.extend_from_slice(bytes);
                    let end = c.bytes.len();
                    c.frames.push((dpid, start, end));
                }
                to_proxy(sim, bytes);
            });
            sw.connect_control(&mut sim, tap);
        }
        sim.run();
        let switch_of = tb.switches.iter().map(|s| (s.dpid(), s.clone())).collect();
        let end_hosts: Vec<usize> = (0..tb.hosts.len())
            .filter(|&i| !tb.hosts[i].with(|h| h.is_server))
            .collect();
        let logged_on = vec![false; tb.hosts.len()];
        Day {
            sim,
            tb,
            capture,
            switch_of,
            end_hosts,
            logged_on,
            grants: HashMap::new(),
            rng: SimRng::new(seed ^ 0xDA7),
            default_deny_note: false,
        }
    }

    fn peers(&self, host: usize) -> Vec<usize> {
        let name = self.tb.hosts[host].hostname();
        self.tb
            .roles
            .role_peers(&name)
            .iter()
            .filter_map(|p| self.tb.index_of(p))
            .collect()
    }

    fn is_server(&self, host: usize) -> bool {
        self.tb.hosts[host].with(|h| h.is_server)
    }

    fn enclave(&self, host: usize) -> Option<String> {
        self.tb.hosts[host].with(|h| h.enclave.clone())
    }

    /// One `Host::connect` to `dst` on the SMB port, up to the SYN-ACK or
    /// the denial across every hop. The host's own retransmission and
    /// timeout timers then run untimed, so the next op starts quiescent.
    fn connect(&mut self, h: &mut Harness, src: usize, dst: usize) {
        {
            let mut c = self.capture.borrow_mut();
            c.bytes.clear();
            c.frames.clear();
        }
        let host = self.tb.hosts[src].clone();
        let dst_ip = self.tb.hosts[dst].ip();
        let result = Rc::new(Cell::new(None));
        let r = result.clone();
        let ctrl = &self.tb.controller;
        let ctrl0 = ctrl.flow_mods_sent() + ctrl.packet_outs_sent();
        let accepted0 = self.tb.hosts[dst].with(|n| n.accepted);
        let t0 = self.sim.now();
        let live = harness::live(&mut self.sim, |sim| {
            host.connect(sim, dst_ip, SMB_PORT, move |_, ok| r.set(Some(ok)));
            sim.run_until(t0 + SETTLE);
        });
        let settled = result.get();
        self.sim.run();
        let ctrl = &self.tb.controller;
        let reached_upstream = ctrl.flow_mods_sent() + ctrl.packet_outs_sent() - ctrl0
            + (self.tb.hosts[dst].with(|n| n.accepted) - accepted0);

        h.checks.begin();
        let punts: Vec<Punt> = {
            let c = self.capture.borrow();
            c.frames
                .iter()
                .filter_map(
                    |&(dpid, s, e)| match OfMessage::decode(&c.bytes[s..e]).ok()?.body {
                        Message::PacketIn(pi) => {
                            let in_port = pi.in_port()?;
                            let headers = PacketHeaders::parse(&pi.data).ok()?;
                            let expected = harness::oracle(&self.tb.dfi, &headers, dpid, in_port);
                            Some(Punt {
                                dpid,
                                in_port,
                                frame: pi.data,
                                headers,
                                expected,
                            })
                        }
                        _ => None,
                    },
                )
                .collect()
        };
        let Some(first) = punts.first() else {
            h.checks.fail("flow_never_decided");
            return;
        };
        let allowed = first.expected.action == PolicyAction::Allow;
        for p in &punts {
            self.default_deny_note |= p.expected.policy == DEFAULT_DENY_ID;
            harness::check_installed(&mut h.checks, &self.switch_of[&p.dpid], p);
        }
        match (allowed, settled, result.get()) {
            (true, Some(true), _) | (false, None, Some(false)) => {}
            (true, _, _) => h.checks.fail("allowed_connect_failed"),
            (false, _, _) => h.checks.fail("denied_connect_not_refused"),
        }
        if !allowed && reached_upstream > 0 {
            h.checks.fail("denied_packet_reached_upstream");
        }
        h.mix.allowed += u64::from(allowed);
        h.mix.cross_switch += u64::from(self.enclave(src) != self.enclave(dst));
        let now = self.sim.now();
        h.flow(&live, &self.tb.dfi, &punts, now);
    }

    /// A SIEM log-on (`on`) or log-off of `host`'s primary user: AT-RBAC
    /// inserts or revokes the host's role rules. The same inserts or
    /// revokes run first, timed, on a clone of the live policy store.
    fn session(&mut self, h: &mut Harness, host: usize, on: bool) {
        let name = self.tb.hosts[host].hostname();
        let user = self.tb.hosts[host]
            .with(|n| n.primary_user.clone())
            .expect("end hosts have a primary user");
        let mut shadow = self.tb.dfi.with_pm(|pm| pm.clone());
        let mut calls = Vec::new();
        let mut ids = Vec::new();
        let mut flushed = Vec::new();
        if on {
            if self.default_deny_note {
                shadow.note_default_deny_cached();
            }
            for peer in self.tb.roles.role_peers(&name) {
                for rule in [
                    PolicyRule::allow(EndpointPattern::host(&name), EndpointPattern::host(&peer)),
                    PolicyRule::allow(EndpointPattern::host(&peer), EndpointPattern::host(&name)),
                ] {
                    let s = Instant::now();
                    let (id, flush) = shadow.insert(rule, priority::AT_RBAC, "at-rbac");
                    calls.push((s, Instant::now()));
                    ids.push(id);
                    flushed.extend(flush);
                }
            }
        } else {
            ids = self
                .grants
                .remove(&host)
                .expect("logged-on hosts hold grants");
            for &id in &ids {
                let s = Instant::now();
                shadow.revoke(id);
                calls.push((s, Instant::now()));
            }
            flushed.clone_from(&ids);
        }
        drop(shadow);
        let siem = self.tb.siem.clone();
        let live = harness::live(&mut self.sim, |sim| {
            if on {
                siem.log_on(sim, &user, &name);
            } else {
                siem.log_off(sim, &user, &name);
            }
            sim.run();
        });
        if on {
            self.default_deny_note = false;
            self.grants.insert(host, ids.clone());
        }
        self.logged_on[host] = on;
        h.checks.begin();
        let stored = self
            .tb
            .dfi
            .with_pm(|pm| ids.iter().all(|&id| pm.get(id).is_some()));
        if stored != on {
            h.checks.fail("role_rules_differ_from_store_clone");
        }
        harness::check_policy_applied(&mut h.checks, &self.tb.dfi, &self.tb.switches, &flushed);
        h.policy(&live, on, &self.tb.dfi, &calls, &flushed);
    }

    /// A lease move of `host` as the testbed's DHCP server makes one: the
    /// server reserves every host's address, so a released lease is
    /// granted again at the same address, and the DNS name follows. Four
    /// sensor events on DFI's bus, in the order of a fleet lease move,
    /// each of which changes the ERM.
    fn lease_move(&mut self, h: &mut Harness, host: usize) {
        let hnd = &self.tb.hosts[host];
        let (ip, mac, short) = (hnd.ip(), hnd.mac(), hnd.hostname());
        let fqdn = self
            .tb
            .dfi
            .with_erm(|erm| erm.hosts_of_ip(ip).into_iter().max_by_key(String::len))
            .expect("every host has a DNS name");
        let lease = |released| DfiEvent::Lease {
            mac,
            ip,
            hostname: Some(short.clone()),
            released,
        };
        let name = |removed| DfiEvent::Name {
            hostname: fqdn.clone(),
            ip,
            removed,
        };
        for (topic, event) in [
            (topic::LEASES, lease(true)),
            (topic::LEASES, lease(false)),
            (topic::NAMES, name(true)),
            (topic::NAMES, name(false)),
        ] {
            harness::binding_update(h, &mut self.sim, &self.tb.dfi, topic, event);
        }
    }

    /// The day's SIEM events from the log-on scripts: `(time, host,
    /// log-on)`, in scripted order.
    fn script(&self) -> Vec<(SimTime, usize, bool)> {
        let mut events: Vec<(SimTime, usize, bool)> = self
            .tb
            .scripts
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
            .flat_map(|(i, s)| {
                s.sessions
                    .iter()
                    .flat_map(move |x| [(x.on, i, true), (x.off, i, false)])
            })
            .collect();
        events.sort_unstable();
        events
    }

    /// The next connect of the mix.
    fn pick_connect(&mut self) -> (usize, usize) {
        let on: Vec<usize> = self
            .end_hosts
            .iter()
            .copied()
            .filter(|&i| self.logged_on[i])
            .collect();
        let src = on[self.rng.index(on.len())];
        let peers = self.peers(src);
        if self.rng.chance(PEER_SHARE) {
            let (servers, mates): (Vec<usize>, Vec<usize>) =
                peers.iter().partition(|&&p| self.is_server(p));
            let pool = if self.rng.chance(SERVER_SHARE) {
                servers
            } else {
                mates
            };
            (src, pool[self.rng.index(pool.len())])
        } else {
            let others: Vec<usize> = self
                .end_hosts
                .iter()
                .copied()
                .filter(|&i| i != src && !peers.contains(&i))
                .collect();
            (src, others[self.rng.index(others.len())])
        }
    }
}

impl Rig for Day {
    const SETUPS_PER_ROUND: usize = 5;

    /// Builds the testbed at the start of the day, with no user logged
    /// on, and warms it up: every end host sends one Kerberos SYN to the
    /// directory server (allowed with no user), so the controller has
    /// learned every end host before the first timed op.
    fn setup(seed: u64) -> Day {
        let mut d = Day::build(seed);
        let ad =
            d.tb.index_of("ad")
                .expect("the testbed has a directory server");
        let ad_ip = d.tb.hosts[ad].ip();
        for &i in &d.end_hosts {
            d.tb.hosts[i].connect(&mut d.sim, ad_ip, KERBEROS_PORT, |_, _| {});
            d.sim.run();
        }
        d
    }

    fn switches(&self) -> &[Switch] {
        &self.tb.switches
    }

    /// The testbed's binding set (IP↔MAC, host↔IP and user↔host of every
    /// host), replayed into a fresh resolver.
    fn erm_load(&self) -> (f64, f64) {
        use dfi_core::erm::{Binding, EntityResolver};
        let mut bindings = Vec::new();
        for h in &self.tb.hosts {
            let (ip, mac, name) = (h.ip(), h.mac(), h.hostname());
            bindings.push(Binding::IpMac { ip, mac });
            bindings.push(Binding::HostIp {
                host: name.clone(),
                ip,
            });
            if let Some(user) = h.with(|n| n.primary_user.clone()) {
                bindings.push(Binding::UserHost { user, host: name });
            }
        }
        let n = bindings.len() as f64;
        let rss0 = crate::report::rss_bytes();
        let t0 = Instant::now();
        let mut erm = EntityResolver::new();
        for b in bindings {
            erm.bind(b);
        }
        let secs = t0.elapsed().as_secs_f64();
        let bytes = (crate::report::rss_bytes() - rss0) / n;
        drop(std::hint::black_box(erm));
        (secs, bytes)
    }

    fn context(&self, h: &Harness) -> String {
        let flows = h.flow_us.len() as f64;
        let share = |n: u64| n as f64 / flows;
        format!(
            "\"fabric\": {{\"switches\": {}, \"hosts\": {}, \"end_hosts\": {}, \"erm_bindings\": {}, \
             \"policy_rules\": {}}}, \
             \"ops\": {{\"connects\": {}, \"logons\": {}, \"logoffs\": {}, \"binding_updates\": {}}}, \
             \"mix\": {{\"allowed\": {}, \"denied\": {}, \"cross_switch\": {}, \"logged_on\": {}, \
             \"punts_per_connect\": {}, \"connects_per_user_hour\": {CONNECTS_PER_USER_HOUR}, \
             \"lease_moves_per_connect\": {LEASE_MOVES_PER_FLOW}}}",
            self.tb.switches.len(),
            self.tb.hosts.len(),
            self.end_hosts.len(),
            self.tb.dfi.with_erm(|erm| erm.binding_count()),
            self.tb.dfi.with_pm(|pm| pm.len()),
            h.flow_us.len(),
            h.grant_ms.len(),
            h.revoke_ms.len(),
            h.binding_us.len(),
            share(h.mix.allowed),
            share(flows as u64 - h.mix.allowed),
            share(h.mix.cross_switch),
            h.mix.logged_on_users as f64 / (flows * self.end_hosts.len() as f64),
            h.flow_packets() as f64 / flows,
        )
    }
}

/// `testbed_day`. Each round replays one scripted day on a freshly built
/// testbed (seeded from the run's seed and the round), so the tables grow
/// over the same trajectory in every round and every run. The SIEM events
/// come in scripted order; between two of them each logged-on user opens
/// `CONNECTS_PER_USER_HOUR` connects per scripted hour, and each connect
/// brings the fleet experiment's share of lease moves.
pub fn day(
    seed: u64,
    seconds: u64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let days = (seconds / SECONDS_PER_DAY).max(1) as usize;
    harness::rounds(
        "testbed_day",
        seed,
        days,
        trace,
        process_start,
        |d: &mut Day, h| {
            let ctrl = |d: &Day| d.tb.controller.flow_mods_sent();
            let w = Window::open(&d.tb.dfi, ctrl(d));
            let (mut clock, mut connects_owed, mut moves_owed) = (SimTime::ZERO, 0.0, 0.0);
            for (at, host, on) in d.script() {
                let logged_on = d.logged_on.iter().filter(|&&b| b).count();
                let hours = (at.as_secs_f64() - clock.as_secs_f64()) / 3600.0;
                connects_owed += hours * logged_on as f64 * CONNECTS_PER_USER_HOUR;
                clock = at;
                while connects_owed >= 1.0 {
                    connects_owed -= 1.0;
                    let (src, dst) = d.pick_connect();
                    h.mix.logged_on_users += logged_on as u64;
                    d.connect(h, src, dst);
                    moves_owed += LEASE_MOVES_PER_FLOW;
                    while moves_owed >= 1.0 {
                        moves_owed -= 1.0;
                        let mover = d.rng.index(d.tb.hosts.len());
                        d.lease_move(h, mover);
                    }
                }
                h.note_tables(&d.tb.switches);
                d.session(h, host, on);
            }
            let c = ctrl(d);
            h.close_window(w, &d.tb.dfi, c, WindowKind::Mixed);
        },
    )
}
