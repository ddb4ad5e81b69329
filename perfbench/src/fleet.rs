//! The fleet workloads, `fleet_flows` and `fleet_churn`: a 1000-switch
//! leaf-spine fabric (40 spines × 960 leaves), 250 k hosts × 2 users
//! (≈ 1.25 M ERM bindings), a hostname ACL in the style of scalegate's,
//! and a null upstream that only counts what the proxy hands it.

use crate::harness::{self, Harness, Punt, Rig, Window, WindowKind};
use crate::report::Outcome;
use dfi_core::erm::Binding;
use dfi_core::events::{topic, DfiEvent};
use dfi_core::policy::{EndpointPattern, PolicyAction, PolicyId, PolicyRule, DEFAULT_DENY_ID};
use dfi_core::{BindingBatch, BindingOp, Dfi, DfiConfig};
use dfi_dataplane::{ByteSink, Network, Switch, Tx};
use dfi_packet::headers::build;
use dfi_packet::{MacAddr, PacketHeaders};
use dfi_simnet::churn::{generate_churn, ChurnOp, ChurnParams};
use dfi_simnet::topo::{TopoKind, TopoParams, Topology};
use dfi_simnet::{Sim, SimRng};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

const SPINES: u32 = 40;
const LEAVES: u32 = 960;
const HOSTS: u32 = 250_000;
const USERS_PER_HOST: u32 = 2;
/// Destination-keyed ACL rules; every 8th (slot 3 of 8) is a deny.
const ACL_RULES: usize = 512;
const ACL_DENY_SLOT: usize = 3;
/// Hosts that originate flows, drawn from every leaf.
const SRC_POOL: usize = 40_000;
/// `allow user → host` grants kept live; the oldest is revoked when a new
/// one lands, so the rule count stays stationary.
const LIVE_GRANTS: usize = 64;
const GRANT_PRIORITY: u32 = 50;
const PDP: &str = "perfbench";
/// Flows run (untimed) at the end of each set-up.
const WARMUP_FLOWS: usize = 2_000;
/// Rounds per run, each on a freshly built fleet.
const ROUNDS: usize = 3;

/// Flow mix. Flows go to ACL hosts, so 7 in 8 are allowed. The
/// repository models no burst share; this one makes about one decision in
/// seven a decision-cache hit, so the hit path is measured at all.
const BURST_SHARE: f64 = 0.08;
const BURST_LEN: usize = 3;
/// `fleet_churn` only: flows from a granted user's host to the granted
/// host, so live grants decide some traffic (no model gives the share).
const GRANTED_PAIR_SHARE: f64 = 0.05;

/// Binding churn and flow offer of the repository's fleet-scale
/// experiment (`dfi-scalegate`): `dfi_simnet::churn` at 0.02 lease moves
/// per host-day and 0.01 session toggles per user-day, racing 12 000
/// offered flows per compressed day.
const LEASE_MOVES_PER_HOST_DAY: f64 = 0.02;
const SESSION_TOGGLES_PER_USER_DAY: f64 = 0.01;
const FLOWS_PER_DAY: f64 = 12_000.0;
/// Churn steps (lease moves plus session toggles) per day at those rates.
const CHURN_STEPS_PER_DAY: f64 = HOSTS as f64
    * (LEASE_MOVES_PER_HOST_DAY + USERS_PER_HOST as f64 * SESSION_TOGGLES_PER_USER_DAY);
/// New flows per churn step in `fleet_churn`: the experiment's ratio.
const FLOWS_PER_CHURN_STEP: f64 = FLOWS_PER_DAY / CHURN_STEPS_PER_DAY;
/// Lease moves per offered flow in that experiment.
pub const LEASE_MOVES_PER_FLOW: f64 = HOSTS as f64 * LEASE_MOVES_PER_HOST_DAY / FLOWS_PER_DAY;

/// `fleet_flows` alternates this many flow windows and write windows per
/// round, so the writes sample the whole round as Table 0 grows.
const SEGMENTS: usize = 30;
/// Operations per `--seconds` of budget. `fleet_flows` replays churn
/// steps in its write windows only so that it reports every metric; the
/// count keeps several times the samples each percentile needs.
const FLOWS_PER_SEC: usize = 10_000;
const QUIET_CHURN_STEPS_PER_SEC: usize = 120;
const CHURN_STEPS_PER_SEC: usize = 570;

struct Grant {
    id: PolicyId,
    src: u32,
    dst: u32,
}

/// One step of a `dfi_simnet::churn` day as DFI's bus carries it: a
/// lease move is four sensor events (lease released, lease granted, name
/// removed, name added), a session toggle one.
struct ChurnStep {
    events: Vec<(&'static str, DfiEvent)>,
    /// A lease move: `(host, new ip)`, which flows use from then on.
    moves: Option<(u32, Ipv4Addr)>,
}

struct FlowOp {
    src: u32,
    frame: Vec<u8>,
    burst: usize,
}

pub struct Fleet {
    seed: u64,
    sim: Sim,
    dfi: Dfi,
    _net: Network,
    switches: Vec<Switch>,
    topo: Topology,
    tx: HashMap<u32, Tx>,
    /// Packet-ins the proxy handed to the null upstream.
    upstream: Rc<Cell<u64>>,
    src_pool: Vec<u32>,
    acl_dsts: Vec<u32>,
    /// Each host's current lease.
    ip: Vec<Ipv4Addr>,
    used: HashSet<(u32, u32, u16, u16)>,
    rng: SimRng,
    grants: VecDeque<Grant>,
    /// A default-deny decision was made since the last policy insert (the
    /// proxy then flushes cookie 0 on the next allow insert).
    default_deny_note: bool,
    churn: VecDeque<ChurnStep>,
    erm_load: (f64, f64),
}

fn binding_ops(topo: &Topology) -> Vec<BindingOp> {
    let mut ops = Vec::with_capacity(topo.binding_count() + topo.hosts.len());
    for h in &topo.hosts {
        let mac = MacAddr::from_index(h.mac_index);
        ops.push(BindingOp::Bind(Binding::IpMac { ip: h.ip, mac }));
        ops.push(BindingOp::Bind(Binding::HostIp {
            host: h.hostname.clone(),
            ip: h.ip,
        }));
        for u in &h.users {
            ops.push(BindingOp::Bind(Binding::UserHost {
                user: u.clone(),
                host: h.hostname.clone(),
            }));
        }
        ops.push(BindingOp::Bind(Binding::MacLocation {
            mac,
            dpid: h.dpid,
            port: h.port,
        }));
    }
    ops
}

impl Fleet {
    fn build(seed: u64) -> Fleet {
        let topo = Topology::generate(
            &TopoParams {
                kind: TopoKind::LeafSpine {
                    spines: SPINES,
                    leaves: LEAVES,
                },
                hosts: HOSTS,
                users_per_host: USERS_PER_HOST,
            },
            seed,
        );
        let mut sim = Sim::new(seed);
        let mut net = Network::new();
        let switches = net.build_topology(&topo, Duration::from_micros(50));
        let dfi = Dfi::new(DfiConfig::default());
        let upstream = Rc::new(Cell::new(0u64));
        for sw in &switches {
            let count = upstream.clone();
            let null: ByteSink = Rc::new(move |_, bytes: &[u8]| {
                const OFPT_PACKET_IN: u8 = 10;
                if bytes.get(1) == Some(&OFPT_PACKET_IN) {
                    count.set(count.get() + 1);
                }
            });
            dfi.interpose(&mut sim, sw, move |_, _| null);
        }

        let ops = binding_ops(&topo);
        let n_bindings = ops.len() as f64;
        let rss0 = crate::report::rss_bytes();
        let t0 = Instant::now();
        let fresh = dfi.apply_binding_batch(&BindingBatch { epoch: 0, ops });
        assert!(fresh, "unstamped batches always apply");
        let erm_load = (
            t0.elapsed().as_secs_f64(),
            (crate::report::rss_bytes() - rss0) / n_bindings,
        );

        let mut rng = SimRng::new(seed ^ 0xF1EE7);
        let mut hosts: Vec<u32> = (0..HOSTS).collect();
        rng.shuffle(&mut hosts);
        let acl_dsts = hosts[..ACL_RULES].to_vec();
        let src_pool = hosts[ACL_RULES..ACL_RULES + SRC_POOL].to_vec();
        for (k, &d) in acl_dsts.iter().enumerate() {
            let dst = EndpointPattern::host(&topo.hosts[d as usize].hostname);
            let rule = if k % 8 == ACL_DENY_SLOT {
                PolicyRule::deny(EndpointPattern::any(), dst)
            } else {
                PolicyRule::allow(EndpointPattern::any(), dst)
            };
            let priority = 10 * (1 + (k.wrapping_mul(2_654_435_761) >> 16) as u32 % 4);
            dfi.insert_policy(&mut sim, rule, priority, "acl");
        }
        let tx = src_pool
            .iter()
            .map(|&i| {
                let h = &topo.hosts[i as usize];
                let sw = &switches[h.dpid as usize - 1];
                (
                    i,
                    net.attach_silent_host(sw, h.port, Duration::from_micros(50)),
                )
            })
            .collect();
        sim.run();
        let ip = topo.hosts.iter().map(|h| h.ip).collect();
        Fleet {
            seed,
            sim,
            dfi,
            _net: net,
            switches,
            topo,
            tx,
            upstream,
            src_pool,
            acl_dsts,
            ip,
            used: HashSet::new(),
            rng,
            grants: VecDeque::new(),
            default_deny_note: false,
            churn: VecDeque::new(),
            erm_load,
        }
    }

    fn next_flow(&mut self, churn: bool) -> FlowOp {
        loop {
            let rng = &mut self.rng;
            let (src, dst) = match self.grants.len() {
                n if churn && n > 0 && rng.chance(GRANTED_PAIR_SHARE) => {
                    let g = &self.grants[rng.index(n)];
                    (g.src, g.dst)
                }
                _ => (
                    self.src_pool[rng.index(SRC_POOL)],
                    self.acl_dsts[rng.index(ACL_RULES)],
                ),
            };
            let sport = 1024 + rng.index(60_000) as u16;
            let dport = [80, 443, 445, 8080][rng.index(4)];
            let burst = if rng.chance(BURST_SHARE) {
                BURST_LEN
            } else {
                1
            };
            if src == dst || !self.used.insert((src, dst, sport, dport)) {
                continue;
            }
            let (s, d) = (
                &self.topo.hosts[src as usize],
                &self.topo.hosts[dst as usize],
            );
            let frame = build::tcp_syn(
                MacAddr::from_index(s.mac_index),
                MacAddr::from_index(d.mac_index),
                self.ip[src as usize],
                self.ip[dst as usize],
                sport,
                dport,
            );
            return FlowOp { src, frame, burst };
        }
    }

    /// One flow op: the frames go in at the source host's port; the op
    /// ends when the simulator is quiescent (decided, installed,
    /// barrier-acknowledged, allowed packets handed upstream).
    fn flow(&mut self, h: &mut Harness, op: FlowOp) {
        let frames = vec![op.frame.clone(); op.burst];
        let tx = self.tx[&op.src].clone();
        let up0 = self.upstream.get();
        let live = harness::live(&mut self.sim, |sim| {
            for frame in frames {
                tx.send(sim, frame);
            }
            sim.run();
        });
        let upstream = self.upstream.get() - up0;

        h.checks.begin();
        let host = &self.topo.hosts[op.src as usize];
        let (dpid, in_port) = (host.dpid, host.port);
        let headers = PacketHeaders::parse(&op.frame).expect("generated frames parse");
        let expected = harness::oracle(&self.dfi, &headers, dpid, in_port);
        if expected.policy == DEFAULT_DENY_ID {
            self.default_deny_note = true;
        }
        let allowed = expected.action == PolicyAction::Allow;
        h.mix.allowed += u64::from(allowed);
        h.mix.default_denied += u64::from(expected.policy == DEFAULT_DENY_ID);
        h.mix.bursts += u64::from(op.burst > 1);
        let punts: Vec<Punt> = (0..op.burst)
            .map(|_| Punt {
                dpid,
                in_port,
                frame: op.frame.clone(),
                headers: headers.clone(),
                expected: expected.clone(),
            })
            .collect();
        harness::check_installed(&mut h.checks, &self.switches[dpid as usize - 1], &punts[0]);
        if !allowed && upstream > 0 {
            h.checks.fail("denied_packet_reached_upstream");
        }
        if allowed && upstream != op.burst as u64 {
            h.checks.fail("allowed_packet_not_handed_upstream");
        }
        h.flow(&live, &self.dfi, &punts, self.sim.now());
    }

    /// Grants a random source-pool user access to a host the ACL denies.
    /// Every grant so outranks exactly one deny rule, whose cached rules
    /// it flushes from every switch — as every revoke flushes its own.
    fn grant(&mut self, h: &mut Harness) {
        let src = self.src_pool[self.rng.index(SRC_POOL)];
        let dst = self.acl_dsts[ACL_DENY_SLOT + 8 * self.rng.index(ACL_RULES / 8)];
        let host = &self.topo.hosts[src as usize];
        let user = &host.users[self.rng.index(host.users.len())];
        let rule = PolicyRule::allow(
            EndpointPattern::user(user),
            EndpointPattern::host(&self.topo.hosts[dst as usize].hostname),
        );
        let mut shadow = self.dfi.with_pm(|pm| pm.clone());
        if self.default_deny_note {
            shadow.note_default_deny_cached();
        }
        let s = Instant::now();
        let (expect_id, flushed) = shadow.insert(rule.clone(), GRANT_PRIORITY, PDP);
        let e = Instant::now();
        drop(shadow);
        let dfi = self.dfi.clone();
        let mut id = PolicyId(0);
        let live = harness::live(&mut self.sim, |sim| {
            id = dfi.insert_policy(sim, rule, GRANT_PRIORITY, PDP);
            sim.run();
        });
        self.default_deny_note = false;
        h.checks.begin();
        if id != expect_id {
            h.checks.fail("policy_id_differs_from_store_clone");
        }
        harness::check_policy_applied(&mut h.checks, &self.dfi, &self.switches, &flushed);
        h.policy(&live, true, &self.dfi, &[(s, e)], &flushed);
        self.grants.push_back(Grant { id, src, dst });
    }

    fn revoke_oldest(&mut self, h: &mut Harness) {
        let g = self.grants.pop_front().expect("live grants");
        let mut shadow = self.dfi.with_pm(|pm| pm.clone());
        let s = Instant::now();
        let existed = shadow.revoke(g.id);
        let e = Instant::now();
        drop(shadow);
        let dfi = self.dfi.clone();
        let mut revoked = false;
        let live = harness::live(&mut self.sim, |sim| {
            revoked = dfi.revoke_policy(sim, g.id);
            sim.run();
        });
        h.checks.begin();
        if !(existed && revoked) || self.dfi.with_pm(|pm| pm.get(g.id).is_some()) {
            h.checks.fail("revoked_policy_still_stored");
        }
        harness::check_policy_applied(&mut h.checks, &self.dfi, &self.switches, &[g.id]);
        h.policy(&live, false, &self.dfi, &[(s, e)], &[g.id]);
    }

    /// Queues `n` churn steps of a `dfi_simnet::churn` schedule at the
    /// fleet experiment's rates, in time order.
    fn load_churn(&mut self, n: usize) {
        let days = (1.5 * n as f64 / CHURN_STEPS_PER_DAY).ceil();
        let params = ChurnParams {
            day: Duration::from_secs(1),
            horizon: Duration::from_secs_f64(days),
            lease_moves_per_host_day: LEASE_MOVES_PER_HOST_DAY,
            session_toggles_per_user_day: SESSION_TOGGLES_PER_USER_DAY,
        };
        self.churn.clear();
        for ev in generate_churn(&self.topo, &params, self.seed)
            .into_iter()
            .take(n)
        {
            let logged_on = matches!(ev.op, ChurnOp::LogOn { .. });
            let step = match ev.op {
                ChurnOp::LeaseMove {
                    host,
                    mac_index,
                    old_ip,
                    new_ip,
                } => {
                    let mac = MacAddr::from_index(mac_index);
                    let hostname = &self.topo.hosts[host as usize].hostname;
                    let lease = |ip, released| DfiEvent::Lease {
                        mac,
                        ip,
                        hostname: Some(hostname.clone()),
                        released,
                    };
                    let name = |ip, removed| DfiEvent::Name {
                        hostname: hostname.clone(),
                        ip,
                        removed,
                    };
                    ChurnStep {
                        events: vec![
                            (topic::LEASES, lease(old_ip, true)),
                            (topic::LEASES, lease(new_ip, false)),
                            (topic::NAMES, name(old_ip, true)),
                            (topic::NAMES, name(new_ip, false)),
                        ],
                        moves: Some((host, new_ip)),
                    }
                }
                ChurnOp::LogOn { user, host } | ChurnOp::LogOff { user, host } => ChurnStep {
                    events: vec![(
                        topic::SESSIONS,
                        DfiEvent::Session {
                            user,
                            host: self.topo.hosts[host as usize].hostname.clone(),
                            logged_on,
                        },
                    )],
                    moves: None,
                },
            };
            self.churn.push_back(step);
        }
        assert!(
            self.churn.len() == n,
            "churn schedule too short for {n} steps"
        );
    }

    /// One churn step: its sensor events, one binding update each, and
    /// for a session toggle one PDP write — a session change makes the
    /// PDP write, as AT-RBAC does. The writes alternate between a grant
    /// and a revoke of the oldest grant, so `LIVE_GRANTS` stay live.
    fn churn_step(&mut self, h: &mut Harness) {
        let step = self.churn.pop_front().expect("churn loaded for every step");
        for (topic, event) in step.events {
            harness::binding_update(h, &mut self.sim, &self.dfi, topic, event);
        }
        match step.moves {
            Some((host, ip)) => self.ip[host as usize] = ip,
            None if self.grants.len() > LIVE_GRANTS => self.revoke_oldest(h),
            None => self.grant(h),
        }
    }
}

impl Rig for Fleet {
    /// Builds the fleet, pre-fills the live grants and runs the warm-up
    /// flows.
    fn setup(seed: u64) -> Fleet {
        let mut f = Fleet::build(seed);
        let mut warm = Harness::new(false, seed);
        for _ in 0..LIVE_GRANTS {
            f.grant(&mut warm);
        }
        for _ in 0..WARMUP_FLOWS {
            let op = f.next_flow(false);
            f.flow(&mut warm, op);
        }
        if warm.checks.failed() > 0 {
            eprintln!(
                "warm-up failed its output check: {}",
                warm.checks.reasons_json()
            );
            std::process::exit(1);
        }
        f
    }

    fn switches(&self) -> &[Switch] {
        &self.switches
    }

    fn erm_load(&self) -> (f64, f64) {
        self.erm_load
    }

    fn context(&self, h: &Harness) -> String {
        let flows = h.flow_us.len();
        let share = |n: u64| n as f64 / flows as f64;
        format!(
            "\"fabric\": {{\"switches\": {}, \"spines\": {SPINES}, \"leaves\": {LEAVES}, \"hosts\": {HOSTS}, \
             \"users_per_host\": {USERS_PER_HOST}, \"erm_bindings\": {}, \"acl_rules\": {ACL_RULES}, \
             \"live_grants\": {LIVE_GRANTS}, \"source_hosts\": {SRC_POOL}, \"warmup_flows\": {WARMUP_FLOWS}}}, \
             \"ops\": {{\"flows\": {flows}, \"grants\": {}, \"revokes\": {}, \"binding_updates\": {}}}, \
             \"mix\": {{\"allowed\": {}, \"denied\": {}, \"default_denied\": {}, \"bursts\": {}, \
             \"burst_len\": {BURST_LEN}, \"flows_per_churn_step\": {FLOWS_PER_CHURN_STEP}}}",
            self.switches.len(),
            self.dfi.with_erm(|erm| erm.binding_count()),
            h.grant_ms.len(),
            h.revoke_ms.len(),
            h.binding_us.len(),
            share(h.mix.allowed),
            share(flows as u64 - h.mix.allowed),
            share(h.mix.default_denied),
            share(h.mix.bursts),
        )
    }
}

/// `fleet_flows`: the flow-setup budget itself — never-seen flows over
/// every leaf with no control-plane writes beside them. Each round
/// alternates `SEGMENTS` flow windows with write windows on the quiet
/// fleet, which replay churn steps (binding updates, and the PDP writes
/// the session toggles make), so every metric is reported.
pub fn flows(
    seed: u64,
    seconds: u64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let n_flows = FLOWS_PER_SEC * seconds as usize / (ROUNDS * SEGMENTS);
    let n_steps = (QUIET_CHURN_STEPS_PER_SEC * seconds as usize / (ROUNDS * SEGMENTS)).max(1);
    harness::rounds(
        "fleet_flows",
        seed,
        ROUNDS,
        trace,
        process_start,
        |f: &mut Fleet, h| {
            f.load_churn(SEGMENTS * n_steps);
            for _ in 0..SEGMENTS {
                let w = Window::open(&f.dfi, 0);
                for _ in 0..n_flows {
                    let op = f.next_flow(false);
                    f.flow(h, op);
                }
                h.close_window(w, &f.dfi, 0, WindowKind::Flows);
                let w = Window::open(&f.dfi, 0);
                for _ in 0..n_steps {
                    f.churn_step(h);
                }
                h.close_window(w, &f.dfi, 0, WindowKind::Updates);
            }
        },
    )
}

/// `fleet_churn`: the same fleet with writes beside the reads. It replays
/// a `dfi_simnet::churn` schedule at the fleet experiment's rates, with
/// that experiment's share of new flows between the steps. Every grant
/// and revoke is a 1000-switch cookie flush.
pub fn churn(
    seed: u64,
    seconds: u64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let n_steps = CHURN_STEPS_PER_SEC * seconds as usize / ROUNDS;
    harness::rounds(
        "fleet_churn",
        seed,
        ROUNDS,
        trace,
        process_start,
        |f: &mut Fleet, h| {
            f.load_churn(n_steps);
            let w = Window::open(&f.dfi, 0);
            let mut owed = 0.0;
            for _ in 0..n_steps {
                owed += FLOWS_PER_CHURN_STEP;
                while owed >= 1.0 {
                    let op = f.next_flow(true);
                    f.flow(h, op);
                    owed -= 1.0;
                }
                f.churn_step(h);
            }
            h.close_window(w, &f.dfi, 0, WindowKind::Mixed);
        },
    )
}
