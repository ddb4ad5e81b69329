//! The shared differential-trace harness: one seeded script of flows,
//! policy mutations (each a live snapshot swap), DHCP moves, and session
//! toggles — in a second variant with multi-mutation policy commits mixed
//! in — plus the per-step decision delta both `sharded_oracle.rs`
//! (cooperative shards) and `threaded_oracle.rs` (worker threads) compare
//! against the unsharded oracle. Keeping the generator here guarantees the
//! two suites replay the *identical* byte-for-byte trace.

// Each test binary compiles its own copy of this module and uses a
// (large, overlapping) subset of it.
#![allow(dead_code)]

use dfi_controller::Controller;
use dfi_core::events::{topic, DfiEvent};
use dfi_core::policy::{EndpointPattern, PolicyId, PolicyMutation, PolicyRule, Wild};
use dfi_core::{Dfi, DfiConfig};
use dfi_dataplane::{Network, Switch, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::topo::{TopoKind, TopoParams, Topology};
use dfi_simnet::{Dist, Sim, SimRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

/// Access- and fabric-link latency used by every world.
pub const LAT: Duration = Duration::from_micros(50);

pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic low-variance calibration so every system under test pays
/// identical per-stage costs (decision equivalence must not hinge on rng
/// stream alignment across differently-clocked worlds).
pub fn test_config() -> DfiConfig {
    DfiConfig {
        proxy_latency: Dist::constant_ms(0.16),
        pcp_service: Dist::constant_ms(0.39),
        binding_query: Dist::constant_ms(2.41),
        policy_query: Dist::constant_ms(2.52),
        bus_latency: Dist::constant_ms(0.3),
        ..DfiConfig::default()
    }
}

/// A single-spine leaf-spine fabric: genuinely multi-switch and
/// multi-path-length, but loop-free so the learning controller's floods
/// terminate.
pub fn fabric(seed: u64) -> Topology {
    Topology::generate(
        &TopoParams {
            kind: TopoKind::LeafSpine {
                spines: 1,
                leaves: 8,
            },
            hosts: 16,
            users_per_host: 1,
        },
        seed,
    )
}

/// One step of the shared trace.
#[derive(Clone, Debug)]
pub enum Step {
    /// Host `src` sends a TCP SYN to host `dst`.
    Flow { src: usize, dst: usize, dport: u16 },
    /// Insert a policy rule (always a snapshot swap).
    Insert(RuleSpec),
    /// Revoke the k-th live inserted rule (mod live count).
    Revoke { k: usize },
    /// One policy commit (one snapshot swap): re-rank one live inserted
    /// rule and revoke another (each the k-th, mod live count, when set
    /// and any is live), then insert `rules` in order as one group.
    Commit {
        rerank: Option<(usize, u32)>,
        revoke: Option<usize>,
        rules: Vec<RuleSpec>,
    },
    /// Revoke the k-th live commit group (mod live count) as one commit.
    RevokeCommit { k: usize },
    /// DHCP + DNS move host to a fresh IP.
    Move { host: usize },
    /// Toggle the host's user session (log-off / log-on alternating).
    Toggle { host: usize },
}

/// One rule an [`Step::Insert`] or [`Step::Commit`] inserts.
#[derive(Clone, Debug)]
pub struct RuleSpec {
    pub allow: bool,
    pub src_pat: Pat,
    pub dst_pat: Pat,
    pub priority: u32,
}

/// An endpoint pattern choice, resolved against the topology at replay.
#[derive(Clone, Copy, Debug)]
pub enum Pat {
    Any,
    User(usize),
    Host(usize),
    Ip(usize),
}

/// Generates the shared trace. Pure function of the seed: every system
/// replays the identical list.
pub fn trace(seed: u64, steps: usize, n_hosts: usize) -> Vec<Step> {
    generate(seed, steps, n_hosts, 0.0)
}

/// The shared trace with policy commits mixed in: before each step, with
/// probability 0.2, a [`Step::Commit`] of 2–6 inserts (plus, sometimes, a
/// re-rank and a revoke of single inserts) or a [`Step::RevokeCommit`] of
/// a live group takes the step's place.
pub fn commit_trace(seed: u64, steps: usize, n_hosts: usize) -> Vec<Step> {
    generate(seed, steps, n_hosts, 0.2)
}

fn rule_spec(rng: &mut SimRng, n_hosts: usize) -> RuleSpec {
    let pat = |r: &mut SimRng| match r.index(4) {
        0 => Pat::Any,
        1 => Pat::User(r.index(n_hosts)),
        2 => Pat::Host(r.index(n_hosts)),
        _ => Pat::Ip(r.index(n_hosts)),
    };
    RuleSpec {
        allow: rng.chance(0.7),
        src_pat: pat(rng),
        dst_pat: pat(rng),
        priority: 10 * (1 + rng.range_u64(0, 4) as u32),
    }
}

/// With `commit_share == 0` no commit roll is drawn, so [`trace`] keeps
/// the plain script's random stream step for step.
fn generate(seed: u64, steps: usize, n_hosts: usize, commit_share: f64) -> Vec<Step> {
    let mut rng = SimRng::new(seed ^ 0x0AC1E);
    let mut live_inserts = 0usize;
    let mut live_groups = 0usize;
    (0..steps)
        .map(|_| {
            if commit_share > 0.0 && rng.chance(commit_share) {
                if live_groups > 0 && rng.chance(0.4) {
                    live_groups -= 1;
                    return Step::RevokeCommit {
                        k: rng.index(1 << 16),
                    };
                }
                live_groups += 1;
                let rerank = rng
                    .chance(0.3)
                    .then(|| (rng.index(1 << 16), 10 * (1 + rng.range_u64(0, 4) as u32)));
                let revoke = (live_inserts > 0 && rng.chance(0.5)).then(|| {
                    live_inserts -= 1;
                    rng.index(1 << 16)
                });
                let k = 2 + rng.index(5);
                let rules = (0..k).map(|_| rule_spec(&mut rng, n_hosts)).collect();
                return Step::Commit {
                    rerank,
                    revoke,
                    rules,
                };
            }
            let roll = rng.next_f64();
            if roll < 0.40 {
                let src = rng.index(n_hosts);
                let mut dst = rng.index(n_hosts);
                if dst == src {
                    dst = (dst + 1) % n_hosts;
                }
                Step::Flow {
                    src,
                    dst,
                    dport: *rng.choose(&[80, 445, 22]).unwrap(),
                }
            } else if roll < 0.62 || live_inserts == 0 {
                live_inserts += 1;
                Step::Insert(rule_spec(&mut rng, n_hosts))
            } else if roll < 0.77 {
                live_inserts = live_inserts.saturating_sub(1);
                Step::Revoke {
                    k: rng.index(1 << 16),
                }
            } else if roll < 0.89 {
                Step::Move {
                    host: rng.index(n_hosts),
                }
            } else {
                Step::Toggle {
                    host: rng.index(n_hosts),
                }
            }
        })
        .collect()
}

/// Resolves a [`Pat`] against the topology and the replay's current
/// per-host IPs.
pub fn pattern(topo: &Topology, host_ip: &[Ipv4Addr], p: &Pat) -> EndpointPattern {
    match p {
        Pat::Any => EndpointPattern::any(),
        Pat::User(i) => EndpointPattern::user(&topo.hosts[*i].users[0]),
        Pat::Host(i) => EndpointPattern::host(&topo.hosts[*i].hostname),
        Pat::Ip(i) => EndpointPattern {
            ip: Wild::Is(host_ip[*i]),
            ..EndpointPattern::any()
        },
    }
}

/// Builds the rule a [`RuleSpec`] inserts.
pub fn insert_rule(topo: &Topology, host_ip: &[Ipv4Addr], spec: &RuleSpec) -> PolicyRule {
    let src = pattern(topo, host_ip, &spec.src_pat);
    let dst = pattern(topo, host_ip, &spec.dst_pat);
    if spec.allow {
        PolicyRule::allow(src, dst)
    } else {
        PolicyRule::deny(src, dst)
    }
}

/// The live policy ids a replay tracks, and the mutation lists the policy
/// steps turn into against them — shared so every system resolves the
/// trace's `k`-th-live indices identically.
#[derive(Default)]
pub struct LivePolicies {
    /// Live single inserts, in insertion order.
    pub inserted: Vec<PolicyId>,
    /// Live commit groups, in commit order.
    pub groups: Vec<Vec<PolicyId>>,
}

impl LivePolicies {
    /// The mutations of a [`Step::Commit`] or [`Step::RevokeCommit`]
    /// (none for other steps). Revoked ids leave the live lists here; the
    /// inserted ids join them through [`LivePolicies::record`].
    pub fn mutations(
        &mut self,
        topo: &Topology,
        host_ip: &[Ipv4Addr],
        step: &Step,
    ) -> Vec<PolicyMutation> {
        match step {
            Step::Commit {
                rerank,
                revoke,
                rules,
            } => {
                let mut muts = Vec::new();
                let live = self.inserted.len();
                if let Some((k, priority)) = rerank.filter(|_| live > 0) {
                    let id = self.inserted[k % live];
                    muts.push(PolicyMutation::ReRank { id, priority });
                }
                if let Some(k) = revoke.filter(|_| live > 0) {
                    let id = self.inserted.remove(k % live);
                    muts.push(PolicyMutation::Revoke(id));
                }
                muts.extend(rules.iter().map(|spec| {
                    let rule = insert_rule(topo, host_ip, spec);
                    PolicyMutation::insert(rule, spec.priority, "oracle-trace")
                }));
                muts
            }
            Step::RevokeCommit { k } => {
                let group = if self.groups.is_empty() {
                    Vec::new()
                } else {
                    self.groups.remove(k % self.groups.len())
                };
                group.into_iter().map(PolicyMutation::Revoke).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Records a commit's inserted ids as one live group.
    pub fn record(&mut self, inserted: Vec<PolicyId>) {
        if !inserted.is_empty() {
            self.groups.push(inserted);
        }
    }
}

/// The TCP SYN a [`Step::Flow`] step injects.
pub fn syn_frame(
    topo: &Topology,
    host_ip: &[Ipv4Addr],
    src: usize,
    dst: usize,
    dport: u16,
) -> Vec<u8> {
    build::tcp_syn(
        MacAddr::from_index(topo.hosts[src].mac_index),
        MacAddr::from_index(topo.hosts[dst].mac_index),
        host_ip[src],
        host_ip[dst],
        50_000,
        dport,
    )
}

/// The decision-visible state after one step, compared across systems.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StepDelta {
    pub allowed: u64,
    pub denied: u64,
    pub spoof_denied: u64,
    pub by_policy: BTreeMap<u64, u64>,
    pub deliveries: Vec<u64>,
    /// The snapshot epoch served after the step (`u64::MAX` when shards
    /// disagree) — absolute, not a delta.
    pub epoch: u64,
}

impl StepDelta {
    /// Reads the cumulative decision-visible state from a metrics snapshot
    /// plus per-host delivery counters and the served epoch(s).
    #[must_use]
    pub fn cumulative(m: &dfi_core::DfiMetrics, deliveries: Vec<u64>, epochs: &[u64]) -> StepDelta {
        StepDelta {
            allowed: m.allowed,
            denied: m.denied,
            spoof_denied: m.spoof_denied,
            by_policy: m.decisions_by_policy.clone(),
            deliveries,
            epoch: match epochs {
                [first, rest @ ..] if rest.iter().all(|e| e == first) => *first,
                _ => u64::MAX,
            },
        }
    }

    /// The delta from `last` to `now` (counters are cumulative; by-policy
    /// attribution keeps only the ids that grew).
    #[must_use]
    pub fn since(now: &StepDelta, last: &StepDelta) -> StepDelta {
        StepDelta {
            allowed: now.allowed - last.allowed,
            denied: now.denied - last.denied,
            spoof_denied: now.spoof_denied - last.spoof_denied,
            by_policy: now
                .by_policy
                .iter()
                .filter_map(|(id, n)| {
                    let before = last.by_policy.get(id).copied().unwrap_or(0);
                    (*n > before).then_some((*id, n - before))
                })
                .collect(),
            deliveries: now
                .deliveries
                .iter()
                .zip(last.deliveries.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a - b)
                .collect(),
            epoch: now.epoch,
        }
    }
}

/// The cooperative single-thread replay world (the single-shard oracle,
/// or the cooperative proxy at a given shard count).
pub struct World {
    pub sim: Sim,
    pub dfi: Dfi,
    pub switches: Vec<Switch>,
    pub tx: Vec<Tx>,
    pub rx: Vec<Rc<RefCell<u64>>>,
    /// Replay-tracked current IP per host (moves re-lease).
    pub host_ip: Vec<Ipv4Addr>,
    /// Replay-tracked session state per host (toggles alternate).
    pub logged_on: Vec<bool>,
    /// Fresh-IP counter for moves.
    pub next_fresh: u32,
    /// Live policy ids (single inserts and commit groups).
    pub live: LivePolicies,
    /// Metric readings at the last step boundary.
    pub last: StepDelta,
}

/// The boot event sequence for one host: lease + name + session, exactly
/// what the real sensors would emit.
pub fn boot_events(h: &dfi_simnet::topo::HostSpec) -> [(&'static str, DfiEvent); 3] {
    let mac = MacAddr::from_index(h.mac_index);
    [
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: h.ip,
                hostname: Some(h.hostname.clone()),
                released: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: h.ip,
                removed: false,
            },
        ),
        (
            topic::SESSIONS,
            DfiEvent::Session {
                user: h.users[0].clone(),
                host: h.hostname.clone(),
                logged_on: true,
            },
        ),
    ]
}

/// The lease + name churn a [`Step::Move`] emits: release the old IP,
/// lease the new one, retarget the hostname.
pub fn move_events(
    h: &dfi_simnet::topo::HostSpec,
    old: Ipv4Addr,
    new: Ipv4Addr,
) -> [(&'static str, DfiEvent); 4] {
    let mac = MacAddr::from_index(h.mac_index);
    [
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: old,
                hostname: Some(h.hostname.clone()),
                released: true,
            },
        ),
        (
            topic::LEASES,
            DfiEvent::Lease {
                mac,
                ip: new,
                hostname: Some(h.hostname.clone()),
                released: false,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: old,
                removed: true,
            },
        ),
        (
            topic::NAMES,
            DfiEvent::Name {
                hostname: h.hostname.clone(),
                ip: new,
                removed: false,
            },
        ),
    ]
}

/// The fresh RFC-free 11.x.y.z address the `next_fresh`-th move leases.
#[must_use]
pub fn fresh_ip(next_fresh: u32) -> Ipv4Addr {
    Ipv4Addr::new(
        11,
        (next_fresh >> 16) as u8,
        ((next_fresh >> 8) & 0xFF) as u8,
        (next_fresh & 0xFF) as u8,
    )
}

pub fn build_world(seed: u64, shards: Option<usize>) -> World {
    let topo = fabric(seed);
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let switches = net.build_topology(&topo, LAT);
    let mut tx = Vec::new();
    let mut rx: Vec<Rc<RefCell<u64>>> = Vec::new();
    for h in &topo.hosts {
        let count = Rc::new(RefCell::new(0u64));
        let c = count.clone();
        let sw = &switches[h.dpid as usize - 1];
        tx.push(net.attach_host(
            sw,
            h.port,
            LAT,
            Rc::new(move |_, _f: &[u8]| *c.borrow_mut() += 1),
        ));
        rx.push(count);
    }
    let ctrl = Controller::reactive();
    let dfi = match shards {
        None => Dfi::new(test_config()),
        Some(n) => Dfi::sharded(n, &test_config()),
    };
    for sw in &switches {
        let c = ctrl.clone();
        dfi.interpose(&mut sim, sw, move |sim, sink| c.connect(sim, sink));
    }
    // Boot: lease + name + session for every host, through the bus like
    // the real sensors.
    for h in &topo.hosts {
        for (t, ev) in boot_events(h) {
            dfi.bus().publish(&mut sim, t, ev);
        }
    }
    sim.run();
    let host_ip = topo.hosts.iter().map(|h| h.ip).collect();
    let logged_on = vec![true; topo.hosts.len()];
    World {
        sim,
        dfi,
        switches,
        tx,
        rx,
        host_ip,
        logged_on,
        next_fresh: 0,
        live: LivePolicies::default(),
        last: StepDelta::default(),
    }
}

impl World {
    /// Applies one step, runs to quiescence, returns the decision delta.
    pub fn apply(&mut self, topo: &Topology, step: &Step) -> StepDelta {
        match step {
            Step::Flow { src, dst, dport } => {
                let frame = syn_frame(topo, &self.host_ip, *src, *dst, *dport);
                self.tx[*src].send(&mut self.sim, frame);
            }
            Step::Insert(spec) => {
                let rule = insert_rule(topo, &self.host_ip, spec);
                let id = self
                    .dfi
                    .insert_policy(&mut self.sim, rule, spec.priority, "oracle-trace");
                self.live.inserted.push(id);
            }
            Step::Revoke { k } => {
                if !self.live.inserted.is_empty() {
                    let id = self.live.inserted.remove(k % self.live.inserted.len());
                    self.dfi.revoke_policy(&mut self.sim, id);
                }
            }
            Step::Commit { .. } | Step::RevokeCommit { .. } => {
                let muts = self.live.mutations(topo, &self.host_ip, step);
                let outcome = self.dfi.commit_policy(&mut self.sim, muts);
                self.live.record(outcome.inserted);
            }
            Step::Move { host } => {
                let h = &topo.hosts[*host];
                let old = self.host_ip[*host];
                let new = fresh_ip(self.next_fresh);
                self.next_fresh += 1;
                self.host_ip[*host] = new;
                for (t, ev) in move_events(h, old, new) {
                    self.dfi.bus().publish(&mut self.sim, t, ev);
                }
            }
            Step::Toggle { host } => {
                let h = &topo.hosts[*host];
                let on = !self.logged_on[*host];
                self.logged_on[*host] = on;
                self.dfi.bus().publish(
                    &mut self.sim,
                    topic::SESSIONS,
                    DfiEvent::Session {
                        user: h.users[0].clone(),
                        host: h.hostname.clone(),
                        logged_on: on,
                    },
                );
            }
        }
        self.sim.run();
        let deliveries: Vec<u64> = self.rx.iter().map(|c| *c.borrow()).collect();
        let now = StepDelta::cumulative(&self.dfi.metrics(), deliveries, &self.dfi.served_epochs());
        let delta = StepDelta::since(&now, &self.last);
        self.last = now;
        delta
    }

    /// Snapshots published so far (one per swap, in every mode).
    pub fn snapshot_swaps(&self) -> u64 {
        self.dfi.fanout_metrics().snapshot_fanouts
    }

    /// Per-dpid sorted Table-0 cookie sets.
    pub fn cookie_sets(&self) -> Vec<(u64, Vec<u64>)> {
        self.switches
            .iter()
            .map(|sw| {
                let mut c = sw.table0_cookies();
                c.sort_unstable();
                c.dedup();
                (sw.dpid(), c)
            })
            .collect()
    }
}
