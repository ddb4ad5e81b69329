//! Policy commits: one PDP event is one certify → compile → publish.
//!
//! On the paper's AT-RBAC testbed a SIEM log-on inserts one rule per role
//! peer and direction, and a log-off revokes them. Each must reach the
//! data plane as one unit: one snapshot publication, one
//! `SnapshotPublished` on the bus, the same ids the rules would get from
//! sequential inserts, and — for a log-off — none of the revoked cookies
//! left on any switch. With the certification gate wired, a commit that
//! holds one refused mutation is deferred whole: none of its mutations is
//! served until the next clean commit publishes them all. And because all
//! three proxy modes run one control front, the same refuse → recover →
//! re-rank → rollback sequence, with the analyzer's gate wired, ends in the
//! same served epoch, refusal count, rule set and Table-0 cookies whether
//! the front drives one shard, two direct shards or two worker threads.

use dfi_analyze::certify::wire_snapshot_gate;
use dfi_repro::core::erm::Binding;
use dfi_repro::core::events::{topic, DfiEvent, RepairStepData};
use dfi_repro::core::pdp::priority;
use dfi_repro::core::policy::{
    EndpointPattern, PolicyId, PolicyManager, PolicyMutation, PolicyRule,
};
use dfi_repro::core::shard::SNAPSHOT_RETENTION;
use dfi_repro::core::{
    BindingOp, DataShard, Dfi, DfiConfig, ObserveFn, Outbox, ParallelShardedDfi, WorkerWorld,
    WorldBuilder,
};
use dfi_repro::dataplane::{ByteSink, Network, Switch, SwitchConfig, Tx};
use dfi_repro::openflow::Match;
use dfi_repro::packet::headers::build;
use dfi_repro::packet::MacAddr;
use dfi_repro::simnet::topo::shard_of;
use dfi_repro::simnet::Sim;
use dfi_repro::worm::host::SMB_PORT;
use dfi_repro::worm::{Condition, Testbed, TestbedConfig};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

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

// ---------------------------------------------------------------------
// One control plane in every mode
// ---------------------------------------------------------------------

const SEED: u64 = 0x3_40DE;
const LAT: Duration = Duration::from_micros(50);
/// Every host as `(switch index, port)`: two per switch, named `h0`..`h3`.
const HOSTS: [(usize, u32); 4] = [(0, 1), (0, 2), (1, 1), (1, 2)];
/// The cookie of the rule the scenario's repair step installs.
const PINNED: u64 = 0xFEED;

fn host_name(h: usize) -> String {
    format!("h{h}")
}

fn host_ip(h: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + h as u8)
}

fn host_mac(h: usize) -> MacAddr {
    MacAddr::from_index(1 + h as u32)
}

/// Two dpids the 2-way partition puts on different shards.
fn dpids() -> [u64; 2] {
    let other = (2..64)
        .find(|&d| shard_of(d, 2) != shard_of(1, 2))
        .expect("some dpid in 2..64 lands on the other shard");
    [1, other]
}

/// The leases and names the sensors would publish for every host.
fn host_bindings() -> Vec<BindingOp> {
    (0..HOSTS.len())
        .flat_map(|h| {
            [
                BindingOp::Bind(Binding::IpMac {
                    ip: host_ip(h),
                    mac: host_mac(h),
                }),
                BindingOp::Bind(Binding::HostIp {
                    host: host_name(h),
                    ip: host_ip(h),
                }),
            ]
        })
        .collect()
}

/// Builds switch `i` of [`dpids`] with its hosts; returns their NICs in
/// host order.
fn build_switch(net: &mut Network, i: usize) -> (Switch, Vec<Tx>) {
    let sw = net.add_switch(SwitchConfig::new(dpids()[i]));
    let nics = HOSTS
        .iter()
        .filter(|(s, _)| *s == i)
        .map(|&(_, port)| net.attach_host(&sw, port, LAT, Rc::new(|_, _| {})))
        .collect();
    (sw, nics)
}

/// DFI enforces without a controller; allowed Packet-Ins go nowhere.
fn no_controller(_: &mut Sim, _: ByteSink) -> ByteSink {
    Rc::new(|_, _| {})
}

fn sorted_cookies(sw: &Switch) -> (u64, Vec<u64>) {
    let mut cookies = sw.table0_cookies();
    cookies.sort_unstable();
    cookies.dedup();
    (sw.dpid(), cookies)
}

/// What a mode ends the scenario with.
#[derive(Debug, PartialEq)]
struct End {
    epoch: u64,
    refusals: u64,
    rules: Vec<(u64, u32, PolicyRule)>,
    cookies: Vec<(u64, Vec<u64>)>,
}

fn rules_of(pm: &mut PolicyManager) -> Vec<(u64, u32, PolicyRule)> {
    pm.iter()
        .map(|p| (p.id.0, p.priority, p.rule.clone()))
        .collect()
}

/// The one epoch every shard serves.
fn agreed(epochs: &[u64]) -> u64 {
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "shards serve different epochs: {epochs:?}"
    );
    epochs[0]
}

/// The scenario's view of a proxy mode.
trait Mode {
    fn wire_gate(&mut self);
    fn commit(&mut self, mutations: Vec<PolicyMutation>) -> Vec<PolicyId>;
    fn re_rank(&mut self, id: PolicyId, priority: u32) -> bool;
    fn rollback(&mut self, epoch: u64) -> bool;
    fn repair(&mut self, steps: &[RepairStepData]);
    fn served_epoch(&mut self) -> u64;
    /// Sends one TCP SYN from host `src` to host `dst` and settles.
    fn flow(&mut self, src: usize, dst: usize, sport: u16);
    fn end(&mut self) -> End;
}

fn syn(src: usize, dst: usize, sport: u16) -> Vec<u8> {
    build::tcp_syn(
        host_mac(src),
        host_mac(dst),
        host_ip(src),
        host_ip(dst),
        sport,
        445,
    )
}

/// One front over direct shards on one simulation.
struct Direct {
    sim: Sim,
    dfi: Dfi,
    switches: Vec<Switch>,
    nics: Vec<Tx>,
}

fn direct(shards: usize) -> Direct {
    let mut sim = Sim::new(SEED);
    let dfi = if shards == 1 {
        let dfi = Dfi::new(DfiConfig::default());
        dfi.set_snapshot_retention(SNAPSHOT_RETENTION);
        dfi
    } else {
        Dfi::sharded(shards, &DfiConfig::default())
    };
    let mut net = Network::new();
    let mut switches = Vec::new();
    let mut nics = Vec::new();
    for i in 0..2 {
        let (sw, taps) = build_switch(&mut net, i);
        dfi.interpose(&mut sim, &sw, no_controller);
        switches.push(sw);
        nics.extend(taps);
    }
    let _stamp = dfi.apply_binding_ops(host_bindings());
    sim.run();
    Direct {
        sim,
        dfi,
        switches,
        nics,
    }
}

impl Mode for Direct {
    fn wire_gate(&mut self) {
        let _certifier = wire_snapshot_gate(&self.dfi, None);
    }
    fn commit(&mut self, mutations: Vec<PolicyMutation>) -> Vec<PolicyId> {
        let outcome = self.dfi.commit_policy(&mut self.sim, mutations);
        self.sim.run();
        outcome.inserted
    }
    fn re_rank(&mut self, id: PolicyId, priority: u32) -> bool {
        let done = self.dfi.re_rank_policy(&mut self.sim, id, priority);
        self.sim.run();
        done
    }
    fn rollback(&mut self, epoch: u64) -> bool {
        let done = self.dfi.rollback_snapshot(&mut self.sim, epoch);
        self.sim.run();
        done
    }
    fn repair(&mut self, steps: &[RepairStepData]) {
        self.dfi.apply_repair_steps(&mut self.sim, steps);
        self.sim.run();
    }
    fn served_epoch(&mut self) -> u64 {
        agreed(&self.dfi.served_epochs())
    }
    fn flow(&mut self, src: usize, dst: usize, sport: u16) {
        self.nics[src].send(&mut self.sim, syn(src, dst, sport));
        self.sim.run();
    }
    fn end(&mut self) -> End {
        End {
            epoch: self.served_epoch(),
            refusals: self.dfi.metrics().snapshot_refusals,
            rules: self.dfi.with_pm(rules_of),
            cookies: self.switches.iter().map(sorted_cookies).collect(),
        }
    }
}

/// One front over a worker thread per shard.
struct Threads {
    par: ParallelShardedDfi,
    /// Per host: `(worker, tap)`.
    taps: Vec<(usize, u32)>,
}

fn threads() -> Threads {
    let builders: Vec<WorldBuilder> = (0..2)
        .map(|w| {
            Box::new(move |sim: &mut Sim, shard: &DataShard, _: &Outbox| {
                let mut net = Network::new();
                let mut switches = Vec::new();
                let mut taps = Vec::new();
                for i in (0..2).filter(|&i| shard_of(dpids()[i], 2) == w) {
                    let (sw, nics) = build_switch(&mut net, i);
                    shard.interpose(sim, &sw, no_controller);
                    switches.push(sw);
                    taps.extend(nics);
                }
                let observe: ObserveFn =
                    Box::new(move |_| (Vec::new(), switches.iter().map(sorted_cookies).collect()));
                WorkerWorld {
                    taps,
                    boundaries: Vec::new(),
                    observe,
                }
            }) as WorldBuilder
        })
        .collect();
    let mut par = ParallelShardedDfi::new(&DfiConfig::default(), SEED, builders, HashMap::new());
    par.apply_binding_ops(host_bindings());
    par.drain();
    let mut next = [0u32; 2];
    let taps = HOSTS
        .iter()
        .map(|&(i, _)| {
            let w = shard_of(dpids()[i], 2);
            next[w] += 1;
            (w, next[w] - 1)
        })
        .collect();
    Threads { par, taps }
}

impl Mode for Threads {
    fn wire_gate(&mut self) {
        let _certifier = wire_snapshot_gate(&mut self.par, None);
    }
    fn commit(&mut self, mutations: Vec<PolicyMutation>) -> Vec<PolicyId> {
        let outcome = self.par.commit_policy(mutations);
        self.par.drain();
        outcome.inserted
    }
    fn re_rank(&mut self, id: PolicyId, priority: u32) -> bool {
        let done = self.par.re_rank_policy(id, priority);
        self.par.drain();
        done
    }
    fn rollback(&mut self, epoch: u64) -> bool {
        let done = self.par.rollback_snapshot(epoch);
        self.par.drain();
        done
    }
    fn repair(&mut self, steps: &[RepairStepData]) {
        self.par.apply_repair_steps(steps);
        self.par.drain();
    }
    fn served_epoch(&mut self) -> u64 {
        agreed(&self.par.drain().served_epochs)
    }
    fn flow(&mut self, src: usize, dst: usize, sport: u16) {
        let (w, tap) = self.taps[src];
        self.par.punt(w, tap, syn(src, dst, sport));
        self.par.drain();
    }
    fn end(&mut self) -> End {
        let report = self.par.drain();
        End {
            epoch: agreed(&report.served_epochs),
            refusals: report.metrics.snapshot_refusals,
            rules: self.par.with_pm(rules_of),
            cookies: report.cookies,
        }
    }
}

/// Refused conflict → clean recovery → re-rank → rollback → a repair
/// step, with traffic between the steps so every switch holds decided
/// rules.
fn scenario(mode: &mut impl Mode) -> End {
    let allow = |s: usize, d: usize| {
        PolicyRule::allow(
            EndpointPattern::host(&host_name(s)),
            EndpointPattern::host(&host_name(d)),
        )
    };
    let r1 = mode.commit(vec![PolicyMutation::insert(allow(0, 1), 10, "t")])[0];
    let r2 = mode.commit(vec![PolicyMutation::insert(allow(2, 3), 10, "t")])[0];
    mode.flow(0, 1, 40_000);
    mode.flow(2, 3, 40_001);
    let good = mode.served_epoch();
    mode.wire_gate();

    // A Deny that outranks and shadows r1: refused, nothing served.
    let deny = PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(&host_name(1)));
    mode.commit(vec![PolicyMutation::insert(deny, 20, "t")]);
    assert_eq!(mode.served_epoch(), good, "a refusal serves nothing new");
    mode.flow(0, 1, 40_002);
    // Resolving the conflict recovers: the deferred Deny is served.
    mode.commit(vec![PolicyMutation::Revoke(r1)]);
    assert!(mode.served_epoch() > good, "the clean commit recovers");
    mode.flow(0, 1, 40_003);
    assert!(mode.re_rank(r2, 30), "re-rank works in every mode");
    assert!(mode.rollback(good), "the pre-refusal epoch is on the ring");
    mode.flow(0, 1, 40_004);
    mode.flow(2, 3, 40_005);
    // A switch-targeted repair step reaches the shard owning its dpid.
    mode.repair(&[RepairStepData::InstallExact {
        dpid: dpids()[1],
        mat: Match::any(),
        priority: 1,
        cookie: PINNED,
        allow: false,
    }]);
    mode.end()
}

#[test]
fn gate_re_rank_and_rollback_agree_across_all_three_modes() {
    let single = scenario(&mut direct(1));
    assert_eq!(single.refusals, 1, "{single:?}");
    assert!(
        single
            .cookies
            .iter()
            .all(|(_, c)| c.iter().any(|&k| k != PINNED)),
        "every switch holds decided rules: {single:?}"
    );
    assert!(single.cookies[1].1.contains(&PINNED), "{single:?}");
    assert_eq!(scenario(&mut direct(2)), single, "two direct shards");
    let mut threaded = threads();
    assert_eq!(scenario(&mut threaded), single, "two worker threads");
    threaded.par.shutdown().expect("no shard worker panicked");
}
