//! Differential equivalence across a real thread boundary: the
//! thread-parallel sharded proxy against the unsharded oracle.
//!
//! The same seeded 360-step trace `sharded_oracle.rs` replays through the
//! cooperative shards replays here through [`ParallelShardedDfi`] at 1, 2,
//! 4 and 8 **worker threads**, each owning a `DataShard` plus its slice
//! of the leaf-spine fabric and its own controller replica on its own OS
//! thread with its own deterministic clock. Fabric links whose two ends
//! land on different shards are cut at the boundary and carried as relay
//! frames through the front-end's drain fixpoint.
//!
//! After every step the decision delta must be byte-identical to the
//! oracle's: allowed/denied/spoof counts, per-policy attribution,
//! per-host deliveries, and the served snapshot epoch — on the plain
//! trace and on the one with policy commits mixed in. At the end, every
//! switch's Table-0 cookie set must match, all workers must serve the
//! same snapshot epoch, and the snapshot-swap count must equal the
//! oracle's publication count. That is
//! the concurrency proof obligation of the threading refactor: channel
//! nondeterminism and worker-clock drift are confined to intra-epoch
//! ordering, which this trace proves decision-irrelevant.
//!
//! Every assertion carries a one-line `(seed, spec)` repro.

mod common;

use common::{
    boot_events, build_world, commit_trace, env_u64, fabric, fresh_ip, insert_rule, move_events,
    syn_frame, test_config, trace, LivePolicies, Step, StepDelta, LAT,
};
use dfi_controller::Controller;
use dfi_core::events::DfiEvent;
use dfi_core::{
    binding_op_of_event, CookieSets, FleetReport, ObserveFn, ParallelShardedDfi, WorkerWorld,
    WorldBuilder,
};
use dfi_dataplane::{Network, Switch, SwitchConfig};
use dfi_simnet::topo::{shard_of, Topology};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Global boundary id for cut link `li`: side 0 is ingress into the
/// `a`-side switch, side 1 ingress into the `b`-side switch.
fn boundary_id(li: usize, side: u64) -> u64 {
    (li as u64) * 2 + side
}

/// Builds worker `w`'s thread-local world: its shard's switches, the local
/// halves of cut fabric links wired to the outbox, its hosts' NICs, and a
/// reactive controller replica behind the worker's `DataShard`.
fn builder_for(topo: Arc<Topology>, w: usize, n: usize) -> WorldBuilder {
    Box::new(move |sim, dfi, outbox| {
        let mut net = Network::new();
        let mut local: HashMap<u64, Switch> = HashMap::new();
        for spec in &topo.switches {
            if shard_of(spec.dpid, n) == w {
                local.insert(spec.dpid, net.add_switch(SwitchConfig::new(spec.dpid)));
            }
        }
        let mut boundaries = Vec::new();
        for (li, l) in topo.links.iter().enumerate() {
            match (local.get(&l.a_dpid), local.get(&l.b_dpid)) {
                (Some(a), Some(b)) => {
                    let (a, b) = (a.clone(), b.clone());
                    net.link(&a, l.a_port, &b, l.b_port, LAT);
                }
                (Some(a), None) => {
                    a.attach_port(l.a_port, LAT, outbox.sink(boundary_id(li, 1)));
                    boundaries.push((boundary_id(li, 0), a.ingress(l.a_port)));
                }
                (None, Some(b)) => {
                    b.attach_port(l.b_port, LAT, outbox.sink(boundary_id(li, 0)));
                    boundaries.push((boundary_id(li, 1), b.ingress(l.b_port)));
                }
                (None, None) => {}
            }
        }
        let mut taps = Vec::new();
        let mut counters: Vec<(u32, Rc<RefCell<u64>>)> = Vec::new();
        for h in &topo.hosts {
            if let Some(sw) = local.get(&h.dpid) {
                let count = Rc::new(RefCell::new(0u64));
                let c = count.clone();
                taps.push(net.attach_host(
                    sw,
                    h.port,
                    LAT,
                    Rc::new(move |_, _f: &[u8]| *c.borrow_mut() += 1),
                ));
                counters.push((h.index, count));
            }
        }
        let ctrl = Controller::reactive();
        let switches: Vec<Switch> = topo
            .switches
            .iter()
            .filter_map(|s| local.get(&s.dpid).cloned())
            .collect();
        for sw in &switches {
            let c = ctrl.clone();
            dfi.interpose(sim, sw, move |sim, sink| c.connect(sim, sink));
        }
        let observe: ObserveFn = Box::new(move |_sim| {
            let deliveries = counters.iter().map(|(i, c)| (*i, *c.borrow())).collect();
            let cookies = switches
                .iter()
                .map(|sw| {
                    let mut c = sw.table0_cookies();
                    c.sort_unstable();
                    c.dedup();
                    (sw.dpid(), c)
                })
                .collect();
            (deliveries, cookies)
        });
        WorkerWorld {
            taps,
            boundaries,
            observe,
        }
    })
}

/// The threaded replay world: the fleet plus the same replay-tracked state
/// the cooperative `World` carries.
struct ThreadedWorld {
    fleet: ParallelShardedDfi,
    /// Per global host index: `(worker, tap index inside that worker)`.
    tap_of: Vec<(usize, u32)>,
    n_hosts: usize,
    host_ip: Vec<Ipv4Addr>,
    logged_on: Vec<bool>,
    next_fresh: u32,
    live: LivePolicies,
    last: StepDelta,
    cookies: CookieSets,
}

fn build_threaded(seed: u64, threads: usize) -> ThreadedWorld {
    let topo = Arc::new(fabric(seed));
    let builders: Vec<WorldBuilder> = (0..threads)
        .map(|w| builder_for(Arc::clone(&topo), w, threads))
        .collect();
    let mut routes = HashMap::new();
    for (li, l) in topo.links.iter().enumerate() {
        if shard_of(l.a_dpid, threads) != shard_of(l.b_dpid, threads) {
            routes.insert(boundary_id(li, 0), shard_of(l.a_dpid, threads));
            routes.insert(boundary_id(li, 1), shard_of(l.b_dpid, threads));
        }
    }
    let mut fleet = ParallelShardedDfi::new(&test_config(), seed, builders, routes);
    let mut next_tap = vec![0u32; threads];
    let tap_of: Vec<(usize, u32)> = topo
        .hosts
        .iter()
        .map(|h| {
            let w = shard_of(h.dpid, threads);
            let t = next_tap[w];
            next_tap[w] += 1;
            (w, t)
        })
        .collect();
    // Boot: the same lease + name + session sequence the cooperative
    // worlds publish over the bus, fanned out as binding batches.
    for h in &topo.hosts {
        for (_, ev) in boot_events(h) {
            apply_event(&mut fleet, &ev);
        }
    }
    fleet.drain();
    let host_ip = topo.hosts.iter().map(|h| h.ip).collect();
    let n_hosts = topo.hosts.len();
    ThreadedWorld {
        fleet,
        tap_of,
        n_hosts,
        host_ip,
        logged_on: vec![true; n_hosts],
        next_fresh: 0,
        live: LivePolicies::default(),
        last: StepDelta::default(),
        cookies: CookieSets::default(),
    }
}

/// One sensor event, routed exactly like the cooperative front-end's bus
/// subscription: one epoch-stamped batch per event.
fn apply_event(fleet: &mut ParallelShardedDfi, ev: &DfiEvent) {
    if let Some(op) = binding_op_of_event(ev) {
        fleet.apply_binding_ops(vec![op]);
    }
}

impl ThreadedWorld {
    /// Applies one step, drains the fleet to its cross-shard fixpoint, and
    /// returns the decision delta.
    fn apply(&mut self, topo: &Topology, step: &Step) -> StepDelta {
        match step {
            Step::Flow { src, dst, dport } => {
                let frame = syn_frame(topo, &self.host_ip, *src, *dst, *dport);
                let (w, tap) = self.tap_of[*src];
                self.fleet.punt(w, tap, frame);
            }
            Step::Insert(spec) => {
                let rule = insert_rule(topo, &self.host_ip, spec);
                let id = self
                    .fleet
                    .insert_policy(rule, spec.priority, "oracle-trace");
                self.live.inserted.push(id);
            }
            Step::Revoke { k } => {
                if !self.live.inserted.is_empty() {
                    let id = self.live.inserted.remove(k % self.live.inserted.len());
                    self.fleet.revoke_policy(id);
                }
            }
            Step::Commit { .. } | Step::RevokeCommit { .. } => {
                let muts = self.live.mutations(topo, &self.host_ip, step);
                let outcome = self.fleet.commit_policy(muts);
                self.live.record(outcome.inserted);
            }
            Step::Move { host } => {
                let h = &topo.hosts[*host];
                let old = self.host_ip[*host];
                let new = fresh_ip(self.next_fresh);
                self.next_fresh += 1;
                self.host_ip[*host] = new;
                for (_, ev) in move_events(h, old, new) {
                    apply_event(&mut self.fleet, &ev);
                }
            }
            Step::Toggle { host } => {
                let h = &topo.hosts[*host];
                let on = !self.logged_on[*host];
                self.logged_on[*host] = on;
                apply_event(
                    &mut self.fleet,
                    &DfiEvent::Session {
                        user: h.users[0].clone(),
                        host: h.hostname.clone(),
                        logged_on: on,
                    },
                );
            }
        }
        let report = self.fleet.drain();
        self.delta(&report)
    }

    fn delta(&mut self, report: &FleetReport) -> StepDelta {
        let deliveries = (0..self.n_hosts)
            .map(|i| report.deliveries.get(&(i as u32)).copied().unwrap_or(0))
            .collect();
        let now = StepDelta::cumulative(&report.metrics, deliveries, &report.served_epochs);
        let delta = StepDelta::since(&now, &self.last);
        self.last = now;
        self.cookies.clone_from(&report.cookies);
        delta
    }
}

#[test]
fn worker_threads_match_unsharded_oracle_across_swaps_and_moves() {
    let seed = env_u64("SHARDED_ORACLE_SEED", 0xD51_2019);
    let steps = env_u64("SHARDED_ORACLE_STEPS", 360) as usize;
    let topo = fabric(seed);
    replay_against_oracle(seed, steps, &trace(seed, steps, topo.hosts.len()));
}

/// The trace with policy commits mixed in (`sharded_oracle.rs` replays the
/// same one): each commit is one flush fan-out and one epoch barrier, and
/// every worker serves the oracle's epoch after it.
#[test]
fn worker_threads_match_unsharded_oracle_on_policy_commits() {
    let seed = env_u64("SHARDED_ORACLE_SEED", 0xD51_2019);
    let steps = env_u64("SHARDED_ORACLE_STEPS", 360) as usize;
    let topo = fabric(seed);
    replay_against_oracle(seed, steps, &commit_trace(seed, steps, topo.hosts.len()));
}

/// Replays `script` through the oracle and through 1/2/4/8 worker threads
/// and asserts the per-step deltas (epochs included), the final cookie
/// sets, epoch agreement and the swap counts agree.
fn replay_against_oracle(seed: u64, steps: usize, script: &[Step]) {
    let topo = fabric(seed);
    let repro = |threads: usize, i: usize, step: &Step| {
        format!(
            "repro: SHARDED_ORACLE_SEED={seed} SHARDED_ORACLE_STEPS={steps} \
             threads={threads} step={i} spec={step:?}"
        )
    };

    // Oracle run, once, on this thread — the identical world
    // `sharded_oracle.rs` replays.
    let mut oracle = build_world(seed, None);
    let expected: Vec<StepDelta> = script.iter().map(|s| oracle.apply(&topo, s)).collect();
    let oracle_cookies = oracle.cookie_sets();
    let swaps = oracle.snapshot_swaps();
    assert!(
        swaps >= 100,
        "trace must cross at least 100 live snapshot swaps, got {swaps}; \
         repro: SHARDED_ORACLE_SEED={seed} SHARDED_ORACLE_STEPS={steps}"
    );

    for threads in [1usize, 2, 4, 8] {
        let mut world = build_threaded(seed, threads);
        for (i, step) in script.iter().enumerate() {
            let got = world.apply(&topo, step);
            assert_eq!(
                got,
                expected[i],
                "threaded({threads}) diverged from oracle; {}",
                repro(threads, i, step)
            );
        }
        assert_eq!(
            world.cookies, oracle_cookies,
            "Table-0 cookie sets diverged; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} threads={threads}"
        );
        assert!(
            world.fleet.epochs_agree(),
            "workers serve different epochs {:?}; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} threads={threads}",
            world.fleet.served_epochs()
        );
        assert_eq!(
            world.fleet.fanout_metrics().snapshot_fanouts,
            swaps,
            "swap count diverged; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} threads={threads}"
        );
        world.fleet.shutdown().expect("no shard worker panicked");
    }
}
