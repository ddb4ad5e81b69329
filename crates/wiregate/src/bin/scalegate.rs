//! Fleet-scale gate: the sharded proxy against the unsharded oracle on a
//! generated 1000-switch leaf-spine fabric carrying ~1M ERM bindings.
//!
//! Phases, in order:
//!
//! 1. **Build** — `dfi_simnet::topo` generates the fabric (40 spines ×
//!    960 leaves, 250 000 hosts × 2 users ⇒ exactly 1 000 000 topology
//!    bindings, plus one MAC-location binding per attached host);
//!    `Network::build_topology` materializes real switches; every switch
//!    is interposed (no controller — a null upstream sink; the DFI's
//!    Table-0 pipeline runs regardless). Bindings load through the
//!    epoch-stamped batch path (`apply_binding_ops` /
//!    `apply_binding_batch`), and a ~512-rule hostname ACL is inserted
//!    through the front-end.
//! 2. **Equivalence (before any timing)** — the same seeded probe flows
//!    are replayed one-at-a-time through the unsharded oracle and through
//!    every sharded configuration; the per-probe
//!    (allowed, denied, spoof-denied) deltas and the end-of-phase
//!    per-policy attribution must match exactly. A mismatch hard-fails
//!    the gate: it can never certify a wrong-answer speedup.
//! 3. **Timing** — per shard count {1, 2, 4, 8}: a diurnally modulated
//!    open-loop flow offer (thinned exponential arrivals at
//!    `SCALE_RATE` f/s peak) races a compressed-day churn schedule
//!    (`dfi_simnet::churn`: DHCP re-leases + session toggles, applied as
//!    epoch-stamped binding batches mid-run). Reports accepted flows/sec
//!    (sim time), wall-clock flows/sec, and TTFB p50/p99 from the
//!    decision-latency samples of the timed window only.
//!
//! Two opt-in phases extend the report:
//!
//! 4. **`--wall`** — per thread count {1, 2, 4, 8}: the same 512-probe
//!    equivalence trace and then the same offered-rate workload replayed
//!    through [`ParallelShardedDfi`] — real OS worker threads, each owning
//!    its shard's slice of the fabric — measuring **wall-clock** flows/sec
//!    per mode (the cooperative shards' wall number is bookkeeping
//!    overhead, the parallel one is the point). Gates that parallel wall
//!    scaling is monotone in thread count (strictly, step over step, while
//!    threads fit on physical cores; oversubscribed points only have to
//!    hold the no-collapse floor against the 1-thread run) and that the
//!    8-thread/1-thread ratio clears a hardware-aware threshold: 3× where
//!    ≥ 8 cores are available, `min(3, 0.6·cores)` on smaller hosts, and a
//!    no-collapse floor on a single core (where a literal 3× is
//!    physically impossible; the measured core count and applied
//!    threshold are recorded in the report).
//! 5. **`--sweep`** — the Fig-4 saturation sweep: constant offered rates
//!    1k→16k f/s per shard count, reporting accepted rate and TTFB
//!    p50/p99 per point (the paper's Fig. 4 axes).
//!
//! Prints a JSON report to stdout (captured into `BENCH_scale.json` by
//! `scripts/check.sh --scale` / `--par`). With `--gate N` it exits
//! non-zero unless equivalence held and the 8-shard configuration accepts
//! at least `N`× the 1-shard configuration's flows (sim time), plus the
//! wall gates above when `--wall` is given.
//!
//! Knobs: `SCALE_ITERS` (offered flows per timed config, default 12 000),
//! `SCALE_HOSTS`, `SCALE_LEAVES`, `SCALE_SPINES`, `SCALE_PROBES`,
//! `SCALE_RATE`, `SCALE_POOL`, `SCALE_SEED`, `SCALE_SWEEP_ITERS`,
//! `SCALE_WALL_GATE`, `SCALE_WALL_TOL`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfi_core::erm::Binding;
use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::{
    BindingOp, Dfi, DfiConfig, DfiMetrics, ObserveFn, ParallelShardedDfi, WorkerWorld, WorldBuilder,
};
use dfi_dataplane::{ByteSink, Network, Switch, SwitchConfig, Tx};
use dfi_packet::headers::build;
use dfi_packet::MacAddr;
use dfi_simnet::churn::{diurnal_intensity, generate_churn, ChurnOp, ChurnParams};
use dfi_simnet::topo::{shard_of, TopoKind, TopoParams, Topology};
use dfi_simnet::{Sim, SimRng, SimTime, Summary};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Every topology binding plus one MAC-location per host, as one batch of
/// idempotent ops (epoch-stamped by the caller).
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

/// The ~512-rule hostname ACL: destination-keyed allows over the probe
/// pool's hosts, a deny in every 7th slot, four priority bands.
fn acl_rules(topo: &Topology, pool: &[usize], n_rules: usize) -> Vec<(PolicyRule, u32)> {
    (0..n_rules)
        .map(|k| {
            let dst = &topo.hosts[pool[k % pool.len()]].hostname;
            let rule = if k % 7 == 3 {
                PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(dst))
            } else {
                PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host(dst))
            };
            (
                rule,
                10 * (1 + (k.wrapping_mul(2_654_435_761) >> 16) as u32 % 4),
            )
        })
        .collect()
}

struct Config {
    sim: Sim,
    /// The single-shard oracle or a sharded configuration.
    dfi: Dfi,
    /// Keeps the switch fabric alive.
    _net: Network,
    /// Injection handles for the probe/offer pool, pool order.
    tx: Vec<Tx>,
}

impl Config {
    fn decided(&self) -> (u64, u64, u64) {
        let m = self.dfi.metrics();
        (m.allowed, m.denied, m.spoof_denied)
    }
}

fn build(topo: &Topology, pool: &[usize], seed: u64, shards: Option<usize>) -> Config {
    let mut sim = Sim::new(seed);
    let mut net = Network::new();
    let switches = net.build_topology(topo, Duration::from_micros(50));
    let null: ByteSink = Rc::new(|_, _| {});
    let dfi = match shards {
        None => Dfi::new(DfiConfig::default()),
        Some(n_shards) => Dfi::sharded(n_shards, &DfiConfig::default()),
    };
    for sw in &switches {
        let n = null.clone();
        dfi.interpose(&mut sim, sw, move |_, _| n);
    }
    let tx = pool
        .iter()
        .map(|&i| {
            let h = &topo.hosts[i];
            net.attach_silent_host(
                &switches[h.dpid as usize - 1],
                h.port,
                Duration::from_micros(50),
            )
        })
        .collect();
    // Bindings through the batch path, policy through the front-end.
    let _epoch = dfi.apply_binding_ops(binding_ops(topo));
    for (rule, priority) in acl_rules(topo, pool, 512) {
        dfi.insert_policy(&mut sim, rule, priority, "scalegate");
    }
    sim.run();
    Config {
        sim,
        dfi,
        _net: net,
        tx,
    }
}

/// One probe flow: pool[src] → pool[dst], unique source port.
fn probe_frame(topo: &Topology, pool: &[usize], i: usize) -> (usize, Vec<u8>) {
    let p = pool.len();
    let src = i % p;
    let mut dst = (i * 7 + 3) % p;
    if dst == src {
        dst = (dst + 1) % p;
    }
    let s = &topo.hosts[pool[src]];
    let d = &topo.hosts[pool[dst]];
    let frame = build::tcp_syn(
        MacAddr::from_index(s.mac_index),
        MacAddr::from_index(d.mac_index),
        s.ip,
        d.ip,
        40_000_u16.wrapping_add(i as u16),
        if i.is_multiple_of(2) { 445 } else { 80 },
    );
    (src, frame)
}

/// Replays the probes one at a time, returning the per-probe decision
/// deltas. This is the equivalence trace compared across configurations.
fn probe_trace(
    cfg: &mut Config,
    topo: &Topology,
    pool: &[usize],
    probes: usize,
) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::with_capacity(probes);
    let mut last = cfg.decided();
    for i in 0..probes {
        let (src, frame) = probe_frame(topo, pool, i);
        cfg.tx[src].send(&mut cfg.sim, frame);
        cfg.sim.run();
        let now = cfg.decided();
        out.push((now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
    }
    out
}

/// The binding-batch ops one churn event expands to.
fn churn_binding_ops(topo: &Topology, op: ChurnOp) -> Vec<BindingOp> {
    match op {
        ChurnOp::LeaseMove {
            host,
            mac_index,
            old_ip,
            new_ip,
        } => {
            let hostname = topo.hosts[host as usize].hostname.clone();
            vec![
                BindingOp::Unbind(Binding::IpMac {
                    ip: old_ip,
                    mac: MacAddr::from_index(mac_index),
                }),
                BindingOp::Bind(Binding::IpMac {
                    ip: new_ip,
                    mac: MacAddr::from_index(mac_index),
                }),
                BindingOp::Unbind(Binding::HostIp {
                    host: hostname.clone(),
                    ip: old_ip,
                }),
                BindingOp::Bind(Binding::HostIp {
                    host: hostname,
                    ip: new_ip,
                }),
            ]
        }
        ChurnOp::LogOn { user, host } => vec![BindingOp::Bind(Binding::UserHost {
            user,
            host: topo.hosts[host as usize].hostname.clone(),
        })],
        ChurnOp::LogOff { user, host } => vec![BindingOp::Unbind(Binding::UserHost {
            user,
            host: topo.hosts[host as usize].hostname.clone(),
        })],
    }
}

/// The diurnally thinned open-loop flow offer as `(t_secs, pool src index,
/// frame)` per flow, plus the horizon. One seed produces one schedule, so
/// the cooperative and thread-parallel modes replay the identical offer.
fn offer_schedule(
    topo: &Topology,
    pool: &[usize],
    offered: usize,
    peak_rate: f64,
    seed: u64,
) -> (Vec<(f64, usize, Vec<u8>)>, Duration) {
    let mut rng = SimRng::new(seed ^ 0x5CA1E);
    let day = Duration::from_secs_f64(offered as f64 / peak_rate);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(offered);
    while out.len() < offered {
        t += rng.exponential(1.0 / (peak_rate * 1.8));
        let at = SimTime::from_nanos((t * 1e9) as u64);
        if !rng.chance(diurnal_intensity(at, day) / 1.8) {
            continue;
        }
        let i = out.len();
        let p = pool.len();
        let src = rng.index(p);
        let mut dst = rng.index(p);
        if dst == src {
            dst = (dst + 1) % p;
        }
        let s = &topo.hosts[pool[src]];
        let d = &topo.hosts[pool[dst]];
        let frame = build::tcp_syn(
            MacAddr::from_index(s.mac_index),
            MacAddr::from_index(d.mac_index),
            s.ip,
            d.ip,
            1024_u16.wrapping_add(i as u16),
            if i.is_multiple_of(2) { 445 } else { 80 },
        );
        out.push((t, src, frame));
    }
    (out, Duration::from_secs_f64(t))
}

struct Timing {
    offered: usize,
    accepted: u64,
    dropped: u64,
    sim_secs: f64,
    wall_secs: f64,
    ttfb_p50_ms: f64,
    ttfb_p99_ms: f64,
    binding_batches: u64,
}

/// The timed window: diurnal flow offer + churn batches, measuring only
/// samples recorded after this point.
fn run_timed(
    cfg: &mut Config,
    topo: &Topology,
    pool: &[usize],
    offered: usize,
    peak_rate: f64,
    seed: u64,
) -> Timing {
    let sharded = cfg.dfi.clone();
    let base: Vec<usize> = sharded
        .shards()
        .iter()
        .map(|s| s.metrics().overall.count())
        .collect();
    let (accept0, deny0, spoof0) = cfg.decided();
    let dropped0 = sharded.metrics().dropped;

    // Thinned exponential arrivals against the diurnal profile; the day is
    // compressed so the offer sweeps trough→peak→trough inside the run.
    let (offer, horizon) = offer_schedule(topo, pool, offered, peak_rate, seed);
    let day = Duration::from_secs_f64(offered as f64 / peak_rate);
    let scheduled = offer.len();
    for (t, src, frame) in offer {
        let tx = cfg.tx[src].clone();
        cfg.sim.schedule_in(Duration::from_secs_f64(t), move |sim| {
            tx.send(sim, frame);
        });
    }

    // The churn schedule, applied as epoch-stamped batches mid-run.
    let churn = generate_churn(
        topo,
        &ChurnParams {
            day,
            horizon,
            lease_moves_per_host_day: 0.02,
            session_toggles_per_user_day: 0.01,
        },
        seed,
    );
    let n_churn = churn.len();
    for ev in churn {
        let ops = churn_binding_ops(topo, ev.op);
        let s = sharded.clone();
        let delay = Duration::from_nanos(ev.at.as_nanos());
        cfg.sim.schedule_in(delay, move |_| {
            let _epoch = s.apply_binding_ops(ops);
        });
    }
    eprintln!(
        "  timed window: {offered} flows over {:.2} sim-s, {n_churn} churn events",
        horizon.as_secs_f64()
    );

    let t0 = cfg.sim.now();
    let wall = Instant::now();
    cfg.sim.run();
    let wall_secs = wall.elapsed().as_secs_f64();
    let sim_secs = cfg.sim.now().saturating_duration_since(t0).as_secs_f64();

    let (a, d, sp) = cfg.decided();
    let accepted = (a - accept0) + (d - deny0) + (sp - spoof0);
    let mut ttfb = Summary::new();
    for (shard, skip) in sharded.shards().iter().zip(&base) {
        for s in &shard.metrics().overall.samples()[*skip..] {
            ttfb.push(*s);
        }
    }
    Timing {
        offered: scheduled,
        accepted,
        dropped: sharded.metrics().dropped - dropped0,
        sim_secs,
        wall_secs,
        ttfb_p50_ms: ttfb.percentile(0.50) * 1e3,
        ttfb_p99_ms: ttfb.percentile(0.99) * 1e3,
        binding_batches: sharded.fanout_metrics().binding_batches,
    }
}

/// The thread-parallel fleet plus its pool-order injection map.
struct ParFleet {
    fleet: ParallelShardedDfi,
    /// Per pool index: `(worker, tap index inside that worker)`.
    tap_of: Vec<(usize, u32)>,
}

/// Worker `w`'s world for the wall phase: its shard's switches behind a
/// null upstream sink (same no-controller build as the cooperative
/// configurations) and the pool hosts homed on them. No inter-switch
/// links are wired — with a null controller nothing forwards, so no
/// boundary relays exist and the workers share nothing but snapshots and
/// binding batches.
fn wall_builder(topo: Arc<Topology>, pool: Arc<Vec<usize>>, w: usize, n: usize) -> WorldBuilder {
    Box::new(move |sim, dfi, _outbox| {
        let mut net = Network::new();
        let null: ByteSink = Rc::new(|_, _| {});
        let mut local: HashMap<u64, Switch> = HashMap::new();
        for spec in &topo.switches {
            if shard_of(spec.dpid, n) == w {
                let sw = net.add_switch(SwitchConfig::new(spec.dpid));
                let sink = null.clone();
                dfi.interpose(sim, &sw, move |_, _| sink);
                local.insert(spec.dpid, sw);
            }
        }
        let mut taps = Vec::new();
        for &i in pool.iter() {
            let h = &topo.hosts[i];
            if let Some(sw) = local.get(&h.dpid) {
                taps.push(net.attach_silent_host(sw, h.port, Duration::from_micros(50)));
            }
        }
        let observe: ObserveFn = Box::new(|_sim| (Vec::new(), Vec::new()));
        WorkerWorld {
            taps,
            boundaries: Vec::new(),
            observe,
        }
    })
}

/// Builds and loads a [`ParallelShardedDfi`] over `threads` worker
/// threads: same bindings (chunked so no command channel balloons) and the
/// same ACL as every cooperative configuration.
fn build_parallel(
    topo: &Arc<Topology>,
    pool: &Arc<Vec<usize>>,
    seed: u64,
    threads: usize,
) -> ParFleet {
    let builders: Vec<WorldBuilder> = (0..threads)
        .map(|w| wall_builder(Arc::clone(topo), Arc::clone(pool), w, threads))
        .collect();
    let mut fleet = ParallelShardedDfi::new(&DfiConfig::default(), seed, builders, HashMap::new());
    let mut next_tap = vec![0u32; threads];
    let tap_of: Vec<(usize, u32)> = pool
        .iter()
        .map(|&i| {
            let w = shard_of(topo.hosts[i].dpid, threads);
            let t = next_tap[w];
            next_tap[w] += 1;
            (w, t)
        })
        .collect();
    let mut ops = binding_ops(topo);
    while !ops.is_empty() {
        let rest = ops.split_off(ops.len().min(65_536));
        fleet.apply_binding_ops(ops);
        ops = rest;
    }
    for (rule, priority) in acl_rules(topo, pool, 512) {
        fleet.insert_policy(rule, priority, "scalegate");
    }
    fleet.drain();
    ParFleet { fleet, tap_of }
}

/// The equivalence trace against a thread-parallel fleet: one probe at a
/// time through the owning worker, per-probe decision deltas plus the
/// final merged metrics (for attribution comparison).
fn probe_trace_parallel(
    pf: &mut ParFleet,
    topo: &Topology,
    pool: &[usize],
    probes: usize,
) -> (Vec<(u64, u64, u64)>, DfiMetrics) {
    let mut out = Vec::with_capacity(probes);
    let r = pf.fleet.drain();
    let mut last = (r.metrics.allowed, r.metrics.denied, r.metrics.spoof_denied);
    let mut metrics = r.metrics;
    for i in 0..probes {
        let (src, frame) = probe_frame(topo, pool, i);
        let (w, tap) = pf.tap_of[src];
        pf.fleet.punt(w, tap, frame);
        let r = pf.fleet.drain();
        let now = (r.metrics.allowed, r.metrics.denied, r.metrics.spoof_denied);
        out.push((now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
        metrics = r.metrics;
    }
    (out, metrics)
}

struct WallTiming {
    offered: usize,
    accepted: u64,
    dropped: u64,
    sim_secs: f64,
    wall_secs: f64,
    ttfb_p50_ms: f64,
    ttfb_p99_ms: f64,
}

/// The wall-clock window: the identical offer `run_timed` replays, punted
/// as absolute-time injections across the worker threads, racing the same
/// churn schedule applied as fleet-wide binding batches. The wall timer
/// spans first enqueue through the final drain fixpoint.
fn run_wall(
    pf: &mut ParFleet,
    topo: &Topology,
    pool: &[usize],
    offered: usize,
    peak_rate: f64,
    seed: u64,
) -> WallTiming {
    let before = pf.fleet.drain();
    let base: Vec<usize> = before.per_shard.iter().map(|m| m.overall.count()).collect();
    let (accept0, deny0, spoof0) = (
        before.metrics.allowed,
        before.metrics.denied,
        before.metrics.spoof_denied,
    );
    let dropped0 = before.metrics.dropped;
    // Worker clocks drift (only workers with events advance); anchor the
    // window past every clock so absolute injection times are in every
    // worker's future.
    let t0 = before.clocks.iter().copied().max().unwrap_or_default() + Duration::from_millis(1);

    let (offer, horizon) = offer_schedule(topo, pool, offered, peak_rate, seed);
    let day = Duration::from_secs_f64(offered as f64 / peak_rate);
    let scheduled = offer.len();
    let churn = generate_churn(
        topo,
        &ChurnParams {
            day,
            horizon,
            lease_moves_per_host_day: 0.02,
            session_toggles_per_user_day: 0.01,
        },
        seed,
    );
    eprintln!(
        "  wall window: {scheduled} flows over {:.2} sim-s, {} churn events",
        horizon.as_secs_f64(),
        churn.len()
    );

    let wall = Instant::now();
    for (t, src, frame) in offer {
        let (w, tap) = pf.tap_of[src];
        pf.fleet
            .punt_at(w, tap, frame, t0 + Duration::from_secs_f64(t));
    }
    for ev in churn {
        pf.fleet
            .advance_all(t0 + Duration::from_nanos(ev.at.as_nanos()));
        pf.fleet.apply_binding_ops(churn_binding_ops(topo, ev.op));
    }
    let after = pf.fleet.drain();
    let wall_secs = wall.elapsed().as_secs_f64();

    let end = after.clocks.iter().copied().max().unwrap_or(t0);
    let accepted = (after.metrics.allowed - accept0)
        + (after.metrics.denied - deny0)
        + (after.metrics.spoof_denied - spoof0);
    let mut ttfb = Summary::new();
    for (m, skip) in after.per_shard.iter().zip(&base) {
        for s in &m.overall.samples()[*skip..] {
            ttfb.push(*s);
        }
    }
    WallTiming {
        offered: scheduled,
        accepted,
        dropped: after.metrics.dropped - dropped0,
        sim_secs: end.saturating_duration_since(t0).as_secs_f64(),
        wall_secs,
        ttfb_p50_ms: ttfb.percentile(0.50) * 1e3,
        ttfb_p99_ms: ttfb.percentile(0.99) * 1e3,
    }
}

struct SweepPoint {
    rate: f64,
    offered: usize,
    accepted: u64,
    dropped: u64,
    sim_secs: f64,
    ttfb_p50_ms: f64,
    ttfb_p99_ms: f64,
}

/// The Fig-4 saturation sweep: constant-rate exponential arrivals at each
/// offered rate, run to quiescence, reporting the accepted rate and the
/// TTFB tail per point. Saturation shows up as `dropped` climbing and the
/// accepted rate flattening below the offer.
fn run_sweep(
    cfg: &mut Config,
    topo: &Topology,
    pool: &[usize],
    rates: &[f64],
    flows: usize,
    seed: u64,
) -> Vec<SweepPoint> {
    let sharded = cfg.dfi.clone();
    let mut sport = 20_000u16;
    let mut out = Vec::with_capacity(rates.len());
    for (ri, &rate) in rates.iter().enumerate() {
        let base: Vec<usize> = sharded
            .shards()
            .iter()
            .map(|s| s.metrics().overall.count())
            .collect();
        let (accept0, deny0, spoof0) = cfg.decided();
        let dropped0 = sharded.metrics().dropped;
        let mut rng = SimRng::new(seed ^ 0xF164 ^ ((ri as u64) << 32));
        let t_start = cfg.sim.now();
        let mut t = 0.0f64;
        for i in 0..flows {
            t += rng.exponential(1.0 / rate);
            let p = pool.len();
            let src = rng.index(p);
            let mut dst = rng.index(p);
            if dst == src {
                dst = (dst + 1) % p;
            }
            let s = &topo.hosts[pool[src]];
            let d = &topo.hosts[pool[dst]];
            let frame = build::tcp_syn(
                MacAddr::from_index(s.mac_index),
                MacAddr::from_index(d.mac_index),
                s.ip,
                d.ip,
                sport,
                if i.is_multiple_of(2) { 445 } else { 80 },
            );
            sport = sport.wrapping_add(1);
            let tx = cfg.tx[src].clone();
            cfg.sim.schedule_in(Duration::from_secs_f64(t), move |sim| {
                tx.send(sim, frame);
            });
        }
        cfg.sim.run();
        let sim_secs = cfg
            .sim
            .now()
            .saturating_duration_since(t_start)
            .as_secs_f64();
        let (a, d, sp) = cfg.decided();
        let accepted = (a - accept0) + (d - deny0) + (sp - spoof0);
        let mut ttfb = Summary::new();
        for (shard, skip) in sharded.shards().iter().zip(&base) {
            for v in &shard.metrics().overall.samples()[*skip..] {
                ttfb.push(*v);
            }
        }
        out.push(SweepPoint {
            rate,
            offered: flows,
            accepted,
            dropped: sharded.metrics().dropped - dropped0,
            sim_secs,
            ttfb_p50_ms: ttfb.percentile(0.50) * 1e3,
            ttfb_p99_ms: ttfb.percentile(0.99) * 1e3,
        });
    }
    out
}

fn main() -> ExitCode {
    let mut gate: Option<f64> = None;
    let mut do_sweep = false;
    let mut do_wall = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                let v = args.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--gate requires a numeric throughput-scaling factor");
                    return ExitCode::FAILURE;
                };
                gate = Some(v);
            }
            "--sweep" => do_sweep = true,
            "--wall" => do_wall = true,
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: dfi-scalegate [--gate N] [--sweep] [--wall]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let seed = env_usize("SCALE_SEED", 2019) as u64;
    let offered = env_usize("SCALE_ITERS", 12_000);
    let probes = env_usize("SCALE_PROBES", 512);
    let hosts = env_usize("SCALE_HOSTS", 250_000) as u32;
    let leaves = env_usize("SCALE_LEAVES", 960) as u32;
    let spines = env_usize("SCALE_SPINES", 40) as u32;
    let pool_size = env_usize("SCALE_POOL", 2048);
    let peak_rate = env_f64("SCALE_RATE", 6000.0);
    let sweep_flows = env_usize("SCALE_SWEEP_ITERS", 2500);
    let sweep_rates = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
    let shard_counts = [1usize, 2, 4, 8];

    // The wall gate derates with the hardware: demanding a literal 3x on a
    // single-core container proves nothing but that the box is small. The
    // measured core count and the applied threshold go into the report.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let wall_gate = env_f64(
        "SCALE_WALL_GATE",
        if cores >= 8 {
            3.0
        } else if cores >= 2 {
            (0.6 * cores as f64).min(3.0)
        } else {
            0.7
        },
    );
    let wall_tol = env_f64("SCALE_WALL_TOL", if cores >= 8 { 0.95 } else { 0.7 });

    eprintln!(
        "generating topology ({} switches, {hosts} hosts)...",
        spines + leaves
    );
    let topo = Arc::new(Topology::generate(
        &TopoParams {
            kind: TopoKind::LeafSpine { spines, leaves },
            hosts,
            users_per_host: 2,
        },
        seed,
    ));
    let bindings = topo.binding_count() + topo.hosts.len();
    let mut rng = SimRng::new(seed ^ 0xB00);
    let pool: Arc<Vec<usize>> = Arc::new(
        (0..pool_size.min(topo.hosts.len()))
            .map(|_| rng.index(topo.hosts.len()))
            .collect(),
    );

    eprintln!("oracle: loading {bindings} bindings...");
    let mut oracle = build(&topo, &pool, seed, None);
    let want = probe_trace(&mut oracle, &topo, &pool, probes);
    let oracle_by_policy = oracle.dfi.metrics().decisions_by_policy;
    drop(oracle);

    let mut equivalent = true;
    let mut results = Vec::new();
    let mut sweeps: Vec<(usize, Vec<SweepPoint>)> = Vec::new();
    for &n in &shard_counts {
        eprintln!("shards={n}: loading {bindings} bindings...");
        let mut cfg = build(&topo, &pool, seed, Some(n));
        let got = probe_trace(&mut cfg, &topo, &pool, probes);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g != w {
                eprintln!(
                    "EQUIVALENCE FAIL shards={n} probe={i}: sharded={g:?} oracle={w:?} \
                     (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
                );
                equivalent = false;
            }
        }
        if cfg.dfi.metrics().decisions_by_policy != oracle_by_policy {
            eprintln!(
                "EQUIVALENCE FAIL shards={n}: per-policy attribution diverged \
                 (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
            );
            equivalent = false;
        }
        if !cfg.dfi.epochs_agree() {
            eprintln!("EQUIVALENCE FAIL shards={n}: shards serve different epochs");
            equivalent = false;
        }
        if !equivalent {
            break;
        }
        let t = run_timed(&mut cfg, &topo, &pool, offered, peak_rate, seed);
        results.push((n, t));
        if do_sweep {
            eprintln!("shards={n}: sweeping {:?} f/s...", sweep_rates);
            let pts = run_sweep(&mut cfg, &topo, &pool, &sweep_rates, sweep_flows, seed);
            sweeps.push((n, pts));
        }
        drop(cfg);
    }

    // Phase 4: the same workload through real worker threads, wall-clocked.
    let mut wall_results: Vec<(usize, WallTiming)> = Vec::new();
    if do_wall && equivalent {
        for &n in &shard_counts {
            eprintln!("threads={n}: loading {bindings} bindings...");
            let mut pf = build_parallel(&topo, &pool, seed, n);
            let (got, metrics) = probe_trace_parallel(&mut pf, &topo, &pool, probes);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if g != w {
                    eprintln!(
                        "EQUIVALENCE FAIL threads={n} probe={i}: parallel={g:?} oracle={w:?} \
                         (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
                    );
                    equivalent = false;
                }
            }
            if metrics.decisions_by_policy != oracle_by_policy {
                eprintln!(
                    "EQUIVALENCE FAIL threads={n}: per-policy attribution diverged \
                     (repro: SCALE_SEED={seed} SCALE_PROBES={probes})"
                );
                equivalent = false;
            }
            if !pf.fleet.epochs_agree() {
                eprintln!("EQUIVALENCE FAIL threads={n}: workers serve different epochs");
                equivalent = false;
            }
            if !equivalent {
                pf.fleet.shutdown().expect("no shard worker panicked");
                break;
            }
            let t = run_wall(&mut pf, &topo, &pool, offered, peak_rate, seed);
            pf.fleet.shutdown().expect("no shard worker panicked");
            wall_results.push((n, t));
        }
    }

    let ratio = match (results.first(), results.last()) {
        (Some((1, one)), Some((8, eight))) if one.accepted > 0 => {
            (eight.accepted as f64 / eight.sim_secs) / (one.accepted as f64 / one.sim_secs)
        }
        _ => 0.0,
    };
    let wall_fps = |t: &WallTiming| t.accepted as f64 / t.wall_secs;
    let wall_ratio = match (wall_results.first(), wall_results.last()) {
        (Some((1, one)), Some((8, eight))) if one.accepted > 0 => wall_fps(eight) / wall_fps(one),
        _ => 0.0,
    };
    // Monotonicity is only meaningful while threads fit on real cores:
    // past that point added workers cannot add parallelism and step-to-step
    // deltas measure the scheduler, not the sharding. Oversubscribed points
    // are instead held to the no-collapse floor against the 1-thread run.
    let wall_base = wall_results.first().map_or(0.0, |(_, t)| wall_fps(t));
    let wall_monotone = wall_results.windows(2).all(|w| {
        if w[1].0 <= cores {
            wall_fps(&w[1].1) >= wall_tol * wall_fps(&w[0].1)
        } else {
            wall_fps(&w[1].1) >= wall_tol * wall_base
        }
    });
    let wall_pass = !do_wall
        || (equivalent
            && wall_results.len() == shard_counts.len()
            && wall_ratio >= wall_gate
            && wall_monotone);
    let pass = equivalent && gate.is_none_or(|g| ratio >= g) && wall_pass;

    println!("{{");
    println!(
        "  \"topology\": {{\"switches\": {}, \"hosts\": {}, \"bindings\": {bindings}}},",
        topo.switches.len(),
        topo.hosts.len()
    );
    println!(
        "  \"probes\": {probes}, \"equivalent\": {equivalent}, \"peak_rate\": {peak_rate:.0},"
    );
    println!(
        "  \"hardware\": {{\"cores\": {cores}, \"wall_gate\": {wall_gate:.2}, \
         \"wall_tol\": {wall_tol:.2}}},"
    );
    println!("  \"cooperative\": [");
    for (i, (n, t)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        println!(
            "    {{\"shards\": {n}, \"offered\": {}, \"accepted\": {}, \"dropped\": {}, \
             \"sim_flows_per_sec\": {:.0}, \"wall_flows_per_sec_cooperative\": {:.0}, \
             \"ttfb_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}, \"binding_batches\": {}}}{comma}",
            t.offered,
            t.accepted,
            t.dropped,
            t.accepted as f64 / t.sim_secs,
            t.accepted as f64 / t.wall_secs,
            t.ttfb_p50_ms,
            t.ttfb_p99_ms,
            t.binding_batches
        );
    }
    println!("  ],");
    println!("  \"parallel\": [");
    for (i, (n, t)) in wall_results.iter().enumerate() {
        let comma = if i + 1 < wall_results.len() { "," } else { "" };
        println!(
            "    {{\"threads\": {n}, \"offered\": {}, \"accepted\": {}, \"dropped\": {}, \
             \"sim_flows_per_sec\": {:.0}, \"wall_flows_per_sec_parallel\": {:.0}, \
             \"ttfb_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}}}{comma}",
            t.offered,
            t.accepted,
            t.dropped,
            t.accepted as f64 / t.sim_secs,
            wall_fps(t),
            t.ttfb_p50_ms,
            t.ttfb_p99_ms,
        );
    }
    println!("  ],");
    println!("  \"sweep\": [");
    let n_points: usize = sweeps.iter().map(|(_, pts)| pts.len()).sum();
    let mut emitted = 0usize;
    for (n, pts) in &sweeps {
        for p in pts {
            emitted += 1;
            let comma = if emitted < n_points { "," } else { "" };
            println!(
                "    {{\"shards\": {n}, \"offered_rate\": {:.0}, \"offered\": {}, \
                 \"accepted\": {}, \"dropped\": {}, \"accepted_rate\": {:.0}, \
                 \"ttfb_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}}}{comma}",
                p.rate,
                p.offered,
                p.accepted,
                p.dropped,
                p.accepted as f64 / p.sim_secs,
                p.ttfb_p50_ms,
                p.ttfb_p99_ms,
            );
        }
    }
    println!("  ],");
    println!(
        "  \"gate\": {{\"required_scaling\": {}, \"scaling_8v1\": {ratio:.2}, \
         \"parallel_wall_8v1\": {wall_ratio:.2}, \"parallel_wall_monotone\": {wall_monotone}, \
         \"pass\": {pass}}}",
        gate.map_or_else(|| "null".to_string(), |g| format!("{g:.1}"))
    );
    println!("}}");

    if !equivalent {
        eprintln!("GATE FAIL: sharded decisions diverged from the unsharded oracle");
        return ExitCode::FAILURE;
    }
    if let Some(g) = gate {
        if ratio < g {
            eprintln!("GATE FAIL: 8-shard/1-shard accepted-throughput scaling {ratio:.2}x < required {g:.1}x");
            return ExitCode::FAILURE;
        }
        eprintln!("gate ok: equivalence held over {probes} probes; 8-shard scaling {ratio:.2}x");
    }
    if do_wall {
        if !wall_pass {
            eprintln!(
                "GATE FAIL: parallel wall scaling 8v1 {wall_ratio:.2}x (required \
                 {wall_gate:.2}x on {cores} cores, monotone={wall_monotone})"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wall gate ok: parallel 8v1 {wall_ratio:.2}x >= {wall_gate:.2}x on {cores} cores, \
             monotone in thread count"
        );
    }
    ExitCode::SUCCESS
}
