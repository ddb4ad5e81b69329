//! What every workload shares: the round driver, the closed-loop
//! operation timer, the output check against the linear policy oracle,
//! sensor events on DFI's bus, the window counters, and the traced mode's
//! per-layer replays.
//!
//! The traced mode never measures a layer inside the program. After each
//! live operation it calls the layers' public entry points on that
//! operation's own inputs — the frames the switches punted, the policy
//! mutations the operation made — and times each call as a child span of
//! the operation. Calls that would mutate the live system run on shadow
//! state: a benchmark-owned decision cache, shadow Table-0 copies kept at
//! the live occupancy, and clones of the live policy store.

use crate::report::{json_str, Checks, Metrics, Outcome, Samples};
use crate::trace::{Name, Tracer};
use dfi_core::erm::SpoofVerdict;
use dfi_core::events::DfiEvent;
use dfi_core::policy::{
    Decision, FlowView, PolicyAction, PolicyId, PolicyManager, PolicySnapshot, DEFAULT_DENY_ID,
};
use dfi_core::{DecisionCache, Dfi, DfiMetrics, FlowKey};
use dfi_dataplane::{FlowTable, Switch};
use dfi_openflow::{FlowMod, Instruction, Match, Message, OfMessage, PacketIn};
use dfi_packet::PacketHeaders;
use dfi_simnet::{Sim, SimRng, SimTime};
use dfi_wiregate::ALLOCS;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// DFI's Table-0 rule priority (`DfiConfig::default().rule_priority`).
const RULE_PRIORITY: u16 = 100;

pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// One packet-in the proxy decided during an operation: where it was
/// punted and what the oracle says the decision must be.
pub struct Punt {
    pub dpid: u64,
    pub in_port: u32,
    pub frame: Vec<u8>,
    pub headers: PacketHeaders,
    pub expected: Decision,
}

/// The decision [`PolicyManager::query_linear`] gives the ERM-resolved
/// flow, with the proxy's anti-spoofing check in front of it.
pub fn oracle(dfi: &Dfi, headers: &PacketHeaders, dpid: u64, in_port: u32) -> Decision {
    let (spoofed, src, dst) = dfi.with_erm(|erm| {
        let spoofed =
            erm.spoof_check(headers.ipv4_src, headers.eth_src) == SpoofVerdict::IpMacMismatch;
        let (src, dst) = erm.resolve_flow(headers, dpid, in_port);
        (spoofed, src, dst)
    });
    if spoofed {
        return Decision {
            action: PolicyAction::Deny,
            policy: DEFAULT_DENY_ID,
        };
    }
    let flow = FlowView {
        ethertype: headers.ethertype.to_u16(),
        ip_proto: headers.ip_proto.map(|p| p.0),
        src,
        dst,
    };
    dfi.with_pm(|pm| pm.query_linear(&flow))
}

/// The Table-0 rule DFI installs for a decided packet-in.
pub fn table0_rule(in_port: u32, headers: &PacketHeaders, d: &Decision) -> FlowMod {
    FlowMod {
        cookie: d.policy.0,
        table_id: 0,
        priority: RULE_PRIORITY,
        mat: Match::exact_from_headers(in_port, headers),
        instructions: match d.action {
            PolicyAction::Allow => vec![Instruction::GotoTable(1)],
            PolicyAction::Deny => vec![],
        },
        ..FlowMod::add()
    }
}

/// Checks that `sw` holds exactly the Table-0 rule the oracle implies for
/// `p` (decided, installed, right cookie, right action).
pub fn check_installed(checks: &mut Checks, sw: &Switch, p: &Punt) {
    let want = Match::exact_from_headers(p.in_port, &p.headers);
    let found = sw.with_table(0, |t| {
        t.iter()
            .find(|e| e.mat == want)
            .map(|e| (e.cookie, e.instructions.is_empty()))
    });
    match found {
        None => checks.fail("flow_not_decided_or_installed"),
        Some((cookie, drops)) => {
            let deny = p.expected.action == PolicyAction::Deny;
            if cookie != p.expected.policy.0 || drops != deny {
                checks.fail("decision_differs_from_oracle");
            }
        }
    }
}

/// After a policy update: the served snapshot must be at the policy
/// store's revision, and no switch may still hold a flushed cookie.
pub fn check_policy_applied(
    checks: &mut Checks,
    dfi: &Dfi,
    switches: &[Switch],
    gone: &[PolicyId],
) {
    if dfi.snapshot().revision() != dfi.with_pm(|pm| pm.revision()) {
        checks.fail("snapshot_behind_policy_store");
    }
    let gone: HashSet<u64> = gone.iter().map(|id| id.0).collect();
    if switches
        .iter()
        .any(|sw| sw.with_table(0, |t| t.iter().any(|e| gone.contains(&e.cookie))))
    {
        checks.fail("switch_holds_flushed_cookie");
    }
}

/// Counters read from `Dfi::metrics()` at window edges only: the call
/// clones every latency-sample vector, so its cost grows with the run.
pub struct Window {
    m: DfiMetrics,
    controller_flow_mods: u64,
    rss: f64,
}

impl Window {
    pub fn open(dfi: &Dfi, controller_flow_mods: u64) -> Window {
        Window {
            m: dfi.metrics(),
            controller_flow_mods,
            rss: crate::report::rss_bytes(),
        }
    }
}

/// Closed-loop bookkeeping for one run: samples, the output check, and
/// (traced mode) the replays.
pub struct Harness {
    pub checks: Checks,
    pub flow_us: Samples,
    pub grant_ms: Samples,
    pub revoke_ms: Samples,
    pub binding_us: Samples,
    /// Flow packets offered (bursts count every packet).
    flow_packets: u64,
    flow_events: u64,
    flow_allocs: u64,
    policy_events: u64,
    binding_deliveries: u64,
    op: u32,
    pub mix: Mix,
    pub replay: Option<Replay>,
    /// Window counters of the windows that held flows, and of those that
    /// held updates (a mixed window counts in both).
    window_flow: Delta,
    window_update: Delta,
    /// The largest live Table-0 occupancy seen.
    table0_max: usize,
}

/// Flow-op mix counters, printed as shares next to the metrics.
#[derive(Default)]
pub struct Mix {
    pub allowed: u64,
    pub default_denied: u64,
    pub bursts: u64,
    /// Flow ops whose first hop and destination switch differ.
    pub cross_switch: u64,
    /// Users logged on at each flow op, summed over the flow ops.
    pub logged_on_users: u64,
}

/// What a counter window held.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    Flows,
    Updates,
    Mixed,
}

/// Summed window deltas of the proxy's counters.
#[derive(Default, Clone, Copy)]
struct Delta {
    decisions: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
    installs: u64,
    publishes: u64,
    minted: u64,
    spliced: u64,
    controller_flow_mods: u64,
    rss: f64,
    dropped: u64,
    retries: u64,
    install_failures: u64,
}

impl Delta {
    fn add(&mut self, d: &Delta) {
        self.decisions += d.decisions;
        self.hits += d.hits;
        self.misses += d.misses;
        self.invalidations += d.invalidations;
        self.flushes += d.flushes;
        self.installs += d.installs;
        self.publishes += d.publishes;
        self.minted += d.minted;
        self.spliced += d.spliced;
        self.controller_flow_mods += d.controller_flow_mods;
        self.rss += d.rss;
    }
}

/// The live part of one operation, as the untraced run times it.
pub struct Live {
    pub start: Instant,
    pub end: Instant,
    pub events: u64,
    pub allocs: u64,
}

impl Live {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Times `f` (the operation, run to quiescence) with the simulator's event
/// count and the allocation count around it.
pub fn live(sim: &mut Sim, f: impl FnOnce(&mut Sim)) -> Live {
    let e0 = sim.events_executed();
    let a0 = allocs();
    let start = Instant::now();
    f(sim);
    let end = Instant::now();
    Live {
        start,
        end,
        events: sim.events_executed() - e0,
        allocs: allocs() - a0,
    }
}

/// Whether the ERM holds the binding `event` names: IP↔MAC for a lease,
/// host↔IP for a name record, user↔host for a session.
fn erm_holds(dfi: &Dfi, event: &DfiEvent) -> bool {
    dfi.with_erm(|erm| match event {
        DfiEvent::Lease { mac, ip, .. } => erm.macs_of_ip(*ip).contains(mac),
        DfiEvent::Name { hostname, ip, .. } => erm.hosts_of_ip_ref(*ip).contains(hostname),
        DfiEvent::Session { user, host, .. } => erm.users_of_host_ref(host).contains(user),
        _ => false,
    })
}

/// One binding update: `event` published on DFI's bus as its sensor
/// publishes it, until the simulator is quiescent (the ERM updated, the
/// decision-cache entries it stales dropped). The check: the ERM held the
/// binding before exactly when the event removes it, and holds it after
/// exactly when the event establishes it — every timed event is a change.
pub fn binding_update(
    h: &mut Harness,
    sim: &mut Sim,
    dfi: &Dfi,
    topic: &'static str,
    event: DfiEvent,
) {
    let establishes = match &event {
        DfiEvent::Lease { released, .. } => !released,
        DfiEvent::Name { removed, .. } => !removed,
        DfiEvent::Session { logged_on, .. } => *logged_on,
        _ => false,
    };
    let held_before = erm_holds(dfi, &event);
    let bus = dfi.bus().clone();
    let d0 = bus.delivered();
    let ev = event.clone();
    let live = live(sim, |sim| {
        bus.publish(sim, topic, ev);
        sim.run();
    });
    let deliveries = bus.delivered() - d0;
    h.checks.begin();
    if held_before == establishes {
        h.checks.fail("binding_event_changes_nothing");
    }
    if erm_holds(dfi, &event) != establishes {
        h.checks.fail("binding_not_applied");
    }
    h.binding(&live, deliveries);
}

/// A system a workload measures on; the round driver builds a fresh one
/// for every round.
pub trait Rig: Sized {
    /// Set-ups timed per round; all but the last are dropped unused. A
    /// rig whose set-up is short repeats it, so the median is steady.
    const SETUPS_PER_ROUND: usize = 1;
    /// Builds the system from `seed` and warms it up: everything before
    /// the first timed op.
    fn setup(seed: u64) -> Self;
    fn switches(&self) -> &[Switch];
    /// The ERM load of the system's bindings: seconds, and resident bytes
    /// per binding.
    fn erm_load(&self) -> (f64, f64);
    /// Provenance: fabric sizes, op counts and mix shares, as a JSON
    /// object body without braces.
    fn context(&self, h: &Harness) -> String;
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Runs `rounds` rounds, each on a fresh `R` seeded from the run's seed
/// and the round; `body` measures one round's share of the ops, so every
/// percentile draws from the whole run rather than from one stretch of
/// it. `setup_s` is the median of all set-ups, the first timed from
/// process start. The ERM load reported is the first round's, the only
/// one on a fresh heap.
pub fn rounds<R: Rig>(
    workload: &str,
    seed: u64,
    rounds: usize,
    trace: bool,
    process_start: Instant,
    mut body: impl FnMut(&mut R, &mut Harness),
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(rounds * R::SETUPS_PER_ROUND);
    let mut h = Harness::new(trace, seed);
    let (mut drift, mut erm_load) = (0, None);
    let mut last: Option<R> = None;
    let t = Instant::now();
    for round in 0..rounds {
        drop(last.take());
        let round_seed = seed.wrapping_mul(rounds as u64).wrapping_add(round as u64);
        let mut rig = None;
        for k in 0..R::SETUPS_PER_ROUND {
            drop(rig.take());
            let t0 = if round == 0 && k == 0 {
                process_start
            } else {
                Instant::now()
            };
            rig = Some(R::setup(round_seed));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut rig = rig.ok_or("no set-up to run")?;
        if let Some(r) = &mut h.replay {
            erm_load.get_or_insert_with(|| rig.erm_load());
            r.reset_shadow(rig.switches());
        }
        body(&mut rig, &mut h);
        h.note_tables(rig.switches());
        if let Some(r) = &h.replay {
            drift = drift.max(r.shadow_drift(rig.switches()));
        }
        last = Some(rig);
    }
    let rig = last.ok_or("no rounds to run")?;
    let setup_s = median(setups);
    let table_max = h.table0_max;
    eprintln!(
        "{workload}: set-up {setup_s:.2} s, rounds {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let mut context = format!(
        "{}, \"rounds\": {rounds}, \"table0_max\": {table_max}",
        rig.context(&h)
    );
    let metrics = match erm_load {
        Some(erm_load) => {
            context.push_str(&format!(
                ", \"trace_file\": {}, \"shadow_table_drift\": {drift}",
                json_str(&h.write_trace(workload)?),
            ));
            h.per_layer(erm_load, table_max)?
        }
        None => h.end_to_end(setup_s)?,
    };
    Ok(Outcome {
        metrics,
        checks: h.checks,
        context,
    })
}

impl Harness {
    pub fn new(trace: bool, seed: u64) -> Harness {
        Harness {
            checks: Checks::default(),
            flow_us: Samples::default(),
            grant_ms: Samples::default(),
            revoke_ms: Samples::default(),
            binding_us: Samples::default(),
            flow_packets: 0,
            flow_events: 0,
            flow_allocs: 0,
            policy_events: 0,
            binding_deliveries: 0,
            op: 0,
            mix: Mix::default(),
            replay: trace.then(|| Replay::new(seed)),
            window_flow: Delta::default(),
            window_update: Delta::default(),
            table0_max: 0,
        }
    }

    /// Raises the largest Table-0 occupancy seen to that of `switches` now
    /// (`Switch::table_len` is O(1)).
    pub fn note_tables(&mut self, switches: &[Switch]) {
        self.table0_max = switches
            .iter()
            .map(|s| s.table_len(0))
            .fold(self.table0_max, usize::max);
    }

    pub fn flow_packets(&self) -> u64 {
        self.flow_packets
    }

    /// Records a finished flow operation; in traced mode replays its
    /// flow-path layers on `punts`.
    pub fn flow(&mut self, live: &Live, dfi: &Dfi, punts: &[Punt], now: SimTime) {
        self.op += 1;
        self.flow_us.push(live.secs() * 1e6);
        self.flow_packets += punts.len() as u64;
        self.flow_events += live.events;
        self.flow_allocs += live.allocs;
        if let Some(r) = &mut self.replay {
            r.flow(self.op, live, dfi, punts, now);
        }
    }

    /// Records a finished grant (`grant == true`) or revoke. `pm_calls`
    /// are the timed calls on the cloned policy store; `flushed` the
    /// cookies the update removed from every switch.
    pub fn policy(
        &mut self,
        live: &Live,
        grant: bool,
        dfi: &Dfi,
        pm_calls: &[(Instant, Instant)],
        flushed: &[PolicyId],
    ) {
        self.op += 1;
        let ms = live.secs() * 1e3;
        if grant {
            self.grant_ms.push(ms);
        } else {
            self.revoke_ms.push(ms);
        }
        self.policy_events += live.events;
        if let Some(r) = &mut self.replay {
            r.policy(self.op, live, grant, dfi, pm_calls, flushed);
        }
    }

    fn binding(&mut self, live: &Live, deliveries: u64) {
        self.op += 1;
        self.binding_us.push(live.secs() * 1e6);
        self.binding_deliveries += deliveries;
        if let Some(r) = &mut self.replay {
            let span = r.tracer.open(Name::OpBinding, self.op, live.start);
            r.tracer
                .span(Name::Live, self.op, span, live.start, live.end);
            r.tracer.close(span, live.end);
        }
    }

    /// Folds the counters between `w` and now into the window totals, and
    /// checks the window-level failures: drops, install retries and
    /// abandoned installs.
    pub fn close_window(
        &mut self,
        w: Window,
        dfi: &Dfi,
        controller_flow_mods: u64,
        kind: WindowKind,
    ) {
        let m = dfi.metrics();
        let d = Delta {
            decisions: (m.allowed + m.denied + m.spoof_denied)
                - (w.m.allowed + w.m.denied + w.m.spoof_denied),
            hits: m.decision_cache_hits - w.m.decision_cache_hits,
            misses: m.decision_cache_misses - w.m.decision_cache_misses,
            invalidations: m.decision_cache_invalidations - w.m.decision_cache_invalidations,
            flushes: m.flushes - w.m.flushes,
            installs: m.flow_mods_batched - w.m.flow_mods_batched,
            publishes: m.snapshots_published - w.m.snapshots_published,
            minted: m.pool_minted - w.m.pool_minted,
            spliced: (m.frames_spliced + m.frames_fallback)
                - (w.m.frames_spliced + w.m.frames_fallback),
            controller_flow_mods: controller_flow_mods - w.controller_flow_mods,
            rss: crate::report::rss_bytes() - w.rss,
            dropped: m.dropped - w.m.dropped,
            retries: m.install_retries - w.m.install_retries,
            install_failures: m.install_failures - w.m.install_failures,
        };
        self.checks.fail_window("flow_dropped", d.dropped);
        self.checks.fail_window("install_retry", d.retries);
        self.checks
            .fail_window("install_failure", d.install_failures);
        if kind != WindowKind::Updates {
            self.window_flow.add(&d);
        }
        if kind != WindowKind::Flows {
            self.window_update.add(&d);
        }
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, setup_s: f64) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        let flow_secs = self.flow_us.sum() / 1e6;
        m.put("flows_per_s", self.flow_us.len() as f64 / flow_secs, "1/s");
        m.samples.insert("flows_per_s".into(), self.flow_us.len());
        m.percentiles("flow_setup_us", &self.flow_us, "us", 0.99)?;
        m.percentiles("policy_grant_ms", &self.grant_ms, "ms", 0.90)?;
        m.percentiles("policy_revoke_ms", &self.revoke_ms, "ms", 0.90)?;
        m.percentiles("binding_update_us", &self.binding_us, "us", 0.99)?;
        Ok(m)
    }

    /// The per-layer metrics of the traced run. `erm` is the workload's
    /// ERM load (seconds, bytes per binding); `table_max` the largest live
    /// Table-0 occupancy at the end of the run.
    pub fn per_layer(&self, erm: (f64, f64), table_max: usize) -> Result<Metrics, String> {
        let r = self
            .replay
            .as_ref()
            .ok_or("per-layer metrics need --trace 1")?;
        let t = &r.tracer;
        let med = |s: &Samples, what: &str| s.percentile(0.5, what);
        let flow = self.window_flow;
        let upd = self.window_update;
        let flows = self.flow_us.len() as f64;
        let policy_ops = (self.grant_ms.len() + self.revoke_ms.len()) as f64;
        let binding_ops = self.binding_us.len() as f64;
        let updates = policy_ops + binding_ops;
        let mut m = Metrics::default();
        m.put(
            "packet.parse_ns",
            med(t.durations(Name::PacketParse), "packet.parse_ns")?,
            "ns",
        );
        m.put(
            "openflow.decode_ns",
            med(t.durations(Name::OpenflowDecode), "openflow.decode_ns")?,
            "ns",
        );
        m.put(
            "openflow.encode_ns",
            med(t.durations(Name::OpenflowEncode), "openflow.encode_ns")?,
            "ns",
        );
        m.put(
            "erm.resolve_ns",
            med(t.durations(Name::ErmResolve), "erm.resolve_ns")?,
            "ns",
        );
        m.put(
            "erm.resolve_allocs",
            r.resolve_allocs.sum() / r.resolve_allocs.len() as f64,
            "count",
        );
        m.put(
            "snapshot.classify_ns",
            med(t.durations(Name::SnapshotClassify), "snapshot.classify_ns")?,
            "ns",
        );
        let lookups = flow.hits + flow.misses;
        m.put(
            "cache.hit_ratio",
            flow.hits as f64 / lookups as f64,
            "ratio",
        );
        m.samples.insert("cache.hit_ratio".into(), lookups as usize);
        m.put(
            "cache.insert_ns",
            med(&r.cache_miss_ns, "cache.insert_ns")?,
            "ns",
        );
        m.put(
            "dataplane.install_ns",
            med(t.durations(Name::DataplaneInstall), "dataplane.install_ns")?,
            "ns",
        );
        m.put("dataplane.table_rules.max", table_max as f64, "count");
        m.put(
            "proxy.pool_minted_per_flow",
            flow.minted as f64 / flows,
            "count",
        );
        m.put(
            "proxy.spliced_per_flow",
            flow.spliced as f64 / flows,
            "count",
        );
        m.put(
            "controller.flow_mods_per_flow",
            flow.controller_flow_mods as f64 / flows,
            "count",
        );
        m.put(
            "simnet.events_per_flow",
            self.flow_events as f64 / flows,
            "count",
        );
        m.put(
            "simnet.events_per_update",
            self.policy_events as f64 / policy_ops,
            "count",
        );
        m.put("alloc.per_flow", self.flow_allocs as f64 / flows, "count");
        m.put("mem.bytes_per_flow", flow.rss / flows, "B");
        m.put(
            "flow.unattributed_us",
            med(&r.unattributed_us, "flow.unattributed_us")?,
            "us",
        );
        m.put(
            "pm.insert_us",
            med(t.durations(Name::PmInsert), "pm.insert_us")? / 1e3,
            "us",
        );
        m.put(
            "pm.revoke_us",
            med(t.durations(Name::PmRevoke), "pm.revoke_us")? / 1e3,
            "us",
        );
        m.put(
            "pm.flushes_per_update",
            upd.flushes as f64 / policy_ops,
            "count",
        );
        m.put(
            "snapshot.compile_ms",
            med(t.durations(Name::SnapshotCompile), "snapshot.compile_ms")? / 1e6,
            "ms",
        );
        m.put(
            "snapshot.publishes_per_update",
            upd.publishes as f64 / policy_ops,
            "count",
        );
        m.put(
            "proxy.installs_per_update",
            upd.installs.saturating_sub(upd.decisions) as f64 / policy_ops,
            "count",
        );
        m.put(
            "dataplane.cookie_delete_us",
            med(
                t.durations(Name::DataplaneCookieDelete),
                "dataplane.cookie_delete_us",
            )? / 1e3,
            "us",
        );
        m.put(
            "cache.invalidations_per_update",
            upd.invalidations as f64 / updates,
            "count",
        );
        m.put(
            "bus.deliveries_per_update",
            self.binding_deliveries as f64 / binding_ops,
            "count",
        );
        m.put("erm.load_s", erm.0, "s");
        m.put("erm.bytes_per_binding", erm.1, "B");
        let traced_p50 = med(&r.live_flow_us, "trace.flow_setup_us.p50")?;
        m.put("trace.flow_setup_us.p50", traced_p50, "us");
        let after_plain = med(&r.after_plain_us, "flows after an untraced op")?;
        let after_traced = med(&r.after_traced_us, "flows after a traced op")?;
        m.put(
            "trace.overhead_pct",
            (after_traced / after_plain - 1.0) * 100.0,
            "%",
        );
        m.samples.insert("trace.spans".into(), t.span_count());
        Ok(m)
    }

    /// Writes the spans (traced mode) to `perfbench/out/trace-<workload>.tsv`
    /// and returns the path.
    pub fn write_trace(&self, workload: &str) -> Result<String, String> {
        let Some(r) = &self.replay else {
            return Ok(String::new());
        };
        let path = std::path::Path::new(crate::TRACE_DIR).join(format!("trace-{workload}.tsv"));
        r.tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}

/// The traced mode's replay state.
pub struct Replay {
    pub tracer: Tracer,
    cache: DecisionCache,
    /// Shadow Table 0 per dpid, kept at the live occupancy.
    shadow: BTreeMap<u64, FlowTable>,
    buf: Vec<u8>,
    /// Which operations get their layers replayed (about half, drawn from
    /// the seed); the others measure what tracing costs the next op.
    coin: SimRng,
    prev_traced: bool,
    cache_miss_ns: Samples,
    resolve_allocs: Samples,
    unattributed_us: Samples,
    live_flow_us: Samples,
    after_traced_us: Samples,
    after_plain_us: Samples,
}

impl Replay {
    fn new(seed: u64) -> Replay {
        Replay {
            tracer: Tracer::new(),
            cache: DecisionCache::with_capacity(
                dfi_core::DfiConfig::default().decision_cache_capacity,
            ),
            shadow: BTreeMap::new(),
            buf: Vec::with_capacity(256),
            coin: SimRng::new(seed ^ 0x7ACE),
            prev_traced: false,
            cache_miss_ns: Samples::default(),
            resolve_allocs: Samples::default(),
            unattributed_us: Samples::default(),
            live_flow_us: Samples::default(),
            after_traced_us: Samples::default(),
            after_plain_us: Samples::default(),
        }
    }

    /// Re-copies every switch's live Table 0 into the shadows (a fresh
    /// fabric, or the start of a window).
    pub fn reset_shadow(&mut self, switches: &[Switch]) {
        self.shadow = switches
            .iter()
            .map(|sw| (sw.dpid(), sw.with_table(0, Clone::clone)))
            .collect();
    }

    /// The largest shadow-versus-live Table-0 size difference (a check
    /// that the shadows really track the live occupancy).
    pub fn shadow_drift(&self, switches: &[Switch]) -> usize {
        switches
            .iter()
            .map(|sw| {
                let shadow = self.shadow.get(&sw.dpid()).map_or(0, FlowTable::len);
                shadow.abs_diff(sw.table_len(0))
            })
            .max()
            .unwrap_or(0)
    }

    fn flow(&mut self, op: u32, live: &Live, dfi: &Dfi, punts: &[Punt], now: SimTime) {
        let live_us = live.secs() * 1e6;
        self.live_flow_us.push(live_us);
        if self.prev_traced {
            self.after_traced_us.push(live_us);
        } else {
            self.after_plain_us.push(live_us);
        }
        let traced = self.coin.chance(0.5);
        self.prev_traced = traced;
        let span = self.tracer.open(Name::OpFlow, op, live.start);
        self.tracer.span(Name::Live, op, span, live.start, live.end);
        if traced {
            let layers_ns = self.flow_layers(op, span, dfi, punts, now);
            self.unattributed_us.push(live_us - layers_ns / 1e3);
        } else {
            for p in punts {
                let fm = table0_rule(p.in_port, &p.headers, &p.expected);
                if let Some(t) = self.shadow.get_mut(&p.dpid) {
                    let _ = t.add(&fm, now);
                }
            }
        }
        self.tracer.close(span, Instant::now());
    }

    /// Replays each punted packet through the flow-path layers, as often
    /// as the live path calls them: the switch pipeline and the PCP each
    /// parse the frame, the proxy decodes the Packet-In, a decision-cache
    /// miss resolves and classifies, every packet probes the cache and
    /// encodes and installs one FlowMod‖Barrier. Returns the summed ns.
    fn flow_layers(&mut self, op: u32, span: u32, dfi: &Dfi, punts: &[Punt], now: SimTime) -> f64 {
        let snap = dfi.snapshot();
        let t = &mut self.tracer;
        let mut total = 0.0;
        for p in punts {
            let pi = OfMessage::new(
                1,
                Message::PacketIn(PacketIn::table_miss(p.in_port, 0, p.frame.clone())),
            )
            .encode();
            for _ in 0..2 {
                let (_, ns) = t.time(Name::PacketParse, op, span, || {
                    PacketHeaders::parse(&p.frame)
                });
                total += ns;
            }
            let (_, ns) = t.time(Name::OpenflowDecode, op, span, || OfMessage::decode(&pi));
            total += ns;
            let key = FlowKey::new(&p.headers, p.dpid, p.in_port);
            let cache = &mut self.cache;
            let (hit, ns) = t.time(Name::CacheLookupInsert, op, span, || {
                cache.lookup(&key).is_some()
            });
            total += ns;
            if !hit {
                let a0 = allocs();
                let ((src, dst), ns) = t.time(Name::ErmResolve, op, span, || {
                    dfi.with_erm(|erm| erm.resolve_flow(&p.headers, p.dpid, p.in_port))
                });
                self.resolve_allocs.push((allocs() - a0) as f64);
                total += ns;
                let flow = FlowView {
                    ethertype: p.headers.ethertype.to_u16(),
                    ip_proto: p.headers.ip_proto.map(|x| x.0),
                    src,
                    dst,
                };
                let (decision, ns) =
                    t.time(Name::SnapshotClassify, op, span, || snap.classify(&flow));
                total += ns;
                let epoch = snap.epoch();
                let (_, ns) = t.time(Name::CacheLookupInsert, op, span, || {
                    cache.insert(key.clone(), decision, false, epoch);
                });
                // The miss path's probe plus insert is the cache's cost.
                self.cache_miss_ns.push(ns);
                total += ns;
            }
            let fm = table0_rule(p.in_port, &p.headers, &p.expected);
            let msgs = [
                OfMessage::new(7, Message::FlowMod(fm.clone())),
                OfMessage::new(7, Message::BarrierRequest),
            ];
            let buf = &mut self.buf;
            let (_, ns) = t.time(Name::OpenflowEncode, op, span, || {
                buf.clear();
                for m in &msgs {
                    m.encode_into(buf);
                }
                buf.len()
            });
            total += ns;
            if let Some(table) = self.shadow.get_mut(&p.dpid) {
                let (_, ns) = t.time(Name::DataplaneInstall, op, span, || table.add(&fm, now));
                total += ns;
            }
        }
        total
    }

    fn policy(
        &mut self,
        op: u32,
        live: &Live,
        grant: bool,
        dfi: &Dfi,
        pm_calls: &[(Instant, Instant)],
        flushed: &[PolicyId],
    ) {
        let name = if grant { Name::OpGrant } else { Name::OpRevoke };
        // The shadow policy-store calls ran just before the live op (they
        // need the pre-update store), so the op span opens at the first.
        let start = pm_calls.first().map_or(live.start, |c| c.0);
        let span = self.tracer.open(name, op, start);
        let pm_name = if grant {
            Name::PmInsert
        } else {
            Name::PmRevoke
        };
        for &(s, e) in pm_calls {
            self.tracer.span(pm_name, op, span, s, e);
        }
        self.tracer.span(Name::Live, op, span, live.start, live.end);
        self.tracer.time(Name::SnapshotCompile, op, span, || {
            dfi.with_pm(|pm: &mut PolicyManager| PolicySnapshot::compile(pm, 0).rule_count())
        });
        let shadow = &mut self.shadow;
        self.tracer.time(Name::DataplaneCookieDelete, op, span, || {
            let mut removed = 0;
            for id in flushed {
                let fm = FlowMod::delete_by_cookie(id.0, u64::MAX);
                for table in shadow.values_mut() {
                    removed += table.delete(&fm).len();
                }
            }
            removed
        });
        self.tracer.close(span, Instant::now());
    }
}
