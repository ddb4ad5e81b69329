//! Flow-decide gate: the compiled snapshot classifier against the linear
//! oracle it is proven equal to, at enterprise scale (10 000 rules, 512
//! destination-host buckets, ~20 candidate entries per probe).
//!
//! Two rule-set profiles, mirroring how PDPs actually populate the
//! manager:
//!
//! * `acl` — destination-keyed access-control lists, all inserted at one
//!   fixed priority the way a single PDP (e.g. S-RBAC) stamps every rule
//!   with its own band, a Deny sprinkled through. This is the snapshot's
//!   home turf: every entry compiles to a trivial residual, each bucket
//!   carries a pre-computed verdict, and classification is two binary
//!   searches plus a pre-computed answer. **The `--gate` speedup and
//!   zero-alloc requirements are enforced on this profile.**
//! * `mixed` — a third of the rules additionally pin the source host and
//!   priorities spread over four PDP bands, so most candidates need real
//!   residual interpretation. Reported for transparency: it bounds the
//!   worst case, the gate does not certify it.
//!
//! Per profile it times `classify` (`PolicySnapshot::classify`, the hot
//! path) against `linear` (`PolicyManager::query_linear`, the full-scan
//! oracle) in alternating rounds: each round times a block of classify
//! calls and a block of linear calls back to back (the order flips every
//! round), and the profile's speedup is the median of the per-round
//! ratios. A host-speed swing inside one block moves one round's ratio,
//! not the median, so it can neither fail nor pass the gate on its own.
//!
//! Before timing anything it hard-fails unless `classify ≡ query_linear`
//! and `classify_class ≡ query_class_linear` on every probe flow in both
//! profiles — the same equivalences the property tests prove, here as a
//! cheap sanity net so the gate can never certify a wrong-answer speedup.
//!
//! Prints a JSON report to stdout (captured into `BENCH_decide.json` by
//! `scripts/check.sh --decide`). With `--gate N` it exits non-zero unless
//! `acl` classify is at least `N`× faster than `linear` (median per-round
//! ratio) and allocation-free in every round.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::process::ExitCode;

use dfi_core::policy::{
    EndpointPattern, EndpointView, FlowView, PolicyManager, PolicyRule, PolicySnapshot,
};
use dfi_packet::MacAddr;
use dfi_wiregate::{fmt_measure, provenance_json, time_block, CountingAlloc, Measure};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const N_RULES: usize = 10_000;
const N_HOSTS: usize = 512;
const N_PROBES: usize = 64;
/// Alternating timing rounds per profile (odd: the median is one round).
const ROUNDS: usize = 21;
/// Classify calls per linear call in a round: about equal wall time per
/// block at the measured ~4 500× ratio.
const LINEAR_SHARE: u64 = 4_000;

/// `acl`: everything keyed on destination hostname with a wildcard
/// source, one fixed priority band, a Deny in every 17th slot (17 is
/// coprime to the host count, so denies land in every bucket position
/// rather than aliasing onto a few hosts).
fn build_acl_pm() -> PolicyManager {
    let mut pm = PolicyManager::new();
    for i in 0..N_RULES {
        let dst = EndpointPattern::host(&format!("h{}", i % N_HOSTS));
        let rule = if i % 17 == 5 {
            PolicyRule::deny(EndpointPattern::any(), dst)
        } else {
            PolicyRule::allow(EndpointPattern::any(), dst)
        };
        pm.insert(rule, 50, "decidegate-acl");
    }
    pm
}

/// `mixed`: a third of the rules pin the source host too (residually
/// constrained entries the snapshot must still interpret), priorities
/// spread over four bands chosen by a multiplicative hash so bands mix
/// within every bucket.
fn build_mixed_pm() -> PolicyManager {
    let mut pm = PolicyManager::new();
    for i in 0..N_RULES {
        let dst = EndpointPattern::host(&format!("h{}", i % N_HOSTS));
        let src = if i % 3 == 0 {
            EndpointPattern::host(&format!("h{}", (i / 3) % N_HOSTS))
        } else {
            EndpointPattern::any()
        };
        let rule = if i % 17 == 5 {
            PolicyRule::deny(src, dst)
        } else {
            PolicyRule::allow(src, dst)
        };
        let band = (i.wrapping_mul(2_654_435_761) >> 16) % 4;
        pm.insert(rule, 10 * (1 + band as u32), "decidegate-mixed");
    }
    pm
}

/// An enriched probe flow exactly the way the ERM hands them to the PCP
/// (`Erm::view`): an FQDN and a short name per endpoint, the logged-on
/// users of each host (the client's user, the server's service account),
/// and the packet-level IP/MAC/attachment identifiers on both sides. The
/// pre-snapshot path pays a lowercased heap key plus a hash probe per
/// name/IP identifier; the snapshot pays a prefix-table probe.
fn probe_flow(j: usize) -> FlowView {
    let src_host = format!("h{}", j % N_HOSTS);
    let dst_host = format!("h{}", (j * 7 + 3) % N_HOSTS);
    let endpoint = |host: &str, user: String, ip_low: usize, port: u16| EndpointView {
        usernames: vec![user],
        hostnames: vec![format!("{host}.corp.local"), host.to_string()],
        ip: Some(Ipv4Addr::new(
            10,
            0,
            (ip_low / 256) as u8,
            (ip_low % 256) as u8,
        )),
        port: Some(port),
        mac: Some(MacAddr::from_index(ip_low as u32)),
        switch_port: Some(1 + (ip_low % 40) as u32),
        switch_dpid: Some(0xD1),
    };
    FlowView {
        ethertype: 0x0800,
        ip_proto: Some(6),
        src: endpoint(
            &src_host,
            format!("user{j}"),
            j % N_HOSTS,
            40_000 + j as u16,
        ),
        dst: endpoint(
            &dst_host,
            format!("svc{}", j % 32),
            (j * 7 + 3) % N_HOSTS,
            445,
        ),
    }
}

/// Equivalence sanity net: never certify a wrong-answer speedup.
fn check_equivalence(
    name: &str,
    pm: &PolicyManager,
    snap: &PolicySnapshot,
    flows: &[FlowView],
) -> bool {
    for (j, f) in flows.iter().enumerate() {
        let (lin, cls) = (pm.query_linear(f), snap.classify(f));
        let (lin_class, cls_class) = (pm.query_class_linear(f), snap.classify_class(f));
        if lin != cls || lin_class != cls_class {
            eprintln!(
                "EQUIVALENCE FAIL ({name}) on probe flow {j}: linear={lin:?} classify={cls:?} \
                 class_linear={lin_class:?} classify_class={cls_class:?}"
            );
            return false;
        }
    }
    true
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A profile's alternating-round result: median ns per call of each
/// path, classify's worst round's allocations, and the median of the
/// per-round linear/classify ratios.
struct Profile {
    classify: Measure,
    linear: Measure,
    speedup: f64,
}

/// Times `iters` classify calls against `linear_iters` linear calls per
/// round.
fn run_profile(
    pm: &PolicyManager,
    snap: &PolicySnapshot,
    flow: &FlowView,
    iters: u64,
    linear_iters: u64,
) -> Profile {
    let classify = || {
        black_box(snap.classify(black_box(flow)));
    };
    let linear = || {
        black_box(pm.query_linear(black_box(flow)));
    };
    // Warm both paths before the first timed round.
    time_block(iters / 10 + 1, classify);
    time_block(1, linear);
    let (mut c_ns, mut l_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c_allocs, mut l_allocs) = (0.0f64, 0.0f64);
    for round in 0..ROUNDS {
        let (c, l) = if round % 2 == 0 {
            let c = time_block(iters, classify);
            (c, time_block(linear_iters, linear))
        } else {
            let l = time_block(linear_iters, linear);
            (time_block(iters, classify), l)
        };
        ratios.push(l.ns_per_op / c.ns_per_op);
        c_ns.push(c.ns_per_op);
        l_ns.push(l.ns_per_op);
        c_allocs = c_allocs.max(c.allocs_per_op);
        l_allocs = l_allocs.max(l.allocs_per_op);
    }
    Profile {
        classify: Measure {
            ns_per_op: median(c_ns),
            allocs_per_op: c_allocs,
        },
        linear: Measure {
            ns_per_op: median(l_ns),
            allocs_per_op: l_allocs,
        },
        speedup: median(ratios),
    }
}

fn main() -> ExitCode {
    let mut gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                let v = args.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--gate requires a numeric speedup factor");
                    return ExitCode::FAILURE;
                };
                gate = Some(v);
            }
            other => {
                eprintln!("unknown argument: {other}\nusage: dfi-decidegate [--gate N]");
                return ExitCode::FAILURE;
            }
        }
    }
    let iters: u64 = std::env::var("DECIDEGATE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);

    let acl_pm = build_acl_pm();
    let acl_snap = PolicySnapshot::compile(&acl_pm, 1);
    let mixed_pm = build_mixed_pm();
    let mixed_snap = PolicySnapshot::compile(&mixed_pm, 1);
    let flows: Vec<FlowView> = (0..N_PROBES).map(probe_flow).collect();

    if !check_equivalence("acl", &acl_pm, &acl_snap, &flows)
        || !check_equivalence("mixed", &mixed_pm, &mixed_snap, &flows)
    {
        return ExitCode::FAILURE;
    }

    let linear_iters = (iters / LINEAR_SHARE).max(2);
    let acl = run_profile(&acl_pm, &acl_snap, &flows[0], iters, linear_iters);
    let mixed = run_profile(&mixed_pm, &mixed_snap, &flows[0], iters, linear_iters);
    let pass = gate.is_none_or(|g| acl.speedup >= g && acl.classify.allocs_per_op <= 0.01);
    let bar = gate.map_or_else(|| "null".to_string(), |g| format!("{g:.1}"));

    println!("{{");
    println!(
        "  \"config\": {{\"rules\": {N_RULES}, \"hosts\": {N_HOSTS}, \"probes\": {N_PROBES}, \
         \"rounds\": {ROUNDS}, \"classify_iters_per_round\": {iters}, \
         \"linear_iters_per_round\": {linear_iters}, \"required_speedup\": {bar}}},"
    );
    println!("  {},", provenance_json());
    for (name, p) in [("acl", &acl), ("mixed", &mixed)] {
        println!(
            "  \"{name}\": {{\"linear\": {}, \"classify\": {}, \"speedup_vs_linear\": {:.1}}},",
            fmt_measure(p.linear),
            fmt_measure(p.classify),
            p.speedup
        );
    }
    println!("  \"gate\": {{\"required_speedup\": {bar}, \"profile\": \"acl\", \"pass\": {pass}}}");
    println!("}}");

    if let Some(g) = gate {
        let mut failed = false;
        if acl.speedup < g {
            eprintln!(
                "GATE FAIL: acl classify speedup {:.1}x vs linear < required {g:.1}x",
                acl.speedup
            );
            failed = true;
        }
        if acl.classify.allocs_per_op > 0.01 {
            eprintln!(
                "GATE FAIL: snapshot classify allocates {:.3} allocs/flow (want 0)",
                acl.classify.allocs_per_op
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "gate ok: acl classify {:.1}x vs linear ({:.0} ns/flow, {:.3} allocs/flow); \
             mixed {:.1}x",
            acl.speedup, acl.classify.ns_per_op, acl.classify.allocs_per_op, mixed.speedup
        );
    }
    ExitCode::SUCCESS
}
