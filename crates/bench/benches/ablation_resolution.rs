//! Ablation: identifier-resolution strategy (paper §III-B).
//!
//! The paper chooses to "map low-level identifiers in packets to high-level
//! identifiers during the access control decision" rather than compiling
//! policies down to addresses when they are inserted, because (1) bindings
//! churn and compiled policies go stale, and (2) policies about users who
//! are not currently logged on cannot be compiled at all.
//!
//! This bench quantifies both effects: a user-level policy is enforced
//! while the user moves between hosts (binding churn); each strategy's
//! decisions are compared against ground truth.

use dfi_bench::{header, row};
use dfi_core::erm::{Binding, EntityResolver};
use dfi_core::policy::{EndpointPattern, FlowView, PolicyAction, PolicyManager, PolicyRule, Wild};
use dfi_simnet::SimRng;
use std::net::Ipv4Addr;

const HOSTS: usize = 8;

fn host_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8 + 1)
}

fn host_name(i: usize) -> String {
    format!("h{i}")
}

/// Resolve-at-insert: the rule "alice may reach the server" compiled once,
/// against the binding state at insert time, into an IP-level rule.
fn compile_at_insert(resolver: &EntityResolver, server_ip: Ipv4Addr) -> Option<PolicyRule> {
    // Cannot compile if alice is logged off!
    let host = (0..HOSTS).find(|&i| resolver.users_of_host_ref(&host_name(i)).contains("alice"))?;
    let ip = host_ip(host);
    Some(PolicyRule {
        action: PolicyAction::Allow,
        flow: Default::default(),
        src: EndpointPattern {
            ip: Wild::Is(ip),
            ..EndpointPattern::any()
        },
        dst: EndpointPattern {
            ip: Wild::Is(server_ip),
            ..EndpointPattern::any()
        },
    })
}

fn main() {
    header("Ablation: resolve-at-decision vs resolve-at-insert");
    let server_ip = Ipv4Addr::new(10, 0, 9, 9);
    let mut rng = SimRng::new(0xAB1A);

    // Shared world: alice hops between hosts; ground truth is "the flow is
    // authorized iff its source is the host alice is CURRENTLY on".
    let mut resolver = EntityResolver::new();
    for i in 0..HOSTS {
        resolver.bind(Binding::HostIp {
            host: host_name(i),
            ip: host_ip(i),
        });
    }

    // Strategy A (DFI): one user-level rule; resolution happens per flow.
    let mut pm_decision = PolicyManager::new();
    pm_decision.insert(
        PolicyRule::allow(
            EndpointPattern::user("alice"),
            EndpointPattern {
                ip: Wild::Is(server_ip),
                ..EndpointPattern::any()
            },
        ),
        10,
        "ablation",
    );

    // Strategy B: compile the rule to IPs at insert time, recompiling only
    // when the policy author re-inserts (we model: never — the paper's
    // point is exactly that nothing triggers recompilation).
    // Alice starts logged off: compilation FAILS (effect 2).
    let compiled_at_start = compile_at_insert(&resolver, server_ip);

    let mut current_host: Option<usize> = None;
    let mut pm_insert = PolicyManager::new();
    let mut compiled_after_first_logon = false;

    let trials = 20_000;
    let mut wrong_decision = 0u64; // resolve-at-insert errors
    let mut wrong_decision_dfi = 0u64; // resolve-at-decision errors
    let mut uncompilable = compiled_at_start.is_none() as u64;

    for step in 0..trials {
        // Binding churn: every ~200 trials alice moves (or logs off).
        if step % 200 == 0 {
            if let Some(h) = current_host {
                resolver.unbind(&Binding::UserHost {
                    user: "alice".into(),
                    host: host_name(h),
                });
            }
            current_host = if rng.chance(0.85) {
                Some(rng.index(HOSTS))
            } else {
                None // logged off for a while
            };
            if let Some(h) = current_host {
                resolver.bind(Binding::UserHost {
                    user: "alice".into(),
                    host: host_name(h),
                });
                // The insert-time strategy got its one chance to compile at
                // the first log-on (a generous reading: an operator
                // re-inserted the policy once alice appeared).
                if !compiled_after_first_logon {
                    if let Some(rule) = compile_at_insert(&resolver, server_ip) {
                        pm_insert.insert(rule, 10, "ablation");
                        compiled_after_first_logon = true;
                    } else {
                        uncompilable += 1;
                    }
                }
            }
        }
        // A flow from a random host toward the server.
        let src = rng.index(HOSTS);
        let truth_allow = current_host == Some(src);
        let src_view = resolver.resolve_endpoint(
            Some(host_ip(src)),
            Some(50_000),
            dfi_packet::MacAddr::from_index(src as u32),
            None,
        );
        let flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            src: src_view,
            dst: dfi_core::policy::EndpointView {
                ip: Some(server_ip),
                port: Some(443),
                ..Default::default()
            },
        };
        let dfi_allow = pm_decision.query_linear(&flow).action == PolicyAction::Allow;
        let insert_allow = pm_insert.query_linear(&flow).action == PolicyAction::Allow;
        if dfi_allow != truth_allow {
            wrong_decision_dfi += 1;
        }
        if insert_allow != truth_allow {
            wrong_decision += 1;
        }
    }

    row(
        "Policy compilable while user logged off",
        "at-decision: yes / at-insert: no",
        &format!(
            "at-decision: yes / at-insert: {} (failures={})",
            if compiled_at_start.is_some() {
                "yes"
            } else {
                "no"
            },
            uncompilable
        ),
    );
    row(
        "Decision errors under binding churn",
        "at-decision: 0",
        &format!(
            "at-decision: {}/{} — at-insert: {}/{} ({:.1}%)",
            wrong_decision_dfi,
            trials,
            wrong_decision,
            trials,
            100.0 * wrong_decision as f64 / trials as f64
        ),
    );
    println!();
    println!("reading: compiling policies to addresses at insert time both fails for");
    println!("logged-off users and silently enforces stale bindings as the user moves;");
    println!("resolving at decision time (DFI) tracks the live binding state exactly.");
    assert_eq!(wrong_decision_dfi, 0, "DFI strategy must be error-free");
}
