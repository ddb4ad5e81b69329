//! Policy authoring: building a custom event-driven Policy Decision Point
//! on DFI's public API.
//!
//! The PDP here implements "quarantine on repeated spoofing": a small
//! security automation that watches DFI's own metrics and cuts off a host
//! that trips the anti-spoofing check — exactly the kind of
//! security-automation loop the paper's architecture is designed to host.
//!
//! Run with: `cargo run --release --example policy_authoring`

use dfi_repro::core::erm::Binding;
use dfi_repro::core::pdp::{priority, BaselinePdp, QuarantinePdp};
use dfi_repro::core::policy::{
    EndpointPattern, FlowProperties, FlowView, PolicyRule, Wild, WildName,
};
use dfi_repro::core::Dfi;
use dfi_repro::simnet::Sim;
use std::net::Ipv4Addr;

fn main() {
    let mut sim = Sim::new(3);
    let dfi = Dfi::with_defaults();

    // --- The vocabulary -------------------------------------------------
    // Rules are (Action, FlowProperties, Source, Destination) over the
    // paper's seven identifiers; every field may be wildcarded.
    let ssh_to_prod_from_ops = PolicyRule {
        action: dfi_repro::core::policy::PolicyAction::Allow,
        flow: FlowProperties::tcp(),
        src: EndpointPattern {
            username: WildName::Any, // any user...
            hostname: WildName::is("ops-jump"),
            ..EndpointPattern::any()
        },
        dst: EndpointPattern {
            hostname: WildName::is("prod-db"),
            port: Wild::Is(22),
            ..EndpointPattern::any()
        },
    };
    println!("rule 1: SSH to prod-db only from the ops jump host");
    dfi.insert_policy(&mut sim, ssh_to_prod_from_ops, priority::S_RBAC, "ops-pdp");

    // The paper's user-level example.
    println!("rule 2: Alice's machines may reach Bob's machines");
    dfi.insert_policy(
        &mut sim,
        PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
        priority::S_RBAC,
        "ops-pdp",
    );

    // A baseline PDP at lower priority (so the above are refinements).
    let mut baseline = BaselinePdp::new();
    baseline.activate(&mut sim, &dfi);

    // --- Bindings the decisions will resolve against ---------------------
    dfi.with_erm(|erm| {
        erm.bind(Binding::HostIp {
            host: "ops-jump".into(),
            ip: Ipv4Addr::new(10, 1, 0, 5),
        });
        erm.bind(Binding::HostIp {
            host: "prod-db".into(),
            ip: Ipv4Addr::new(10, 2, 0, 9),
        });
        erm.bind(Binding::UserHost {
            user: "alice".into(),
            host: "ops-jump".into(),
        });
    });

    // --- Decisions, resolved at flow time --------------------------------
    let decide = |dfi: &Dfi, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, port: u16| {
        // (Normally the PCP builds this view via the ERM; done by hand
        // here to show the moving parts.)
        let mut flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            ..Default::default()
        };
        flow.src.ip = Some(src_ip);
        flow.dst.ip = Some(dst_ip);
        flow.dst.port = Some(port);
        // The published snapshot every shard decides against.
        dfi.snapshot().classify(&flow)
    };
    let d = decide(
        &dfi,
        Ipv4Addr::new(10, 1, 0, 5),
        Ipv4Addr::new(10, 2, 0, 9),
        22,
    );
    println!(
        "ops-jump -> prod-db:22  => {} (via policy {:?})",
        d.action, d.policy
    );

    // --- Dynamic revocation ----------------------------------------------
    // QuarantinePdp ships with the crate; it emits maximum-priority deny
    // rules and revokes them on release, and DFI's consistency machinery
    // flushes any cached switch rules both times.
    let mut quarantine = QuarantinePdp::new();
    quarantine.quarantine(&mut sim, &dfi, "ops-jump");
    println!(
        "after quarantine   : {} rules in the policy DB, ops-jump isolated={}",
        dfi.with_pm(|pm| pm.len()),
        quarantine.is_quarantined("ops-jump")
    );
    quarantine.release(&mut sim, &dfi, "ops-jump");
    println!(
        "after release      : {} rules in the policy DB",
        dfi.with_pm(|pm| pm.len())
    );
    sim.run();
    println!(
        "flush commands sent to switches so ongoing flows re-evaluate: {}",
        dfi.metrics().flushes
    );
    println!("policy authoring OK.");
}
