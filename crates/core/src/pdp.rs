//! Policy Decision Points: the components that turn events into policy.
//!
//! Paper §III-B: "The role of a PDP is to evaluate conditions that apply to
//! a desired event-driven access control policy … The PDP then decides
//! whether its policy applies based on those conditions, and automatically
//! creates or revokes rules that implement the current policy." DFI
//! supports multiple PDPs, each with a unique administrator-assigned
//! priority used to resolve conflicts between their rules.
//!
//! The three PDPs here are the paper's evaluation conditions plus its
//! motivating extension:
//!
//! * [`BaselinePdp`] — no access control (the §V "baseline" condition).
//! * [`SRbacPdp`] — static role-based access control: each host may reach
//!   its enclave-mates and the servers, indefinitely.
//! * [`AtRbacPdp`] — authentication-triggered RBAC, *the policy uniquely
//!   enabled by DFI*: a host gets its role-based reachability only while a
//!   user is logged on; with no user, only the core authentication
//!   services (DHCP/DNS/AD) are reachable.
//! * [`QuarantinePdp`] — "Quarantine Upon Compromise": an incident
//!   responder can cut a host off entirely, overriding everything below
//!   its priority.
//!
//! PDPs never touch the data plane directly. Each PDP event — an AT-RBAC
//! log-on or log-off, an `activate`, a quarantine or release — goes out as
//! one commit through [`Dfi::commit_policy`]: the Policy Manager applies
//! the event's rules in order, each flushed cookie leaves the switches
//! once, and one certify-then-publish pass compiles the committed rule set
//! into a fresh [`PolicySnapshot`], runs the incremental analyzer over the
//! whole delta, and only then atomically swaps the snapshot the flow-setup
//! path reads. No state between two rules of one event is ever compiled,
//! certified or served. A commit that would introduce an Allow/Deny
//! conflict is refused as a whole: the Policy Manager keeps every mutation,
//! none is served, witnesses go out on the bus, and the last certified
//! snapshot keeps deciding flows until a later clean commit publishes them
//! all — dynamic policy, but never a half-applied one.
//!
//! [`PolicySnapshot`]: crate::policy::PolicySnapshot

use crate::events::{topic, DfiEvent};
use crate::policy::{EndpointPattern, PolicyId, PolicyMutation, PolicyRule, RbacRoles};
use crate::shard::Dfi;
use dfi_simnet::Sim;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The authentication-path service ports that stay reachable under
/// AT-RBAC even with no logged-on user: DNS (53), DHCP (67/68), Kerberos
/// (88), LDAP (389). Deliberately *not* SMB — a worm cannot ride the
/// always-on authentication allowance.
pub const AUTH_SERVICE_PORTS: [u16; 5] = [53, 67, 68, 88, 389];

/// Conventional PDP priorities: quarantine overrides AT-RBAC overrides
/// S-RBAC overrides baseline.
pub mod priority {
    /// The baseline allow-all PDP.
    pub const BASELINE: u32 = 1;
    /// Static RBAC.
    pub const S_RBAC: u32 = 10;
    /// Authentication-triggered RBAC.
    pub const AT_RBAC: u32 = 20;
    /// Quarantine-upon-compromise.
    pub const QUARANTINE: u32 = 100;
}

/// The two role rules a host/peer pair gets, host → peer first.
fn both_ways(host: &str, peer: &str) -> [PolicyRule; 2] {
    [
        PolicyRule::allow(EndpointPattern::host(host), EndpointPattern::host(peer)),
        PolicyRule::allow(EndpointPattern::host(peer), EndpointPattern::host(host)),
    ]
}

/// Every ordered pair of distinct servers (operational needs).
fn server_mesh(roles: &RbacRoles) -> Vec<PolicyRule> {
    let servers = roles.servers();
    servers
        .iter()
        .flat_map(|a| {
            servers
                .iter()
                .filter(move |b| *b != a)
                .map(move |b| PolicyRule::allow(EndpointPattern::host(a), EndpointPattern::host(b)))
        })
        .collect()
}

/// One PDP's inserts of `rules`, in order.
fn inserts(
    rules: impl IntoIterator<Item = PolicyRule>,
    priority: u32,
    pdp: &str,
) -> Vec<PolicyMutation> {
    rules
        .into_iter()
        .map(|rule| PolicyMutation::insert(rule, priority, pdp))
        .collect()
}

/// The baseline condition: a fully connected network with no access
/// control (one allow-everything rule).
pub struct BaselinePdp {
    rule: Option<PolicyId>,
}

impl BaselinePdp {
    /// Creates the PDP (no rules emitted yet).
    #[must_use]
    pub fn new() -> BaselinePdp {
        BaselinePdp { rule: None }
    }

    /// Emits the allow-all rule.
    pub fn activate(&mut self, sim: &mut Sim, dfi: &Dfi) {
        self.rule =
            Some(dfi.insert_policy(sim, PolicyRule::allow_all(), priority::BASELINE, "baseline"));
    }
}

impl Default for BaselinePdp {
    fn default() -> Self {
        BaselinePdp::new()
    }
}

/// Static role-based access control (the paper's S-RBAC condition):
/// "access control is configured statically, indefinitely letting a host
/// communicate with others within a logical enclave based on its role
/// needs" — each host may exchange flows with (1) all hosts in its own
/// enclave and (2) each of the servers.
pub struct SRbacPdp {
    roles: RbacRoles,
    emitted: Vec<PolicyId>,
}

impl SRbacPdp {
    /// Creates the PDP over a role structure.
    #[must_use]
    pub fn new(roles: RbacRoles) -> SRbacPdp {
        SRbacPdp {
            roles,
            emitted: Vec::new(),
        }
    }

    /// Emits the full static rule set as one commit.
    pub fn activate(&mut self, sim: &mut Sim, dfi: &Dfi) {
        let mut rules = Vec::new();
        // Core services stay reachable for everyone (DHCP/DNS/AD et al.).
        for svc in self.roles.core_services() {
            rules.push(PolicyRule::allow(
                EndpointPattern::any(),
                EndpointPattern::host(svc),
            ));
            rules.push(PolicyRule::allow(
                EndpointPattern::host(svc),
                EndpointPattern::any(),
            ));
        }
        // Per-host role rules.
        for host in self.roles.all_enclave_hosts() {
            for peer in self.roles.role_peers(host) {
                rules.extend(both_ways(host, &peer));
            }
        }
        // Servers may talk among themselves (operational needs).
        rules.extend(server_mesh(&self.roles));
        let commit = inserts(rules, priority::S_RBAC, "s-rbac");
        self.emitted = dfi.commit_policy(sim, commit).inserted;
    }

    /// Ids of every rule this PDP emitted.
    #[must_use]
    pub fn emitted(&self) -> &[PolicyId] {
        &self.emitted
    }
}

/// Authentication-triggered role-based access control — the policy the
/// paper demonstrates as uniquely enabled by DFI (§V-B, AT-RBAC):
///
/// > "Role-based access for the user is allowed only after she
/// > authenticates and access is revoked upon logging off. When there is
/// > no user, flows are allowed only for a small set of services needed to
/// > authenticate (i.e., DHCP, DNS, AD)."
///
/// The PDP subscribes to the SIEM-derived log-on/log-off events on the DFI
/// bus and inserts/revokes the host's role rules accordingly.
pub struct AtRbacPdp {
    inner: Rc<RefCell<AtRbacInner>>,
}

struct AtRbacInner {
    roles: RbacRoles,
    dfi: Dfi,
    /// Rules currently installed per host, with the count of logged-on
    /// users keeping them alive.
    active: HashMap<String, HostGrant>,
    baseline: Vec<PolicyId>,
}

struct HostGrant {
    logged_on_users: u32,
    rules: Vec<PolicyId>,
}

impl AtRbacPdp {
    /// Creates the PDP and subscribes it to session events on the DFI bus.
    /// Also emits the always-on rules: core authentication services, and
    /// unconditional role access for servers (servers have no interactive
    /// users).
    pub fn activate(sim: &mut Sim, dfi: &Dfi, roles: RbacRoles) -> AtRbacPdp {
        let mut rules = Vec::new();
        for svc in roles.core_services() {
            // Only the authentication-path ports are reachable with no
            // user: the "small set of services needed to authenticate".
            for port in AUTH_SERVICE_PORTS {
                rules.push(PolicyRule::allow(
                    EndpointPattern::any(),
                    EndpointPattern::host_port(svc, port),
                ));
                rules.push(PolicyRule::allow(
                    EndpointPattern::host_port(svc, port),
                    EndpointPattern::any(),
                ));
            }
        }
        rules.extend(server_mesh(&roles));
        let commit = inserts(rules, priority::AT_RBAC, "at-rbac");
        let baseline = dfi.commit_policy(sim, commit).inserted;
        let pdp = AtRbacPdp {
            inner: Rc::new(RefCell::new(AtRbacInner {
                roles,
                dfi: dfi.clone(),
                active: HashMap::new(),
                baseline,
            })),
        };
        let sub = pdp.inner.clone();
        dfi.bus().subscribe(topic::SESSIONS, move |sim, ev| {
            if let DfiEvent::Session {
                user: _,
                host,
                logged_on,
            } = ev
            {
                if *logged_on {
                    AtRbacPdp::on_log_on(&sub, sim, host);
                } else {
                    AtRbacPdp::on_log_off(&sub, sim, host);
                }
            }
        });
        pdp
    }

    fn on_log_on(inner: &Rc<RefCell<AtRbacInner>>, sim: &mut Sim, host: &str) {
        // First user on the host: grant its role-based reachability.
        let needs_grant = {
            let mut i = inner.borrow_mut();
            let grant = i.active.entry(host.to_string()).or_insert(HostGrant {
                logged_on_users: 0,
                rules: Vec::new(),
            });
            grant.logged_on_users += 1;
            grant.logged_on_users == 1
        };
        if !needs_grant {
            return;
        }
        let (dfi, peers) = {
            let i = inner.borrow();
            (i.dfi.clone(), i.roles.role_peers(host))
        };
        let rules = peers.iter().flat_map(|peer| both_ways(host, peer));
        let outcome = dfi.commit_policy(sim, inserts(rules, priority::AT_RBAC, "at-rbac"));
        inner
            .borrow_mut()
            .active
            .get_mut(host)
            .expect("grant exists")
            .rules = outcome.inserted;
    }

    fn on_log_off(inner: &Rc<RefCell<AtRbacInner>>, sim: &mut Sim, host: &str) {
        let to_revoke = {
            let mut i = inner.borrow_mut();
            match i.active.get_mut(host) {
                Some(grant) if grant.logged_on_users > 0 => {
                    grant.logged_on_users -= 1;
                    if grant.logged_on_users == 0 {
                        let rules = std::mem::take(&mut grant.rules);
                        i.active.remove(host);
                        rules
                    } else {
                        Vec::new()
                    }
                }
                _ => Vec::new(),
            }
        };
        let dfi = inner.borrow().dfi.clone();
        dfi.commit_policy(
            sim,
            to_revoke.into_iter().map(PolicyMutation::Revoke).collect(),
        );
    }

    /// Number of hosts currently holding an active grant.
    #[must_use]
    pub fn hosts_with_access(&self) -> usize {
        self.inner.borrow().active.len()
    }

    /// Ids of the always-on (core service / server) rules.
    #[must_use]
    pub fn baseline_rules(&self) -> Vec<PolicyId> {
        self.inner.borrow().baseline.clone()
    }
}

/// Quarantine-upon-compromise: an incident responder isolates a host with
/// two maximum-priority deny rules; releasing revokes them (and DFI's
/// consistency machinery re-evaluates ongoing flows both times).
pub struct QuarantinePdp {
    quarantined: HashMap<String, Vec<PolicyId>>,
    remediated: Vec<PolicyId>,
    applied_repairs: Vec<String>,
}

impl QuarantinePdp {
    /// Creates the PDP.
    #[must_use]
    pub fn new() -> QuarantinePdp {
        QuarantinePdp {
            quarantined: HashMap::new(),
            remediated: Vec::new(),
            applied_repairs: Vec::new(),
        }
    }

    /// Subscribes the PDP to the online verifier's findings: a raised
    /// `orphan-cookie` or `partial-flush` finding means a revocation flush
    /// failed to reach some switch, leaving rules for a dead policy in the
    /// data plane. The incident responder's remediation is the paper's own
    /// consistency mechanism, re-run: flush the dead cookie network-wide.
    ///
    /// The PDP never parses the analyzer's message text — it keys on the
    /// stable kind slug and the raw policy ids carried by the event, which
    /// is all the stringly [`DfiEvent::AnalyzerFinding`] envelope promises.
    pub fn wire_analyzer_findings(this: &Rc<RefCell<QuarantinePdp>>, dfi: &Dfi) {
        let this = this.clone();
        let reflusher = dfi.clone();
        dfi.bus()
            .subscribe(topic::ANALYZER_FINDINGS, move |sim, ev: &DfiEvent| {
                let DfiEvent::AnalyzerFinding {
                    raised: true,
                    kind,
                    rules,
                    ..
                } = ev
                else {
                    return;
                };
                if kind != "orphan-cookie" && kind != "partial-flush" {
                    return;
                }
                for &raw in rules {
                    let id = PolicyId(raw);
                    this.borrow_mut().remediated.push(id);
                    reflusher.flush_policy_rules(sim, id);
                }
            });
    }

    /// Dead policies re-flushed in response to verifier findings, in the
    /// order the findings arrived (repeats possible if a finding is
    /// re-raised).
    #[must_use]
    pub fn remediated(&self) -> &[PolicyId] {
        &self.remediated
    }

    /// Subscribes the PDP to certified repair plans: every
    /// [`DfiEvent::RepairProposed`] on the findings topic is applied
    /// verbatim through [`Dfi::apply_repair_steps`]. Unlike
    /// [`wire_analyzer_findings`](QuarantinePdp::wire_analyzer_findings),
    /// which re-derives a fix from two finding kinds it understands, this
    /// wiring trusts the analyzer's verification: the plan already cleared
    /// its finding on a hypothetical world without raising new ones, so the
    /// PDP executes it for *any* finding kind.
    ///
    /// Do **not** combine this with `audit_and_repair_live(.., apply=true)`
    /// on the same `Dfi` — the plan would be applied twice.
    pub fn wire_repair_proposals(this: &Rc<RefCell<QuarantinePdp>>, dfi: &Dfi) {
        let this = this.clone();
        let applier = dfi.clone();
        dfi.bus()
            .subscribe(topic::ANALYZER_FINDINGS, move |sim, ev: &DfiEvent| {
                let DfiEvent::RepairProposed { kind, steps, .. } = ev else {
                    return;
                };
                this.borrow_mut().applied_repairs.push(kind.clone());
                applier.apply_repair_steps(sim, steps);
            });
    }

    /// Finding kinds whose certified repair plans this PDP has applied, in
    /// arrival order.
    #[must_use]
    pub fn applied_repairs(&self) -> &[String] {
        &self.applied_repairs
    }

    /// Cuts `host` off from the network in both directions: both denies
    /// go out as one commit, so they are served together or not at all.
    pub fn quarantine(&mut self, sim: &mut Sim, dfi: &Dfi, host: &str) {
        if self.quarantined.contains_key(host) {
            return;
        }
        let denies = [
            PolicyRule::deny(EndpointPattern::host(host), EndpointPattern::any()),
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host(host)),
        ];
        let commit = inserts(denies, priority::QUARANTINE, "quarantine");
        let outcome = dfi.commit_policy(sim, commit);
        self.quarantined.insert(host.to_string(), outcome.inserted);
    }

    /// Restores a quarantined host, revoking both denies as one commit.
    pub fn release(&mut self, sim: &mut Sim, dfi: &Dfi, host: &str) {
        if let Some(rules) = self.quarantined.remove(host) {
            dfi.commit_policy(sim, rules.into_iter().map(PolicyMutation::Revoke).collect());
        }
    }

    /// `true` while the host is isolated.
    #[must_use]
    pub fn is_quarantined(&self, host: &str) -> bool {
        self.quarantined.contains_key(host)
    }
}

impl Default for QuarantinePdp {
    fn default() -> Self {
        QuarantinePdp::new()
    }
}
