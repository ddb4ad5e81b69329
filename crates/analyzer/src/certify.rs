//! Snapshot certification: the publish gate between the Policy Manager
//! and the hot-path [`dfi_core::policy::PolicySnapshot`].
//!
//! The DFI control front re-lowers its rule set into an immutable snapshot
//! once per policy commit and — when a gate is installed via
//! [`dfi_core::ControlFront::set_snapshot_gate`] — asks the gate to
//! certify the candidate before swapping it in. This module provides that
//! gate, built on the incremental [`DeltaAnalyzer`]:
//!
//! * [`Certifier`] wraps a `DeltaAnalyzer` and, per certification, drains
//!   the manager's change journal ([`DeltaAnalyzer::sync`]) and converts
//!   the **newly raised** Allow/Deny conflicts and shadowed rules into
//!   [`SnapshotWitness`]es — the refusal evidence. Findings that merely
//!   update, clear, or belong to other kinds (redundancy, unreachable
//!   patterns) never block publication.
//! * [`wire_snapshot_gate`] installs the hook on a live proxy front, in
//!   any mode, and — the same journal drain — hands *every* finding event
//!   back for the front to announce on its bus
//!   ([`dfi_core::events::topic::ANALYZER_FINDINGS`]), so the online
//!   verifier needs nothing beyond the commit path: policy mutation
//!   itself triggers incremental re-analysis.
//!
//! Refusal semantics: the Policy Manager keeps the mutation (the PDP owns
//! intent; refusing the *store* would silently drop an order), but the
//! compiled snapshot is not swapped — the last certified snapshot keeps
//! deciding flows until a later mutation (typically the PDP revoking or
//! re-ranking one side of the conflict) certifies clean. See
//! `DESIGN.md` §10 for the full build → certify → swap → retire
//! lifecycle.

use crate::bus::bus_event;
use crate::delta::{DeltaAnalyzer, FindingEvent};
use crate::diag::DiagnosticKind;
use crate::policy_passes::IdentifierUniverse;
use dfi_core::events::SnapshotWitness;
use dfi_core::policy::PolicyManager;
use dfi_core::{FrontHandle, GateVerdict};
use std::cell::RefCell;
use std::rc::Rc;

/// `true` for the finding kinds that block snapshot publication: a new
/// Allow/Deny conflict or a newly shadowed rule means the mutation
/// changed the meaning of already-certified policy, not just added noise.
fn blocks_publication(kind: DiagnosticKind) -> bool {
    matches!(
        kind,
        DiagnosticKind::AllowDenyConflict | DiagnosticKind::ShadowedRule
    )
}

/// Incremental snapshot certifier: one [`DeltaAnalyzer`] whose journal
/// keeps pace with the Policy Manager, re-used across certifications.
pub struct Certifier {
    da: DeltaAnalyzer,
}

impl Certifier {
    /// Seeds a certifier from the manager's current rule set (enabling
    /// its delta journal). The returned events describe the pre-existing
    /// findings — pre-existing conflicts are *reported*, not refused;
    /// only findings raised by later mutations block publication.
    pub fn new(
        pm: &mut PolicyManager,
        universe: Option<IdentifierUniverse>,
    ) -> (Certifier, Vec<FindingEvent>) {
        let (da, seed) = DeltaAnalyzer::from_pm(pm, universe);
        (Certifier { da }, seed)
    }

    /// Certifies the manager's pending mutations: drains the journal,
    /// re-analyzes incrementally, and splits the outcome into the full
    /// finding-event stream (for the bus) and the refusal witnesses
    /// (newly raised conflict/shadow findings, empty ⇒ publish).
    pub fn certify(&mut self, pm: &mut PolicyManager) -> (Vec<FindingEvent>, Vec<SnapshotWitness>) {
        let events = self.da.sync(pm);
        let witnesses = events
            .iter()
            .filter_map(|ev| match ev {
                FindingEvent::Raised { diag, .. } if blocks_publication(diag.kind) => {
                    Some(SnapshotWitness {
                        kind: diag.kind.to_string(),
                        rules: diag.rules.iter().map(|r| r.0).collect(),
                        message: match &diag.witness {
                            Some(flow) => format!("{} (witness flow: {flow:?})", diag.message),
                            None => diag.message.clone(),
                        },
                    })
                }
                _ => None,
            })
            .collect();
        (events, witnesses)
    }

    /// The wrapped analyzer's current active findings (diagnostics in the
    /// full analyzer's canonical order).
    #[must_use]
    pub fn diagnostics(&self) -> Vec<crate::diag::Diagnostic> {
        self.da.diagnostics()
    }
}

/// Wires a [`Certifier`] into a live proxy front as its snapshot gate and
/// returns a shared handle to it. `front` is any mode's handle: `&Dfi`
/// (one shard or N cooperative shards) or `&mut ParallelShardedDfi`.
///
/// From this call on, every policy commit (`commit_policy`, and the
/// one-mutation `insert_policy`/`revoke_policy`/`re_rank_policy`):
///
/// 1. triggers an incremental re-analysis of exactly the mutated rules
///    (journal-driven, nothing else to schedule),
/// 2. announces every raised/updated/cleared finding on
///    [`dfi_core::events::topic::ANALYZER_FINDINGS`] (in modes with a bus)
///    — PDP reactions such as `QuarantinePdp::wire_analyzer_findings` fire
///    as before, and
/// 3. refuses snapshot publication (with witnesses on
///    [`dfi_core::events::topic::SNAPSHOTS`]) when the mutation raised a
///    new Allow/Deny conflict or shadowed rule.
///
/// The seed pass over pre-existing rules is *not* announced here (the
/// caller can read it via [`Certifier::diagnostics`]); only mutations
/// after wiring stream events.
#[must_use]
pub fn wire_snapshot_gate(
    front: impl FrontHandle,
    universe: Option<IdentifierUniverse>,
) -> Rc<RefCell<Certifier>> {
    front.with_front(|front| {
        let (certifier, _seed) = front.with_pm(|pm| Certifier::new(pm, universe));
        let certifier = Rc::new(RefCell::new(certifier));
        let hook_certifier = Rc::clone(&certifier);
        front.set_snapshot_gate(Box::new(move |pm| {
            let (events, witnesses) = hook_certifier.borrow_mut().certify(pm);
            let findings = events
                .iter()
                .map(|ev| bus_event(ev.id(), ev.is_active(), ev.diag()))
                .collect();
            GateVerdict {
                witnesses,
                findings,
            }
        }));
        certifier
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfi_core::policy::{EndpointPattern, PolicyRule};

    #[test]
    fn new_conflicts_block_but_preexisting_ones_only_report() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
            5,
            "t",
        );
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host("srv")),
            9,
            "t",
        );
        // Seeding over an already-conflicted store reports, never refuses.
        let (mut cert, seed) = Certifier::new(&mut pm, None);
        assert!(!seed.is_empty());
        let (_, witnesses) = cert.certify(&mut pm);
        assert!(witnesses.is_empty(), "no mutation, nothing to refuse");

        // A mutation that raises a *new* conflict is refused with the
        // conflicting pair as witness.
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host("db")),
            9,
            "t",
        );
        let (_, w) = cert.certify(&mut pm);
        assert!(w.is_empty(), "non-overlapping deny is clean");
        let (allow_db, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("db")),
            2,
            "t",
        );
        let (_, w) = cert.certify(&mut pm);
        assert!(!w.is_empty(), "outranked opposite action must be witnessed");
        for witness in &w {
            assert!(witness.rules.contains(&allow_db.0));
            assert!(
                witness.kind == "allow-deny-conflict" || witness.kind == "shadowed-rule",
                "unexpected kind {}",
                witness.kind
            );
        }
    }
}
