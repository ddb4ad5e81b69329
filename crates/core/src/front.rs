//! The control front: the one control plane every proxy mode runs.
//!
//! The paper's DFI has one Policy Manager whose commits the PCP serves and
//! whose revocations it flushes by cookie. [`ControlFront`] is that control
//! plane, written once: it owns the only [`PolicyManager`], the snapshot
//! and binding-batch epoch counters, the certification gate and
//! compile-once publication, refusal deferral and the recovery re-flush,
//! the retention ring and rollback, default-deny note gathering, and
//! MAC-location routing of binding batches. It reaches its data shards
//! ([`DataShard`](crate::DataShard)s, which hold no policy state of their
//! own) through a [`ShardLink`]:
//!
//! * [`Dfi`](crate::Dfi) links N shards by direct calls on the caller's
//!   simulation (N = 1 is the paper's single proxy);
//! * [`ParallelShardedDfi`](crate::ParallelShardedDfi) links one shard per
//!   worker thread through command channels, publishing behind an epoch
//!   barrier.
//!
//! # One commit, in order
//!
//! [`ControlFront::commit_policy`] runs every policy change — insert,
//! revoke, re-rank, rollback, repair — through the same steps, in this
//! order (each flush samples the bus latency from the simulation's RNG, so
//! the order is part of the behaviour the differential oracles pin):
//!
//! 1. gather the shards' default-deny notes (when the commit inserts);
//! 2. [`PolicyManager::commit`];
//! 3. the flush fan-out: cache invalidation plus cookie delete, on every
//!    shard;
//! 4. the gate, whose finding events are announced on the bus of a mode
//!    that has one;
//! 5. compile once;
//! 6. publish the same `Arc` to every shard;
//! 7. on a recovery, re-flush the cookies deferred by refused commits;
//! 8. announce `SnapshotPublished`, or `SnapshotRefused` when the gate
//!    refused — then no shard is touched and the commit's flushes join
//!    the deferred set.

use crate::dfi::{BindingBatch, BindingOp, DfiMetrics};
use crate::erm::Binding;
use crate::events::{topic, DfiEvent, RepairStepData, SnapshotWitness};
use crate::policy::{
    CommitOutcome, PolicyId, PolicyManager, PolicyMutation, PolicyRule, PolicySnapshot,
};
use dfi_simnet::topo::shard_of;
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// What a certification gate decided about a pending commit.
#[derive(Clone, Debug, Default)]
pub struct GateVerdict {
    /// Evidence of new conflicts or shadowing the commit introduced;
    /// empty certifies the commit.
    pub witnesses: Vec<SnapshotWitness>,
    /// Events announced on [`topic::ANALYZER_FINDINGS`] (in modes with a
    /// bus) before the verdict takes effect.
    pub findings: Vec<DfiEvent>,
}

/// The certification hook consulted before every publication. It is
/// handed only the Policy Manager, whose journal holds the pending commit;
/// the analyzer-side wiring (`dfi_analyze::certify`) installs it, keeping
/// `dfi-core` below the analyzer in the crate graph.
pub type SnapshotGate = Box<dyn FnMut(&mut PolicyManager) -> GateVerdict>;

/// The front's own counters, distinct from the per-shard [`DfiMetrics`].
#[derive(Clone, Debug, Default)]
pub struct ShardFanoutMetrics {
    /// Certified snapshots compiled once and published to every shard.
    pub snapshot_fanouts: u64,
    /// Publications refused by the gate (no shard touched).
    pub snapshot_refusals: u64,
    /// Binding batches routed to the shards.
    pub binding_batches: u64,
    /// Individual binding ops carried by those batches, summed over the
    /// shards each op was delivered to.
    pub binding_ops_delivered: u64,
    /// Cookie-flush fan-outs (each touches every shard).
    pub flush_fanouts: u64,
}

/// How a [`ControlFront`] reaches its data shards. Every call addresses
/// every shard unless it names one; the front never learns how.
pub trait ShardLink {
    /// What a call needs from its caller besides the link: the shared
    /// simulation for direct shards, nothing across worker channels.
    type Cx;

    /// Number of shards (at least one).
    fn shard_count(&self) -> usize;

    /// Takes and clears every shard's default-deny note; `true` if any
    /// shard had issued a default deny since the last take.
    fn take_default_deny_notes(&mut self) -> bool;

    /// Drops each id's memoized decisions and deletes its cookie from
    /// every switch, shard by shard.
    fn flush(&mut self, cx: &mut Self::Cx, ids: &[PolicyId]);

    /// Serves `snapshot` on every shard before returning. A recovery also
    /// expires every memoized decision older than the snapshot.
    fn install(&mut self, snapshot: &Arc<PolicySnapshot>, recovery: bool);

    /// Delivers one binding batch to shard `shard`.
    fn bindings(&mut self, shard: usize, batch: Cow<'_, BindingBatch>);

    /// Runs one switch-targeted repair step (`RePunt` or `InstallExact`)
    /// on shard `shard`, which owns the step's dpid.
    fn switch_step(&mut self, cx: &mut Self::Cx, shard: usize, step: &RepairStepData);

    /// Announces `event` on `topic` where the mode has a bus.
    fn announce(&mut self, cx: &mut Self::Cx, topic: &'static str, event: DfiEvent);
}

/// The control plane of one proxy, over the data shards its link reaches
/// (see the module docs for the commit sequence).
pub struct ControlFront<L> {
    pm: PolicyManager,
    /// The last published snapshot; its epoch is the publication counter.
    served: Arc<PolicySnapshot>,
    /// Highest binding-batch epoch stamped or accepted; 0 until then.
    binding_epoch: u64,
    /// `Some` while the gate refuses: the served snapshot lags the Policy
    /// Manager, and the set holds every cookie the refused commits
    /// flushed, for the recovery publication to re-flush once each.
    deferred: Option<BTreeSet<PolicyId>>,
    gate: Option<SnapshotGate>,
    /// Retired snapshots to keep for rollback (0 keeps none).
    retention: usize,
    /// The retention ring, oldest first.
    history: VecDeque<Arc<PolicySnapshot>>,
    metrics: ShardFanoutMetrics,
    link: L,
}

impl<L: ShardLink> ControlFront<L> {
    /// A front serving the empty snapshot (epoch 0) over `link`, keeping
    /// `retention` retired snapshots for rollback.
    #[must_use]
    pub(crate) fn new(link: L, retention: usize) -> ControlFront<L> {
        ControlFront {
            pm: PolicyManager::new(),
            served: Arc::new(PolicySnapshot::empty()),
            binding_epoch: 0,
            deferred: None,
            gate: None,
            retention,
            history: VecDeque::new(),
            metrics: ShardFanoutMetrics::default(),
            link,
        }
    }

    /// The link to the shards.
    pub(crate) fn link(&self) -> &L {
        &self.link
    }

    /// The link to the shards, for mode-specific traffic (punts, drains).
    pub(crate) fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// The shard owning `dpid` under the fleet-wide partition.
    #[must_use]
    pub fn shard_of(&self, dpid: u64) -> usize {
        shard_of(dpid, self.link.shard_count())
    }

    // ------------------------------------------------------------------
    // Policy commits
    // ------------------------------------------------------------------

    /// Applies `mutations` as one policy commit on behalf of a PDP (see
    /// the module docs for the steps). Intermediate states are never
    /// compiled, certified or served; a refusal defers the whole commit.
    /// A commit that changes nothing (only unknown ids) publishes nothing.
    pub fn commit_policy(
        &mut self,
        cx: &mut L::Cx,
        mutations: Vec<PolicyMutation>,
    ) -> CommitOutcome {
        // The notes are forwarded before the inserts so a conflicting
        // Allow flushes the cookie-0 rules the hot path installed.
        if mutations.iter().any(PolicyMutation::is_insert) && self.link.take_default_deny_notes() {
            self.pm.note_default_deny_cached();
        }
        let outcome = self.pm.commit(mutations);
        if outcome.applied > 0 {
            self.flush(cx, &outcome.flush);
            self.republish(cx, &outcome.flush);
        }
        outcome
    }

    /// Inserts a policy rule (a one-mutation commit). Conflicting
    /// lower-priority policies' derived flow rules (and, for Allow rules,
    /// cached default-deny rules) are flushed from every switch.
    pub fn insert_policy(
        &mut self,
        cx: &mut L::Cx,
        rule: PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> PolicyId {
        let outcome = self.commit_policy(cx, vec![PolicyMutation::insert(rule, priority, pdp)]);
        outcome.inserted[0]
    }

    /// Revokes a policy rule and flushes its derived flow rules from every
    /// switch (a one-mutation commit). Returns `false` for unknown ids.
    pub fn revoke_policy(&mut self, cx: &mut L::Cx, id: PolicyId) -> bool {
        let outcome = self.commit_policy(cx, vec![PolicyMutation::Revoke(id)]);
        outcome.applied > 0
    }

    /// Re-ranks a policy rule in place (same id, same cookie), flushing
    /// the derived flow rules of every policy whose arbitration inverted
    /// (a one-mutation commit). Returns `false` for unknown ids.
    pub fn re_rank_policy(&mut self, cx: &mut L::Cx, id: PolicyId, new_priority: u32) -> bool {
        let re_rank = PolicyMutation::ReRank {
            id,
            priority: new_priority,
        };
        self.commit_policy(cx, vec![re_rank]).applied > 0
    }

    /// One-command rollback: restores the Policy Manager to the retained
    /// snapshot stamped `epoch` as a one-mutation commit — the restore's
    /// flushes fan out, the gate re-certifies it, and it publishes under
    /// a fresh, strictly newer epoch. Returns `false` when no retained
    /// snapshot carries that epoch.
    pub fn rollback_snapshot(&mut self, cx: &mut L::Cx, epoch: u64) -> bool {
        let Some(target) = self.history.iter().find(|s| s.epoch() == epoch).cloned() else {
            return false;
        };
        self.commit_policy(cx, vec![PolicyMutation::Restore(target)]);
        true
    }

    /// Deletes `id`'s derived flow rules from every switch and drops its
    /// memoized decisions — the paper's consistency mechanism ("flow rules
    /// are removed quickly without paying the latency and performance
    /// costs of using hard timeouts"). Not gated: it only removes
    /// permissions.
    pub fn flush_policy_rules(&mut self, cx: &mut L::Cx, id: PolicyId) {
        self.flush(cx, &[id]);
    }

    /// Applies a verified repair plan's steps in order. Policy-editing
    /// steps are commits like any other; switch steps go to the shard
    /// owning their dpid, over the tracked-install path.
    pub fn apply_repair_steps(&mut self, cx: &mut L::Cx, steps: &[RepairStepData]) {
        for step in steps {
            match step {
                RepairStepData::FlushCookie { cookie, dpids } if dpids.is_empty() => {
                    self.flush_policy_rules(cx, PolicyId(*cookie));
                }
                RepairStepData::FlushCookie { cookie, dpids } => {
                    for &dpid in dpids {
                        let shard = self.shard_of(dpid);
                        let re_punt = RepairStepData::RePunt {
                            dpid,
                            cookie: *cookie,
                        };
                        self.link.switch_step(cx, shard, &re_punt);
                    }
                }
                RepairStepData::RePunt { dpid, .. } | RepairStepData::InstallExact { dpid, .. } => {
                    let shard = self.shard_of(*dpid);
                    self.link.switch_step(cx, shard, step);
                }
                RepairStepData::DeleteRule { rule } => {
                    self.revoke_policy(cx, PolicyId(*rule));
                }
                RepairStepData::ReRankRule { rule, new_priority } => {
                    self.re_rank_policy(cx, PolicyId(*rule), *new_priority);
                }
            }
        }
    }

    /// The flush fan-out: every shard, every id.
    fn flush(&mut self, cx: &mut L::Cx, ids: &[PolicyId]) {
        if ids.is_empty() {
            return;
        }
        self.metrics.flush_fanouts += 1;
        self.link.flush(cx, ids);
    }

    /// Certify → compile once → publish everywhere, or defer on refusal.
    /// The first clean publication after a refusal is a recovery: shards
    /// expire every older memoized decision, and the deferred cookies are
    /// re-flushed, because flows decided under the stale snapshot may have
    /// re-installed rules the deferred mutations outrank.
    fn republish(&mut self, cx: &mut L::Cx, flushed: &[PolicyId]) {
        let verdict = match self.gate.as_mut() {
            Some(gate) => gate(&mut self.pm),
            None => GateVerdict::default(),
        };
        for finding in verdict.findings {
            self.link.announce(cx, topic::ANALYZER_FINDINGS, finding);
        }
        if verdict.witnesses.is_empty() {
            let recovered = self.deferred.take();
            let snap = self.publish(recovered.is_some());
            if let Some(ids) = recovered {
                self.flush(cx, &ids.into_iter().collect::<Vec<_>>());
            }
            let event = DfiEvent::SnapshotPublished {
                epoch: snap.epoch(),
                revision: snap.revision(),
                rules: snap.rule_count() as u64,
            };
            self.link.announce(cx, topic::SNAPSHOTS, event);
        } else {
            self.deferred
                .get_or_insert_with(BTreeSet::new)
                .extend(flushed.iter().copied());
            self.metrics.snapshot_refusals += 1;
            let event = DfiEvent::SnapshotRefused {
                revision: self.pm.revision(),
                witnesses: verdict.witnesses,
            };
            self.link.announce(cx, topic::SNAPSHOTS, event);
        }
    }

    /// Compiles the Policy Manager once under the next epoch and serves it
    /// on every shard; the retired snapshot joins the retention ring.
    fn publish(&mut self, recovery: bool) -> Arc<PolicySnapshot> {
        let snap = Arc::new(PolicySnapshot::compile(&self.pm, self.served.epoch() + 1));
        self.link.install(&snap, recovery);
        self.metrics.snapshot_fanouts += 1;
        let retired = std::mem::replace(&mut self.served, Arc::clone(&snap));
        if self.retention > 0 {
            self.history.push_back(retired);
            while self.history.len() > self.retention {
                self.history.pop_front();
            }
        }
        snap
    }

    /// Installs the certification hook consulted before every
    /// publication; replaces any previous hook.
    pub fn set_snapshot_gate(&mut self, gate: SnapshotGate) {
        self.gate = Some(gate);
    }

    /// Runs a closure against the Policy Manager.
    ///
    /// This is the raw control-plane backdoor (tests, harnesses, the
    /// analyzer): it bypasses certification, flushes and events. If the
    /// closure mutated the store, the manager is compiled and served
    /// immediately, while switch-side state is deliberately left stale
    /// (that staleness is what the table-0 audit tests construct). A
    /// closure that only reads publishes nothing: neither the gate reading
    /// the commit it is deciding on nor a reader during a refused commit's
    /// deferral serves the uncertified state.
    pub fn with_pm<R>(&mut self, f: impl FnOnce(&mut PolicyManager) -> R) -> R {
        let revision = self.pm.revision();
        let r = f(&mut self.pm);
        if self.pm.revision() != revision {
            self.publish(false);
        }
        r
    }

    /// The currently published snapshot — the one every shard decides
    /// against.
    #[must_use]
    pub fn snapshot(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.served)
    }

    /// Sets how many retired snapshots the retention ring keeps (0 keeps
    /// none). Shrinking drops the oldest surplus at once.
    pub fn set_snapshot_retention(&mut self, keep: usize) {
        self.retention = keep;
        while self.history.len() > keep {
            self.history.pop_front();
        }
    }

    /// The retention ring, oldest first: the epochs
    /// [`ControlFront::rollback_snapshot`] can return to.
    #[must_use]
    pub fn snapshot_history(&self) -> Vec<Arc<PolicySnapshot>> {
        self.history.iter().cloned().collect()
    }

    /// The front's own counters.
    #[must_use]
    pub fn fanout_metrics(&self) -> ShardFanoutMetrics {
        self.metrics.clone()
    }

    /// Fills the fields of a merged shard report that only the front
    /// knows: certification refusals and the Policy Manager's index.
    pub(crate) fn fill_metrics(&self, m: &mut DfiMetrics) {
        m.snapshot_refusals = self.metrics.snapshot_refusals;
        m.policy_index = self.pm.index_stats();
    }

    // ------------------------------------------------------------------
    // Binding batches
    // ------------------------------------------------------------------

    /// Stamps `ops` as the next binding batch and routes it (see
    /// [`ControlFront::apply_binding_batch`]). Returns the stamp.
    pub fn apply_binding_ops(&mut self, ops: Vec<BindingOp>) -> u64 {
        self.binding_epoch += 1;
        let epoch = self.binding_epoch;
        self.route(Cow::Owned(BindingBatch { epoch, ops }));
        epoch
    }

    /// Routes a batch to the shards that need it: MAC-location ops go
    /// only to the shard owning their dpid (locations are learned from
    /// Packet-Ins, which only the owner sees), everything else to every
    /// shard. Returns `false`, routing nothing, when the batch's stamp is
    /// not newer than one already routed; epoch 0 is the unstamped
    /// wildcard and always routes.
    pub fn apply_binding_batch(&mut self, batch: &BindingBatch) -> bool {
        if batch.epoch != 0 {
            if batch.epoch <= self.binding_epoch {
                return false;
            }
            self.binding_epoch = batch.epoch;
        }
        self.route(Cow::Borrowed(batch));
        true
    }

    fn route(&mut self, batch: Cow<'_, BindingBatch>) {
        let n = self.link.shard_count();
        self.metrics.binding_batches += 1;
        let owner = |op: &BindingOp| match op {
            BindingOp::Bind(Binding::MacLocation { dpid, .. })
            | BindingOp::Unbind(Binding::MacLocation { dpid, .. }) => Some(shard_of(*dpid, n)),
            _ => None,
        };
        if n > 1 && batch.ops.iter().any(|op| owner(op).is_some()) {
            // Mixed batch: filter per shard, keeping op order.
            for shard in 0..n {
                let mine: Vec<BindingOp> = batch
                    .ops
                    .iter()
                    .filter(|op| owner(op).is_none_or(|o| o == shard))
                    .cloned()
                    .collect();
                if !mine.is_empty() {
                    self.metrics.binding_ops_delivered += mine.len() as u64;
                    let epoch = batch.epoch;
                    self.link
                        .bindings(shard, Cow::Owned(BindingBatch { epoch, ops: mine }));
                }
            }
        } else {
            // Broadcast: one batch, lent to every shard but the last.
            self.metrics.binding_ops_delivered += (batch.ops.len() * n) as u64;
            for shard in 0..n - 1 {
                self.link.bindings(shard, Cow::Borrowed(&*batch));
            }
            self.link.bindings(n - 1, batch);
        }
    }
}

/// A proxy handle that reaches its one [`ControlFront`], whatever the
/// mode — how mode-agnostic tooling (the analyzer's certification gate)
/// gets at the control plane.
pub trait FrontHandle {
    /// The mode's link to its shards.
    type Link: ShardLink;

    /// Runs `f` against the front.
    fn with_front<R>(self, f: impl FnOnce(&mut ControlFront<Self::Link>) -> R) -> R;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EndpointPattern;

    /// A link that records what reached each shard.
    #[derive(Default)]
    struct Recorder {
        shards: usize,
        installed: Vec<u64>,
        batches: Vec<(usize, BindingBatch)>,
    }

    impl ShardLink for Recorder {
        type Cx = ();
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn take_default_deny_notes(&mut self) -> bool {
            false
        }
        fn flush(&mut self, _: &mut (), _: &[PolicyId]) {}
        fn install(&mut self, snapshot: &Arc<PolicySnapshot>, _: bool) {
            self.installed.push(snapshot.epoch());
        }
        fn bindings(&mut self, shard: usize, batch: Cow<'_, BindingBatch>) {
            self.batches.push((shard, batch.into_owned()));
        }
        fn switch_step(&mut self, _: &mut (), _: usize, _: &RepairStepData) {}
        fn announce(&mut self, _: &mut (), _: &'static str, _: DfiEvent) {}
    }

    fn front(shards: usize, retention: usize) -> ControlFront<Recorder> {
        let link = Recorder {
            shards,
            ..Recorder::default()
        };
        ControlFront::new(link, retention)
    }

    fn rule(n: usize) -> PolicyRule {
        PolicyRule::allow(
            EndpointPattern::user(&format!("u{n}")),
            EndpointPattern::any(),
        )
    }

    #[test]
    fn retention_ring_keeps_the_last_n_published_snapshots() {
        let mut f = front(2, 2);
        for n in 0..5 {
            f.insert_policy(&mut (), rule(n), 10, "t");
        }
        assert_eq!(f.link().installed, vec![1, 2, 3, 4, 5]);
        let window: Vec<u64> = f.snapshot_history().iter().map(|s| s.epoch()).collect();
        assert_eq!(
            window,
            vec![3, 4],
            "oldest-first window of retired versions"
        );
        assert_eq!(f.snapshot().epoch(), 5);
        f.set_snapshot_retention(1);
        let window: Vec<u64> = f.snapshot_history().iter().map(|s| s.epoch()).collect();
        assert_eq!(
            window,
            vec![4],
            "shrinking drops the oldest surplus at once"
        );
        assert!(front(1, 0).snapshot_history().is_empty());
    }
}
