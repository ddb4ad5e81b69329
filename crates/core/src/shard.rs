//! The sharded DFI proxy: per-dpid scale-out of the control plane.
//!
//! The paper's DFI is one proxy process in front of one controller; its
//! measured ceiling is ~1350 flows/sec (Table I). A fleet of a thousand
//! switches needs more, and because the PR 6 refactor made the hot path
//! read an immutable [`PolicySnapshot`], scaling out is no longer a
//! locking problem — it is a *publication-fanout and binding-ownership*
//! problem. This module solves exactly that:
//!
//! * **Ownership.** A [`ShardedDfi`] front-end partitions switches over N
//!   worker shards by dpid ([`dfi_simnet::topo::shard_of`] — the same pure
//!   function the topology tests check is a partition). Each shard is a
//!   complete [`Dfi`]: its own PCP/binding/policy queueing stations, its
//!   own [`DecisionCache`](crate::DecisionCache)-backed PCP, its own
//!   `SnapshotStore` reader, and its own ERM replica. A switch's entire
//!   packet-in/install/flush lifecycle happens on its owning shard.
//! * **Policy truth.** The front-end owns the one [`PolicyManager`].
//!   A commit ([`ShardedDfi::commit_policy`]; `insert_policy` /
//!   `revoke_policy` are one-mutation commits) updates it, fans the union
//!   of the resulting cookie flushes to every shard once (cache
//!   invalidation at the same point as the switch-side flush, exactly like
//!   the unsharded path), then compiles **once** and publishes the same
//!   `Arc<PolicySnapshot>` into every shard's store. The fanout is atomic
//!   with respect to the simulation: it completes within one event, so no
//!   two shards ever serve different certified epochs to the same flow's
//!   path ([`ShardedDfi::served_epochs`] lets tests assert agreement).
//! * **Certification.** A [`ShardSnapshotGate`] is consulted before every
//!   publication, mirroring the unsharded gate: a refusal defers — *no*
//!   shard receives the candidate, all keep serving the prior epoch — and
//!   the next clean publication is a recovery that re-issues deferred
//!   flushes and bulk-expires stale cache entries on every shard. Shards
//!   retain the last [`SNAPSHOT_RETENTION`] retired certified snapshots
//!   ([`Dfi::snapshot_history`]), giving a rollback window and letting
//!   tests prove single-compilation fanout by pointer identity.
//! * **Binding fanout.** Sensor events (DHCP, DNS, SIEM) land on the
//!   front-end's bus. Each is turned into a [`BindingOp`] and fanned out
//!   as an epoch-stamped [`BindingBatch`]: strictly increasing epochs,
//!   applied at most once per shard, stale deliveries ignored. IP-, name-
//!   and session-keyed ops broadcast to every shard (any shard may resolve
//!   flows through those identifiers); MAC-location ops route to the
//!   owning shard only (locations are learned from packet-ins, which only
//!   the owner sees). Application uses the same
//!   [`binding_op_of_event`](crate::dfi::binding_op_of_event) mapping and
//!   invalidation rules as a directly-subscribed DFI, which is what makes
//!   the sharded system decision-equivalent to the unsharded oracle
//!   (proved by `tests/sharded_oracle.rs`).
//!
//! # What a shard `Dfi` must never do
//!
//! A shard's own `PolicyManager` stays empty forever; its policy state
//! arrives exclusively through snapshot fanout. Calling `insert_policy`,
//! `revoke_policy`, or a mutating `with_pm` *on a shard* would republish
//! from that empty manager and wipe the shard's served policy. The shard
//! handles returned by [`ShardedDfi::shards`] are for observation
//! (metrics, table state, ERM queries) and switch wiring only.

use crate::dfi::{binding_op_of_event, BindingBatch, BindingOp, Dfi, DfiConfig, DfiMetrics};
use crate::erm::Binding;
use crate::events::{topic, DfiEvent, SnapshotWitness};
use crate::policy::{
    CommitOutcome, PolicyId, PolicyManager, PolicyMutation, PolicyRule, PolicySnapshot,
};
use dfi_bus::Bus;
use dfi_dataplane::{ByteSink, Switch};
use dfi_simnet::topo::shard_of;
use dfi_simnet::Sim;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Retired certified snapshots each shard's store keeps (the versioned
/// rollback window).
pub const SNAPSHOT_RETENTION: usize = 4;

/// The sharded certification hook: consulted before every snapshot
/// publication, exactly like the unsharded
/// [`SnapshotGate`](crate::SnapshotGate) but handed the front-end. Taken
/// out while running, so it may re-enter `ShardedDfi` methods.
pub type ShardSnapshotGate = Box<dyn FnMut(&mut Sim, &ShardedDfi) -> Vec<SnapshotWitness>>;

/// Fanout-plane counters (the front-end's own work, distinct from the
/// per-shard [`DfiMetrics`]).
#[derive(Clone, Debug, Default)]
pub struct ShardFanoutMetrics {
    /// Certified snapshots compiled once and fanned to every shard.
    pub snapshot_fanouts: u64,
    /// Publications refused by the gate (no shard touched).
    pub snapshot_refusals: u64,
    /// Epoch-stamped binding batches fanned out.
    pub binding_batches: u64,
    /// Individual binding ops carried by those batches, summed over the
    /// shards each op was delivered to.
    pub binding_ops_delivered: u64,
    /// Cookie-flush fanouts (each touches every shard).
    pub flush_fanouts: u64,
}

struct FrontInner {
    pm: PolicyManager,
    /// Monotonic snapshot publication counter (front-end wide; shard
    /// stores only ever see epochs from this sequence).
    next_epoch: u64,
    /// Monotonic binding-batch stamp; starts at 1 so stamp 0 stays the
    /// "unstamped" wildcard.
    next_binding_epoch: u64,
    /// `true` while the served snapshots lag the Policy Manager because
    /// the gate refused publication.
    publish_deferred: bool,
    /// Cookie flushes to re-issue on every shard at the recovery
    /// publication.
    deferred_flushes: Vec<PolicyId>,
    gate: Option<ShardSnapshotGate>,
    metrics: ShardFanoutMetrics,
}

/// The sharded DFI front-end. Cheap to clone (shared handle), like [`Dfi`].
#[derive(Clone)]
pub struct ShardedDfi {
    shards: Rc<Vec<Dfi>>,
    inner: Rc<RefCell<FrontInner>>,
    bus: Bus<DfiEvent>,
}

impl ShardedDfi {
    /// Builds a front-end over `n_shards` complete DFI worker shards, each
    /// configured with its own copy of `config`, and subscribes the
    /// front-end's binding fanout to the sensor topics on the returned
    /// handle's bus.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0`.
    #[must_use]
    pub fn new(n_shards: usize, config: &DfiConfig) -> ShardedDfi {
        assert!(n_shards > 0, "a sharded DFI needs at least one shard");
        let shards: Vec<Dfi> = (0..n_shards).map(|_| Dfi::new(config.clone())).collect();
        for shard in &shards {
            shard.set_snapshot_retention(SNAPSHOT_RETENTION);
        }
        let bus = Bus::new(config.bus_latency.clone());
        let me = ShardedDfi {
            shards: Rc::new(shards),
            inner: Rc::new(RefCell::new(FrontInner {
                pm: PolicyManager::new(),
                next_epoch: 0,
                next_binding_epoch: 1,
                publish_deferred: false,
                deferred_flushes: Vec::new(),
                gate: None,
                metrics: ShardFanoutMetrics::default(),
            })),
            bus,
        };
        me.subscribe_sensors();
        me
    }

    /// The front-end's sensor/event bus. Sensors publish here (not on any
    /// shard's private bus); snapshot publications and refusals are
    /// announced here too.
    #[must_use]
    pub fn bus(&self) -> &Bus<DfiEvent> {
        &self.bus
    }

    fn subscribe_sensors(&self) {
        for t in [topic::LEASES, topic::NAMES, topic::SESSIONS] {
            let me = self.clone();
            self.bus.subscribe(t, move |_sim, ev| {
                if let Some(op) = binding_op_of_event(ev) {
                    let _epoch = me.apply_binding_ops(vec![op]);
                }
            });
        }
    }

    // ------------------------------------------------------------------
    // Ownership and switch wiring
    // ------------------------------------------------------------------

    /// The worker shards (observation and wiring only — see the module
    /// docs for what must never be called on a shard).
    #[must_use]
    pub fn shards(&self) -> &[Dfi] {
        &self.shards
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `dpid` under the fleet-wide partition.
    #[must_use]
    pub fn shard_of(&self, dpid: u64) -> usize {
        shard_of(dpid, self.shards.len())
    }

    /// Interposes the owning shard between `switch` and its controller
    /// (see [`Dfi::interpose`]). Returns the owning shard's index.
    pub fn interpose(
        &self,
        sim: &mut Sim,
        switch: &Switch,
        connect_controller: impl FnOnce(&mut Sim, ByteSink) -> ByteSink,
    ) -> usize {
        let shard = self.shard_of(switch.dpid());
        self.shards[shard].interpose(sim, switch, connect_controller);
        shard
    }

    /// Registers a switch control channel on the owning shard (manual
    /// wiring, e.g. through fault-injecting sinks). Returns
    /// `(shard, conn)`; `conn` indexes the *shard's* connections, for use
    /// with [`Dfi::from_switch_sink`] / [`Dfi::set_controller_sink`] on
    /// `self.shards()[shard]`.
    pub fn attach_switch_channel(&self, to_switch: ByteSink, dpid: u64) -> (usize, usize) {
        let shard = self.shard_of(dpid);
        let conn = self.shards[shard].attach_switch_channel(to_switch, dpid);
        (shard, conn)
    }

    // ------------------------------------------------------------------
    // Binding fanout
    // ------------------------------------------------------------------

    /// Stamps `ops` as one batch and fans it to the shards that need it:
    /// MAC-location ops go only to the shard owning their dpid, everything
    /// else broadcasts. Returns the batch's epoch stamp.
    #[must_use]
    pub fn apply_binding_ops(&self, ops: Vec<BindingOp>) -> u64 {
        let epoch = {
            let mut inner = self.inner.borrow_mut();
            let epoch = inner.next_binding_epoch;
            inner.next_binding_epoch += 1;
            inner.metrics.binding_batches += 1;
            epoch
        };
        let routed = ops.iter().any(|op| {
            matches!(
                op,
                BindingOp::Bind(Binding::MacLocation { .. })
                    | BindingOp::Unbind(Binding::MacLocation { .. })
            )
        });
        let mut delivered = 0u64;
        if routed {
            // Mixed batch: filter per shard, keeping op order.
            for (idx, shard) in self.shards.iter().enumerate() {
                let mine: Vec<BindingOp> = ops
                    .iter()
                    .filter(|op| {
                        let b = match op {
                            BindingOp::Bind(b) | BindingOp::Unbind(b) => b,
                        };
                        match b {
                            Binding::MacLocation { dpid, .. } => self.shard_of(*dpid) == idx,
                            _ => true,
                        }
                    })
                    .cloned()
                    .collect();
                if !mine.is_empty() {
                    delivered += mine.len() as u64;
                    let _fresh = shard.apply_binding_batch(&BindingBatch { epoch, ops: mine });
                }
            }
        } else {
            // Pure broadcast: build the batch once, deliver by reference.
            let batch = BindingBatch { epoch, ops };
            for shard in self.shards.iter() {
                let _fresh = shard.apply_binding_batch(&batch);
                delivered += batch.ops.len() as u64;
            }
        }
        self.inner.borrow_mut().metrics.binding_ops_delivered += delivered;
        epoch
    }

    // ------------------------------------------------------------------
    // Policy mutations: flush fanout, certify, snapshot fanout
    // ------------------------------------------------------------------

    /// Applies `mutations` as one policy commit fleet-wide: gathers the
    /// default-deny notes from every shard (when the commit inserts),
    /// applies the mutations to the front-end Policy Manager, fans the
    /// union of their cookie flushes to every shard once, then certifies
    /// and fans out one snapshot. Mirrors [`Dfi::commit_policy`] step for
    /// step so the sharded system stays decision-equivalent.
    pub fn commit_policy(&self, sim: &mut Sim, mutations: Vec<PolicyMutation>) -> CommitOutcome {
        // Gather the hot path's default-deny notes from every shard before
        // the inserts, exactly where the unsharded path forwards its own
        // note.
        let mut noted = false;
        if mutations.iter().any(PolicyMutation::is_insert) {
            for s in self.shards.iter() {
                noted |= s.take_default_deny_note();
            }
        }
        let outcome = {
            let mut inner = self.inner.borrow_mut();
            if noted {
                inner.pm.note_default_deny_cached();
            }
            inner.pm.commit(mutations)
        };
        if outcome.applied > 0 {
            self.fanout_flushes(sim, &outcome.flush);
            self.republish(sim, &outcome.flush);
        }
        outcome
    }

    /// Inserts a policy rule fleet-wide (a one-mutation commit).
    pub fn insert_policy(
        &self,
        sim: &mut Sim,
        rule: PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> PolicyId {
        let outcome = self.commit_policy(sim, vec![PolicyMutation::insert(rule, priority, pdp)]);
        outcome.inserted[0]
    }

    /// Revokes a policy rule fleet-wide (a one-mutation commit). Returns
    /// `false` for unknown ids.
    pub fn revoke_policy(&self, sim: &mut Sim, id: PolicyId) -> bool {
        let outcome = self.commit_policy(sim, vec![PolicyMutation::Revoke(id)]);
        outcome.applied > 0
    }

    /// One-command rollback to a retained snapshot epoch, fleet-wide: the
    /// front-end Policy Manager is restored to the retained snapshot's
    /// rule set, the diff's cookie flushes fan out to every shard, and
    /// the restored state is re-certified and republished through the
    /// normal fanout (a one-mutation commit). Returns `false` when
    /// `epoch` is no longer on the retention ring.
    pub fn rollback_snapshot(&self, sim: &mut Sim, epoch: u64) -> bool {
        let Some(target) = self.shards[0]
            .snapshot_history()
            .into_iter()
            .find(|s| s.epoch() == epoch)
        else {
            return false;
        };
        self.commit_policy(sim, vec![PolicyMutation::Restore(target)]);
        true
    }

    /// Cache invalidation + switch-side cookie delete for each id, on
    /// every shard — the sharded equivalent of the unsharded
    /// invalidate-then-flush sequence. Flushes are deliberately *not*
    /// gated (they only remove permissions), again mirroring the
    /// unsharded path.
    fn fanout_flushes(&self, sim: &mut Sim, ids: &[PolicyId]) {
        if ids.is_empty() {
            return;
        }
        self.inner.borrow_mut().metrics.flush_fanouts += 1;
        for shard in self.shards.iter() {
            for id in ids {
                shard.invalidate_cached_policy(*id);
                shard.flush_policy_rules(sim, *id);
            }
        }
    }

    /// Certify → compile once → publish everywhere, once per commit. A
    /// gate refusal defers the whole commit: no shard is touched, all keep
    /// serving the prior epoch.
    /// The first clean publication after a deferral is a recovery: every
    /// shard bulk-expires stale cache entries and the deferred flushes are
    /// re-issued fleet-wide.
    fn republish(&self, sim: &mut Sim, flush_hint: &[PolicyId]) {
        let gate = self.inner.borrow_mut().gate.take();
        let witnesses = match gate {
            Some(mut hook) => {
                let w = hook(sim, self);
                self.inner.borrow_mut().gate = Some(hook);
                w
            }
            None => Vec::new(),
        };
        if witnesses.is_empty() {
            let (snap, recovered, event) = {
                let mut inner = self.inner.borrow_mut();
                inner.next_epoch += 1;
                let epoch = inner.next_epoch;
                let snap = Arc::new(PolicySnapshot::compile(&inner.pm, epoch));
                let event = DfiEvent::SnapshotPublished {
                    epoch,
                    revision: snap.revision(),
                    rules: snap.rule_count() as u64,
                };
                inner.metrics.snapshot_fanouts += 1;
                let recovered = if inner.publish_deferred {
                    inner.publish_deferred = false;
                    Some(std::mem::take(&mut inner.deferred_flushes))
                } else {
                    None
                };
                (snap, recovered, event)
            };
            // The fanout below happens within this one simulation event —
            // after it, every shard serves `snap`'s epoch.
            let recovery = recovered.is_some();
            for shard in self.shards.iter() {
                shard.install_shared_snapshot(Arc::clone(&snap), recovery);
            }
            if let Some(ids) = recovered {
                self.fanout_flushes(sim, &ids);
            }
            self.bus.publish(sim, topic::SNAPSHOTS, event);
        } else {
            let event = {
                let mut inner = self.inner.borrow_mut();
                inner.publish_deferred = true;
                inner.deferred_flushes.extend_from_slice(flush_hint);
                inner.metrics.snapshot_refusals += 1;
                DfiEvent::SnapshotRefused {
                    revision: inner.pm.revision(),
                    witnesses,
                }
            };
            self.bus.publish(sim, topic::SNAPSHOTS, event);
        }
    }

    /// Installs the certification hook consulted before every publication;
    /// replaces any previous hook.
    pub fn set_snapshot_gate(&self, gate: ShardSnapshotGate) {
        self.inner.borrow_mut().gate = Some(gate);
    }

    /// Runs a closure against the front-end's Policy Manager (the fleet's
    /// single source of policy truth). Like [`Dfi::with_pm`] this is the
    /// raw backdoor: if the closure mutated the store, the compiled
    /// snapshot is re-fanned immediately — bypassing certification,
    /// flushes, and events. A closure that only reads re-fans nothing.
    pub fn with_pm<R>(&self, f: impl FnOnce(&mut PolicyManager) -> R) -> R {
        let (r, resync) = {
            let mut inner = self.inner.borrow_mut();
            let revision = inner.pm.revision();
            let r = f(&mut inner.pm);
            if inner.pm.revision() != revision {
                inner.next_epoch += 1;
                let epoch = inner.next_epoch;
                let snap = Arc::new(PolicySnapshot::compile(&inner.pm, epoch));
                inner.metrics.snapshot_fanouts += 1;
                (r, Some(snap))
            } else {
                (r, None)
            }
        };
        if let Some(snap) = resync {
            for shard in self.shards.iter() {
                shard.install_shared_snapshot(Arc::clone(&snap), false);
            }
        }
        r
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The snapshot epoch each shard currently serves (shard order).
    /// Outside a mid-event fanout instant these are always all equal.
    #[must_use]
    pub fn served_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.snapshot().epoch()).collect()
    }

    /// `true` iff every shard serves the same snapshot epoch.
    #[must_use]
    pub fn epochs_agree(&self) -> bool {
        let e = self.served_epochs();
        e.windows(2).all(|w| w[0] == w[1])
    }

    /// Fleet-aggregate metrics: every shard's [`DfiMetrics`] merged (see
    /// [`DfiMetrics::merge`] for the aggregation semantics of each field).
    #[must_use]
    pub fn metrics(&self) -> DfiMetrics {
        let mut m = DfiMetrics::default();
        for shard in self.shards.iter() {
            m.merge(&shard.metrics());
        }
        m
    }

    /// The front-end's own fanout-plane counters.
    #[must_use]
    pub fn fanout_metrics(&self) -> ShardFanoutMetrics {
        self.inner.borrow().metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EndpointPattern;

    #[test]
    fn binding_batches_are_stamped_and_idempotent() {
        let sharded = ShardedDfi::new(4, &DfiConfig::default());
        let op = BindingOp::Bind(Binding::UserHost {
            user: "lee".into(),
            host: "lee-pc".into(),
        });
        let e1 = sharded.apply_binding_ops(vec![op.clone()]);
        let e2 = sharded.apply_binding_ops(vec![op]);
        assert!(e2 > e1, "stamps strictly increase");
        for shard in sharded.shards() {
            assert_eq!(shard.binding_epoch(), e2);
            // Re-delivering a stale batch is ignored.
            assert!(!shard.apply_binding_batch(&BindingBatch {
                epoch: e1,
                ops: vec![],
            }));
            assert_eq!(
                shard.with_erm(|erm| erm.binding_count()),
                1,
                "broadcast binding present on every shard"
            );
        }
        let m = sharded.fanout_metrics();
        assert_eq!(m.binding_batches, 2);
        assert_eq!(m.binding_ops_delivered, 8);
    }

    #[test]
    fn mac_location_ops_route_to_the_owning_shard_only() {
        let sharded = ShardedDfi::new(4, &DfiConfig::default());
        let dpid = 17;
        let owner = sharded.shard_of(dpid);
        let _epoch = sharded.apply_binding_ops(vec![BindingOp::Bind(Binding::MacLocation {
            mac: dfi_packet::MacAddr::from_index(1),
            dpid,
            port: 3,
        })]);
        for (idx, shard) in sharded.shards().iter().enumerate() {
            let n = shard.with_erm(|erm| erm.binding_count());
            assert_eq!(n, usize::from(idx == owner), "shard {idx}");
        }
    }

    #[test]
    fn snapshot_fanout_is_single_compile_and_atomic() {
        let mut sim = Sim::new(3);
        let sharded = ShardedDfi::new(3, &DfiConfig::default());
        sharded.insert_policy(
            &mut sim,
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::host("srv")),
            50,
            "t",
        );
        assert!(
            sharded.epochs_agree(),
            "epochs: {:?}",
            sharded.served_epochs()
        );
        let snaps: Vec<_> = sharded.shards().iter().map(Dfi::snapshot).collect();
        for pair in snaps.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "one compilation fanned to all shards"
            );
        }
        assert_eq!(sharded.fanout_metrics().snapshot_fanouts, 1);
    }
}
