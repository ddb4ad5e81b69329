//! The cooperative proxy: [`Dfi`] is one [`ControlFront`] over N direct
//! [`DataShard`]s on the caller's simulation.
//!
//! The paper's DFI is one proxy process in front of one controller:
//! [`Dfi::new`] is that proxy, a front over one shard. A fleet of a
//! thousand switches needs more than its measured ceiling of ~1350
//! flows/sec (Table I), and because the hot path reads an immutable
//! [`PolicySnapshot`], scaling out is not a
//! locking problem but a publication-fanout and binding-ownership problem.
//! [`Dfi::sharded`] solves exactly that with the same front over N shards:
//!
//! * **Ownership.** Switches are partitioned over the shards by dpid
//!   ([`dfi_simnet::topo::shard_of`] — the same pure function the topology
//!   tests check is a partition). A switch's entire packet-in / install /
//!   flush lifecycle happens on its owning shard, each with its own
//!   PCP/binding/policy queueing stations, decision cache, snapshot and
//!   ERM replica.
//! * **Policy truth.** The front owns the one Policy Manager; shards have
//!   none, so the type itself rules out a shard republishing policy of its
//!   own. A commit fans its cookie flushes to every shard once, then
//!   compiles **once** and installs the same `Arc` on every shard. The
//!   fanout completes within one simulation event, so no two shards ever
//!   serve different certified epochs to the same flow's path
//!   ([`Dfi::served_epochs`] lets tests assert agreement). A refusal
//!   touches no shard.
//! * **Binding fanout.** Sensor events (DHCP, DNS, SIEM) land on the
//!   front's bus and are routed as epoch-stamped
//!   [`BindingBatch`]es: IP-, name- and
//!   session-keyed ops to every shard (any shard may resolve flows through
//!   them), MAC-location ops to the owning shard only. That is what makes
//!   N shards decision-equivalent to one (proved by
//!   `tests/sharded_oracle.rs`).

use crate::dfi::{binding_op_of_event, BindingBatch, BindingOp, DataShard, DfiConfig, DfiMetrics};
use crate::events::{topic, DfiEvent, RepairStepData};
use crate::front::{ControlFront, FrontHandle, ShardFanoutMetrics, ShardLink, SnapshotGate};
use crate::policy::{
    CommitOutcome, PolicyId, PolicyManager, PolicyMutation, PolicyRule, PolicySnapshot,
};
use dfi_bus::Bus;
use dfi_dataplane::{ByteSink, Switch};
use dfi_simnet::topo::shard_of;
use dfi_simnet::Sim;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Retired certified snapshots a sharded front keeps for rollback. A
/// single-shard [`Dfi`] keeps none unless
/// [`Dfi::set_snapshot_retention`] asks.
pub const SNAPSHOT_RETENTION: usize = 4;

/// The direct link: shards called in place, on the caller's simulation.
pub struct DirectShards {
    shards: Rc<[DataShard]>,
    bus: Bus<DfiEvent>,
}

impl ShardLink for DirectShards {
    type Cx = Sim;

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn take_default_deny_notes(&mut self) -> bool {
        let mut noted = false;
        for shard in self.shards.iter() {
            noted |= shard.take_default_deny_note();
        }
        noted
    }

    fn flush(&mut self, sim: &mut Sim, ids: &[PolicyId]) {
        for shard in self.shards.iter() {
            for &id in ids {
                shard.flush_policy(sim, id);
            }
        }
    }

    fn install(&mut self, snapshot: &Arc<PolicySnapshot>, recovery: bool) {
        for shard in self.shards.iter() {
            shard.install(Arc::clone(snapshot), recovery);
        }
    }

    fn bindings(&mut self, shard: usize, batch: Cow<'_, BindingBatch>) {
        let _fresh = self.shards[shard].apply_binding_batch(&batch);
    }

    fn switch_step(&mut self, sim: &mut Sim, shard: usize, step: &RepairStepData) {
        self.shards[shard].switch_step(sim, step);
    }

    fn announce(&mut self, sim: &mut Sim, topic: &'static str, event: DfiEvent) {
        self.bus.publish(sim, topic, event);
    }
}

/// The assembled, shared-handle DFI proxy: one control front over N
/// direct data shards (see the module docs).
#[derive(Clone)]
pub struct Dfi {
    front: Rc<RefCell<ControlFront<DirectShards>>>,
    shards: Rc<[DataShard]>,
    bus: Bus<DfiEvent>,
}

impl Dfi {
    /// The paper's single proxy: one shard, no retention ring. Its Entity
    /// Resolution Manager is subscribed to the sensor topics on the
    /// returned handle's bus.
    #[must_use]
    pub fn new(config: DfiConfig) -> Dfi {
        Dfi::build(1, config, 0)
    }

    /// A proxy with the paper's calibration.
    #[must_use]
    pub fn with_defaults() -> Dfi {
        Dfi::new(DfiConfig::default())
    }

    /// A fleet proxy: one front over `n_shards` data shards, each with its
    /// own copy of `config`, keeping the last [`SNAPSHOT_RETENTION`]
    /// retired snapshots for rollback.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0`.
    #[must_use]
    pub fn sharded(n_shards: usize, config: &DfiConfig) -> Dfi {
        assert!(n_shards > 0, "a sharded DFI needs at least one shard");
        Dfi::build(n_shards, config.clone(), SNAPSHOT_RETENTION)
    }

    fn build(n_shards: usize, config: DfiConfig, retention: usize) -> Dfi {
        let bus = Bus::new(config.bus_latency.clone());
        let mut shards: Vec<DataShard> = (1..n_shards)
            .map(|_| DataShard::new(config.clone()))
            .collect();
        shards.push(DataShard::new(config));
        let shards: Rc<[DataShard]> = shards.into();
        let link = DirectShards {
            shards: Rc::clone(&shards),
            bus: bus.clone(),
        };
        let dfi = Dfi {
            front: Rc::new(RefCell::new(ControlFront::new(link, retention))),
            shards,
            bus,
        };
        for t in [topic::LEASES, topic::NAMES, topic::SESSIONS] {
            let front = Rc::clone(&dfi.front);
            dfi.bus.subscribe(t, move |_sim, ev| {
                if let Some(op) = binding_op_of_event(ev) {
                    let _epoch = front.borrow_mut().apply_binding_ops(vec![op]);
                }
            });
        }
        dfi
    }

    /// The sensor/event bus (RabbitMQ surrogate). Sensors publish here;
    /// snapshot publications, refusals and the gate's findings are
    /// announced here too.
    #[must_use]
    pub fn bus(&self) -> &Bus<DfiEvent> {
        &self.bus
    }

    // ------------------------------------------------------------------
    // Ownership and switch wiring
    // ------------------------------------------------------------------

    /// The data shards (observation: metrics, table state, ERM queries).
    #[must_use]
    pub fn shards(&self) -> &[DataShard] {
        &self.shards
    }

    /// The shard owning `dpid` under the fleet-wide partition.
    #[must_use]
    pub fn shard_of(&self, dpid: u64) -> usize {
        shard_of(dpid, self.shards.len())
    }

    /// Interposes the owning shard between `switch` and its controller
    /// (see [`DataShard::interpose`]).
    pub fn interpose(
        &self,
        sim: &mut Sim,
        switch: &Switch,
        connect_controller: impl FnOnce(&mut Sim, ByteSink) -> ByteSink,
    ) {
        let shard = self.shard_of(switch.dpid());
        self.shards[shard].interpose(sim, switch, connect_controller);
    }

    /// Registers a switch control channel on the owning shard (manual
    /// wiring, e.g. through fault-injecting sinks). Returns the connection
    /// id the sink constructors below take: `local × shards + shard`,
    /// which with one shard is the shard's own connection index.
    pub fn attach_switch_channel(&self, to_switch: ByteSink, dpid: u64) -> usize {
        let shard = self.shard_of(dpid);
        let local = self.shards[shard].attach_switch_channel(to_switch, dpid);
        local * self.shards.len() + shard
    }

    /// The owning shard and its connection index for connection id `conn`.
    fn conn(&self, conn: usize) -> (&DataShard, usize) {
        let n = self.shards.len();
        (&self.shards[conn % n], conn / n)
    }

    /// Sets where allowed packet-ins and rewritten switch messages are
    /// forwarded for a connection.
    pub fn set_controller_sink(&self, conn: usize, to_controller: ByteSink) {
        let (shard, local) = self.conn(conn);
        shard.set_controller_sink(local, to_controller);
    }

    /// The sink a switch sends its control bytes to (the proxy's
    /// switch-facing side).
    #[must_use]
    pub fn from_switch_sink(&self, conn: usize) -> ByteSink {
        let (shard, local) = self.conn(conn);
        shard.from_switch_sink(local)
    }

    /// The sink the controller sends its bytes to (the proxy's
    /// controller-facing side).
    #[must_use]
    pub fn from_controller_sink(&self, conn: usize) -> ByteSink {
        let (shard, local) = self.conn(conn);
        shard.from_controller_sink(local)
    }

    /// Every shard's tracked installs in flight, as `(dpid, cookie,
    /// is_delete)` triples (see [`DataShard::in_flight_installs`]).
    #[must_use]
    pub fn in_flight_installs(&self) -> Vec<(u64, u64, bool)> {
        self.shards
            .iter()
            .flat_map(DataShard::in_flight_installs)
            .collect()
    }

    // ------------------------------------------------------------------
    // Bindings
    // ------------------------------------------------------------------

    /// Routes a binding batch to the shards (see
    /// [`ControlFront::apply_binding_batch`]); the bulk-load path for
    /// fleet-scale harnesses. Returns `false` for a stale stamp.
    #[must_use]
    pub fn apply_binding_batch(&self, batch: &BindingBatch) -> bool {
        self.front.borrow_mut().apply_binding_batch(batch)
    }

    /// Stamps `ops` as one batch and routes it; returns the stamp (see
    /// [`ControlFront::apply_binding_ops`]).
    #[must_use]
    pub fn apply_binding_ops(&self, ops: Vec<BindingOp>) -> u64 {
        self.front.borrow_mut().apply_binding_ops(ops)
    }

    /// Runs a closure against the first shard's Entity Resolution Manager
    /// replica — with one shard, the proxy's ERM (tests, harnesses,
    /// direct-wired sensors). Route bindings every shard must see through
    /// [`Dfi::apply_binding_ops`].
    pub fn with_erm<R>(&self, f: impl FnOnce(&mut crate::erm::EntityResolver) -> R) -> R {
        self.shards[0].with_erm(f)
    }

    // ------------------------------------------------------------------
    // Policy (the front's one copy; see `ControlFront`)
    // ------------------------------------------------------------------

    /// Applies `mutations` as one policy commit (see
    /// [`ControlFront::commit_policy`]).
    pub fn commit_policy(&self, sim: &mut Sim, mutations: Vec<PolicyMutation>) -> CommitOutcome {
        self.front.borrow_mut().commit_policy(sim, mutations)
    }

    /// Inserts a policy rule on behalf of a PDP (see
    /// [`ControlFront::insert_policy`]).
    pub fn insert_policy(
        &self,
        sim: &mut Sim,
        rule: PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> PolicyId {
        self.front
            .borrow_mut()
            .insert_policy(sim, rule, priority, pdp)
    }

    /// Revokes a policy rule (see [`ControlFront::revoke_policy`]).
    pub fn revoke_policy(&self, sim: &mut Sim, id: PolicyId) -> bool {
        self.front.borrow_mut().revoke_policy(sim, id)
    }

    /// Re-ranks a policy rule in place (see
    /// [`ControlFront::re_rank_policy`]).
    pub fn re_rank_policy(&self, sim: &mut Sim, id: PolicyId, new_priority: u32) -> bool {
        self.front
            .borrow_mut()
            .re_rank_policy(sim, id, new_priority)
    }

    /// Rolls back to a retained snapshot epoch (see
    /// [`ControlFront::rollback_snapshot`]).
    pub fn rollback_snapshot(&self, sim: &mut Sim, epoch: u64) -> bool {
        self.front.borrow_mut().rollback_snapshot(sim, epoch)
    }

    /// Flushes a policy's derived flow rules from every switch (see
    /// [`ControlFront::flush_policy_rules`]).
    pub fn flush_policy_rules(&self, sim: &mut Sim, id: PolicyId) {
        self.front.borrow_mut().flush_policy_rules(sim, id);
    }

    /// Applies a verified repair plan's steps (see
    /// [`ControlFront::apply_repair_steps`]).
    pub fn apply_repair_steps(&self, sim: &mut Sim, steps: &[RepairStepData]) {
        self.front.borrow_mut().apply_repair_steps(sim, steps);
    }

    /// Runs a closure against the Policy Manager (see
    /// [`ControlFront::with_pm`]).
    pub fn with_pm<R>(&self, f: impl FnOnce(&mut PolicyManager) -> R) -> R {
        self.front.borrow_mut().with_pm(f)
    }

    /// Installs the certification gate (see [`SnapshotGate`]).
    pub fn set_snapshot_gate(&self, gate: SnapshotGate) {
        self.front.borrow_mut().set_snapshot_gate(gate);
    }

    /// Sets the retention ring's size (see
    /// [`ControlFront::set_snapshot_retention`]).
    pub fn set_snapshot_retention(&self, keep: usize) {
        self.front.borrow_mut().set_snapshot_retention(keep);
    }

    /// The retention ring, oldest first.
    #[must_use]
    pub fn snapshot_history(&self) -> Vec<Arc<PolicySnapshot>> {
        self.front.borrow().snapshot_history()
    }

    /// The currently published policy snapshot — the exact immutable view
    /// every shard's flow-setup hot path reads.
    #[must_use]
    pub fn snapshot(&self) -> Arc<PolicySnapshot> {
        self.front.borrow().snapshot()
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
        self.served_epochs().windows(2).all(|w| w[0] == w[1])
    }

    /// Proxy-wide metrics: every shard's [`DfiMetrics`] merged (see
    /// [`DfiMetrics::merge`]), plus the front's refusal count and Policy
    /// Manager index.
    #[must_use]
    pub fn metrics(&self) -> DfiMetrics {
        let mut m = self.shards[0].metrics();
        for shard in &self.shards[1..] {
            m.merge(&shard.metrics());
        }
        self.front.borrow().fill_metrics(&mut m);
        m
    }

    /// The front's own counters.
    #[must_use]
    pub fn fanout_metrics(&self) -> ShardFanoutMetrics {
        self.front.borrow().fanout_metrics()
    }
}

impl FrontHandle for &Dfi {
    type Link = DirectShards;

    fn with_front<R>(self, f: impl FnOnce(&mut ControlFront<DirectShards>) -> R) -> R {
        f(&mut self.front.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erm::Binding;
    use crate::policy::EndpointPattern;

    #[test]
    fn binding_batches_are_stamped_and_idempotent() {
        let sharded = Dfi::sharded(4, &DfiConfig::default());
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
        let sharded = Dfi::sharded(4, &DfiConfig::default());
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
        let sharded = Dfi::sharded(3, &DfiConfig::default());
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
        let snaps: Vec<_> = sharded.shards().iter().map(DataShard::snapshot).collect();
        for pair in snaps.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "one compilation fanned to all shards"
            );
        }
        assert_eq!(sharded.fanout_metrics().snapshot_fanouts, 1);
    }
}
