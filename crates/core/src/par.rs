//! The thread-parallel sharded DFI proxy: real OS-thread scale-out.
//!
//! [`Dfi::sharded`](crate::Dfi::sharded) proved the *semantics* of
//! per-dpid sharding — one policy truth, epoch-stamped binding fanout,
//! atomic snapshot publication — but runs every shard cooperatively on one
//! thread over `Rc`/`RefCell`, so its wall-clock throughput *regresses*
//! with shard count (the fanout bookkeeping is pure overhead). This module
//! keeps those semantics bit-for-bit (proved by
//! `crates/core/tests/threaded_oracle.rs` against the same 360-step
//! differential trace) and moves each shard onto its own OS thread,
//! under the same [`ControlFront`] code as every other mode.
//!
//! # Ownership map
//!
//! Everything `Rc`-based — the shard's [`DataShard`], its simulated
//! [`Sim`] clock, its slice of the data plane, its controller replica — is
//! built *inside* the worker thread by a `Send` [`WorldBuilder`] closure
//! and never crosses the boundary again. The fleet's one
//! [`ControlFront`] stays on the caller's thread and reaches the workers
//! through [`Workers`], its [`ShardLink`]. What crosses is plain data:
//!
//! * **down** (front → worker), per-shard bounded command channels: flow
//!   punts ([`Cmd::Punt`]), epoch-stamped [`BindingBatch`]es, cookie-flush
//!   orders, epoch installs carrying the compiled
//!   `Arc<PolicySnapshot>` itself, repair steps, clock advances, drain
//!   orders;
//! * **up** (worker → front), result channels: epoch acks, default-deny
//!   notes, and [`DrainReport`]s (metrics, deliveries, cookie sets,
//!   cross-shard relay frames).
//!
//! # The epoch barrier (no two epochs at once)
//!
//! The cooperative front's fanout is atomic by construction (it completes
//! within one simulation event). Across threads the same guarantee is an
//! explicit barrier: each publication sends `Cmd::Epoch` with the one
//! compiled `Arc` down every channel and **blocks until every worker
//! acks** before admitting the next command of any kind. Because channels
//! are FIFO, every command sent before the epoch is processed under the
//! old snapshot on every shard, and everything after under the new one —
//! channel nondeterminism is confined to *intra*-epoch ordering, which the
//! differential oracle proves decision-irrelevant.
//!
//! # Why there are no locks
//!
//! A worker decides flows against the `Arc<PolicySnapshot>` its
//! `DataShard` holds — immutable data, no lock, exactly the single-proxy
//! hot path. The snapshot arrives by value inside `Cmd::Epoch`; the channel
//! plus the barrier already order its hand-off, so no shared cell (and no
//! mutex) is needed. Binding state is not shared at all: each worker owns
//! an ERM replica fed by value over its channel.
//!
//! # Cross-shard traffic
//!
//! A worker's world covers only its own switches; a fabric link whose far
//! end lives on another shard is cut at the boundary. The builder attaches
//! the local half to an [`Outbox`] sink (charging the link latency on the
//! sending side) and registers the global boundary id of the local
//! *ingress* half. [`ParallelShardedDfi::drain`] runs rounds: drain every
//! worker to quiescence, route the collected egress frames to their owning
//! workers as [`Cmd::Relay`]s, repeat until no frames moved — a
//! deterministic fixpoint because routing happens in shard order over FIFO
//! channels. Worker clocks drift relative to each other (each is its own
//! deterministic [`Sim`] seeded by
//! [`shard_seed`](dfi_simnet::shard_seed)), which is observable only as
//! intra-epoch timing, not as decisions, deliveries, or table state.

use crate::dfi::{BindingBatch, BindingOp, DataShard, DfiConfig, DfiMetrics};
use crate::events::{DfiEvent, RepairStepData};
use crate::front::{ControlFront, FrontHandle, ShardFanoutMetrics, ShardLink, SnapshotGate};
use crate::policy::{CommitOutcome, PolicyId, PolicyManager, PolicyMutation, PolicySnapshot};
use crate::shard::SNAPSHOT_RETENTION;
use dfi_dataplane::Tx;
use dfi_simnet::{shard_seed, Sim, SimTime};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Commands queued ahead of a worker (bounded to this depth; senders
/// back-pressure rather than grow without bound).
const CMD_CHANNEL_DEPTH: usize = 4096;
/// Reply-channel depth: a worker sends at most one reply per request the
/// front is already waiting on, so this never fills in practice.
const REPLY_CHANNEL_DEPTH: usize = 16;

/// Everything the front can ask of a shard worker. Plain data only —
/// statically asserted `Send` below.
enum Cmd {
    /// Inject `frame` at the world's tap `tap` (a host NIC), at absolute
    /// worker-sim time `at` (clamped to now if past) or immediately.
    Punt {
        tap: u32,
        frame: Vec<u8>,
        at: Option<SimTime>,
    },
    /// Deliver a cross-shard frame at the world's boundary ingress.
    Relay { boundary: u64, frame: Vec<u8> },
    /// Epoch-stamped binding fanout (stale stamps ignored by the shard).
    Bindings(BindingBatch),
    /// Cache invalidation + switch-side cookie delete for each id.
    Flushes(Vec<PolicyId>),
    /// Serve `snapshot`; ack when serving it. A recovery also expires the
    /// memoized decisions older than it.
    Epoch {
        snapshot: Arc<PolicySnapshot>,
        recovery: bool,
    },
    /// Report (and clear) the hot path's default-deny note.
    TakeNote,
    /// Run a switch-targeted repair step on the switch it names.
    Repair(RepairStepData),
    /// Run the worker's clock up to (and including) `0`'s events at `t`.
    AdvanceTo(SimTime),
    /// Run to quiescence and report.
    Drain,
    /// Exit the worker loop.
    Stop,
}

enum Reply {
    Built,
    Note(bool),
    EpochAck(u64),
    Drained(Box<DrainReport>),
}

/// What a worker reports after draining its world to quiescence.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Frames that egressed toward switches owned by other shards, in
    /// egress order.
    pub relays: Vec<RelayFrame>,
    /// The shard's full metrics.
    pub metrics: DfiMetrics,
    /// Per-host delivered-frame counters, `(global host index, count)`.
    pub deliveries: HostDeliveries,
    /// Per-switch sorted table-0 cookie sets, `(dpid, cookies)`.
    pub cookies: CookieSets,
    /// Snapshot epoch the shard serves.
    pub served_epoch: u64,
    /// The worker clock after the drain.
    pub now: SimTime,
    /// Total events this worker's sim has executed.
    pub events_executed: u64,
}

/// Fleet-wide aggregate of one [`ParallelShardedDfi::drain`] fixpoint.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Every shard's [`DfiMetrics`] merged, plus the front's refusal count
    /// and Policy Manager index.
    pub metrics: DfiMetrics,
    /// Each shard's own [`DfiMetrics`], shard order (for per-worker
    /// baselines, e.g. timing-window latency sampling).
    pub per_shard: Vec<DfiMetrics>,
    /// Delivered-frame counters keyed by global host index.
    pub deliveries: BTreeMap<u32, u64>,
    /// Table-0 cookie sets keyed by dpid, sorted by dpid.
    pub cookies: CookieSets,
    /// Snapshot epoch served per shard, shard order.
    pub served_epochs: Vec<u64>,
    /// Per-worker clocks at the fixpoint (diagnostic; clocks drift).
    pub clocks: Vec<SimTime>,
    /// Summed events executed across all worker sims.
    pub events_executed: u64,
}

impl FleetReport {
    /// `true` iff every shard serves the same snapshot epoch.
    #[must_use]
    pub fn epochs_agree(&self) -> bool {
        self.served_epochs.windows(2).all(|w| w[0] == w[1])
    }
}

/// One frame crossing a shard boundary: `(global boundary id, bytes)`.
pub type RelayFrame = (u64, Vec<u8>);
/// The observation hook a [`WorkerWorld`] carries: collects per-host
/// delivery counters and per-switch table-0 cookie sets at each drain.
pub type ObserveFn = Box<dyn FnMut(&mut Sim) -> (HostDeliveries, CookieSets)>;
/// Per-host delivered-frame counters: `(global host index, count)`.
pub type HostDeliveries = Vec<(u32, u64)>;
/// Per-switch sorted table-0 cookie sets: `(dpid, cookies)`.
pub type CookieSets = Vec<(u64, Vec<u64>)>;

/// Egress mailbox for frames leaving a worker's shard: the builder wires
/// boundary-crossing switch ports to [`Outbox::sink`]s, the worker drains
/// it after every quiescence and ships the frames up in its
/// [`DrainReport`].
#[derive(Clone, Default)]
pub struct Outbox {
    frames: Rc<RefCell<Vec<RelayFrame>>>,
}

impl Outbox {
    /// A [`dfi_dataplane::ByteSink`] that files frames under `boundary`.
    #[must_use]
    pub fn sink(&self, boundary: u64) -> dfi_dataplane::ByteSink {
        let frames = Rc::clone(&self.frames);
        Rc::new(move |_sim: &mut Sim, frame: &[u8]| {
            frames.borrow_mut().push((boundary, frame.to_vec()));
        })
    }

    fn take(&self) -> Vec<RelayFrame> {
        std::mem::take(&mut self.frames.borrow_mut())
    }
}

/// The thread-local world a [`WorldBuilder`] constructs around a worker's
/// [`DataShard`]: injection taps, boundary ingresses, and an observation
/// hook.
pub struct WorkerWorld {
    /// Frame-injection points (host NICs), indexed by the tap ids the
    /// harness uses in [`ParallelShardedDfi::punt`].
    pub taps: Vec<Tx>,
    /// `(global boundary id, ingress sink)` for every fabric link half
    /// whose far end lives on another shard.
    pub boundaries: Vec<(u64, dfi_dataplane::ByteSink)>,
    /// Collects world state for the drain report: per-host delivery
    /// counters and per-switch table-0 cookie sets.
    pub observe: ObserveFn,
}

/// Builds a worker's world inside its thread. The closure itself must be
/// `Send` (capture topology by `Arc`, config by value); everything it
/// creates stays thread-local.
pub type WorldBuilder = Box<dyn FnOnce(&mut Sim, &DataShard, &Outbox) -> WorkerWorld + Send>;

const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Cmd>();
    assert_send::<Reply>();
    assert_send::<DfiConfig>();
    assert_send::<DrainReport>();
};

struct Worker {
    cmd: SyncSender<Cmd>,
    reply: Receiver<Reply>,
    join: Option<JoinHandle<()>>,
}

/// The worker-channel link: one bounded command channel down and one
/// reply channel up per worker thread.
pub struct Workers {
    workers: Vec<Worker>,
    /// Last acked/reported epoch per worker.
    served: Vec<u64>,
}

impl Workers {
    fn send(&self, shard: usize, cmd: Cmd) {
        self.workers[shard]
            .cmd
            .send(cmd)
            .expect("shard worker hung up");
    }

    fn recv(&self, shard: usize) -> Reply {
        self.workers[shard]
            .reply
            .recv()
            .expect("shard worker hung up")
    }
}

impl ShardLink for Workers {
    type Cx = ();

    fn shard_count(&self) -> usize {
        self.workers.len()
    }

    fn take_default_deny_notes(&mut self) -> bool {
        for w in 0..self.workers.len() {
            self.send(w, Cmd::TakeNote);
        }
        let mut noted = false;
        for w in 0..self.workers.len() {
            match self.recv(w) {
                Reply::Note(b) => noted |= b,
                other => panic!("expected a note reply, got {}", kind(&other)),
            }
        }
        noted
    }

    fn flush(&mut self, (): &mut (), ids: &[PolicyId]) {
        for w in 0..self.workers.len() {
            self.send(w, Cmd::Flushes(ids.to_vec()));
        }
    }

    /// The epoch barrier: the snapshot goes down every channel, and no
    /// later command of any kind is admitted until every worker acks.
    fn install(&mut self, snapshot: &Arc<PolicySnapshot>, recovery: bool) {
        for w in 0..self.workers.len() {
            let snapshot = Arc::clone(snapshot);
            self.send(w, Cmd::Epoch { snapshot, recovery });
        }
        for w in 0..self.workers.len() {
            match self.recv(w) {
                Reply::EpochAck(e) => {
                    assert_eq!(e, snapshot.epoch(), "worker {w} acked the wrong epoch");
                    self.served[w] = e;
                }
                other => panic!("expected an epoch ack, got {}", kind(&other)),
            }
        }
    }

    fn bindings(&mut self, shard: usize, batch: Cow<'_, BindingBatch>) {
        self.send(shard, Cmd::Bindings(batch.into_owned()));
    }

    fn switch_step(&mut self, (): &mut (), shard: usize, step: &RepairStepData) {
        self.send(shard, Cmd::Repair(step.clone()));
    }

    /// The threaded mode has no bus: announcements go nowhere.
    fn announce(&mut self, (): &mut (), _topic: &'static str, _event: DfiEvent) {}
}

/// The thread-parallel sharded DFI front-end. Unlike the cooperative
/// [`Dfi`](crate::Dfi) handle this is `&mut self`-driven: the front lives
/// on the caller's thread and is the single admission point for punts,
/// bindings, and policy mutations (which is what makes the epoch barrier a
/// barrier).
pub struct ParallelShardedDfi {
    front: ControlFront<Workers>,
    /// Global boundary id → worker owning the ingress.
    routes: HashMap<u64, usize>,
}

impl ParallelShardedDfi {
    /// Spawns one worker thread per builder. Worker `w` gets its own
    /// deterministic clock seeded [`shard_seed`]`(seed, w)`; `routes` maps
    /// every global boundary id a builder registers to the worker index
    /// that owns it. Blocks until every world is built and quiescent. The
    /// front keeps the last [`SNAPSHOT_RETENTION`] retired snapshots for
    /// rollback.
    ///
    /// # Panics
    ///
    /// Panics if `builders` is empty or a worker thread cannot be spawned.
    #[must_use]
    pub fn new(
        config: &DfiConfig,
        seed: u64,
        builders: Vec<WorldBuilder>,
        routes: HashMap<u64, usize>,
    ) -> ParallelShardedDfi {
        assert!(!builders.is_empty(), "need at least one shard worker");
        let n = builders.len();
        let workers: Vec<Worker> = builders
            .into_iter()
            .enumerate()
            .map(|(w, builder)| {
                let (cmd_tx, cmd_rx) = sync_channel::<Cmd>(CMD_CHANNEL_DEPTH);
                let (reply_tx, reply_rx) = sync_channel::<Reply>(REPLY_CHANNEL_DEPTH);
                let cfg = config.clone();
                let wseed = shard_seed(seed, w);
                let join = std::thread::Builder::new()
                    .name(format!("dfi-shard-{w}"))
                    .spawn(move || worker_main(wseed, cfg, builder, &cmd_rx, &reply_tx))
                    .expect("spawn shard worker");
                Worker {
                    cmd: cmd_tx,
                    reply: reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        let link = Workers {
            workers,
            served: vec![0; n],
        };
        for w in 0..n {
            match link.workers[w].reply.recv() {
                Ok(Reply::Built) => {}
                Ok(other) => panic!("worker failed to build its world: got {}", kind(&other)),
                Err(_) => panic!("worker failed to build its world: it hung up"),
            }
        }
        ParallelShardedDfi {
            front: ControlFront::new(link, SNAPSHOT_RETENTION),
            routes,
        }
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.front.link().workers.len()
    }

    /// The shard owning `dpid` — the same pure partition the cooperative
    /// front and the topology tests use.
    #[must_use]
    pub fn shard_of(&self, dpid: u64) -> usize {
        self.front.shard_of(dpid)
    }

    /// Injects `frame` at worker `shard`'s tap `tap`, at the worker's
    /// current sim time.
    pub fn punt(&mut self, shard: usize, tap: u32, frame: Vec<u8>) {
        let punt = Cmd::Punt {
            tap,
            frame,
            at: None,
        };
        self.front.link().send(shard, punt);
    }

    /// Injects `frame` at worker `shard`'s tap `tap`, scheduled at
    /// absolute worker-sim time `at` (clamped to the worker's now if
    /// already past).
    pub fn punt_at(&mut self, shard: usize, tap: u32, frame: Vec<u8>, at: SimTime) {
        let punt = Cmd::Punt {
            tap,
            frame,
            at: Some(at),
        };
        self.front.link().send(shard, punt);
    }

    /// Runs every worker's clock up to `t` (fire-and-forget; commands
    /// sent afterwards are processed at `t` or later).
    pub fn advance_all(&mut self, t: SimTime) {
        for w in 0..self.shard_count() {
            self.front.link().send(w, Cmd::AdvanceTo(t));
        }
    }

    // ------------------------------------------------------------------
    // Policy and bindings (the front's one copy; see `ControlFront`)
    // ------------------------------------------------------------------

    /// Stamps `ops` as one batch and routes it; returns the stamp (see
    /// [`ControlFront::apply_binding_ops`]).
    pub fn apply_binding_ops(&mut self, ops: Vec<BindingOp>) -> u64 {
        self.front.apply_binding_ops(ops)
    }

    /// Applies `mutations` as one policy commit across the worker fleet
    /// (see [`ControlFront::commit_policy`]): one flush fan-out, one epoch
    /// barrier.
    ///
    /// # Panics
    ///
    /// Panics if a worker hung up or answered out of protocol.
    pub fn commit_policy(&mut self, mutations: Vec<PolicyMutation>) -> CommitOutcome {
        self.front.commit_policy(&mut (), mutations)
    }

    /// Inserts a policy rule fleet-wide (see
    /// [`ControlFront::insert_policy`]).
    pub fn insert_policy(
        &mut self,
        rule: crate::policy::PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> PolicyId {
        self.front.insert_policy(&mut (), rule, priority, pdp)
    }

    /// Revokes a policy rule fleet-wide (see
    /// [`ControlFront::revoke_policy`]).
    pub fn revoke_policy(&mut self, id: PolicyId) -> bool {
        self.front.revoke_policy(&mut (), id)
    }

    /// Re-ranks a policy rule in place (see
    /// [`ControlFront::re_rank_policy`]).
    pub fn re_rank_policy(&mut self, id: PolicyId, new_priority: u32) -> bool {
        self.front.re_rank_policy(&mut (), id, new_priority)
    }

    /// Rolls back to a retained snapshot epoch across the barrier (see
    /// [`ControlFront::rollback_snapshot`]).
    pub fn rollback_snapshot(&mut self, epoch: u64) -> bool {
        self.front.rollback_snapshot(&mut (), epoch)
    }

    /// Applies a verified repair plan's steps (see
    /// [`ControlFront::apply_repair_steps`]).
    pub fn apply_repair_steps(&mut self, steps: &[RepairStepData]) {
        self.front.apply_repair_steps(&mut (), steps);
    }

    /// Runs a closure against the fleet's Policy Manager (see
    /// [`ControlFront::with_pm`]).
    pub fn with_pm<R>(&mut self, f: impl FnOnce(&mut PolicyManager) -> R) -> R {
        self.front.with_pm(f)
    }

    /// Installs the certification gate (see [`SnapshotGate`]).
    pub fn set_snapshot_gate(&mut self, gate: SnapshotGate) {
        self.front.set_snapshot_gate(gate);
    }

    /// The front's retention ring, oldest first.
    #[must_use]
    pub fn snapshot_history(&self) -> Vec<Arc<PolicySnapshot>> {
        self.front.snapshot_history()
    }

    /// Drains the fleet to a global fixpoint: every worker runs to
    /// quiescence, cross-shard frames are routed to their owners (shard
    /// order, FIFO channels — deterministic), and the cycle repeats until
    /// no frame moved. Returns the merged fleet state at the fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if a worker hung up, answered out of protocol, or relayed a
    /// frame to a boundary no route names.
    pub fn drain(&mut self) -> FleetReport {
        let n = self.shard_count();
        loop {
            let link = self.front.link_mut();
            for w in 0..n {
                link.send(w, Cmd::Drain);
            }
            let reports: Vec<Box<DrainReport>> = (0..n)
                .map(|w| match link.recv(w) {
                    Reply::Drained(r) => r,
                    other => panic!("expected a drain report, got {}", kind(&other)),
                })
                .collect();
            let mut moved = false;
            for report in &reports {
                for (boundary, frame) in &report.relays {
                    let owner = *self
                        .routes
                        .get(boundary)
                        .unwrap_or_else(|| panic!("no route for boundary {boundary}"));
                    let relay = Cmd::Relay {
                        boundary: *boundary,
                        frame: frame.clone(),
                    };
                    link.send(owner, relay);
                    moved = true;
                }
            }
            if moved {
                continue;
            }
            let mut fleet = FleetReport::default();
            for (w, report) in reports.into_iter().enumerate() {
                fleet.metrics.merge(&report.metrics);
                fleet.per_shard.push(report.metrics.clone());
                for (host, count) in report.deliveries {
                    *fleet.deliveries.entry(host).or_insert(0) += count;
                }
                fleet.cookies.extend(report.cookies);
                fleet.served_epochs.push(report.served_epoch);
                fleet.clocks.push(report.now);
                fleet.events_executed += report.events_executed;
                link.served[w] = report.served_epoch;
            }
            fleet.cookies.sort_by_key(|(dpid, _)| *dpid);
            self.front.fill_metrics(&mut fleet.metrics);
            return fleet;
        }
    }

    /// The snapshot epoch each worker last reported/acked (shard order).
    #[must_use]
    pub fn served_epochs(&self) -> Vec<u64> {
        self.front.link().served.clone()
    }

    /// `true` iff every worker serves the same snapshot epoch.
    #[must_use]
    pub fn epochs_agree(&self) -> bool {
        self.front.link().served.windows(2).all(|w| w[0] == w[1])
    }

    /// The front's own counters — the same type every mode reports, so
    /// the differential oracles compare them directly.
    #[must_use]
    pub fn fanout_metrics(&self) -> ShardFanoutMetrics {
        self.front.fanout_metrics()
    }

    /// Stops and joins every worker. `Err` lists the workers (by index)
    /// whose threads panicked. Dropping the fleet calls this and discards
    /// the result; explicit calls get deterministic shutdown points and
    /// the verdict.
    pub fn shutdown(&mut self) -> Result<(), Vec<usize>> {
        let workers = &mut self.front.link_mut().workers;
        for w in workers.iter() {
            // A worker that already exited (panicked) has hung up; its
            // join below reports it.
            let _ = w.cmd.send(Cmd::Stop);
        }
        let panicked: Vec<usize> = workers
            .iter_mut()
            .enumerate()
            .filter_map(|(w, worker)| worker.join.take()?.join().is_err().then_some(w))
            .collect();
        if panicked.is_empty() {
            Ok(())
        } else {
            Err(panicked)
        }
    }
}

impl Drop for ParallelShardedDfi {
    fn drop(&mut self) {
        // `shutdown` reports panicked workers; dropping must not panic.
        let _ = self.shutdown();
    }
}

impl FrontHandle for &mut ParallelShardedDfi {
    type Link = Workers;

    fn with_front<R>(self, f: impl FnOnce(&mut ControlFront<Workers>) -> R) -> R {
        f(&mut self.front)
    }
}

fn kind(r: &Reply) -> &'static str {
    match r {
        Reply::Built => "Built",
        Reply::Note(_) => "Note",
        Reply::EpochAck(_) => "EpochAck",
        Reply::Drained(_) => "Drained",
    }
}

/// The worker loop: owns the shard's complete world — deterministic clock,
/// `DataShard`, data-plane slice, controller replica — and serializes
/// every front command against it.
fn worker_main(
    seed: u64,
    config: DfiConfig,
    builder: WorldBuilder,
    cmds: &Receiver<Cmd>,
    replies: &SyncSender<Reply>,
) {
    let mut sim = Sim::new(seed);
    let shard = DataShard::new(config);
    let outbox = Outbox::default();
    let mut world = builder(&mut sim, &shard, &outbox);
    let boundaries: HashMap<u64, dfi_dataplane::ByteSink> = world.boundaries.drain(..).collect();
    sim.run();
    replies.send(Reply::Built).expect("front-end hung up");
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Punt { tap, frame, at } => {
                let tx = world.taps[tap as usize].clone();
                match at {
                    // `schedule_at` clamps a past `at` to the worker's now.
                    Some(t) => {
                        sim.schedule_at(t, move |sim| tx.send(sim, frame));
                    }
                    None => {
                        sim.schedule_now(move |sim| tx.send(sim, frame));
                    }
                }
            }
            Cmd::Relay { boundary, frame } => {
                let sink = boundaries
                    .get(&boundary)
                    .unwrap_or_else(|| panic!("no ingress for boundary {boundary}"));
                sink(&mut sim, &frame);
            }
            Cmd::Bindings(batch) => {
                let _fresh = shard.apply_binding_batch(&batch);
            }
            Cmd::Flushes(ids) => {
                for id in ids {
                    shard.flush_policy(&mut sim, id);
                }
            }
            Cmd::Epoch { snapshot, recovery } => {
                let epoch = snapshot.epoch();
                shard.install(snapshot, recovery);
                replies
                    .send(Reply::EpochAck(epoch))
                    .expect("front-end hung up");
            }
            Cmd::TakeNote => {
                replies
                    .send(Reply::Note(shard.take_default_deny_note()))
                    .expect("front-end hung up");
            }
            Cmd::Repair(step) => shard.switch_step(&mut sim, &step),
            Cmd::AdvanceTo(t) => {
                sim.run_until(t);
            }
            Cmd::Drain => {
                sim.run();
                let (deliveries, cookies) = (world.observe)(&mut sim);
                let report = DrainReport {
                    relays: outbox.take(),
                    metrics: shard.metrics(),
                    deliveries,
                    cookies,
                    served_epoch: shard.snapshot().epoch(),
                    now: sim.now(),
                    events_executed: sim.events_executed(),
                };
                replies
                    .send(Reply::Drained(Box::new(report)))
                    .expect("front-end hung up");
            }
            Cmd::Stop => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world with no taps: any punt indexes past its end and panics the
    /// worker.
    fn tapless_builders(n: usize) -> Vec<WorldBuilder> {
        (0..n)
            .map(|_| {
                Box::new(|_: &mut Sim, _: &DataShard, _: &Outbox| WorkerWorld {
                    taps: Vec::new(),
                    boundaries: Vec::new(),
                    observe: Box::new(|_| (HostDeliveries::new(), CookieSets::new())),
                }) as WorldBuilder
            })
            .collect()
    }

    #[test]
    fn a_panicked_worker_is_reported_by_shutdown_and_drop_stays_quiet() {
        let mut fleet = ParallelShardedDfi::new(
            &DfiConfig::default(),
            7,
            tapless_builders(2),
            HashMap::new(),
        );
        fleet.punt(1, 0, vec![0; 60]);
        assert_eq!(fleet.shutdown(), Err(vec![1]), "worker 1 panicked");
        assert_eq!(
            fleet.shutdown(),
            Ok(()),
            "a second shutdown has nothing to join"
        );

        // Dropping a fleet whose worker died, without `shutdown`, must not
        // panic inside `drop`.
        let mut dropped = ParallelShardedDfi::new(
            &DfiConfig::default(),
            8,
            tapless_builders(1),
            HashMap::new(),
        );
        dropped.punt(0, 3, vec![0; 60]);
        drop(dropped);
    }
}
