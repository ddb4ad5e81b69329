//! The thread-parallel sharded DFI proxy: real OS-thread scale-out.
//!
//! [`ShardedDfi`](crate::ShardedDfi) proved the *semantics* of per-dpid
//! sharding — one policy truth, epoch-stamped binding fanout, atomic
//! snapshot publication — but ran every shard cooperatively on one thread
//! over `Rc`/`RefCell`, so its wall-clock throughput *regressed* with
//! shard count (the fanout bookkeeping is pure overhead). This module
//! keeps those semantics bit-for-bit (proved by
//! `crates/core/tests/threaded_oracle.rs` against the same 360-step
//! differential trace) and moves each shard onto its own OS thread.
//!
//! # Ownership map
//!
//! Everything `Rc`-based — the shard's [`Dfi`], its simulated [`Sim`]
//! clock, its slice of the data plane, its controller replica — is built
//! *inside* the worker thread by a `Send` [`WorldBuilder`] closure and
//! never crosses the boundary again. What does cross is plain data:
//!
//! * **down** (front-end → worker), per-shard bounded command channels:
//!   flow punts ([`Cmd::Punt`]), epoch-stamped
//!   [`BindingBatch`]es, cookie-flush orders, epoch installs, clock
//!   advances, drain orders;
//! * **up** (worker → front-end), result channels: epoch acks,
//!   default-deny notes, and [`DrainReport`]s (metrics, deliveries,
//!   cookie sets, cross-shard relay frames);
//! * **shared**, one [`SharedSnapshotStore`]: the front-end compiles a
//!   certified [`PolicySnapshot`] **once** and publishes the `Arc`; each
//!   worker installs it into its thread-local store on the epoch command.
//!
//! # The epoch barrier (no two epochs at once)
//!
//! The cooperative front-end's fanout was atomic by construction (it
//! completed within one simulation event). Across threads the same
//! guarantee is an explicit barrier: each commit
//! ([`ParallelShardedDfi::commit_policy`]; `insert_policy` /
//! `revoke_policy` are one-mutation commits) publishes once to the shared
//! store, sends `Cmd::Epoch` down every channel, and **blocks until every
//! worker acks** before admitting the next command of any kind. Because
//! channels are FIFO, every command sent before the epoch is processed
//! under the old snapshot on every shard, and everything after under the
//! new one — channel nondeterminism is confined to *intra*-epoch ordering,
//! which the differential oracle proves decision-irrelevant.
//!
//! # Why there are no locks on the decide path
//!
//! A worker decides flows against the `Arc<PolicySnapshot>` sitting in its
//! own thread-local `SnapshotStore` — immutable data, no lock, exactly the
//! unsharded hot path. The one mutex in the system
//! ([`SharedSnapshotStore`]) is touched by a worker only while handling
//! `Cmd::Epoch`, i.e. at most once per published epoch and never while a
//! flow is in flight (the barrier holds new work back), and by the
//! front-end only inside the barrier. Binding state is not shared at all:
//! each worker owns an ERM replica fed by value over its channel.
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

use crate::dfi::{BindingBatch, BindingOp, Dfi, DfiConfig, DfiMetrics};
use crate::erm::Binding;
use crate::events::SnapshotWitness;
use crate::policy::{
    CommitOutcome, PolicyId, PolicyManager, PolicyMutation, PolicySnapshot, SharedSnapshotStore,
};
use crate::shard::{ShardFanoutMetrics, SNAPSHOT_RETENTION};
use dfi_dataplane::Tx;
use dfi_simnet::topo::shard_of;
use dfi_simnet::{shard_seed, Sim, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering as MemOrder};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Commands queued ahead of a worker (bounded to this depth; senders
/// back-pressure rather than grow without bound).
const CMD_CHANNEL_DEPTH: usize = 4096;
/// Reply-channel depth: a worker sends at most one reply per request the
/// front-end is already waiting on, so this never fills in practice.
const REPLY_CHANNEL_DEPTH: usize = 16;

/// Everything the front-end can ask of a shard worker. Plain data only —
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
    /// Install the epoch just published to the shared store; ack when
    /// serving it. `reflush` carries deferred flushes on a recovery.
    Epoch {
        epoch: u64,
        recovery: bool,
        reflush: Vec<PolicyId>,
    },
    /// Report (and clear) the hot path's default-deny note.
    TakeNote,
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
    /// The shard `Dfi`'s full metrics.
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
    /// Every shard's [`DfiMetrics`] merged.
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

/// The thread-local world a [`WorldBuilder`] constructs around a shard's
/// [`Dfi`]: injection taps, boundary ingresses, and an observation hook.
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
pub type WorldBuilder = Box<dyn FnOnce(&mut Sim, &Dfi, &Outbox) -> WorkerWorld + Send>;

/// The parallel certification hook, consulted before every publication.
/// Runs on the front-end thread against the fleet's one [`PolicyManager`].
pub type ParSnapshotGate = Box<dyn FnMut(&PolicyManager) -> Vec<SnapshotWitness>>;

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

/// The thread-parallel sharded DFI front-end. Unlike the cooperative
/// [`ShardedDfi`](crate::ShardedDfi) handle this is `&mut self`-driven:
/// the front-end lives on the caller's thread and is the single admission
/// point for punts, bindings, and policy mutations (which is what makes
/// the epoch barrier a barrier).
pub struct ParallelShardedDfi {
    workers: Vec<Worker>,
    /// Global boundary id → worker owning the ingress.
    routes: HashMap<u64, usize>,
    store: Arc<SharedSnapshotStore>,
    pm: PolicyManager,
    next_epoch: u64,
    next_binding_epoch: u64,
    publish_deferred: bool,
    deferred_flushes: Vec<PolicyId>,
    gate: Option<ParSnapshotGate>,
    /// Front-end retention ring: the last [`SNAPSHOT_RETENTION`] retired
    /// certified snapshots, oldest first. Worker stores keep their own
    /// rings, but those live on the worker threads — rollback needs a
    /// copy the front-end can reach without crossing a channel.
    history: VecDeque<Arc<PolicySnapshot>>,
    metrics: ShardFanoutMetrics,
    /// Last acked/reported epoch per worker.
    served: Vec<u64>,
    poisoned: Arc<AtomicBool>,
}

impl ParallelShardedDfi {
    /// Spawns one worker thread per builder. Worker `w` gets its own
    /// deterministic clock seeded [`shard_seed`]`(seed, w)`; `routes` maps
    /// every global boundary id a builder registers to the worker index
    /// that owns it. Blocks until every world is built and quiescent.
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
        let store = Arc::new(SharedSnapshotStore::default());
        let poisoned = Arc::new(AtomicBool::new(false));
        let workers: Vec<Worker> = builders
            .into_iter()
            .enumerate()
            .map(|(w, builder)| {
                let (cmd_tx, cmd_rx) = sync_channel::<Cmd>(CMD_CHANNEL_DEPTH);
                let (reply_tx, reply_rx) = sync_channel::<Reply>(REPLY_CHANNEL_DEPTH);
                let cfg = config.clone();
                let cell = Arc::clone(&store);
                let wseed = shard_seed(seed, w);
                let join = std::thread::Builder::new()
                    .name(format!("dfi-shard-{w}"))
                    .spawn(move || worker_main(wseed, &cfg, &cell, builder, &cmd_rx, &reply_tx))
                    .expect("spawn shard worker");
                Worker {
                    cmd: cmd_tx,
                    reply: reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        let me = ParallelShardedDfi {
            workers,
            routes,
            store,
            pm: PolicyManager::new(),
            next_epoch: 0,
            next_binding_epoch: 1,
            publish_deferred: false,
            deferred_flushes: Vec::new(),
            gate: None,
            history: VecDeque::new(),
            metrics: ShardFanoutMetrics::default(),
            served: vec![0; n],
            poisoned,
        };
        for w in &me.workers {
            match w.reply.recv() {
                Ok(Reply::Built) => {}
                other => panic!("worker failed to build its world: got {:?}", kind(&other)),
            }
        }
        me
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// The shard owning `dpid` — the same pure partition the cooperative
    /// front-end and the topology tests use.
    #[must_use]
    pub fn shard_of(&self, dpid: u64) -> usize {
        shard_of(dpid, self.workers.len())
    }

    /// Injects `frame` at worker `shard`'s tap `tap`, at the worker's
    /// current sim time.
    pub fn punt(&mut self, shard: usize, tap: u32, frame: Vec<u8>) {
        self.send(
            shard,
            Cmd::Punt {
                tap,
                frame,
                at: None,
            },
        );
    }

    /// Injects `frame` at worker `shard`'s tap `tap`, scheduled at
    /// absolute worker-sim time `at` (clamped to the worker's now if
    /// already past).
    pub fn punt_at(&mut self, shard: usize, tap: u32, frame: Vec<u8>, at: SimTime) {
        self.send(
            shard,
            Cmd::Punt {
                tap,
                frame,
                at: Some(at),
            },
        );
    }

    /// Runs every worker's clock up to `t` (fire-and-forget; commands
    /// sent afterwards are processed at `t` or later).
    pub fn advance_all(&mut self, t: SimTime) {
        for w in 0..self.workers.len() {
            self.send(w, Cmd::AdvanceTo(t));
        }
    }

    /// Stamps `ops` as one batch and fans it to the shards that need it:
    /// MAC-location ops go only to the shard owning their dpid, everything
    /// else broadcasts — identical routing to the cooperative front-end.
    /// Returns the batch's epoch stamp.
    pub fn apply_binding_ops(&mut self, ops: Vec<BindingOp>) -> u64 {
        let epoch = self.next_binding_epoch;
        self.next_binding_epoch += 1;
        self.metrics.binding_batches += 1;
        let routed = ops.iter().any(|op| {
            matches!(
                op,
                BindingOp::Bind(Binding::MacLocation { .. })
                    | BindingOp::Unbind(Binding::MacLocation { .. })
            )
        });
        let mut delivered = 0u64;
        if routed {
            for w in 0..self.workers.len() {
                let mine: Vec<BindingOp> = ops
                    .iter()
                    .filter(|op| {
                        let b = match op {
                            BindingOp::Bind(b) | BindingOp::Unbind(b) => b,
                        };
                        match b {
                            Binding::MacLocation { dpid, .. } => self.shard_of(*dpid) == w,
                            _ => true,
                        }
                    })
                    .cloned()
                    .collect();
                if !mine.is_empty() {
                    delivered += mine.len() as u64;
                    self.send(w, Cmd::Bindings(BindingBatch { epoch, ops: mine }));
                }
            }
        } else {
            delivered = (ops.len() * self.workers.len()) as u64;
            let last = self.workers.len() - 1;
            for w in 0..last {
                self.send(
                    w,
                    Cmd::Bindings(BindingBatch {
                        epoch,
                        ops: ops.clone(),
                    }),
                );
            }
            self.send(last, Cmd::Bindings(BindingBatch { epoch, ops }));
        }
        self.metrics.binding_ops_delivered += delivered;
        epoch
    }

    /// Applies `mutations` as one policy commit across the worker fleet:
    /// gathers default-deny notes from every worker (when the commit
    /// inserts), applies the mutations to the fleet's one Policy Manager,
    /// sends the union of their cookie flushes down every channel once,
    /// then publishes through one epoch barrier. Mirrors the cooperative
    /// front-end step for step.
    ///
    /// # Panics
    ///
    /// Panics if a worker hung up or answered out of protocol.
    pub fn commit_policy(&mut self, mutations: Vec<PolicyMutation>) -> CommitOutcome {
        if mutations.iter().any(PolicyMutation::is_insert) {
            let mut noted = false;
            for w in 0..self.workers.len() {
                self.send(w, Cmd::TakeNote);
            }
            for w in &self.workers {
                match w.reply.recv() {
                    Ok(Reply::Note(b)) => noted |= b,
                    other => panic!("expected a note reply, got {:?}", kind(&other)),
                }
            }
            if noted {
                self.pm.note_default_deny_cached();
            }
        }
        let outcome = self.pm.commit(mutations);
        if outcome.applied > 0 {
            self.fanout_flushes(&outcome.flush);
            self.republish(&outcome.flush);
        }
        outcome
    }

    /// Inserts a policy rule fleet-wide (a one-mutation commit).
    pub fn insert_policy(
        &mut self,
        rule: crate::policy::PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> PolicyId {
        let outcome = self.commit_policy(vec![PolicyMutation::insert(rule, priority, pdp)]);
        outcome.inserted[0]
    }

    /// Revokes a policy rule fleet-wide (a one-mutation commit). Returns
    /// `false` for unknown ids.
    pub fn revoke_policy(&mut self, id: PolicyId) -> bool {
        self.commit_policy(vec![PolicyMutation::Revoke(id)]).applied > 0
    }

    /// Installs the certification hook consulted before every publication.
    pub fn set_snapshot_gate(&mut self, gate: ParSnapshotGate) {
        self.gate = Some(gate);
    }

    /// The front-end's retained retired snapshots, oldest first (at most
    /// [`SNAPSHOT_RETENTION`]).
    #[must_use]
    pub fn snapshot_history(&self) -> Vec<Arc<PolicySnapshot>> {
        self.history.iter().map(Arc::clone).collect()
    }

    /// One-command rollback to a retained snapshot epoch across the
    /// worker fleet: restores the front-end Policy Manager to the
    /// retained rule set, fans the diff's cookie flushes down every
    /// worker channel, and republishes through the certify → epoch
    /// barrier (a one-mutation commit). Returns `false` when `epoch` left
    /// the retention ring.
    pub fn rollback_snapshot(&mut self, epoch: u64) -> bool {
        let Some(target) = self
            .history
            .iter()
            .find(|s| s.epoch() == epoch)
            .map(Arc::clone)
        else {
            return false;
        };
        self.commit_policy(vec![PolicyMutation::Restore(target)]);
        true
    }

    fn fanout_flushes(&mut self, ids: &[PolicyId]) {
        if ids.is_empty() {
            return;
        }
        self.metrics.flush_fanouts += 1;
        for w in 0..self.workers.len() {
            self.send(w, Cmd::Flushes(ids.to_vec()));
        }
    }

    /// Certify → compile once → publish to the shared store → `Epoch`
    /// command down every channel → **block for every ack**, once per
    /// commit. The barrier
    /// is what preserves the no-two-epochs guarantee across threads: no
    /// later command of any kind is admitted until every shard serves the
    /// new epoch.
    fn republish(&mut self, flush_hint: &[PolicyId]) {
        let witnesses = match self.gate.take() {
            Some(mut hook) => {
                let w = hook(&self.pm);
                self.gate = Some(hook);
                w
            }
            None => Vec::new(),
        };
        if witnesses.is_empty() {
            self.next_epoch += 1;
            let epoch = self.next_epoch;
            let snap = Arc::new(PolicySnapshot::compile(&self.pm, epoch));
            self.metrics.snapshot_fanouts += 1;
            let recovered = if self.publish_deferred {
                self.publish_deferred = false;
                Some(std::mem::take(&mut self.deferred_flushes))
            } else {
                None
            };
            let recovery = recovered.is_some();
            let reflush = recovered.unwrap_or_default();
            if !reflush.is_empty() {
                self.metrics.flush_fanouts += 1;
            }
            let retiring = self.store.load();
            if retiring.epoch() > 0 {
                self.history.push_back(retiring);
                while self.history.len() > SNAPSHOT_RETENTION {
                    self.history.pop_front();
                }
            }
            self.store.publish(snap);
            for w in 0..self.workers.len() {
                self.send(
                    w,
                    Cmd::Epoch {
                        epoch,
                        recovery,
                        reflush: reflush.clone(),
                    },
                );
            }
            for (w, worker) in self.workers.iter().enumerate() {
                match worker.reply.recv() {
                    Ok(Reply::EpochAck(e)) => {
                        assert_eq!(e, epoch, "worker {w} acked the wrong epoch");
                        self.served[w] = e;
                    }
                    other => panic!("expected an epoch ack, got {:?}", kind(&other)),
                }
            }
        } else {
            self.publish_deferred = true;
            self.deferred_flushes.extend_from_slice(flush_hint);
            self.metrics.snapshot_refusals += 1;
        }
    }

    /// Drains the fleet to a global fixpoint: every worker runs to
    /// quiescence, cross-shard frames are routed to their owners (shard
    /// order, FIFO channels — deterministic), and the cycle repeats until
    /// no frame moved. Returns the merged fleet state at the fixpoint.
    pub fn drain(&mut self) -> FleetReport {
        loop {
            for w in 0..self.workers.len() {
                self.send(w, Cmd::Drain);
            }
            let reports: Vec<Box<DrainReport>> = self
                .workers
                .iter()
                .map(|w| match w.reply.recv() {
                    Ok(Reply::Drained(r)) => r,
                    other => panic!("expected a drain report, got {:?}", kind(&other)),
                })
                .collect();
            let mut moved = false;
            for report in &reports {
                for (boundary, frame) in &report.relays {
                    let owner = *self
                        .routes
                        .get(boundary)
                        .unwrap_or_else(|| panic!("no route for boundary {boundary}"));
                    self.send(
                        owner,
                        Cmd::Relay {
                            boundary: *boundary,
                            frame: frame.clone(),
                        },
                    );
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
                self.served[w] = report.served_epoch;
            }
            fleet.cookies.sort_by_key(|(dpid, _)| *dpid);
            return fleet;
        }
    }

    /// The snapshot epoch each worker last reported/acked (shard order).
    #[must_use]
    pub fn served_epochs(&self) -> Vec<u64> {
        self.served.clone()
    }

    /// `true` iff every worker serves the same snapshot epoch.
    #[must_use]
    pub fn epochs_agree(&self) -> bool {
        self.served.windows(2).all(|w| w[0] == w[1])
    }

    /// The front-end's own fanout-plane counters — field-compatible with
    /// the cooperative front-end's, so the differential oracle compares
    /// them directly.
    #[must_use]
    pub fn fanout_metrics(&self) -> ShardFanoutMetrics {
        self.metrics.clone()
    }

    /// Stops and joins every worker. Called by `Drop`; explicit calls get
    /// deterministic shutdown points in tests.
    pub fn shutdown(&mut self) {
        for w in &self.workers {
            // Workers that already exited (panicked) have hung up; that is
            // fine, join below will surface it.
            let _ = w.cmd.send(Cmd::Stop);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                if join.join().is_err() {
                    self.poisoned.store(true, MemOrder::Release);
                }
            }
        }
        assert!(
            !self.poisoned.load(MemOrder::Acquire),
            "a shard worker panicked"
        );
    }

    fn send(&self, shard: usize, cmd: Cmd) {
        self.workers[shard]
            .cmd
            .send(cmd)
            .expect("shard worker hung up");
    }
}

impl Drop for ParallelShardedDfi {
    fn drop(&mut self) {
        if self.workers.iter().any(|w| w.join.is_some()) && !std::thread::panicking() {
            self.shutdown();
        }
    }
}

fn kind(r: &Result<Reply, std::sync::mpsc::RecvError>) -> &'static str {
    match r {
        Ok(Reply::Built) => "Built",
        Ok(Reply::Note(_)) => "Note",
        Ok(Reply::EpochAck(_)) => "EpochAck",
        Ok(Reply::Drained(_)) => "Drained",
        Err(_) => "worker hung up",
    }
}

/// The worker loop: owns the shard's complete world — deterministic clock,
/// `Dfi`, data-plane slice, controller replica — and serializes every
/// front-end command against it.
fn worker_main(
    seed: u64,
    config: &DfiConfig,
    store: &SharedSnapshotStore,
    builder: WorldBuilder,
    cmds: &Receiver<Cmd>,
    replies: &SyncSender<Reply>,
) {
    let mut sim = Sim::new(seed);
    let dfi = Dfi::new(config.clone());
    dfi.set_snapshot_retention(SNAPSHOT_RETENTION);
    let outbox = Outbox::default();
    let mut world = builder(&mut sim, &dfi, &outbox);
    let boundaries: HashMap<u64, dfi_dataplane::ByteSink> = world.boundaries.drain(..).collect();
    sim.run();
    replies.send(Reply::Built).expect("front-end hung up");
    let mut served = 0u64;
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
                let _fresh = dfi.apply_binding_batch(&batch);
            }
            Cmd::Flushes(ids) => {
                for id in ids {
                    dfi.invalidate_cached_policy(id);
                    dfi.flush_policy_rules(&mut sim, id);
                }
            }
            Cmd::Epoch {
                epoch,
                recovery,
                reflush,
            } => {
                let snap = store.load();
                assert_eq!(
                    snap.epoch(),
                    epoch,
                    "the barrier admits exactly one outstanding epoch"
                );
                dfi.install_shared_snapshot(snap, recovery);
                for id in reflush {
                    dfi.invalidate_cached_policy(id);
                    dfi.flush_policy_rules(&mut sim, id);
                }
                served = epoch;
                replies
                    .send(Reply::EpochAck(epoch))
                    .expect("front-end hung up");
            }
            Cmd::TakeNote => {
                replies
                    .send(Reply::Note(dfi.take_default_deny_note()))
                    .expect("front-end hung up");
            }
            Cmd::AdvanceTo(t) => {
                sim.run_until(t);
            }
            Cmd::Drain => {
                sim.run();
                let (deliveries, cookies) = (world.observe)(&mut sim);
                let report = DrainReport {
                    relays: outbox.take(),
                    metrics: dfi.metrics(),
                    deliveries,
                    cookies,
                    served_epoch: served,
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
