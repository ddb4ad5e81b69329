//! One-command snapshot rollback on the retention ring, in all three
//! execution modes (unsharded, cooperative shards, worker threads).
//!
//! The regression under test: after the certification gate refuses a
//! mutation, the Policy Manager holds uncertified state while the fleet
//! keeps serving the last-good snapshot. `rollback_snapshot(epoch)` must
//! restore the manager to a retained certified epoch's exact rule set,
//! flush everything the restore invalidated, and republish through the
//! normal certify path — leaving every shard on one fresh epoch whose rule
//! set equals the retained one. An epoch that has left the retention ring
//! must be refused (`false`) without touching anything.

use dfi_core::events::SnapshotWitness;
use dfi_core::policy::{EndpointPattern, PolicyId, PolicyRule};
use dfi_core::shard::SNAPSHOT_RETENTION;
use dfi_core::{
    CookieSets, DataShard, Dfi, DfiConfig, GateVerdict, HostDeliveries, ParallelShardedDfi,
    WorkerWorld,
};
use dfi_simnet::Sim;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

const SEED: u64 = 0x0011_B4CC;

fn rule(n: usize) -> PolicyRule {
    PolicyRule::allow(
        EndpointPattern::user(&format!("u{n}")),
        EndpointPattern::any(),
    )
}

/// Ids stored in the manager, ascending — the shape we compare against a
/// snapshot's compiled rule set.
fn pm_ids(ids: &mut Vec<u64>, pm: &mut dfi_core::policy::PolicyManager) {
    ids.clear();
    ids.extend(pm.iter().map(|sp| sp.id.0));
}

#[test]
fn unsharded_rollback_after_refusal_restores_last_good_epoch() {
    let mut sim = Sim::new(SEED);
    let dfi = Dfi::new(DfiConfig::default());
    dfi.set_snapshot_retention(SNAPSHOT_RETENTION);

    let refusing = Rc::new(Cell::new(false));
    {
        let refusing = refusing.clone();
        dfi.set_snapshot_gate(Box::new(move |_| GateVerdict {
            witnesses: if refusing.get() {
                vec![SnapshotWitness {
                    kind: "test-refusal".into(),
                    rules: vec![],
                    message: "refused by test certifier".into(),
                }]
            } else {
                Vec::new()
            },
            findings: Vec::new(),
        }));
    }

    // Two clean certified epochs; the first retires onto the ring.
    let keep = dfi.insert_policy(&mut sim, rule(1), 10, "rollback-test");
    sim.run();
    let good_epoch = dfi.snapshot().epoch();
    dfi.insert_policy(&mut sim, rule(2), 10, "rollback-test");
    sim.run();
    assert!(
        dfi.snapshot_history()
            .iter()
            .any(|s| s.epoch() == good_epoch),
        "the first certified epoch is retained"
    );

    // A refused mutation: the manager takes the rule, the fleet does not.
    refusing.set(true);
    let bad = dfi.insert_policy(&mut sim, rule(3), 10, "rollback-test");
    sim.run();
    let m = dfi.metrics();
    assert_eq!(m.snapshot_refusals, 1);
    let served_during_refusal = dfi.snapshot().epoch();
    assert!(dfi.with_pm(|pm| pm.get(bad).is_some()));

    // One command undoes it: back to the retained good epoch's rule set,
    // republished under a fresh (strictly newer) epoch.
    refusing.set(false);
    assert!(dfi.rollback_snapshot(&mut sim, good_epoch));
    sim.run();
    let mut ids = Vec::new();
    dfi.with_pm(|pm| pm_ids(&mut ids, pm));
    assert_eq!(ids, vec![keep.0], "only the good epoch's rule survives");
    assert!(
        dfi.snapshot().epoch() > served_during_refusal,
        "a rollback republishes under a fresh epoch, it never rewinds the counter"
    );
    assert_eq!(
        dfi.metrics().snapshot_refusals,
        1,
        "the rollback itself certifies"
    );

    // Epochs outside the retention ring are refused untouched.
    let before = dfi.snapshot().epoch();
    assert!(!dfi.rollback_snapshot(&mut sim, 10_000));
    assert_eq!(dfi.snapshot().epoch(), before);
}

#[test]
fn sharded_rollback_restores_the_whole_fleet_at_once() {
    let mut sim = Sim::new(SEED ^ 1);
    let sharded = Dfi::sharded(4, &DfiConfig::default());

    let refusing = Rc::new(Cell::new(false));
    {
        let refusing = refusing.clone();
        sharded.set_snapshot_gate(Box::new(move |_| GateVerdict {
            witnesses: if refusing.get() {
                vec![SnapshotWitness {
                    kind: "test-refusal".into(),
                    rules: vec![],
                    message: "refused by test certifier".into(),
                }]
            } else {
                Vec::new()
            },
            findings: Vec::new(),
        }));
    }

    let keep = sharded.insert_policy(&mut sim, rule(1), 10, "rollback-test");
    sim.run();
    let good_epoch = sharded.served_epochs()[0];
    sharded.insert_policy(&mut sim, rule(2), 10, "rollback-test");
    sim.run();

    refusing.set(true);
    let bad = sharded.insert_policy(&mut sim, rule(3), 10, "rollback-test");
    sim.run();
    assert!(sharded.epochs_agree(), "a refusal strands no shard");
    let served_during_refusal = sharded.served_epochs()[0];
    assert!(sharded.with_pm(|pm| pm.get(bad).is_some()));

    refusing.set(false);
    assert!(sharded.rollback_snapshot(&mut sim, good_epoch));
    sim.run();
    assert!(
        sharded.epochs_agree(),
        "rollback moves every shard together"
    );
    assert!(sharded.served_epochs()[0] > served_during_refusal);
    let mut ids = Vec::new();
    sharded.with_pm(|pm| pm_ids(&mut ids, pm));
    assert_eq!(ids, vec![keep.0]);
    // Every shard's current snapshot compiles exactly the restored set.
    for shard in sharded.shards() {
        let snap_ids: Vec<u64> = shard.snapshot().rules().map(|(id, _)| id.0).collect();
        assert_eq!(snap_ids, vec![keep.0], "restored rule set on every shard");
    }

    assert!(!sharded.rollback_snapshot(&mut sim, 10_000));
}

/// A do-nothing worker world: no switches, no taps — policy plumbing only.
fn empty_builders(n: usize) -> Vec<dfi_core::WorldBuilder> {
    (0..n)
        .map(|_| {
            Box::new(
                |_: &mut Sim, _: &DataShard, _: &dfi_core::Outbox| WorkerWorld {
                    taps: Vec::new(),
                    boundaries: Vec::new(),
                    observe: Box::new(|_| (HostDeliveries::new(), CookieSets::new())),
                },
            ) as dfi_core::WorldBuilder
        })
        .collect()
}

#[test]
fn threaded_rollback_crosses_the_epoch_barrier() {
    let mut par = ParallelShardedDfi::new(
        &DfiConfig::default(),
        SEED ^ 2,
        empty_builders(4),
        HashMap::new(),
    );

    let keep: PolicyId = par.insert_policy(rule(1), 10, "rollback-test");
    par.drain();
    let good_epoch = par.served_epochs()[0];
    par.insert_policy(rule(2), 10, "rollback-test");
    par.drain();
    assert!(
        par.snapshot_history()
            .iter()
            .any(|s| s.epoch() == good_epoch),
        "front-end retention ring holds the good epoch"
    );

    // Refuse the next mutation at the front-end gate.
    let refusing = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    {
        let refusing = refusing.clone();
        par.set_snapshot_gate(Box::new(move |_| GateVerdict {
            witnesses: if refusing.load(std::sync::atomic::Ordering::Relaxed) {
                vec![SnapshotWitness {
                    kind: "test-refusal".into(),
                    rules: vec![],
                    message: "refused by test certifier".into(),
                }]
            } else {
                Vec::new()
            },
            findings: Vec::new(),
        }));
    }
    par.insert_policy(rule(3), 10, "rollback-test");
    par.drain();
    assert!(par.epochs_agree(), "a refusal strands no worker");
    let served_during_refusal = par.served_epochs()[0];

    refusing.store(false, std::sync::atomic::Ordering::Relaxed);
    assert!(par.rollback_snapshot(good_epoch));
    par.drain();
    assert!(
        par.epochs_agree(),
        "rollback crosses the barrier as one epoch"
    );
    assert!(par.served_epochs()[0] > served_during_refusal);

    // One more clean publish retires the rollback's snapshot onto the
    // ring, where we can see its compiled rule set: the good epoch's
    // exact rules (the refused rule(3) is gone, rule(2) rolled back).
    par.insert_policy(rule(4), 10, "rollback-test");
    par.drain();
    let history = par.snapshot_history();
    let rolled_back = history.last().expect("rollback snapshot retained");
    let ids: Vec<u64> = rolled_back.rules().map(|(id, _)| id.0).collect();
    assert_eq!(
        ids,
        vec![keep.0],
        "rollback restored the good epoch's rule set"
    );

    assert!(!par.rollback_snapshot(10_000), "expired epochs are refused");
    par.shutdown().expect("no shard worker panicked");
}
