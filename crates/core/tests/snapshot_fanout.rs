//! Snapshot publication fanout under certification refusal, plus the
//! versioned retention window.
//!
//! The invariant under test is the tentpole's atomicity guarantee: no two
//! shards ever serve different certified epochs. A refused publication
//! must leave *all* shards on the same prior epoch (not some on old, some
//! on new), and the first clean publication afterwards must recover the
//! whole fleet at once, re-issuing the flushes deferred at refusal time —
//! each deferred cookie once, however many refused commits flushed it.
//! The front's retention ring must hold the last N certified snapshots —
//! provably the very compilations every shard served (pointer identity),
//! not re-compiled per shard.

use dfi_core::events::{topic, DfiEvent, SnapshotWitness};
use dfi_core::policy::{EndpointPattern, PolicyRule};
use dfi_core::shard::SNAPSHOT_RETENTION;
use dfi_core::{DataShard, Dfi, DfiConfig, GateVerdict};
use dfi_simnet::Sim;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

const SEED: u64 = 0xFA_2019;

fn repro(point: &str) -> String {
    format!("repro: snapshot_fanout seed={SEED:#x} shards=4 at={point}")
}

fn rule(n: usize) -> PolicyRule {
    PolicyRule::allow(
        EndpointPattern::user(&format!("u{n}")),
        EndpointPattern::any(),
    )
}

#[test]
fn refused_snapshot_leaves_all_shards_on_the_same_prior_epoch() {
    let mut sim = Sim::new(SEED);
    let sharded = Dfi::sharded(4, &DfiConfig::default());

    // Observe the bus like the analyzer would.
    let published: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let refused: Rc<Cell<u64>> = Rc::new(Cell::new(0));
    {
        let published = published.clone();
        let refused = refused.clone();
        sharded
            .bus()
            .subscribe(topic::SNAPSHOTS, move |_, ev| match ev {
                DfiEvent::SnapshotPublished { epoch, .. } => published.borrow_mut().push(*epoch),
                DfiEvent::SnapshotRefused { .. } => refused.set(refused.get() + 1),
                _ => {}
            });
    }

    // A flag-controlled certifier: refuses while `refusing` is set.
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

    // Clean insert: every shard moves to the same fresh epoch.
    sharded.insert_policy(&mut sim, rule(1), 10, "fanout-test");
    sim.run();
    assert!(sharded.epochs_agree(), "{}", repro("after-clean-insert"));
    let settled = sharded.served_epochs()[0];

    // Refused insert: publication deferred, NO shard moves. The rule is a
    // higher-priority deny conflicting with rule(1)'s allow, so its flush
    // set is non-empty and lands on the deferred list.
    refusing.set(true);
    let id_b = sharded.insert_policy(
        &mut sim,
        PolicyRule::deny(EndpointPattern::user("u1"), EndpointPattern::any()),
        50,
        "fanout-test",
    );
    sim.run();
    assert_eq!(refused.get(), 1, "{}", repro("after-refused-insert"));
    assert!(sharded.epochs_agree(), "{}", repro("after-refused-insert"));
    assert_eq!(
        sharded.served_epochs(),
        vec![settled; 4],
        "a refusal must leave every shard on the prior epoch; {}",
        repro("after-refused-insert")
    );
    let m = sharded.fanout_metrics();
    assert_eq!(m.snapshot_refusals, 1, "{}", repro("after-refused-insert"));

    // A second refused deny over the same allow flushes the same cookie:
    // the deferred set holds it once.
    sharded.insert_policy(
        &mut sim,
        PolicyRule::deny(EndpointPattern::user("u1"), EndpointPattern::any()),
        60,
        "fanout-test",
    );
    sim.run();
    assert_eq!(refused.get(), 2, "{}", repro("after-second-refusal"));

    // Recovery: the next clean publication moves the whole fleet at once
    // and re-issues the flushes deferred at refusal time. Its own commit
    // flushes nothing (the allow is outranked by both denies), so every
    // cookie flush it sends is a re-flush: one per shard per distinct
    // deferred cookie.
    refusing.set(false);
    let flushes_before = sharded.fanout_metrics().flush_fanouts;
    let cookie_flushes_before = sharded.metrics().flushes;
    sharded.insert_policy(&mut sim, rule(3), 10, "fanout-test");
    sim.run();
    assert_eq!(
        sharded.metrics().flushes - cookie_flushes_before,
        4,
        "4 shards x 1 distinct deferred cookie; {}",
        repro("after-recovery")
    );
    assert!(sharded.epochs_agree(), "{}", repro("after-recovery"));
    let recovered = sharded.served_epochs()[0];
    assert!(
        recovered > settled,
        "recovery must advance the fleet epoch ({recovered} vs {settled}); {}",
        repro("after-recovery")
    );
    assert!(
        sharded.fanout_metrics().flush_fanouts > flushes_before,
        "recovery must re-issue the deferred flushes; {}",
        repro("after-recovery")
    );
    assert_eq!(
        published.borrow().last().copied(),
        Some(recovered),
        "{}",
        repro("after-recovery")
    );
    // The deferred rule is live after recovery.
    assert!(
        sharded.with_pm(|pm| pm.get(id_b).is_some()),
        "{}",
        repro("after-recovery")
    );
}

#[test]
fn retention_window_is_identical_across_shards_by_pointer() {
    let mut sim = Sim::new(SEED ^ 1);
    let sharded = Dfi::sharded(4, &DfiConfig::default());
    // Enough publications to roll the retention ring over, recording the
    // compilation every shard served after each.
    let mut served = Vec::new();
    for n in 0..(SNAPSHOT_RETENTION + 3) {
        sharded.insert_policy(&mut sim, rule(n), 10, "fanout-test");
        sim.run();
        let snaps: Vec<_> = sharded.shards().iter().map(DataShard::snapshot).collect();
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert!(
                Arc::ptr_eq(&snaps[0], snap),
                "shard {i} serves a different compilation of epoch {}; {}",
                snap.epoch(),
                repro("retention")
            );
        }
        served.push(Arc::clone(&snaps[0]));
    }
    let history = sharded.snapshot_history();
    assert_eq!(history.len(), SNAPSHOT_RETENTION, "{}", repro("retention"));
    // The ring holds the very compilations the shards served before the
    // current one, oldest first.
    let retired = &served[served.len() - 1 - SNAPSHOT_RETENTION..served.len() - 1];
    for (kept, was_served) in history.iter().zip(retired) {
        assert!(
            Arc::ptr_eq(kept, was_served),
            "the ring retains a different compilation of epoch {}; {}",
            kept.epoch(),
            repro("retention")
        );
    }
    // The window is the most recent certified epochs, oldest first.
    let epochs: Vec<u64> = history.iter().map(|s| s.epoch()).collect();
    let newest = sharded.served_epochs()[0];
    let expect: Vec<u64> = (newest - SNAPSHOT_RETENTION as u64..newest).collect();
    assert_eq!(epochs, expect, "{}", repro("retention"));
}
