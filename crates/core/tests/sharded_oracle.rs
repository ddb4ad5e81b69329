//! Differential equivalence: the sharded proxy against the unsharded
//! oracle.
//!
//! One seeded trace — flows, policy inserts/revokes (each a live snapshot
//! swap), DHCP moves, session toggles — replays through the unsharded
//! [`dfi_core::Dfi`] and through [`dfi_core::Dfi::sharded`] at 1, 2, 4
//! and 8 shards, over the same generated leaf-spine fabric with a reactive
//! learning controller. After every step (run to quiescence) the decision
//! deltas must be identical: allowed/denied/spoof counts, per-policy
//! attribution, per-host deliveries, and the served snapshot epoch. A
//! second trace mixes policy commits in — multi-rule inserts, some also
//! re-ranking and revoking single inserts, and whole-group revokes — and
//! carries the same obligations. At the end, every switch's
//! Table-0 cookie set must match the oracle's, all shards must agree on
//! the served epoch, and the trace must have crossed at least 100 live
//! snapshot swaps. Any flow step whose decisions were all denials must
//! deliver nothing (zero forbidden deliveries), in both systems.
//!
//! The trace generator, replay world, and step/delta vocabulary live in
//! `common/` and are shared with `threaded_oracle.rs`, which replays the
//! same script through real worker threads.
//!
//! Every assertion carries a one-line `(seed, spec)` repro.

mod common;

use common::{build_world, commit_trace, env_u64, fabric, trace, Step, StepDelta};

#[test]
fn sharded_matches_unsharded_oracle_across_swaps_and_moves() {
    let seed = env_u64("SHARDED_ORACLE_SEED", 0xD51_2019);
    let steps = env_u64("SHARDED_ORACLE_STEPS", 360) as usize;
    let topo = fabric(seed);
    replay_against_oracle(seed, steps, &trace(seed, steps, topo.hosts.len()));
}

/// The same differential obligation over the trace with policy commits
/// mixed in: multi-rule insert commits (some also re-ranking and revoking
/// single inserts) and whole-group revoke commits, each one snapshot swap
/// with the same epoch in every system.
#[test]
fn sharded_matches_unsharded_oracle_on_policy_commits() {
    let seed = env_u64("SHARDED_ORACLE_SEED", 0xD51_2019);
    let steps = env_u64("SHARDED_ORACLE_STEPS", 360) as usize;
    let topo = fabric(seed);
    let script = commit_trace(seed, steps, topo.hosts.len());
    let commits = script
        .iter()
        .filter(|s| matches!(s, Step::Commit { .. }))
        .count();
    let group_revokes = script
        .iter()
        .filter(|s| matches!(s, Step::RevokeCommit { .. }))
        .count();
    assert!(
        commits >= 20 && group_revokes >= 10,
        "trace must mix in commits: {commits} commits, {group_revokes} group revokes; \
         repro: SHARDED_ORACLE_SEED={seed} SHARDED_ORACLE_STEPS={steps}"
    );
    replay_against_oracle(seed, steps, &script);
}

/// Replays `script` through the oracle and through 1/2/4/8 shards and
/// asserts the per-step deltas (epochs included), the final cookie sets
/// and the swap counts agree.
fn replay_against_oracle(seed: u64, steps: usize, script: &[Step]) {
    let topo = fabric(seed);
    let repro = |shards: usize, i: usize, step: &Step| {
        format!(
            "repro: SHARDED_ORACLE_SEED={seed} SHARDED_ORACLE_STEPS={steps} \
             shards={shards} step={i} spec={step:?}"
        )
    };

    // Oracle run, once.
    let mut oracle = build_world(seed, None);
    let expected: Vec<StepDelta> = script.iter().map(|s| oracle.apply(&topo, s)).collect();
    let oracle_cookies = oracle.cookie_sets();
    let swaps = oracle.snapshot_swaps();
    assert!(
        swaps >= 100,
        "trace must cross at least 100 live snapshot swaps, got {swaps}; \
         repro: SHARDED_ORACLE_SEED={seed} SHARDED_ORACLE_STEPS={steps}"
    );

    // Zero forbidden deliveries, oracle side: an all-deny flow step
    // delivers nothing anywhere.
    for (i, (step, delta)) in script.iter().zip(&expected).enumerate() {
        if matches!(step, Step::Flow { .. }) && delta.allowed == 0 && delta.denied > 0 {
            assert!(
                delta.deliveries.iter().all(|&d| d == 0),
                "forbidden delivery on denied flow; {}",
                repro(0, i, step)
            );
        }
    }

    for shards in [1usize, 2, 4, 8] {
        let mut world = build_world(seed, Some(shards));
        for (i, step) in script.iter().enumerate() {
            let got = world.apply(&topo, step);
            assert_eq!(
                got,
                expected[i],
                "sharded({shards}) diverged from oracle; {}",
                repro(shards, i, step)
            );
        }
        assert_eq!(
            world.cookie_sets(),
            oracle_cookies,
            "Table-0 cookie sets diverged; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} shards={shards}"
        );
        assert!(
            world.dfi.epochs_agree(),
            "shards serve different epochs {:?}; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} shards={shards}",
            world.dfi.served_epochs()
        );
        assert_eq!(
            world.snapshot_swaps(),
            swaps,
            "swap count diverged; repro: SHARDED_ORACLE_SEED={seed} \
             SHARDED_ORACLE_STEPS={steps} shards={shards}"
        );
    }
}
