#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, tests, and bench compilation.
# Everything runs offline against the vendored dev-dependency stubs.
#
# Every BENCH_*.json below is rewritten only by a gate that passed.
#
# Usage:
#   scripts/check.sh          full gate: fmt, clippy, workspace tests, the
#                             perfbench package build and a traced perfbench
#                             run that must print a result, a per-crate test
#                             breakdown, deep codec fuzz
#                             (FUZZ_ITERS, default 50000), the analyze, wire,
#                             decide, scale/par, reach, and repair tiers,
#                             bench compile
#   scripts/check.sh --fast   pre-commit tier: fmt, clippy, workspace tests
#                             with the fuzz suites dialed down to 500 cases,
#                             the perfbench package build and its traced
#                             result check
#   scripts/check.sh --analyze
#                             static-analysis tier only: clippy -D warnings
#                             plus the dfi-analyze seeded-corpus ground-truth
#                             gate, the network-audit corpus gate, the
#                             incremental-equivalence / >=10x speedup gate
#                             (writes BENCH_analyze.json), and the table-0
#                             audit demo
#   scripts/check.sh --wire   wire-path tier only: the splice-vs-oracle
#                             differential suite (deep), the golden byte
#                             vectors, and the dfi-wiregate allocation /
#                             speedup gate (writes BENCH_wire.json)
#   scripts/check.sh --decide
#                             flow-decide tier only: the snapshot
#                             equivalence proptests (classify ==
#                             query_linear, classify_class ==
#                             query_class_linear) and the dfi-decidegate
#                             >=3505x speedup over the linear oracle
#                             (median of alternating rounds) / zero-alloc
#                             gate on the compiled classifier (writes
#                             BENCH_decide.json)
#   scripts/check.sh --reach  reachability tier only: the brute-force
#                             per-packet oracle proptest (reach verdicts ==
#                             simulating every representative packet), the
#                             seeded reach-corpus exact ground-truth gate, the
#                             clean-fabric gate, and the 1000-switch
#                             leaf-spine incremental-vs-full recheck with a
#                             >=100x speedup gate (writes BENCH_reach.json)
#   scripts/check.sh --scale  fleet-scale tier only: the sharded-vs-unsharded
#                             differential oracle and topology proptests,
#                             then the dfi-scalegate 1000-switch / ~1M-binding
#                             run — probe equivalence verified before any
#                             timing, >=2x 8-shard throughput scaling gate
#                             (SCALE_ITERS trims the offered flows; writes
#                             BENCH_scale.json)
#   scripts/check.sh --par    thread-parallel tier only: the threaded
#                             differential oracle (byte-identical 360-step
#                             trace across 1/2/4/8 worker threads), the
#                             threaded revocation race, then the full
#                             dfi-scalegate run with the --sweep and --wall
#                             phases — Fig-4 saturation curves plus the
#                             hardware-aware parallel wall-scaling and
#                             monotonicity gates (writes BENCH_scale.json)
#   scripts/check.sh --repair repair tier only: the repair-convergence
#                             proptests and snapshot-rollback regressions,
#                             the per-corpus `repair --expect-repaired`
#                             exact ground-truth-plan gates (policy,
#                             network, reach — each also applied and
#                             re-audited clean), the live 14-switch repair
#                             loop, and the timed 1000-switch leaf-spine
#                             repair bench (writes BENCH_repair.json)
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a gate that prints its result as JSON, shows that output, and
# moves it over the committed BENCH_*.json file ($1) only when the gate
# exits 0: a failing gate must never overwrite a committed result.
record_gate() {
  local out="$1"
  shift
  local tmp
  tmp=$(mktemp)
  if "$@" >"$tmp"; then
    cat "$tmp"
    chmod 0644 "$tmp"
    mv "$tmp" "$out"
  else
    local status=$?
    cat "$tmp"
    rm -f "$tmp"
    return "$status"
  fi
}

FAST=0
ANALYZE_ONLY=0
WIRE_ONLY=0
DECIDE_ONLY=0
SCALE_ONLY=0
REACH_ONLY=0
PAR_ONLY=0
REPAIR_ONLY=0
case "${1:-}" in
  --fast) FAST=1 ;;
  --analyze) ANALYZE_ONLY=1 ;;
  --wire) WIRE_ONLY=1 ;;
  --decide) DECIDE_ONLY=1 ;;
  --scale) SCALE_ONLY=1 ;;
  --reach) REACH_ONLY=1 ;;
  --par) PAR_ONLY=1 ;;
  --repair) REPAIR_ONLY=1 ;;
esac

run_wire() {
  echo "== splice golden byte vectors =="
  cargo test -q -p dfi-openflow --test splice_golden
  echo "== splice vs oracle differential (FUZZ_ITERS=${FUZZ_ITERS:-20000}) =="
  FUZZ_ITERS="${FUZZ_ITERS:-20000}" \
    cargo test -q -p dfi-core --test splice_oracle
  echo "== dfi-wiregate: allocation budget + >=2x speedup gate =="
  cargo build -q --release -p dfi-wiregate
  record_gate BENCH_wire.json ./target/release/dfi-wiregate --gate 2
}

if [[ "$WIRE_ONLY" == 1 ]]; then
  run_wire
  echo "All checks passed."
  exit 0
fi

run_decide() {
  echo "== snapshot equivalence (classify == query_linear, classify_class == query_class_linear) =="
  cargo test -q -p dfi-core --test proptest_policy snapshot
  echo "== dfi-decidegate: >=3505x classify vs linear oracle (median round) + zero-alloc gate =="
  cargo build -q --release -p dfi-wiregate
  record_gate BENCH_decide.json ./target/release/dfi-decidegate --gate 3505
}

if [[ "$DECIDE_ONLY" == 1 ]]; then
  run_decide
  echo "All checks passed."
  exit 0
fi

run_scale_tests() {
  echo "== sharded-vs-unsharded differential oracle (100+ live snapshot swaps) =="
  cargo test -q -p dfi-core --test sharded_oracle
  echo "== generated-topology properties (counts, connectivity, shard partition) =="
  cargo test -q -p dfi-simnet --test proptest_topo
}

run_scale() {
  run_scale_tests
  echo "== dfi-scalegate: 1000-switch / ~1M-binding fleet, equivalence then >=2x scaling gate =="
  cargo build -q --release -p dfi-wiregate
  record_gate BENCH_scale.json env SCALE_ITERS="${SCALE_ITERS:-12000}" \
    ./target/release/dfi-scalegate --gate 2
}

if [[ "$SCALE_ONLY" == 1 ]]; then
  run_scale
  echo "All checks passed."
  exit 0
fi

run_par_tests() {
  echo "== threaded differential oracle (byte-identical trace across 1/2/4/8 workers) =="
  cargo test -q -p dfi-core --test threaded_oracle
  echo "== threaded revocation race (fail closed across the thread boundary) =="
  cargo test -q --test threaded_race
}

run_par() {
  run_par_tests
  echo "== dfi-scalegate --sweep --wall: Fig-4 curves + parallel wall gates =="
  cargo build -q --release -p dfi-wiregate
  record_gate BENCH_scale.json env SCALE_ITERS="${SCALE_ITERS:-12000}" \
    ./target/release/dfi-scalegate --gate 2 --sweep --wall
}

if [[ "$PAR_ONLY" == 1 ]]; then
  run_par
  echo "All checks passed."
  exit 0
fi

run_reach() {
  echo "== reach vs brute-force per-packet oracle (proptest) =="
  cargo test -q -p dfi-analyze --test proptest_reach
  echo "== dfi-analyze: seeded reach corpus (exact ground-truth gate) =="
  cargo build -q --release -p dfi-analyze
  ./target/release/dfi-analyze reach --spines 2 --leaves 8 --hosts 150 --flows 70 \
    --seed 7 --defects --expect-seeded
  echo "== dfi-analyze: clean fabric proves clean =="
  ./target/release/dfi-analyze reach --spines 2 --leaves 8 --hosts 150 --flows 70 --seed 7
  echo "== dfi-analyze: 1000-switch incremental recheck, equivalence then >=100x gate =="
  record_gate BENCH_reach.json ./target/release/dfi-analyze reach --spines 40 --leaves 960 \
    --hosts 600 --flows 250 --seed 7 --bench 40 --gate 100 --json
}

if [[ "$REACH_ONLY" == 1 ]]; then
  run_reach
  echo "All checks passed."
  exit 0
fi

run_repair() {
  echo "== repair convergence proptests (clear / no-new / idempotent / oracle) =="
  cargo test -q -p dfi-analyze --test proptest_repair
  echo "== snapshot rollback regressions (unsharded / sharded / threaded) =="
  cargo test -q -p dfi-core --test rollback
  echo "== live 14-switch repair loop (direct apply + bus-driven PDP) =="
  cargo test -q -p dfi-analyze --test repair_live
  echo "== dfi-analyze repair: per-corpus exact ground-truth-plan gates =="
  cargo build -q --release -p dfi-analyze
  ./target/release/dfi-analyze repair --corpus policy --seed 7 --expect-repaired --apply
  ./target/release/dfi-analyze repair --corpus network --seed 7 --expect-repaired --apply
  ./target/release/dfi-analyze repair --corpus reach --seed 7 --expect-repaired --apply
  echo "== dfi-analyze repair: timed 1000-switch leaf-spine bench =="
  record_gate BENCH_repair.json ./target/release/dfi-analyze repair --corpus reach --spines 8 \
    --leaves 992 --hosts 150 --flows 60 --seed 7 --bench --json
}

if [[ "$REPAIR_ONLY" == 1 ]]; then
  run_repair
  echo "All checks passed."
  exit 0
fi

run_analyze() {
  echo "== dfi-analyze: seeded 10k-rule corpus (exact ground-truth gate) =="
  cargo build -q --release -p dfi-analyze
  ./target/release/dfi-analyze corpus --rules 10000 --seed 7 --expect-seeded
  echo "== dfi-analyze: seeded network-audit corpus (cross-switch ground truth) =="
  ./target/release/dfi-analyze audit-network --switches 14 --flows 400 --seed 7 \
    --defects --expect-seeded
  echo "== dfi-analyze: incremental equivalence + >=10x speedup gate =="
  record_gate BENCH_analyze.json ./target/release/dfi-analyze watch --rules 10000 --seed 7 \
    --mutations 60 --gate 10 --json
  echo "== dfi-analyze: live table-0 audit demo =="
  ./target/release/dfi-analyze demo
}

if [[ "$ANALYZE_ONLY" == 1 ]]; then
  echo "== cargo clippy (deny warnings) =="
  cargo clippy --workspace --all-targets -- -D warnings
  run_analyze
  echo "All checks passed."
  exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
if [[ "$FAST" == 1 ]]; then
  # Keep the property/fuzz suites present but shallow so the tier stays
  # interactive; the full gate (and nightly FUZZ_ITERS overrides) go deep.
  FUZZ_ITERS=500 cargo test -q --workspace
else
  cargo test -q --workspace
fi

# The benchmark package sits outside the workspace (its own `[workspace]`
# and lockfile), so nothing above compiles it; a core API change could
# otherwise break it silently.
echo "== benchmark package build (perfbench) =="
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

# A traced run that exits 0 must still end in a result: its last stdout
# line must be JSON with "correct": true and a finite value for every
# metric (a ratio over zero counts prints null).
echo "== perfbench traced run prints a result (testbed_day, 1 s) =="
./perfbench/target/release/perfbench --workload testbed_day --seed 1 --seconds 1 --trace 1 \
  | tail -n 1 | python3 -c '
import json, math, sys
line = sys.stdin.read()
try:
    result = json.loads(line)
except ValueError:
    sys.exit("last line is not a JSON result: " + line[:200])
metrics = result.get("metrics") or {}
bad = sorted(name for name, m in metrics.items()
             if not isinstance(m.get("value"), (int, float))
             or isinstance(m.get("value"), bool) or not math.isfinite(m["value"]))
if result.get("correct") is not True or not metrics or bad:
    sys.exit("traced run: correct=%s, metrics without a finite value: %s"
             % (result.get("correct"), bad or "no metrics"))
print("traced run ok: correct, %d finite metrics" % len(metrics))
'

echo "== per-crate test counts =="
for manifest in crates/*/Cargo.toml; do
  pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)
  passed=$(FUZZ_ITERS=500 cargo test -q -p "$pkg" 2>/dev/null \
    | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{s+=$1} END {print s+0}')
  printf '  %-16s %s tests\n' "$pkg" "$passed"
done

if [[ "$FAST" == 0 ]]; then
  echo "== codec conformance, deep (FUZZ_ITERS=${FUZZ_ITERS:-50000}) =="
  FUZZ_ITERS="${FUZZ_ITERS:-50000}" \
    cargo test -q -p dfi-openflow --test conformance

  run_analyze

  run_wire

  run_decide

  # run_par's scalegate run is a strict superset of run_scale's (the
  # cooperative phases always run), so the full gate runs the big binary
  # once with every phase enabled.
  run_scale_tests
  run_par

  run_reach

  run_repair

  echo "== cargo bench --no-run =="
  cargo bench -q --workspace --no-run
fi

echo "All checks passed."
