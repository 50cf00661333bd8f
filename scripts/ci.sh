#!/usr/bin/env sh
# CI entry point: the tier-1 verification plus the hermeticity gate.
#
# The workspace must build and test with NO network and NO registry
# dependencies — every dependency is a path dependency inside this repo.
# `--offline --locked` makes cargo fail loudly if that ever regresses,
# and the Cargo.lock grep proves no registry source snuck back in.

set -eu

cd "$(dirname "$0")/.."

echo "== hermeticity: offline, locked build =="
cargo build --offline --locked --workspace

echo "== hermeticity: Cargo.lock has no registry sources =="
if grep -q 'source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock references an external source:" >&2
    grep 'source = ' Cargo.lock >&2
    exit 1
fi

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests (all property + golden suites) =="
cargo test -q --offline --workspace

echo "== benches compile (smoke run, 1 iteration; refreshes BENCH_*.json) =="
# This pass regenerates every BENCH_*.json baseline, so a stale baseline
# never outlives the engine change that invalidated it. replay_scale
# rides along and *asserts* the >= 5x replay-engine speedup even at
# smoke iteration counts.
TESTKIT_BENCH_ITERS=1 TESTKIT_BENCH_WARMUP=0 cargo bench --offline -p bench

# One matrix pass runs every checked-in scenario — training, faults,
# serving (cluster_policies and serve_policies are the policy tables),
# and the multi-chassis scale-out specs (cluster_scale32/64/128, up to
# 8 chassis / 128 GPUs) — and one test binary guards every pinned
# golden (including cluster_scale32) through
# testkit::check_scenario_golden.
echo "== scenario-matrix smoke (every scenarios/*.json, 2 parallel workers) =="
cargo run --release --offline -p bench --bin repro -- scenario-matrix scenarios --jobs 2

# The fault-free vs faulty comparison has no scenario form (it is the
# only producer of JCT inflation), so it keeps its own subcommand. A
# clean exit certifies its in-binary asserts: evacuations > 0, recovery
# clock > 0 and inflation >= 1 under every policy.
echo "== fault-recovery smoke (repro faults, 2 workers) =="
cargo run --release --offline -p bench --bin repro -- faults --jobs 2

# The preemption study exercised on its own: checkpoint preemption +
# migration defrag must replay cleanly through the CLI path too, not
# just inside the matrix fan-out.
echo "== priority-scenario smoke (cluster_priority, 2 workers) =="
cargo run --release --offline -p bench --bin repro -- scenario scenarios/cluster_priority.json --jobs 2

# The production-scale replay (10k jobs + 60 services, ~188k trace
# events) must stay interactive in release mode: the optimized engine
# replays it in well under a second, so a 60-second wall-clock budget
# only trips if the event loop regresses by more than an order of
# magnitude. POSIX sh, whole seconds — coarse on purpose.
echo "== production-scale replay under wall-clock budget (pai_magnitude, 2 workers) =="
pai_start=$(date +%s)
cargo run --release --offline -p bench --bin repro -- scenario scenarios/pai_magnitude.json --jobs 2
pai_elapsed=$(( $(date +%s) - pai_start ))
echo "pai_magnitude replayed in ${pai_elapsed}s (budget 60s)"
if [ "$pai_elapsed" -gt 60 ]; then
    echo "ERROR: pai_magnitude replay took ${pai_elapsed}s > 60s budget" >&2
    exit 1
fi

# The policy search exercised end to end at its frozen provenance:
# the full-budget search over the default portfolio must reproduce the
# checked-in tuned artifact byte-for-byte at 2 workers (worker-count
# independence is what makes this guard meaningful), and stay well
# inside an interactive wall-clock budget.
echo "== policy-search smoke + frozen-artifact guard (autotune, 2 workers) =="
at_start=$(date +%s)
cargo run --release --offline -p bench --bin repro -- \
    autotune scenarios/portfolio_default --budget 96 --seed 7 --jobs 2 \
    > target/tuned_ci.json
at_elapsed=$(( $(date +%s) - at_start ))
echo "autotune searched in ${at_elapsed}s (budget 60s)"
if [ "$at_elapsed" -gt 60 ]; then
    echo "ERROR: autotune took ${at_elapsed}s > 60s budget" >&2
    exit 1
fi
if ! cmp -s target/tuned_ci.json crates/bench/golden/tuned_default.json; then
    echo "ERROR: tuned artifact drifted from crates/bench/golden/tuned_default.json;" >&2
    echo "if the portfolio or policy engine changed intentionally, refreeze it:" >&2
    echo "  repro autotune scenarios/portfolio_default --budget 96 --seed 7" >&2
    diff target/tuned_ci.json crates/bench/golden/tuned_default.json >&2 || true
    exit 1
fi

# The benchmark package (its own workspace under perfbench/): its
# self-check, then one short traced run per workload. A traced run
# fails an attempt unless every replay matches its golden and stays
# byte-identical at 1/1, 1/2 and 2/1 sweep/shard workers, so a
# determinism break surfaces here as a nonzero "failed" count.
echo "== perfbench: self-check + one traced run per workload =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in paper_figs pai_replay pai_contended; do
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 1 | tail -n 1)
    echo "$workload: $result"
    case "$result" in
        *'"failed":0,'*) ;;
        *)
            echo "ERROR: perfbench $workload reported failed attempts" >&2
            exit 1
            ;;
    esac
done

echo "== byte-determinism guard: pinned scenario goldens still match =="
# Guards all six frozen goldens, including the pai_magnitude summary
# report that pins the optimized replay engine's semantics and the
# cluster_priority report that pins the preemption engine's decisions.
cargo test -q --offline -p bench --test scenario_goldens

echo "CI OK"
