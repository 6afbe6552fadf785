#!/bin/bash
# Measures the cost of the observability layer in its two runtime states by
# driving the in-process `obs_overhead` bench binary (crates/bench):
#
#   disabled — runtime gate off (every hook reduces to one relaxed atomic
#              load)
#   enabled  — gate forced on, full recording plus chrome-trace, JSONL,
#              folded-stack, and run-report serialization
#
# Tracing is always compiled in, so one build covers both. The binary
# measures in-process (no fork/exec or disk in the timed region),
# byte-compares the cut lines across both configs and exits 1 on a
# mismatch. Writes BENCH_obs_overhead.json at the repo root; see
# DESIGN.md §8.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=8
SEED=1997
REPS=5
OUT=BENCH_obs_overhead.json

echo "building obs_overhead..." >&2
cargo build --release -q -p mlpart-bench --bin obs_overhead
target/release/obs_overhead --runs "$RUNS" --seed "$SEED" --reps "$REPS" \
    --out "$OUT"
echo "cut lines identical across disabled/enabled" >&2
cat "$OUT"
