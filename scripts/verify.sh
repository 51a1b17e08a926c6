#!/usr/bin/env bash
# Full verification: build, published-results check, tests, invariant
# lint, audit, instrumented build, chaos matrix, clippy, and a smoke run
# of the benchmark (ds-ledger, benchmark/).
#
# Usage: scripts/verify.sh [--fast]
#
#   --fast      invariant lint + unit tests only (quick iteration)
#
# Nothing here gates on host time. Simulator speed is ds-ledger's job:
# parent-vs-change pairs of `benchmark/run.sh` on the six workloads in
# BENCHMARK.json, under the bounds declared there (benchmark/README.md,
# "Comparing two commits"). The last stage only proves the ledger still
# builds against the current crates/* and that its output checks pass.
# What the instruments *say* about a run (stall buckets, critical-path
# classes, phases) is pinned exactly by tests/obs_goldens.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 1 || ( $# -eq 1 && "$1" != "--fast" ) ]]; then
    echo "usage: scripts/verify.sh [--fast]" >&2
    exit 2
fi

# All five rules, call-graph ones included, in both modes. The
# wall-clock budget keeps the linter honest about staying cheap enough
# to run on every verify (<5s; it measures in milliseconds).
run_lint() {
    echo "== ds-lint (workspace invariants)"
    cargo build -q "$@" -p ds-lint
    local start=$(date +%s%N)
    cargo run -q "$@" -p ds-lint -- .
    local ms=$(( ($(date +%s%N) - start) / 1000000 ))
    echo "   ds-lint wall clock: ${ms}ms"
    if (( ms > 5000 )); then
        echo "verify: ds-lint exceeded its 5s budget (${ms}ms)" >&2
        exit 1
    fi
}

if [[ "${1:-}" == "--fast" ]]; then
    run_lint

    echo "== cargo test (unit tests only)"
    cargo test --workspace --lib -q

    echo "verify (fast): OK"
    exit 0
fi

echo "== cargo build --release"
cargo build --workspace --release

echo "== results/*.txt are what ds-bench prints (regen_results.sh --check)"
# Before the obs smoke below replaces target/release/ds-bench — every
# experiment at once — with the recording build: the committed tables
# come from the plain build.
scripts/regen_results.sh --check

echo "== cargo test"
cargo test --workspace -q

run_lint --release

echo "== cargo test -p ds-core --features audit (correspondence auditor)"
cargo test -p ds-core --features audit -q

echo "== cargo test --features obs (instrumented build: goldens must stay byte-identical)"
cargo test --features obs -q
cargo test -p ds-core --features obs -q
cargo test -p ds-cpu --features obs -q
cargo test -p ds-net --features obs -q

echo "== obs smoke: ds-bench figure7_ipc --json/--trace-out, validated by obs_validate"
cargo build -q --release -p ds-bench --features obs --bin ds-bench
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
target/release/ds-bench figure7_ipc --quick \
    --json "$obs_tmp/fig7.json" --trace-out "$obs_tmp/trace.json" > /dev/null
# obs_validate checks schema members, trace flow-id pairing, and the
# critpath section (class shares in range, summing to ~1 per system).
cargo run -q --release -p ds-obs --bin obs_validate -- \
    "$obs_tmp/fig7.json" "$obs_tmp/trace.json"
# An instrumented figure7 run must actually attribute a critical path:
# an empty critpath member means the edge hooks silently stopped firing.
grep -q '"critpath":{"' "$obs_tmp/fig7.json" || {
    echo "verify: ds-bench figure7_ipc --json carries no critpath entries" >&2
    exit 1
}
# ...and record a timeline (same silent-death guard for the sampler).
grep -q '"timeline":{"' "$obs_tmp/fig7.json" || {
    echo "verify: ds-bench figure7_ipc --json carries no timeline entries" >&2
    exit 1
}

echo "== ds-dash smoke: render the dashboard, re-validate its embedded payload"
cargo build -q --release -p ds-obs --bin ds-dash
target/release/ds-dash --json "$obs_tmp/fig7.json" \
    --out "$obs_tmp/dash.html" 2> /dev/null
# obs_validate extracts the ds-dash-data payload and re-checks every
# embedded document (timeline interval sums included).
cargo run -q --release -p ds-obs --bin obs_validate -- "$obs_tmp/dash.html"

echo "== chaos gate: ds_chaos fault matrix, validated by obs_validate"
# The quick grid: every fault plan must recover to the fault-free
# architectural state with the watchdog silent. The binary exits
# non-zero on any diverged/deadlocked run; obs_validate re-checks the
# emitted ds-chaos-result/v1 document independently.
cargo build -q --release -p ds-bench --bin ds_chaos
target/release/ds_chaos --quick --parallel --json "$obs_tmp/chaos.json" > /dev/null
cargo run -q --release -p ds-obs --bin obs_validate -- "$obs_tmp/chaos.json"

echo "== cargo clippy (deny warnings)"
cargo clippy --all-targets -- -D warnings

echo "== ds-ledger smoke: the benchmark builds against crates/* and its output checks pass"
# No host-time gating (--quick): a public-API change that breaks the
# benchmark's build, or a run that fails its result/correspondence
# checks, stops here instead of in the pipeline.
(cd benchmark && cargo test --offline -q)
benchmark/run.sh --quick > /dev/null

echo "verify: OK"
