#!/usr/bin/env bash
# Full verification: format check, build, published-results check
# (every experiment's pooled output, the chaos matrix among them),
# tests, invariant lint, audit, the instrumented (`Obs`) smokes, clippy with
# its seeded fixture, and a smoke run of the benchmark (ds-ledger,
# benchmark/). The uninstrumented and instrumented flavours
# (`ds_obs::Plain`, `ds_obs::Obs`) are type parameters, not features:
# one build holds both, and the test stages run both.
#
# Usage: scripts/verify.sh [--fast]
#
#   --fast      format check + clippy + ds-lint + unit tests only (quick iteration)
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

# a1, the call-graph rule, in both modes. The wall-clock budget keeps
# the linter honest about staying cheap enough to run on every verify
# (<5s; it measures in milliseconds).
run_lint() {
    echo "== ds-lint (allocation-free cycle path)"
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

# d1, d2 and p1 (clippy.toml and [workspace.lints], docs/analysis.md)
# over every target of every member, and of ds-core's audit build, in
# both modes.
run_clippy() {
    echo "== cargo clippy over the workspace and the audit build (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy -p ds-core --all-targets --features audit -- -D warnings
}

# One style, recorded in rustfmt.toml; a change that is not formatted
# stops here, in both modes.
echo "== cargo fmt --all --check"
cargo fmt --all --check

if [[ "${1:-}" == "--fast" ]]; then
    run_clippy
    run_lint

    echo "== cargo test (unit tests only)"
    cargo test --workspace --lib -q

    echo "verify (fast): OK"
    exit 0
fi

echo "== cargo build --release"
cargo build --workspace --release

echo "== results/*.txt are what ds-bench prints (regen_results.sh --check)"
scripts/regen_results.sh --check

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo test"
cargo test --workspace -q

run_lint --release

echo "== cargo test -p ds-core --features audit (correspondence auditor)"
cargo test -p ds-core --features audit -q

echo "== obs smoke: ds-bench figure7_ipc --json/--trace-out, validated by obs_validate"
target/release/ds-bench figure7_ipc --quick \
    --json "$tmp/fig7.json" --trace-out "$tmp/trace.json" > /dev/null
# obs_validate checks schema members, trace flow-id pairing, and the
# critpath section (class shares in range, summing to ~1 per system).
target/release/obs_validate "$tmp/fig7.json" "$tmp/trace.json"
# figure7_ipc's instrumented runs must actually attribute a critical
# path: an empty critpath member means the edge hooks silently stopped
# firing.
grep -q '"critpath":{"' "$tmp/fig7.json" || {
    echo "verify: ds-bench figure7_ipc --json carries no critpath entries" >&2
    exit 1
}
# ...and record a timeline (same silent-death guard for the sampler).
grep -q '"timeline":{"' "$tmp/fig7.json" || {
    echo "verify: ds-bench figure7_ipc --json carries no timeline entries" >&2
    exit 1
}

echo "== ds-dash smoke: render the dashboard, re-validate its embedded payload"
target/release/ds-dash --json "$tmp/fig7.json" \
    --out "$tmp/dash.html" 2> /dev/null
# obs_validate extracts the ds-dash-data payload and re-checks every
# embedded document (timeline interval sums included).
target/release/obs_validate "$tmp/dash.html"

run_clippy

echo "== seeded clippy fixture: every invariant clippy and rustc hold still fires"
# The fixture is its own workspace, so its [lints] table is a copy of
# the root's [workspace.lints]: lint_clean.rs checks the two are equal.
# It finds the root clippy.toml by walking up from its directory.
cargo test -q --test lint_clean
fixture=crates/lint/tests/fixtures/clippy
if cargo clippy -q --manifest-path "$fixture/Cargo.toml" --target-dir target/clippy-fixture \
    -- -D warnings > "$tmp/clippy-fixture.txt" 2>&1; then
    echo "verify: clippy passed $fixture, whose every item is a seeded violation" >&2
    exit 1
fi
for want in \
    'disallowed type `std::collections::HashMap`' \
    'disallowed type `std::collections::HashSet`' \
    'disallowed method `std::time::Instant::now`' \
    'disallowed type `std::time::SystemTime`' \
    'disallowed type `std::sync::Mutex`' \
    'disallowed type `std::sync::atomic::AtomicU64`' \
    'disallowed method `std::thread::spawn`' \
    '#unwrap_used' '#expect_used' '#panic' '#unreachable' \
    'usage of an `unsafe` block'; do
    grep -qF -- "$want" "$tmp/clippy-fixture.txt" || {
        echo "verify: clippy no longer reports the seeded violation: $want" >&2
        exit 1
    }
done

echo "== ds-ledger smoke: the benchmark builds against crates/* and its output checks pass"
# No host-time gating (--quick): a public-API change that breaks the
# benchmark's build, or a run that fails its result/correspondence
# checks, stops here instead of in the pipeline.
(cd benchmark && cargo test --offline -q)
benchmark/run.sh --quick > /dev/null

echo "verify: OK"
