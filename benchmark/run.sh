#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--quick] [--twice]
#       builds both flavours, runs every workload, checks outputs,
#       prints every metric by name with its unit, and writes
#       benchmark/out/results.json and benchmark/out/trace.json.
#       --twice runs two full sets and fails if they disagree beyond
#       the bounds; --quick is a <=30 s smoke run without gating.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass over one workload; the last line of stdout is the
#       result (the BENCHMARK.json contract).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Knobs of the repository's own harness that would change what runs.
unset DS_BENCH_THREADS DS_BENCH_TIMEOUT DS_CRIT_WINDOW

# Two flavours, two target directories: sharing one would relink the
# binary (fat LTO, ~20 s) every time the feature set flips.
build() { # flavour, extra cargo arguments
    local flavour="$1"
    shift
    CARGO_TARGET_DIR="$target/$flavour" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" "$@" >&2
}
build plain
build obs --features obs

export DS_LEDGER_PLAIN_BIN="$target/plain/release/ds-ledger"
export DS_LEDGER_OBS_BIN="$target/obs/release/ds-ledger"

workload=""
for ((i = 1; i <= $#; i++)); do
    if [[ "${!i}" == "--workload" ]]; then
        j=$((i + 1))
        workload="${!j:-}"
    fi
done

if [[ -n "$workload" ]]; then
    bin="$DS_LEDGER_PLAIN_BIN"
    [[ "$workload" == *.obs ]] && bin="$DS_LEDGER_OBS_BIN"
    exec "$bin" "$@"
fi
mkdir -p "$here/out"
exec "$DS_LEDGER_PLAIN_BIN" session --out "$here/out" "$@"
