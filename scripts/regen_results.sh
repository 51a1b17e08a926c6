#!/usr/bin/env bash
# Regenerates results/*.txt (which EXPERIMENTS.md quotes) from the
# current source: each file is the full-budget output of the ds-bench
# experiment it is named after. Deterministic; measured on a 2-vCPU
# host: ~22 s to rebuild ds-bench after a simulation-crate edit (one
# fat-LTO link), then ~31 s to run all 17.
#
# Usage: scripts/regen_results.sh [--check]
#
#   --check  write to a temp dir instead and diff against the committed
#            files; non-zero exit on any difference (verify.sh runs this)
set -euo pipefail
cd "$(dirname "$0")/.."

out=results
if [[ "${1:-}" == "--check" ]]; then
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi

# Plain (obs-off) build: the flavour the committed tables come from.
cargo build -q --release -p ds-bench --bin ds-bench

status=0
for committed in results/*.txt; do
    name="$(basename "$committed" .txt)"
    target/release/ds-bench "$name" > "$out/$name.txt"
    if [[ "$out" != results ]] && ! diff -u "$committed" "$out/$name.txt"; then
        echo "regen_results: $committed is not what ds-bench $name prints" >&2
        status=1
    fi
done
exit "$status"
