#!/usr/bin/env bash
# Regenerates results/*.txt (which EXPERIMENTS.md quotes) from the
# current source: each file is the full-budget output of the ds-bench
# binary it is named after. Deterministic; ~40 s for all 17.
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
cargo build -q --release -p ds-bench

status=0
for committed in results/*.txt; do
    bin="$(basename "$committed" .txt)"
    "target/release/$bin" > "$out/$bin.txt"
    if [[ "$out" != results ]] && ! diff -u "$committed" "$out/$bin.txt"; then
        echo "regen_results: $committed is not what $bin prints" >&2
        status=1
    fi
done
exit "$status"
