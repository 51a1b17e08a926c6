#!/usr/bin/env bash
# Regenerates results/*.txt (which EXPERIMENTS.md quotes) from the
# current source: each file is the full-budget output of the ds-bench
# experiment it is named after. Deterministic: each experiment runs its
# simulations on every core (ds_bench::runner::map) and prints them in
# job order, so the output is the one-job-at-a-time output byte for
# byte. Measured on a 2-vCPU host (nproc 2, "Intel(R) Xeon(R)
# Processor"): ~22 s to rebuild ds-bench after a simulation-crate edit
# (one fat-LTO link), then 14.7-15.9 s to run all 18 (median 15.2 s,
# 4 runs), against 25.1-35.8 s (median 28.3 s) when the runner ran one
# simulation at a time. The script prints its run time and host when
# done.
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

# The default build: its shared runners are the `Plain` flavour's, like
# the tables the paper reports (figure7_ipc's `Obs` runs feed only its
# --json document, never the text).
cargo build -q --release -p ds-bench --bin ds-bench

status=0 n=0
start=$(date +%s%N)
for committed in results/*.txt; do
    name="$(basename "$committed" .txt)"
    target/release/ds-bench "$name" > "$out/$name.txt"
    n=$((n + 1))
    if [[ "$out" != results ]] && ! diff -u "$committed" "$out/$name.txt"; then
        echo "regen_results: $committed is not what ds-bench $name prints" >&2
        status=1
    fi
done
ms=$(( ($(date +%s%N) - start) / 1000000 ))
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
echo "regen_results: $n experiments in $((ms / 1000)).$((ms % 1000 / 100)) s" \
    "on $(nproc) cores (${cpu:-CPU model unknown})"
exit "$status"
