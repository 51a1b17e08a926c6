#!/usr/bin/env bash
# A/B ds-ledger workloads between a revision and the working tree, the
# way benchmark/README.md ("Comparing two commits") asks: each tree
# built once into its own target directory, then, per workload,
# alternating pairs of the BENCHMARK.json contract form
#
#     benchmark/run.sh --workload W --seed <pair> --seconds 16 --trace 0
#
# (the revision first on odd pairs, the working tree first on even), and
# per-metric medians and quartiles of both sides at the end.
#
# Usage: scripts/ab_ledger.sh <rev> <workloads> [pairs]    (pairs: 10)
#
# <workloads> is one workload, a comma-separated list, or `all` (every
# workload BENCHMARK.json declares); they run one after another and the
# summaries print together at the end.
#
# <rev> is exported with `git archive` into target/ab/<sha>.r/, and the
# working tree (tracked and untracked files, ignored ones left out) is
# copied into target/ab/<sha>.w/ on every call. Each side is built and
# run through one path, target/ab/<sha>.src, a symlink pointed at the
# side about to run, so cargo and rustc see the same source paths for
# both and their binaries differ only where the code does. Built from
# two different directories, even identical trees got different crate
# hashes for every path dependency (cargo hashes a dependency outside
# the benchmark's workspace by its absolute path), and fat LTO then
# placed 464 of 1,050 functions differently in .text. Each side keeps
# its own build output in its copy's benchmark/target/, which run.sh
# reaches as target/ab/<sha>.src/benchmark/target/ on both sides: the
# binary paths are equal too, and they matter, because run.sh exports
# them and the ledger copies them into heap blocks before the first
# rep, and that block's size alone moved li.ds2.bus's setup_s between
# ~1.0 and ~2.0 ms (glibc heap trimming, DESIGN.md §12). Two calls for
# the same <rev> must not run at once. Nothing under benchmark/ is
# touched. A 16 s run per side per pair: ten pairs take ~6 min per
# workload once both sides are built.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: scripts/ab_ledger.sh <rev> <workload>[,<workload>...]|all [pairs]" >&2
    exit 2
fi
rev="$1"
pairs="${3:-10}"
if [[ "$2" == all ]]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
else
    IFS=, read -r -a workloads <<< "$2"
fi
for w in "${workloads[@]}"; do
    if ! jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' BENCHMARK.json > /dev/null; then
        echo "ab_ledger: unknown workload '$w' (see BENCHMARK.json)" >&2
        exit 2
    fi
done

sha="$(git rev-parse --short "$rev^{commit}")"
ab="$PWD/target/ab"
if [[ ! -d "$ab/$sha.r" ]]; then
    mkdir -p "$ab/$sha.r.tmp"
    git archive "$sha" | tar -x -C "$ab/$sha.r.tmp"
    mv "$ab/$sha.r.tmp" "$ab/$sha.r"
fi
# The working tree's copy is replaced file by file; its build output
# stays, and tar keeps modification times, so cargo rebuilds only what
# changed since the last call.
work="$ab/$sha.w"
mkdir -p "$work"
find "$work" -mindepth 1 -maxdepth 1 ! -name benchmark -exec rm -rf {} +
if [[ -d "$work/benchmark" ]]; then
    find "$work/benchmark" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
fi
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf - | tar -x -C "$work"

# One contract-form run; prints the result line (the last line of
# stdout). run.sh builds first, which is a no-op once the side is
# built: each side's sources are older than its own build output.
run_side() { # side (r or w), seed
    local contract=(--workload "$workload" --seed "$2" --seconds 16 --trace 0)
    ln -sfn "$sha.$1" "$ab/$sha.src"
    bash "$ab/$sha.src/benchmark/run.sh" "${contract[@]}" | tail -n 1
}

for workload in "${workloads[@]}"; do
    out="$ab/$sha.$workload"
    : > "$out.r.jsonl"
    : > "$out.w.jsonl"
    for ((pair = 1; pair <= pairs; pair++)); do
        order=(r w)
        ((pair % 2 == 0)) && order=(w r)
        for side in "${order[@]}"; do
            run_side "$side" "$pair" >> "$out.$side.jsonl"
        done
        echo "$workload: pair $pair/$pairs done" >&2
    done
done

# The two host-time metrics: medians and quartiles (nearest rank on the
# sorted runs) and how many pairs the working tree won. The three
# deterministic ones: the distinct values each side read, in full.
summarize() { # workload
    local out="$ab/$sha.$1"
    echo "$1: $sha (rev) vs working tree, $pairs alternating pairs, --seconds 16 --trace 0"
    jq -rs --slurpfile tree "$out.w.jsonl" '
        def sig: if . == 0 then 0 else (3 - (fabs | log10 | floor)) as $d | . * pow(10; $d) | round / pow(10; $d) end;
        def quartiles: sort | [.[((length - 1) * (0.25, 0.5, 0.75) | round)] | sig] | join(" / ");
        def median: sort | .[(length - 1) * 0.5 | round];
        . as $rev
        | (["insts_per_s", 1], ["setup_s", -1], ["sim_ipc", 0], ["heap_peak_bytes", 0], ["pass_share", 0]) as [$m, $sign]
        | ($rev | map(.metrics[$m].value)) as $a
        | ($tree | map(.metrics[$m].value)) as $b
        | if $sign == 0 then
            "\($m)\trev \($a | unique | join(", "))\ttree \($b | unique | join(", "))"
          else
            ([range(0; $a | length) | select(($b[.] - $a[.]) * $sign > 0)] | length) as $wins
            | "\($m)\trev \($a | quartiles)\ttree \($b | quartiles)"
              + "\ttree/rev \(($b | median) / ($a | median) * 1000 | round / 1000)"
              + "\ttree better in \($wins)/\($a | length)"
          end
    ' "$out.r.jsonl" | awk -F'\t' '{ printf "%-16s %-42s %-42s %-15s %s\n", $1, $2, $3, $4, $5 }'
}
for workload in "${workloads[@]}"; do
    summarize "$workload"
done
