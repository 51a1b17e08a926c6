#!/usr/bin/env bash
# A/B one ds-ledger workload between a revision and the working tree,
# the way benchmark/README.md ("Comparing two commits") asks: each tree
# built once into its own target directory, then alternating pairs of
# the BENCHMARK.json contract form
#
#     benchmark/run.sh --workload W --seed <pair> --seconds 16 --trace 0
#
# (the revision first on odd pairs, the working tree first on even), and
# per-metric medians and quartiles of both sides at the end.
#
# Usage: scripts/ab_ledger.sh <rev> <workload> [pairs]     (pairs: 10)
#
# <rev> is exported with `git archive` into target/ab/<sha>/ and built
# into target/ab/<sha>.target/; the working tree builds into its usual
# benchmark/target/. Nothing under benchmark/ is touched. A 16 s run per
# side per pair: ten pairs take ~6 min once both trees are built.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: scripts/ab_ledger.sh <rev> <workload> [pairs]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"

sha="$(git rev-parse --short "$rev^{commit}")"
ab="$PWD/target/ab"
tree="$ab/$sha"
if [[ ! -d "$tree" ]]; then
    mkdir -p "$tree.tmp"
    git archive "$sha" | tar -x -C "$tree.tmp"
    mv "$tree.tmp" "$tree"
fi

# One contract-form run; prints the result line (the last line of
# stdout). run.sh builds first, which is a no-op once the tree is built.
run_side() { # side, seed
    local contract=(--workload "$workload" --seed "$2" --seconds 16 --trace 0)
    if [[ "$1" == rev ]]; then
        CARGO_TARGET_DIR="$tree.target" bash "$tree/benchmark/run.sh" "${contract[@]}"
    else
        bash benchmark/run.sh "${contract[@]}"
    fi | tail -n 1
}

out="$ab/$sha.$workload"
: > "$out.rev.jsonl"
: > "$out.tree.jsonl"
for ((pair = 1; pair <= pairs; pair++)); do
    order=(rev tree)
    ((pair % 2 == 0)) && order=(tree rev)
    for side in "${order[@]}"; do
        run_side "$side" "$pair" >> "$out.$side.jsonl"
    done
    echo "pair $pair/$pairs done" >&2
done

# The two host-time metrics: medians and quartiles (nearest rank on the
# sorted runs) and how many pairs the working tree won. The three
# deterministic ones: the distinct values each side read, in full.
echo "$workload: $sha (rev) vs working tree, $pairs alternating pairs, --seconds 16 --trace 0"
jq -rs --slurpfile tree "$out.tree.jsonl" '
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
' "$out.rev.jsonl" | awk -F'\t' '{ printf "%-16s %-42s %-42s %-15s %s\n", $1, $2, $3, $4, $5 }'
