//! Determinism regression: running the same system twice in-process
//! must reproduce the *entire* `RunResult` — every counter of every
//! node, not just the golden-pinned aggregates. This is the invariant
//! the d1/d2 lint rules protect at the source level; any hash-order or
//! ambient-state leak into simulated state shows up here as a
//! first-run/second-run diff.

use datascalar::workloads::by_name;
use ds_bench::{run_datascalar, run_perfect, run_traditional, Budget};

#[test]
fn figure7_systems_are_run_to_run_deterministic_on_compress() {
    let w = by_name("compress").expect("compress registered");
    let budget = Budget::quick();

    let perfect = (run_perfect(&w, budget), run_perfect(&w, budget));
    assert_eq!(perfect.0, perfect.1, "perfect system diverged across runs");

    for nodes in [2, 4] {
        let ds = (run_datascalar(&w, nodes, budget), run_datascalar(&w, nodes, budget));
        assert_eq!(ds.0, ds.1, "ds{nodes} diverged across runs");

        let trad = (run_traditional(&w, nodes, budget), run_traditional(&w, nodes, budget));
        assert_eq!(trad.0, trad.1, "trad{nodes} diverged across runs");
    }
}
