//! ds-chaos end-to-end invariants: deterministic fault injection,
//! hardened-protocol recovery, and the forward-progress watchdog.
//!
//! Three contracts pin the chaos subsystem:
//!
//! * **Fault determinism** — the same `FaultPlan` produces the same
//!   `RunResult` (including any `DeadlockReport`) on repeat runs and
//!   across both engines (naive loop, horizon skipping). Faults are
//!   schedule data, not ambient randomness.
//! * **Architectural transparency** — ESP broadcasts carry no values,
//!   so a hardened run under any fault plan must commit the identical
//!   instruction stream and end with the identical canonical D-cache
//!   contents as the fault-free run.
//! * **Watchdog** — an unrecoverable plan (all broadcasts dropped, no
//!   BSHR timeouts) must *terminate* with a populated structured
//!   report instead of hanging.

use datascalar::core_model::{DsConfig, DsSystem, RunResult};
use datascalar::workloads::{by_name, Scale};
use ds_net::{FaultKind, FaultPlan, FaultRule};
use proptest::prelude::*;

/// A 2-node hardened config (BSHR timeouts armed) running `plan`.
fn hardened_config(nodes: usize, plan: FaultPlan, max_insts: Option<u64>) -> DsConfig {
    let mut c = DsConfig::with_nodes(nodes);
    c.max_insts = max_insts;
    c.fault_plan = plan;
    c.bshr_timeout_cycles = Some(2_000);
    c.bshr_retry_budget = 3;
    c.watchdog_cycles = 500_000;
    c
}

fn run_compress(config: DsConfig) -> (RunResult, Vec<Vec<(u64, bool)>>) {
    let w = by_name("compress").expect("compress registered");
    let prog = (w.build)(Scale::Tiny);
    let mut sys = DsSystem::new(config, &prog);
    let r = sys.run().expect("workload executes");
    let lines = sys.nodes().iter().map(|n| n.canonical_cache_lines()).collect();
    (r, lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seeded plan, same everything: repeat runs and both engines
    /// agree on the full `RunResult`, and the watchdog never fires
    /// under a budget-bounded plan with timeouts armed.
    #[test]
    fn seeded_plans_are_deterministic_across_engines(seed in any::<u64>()) {
        let plan = FaultPlan::seeded(seed, 2, 4);
        let base = hardened_config(2, plan, Some(20_000));

        let mut reference = base.clone();
        reference.no_skip = true;
        let (naive, _) = run_compress(reference.clone());
        let (again, _) = run_compress(reference);
        prop_assert_eq!(&again, &naive, "repeat run diverged (seed {})", seed);

        let (skipped, _) = run_compress(base);
        prop_assert_eq!(&skipped, &naive, "horizon skipping diverged (seed {})", seed);

        prop_assert!(naive.deadlock.is_none(),
            "bounded seeded plan must recover (seed {})", seed);
    }
}

#[test]
fn hardened_runs_converge_to_the_fault_free_architectural_state() {
    // Natural completion (no instruction cap): a capped run stops once
    // the slowest node crosses the cap, leaving the leaders' overshoot
    // fault-timing-dependent; whole-program runs make equality exact.
    let (base_r, base_lines) = run_compress(hardened_config(2, FaultPlan::default(), None));
    assert!(base_r.deadlock.is_none());

    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "drop-every-5",
            FaultPlan {
                rules: vec![FaultRule::broadcasts(FaultKind::Drop, 5, u64::MAX)],
                stalls: Vec::new(),
            },
        ),
        ("seeded-7", FaultPlan::seeded(7, 2, 6)),
    ];
    for (name, plan) in plans {
        let (r, lines) = run_compress(hardened_config(2, plan, None));
        assert!(r.deadlock.is_none(), "{name}: hardening must recover");
        assert_eq!(r.committed, base_r.committed, "{name}: same committed stream");
        assert_eq!(lines, base_lines, "{name}: canonical caches must match fault-free run");
    }
}

#[test]
fn unrecoverable_plan_terminates_with_a_populated_deadlock_report() {
    // Drop *every* broadcast with no BSHR timeout to fall back on: the
    // first remote load wedges its node forever. The run must end via
    // the watchdog with a structured report, not hang or panic.
    let mut config = DsConfig::with_nodes(2);
    config.max_insts = Some(40_000);
    config.fault_plan.rules.push(FaultRule::broadcasts(FaultKind::Drop, 1, u64::MAX));
    config.bshr_timeout_cycles = None;
    config.watchdog_cycles = 20_000;

    let (r, _) = run_compress(config.clone());
    let report = r.deadlock.as_ref().expect("watchdog must fire");
    assert_eq!(report.cycle, r.cycles, "report pinned to the aborting cycle");
    assert_eq!(report.nodes.len(), 2, "one entry per node");
    assert!(
        report.nodes.iter().any(|n| !n.bshr_waits.is_empty()),
        "some node must be wedged on a BSHR wait: {report}"
    );
    assert!(
        format!("{report}").contains("deadlock at cycle"),
        "display form must be self-describing"
    );

    // The deadlock itself is deterministic: repeat runs and the naive
    // engine reproduce the identical report.
    let (again, _) = run_compress(config.clone());
    assert_eq!(again, r, "deadlock report diverged across repeat runs");
    let mut naive = config;
    naive.no_skip = true;
    let (reference, _) = run_compress(naive);
    assert_eq!(reference, r, "deadlock report diverged across engines");
}
