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
use datascalar::obs::{FillKind, Obs};
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

/// Degraded mode end to end: every broadcast is dropped and no retry
/// is allowed, so each remote line's first timeout degrades it to
/// request–response and the whole run completes over direct requests —
/// with the fault-free architectural state. The run is instrumented
/// (`Obs`): each of those fills is a `remote-fill` edge measured from
/// the request's send, so it spans the whole round trip: request out,
/// the owner's memory and queue, the response back, and the BSHR read.
#[test]
fn degraded_lines_complete_over_direct_requests() {
    let (base_r, base_lines) = run_compress(hardened_config(2, FaultPlan::default(), None));
    let plan = FaultPlan {
        rules: vec![FaultRule::broadcasts(FaultKind::Drop, 1, u64::MAX)],
        stalls: Vec::new(),
    };
    let mut config = hardened_config(2, plan, None);
    config.bshr_timeout_cycles = Some(500);
    config.bshr_retry_budget = 0;
    let w = by_name("compress").expect("compress registered");
    let prog = (w.build)(Scale::Tiny);
    let mut sys = DsSystem::<Obs>::with_flavour(config.clone(), &prog);
    let r = sys.run().expect("workload executes");
    assert!(r.deadlock.is_none(), "degraded lines must still complete");
    let degraded: u64 = r.nodes.iter().map(|n| n.bshr.lines_degraded).sum();
    let responses: u64 = r.nodes.iter().map(|n| n.degraded_responses).sum();
    assert!(degraded > 0, "every dropped broadcast leaves a line to degrade");
    assert!(responses > 0, "degraded lines are served by their owners");
    assert_eq!(r.committed, base_r.committed, "same committed stream");
    let lines: Vec<_> = sys.nodes().iter().map(|n| n.canonical_cache_lines()).collect();
    assert_eq!(lines, base_lines, "canonical caches must match the fault-free run");

    let bus = config.bus;
    let round_trip = bus.transfer_cycles(0)
        + config.memory.access_cycles
        + config.queue_penalty
        + bus.transfer_cycles(config.dcache.line_bytes)
        + config.bshr_access_cycles;
    let mut edges = 0;
    for node in sys.nodes() {
        for n in node.crit_window().iter() {
            if n.fill == FillKind::RemoteFill && n.sent <= n.complete {
                edges += 1;
                assert!(
                    n.complete - n.sent >= round_trip,
                    "a degraded fill's edge spans {} cycles, less than the \
                     {round_trip}-cycle request round trip",
                    n.complete - n.sent
                );
            }
        }
    }
    assert!(edges > 0, "no degraded fill reached the critical-path window");
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
