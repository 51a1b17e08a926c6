//! The fault-injection matrix: the hardened ESP protocol must recover
//! from every scheduled fault (docs/resilience.md §6).
//!
//! Runs one fault-free baseline per fabric, then the chaos grid: drop,
//! delay, duplicate, reorder, node-stall and seeded-random plans on the
//! bus and the ring, each with BSHR timeouts armed. For every plan the
//! run must (a) finish without tripping the forward-progress watchdog
//! and (b) commit the same instruction stream and end with the same
//! canonical D-cache contents as the fault-free baseline — ESP
//! broadcasts carry no data values, so faults may cost cycles but can
//! never change architectural state (DESIGN.md §14). A plan that fails
//! either check panics the experiment, naming every failing plan, the
//! way [`crate::expect_no_deadlock`] fails the other experiments.
//!
//! Every run goes to *natural completion* (Tiny scale, no instruction
//! cap): a capped run stops once the slowest node crosses the cap,
//! which leaves the leaders' overshoot — and hence their canonical
//! cache contents — dependent on fault timing. Whole-program runs make
//! the equality check exact, and the whole grid costs well under a
//! second in release, so the experiment ignores [`Budget`].

use crate::report::Report;
use crate::{baseline_config, runner, Budget};
use ds_asm::Program;
use ds_core::{DsConfig, DsSystem};
use ds_net::{FabricKind, FaultKind, FaultPlan, FaultRule, FaultStats, StallRule};
use ds_stats::Table;
use ds_workloads::Scale;

const NODES: usize = 4;

/// The workload every plan runs.
const WORKLOAD: &str = "compress";

/// One cell of the chaos grid: a named plan on one fabric.
struct PlanSpec {
    name: &'static str,
    fabric: FabricKind,
    plan: FaultPlan,
}

impl PlanSpec {
    /// The hardened configuration the plan runs under: BSHR timeouts
    /// armed, and a watchdog short enough to end a wedged run quickly.
    fn config(&self) -> DsConfig {
        let mut config = chaos_config(self.fabric);
        config.fault_plan = self.plan.clone();
        config.bshr_timeout_cycles = Some(2_000);
        config.bshr_retry_budget = 3;
        config.watchdog_cycles = 500_000;
        config
    }
}

/// The grid. Drop rules are unbounded — recovery must come from the
/// timeout/retransmit/degrade ladder, not from the plan running out of
/// budget; delay/duplicate/reorder rules are unbounded for the same
/// reason. Seeded plans exercise mixed faults plus node stalls.
fn chaos_grid() -> Vec<PlanSpec> {
    let msg_rules = |rules: Vec<FaultRule>| FaultPlan { rules, stalls: Vec::new() };
    vec![
        PlanSpec {
            name: "bus/drop-every-7",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Drop, 7, u64::MAX)]),
        },
        PlanSpec {
            name: "bus/delay-300-every-5",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Delay(300), 5, u64::MAX)]),
        },
        PlanSpec {
            name: "bus/duplicate-every-3",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Duplicate(64), 3, u64::MAX)]),
        },
        PlanSpec {
            name: "bus/reorder-every-11",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Reorder, 11, u64::MAX)]),
        },
        PlanSpec {
            name: "bus/stall-node1-400",
            fabric: FabricKind::Bus,
            plan: FaultPlan {
                rules: Vec::new(),
                stalls: vec![StallRule { node: 1, at: 5_000, cycles: 400 }],
            },
        },
        PlanSpec {
            name: "bus/seeded-42",
            fabric: FabricKind::Bus,
            plan: FaultPlan::seeded(42, NODES, 6),
        },
        PlanSpec {
            name: "bus/seeded-1997",
            fabric: FabricKind::Bus,
            plan: FaultPlan::seeded(1997, NODES, 6),
        },
        PlanSpec {
            name: "ring/drop-every-7",
            fabric: FabricKind::Ring,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Drop, 7, u64::MAX)]),
        },
        PlanSpec {
            name: "ring/seeded-42",
            fabric: FabricKind::Ring,
            plan: FaultPlan::seeded(42, NODES, 6),
        },
    ]
}

/// What one run of the matrix produced.
struct RunOutcome {
    cycles: u64,
    committed: u64,
    faults: FaultStats,
    lines: Vec<Vec<(u64, bool)>>,
    watchdog_fired: bool,
}

/// The fault-free baselines, one per fabric: timing (and hence cycle
/// counts) differ across fabrics, so each faulted run is compared
/// against its own fabric's clean run.
struct Baselines {
    bus: RunOutcome,
    ring: RunOutcome,
}

impl Baselines {
    fn run(prog: &Program) -> Self {
        let clean = |f| run_plan(chaos_config(f), prog);
        Baselines { bus: clean(FabricKind::Bus), ring: clean(FabricKind::Ring) }
    }

    fn of(&self, fabric: FabricKind) -> &RunOutcome {
        match fabric {
            FabricKind::Bus => &self.bus,
            FabricKind::Ring => &self.ring,
        }
    }
}

fn chaos_config(fabric: FabricKind) -> DsConfig {
    let mut c = baseline_config(NODES, 0);
    // Natural completion: the equality check needs every node to commit
    // the identical whole program (see the module docs).
    c.max_insts = None;
    c.interconnect = fabric;
    c
}

fn chaos_program() -> Program {
    let w = ds_workloads::by_name(WORKLOAD).expect("chaos workload registered");
    (w.build)(Scale::Tiny)
}

/// Runs `prog` under `config`. A watchdog trip is an outcome here, not
/// a panic: the matrix classes it and names it.
fn run_plan(config: DsConfig, prog: &Program) -> RunOutcome {
    let mut sys = DsSystem::new(config, prog);
    let r = sys.run().expect("workload executes");
    RunOutcome {
        cycles: r.cycles,
        committed: r.committed,
        faults: sys.fault_stats().copied().unwrap_or_default(),
        lines: sys.nodes().iter().map(|n| n.canonical_cache_lines()).collect(),
        watchdog_fired: r.deadlock.is_some(),
    }
}

/// The `state` column: `ok`, or how the run failed.
fn verdict(o: &RunOutcome, base: &RunOutcome) -> &'static str {
    if o.watchdog_fired {
        "DEADLOCK"
    } else if o.committed == base.committed && o.lines == base.lines {
        "ok"
    } else {
        "DIVERGED"
    }
}

/// Fault-injection matrix: every plan must converge to its fabric's
/// fault-free architectural state with the watchdog silent.
pub fn chaos_matrix(_: Budget, r: &mut Report) {
    let prog = chaos_program();
    let baselines = Baselines::run(&prog);
    let grid = chaos_grid();
    let outcomes = runner::map(&grid, |spec| run_plan(spec.config(), &prog));
    publish(r, &grid, &baselines, &outcomes);
}

/// Writes the matrix into `r`, then panics naming every plan that
/// diverged or deadlocked.
fn publish(r: &mut Report, grid: &[PlanSpec], baselines: &Baselines, outcomes: &[RunOutcome]) {
    r.line(format!("ds-chaos: fault-injection matrix ({WORKLOAD}, {NODES} nodes)"));
    r.line("");
    let mut t =
        Table::new(&["plan", "cycles", "slowdown", "dropped", "delayed", "dup", "reord", "state"]);
    let mut failures = Vec::new();
    for (spec, o) in grid.iter().zip(outcomes) {
        let base = baselines.of(spec.fabric);
        let state = verdict(o, base);
        if state != "ok" {
            failures.push(format!("{} {state}", spec.name));
        }
        t.row(&[
            spec.name.to_string(),
            o.cycles.to_string(),
            format!("{:.2}x", o.cycles as f64 / base.cycles as f64),
            o.faults.dropped.to_string(),
            o.faults.delayed.to_string(),
            o.faults.duplicated.to_string(),
            o.faults.reordered.to_string(),
            state.to_string(),
        ]);
    }
    r.table("Fault-injection matrix", t);
    let (bus, ring) = (&baselines.bus, &baselines.ring);
    r.line(format!(
        "baseline: bus {} cycles / ring {} cycles, {} instructions",
        bus.cycles, ring.cycles, bus.committed
    ));
    r.line("broadcasts carry no data values, so every plan must converge to the");
    r.line("fault-free architectural state; only the cycle counts may move.");
    r.number("baseline_bus_cycles", bus.cycles as f64)
        .number("baseline_ring_cycles", ring.cycles as f64)
        .number("committed", bus.committed as f64)
        .note(&format!("{WORKLOAD} at Tiny scale, {NODES} nodes, every run to natural completion"));
    assert!(
        failures.is_empty(),
        "chaos_matrix: {} of {} plans diverged or deadlocked: {}",
        failures.len(),
        grid.len(),
        failures.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome with the given cycle count and one node's canonical
    /// lines; nothing is simulated.
    fn outcome(cycles: u64, lines: Vec<(u64, bool)>, watchdog_fired: bool) -> RunOutcome {
        RunOutcome {
            cycles,
            committed: 1_000,
            faults: FaultStats::default(),
            lines: vec![lines],
            watchdog_fired,
        }
    }

    #[test]
    #[should_panic(expected = "1 of 1 plans diverged or deadlocked: bus/drop-every-7 DIVERGED")]
    fn a_diverged_plan_fails_the_matrix_by_name() {
        let baselines = Baselines {
            bus: outcome(100, vec![(0x1000, false)], false),
            ring: outcome(120, vec![(0x1000, false)], false),
        };
        // Same instruction count, one line's dirty bit flipped.
        let diverged = outcome(150, vec![(0x1000, true)], false);
        assert_eq!(verdict(&diverged, &baselines.bus), "DIVERGED");
        let grid: Vec<PlanSpec> = chaos_grid().into_iter().take(1).collect();
        publish(&mut Report::new("chaos_matrix"), &grid, &baselines, &[diverged]);
    }

    #[test]
    #[should_panic(expected = "1 of 1 plans diverged or deadlocked: bus/drop-all DEADLOCK")]
    fn an_unrecoverable_plan_is_classed_deadlock() {
        // Every broadcast dropped and no BSHR timeout to recover the
        // lines: the run can only end by the watchdog.
        let spec = PlanSpec {
            name: "bus/drop-all",
            fabric: FabricKind::Bus,
            plan: FaultPlan {
                rules: vec![FaultRule::broadcasts(FaultKind::Drop, 1, u64::MAX)],
                stalls: Vec::new(),
            },
        };
        let mut config = spec.config();
        config.bshr_timeout_cycles = None;
        config.watchdog_cycles = 20_000;
        let prog = chaos_program();
        let baselines = Baselines::run(&prog);
        let wedged = run_plan(config, &prog);
        assert!(wedged.watchdog_fired);
        assert_eq!(verdict(&wedged, &baselines.bus), "DEADLOCK");
        publish(&mut Report::new("chaos_matrix"), &[spec], &baselines, &[wedged]);
    }
}
