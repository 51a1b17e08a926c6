//! `ds-chaos` — the fault-injection matrix proving the hardened ESP
//! protocol recovers from every scheduled fault.
//!
//! ```text
//! ds-chaos [--quick] [--parallel] [--workload NAME] [--json out.json]
//! ```
//!
//! Runs one fault-free baseline per fabric, then the chaos grid: drop,
//! delay, duplicate, reorder, node-stall and seeded-random plans on the
//! bus and the ring, each with BSHR timeouts armed. For every plan the
//! run must (a) finish without tripping the forward-progress watchdog
//! and (b) commit the same instruction stream and end with the same
//! canonical D-cache contents as the fault-free baseline — ESP
//! broadcasts carry no data values, so faults may cost cycles but can
//! never change architectural state (DESIGN.md §14).
//!
//! Every run goes to *natural completion* (Tiny scale, no instruction
//! cap): a capped run stops once the slowest node crosses the cap,
//! which leaves the leaders' overshoot — and hence their canonical
//! cache contents — dependent on fault timing. Whole-program runs make
//! the equality check exact. `--quick` trims the grid instead of the
//! program.
//!
//! `--json` writes a `ds-chaos-result/v1` document (validated by
//! `obs_validate`); the process exits 1 when any run diverges or
//! deadlocks, so the binary doubles as the CI chaos gate. A bad command
//! line or an unwritable `--json` path is one `ds-chaos: …` line on
//! stderr and exit 2, before any simulation runs.

use ds_bench::{baseline_config, runner};
use ds_core::{DsConfig, DsSystem};
use ds_net::{FabricKind, FaultKind, FaultPlan, FaultRule, FaultStats, StallRule};
use ds_stats::Table;
use ds_workloads::{by_name, Workload};
use std::fs::File;
use std::process::ExitCode;

const NODES: usize = 4;

/// One cell of the chaos grid: a named plan on one fabric.
struct PlanSpec {
    name: &'static str,
    fabric: FabricKind,
    plan: FaultPlan,
    /// Part of the `--quick` subset.
    quick: bool,
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
            quick: true,
        },
        PlanSpec {
            name: "bus/delay-300-every-5",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Delay(300), 5, u64::MAX)]),
            quick: true,
        },
        PlanSpec {
            name: "bus/duplicate-every-3",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Duplicate(64), 3, u64::MAX)]),
            quick: false,
        },
        PlanSpec {
            name: "bus/reorder-every-11",
            fabric: FabricKind::Bus,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Reorder, 11, u64::MAX)]),
            quick: false,
        },
        PlanSpec {
            name: "bus/stall-node1-400",
            fabric: FabricKind::Bus,
            plan: FaultPlan {
                rules: Vec::new(),
                stalls: vec![StallRule { node: 1, at: 5_000, cycles: 400 }],
            },
            quick: false,
        },
        PlanSpec {
            name: "bus/seeded-42",
            fabric: FabricKind::Bus,
            plan: FaultPlan::seeded(42, NODES, 6),
            quick: true,
        },
        PlanSpec {
            name: "bus/seeded-1997",
            fabric: FabricKind::Bus,
            plan: FaultPlan::seeded(1997, NODES, 6),
            quick: false,
        },
        PlanSpec {
            name: "ring/drop-every-7",
            fabric: FabricKind::Ring,
            plan: msg_rules(vec![FaultRule::broadcasts(FaultKind::Drop, 7, u64::MAX)]),
            quick: true,
        },
        PlanSpec {
            name: "ring/seeded-42",
            fabric: FabricKind::Ring,
            plan: FaultPlan::seeded(42, NODES, 6),
            quick: false,
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

fn chaos_config(fabric: FabricKind) -> DsConfig {
    let mut c = baseline_config(NODES, 0);
    // Natural completion: the equality check needs every node to commit
    // the identical whole program (see the module docs).
    c.max_insts = None;
    c.interconnect = fabric;
    c
}

fn run_plan(config: DsConfig, prog: &ds_asm::Program) -> RunOutcome {
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

fn render_json(
    workload: &str,
    baseline: &RunOutcome,
    rows: &[(String, RunOutcome, bool)],
) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(1024);
    s.push_str("{\n  \"schema\": \"ds-chaos-result/v1\",\n");
    let _ = writeln!(s, "  \"workload\": \"{workload}\",");
    let _ = writeln!(
        s,
        "  \"baseline\": {{\"cycles\": {}, \"committed\": {}}},",
        baseline.cycles, baseline.committed
    );
    s.push_str("  \"runs\": [\n");
    for (i, (plan, o, matches)) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"plan\": \"{plan}\", \"cycles\": {}, \"committed\": {}, \
             \"faults\": {{\"dropped\": {}, \"delayed\": {}, \"duplicated\": {}, \
             \"reordered\": {}}}, \"matches_baseline\": {matches}, \
             \"watchdog_fired\": {}}}",
            o.cycles,
            o.committed,
            o.faults.dropped,
            o.faults.delayed,
            o.faults.duplicated,
            o.faults.reordered,
            o.watchdog_fired
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A checked command line.
#[derive(Debug)]
struct Invocation {
    quick: bool,
    workload: Workload,
    json: Option<String>,
}

/// The value after a flag; a following flag is not one.
fn operand<'a>(args: &mut impl Iterator<Item = &'a String>) -> Option<&'a String> {
    args.next().filter(|v| !v.starts_with("--"))
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let (mut quick, mut workload, mut json) = (false, "compress", None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            // Read where it is used, by `runner::parallel_requested`.
            "--parallel" => {}
            "--workload" => workload = operand(&mut args).ok_or("--workload needs a name")?,
            "--json" => json = Some(operand(&mut args).ok_or("--json needs a path")?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    let workload = by_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    Ok(Invocation { quick, workload, json })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("ds-chaos: {e}");
        ExitCode::from(2)
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let inv = parse(args)?;
    // An unwritable path should cost no simulation time.
    if let Some(path) = &inv.json {
        File::create(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let workload = inv.workload.name;
    let prog = (inv.workload.build)(ds_workloads::Scale::Tiny);

    println!("ds-chaos: fault-injection matrix ({workload}, {NODES} nodes)");
    println!();

    // Fault-free baselines, one per fabric: timing (and hence cycle
    // counts) differ across fabrics, so each faulted run is compared
    // against its own fabric's clean run.
    let baselines: Vec<RunOutcome> = [FabricKind::Bus, FabricKind::Ring]
        .iter()
        .map(|&f| run_plan(chaos_config(f), &prog))
        .collect();
    let baseline_of = |f: FabricKind| match f {
        FabricKind::Bus => &baselines[0],
        FabricKind::Ring => &baselines[1],
    };

    let mut grid = chaos_grid();
    if inv.quick {
        grid.retain(|s| s.quick);
    }
    let outcomes = runner::map(&grid, |spec| {
        let mut config = chaos_config(spec.fabric);
        config.fault_plan = spec.plan.clone();
        config.bshr_timeout_cycles = Some(2_000);
        config.bshr_retry_budget = 3;
        config.watchdog_cycles = 500_000;
        run_plan(config, &prog)
    });

    let mut t = Table::new(&[
        "plan",
        "cycles",
        "slowdown",
        "dropped",
        "delayed",
        "dup",
        "reord",
        "state",
    ]);
    let mut rows: Vec<(String, RunOutcome, bool)> = Vec::with_capacity(grid.len());
    let mut failures = 0usize;
    for (spec, o) in grid.iter().zip(outcomes) {
        let base = baseline_of(spec.fabric);
        let matches = o.committed == base.committed && o.lines == base.lines;
        let ok = matches && !o.watchdog_fired;
        if !ok {
            failures += 1;
        }
        t.row(&[
            spec.name.to_string(),
            o.cycles.to_string(),
            format!("{:.2}x", o.cycles as f64 / base.cycles as f64),
            o.faults.dropped.to_string(),
            o.faults.delayed.to_string(),
            o.faults.duplicated.to_string(),
            o.faults.reordered.to_string(),
            if o.watchdog_fired {
                "DEADLOCK".to_string()
            } else if matches {
                "ok".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
        rows.push((spec.name.to_string(), o, matches));
    }
    println!("{t}");
    println!(
        "baseline: bus {} cycles / ring {} cycles, {} instructions",
        baselines[0].cycles, baselines[1].cycles, baselines[0].committed
    );
    println!("broadcasts carry no data values, so every plan must converge to the");
    println!("fault-free architectural state; only the cycle counts may move.");

    if let Some(path) = &inv.json {
        let doc = render_json(workload, &baselines[0], &rows);
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if failures > 0 {
        eprintln!("ds-chaos: {failures} of {} plans diverged or deadlocked", rows.len());
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn rejected(line: &str) -> String {
        parse(&args(line)).expect_err(line)
    }

    #[test]
    fn accepts_the_four_flags_in_any_order() {
        let inv = parse(&args("--json out.json --parallel --workload li --quick")).unwrap();
        assert!(inv.quick);
        assert_eq!(inv.workload.name, "li");
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        let default = parse(&[]).unwrap();
        assert!(!default.quick);
        assert_eq!(default.workload.name, "compress");
        assert_eq!(default.json, None);
    }

    #[test]
    fn a_typoed_flag_is_rejected_not_ignored() {
        // Not silently the full grid.
        assert_eq!(rejected("--quik"), "unknown flag `--quik`");
        assert_eq!(rejected("--quick compress"), "unexpected argument `compress`");
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        assert_eq!(rejected("--json"), "--json needs a path");
        // A following flag is not a path: no file called `--quick`.
        assert_eq!(rejected("--json --quick"), "--json needs a path");
        assert_eq!(rejected("--quick --workload"), "--workload needs a name");
    }

    #[test]
    fn an_unknown_workload_is_rejected() {
        assert_eq!(rejected("--workload compres"), "unknown workload `compres`");
    }

    #[test]
    fn an_unwritable_json_path_is_an_error_before_the_grid_runs() {
        // The full grid would take seconds: the error must come first.
        let e = run(&args("--json /nonexistent-dir/chaos.json")).unwrap_err();
        assert!(e.starts_with("/nonexistent-dir/chaos.json: "), "{e}");
    }
}
