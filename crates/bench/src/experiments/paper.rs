//! The paper's own artefacts: Figures 1, 3, 7, 8 and Tables 1–3.

use crate::report::Report;
use crate::sweep::{figure8_axes, sweep_point};
use crate::{figure7_rows, run_datascalar, run_perfect, run_traditional, runner, Budget};
use ds_core::datathread::{compare_chain, datascalar_crossings, mean_thread_length};
use ds_core::mmm;
use ds_mem::PageTableBuilder;
use ds_stats::{percent, ratio, Table};
use ds_trace::datathread::pick_block_pages;
use ds_trace::{
    measure_datathreads, measure_traffic, select_hot_pages, DatathreadConfig, PageProfile,
    TrafficConfig,
};
use ds_workloads::{by_name, figure7_set, table1_set};

/// Figure 1: operation of the synchronous-ESP Massive Memory Machine.
///
/// Reproduces the paper's timeline for the reference string w1..w9 with
/// w5–w7 owned by machine 2 (0-indexed: machine 1) and everything else
/// by machine 1 (machine 0), showing pipelined broadcasts within a
/// datathread and stalls at lead changes.
pub fn figure1_mmm(_: Budget, r: &mut Report) {
    r.line("Figure 1: ESP Massive Memory Machine timeline");
    r.line("reference string: w1..w9; w5-w7 at machine 1, rest at machine 0");
    r.line("");
    let timeline = mmm::simulate(&mmm::figure1_owners(), 2);
    r.line(timeline.render());
    r.line(format!(
        "lead changes: {}   datathread runs: {:?}   mean run: {:.2}   total cycles: {}",
        timeline.lead_changes,
        timeline.runs,
        timeline.mean_run(),
        timeline.total_cycles()
    ));
    r.line("");
    r.line("contrast: the same string with every word at one machine");
    let uniform = mmm::simulate(&[0; 9], 2);
    r.line(format!(
        "  lead changes: {}   total cycles: {}",
        uniform.lead_changes,
        uniform.total_cycles()
    ));
    r.number("lead_changes", timeline.lead_changes as f64)
        .number("mean_run", timeline.mean_run())
        .number("total_cycles", timeline.total_cycles() as f64)
        .number("uniform_lead_changes", uniform.lead_changes as f64)
        .number("uniform_total_cycles", uniform.total_cycles() as f64)
        .note("reference string w1..w9; w5-w7 at machine 1, rest at machine 0");
}

/// Figure 3: serialized off-chip accesses for a dependent operand
/// chain — pipelined DataScalar broadcasts vs request/response per
/// operand.
///
/// The paper's example: x1, x2, x3 on one chip, x4 on another; the
/// DataScalar system incurs 2 serialized off-chip delays, the
/// traditional system 8. Also sweeps chain layouts to show where each
/// system's crossings come from.
pub fn figure3_chain(_: Budget, r: &mut Report) {
    r.line("Figure 3: serialized off-chip crossings on dependent chains");
    r.line("");

    // The paper's exact example.
    let c = compare_chain(&[0, 0, 0, 1], usize::MAX); // traditional holds none of them
    r.line("paper example (x1..x3 at node A, x4 at node B):");
    r.line(format!("  DataScalar : {} serialized off-chip delays", c.datascalar));
    r.line(format!("  traditional: {} serialized off-chip delays", c.traditional));
    r.line("");

    let mut t = Table::new(&[
        "chain layout",
        "threads",
        "mean thread len",
        "DS crossings",
        "trad crossings",
    ]);
    let cases: [(&str, &[usize]); 5] = [
        ("all at one node", &[0; 8]),
        ("two runs of four", &[0, 0, 0, 0, 1, 1, 1, 1]),
        ("four runs of two", &[0, 0, 1, 1, 2, 2, 3, 3]),
        ("alternating", &[0, 1, 0, 1, 0, 1, 0, 1]),
        ("paper's fig. 3", &[0, 0, 0, 1]),
    ];
    for (name, owners) in cases {
        let cmp = compare_chain(owners, usize::MAX);
        t.row(&[
            name.to_string(),
            datascalar_crossings(owners).to_string(),
            format!("{:.2}", mean_thread_length(owners)),
            cmp.datascalar.to_string(),
            cmp.traditional.to_string(),
        ]);
    }
    r.table("Figure 3: serialized off-chip crossings on dependent chains", t);
    r.line("(traditional column assumes no operand lands in the on-chip share,");
    r.line(" as in the paper's example; each remote operand costs request+response)");
    r.number("paper_example_datascalar", c.datascalar as f64)
        .number("paper_example_traditional", c.traditional as f64);
}

/// Table 1: off-chip data traffic reduced by ESP.
///
/// For each of the fourteen SPEC95-analog benchmarks, simulates the
/// paper's 64 KiB two-way write-allocate write-back L1 and reports the
/// fraction of off-chip traffic ESP eliminates, in bytes and in
/// transactions (the paper's two rows).
pub fn table1_traffic(budget: Budget, r: &mut Report) {
    r.budget(budget);
    // Trace experiments are functional-only, so afford 10x the timing
    // budget.
    let config = TrafficConfig { max_insts: budget.max_insts * 10, ..Default::default() };
    r.line("Table 1: off-chip data traffic reduced by ESP");
    r.line(format!(
        "(64 KiB 2-way write-allocate write-back L1, {} instructions max)",
        config.max_insts
    ));
    r.line("");
    let mut t = Table::new(&["benchmark", "traffic (bytes)", "transactions", "fills", "writebacks"]);
    for w in table1_set() {
        let prog = (w.build)(budget.scale);
        let m = measure_traffic(&prog, &config);
        t.row(&[
            w.name.to_string(),
            percent(m.bytes_eliminated()),
            percent(m.transactions_eliminated()),
            m.fills.to_string(),
            m.writebacks.to_string(),
        ]);
    }
    r.table("Table 1: off-chip data traffic reduced by ESP", t);
    r.line("paper: traffic 25-50% eliminated; transactions 50-75% (never below 50%)");
}

/// Table 2: approximate datathread measurements for a four-processor
/// system.
///
/// For each benchmark: profile page accesses, replicate the most
/// heavily accessed pages (plus the text segment), distribute the
/// remaining communicated pages round-robin at the block size the
/// paper's rule picks, and measure mean datathread lengths over all /
/// text / data misses plus the mean replicated-run length.
pub fn table2_datathreads(budget: Budget, r: &mut Report) {
    const NODES: usize = 4;
    const PAGE: u64 = 4096;
    // "-" when no runs of that kind were observed (e.g. all text
    // replicated, so no text miss ever starts or breaks a thread).
    let fmt_mean = |mean: f64, runs: u64| {
        if runs == 0 {
            "-".to_string()
        } else {
            format!("{mean:.1}")
        }
    };
    let max_insts = budget.max_insts * 10;
    r.heading(
        budget,
        format!("Table 2: approximate datathread measurements ({NODES} nodes, {PAGE}-byte pages)"),
    );
    let mut t = Table::new(&[
        "benchmark",
        "dist (KB)",
        "repl pages",
        "text",
        "global",
        "heap",
        "stack",
        "all",
        "text-dt",
        "data-dt",
        "repl-run",
    ]);
    for w in table1_set() {
        let prog = (w.build)(budget.scale);
        // Profile and replicate the most heavily accessed pages (§3.2),
        // capped at a third of the declared pages so no segment is
        // wholly contained at one node.
        let profile = PageProfile::collect(&prog, PAGE, max_insts);
        let declared: u64 = prog
            .regions()
            .iter()
            .map(|(s, e, _)| (e - s).div_ceil(PAGE))
            .sum();
        let replicated = select_hot_pages(
            &profile,
            // Replication budget: half the declared pages, capped at a
            // 128 KiB per-node capacity allowance.
            (declared / 2).clamp(1, 32) as usize,
            4.0,
        );
        let block = pick_block_pages(&prog, PAGE, NODES);

        let mut ptb = PageTableBuilder::new(PAGE, NODES);
        for (s, e, seg) in prog.regions() {
            ptb.add_region(s, e, seg);
        }
        for &vpn in &replicated {
            ptb.replicate_page_of(vpn * PAGE);
        }
        ptb.distribute_round_robin(block);
        let pt = ptb.build();
        let per_seg = pt.replicated_per_segment();

        let config = DatathreadConfig { max_insts, ..Default::default() };
        let m = measure_datathreads(&prog, &pt, &config);
        t.row(&[
            w.name.to_string(),
            (block * PAGE / 1024).to_string(),
            per_seg.iter().sum::<usize>().to_string(),
            per_seg[0].to_string(),
            per_seg[1].to_string(),
            per_seg[2].to_string(),
            per_seg[3].to_string(),
            fmt_mean(m.all, m.all_runs),
            fmt_mean(m.text, m.text_runs),
            fmt_mean(m.data, m.data_runs),
            format!("{:.1}", m.replicated),
        ]);
    }
    r.table("Table 2: approximate datathread measurements", t);
    r.line("paper: text datathreads > 10 everywhere (often 100s-1000s);");
    r.line("       FP data datathreads short (< 10 for swim/applu/turb3d/mgrid/hydro2d);");
    r.line("       integer codes longer (3 to > 100)");
}

/// Figure 7: timing-simulation IPC of the six benchmarks across five
/// systems — perfect data cache, 2- and 4-node DataScalar, and the
/// traditional system with 1/2 and 1/4 of memory on-chip.
///
/// On instrumented builds (`--features obs`) the document also carries
/// per-system critical-path edge-class attributions (`critpath` member,
/// labels like `compress/ds2`) and `*_communication_share` numbers for
/// `compress` and `go`, the direct answer to "is the broadcast on the
/// critical path?" across DS, traditional and perfect systems.
pub fn figure7_ipc(budget: Budget, r: &mut Report) {
    r.heading(
        budget,
        format!("Figure 7: instructions per cycle ({} instructions per run)", budget.max_insts),
    );
    let mut t = Table::new(&[
        "benchmark",
        "perfect",
        "DS x2",
        "DS x4",
        "trad 1/2",
        "trad 1/4",
        "DSx2/trad",
    ]);
    let rows = figure7_rows(budget);
    let mut speedup_sum = 0.0;
    for row in &rows {
        let speedup = if row.trad_half > 0.0 { row.ds2 / row.trad_half } else { 0.0 };
        speedup_sum += speedup;
        t.row(&[
            row.name.clone(),
            ratio(row.perfect),
            ratio(row.ds2),
            ratio(row.ds4),
            ratio(row.trad_half),
            ratio(row.trad_quarter),
            format!("{speedup:.2}x"),
        ]);
    }
    r.table("Figure 7: instructions per cycle", t);
    r.line("paper: DataScalar from 7% slower to 50% faster at 2 nodes, 9-100% faster");
    r.line("       at 4 nodes; compress nearly doubles; perfect bounds everything;");
    r.line("       traditional drops sharply from 1/2 to 1/4 on-chip");
    r.number("mean_ds2_speedup_vs_trad_half", speedup_sum / rows.len().max(1) as f64);
    if cfg!(feature = "obs") {
        append_critpath(r, budget);
    }
}

/// Attaches critical-path edge-class attributions for the paper's two
/// headline benchmarks across three of the Figure 7 systems. The
/// interesting contrast: the traditional system's request round-trips
/// sit *on* its critical path (large communication share), while the
/// DataScalar broadcast largely hides under compute.
fn append_critpath(r: &mut Report, budget: Budget) {
    for name in ["compress", "go"] {
        let w = by_name(name).expect("registered workload");
        let systems = [
            ("ds2", run_datascalar(&w, 2, budget)),
            ("trad2", run_traditional(&w, 2, budget)),
            ("perfect", run_perfect(&w, budget)),
        ];
        for (sys, run) in &systems {
            let m = run.metrics.as_ref().expect("obs builds carry metrics");
            r.critpath(&format!("{name}/{sys}"), &m.critpath);
            r.number(
                &format!("{name}_{sys}_communication_share"),
                m.critpath.communication_share(),
            );
            // Full interval timelines ride along for the DataScalar
            // systems only: they are what ds-dash renders, and the
            // single-node comparators add bulk without adding phases of
            // interest.
            if *sys == "ds2" {
                r.timeline(&format!("{name}/{sys}"), &m.timeline);
            }
        }
    }
}

/// What `ds-bench figure7_ipc --trace-out` writes: the Chrome
/// trace-event / Perfetto JSON trace of the 4-node DataScalar `compress`
/// run. `None` on a plain build, which records no events to render.
#[cfg(feature = "obs")]
pub const FIGURE7_TRACE: Option<fn(Budget) -> String> = Some(|budget| {
    use crate::baseline_config;
    use ds_core::DsSystem;
    let w = by_name("compress").expect("registered workload");
    let prog = (w.build)(budget.scale);
    let mut sys = DsSystem::new(baseline_config(4, budget.max_insts), &prog);
    sys.run().expect("workload executes");
    sys.perfetto_trace()
});
#[cfg(not(feature = "obs"))]
pub const FIGURE7_TRACE: Option<fn(Budget) -> String> = None;

/// Figure 8: sensitivity analysis of the DataScalar experiments for go
/// and compress — IPC of all five systems while sweeping, one at a
/// time: data-cache size, memory access time, bus clock divisor, bus
/// width, and RUU entries.
pub fn figure8_sensitivity(mut budget: Budget, r: &mut Report) {
    // 250 timing runs: trim the per-run budget to keep the figure
    // regenerable in minutes.
    budget.max_insts = budget.max_insts.min(150_000);
    r.budget(budget);
    r.line(format!(
        "Figure 8: sensitivity analysis ({} instructions per run)",
        budget.max_insts
    ));
    let names = ["go", "compress"];
    let ws: Vec<_> = names.iter().map(|n| by_name(n).expect("registered workload")).collect();
    let axes = figure8_axes();
    // One job per (workload × axis × knob) sweep point; each runs its
    // five systems. Results come back in job order, so the printed
    // tables are identical with or without --parallel.
    let jobs: Vec<(usize, usize, usize)> = (0..ws.len())
        .flat_map(|wi| {
            axes.iter()
                .enumerate()
                .flat_map(move |(ai, (_, knobs))| (0..knobs.len()).map(move |ki| (wi, ai, ki)))
        })
        .collect();
    let mut points =
        runner::map(jobs, |&(wi, ai, ki)| sweep_point(&ws[wi], axes[ai].1[ki], budget)).into_iter();
    for name in names {
        r.line(format!("\n=== {name} ==="));
        for (axis, knobs) in &axes {
            let mut t = Table::new(&[
                axis,
                "perfect",
                "DS x2",
                "DS x4",
                "trad 1/2",
                "trad 1/4",
            ]);
            for (knob, p) in knobs.iter().zip(&mut points) {
                t.row(&[
                    knob.label(),
                    ratio(p.perfect),
                    ratio(p.ds2),
                    ratio(p.ds4),
                    ratio(p.trad_half),
                    ratio(p.trad_quarter),
                ]);
            }
            r.table(&format!("{name}: {axis}"), t);
        }
    }
    r.line("paper: DataScalar consistently outperforms traditional across the sweeps;");
    r.line("       the systems converge as memory access time dominates, and diverge");
    r.line("       as the global bus gets slower or narrower relative to the core");
}

/// Table 3: DataScalar broadcast statistics for the two-node runs —
/// late (reparative) broadcasts, BSHR squashes, and remote loads that
/// found their data already waiting in the BSHR (datathreading
/// evidence).
pub fn table3_broadcast(budget: Budget, r: &mut Report) {
    r.heading(budget, "Table 3: DataScalar broadcast statistics (2 nodes, mean over nodes)");
    let mut t = Table::new(&[
        "benchmark",
        "late broadcasts",
        "BSHR squashes",
        "data found in BSHR",
        "false hits",
        "false misses",
        "broadcasts",
    ]);
    for w in figure7_set() {
        let run = run_datascalar(&w, 2, budget);
        t.row(&[
            w.name.to_string(),
            percent(run.node_mean(|n| n.late_broadcast_frac())),
            percent(run.node_mean(|n| n.squash_frac())),
            percent(run.node_mean(|n| n.found_in_bshr_frac())),
            run.nodes.iter().map(|n| n.false_hits).sum::<u64>().to_string(),
            run.nodes.iter().map(|n| n.false_misses).sum::<u64>().to_string(),
            run.nodes.iter().map(|n| n.broadcasts_sent).sum::<u64>().to_string(),
        ]);
    }
    r.table("Table 3: DataScalar broadcast statistics", t);
    r.line("paper: late broadcasts 8-29%; squashes 0-59%; data found in BSHR 2-49%");
}
