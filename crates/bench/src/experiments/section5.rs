//! The §5 extension studies the paper describes but does not evaluate.

use crate::report::Report;
use crate::{run_baseline, runner, Budget, System};
use ds_core::hybrid;
use ds_mem::{PageTableBuilder, Segment};
use ds_stats::{percent, ratio, Table};
use ds_trace::{measure_result_comm, ResultCommConfig};
use ds_workloads::{by_name, table1_set};

/// §5.1: result communication — an upper-bound evaluation.
///
/// The paper describes (without evaluating) letting a node run a
/// private computation and broadcast only the result. This bounds the
/// technique's benefit: collapsing every same-owner run of communicated
/// misses to a single result broadcast.
pub fn result_comm(budget: Budget, r: &mut Report) {
    const NODES: usize = 4;
    const PAGE: u64 = 4096;
    r.heading(budget, format!("Section 5.1: result-communication upper bound ({NODES} nodes)"));
    let mut t =
        Table::new(&["benchmark", "operand bcasts", "result bcasts", "mean run", "max savings"]);
    let rows = runner::map(&table1_set(), |w| {
        let prog = (w.build)(budget.scale);
        let mut ptb = PageTableBuilder::new(PAGE, NODES);
        for (s, e, seg) in prog.regions() {
            ptb.add_region(s, e, seg);
        }
        ptb.replicate_segment(Segment::Text);
        ptb.distribute_round_robin(1);
        let pt = ptb.build();
        let config = ResultCommConfig { max_insts: budget.max_insts * 10, ..Default::default() };
        let m = measure_result_comm(&prog, &pt, &config);
        [
            w.name.to_string(),
            m.operand_broadcasts.to_string(),
            m.result_broadcasts.to_string(),
            ratio(m.mean_run()),
            percent(m.max_savings()),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    r.table("Section 5.1: result-communication upper bound", t);
    r.line("an upper bound: it assumes every same-owner run is a private");
    r.line("computation whose operands are dead once the result is known");
}

/// §5.2: hybrid parallel / DataScalar execution.
///
/// The paper argues that running serial sections under SPSD while
/// parallel sections run partitioned improves scalability. This
/// measures the serial-section DataScalar speedup from the actual
/// timing simulator (compress and go, Figure 7 configuration) and feeds
/// it into the Amdahl-style hybrid model, sweeping parallel fraction
/// and node count.
pub fn hybrid(budget: Budget, r: &mut Report) {
    r.heading(budget, "Section 5.2: hybrid parallel/DataScalar scalability");
    let ws = ["compress", "go"].map(|name| by_name(name).expect("registered"));
    let jobs: Vec<_> =
        ws.iter().flat_map(|w| [System::DataScalar, System::Traditional].map(|s| (w, s))).collect();
    let ipcs = runner::map(&jobs, |&(w, system)| run_baseline(w, system, 2, budget).ipc());
    for (w, ipc) in ws.iter().zip(ipcs.chunks_exact(2)) {
        let (name, ds, trad) = (w.name, ipc[0], ipc[1]);
        let s = ds / trad;
        r.line(format!(
            "=== {name}: measured serial-section DataScalar speedup s = {s:.2} \
             (DS x2 {ds:.2} IPC vs traditional {trad:.2} IPC) ==="
        ));
        for p in [0.5, 0.8, 0.95] {
            let mut t = Table::new(&["nodes", "pure parallel", "hybrid", "gain"]);
            for pt in hybrid::sweep(p, s, &[2, 4, 8, 16, 32]) {
                t.row(&[
                    pt.nodes.to_string(),
                    ratio(pt.parallel),
                    ratio(pt.hybrid),
                    format!("{:+.0}%", (pt.hybrid / pt.parallel - 1.0) * 100.0),
                ]);
            }
            r.line(format!("parallel fraction p = {p}:"));
            r.table(&format!("{name}: parallel fraction p = {p}"), t);
        }
        r.number(&format!("{name}_serial_speedup"), s);
        if let Some(n) = hybrid::max_cost_effective_nodes(0.8, s, 0.2, 64) {
            r.line(format!(
                "cost-effectiveness (processor = 20% of node cost, p = 0.8): \
                 worthwhile up to {n} nodes\n"
            ));
        }
    }
    r.line("the gain column is the paper's §5.2 claim made quantitative:");
    r.line("SPSD-accelerated serial sections lift the Amdahl asymptote by the");
    r.line("measured serial speedup");
}
