//! The eight ablations: one design choice varied around the Figure 7
//! configuration, every one a workload × variant [`sweep`]. Six print
//! one table per workload with one row per variant ([`grid`]); the
//! other two print one table with the variants as columns.

use crate::report::Report;
use crate::{baseline_config, expect_no_deadlock, run_datascalar, run_traditional, runner, Budget};
use ds_asm::Program;
use ds_core::{DsConfig, DsSystem, RunResult, TraditionalConfig, TraditionalSystem};
use ds_cpu::BranchModel;
use ds_mem::{TlbConfig, WritePolicy};
use ds_net::FabricKind;
use ds_stats::{percent, ratio, Table};
use ds_trace::PageProfile;
use ds_workloads::{by_name, figure7_set, Workload};

/// Runs `job` for every workload × variant through [`runner::map`];
/// results come back workload-major, variants in order (identical with
/// or without `--parallel`), so `chunks(variants.len())` is one group
/// per workload.
fn sweep<W: Sync, V: Sync, T: Send>(
    workloads: &[(&str, W)],
    variants: &[V],
    job: impl Fn(&str, &W, &V) -> T + Sync,
) -> Vec<T> {
    let pairs: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|wi| (0..variants.len()).map(move |vi| (wi, vi))).collect();
    runner::map(pairs, |&(wi, vi)| {
        let (name, w) = &workloads[wi];
        job(name, w, &variants[vi])
    })
}

/// One `=== workload ===` table per workload, one `row` per variant.
fn grid<W: Sync, V: Sync, const N: usize>(
    r: &mut Report,
    workloads: &[(&str, W)],
    variants: &[V],
    headers: [&str; N],
    row: impl Fn(&str, &W, &V) -> [String; N] + Sync,
) {
    let rows = sweep(workloads, variants, row);
    for ((name, _), rows) in workloads.iter().zip(rows.chunks(variants.len())) {
        let mut t = Table::new(&headers);
        for row in rows {
            t.row(row);
        }
        r.line(format!("=== {name} ==="));
        r.table(name, t);
    }
}

/// Each named workload with its program built at the budget's scale.
fn programs(workloads: &[Workload], budget: Budget) -> Vec<(&'static str, Program)> {
    workloads.iter().map(|w| (w.name, (w.build)(budget.scale))).collect()
}

fn named(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| by_name(n).expect("registered")).collect()
}

fn run_ds(config: DsConfig, prog: &Program, what: &str) -> RunResult {
    expect_no_deadlock(DsSystem::new(config, prog).run(), what)
}

fn run_trad(config: DsConfig, prog: &Program, what: &str) -> RunResult {
    expect_no_deadlock(TraditionalSystem::new(&TraditionalConfig { base: config }, prog).run(), what)
}

/// Ablation: static replication fraction.
///
/// The paper's §2/§3.2 lever: replicating heavily-used pages trades
/// per-node memory capacity for eliminated broadcasts. Replicates
/// increasing fractions of each benchmark's data pages (hottest first,
/// by profile) and reports IPC and bus traffic on the two-node machine.
pub fn replication(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: static replication fraction (DataScalar x2)");
    let config0 = baseline_config(2, budget.max_insts);
    // Profiling each workload is itself an independent job.
    let prepped = runner::map(named(&["compress", "mgrid", "go"]), |w| {
        let prog = (w.build)(budget.scale);
        let profile = PageProfile::collect(&prog, config0.page_bytes, budget.max_insts * 4);
        let ranked: Vec<u64> = profile.sorted_pages().into_iter().map(|(v, _)| v).collect();
        (w.name, (prog, ranked))
    });
    grid(
        r,
        &prepped,
        &[0, 25, 50, 75, 100],
        ["replicated", "IPC", "broadcasts", "bus bytes"],
        |name, (prog, ranked), &percent_repl| {
            let count = (ranked.len() as u64 * percent_repl / 100) as usize;
            let mut config = config0.clone();
            config.replicated_vpns = ranked.iter().take(count).copied().collect();
            let run = run_ds(config, prog, name);
            [
                format!("{percent_repl}%"),
                ratio(run.ipc()),
                run.bus.broadcasts.to_string(),
                run.bus.bytes.to_string(),
            ]
        },
    );
    r.line("broadcasts fall monotonically with replication; IPC rises until");
    r.line("the replicated capacity would no longer fit (which the model does");
    r.line("not charge — the paper's capacity trade-off is the caveat)");
}

/// Ablation: D-cache write policy under ESP.
///
/// §4.2: "we believe that this write [-no-allocate] policy is superior
/// to write-allocate in an ESP-based system (with a write-allocate
/// protocol, a write miss requires sending an inter-processor message,
/// only to overwrite the received data)". Measures both policies on the
/// two-node DataScalar machine.
pub fn write_policy(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: write-no-allocate vs write-allocate (DataScalar x2)");
    let mut t = Table::new(&[
        "benchmark",
        "no-alloc IPC",
        "alloc IPC",
        "no-alloc bcasts",
        "alloc bcasts",
    ]);
    let progs = programs(&figure7_set(), budget);
    let policies = [WritePolicy::WriteBackNoAllocate, WritePolicy::WriteBackAllocate];
    let results = sweep(&progs, &policies, |name, prog, &policy| {
        let mut config = baseline_config(2, budget.max_insts);
        config.dcache.write_policy = policy;
        run_ds(config, prog, name)
    });
    for ((name, _), runs) in progs.iter().zip(results.chunks(policies.len())) {
        let (noalloc, alloc) = (&runs[0], &runs[1]);
        t.row(&[
            name.to_string(),
            ratio(noalloc.ipc()),
            ratio(alloc.ipc()),
            noalloc.bus.broadcasts.to_string(),
            alloc.bus.broadcasts.to_string(),
        ]);
    }
    r.table("Ablation: write-no-allocate vs write-allocate", t);
    r.line("write-allocate turns every store miss into a broadcast whose data");
    r.line("is immediately overwritten — the paper's argument for no-allocate");
}

/// Ablation: BSHR capacity and access latency.
///
/// The paper assumes a fixed BSHR (its size/latency digits were lost in
/// the source text; DESIGN.md substitution 3). Sweeps both, reporting
/// IPC, peak occupancy and overflows so the choice can be
/// sanity-checked.
pub fn bshr(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: BSHR geometry (DataScalar x2, compress & wave5)");
    grid(
        r,
        &programs(&named(&["compress", "wave5"]), budget),
        &[(4, 2), (16, 2), (64, 2), (128, 2), (128, 1), (128, 4), (128, 8)],
        ["entries", "access", "IPC", "max occupancy", "overflows"],
        |name, prog, &(entries, access)| {
            let mut config = baseline_config(2, budget.max_insts);
            config.bshr_entries = entries;
            config.bshr_access_cycles = access;
            let run = run_ds(config, prog, name);
            let occ = run.nodes.iter().map(|n| n.bshr.max_occupancy).max().unwrap_or(0);
            let ovf: u64 = run.nodes.iter().map(|n| n.bshr.overflows).sum();
            [
                entries.to_string(),
                format!("{access}cy"),
                ratio(run.ipc()),
                occ.to_string(),
                ovf.to_string(),
            ]
        },
    );
    r.line("occupancy stays far below the paper-scale 128 entries; access");
    r.line("latency matters only when remote loads dominate");
}

/// Ablation: node-count scaling.
///
/// The paper evaluates 2 and 4 nodes and discusses cost-effectiveness
/// at higher counts (§4.4). Scales the DataScalar machine from 1 to 8
/// nodes (the traditional comparator's on-chip share shrinking to
/// match).
pub fn nodes(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: node-count scaling (DataScalar vs traditional)");
    let set: Vec<_> = figure7_set().into_iter().map(|w| (w.name, w)).collect();
    grid(
        r,
        &set,
        &[1, 2, 4, 8],
        ["nodes", "DS IPC", "trad IPC", "DS/trad", "DS broadcasts"],
        |_, w, &nodes| {
            let ds = run_datascalar(w, nodes, budget);
            let trad = run_traditional(w, nodes, budget);
            [
                nodes.to_string(),
                ratio(ds.ipc()),
                ratio(trad.ipc()),
                format!("{:.2}x", ds.ipc() / trad.ipc()),
                ds.bus.broadcasts.to_string(),
            ]
        },
    );
    r.line("the DataScalar advantage grows as the on-chip share shrinks: the");
    r.line("traditional system's remote fraction rises with n while ESP's");
    r.line("broadcast count stays fixed at one per communicated miss");
}

/// Ablation: address-translation cost.
///
/// The paper implements translation through a single-level page table
/// (§4.2) but does not model a TLB. Checks how sensitive the headline
/// comparison is to that simplification by giving both systems a D-TLB
/// of varying size (misses pay a local page-table walk).
pub fn tlb(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: D-TLB size (2-node machines, 9-cycle walk)");
    grid(
        r,
        &programs(&named(&["compress", "wave5"]), budget),
        &[None, Some(16), Some(64), Some(256)],
        ["TLB", "DS IPC", "trad IPC", "DS/trad"],
        |name, prog, &entries| {
            let mut config = baseline_config(2, budget.max_insts);
            config.tlb = entries.map(|n| TlbConfig {
                entries: n,
                assoc: n,
                page_bytes: config.page_bytes,
            });
            let ds = run_ds(config.clone(), prog, name);
            let trad = run_trad(config, prog, name);
            [
                entries.map_or("perfect".to_string(), |n| n.to_string()),
                ratio(ds.ipc()),
                ratio(trad.ipc()),
                format!("{:.2}x", ds.ipc() / trad.ipc()),
            ]
        },
    );
    r.line("translation cost hits both systems alike: the DataScalar/");
    r.line("traditional ratio is insensitive to the paper's free-translation");
    r.line("simplification");
}

/// Ablation: round-robin distribution block size.
///
/// §3.2 maximises the distribution block "to improve datathread length"
/// subject to keeping every segment spread over all nodes. Sweeps the
/// block size on the two-node timing machine and reports IPC plus the
/// BSHR's found-waiting rate (the runtime signature of longer
/// datathreads).
pub fn blocks(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: distribution block size (DataScalar x2)");
    grid(
        r,
        &programs(&named(&["li", "compress", "mgrid"]), budget),
        &[1, 2, 4, 8, 16],
        ["block pages", "IPC", "broadcasts", "found in BSHR"],
        |name, prog, &block| {
            let mut config = baseline_config(2, budget.max_insts);
            config.dist_block_pages = block;
            let run = run_ds(config, prog, name);
            [
                block.to_string(),
                ratio(run.ipc()),
                run.bus.broadcasts.to_string(),
                percent(run.node_mean(|n| n.found_in_bshr_frac())),
            ]
        },
    );
    r.line("bigger blocks lengthen datathreads (more consecutive misses at one");
    r.line("owner) — up to the point where a hot structure lands entirely on");
    r.line("one node and the other only ever waits");
}

/// Ablation: interconnect technology (§4.4).
///
/// The paper evaluates a bus, envisions a ring ("because of the
/// high-performance capability"), and notes that free-space optics make
/// broadcasts essentially free. Runs the Figure 7 benchmarks on all
/// three: the evaluated bus, the slotted ring, and an "optical" fabric
/// modelled as a core-clocked 64-byte-wide bus.
pub fn interconnect(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: interconnect technology (DataScalar x4)");
    let mut t = Table::new(&["benchmark", "bus IPC", "ring IPC", "optical IPC", "ring/bus"]);
    let progs = programs(&figure7_set(), budget);
    // Variants: the evaluated bus, the ring, and the "optical" bus.
    let variants = [(FabricKind::Bus, false), (FabricKind::Ring, false), (FabricKind::Bus, true)];
    let ipcs = sweep(&progs, &variants, |name, prog, &(kind, optical)| {
        let mut config = baseline_config(4, budget.max_insts);
        config.interconnect = kind;
        if optical {
            // Free-space optics: broadcasts at core speed and full
            // line width.
            config.bus.clock_divisor = 1;
            config.bus.width_bytes = 64;
        }
        run_ds(config, prog, name).ipc()
    });
    for ((name, _), ipc) in progs.iter().zip(ipcs.chunks(variants.len())) {
        let (bus, ring, optical) = (ipc[0], ipc[1], ipc[2]);
        t.row(&[
            name.to_string(),
            ratio(bus),
            ratio(ring),
            ratio(optical),
            format!("{:.2}x", ring / bus),
        ]);
    }
    r.table("Ablation: interconnect technology (DataScalar x4)", t);
    r.line("at four nodes the cut-through ring roughly matches the bus: it");
    r.line("pipelines broadcasts but each one occupies n-1 links and the");
    r.line("farthest node waits extra hops — the ordering/latency complication");
    r.line("the paper flags in its ring discussion. Optics removes the");
    r.line("bottleneck entirely, which is why the paper calls free-broadcast");
    r.line("media an excellent match for large DataScalar systems");
}

/// Ablation: branch-prediction assumption (§4.1 / §4.2).
///
/// The paper assumes perfect branch prediction, partly because its
/// correspondence protocol cannot yet handle speculative broadcasts.
/// Our fetch model redirects only after a mispredicted transfer
/// resolves (no wrong path is issued, so correspondence is preserved),
/// letting us measure how much of the DataScalar conclusion depends on
/// the assumption: mispredictions throttle run-ahead, which is the
/// engine of datathreading.
pub fn branch(budget: Budget, r: &mut Report) {
    r.heading(budget, "Ablation: branch prediction (2-node machines)");
    grid(
        r,
        &programs(&figure7_set(), budget),
        &[
            ("perfect", BranchModel::Perfect),
            ("bimodal 4k", BranchModel::TwoBit { table_bits: 12, penalty: 8 }),
            ("static BTFN", BranchModel::Static { penalty: 8 }),
        ],
        ["model", "DS IPC", "trad IPC", "DS/trad", "mispredict rate"],
        |name, prog, &(model_name, model)| {
            let mut config = baseline_config(2, budget.max_insts);
            config.core.branch = model;
            let ds = run_ds(config.clone(), prog, name);
            let trad = run_trad(config, prog, name);
            let s = &ds.nodes[0].core;
            let rate = if s.branches == 0 {
                0.0
            } else {
                s.branch_mispredicts as f64 / s.branches as f64
            };
            [
                model_name.to_string(),
                ratio(ds.ipc()),
                ratio(trad.ipc()),
                format!("{:.2}x", ds.ipc() / trad.ipc()),
                percent(rate),
            ]
        },
    );
    r.line("both systems lose IPC under real prediction, and the DataScalar");
    r.line("advantage persists — the paper's perfect-prediction assumption");
    r.line("inflates absolute IPCs but not the comparison");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_prints_one_table_per_workload_with_rows_in_variant_order() {
        let mut r = Report::new("unit_test");
        grid(&mut r, &[("alpha", 10), ("beta", 20)], &[1, 2, 3], ["variant", "sum"], |name, w, v| {
            [format!("{name}{v}"), (w + v).to_string()]
        });
        let table = |rows: [[&str; 2]; 3]| {
            let mut t = Table::new(&["variant", "sum"]);
            for row in rows {
                t.row(&row);
            }
            t
        };
        let alpha = table([["alpha1", "11"], ["alpha2", "12"], ["alpha3", "13"]]);
        let beta = table([["beta1", "21"], ["beta2", "22"], ["beta3", "23"]]);
        assert_eq!(r.to_string(), format!("=== alpha ===\n{alpha}\n=== beta ===\n{beta}\n"));
        // The document titles each table with its workload.
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        let titles: Vec<_> = doc.get("tables").and_then(|v| v.as_array()).unwrap().iter()
            .map(|t| t.get("title").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(titles, ["alpha", "beta"]);
    }
}
