//! The names this benchmark defines: its workloads and its metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`ds-ledger manifest`), and a test keeps the two equal, so a name
//! exists in exactly one place.

use crate::json::{n, obj, s, Value};
use ds_core::DsConfig;
use ds_net::FabricKind;
use ds_workloads::Scale;

/// Seconds one contract run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 16;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One kernel on one DataScalar machine.
    Sim {
        /// `ds-workloads` kernel name.
        kernel: &'static str,
        /// Problem size.
        scale: Scale,
        /// Node count.
        nodes: usize,
        /// Interconnect.
        fabric: FabricKind,
        /// Per-node commit budget of a timed rep.
        max_insts: u64,
    },
    /// `ds_bench::figure7_rows`: 6 kernels x 5 systems per rep.
    Sweep {
        /// Per-simulation commit budget.
        max_insts: u64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Why it is here, in one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Needs the `obs` build flavour.
    pub obs: bool,
}

impl WorkloadSpec {
    /// The machine a timed rep of a `Sim` workload runs on. Everything
    /// not named by the workload is the library default.
    pub fn config(&self, max_insts: Option<u64>, no_skip: bool) -> Option<DsConfig> {
        let Kind::Sim { nodes, fabric, .. } = self.kind else {
            return None;
        };
        let mut c = DsConfig::with_nodes(nodes);
        c.interconnect = fabric;
        c.max_insts = max_insts;
        c.no_skip = no_skip;
        Some(c)
    }
}

const COMPRESS: Kind = Kind::Sim {
    kernel: "compress",
    scale: Scale::Full,
    nodes: 2,
    fabric: FabricKind::Bus,
    max_insts: 1_500_000,
};

/// The six workloads (closed loop: one simulation at a time, the next
/// starts when the previous one has been checked).
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "go.ds2.bus",
        why: "core-bound: IPC 2.65, <0.1% of cycles skipped, 1.6 broadcasts/Kinst; OooCore::step and FuncCore do nearly all the work, fabric, BSHR and horizon skipping almost none",
        kind: Kind::Sim { kernel: "go", scale: Scale::Small, nodes: 2, fabric: FabricKind::Bus, max_insts: 1_500_000 },
        obs: false,
    },
    WorkloadSpec {
        name: "li.ds2.bus",
        why: "latency-bound pointer chase: IPC 0.10, 87% of cycles skipped, 167 broadcasts/Kinst, 0 false hits; horizon skipping, Fabric::step_into and BSHR request/arrival dominate (read side of the protocol)",
        kind: Kind::Sim { kernel: "li", scale: Scale::Full, nodes: 2, fabric: FabricKind::Bus, max_insts: 1_000_000 },
        obs: false,
    },
    WorkloadSpec {
        name: "compress.ds2.bus",
        why: "the paper's star, write side of the protocol: 1.8 stores per memory load, ESP-dropped writes, thousands of false hits, late broadcasts and squashed arrivals; repair cost shows here",
        kind: COMPRESS,
        obs: false,
    },
    WorkloadSpec {
        name: "wave5.ds4.ring",
        why: "the only user of Ring::step_into and of 4-node stepping (twice the per-cycle node work of ds2); FP gather/scatter addressing",
        kind: Kind::Sim { kernel: "wave5", scale: Scale::Small, nodes: 4, fabric: FabricKind::Ring, max_insts: 500_000 },
        obs: false,
    },
    WorkloadSpec {
        name: "compress.ds2.bus.obs",
        why: "compress.ds2.bus on the obs build flavour: the only workload whose Probe hooks are not NoopProbe, so probe cost is gated; simulated counters must equal compress.ds2.bus exactly",
        kind: COMPRESS,
        obs: true,
    },
    WorkloadSpec {
        name: "fig7.sweep",
        why: "figure7_rows at 200K insts, 6 kernels x 5 systems: the only workload running TraditionalSystem, PerfectSystem and runner::map; stands in for regenerating the paper's figures",
        kind: Kind::Sweep { max_insts: 200_000 },
        obs: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether more or less of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Regression = the value drops.
    Higher,
    /// Regression = the value rises.
    Lower,
}

/// One metric's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name (letters, digits, `_`, `.`, `-`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median the metric may
    /// worsen by before a change counts as a regression.
    pub bound: f64,
    /// Must repeat exactly between two runs of the same code (simulated
    /// counts and what derives only from them).
    pub exact: bool,
}

fn m(name: &str, unit: &'static str, better: Better, exact: bool) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

/// What an "exact" end-to-end metric is allowed to move by: nothing.
/// (Not literally 0 so that a manifest checker asking for a positive
/// bound is satisfied too.)
pub const EXACT_BOUND: f64 = 1e-9;

/// The five end-to-end metrics, reported per workload from the
/// untraced pass.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let e = |name: &str, unit, better, bound, exact| MetricSpec {
        bound,
        ..m(name, unit, better, exact)
    };
    vec![
        // Committed simulated instructions per host second of `run()`:
        // what a user of the simulator waits for. Host seconds here and
        // in `setup_s` are scaled to the reference host by the
        // benchmark's yardstick (`host.speed`); `host.raw_insts_per_s`
        // is the number as clocked.
        // The bound is three times the widest spread seen between ten
        // runs of one binary (7.1%, on a noisy host; 1.5-2.7% on a quiet
        // one), which is the contract's ceiling.
        e("insts_per_s", "insts/s", Higher, 0.25, false),
        // Simulated instructions per simulated cycle: a simulator-speed
        // change must leave it bit-identical.
        e("sim_ipc", "insts/cycle", Higher, EXACT_BOUND, true),
        // `Workload.build` + system construction: work moved out of
        // `run()` into construction shows here.
        e("setup_s", "s", Lower, 0.25, false),
        // Peak live heap during one rep, from the counting allocator.
        e("heap_peak_bytes", "bytes", Lower, 0.01, true),
        // Share of attempted runs that passed every output check
        // (1 - the issue's `fail_share`, which is 0 on a healthy tree
        // and so cannot carry a relative bound).
        e("pass_share", "share", Higher, EXACT_BOUND, true),
    ]
}

/// The per-layer metrics, reported per workload from the traced pass.
/// A value of 0 means the workload does not exercise that layer
/// (`net.ring.*` off the ring, `obs.*` off the obs flavour, the layer
/// drivers on `fig7.sweep`).
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut time = |names: &[&str], unit| v.extend(names.iter().map(|x| m(x, unit, Lower, false)));
    // ds-asm / ds-isa
    time(&["asm.build_s"], "s");
    time(&["isa.decode_ns"], "ns");
    // ds-cpu
    time(
        &[
            "cpu.func.ns_per_inst",
            "cpu.trace.ns_per_inst",
            "cpu.ooo.ns_per_inst",
            "cpu.ooo.ns_per_cycle",
            "cpu.ooo.next_event_ns",
        ],
        "ns",
    );
    // ds-mem
    time(
        &[
            "mem.cache.ns_per_access",
            "mem.bank.ns_per_access",
            "mem.image.ns_per_rw",
            "mem.page.ns_per_lookup",
        ],
        "ns",
    );
    // ds-net
    time(
        &[
            "net.bus.ns_per_step",
            "net.ring.ns_per_step",
            "net.bus.ns_per_msg",
            "net.ring.ns_per_msg",
            "net.next_event_ns",
        ],
        "ns",
    );
    // ds-core protocol
    time(
        &[
            "core.bshr.ns_per_op",
            "core.dcub.ns_per_op",
            "core.linemap.ns_per_op",
        ],
        "ns",
    );
    // ds-core engine
    time(
        &[
            "engine.new_s",
            "engine.run_s",
            "engine.noskip_run_s",
            "bench.sweep_s",
        ],
        "s",
    );
    time(
        &["engine.ns_per_stepped_cycle", "engine.ns_per_node_step"],
        "ns",
    );
    // ds-obs
    time(
        &[
            "obs.record_ns",
            "obs.charge_ns",
            "obs.charge_pc_ns",
            "obs.edge_ns",
            "obs.sample_ns",
        ],
        "ns",
    );
    time(&["obs.report_s"], "s");
    // host
    time(&["host.rep_s_p50", "host.rep_s_p80"], "s");
    time(&["host.yardstick_ns"], "ns");

    let mut exact =
        |names: &[&str], unit, better| v.extend(names.iter().map(|x| m(x, unit, better, true)));
    exact(
        &[
            "cpu.committed",
            "cpu.loads",
            "cpu.stores",
            "cpu.forwarded_loads",
            "cpu.branches",
            "mem.issue_hits",
            "mem.writes_dropped",
            "core.bshr.found_buffered",
            "engine.cycles_skipped",
        ],
        "count",
        Higher,
    );
    exact(
        &[
            "cpu.branch_mispredicts",
            "cpu.fetch_stall_cycles",
            "cpu.ruu_full_stalls",
            "cpu.lsq_full_stalls",
            "cpu.trace_window_high_water",
            "mem.loads_issued",
            "mem.local_misses",
            "mem.remote_accesses",
            "mem.stores_committed",
            "mem.writebacks_local",
            "mem.writethroughs_local",
            "net.transactions",
            "net.broadcasts",
            "net.bytes",
            "net.busy_cycles",
            "net.queue_delay_cycles",
            "core.broadcasts_sent",
            "core.late_broadcasts",
            "core.false_hits",
            "core.false_misses",
            "core.bshr.waits_allocated",
            "core.bshr.arrivals",
            "core.bshr.squashed_arrivals",
            "core.bshr.max_occupancy",
            "core.dcub_max",
            "engine.cycles",
            "engine.stepped_cycles",
            "obs.events_dropped",
            "obs.crit_dropped",
            "obs.timeline_intervals",
            "obs.timeline_phases",
        ],
        "count",
        Lower,
    );
    for b in ds_obs::StallBucket::ALL {
        let better = if b == ds_obs::StallBucket::Committing {
            Higher
        } else {
            Lower
        };
        exact(&[&format!("obs.stall.{}", b.label())], "cycles", better);
    }
    for c in ds_obs::EdgeClass::ALL {
        exact(&[&format!("obs.crit.{}", c.label())], "cycles", Lower);
    }
    exact(
        &[
            "mem.cache.hit_ratio",
            "core.found_in_bshr_frac",
            "engine.skip_frac",
        ],
        "ratio",
        Higher,
    );
    exact(
        &[
            "net.busy_frac",
            "core.late_broadcast_frac",
            "core.squash_frac",
        ],
        "ratio",
        Lower,
    );

    let mut measured =
        |names: &[&str], unit, better| v.extend(names.iter().map(|x| m(x, unit, better, false)));
    measured(&["engine.skip_speedup"], "ratio", Higher);
    measured(&["engine.allocs_per_kinst"], "1/Kinst", Lower);
    measured(&["engine.alloc_bytes_per_kinst"], "bytes/Kinst", Lower);
    measured(
        &[
            "engine.perfect.insts_per_s",
            "engine.ds2.insts_per_s",
            "engine.ds4.insts_per_s",
            "engine.trad.insts_per_s",
        ],
        "insts/s",
        Higher,
    );
    measured(
        &[
            "obs.overhead_frac",
            "host.rep_spread_frac",
            "host.steal_frac",
            "host.trace_overhead_frac",
        ],
        "ratio",
        Lower,
    );
    measured(&["host.speed"], "ratio", Higher);
    measured(&["host.raw_insts_per_s"], "insts/s", Higher);
    measured(&["host.reps"], "count", Higher);
    // Composition: estimates from isolated drivers (count x driver ns
    // / run time), not measurements inside the run.
    measured(
        &[
            "share.cpu.func",
            "share.cpu.ooo",
            "share.mem",
            "share.net",
            "share.core.protocol",
            "share.obs",
            "share.engine.residual",
        ],
        "ratio",
        Lower,
    );
    v
}

/// `BENCHMARK.json`, pretty-printed.
pub fn manifest() -> String {
    let better = |b: Better| {
        s(if b == Better::Higher {
            "higher"
        } else {
            "lower"
        })
    };
    let list = |items: Vec<Value>| -> String {
        items
            .iter()
            .map(|v| format!("    {}", crate::json::render(v)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let e2e = end_to_end()
        .into_iter()
        .map(|x| {
            obj([
                ("name", s(x.name)),
                ("unit", s(x.unit)),
                ("better", better(x.better)),
                ("bound", n(x.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .into_iter()
        .map(|x| {
            obj([
                ("name", s(x.name)),
                ("unit", s(x.unit)),
                ("better", better(x.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads),
        list(e2e),
        list(layers)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's rule for workload and metric names.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// The contract's rule for units.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for good in [
            "go.ds2.bus",
            "obs.stall.bshr-wait-remote",
            "setup_s",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "slash/y",
            "caf\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("bytes/Kinst") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("insts per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalog_is_valid_unique_and_within_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = BTreeSet::new();
        for x in e2e.iter().chain(&layers) {
            assert!(valid_name(&x.name), "{}", x.name);
            assert!(valid_unit(x.unit), "{}: {}", x.name, x.unit);
            assert!(seen.insert(x.name.clone()), "{} listed twice", x.name);
        }
        for x in &e2e {
            assert!(x.bound > 0.0 && x.bound <= 0.25, "{}", x.name);
        }
        let setup = e2e
            .iter()
            .find(|x| x.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|x| x.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && seen.insert(w.name.to_string()),
                "{}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `ds-ledger manifest > BENCHMARK.json`"
        );
        let doc = crate::json::parse(&text).expect("manifest is JSON");
        let keys: Vec<&str> = match &doc {
            Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("manifest is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 * 1024);
    }
}
