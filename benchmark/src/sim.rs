//! One workload's reps and the output checks around them.
//!
//! Every rep rebuilds the `Program` and the system, so set-up is
//! measured as often as the run is. A rep is one closed-loop request:
//! build, construct, run, read the result, check it; the next rep
//! starts only after the check.

use crate::alloc;
use crate::host::yardstick;
use crate::spans::Tracer;
use crate::spec::{Kind, WorkloadSpec};
use ds_asm::Program;
use ds_bench::{baseline_config, Budget, Figure7Row};
use ds_core::{DsSystem, PerfectSystem, RunResult, TraditionalConfig, TraditionalSystem};
use ds_cpu::FuncCore;
use ds_mem::MemImage;
use ds_workloads::{figure7_set, Scale, Workload};
use std::time::Instant;

/// What one rep measured.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepSample {
    /// `Workload.build` (all 30 builds for the sweep).
    pub build_s: f64,
    /// System construction (all 30 for the sweep).
    pub new_s: f64,
    /// The `run()` span (`figure7_rows` for the sweep).
    pub run_s: f64,
    /// `DsSystem::result()` after the run (0 for the sweep).
    pub result_s: f64,
    /// Peak live heap during the rep, above what was live before it.
    pub heap_peak_bytes: u64,
    /// Allocations made inside `run()`.
    pub run_allocs: u64,
    /// Bytes those allocations asked for.
    pub run_alloc_bytes: u64,
    /// The host yardstick around the rep (mean of the readings just
    /// before and just after it), ns per step.
    pub yardstick_ns: f64,
}

impl RepSample {
    /// The end-to-end `setup_s` of this rep.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s
    }
}

/// Runs attempted, runs failed, and why. A run fails on `ExecError`, a
/// deadlock report, broken correspondence, a `RunResult` differing
/// from the workload's first rep, or a wrong program result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed at least one check.
    pub failed: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted run and its outcome.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// `1 - failed / attempted`.
    pub fn pass_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Times `f`, inside a span named `name` when tracing. Traced timings
/// include the span bookkeeping on purpose: the difference to the
/// untraced pass is the tracing overhead.
pub fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(t) => {
            let id = t.begin(name);
            let out = f();
            let secs = t.end(id);
            (out, secs)
        }
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        }
    }
}

/// The checksum a functional run of `prog` leaves at `result`.
pub fn functional_checksum(prog: &Program) -> Result<u64, String> {
    let mut mem = MemImage::new();
    prog.load(&mut mem);
    let mut cpu = FuncCore::with_stack(prog.entry, prog.stack_top);
    cpu.run(&mut mem, u64::MAX).map_err(|e| e.to_string())?;
    let at = prog
        .symbol("result")
        .ok_or("program has no `result` symbol")?;
    Ok(mem.read_u64(at))
}

fn same_rows(a: &[Figure7Row], b: &[Figure7Row]) -> bool {
    let key = |r: &Figure7Row| {
        (
            r.name.clone(),
            [r.perfect, r.ds2, r.ds4, r.trad_half, r.trad_quarter].map(f64::to_bits),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// The simulated facts of a workload: what every timed rep must
/// reproduce exactly.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The `RunResult` of every simulation in one rep (one for a `Sim`
    /// workload, 30 for the sweep, in `figure7_rows` job order).
    pub results: Vec<RunResult>,
    /// `DsSystem::cycles_skipped` (0 for the sweep: the comparison
    /// systems do not expose it).
    pub cycles_skipped: u64,
}

impl Reference {
    /// Per-node committed instructions, summed over the simulations.
    pub fn committed(&self) -> u64 {
        self.results.iter().map(|r| r.committed).sum()
    }

    /// `RunResult::ipc()` (geometric mean over the sweep's 30; 0 if a
    /// simulation committed nothing).
    pub fn sim_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.results.iter().map(RunResult::ipc).collect();
        ds_stats::geometric_mean(&ipcs).unwrap_or(0.0)
    }

    /// A digest of the simulated counters with `metrics` left out, so
    /// the plain and the obs flavour can be compared across processes.
    pub fn fingerprint(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for r in &self.results {
            let bare = RunResult {
                metrics: None,
                ..r.clone()
            };
            for b in format!("{bare:?}").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}

/// One workload, warmed up and checked, ready to run reps.
#[derive(Debug)]
pub struct Runner {
    spec: WorkloadSpec,
    kernel: Option<Workload>,
    /// Simulated facts from the first timed rep (the warm-up for the
    /// sweep).
    pub reference: Reference,
    sweep_rows: Vec<Figure7Row>,
    /// Check outcomes so far.
    pub checks: Checks,
    reps: u64,
}

impl Runner {
    /// Warms the workload up and runs its one-off checks:
    ///
    /// * `Sim`: an untimed run to completion whose `result` value must
    ///   equal a `FuncCore::run` of the same program, then one untimed
    ///   rep at the timed budget that becomes the reference;
    /// * sweep: the 30 simulations run one by one (their `RunResult`s
    ///   become the reference) and must give the IPCs `figure7_rows`
    ///   gives, with perfect >= 0.95 x ds2 per kernel.
    pub fn new(spec: &WorkloadSpec) -> Result<Self, String> {
        let kernel = match spec.kind {
            Kind::Sim { kernel, .. } => Some(
                ds_workloads::by_name(kernel).ok_or_else(|| format!("no kernel named {kernel}"))?,
            ),
            Kind::Sweep { .. } => None,
        };
        let mut r = Runner {
            spec: *spec,
            kernel,
            reference: Reference {
                results: Vec::new(),
                cycles_skipped: 0,
            },
            sweep_rows: Vec::new(),
            checks: Checks::default(),
            reps: 0,
        };
        match spec.kind {
            Kind::Sim { scale, .. } => {
                let prog = (r.kernel.expect("Sim workloads have a kernel").build)(scale);
                let want = functional_checksum(&prog)?;
                r.completion_check(&prog, want);
                r.rep(false, None);
            }
            Kind::Sweep { max_insts } => r.sweep_warm_up(Budget {
                max_insts,
                scale: Scale::Small,
            }),
        }
        if r.reference.results.is_empty() {
            return Err(format!(
                "{}: warm-up produced no result: {:?}",
                spec.name, r.checks.failures
            ));
        }
        Ok(r)
    }

    /// Runs `prog` to completion on the workload's machine and checks
    /// the value left at `result` against `want`.
    pub fn completion_check(&mut self, prog: &Program, want: u64) {
        let config = self
            .spec
            .config(None, false)
            .expect("completion check is for Sim workloads");
        let mut sys = DsSystem::new(config, prog);
        let outcome = check_run(sys.run().map_err(|e| e.to_string()), &sys, None).and_then(|_| {
            let at = prog
                .symbol("result")
                .ok_or("program has no `result` symbol")?;
            let got = sys.mem().read_u64(at);
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "result is {got:#x}, functional execution gives {want:#x}"
                ))
            }
        });
        self.checks.record("run to completion", outcome);
    }

    fn sweep_warm_up(&mut self, budget: Budget) {
        let mut results = Vec::with_capacity(30);
        for w in figure7_set() {
            results.push(ds_bench::run_perfect(&w, budget));
            results.push(ds_bench::run_datascalar(&w, 2, budget));
            results.push(ds_bench::run_datascalar(&w, 4, budget));
            results.push(ds_bench::run_traditional(&w, 2, budget));
            results.push(ds_bench::run_traditional(&w, 4, budget));
        }
        let rows = ds_bench::figure7_rows(budget);
        let ipcs: Vec<u64> = results.iter().map(|r| r.ipc().to_bits()).collect();
        let row_ipcs: Vec<u64> = rows
            .iter()
            .flat_map(|r| [r.perfect, r.ds2, r.ds4, r.trad_half, r.trad_quarter])
            .map(f64::to_bits)
            .collect();
        let bounded = rows.iter().all(|r| r.perfect >= 0.95 * r.ds2);
        let outcome = if ipcs != row_ipcs {
            Err("figure7_rows disagrees with the 30 simulations run one by one".to_string())
        } else if !bounded {
            Err("perfect cache fails to bound ds2 on some kernel".to_string())
        } else {
            Ok(())
        };
        self.checks.record("sweep warm-up", outcome);
        self.reference = Reference {
            results,
            cycles_skipped: 0,
        };
        self.sweep_rows = rows;
    }

    /// One rep. `no_skip` runs the same machine with horizon skipping
    /// off (its `RunResult` must still equal the reference). With a
    /// tracer, the five boundary spans are recorded under one `rep`
    /// span.
    pub fn rep(&mut self, no_skip: bool, mut tracer: Option<&mut Tracer>) -> RepSample {
        self.reps += 1;
        let yardstick_before = yardstick();
        let rep_span = tracer.as_deref_mut().map(|t| {
            t.set_rep(self.reps);
            t.begin(if no_skip { "rep.noskip" } else { "rep" })
        });
        let live_before = alloc::reset_peak();
        let mut sample = match self.spec.kind {
            Kind::Sim {
                scale, max_insts, ..
            } => self.sim_rep(scale, max_insts, no_skip, &mut tracer),
            Kind::Sweep { max_insts } => self.sweep_rep(
                Budget {
                    max_insts,
                    scale: Scale::Small,
                },
                &mut tracer,
            ),
        };
        sample.heap_peak_bytes = alloc::snapshot().peak.saturating_sub(live_before);
        sample.yardstick_ns = (yardstick_before + yardstick()) / 2.0;
        if let (Some(t), Some(id)) = (tracer, rep_span) {
            t.end(id);
        }
        sample
    }

    fn sim_rep(
        &mut self,
        scale: Scale,
        max_insts: u64,
        no_skip: bool,
        tracer: &mut Option<&mut Tracer>,
    ) -> RepSample {
        let build = self.kernel.expect("Sim workloads have a kernel").build;
        let config = self
            .spec
            .config(Some(max_insts), no_skip)
            .expect("Sim workloads have a machine");
        let (prog, build_s) = timed(tracer, "workload.build", || build(scale));
        let (mut sys, new_s) = timed(tracer, "system.new", || DsSystem::new(config, &prog));
        // The id the `system.run` span is about to get.
        let run_span = tracer.as_ref().map(|t| t.spans().len());
        let before = alloc::snapshot();
        let (ran, run_s) = timed(tracer, "system.run", || sys.run());
        let after = alloc::snapshot();
        let (_, result_s) = timed(tracer, "system.result", || {
            std::hint::black_box(sys.result())
        });
        let (outcome, _) = timed(tracer, "check", || {
            let want = self.reference.results.first();
            check_run(ran.map_err(|e| e.to_string()), &sys, want)
        });
        if let (Some(t), Some(run_span)) = (tracer, run_span) {
            if let Ok(r) = &outcome {
                t.count(run_span, "committed", r.committed as f64);
                t.count(run_span, "cycles", r.cycles as f64);
                t.count(run_span, "cycles_skipped", sys.cycles_skipped() as f64);
                t.count(run_span, "broadcasts", r.bus.broadcasts as f64);
            }
            t.count(run_span, "allocs", (after.count - before.count) as f64);
        }
        let what = if no_skip { "no_skip rep" } else { "rep" };
        match outcome {
            Ok(r) => {
                if self.reference.results.is_empty() {
                    self.reference = Reference {
                        results: vec![r],
                        cycles_skipped: sys.cycles_skipped(),
                    };
                }
                self.checks.record(what, Ok(()));
            }
            Err(why) => self.checks.record(what, Err(why)),
        }
        RepSample {
            build_s,
            new_s,
            run_s,
            result_s,
            run_allocs: after.count - before.count,
            run_alloc_bytes: after.bytes - before.bytes,
            ..RepSample::default()
        }
    }

    fn sweep_rep(&mut self, budget: Budget, tracer: &mut Option<&mut Tracer>) -> RepSample {
        let set = figure7_set();
        // Set-up is what `figure7_rows` does before each `run()`: five
        // builds and five constructions per kernel. Measured on its
        // own because `figure7_rows` gives no boundary inside itself.
        let (progs, build_s) = timed(tracer, "workload.build", || {
            set.iter()
                .map(|w| (0..5).map(|_| (w.build)(budget.scale)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        });
        let (_, new_s) = timed(tracer, "system.new", || {
            for p in &progs {
                std::hint::black_box(PerfectSystem::new(
                    &baseline_config(1, budget.max_insts),
                    &p[0],
                ));
                std::hint::black_box(DsSystem::new(baseline_config(2, budget.max_insts), &p[1]));
                std::hint::black_box(DsSystem::new(baseline_config(4, budget.max_insts), &p[2]));
                for (nodes, prog) in [(2, &p[3]), (4, &p[4])] {
                    let config = TraditionalConfig {
                        base: baseline_config(nodes, budget.max_insts),
                    };
                    std::hint::black_box(TraditionalSystem::new(&config, prog));
                }
            }
        });
        drop(progs);
        let run_span = tracer.as_ref().map(|t| t.spans().len());
        let before = alloc::snapshot();
        let (rows, run_s) = timed(tracer, "system.run", || ds_bench::figure7_rows(budget));
        let after = alloc::snapshot();
        let (outcome, _) = timed(tracer, "check", || {
            if !same_rows(&rows, &self.sweep_rows) {
                Err("IPCs differ from the warm-up sweep".to_string())
            } else if !rows.iter().all(|r| r.perfect >= 0.95 * r.ds2) {
                Err("perfect cache fails to bound ds2 on some kernel".to_string())
            } else {
                Ok(())
            }
        });
        if let (Some(t), Some(run_span)) = (tracer, run_span) {
            t.count(run_span, "committed", self.reference.committed() as f64);
            t.count(run_span, "simulations", 30.0);
        }
        self.checks.record("sweep rep", outcome);
        RepSample {
            build_s,
            new_s,
            run_s,
            run_allocs: after.count - before.count,
            run_alloc_bytes: after.bytes - before.bytes,
            ..RepSample::default()
        }
    }
}

/// The per-run checks: the run returned, no deadlock report,
/// correspondence holds, and (given a reference) the `RunResult` is
/// the reference's.
fn check_run(
    ran: Result<RunResult, String>,
    sys: &DsSystem,
    want: Option<&RunResult>,
) -> Result<RunResult, String> {
    let r = ran?;
    if let Some(report) = &r.deadlock {
        return Err(format!("watchdog tripped: {report}"));
    }
    if !sys.correspondence_holds() {
        return Err("cache correspondence broken".to_string());
    }
    match want {
        Some(w) if *w != r => Err(format!(
            "RunResult differs from the first rep (cycles {} vs {}, committed {} vs {})",
            r.cycles, w.cycles, r.committed, w.committed
        )),
        _ => Ok(r),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ds_net::FabricKind;

    /// A debug-build-sized workload.
    pub(crate) fn tiny(kernel: &'static str, nodes: usize, fabric: FabricKind) -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            why: "test",
            kind: Kind::Sim {
                kernel,
                scale: Scale::Tiny,
                nodes,
                fabric,
                max_insts: 8_000,
            },
            obs: false,
        }
    }

    #[test]
    fn healthy_reps_pass_every_check_and_repeat_exactly() {
        let mut r = Runner::new(&tiny("compress", 2, FabricKind::Bus)).expect("warm-up");
        let a = r.rep(false, None);
        let b = r.rep(true, None);
        assert_eq!(
            r.checks,
            Checks {
                attempted: 4,
                failed: 0,
                failures: vec![]
            }
        );
        assert_eq!(r.checks.pass_share(), 1.0);
        assert!(a.run_s > 0.0 && a.setup_s() > 0.0 && b.run_s > 0.0);
        // Its exact repeatability is `run.sh --twice`'s to check: here
        // other tests allocate on their own threads meanwhile.
        assert!(a.heap_peak_bytes > 0);
        assert!(r.reference.committed() >= 8_000);
        assert!(r.reference.sim_ipc() > 0.0);
        assert_eq!(
            r.reference.fingerprint(),
            Runner::new(&r.spec).unwrap().reference.fingerprint()
        );
    }

    #[test]
    fn a_wrong_checksum_counts_as_a_failed_run() {
        let spec = tiny("go", 2, FabricKind::Bus);
        let mut r = Runner::new(&spec).expect("warm-up");
        let prog = (ds_workloads::by_name("go").unwrap().build)(Scale::Tiny);
        let want = functional_checksum(&prog).unwrap();
        r.completion_check(&prog, want ^ 1);
        assert_eq!(r.checks.failed, 1);
        assert!(r.checks.pass_share() < 1.0);
        assert!(
            r.checks.failures[0].contains("functional execution gives"),
            "{:?}",
            r.checks.failures
        );
    }

    #[test]
    fn a_result_differing_from_the_first_rep_counts_as_a_failed_run() {
        let mut r = Runner::new(&tiny("li", 2, FabricKind::Bus)).expect("warm-up");
        r.reference.results[0].cycles += 1;
        r.rep(false, None);
        assert_eq!(r.checks.failed, 1);
        assert!(r.checks.failures[0].contains("differs from the first rep"));
    }

    #[test]
    fn traced_rep_records_the_five_boundaries_under_one_parent() {
        let mut r = Runner::new(&tiny("wave5", 4, FabricKind::Ring)).expect("warm-up");
        let mut t = Tracer::new("tiny");
        r.rep(false, Some(&mut t));
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "rep",
                "workload.build",
                "system.new",
                "system.run",
                "system.result",
                "check"
            ]
        );
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert!(t.spans()[3]
            .counts
            .iter()
            .any(|(k, v)| k == "committed" && *v >= 8_000.0));
    }
}
