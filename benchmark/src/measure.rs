//! One process, one workload: the untraced pass (end-to-end metrics)
//! or the traced pass (per-layer metrics).

use crate::drivers::{self, Ctx, MIN_BATCHES};
use crate::host;
use crate::json::{parse, Value};
use crate::ledger::{self, get, Measured, Metrics};
use crate::sim::{RepSample, Runner};
use crate::spans::Tracer;
use crate::spec::{Kind, WorkloadSpec};
use crate::stats::{fast_fifth_mean, median};
use ds_bench::Budget;
use ds_workloads::{figure7_set, Scale};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest timed reps of a pass, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Traced reps per workload.
const TRACED_REPS: usize = 5;

/// What a pass needs besides the workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--seed`: drives the drivers' synthetic streams (kernel inputs
    /// are fixed by `ds-workloads`).
    pub seed: u64,
    /// `--seconds`: how long the pass measures.
    pub seconds: f64,
    /// The plain-flavour binary, for the obs workload's cross-checks.
    pub plain_bin: Option<PathBuf>,
}

fn new_measured(spec: &WorkloadSpec, opts: &Options, runner: &Runner) -> Measured {
    Measured {
        workload: spec.name.to_string(),
        flavour: ledger::flavour().to_string(),
        seed: opts.seed,
        samples: Vec::new(),
        checks: Default::default(),
        committed: runner.reference.committed(),
        sim_ipc: runner.reference.sim_ipc(),
        fingerprint: runner.reference.fingerprint(),
        layer: Vec::new(),
        spans: Vec::new(),
    }
}

/// Runs the plain binary with `args` and returns its last stdout line.
fn plain_child(opts: &Options, args: &[&str]) -> Result<String, String> {
    let bin = opts
        .plain_bin
        .as_ref()
        .ok_or("DS_LEDGER_PLAIN_BIN is not set (run through benchmark/run.sh)")?;
    let out = Command::new(bin)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {args:?} exited with {}",
            bin.display(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| "plain binary printed nothing".to_string())
}

/// The obs workload's cross-flavour check: its simulated counters,
/// `metrics` ignored, must equal the plain flavour's.
fn cross_flavour_check(spec: &WorkloadSpec, opts: &Options, runner: &mut Runner) {
    let Some(twin) = spec.name.strip_suffix(".obs") else {
        return;
    };
    let outcome = plain_child(opts, &["fingerprint", twin]).and_then(|theirs| {
        let ours = runner.reference.fingerprint();
        if theirs == ours {
            Ok(())
        } else {
            Err(format!(
                "simulated counters differ from {twin} ({ours} vs {theirs})"
            ))
        }
    });
    runner.checks.record("cross-flavour check", outcome);
}

/// The untraced pass: warm up, check, then timed reps for `seconds`.
pub fn untraced(spec: &WorkloadSpec, opts: &Options) -> Result<Measured, String> {
    let mut runner = Runner::new(spec)?;
    if spec.obs {
        cross_flavour_check(spec, opts, &mut runner);
    }
    let mut m = new_measured(spec, opts, &runner);
    let start = Instant::now();
    while m.samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        m.samples.push(runner.rep(false, None));
    }
    m.checks = runner.checks;
    Ok(m)
}

/// Committed instructions per host second of each system model in the
/// sweep, one pass over the six kernels.
fn sweep_groups(max_insts: u64) -> [f64; 4] {
    let budget = Budget {
        max_insts,
        scale: Scale::Small,
    };
    let set = figure7_set();
    let group = |run: &dyn Fn(&ds_workloads::Workload) -> u64| {
        let t = Instant::now();
        let committed: u64 = set.iter().map(run).sum();
        committed as f64 / t.elapsed().as_secs_f64()
    };
    [
        group(&|w| ds_bench::run_perfect(w, budget).committed),
        group(&|w| ds_bench::run_datascalar(w, 2, budget).committed),
        group(&|w| ds_bench::run_datascalar(w, 4, budget).committed),
        group(&|w| {
            ds_bench::run_traditional(w, 2, budget).committed
                + ds_bench::run_traditional(w, 4, budget).committed
        }),
    ]
}

/// The traced pass: rounds of {untraced rep, `no_skip` rep, traced
/// rep} for most of `seconds`, then every layer driver. Returns the
/// per-layer metrics and the spans.
pub fn traced(spec: &WorkloadSpec, opts: &Options) -> Result<Measured, String> {
    let jiffies = host::cpu_jiffies();
    let mut tracer = Tracer::new(spec.name);
    let mut runner = Runner::new(spec)?;
    let mut m = new_measured(spec, opts, &runner);
    let is_sim = matches!(spec.kind, Kind::Sim { .. });
    // The obs workload spends part of its time on the plain twin, for
    // `obs.overhead_frac`.
    let rounds_share = if spec.obs { 0.55 } else { 0.8 };
    let (mut noskip, mut traced_reps): (Vec<RepSample>, Vec<RepSample>) = (Vec::new(), Vec::new());
    let mut groups: Vec<[f64; 4]> = Vec::new();
    let start = Instant::now();
    while m.samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds * rounds_share
    {
        m.samples.push(runner.rep(false, None));
        if is_sim {
            noskip.push(runner.rep(true, None));
        }
        if traced_reps.len() < TRACED_REPS {
            traced_reps.push(runner.rep(false, Some(&mut tracer)));
        }
        if let Kind::Sweep { max_insts } = spec.kind {
            groups.push(sweep_groups(max_insts));
        }
    }

    let run_s = m.run_s();
    let of = |xs: &[RepSample], f: fn(&RepSample) -> f64| {
        fast_fifth_mean(&xs.iter().map(f).collect::<Vec<_>>())
    };
    // A ratio of two kinds of rep is the median over the rounds of the
    // ratio within a round: the two reps of a round are neighbours in
    // time, so a slow epoch of the host slows both.
    let paired = |xs: &[RepSample]| {
        let ratios: Vec<f64> = xs
            .iter()
            .zip(&m.samples)
            .map(|(x, base)| x.run_s / base.run_s)
            .collect();
        median(&ratios)
    };
    let mut layer: Metrics = ledger::counts(&runner.reference);
    layer.extend(m.host_metrics());
    layer.push(("engine.new_s".to_string(), of(&m.samples, |x| x.new_s)));
    layer.push(("engine.run_s".to_string(), run_s));
    layer.push((
        "host.trace_overhead_frac".to_string(),
        paired(&traced_reps) - 1.0,
    ));
    let kinsts = m.committed as f64 / 1e3;
    let alloc_median =
        |f: fn(&RepSample) -> f64| median(&m.samples.iter().map(f).collect::<Vec<_>>()) / kinsts;
    layer.push((
        "engine.allocs_per_kinst".to_string(),
        alloc_median(|x| x.run_allocs as f64),
    ));
    layer.push((
        "engine.alloc_bytes_per_kinst".to_string(),
        alloc_median(|x| x.run_alloc_bytes as f64),
    ));
    match spec.kind {
        Kind::Sim { nodes, .. } => {
            let noskip_s = of(&noskip, |x| x.run_s);
            let stepped = get(&layer, "engine.stepped_cycles");
            layer.push(("engine.noskip_run_s".to_string(), noskip_s));
            layer.push(("engine.skip_speedup".to_string(), paired(&noskip)));
            layer.push((
                "engine.ns_per_stepped_cycle".to_string(),
                run_s * 1e9 / stepped,
            ));
            layer.push((
                "engine.ns_per_node_step".to_string(),
                run_s * 1e9 / (stepped * nodes as f64),
            ));
        }
        Kind::Sweep { .. } => {
            layer.push(("bench.sweep_s".to_string(), run_s));
            let names = [
                "engine.perfect.insts_per_s",
                "engine.ds2.insts_per_s",
                "engine.ds4.insts_per_s",
                "engine.trad.insts_per_s",
            ];
            for (i, name) in names.iter().enumerate() {
                // Highest of the passes: the rate counterpart of the fast fifth.
                layer.push((
                    name.to_string(),
                    groups.iter().map(|g| g[i]).fold(0.0, f64::max),
                ));
            }
        }
    }
    if spec.obs {
        layer.push(("obs.report_s".to_string(), of(&m.samples, |x| x.result_s)));
        cross_flavour_check(spec, opts, &mut runner);
        let twin = spec.name.strip_suffix(".obs").unwrap_or(spec.name);
        let seconds = format!("{}", opts.seconds * 0.25);
        let line = plain_child(
            opts,
            &[
                "--workload",
                twin,
                "--seed",
                &opts.seed.to_string(),
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ],
        );
        let plain_ips = line.and_then(|l| {
            let doc = parse(&l).map_err(|e| e.to_string())?;
            doc.get("metrics")
                .and_then(|x| x.get("insts_per_s"))
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| "no insts_per_s in the plain twin's result".to_string())
        });
        match plain_ips {
            Ok(ips) => layer.push(("obs.overhead_frac".to_string(), ips / m.insts_per_s() - 1.0)),
            Err(why) => runner
                .checks
                .record("plain twin for obs.overhead_frac", Err(why)),
        }
    }

    let batches = if opts.seconds >= 8.0 { MIN_BATCHES } else { 3 };
    let collect = tracer.begin("driver.collect");
    let ctx = Ctx::collect(spec, &runner.reference, opts.seed, batches);
    tracer.end(collect);
    if let Some(ctx) = &ctx {
        layer.extend(drivers::run_all(ctx, &mut tracer));
    }
    layer.extend(ledger::composition(spec, &runner.reference, &layer));
    layer.push((
        "host.steal_frac".to_string(),
        host::steal_frac(jiffies, host::cpu_jiffies()),
    ));

    m.checks = runner.checks;
    m.layer = layer;
    m.spans = tracer.to_json();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::tiny;

    #[test]
    fn both_passes_fill_their_metric_families() {
        let spec = tiny("compress", 2, ds_net::FabricKind::Bus);
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            plain_bin: None,
        };
        let e = untraced(&spec, &opts).unwrap();
        assert_eq!((e.samples.len(), e.checks.failed), (MIN_REPS, 0));
        assert!(e.end_to_end().iter().all(|(_, v)| *v > 0.0));

        let t = traced(&spec, &opts).unwrap();
        assert_eq!(t.checks.failed, 0, "{:?}", t.checks.failures);
        let catalog: Vec<String> = crate::spec::per_layer()
            .into_iter()
            .map(|c| c.name)
            .collect();
        for (k, v) in &t.layer {
            assert!(catalog.contains(k), "{k} is not catalogued");
            assert!(v.is_finite(), "{k} = {v}");
        }
        let shares: f64 = t
            .layer
            .iter()
            .filter(|(k, _)| k.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9);
        assert!(
            get(&t.layer, "engine.skip_speedup") > 0.0
                && get(&t.layer, "core.bshr.ns_per_op") > 0.0
        );
        assert_eq!(
            get(&t.layer, "net.ring.ns_per_step"),
            0.0,
            "no ring on a bus workload"
        );
        assert_eq!(
            get(&t.layer, "obs.record_ns"),
            0.0,
            "no obs drivers off the obs workload"
        );
        // Five boundary spans per traced rep, one span per driver batch, parents resolve.
        let names: Vec<&str> = t
            .spans
            .iter()
            .filter_map(|s| s.get("name")?.as_str())
            .collect();
        for boundary in [
            "workload.build",
            "system.new",
            "system.run",
            "system.result",
            "check",
        ] {
            assert_eq!(
                names.iter().filter(|n| **n == boundary).count(),
                MIN_REPS,
                "{boundary}"
            );
        }
        assert_eq!(
            names.iter().filter(|n| **n == "driver.mem.cache").count(),
            3
        );
        for s in &t.spans {
            if let Some(p) = s.get("parent").and_then(Value::as_f64) {
                assert!(
                    (p as usize) < t.spans.len()
                        && p < s.get("id").and_then(Value::as_f64).unwrap()
                );
            }
        }
    }

    #[test]
    fn the_obs_workload_without_its_plain_twin_fails_the_cross_check() {
        let spec = WorkloadSpec {
            name: "tiny.obs",
            ..tiny("go", 2, ds_net::FabricKind::Bus)
        };
        let spec = WorkloadSpec { obs: true, ..spec };
        let m = untraced(
            &spec,
            &Options {
                seed: 1,
                seconds: 0.0,
                plain_bin: None,
            },
        )
        .unwrap();
        assert_eq!(m.checks.failed, 1);
        assert!(m.checks.failures[0].contains("DS_LEDGER_PLAIN_BIN"));
    }
}
