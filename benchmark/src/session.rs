//! A whole session: every workload, both build flavours, both passes.
//!
//! Each (workload, block) is one child process of the flavour the
//! workload needs — one process, one thread, one simulation at a time.
//! The untraced pass runs in blocks, round-robin over the workloads in
//! a seeded order, so each workload's reps are spread over the whole
//! session and the two flavours alternate; the blocks' reps are pooled
//! before the fast-fifth is taken. The traced pass follows.

use crate::host;
use crate::json::{self, count, n, obj, s, Value};
use crate::ledger::{get, Measured, Metrics};
use crate::spec::{self, Better, WorkloadSpec, WORKLOADS};
use crate::stats::Rng;
use std::path::{Path, PathBuf};
use std::process::Command;

/// How long and how often a session measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untraced blocks per workload.
    pub blocks: usize,
    /// Seconds of timed reps per block.
    pub block_seconds: f64,
    /// Seconds of the traced pass per workload (`None`: skip it).
    pub trace_seconds: Option<f64>,
}

impl Plan {
    /// Three blocks of 9 s (27 s of timed reps per workload, under the
    /// 30 s cap), then a 12 s traced pass.
    pub const FULL: Plan = Plan {
        blocks: 3,
        block_seconds: 9.0,
        trace_seconds: Some(12.0),
    };
    /// A smoke run: one short block, no traced pass, no gating.
    pub const QUICK: Plan = Plan {
        blocks: 1,
        block_seconds: 2.0,
        trace_seconds: None,
    };
}

/// Where the two binaries and the output directory are.
#[derive(Debug, Clone)]
pub struct Env {
    /// Plain-flavour binary.
    pub plain_bin: PathBuf,
    /// Obs-flavour binary.
    pub obs_bin: PathBuf,
    /// `benchmark/out`.
    pub out: PathBuf,
}

/// One workload's pooled numbers.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The pooled untraced pass.
    pub pooled: Measured,
    /// End-to-end metrics of the pooled reps.
    pub end_to_end: Metrics,
    /// Per-layer metrics (empty without a traced pass).
    pub per_layer: Metrics,
}

/// One full set of measurements.
#[derive(Debug, Clone)]
pub struct Set {
    /// Per workload, in catalogue order.
    pub workloads: Vec<WorkloadResult>,
    /// `trace.json` rows.
    pub spans: Vec<Value>,
}

fn child(
    env: &Env,
    w: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    raw: &Path,
) -> Result<Measured, String> {
    let bin = if w.obs { &env.obs_bin } else { &env.plain_bin };
    let status = Command::new(bin)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--raw"])
        .arg(raw)
        .env("DS_LEDGER_PLAIN_BIN", &env.plain_bin)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!(
            "{} on {} exited with {status}",
            bin.display(),
            w.name
        ));
    }
    let text = std::fs::read_to_string(raw).map_err(|e| format!("{}: {e}", raw.display()))?;
    Measured::from_json(&json::parse(&text).map_err(|e| format!("{}: {e}", raw.display()))?)
}

/// Runs one set under `plan`.
pub fn run_set(env: &Env, plan: Plan, seed: u64, label: &str) -> Result<Set, String> {
    let raw_dir = env.out.join("raw");
    std::fs::create_dir_all(&raw_dir).map_err(|e| format!("{}: {e}", raw_dir.display()))?;
    let mut pooled: Vec<Option<Measured>> = vec![None; WORKLOADS.len()];
    let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
    let mut rng = Rng::new(seed, 0x006f_7264_6572);
    for block in 0..plan.blocks {
        rng.shuffle(&mut order);
        for &i in &order {
            let w = &WORKLOADS[i];
            eprintln!("[{label}] block {}/{}: {}", block + 1, plan.blocks, w.name);
            let raw = raw_dir.join(format!("{label}.{}.b{block}.json", w.name));
            let m = child(env, w, seed, plan.block_seconds, false, &raw)?;
            match &mut pooled[i] {
                Some(p) => p.pool(m),
                slot => *slot = Some(m),
            }
        }
    }
    let mut spans = Vec::new();
    let mut workloads = Vec::new();
    for (w, pooled) in WORKLOADS.iter().zip(pooled) {
        let pooled = pooled.ok_or("a plan needs at least one block")?;
        let mut per_layer = Vec::new();
        if let Some(seconds) = plan.trace_seconds {
            eprintln!("[{label}] traced pass: {}", w.name);
            let raw = raw_dir.join(format!("{label}.{}.trace.json", w.name));
            let mut t = child(env, w, seed, seconds, true, &raw)?;
            spans.append(&mut t.spans);
            per_layer = t.layer;
            // The pooled untraced pass has far more reps than the
            // traced one: its host numbers replace the traced pass's.
            for (k, v) in pooled.host_metrics() {
                match per_layer.iter_mut().find(|(name, _)| *name == k) {
                    Some(slot) => slot.1 = v,
                    None => per_layer.push((k, v)),
                }
            }
        }
        workloads.push(WorkloadResult {
            end_to_end: pooled.end_to_end(),
            per_layer,
            pooled,
        });
    }
    // Probe overhead from the two pooled passes (the traced child only
    // had a short run of the plain twin to compare against).
    let ips = |name: &str| {
        workloads
            .iter()
            .find(|w| w.pooled.workload == name)
            .map(|w| get(&w.end_to_end, "insts_per_s"))
    };
    let overheads: Vec<(&str, f64)> = WORKLOADS
        .iter()
        .filter_map(|w| {
            Some((
                w.name,
                ips(w.name.strip_suffix(".obs")?)? / ips(w.name)? - 1.0,
            ))
        })
        .collect();
    for (name, overhead) in overheads {
        let slot = workloads
            .iter_mut()
            .find(|w| w.pooled.workload == name)
            .and_then(|w| {
                w.per_layer
                    .iter_mut()
                    .find(|(k, _)| k == "obs.overhead_frac")
            });
        if let Some(slot) = slot {
            slot.1 = overhead;
        }
    }
    Ok(Set { workloads, spans })
}

impl Set {
    /// `results.json`.
    pub fn to_json(&self, provenance: Value) -> Value {
        let with_units = |catalog: Vec<spec::MetricSpec>, values: &Metrics| {
            obj(catalog.into_iter().map(|c| {
                let value = get(values, &c.name);
                (c.name, obj([("value", n(value)), ("unit", s(c.unit))]))
            }))
        };
        let workloads = self.workloads.iter().map(|w| {
            let per_layer = if w.per_layer.is_empty() {
                Value::Null
            } else {
                with_units(spec::per_layer(), &w.per_layer)
            };
            (
                w.pooled.workload.clone(),
                obj([
                    ("flavour", s(w.pooled.flavour.as_str())),
                    ("reps", count(w.pooled.samples.len() as u64)),
                    ("attempted", count(w.pooled.checks.attempted)),
                    ("failed", count(w.pooled.checks.failed)),
                    (
                        "failures",
                        Value::Arr(
                            w.pooled
                                .checks
                                .failures
                                .iter()
                                .map(|f| s(f.as_str()))
                                .collect(),
                        ),
                    ),
                    ("fingerprint", s(w.pooled.fingerprint.as_str())),
                    ("end_to_end", with_units(spec::end_to_end(), &w.end_to_end)),
                    ("per_layer", per_layer),
                ]),
            )
        });
        let Value::Obj(mut members) = provenance else {
            unreachable!("provenance is an object")
        };
        members.push(("loadavg_end".to_string(), n(host::loadavg())));
        members.push(("workloads".to_string(), obj(workloads)));
        Value::Obj(members)
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        for w in &self.workloads {
            println!(
                "{} [{} flavour, {} reps, {} of {} runs failed]",
                w.pooled.workload,
                w.pooled.flavour,
                w.pooled.samples.len(),
                w.pooled.checks.failed,
                w.pooled.checks.attempted
            );
            for f in &w.pooled.checks.failures {
                println!("  FAILED {f}");
            }
            for c in spec::end_to_end() {
                println!(
                    "  {:<32} {:>20.6} {}",
                    c.name,
                    get(&w.end_to_end, &c.name),
                    c.unit
                );
            }
            if w.per_layer.is_empty() {
                continue; // no traced pass (--quick)
            }
            for c in spec::per_layer() {
                println!(
                    "    {:<30} {:>20.6} {}",
                    c.name,
                    get(&w.per_layer, &c.name),
                    c.unit
                );
            }
        }
    }

    /// Total failed runs.
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.pooled.checks.failed).sum()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Prints, per workload x end-to-end metric, both values, the relative
/// difference and the bound; returns the violations: a difference
/// beyond its bound in either direction (two sets of the same code
/// must agree, so a metric that moved the "good" way by more than the
/// bound is noise wider than the bound just the same), or an exact
/// metric or count that differs at all.
pub fn compare(a: &Set, b: &Set) -> Vec<String> {
    let mut violations = Vec::new();
    println!(
        "{:<22} {:<16} {:>16} {:>16} {:>9} {:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        let name = &wa.pooled.workload;
        for c in spec::end_to_end() {
            let (x, y) = (get(&wa.end_to_end, &c.name), get(&wb.end_to_end, &c.name));
            let diff = worsening(x, y, c.better);
            let bad = if c.exact {
                x.to_bits() != y.to_bits()
            } else {
                diff.abs() > c.bound
            };
            println!(
                "{name:<22} {:<16} {x:>16.6} {y:>16.6} {:>8.2}% {:>7.2}%{}",
                c.name,
                diff * 100.0,
                c.bound * 100.0,
                if bad { "  <-- VIOLATION" } else { "" }
            );
            if bad {
                violations.push(format!("{name} {}: {x} vs {y}", c.name));
            }
        }
        for c in spec::per_layer().into_iter().filter(|c| c.exact) {
            let (x, y) = (get(&wa.per_layer, &c.name), get(&wb.per_layer, &c.name));
            if x.to_bits() != y.to_bits() {
                violations.push(format!("{name} {} (exact): {x} vs {y}", c.name));
            }
        }
    }
    violations
}

/// The session entry point: `[--seed N] [--quick] [--twice]`. Returns
/// the process exit code.
pub fn main(env: &Env, seed: u64, quick: bool, twice: bool) -> Result<i32, String> {
    let plan = if quick { Plan::QUICK } else { Plan::FULL };
    let provenance = host::provenance(seed);
    let first = run_set(env, plan, seed, "first")?;
    first.print();
    let mut spans = first.spans.clone();
    let mut code = i32::from(first.failed() > 0);
    let mut doc = first.to_json(provenance);
    if twice {
        let second = run_set(env, plan, seed, "second")?;
        second.print();
        let violations = compare(&first, &second);
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        if !violations.is_empty() || second.failed() > 0 {
            code = 1;
        }
        spans.extend(second.spans.clone());
        if let (Value::Obj(members), Value::Obj(again)) =
            (&mut doc, second.to_json(obj::<String>([])))
        {
            members.push(("second".to_string(), Value::Obj(again)));
        }
    }
    let write = |name: &str, v: &Value| {
        let path = env.out.join(name);
        std::fs::write(&path, json::render_lines(v))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok::<_, String>(())
    };
    write("results.json", &doc)?;
    write("trace.json", &Value::Arr(spans))?;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Checks, RepSample};

    fn set(run_s: f64, ipc: f64, false_hits: f64) -> Set {
        let pooled = Measured {
            workload: "w".to_string(),
            flavour: "plain".to_string(),
            seed: 1,
            samples: vec![RepSample {
                build_s: 0.001,
                new_s: 0.001,
                run_s,
                heap_peak_bytes: 10,
                ..RepSample::default()
            }],
            checks: Checks {
                attempted: 2,
                failed: 0,
                failures: vec![],
            },
            committed: 1000,
            sim_ipc: ipc,
            fingerprint: "f".to_string(),
            layer: vec![],
            spans: vec![],
        };
        let per_layer = vec![
            ("core.false_hits".to_string(), false_hits),
            ("engine.run_s".to_string(), run_s),
        ];
        Set {
            workloads: vec![WorkloadResult {
                end_to_end: pooled.end_to_end(),
                per_layer,
                pooled,
            }],
            spans: vec![],
        }
    }

    #[test]
    fn compare_gates_bounds_and_exact_metrics() {
        assert!(
            compare(&set(1.0, 2.0, 7.0), &set(1.05, 2.0, 7.0)).is_empty(),
            "5% is inside the bound"
        );
        let slow = compare(&set(1.0, 2.0, 7.0), &set(1.5, 2.0, 7.0));
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("insts_per_s"));
        assert_eq!(
            compare(&set(1.5, 2.0, 7.0), &set(1.0, 2.0, 7.0)).len(),
            1,
            "a 50% swing the good way is still disagreement"
        );
        assert!(compare(&set(1.0, 2.0, 7.0), &set(1.0, 2.000_000_1, 7.0))[0].contains("sim_ipc"));
        assert!(compare(&set(1.0, 2.0, 7.0), &set(1.0, 2.0, 8.0))[0]
            .contains("core.false_hits (exact)"));
    }

    #[test]
    fn results_document_carries_provenance_and_units() {
        let doc = set(1.0, 2.0, 7.0).to_json(host::provenance(5));
        for key in [
            "git_commit",
            "rustc",
            "cpu_model",
            "nproc",
            "seed",
            "loadavg_start",
            "loadavg_end",
            "workloads",
        ] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        let w = doc
            .get("workloads")
            .and_then(|w| w.get("w"))
            .expect("workload row");
        assert_eq!(w.get("flavour").and_then(Value::as_str), Some("plain"));
        assert_eq!(w.get("reps").and_then(Value::as_f64), Some(1.0));
        let ips = w
            .get("end_to_end")
            .and_then(|e| e.get("insts_per_s"))
            .expect("metric");
        assert_eq!(ips.get("unit").and_then(Value::as_str), Some("insts/s"));
        assert_eq!(json::parse(&json::render_lines(&doc)).unwrap(), doc);
    }
}
