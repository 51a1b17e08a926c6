//! From samples and simulated facts to named metrics.

use crate::host::REFERENCE_YARDSTICK_NS;
use crate::json::{count, n, obj, s, Value};
use crate::sim::{Checks, Reference, RepSample};
use crate::spec::{self, Kind, WorkloadSpec};
use crate::stats::{fast_fifth_mean, iqr_frac, median, percentile, sorted};
use ds_core::{NodeStats, RunResult};

/// `(metric name, value)` pairs.
pub type Metrics = Vec<(String, f64)>;

/// Looks a metric up by name (0 when absent: the workload does not
/// exercise that layer).
pub fn get(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// What one process measured on one workload; also the content of a
/// `--raw` file, which is how the session pools blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Workload name.
    pub workload: String,
    /// Build flavour of the process that measured (`plain` or `obs`).
    pub flavour: String,
    /// `--seed`.
    pub seed: u64,
    /// Timed untraced reps.
    pub samples: Vec<RepSample>,
    /// Check outcomes (warm-up, every rep, cross-checks).
    pub checks: Checks,
    /// Per-node committed instructions in one rep.
    pub committed: u64,
    /// Simulated IPC.
    pub sim_ipc: f64,
    /// Digest of the simulated counters without `metrics`.
    pub fingerprint: String,
    /// Per-layer metrics (traced pass only).
    pub layer: Metrics,
    /// `trace.json` rows (traced pass only).
    pub spans: Vec<Value>,
}

/// The build flavour of this binary.
pub fn flavour() -> &'static str {
    if cfg!(feature = "obs") {
        "obs"
    } else {
        "plain"
    }
}

impl Measured {
    /// How fast the host ran during the reps, relative to the reference
    /// host: reference yardstick reading / fast-fifth mean of the
    /// readings around the reps. Host seconds times this are seconds
    /// on the reference host. 1 without samples.
    pub fn host_speed(&self) -> f64 {
        let yard: Vec<f64> = self
            .samples
            .iter()
            .map(|x| x.yardstick_ns)
            .filter(|y| *y > 0.0)
            .collect();
        if yard.is_empty() {
            1.0
        } else {
            REFERENCE_YARDSTICK_NS / fast_fifth_mean(&yard)
        }
    }

    /// Fast-fifth mean of the `run()` span, in host seconds as measured.
    pub fn run_s(&self) -> f64 {
        fast_fifth_mean(&self.samples.iter().map(|x| x.run_s).collect::<Vec<_>>())
    }

    /// Committed instructions per reference-host second of `run()`.
    pub fn insts_per_s(&self) -> f64 {
        let run_s = self.run_s() * self.host_speed();
        if run_s > 0.0 {
            self.committed as f64 / run_s
        } else {
            0.0
        }
    }

    /// The five end-to-end metrics, in catalogue order. The two times
    /// are in reference-host seconds.
    pub fn end_to_end(&self) -> Metrics {
        let setup: Vec<f64> = self.samples.iter().map(RepSample::setup_s).collect();
        let values = [
            self.insts_per_s(),
            self.sim_ipc,
            fast_fifth_mean(&setup) * self.host_speed(),
            self.samples
                .iter()
                .map(|x| x.heap_peak_bytes)
                .max()
                .unwrap_or(0) as f64,
            self.checks.pass_share(),
        ];
        spec::end_to_end()
            .into_iter()
            .map(|m| m.name)
            .zip(values)
            .collect()
    }

    /// Host-side facts of the untraced reps, as measured (not
    /// normalised): `host.rep_s_p50`, `host.rep_s_p80`,
    /// `host.rep_spread_frac`, `host.yardstick_ns`, `host.speed`,
    /// `host.raw_insts_per_s`, `host.reps`.
    pub fn host_metrics(&self) -> Metrics {
        let run = sorted(&self.samples.iter().map(|x| x.run_s).collect::<Vec<_>>());
        let yard: Vec<f64> = self.samples.iter().map(|x| x.yardstick_ns).collect();
        vec![
            ("host.rep_s_p50".to_string(), percentile(&run, 0.5)),
            ("host.rep_s_p80".to_string(), percentile(&run, 0.8)),
            ("host.rep_spread_frac".to_string(), iqr_frac(&run)),
            ("host.yardstick_ns".to_string(), median(&yard)),
            ("host.speed".to_string(), self.host_speed()),
            (
                "host.raw_insts_per_s".to_string(),
                self.insts_per_s() * self.host_speed(),
            ),
            ("host.reps".to_string(), run.len() as f64),
        ]
    }

    /// Adds another block's reps of the same workload. Simulated facts
    /// must agree exactly; a disagreement is a failed run.
    pub fn pool(&mut self, other: Measured) {
        let same = (self.committed, self.sim_ipc.to_bits(), &self.fingerprint)
            == (other.committed, other.sim_ipc.to_bits(), &other.fingerprint);
        self.samples.extend(other.samples);
        self.checks.attempted += other.checks.attempted;
        self.checks.failed += other.checks.failed;
        self.checks.failures.extend(other.checks.failures);
        if !same {
            self.checks.record(
                "pooling blocks",
                Err("simulated counters differ between blocks".to_string()),
            );
        }
    }

    /// The `--raw` document.
    pub fn to_json(&self) -> Value {
        let samples = self
            .samples
            .iter()
            .map(|x| {
                Value::Arr(vec![
                    n(x.build_s),
                    n(x.new_s),
                    n(x.run_s),
                    n(x.result_s),
                    count(x.heap_peak_bytes),
                    count(x.run_allocs),
                    count(x.run_alloc_bytes),
                    n(x.yardstick_ns),
                ])
            })
            .collect();
        obj([
            ("workload", s(self.workload.as_str())),
            ("flavour", s(self.flavour.as_str())),
            ("seed", count(self.seed)),
            ("attempted", count(self.checks.attempted)),
            ("failed", count(self.checks.failed)),
            (
                "failures",
                Value::Arr(self.checks.failures.iter().map(|f| s(f.as_str())).collect()),
            ),
            ("committed", count(self.committed)),
            ("sim_ipc", n(self.sim_ipc)),
            ("fingerprint", s(self.fingerprint.as_str())),
            ("samples", Value::Arr(samples)),
            (
                "layer",
                obj(self.layer.iter().map(|(k, v)| (k.as_str(), n(*v)))),
            ),
            ("spans", Value::Arr(self.spans.clone())),
        ])
    }

    /// Reads a `--raw` document back.
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("raw document lacks `{k}`"))
        };
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let text = |k: &str| {
            Ok::<_, String>(
                field(k)?
                    .as_str()
                    .ok_or_else(|| format!("`{k}` is not a string"))?
                    .to_string(),
            )
        };
        let samples = field("samples")?
            .as_array()
            .ok_or("`samples` is not an array")?
            .iter()
            .map(|row| {
                let f: Vec<f64> = row
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                match f[..] {
                    [build_s, new_s, run_s, result_s, heap, allocs, alloc_bytes, yardstick_ns] => {
                        Ok(RepSample {
                            build_s,
                            new_s,
                            run_s,
                            result_s,
                            heap_peak_bytes: heap as u64,
                            run_allocs: allocs as u64,
                            run_alloc_bytes: alloc_bytes as u64,
                            yardstick_ns,
                        })
                    }
                    _ => Err("a sample row does not have eight numbers".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let layer = match field("layer")? {
            Value::Obj(members) => members
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => return Err("`layer` is not an object".to_string()),
        };
        let failures = field("failures")?
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| Some(f.as_str()?.to_string()))
            .collect();
        Ok(Measured {
            workload: text("workload")?,
            flavour: text("flavour")?,
            seed: num("seed")? as u64,
            samples,
            checks: Checks {
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                failures,
            },
            committed: num("committed")? as u64,
            sim_ipc: num("sim_ipc")?,
            fingerprint: text("fingerprint")?,
            layer,
            spans: field("spans")?.as_array().unwrap_or(&[]).to_vec(),
        })
    }
}

/// The contract's result line: `correct`, `attempted`, `failed` and
/// the requested metric family, each value with its unit.
pub fn result_line(m: &Measured, trace: bool) -> String {
    let (catalog, values) = if trace {
        (spec::per_layer(), m.layer.clone())
    } else {
        (spec::end_to_end(), m.end_to_end())
    };
    let metrics = catalog.iter().map(|c| {
        (
            c.name.as_str(),
            obj([("value", n(get(&values, &c.name))), ("unit", s(c.unit))]),
        )
    });
    crate::json::render(&obj([
        ("correct", Value::Bool(m.checks.failed == 0)),
        ("attempted", count(m.checks.attempted.max(1))),
        ("failed", count(m.checks.failed)),
        ("metrics", obj(metrics)),
    ]))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The exact per-layer counts and ratios, from the `RunResult`s of one
/// rep: sums over simulations and nodes, maxima for high-water marks.
pub fn counts(reference: &Reference) -> Metrics {
    let results = &reference.results;
    let node = |f: fn(&NodeStats) -> u64| results.iter().flat_map(|r| &r.nodes).map(f).sum::<u64>();
    let node_max = |f: fn(&NodeStats) -> u64| {
        results
            .iter()
            .flat_map(|r| &r.nodes)
            .map(f)
            .max()
            .unwrap_or(0)
    };
    let run = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>();
    let cycles = run(|r| r.cycles);
    let mut out: Vec<(&str, u64)> = vec![
        ("cpu.committed", run(|r| r.committed)),
        ("cpu.loads", node(|x| x.core.loads)),
        ("cpu.stores", node(|x| x.core.stores)),
        ("cpu.forwarded_loads", node(|x| x.core.forwarded_loads)),
        ("cpu.branches", node(|x| x.core.branches)),
        (
            "cpu.branch_mispredicts",
            node(|x| x.core.branch_mispredicts),
        ),
        (
            "cpu.fetch_stall_cycles",
            node(|x| x.core.fetch_stall_cycles),
        ),
        ("cpu.ruu_full_stalls", node(|x| x.core.ruu_full_stalls)),
        ("cpu.lsq_full_stalls", node(|x| x.core.lsq_full_stalls)),
        (
            "cpu.trace_window_high_water",
            results
                .iter()
                .map(|r| r.trace_window_high_water as u64)
                .max()
                .unwrap_or(0),
        ),
        ("mem.loads_issued", node(|x| x.loads_issued)),
        ("mem.issue_hits", node(|x| x.issue_hits)),
        ("mem.local_misses", node(|x| x.local_misses)),
        ("mem.remote_accesses", node(|x| x.remote_accesses)),
        ("mem.stores_committed", node(|x| x.stores_committed)),
        ("mem.writebacks_local", node(|x| x.writebacks_local)),
        ("mem.writethroughs_local", node(|x| x.writethroughs_local)),
        ("mem.writes_dropped", node(|x| x.writes_dropped)),
        ("net.transactions", run(|r| r.bus.transactions)),
        ("net.broadcasts", run(|r| r.bus.broadcasts)),
        ("net.bytes", run(|r| r.bus.bytes)),
        ("net.busy_cycles", run(|r| r.bus.busy_cycles)),
        ("net.queue_delay_cycles", run(|r| r.bus.queue_delay_cycles)),
        ("core.broadcasts_sent", node(|x| x.broadcasts_sent)),
        ("core.late_broadcasts", node(|x| x.late_broadcasts)),
        ("core.false_hits", node(|x| x.false_hits)),
        ("core.false_misses", node(|x| x.false_misses)),
        ("core.bshr.found_buffered", node(|x| x.bshr.found_buffered)),
        (
            "core.bshr.waits_allocated",
            node(|x| x.bshr.waits_allocated),
        ),
        ("core.bshr.arrivals", node(|x| x.bshr.arrivals)),
        (
            "core.bshr.squashed_arrivals",
            node(|x| x.bshr.squashed_arrivals),
        ),
        (
            "core.bshr.max_occupancy",
            node_max(|x| x.bshr.max_occupancy as u64),
        ),
        ("core.dcub_max", node_max(|x| x.dcub_max as u64)),
        ("engine.cycles", cycles),
        ("engine.cycles_skipped", reference.cycles_skipped),
        ("engine.stepped_cycles", cycles - reference.cycles_skipped),
    ];
    let reports: Vec<_> = results.iter().filter_map(|r| r.metrics.as_ref()).collect();
    let mut obs: Vec<(String, u64)> = Vec::new();
    if !reports.is_empty() {
        for b in ds_obs::StallBucket::ALL {
            let total = reports
                .iter()
                .flat_map(|m| &m.node_accounts)
                .map(|a| a.get(b))
                .sum();
            obs.push((format!("obs.stall.{}", b.label()), total));
        }
        for c in ds_obs::EdgeClass::ALL {
            obs.push((
                format!("obs.crit.{}", c.label()),
                reports.iter().map(|m| m.critpath.class_total(c)).sum(),
            ));
        }
        let timeline = |f: fn(&ds_obs::TimelineNodeReport) -> usize| {
            reports
                .iter()
                .flat_map(|m| &m.timeline.nodes)
                .map(|t| f(t) as u64)
                .sum::<u64>()
        };
        out.extend([
            (
                "obs.events_dropped",
                reports.iter().map(|m| m.events_dropped).sum(),
            ),
            (
                "obs.crit_dropped",
                reports.iter().map(|m| m.critpath.dropped_total()).sum(),
            ),
            ("obs.timeline_intervals", timeline(|t| t.intervals.len())),
            ("obs.timeline_phases", timeline(|t| t.phases.len())),
        ]);
    }
    let mut metrics: Metrics = out
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as f64))
        .collect();
    metrics.extend(obs.into_iter().map(|(k, v)| (k, v as f64)));
    metrics.extend([
        (
            "net.busy_frac".to_string(),
            ratio(run(|r| r.bus.busy_cycles), cycles),
        ),
        (
            "core.found_in_bshr_frac".to_string(),
            ratio(node(|x| x.bshr.found_buffered), node(|x| x.remote_accesses)),
        ),
        (
            "core.late_broadcast_frac".to_string(),
            ratio(node(|x| x.late_broadcasts), node(|x| x.broadcasts_sent)),
        ),
        (
            "core.squash_frac".to_string(),
            ratio(
                node(|x| x.bshr.squashed_arrivals),
                node(|x| x.bshr.arrivals),
            ),
        ),
        (
            "engine.skip_frac".to_string(),
            ratio(reference.cycles_skipped, cycles),
        ),
    ]);
    metrics
}

/// `share.*`: count x isolated-driver ns per operation, over the run
/// time; the residual is what the drivers do not explain. Estimates,
/// not measurements inside the run: a large or negative residual is
/// information, not an error. The seven always sum to 1.
pub fn composition(spec: &WorkloadSpec, reference: &Reference, layer: &[(String, f64)]) -> Metrics {
    let names = [
        "share.cpu.func",
        "share.cpu.ooo",
        "share.mem",
        "share.net",
        "share.core.protocol",
        "share.obs",
    ];
    let run_ns = get(layer, "engine.run_s") * 1e9;
    let mut shares = [0.0; 6];
    if let (Kind::Sim { nodes, fabric, .. }, true) = (spec.kind, run_ns > 0.0) {
        let c = |name: &str| get(layer, name);
        let per_node_insts = c("cpu.committed");
        let fabric_step = match fabric {
            ds_net::FabricKind::Bus => c("net.bus.ns_per_step"),
            ds_net::FabricKind::Ring => c("net.ring.ns_per_step"),
        };
        let node_steps = c("engine.stepped_cycles") * nodes as f64;
        let events: u64 = reference
            .results
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .map(|m| m.events_recorded)
            .sum();
        shares = [
            // The shared trace executes each instruction once.
            per_node_insts * c("cpu.trace.ns_per_inst"),
            per_node_insts * nodes as f64 * c("cpu.ooo.ns_per_inst"),
            (c("mem.loads_issued") + c("mem.stores_committed"))
                * (c("mem.cache.ns_per_access") + c("mem.page.ns_per_lookup"))
                + (c("mem.local_misses")
                    + c("mem.writebacks_local")
                    + c("mem.writethroughs_local"))
                    * c("mem.bank.ns_per_access"),
            c("engine.stepped_cycles") * fabric_step,
            (c("mem.remote_accesses") + c("core.bshr.arrivals")) * c("core.bshr.ns_per_op")
                + 3.0
                    * (c("mem.local_misses") + c("mem.remote_accesses"))
                    * c("core.dcub.ns_per_op"),
            node_steps * c("obs.charge_ns")
                + events as f64 * c("obs.record_ns")
                + per_node_insts * nodes as f64 * c("obs.edge_ns")
                + c("obs.timeline_intervals") * c("obs.sample_ns"),
        ]
        .map(|ns| ns / run_ns);
    }
    let residual = 1.0 - shares.iter().sum::<f64>();
    let mut out: Metrics = names.iter().map(|k| k.to_string()).zip(shares).collect();
    out.push(("share.engine.residual".to_string(), residual));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> Measured {
        let rep = |run_s: f64| RepSample {
            build_s: 0.001,
            new_s: 0.002,
            run_s,
            heap_peak_bytes: 4096,
            yardstick_ns: REFERENCE_YARDSTICK_NS,
            ..RepSample::default()
        };
        Measured {
            workload: "w".to_string(),
            flavour: "plain".to_string(),
            seed: 9,
            samples: vec![rep(0.5), rep(0.25), rep(1.0), rep(0.75), rep(2.0)],
            checks: Checks {
                attempted: 6,
                failed: 0,
                failures: vec![],
            },
            committed: 1_000,
            sim_ipc: 1.25,
            fingerprint: "abc".to_string(),
            layer: vec![("engine.run_s".to_string(), 0.25)],
            spans: vec![obj([("id", count(0))])],
        }
    }

    #[test]
    fn end_to_end_uses_the_fast_fifth_and_the_catalogue_names() {
        let e = measured().end_to_end();
        assert_eq!(
            e.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            [
                "insts_per_s",
                "sim_ipc",
                "setup_s",
                "heap_peak_bytes",
                "pass_share"
            ]
        );
        assert_eq!(get(&e, "insts_per_s"), 1_000.0 / 0.25);
        assert_eq!(get(&e, "setup_s"), 0.003);
        assert_eq!(get(&e, "heap_peak_bytes"), 4096.0);
        assert_eq!(get(&e, "pass_share"), 1.0);
        let h = measured().host_metrics();
        assert_eq!(
            (
                get(&h, "host.rep_s_p50"),
                get(&h, "host.rep_s_p80"),
                get(&h, "host.reps")
            ),
            (0.75, 1.0, 5.0)
        );
        assert_eq!(
            (get(&h, "host.speed"), get(&h, "host.raw_insts_per_s")),
            (1.0, 4_000.0)
        );
    }

    #[test]
    fn host_times_are_scaled_to_the_reference_host() {
        // A host whose yardstick reads twice the reference is half as
        // fast: the same reps count as half the time.
        let mut slow = measured();
        for x in &mut slow.samples {
            x.yardstick_ns = 2.0 * REFERENCE_YARDSTICK_NS;
        }
        let (e, h) = (slow.end_to_end(), slow.host_metrics());
        assert_eq!(get(&h, "host.speed"), 0.5);
        assert_eq!(get(&e, "insts_per_s"), 2.0 * 1_000.0 / 0.25);
        assert_eq!(get(&e, "setup_s"), 0.003 / 2.0);
        assert_eq!(get(&h, "host.raw_insts_per_s"), 1_000.0 / 0.25);
    }

    #[test]
    fn raw_documents_round_trip_and_pool() {
        let m = measured();
        let text = crate::json::render(&m.to_json());
        let back = Measured::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        let mut pooled = m.clone();
        pooled.pool(back);
        assert_eq!(
            (
                pooled.samples.len(),
                pooled.checks.attempted,
                pooled.checks.failed
            ),
            (10, 12, 0)
        );
        let mut other = m.clone();
        other.sim_ipc = 1.5;
        pooled.pool(other);
        assert_eq!(
            pooled.checks.failed, 1,
            "blocks that disagree on simulated facts fail a run"
        );
        assert!(Measured::from_json(&obj([("workload", s("w"))])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = measured();
        for (trace, catalog) in [(false, spec::end_to_end()), (true, spec::per_layer())] {
            let doc = crate::json::parse(&result_line(&m, trace)).unwrap();
            let Value::Obj(top) = &doc else {
                panic!("object")
            };
            assert_eq!(
                top.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                ["correct", "attempted", "failed", "metrics"]
            );
            let Some(Value::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics object")
            };
            assert_eq!(
                metrics.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                catalog.iter().map(|c| c.name.clone()).collect::<Vec<_>>()
            );
            assert!(metrics
                .iter()
                .all(|(_, v)| v.get("value").is_some() && v.get("unit").is_some()));
        }
        let mut broken = m;
        broken.checks.failed = 1;
        assert_eq!(
            crate::json::parse(&result_line(&broken, false))
                .unwrap()
                .get("correct"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn shares_sum_to_one_with_and_without_drivers() {
        let spec = crate::sim::tests::tiny("compress", 2, ds_net::FabricKind::Bus);
        let runner = crate::sim::Runner::new(&spec).unwrap();
        let mut layer = counts(&runner.reference);
        assert!(get(&layer, "cpu.committed") >= 8_000.0);
        assert_eq!(
            get(&layer, "engine.cycles"),
            get(&layer, "engine.cycles_skipped") + get(&layer, "engine.stepped_cycles")
        );
        layer.extend([
            ("engine.run_s".to_string(), 0.01),
            ("cpu.ooo.ns_per_inst".to_string(), 100.0),
            ("net.bus.ns_per_step".to_string(), 3.0),
        ]);
        for l in [&layer[..], &[]] {
            let shares = composition(&spec, &runner.reference, l);
            assert_eq!(shares.len(), 7);
            assert!((shares.iter().map(|(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(
            get(
                &composition(&spec, &runner.reference, &layer),
                "share.cpu.ooo"
            ) > 0.0
        );
    }
}
