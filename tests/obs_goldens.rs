//! Observability acceptance tests (built with `--features obs` only).
//!
//! The contract of the `obs` feature is *observation without
//! perturbation*: `tests/golden_stats.rs` already re-asserts the exact
//! pinned counters under this feature (it is not feature-gated, so
//! `cargo test --features obs` runs it against the instrumented build).
//! This file checks the other half — that the instrumented build
//! actually *observes*: metrics are populated for DataScalar runs,
//! deterministic across runs, the Perfetto export is well-formed, and
//! what the stall, critical-path and timeline instruments report is
//! pinned to the integer (`GOLDEN_INSTRUMENTS`).

#![cfg(feature = "obs")]

use datascalar::core_model::DsSystem;
use datascalar::obs::json::{self, Value};
use datascalar::workloads::by_name;
use ds_bench::{baseline_config, run_datascalar, run_perfect, run_traditional, Budget};

/// Every node of every system: the ten stall buckets partition the run
/// exactly — no cycle uncounted, none double-counted.
fn assert_accounts_cover(label: &str, r: &datascalar::core_model::RunResult, nodes: usize) {
    let m = r.metrics.as_ref().unwrap_or_else(|| panic!("{label}: metrics missing"));
    assert_eq!(m.node_accounts.len(), nodes, "{label}: one account per node");
    for (i, acct) in m.node_accounts.iter().enumerate() {
        assert_eq!(
            acct.total(),
            r.cycles,
            "{label} node {i}: stall buckets must sum to total cycles"
        );
    }
}

#[test]
fn metrics_populated_for_all_five_figure7_systems() {
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");

    // DataScalar runs observe broadcast traffic and commits.
    for nodes in [2, 4] {
        let r = run_datascalar(&w, nodes, b);
        let m = r.metrics.as_ref().unwrap_or_else(|| panic!("ds{nodes}: metrics missing"));
        assert!(m.events_recorded > 0, "ds{nodes}: no events recorded");
        assert!(
            m.broadcast_latency.total() > 0,
            "ds{nodes}: no broadcast arrivals observed"
        );
        assert!(m.bshr_occupancy.total() > 0, "ds{nodes}: no BSHR transitions observed");
        assert!(m.commit_burst.total() > 0, "ds{nodes}: no commits observed");
        assert!(
            m.datathread_run_cycles.total() > 0,
            "ds{nodes}: no lead segments observed"
        );
        assert_accounts_cover(&format!("ds{nodes}"), &r, nodes);
        assert!(!m.hot_pcs.is_empty(), "ds{nodes}: no hot PCs attributed");
    }

    // The perfect machine carries no event stream beyond commits, but
    // it does carry the cycle account (one core).
    assert_accounts_cover("perfect", &run_perfect(&w, b), 1);
    // The traditional CPU chip is a node: no broadcasts, but its
    // request waits and DCUB traffic are observed like a DS node's.
    for nodes in [2, 4] {
        let r = run_traditional(&w, nodes, b);
        let m = r.metrics.as_ref().unwrap_or_else(|| panic!("trad{nodes}: metrics missing"));
        assert_eq!(m.broadcast_latency.total(), 0, "trad{nodes}: nothing is broadcast");
        assert!(m.bshr_occupancy.total() > 0, "trad{nodes}: no request waits observed");
        assert!(m.dcub_occupancy.total() > 0, "trad{nodes}: no DCUB traffic observed");
        assert_accounts_cover(&format!("trad{nodes}"), &r, 1);
    }
}

#[test]
fn stall_buckets_partition_cycles_across_configs() {
    // Property over the config grid: for every workload × node count,
    // every node's buckets sum exactly to the run's cycle count, and
    // the machine-wide merge does too. The in-loop assertion checks the
    // same identity under debug_assertions; this keeps it pinned in
    // release test runs as well.
    let b = Budget::quick();
    for name in ["compress", "go"] {
        let w = by_name(name).expect("registered workload");
        for nodes in [1, 2, 4] {
            let r = run_datascalar(&w, nodes, b);
            assert_accounts_cover(&format!("{name} ds{nodes}"), &r, nodes);
            let total = r.stall_totals().expect("accounts present");
            assert_eq!(
                total.total(),
                r.cycles * nodes as u64,
                "{name} ds{nodes}: merged ledger covers cycles x nodes"
            );
        }
    }
}

#[test]
fn hot_pc_tables_are_deterministic_and_consistent() {
    let b = Budget::quick();
    for name in ["compress", "go"] {
        let w = by_name(name).expect("registered workload");
        let a = run_datascalar(&w, 2, b);
        let c = run_datascalar(&w, 2, b);
        let (ma, mc) = (a.metrics.as_ref().unwrap(), c.metrics.as_ref().unwrap());
        assert_eq!(ma.hot_pcs, mc.hot_pcs, "{name}: hot-PC table diverged across runs");
        assert!(!ma.hot_pcs.is_empty(), "{name}: memory-bound workload must surface hot PCs");
        // Sorted by total stall, descending; PC tiebreak ascending.
        for pair in ma.hot_pcs.windows(2) {
            assert!(
                pair[0].total() > pair[1].total()
                    || (pair[0].total() == pair[1].total() && pair[0].pc < pair[1].pc),
                "{name}: hot-PC table out of order"
            );
        }
        // Per-PC attribution never exceeds what the buckets charged.
        let totals = a.stall_totals().unwrap();
        let attributed: u64 = ma.hot_pcs.iter().map(|h| h.total()).sum();
        let pc_buckets = totals.get(datascalar::obs::StallBucket::BshrWaitRemote)
            + totals.get(datascalar::obs::StallBucket::LocalMemWait);
        assert!(
            attributed <= pc_buckets,
            "{name}: hot-PC cycles {attributed} exceed PC-attributed buckets {pc_buckets}"
        );
    }
}

#[test]
fn folded_stacks_sum_to_cycles_per_node() {
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");
    let prog = (w.build)(b.scale);
    let mut sys = DsSystem::new(baseline_config(2, b.max_insts), &prog);
    let r = sys.run().expect("workload executes");
    let folded = sys.folded_stacks();

    let mut per_node = [0u64; 2];
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` line");
        let count: u64 = count.parse().expect("count is integer");
        assert!(count > 0, "folded stacks must omit zero-weight frames: {line}");
        let node: usize = stack
            .strip_prefix("node")
            .and_then(|s| s.split(';').next())
            .and_then(|s| s.parse().ok())
            .expect("node-rooted stack");
        per_node[node] += count;
    }
    for (i, sum) in per_node.iter().enumerate() {
        assert_eq!(*sum, r.cycles, "node {i}: folded stacks must sum to total cycles");
    }

    // Determinism: a fresh identical run folds identically.
    let mut sys2 = DsSystem::new(baseline_config(2, b.max_insts), &prog);
    sys2.run().expect("workload executes");
    assert_eq!(folded, sys2.folded_stacks(), "folded stacks diverged across runs");
}

#[test]
fn metrics_deterministic_across_runs() {
    let b = Budget::quick();
    for name in ["compress", "go"] {
        let w = by_name(name).expect("registered workload");
        let a = run_datascalar(&w, 2, b);
        let c = run_datascalar(&w, 2, b);
        // Full RunResult equality includes the MetricsReport — the
        // event stream and the critical-path report must both replay
        // identically.
        assert_eq!(a, c, "{name}: instrumented runs diverged");
    }
}

/// Every Figure 7 system attributes a critical path, and the
/// attribution telescopes: each node's per-class cycles and per-kind
/// cycles both sum exactly to the attributed span, so the class shares
/// sum to 1.0. This file runs in debug and — via `scripts/verify.sh`'s
/// obs smoke (`figure7_ipc --json` + `obs_validate`) — the same
/// identity is checked on release-built output.
#[test]
fn critpath_attribution_telescopes_for_all_figure7_systems() {
    use datascalar::obs::EdgeClass;
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");
    let systems = [
        ("ds2", run_datascalar(&w, 2, b), 2),
        ("ds4", run_datascalar(&w, 4, b), 4),
        ("trad2", run_traditional(&w, 2, b), 1),
        ("perfect", run_perfect(&w, b), 1),
    ];
    for (label, r, nodes) in &systems {
        let cp = &r.metrics.as_ref().expect("obs metrics").critpath;
        assert_eq!(cp.nodes.len(), *nodes, "{label}: one critpath report per node");
        for (i, n) in cp.nodes.iter().enumerate() {
            assert!(n.attributed_cycles > 0, "{label} node {i}: nothing attributed");
            let class_sum: u64 = n.class_cycles.iter().sum();
            let kind_sum: u64 = n.kind_cycles.iter().sum();
            assert_eq!(class_sum, n.attributed_cycles, "{label} node {i}: class leak");
            assert_eq!(kind_sum, n.attributed_cycles, "{label} node {i}: kind leak");
            let share_sum: f64 = EdgeClass::ALL.iter().map(|c| n.class_share(*c)).sum();
            assert!(
                (share_sum - 1.0).abs() < 1e-12,
                "{label} node {i}: shares sum to {share_sum}"
            );
        }
    }
}

/// The paper's claim, measured: on `compress` the traditional system's
/// request round-trips sit on its critical path, while the DataScalar
/// broadcast largely hides under compute — so the traditional
/// communication share must visibly dominate DataScalar's, bounded
/// above by the perfect cache at exactly zero.
#[test]
fn traditional_communication_share_dominates_datascalar_on_compress() {
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");
    let comm = |r: &datascalar::core_model::RunResult| {
        r.metrics.as_ref().expect("obs metrics").critpath.communication_share()
    };
    let ds = comm(&run_datascalar(&w, 2, b));
    let trad = comm(&run_traditional(&w, 2, b));
    let perfect = comm(&run_perfect(&w, b));
    assert_eq!(perfect, 0.0, "a perfect cache has no communication edges");
    assert!(ds > 0.0, "DataScalar's broadcasts never reached a critical path?");
    assert!(
        trad > ds * 2.0,
        "traditional comm share ({trad:.4}) must dominate DataScalar's ({ds:.4})"
    );
    // End-to-end measurement actually saw remote edges on both systems.
    for (label, r) in [("ds2", run_datascalar(&w, 2, b)), ("trad2", run_traditional(&w, 2, b))] {
        let cp = &r.metrics.as_ref().unwrap().critpath;
        let edges: u64 = cp.nodes.iter().map(|n| n.comm_edges).sum();
        assert!(edges > 0, "{label}: no remote fills retained in the window");
    }
}

/// `critpath_folded` renders one `crit;node<i>;...` frame per edge
/// kind (weights summing to the attributed span) plus top-PC residency
/// leaves, and folds identically on an identical rerun.
#[test]
fn critpath_folded_stacks_sum_to_attributed_cycles() {
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");
    let prog = (w.build)(b.scale);
    let mut sys = DsSystem::new(baseline_config(2, b.max_insts), &prog);
    let r = sys.run().expect("workload executes");
    let folded = sys.critpath_folded();

    let cp = &r.metrics.as_ref().unwrap().critpath;
    let mut kind_sums = [0u64; 2];
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` line");
        let count: u64 = count.parse().expect("count is integer");
        assert!(count > 0, "zero-weight frames must be omitted: {line}");
        let mut parts = stack.split(';');
        assert_eq!(parts.next(), Some("crit"), "crit-rooted stack: {line}");
        let node: usize = parts
            .next()
            .and_then(|s| s.strip_prefix("node"))
            .and_then(|s| s.parse().ok())
            .expect("node frame");
        // Two leaf families: `<class>;<kind>` and `pc;0x<pc>`.
        if parts.next() != Some("pc") {
            kind_sums[node] += count;
        }
    }
    for (i, sum) in kind_sums.iter().enumerate() {
        assert_eq!(
            *sum, cp.nodes[i].attributed_cycles,
            "node {i}: folded kind frames must sum to the attributed span"
        );
    }

    let mut sys2 = DsSystem::new(baseline_config(2, b.max_insts), &prog);
    sys2.run().expect("workload executes");
    assert_eq!(folded, sys2.critpath_folded(), "critpath folding diverged across runs");
}

#[test]
fn perfetto_trace_is_valid_json_with_monotonic_tracks() {
    let b = Budget::quick();
    let w = by_name("compress").expect("registered workload");
    let prog = (w.build)(b.scale);
    let mut sys = DsSystem::new(baseline_config(4, b.max_insts), &prog);
    sys.run().expect("workload executes");
    let text = sys.perfetto_trace();

    let v = json::parse(&text).expect("trace parses as JSON");
    let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(events.len() > 100, "trace suspiciously small: {} events", events.len());

    // Per-node broadcast, BSHR, commit and stall-counter tracks must
    // exist (the acceptance criterion for `figure7_ipc --trace-out`).
    for track in ["broadcast", "bshr", "commit", "stalls"] {
        assert!(
            text.contains(&format!("\"name\":\"{track}\"")),
            "missing {track} track metadata"
        );
    }

    // Every ring reports its drop count; a quick-budget run fits the
    // ring, so completeness is also pinned.
    let dropped: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("ds_dropped_events"))
        .collect();
    assert!(!dropped.is_empty(), "missing ds_dropped_events metadata");
    for e in &dropped {
        let d = e.get("args").and_then(|a| a.get("dropped")).and_then(Value::as_f64);
        assert_eq!(d, Some(0.0), "quick run must not overflow the ring: {e:?}");
    }

    // The stall counter samples carry every bucket label.
    assert!(
        text.contains("\"name\":\"stall cycles\""),
        "missing stall cycles counter events"
    );
    // ...and, on a run that fits the interval ring, their deltas sum
    // bucket by bucket to the node's whole-run cycle account.
    for (pid, node) in sys.nodes().iter().enumerate() {
        assert_eq!(node.timeline().dropped(), 0, "quick run must not wrap the interval ring");
        for bucket in ds_obs::StallBucket::ALL {
            let sum: f64 = events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(Value::as_str) == Some("stall cycles")
                        && e.get("pid").and_then(Value::as_f64) == Some(pid as f64)
                })
                .map(|e| e.get("args").and_then(|a| a.get(bucket.label())).and_then(Value::as_f64))
                .map(|delta| delta.expect("every sample carries every bucket"))
                .sum();
            let charged = node.cycle_account().get(bucket) as f64;
            assert_eq!(sum, charged, "node {pid} {}", bucket.label());
        }
    }
    for pid in 0..4 {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) != Some("M")
                    && e.get("pid").and_then(Value::as_f64) == Some(pid as f64)
            }),
            "node {pid} contributed no events"
        );
    }

    // ts monotonically non-decreasing per (pid, tid) track.
    let mut last: Vec<((u64, u64), f64)> = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_f64).expect("pid") as u64;
        let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        match last.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, prev)) => {
                assert!(*prev <= ts, "track ({pid},{tid}) ts went backwards: {prev} > {ts}");
                *prev = ts;
            }
            None => last.push(((pid, tid), ts)),
        }
    }

    // Broadcast flow arrows: a 4-node DataScalar run must link sends to
    // arrivals and consuming commits, and every step/end must name an
    // emitted start id (the emitter suppresses orphans).
    let flow = |ph: &str| -> Vec<f64> {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("broadcast-flow")
                    && e.get("ph").and_then(Value::as_str) == Some(ph)
            })
            .map(|e| e.get("id").and_then(Value::as_f64).expect("flow id"))
            .collect()
    };
    let (starts, steps, ends) = (flow("s"), flow("t"), flow("f"));
    assert!(!starts.is_empty(), "no broadcast-flow starts in a DataScalar trace");
    assert!(!steps.is_empty(), "no broadcast arrivals linked by flow arrows");
    assert!(!ends.is_empty(), "no consuming commits linked by flow arrows");
    for id in steps.iter().chain(&ends) {
        assert!(starts.contains(id), "dangling flow id {id}");
    }
}

/// Every integer the three attribution instruments report for one run,
/// rendered as one canonical line: machine-wide stall buckets, per-node
/// critical-path classes, and the merged timeline's phases.
fn instrument_line(r: &datascalar::core_model::RunResult) -> String {
    use datascalar::obs::{EdgeClass, StallBucket};
    let m = r.metrics.as_ref().expect("obs metrics");
    let totals = r.stall_totals().expect("accounts present");
    let buckets: Vec<String> =
        StallBucket::ALL.iter().map(|b| format!("{}={}", b.label(), totals.get(*b))).collect();
    let mut s = format!("stall[{}]", buckets.join(" "));
    for (i, n) in m.critpath.nodes.iter().enumerate() {
        let classes: Vec<String> =
            EdgeClass::ALL.iter().map(|c| format!("{}={}", c.label(), n.class(*c))).collect();
        s.push_str(&format!(
            " crit{i}[{} attributed={} dropped={}]",
            classes.join(" "),
            n.attributed_cycles,
            n.window_dropped
        ));
    }
    let merged = m.timeline.merged();
    s.push_str(&format!(" timeline[intervals={}", merged.intervals.len()));
    for p in &merged.phases {
        s.push_str(&format!(" {}+{}:{}", p.start, p.cycles, p.dominant().0.label()));
    }
    s + "]"
}

/// (workload, `instrument_line` of its 2-node DataScalar run at the
/// full budget).
const GOLDEN_INSTRUMENTS: &[(&str, &str)] = &[
    ("compress", "stall[committing=109492 fetch-stall=60 ruu-full=0 lsq-full=0 bshr-wait-remote=3340 local-memory-wait=12579 bus-contention-wait=318552 commit-repair=145451 squash-replay=0 retry-wait=0 idle=2] crit0[compute=497 communication=6332 structural=25 frontend=291433 attributed=298287 dropped=0] crit1[compute=435 communication=8579 structural=26 frontend=290056 attributed=299096 dropped=0] timeline[intervals=72 0+131072:bus-contention-wait 65536+458404:bus-contention-wait]"),
    ("go", "stall[committing=131628 fetch-stall=173 ruu-full=59841 lsq-full=0 bshr-wait-remote=1602 local-memory-wait=24 bus-contention-wait=10823 commit-repair=1538 squash-replay=0 retry-wait=0 idle=99021] crit0[compute=357 communication=0 structural=2004 frontend=152109 attributed=154470 dropped=0] crit1[compute=332 communication=243 structural=1908 frontend=152030 attributed=154513 dropped=0] timeline[intervals=38 0+40960:committing 20480+263690:committing]"),
];

/// What the instruments say about a run is pinned as exactly as what
/// the run computes (`tests/golden_stats.rs`): a change that moves one
/// cycle between stall buckets, critical-path classes or phases fails
/// here. After an *intentional* instrument or model change, regenerate
/// with `cargo test --features obs --test obs_goldens -- --ignored --nocapture`.
#[test]
fn instrument_shape_pinned_for_compress_and_go() {
    for (name, want) in GOLDEN_INSTRUMENTS {
        let w = by_name(name).expect("registered workload");
        let got = instrument_line(&run_datascalar(&w, 2, Budget::full()));
        assert_eq!(&got, want, "{name}: stall / critpath / timeline attribution changed");
    }
}

/// Prints a fresh golden block; paste over `GOLDEN_INSTRUMENTS` after
/// an intentional instrument or model change.
#[test]
#[ignore]
fn print_instrument_goldens() {
    for (name, _) in GOLDEN_INSTRUMENTS {
        let w = by_name(name).unwrap();
        let line = instrument_line(&run_datascalar(&w, 2, Budget::full()));
        println!("    (\"{name}\", \"{line}\"),");
    }
}
