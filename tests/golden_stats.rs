//! Golden simulation statistics: exact pinned results for small
//! workloads, covering Figure 7 (timing IPC across all five systems on
//! compress and go), Table 1 (ESP traffic reduction), and the
//! DataScalar and traditional variants the Figure 7 grid leaves out.
//!
//! These exist so performance work on the simulation engine can be
//! proven behavior-preserving: every hot-path optimization must leave
//! each fingerprint below byte-identical. The counters are exact
//! integers — any drift in cycle accounting, broadcast ordering, cache
//! behavior, or interconnect arbitration shows up here immediately.
//! Every fingerprint is asserted on both flavours (`Plain` and `Obs`):
//! the instruments observe without perturbing.
//!
//! After an *intentional* model change, regenerate with
//! `cargo test --test golden_stats -- --ignored --nocapture`.

use datascalar::core_model::RunResult;
use datascalar::core_model::{DsSystem, TraditionalConfig, TraditionalSystem};
use datascalar::mem::{TlbConfig, WritePolicy};
use datascalar::net::FabricKind;
use datascalar::obs::{Flavour, Obs, Plain};
use datascalar::trace::{measure_traffic, TrafficConfig};
use datascalar::workloads::{by_name, Scale, Workload};
use ds_bench::{baseline_config, runner, Budget, System};

/// Every case run on each flavour, labelled. All the runs go to one
/// `ds_bench::runner::map` call, so one case's slow `Obs` run overlaps
/// the next case's runs instead of waiting for its own pair to end.
fn on_both<C: Sync, T: Send>(
    cases: &[C],
    plain: impl Fn(&C) -> T + Sync,
    obs: impl Fn(&C) -> T + Sync,
) -> Vec<(&C, &'static str, T)> {
    let jobs: Vec<_> = cases.iter().flat_map(|c| [(c, false), (c, true)]).collect();
    runner::map(
        &jobs,
        |&(case, on_obs)| {
            if on_obs {
                (case, "Obs", obs(case))
            } else {
                (case, "Plain", plain(case))
            }
        },
    )
}

/// Every counter that a hot-path change could plausibly disturb,
/// rendered as one canonical line.
fn fingerprint(r: &RunResult) -> String {
    let mut s = format!(
        "cycles={} committed={} bus[txn={} bytes={} busy={} qdelay={} bcast={} req={} resp={} wr={}]",
        r.cycles,
        r.committed,
        r.bus.transactions,
        r.bus.bytes,
        r.bus.busy_cycles,
        r.bus.queue_delay_cycles,
        r.bus.broadcasts,
        r.bus.requests,
        r.bus.responses,
        r.bus.writes,
    );
    for (i, n) in r.nodes.iter().enumerate() {
        s.push_str(&format!(
            " n{i}[ld={} hit={} lmiss={} rem={} bc={} late={} fh={} fm={} st={} wt={} wb={} drop={}]",
            n.loads_issued,
            n.issue_hits,
            n.local_misses,
            n.remote_accesses,
            n.broadcasts_sent,
            n.late_broadcasts,
            n.false_hits,
            n.false_misses,
            n.stores_committed,
            n.writethroughs_local,
            n.writebacks_local,
            n.writes_dropped,
        ));
    }
    s
}

fn traffic_line(w: &Workload) -> String {
    let prog = (w.build)(Budget::quick().scale);
    let r = measure_traffic(&prog, &TrafficConfig::default());
    format!(
        "fills={} writebacks={} insts={} refs={} trad_bytes={} esp_bytes={} trad_txn={} esp_txn={}",
        r.fills,
        r.writebacks,
        r.instructions,
        r.data_refs,
        r.traditional_bytes(),
        r.esp_bytes(),
        r.traditional_transactions(),
        r.esp_transactions(),
    )
}

/// (system label, produce-fingerprint) pairs for one workload.
fn figure7_fingerprints<F: Flavour>(w: &Workload) -> Vec<(&'static str, String)> {
    let b = Budget::quick();
    let prog = (w.build)(b.scale);
    let run = |system: System, nodes| {
        fingerprint(&system.run_as::<F>(baseline_config(nodes, b.max_insts), &prog, w.name))
    };
    vec![
        ("perfect", run(System::Perfect, 1)),
        ("ds2", run(System::DataScalar, 2)),
        ("ds4", run(System::DataScalar, 4)),
        ("trad2", run(System::Traditional, 2)),
        ("trad4", run(System::Traditional, 4)),
    ]
}

const GOLDEN_COMPRESS: &[(&str, &str)] = &[
    ("perfect", "cycles=6872 committed=40003 bus[txn=0 bytes=0 busy=0 qdelay=0 bcast=0 req=0 resp=0 wr=0] n0[ld=3392 hit=3392 lmiss=0 rem=0 bc=0 late=0 fh=0 fm=0 st=5978 wt=0 wb=0 drop=0]"),
    ("ds2", "cycles=16530 committed=40005 bus[txn=292 bytes=11680 busy=14600 qdelay=18867 bcast=292 req=0 resp=0 wr=0] n0[ld=3060 hit=2221 lmiss=173 rem=106 bc=179 late=6 fh=13 fm=553 st=5978 wt=1297 wb=5 drop=1367] n1[ld=3029 hit=1855 lmiss=107 rem=173 bc=114 late=7 fh=13 fm=894 st=6039 wt=1392 wb=0 drop=1302]"),
    ("ds4", "cycles=17320 committed=40005 bus[txn=291 bytes=11640 busy=14550 qdelay=15617 bcast=291 req=0 resp=0 wr=0] n0[ld=3052 hit=2152 lmiss=111 rem=168 bc=113 late=2 fh=13 fm=614 st=5978 wt=1175 wb=5 drop=1489] n1[ld=2981 hit=1760 lmiss=54 rem=224 bc=57 late=3 fh=13 fm=929 st=5990 wt=1277 wb=0 drop=1396] n2[ld=2969 hit=1756 lmiss=62 rem=216 bc=66 late=4 fh=13 fm=928 st=5978 wt=122 wb=0 drop=2547] n3[ld=2990 hit=1798 lmiss=51 rem=227 bc=55 late=4 fh=13 fm=907 st=5978 wt=94 wb=0 drop=2575]"),
    ("trad2", "cycles=35949 committed=40005 bus[txn=1585 bytes=19020 busy=33960 qdelay=827352 bcast=0 req=113 resp=113 wr=1359] n0[ld=3026 hit=2142 lmiss=173 rem=106 bc=0 late=0 fh=13 fm=598 st=5978 wt=1297 wb=5 drop=0]"),
    ("trad4", "cycles=41199 committed=40005 bus[txn=1828 bytes=24011 busy=40120 qdelay=794090 bcast=0 req=178 resp=178 wr=1472] n0[ld=3036 hit=2113 lmiss=111 rem=168 bc=0 late=0 fh=13 fm=637 st=5978 wt=1175 wb=5 drop=0]"),
];

const GOLDEN_GO: &[(&str, &str)] = &[
    ("perfect", "cycles=15068 committed=40005 bus[txn=0 bytes=0 busy=0 qdelay=0 bcast=0 req=0 resp=0 wr=0] n0[ld=6930 hit=6930 lmiss=0 rem=0 bc=0 late=0 fh=0 fm=0 st=1240 wt=0 wb=0 drop=0]"),
    ("ds2", "cycles=15865 committed=40005 bus[txn=146 bytes=5840 busy=7300 qdelay=16218 bcast=146 req=0 resp=0 wr=0] n0[ld=6952 hit=6222 lmiss=59 rem=87 bc=59 late=0 fh=0 fm=584 st=1243 wt=0 wb=0 drop=0] n1[ld=6930 hit=6185 lmiss=87 rem=59 bc=87 late=0 fh=0 fm=599 st=1240 wt=0 wb=0 drop=0]"),
    ("ds4", "cycles=15865 committed=40005 bus[txn=146 bytes=5840 busy=7300 qdelay=16218 bcast=146 req=0 resp=0 wr=0] n0[ld=6952 hit=6222 lmiss=59 rem=87 bc=59 late=0 fh=0 fm=584 st=1243 wt=0 wb=0 drop=0] n1[ld=6930 hit=6185 lmiss=87 rem=59 bc=87 late=0 fh=0 fm=599 st=1240 wt=0 wb=0 drop=0] n2[ld=6930 hit=6175 lmiss=0 rem=146 bc=0 late=0 fh=0 fm=609 st=1240 wt=0 wb=0 drop=0] n3[ld=6930 hit=6175 lmiss=0 rem=146 bc=0 late=0 fh=0 fm=609 st=1240 wt=0 wb=0 drop=0]"),
    ("trad2", "cycles=16366 committed=40005 bus[txn=174 bytes=4176 busy=5220 qdelay=5528 bcast=0 req=87 resp=87 wr=0] n0[ld=6930 hit=6199 lmiss=59 rem=87 bc=0 late=0 fh=0 fm=585 st=1240 wt=0 wb=0 drop=0]"),
    ("trad4", "cycles=16366 committed=40005 bus[txn=174 bytes=4176 busy=5220 qdelay=5528 bcast=0 req=87 resp=87 wr=0] n0[ld=6930 hit=6199 lmiss=59 rem=87 bc=0 late=0 fh=0 fm=585 st=1240 wt=0 wb=0 drop=0]"),
];

/// The 1/2-on-chip traditional machine under the two memory-side
/// options the Figure 7 grid leaves at their defaults: a real D-TLB and
/// a write-allocate D-cache. `dcub_max` rides along because both change
/// how long lines stay in flight.
fn trad2_variant_fingerprints<F: Flavour>(name: &str) -> Vec<(&'static str, String)> {
    let w = by_name(name).expect("registered workload");
    let b = Budget::quick();
    let prog = (w.build)(b.scale);
    let run = |tweak: &dyn Fn(&mut datascalar::core_model::DsConfig)| {
        let mut base = baseline_config(2, b.max_insts);
        tweak(&mut base);
        let r = TraditionalSystem::<F>::with_flavour(&TraditionalConfig { base }, &prog)
            .run()
            .expect("workload executes");
        assert!(r.deadlock.is_none(), "{name}: traditional run wedged");
        format!("{} dcub_max={}", fingerprint(&r), r.nodes[0].dcub_max)
    };
    vec![
        ("tlb", run(&|c| c.tlb = Some(TlbConfig { entries: 8, assoc: 2, page_bytes: 4096 }))),
        ("walloc", run(&|c| c.dcache.write_policy = WritePolicy::WriteBackAllocate)),
    ]
}

const GOLDEN_TRAD2_COMPRESS: &[(&str, &str)] = &[
    ("tlb", "cycles=35969 committed=40005 bus[txn=1585 bytes=19020 busy=33960 qdelay=827351 bcast=0 req=113 resp=113 wr=1359] n0[ld=3026 hit=2142 lmiss=173 rem=106 bc=0 late=0 fh=13 fm=598 st=5978 wt=1297 wb=5 drop=0] dcub_max=7"),
    ("walloc", "cycles=13574 committed=40003 bus[txn=360 bytes=8864 busy=11080 qdelay=14321 bcast=0 req=173 resp=172 wr=15] n0[ld=3079 hit=2290 lmiss=162 rem=95 bc=0 late=0 fh=1 fm=533 st=5978 wt=0 wb=44 drop=0] dcub_max=7"),
];

const GOLDEN_TRAD2_LI: &[(&str, &str)] = &[
    ("tlb", "cycles=201991 committed=40001 bus[txn=5600 bytes=118784 busy=148480 qdelay=3178849 bcast=0 req=1824 resp=1824 wr=1952] n0[ld=12106 hit=2546 lmiss=1955 rem=1823 bc=0 late=0 fh=1 fm=5746 st=4000 wt=2048 wb=0 drop=0] dcub_max=34"),
    ("walloc", "cycles=213461 committed=40001 bus[txn=5086 bytes=129872 busy=162340 qdelay=2208925 bcast=0 req=2299 resp=2299 wr=488] n0[ld=12106 hit=2570 lmiss=1955 rem=1811 bc=0 late=0 fh=0 fm=5734 st=4000 wt=0 wb=512 drop=0] dcub_max=34"),
];

/// The DataScalar runs the Figure 7 grid leaves out: li on two nodes
/// and the bus, where every owner broadcasts the most distinct lines
/// (the per-line tag table's largest load), and wave5 on four nodes and
/// the ring, the only multi-hop fabric. `dcub_max` rides along.
fn ds_variant_fingerprint<F: Flavour>(name: &str, nodes: usize, fabric: FabricKind) -> String {
    let w = by_name(name).expect("registered workload");
    let b = Budget::quick();
    let prog = (w.build)(b.scale);
    let mut config = baseline_config(nodes, b.max_insts);
    config.interconnect = fabric;
    let r = DsSystem::<F>::with_flavour(config, &prog).run().expect("workload executes");
    assert!(r.deadlock.is_none(), "{name}: DataScalar run wedged");
    let dcub: Vec<String> = r.nodes.iter().map(|n| n.dcub_max.to_string()).collect();
    format!("{} dcub_max={}", fingerprint(&r), dcub.join(","))
}

const GOLDEN_DS2_BUS_LI: &str =
    "cycles=215844 committed=40001 bus[txn=3782 bytes=151280 busy=189100 qdelay=2641886 bcast=3782 req=0 resp=0 wr=0] n0[ld=12116 hit=2546 lmiss=1957 rem=1826 bc=1957 late=0 fh=1 fm=5786 st=4000 wt=2048 wb=0 drop=1952] n1[ld=12119 hit=2551 lmiss=1827 rem=1957 bc=1827 late=0 fh=0 fm=5744 st=4000 wt=1952 wb=0 drop=2048] dcub_max=37,39";
const GOLDEN_DS4_RING_WAVE5: &str =
    "cycles=87472 committed=40000 bus[txn=1529 bytes=61160 busy=305800 qdelay=1397064 bcast=1529 req=0 resp=0 wr=0] n0[ld=5805 hit=533 lmiss=510 rem=1021 bc=510 late=0 fh=2 fm=3721 st=5456 wt=0 wb=373 drop=608] n1[ld=5808 hit=567 lmiss=422 rem=1110 bc=426 late=4 fh=2 fm=3685 st=5452 wt=0 wb=284 drop=696] n2[ld=5808 hit=765 lmiss=343 rem=1188 bc=343 late=0 fh=2 fm=3492 st=5460 wt=0 wb=209 drop=773] n3[ld=5805 hit=632 lmiss=255 rem=1276 bc=255 late=0 fh=2 fm=3622 st=5456 wt=0 wb=115 drop=866] dcub_max=13,13,13,13";

const GOLDEN_TRAFFIC_COMPRESS: &str =
    "fills=474 writebacks=0 insts=52985 refs=14488 trad_bytes=22752 esp_bytes=18960 trad_txn=948 esp_txn=474";
const GOLDEN_TRAFFIC_GO: &str =
    "fills=212 writebacks=0 insts=737639 refs=153387 trad_bytes=10176 esp_bytes=8480 trad_txn=424 esp_txn=212";

fn check(name: &str, golden: &[(&str, &str)]) {
    let w = [by_name(name).expect("registered workload")];
    let runs = on_both(&w, figure7_fingerprints::<Plain>, figure7_fingerprints::<Obs>);
    for (_, flavour, fingerprints) in runs {
        for ((label, got), (glabel, want)) in fingerprints.iter().zip(golden) {
            assert_eq!(label, glabel);
            assert_eq!(
                got, want,
                "{name}/{label} on {flavour}: simulation statistics changed — \
                 hot-path optimizations must be behavior-preserving; if the \
                 model itself changed intentionally, regenerate the goldens"
            );
        }
    }
}

#[test]
fn figure7_stats_pinned_for_compress() {
    check("compress", GOLDEN_COMPRESS);
}

#[test]
fn figure7_stats_pinned_for_go() {
    check("go", GOLDEN_GO);
}

#[test]
fn traditional_variants_pinned() {
    let runs = on_both(
        &[("compress", GOLDEN_TRAD2_COMPRESS), ("li", GOLDEN_TRAD2_LI)],
        |&(name, _)| trad2_variant_fingerprints::<Plain>(name),
        |&(name, _)| trad2_variant_fingerprints::<Obs>(name),
    );
    for (&(name, golden), flavour, fingerprints) in runs {
        for ((label, got), (glabel, want)) in fingerprints.iter().zip(golden) {
            assert_eq!(label, glabel);
            assert_eq!(got, want, "{name}/trad2/{label} on {flavour}: statistics changed");
        }
    }
}

#[test]
fn ds_variants_pinned() {
    let runs = on_both(
        &[
            ("li", 2, FabricKind::Bus, GOLDEN_DS2_BUS_LI),
            ("wave5", 4, FabricKind::Ring, GOLDEN_DS4_RING_WAVE5),
        ],
        |&(name, nodes, fabric, _)| ds_variant_fingerprint::<Plain>(name, nodes, fabric),
        |&(name, nodes, fabric, _)| ds_variant_fingerprint::<Obs>(name, nodes, fabric),
    );
    for (&(name, nodes, fabric, want), flavour, got) in runs {
        assert_eq!(got, want, "{name}/ds{nodes}/{fabric:?} on {flavour}: statistics changed");
    }
}

/// The trace window's high-water mark on one DataScalar machine: the
/// worst node skew plus the in-flight window, in records.
fn high_water<F: Flavour>(
    name: &str,
    scale: Scale,
    nodes: usize,
    fabric: FabricKind,
    max_insts: u64,
) -> (usize, u64) {
    let w = by_name(name).expect("registered workload");
    let prog = (w.build)(scale);
    let mut config = baseline_config(nodes, max_insts);
    config.interconnect = fabric;
    let r = DsSystem::<F>::with_flavour(config, &prog).run().expect("workload executes");
    assert!(r.deadlock.is_none(), "{name}: DataScalar run wedged");
    (r.trace_window_high_water, r.committed)
}

/// (kernel, nodes, fabric, high-water mark) at `Budget::quick()`: the
/// DataScalar runs the fingerprints above pin.
const GOLDEN_HIGH_WATER_QUICK: &[(&str, usize, FabricKind, usize)] = &[
    ("compress", 2, FabricKind::Bus, 4766),
    ("compress", 4, FabricKind::Bus, 3706),
    ("go", 2, FabricKind::Bus, 3085),
    ("go", 4, FabricKind::Bus, 3085),
    ("li", 2, FabricKind::Bus, 3120),
    ("wave5", 4, FabricKind::Ring, 4455),
];

/// (kernel, scale, nodes, fabric, commit budget, high-water mark): the
/// four simulation workloads of the benchmark (`benchmark/src/spec.rs`),
/// whose ledger reports the mark as `cpu.trace_window_high_water`.
const GOLDEN_HIGH_WATER_LEDGER: &[(&str, Scale, usize, FabricKind, u64, usize)] = &[
    ("go", Scale::Small, 2, FabricKind::Bus, 1_500_000, 5709),
    ("li", Scale::Full, 2, FabricKind::Bus, 1_000_000, 3331),
    ("compress", Scale::Full, 2, FabricKind::Bus, 1_500_000, 3148),
    ("wave5", Scale::Small, 4, FabricKind::Ring, 500_000, 5595),
];

#[test]
fn trace_window_high_water_is_tracked_and_bounded() {
    let b = Budget::quick();
    let runs = on_both(
        GOLDEN_HIGH_WATER_QUICK,
        |&(name, nodes, fabric, _)| high_water::<Plain>(name, b.scale, nodes, fabric, b.max_insts),
        |&(name, nodes, fabric, _)| high_water::<Obs>(name, b.scale, nodes, fabric, b.max_insts),
    );
    for (&(name, nodes, fabric, want), flavour, (hw, committed)) in runs {
        // The window is bounded by worst-case node skew plus the
        // in-flight OoO window; for these budgets that stays far below
        // the full committed stream (which would indicate trimming
        // stopped working).
        assert!(hw > 0, "{name}/ds{nodes}: high-water mark never recorded");
        assert!(
            hw < committed as usize,
            "{name}/ds{nodes}: trace window grew to the whole stream ({hw} of {committed} insts) — trim is broken"
        );
        assert_eq!(hw, want, "{name}/ds{nodes}/{fabric:?} on {flavour}: high-water mark changed");
    }
}

#[test]
fn trace_window_high_water_pinned_on_the_benchmark_workloads() {
    let runs = on_both(
        GOLDEN_HIGH_WATER_LEDGER,
        |&(name, scale, nodes, fabric, max_insts, _)| {
            high_water::<Plain>(name, scale, nodes, fabric, max_insts)
        },
        |&(name, scale, nodes, fabric, max_insts, _)| {
            high_water::<Obs>(name, scale, nodes, fabric, max_insts)
        },
    );
    for (&(name, _, nodes, fabric, _, want), flavour, (hw, _)) in runs {
        assert_eq!(hw, want, "{name}/ds{nodes}/{fabric:?} on {flavour}: high-water mark changed");
    }
}

#[test]
fn table1_traffic_pinned() {
    for (name, want) in [("compress", GOLDEN_TRAFFIC_COMPRESS), ("go", GOLDEN_TRAFFIC_GO)] {
        let w = by_name(name).expect("registered workload");
        assert_eq!(traffic_line(&w), want, "{name}: Table 1 traffic changed");
    }
}

/// Prints a fresh golden block; paste over the constants above after an
/// intentional model change.
#[test]
#[ignore]
fn print_golden_stats() {
    for name in ["compress", "go"] {
        let w = by_name(name).unwrap();
        println!("== {name} ==");
        for (label, fp) in figure7_fingerprints::<Plain>(&w) {
            println!("    (\"{label}\", \"{fp}\"),");
        }
        println!("    traffic: \"{}\"", traffic_line(&w));
    }
    for name in ["compress", "li"] {
        println!("== {name} trad2 variants ==");
        for (label, fp) in trad2_variant_fingerprints::<Plain>(name) {
            println!("    (\"{label}\", \"{fp}\"),");
        }
    }
    println!("li ds2 bus: \"{}\"", ds_variant_fingerprint::<Plain>("li", 2, FabricKind::Bus));
    println!(
        "wave5 ds4 ring: \"{}\"",
        ds_variant_fingerprint::<Plain>("wave5", 4, FabricKind::Ring)
    );
    let b = Budget::quick();
    println!("== trace window high-water marks ==");
    for &(name, nodes, fabric, _) in GOLDEN_HIGH_WATER_QUICK {
        let (hw, _) = high_water::<Plain>(name, b.scale, nodes, fabric, b.max_insts);
        println!("    (\"{name}\", {nodes}, FabricKind::{fabric:?}, {hw}),");
    }
    for &(name, scale, nodes, fabric, max_insts, _) in GOLDEN_HIGH_WATER_LEDGER {
        let (hw, _) = high_water::<Plain>(name, scale, nodes, fabric, max_insts);
        println!("    (\"{name}\", Scale::{scale:?}, {nodes}, FabricKind::{fabric:?}, {max_insts}, {hw}),");
    }
}
