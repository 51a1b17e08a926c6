//! Golden simulation statistics: exact pinned results for two small
//! workloads, covering Figure 7 (timing IPC across all five systems)
//! and Table 1 (ESP traffic reduction).
//!
//! These exist so performance work on the simulation engine can be
//! proven behavior-preserving: every hot-path optimization must leave
//! each fingerprint below byte-identical. The counters are exact
//! integers — any drift in cycle accounting, broadcast ordering, cache
//! behavior, or interconnect arbitration shows up here immediately.
//!
//! After an *intentional* model change, regenerate with
//! `cargo test --test golden_stats -- --ignored --nocapture`.

use datascalar::core_model::RunResult;
use datascalar::trace::{measure_traffic, TrafficConfig};
use datascalar::workloads::{by_name, Workload};
use datascalar::core_model::{TraditionalConfig, TraditionalSystem};
use datascalar::mem::{TlbConfig, WritePolicy};
use ds_bench::{baseline_config, run_datascalar, run_perfect, run_traditional, Budget};

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
fn figure7_fingerprints(w: &Workload) -> Vec<(&'static str, String)> {
    let b = Budget::quick();
    vec![
        ("perfect", fingerprint(&run_perfect(w, b))),
        ("ds2", fingerprint(&run_datascalar(w, 2, b))),
        ("ds4", fingerprint(&run_datascalar(w, 4, b))),
        ("trad2", fingerprint(&run_traditional(w, 2, b))),
        ("trad4", fingerprint(&run_traditional(w, 4, b))),
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
fn trad2_variant_fingerprints(name: &str) -> Vec<(&'static str, String)> {
    let w = by_name(name).expect("registered workload");
    let b = Budget::quick();
    let prog = (w.build)(b.scale);
    let run = |tweak: &dyn Fn(&mut datascalar::core_model::DsConfig)| {
        let mut base = baseline_config(2, b.max_insts);
        tweak(&mut base);
        let r = TraditionalSystem::new(&TraditionalConfig { base }, &prog)
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

const GOLDEN_TRAFFIC_COMPRESS: &str =
    "fills=474 writebacks=0 insts=52985 refs=14488 trad_bytes=22752 esp_bytes=18960 trad_txn=948 esp_txn=474";
const GOLDEN_TRAFFIC_GO: &str =
    "fills=212 writebacks=0 insts=737639 refs=153387 trad_bytes=10176 esp_bytes=8480 trad_txn=424 esp_txn=212";

fn check(name: &str, golden: &[(&str, &str)]) {
    let w = by_name(name).expect("registered workload");
    for ((label, got), (glabel, want)) in figure7_fingerprints(&w).iter().zip(golden) {
        assert_eq!(label, glabel);
        assert_eq!(
            got, want,
            "{name}/{label}: simulation statistics changed — hot-path \
             optimizations must be behavior-preserving; if the model \
             itself changed intentionally, regenerate the goldens"
        );
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
    for (name, golden) in [("compress", GOLDEN_TRAD2_COMPRESS), ("li", GOLDEN_TRAD2_LI)] {
        for ((label, got), (glabel, want)) in trad2_variant_fingerprints(name).iter().zip(golden) {
            assert_eq!(label, glabel);
            assert_eq!(got, want, "{name}/trad2/{label}: simulation statistics changed");
        }
    }
}

#[test]
fn trace_window_high_water_is_tracked_and_bounded() {
    let w = by_name("compress").expect("registered workload");
    let r = run_datascalar(&w, 2, Budget::quick());
    assert!(r.trace_window_high_water > 0, "high-water mark never recorded");
    // The window is bounded by worst-case node skew plus the in-flight
    // OoO window; for these budgets that stays far below the full
    // committed stream (which would indicate trimming stopped working).
    assert!(
        r.trace_window_high_water < r.committed as usize,
        "trace window grew to the whole stream ({} of {} insts) — trim is broken",
        r.trace_window_high_water,
        r.committed
    );
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
        for (label, fp) in figure7_fingerprints(&w) {
            println!("    (\"{label}\", \"{fp}\"),");
        }
        println!("    traffic: \"{}\"", traffic_line(&w));
    }
    for name in ["compress", "li"] {
        println!("== {name} trad2 variants ==");
        for (label, fp) in trad2_variant_fingerprints(name) {
            println!("    (\"{label}\", \"{fp}\"),");
        }
    }
}
