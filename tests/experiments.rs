//! Smoke tests over the paper-experiment pipelines: each table/figure
//! experiment must run end to end and satisfy the structural properties
//! the paper states about its own results; and the `ds-bench` registry,
//! `results/` and the crate docs must name the same experiments.

use datascalar::core_model::{datathread, mmm};
use datascalar::mem::{PageTableBuilder, Segment};
use datascalar::trace::{
    measure_datathreads, measure_traffic, select_hot_pages, DatathreadConfig, PageProfile,
    TrafficConfig,
};
use datascalar::workloads::{by_name, Scale};

#[test]
fn table1_transactions_never_below_half() {
    // "Because no requests are sent, the transaction reduction will
    // always be at least 50%" (§3.1).
    for name in ["compress", "li", "mgrid", "gcc"] {
        let w = by_name(name).unwrap();
        let prog = (w.build)(Scale::Tiny);
        let r = measure_traffic(&prog, &TrafficConfig::default());
        assert!(
            r.transactions_eliminated() >= 0.5 - 1e-9,
            "{name}: {:.3}",
            r.transactions_eliminated()
        );
        assert!(r.bytes_eliminated() > 0.0, "{name} eliminated nothing");
        assert!(r.bytes_eliminated() < 1.0);
    }
}

#[test]
fn table1_esp_bytes_never_exceed_traditional() {
    for name in ["swim", "vortex"] {
        let w = by_name(name).unwrap();
        let prog = (w.build)(Scale::Tiny);
        let r = measure_traffic(&prog, &TrafficConfig::default());
        assert!(r.esp_bytes() <= r.traditional_bytes());
        assert!(r.esp_transactions() <= r.traditional_transactions());
    }
}

#[test]
fn table2_pipeline_produces_finite_threads() {
    let w = by_name("compress").unwrap();
    let prog = (w.build)(Scale::Tiny);
    let profile = PageProfile::collect(&prog, 4096, 500_000);
    let hot = select_hot_pages(&profile, 16, 4.0);
    let mut ptb = PageTableBuilder::new(4096, 4);
    for (s, e, seg) in prog.regions() {
        ptb.add_region(s, e, seg);
    }
    ptb.replicate_segment(Segment::Text);
    for &vpn in &hot {
        ptb.replicate_page_of(vpn * 4096);
    }
    ptb.distribute_round_robin(1);
    let pt = ptb.build();
    let r = measure_datathreads(&prog, &pt, &DatathreadConfig::default());
    assert!(r.misses > 0);
    assert!(r.all.is_finite() && r.all >= 1.0 || r.all_runs == 0);
    assert!(r.data >= 1.0 || r.data_runs == 0);
}

#[test]
fn figure1_mmm_matches_paper_structure() {
    let t = mmm::simulate(&mmm::figure1_owners(), 2);
    // Three datathreads (w1-4, w5-7, w8-9), two lead changes.
    assert_eq!(t.runs, vec![4, 3, 2]);
    assert_eq!(t.lead_changes, 2);
    // The render shows all nine words.
    let render = t.render();
    assert!(render.contains("w9"));
}

#[test]
fn figure3_exact_paper_numbers() {
    let c = datathread::compare_chain(&[0, 0, 0, 1], usize::MAX);
    assert_eq!(c.datascalar, 2, "paper: two serialized off-chip delays");
    assert_eq!(c.traditional, 8, "paper: eight serialized off-chip delays");
}

#[test]
fn figure7_quick_rows_have_sane_shape() {
    use ds_bench::{figure7_row, Budget};
    for name in ["compress", "go"] {
        let w = by_name(name).unwrap();
        let row = figure7_row(&w, Budget::quick());
        assert!(row.perfect > 0.0 && row.ds2 > 0.0 && row.trad_half > 0.0);
        assert!(row.perfect >= row.ds2 * 0.95, "{name}: perfect must bound DS");
        assert!(row.perfect >= row.trad_half * 0.95, "{name}: perfect must bound trad");
        assert!(
            row.trad_quarter <= row.trad_half * 1.05,
            "{name}: less on-chip memory cannot help the traditional system"
        );
    }
}

#[test]
fn table3_statistics_are_fractions() {
    use ds_bench::{run_datascalar, Budget};
    let w = by_name("compress").unwrap();
    let r = run_datascalar(&w, 2, Budget::quick());
    for n in &r.nodes {
        for frac in [n.late_broadcast_frac(), n.squash_frac(), n.found_in_bshr_frac()] {
            assert!((0.0..=1.0).contains(&frac), "fraction out of range: {frac}");
        }
    }
    assert!(r.nodes.iter().any(|n| n.broadcasts_sent > 0));
}

#[test]
fn figure8_knobs_move_performance_in_the_right_direction() {
    use ds_bench::sweep::{sweep_point, Knob};
    use ds_bench::Budget;
    let w = by_name("compress").unwrap();
    let b = Budget::quick();
    let fast_bus = sweep_point(&w, Knob::BusClock(2), b);
    let slow_bus = sweep_point(&w, Knob::BusClock(40), b);
    // A slower global bus hurts both distributed systems...
    assert!(slow_bus.ds2 < fast_bus.ds2);
    assert!(slow_bus.trad_half < fast_bus.trad_half);
    // ...but never the perfect cache.
    assert!((slow_bus.perfect - fast_bus.perfect).abs() < 0.05);
}

/// The `| \`name\` | about |` rows of the experiment table in
/// `crates/bench/src/lib.rs`'s module docs.
fn documented_experiments() -> Vec<(String, String)> {
    let lib =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/src/lib.rs"))
            .expect("crates/bench/src/lib.rs");
    lib.lines()
        .filter_map(|l| l.strip_prefix("//! | `")?.strip_suffix(" |")?.split_once("` | "))
        .map(|(name, about)| (name.to_string(), about.to_string()))
        .collect()
}

#[test]
fn registry_results_and_docs_name_the_same_experiments() {
    use ds_bench::experiments::EXPERIMENTS;
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    // The crate docs list the registry, descriptions included, in order.
    let documented = documented_experiments();
    let rows: Vec<(&str, &str)> =
        documented.iter().map(|(n, a)| (n.as_str(), a.as_str())).collect();
    assert_eq!(rows, EXPERIMENTS.iter().map(|e| (e.name, e.about)).collect::<Vec<_>>());

    // Every experiment has a committed output and every committed
    // output has an experiment: regen_results.sh walks results/*.txt,
    // so a missing file is never checked and a stale one never noticed.
    let mut committed: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
            .expect("results/")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
    committed.sort();
    registered.sort();
    assert_eq!(registered, committed);
}

#[test]
fn budget_free_experiments_print_their_committed_results() {
    use ds_bench::experiments::find;
    use ds_bench::{report::Report, Budget};
    // The published numbers pinned by tier-1 rather than only by
    // scripts/regen_results.sh --check. `chaos_matrix` also panics on
    // any diverged or deadlocked plan, so this is the chaos gate too.
    for name in ["figure1_mmm", "figure3_chain", "chaos_matrix"] {
        let exp = find(name).expect("registered");
        let mut report = Report::new(exp.name);
        (exp.run)(Budget::full(), &mut report);
        let committed =
            std::fs::read_to_string(format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR")))
                .expect("committed result");
        assert_eq!(report.to_string(), committed, "{name}");
    }
}
