//! Every registered workload runs on every system model.
//!
//! This is the repo's broadest integration sweep: all fifteen
//! SPEC95-analog kernels × {DataScalar ×2, DataScalar ×4, traditional,
//! perfect}, with the ESP invariants checked on every DataScalar run.

use datascalar::core_model::{
    DsConfig, DsSystem, PerfectSystem, TraditionalConfig, TraditionalSystem,
};
use datascalar::workloads::{all, Scale};

const CAP: u64 = 25_000;

fn capped(nodes: usize) -> DsConfig {
    let mut c = DsConfig::with_nodes(nodes);
    c.max_insts = Some(CAP);
    c
}

#[test]
fn every_workload_on_datascalar_two_nodes() {
    for w in all() {
        let prog = (w.build)(Scale::Tiny);
        let mut sys = DsSystem::new(capped(2), &prog);
        let r = sys.run().unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(r.committed >= CAP.min(10_000), "{} committed {}", w.name, r.committed);
        assert_eq!(r.bus.requests, 0, "{}: ESP sent a request", w.name);
        assert_eq!(r.bus.writes, 0, "{}: ESP sent write traffic", w.name);
        assert!(r.ipc() > 0.01, "{}: IPC collapsed ({:.3})", w.name, r.ipc());
    }
}

#[test]
fn every_workload_on_datascalar_four_nodes() {
    for w in all() {
        let prog = (w.build)(Scale::Tiny);
        let mut sys = DsSystem::new(capped(4), &prog);
        let r = sys.run().unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(r.committed > 0, "{} did not commit", w.name);
        assert_eq!(r.nodes.len(), 4);
    }
}

#[test]
fn every_workload_on_the_traditional_system() {
    for w in all() {
        let prog = (w.build)(Scale::Tiny);
        let config = TraditionalConfig { base: capped(2) };
        let mut sys = TraditionalSystem::new(&config, &prog);
        let r = sys.run().unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(r.committed > 0, "{} did not commit", w.name);
        assert_eq!(r.bus.broadcasts, 0, "{}: traditional broadcast", w.name);
    }
}

#[test]
fn every_workload_on_the_perfect_cache() {
    for w in all() {
        let prog = (w.build)(Scale::Tiny);
        let mut sys = PerfectSystem::new(&capped(1), &prog);
        let r = sys.run().unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(r.committed > 0, "{} did not commit", w.name);
    }
}

#[test]
fn perfect_cache_bounds_datascalar() {
    for w in all() {
        let prog = (w.build)(Scale::Tiny);
        let mut perfect = PerfectSystem::new(&capped(1), &prog);
        let p = perfect.run().unwrap().ipc();
        let mut ds = DsSystem::new(capped(2), &prog);
        let d = ds.run().unwrap().ipc();
        assert!(p >= d * 0.98, "{}: perfect ({p:.2}) must bound DataScalar ({d:.2})", w.name);
    }
}

#[test]
fn correspondence_holds_on_full_tiny_runs() {
    // Run three representative kernels to completion (no cap), so the
    // invariant is checked at the natural end point.
    for name in ["compress", "li", "go"] {
        let w = datascalar::by_name(name).unwrap();
        let prog = (w.build)(Scale::Tiny);
        let mut sys = DsSystem::new(DsConfig::with_nodes(2), &prog);
        sys.run().unwrap();
        assert!(sys.correspondence_holds(), "{name}: caches diverged");
        let commits: Vec<u64> = sys.nodes().iter().map(|n| n.committed()).collect();
        assert_eq!(commits[0], commits[1], "{name}: commit counts diverged");
    }
}
