//! Exercises the `audit` feature: the commit-time correspondence
//! auditor must stay silent (no panics) on real workloads while
//! actually performing checks. Compile-gated so `cargo test` without
//! the feature still builds this target as an empty test binary.
#![cfg(feature = "audit")]

use ds_core::{DsConfig, DsSystem, TraditionalConfig, TraditionalSystem};
use ds_workloads::{by_name, Scale};

fn run_audited(workload: &str, nodes: usize, max_insts: u64) -> u64 {
    let w = by_name(workload).expect("workload registered");
    let prog = (w.build)(Scale::Tiny);
    let mut config = DsConfig::with_nodes(nodes);
    config.max_insts = Some(max_insts);
    let mut sys = DsSystem::new(config, &prog);
    let result = sys.run().expect("workload executes under audit");
    assert!(result.committed > 0, "{workload}/{nodes}: nothing committed");
    sys.audit_checks()
}

#[test]
fn compress_2_nodes_passes_audit() {
    let checks = run_audited("compress", 2, 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

#[test]
fn compress_4_nodes_passes_audit() {
    let checks = run_audited("compress", 4, 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

#[test]
fn go_2_nodes_passes_audit() {
    let checks = run_audited("go", 2, 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

#[test]
fn go_4_nodes_passes_audit() {
    let checks = run_audited("go", 4, 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

/// The traditional machine's CPU chip is the same node, so its commit
/// stream runs through the same residency model.
fn run_audited_traditional(workload: &str, max_insts: u64) -> u64 {
    let w = by_name(workload).expect("workload registered");
    let prog = (w.build)(Scale::Tiny);
    let mut base = DsConfig::with_nodes(2);
    base.max_insts = Some(max_insts);
    let mut sys = TraditionalSystem::new(&TraditionalConfig { base }, &prog);
    let result = sys.run().expect("workload executes under audit");
    assert!(result.committed > 0, "traditional {workload}: nothing committed");
    sys.audit_checks()
}

#[test]
fn traditional_compress_passes_audit() {
    let checks = run_audited_traditional("compress", 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

#[test]
fn traditional_go_passes_audit() {
    let checks = run_audited_traditional("go", 40_000);
    assert!(checks > 1_000, "auditor barely ran: {checks} checks");
}

/// A program that runs to completion, so the end-of-run ledger checks
/// (send/arrival balance, quiescent BSHRs, empty DCUBs) execute rather
/// than being skipped as they are for instruction-budget stops.
#[test]
fn complete_run_passes_end_of_run_ledger() {
    let src = r#"
        .data
        arr: .space 65536
        .text
        main:   li   t0, 512
                la   t1, arr
                li   t2, 0
        loop:   ld   t3, 0(t1)
                add  t2, t2, t3
                sd   t2, 0(t1)
                addi t1, t1, 128
                addi t0, t0, -1
                bnez t0, loop
                halt
    "#;
    let prog = ds_asm::assemble(src).expect("assembles");
    for nodes in [2, 4] {
        let config = DsConfig::with_nodes(nodes);
        let mut sys = DsSystem::new(config, &prog);
        let result = sys.run().expect("program completes");
        assert!(result.committed > 0);
        assert!(sys.audit_checks() > 0);
        assert!(sys.correspondence_holds());
    }
}
