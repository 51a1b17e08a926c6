//! End-to-end call-graph tests: each fixture tree seeds violations
//! below a cycle-loop root and the linter must catch them — with the
//! call chain for a1/p1 — while the real workspace stays clean.

use ds_lint::graph::Workspace;
use ds_lint::{lint, lint_tree, load_sources, Diagnostic, Rule, ROOT_PREFIXES};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn load(root: &Path) -> Workspace {
    let mut unreadable = Vec::new();
    let w = Workspace::build(load_sources(root, &mut unreadable));
    assert!(unreadable.is_empty(), "{unreadable:?}");
    w
}

fn findings_of(name: &str) -> Vec<Diagnostic> {
    lint(&load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)))
}

/// The `rule` finding inside function `func` (the last link of its
/// call chain).
fn in_fn<'a>(findings: &'a [Diagnostic], rule: Rule, func: &str) -> Option<&'a Diagnostic> {
    findings.iter().find(|d| d.rule == rule && d.via.last().is_some_and(|f| f == func))
}

#[test]
fn a1_catches_transitive_allocation_with_chain() {
    let findings = findings_of("a1");
    let f = in_fn(&findings, Rule::A1, "deep_helper").expect("seeded a1 violation detected");
    assert_eq!(
        f.via,
        vec!["Node::step_node", "Node::refill", "deep_helper"],
        "diagnostic carries the offending call chain"
    );
    assert!(f.to_string().contains("via: Node::step_node -> Node::refill -> deep_helper"));
    assert!(
        in_fn(&findings, Rule::A1, "allowed_helper").is_none(),
        "site-level allow must silence the allowed twin: {findings:?}"
    );
    assert!(
        findings.iter().all(|d| d.rule != Rule::Directive),
        "the twin's allow is in use: {findings:?}"
    );
}

#[test]
fn edge_roots_are_policed_by_the_call_graph_rules() {
    // The critical-path analyzer's `edge*` recording fns root a1/p1
    // exactly like the step/record/charge families.
    let findings = findings_of("a1");
    let f = in_fn(&findings, Rule::A1, "retire_scratch")
        .expect("allocation below an edge* root detected");
    assert_eq!(f.via, vec!["Win::edge_retire", "retire_scratch"]);

    let findings = findings_of("p1");
    let f = in_fn(&findings, Rule::P1, "last_arrival")
        .expect("panic path below an edge* root detected");
    assert_eq!(f.via, vec!["edge_note", "last_arrival"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn chaos_roots_are_policed_by_the_call_graph_rules() {
    // The ds-chaos per-cycle paths — the fault injector's delivery
    // rewrite (`inject*`) and the forward-progress check (`watchdog*`)
    // — root a1/p1 exactly like the step/record/charge families.
    let findings = findings_of("a1");
    let f = in_fn(&findings, Rule::A1, "held_scratch")
        .expect("allocation below an inject* root detected");
    assert_eq!(f.via, vec!["Injector::inject_step", "held_scratch"]);

    let findings = findings_of("p1");
    let f = in_fn(&findings, Rule::P1, "stuck_probe")
        .expect("panic path below a watchdog* root detected");
    assert_eq!(f.via, vec!["watchdog_check", "stuck_probe"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn p1_catches_panic_reachability_with_chain() {
    let findings = findings_of("p1");
    let f = in_fn(&findings, Rule::P1, "Core::retire").expect("seeded p1 violation detected");
    assert_eq!(f.via, vec!["Core::advance_to", "Core::retire"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn d2_catches_clock_and_host_threading_below_a_root() {
    // File-scope d2 subsumes the retired taint pass: the wall clock in
    // `stamp` (below Probe::record_event) and the atomic in
    // `bump_shared` (below Probe::record_shared) are reported on their
    // own lines; the `allow(d2)` twin `allowed_bump` is not.
    let findings = findings_of("d2");
    let at = |line: usize, token: &str| {
        findings.iter().any(|d| d.rule == Rule::D2 && d.line == line && d.message.contains(token))
    };
    assert!(at(24, "`Instant`"), "seeded wall-clock violation detected: {findings:?}");
    assert!(at(30, "`Atomic*`"), "seeded host-threading violation detected: {findings:?}");
    assert!(
        findings.iter().all(|d| !(35..=39).contains(&d.line)),
        "site-level allow(d2) must silence the allowed twin: {findings:?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let report = lint_tree(&workspace_root());
    assert!(
        report.diagnostics.is_empty(),
        "the tree must lint clean (fix it, or annotate the invariant with a reason):\n{}",
        report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files >= 40, "workspace shrank? parsed {} files", report.files);
    assert!(report.roots >= 30, "root set shrank? {} roots", report.roots);
}

/// The PR-7 audit targets stay inside the proven region: the stall
/// accounting entry point is a root and its classification helpers are
/// reachable, so any future allocation/panic slipped into them becomes
/// an a1/p1 finding rather than a silent regression. Likewise the loop
/// body itself: the engine's per-cycle hook is a root on all three
/// system models, and what only it calls is reachable. The probe
/// owners' hooks — a node's cycle ledger, a core's critical-path stamps
/// and retirements — are roots too, and the profile and segment walk
/// behind them reachable.
#[test]
fn stall_accounting_helpers_are_in_the_proven_region() {
    let w = load(&workspace_root());
    let roots = w.roots_by_prefix(&ROOT_PREFIXES);
    let by_name = |q: &str| w.fns.iter().find(|f| f.qualified() == q);
    for q in [
        "Node::charge_cycle",
        "DsMachine::step_cycle",
        "TradMachine::step_cycle",
        "PerfectMachine::step_cycle",
        "CycleLedger::charge",
        "CritWindow::edge_dispatch",
        "CritWindow::edge_commit",
    ] {
        let f = by_name(q).unwrap_or_else(|| panic!("{q} exists"));
        assert!(roots.contains(&f.id), "{q} is a cycle-loop root");
    }
    let parent = w.reach(&roots);
    for q in [
        "Node::classify_stall",
        "OooCore::stall_class",
        "Node::deliver",
        "Bshr::on_arrival",
        "TradMachine::deliver",
        "serve_request",
        "Ports::account",
        "BroadcastTags::next",
        "PageTable::classify",
        "PcProfile::charge_pc_many",
        "walk_nodes",
    ] {
        let f = by_name(q).unwrap_or_else(|| panic!("{q} exists"));
        assert!(parent[f.id].is_some(), "{q} is reachable from the cycle-loop roots");
    }
}
