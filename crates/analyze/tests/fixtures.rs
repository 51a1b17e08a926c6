//! End-to-end analyzer tests: each fixture tree seeds one violation
//! per pass and the analyzer must catch it — with the call chain for
//! the transitive rules — while the real workspace stays clean.

use ds_analyze::{analyze, analyze_tree, graph::Workspace, load_workspace, passes, ARule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn findings_of(root: &Path) -> Vec<ds_analyze::Finding> {
    analyze(load_workspace(root).unwrap()).findings
}

#[test]
fn pass_a_catches_transitive_allocation_with_chain() {
    let findings = findings_of(&fixture("ta1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Ta1 && f.func == "deep_helper")
        .expect("seeded ta1 violation detected");
    assert_eq!(
        f.chain,
        vec!["Node::step_node", "Node::refill", "deep_helper"],
        "diagnostic carries the offending call chain"
    );
    assert!(
        !findings.iter().any(|f| f.func == "allowed_helper"),
        "site-level allow must silence the allowed twin: {findings:?}"
    );
}

#[test]
fn edge_roots_are_policed_by_transitive_passes() {
    // The critical-path analyzer's `edge*` recording fns root ta1/tp1
    // exactly like the step/record/charge families.
    let findings = findings_of(&fixture("ta1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Ta1 && f.func == "retire_scratch")
        .expect("allocation below an edge* root detected");
    assert_eq!(f.chain, vec!["Win::edge_retire", "retire_scratch"]);

    let findings = findings_of(&fixture("tp1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Tp1 && f.func == "last_arrival")
        .expect("panic path below an edge* root detected");
    assert_eq!(f.chain, vec!["edge_note", "last_arrival"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn chaos_roots_are_policed_by_transitive_passes() {
    // The ds-chaos per-cycle paths — the fault injector's delivery
    // rewrite (`inject*`) and the forward-progress check (`watchdog*`)
    // — root ta1/tp1 exactly like the step/record/charge families.
    let findings = findings_of(&fixture("ta1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Ta1 && f.func == "held_scratch")
        .expect("allocation below an inject* root detected");
    assert_eq!(f.chain, vec!["Injector::inject_step", "held_scratch"]);

    let findings = findings_of(&fixture("tp1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Tp1 && f.func == "stuck_probe")
        .expect("panic path below a watchdog* root detected");
    assert_eq!(f.chain, vec!["watchdog_check", "stuck_probe"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn pass_b_catches_panic_reachability_with_chain() {
    let findings = findings_of(&fixture("tp1"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Tp1 && f.func == "Core::retire")
        .expect("seeded tp1 violation detected");
    assert_eq!(f.chain, vec!["Core::advance_to", "Core::retire"]);
    assert!(f.message.contains(".unwrap()"));
}

#[test]
fn pass_b_catches_nondeterminism_taint_with_chain() {
    let findings = findings_of(&fixture("td2"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Td2 && f.func == "stamp")
        .expect("seeded td2 violation detected");
    assert_eq!(f.chain, vec!["Probe::record_event", "stamp"]);
    assert!(f.message.contains("Instant"));
}

#[test]
fn pass_b_catches_host_threading_below_a_root() {
    // The simulation crates are single-threaded: a lock or atomic
    // reachable from the cycle loop is a td2 finding, the `allow(d2)`
    // twin is not.
    let findings = findings_of(&fixture("td2"));
    let f = findings
        .iter()
        .find(|f| f.rule == ARule::Td2 && f.func == "bump_shared")
        .expect("seeded host-threading violation detected");
    assert_eq!(f.chain, vec!["Probe::record_shared", "bump_shared"]);
    assert!(f.message.contains("`Atomic*`"), "{f}");
    assert!(
        !findings.iter().any(|f| f.func == "allowed_bump"),
        "site-level allow(d2) must silence the allowed twin: {findings:?}"
    );
}

#[test]
fn real_workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let analysis = analyze_tree(&root, &root.join("crates/analyze/baseline.txt")).unwrap();
    let active: Vec<_> = analysis.active().collect();
    assert!(
        active.is_empty(),
        "the tree must be analyzer-clean (fix it, annotate the invariant, or baseline \
         with a reason):\n{}",
        active.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(analysis.files >= 40, "workspace shrank? parsed {} files", analysis.files);
    assert!(analysis.roots >= 30, "root set shrank? {} roots", analysis.roots);
}

/// The PR-7 audit targets stay inside the proven region: the stall
/// accounting entry point is a root and its classification helpers are
/// reachable, so any future allocation/panic slipped into them becomes
/// a ta1/tp1 finding rather than a silent regression.
#[test]
fn stall_accounting_helpers_are_in_the_proven_region() {
    let w = Workspace::build(load_workspace(&workspace_root()).unwrap());
    let roots = w.roots_by_prefix(&passes::ROOT_PREFIXES);
    let by_name = |q: &str| w.fns.iter().find(|f| f.qualified() == q);
    let charge = by_name("Node::charge_cycle").expect("Node::charge_cycle exists");
    assert!(roots.contains(&charge.id), "charge_cycle is a transitive-pass root");
    let parent = w.reach(&roots);
    for q in ["Node::classify_stall", "OooCore::stall_class"] {
        let f = by_name(q).unwrap_or_else(|| panic!("{q} exists"));
        assert!(parent[f.id].is_some(), "{q} is reachable from the cycle-loop roots");
    }
}

#[test]
fn self_check_seeds_one_violation_per_pass() {
    let failures = ds_analyze::self_check();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
