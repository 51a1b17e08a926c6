//! Tier-1 (`cargo test -q`) exercises only the root package, so the
//! workspace invariants ds-lint polices are asserted here as well as in
//! `scripts/verify.sh`: a determinism, hot-path or ISA-drift violation
//! fails the first gate a change meets (DESIGN.md §9).

#[test]
fn workspace_lints_clean() {
    let findings = ds_lint::lint_workspace(env!("CARGO_MANIFEST_DIR"));
    assert!(
        findings.is_empty(),
        "ds-lint found violations:\n{}",
        findings.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
