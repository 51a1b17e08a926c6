//! Tier-1 (`cargo test -q`) exercises only the root package, so the
//! workspace's static invariants are asserted here as well as in
//! `scripts/verify.sh`. ds-lint's a1 (no allocation reachable from a
//! cycle-loop root) runs here in full; d1, d2 and p1 are clippy's, so
//! what runs here is the check that keeps their seeded proof honest
//! (docs/analysis.md, DESIGN.md §9).

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let findings = ds_lint::lint_workspace(env!("CARGO_MANIFEST_DIR"));
    assert!(
        findings.is_empty(),
        "ds-lint found violations:\n{}",
        findings.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The lines of a manifest's `[<prefix>lints.*]` tables as sorted
/// `(table, line)` pairs, spaces, comments and blank lines dropped.
fn lint_tables(manifest: &str, prefix: &str) -> Vec<(String, String)> {
    let header = format!("[{prefix}lints.");
    let mut table = None;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.strip_prefix(&header).and_then(|t| t.strip_suffix(']')).map(String::from);
        } else if let Some(t) = &table {
            if !line.is_empty() && !line.starts_with('#') {
                out.push((t.clone(), line.replace(' ', "")));
            }
        }
    }
    out.sort();
    out
}

/// `scripts/verify.sh` proves p1 by running clippy on a seeded fixture
/// package, which has its own `[workspace]` and so its own copy of the
/// lint levels; the proof holds only while that copy is the real one.
#[test]
fn clippy_fixture_lints_are_the_workspace_lints() {
    let read = |rel: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    let root = lint_tables(&read("Cargo.toml"), "workspace.");
    let fixture = lint_tables(&read("crates/lint/tests/fixtures/clippy/Cargo.toml"), "");
    assert!(root.iter().any(|(_, l)| l.starts_with("unwrap_used=")), "{root:?}");
    assert_eq!(fixture, root, "the clippy fixture's [lints] must equal [workspace.lints]");
}
