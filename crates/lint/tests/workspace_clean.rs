//! The linter against real and doctored trees: the crates and catalog
//! it relies on exist, and a seeded violation fails the binary. That
//! the real workspace lints clean is asserted once, by the root
//! package's `tests/lint_clean.rs`, and by `scripts/verify.sh` running
//! the binary.

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn sim_crates_exist_where_the_linter_expects_them() {
    // `load_sources` skips a missing crate directory, so if one moves,
    // ds-lint would silently stop policing it — fail loudly instead so
    // SIM_CRATES gets updated.
    for krate in ds_lint::SIM_CRATES {
        let src = workspace_root().join("crates").join(krate).join("src");
        assert!(src.is_dir(), "crates/{krate}/src is gone: update SIM_CRATES in crates/lint");
    }
}

#[test]
fn rule_catalog_names_every_rule_and_root_prefix() {
    // docs/analysis.md is the one catalog, so everything the linter
    // polices must be named there.
    let doc = std::fs::read_to_string(workspace_root().join("docs/analysis.md"))
        .expect("read docs/analysis.md");
    for rule in ds_lint::Rule::ALL.into_iter().chain([ds_lint::Rule::Directive]) {
        assert!(doc.contains(&format!("### {rule} ")), "rule {rule} has no catalog section");
    }
    for prefix in ds_lint::ROOT_PREFIXES {
        let named = doc.contains(&format!("`{prefix}`"));
        assert!(named, "root prefix `{prefix}` missing from the catalog");
    }
}

#[test]
fn seeded_probe_allocation_fails_a1() {
    // End-to-end: an allocation smuggled into a `record*` function (the
    // per-event probe path) of a doctored tree must fail the binary.
    let dir = std::env::temp_dir().join(format!("ds-lint-obs-fixture-{}", std::process::id()));
    let obs_src = dir.join("crates/obs/src");
    std::fs::create_dir_all(&obs_src).expect("mkdir obs fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        obs_src.join("ring.rs"),
        "pub fn record_event(&mut self) { self.scratch = Vec::new(); }\n",
    )
    .expect("write obs fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_ds-lint")).arg(&dir).output().expect("run ds-lint");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!out.status.success(), "seeded violations must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/obs/src/ring.rs:1: [a1]"), "{stdout}");
}
