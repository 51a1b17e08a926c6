//! The linter against real and doctored trees: the paths and catalog it
//! relies on exist, and a seeded violation fails the binary. That the
//! real workspace lints clean is asserted once, by the root package's
//! `tests/lint_clean.rs`, and by `scripts/verify.sh` running the binary.

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn hot_modules_exist_where_the_linter_expects_them() {
    // If these paths move, ds-lint would silently stop policing them —
    // fail loudly instead so the path list gets updated.
    for rel in ds_lint::HOT_MODULES.iter().chain(&ds_lint::X1_PATHS) {
        assert!(
            workspace_root().join(rel).is_file(),
            "{rel} is gone: update HOT_MODULES / X1_PATHS in crates/lint"
        );
    }
}

#[test]
fn rule_catalog_names_every_rule_hot_module_and_root_prefix() {
    // Drift check in the spirit of x1: docs/analysis.md is the one
    // catalog, so everything the linter polices must be named there.
    let doc = std::fs::read_to_string(workspace_root().join("docs/analysis.md"))
        .expect("read docs/analysis.md");
    for rule in ds_lint::Rule::ALL.into_iter().chain([ds_lint::Rule::Directive]) {
        assert!(doc.contains(&format!("### {rule} ")), "rule {rule} has no catalog section");
    }
    for path in ds_lint::HOT_MODULES {
        assert!(doc.contains(path), "hot module {path} missing from the catalog");
    }
    for prefix in ds_lint::ROOT_PREFIXES {
        let named = doc.contains(&format!("`{prefix}`"));
        assert!(named, "root prefix `{prefix}` missing from the catalog");
    }
}

#[test]
fn seeded_violations_fail_via_the_binary() {
    // End-to-end: a doctored tree with one violation must exit non-zero.
    let dir = std::env::temp_dir().join(format!("ds-lint-fixture-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src.join("bad.rs"),
        "use std::collections::HashMap;\npub fn f() { let t = std::time::Instant::now(); }\n",
    )
    .expect("write fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_ds-lint"))
        .arg(&dir)
        .output()
        .expect("run ds-lint");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!out.status.success(), "seeded violations must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/core/src/bad.rs:1: [d1]"), "{stdout}");
    assert!(stdout.contains("crates/core/src/bad.rs:2: [d2]"), "{stdout}");
}

#[test]
fn seeded_probe_allocation_fails_a1() {
    // The observability ring is a hot module: an allocation smuggled
    // into a `record*` function (the per-event probe path) must be
    // caught by a1, and hash containers in the trace crate by d1.
    let dir = std::env::temp_dir().join(format!("ds-lint-obs-fixture-{}", std::process::id()));
    let obs_src = dir.join("crates/obs/src");
    let trace_src = dir.join("crates/trace/src");
    std::fs::create_dir_all(&obs_src).expect("mkdir obs fixture");
    std::fs::create_dir_all(&trace_src).expect("mkdir trace fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        obs_src.join("ring.rs"),
        "pub fn record_event(&mut self) { self.scratch = Vec::new(); }\n",
    )
    .expect("write obs fixture");
    std::fs::write(
        trace_src.join("profile.rs"),
        "use std::collections::HashMap;\n",
    )
    .expect("write trace fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_ds-lint"))
        .arg(&dir)
        .output()
        .expect("run ds-lint");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!out.status.success(), "seeded violations must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/obs/src/ring.rs:1: [a1]"), "{stdout}");
    assert!(stdout.contains("crates/trace/src/profile.rs:1: [d1]"), "{stdout}");
}
