//! `ds-lint` — walk the workspace and enforce the DataScalar invariants
//! described in the library docs. Exit code 0 when clean, 1 when any
//! finding survives its allow-filtering.
//!
//! Usage: `ds-lint [workspace-root]` (default: current directory).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let root = match args.next() {
        Some(flag) if flag == "-h" || flag == "--help" => {
            eprintln!("usage: ds-lint [workspace-root]");
            return ExitCode::SUCCESS;
        }
        Some(path) => PathBuf::from(path),
        None => PathBuf::from("."),
    };
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "ds-lint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = ds_lint::lint_tree(&root);
    for d in &report.diagnostics {
        println!("{d}");
    }
    let size = format!(
        "{} file(s), {} function(s), {} root(s)",
        report.files, report.functions, report.roots
    );
    if report.diagnostics.is_empty() {
        eprintln!("ds-lint: {size}; workspace clean");
        ExitCode::SUCCESS
    } else {
        let counts = ds_lint::rule_counts(&report.diagnostics);
        let breakdown =
            counts.iter().map(|(rule, n)| format!("{rule}:{n}")).collect::<Vec<_>>().join(" ");
        eprintln!("ds-lint: {size}; {} finding(s) [{breakdown}]", report.diagnostics.len());
        ExitCode::FAILURE
    }
}
