//! `ds-analyze` — build the workspace call graph and prove the
//! transitive hot-path and determinism invariants.
//!
//! Usage:
//!
//! ```text
//! ds-analyze [workspace-root] [--baseline <path>] [--json <path>] [--self-check]
//! ```
//!
//! Exit codes: 0 clean (or all findings baselined), 1 active findings,
//! 2 usage/I-O error, 3 self-check failure.

use ds_analyze::{Analysis, Finding};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut self_check = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                eprintln!(
                    "usage: ds-analyze [workspace-root] [--baseline <path>] \
                     [--json <path>] [--self-check]"
                );
                return ExitCode::SUCCESS;
            }
            "--self-check" => self_check = true,
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => return usage("--baseline needs a path"),
            },
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            _ if arg.starts_with('-') => return usage(&format!("unknown flag {arg}")),
            _ => root = PathBuf::from(arg),
        }
    }

    if self_check {
        let failures = ds_analyze::self_check();
        if failures.is_empty() {
            eprintln!("ds-analyze: self-check passed (seeded ta1, tp1 and td2 violations detected)");
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("ds-analyze: self-check FAILED: {f}");
        }
        return ExitCode::from(3);
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "ds-analyze: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let baseline = baseline.unwrap_or_else(|| root.join("crates/analyze/baseline.txt"));

    let analysis = match ds_analyze::analyze_tree(&root, &baseline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ds-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, render_json(&analysis)) {
            eprintln!("ds-analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let active: Vec<&Finding> = analysis.active().collect();
    for f in &active {
        println!("{f}");
    }
    let accepted = analysis.findings.len() - active.len();
    eprintln!(
        "ds-analyze: {} file(s), {} function(s), {} root(s); {} active finding(s), {} baselined",
        analysis.files,
        analysis.functions,
        analysis.roots,
        active.len(),
        accepted
    );
    if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ds-analyze: {msg}");
    eprintln!(
        "usage: ds-analyze [workspace-root] [--baseline <path>] [--json <path>] [--self-check]"
    );
    ExitCode::from(2)
}

/// Hand-rolled JSON (the workspace is offline; no serde). Schema
/// `ds-analyze/v1`, consumed by scripts/verify.sh and ds-report-style
/// tooling.
fn render_json(a: &Analysis) -> String {
    let mut s = String::from("{\n  \"schema\": \"ds-analyze/v1\",\n");
    s.push_str(&format!(
        "  \"files\": {}, \"functions\": {}, \"roots\": {},\n",
        a.files, a.functions, a.roots
    ));
    s.push_str(&format!(
        "  \"active\": {}, \"baselined\": {},\n",
        a.active().count(),
        a.findings.iter().filter(|f| f.baselined).count()
    ));
    s.push_str("  \"findings\": [\n");
    for (i, f) in a.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": {}, \"line\": {}, \"fn\": {}, \
             \"baselined\": {}, \"message\": {}, \"chain\": [{}]}}{}\n",
            f.rule.code(),
            json_str(&f.file),
            f.line,
            json_str(&f.func),
            f.baselined,
            json_str(&f.message),
            f.chain.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(", "),
            if i + 1 == a.findings.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
