//! # ds-analyze — interprocedural invariants for the DataScalar tree
//!
//! `ds-lint` (PR 3) proves *intra*procedural facts: no allocation
//! token inside a `step*` body, no unannotated `unwrap` in a hot
//! module. This crate closes the loophole those rules leave open — a
//! helper extracted out of `step` carries its allocation with it and
//! the linter loses sight of the invariant. ds-analyze rebuilds the
//! view the linter lacks: a workspace-wide symbol table and call
//! graph over every simulation crate, with reachability from the
//! cycle-loop roots.
//!
//! Passes (see `docs/analysis.md` for the catalog with examples):
//!
//! | code | meaning |
//! |------|---------|
//! | ta1  | allocation in a function transitively reachable from a cycle-loop root |
//! | tp1  | panic path reachable from a cycle-loop root |
//! | td2  | wall-clock / randomness / hash-iteration / host-threading taint reaching the cycle loop |
//!
//! The analysis is lexical and name-based (shared tokenizer with
//! ds-lint; no rustc, no `syn` — the build environment is offline).
//! Call resolution over-approximates, which is the *sound* direction
//! for these invariants: a spurious edge can only add a finding,
//! never hide one, and every transitive finding prints its call chain
//! so a human can judge it in seconds. Escape hatches are explicit
//! and reasoned: `// ds-analyze: allow(<rule>) <reason>` at a site
//! (plus `allow-start`/`allow-end` block form, shared with ds-lint),
//! or a committed baseline entry with a mandatory reason for accepted
//! debt. Stale baseline entries fail the run.

pub mod baseline;
pub mod graph;
pub mod model;
pub mod passes;

use model::SourceFile;
use std::fmt;
use std::path::Path;

/// Analyzer rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ARule {
    /// Transitive allocation-freedom of the cycle path.
    Ta1,
    /// Transitive panic-reachability from the cycle loop.
    Tp1,
    /// Transitive nondeterminism taint of the cycle loop.
    Td2,
    /// Malformed directive / baseline problems.
    Directive,
}

impl ARule {
    /// Short code used in diagnostics, directives and the baseline.
    pub fn code(self) -> &'static str {
        match self {
            ARule::Ta1 => "ta1",
            ARule::Tp1 => "tp1",
            ARule::Td2 => "td2",
            ARule::Directive => "directive",
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: ARule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the first offending site.
    pub line: usize,
    /// Qualified function the finding is attributed to (`Owner::name`).
    pub func: String,
    /// Human-facing explanation.
    pub message: String,
    /// Root → function call chain for transitive findings (empty for
    /// directive findings).
    pub chain: Vec<String>,
    /// True when a baseline entry accepts this finding.
    pub baselined: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message
        )?;
        if self.chain.len() > 1 {
            write!(f, "\n    via: {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// The full analysis result for one tree.
pub struct Analysis {
    /// Every finding, baselined or not, sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Number of files parsed.
    pub files: usize,
    /// Number of functions in the symbol table.
    pub functions: usize,
    /// Number of root functions the transitive passes started from.
    pub roots: usize,
}

impl Analysis {
    /// Findings not accepted by the baseline — what gates CI.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.baselined)
    }
}

/// Reads every `.rs` file under the simulation crates' `src/` trees.
/// Missing crate directories are skipped (fixture trees carry only the
/// crates they seed; a vanished real crate breaks the build long before
/// it could fool the analyzer), but unreadable *files* surface as
/// `Err` — a half-readable tree must not pass.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for krate in ds_lint::SIM_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let raw = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile { crate_name: krate.to_string(), rel_path: rel, raw });
        }
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every pass over `files` and returns the sorted findings
/// (without baseline application — see [`baseline::apply`]).
pub fn analyze(files: Vec<SourceFile>) -> Analysis {
    let w = graph::Workspace::build(files);
    let roots = w.roots_by_prefix(&passes::ROOT_PREFIXES).len();
    let mut findings = passes::transitive_passes(&w);
    // Malformed `ds-analyze:` directives are findings too — a typo in a
    // suppression must not silently suppress nothing.
    for (idx, m) in w.models.iter().enumerate() {
        for e in &m.directive_errors {
            findings.push(Finding {
                rule: ARule::Directive,
                file: w.files[idx].rel_path.clone(),
                line: e.line,
                func: "-".to_string(),
                message: e.message.clone(),
                chain: Vec::new(),
                baselined: false,
            });
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.code(), a.func.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule.code(), b.func.as_str()))
    });
    Analysis { files: w.files.len(), functions: w.fns.len(), roots, findings }
}

/// End-to-end convenience: load, analyze, apply the baseline at
/// `baseline_path` (missing file = empty baseline).
pub fn analyze_tree(root: &Path, baseline_path: &Path) -> Result<Analysis, String> {
    let files = load_workspace(root)?;
    let mut analysis = analyze(files);
    let label = baseline_path
        .strip_prefix(root)
        .unwrap_or(baseline_path)
        .to_string_lossy()
        .replace('\\', "/");
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{label}: {e}")),
    };
    let (entries, mut errors) = baseline::parse_baseline(&text, &label);
    errors.extend(baseline::apply(&mut analysis.findings, &entries, &label));
    analysis.findings.extend(errors);
    Ok(analysis)
}

/// Self-check: seeds one violation per pass into a synthetic workspace
/// and asserts each is detected (with a call chain where applicable).
/// Returns the failure descriptions — empty means the analyzer's three
/// rules all still catch what they claim to catch.
pub fn self_check() -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |label: &str, src: &str, rel: &str, rule: ARule, func: &str, chain: bool| {
        let analysis = analyze(vec![SourceFile {
            crate_name: "core".to_string(),
            rel_path: rel.to_string(),
            raw: src.to_string(),
        }]);
        match analysis
            .findings
            .iter()
            .find(|f| f.rule == rule && f.func == func)
        {
            None => failures.push(format!(
                "{label}: seeded `{}` violation in `{func}` was NOT detected (findings: {:?})",
                rule.code(),
                analysis
                    .findings
                    .iter()
                    .map(|f| format!("{} {}", f.rule.code(), f.func))
                    .collect::<Vec<_>>()
            )),
            Some(f) if chain && f.chain.len() < 2 => failures.push(format!(
                "{label}: `{}` finding lacks its call chain: {f}",
                rule.code()
            )),
            Some(_) => {}
        }
    };

    // Pass A: allocation two calls below a root.
    expect(
        "pass A",
        "impl Node { fn step_node(&mut self) { self.refill(); } \n\
           fn refill(&mut self) { deep_helper(); } }\n\
         fn deep_helper() { let v: Vec<u8> = Vec::new(); let _ = v; }\n",
        "crates/core/src/seeded_a.rs",
        ARule::Ta1,
        "deep_helper",
        true,
    );
    // Pass B (tp1): panic below a root.
    expect(
        "pass B/tp1",
        "impl Core { fn advance_to(&mut self, c: u64) { self.retire(c); }\n\
           fn retire(&mut self, c: u64) { self.slot(c).unwrap(); }\n\
           fn slot(&self, _c: u64) -> Option<u8> { None } }\n",
        "crates/cpu/src/seeded_b.rs",
        ARule::Tp1,
        "Core::retire",
        true,
    );
    // Pass B (td2): wall-clock taint below a root.
    expect(
        "pass B/td2",
        "impl Probe { fn record_event(&mut self) { stamp(); } }\n\
         fn stamp() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }\n",
        "crates/obs/src/seeded_d.rs",
        ARule::Td2,
        "stamp",
        true,
    );
    // Pass A again, rooted at the timeline sampler's close path: the
    // `sample*` prefix joined ROOT_PREFIXES with the interval sampler
    // and must keep rooting the transitive sweep.
    expect(
        "pass A/sample root",
        "impl Ring { fn sample_close(&mut self, end: u64) { self.flush(end); }\n\
           fn flush(&mut self, _end: u64) { let s = format!(\"x\"); let _ = s; } }\n",
        "crates/obs/src/seeded_e.rs",
        ARule::Ta1,
        "Ring::flush",
        true,
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_passes() {
        let failures = self_check();
        assert!(failures.is_empty(), "self-check failures:\n{}", failures.join("\n"));
    }

    #[test]
    fn allows_and_baseline_both_silence_findings() {
        let src = "fn step_x() { helper(); }\n\
                   fn helper() { let v: Vec<u8> = Vec::new(); let _ = v; } \
                   // ds-analyze: allow(ta1) scratch vec is test-only scaffolding\n";
        let analysis = analyze(vec![SourceFile {
            crate_name: "core".into(),
            rel_path: "crates/core/src/x.rs".into(),
            raw: src.into(),
        }]);
        assert!(
            analysis.findings.iter().all(|f| f.rule != ARule::Ta1),
            "line allow must suppress the transitive finding at its site"
        );
    }

    #[test]
    fn display_includes_chain() {
        let f = Finding {
            rule: ARule::Ta1,
            file: "crates/core/src/x.rs".into(),
            line: 3,
            func: "helper".into(),
            message: "msg".into(),
            chain: vec!["step_x".into(), "helper".into()],
            baselined: false,
        };
        let s = f.to_string();
        assert!(s.contains("[ta1]"));
        assert!(s.contains("via: step_x -> helper"));
    }
}
