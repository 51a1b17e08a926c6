//! `ds-lint`: the allocation-free cycle path, checked over the call graph.
//!
//! DataScalar correctness hinges on every node making *identical,
//! deterministic* decisions in commit order, or broadcasts and BSHR
//! waits stop pairing up and the machine deadlocks (see
//! `docs/protocol.md`). Most of the invariants that protect this are
//! held by the toolchain: clippy's `disallowed-types`/`disallowed-methods`
//! (the root `clippy.toml`), the `[workspace.lints]` table, rustc's
//! exhaustive `match` and a ds-isa unit test (`docs/analysis.md` is the
//! map). What is left here is the one rule that needs a call graph:
//!
//! - **a1** — no allocation (`Vec::new`, `vec![`, `.collect()`, ...) in
//!   any simulation-crate function ([`SIM_CRATES`]) reachable from a
//!   cycle-loop root ([`ROOT_PREFIXES`]), over a name-resolved call graph
//!   (`graph.rs`): a helper extracted out of `step` carries the
//!   invariant with it.
//!
//! Findings are suppressed with `// ds-lint: allow(a1) <reason>` on the
//! offending line, or on a comment line immediately above it. The
//! reason is mandatory; a bare allow, or an allow that suppresses no
//! finding, is itself a finding.

pub mod graph;
pub mod model;
pub mod scan;
pub mod tokens;

use graph::Workspace;
use model::{Site, SourceFile};
use scan::in_regions;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to (printed lowercase, matching the
/// `allow(<rule>)` directive spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Allocation reachable from a cycle-loop root.
    A1,
    /// A malformed or unused `ds-lint:` directive (unknown rule,
    /// missing reason, nothing to suppress). Cannot itself be allowed.
    Directive,
}

impl Rule {
    /// The rules an `allow(<rule>)` directive may name.
    pub const ALL: [Rule; 1] = [Rule::A1];

    /// The directive spelling (`allow(a1)`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::A1 => "a1",
            Rule::Directive => "directive",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding, addressed `file:line` so editors and CI can jump to it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Shortest `root -> … -> fn` call chain for a finding on the cycle
    /// path (qualified names); empty otherwise.
    pub via: Vec<String>,
}

impl Diagnostic {
    fn new(file: &str, line: usize, rule: Rule, message: String) -> Self {
        Diagnostic { file: file.to_string(), line, rule, message, via: Vec::new() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if self.via.len() > 1 {
            write!(f, "\n    via: {}", self.via.join(" -> "))?;
        }
        Ok(())
    }
}

/// One parsed `allow(a1)`: a1 findings on line `line` are allowed.
#[derive(Debug)]
pub struct Allow {
    /// 1-based line of the directive.
    pub at: usize,
    /// The covered line.
    pub line: usize,
}

const DIRECTIVE: &str = "ds-lint:";

/// Extracts the `ds-lint: allow(<rule>) <reason>` directives from the
/// raw source; malformed ones come back as [`Rule::Directive`] findings
/// against `file`.
///
/// An allow suppresses findings on the directive's own line, or (when
/// the directive sits on a comment-only line) on the next non-blank
/// code line. The reason is mandatory.
pub fn parse_directives(file: &str, raw: &str, cleaned: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    let clean_lines: Vec<&str> = cleaned.lines().collect();
    for (idx, line) in raw.lines().enumerate() {
        let lineno = idx + 1;
        let Some(at) = line.find(DIRECTIVE) else {
            continue;
        };
        let rest = line[at + DIRECTIVE.len()..].trim_start();
        let bad = |msg: String| Diagnostic::new(file, lineno, Rule::Directive, msg);
        let Some(args) = rest.strip_prefix("allow(") else {
            errors.push(bad(format!(
                "malformed {DIRECTIVE} directive (expected `allow(<rule>) <reason>`): `{}`",
                line.trim()
            )));
            continue;
        };
        let Some(close) = args.find(')') else {
            errors.push(bad("unterminated `allow(` directive".to_string()));
            continue;
        };
        let code = args[..close].trim();
        if !Rule::ALL.into_iter().any(|r| r.code() == code) {
            errors.push(bad(format!(
                "unknown lint rule `{code}` (known: {})",
                Rule::ALL.map(Rule::code).join(" ")
            )));
            continue;
        }
        if args[close + 1..].trim().is_empty() {
            errors.push(bad(format!(
                "allow({code}) requires a reason: `{DIRECTIVE} allow({code}) <why this is safe>`"
            )));
            continue;
        }
        // Comment-only line (nothing survives stripping) → the allow
        // applies to the next line with code on it.
        let own_code = clean_lines.get(idx).is_some_and(|l| !l.trim().is_empty());
        let mut target = lineno;
        if !own_code {
            target += 1;
            while target <= clean_lines.len() && clean_lines[target - 1].trim().is_empty() {
                target += 1;
            }
        }
        allows.push(Allow { at: lineno, line: target });
    }
    (allows, errors)
}

/// Lints one file's source text as a one-file workspace. `file` is the
/// label used in diagnostics (workspace-relative path).
pub fn lint_source(file: &str, raw: &str) -> Vec<Diagnostic> {
    let file = SourceFile { rel_path: file.to_string(), raw: raw.to_string() };
    lint(&Workspace::build(vec![file]))
}

/// Runs a1 and the directive checks over a parsed workspace;
/// diagnostics come back sorted by file then line.
pub fn lint(w: &Workspace) -> Vec<Diagnostic> {
    let parent = w.reach(&w.roots_by_prefix(&ROOT_PREFIXES));
    let mut diags = Vec::new();
    for (file, m) in w.files.iter().zip(&w.models) {
        diags.extend(m.directive_errors.iter().cloned());
        let mut used = vec![false; m.allows.len()];
        for s in &m.sites {
            let Some(f) = s.func.filter(|&f| parent[f].is_some()) else {
                continue;
            };
            if in_regions(&m.test_regions, s.offset) {
                continue;
            }
            let line = m.index.line_of(s.offset);
            let mut allowed = false;
            for (a, used) in m.allows.iter().zip(&mut used) {
                if a.line == line {
                    *used = true;
                    allowed = true;
                }
            }
            if !allowed {
                let via = w.chain(&parent, f);
                let message = a1_message(s, &via);
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line,
                    rule: Rule::A1,
                    message,
                    via,
                });
            }
        }
        // A suppression must not outlive its finding: an allow that
        // matched no site above is stale.
        for (a, _) in m.allows.iter().zip(&used).filter(|(_, used)| !**used) {
            diags.push(Diagnostic::new(
                &file.rel_path,
                a.at,
                Rule::Directive,
                format!("allow({}) suppresses nothing: remove it", Rule::A1),
            ));
        }
    }
    diags.sort();
    diags.dedup();
    diags
}

/// The a1 message for an allocation site whose enclosing function sits
/// at the end of the call chain `via` from a cycle-loop root.
fn a1_message(s: &Site, via: &[String]) -> String {
    let place = match via {
        [root, .., func] => format!("in `{func}`, reachable from cycle-loop root `{root}`"),
        [root] => format!("in cycle-loop root `{root}`"),
        [] => String::new(),
    };
    format!(
        "`{}` {place}: the cycle path is allocation-free (DESIGN.md §8); hoist the buffer into \
         the owning struct, or annotate the amortization argument (`// {DIRECTIVE} allow(a1) \
         <reason>`)",
        s.what
    )
}

/// The simulation crates a1 polices. `trace` is included because
/// replication selection feeds simulated state; `obs` because its
/// per-event record paths run inside the cycle loop.
pub const SIM_CRATES: [&str; 6] = ["core", "cpu", "mem", "net", "trace", "obs"];

/// Function-name prefixes that root the cycle path a1 polices:
/// the per-cycle stepping entry points (`step*`/`tick*` — including
/// `Machine::step_cycle`, the engine's per-cycle hook, so the loop body
/// of all three system models is a root), the probe's
/// per-event record path (`record*`), per-cycle stall accounting
/// (`charge*`), the event-horizon engine (`next_event*`/`advance_to*`),
/// the critical-path analyzer's per-retirement edge recording
/// (`edge*`), the timeline sampler's per-boundary snapshot close
/// (`sample*`/`interval*`), and the ds-chaos per-cycle paths
/// (`inject*`/`fault*`/`watchdog*` — the fault injector's delivery
/// rewrite and rule matching plus the forward-progress check).
/// Report-time walks allocate on purpose and therefore carry non-root
/// names (`path_report`, `report`, `merged`, `deadlock_evidence`).
pub const ROOT_PREFIXES: [&str; 12] = [
    "step",
    "tick",
    "record",
    "charge",
    "next_event",
    "advance_to",
    "edge",
    "sample",
    "interval",
    "inject",
    "fault",
    "watchdog",
];

/// What [`lint_tree`] found, plus the size of what it looked at.
pub struct Report {
    /// Every finding, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Source files parsed.
    pub files: usize,
    /// Functions in the symbol table.
    pub functions: usize,
    /// Cycle-loop roots the call graph starts from.
    pub roots: usize,
}

/// Reads every `.rs` file under the simulation crates' `src/` trees.
/// Missing crate directories are skipped (fixture trees carry only the
/// crates they seed), but an unreadable file becomes a diagnostic so a
/// broken tree can't pass silently.
pub fn load_sources(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        let mut paths = Vec::new();
        collect_rs_files(&root.join("crates").join(krate).join("src"), &mut paths);
        for path in paths {
            let rel_path = rel_label(root, &path);
            match std::fs::read_to_string(&path) {
                Ok(raw) => files.push(SourceFile { rel_path, raw }),
                Err(e) => diags.push(Diagnostic::new(
                    &rel_path,
                    1,
                    Rule::Directive,
                    format!("unreadable source file: {e}"),
                )),
            }
        }
    }
    files
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_tree(root: &Path) -> Report {
    let mut diags = Vec::new();
    let w = Workspace::build(load_sources(root, &mut diags));
    diags.extend(lint(&w));
    diags.sort();
    Report {
        diagnostics: diags,
        files: w.files.len(),
        functions: w.fns.len(),
        roots: w.roots_by_prefix(&ROOT_PREFIXES).len(),
    }
}

/// The diagnostics of [`lint_tree`] — empty on a clean workspace.
pub fn lint_workspace(root: impl AsRef<Path>) -> Vec<Diagnostic> {
    lint_tree(root.as_ref()).diagnostics
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Groups diagnostics per rule for the summary line.
pub fn rule_counts(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry(d.rule.code()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn a1_flags_allocation_on_the_cycle_path_of_every_root_prefix() {
        // Every root family is policed in any simulation-crate file,
        // in the root itself and one call below it (chain printed).
        for prefix in ROOT_PREFIXES {
            let src = format!(
                "fn {prefix}_x(&mut self) {{ let v: Vec<u8> = Vec::new(); below_{prefix}(); }}\n\
                 fn below_{prefix}() {{ let s = format!(\"x\"); }}\n"
            );
            let diags = lint_source("x.rs", &src);
            assert_eq!(rules(&diags), vec![Rule::A1, Rule::A1], "{prefix}: {diags:?}");
            assert_eq!((diags[0].line, diags[1].line), (1, 2), "{prefix}");
            assert_eq!(diags[1].via, vec![format!("{prefix}_x"), format!("below_{prefix}")]);
        }
        // Names that merely resemble a root prefix, and report-time
        // helpers, allocate freely — as does everything below them.
        for name in [
            "next_evening",
            "edgy_but_not_hot",
            "resample_offline",
            "uninjected",
            "chart",
            "helper",
        ] {
            let src = format!(
                "fn {name}(&mut self) {{ let v: Vec<u8> = Vec::new(); below(); }}\n\
                 fn below() {{ let xs: Vec<u8> = (0..4).collect(); }}\n"
            );
            assert!(lint_source("x.rs", &src).is_empty(), "{name}");
        }
    }

    #[test]
    fn sample_roots_reach_helpers_below_them() {
        // The `sample*` prefix joined ROOT_PREFIXES with the interval
        // sampler and must keep rooting the transitive sweep.
        let src = "impl Ring { fn sample_close(&mut self, end: u64) { self.flush(end); }\n\
                   fn flush(&mut self, _end: u64) { let s = format!(\"x\"); let _ = s; } }\n";
        let diags = lint_source("crates/obs/src/seeded.rs", src);
        assert_eq!(rules(&diags), vec![Rule::A1], "{diags:?}");
        assert_eq!(diags[0].via, vec!["Ring::sample_close", "Ring::flush"]);
        assert!(diags[0].to_string().contains("via: Ring::sample_close -> Ring::flush"));
    }

    #[test]
    fn allow_silences_a_transitive_finding_at_its_site() {
        let src = "fn step_x() { helper(); }\n\
                   fn helper() { let v: Vec<u8> = Vec::new(); let _ = v; } \
                   // ds-lint: allow(a1) scratch vec is test-only scaffolding\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_that_suppresses_nothing_is_a_finding() {
        // `helper` is not on the cycle path, so its allocation is no a1
        // finding and the allow is stale.
        let src = "// ds-lint: allow(a1) amortized by the caller\n\
                   fn helper() -> Vec<u8> { Vec::new() }\n";
        let diags = lint_source("x.rs", src);
        assert_eq!(rules(&diags), vec![Rule::Directive], "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("allow(a1) suppresses nothing"), "{diags:?}");
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src =
            "fn step() { let v: Vec<u8> = Vec::new(); } // ds-lint: allow(a1) first touch only\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_preceding_comment_line_suppresses() {
        let src = "fn step() {\n\
                   // ds-lint: allow(a1) one buffer per run, reused every cycle\n\
                   let v: Vec<u8> = Vec::new(); }\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn step() { let v: Vec<u8> = Vec::new(); } // ds-lint: allow(a1)\n";
        let diags = lint_source("x.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Directive && d.message.contains("requires a reason")),
            "{diags:?}"
        );
        // The allocation itself stays un-suppressed.
        assert!(diags.iter().any(|d| d.rule == Rule::A1));
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding_and_suppresses_nothing() {
        // `p1` is a retired rule (clippy holds it now): a leftover allow
        // naming it is unknown, and does not hide the a1 finding.
        let src = "fn step() { let v: Vec<u8> = Vec::new(); } // ds-lint: allow(p1) stale\n";
        let diags = lint_source("x.rs", src);
        assert_eq!(rules(&diags), vec![Rule::A1, Rule::Directive], "{diags:?}");
        assert!(diags[1].message.contains("unknown lint rule `p1`"), "{diags:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n\
                   fn step() { let v: Vec<u8> = Vec::new(); }\n}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_comments_and_strings_are_ignored() {
        let src = "// Vec::new would be wrong here\nfn step() { let s = \"format! vec![\"; }\n";
        assert!(lint_source("x.rs", src).is_empty());
    }
}
