//! `ds-lint`: static invariants for the DataScalar workspace.
//!
//! DataScalar correctness hinges on properties the Rust compiler cannot
//! check: every node must make *identical, deterministic* decisions in
//! commit order, or broadcasts and BSHR waits stop pairing up and the
//! machine deadlocks (see `docs/protocol.md`). These rules encode those
//! properties as source-level checks (`docs/analysis.md` is the
//! catalog):
//!
//! - **d1** — no `HashMap`/`HashSet` in the simulation crates
//!   ([`SIM_CRATES`]), and no iteration over hash-based containers.
//!   Hash iteration order is seeded per-process; any order that reaches
//!   simulated state (or replication selection, or recorded event
//!   streams) breaks node lockstep or run-to-run reproducibility.
//! - **d2** — no wall-clock (`Instant`, `SystemTime`), ambient
//!   randomness (`thread_rng`, `from_entropy`, `RandomState`) or host
//!   threading (`thread`, `Mutex`, `RwLock`, `Atomic*`) in the
//!   simulation crates. Runs must be pure functions of their inputs,
//!   computed on one thread; host parallelism lives at sweep level in
//!   `ds_bench::runner`.
//! - **p1** — no `unwrap`/`expect`/`panic!`/`unsafe` without an
//!   annotated reason in a cycle-loop hot module ([`HOT_MODULES`]) or
//!   in any simulation-crate function reachable from a cycle-loop root
//!   ([`ROOT_PREFIXES`]). A panic mid-cycle leaves sibling nodes with
//!   unconsumed broadcasts; every unwind point must be a deliberate,
//!   documented invariant.
//! - **a1** — no allocation (`Vec::new`, `vec![`, `.collect()`, ...) in
//!   any simulation-crate function reachable from a cycle-loop root,
//!   over a name-resolved call graph (`graph.rs`): a helper extracted
//!   out of `step` carries the invariant with it.
//! - **x1** — cross-file drift: every `Opcode` variant must have an
//!   exec arm in `crates/cpu/src/exec.rs` and a row in `docs/isa.md`.
//!
//! Findings are suppressed with `// ds-lint: allow(<rule>) <reason>` on
//! the offending line, or on a comment line immediately above it; for
//! generated or compat code a whole block can be bracketed with
//! `// ds-lint: allow-start(<rule>) <reason>` ... `// ds-lint:
//! allow-end(<rule>)`. The reason is mandatory; a bare allow, an
//! unclosed `allow-start`, an unmatched `allow-end`, or an allow that
//! suppresses no finding is itself a finding.

pub mod graph;
pub mod model;
pub mod scan;
pub mod tokens;

use graph::Workspace;
use model::{Fact, Site, SourceFile};
use scan::{
    brace_block, in_regions, method_calls, occurrences, strip, strip_comments, word_occurrences,
    LineIndex,
};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to (printed lowercase, matching the
/// `allow(<rule>)` directive spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-based containers / iteration in simulation crates.
    D1,
    /// Wall-clock, ambient randomness or host threading in simulation
    /// crates.
    D2,
    /// Unannotated panic paths (`unwrap`/`expect`/`panic!`/`unsafe`) in
    /// hot modules or reachable from a cycle-loop root.
    P1,
    /// Allocation reachable from a cycle-loop root.
    A1,
    /// ISA drift between `Opcode`, the exec unit, and `docs/isa.md`.
    X1,
    /// A malformed or unused `ds-lint:` directive (unknown rule,
    /// missing reason, nothing to suppress). Cannot itself be allowed.
    Directive,
}

impl Rule {
    /// The rules an `allow(<rule>)` directive may name.
    pub const ALL: [Rule; 5] = [Rule::D1, Rule::D2, Rule::P1, Rule::A1, Rule::X1];

    /// The directive spelling (`allow(d1)` etc.).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::P1 => "p1",
            Rule::A1 => "a1",
            Rule::X1 => "x1",
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
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if self.via.len() > 1 {
            write!(f, "\n    via: {}", self.via.join(" -> "))?;
        }
        Ok(())
    }
}

/// What kind of file is being linted — decides which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Part of a simulation crate ([`SIM_CRATES`]): d1, d2, a1 and the
    /// reachable half of p1 apply.
    pub sim_crate: bool,
    /// One of the cycle-loop hot modules ([`HOT_MODULES`]): p1 applies
    /// to the whole file.
    pub hot_module: bool,
}

/// One parsed suppression: findings of `rule` on lines `first..=last`
/// are allowed. A line-level `allow` covers one line, an
/// `allow-start`/`allow-end` block the bracketed region.
#[derive(Debug)]
pub struct Allow {
    /// 1-based line of the (opening) directive.
    pub at: usize,
    /// `allow` or `allow-start`, as written.
    pub kind: &'static str,
    /// The rule it suppresses.
    pub rule: Rule,
    /// First covered line.
    pub first: usize,
    /// Last covered line.
    pub last: usize,
}

const DIRECTIVE: &str = "ds-lint:";

/// Extracts the `ds-lint:` allow directives from the raw source;
/// malformed ones come back as [`Rule::Directive`] findings against
/// `file`.
///
/// Three forms are recognized:
///
/// - `ds-lint: allow(<rule>) <reason>` — suppresses findings on the
///   directive's own line, or (when the directive sits on a
///   comment-only line) on the next non-blank code line.
/// - `ds-lint: allow-start(<rule>) <reason>` — opens a block; findings
///   of `<rule>` are suppressed until the matching `allow-end`. For
///   generated or compat code where per-line annotations would drown
///   the file.
/// - `ds-lint: allow-end(<rule>)` — closes the innermost open block of
///   that rule. No reason (the start carries it).
///
/// The reason is mandatory on `allow` and `allow-start`; an unmatched
/// `allow-start` (unclosed at end of file) or `allow-end` (no open
/// block) is an error, so a stray directive cannot silently widen or
/// narrow a suppression.
pub fn parse_directives(file: &str, raw: &str, cleaned: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    // Open allow-start blocks: (start line, rule).
    let mut open: Vec<(usize, Rule)> = Vec::new();
    let raw_lines: Vec<&str> = raw.lines().collect();
    let clean_lines: Vec<&str> = cleaned.lines().collect();
    for (idx, line) in raw_lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(at) = line.find(DIRECTIVE) else {
            continue;
        };
        let rest = line[at + DIRECTIVE.len()..].trim_start();
        let bad = |msg: String| Diagnostic::new(file, lineno, Rule::Directive, msg);
        let (kind, args) = if let Some(a) = rest.strip_prefix("allow-start(") {
            ("allow-start", a)
        } else if let Some(a) = rest.strip_prefix("allow-end(") {
            ("allow-end", a)
        } else if let Some(a) = rest.strip_prefix("allow(") {
            ("allow", a)
        } else {
            errors.push(bad(format!(
                "malformed {DIRECTIVE} directive (expected `{DIRECTIVE} allow(<rule>) <reason>`, \
                 `allow-start(<rule>) <reason>` or `allow-end(<rule>)`): `{}`",
                line.trim()
            )));
            continue;
        };
        let Some(close) = args.find(')') else {
            errors.push(bad(format!("unterminated `{kind}(` directive")));
            continue;
        };
        let code = args[..close].trim();
        let Some(rule) = Rule::ALL.into_iter().find(|r| r.code() == code) else {
            errors.push(bad(format!(
                "unknown lint rule `{code}` (known: {})",
                Rule::ALL.map(Rule::code).join(" ")
            )));
            continue;
        };
        let reason = args[close + 1..].trim();
        match kind {
            "allow-end" => {
                let Some(pos) = open.iter().rposition(|(_, r)| *r == rule) else {
                    errors.push(bad(format!(
                        "allow-end({code}) without a matching allow-start({code})"
                    )));
                    continue;
                };
                let (start, rule) = open.remove(pos);
                let kind = "allow-start";
                allows.push(Allow { at: start, kind, rule, first: start, last: lineno });
            }
            _ if reason.is_empty() => {
                errors.push(bad(format!(
                    "{kind}({code}) requires a reason: `{DIRECTIVE} {kind}({code}) <why this is safe>`"
                )));
            }
            "allow-start" => open.push((lineno, rule)),
            _ => {
                // Comment-only line (nothing survives stripping) → the
                // allow applies to the next line with code on it.
                let own_code = clean_lines
                    .get(idx)
                    .map(|l| !l.trim().is_empty())
                    .unwrap_or(false);
                let target = if own_code {
                    lineno
                } else {
                    let mut t = lineno + 1;
                    while t <= clean_lines.len() && clean_lines[t - 1].trim().is_empty() {
                        t += 1;
                    }
                    t
                };
                allows.push(Allow { at: lineno, kind, rule, first: target, last: target });
            }
        }
    }
    for (start, rule) in open {
        errors.push(Diagnostic::new(
            file,
            start,
            Rule::Directive,
            format!("allow-start({rule}) is never closed: add `{DIRECTIVE} allow-end({rule})`"),
        ));
    }
    (allows, errors)
}

/// A d1/d2 candidate before allow-filtering: byte offset in the
/// cleaned text plus rule and message.
struct Candidate {
    offset: usize,
    rule: Rule,
    message: String,
}

/// Lints one file's source text as a one-file workspace. `file` is the
/// label used in diagnostics (workspace-relative path).
pub fn lint_source(file: &str, raw: &str, class: FileClass) -> Vec<Diagnostic> {
    let file = SourceFile { rel_path: file.to_string(), raw: raw.to_string(), class };
    lint(&Workspace::build(vec![file]))
}

/// Runs d1, d2, p1, a1 and the directive checks over a parsed
/// workspace; diagnostics come back sorted by file then line.
pub fn lint(w: &Workspace) -> Vec<Diagnostic> {
    let parent = w.reach(&w.roots_by_prefix(&ROOT_PREFIXES));
    let mut diags = Vec::new();
    for (file, m) in w.files.iter().zip(&w.models) {
        diags.extend(m.directive_errors.iter().cloned());
        let mut used = vec![false; m.allows.len()];
        let mut report = |offset: usize, rule: Rule, message: String, via: Vec<String>| {
            if in_regions(&m.test_regions, offset) {
                return;
            }
            let line = m.index.line_of(offset);
            let mut allowed = false;
            for (a, used) in m.allows.iter().zip(&mut used) {
                if a.rule == rule && (a.first..=a.last).contains(&line) {
                    *used = true;
                    allowed = true;
                }
            }
            if !allowed {
                diags.push(Diagnostic { file: file.rel_path.clone(), line, rule, message, via });
            }
        };
        if file.class.sim_crate {
            let mut candidates = Vec::new();
            check_d1(&m.cleaned, &mut candidates);
            check_d2(&m.cleaned, &mut candidates);
            for c in candidates {
                report(c.offset, c.rule, c.message, Vec::new());
            }
            for s in &m.sites {
                let via = s.func.filter(|&f| parent[f].is_some()).map(|f| w.chain(&parent, f));
                let hot = file.class.hot_module;
                if let Some((rule, message)) = check_site(s, via.as_deref(), hot) {
                    report(s.offset, rule, message, via.unwrap_or_default());
                }
            }
        }
        // A suppression must not outlive its finding: an allow that
        // matched no candidate above is stale.
        for (a, _) in m.allows.iter().zip(&used).filter(|(_, used)| !**used) {
            diags.push(Diagnostic::new(
                &file.rel_path,
                a.at,
                Rule::Directive,
                format!("{}({}) suppresses nothing: remove it", a.kind, a.rule),
            ));
        }
    }
    diags.sort();
    diags.dedup();
    diags
}

/// a1/p1 over one allocation/panic site: `via` is the call chain from a
/// cycle-loop root when the enclosing function is reachable. a1 fires
/// on the cycle path only; p1 there and anywhere in a hot module.
fn check_site(s: &Site, via: Option<&[String]>, hot_module: bool) -> Option<(Rule, String)> {
    let place = match via {
        Some([root, .., func]) => format!("in `{func}`, reachable from cycle-loop root `{root}`"),
        Some([root]) => format!("in cycle-loop root `{root}`"),
        _ if hot_module && s.fact == Fact::Panic => "in a cycle-loop hot module".to_string(),
        _ => return None,
    };
    let (rule, why) = match s.fact {
        Fact::Alloc => (
            Rule::A1,
            "the cycle path is allocation-free (DESIGN.md §8); hoist the buffer into the \
             owning struct, or annotate the amortization argument",
        ),
        Fact::Panic => (
            Rule::P1,
            "a mid-cycle unwind strands sibling nodes; handle the None/Err, or annotate \
             the invariant that rules it out",
        ),
    };
    Some((rule, format!("`{}` {place}: {why} (`// {DIRECTIVE} allow({rule}) <reason>`)", s.what)))
}

/// d1: hash-based containers anywhere in a simulation crate, plus
/// iteration calls on bindings declared with a hash-based type (catches
/// iteration even when the declaration itself carries an allow).
fn check_d1(cleaned: &str, out: &mut Vec<Candidate>) {
    let mut tracked: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in word_occurrences(cleaned, ty) {
            out.push(Candidate {
                offset: at,
                rule: Rule::D1,
                message: format!(
                    "`{ty}` in a simulation crate: hash iteration order is \
                     per-process and breaks node lockstep; use `LineMap`, \
                     `BTreeMap` or a sorted `Vec` (docs/protocol.md §3)"
                ),
            });
            if let Some(name) = binding_before(cleaned, at) {
                if !tracked.contains(&name) {
                    tracked.push(name);
                }
            }
        }
    }
    for name in &tracked {
        for method in [
            "iter",
            "iter_mut",
            "into_iter",
            "keys",
            "values",
            "values_mut",
            "drain",
            "retain",
        ] {
            for at in method_calls(cleaned, method) {
                if receiver_before(cleaned, at).as_deref() == Some(name) {
                    out.push(Candidate {
                        offset: at,
                        rule: Rule::D1,
                        message: format!(
                            "iteration over hash-based container `{name}` \
                             (`.{method}`): visit order is nondeterministic"
                        ),
                    });
                }
            }
        }
        // `for x in name` / `for x in &name` / `for x in &mut name`.
        for at in word_occurrences(cleaned, name) {
            let before = cleaned[..at].trim_end();
            let before = before
                .strip_suffix("&mut")
                .or_else(|| before.strip_suffix('&'))
                .unwrap_or(before)
                .trim_end();
            let seg_start = before
                .rfind([';', '{', '}'])
                .map(|p| p + 1)
                .unwrap_or(0);
            if before.ends_with(" in") && !word_occurrences(&before[seg_start..], "for").is_empty()
            {
                out.push(Candidate {
                    offset: at,
                    rule: Rule::D1,
                    message: format!(
                        "`for .. in {name}` iterates a hash-based container: \
                         visit order is nondeterministic"
                    ),
                });
            }
        }
    }
}

/// The field/binding name a type annotation belongs to: for an offset
/// pointing at `HashMap` in `seq: std::collections::HashMap<..>` this
/// walks back over the path to the `:` and returns `seq`. Also handles
/// `let seq = HashMap::new()`.
fn binding_before(cleaned: &str, ty_at: usize) -> Option<String> {
    let b = cleaned.as_bytes();
    let mut i = ty_at;
    // Walk back over a leading path (std::collections::) and whitespace.
    while i > 0 {
        let c = b[i - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b':' {
            i -= 1;
        } else {
            break;
        }
    }
    let before = cleaned[..i].trim_end();
    if let Some(stripped) = before.strip_suffix(':') {
        return last_ident(stripped);
    }
    if let Some(stripped) = before.strip_suffix('=') {
        let lhs = stripped.trim_end();
        let lhs = lhs.strip_suffix("mut").unwrap_or(lhs).trim_end();
        return last_ident(lhs);
    }
    None
}

fn last_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let start = trimmed
        .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .map(|p| p + 1)
        .unwrap_or(0);
    let ident = &trimmed[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident.to_string())
    }
}

/// The identifier immediately left of a `.method` occurrence
/// (`self.seq.iter()` → `seq`).
fn receiver_before(cleaned: &str, dot_at: usize) -> Option<String> {
    last_ident(&cleaned[..dot_at])
}

/// d2: wall-clock, ambient-randomness and host-threading tokens.
fn check_d2(cleaned: &str, out: &mut Vec<Candidate>) {
    const THREADED: &str =
        "simulation crates are single-threaded; host parallelism lives in ds_bench::runner";
    let tokens: [(&str, &str); 9] = [
        ("Instant", "wall-clock time in a simulation crate: cycle counts must not depend on host timing"),
        ("SystemTime", "wall-clock time in a simulation crate: cycle counts must not depend on host timing"),
        ("thread_rng", "ambient randomness in a simulation crate: seed explicitly so runs are reproducible"),
        ("from_entropy", "ambient randomness in a simulation crate: seed explicitly so runs are reproducible"),
        ("RandomState", "per-process hasher state in a simulation crate: breaks cross-run determinism"),
        ("thread", THREADED),
        ("Mutex", THREADED),
        ("RwLock", THREADED),
        ("Atomic*", THREADED),
    ];
    for (tok, msg) in tokens {
        for at in word_occurrences(cleaned, tok) {
            out.push(Candidate {
                offset: at,
                rule: Rule::D2,
                message: format!("`{tok}`: {msg}"),
            });
        }
    }
    for at in occurrences(cleaned, "rand::random") {
        out.push(Candidate {
            offset: at,
            rule: Rule::D2,
            message: "`rand::random`: ambient randomness in a simulation crate".to_string(),
        });
    }
}

/// One `(Variant, 0xNN, "mnemonic")` row of the `opcodes!` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpcodeEntry {
    /// Enum variant name (`Add`).
    pub variant: String,
    /// Assembler mnemonic (`add`, `fcvt.d.w`).
    pub mnemonic: String,
    /// 1-based line of the entry in the opcode source.
    pub line: usize,
}

/// Parses the `opcodes! { (Name, 0xNN, "mnem"), ... }` macro invocation.
pub fn parse_opcode_table(opcode_src: &str) -> Vec<OpcodeEntry> {
    let text = strip_comments(opcode_src);
    let index = LineIndex::new(&text);
    let Some(at) = text.find("opcodes!") else {
        return Vec::new();
    };
    let Some((open, close)) = brace_block(&text, at) else {
        return Vec::new();
    };
    let body = &text[open + 1..close];
    let base = open + 1;
    let mut entries = Vec::new();
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'(' {
            i += 1;
            continue;
        }
        let entry_at = base + i;
        i += 1;
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        let variant = body[name_start..i].to_string();
        // Skip to the mnemonic string within this entry.
        let mut mnemonic = None;
        while i < b.len() && b[i] != b')' {
            if b[i] == b'"' {
                let lit_start = i + 1;
                let mut j = lit_start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                mnemonic = Some(body[lit_start..j].to_string());
                i = j;
            }
            i += 1;
        }
        if let (false, Some(mnemonic)) = (variant.is_empty(), mnemonic) {
            entries.push(OpcodeEntry {
                variant,
                mnemonic,
                line: index.line_of(entry_at),
            });
        }
    }
    entries
}

/// x1: every opcode variant must appear as an ident token in the exec
/// unit, and every mnemonic must appear (token-delimited) in the ISA
/// doc. Paths are only used for diagnostics.
pub fn check_isa_drift(
    opcode_path: &str,
    opcode_src: &str,
    exec_path: &str,
    exec_src: &str,
    doc_path: &str,
    doc_src: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let entries = parse_opcode_table(opcode_src);
    if entries.is_empty() {
        diags.push(Diagnostic::new(
            opcode_path,
            1,
            Rule::X1,
            "could not parse any (Variant, opcode, \"mnemonic\") rows from the opcodes! table"
                .to_string(),
        ));
        return diags;
    }
    let exec_clean = strip(exec_src);
    for e in &entries {
        if word_occurrences(&exec_clean, &e.variant).is_empty() {
            diags.push(Diagnostic::new(
                opcode_path,
                e.line,
                Rule::X1,
                format!(
                    "opcode `{}` has no exec arm in {exec_path}: the functional core \
                     would hit the unreachable fallback",
                    e.variant
                ),
            ));
        }
        if !doc_contains_mnemonic(doc_src, &e.mnemonic) {
            diags.push(Diagnostic::new(
                opcode_path,
                e.line,
                Rule::X1,
                format!(
                    "opcode `{}` (mnemonic `{}`) is not documented in {doc_path}",
                    e.variant, e.mnemonic
                ),
            ));
        }
    }
    diags
}

/// True if `doc` contains `mnemonic` delimited by non-identifier
/// characters. `.` is allowed *inside* the needle (dotted mnemonics like
/// `fcvt.d.w`) but identifier characters may not abut it, so `lw` does
/// not match inside `lwu`.
fn doc_contains_mnemonic(doc: &str, mnemonic: &str) -> bool {
    let b = doc.as_bytes();
    let mut from = 0;
    while let Some(pos) = doc[from..].find(mnemonic) {
        let at = from + pos;
        let end = at + mnemonic.len();
        let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let after_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// The simulation crates every rule but x1 polices. `trace` is
/// included because replication selection feeds simulated state (a
/// hash-ordered page profile once produced run-to-run drift); `obs`
/// because recorded event streams must replay identically.
pub const SIM_CRATES: [&str; 6] = ["core", "cpu", "mem", "net", "trace", "obs"];

/// The cycle-loop hot modules p1 polices in full (workspace-relative).
/// engine.rs is the one run loop; chaos.rs and watchdog.rs are hot because the fault injector runs at
/// every fabric delivery and the forward-progress check at every
/// cycle of a faulted run.
pub const HOT_MODULES: [&str; 13] = [
    "crates/core/src/engine.rs",
    "crates/core/src/system.rs",
    "crates/core/src/node.rs",
    "crates/core/src/pending.rs",
    "crates/core/src/watchdog.rs",
    "crates/cpu/src/ooo/mod.rs",
    "crates/cpu/src/ooo/window.rs",
    "crates/net/src/fabric.rs",
    "crates/net/src/chaos.rs",
    "crates/obs/src/account.rs",
    "crates/obs/src/critpath.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/timeline.rs",
];

/// Function-name prefixes that root the cycle path a1 and p1 police:
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

/// The files x1 cross-checks: the `opcodes!` table, the exec unit and
/// the ISA doc (workspace-relative).
pub const X1_PATHS: [&str; 3] =
    ["crates/isa/src/opcode.rs", "crates/cpu/src/exec.rs", "docs/isa.md"];

/// What [`lint_tree`] found, plus the size of what it looked at.
pub struct Report {
    /// Every finding, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Source files parsed.
    pub files: usize,
    /// Functions in the symbol table.
    pub functions: usize,
    /// Cycle-loop roots the call-graph rules started from.
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
                Ok(raw) => {
                    let class = FileClass {
                        sim_crate: true,
                        hot_module: HOT_MODULES.contains(&rel_path.as_str()),
                    };
                    files.push(SourceFile { rel_path, raw, class });
                }
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

/// Lints the whole workspace rooted at `root`: every rule, x1 included.
pub fn lint_tree(root: &Path) -> Report {
    let mut diags = Vec::new();
    let w = Workspace::build(load_sources(root, &mut diags));
    diags.extend(lint(&w));

    let [opcode_path, exec_path, doc_path] = X1_PATHS;
    let mut read = |rel: &str| -> Option<String> {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => Some(s),
            Err(e) => {
                diags.push(Diagnostic::new(
                    rel,
                    1,
                    Rule::X1,
                    format!("required for ISA drift check but unreadable: {e}"),
                ));
                None
            }
        }
    };
    if let (Some(opcode_src), Some(exec_src), Some(doc_src)) =
        (read(opcode_path), read(exec_path), read(doc_path))
    {
        diags.extend(check_isa_drift(
            opcode_path,
            &opcode_src,
            exec_path,
            &exec_src,
            doc_path,
            &doc_src,
        ));
    }

    diags.sort();
    diags.dedup();
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

    const SIM: FileClass = FileClass {
        sim_crate: true,
        hot_module: false,
    };
    const HOT: FileClass = FileClass {
        sim_crate: true,
        hot_module: true,
    };

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d1_flags_hashmap_presence_and_iteration() {
        let src = "struct S { seq: std::collections::HashMap<u64, u64> }\n\
                   impl S { fn f(&self) { for (k, v) in self.seq.iter() {} } }\n";
        let diags = lint_source("x.rs", src, SIM);
        assert!(diags.iter().any(|d| d.rule == Rule::D1 && d.line == 1));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::D1 && d.line == 2 && d.message.contains("seq")),
            "iteration finding expected: {diags:?}"
        );
    }

    #[test]
    fn d1_flags_for_in_loops_over_tracked_names() {
        let src = "fn f() { let waits = std::collections::HashSet::new();\n\
                   for w in &waits { use_it(w); } }\n";
        let diags = lint_source("x.rs", src, SIM);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::D1 && d.line == 2 && d.message.contains("for .. in")),
            "{diags:?}"
        );
    }

    #[test]
    fn d1_silent_outside_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("x.rs", src, FileClass::default()).is_empty());
    }

    #[test]
    fn d2_flags_clock_and_randomness() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::random::<u8>(); }\n";
        let got = rules(&lint_source("x.rs", src, SIM));
        assert_eq!(got, vec![Rule::D2, Rule::D2]);
    }

    #[test]
    fn d2_flags_host_threading_unless_allowed() {
        let seeded = "use std::sync::{Mutex, RwLock};\n\
                      fn f(n: &AtomicU64) { std::thread::scope(|_| {}); }\n";
        let diags = lint_source("x.rs", seeded, SIM);
        assert_eq!(rules(&diags), vec![Rule::D2; 4], "{diags:?}");
        assert!(diags.iter().all(|d| d.message.contains("single-threaded")), "{diags:?}");
        // The allowed twin, and names that merely contain a token.
        let twin = "// ds-lint: allow(d2) fixture: guards a host-side cache, never simulated state\n\
                    static HITS: AtomicU64 = AtomicU64::new(0);\n\
                    fn datathread_len(threads: usize) -> usize { threads }\n";
        assert!(lint_source("x.rs", twin, SIM).is_empty());
        assert!(lint_source("x.rs", seeded, FileClass::default()).is_empty());
    }

    #[test]
    fn p1_flags_panic_paths_in_hot_modules_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g() { panic!(\"boom\"); }\n\
                   fn h(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let hot = lint_source("x.rs", src, HOT);
        assert_eq!(rules(&hot), vec![Rule::P1, Rule::P1], "{hot:?}");
        assert!(lint_source("x.rs", src, SIM).is_empty());
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
            let diags = lint_source("x.rs", &src, SIM);
            assert_eq!(rules(&diags), vec![Rule::A1, Rule::A1], "{prefix}: {diags:?}");
            assert_eq!((diags[0].line, diags[1].line), (1, 2), "{prefix}");
            assert_eq!(diags[1].via, vec![format!("{prefix}_x"), format!("below_{prefix}")]);
        }
        // Names that merely resemble a root prefix, and report-time
        // helpers, allocate freely — as does everything below them.
        for name in
            ["next_evening", "edgy_but_not_hot", "resample_offline", "uninjected", "chart", "helper"]
        {
            let src = format!(
                "fn {name}(&mut self) {{ let v: Vec<u8> = Vec::new(); below(); }}\n\
                 fn below() {{ let xs: Vec<u8> = (0..4).collect(); }}\n"
            );
            assert!(lint_source("x.rs", &src, HOT).is_empty(), "{name}");
        }
    }

    #[test]
    fn sample_roots_reach_helpers_below_them() {
        // The `sample*` prefix joined ROOT_PREFIXES with the interval
        // sampler and must keep rooting the transitive sweep.
        let src = "impl Ring { fn sample_close(&mut self, end: u64) { self.flush(end); }\n\
                   fn flush(&mut self, _end: u64) { let s = format!(\"x\"); let _ = s; } }\n";
        let diags = lint_source("crates/obs/src/seeded.rs", src, SIM);
        assert_eq!(rules(&diags), vec![Rule::A1], "{diags:?}");
        assert_eq!(diags[0].via, vec!["Ring::sample_close", "Ring::flush"]);
        assert!(diags[0].to_string().contains("via: Ring::sample_close -> Ring::flush"));
    }

    #[test]
    fn p1_site_both_hot_and_reachable_is_reported_once() {
        let src = "fn step(&mut self) { self.head().unwrap(); }\n";
        let diags = lint_source("x.rs", src, HOT);
        assert_eq!(rules(&diags), vec![Rule::P1], "{diags:?}");
        assert_eq!(diags[0].via, vec!["step"]);
    }

    #[test]
    fn allow_silences_a_transitive_finding_at_its_site() {
        let src = "fn step_x() { helper(); }\n\
                   fn helper() { let v: Vec<u8> = Vec::new(); let _ = v; } \
                   // ds-lint: allow(a1) scratch vec is test-only scaffolding\n";
        assert!(lint_source("x.rs", src, SIM).is_empty());
    }

    #[test]
    fn allow_that_suppresses_nothing_is_a_finding() {
        // `helper` is neither in a hot module nor on the cycle path, so
        // its unwrap is no p1 finding and the allow is stale.
        let src = "// ds-lint: allow(p1) checked by the caller\n\
                   fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let diags = lint_source("x.rs", src, SIM);
        assert_eq!(rules(&diags), vec![Rule::Directive], "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("allow(p1) suppresses nothing"), "{diags:?}");
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "struct S { m: HashMap<u64, u64> } // ds-lint: allow(d1) probe-only, never iterated\n";
        assert!(lint_source("x.rs", src, SIM).is_empty());
    }

    #[test]
    fn allow_on_preceding_comment_line_suppresses() {
        let src = "// ds-lint: allow(p1) head checked non-empty by caller\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source("x.rs", src, HOT).is_empty());
    }

    #[test]
    fn allow_block_suppresses_whole_region() {
        let src = "// ds-lint: allow-start(p1) generated table: every arm proven total upstream\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.expect(\"y\") }\n\
                   // ds-lint: allow-end(p1)\n\
                   fn h(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let diags = lint_source("x.rs", src, HOT);
        assert_eq!(rules(&diags), vec![Rule::P1], "{diags:?}");
        assert_eq!(diags[0].line, 5, "only the line after allow-end fires");
    }

    #[test]
    fn allow_block_is_rule_scoped() {
        let src = "// ds-lint: allow-start(d1) compat shim mirrors upstream layout\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   // ds-lint: allow-end(d1)\n";
        let diags = lint_source("x.rs", src, HOT);
        assert_eq!(rules(&diags), vec![Rule::Directive, Rule::P1], "d1 block must not hide p1");
        assert!(diags[0].message.contains("allow-start(d1) suppresses nothing"), "{diags:?}");
    }

    #[test]
    fn unclosed_allow_start_is_a_finding() {
        let src = "// ds-lint: allow-start(p1) reason here\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let diags = lint_source("x.rs", src, HOT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Directive && d.message.contains("never closed")),
            "{diags:?}"
        );
    }

    #[test]
    fn unmatched_allow_end_is_a_finding() {
        let src = "fn f() {}\n// ds-lint: allow-end(p1)\n";
        let diags = lint_source("x.rs", src, HOT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Directive && d.message.contains("without a matching")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_start_without_reason_is_a_finding() {
        let src = "// ds-lint: allow-start(p1)\nfn f() {}\n// ds-lint: allow-end(p1)\n";
        let diags = lint_source("x.rs", src, HOT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Directive && d.message.contains("requires a reason")),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // ds-lint: allow(p1)\n";
        let diags = lint_source("x.rs", src, HOT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Directive && d.message.contains("requires a reason")),
            "{diags:?}"
        );
        // The unwrap itself stays un-suppressed.
        assert!(diags.iter().any(|d| d.rule == Rule::P1));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // ds-lint: allow(d1) wrong rule\n";
        let diags = lint_source("x.rs", src, HOT);
        assert_eq!(rules(&diags), vec![Rule::P1, Rule::Directive]);
        assert!(diags[1].message.contains("allow(d1) suppresses nothing"), "{diags:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let src = "// ds-lint: allow(zz) nonsense\nfn f() {}\n";
        let diags = lint_source("x.rs", src, HOT);
        assert!(diags[0].message.contains("unknown lint rule"));
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n\
                   fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_source("x.rs", src, HOT).is_empty());
    }

    #[test]
    fn tokens_in_comments_and_strings_are_ignored() {
        let src = "// HashMap would be wrong here\nfn f() { let s = \"panic! Instant\"; }\n";
        assert!(lint_source("x.rs", src, HOT).is_empty());
    }

    const OPCODES: &str = r#"
opcodes! {
    (Add, 0x01, "add"),
    (FcvtDW, 0x2c, "fcvt.d.w"),
    (Nop, 0x51, "nop"),
}
"#;

    #[test]
    fn parse_opcode_table_reads_rows() {
        let entries = parse_opcode_table(OPCODES);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[1].variant, "FcvtDW");
        assert_eq!(entries[1].mnemonic, "fcvt.d.w");
    }

    #[test]
    fn x1_flags_missing_exec_arm_and_doc_row() {
        let exec = "match op { Opcode::Add => {}, Opcode::Nop => {} }";
        let doc = "| `add` | adds | and `nop` does nothing; also fcvt.d.w converts |";
        let diags = check_isa_drift("op.rs", OPCODES, "exec.rs", exec, "isa.md", doc);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("FcvtDW"));
        assert!(diags[0].message.contains("no exec arm"));

        let doc_missing = "| `add` | adds |";
        let exec_full = "match op { Opcode::Add | Opcode::FcvtDW | Opcode::Nop => {} }";
        let diags = check_isa_drift("op.rs", OPCODES, "exec.rs", exec_full, "isa.md", doc_missing);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.message.contains("not documented")));
    }

    #[test]
    fn x1_mnemonic_matching_respects_token_boundaries() {
        assert!(doc_contains_mnemonic("`lw lwu ld`", "lw"));
        assert!(!doc_contains_mnemonic("`lwu`", "lw"));
        assert!(doc_contains_mnemonic("fcvt.d.w fd, rs1", "fcvt.d.w"));
        assert!(!doc_contains_mnemonic("xfcvt.d.wx", "fcvt.d.w"));
    }
}
