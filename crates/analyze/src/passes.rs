//! The interprocedural passes.
//!
//! - **A / ta1** — transitive allocation-freedom: every function
//!   reachable from a cycle-loop root must be allocation-free.
//! - **B / tp1, td2** — transitive panic-reachability and
//!   nondeterminism / host-threading taint from the same roots.
//!
//! The passes share one reachability computation; every finding
//! carries the shortest root → function call chain so the reader can
//! see *how* the cycle loop gets there, not just that it does.

use crate::graph::Workspace;
use crate::model::Fact;
use crate::{ARule, Finding};

/// Function-name prefixes that root the transitive passes — the same
/// family ds-lint's intraprocedural a1 polices: the per-cycle stepping
/// entry points (`step*`/`tick*`), the probe's per-event record path
/// (`record*`), per-cycle stall accounting (`charge*`), the
/// event-horizon engine (`next_event*`/`advance_to*`), the
/// critical-path analyzer's per-retirement edge recording (`edge*`;
/// its report-time walk allocates on purpose and therefore carries a
/// non-root name, `path_report`), the timeline sampler's
/// per-boundary snapshot close (`sample*`/`interval*`; its report-time
/// helpers likewise carry non-root names, `report` and `merged`), and
/// the ds-chaos per-cycle paths (`inject*`/`fault*`/`watchdog*` — the
/// fault injector's delivery rewrite and rule matching plus the
/// forward-progress check; the deadlock-report builder allocates at
/// abort time and carries the non-root name `build_deadlock_report`).
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

/// Passes A and B: one finding per (rule, function) with the shortest
/// call chain from a root.
pub fn transitive_passes(w: &Workspace) -> Vec<Finding> {
    let roots = w.roots_by_prefix(&ROOT_PREFIXES);
    let parent = w.reach(&roots);
    let mut out = Vec::new();
    for f in &w.fns {
        if parent[f.id].is_none() {
            continue;
        }
        for (fact, rule) in
            [(Fact::Alloc, ARule::Ta1), (Fact::Panic, ARule::Tp1), (Fact::Taint, ARule::Td2)]
        {
            let sites: Vec<_> =
                f.sites.iter().filter(|s| s.fact == fact && !s.suppressed).collect();
            let Some(first) = sites.first() else {
                continue;
            };
            let chain = w.chain(&parent, f.id);
            let more = if sites.len() > 1 {
                format!(" (+{} more site{})", sites.len() - 1, plural(sites.len() - 1))
            } else {
                String::new()
            };
            let message = match rule {
                ARule::Ta1 => format!(
                    "`{}` in `{}` is reachable from cycle-loop root `{}`{more}: the cycle \
                     path is allocation-free (docs/analysis.md ta1); hoist the buffer, or \
                     annotate/baseline with the amortization argument",
                    first.what,
                    f.qualified(),
                    chain[0],
                ),
                ARule::Tp1 => format!(
                    "`{}` in `{}` is panic-reachable from cycle-loop root `{}`{more}: a \
                     mid-cycle unwind strands sibling nodes; annotate the invariant that \
                     makes it unreachable",
                    first.what,
                    f.qualified(),
                    chain[0],
                ),
                _ => format!(
                    "`{}` in `{}` taints cycle-loop root `{}` with nondeterminism{more}: \
                     runs must be pure functions of program + configuration",
                    first.what,
                    f.qualified(),
                    chain[0],
                ),
            };
            out.push(Finding {
                rule,
                file: w.files[f.file].rel_path.clone(),
                line: first.line,
                func: f.qualified(),
                message,
                chain: chain.clone(),
                baselined: false,
            });
        }
    }
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
