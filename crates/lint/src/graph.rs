//! Workspace assembly and the call graph: name-based call resolution
//! plus breadth-first reachability from the cycle-loop roots.
//!
//! Resolution is deliberately an over-approximation (any workspace
//! function with a matching name and shape is a candidate callee).
//! That direction of error is the safe one for the transitive
//! invariants: a spurious edge can only *add* a finding — which the
//! diagnostic's printed call chain makes easy to recognize and, when
//! legitimate, suppress — while a type-accurate-but-incomplete
//! resolver could silently drop the one edge that smuggles an
//! allocation into the cycle loop.

use crate::model::{parse_file, CallKind, FileModel, FnDef, SourceFile};
use std::collections::BTreeMap;

/// The parsed workspace: files, models, and the function table.
pub struct Workspace {
    /// Input files, index-aligned with `models`.
    pub files: Vec<SourceFile>,
    /// Parsed per-file models.
    pub models: Vec<FileModel>,
    /// Every function definition, across all files.
    pub fns: Vec<FnDef>,
    /// name → methods (impl fns with a `self` parameter).
    methods: BTreeMap<String, Vec<usize>>,
    /// (owner, name) → associated fns (impl fns, any self-ness).
    assoc: BTreeMap<(String, String), Vec<usize>>,
    /// name → free fns.
    free: BTreeMap<String, Vec<usize>>,
    /// All known impl type names.
    owners: Vec<String>,
}

impl Workspace {
    /// Parses `files` into a workspace model.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let mut fns = Vec::new();
        let mut models = Vec::new();
        for (idx, f) in files.iter().enumerate() {
            models.push(parse_file(f, idx, &mut fns));
        }
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut owners: Vec<String> = Vec::new();
        for f in &fns {
            match &f.owner {
                Some(o) => {
                    assoc.entry((o.clone(), f.name.clone())).or_default().push(f.id);
                    if f.has_self {
                        methods.entry(f.name.clone()).or_default().push(f.id);
                    }
                    if !owners.contains(o) {
                        owners.push(o.clone());
                    }
                }
                None => free.entry(f.name.clone()).or_default().push(f.id),
            }
        }
        Workspace { files, models, fns, methods, assoc, free, owners }
    }

    /// Candidate callees of one call site inside `caller`.
    pub fn resolve(&self, caller: &FnDef, name: &str, kind: &CallKind) -> &[usize] {
        const NONE: &[usize] = &[];
        match kind {
            CallKind::Method => self.methods.get(name).map_or(NONE, |v| v),
            CallKind::Qualified(q) => {
                let owner = if q == "Self" {
                    match &caller.owner {
                        Some(o) => o.as_str(),
                        None => return NONE,
                    }
                } else {
                    q.as_str()
                };
                if let Some(v) = self.assoc.get(&(owner.to_string(), name.to_string())) {
                    return v;
                }
                // Unknown qualifier (std type, module path): the last
                // path segment may still be a workspace free fn
                // (`crate::node::stall_bucket`).
                if !self.owners.iter().any(|o| o == owner) {
                    return self.free.get(name).map_or(NONE, |v| v);
                }
                NONE
            }
            CallKind::Bare => self.free.get(name).map_or(NONE, |v| v),
        }
    }

    /// Breadth-first reachability from `roots` (fn ids). Returns, for
    /// every function, `Some(parent)` when reachable via `parent`
    /// (roots map to `Some(own id)`), `None` when unreachable.
    pub fn reach(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            // Clone-free iteration: calls are read-only, resolution
            // borrows self immutably.
            for c in &self.fns[f].calls {
                for &callee in self.resolve(&self.fns[f], &c.name, &c.kind) {
                    if parent[callee].is_none() {
                        parent[callee] = Some(f);
                        queue.push_back(callee);
                    }
                }
            }
        }
        parent
    }

    /// The call chain `root -> ... -> target` as qualified names, from
    /// a parent map produced by [`Workspace::reach`].
    pub fn chain(&self, parent: &[Option<usize>], target: usize) -> Vec<String> {
        let mut ids = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            ids.push(p);
            cur = p;
        }
        ids.reverse();
        ids.iter().map(|&i| self.fns[i].qualified()).collect()
    }

    /// Function ids whose name starts with any of `prefixes`.
    pub fn roots_by_prefix(&self, prefixes: &[&str]) -> Vec<usize> {
        self.fns
            .iter()
            .filter(|f| prefixes.iter().any(|p| f.name.starts_with(p)))
            .map(|f| f.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![SourceFile {
            rel_path: "crates/core/src/x.rs".into(),
            raw: src.into(),
            class: crate::FileClass { sim_crate: true, hot_module: false },
        }])
    }

    #[test]
    fn reachability_follows_bare_method_and_qualified_calls() {
        let src = "impl Node { fn step(&mut self) { self.helper(); } \n\
                   fn helper(&mut self) { free_fn(); } }\n\
                   fn free_fn() { Other::assoc(); }\n\
                   impl Other { fn assoc() { } fn unrelated(&self) { } }\n";
        let w = ws(src);
        let roots = w.roots_by_prefix(&["step"]);
        assert_eq!(roots.len(), 1);
        let parent = w.reach(&roots);
        let reached: Vec<String> = w
            .fns
            .iter()
            .filter(|f| parent[f.id].is_some())
            .map(|f| f.qualified())
            .collect();
        assert_eq!(
            reached,
            vec!["Node::step", "Node::helper", "free_fn", "Other::assoc"]
        );
        let assoc = w.fns.iter().find(|f| f.name == "assoc").unwrap().id;
        assert_eq!(
            w.chain(&parent, assoc),
            vec!["Node::step", "Node::helper", "free_fn", "Other::assoc"]
        );
    }

    #[test]
    fn method_calls_over_approximate_across_owners() {
        let src = "impl A { fn step(&self) { x.poke(); } }\n\
                   impl B { fn poke(&self) { } }\n\
                   impl C { fn poke(&self) { } }\n";
        let w = ws(src);
        let parent = w.reach(&w.roots_by_prefix(&["step"]));
        let reached = parent.iter().filter(|p| p.is_some()).count();
        assert_eq!(reached, 3, "both poke candidates are edges");
    }

    #[test]
    fn unknown_qualifiers_fall_back_to_free_fns() {
        let src = "fn step() { crate::util::helper(); Vec::with_capacity(4); }\n\
                   fn helper() { }\n";
        let w = ws(src);
        let parent = w.reach(&w.roots_by_prefix(&["step"]));
        let helper = w.fns.iter().find(|f| f.name == "helper").unwrap().id;
        assert!(parent[helper].is_some());
    }
}
