//! Spans around the calls into each layer.
//!
//! Recorded from the benchmark's own files only, kept in memory, and
//! written out once at exit. Every span carries its parent, the
//! workload and the rep it belongs to, so the spans of one rep share an
//! identifier; counts are attached at the same boundaries. Spans
//! inside `DsSystem::run` are a later issue.

use crate::json::{count, n, obj, s, Value};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the tracer (also its identifier in `trace.json`).
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Boundary name (`system.run`, `driver.mem.cache`, ...).
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Rep (or driver batch) number within the workload.
    pub rep: u64,
    /// Counts observed at this boundary.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one workload's traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u64,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the rep number stamped on spans begun from now on.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            rep: self.rep,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the
    /// benchmark, not a measurement outcome.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Attaches a count to a span.
    pub fn count(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].counts.push((key.to_string(), value));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `trace.json`'s rows for this workload.
    pub fn to_json(&self) -> Vec<Value> {
        self.spans
            .iter()
            .map(|sp| {
                obj([
                    ("id", count(sp.id as u64)),
                    ("parent", sp.parent.map_or(Value::Null, |p| count(p as u64))),
                    ("workload", s(self.workload.as_str())),
                    ("rep", count(sp.rep)),
                    ("name", s(sp.name.as_str())),
                    ("start_ns", count(sp.start_ns)),
                    ("end_ns", count(sp.end_ns)),
                    ("self_ns", count(self_ns(&self.spans, sp.id))),
                    (
                        "counts",
                        obj(sp.counts.iter().map(|(k, v)| (k.as_str(), n(*v)))),
                    ),
                ])
            })
            .collect()
    }
}

/// A span's self time: its duration minus what its direct children
/// cover (children of one parent never overlap: one thread, strictly
/// nested begin/end).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            rep: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(
            self_ns(&spans, 0),
            100 - 30 - 40,
            "grandchildren are not counted twice"
        );
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 2), 40 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn tracer_links_parents_and_stamps_reps() {
        let mut t = Tracer::new("w");
        t.set_rep(3);
        let outer = t.begin("rep");
        let inner = t.begin("system.run");
        t.count(inner, "committed", 42.0);
        t.end(inner);
        t.end(outer);
        let next = t.begin("check");
        t.end(next);
        let sp = t.spans();
        assert_eq!(
            (sp[0].parent, sp[1].parent, sp[2].parent),
            (None, Some(0), None)
        );
        assert!(sp.iter().all(|x| x.rep == 3 && x.end_ns >= x.start_ns));
        assert!(sp[1].start_ns >= sp[0].start_ns && sp[1].end_ns <= sp[0].end_ns);
        let rows = t.to_json();
        assert_eq!(rows[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            rows[1]
                .get("counts")
                .and_then(|c| c.get("committed"))
                .and_then(Value::as_f64),
            Some(42.0)
        );
        assert_eq!(rows[0].get("parent"), Some(&Value::Null));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new("w");
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
