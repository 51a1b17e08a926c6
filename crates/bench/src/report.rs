//! What an experiment has to say, stated once: a [`Report`] is both the
//! text `ds-bench <experiment>` prints and the `--json <path>` document.
//!
//! An experiment writes its lines and tables into the report in print
//! order. `Display` is the stdout (committed under `results/` and
//! checked byte-for-byte by `scripts/regen_results.sh --check`);
//! [`Report::render`] is the versioned JSON document. The schema,
//! `ds-bench-result/v1`, is documented in `docs/observability.md`:
//! table cells are the exact strings of the text output (no
//! re-rounding, so text and JSON can never disagree), plus free-form
//! named numbers, notes, and — on instrumented builds (`--features
//! obs`) — labelled critical-path edge-class attributions under
//! `critpath`.

use crate::Budget;
use ds_obs::{CritPathReport, EdgeClass, StallBucket, TimelineReport};
use ds_stats::Table;

/// The schema identifier emitted in every document.
pub const SCHEMA: &str = "ds-bench-result/v1";

/// One labelled critical-path attribution entry: the per-class shares
/// and window health of a [`CritPathReport`], flattened for the JSON
/// `critpath` member. Shares are of the *attributed* span, so they sum
/// to 1.0 whenever any cycles were attributed.
#[derive(Debug, Clone, Copy)]
struct CritEntry {
    shares: [f64; ds_obs::critpath::EDGE_CLASS_COUNT],
    attributed_cycles: u64,
    dropped: u64,
    comm_edges: u64,
    comm_edge_max: u64,
}

/// One piece of an experiment's stdout, in print order.
#[derive(Debug, Clone)]
enum Text {
    Line(String),
    Table { title: String, table: Table },
}

/// One experiment's output: its stdout and its JSON document.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: &'static str,
    budget: Option<Budget>,
    text: Vec<Text>,
    numbers: Vec<(String, f64)>,
    notes: Vec<String>,
    critpath: Vec<(String, CritEntry)>,
    timeline: Vec<(String, TimelineReport)>,
}

impl Report {
    /// Starts a report for `experiment` (its registry name; the
    /// document's `binary` member).
    pub fn new(experiment: &'static str) -> Self {
        Report {
            experiment,
            budget: None,
            text: Vec::new(),
            numbers: Vec::new(),
            notes: Vec::new(),
            critpath: Vec::new(),
            timeline: Vec::new(),
        }
    }

    /// Records the instruction budget the run used.
    pub fn budget(&mut self, b: Budget) -> &mut Self {
        self.budget = Some(b);
        self
    }

    /// How a budgeted experiment opens: records the budget, prints the
    /// title and a blank line.
    pub fn heading(&mut self, budget: Budget, title: impl Into<String>) -> &mut Self {
        self.budget(budget).line(title).line("")
    }

    /// Prints one line (`text` may itself span several).
    pub fn line(&mut self, text: impl Into<String>) -> &mut Self {
        self.text.push(Text::Line(text.into()));
        self
    }

    /// Prints `table`, followed by a blank line, and mirrors it into
    /// the document under `title`.
    pub fn table(&mut self, title: &str, table: Table) -> &mut Self {
        self.text.push(Text::Table { title: title.to_string(), table });
        self
    }

    /// Adds a named scalar (derived metrics like means or ratios) to the
    /// document; not printed.
    pub fn number(&mut self, name: &str, value: f64) -> &mut Self {
        self.numbers.push((name.to_string(), value));
        self
    }

    /// Adds a free-form note (provenance, caveats) to the document; not
    /// printed.
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.notes.push(text.to_string());
        self
    }

    /// Adds one labelled critical-path attribution (e.g. `"compress/ds2"`)
    /// to the document's `critpath` member. Pass the
    /// [`CritPathReport`] off `RunResult::metrics`; obs-off builds have
    /// no metrics, so the member simply stays empty there.
    pub fn critpath(&mut self, label: &str, r: &CritPathReport) -> &mut Self {
        let mut shares = [0.0; ds_obs::critpath::EDGE_CLASS_COUNT];
        for (i, c) in EdgeClass::ALL.iter().enumerate() {
            shares[i] = r.class_share(*c);
        }
        let (mut comm_edges, mut comm_edge_max) = (0u64, 0u64);
        for n in &r.nodes {
            comm_edges += n.comm_edges;
            comm_edge_max = comm_edge_max.max(n.comm_edge_max);
        }
        self.critpath.push((
            label.to_string(),
            CritEntry {
                shares,
                attributed_cycles: r.attributed_total(),
                dropped: r.dropped_total(),
                comm_edges,
                comm_edge_max,
            },
        ));
        self
    }

    /// Adds one labelled interval timeline (e.g. `"compress/ds2"`) to
    /// the document's `timeline` member. Pass the [`TimelineReport`]
    /// off `RunResult::metrics`; obs-off builds have no metrics, so the
    /// member simply stays empty there.
    pub fn timeline(&mut self, label: &str, t: &TimelineReport) -> &mut Self {
        self.timeline.push((label.to_string(), t.clone()));
        self
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_str_field(&mut out, "schema", SCHEMA);
        out.push(',');
        push_str_field(&mut out, "binary", self.experiment);
        out.push(',');
        out.push_str("\"budget\":");
        match self.budget {
            Some(b) => {
                out.push_str(&format!(
                    "{{\"max_insts\":{},\"scale\":\"{:?}\"}}",
                    b.max_insts, b.scale
                ));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"tables\":[");
        let tables = self.text.iter().filter_map(|item| match item {
            Text::Table { title, table } => Some((title, table)),
            Text::Line(_) => None,
        });
        for (i, (title, t)) in tables.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "title", title);
            out.push_str(",\"headers\":[");
            push_str_list(&mut out, t.headers());
            out.push_str("],\"rows\":[");
            for (j, row) in t.rows().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                push_str_list(&mut out, row);
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"numbers\":{");
        for (i, (name, v)) in self.numbers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(name));
            out.push(':');
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("},\"notes\":[");
        push_str_list(&mut out, &self.notes);
        out.push_str("],\"critpath\":{");
        for (i, (label, e)) in self.critpath.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(label));
            out.push_str(":{");
            for (j, c) in EdgeClass::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{:.6}", c.label(), e.shares[j]));
            }
            out.push_str(&format!(
                ",\"attributed_cycles\":{},\"dropped\":{},\"comm_edges\":{},\
                 \"comm_edge_max\":{}}}",
                e.attributed_cycles, e.dropped, e.comm_edges, e.comm_edge_max
            ));
        }
        out.push_str("},\"timeline\":{");
        for (i, (label, t)) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(label));
            out.push(':');
            push_timeline(&mut out, t);
        }
        out.push_str("}}");
        out
    }
}

/// The experiment's stdout, byte for byte.
impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for item in &self.text {
            match item {
                Text::Line(s) => writeln!(f, "{s}")?,
                Text::Table { table, .. } => writeln!(f, "{table}")?,
            }
        }
        Ok(())
    }
}

/// The operand of `flag` in argv (`--json out.json` → `Some("out.json")`).
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Renders one [`TimelineReport`] as a JSON object. Interval rows are
/// compact numeric arrays in the fixed layout
/// `[start, len, committed, sends, arrives, bshr_occ_hw, skipped,
/// bucket0..bucket10]` (18 numbers; bucket order is
/// [`StallBucket::ALL`]) — documented in docs/observability.md and
/// checked by `obs_validate`.
fn push_timeline(out: &mut String, t: &TimelineReport) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"interval_cycles\":{},\"nodes\":[", t.interval_cycles);
    for (i, node) in t.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"dropped\":{},\"intervals\":[", node.dropped);
        for (j, s) in node.intervals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{},{},{},{}",
                s.start, s.len, s.committed, s.sends, s.arrives, s.bshr_occ_hw, s.skipped
            );
            for b in StallBucket::ALL {
                let _ = write!(out, ",{}", s.buckets[b as usize]);
            }
            out.push(']');
        }
        out.push_str("],\"phases\":[");
        for (j, p) in node.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (dom, dom_millis) = p.dominant();
            let _ = write!(
                out,
                "{{\"start\":{},\"cycles\":{},\"intervals\":{},\"committed\":{},\
                 \"ipc_millis\":{},\"dominant\":\"{}\",\"dominant_millis\":{},\"buckets\":[",
                p.start,
                p.cycles,
                p.intervals,
                p.committed,
                p.ipc_millis(),
                dom.label(),
                dom_millis
            );
            for (k, b) in p.buckets.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// JSON numbers must be finite; non-finite values (0-cycle IPCs and the
/// like) degrade to null.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push_str(&escape(key));
    out.push(':');
    out.push_str(&escape(val));
}

fn push_str_list<S: AsRef<str>>(out: &mut String, items: &[S]) {
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(s.as_ref()));
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn renders_valid_parseable_json() {
        let mut t = Table::new(&["bench", "ipc"]);
        t.row(&["compress", "1.23"]);
        let mut r = Report::new("unit_test");
        r.budget(Budget::quick())
            .table("Figure 7", t)
            .number("mean_ipc", 1.23)
            .note("one \"quoted\" note\nwith a newline");
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(doc.get("binary").and_then(|v| v.as_str()), Some("unit_test"));
        let tables = doc.get("tables").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").and_then(|v| v.as_array()).unwrap();
        let cells = rows[0].as_array().unwrap();
        assert_eq!(cells[0].as_str(), Some("compress"));
        assert_eq!(cells[1].as_str(), Some("1.23"));
        assert_eq!(
            doc.get("numbers").unwrap().get("mean_ipc").and_then(|v| v.as_f64()),
            Some(1.23)
        );
    }

    #[test]
    fn table_cells_mirror_text_output() {
        // The JSON rows are the exact strings `render` prints.
        let mut t = Table::new(&["name", "v"]);
        t.row(&["a", "0.50"]);
        let text = t.render();
        assert!(text.contains("0.50"));
        let mut r = Report::new("unit_test");
        r.table("t", t);
        assert!(r.render().contains("\"0.50\""));
    }

    #[test]
    fn display_and_document_agree_on_every_table_cell() {
        let mut a = Table::new(&["bench", "ipc"]);
        a.row(&["compress", "1.23"]).row(&["go", "2.65"]);
        let mut b = Table::new(&["nodes", "DS IPC", "DS/trad"]);
        b.row(&["2", "0.10", "1.50x"]);
        let mut r = Report::new("unit_test");
        r.line("Title (40000 instructions per run)").line("");
        r.line("=== first ===").table("first", a.clone());
        r.table("second", b.clone()).line("closing remark");
        r.number("mean", 1.94).note("document only");

        // Stdout: lines as written, each table followed by a blank line.
        assert_eq!(
            r.to_string(),
            format!(
                "Title (40000 instructions per run)\n\n=== first ===\n{a}\n{b}\nclosing remark\n"
            )
        );
        // Document: the same tables, in print order, cell for cell; the
        // number and the note ride along without being printed.
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        let tables = doc.get("tables").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tables.len(), 2);
        for (json, (title, t)) in tables.iter().zip([("first", &a), ("second", &b)]) {
            assert_eq!(json.get("title").and_then(|v| v.as_str()), Some(title));
            let strings = |v: &ds_obs::json::Value| -> Vec<String> {
                v.as_array().unwrap().iter().map(|c| c.as_str().unwrap().to_string()).collect()
            };
            assert_eq!(strings(json.get("headers").unwrap()), t.headers());
            let rows = json.get("rows").and_then(|v| v.as_array()).unwrap();
            assert_eq!(rows.iter().map(strings).collect::<Vec<_>>(), t.rows());
        }
        assert_eq!(doc.get("numbers").unwrap().get("mean").and_then(|v| v.as_f64()), Some(1.94));
        let notes = doc.get("notes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(notes[0].as_str(), Some("document only"));
        assert!(!r.to_string().contains("document only") && !r.to_string().contains("1.94"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut r = Report::new("unit_test");
        r.number("bad", f64::NAN);
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        assert!(doc.get("numbers").unwrap().get("bad").unwrap().as_f64().is_none());
    }

    #[test]
    fn critpath_member_is_empty_without_entries_and_typed_with() {
        let r = Report::new("unit_test");
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        // Always present, so obs-off and obs-on documents have one shape.
        assert!(matches!(doc.get("critpath"), Some(ds_obs::json::Value::Obj(m)) if m.is_empty()));

        // A window with one remote-fill instruction: communication must
        // carry a nonzero share and the shares must survive the JSON trip.
        let mut w = ds_obs::CritWindow::with_capacity(4);
        w.edge_retire(ds_obs::CritNode {
            pc: 0x40,
            dispatch: 0,
            ready: 2,
            issue: 2,
            complete: 30,
            commit: 31,
            sent: 4,
            producer_back: 0,
            fill: ds_obs::FillKind::RemoteFill,
        });
        let mut cp = ds_obs::CritPathReport::default();
        cp.nodes.push(w.path_report());
        let mut r = Report::new("unit_test");
        r.critpath("compress/ds2", &cp);
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        let entry = doc.get("critpath").unwrap().get("compress/ds2").unwrap();
        let share = |k: &str| entry.get(k).and_then(|v| v.as_f64()).unwrap();
        let sum =
            share("compute") + share("communication") + share("structural") + share("frontend");
        assert!((sum - 1.0).abs() < 1e-6, "class shares must sum to 1, got {sum}");
        assert!(share("communication") > 0.0);
        assert_eq!(entry.get("comm_edges").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(entry.get("dropped").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn timeline_member_is_empty_without_entries_and_typed_with() {
        let r = Report::new("unit_test");
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        // Same always-present contract as `critpath`.
        assert!(matches!(doc.get("timeline"), Some(ds_obs::json::Value::Obj(m)) if m.is_empty()));

        // One full interval: 4096 committing cycles. The row layout is
        // the fixed 18-number contract obs_validate re-checks.
        let mut ring = ds_obs::IntervalRing::with_capacity(4);
        let mut acct = ds_obs::CycleAccount::default();
        for _ in 0..ds_obs::SAMPLE_INTERVAL {
            acct.charge(ds_obs::StallBucket::Committing);
        }
        ring.note_occ(3);
        ring.sample_close(ds_obs::SAMPLE_INTERVAL, 2048, 7, 5, &acct);
        let t = TimelineReport { interval_cycles: ds_obs::SAMPLE_INTERVAL, nodes: vec![ring.report()] };
        let mut r = Report::new("unit_test");
        r.timeline("compress/ds2", &t);
        let doc = ds_obs::json::parse(&r.render()).expect("valid JSON");
        let entry = doc.get("timeline").unwrap().get("compress/ds2").unwrap();
        assert_eq!(
            entry.get("interval_cycles").and_then(|v| v.as_f64()),
            Some(ds_obs::SAMPLE_INTERVAL as f64)
        );
        let nodes = entry.get("nodes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(nodes.len(), 1);
        let rows = nodes[0].get("intervals").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = rows[0].as_array().unwrap();
        assert_eq!(row.len(), 18, "interval rows are 18 numbers");
        assert_eq!(row[0].as_f64(), Some(0.0)); // start
        assert_eq!(row[1].as_f64(), Some(ds_obs::SAMPLE_INTERVAL as f64)); // len
        assert_eq!(row[2].as_f64(), Some(2048.0)); // committed
        assert_eq!(row[5].as_f64(), Some(3.0)); // bshr_occ_hw
        // Bucket columns sum to the interval length.
        let bucket_sum: f64 = row[7..].iter().map(|v| v.as_f64().unwrap()).sum();
        assert_eq!(bucket_sum, ds_obs::SAMPLE_INTERVAL as f64);
        let phases = nodes[0].get("phases").and_then(|v| v.as_array()).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("dominant").and_then(|v| v.as_str()), Some("committing"));
        assert_eq!(phases[0].get("ipc_millis").and_then(|v| v.as_f64()), Some(500.0));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("x\u{1}y"), "\"x\\u0001y\"");
    }
}
