//! `ds-dash`: renders `--json` experiment results into one
//! self-contained HTML dashboard.
//!
//! Dependency-free by design (parsing via [`ds_obs::json`], hand-rolled
//! SVG): the output is a single file with no external scripts, styles,
//! or fonts, so it can be attached to a PR or opened from a tmpfs
//! years later and still render. Per timeline label the dashboard
//! shows an IPC sparkline, a stacked stall-share ribbon per node (one
//! colour per [`StallBucket`]), and the segmented phases with their
//! dominant stall.
//!
//! The exact input documents are embedded verbatim in a
//! `<script type="application/json" id="ds-dash-data">` payload, so
//! `obs_validate dash.html` can re-check the numbers behind the
//! pictures without re-running anything.
//!
//! ```text
//! ds-dash --json fig7.json [--json more.json ...] [--out dash.html]
//! ```
//!
//! Bad input — a flag without its value, an unreadable or unparseable
//! `--json` file, an unwritable `--out` — is a one-line
//! `ds-dash: <path>: <reason>` on stderr and exit status 2.

use ds_obs::json::{self, Value};
use ds_obs::StallBucket;
use std::fmt::Write as _;

/// One loaded `--json` document: the path (used as the section title),
/// the raw text (embedded in the payload) and the parsed tree.
struct ResultDoc {
    path: String,
    text: String,
    doc: Value,
}

/// Fill colours for the stacked stall ribbon, indexed like
/// [`StallBucket::ALL`]. Committing is green; waits are warm colours.
const BUCKET_COLORS: [&str; 11] = [
    "#4caf50", // committing
    "#90a4ae", // fetch-stall
    "#7e57c2", // ruu-full
    "#5c6bc0", // lsq-full
    "#ef5350", // bshr-wait-remote
    "#ff7043", // local-memory-wait
    "#ffb300", // bus-contention-wait
    "#8d6e63", // commit-repair
    "#ec407a", // squash-replay
    "#ab47bc", // retry-wait
    "#cfd8dc", // idle
];

const SPARK_W: f64 = 720.0;
const SPARK_H: f64 = 56.0;
const RIBBON_H: f64 = 72.0;

const USAGE: &str = "usage: ds-dash --json <result.json>... [--out <dash.html>]";

fn main() {
    if let Err(e) = run(std::env::args().skip(1)) {
        eprintln!("ds-dash: {e}");
        std::process::exit(2);
    }
}

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut json_paths: Vec<String> = Vec::new();
    let mut out_path = String::from("ds-dash.html");
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} takes a path"));
        match a.as_str() {
            "--json" => json_paths.push(value()?),
            "--out" => out_path = value()?,
            other => return Err(format!("unknown argument: {other} ({USAGE})")),
        }
    }
    if json_paths.is_empty() {
        return Err(format!("pass at least one --json ({USAGE})"));
    }

    let mut results = Vec::new();
    for path in json_paths {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        results.push(ResultDoc { path, text, doc });
    }
    std::fs::write(&out_path, render(&results)).map_err(|e| format!("{out_path}: {e}"))?;
    eprintln!("wrote {out_path}");
    Ok(())
}

fn render(results: &[ResultDoc]) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>ds-dash</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:64rem;\
         color:#222;background:#fafafa}\n\
         h1{font-size:1.3rem} h2{font-size:1.1rem;margin-top:2rem}\n\
         h3{font-size:0.95rem;margin:1rem 0 0.25rem}\n\
         svg{display:block;background:#fff;border:1px solid #ddd;border-radius:4px}\n\
         table{border-collapse:collapse;margin:0.5rem 0}\n\
         td,th{border:1px solid #ccc;padding:0.2rem 0.6rem;text-align:right}\n\
         th{background:#eee} td:first-child,th:first-child{text-align:left}\n\
         .legend span{display:inline-block;margin-right:0.8rem;white-space:nowrap}\n\
         .legend i{display:inline-block;width:0.8em;height:0.8em;margin-right:0.3em;\
         border-radius:2px}\n\
         .muted{color:#777;font-size:0.85rem}\n\
         </style>\n</head>\n<body>\n<h1>ds-dash — DataScalar timeline dashboard</h1>\n",
    );
    let sources: Vec<String> = results.iter().map(|r| esc_html(&r.path)).collect();
    if !sources.is_empty() {
        let _ = writeln!(out, "<p class=\"muted\">sources: {}</p>", sources.join(", "));
    }
    push_legend(&mut out);

    for r in results {
        let _ = writeln!(out, "<h2>{}</h2>", esc_html(&r.path));
        if let Some(binary) = r.doc.get("binary").and_then(Value::as_str) {
            let _ = writeln!(out, "<p class=\"muted\">binary: {}</p>", esc_html(binary));
        }
        match r.doc.get("timeline") {
            Some(Value::Obj(entries)) if !entries.is_empty() => {
                for (label, entry) in entries {
                    render_timeline_entry(&mut out, label, entry);
                }
            }
            _ => out.push_str(
                "<p class=\"muted\">no timeline member in this document \
                               (uninstrumented run?)</p>\n",
            ),
        }
    }

    out.push_str("<script type=\"application/json\" id=\"ds-dash-data\">\n");
    out.push_str(&payload(results));
    out.push_str("\n</script>\n</body>\n</html>\n");
    out
}

/// The machine-readable payload: every input document embedded
/// verbatim. `</` is escaped to `<\/` (a legal JSON escape) so no
/// embedded string can terminate the surrounding `<script>` element.
fn payload(results: &[ResultDoc]) -> String {
    let mut p = String::from("{\"tool\":\"ds-dash\",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            p.push(',');
        }
        let _ = write!(p, "{{\"path\":{},\"doc\":{}}}", json_escape(&r.path), r.text.trim());
    }
    p.push_str("]}");
    p.replace("</", "<\\/")
}

fn push_legend(out: &mut String) {
    out.push_str("<p class=\"legend\">");
    for (i, b) in StallBucket::ALL.iter().enumerate() {
        let _ = write!(
            out,
            "<span><i style=\"background:{}\"></i>{}</span>",
            BUCKET_COLORS[i],
            b.label()
        );
    }
    out.push_str("</p>\n");
}

/// One decoded interval row (the compact 18-number array of the
/// `ds-bench-result/v1` timeline member).
struct Row {
    start: f64,
    len: f64,
    committed: f64,
    buckets: [f64; 11],
}

fn decode_rows(node: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in node.get("intervals").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(nums) = r.as_array() else { continue };
        if nums.len() != 18 {
            continue;
        }
        let n = |i: usize| nums[i].as_f64().unwrap_or(0.0);
        let mut buckets = [0.0; 11];
        for (bi, b) in buckets.iter_mut().enumerate() {
            *b = n(7 + bi);
        }
        rows.push(Row { start: n(0), len: n(1), committed: n(2), buckets });
    }
    rows
}

fn render_timeline_entry(out: &mut String, label: &str, entry: &Value) {
    let interval_cycles = entry.get("interval_cycles").and_then(Value::as_f64).unwrap_or(0.0);
    let nodes = entry.get("nodes").and_then(Value::as_array).unwrap_or(&[]);
    let _ = writeln!(
        out,
        "<h3>{} <span class=\"muted\">({} node(s), {:.0}-cycle intervals)</span></h3>",
        esc_html(label),
        nodes.len(),
        interval_cycles
    );
    for (ni, node) in nodes.iter().enumerate() {
        let rows = decode_rows(node);
        if rows.is_empty() {
            let _ = writeln!(out, "<p class=\"muted\">node {ni}: no intervals recorded</p>");
            continue;
        }
        let dropped = node.get("dropped").and_then(Value::as_f64).unwrap_or(0.0);
        let span_start = rows[0].start;
        let span_end = rows[rows.len() - 1].start + rows[rows.len() - 1].len;
        let phase_starts: Vec<f64> = node
            .get("phases")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| p.get("start").and_then(Value::as_f64))
            .collect();
        let _ = writeln!(
            out,
            "<p class=\"muted\">node {ni}: {} intervals, cycles {:.0}&ndash;{:.0}{}</p>",
            rows.len(),
            span_start,
            span_end,
            if dropped > 0.0 {
                format!(", <b>{dropped:.0} intervals dropped</b> (ring wraparound)")
            } else {
                String::new()
            }
        );
        push_ipc_spark(out, &rows, span_start, span_end, &phase_starts);
        push_ribbon(out, &rows, span_start, span_end, &phase_starts);
        push_phase_table(out, node);
    }
}

/// Maps a cycle count to an x pixel inside the plot span.
fn xpos(cycle: f64, span_start: f64, span_end: f64) -> f64 {
    let span = (span_end - span_start).max(1.0);
    (cycle - span_start) / span * SPARK_W
}

fn push_phase_markers(out: &mut String, phase_starts: &[f64], s0: f64, s1: f64, h: f64) {
    for &p in phase_starts {
        if p <= s0 {
            continue; // the first phase boundary is the plot edge
        }
        let x = xpos(p, s0, s1);
        let _ = write!(
            out,
            "<line x1=\"{x:.1}\" y1=\"0\" x2=\"{x:.1}\" y2=\"{h}\" \
             stroke=\"#000\" stroke-dasharray=\"3,3\" opacity=\"0.5\"/>"
        );
    }
}

/// IPC per interval as a sparkline polyline, phase cuts dashed.
fn push_ipc_spark(out: &mut String, rows: &[Row], s0: f64, s1: f64, phase_starts: &[f64]) {
    let max_ipc = rows
        .iter()
        .map(|r| if r.len > 0.0 { r.committed / r.len } else { 0.0 })
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let _ = write!(
        out,
        "<svg width=\"{SPARK_W}\" height=\"{SPARK_H}\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\" \
         role=\"img\" aria-label=\"IPC per interval\"><polyline fill=\"none\" \
         stroke=\"#1565c0\" stroke-width=\"1.5\" points=\""
    );
    for r in rows {
        let ipc = if r.len > 0.0 { r.committed / r.len } else { 0.0 };
        let x = xpos(r.start + r.len / 2.0, s0, s1);
        let y = SPARK_H - 4.0 - (ipc / max_ipc) * (SPARK_H - 8.0);
        let _ = write!(out, "{x:.1},{y:.1} ");
    }
    out.push_str("\"/>");
    push_phase_markers(out, phase_starts, s0, s1, SPARK_H);
    let _ = write!(
        out,
        "<text x=\"4\" y=\"12\" font-size=\"10\" fill=\"#1565c0\">IPC (peak {max_ipc:.2})</text>"
    );
    out.push_str("</svg>\n");
}

/// Stacked stall-share ribbon: one rect slice per (interval, bucket),
/// bucket shares of the interval length stacked to full height.
fn push_ribbon(out: &mut String, rows: &[Row], s0: f64, s1: f64, phase_starts: &[f64]) {
    let _ = write!(
        out,
        "<svg width=\"{SPARK_W}\" height=\"{RIBBON_H}\" \
         viewBox=\"0 0 {SPARK_W} {RIBBON_H}\" role=\"img\" \
         aria-label=\"stall-bucket shares per interval\">"
    );
    for r in rows {
        if r.len <= 0.0 {
            continue;
        }
        let x = xpos(r.start, s0, s1);
        let w = (xpos(r.start + r.len, s0, s1) - x).max(0.5);
        let mut y = 0.0;
        for (bi, &b) in r.buckets.iter().enumerate() {
            if b <= 0.0 {
                continue;
            }
            let h = b / r.len * RIBBON_H;
            let _ = write!(
                out,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" \
                 fill=\"{}\"/>",
                BUCKET_COLORS[bi]
            );
            y += h;
        }
    }
    push_phase_markers(out, phase_starts, s0, s1, RIBBON_H);
    out.push_str("</svg>\n");
}

fn push_phase_table(out: &mut String, node: &Value) {
    let phases = node.get("phases").and_then(Value::as_array).unwrap_or(&[]);
    if phases.is_empty() {
        return;
    }
    out.push_str(
        "<table><tr><th>phase</th><th>start</th><th>cycles</th>\
         <th>IPC</th><th>dominant stall</th><th>share</th></tr>\n",
    );
    for (i, p) in phases.iter().enumerate() {
        let num = |k: &str| p.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let dom = p.get("dominant").and_then(Value::as_str).unwrap_or("?");
        let _ = writeln!(
            out,
            "<tr><td>{i}</td><td>{:.0}</td><td>{:.0}</td><td>{:.3}</td>\
             <td>{}</td><td>{:.1}%</td></tr>",
            num("start"),
            num("cycles"),
            num("ipc_millis") / 1000.0,
            esc_html(dom),
            num("dominant_millis") / 10.0
        );
    }
    out.push_str("</table>\n");
}

fn esc_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> ResultDoc {
        let text = r#"{"schema":"ds-bench-result/v1","binary":"t","budget":null,
            "tables":[],"numbers":{},"notes":[],"critpath":{},
            "timeline":{"compress/ds2":{"interval_cycles":4096,"nodes":[
              {"dropped":0,
               "intervals":[[0,4096,2000,3,2,1,0,4096,0,0,0,0,0,0,0,0,0,0],
                            [4096,4096,500,1,1,2,0,1000,0,0,0,3096,0,0,0,0,0,0]],
               "phases":[{"start":0,"cycles":8192,"intervals":2,"committed":2500,
                          "ipc_millis":305,"dominant":"committing",
                          "dominant_millis":622,"buckets":[5096,0,0,0,3096,0,0,0,0,0,0]}]}
            ]}}}"#
            .to_string();
        let doc = json::parse(&text).unwrap();
        ResultDoc { path: "unit.json".into(), text, doc }
    }

    #[test]
    fn renders_self_contained_html_with_payload() {
        let html = render(&[sample_doc()]);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("id=\"ds-dash-data\""));
        assert!(html.contains("compress/ds2"));
        // Sparkline + ribbon SVGs made it in.
        assert!(html.contains("IPC (peak"));
        assert!(html.contains("<rect"));
        // No external references: self-contained is the contract.
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn payload_parses_and_embeds_documents_verbatim() {
        let html = render(&[sample_doc()]);
        let start = html.find("id=\"ds-dash-data\">").unwrap() + "id=\"ds-dash-data\">".len();
        let end = html[start..].find("</script>").unwrap() + start;
        let p = json::parse(&html[start..end].replace("<\\/", "</")).expect("payload parses");
        let results = p.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results[0].get("path").and_then(Value::as_str), Some("unit.json"));
        let tl = results[0].get("doc").unwrap().get("timeline").unwrap();
        assert!(tl.get("compress/ds2").is_some());
    }

    #[test]
    fn script_terminator_cannot_leak_from_embedded_strings() {
        let mut d = sample_doc();
        d.path = "evil</script><b>.json".into();
        d.text = d.text.replace("\"binary\":\"t\"", "\"binary\":\"x</script>y\"");
        d.doc = json::parse(&d.text).unwrap();
        let html = render(&[d]);
        let payload_start = html.find("id=\"ds-dash-data\">").unwrap();
        let payload_end = payload_start + html[payload_start..].find("</script>").unwrap();
        // The only `</script>` after the payload opener is the real one.
        assert!(!html[payload_start..payload_end].contains("</script>"));
        assert!(html[payload_start..payload_end].contains("<\\/script>"));
    }

    #[test]
    fn bad_input_is_a_one_line_error_not_a_panic() {
        let err = |args: &[&str]| run(args.iter().map(|a| a.to_string())).unwrap_err();
        assert!(err(&["--json"]).starts_with("--json takes a path"));
        assert!(err(&["--json", "a.json", "--out"]).starts_with("--out takes a path"));
        assert!(err(&[]).starts_with("pass at least one --json"));

        let dir = std::env::temp_dir().join(format!("ds-dash-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.json").display().to_string();
        assert!(err(&["--json", &missing]).starts_with(&format!("{missing}: ")));

        let truncated = dir.join("truncated.json").display().to_string();
        std::fs::write(&truncated, "{\"schema\":\"ds-bench-result/v1\",\"tables\":[").unwrap();
        let e = err(&["--json", &truncated]);
        assert!(e.starts_with(&format!("{truncated}: JSON parse error")), "{e}");

        // A readable document but an unwritable --out (no such directory).
        let ok = dir.join("ok.json").display().to_string();
        std::fs::write(&ok, "{}").unwrap();
        let out = dir.join("no-such-dir/dash.html").display().to_string();
        assert!(err(&["--json", &ok, "--out", &out]).starts_with(&format!("{out}: ")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
