//! Validates machine-readable experiment output: parses each argument
//! as JSON and, when the document carries a known schema, checks its
//! required members. Used by `scripts/verify.sh` to gate the `--json`
//! and `--trace-out` emitters.
//!
//! Checks per shape:
//!
//! * `ds-bench-result/v1`: required members, table row/header widths,
//!   and — when present — the `critpath` member (edge-class shares in
//!   range and summing to ~1 per label) and the `timeline` member
//!   (interval rows are the 18-number contract with bucket columns
//!   summing to the interval length, strictly increasing starts, and
//!   phases that partition the recorded intervals).
//! * Perfetto traces (`traceEvents`): per-track timestamp monotonicity,
//!   non-failing dropped-event warnings, and broadcast flow-id pairing
//!   (every `ph:"t"`/`"f"` flow step must name an emitted `ph:"s"` id).
//! * `*.html` (a `ds-dash` dashboard): the embedded
//!   `id="ds-dash-data"` JSON payload must parse, and every embedded
//!   result document is re-checked as if passed directly — the numbers
//!   behind the pictures stay auditable.
//! * `ds-chaos-result/v1`: fault-matrix reports — every run must carry
//!   its plan label, fault counters, and the two verdicts
//!   (`matches_baseline`, `watchdog_fired`); a run that diverged from
//!   the fault-free baseline or tripped the watchdog fails validation.
//!
//! Anything else — a `.jsonl` path, JSON with neither a `schema` member
//! nor `traceEvents` — is an error, not a pass.
//!
//! Exit status: 0 when every file parses (and passes its schema
//! check), 1 otherwise.

use ds_obs::json::{self, Value};

const UNRECOGNISED: &str = "unrecognised document (expected ds-bench-result/v1, \
     ds-chaos-result/v1, a Perfetto trace, or a ds-dash .html)";

fn check(path: &str) -> Result<(), String> {
    if path.ends_with(".jsonl") {
        return Err(UNRECOGNISED.into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if path.ends_with(".html") {
        return check_dash_html(&text);
    }
    let v = json::parse(&text).map_err(|e| e.to_string())?;
    check_value(&v)
}

fn check_value(v: &Value) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some("ds-bench-result/v1") => check_bench_result(v),
        Some("ds-chaos-result/v1") => check_chaos_result(v),
        Some(other) => Err(format!("unknown schema `{other}`")),
        None if v.get("traceEvents").is_some() => check_trace(v),
        None => Err(UNRECOGNISED.into()),
    }
}

/// Validates a `ds-dash` HTML dashboard by extracting and re-checking
/// the embedded machine-readable payload: the JSON must parse, every
/// embedded result document passes the same checks as a bare file, and
/// the interval sums behind the rendered ribbons reconcile.
fn check_dash_html(text: &str) -> Result<(), String> {
    const OPEN: &str = "id=\"ds-dash-data\">";
    let start = text.find(OPEN).ok_or("no embedded ds-dash-data payload")? + OPEN.len();
    let end = text[start..]
        .find("</script>")
        .ok_or("unterminated ds-dash-data payload")?
        + start;
    // Undo the `</` -> `<\/` neutralisation the emitter applies.
    let payload = text[start..end].replace("<\\/", "</");
    let p = json::parse(&payload).map_err(|e| format!("payload: {e:?}"))?;
    let results = p
        .get("results")
        .and_then(Value::as_array)
        .ok_or("payload lacks `results` array")?;
    for r in results {
        let path = r.get("path").and_then(Value::as_str).unwrap_or("?");
        let doc = r.get("doc").ok_or_else(|| format!("result `{path}` lacks `doc`"))?;
        check_value(doc).map_err(|e| format!("embedded `{path}`: {e}"))?;
    }
    Ok(())
}

fn check_bench_result(v: &Value) -> Result<(), String> {
    for key in ["binary", "tables"] {
        if v.get(key).is_none() {
            return Err(format!("ds-bench-result/v1 document lacks `{key}`"));
        }
    }
    let tables = v
        .get("tables")
        .and_then(Value::as_array)
        .ok_or("`tables` must be an array")?;
    for t in tables {
        let headers = t
            .get("headers")
            .and_then(Value::as_array)
            .ok_or("table lacks `headers`")?;
        let rows = t.get("rows").and_then(Value::as_array).ok_or("table lacks `rows`")?;
        for row in rows {
            let row = row.as_array().ok_or("row must be an array")?;
            if row.len() != headers.len() {
                return Err(format!(
                    "row width {} does not match header width {}",
                    row.len(),
                    headers.len()
                ));
            }
        }
    }
    check_critpath_member(v)?;
    check_timeline_member(v)
}

/// Validates a `ds-chaos-result/v1` fault-matrix report. Beyond shape,
/// the verdicts themselves are load-bearing: a run whose architectural
/// state diverged from the fault-free baseline, or whose watchdog
/// fired, is a failed experiment and fails the gate here too (defense
/// in depth — the `ds-chaos` binary already exits non-zero).
fn check_chaos_result(v: &Value) -> Result<(), String> {
    let baseline = v.get("baseline").ok_or("ds-chaos-result/v1 document lacks `baseline`")?;
    for key in ["cycles", "committed"] {
        if baseline.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("`baseline` lacks number `{key}`"));
        }
    }
    if v.get("workload").and_then(Value::as_str).is_none() {
        return Err("ds-chaos-result/v1 document lacks string `workload`".into());
    }
    let runs = v
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("ds-chaos-result/v1 document lacks `runs` array")?;
    if runs.is_empty() {
        return Err("`runs` is empty — the fault matrix did not run".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let plan = run
            .get("plan")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("run {i} lacks string `plan`"))?;
        for key in ["cycles", "committed"] {
            if run.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("run `{plan}` lacks number `{key}`"));
            }
        }
        let faults = run
            .get("faults")
            .ok_or_else(|| format!("run `{plan}` lacks `faults`"))?;
        for key in ["dropped", "delayed", "duplicated", "reordered"] {
            if faults.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("run `{plan}` faults lack number `{key}`"));
            }
        }
        match run.get("matches_baseline") {
            Some(Value::Bool(true)) => {}
            Some(Value::Bool(false)) => {
                return Err(format!(
                    "run `{plan}` diverged from the fault-free baseline"
                ))
            }
            _ => return Err(format!("run `{plan}` lacks bool `matches_baseline`")),
        }
        match run.get("watchdog_fired") {
            Some(Value::Bool(false)) => {}
            Some(Value::Bool(true)) => {
                return Err(format!("run `{plan}` tripped the forward-progress watchdog"))
            }
            _ => return Err(format!("run `{plan}` lacks bool `watchdog_fired`")),
        }
    }
    Ok(())
}

/// Checks the `critpath` member of a `ds-bench-result/v1` document:
/// each labelled entry carries the four edge-class shares, each in
/// `[0, 1]`, summing to ~1 whenever any cycles were attributed. Absent
/// or `null` members pass — obs-off builds legitimately have nothing to
/// report.
fn check_critpath_member(v: &Value) -> Result<(), String> {
    let entries = match v.get("critpath") {
        Some(Value::Obj(entries)) => entries,
        Some(Value::Null) | None => return Ok(()),
        Some(_) => return Err("`critpath` must be an object or null".into()),
    };
    const CLASSES: [&str; 4] = ["compute", "communication", "structural", "frontend"];
    for (label, entry) in entries {
        let mut sum = 0.0;
        for class in CLASSES {
            let share = entry
                .get(class)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("critpath `{label}` lacks share `{class}`"))?;
            if !(0.0..=1.0).contains(&share) {
                return Err(format!(
                    "critpath `{label}` share `{class}` out of range: {share}"
                ));
            }
            sum += share;
        }
        let attributed =
            entry.get("attributed_cycles").and_then(Value::as_f64).unwrap_or(0.0);
        // Shares are printed with 6 decimals, so the sum can be off by
        // a few millionths per class; anything worse is a real bug.
        if attributed > 0.0 && (sum - 1.0).abs() > 1e-3 {
            return Err(format!(
                "critpath `{label}` class shares sum to {sum}, expected ~1"
            ));
        }
        if let Some(d) = entry.get("dropped").and_then(Value::as_f64) {
            if d < 0.0 {
                return Err(format!("critpath `{label}` has negative dropped count"));
            }
            // Coverage warning, non-failing: a starved window (most
            // retirements dropped, only the tail attributed) makes the
            // class shares unrepresentative of the run. Segment
            // flushing keeps producers at zero drops; this tripwire
            // stays armed for regressions.
            let coverage = attributed / (attributed + d).max(1.0);
            if d > 0.0 && coverage < 0.25 {
                eprintln!(
                    "warning: critpath `{label}` window attributed only {:.0}% of \
                     retirements ({attributed:.0} kept, {d:.0} dropped); shares cover \
                     the tail of the run — segment flushing regressed",
                    coverage * 100.0
                );
            }
        }
    }
    Ok(())
}

/// Checks the `timeline` member of a `ds-bench-result/v1` document:
/// per label and node, every interval row is the 18-number contract
/// `[start, len, committed, sends, arrives, bshr_occ_hw, skipped,
/// bucket0..bucket10]` with strictly increasing starts and bucket
/// columns summing exactly to the interval length, and the phases
/// partition the intervals. Absent or `null` members pass (obs-off
/// builds).
fn check_timeline_member(v: &Value) -> Result<(), String> {
    let entries = match v.get("timeline") {
        Some(Value::Obj(entries)) => entries,
        Some(Value::Null) | None => return Ok(()),
        Some(_) => return Err("`timeline` must be an object or null".into()),
    };
    for (label, entry) in entries {
        let interval_cycles = entry
            .get("interval_cycles")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("timeline `{label}` lacks `interval_cycles`"))?;
        if interval_cycles <= 0.0 {
            return Err(format!("timeline `{label}` has non-positive interval_cycles"));
        }
        let nodes = entry
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("timeline `{label}` lacks `nodes` array"))?;
        for (ni, node) in nodes.iter().enumerate() {
            check_timeline_node(label, ni, node)?;
        }
    }
    Ok(())
}

/// One node's timeline: 18-number interval rows that reconcile.
fn check_timeline_node(label: &str, ni: usize, node: &Value) -> Result<(), String> {
    let ctx = |msg: String| format!("timeline `{label}` node {ni}: {msg}");
    let rows = node
        .get("intervals")
        .and_then(Value::as_array)
        .ok_or_else(|| ctx("lacks `intervals` array".into()))?;
    let mut prev_start = f64::NEG_INFINITY;
    let mut interval_cycle_sum = 0.0;
    for (ri, row) in rows.iter().enumerate() {
        let row = row.as_array().ok_or_else(|| ctx(format!("row {ri} is not an array")))?;
        if row.len() != 18 {
            return Err(ctx(format!("row {ri} has {} numbers, expected 18", row.len())));
        }
        let mut nums = [0.0f64; 18];
        for (i, cell) in row.iter().enumerate() {
            nums[i] = cell
                .as_f64()
                .ok_or_else(|| ctx(format!("row {ri} column {i} is not a number")))?;
        }
        let (start, len) = (nums[0], nums[1]);
        if start <= prev_start {
            return Err(ctx(format!("row {ri} start {start} not after {prev_start}")));
        }
        prev_start = start;
        interval_cycle_sum += len;
        let bucket_sum: f64 = nums[7..].iter().sum();
        if bucket_sum != len {
            return Err(ctx(format!(
                "row {ri} bucket columns sum to {bucket_sum}, expected interval \
                 length {len}"
            )));
        }
    }
    // Phases partition the recorded intervals: counts and cycles both
    // reconcile against the rows the phases were segmented from.
    let phases = node
        .get("phases")
        .and_then(Value::as_array)
        .ok_or_else(|| ctx("lacks `phases` array".into()))?;
    let mut phase_intervals = 0.0;
    let mut phase_cycles = 0.0;
    for p in phases {
        phase_intervals += p.get("intervals").and_then(Value::as_f64).unwrap_or(0.0);
        phase_cycles += p.get("cycles").and_then(Value::as_f64).unwrap_or(0.0);
    }
    if phase_intervals != rows.len() as f64 {
        return Err(ctx(format!(
            "phases cover {phase_intervals} intervals, {} recorded",
            rows.len()
        )));
    }
    if phase_cycles != interval_cycle_sum {
        return Err(ctx(format!(
            "phase cycles sum to {phase_cycles}, intervals to {interval_cycle_sum}"
        )));
    }
    Ok(())
}

fn check_trace(v: &Value) -> Result<(), String> {
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("`traceEvents` must be an array")?;
    // Monotonically non-decreasing ts per (pid, tid) track, and
    // broadcast flow arrows that actually pair up: every flow step
    // (`ph:"t"`) and end (`ph:"f"`) must name a flow id some start
    // (`ph:"s"`) emitted — a dangling arrow renders as garbage in the
    // Perfetto UI, and the emitter is supposed to suppress orphans.
    let mut last: Vec<((u64, u64), f64)> = Vec::new();
    let mut flow_starts: Vec<f64> = Vec::new();
    let mut flow_refs: Vec<(String, f64)> = Vec::new();
    let mut dropped_total = 0.0;
    for e in events {
        if let Some(ph @ ("s" | "t" | "f")) = e.get("ph").and_then(Value::as_str) {
            let id = e.get("id").and_then(Value::as_f64).ok_or("flow event lacks id")?;
            if ph == "s" {
                flow_starts.push(id);
            } else {
                flow_refs.push((ph.to_string(), id));
            }
        }
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            // `ds_dropped_events` metadata: an over-capacity EventRing
            // means the trace is a suffix of the run. Visibly warn —
            // but an incomplete trace is still a valid trace, so this
            // never fails the gate.
            if e.get("name").and_then(Value::as_str) == Some("ds_dropped_events") {
                let args = e.get("args");
                let dropped = args
                    .and_then(|a| a.get("dropped"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                if dropped > 0.0 {
                    let source = args
                        .and_then(|a| a.get("source"))
                        .and_then(Value::as_str)
                        .unwrap_or("?");
                    eprintln!(
                        "warning: source `{source}` dropped {dropped:.0} events \
                         (ring over capacity; trace is a suffix of the run)"
                    );
                    dropped_total += dropped;
                }
            }
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_f64).ok_or("event lacks pid")? as u64;
        let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let ts = e.get("ts").and_then(Value::as_f64).ok_or("event lacks ts")?;
        match last.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, prev)) => {
                if *prev > ts {
                    return Err(format!("track ({pid},{tid}) ts went backwards: {prev} > {ts}"));
                }
                *prev = ts;
            }
            None => last.push(((pid, tid), ts)),
        }
    }
    if dropped_total > 0.0 {
        eprintln!("warning: {dropped_total:.0} events dropped in total across sources");
    }
    flow_starts.sort_by(|a, b| a.partial_cmp(b).expect("flow ids are finite"));
    for (ph, id) in &flow_refs {
        if flow_starts.binary_search_by(|s| s.partial_cmp(id).expect("finite")).is_err() {
            return Err(format!("flow `{ph}` event id {id} has no matching `s` start"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critpath_member_shapes() {
        let good = json::parse(
            r#"{"critpath": {"compress": {"compute": 0.9, "communication": 0.1,
                "structural": 0.0, "frontend": 0.0,
                "attributed_cycles": 100, "dropped": 0}}}"#,
        )
        .unwrap();
        assert!(check_critpath_member(&good).is_ok());
        // ...but well-formed members alone do not make a document: with
        // no `schema` and no `traceEvents` there is nothing to check it
        // against, and a `.jsonl` path is no shape at all.
        assert_eq!(check_value(&good).unwrap_err(), UNRECOGNISED);
        assert_eq!(check("history.jsonl").unwrap_err(), UNRECOGNISED);
        assert!(check_critpath_member(&json::parse(r#"{"critpath": null}"#).unwrap()).is_ok());
        assert!(check_critpath_member(&json::parse(r#"{"other": 1}"#).unwrap()).is_ok());

        let bad_sum = json::parse(
            r#"{"critpath": {"x": {"compute": 0.5, "communication": 0.1,
                "structural": 0.0, "frontend": 0.0, "attributed_cycles": 100}}}"#,
        )
        .unwrap();
        assert!(check_critpath_member(&bad_sum).unwrap_err().contains("sum"));
        let missing_class = json::parse(
            r#"{"critpath": {"x": {"compute": 1.0, "structural": 0.0, "frontend": 0.0}}}"#,
        )
        .unwrap();
        assert!(check_critpath_member(&missing_class).unwrap_err().contains("communication"));
    }

    #[test]
    fn timeline_member_shapes() {
        // 18-number rows that reconcile.
        let good = json::parse(
            r#"{"timeline": {"compress/ds2": {"interval_cycles": 4096, "nodes": [
                {"dropped": 0,
                 "intervals": [[0,4096,100,1,1,2,0,4096,0,0,0,0,0,0,0,0,0,0],
                               [4096,4096,50,0,0,1,0,1000,0,0,0,3096,0,0,0,0,0,0]],
                 "phases": [{"start": 0, "cycles": 8192, "intervals": 2,
                             "committed": 150, "ipc_millis": 18,
                             "dominant": "committing", "dominant_millis": 622,
                             "buckets": [5096,0,0,0,3096,0,0,0,0,0]}]}]}}}"#,
        )
        .unwrap();
        assert!(check_timeline_member(&good).is_ok());
        assert!(check_timeline_member(&json::parse(r#"{"timeline": null}"#).unwrap()).is_ok());
        assert!(check_timeline_member(&json::parse(r#"{"other": 1}"#).unwrap()).is_ok());

        // Bucket columns must sum to the interval length.
        let bad_sum = json::parse(
            r#"{"timeline": {"x": {"interval_cycles": 4096, "nodes": [
                {"dropped": 0,
                 "intervals": [[0,4096,100,1,1,2,0,4000,0,0,0,0,0,0,0,0,0,0]],
                 "phases": [{"intervals": 1, "cycles": 4096}]}]}}}"#,
        )
        .unwrap();
        assert!(check_timeline_member(&bad_sum).unwrap_err().contains("bucket columns"));

        // Wrong row width.
        let short_row = json::parse(
            r#"{"timeline": {"x": {"interval_cycles": 4096, "nodes": [
                {"dropped": 0, "intervals": [[0,4096,100]], "phases": []}]}}}"#,
        )
        .unwrap();
        assert!(check_timeline_member(&short_row).unwrap_err().contains("expected 18"));

        // Phases must partition the intervals.
        let bad_phases = json::parse(
            r#"{"timeline": {"x": {"interval_cycles": 4096, "nodes": [
                {"dropped": 0,
                 "intervals": [[0,4096,100,1,1,2,0,4096,0,0,0,0,0,0,0,0,0,0]],
                 "phases": [{"intervals": 2, "cycles": 8192}]}]}}}"#,
        )
        .unwrap();
        assert!(check_timeline_member(&bad_phases).unwrap_err().contains("phases cover"));

        // An entry without per-node rows is not a timeline.
        let no_nodes = json::parse(
            r#"{"timeline": {"compress": {"interval_cycles": 4096, "intervals": 12,
                "dropped": 0, "phases": []}}}"#,
        )
        .unwrap();
        assert!(check_timeline_member(&no_nodes).unwrap_err().contains("lacks `nodes`"));
    }

    #[test]
    fn chaos_result_shapes_and_verdicts() {
        let good = json::parse(
            r#"{"schema": "ds-chaos-result/v1", "workload": "compress",
                "baseline": {"cycles": 1000, "committed": 500},
                "runs": [{"plan": "drop-every-3/bus", "cycles": 1200,
                          "committed": 500,
                          "faults": {"dropped": 4, "delayed": 0,
                                     "duplicated": 0, "reordered": 0},
                          "matches_baseline": true,
                          "watchdog_fired": false}]}"#,
        )
        .unwrap();
        assert!(check_value(&good).is_ok());

        let diverged = json::parse(
            r#"{"schema": "ds-chaos-result/v1", "workload": "compress",
                "baseline": {"cycles": 1000, "committed": 500},
                "runs": [{"plan": "p", "cycles": 1, "committed": 1,
                          "faults": {"dropped": 0, "delayed": 0,
                                     "duplicated": 0, "reordered": 0},
                          "matches_baseline": false,
                          "watchdog_fired": false}]}"#,
        )
        .unwrap();
        assert!(check_value(&diverged).unwrap_err().contains("diverged"));

        let fired = json::parse(
            r#"{"schema": "ds-chaos-result/v1", "workload": "compress",
                "baseline": {"cycles": 1000, "committed": 500},
                "runs": [{"plan": "p", "cycles": 1, "committed": 1,
                          "faults": {"dropped": 0, "delayed": 0,
                                     "duplicated": 0, "reordered": 0},
                          "matches_baseline": true,
                          "watchdog_fired": true}]}"#,
        )
        .unwrap();
        assert!(check_value(&fired).unwrap_err().contains("watchdog"));

        let empty = json::parse(
            r#"{"schema": "ds-chaos-result/v1", "workload": "w",
                "baseline": {"cycles": 1, "committed": 1}, "runs": []}"#,
        )
        .unwrap();
        assert!(check_value(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn dash_html_payload_is_extracted_and_checked() {
        let html = r#"<!doctype html><html><body>
            <script type="application/json" id="ds-dash-data">
            {"tool":"ds-dash","results":[{"path":"a.json","doc":
              {"schema":"ds-bench-result/v1","binary":"t","tables":[],
               "critpath":{},"timeline":{}}}]}
            </script></body></html>"#;
        assert!(check_dash_html(html).is_ok());

        let bad_doc = html.replace("\"tables\":[],", "");
        assert!(check_dash_html(&bad_doc).unwrap_err().contains("embedded `a.json`"));

        assert!(check_dash_html("<html></html>")
            .unwrap_err()
            .contains("no embedded ds-dash-data"));
    }

    #[test]
    fn dangling_flow_fails_paired_flow_passes() {
        let paired = json::parse(
            r#"{"traceEvents": [
                {"name": "broadcast-flow", "ph": "s", "id": 7, "ts": 1, "pid": 0, "tid": 4},
                {"name": "broadcast-flow", "ph": "t", "id": 7, "ts": 5, "pid": 1, "tid": 4}
            ]}"#,
        )
        .unwrap();
        assert!(check_trace(&paired).is_ok());
        let dangling = json::parse(
            r#"{"traceEvents": [
                {"name": "broadcast-flow", "ph": "f", "id": 9, "ts": 5, "pid": 1, "tid": 3}
            ]}"#,
        )
        .unwrap();
        assert!(check_trace(&dangling).unwrap_err().contains("no matching"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: obs_validate <file.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &args {
        match check(path) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
