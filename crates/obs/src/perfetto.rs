//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders event rings as a timeline loadable in `ui.perfetto.dev` or
//! `chrome://tracing`: one *process* per simulated component (node,
//! system, interconnect), one *thread* per track. Instant events
//! (`"ph":"i"`) mark protocol actions; counter events (`"ph":"C"`)
//! chart BSHR/DCUB occupancy and commit throughput. `ts` is the
//! simulated core cycle (the trace declares no time unit — read the
//! axis as cycles).
//!
//! Within one track (a `(pid, tid)` pair) timestamps are monotonically
//! non-decreasing. Rings are recorded in simulation order, but some
//! events carry *future* cycle stamps (a broadcast send is stamped with
//! the cycle its memory access completes, and bank queueing reorders
//! those), so the exporter stable-sorts each source by cycle before
//! emitting (asserted by the shape tests here and at workspace level).
//!
//! Cross-node data movement is additionally rendered as flow arrows
//! (`"ph":"s"/"t"/"f"`): a broadcast `send` starts a flow, each
//! consumer's `arrive` is a step, and the consuming core's retirement
//! ([`EventKind::RemoteFillCommit`]) finishes it — so one arrow spans
//! owner generation → bus → BSHR fill → commit. Flow ids are derived
//! deterministically from the `(line, send cycle)` pair every endpoint
//! knows; steps/finishes whose start was dropped from a wrapped ring
//! are suppressed, so every emitted `t`/`f` has its `s` (checked by
//! `obs_validate`).

use crate::account::StallBucket;
use crate::{EventKind, EventRing, IntervalSample};
use std::fmt::Write as _;

/// One ring rendered under one process id.
#[derive(Debug, Clone, Copy)]
pub struct TraceSource<'a> {
    /// Perfetto process id (we use node index; `N` = system,
    /// `N + 1` = interconnect).
    pub pid: u32,
    /// Process name shown in the UI.
    pub name: &'a str,
    /// The events.
    pub ring: &'a EventRing,
}

/// Track ids within a process. Disjoint per source kind so two sources
/// sharing a pid (a node's memory side and its core) never interleave
/// on one track.
const TID_BROADCAST: u32 = 1;
const TID_BSHR: u32 = 2;
const TID_DCUB: u32 = 3;
const TID_COMMIT: u32 = 4;
const TID_LEAD: u32 = 5;
const TID_BUS: u32 = 6;
/// Stall-bucket occupancy counter track (fed by `stall_counter_events`,
/// not by ring events).
pub const TID_STALLS: u32 = 7;

const TRACK_NAMES: [(u32, &str); 7] = [
    (TID_BROADCAST, "broadcast"),
    (TID_BSHR, "bshr"),
    (TID_DCUB, "dcub"),
    (TID_COMMIT, "commit"),
    (TID_LEAD, "lead"),
    (TID_BUS, "bus"),
    (TID_STALLS, "stalls"),
];

/// Renders `sources` as one Chrome trace-event JSON document.
pub fn trace_json(sources: &[TraceSource<'_>]) -> String {
    trace_json_with(sources, &[])
}

/// Like [`trace_json`], appending pre-rendered event objects (one JSON
/// object per string, no trailing separators) after the ring events —
/// used for the cycle-accounting counter tracks, which are sampled
/// outside the rings.
pub fn trace_json_with(sources: &[TraceSource<'_>], extras: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };

    // Process/thread name metadata: one process_name per distinct pid,
    // thread names for every track a source's events actually use.
    let mut named_pids: Vec<u32> = Vec::new();
    let mut named_tracks: Vec<(u32, u32)> = Vec::new();
    for s in sources {
        if !named_pids.contains(&s.pid) {
            named_pids.push(s.pid);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                s.pid, s.name
            );
        }
        // Per-source drop accounting: a wrapped ring means the trace is
        // truncated, and that must be visible *in* the trace. Always
        // emitted (dropped == 0 positively asserts completeness);
        // `obs_validate` warns when the sum is nonzero.
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"ds_dropped_events\",\"ph\":\"M\",\"pid\":{},\
             \"args\":{{\"source\":\"{}\",\"dropped\":{},\"retained\":{}}}}}",
            s.pid,
            s.name,
            s.ring.dropped(),
            s.ring.len()
        );
        for ev in s.ring.iter() {
            let tid = tid_of(&ev.kind);
            if !named_tracks.contains(&(s.pid, tid)) {
                named_tracks.push((s.pid, tid));
                let tname = TRACK_NAMES
                    .iter()
                    .find(|&&(t, _)| t == tid)
                    .map(|&(_, n)| n)
                    .unwrap_or("events");
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{tname}\"}}}}",
                    s.pid
                );
            }
        }
    }

    // Flow starts retained across all sources: steps and finishes are
    // only emitted when their start survived ring wraparound.
    let mut send_ids: Vec<u64> = Vec::new();
    for s in sources {
        for ev in s.ring.iter() {
            if let EventKind::BroadcastSend { line } = ev.kind {
                send_ids.push(flow_id(line, ev.cycle));
            }
        }
    }
    send_ids.sort_unstable();

    for s in sources {
        let mut events: Vec<crate::Event> = s.ring.iter().copied().collect();
        events.sort_by_key(|ev| ev.cycle); // stable: same-cycle order kept
        for ev in &events {
            sep(&mut out);
            emit_event(&mut out, s.pid, ev.cycle, &ev.kind);
            if let Some(obj) = flow_event(s.pid, ev.cycle, &ev.kind, &send_ids) {
                sep(&mut out);
                out.push_str(&obj);
            }
        }
    }
    for e in extras {
        sep(&mut out);
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders one node's stall-bucket occupancy as a Perfetto counter
/// track (`tid` [`TID_STALLS`]) and appends the event objects to `out`
/// (for [`trace_json_with`]'s `extras`).
///
/// `intervals` are the node's closed timeline intervals, oldest first
/// ([`crate::IntervalRing::iter`]); each emitted counter sample sits at
/// the interval's closing boundary and carries the per-bucket cycles
/// charged inside it.
pub fn stall_counter_events<'a>(
    pid: u32,
    intervals: impl Iterator<Item = &'a IntervalSample>,
    out: &mut Vec<String>,
) {
    let mut obj = String::with_capacity(256);
    let _ = write!(
        obj,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{TID_STALLS},\
         \"args\":{{\"name\":\"stalls\"}}}}"
    );
    out.push(obj);

    for s in intervals {
        let mut obj = String::with_capacity(256);
        let _ = write!(
            obj,
            "{{\"name\":\"stall cycles\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\
             \"tid\":{TID_STALLS},\"args\":{{",
            s.start + s.len
        );
        for (i, b) in StallBucket::ALL.iter().enumerate() {
            if i > 0 {
                obj.push(',');
            }
            let _ = write!(obj, "\"{}\":{}", b.label(), s.buckets[*b as usize]);
        }
        obj.push_str("}}");
        out.push(obj);
    }
}

fn tid_of(kind: &EventKind) -> u32 {
    match kind {
        EventKind::BroadcastSend { .. }
        | EventKind::BroadcastArrive { .. }
        | EventKind::FalseHitRepair { .. }
        | EventKind::RetransmitRequest { .. }
        | EventKind::RetransmitRebroadcast { .. }
        | EventKind::LineDegraded { .. } => TID_BROADCAST,
        EventKind::BshrAllocate { .. }
        | EventKind::BshrFill { .. }
        | EventKind::BshrSquash { .. }
        | EventKind::BshrFoundBuffered { .. } => TID_BSHR,
        EventKind::DcubPush { .. } | EventKind::DcubDrain { .. } => TID_DCUB,
        EventKind::Commit { .. } | EventKind::RemoteFillCommit { .. } => TID_COMMIT,
        EventKind::LeadChange { .. } => TID_LEAD,
        EventKind::BusGrant { .. } => TID_BUS,
    }
}

/// The flow id tying a broadcast's `send` to its `arrive` steps and the
/// consuming `RemoteFillCommit`. Every endpoint derives it from the
/// `(line, send cycle)` pair it already carries, so no shared state is
/// needed — two identical runs emit identical ids.
fn flow_id(line: u64, sent: u64) -> u64 {
    line.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ sent
}

/// The flow-arrow object for `kind`, if it is a flow endpoint whose
/// start survived in some ring (`send_ids` is sorted).
fn flow_event(pid: u32, ts: u64, kind: &EventKind, send_ids: &[u64]) -> Option<String> {
    let (ph, tid, id) = match *kind {
        EventKind::BroadcastSend { line } => ("s", TID_BROADCAST, flow_id(line, ts)),
        EventKind::BroadcastArrive { line, latency } => {
            ("t", TID_BROADCAST, flow_id(line, ts.saturating_sub(latency)))
        }
        EventKind::RemoteFillCommit { line, sent } => ("f", TID_COMMIT, flow_id(line, sent)),
        _ => return None,
    };
    if ph != "s" && send_ids.binary_search(&id).is_err() {
        return None;
    }
    let mut obj = String::with_capacity(128);
    let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
    let _ = write!(
        obj,
        "{{\"name\":\"broadcast-flow\",\"cat\":\"broadcast\",\"ph\":\"{ph}\",\"id\":{id},\
         \"ts\":{ts},\"pid\":{pid},\"tid\":{tid}{bp}}}"
    );
    Some(obj)
}

fn emit_event(out: &mut String, pid: u32, ts: u64, kind: &EventKind) {
    let tid = tid_of(kind);
    let instant = |out: &mut String, name: &str, args: std::fmt::Arguments<'_>| {
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\
             \"tid\":{tid},\"args\":{{{args}}}}}"
        );
    };
    let counter = |out: &mut String, name: &str, key: &str, value: u64| {
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"{key}\":{value}}}}}"
        );
    };
    match *kind {
        EventKind::BroadcastSend { line } => {
            instant(out, "send", format_args!("\"line\":{line}"));
        }
        EventKind::BroadcastArrive { line, latency } => {
            instant(out, "arrive", format_args!("\"line\":{line},\"latency\":{latency}"));
        }
        EventKind::FalseHitRepair { line } => {
            instant(out, "repair", format_args!("\"line\":{line}"));
        }
        EventKind::BshrAllocate { line, occ } => {
            instant(out, "allocate", format_args!("\"line\":{line},\"occ\":{occ}"));
        }
        EventKind::BshrFill { line, waiters, occ } => {
            instant(
                out,
                "fill",
                format_args!("\"line\":{line},\"waiters\":{waiters},\"occ\":{occ}"),
            );
        }
        EventKind::BshrSquash { line, occ } => {
            instant(out, "squash", format_args!("\"line\":{line},\"occ\":{occ}"));
        }
        EventKind::BshrFoundBuffered { line, occ } => {
            instant(out, "found-buffered", format_args!("\"line\":{line},\"occ\":{occ}"));
        }
        EventKind::DcubPush { occ, .. } => counter(out, "dcub occupancy", "occ", occ as u64),
        EventKind::DcubDrain { occ, .. } => counter(out, "dcub occupancy", "occ", occ as u64),
        EventKind::Commit { n } => counter(out, "committed", "n", n as u64),
        EventKind::LeadChange { node, held_cycles } => {
            instant(
                out,
                "lead-change",
                format_args!("\"node\":{node},\"held_cycles\":{held_cycles}"),
            );
        }
        EventKind::BusGrant { bytes, queue_delay } => {
            instant(out, "grant", format_args!("\"bytes\":{bytes},\"queue_delay\":{queue_delay}"));
        }
        EventKind::RemoteFillCommit { line, sent } => {
            instant(out, "remote-fill-commit", format_args!("\"line\":{line},\"sent\":{sent}"));
        }
        EventKind::RetransmitRequest { line, retry } => {
            instant(out, "retransmit-req", format_args!("\"line\":{line},\"retry\":{retry}"));
        }
        EventKind::RetransmitRebroadcast { line } => {
            instant(out, "retransmit-rebroadcast", format_args!("\"line\":{line}"));
        }
        EventKind::LineDegraded { line } => {
            instant(out, "line-degraded", format_args!("\"line\":{line}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::{EventKind, Probe, Recorder};

    fn sample_sources() -> Vec<(String, Recorder)> {
        let mut n0 = Recorder::with_capacity(64);
        n0.record(2, EventKind::BroadcastSend { line: 0x100 });
        n0.record(4, EventKind::DcubPush { line: 0x100, occ: 1 });
        n0.record(9, EventKind::BshrAllocate { line: 0x200, occ: 1 });
        n0.record(14, EventKind::BshrFill { line: 0x200, waiters: 1, occ: 0 });
        n0.record(14, EventKind::BroadcastArrive { line: 0x200, latency: 8 });
        let mut sys = Recorder::with_capacity(16);
        sys.record(40, EventKind::LeadChange { node: 0, held_cycles: 40 });
        vec![("node0".to_string(), n0), ("system".to_string(), sys)]
    }

    #[test]
    fn trace_is_valid_json_with_monotonic_tracks() {
        let sources = sample_sources();
        let refs: Vec<TraceSource<'_>> = sources
            .iter()
            .enumerate()
            .map(|(i, (name, r))| TraceSource { pid: i as u32, name, ring: r.ring() })
            .collect();
        let text = trace_json(&refs);
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
        assert!(!events.is_empty());
        // ts monotonically non-decreasing per (pid, tid) track.
        let mut last: Vec<((u64, u64), f64)> = Vec::new();
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("M") {
                continue;
            }
            let pid = e.get("pid").and_then(Value::as_f64).unwrap() as u64;
            let tid = e.get("tid").and_then(Value::as_f64).unwrap() as u64;
            let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
            match last.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                Some((_, prev)) => {
                    assert!(*prev <= ts, "track ({pid},{tid}) went backwards");
                    *prev = ts;
                }
                None => last.push(((pid, tid), ts)),
            }
        }
        assert!(last.len() >= 3, "expected broadcast, bshr, dcub and lead tracks");
    }

    #[test]
    fn trace_reports_dropped_events_per_source() {
        let sources = sample_sources();
        let refs: Vec<TraceSource<'_>> = sources
            .iter()
            .enumerate()
            .map(|(i, (name, r))| TraceSource { pid: i as u32, name, ring: r.ring() })
            .collect();
        let text = trace_json(&refs);
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let drops: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("ds_dropped_events"))
            .collect();
        assert_eq!(drops.len(), sources.len(), "one drop record per source");
        for d in drops {
            let args = d.get("args").unwrap();
            assert_eq!(args.get("dropped").and_then(Value::as_f64), Some(0.0));
            assert!(args.get("retained").and_then(Value::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn stall_counter_track_emits_interval_deltas() {
        use crate::account::{CycleAccount, StallBucket};
        let mut ring = crate::IntervalRing::with_capacity(4);
        let mut acct = CycleAccount::default();
        for _ in 0..3 {
            acct.charge(StallBucket::Committing);
        }
        acct.charge(StallBucket::Idle);
        ring.sample_close(4, 3, 0, 0, &acct);
        acct.charge(StallBucket::BshrWaitRemote);
        acct.charge(StallBucket::BshrWaitRemote);
        ring.sample_close(6, 3, 0, 0, &acct);
        let mut extras = Vec::new();
        stall_counter_events(0, ring.iter(), &mut extras);
        let text = trace_json_with(&[], &extras);
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let counters: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("stall cycles"))
            .collect();
        assert_eq!(counters.len(), 2, "one sample per closed interval");
        // Each sample sits at its interval's closing boundary and
        // carries the cycles charged inside it.
        assert_eq!(counters[0].get("ts").and_then(Value::as_f64), Some(4.0));
        let args = counters[0].get("args").unwrap();
        assert_eq!(args.get("committing").and_then(Value::as_f64), Some(3.0));
        assert_eq!(args.get("idle").and_then(Value::as_f64), Some(1.0));
        // The final partial interval carries only the tail.
        assert_eq!(counters[1].get("ts").and_then(Value::as_f64), Some(6.0));
        let args = counters[1].get("args").unwrap();
        assert_eq!(args.get("bshr-wait-remote").and_then(Value::as_f64), Some(2.0));
        assert_eq!(args.get("committing").and_then(Value::as_f64), Some(0.0));
        // Unwrapped ring: the deltas sum, bucket by bucket, to the
        // cycle account they were closed against.
        for b in StallBucket::ALL {
            let sum: f64 = counters
                .iter()
                .map(|c| c.get("args").unwrap().get(b.label()).and_then(Value::as_f64).unwrap())
                .sum();
            assert_eq!(sum, acct.get(b) as f64, "{}", b.label());
        }
        assert!(text.contains("\"name\":\"stalls\""), "stalls track named");
    }

    #[test]
    fn flows_pair_send_arrive_and_commit() {
        // Owner node 0 sends line 0x200 at cycle 6; node 1 receives it
        // at 14 and the consuming load retires at 20.
        let mut n0 = Recorder::with_capacity(16);
        n0.record(6, EventKind::BroadcastSend { line: 0x200 });
        let mut n1 = Recorder::with_capacity(16);
        n1.record(14, EventKind::BroadcastArrive { line: 0x200, latency: 8 });
        n1.record(20, EventKind::RemoteFillCommit { line: 0x200, sent: 6 });
        // A commit whose send was never recorded (e.g. dropped from a
        // wrapped ring) must not emit a dangling finish.
        n1.record(25, EventKind::RemoteFillCommit { line: 0x999, sent: 1 });
        let text = trace_json(&[
            TraceSource { pid: 0, name: "node0", ring: n0.ring() },
            TraceSource { pid: 1, name: "node1", ring: n1.ring() },
        ]);
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let flows: Vec<(&str, f64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("broadcast-flow"))
            .map(|e| {
                (
                    e.get("ph").and_then(Value::as_str).unwrap(),
                    e.get("id").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let of = |ph: &str| flows.iter().filter(|(p, _)| *p == ph).count();
        assert_eq!((of("s"), of("t"), of("f")), (1, 1, 1), "{flows:?}");
        let id = flows[0].1;
        assert!(flows.iter().all(|(_, i)| *i == id), "one flow, one id: {flows:?}");
        assert!(text.contains("\"bp\":\"e\""), "finish binds to the enclosing instant");
    }

    #[test]
    fn trace_names_processes_and_threads() {
        let sources = sample_sources();
        let refs: Vec<TraceSource<'_>> = sources
            .iter()
            .enumerate()
            .map(|(i, (name, r))| TraceSource { pid: i as u32, name, ring: r.ring() })
            .collect();
        let text = trace_json(&refs);
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"node0\""));
        assert!(text.contains("\"broadcast\""));
        assert!(text.contains("\"bshr\""));
    }
}
