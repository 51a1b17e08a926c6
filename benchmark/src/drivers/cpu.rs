//! `ds-cpu`: functional execution, the shared trace window, and the
//! out-of-order core against a bench-owned memory system.
//!
//! Expected to move `insts_per_s` on `go.ds2.bus` (nearly every
//! stepped cycle does core work) and barely on `li.ds2.bus` (87% of
//! cycles never step a core).

use super::{time_batches, Ctx, OOO_WINDOW};
use crate::spans::Tracer;
use ds_cpu::{
    ExecError, ExecRecord, FuncCore, InstFeed, LoadResponse, MemSystem, OooConfig, OooCore, RuuTag,
    TraceSource,
};
use ds_mem::{CacheConfig, MemImage};
use std::hint::black_box;

/// Instructions per functional/trace batch.
const FUNC_BATCH: u64 = 50_000;

/// How far the slowest consumer lags the trace head in the trace
/// driver (the engine trims to the minimum node cursor).
const TRIM_LAG: u64 = 256;

/// Every load is a 3-cycle hit and every fetch is free: the core's own
/// cost, with the memory side held constant.
struct FixedLatencyMem;

impl MemSystem for FixedLatencyMem {
    fn load_issued(&mut self, _rec: &ExecRecord, now: u64, _tag: RuuTag) -> (LoadResponse, bool) {
        (LoadResponse::Ready(now + 3), true)
    }
    fn mem_committed(&mut self, _rec: &ExecRecord, _issue_hit: Option<bool>, _now: u64) {}
    fn fetch_line(&mut self, _pc: u64, now: u64) -> u64 {
        now
    }
}

/// A canned window of committed records, renumbered from 0 (the core
/// tags instructions by `icount`). Feeding from memory rather than a
/// live `TraceSource` keeps functional execution out of the core's
/// number; `cpu.trace.ns_per_inst` carries that cost.
struct Canned<'a>(&'a [ExecRecord]);

impl InstFeed for Canned<'_> {
    fn fetch_record(&mut self, idx: u64) -> Result<Option<ExecRecord>, ExecError> {
        Ok(self
            .0
            .get(idx as usize)
            .map(|r| ExecRecord { icount: idx, ..*r }))
    }
}

fn loaded(ctx: &Ctx<'_>) -> (FuncCore, MemImage) {
    let mut image = MemImage::new();
    ctx.program.load(&mut image);
    (
        FuncCore::with_stack(ctx.program.entry, ctx.program.stack_top),
        image,
    )
}

/// `cpu.func.ns_per_inst`, `cpu.trace.ns_per_inst`,
/// `cpu.ooo.ns_per_inst`, `cpu.ooo.ns_per_cycle`,
/// `cpu.ooo.next_event_ns`.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    // FuncCore::step on a MemImage, continuing through the program
    // (restarting if it halts).
    let mut func = loaded(ctx);
    let func_ns = time_batches(
        tracer,
        "driver.cpu.func",
        ctx.batches,
        |_| (),
        |()| {
            let mut done = 0;
            while done < FUNC_BATCH {
                match func.0.step(&mut func.1) {
                    Ok(Some(rec)) => {
                        black_box(rec);
                        done += 1;
                    }
                    _ => func = loaded(ctx),
                }
            }
            done
        },
    );
    out.push(("cpu.func.ns_per_inst".to_string(), func_ns));

    // TraceSource::get + trim with a fixed lag.
    let fresh_trace = || {
        let (core, image) = loaded(ctx);
        TraceSource::new(core, image)
    };
    let (mut trace, mut idx) = (fresh_trace(), 0u64);
    let trace_ns = time_batches(
        tracer,
        "driver.cpu.trace",
        ctx.batches,
        |_| (),
        |()| {
            let mut done = 0;
            while done < FUNC_BATCH {
                match trace.get(idx) {
                    Ok(Some(rec)) => {
                        black_box(rec);
                        idx += 1;
                        done += 1;
                        trace.trim(idx.saturating_sub(TRIM_LAG));
                    }
                    _ => (trace, idx) = (fresh_trace(), 0),
                }
            }
            done
        },
    );
    out.push(("cpu.trace.ns_per_inst".to_string(), trace_ns));

    // OooCore::step over one canned window per batch.
    let line_bytes = CacheConfig::timing_icache().line_bytes;
    let windows: Vec<&[ExecRecord]> = ctx.records.chunks(OOO_WINDOW).collect();
    let mut cycles_total = 0u64;
    let mut insts_total = 0u64;
    let per_inst = time_batches(
        tracer,
        "driver.cpu.ooo",
        ctx.batches,
        |i| {
            (
                OooCore::new(OooConfig::default(), line_bytes),
                Canned(windows[i % windows.len()]),
                0u64,
            )
        },
        |(core, feed, now)| {
            while !core.is_done() {
                core.step(&mut FixedLatencyMem, feed, *now)
                    .expect("canned records never fail to decode");
                *now += 1;
            }
            cycles_total += *now;
            insts_total += core.committed();
            core.committed()
        },
    );
    out.push(("cpu.ooo.ns_per_inst".to_string(), per_inst));
    // Cycles per instruction of the canned runs is deterministic, so
    // the per-cycle cost follows from the per-instruction one.
    out.push((
        "cpu.ooo.ns_per_cycle".to_string(),
        per_inst * insts_total as f64 / cycles_total.max(1) as f64,
    ));

    // OooCore::next_event on a mid-run core.
    let next_event_ns = time_batches(
        tracer,
        "driver.cpu.ooo.next_event",
        ctx.batches,
        |i| {
            let window = windows[i % windows.len()];
            let (mut core, mut feed, mut now) = (
                OooCore::new(OooConfig::default(), line_bytes),
                Canned(window),
                0u64,
            );
            while core.committed() < window.len() as u64 / 2 && !core.is_done() {
                core.step(&mut FixedLatencyMem, &mut feed, now)
                    .expect("canned records never fail to decode");
                now += 1;
            }
            (core, now)
        },
        |(core, now)| {
            const CALLS: u64 = 100_000;
            for k in 0..CALLS {
                black_box(core.next_event(black_box(*now + (k & 1))));
            }
            CALLS
        },
    );
    out.push(("cpu.ooo.next_event_ns".to_string(), next_event_ns));
}
