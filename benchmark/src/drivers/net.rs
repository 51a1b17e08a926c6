//! `ds-net`: the fabric, stepped once per cycle as the engine steps
//! it, under a seeded broadcast schedule at the workload's own
//! broadcasts-per-cycle. Idle steps are part of the cost.
//!
//! Bus numbers should move `li.ds2.bus` and `compress.ds2.bus`; ring
//! numbers only `wave5.ds4.ring`; neither should move `go.ds2.bus`
//! (1.6 broadcasts per thousand instructions).

use super::{time_batches, Ctx};
use crate::spans::Tracer;
use crate::spec::Kind;
use crate::stats::Rng;
use ds_net::{BusConfig, Fabric, FabricKind, Message, MsgKind};
use std::hint::black_box;

/// Fabric steps per batch.
const STEPS: u64 = 200_000;

/// `net.<fabric>.ns_per_step`, `net.<fabric>.ns_per_msg` for the
/// workload's own fabric, and `net.next_event_ns`.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    let Kind::Sim { fabric, nodes, .. } = ctx.spec.kind else {
        return;
    };
    let Some(result) = ctx.reference.results.first() else {
        return;
    };
    let label = match fabric {
        FabricKind::Bus => "bus",
        FabricKind::Ring => "ring",
    };
    let line_bytes = ds_mem::CacheConfig::timing_dcache().line_bytes;
    // A broadcast is due on a cycle when the draw falls under the
    // measured rate (at least one per batch, so the message path runs
    // even on go's near-silent bus).
    let rate = (result.bus.broadcasts as f64 / result.cycles.max(1) as f64).max(1.0 / STEPS as f64);
    let threshold = (rate.min(1.0) * u64::MAX as f64) as u64;
    let mut rng = Rng::new(ctx.seed, 0x006e_6574);
    let mut fab = Fabric::new(
        fabric,
        BusConfig {
            ports: nodes,
            ..BusConfig::default()
        },
    );
    let (mut now, mut seq, mut msgs, mut steps) = (0u64, 0u64, 0u64, 0u64);
    let mut deliveries = Vec::new();
    let step_ns = time_batches(
        tracer,
        &format!("driver.net.{label}"),
        ctx.batches,
        // The schedule is drawn before the clock starts: (step, src, line).
        |_| {
            let mut schedule = Vec::new();
            for step in 0..STEPS {
                if rng.next_u64() < threshold {
                    schedule.push((
                        step,
                        rng.below(nodes as u64) as usize,
                        rng.below(4096) * line_bytes,
                    ));
                }
            }
            schedule
        },
        |schedule| {
            let mut next = 0;
            for step in 0..STEPS {
                while let Some(&(_, src, line_addr)) = schedule.get(next).filter(|e| e.0 == step) {
                    fab.enqueue(Message {
                        src,
                        dest: None,
                        kind: MsgKind::Broadcast,
                        line_addr,
                        payload_bytes: line_bytes,
                        seq,
                        enqueued_at: now,
                    });
                    seq += 1;
                    next += 1;
                }
                fab.step_into(now, &mut deliveries);
                black_box(deliveries.len());
                now += 1;
            }
            msgs += schedule.len() as u64;
            steps += STEPS;
            STEPS
        },
    );
    out.push((format!("net.{label}.ns_per_step"), step_ns));
    // Messages per step is fixed by the seed, so the per-message cost
    // follows from the per-step one.
    out.push((
        format!("net.{label}.ns_per_msg"),
        step_ns * steps as f64 / msgs.max(1) as f64,
    ));

    let next_event_ns = time_batches(
        tracer,
        "driver.net.next_event",
        ctx.batches,
        |_| (),
        |()| {
            const CALLS: u64 = 100_000;
            for k in 0..CALLS {
                black_box(fab.next_event(black_box(now + (k & 1))));
            }
            CALLS
        },
    );
    out.push(("net.next_event_ns".to_string(), next_event_ns));
}
