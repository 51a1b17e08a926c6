//! `ds-obs`: each `Probe` family in isolation. Only the obs build
//! flavour reaches these from the cycle loop, so only
//! `compress.ds2.bus.obs` runs them; they should move `insts_per_s`
//! there and nowhere else.

use super::{time_batches, Ctx};
use crate::spans::Tracer;
use ds_obs::critpath::{CritNode, FillKind, DEFAULT_CRIT_WINDOW_CAPACITY};
use ds_obs::timeline::{DEFAULT_TIMELINE_CAPACITY, SAMPLE_INTERVAL};
use ds_obs::{
    CritWindow, CycleAccount, Event, EventKind, EventRing, IntervalRing, PcProfile, PcStallKind,
    StallBucket, DEFAULT_RING_CAPACITY,
};
use std::hint::black_box;

/// Calls per batch.
const CALLS: u64 = 100_000;

/// `obs.record_ns`, `obs.charge_ns`, `obs.charge_pc_ns`, `obs.edge_ns`
/// (segment walks amortised in), `obs.sample_ns`.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    let mut ring = EventRing::with_capacity(DEFAULT_RING_CAPACITY);
    let record_ns = time_batches(
        tracer,
        "driver.obs.record",
        ctx.batches,
        |_| (),
        |()| {
            for cycle in 0..CALLS {
                ring.record(Event {
                    cycle,
                    kind: EventKind::BroadcastSend { line: cycle * 32 },
                });
            }
            CALLS
        },
    );
    black_box(ring.len());
    out.push(("obs.record_ns".to_string(), record_ns));

    let mut account = CycleAccount::default();
    let charge_ns = time_batches(
        tracer,
        "driver.obs.charge",
        ctx.batches,
        |_| (),
        |()| {
            for k in 0..CALLS {
                account.charge(black_box(
                    StallBucket::ALL[k as usize % StallBucket::ALL.len()],
                ));
            }
            CALLS
        },
    );
    black_box(account.total());
    out.push(("obs.charge_ns".to_string(), charge_ns));

    // The PCs of the workload's own loads and stores.
    let pcs: Vec<u64> = ctx
        .records
        .iter()
        .filter(|r| r.is_load() || r.is_store())
        .map(|r| r.pc)
        .take(4096)
        .collect();
    let mut profile = PcProfile::default();
    let charge_pc_ns = time_batches(
        tracer,
        "driver.obs.charge_pc",
        ctx.batches,
        |_| (),
        |()| {
            for k in 0..CALLS as usize {
                let kind = if k % 2 == 0 {
                    PcStallKind::RemoteWait
                } else {
                    PcStallKind::LocalWait
                };
                profile.charge_pc(pcs[k % pcs.len()], kind);
            }
            CALLS
        },
    );
    black_box(profile.entries().len());
    out.push(("obs.charge_pc_ns".to_string(), charge_pc_ns));

    // One retirement per instruction, three cycles apart, each
    // depending on the one before: every full segment gets walked.
    let mut window = CritWindow::with_capacity(DEFAULT_CRIT_WINDOW_CAPACITY);
    let mut at = 0u64;
    let edge_ns = time_batches(
        tracer,
        "driver.obs.edge",
        ctx.batches,
        |_| (),
        |()| {
            for _ in 0..CALLS {
                let rec = &ctx.records[at as usize % ctx.records.len()];
                let c = at * 3;
                let fill = if rec.is_load() {
                    FillKind::LocalFill
                } else {
                    FillKind::Exec
                };
                window.edge_retire(CritNode {
                    pc: rec.pc,
                    dispatch: c,
                    ready: c + 1,
                    issue: c + 1,
                    complete: c + 2,
                    commit: c + 3,
                    producer_back: 1,
                    fill,
                    ..CritNode::default()
                });
                at += 1;
            }
            CALLS
        },
    );
    black_box(window.recorded());
    out.push(("obs.edge_ns".to_string(), edge_ns));

    let mut intervals = IntervalRing::with_capacity(DEFAULT_TIMELINE_CAPACITY);
    let mut end = 0u64;
    let sample_ns = time_batches(
        tracer,
        "driver.obs.sample",
        ctx.batches,
        |_| (),
        |()| {
            const CLOSES: u64 = CALLS / 10;
            for _ in 0..CLOSES {
                end += SAMPLE_INTERVAL;
                account.charge_many(StallBucket::Committing, SAMPLE_INTERVAL);
                intervals.note_occ(end % 7);
                intervals.sample_close(end, end * 2, end / 60, end / 60, &account);
            }
            CLOSES
        },
    );
    black_box(intervals.len());
    out.push(("obs.sample_ns".to_string(), sample_ns));
}
