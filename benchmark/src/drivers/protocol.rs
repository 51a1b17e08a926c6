//! `ds-core` protocol structures: BSHR, DCUB and the line map under
//! them, driven by seeded scripts in the workload's measured mix.
//!
//! Should move `li.ds2.bus` (request/arrival path) and
//! `compress.ds2.bus` (squash/repair path) separately — which is why
//! both are workloads.

use super::{time_batches, Ctx};
use crate::spans::Tracer;
use crate::stats::Rng;
use ds_core::bshr::Bshr;
use ds_core::cub::Dcub;
use ds_core::linemap::LineMap;
use ds_core::DsConfig;
use std::hint::black_box;

/// Operations per batch.
const OPS: usize = 20_000;

/// Lines the scripts draw from: small enough that requests and
/// arrivals for one line meet.
const LINES: u64 = 64;

/// Lines in flight in the DCUB / line-map scripts (the measured DCUB
/// high-water marks are single digits).
const IN_FLIGHT: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum BshrOp {
    Request,
    Arrival,
    Squash,
    FillDirect,
}

/// `core.bshr.ns_per_op`, `core.dcub.ns_per_op`,
/// `core.linemap.ns_per_op`.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    let Some(result) = ctx.reference.results.first() else {
        return;
    };
    // The measured mix, summed over nodes. Every operation keeps a
    // weight of at least one so its path is exercised on any workload.
    let sum = |f: fn(&ds_core::NodeStats) -> u64| result.nodes.iter().map(f).sum::<u64>().max(1);
    let mix = [
        (BshrOp::Request, sum(|n| n.remote_accesses)),
        (BshrOp::Arrival, sum(|n| n.bshr.arrivals)),
        (BshrOp::Squash, sum(|n| n.bshr.squashes_posted)),
        (BshrOp::FillDirect, sum(|n| n.degraded_responses)),
    ];
    let total: u64 = mix.iter().map(|(_, w)| w).sum();
    let defaults = DsConfig::default();
    let mut rng = Rng::new(ctx.seed, 0x6273_6872);
    let bshr_ns = time_batches(
        tracer,
        "driver.core.bshr",
        ctx.batches,
        |_| {
            let script: Vec<(BshrOp, u64)> = (0..OPS)
                .map(|_| {
                    let mut draw = rng.below(total);
                    let op = mix.iter().find(|(_, w)| {
                        let hit = draw < *w;
                        draw = draw.saturating_sub(*w);
                        hit
                    });
                    (op.expect("weights sum to total").0, rng.below(LINES) * 32)
                })
                .collect();
            (
                Bshr::new(defaults.bshr_entries, defaults.bshr_access_cycles),
                script,
            )
        },
        |(bshr, script)| {
            for (now, &(op, line)) in script.iter().enumerate() {
                let now = now as u64;
                match op {
                    BshrOp::Request => {
                        black_box(bshr.request(line, now, now));
                    }
                    BshrOp::Arrival => {
                        black_box(bshr.on_arrival(line, now));
                    }
                    BshrOp::Squash => bshr.post_squash(line),
                    BshrOp::FillDirect => {
                        black_box(bshr.fill_direct(line, now));
                    }
                }
            }
            script.len() as u64
        },
    );
    out.push(("core.bshr.ns_per_op".to_string(), bshr_ns));

    // A line's DCUB life: insert at issue, mark ready at arrival,
    // remove at the installing commit, IN_FLIGHT lines overlapping.
    let dcub_ns = time_batches(
        tracer,
        "driver.core.dcub",
        ctx.batches,
        |_| Dcub::new(),
        |dcub| {
            let lines = (OPS / 3) as u64;
            for i in 0..lines + IN_FLIGHT {
                if i < lines {
                    dcub.insert(i * 32, None, i % 2 == 0);
                    dcub.mark_ready(i * 32, i + 9);
                }
                if i >= IN_FLIGHT {
                    black_box(dcub.remove((i - IN_FLIGHT) * 32));
                }
            }
            lines * 3
        },
    );
    out.push(("core.dcub.ns_per_op".to_string(), dcub_ns));

    let map_ns = time_batches(
        tracer,
        "driver.core.linemap",
        ctx.batches,
        |_| LineMap::<u64>::new(),
        |map| {
            let lines = (OPS / 3) as u64;
            for i in 0..lines + IN_FLIGHT {
                if i < lines {
                    map.insert(i * 32, i);
                    black_box(map.get(i * 32));
                }
                if i >= IN_FLIGHT {
                    black_box(map.remove((i - IN_FLIGHT) * 32));
                }
            }
            lines * 3
        },
    );
    out.push(("core.linemap.ns_per_op".to_string(), map_ns));
}
