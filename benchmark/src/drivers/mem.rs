//! `ds-mem`: cache, banked memory, the functional image and the page
//! table, replaying the workload's own reference stream.
//!
//! Expected to move every simulation workload, by different paths: the
//! hit path on `go.ds2.bus` (94% issue-time hits), the miss/bank path
//! on `li.ds2.bus` (1% hits, 0.44 memory ops per instruction), the
//! write path on `compress.ds2.bus` (1.8 committed stores per load
//! that reaches memory).

use super::{time_batches, Ctx, MemRef};
use crate::spans::Tracer;
use ds_mem::{AccessKind, Cache, CacheConfig, MainMemory, MemImage, MemoryTimingConfig};
use std::hint::black_box;

/// References per batch.
const BATCH: usize = 100_000;

/// Up to `BATCH` references starting where batch `batch` begins,
/// wrapping around the end of the stream once.
fn slice_of<T>(xs: &[T], batch: usize) -> impl Iterator<Item = &T> {
    let start = (batch * BATCH) % xs.len().max(1);
    let (head, tail) = xs.split_at(start.min(xs.len()));
    tail.iter().chain(head).take(BATCH)
}

/// `mem.cache.ns_per_access`, `mem.cache.hit_ratio`,
/// `mem.bank.ns_per_access`, `mem.image.ns_per_rw`,
/// `mem.page.ns_per_lookup`.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    let config = CacheConfig::timing_dcache();

    // One untimed pass gives the hit ratio and the miss stream the
    // bank driver replays.
    let mut cache = Cache::new(config);
    let misses: Vec<u64> = ctx
        .refs
        .iter()
        .filter(|r| cache.access(r.addr, kind(r)).is_miss())
        .map(|r| r.addr & !(config.line_bytes - 1))
        .collect();
    let hit_ratio = 1.0 - misses.len() as f64 / ctx.refs.len().max(1) as f64;

    let mut cache = Cache::new(config);
    let cache_ns = time_batches(
        tracer,
        "driver.mem.cache",
        ctx.batches,
        |i| i,
        |&mut i| {
            let mut n = 0;
            for r in slice_of(&ctx.refs, i) {
                black_box(cache.access(r.addr, kind(r)));
                n += 1;
            }
            n
        },
    );
    out.push(("mem.cache.ns_per_access".to_string(), cache_ns));
    out.push(("mem.cache.hit_ratio".to_string(), hit_ratio));

    // MainMemory::access on the miss stream, one access every other
    // cycle so some find their bank busy.
    let (mut banks, mut now) = (MainMemory::new(MemoryTimingConfig::default()), 0u64);
    let bank_ns = time_batches(
        tracer,
        "driver.mem.bank",
        ctx.batches,
        |i| i,
        |&mut i| {
            let mut n = 0;
            for &line in slice_of(&misses, i) {
                black_box(banks.access(line, config.line_bytes, now));
                now += 2;
                n += 1;
            }
            n
        },
    );
    out.push(("mem.bank.ns_per_access".to_string(), bank_ns));

    let mut image = MemImage::new();
    ctx.program.load(&mut image);
    let image_ns = time_batches(
        tracer,
        "driver.mem.image",
        ctx.batches,
        |i| i,
        |&mut i| {
            let mut n = 0;
            for r in slice_of(&ctx.refs, i) {
                let at = r.addr & !7;
                if r.store {
                    image.write_u64(at, n);
                } else {
                    black_box(image.read_u64(at));
                }
                n += 1;
            }
            n
        },
    );
    out.push(("mem.image.ns_per_rw".to_string(), image_ns));

    let page_ns = time_batches(
        tracer,
        "driver.mem.page",
        ctx.batches,
        |i| i,
        |&mut i| {
            let mut n = 0u64;
            for r in slice_of(&ctx.refs, i) {
                black_box(
                    ctx.page_table
                        .is_local(r.addr, (n % ctx.nodes as u64) as usize),
                );
                n += 1;
            }
            n
        },
    );
    out.push(("mem.page.ns_per_lookup".to_string(), page_ns));
}

fn kind(r: &MemRef) -> AccessKind {
    if r.store {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}
