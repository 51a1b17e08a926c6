//! What each flavour costs in memory before a run starts: the bytes
//! each system constructor allocates, counted by this binary's own
//! global allocator.
//!
//! `Plain` holds no instrument (its associated types are asserted
//! zero-sized where they are defined, in ds-obs), so its constructors
//! allocate exactly what the machine itself needs; the test pins those
//! byte counts, so an allocation added to a plain constructor fails
//! here.
//!
//! On `Obs` every probe owner holds only the structure it feeds: the
//! core its event ring and critical-path window, the memory side and
//! the interconnect their event rings, each node one cycle ledger (stall
//! buckets plus per-PC profile), the DataScalar system its lead-change
//! ring. When every owner carried a full recorder (ring, ledger and
//! window alike), the same constructors allocated 11,457,692 B
//! (`DsSystem`), 4,111,316 B (`PerfectSystem`) and 6,026,540 B
//! (`TraditionalSystem`); with the critical-path segment holding
//! 64-byte nodes instead of 40-byte packed records, 6,611,516 B,
//! 2,376,660 B and 3,603,756 B. Each `Obs` bound below fails on both
//! layouts (the packed one allocates 5,825,084 B, 1,983,444 B and
//! 3,210,540 B).

use datascalar::core_model::{DsSystem, PerfectSystem, TraditionalConfig, TraditionalSystem};
use datascalar::obs::{Flavour, Obs, Plain};
use datascalar::workloads::{by_name, Scale};
use ds_bench::baseline_config;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread asks for while `COUNTING` is
/// set: every allocation's size, and a reallocation's whole new size.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only reads sizes and touches thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, with `new_size` checked by the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated on this thread while `build` runs; what it returns
/// is dropped after the count is taken.
fn bytes_allocated<T>(build: impl FnOnce() -> T) -> u64 {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let built = build();
    COUNTING.with(|c| c.set(false));
    drop(built);
    BYTES.with(Cell::get)
}

const MIB: u64 = 1 << 20;

/// Bytes the three constructors allocate on flavour `F` for compress at
/// full scale: (`DsSystem`, `PerfectSystem`, `TraditionalSystem`).
fn constructor_bytes<F: Flavour>() -> (u64, u64, u64) {
    let prog = (by_name("compress").expect("registered workload").build)(Scale::Full);
    let ds = bytes_allocated(|| DsSystem::<F>::with_flavour(baseline_config(2, 1_500_000), &prog));
    let perfect =
        bytes_allocated(|| PerfectSystem::<F>::with_flavour(&baseline_config(1, 1_500_000), &prog));
    let trad = bytes_allocated(|| {
        let config = TraditionalConfig { base: baseline_config(2, 1_500_000) };
        TraditionalSystem::<F>::with_flavour(&config, &prog)
    });
    (ds, perfect, trad)
}

#[test]
fn plain_constructors_allocate_only_the_machine() {
    let (ds, perfect, trad) = constructor_bytes::<Plain>();
    assert_eq!(ds, 712_060, "DsSystem::<Plain> (compress, ds2 bus)");
    assert_eq!(perfect, 623_572, "PerfectSystem::<Plain> (compress)");
    assert_eq!(trad, 654_636, "TraditionalSystem::<Plain> (compress, 1/2)");
}

#[test]
fn constructors_allocate_only_what_each_probe_owner_feeds() {
    let (ds, perfect, trad) = constructor_bytes::<Obs>();
    println!("bytes allocated: DsSystem {ds}, PerfectSystem {perfect}, TraditionalSystem {trad}");
    assert!(ds <= 23 * MIB / 4, "DsSystem::<Obs> (compress, ds2 bus) allocated {ds} B");
    assert!(perfect <= 2 * MIB, "PerfectSystem::<Obs> (compress) allocated {perfect} B");
    assert!(trad <= 13 * MIB / 4, "TraditionalSystem::<Obs> (compress, 1/2) allocated {trad} B");
}
