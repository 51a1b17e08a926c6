//! Figure 8 parameter sweeps.
//!
//! The paper varies, one at a time around the baseline: data-cache
//! size, memory access time, global-bus clock divisor, global-bus
//! width, and RUU entries — for go and compress, across all five
//! systems.

use crate::{baseline_config, expect_no_deadlock, Budget};
use ds_core::{DsConfig, DsSystem, PerfectSystem, TraditionalConfig, TraditionalSystem};
use ds_workloads::Workload;

/// Which knob a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// D-cache capacity in bytes.
    CacheSize(u64),
    /// Local memory access time in cycles.
    MemoryAccess(u64),
    /// Off-chip bus clock divisor (core cycles per bus cycle).
    BusClock(u64),
    /// Off-chip bus width in bytes.
    BusWidth(u64),
    /// RUU entries (LSQ stays at half).
    RuuEntries(usize),
}

impl Knob {
    /// Applies the knob to a configuration.
    pub fn apply(self, config: &mut DsConfig) {
        match self {
            Knob::CacheSize(bytes) => {
                config.dcache.size_bytes = bytes;
            }
            Knob::MemoryAccess(cycles) => config.memory.access_cycles = cycles,
            Knob::BusClock(div) => config.bus.clock_divisor = div,
            Knob::BusWidth(bytes) => config.bus.width_bytes = bytes,
            Knob::RuuEntries(n) => {
                config.core.ruu_entries = n;
                config.core.lsq_entries = (n / 2).max(1);
            }
        }
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            Knob::CacheSize(b) => format!("{}KB", b / 1024),
            Knob::MemoryAccess(c) => format!("{c}cy"),
            Knob::BusClock(d) => format!("/{d}"),
            Knob::BusWidth(b) => format!("{b}B"),
            Knob::RuuEntries(n) => format!("{n}"),
        }
    }
}

/// The paper's five sweep axes with our parameter points.
pub fn figure8_axes() -> Vec<(&'static str, Vec<Knob>)> {
    vec![
        (
            "dcache size",
            [4096u64, 8192, 16384, 32768, 65536].map(Knob::CacheSize).to_vec(),
        ),
        (
            "memory access time",
            [4u64, 8, 16, 32, 64].map(Knob::MemoryAccess).to_vec(),
        ),
        ("bus clock divisor", [2u64, 5, 10, 20, 40].map(Knob::BusClock).to_vec()),
        ("bus width", [2u64, 4, 8, 16, 32].map(Knob::BusWidth).to_vec()),
        (
            "RUU entries",
            [32usize, 64, 128, 256, 512].map(Knob::RuuEntries).to_vec(),
        ),
    ]
}

/// The five IPCs at one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Perfect data cache.
    pub perfect: f64,
    /// DataScalar, 2 nodes.
    pub ds2: f64,
    /// DataScalar, 4 nodes.
    pub ds4: f64,
    /// Traditional, 1/2 on-chip.
    pub trad_half: f64,
    /// Traditional, 1/4 on-chip.
    pub trad_quarter: f64,
}

/// Evaluates all five systems at one knob setting.
pub fn sweep_point(w: &Workload, knob: Knob, budget: Budget) -> SweepPoint {
    let prog = (w.build)(budget.scale);
    let run_ds = |nodes: usize| {
        let mut c = baseline_config(nodes, budget.max_insts);
        knob.apply(&mut c);
        expect_no_deadlock(DsSystem::new(c, &prog).run(), w.name).ipc()
    };
    let run_trad = |nodes: usize| {
        let mut c = baseline_config(nodes, budget.max_insts);
        knob.apply(&mut c);
        let mut sys = TraditionalSystem::new(&TraditionalConfig { base: c }, &prog);
        expect_no_deadlock(sys.run(), w.name).ipc()
    };
    let perfect = {
        let mut c = baseline_config(1, budget.max_insts);
        knob.apply(&mut c);
        expect_no_deadlock(PerfectSystem::new(&c, &prog).run(), w.name).ipc()
    };
    SweepPoint {
        perfect,
        ds2: run_ds(2),
        ds4: run_ds(4),
        trad_half: run_trad(2),
        trad_quarter: run_trad(4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_workloads::by_name;

    #[test]
    fn knobs_apply() {
        let mut c = baseline_config(2, 1000);
        Knob::CacheSize(4096).apply(&mut c);
        assert_eq!(c.dcache.size_bytes, 4096);
        Knob::MemoryAccess(32).apply(&mut c);
        assert_eq!(c.memory.access_cycles, 32);
        Knob::BusClock(20).apply(&mut c);
        assert_eq!(c.bus.clock_divisor, 20);
        Knob::BusWidth(16).apply(&mut c);
        assert_eq!(c.bus.width_bytes, 16);
        Knob::RuuEntries(64).apply(&mut c);
        assert_eq!(c.core.ruu_entries, 64);
        assert_eq!(c.core.lsq_entries, 32);
    }

    #[test]
    fn axes_cover_the_papers_five() {
        let axes = figure8_axes();
        assert_eq!(axes.len(), 5);
        assert!(axes.iter().all(|(_, pts)| pts.len() == 5));
    }

    #[test]
    fn slower_memory_hurts_everyone() {
        let w = by_name("go").unwrap();
        let b = Budget::quick();
        let fast = sweep_point(&w, Knob::MemoryAccess(4), b);
        let slow = sweep_point(&w, Knob::MemoryAccess(64), b);
        assert!(slow.ds2 <= fast.ds2 * 1.02);
        assert!(slow.trad_half <= fast.trad_half * 1.02);
    }
}
