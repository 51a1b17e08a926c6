//! Figure 8 parameter sweeps.
//!
//! The paper varies, one at a time around the baseline: data-cache
//! size, memory access time, global-bus clock divisor, global-bus
//! width, and RUU entries — for go and compress, across all five
//! systems.

use crate::{baseline_config, Budget, Figure7Row, FIGURE7};
use ds_core::DsConfig;
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
        ("dcache size", [4096u64, 8192, 16384, 32768, 65536].map(Knob::CacheSize).to_vec()),
        ("memory access time", [4u64, 8, 16, 32, 64].map(Knob::MemoryAccess).to_vec()),
        ("bus clock divisor", [2u64, 5, 10, 20, 40].map(Knob::BusClock).to_vec()),
        ("bus width", [2u64, 4, 8, 16, 32].map(Knob::BusWidth).to_vec()),
        ("RUU entries", [32usize, 64, 128, 256, 512].map(Knob::RuuEntries).to_vec()),
    ]
}

/// Evaluates all five Figure 7 systems at one knob setting, on one
/// build of the program.
pub fn sweep_point(w: &Workload, knob: Knob, budget: Budget) -> Figure7Row {
    let prog = (w.build)(budget.scale);
    Figure7Row::new(
        w.name,
        FIGURE7.map(|(system, nodes)| {
            let mut config = baseline_config(nodes, budget.max_insts);
            knob.apply(&mut config);
            system.run(config, &prog, w.name).ipc()
        }),
    )
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
    fn the_baseline_sweep_point_is_the_figure7_row() {
        // Figure 8's RUU axis passes through the baseline configuration:
        // the same five runs as Figure 7, through the same path.
        let w = by_name("go").unwrap();
        let b = Budget::quick();
        let point = sweep_point(&w, Knob::RuuEntries(256), b);
        let row = crate::figure7_row(&w, b);
        let bits = |r: &Figure7Row| {
            [r.perfect, r.ds2, r.ds4, r.trad_half, r.trad_quarter].map(f64::to_bits)
        };
        assert_eq!(point.name, row.name);
        assert_eq!(bits(&point), bits(&row));
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
