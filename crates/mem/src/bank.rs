//! Banked on-chip main-memory timing.
//!
//! The paper's §4.2 memory system: "high-capacity, on-chip memory banks
//! that can be accessed in 8 ns... connected with a 256-bit bus that is
//! clocked at the processor frequency". With a 1 GHz core that is an
//! 8-cycle bank access plus a one-cycle on-chip transfer per 32 bytes.

use crate::{Addr, Cycle};

/// Timing parameters of a node's local (on-chip) memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTimingConfig {
    /// Number of independent banks.
    pub banks: usize,
    /// Bank access (busy) time in core cycles.
    pub access_cycles: Cycle,
    /// Bytes moved per core cycle on the on-chip bus (256-bit bus at
    /// core clock = 32 B/cycle).
    pub onchip_bus_bytes_per_cycle: u64,
    /// Interleave granularity in bytes (typically the cache line size).
    pub interleave_bytes: u64,
}

impl Default for MemoryTimingConfig {
    fn default() -> Self {
        MemoryTimingConfig {
            banks: 8,
            access_cycles: 8,
            onchip_bus_bytes_per_cycle: 32,
            interleave_bytes: 32,
        }
    }
}

/// Banked main-memory timing model.
///
/// Purely a timing structure: it answers "when will a line-sized access
/// issued at cycle `now` complete?", tracking per-bank occupancy.
///
/// # Examples
///
/// ```
/// use ds_mem::{MainMemory, MemoryTimingConfig};
///
/// let mut m = MainMemory::new(MemoryTimingConfig::default());
/// let done = m.access(0x0, 32, 100);
/// assert_eq!(done, 109, "8-cycle bank + 1-cycle transfer");
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    config: MemoryTimingConfig,
    next_free: Vec<Cycle>,
    accesses: u64,
    busy_conflicts: u64,
}

impl MainMemory {
    /// Builds an idle memory.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `onchip_bus_bytes_per_cycle == 0`.
    pub fn new(config: MemoryTimingConfig) -> Self {
        assert!(config.banks > 0, "need at least one bank");
        assert!(config.onchip_bus_bytes_per_cycle > 0, "bus must move data");
        MainMemory { next_free: vec![0; config.banks], config, accesses: 0, busy_conflicts: 0 }
    }

    /// The timing parameters.
    pub fn config(&self) -> &MemoryTimingConfig {
        &self.config
    }

    fn bank_of(&self, addr: Addr) -> usize {
        ((addr / self.config.interleave_bytes) % self.config.banks as u64) as usize
    }

    /// Schedules an access of `bytes` bytes at `addr` issued at `now`;
    /// returns the completion cycle. Accesses to a busy bank queue
    /// behind it.
    pub fn access(&mut self, addr: Addr, bytes: u64, now: Cycle) -> Cycle {
        self.accesses += 1;
        let bank = self.bank_of(addr);
        let start = self.next_free[bank].max(now);
        if start > now {
            self.busy_conflicts += 1;
        }
        let transfer = bytes.div_ceil(self.config.onchip_bus_bytes_per_cycle);
        let done = start + self.config.access_cycles + transfer;
        self.next_free[bank] = done;
        done
    }

    /// Earliest cycle at which *every* bank is free, i.e. the cycle the
    /// last scheduled access completes. Banks are passive (completion
    /// times are returned to the issuer at `access` time, the core's
    /// event heap carries them), so this is a diagnostic horizon hook:
    /// at or after this cycle the memory can accept any access with no
    /// bank conflict.
    pub fn next_free_cycle(&self) -> Cycle {
        self.next_free.iter().copied().max().unwrap_or(0)
    }

    /// Total accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that queued behind a busy bank.
    pub fn busy_conflicts(&self) -> u64 {
        self.busy_conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_latency() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        assert_eq!(m.access(0, 32, 0), 9);
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn same_bank_serialises() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        let a = m.access(0, 32, 0);
        // Same bank (same interleave slot modulo banks): 0 and 8*32=256.
        let b = m.access(256, 32, 0);
        assert_eq!(b, a + 9);
        assert_eq!(m.busy_conflicts(), 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        let a = m.access(0, 32, 0);
        let b = m.access(32, 32, 0);
        assert_eq!(a, b, "adjacent lines hit different banks");
        assert_eq!(m.busy_conflicts(), 0);
    }

    #[test]
    fn bank_frees_after_completion() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        let a = m.access(0, 32, 0);
        let b = m.access(0, 32, a);
        assert_eq!(b, a + 9, "no conflict when issued after completion");
        assert_eq!(m.busy_conflicts(), 0);
    }

    #[test]
    fn next_free_cycle_tracks_the_busiest_bank() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        assert_eq!(m.next_free_cycle(), 0, "idle memory is free now");
        let a = m.access(0, 32, 100);
        assert_eq!(m.next_free_cycle(), a);
        let b = m.access(0, 32, 100); // same bank queues behind
        assert_eq!(m.next_free_cycle(), b);
        assert!(b > a);
    }

    #[test]
    fn wide_access_takes_more_transfer_cycles() {
        let mut m = MainMemory::new(MemoryTimingConfig::default());
        assert_eq!(m.access(0, 64, 0), 10, "two transfer beats for 64 B");
    }

    #[test]
    fn slow_memory_config() {
        let mut m = MainMemory::new(MemoryTimingConfig { access_cycles: 50, ..Default::default() });
        assert_eq!(m.access(0, 32, 0), 51);
    }
}
