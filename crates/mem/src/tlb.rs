//! TLB timing model for address translation.
//!
//! The paper implements address translation with a single-level page
//! table locked in the low region of physical memory (§4.2) and does
//! not model a TLB (translation is implicitly free). This module adds
//! an optional, set-associative TLB so the ablation harness can measure
//! how sensitive the DataScalar results are to that assumption: a TLB
//! miss costs one local page-table access (the table is locked in
//! *local* memory at every node — it is replicated state, so the walk
//! never crosses the interconnect).

use crate::{Addr, Cycle};

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity (entries must be divisible by it; sets must be a
    /// power of two).
    pub assoc: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// A typical 64-entry fully-associative TLB.
    pub fn typical(page_bytes: u64) -> Self {
        TlbConfig { entries: 64, assoc: 64, page_bytes }
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    lru: u64,
}

/// A set-associative TLB (timing state only — translation itself is
/// identity in this simulator).
///
/// # Examples
///
/// ```
/// use ds_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 4, assoc: 4, page_bytes: 4096 });
/// assert!(!tlb.access(0x1000));
/// assert!(tlb.access(0x1fff), "same page hits");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    sets: Vec<Vec<TlbEntry>>,
    num_sets: u64,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(config.assoc >= 1 && config.entries >= config.assoc);
        assert_eq!(config.entries % config.assoc, 0, "entries must divide into ways");
        let num_sets = (config.entries / config.assoc) as u64;
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            sets: vec![Vec::with_capacity(config.assoc); num_sets as usize],
            num_sets,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr`: returns `true` on a TLB hit. A miss installs
    /// the entry (the page-table walk is charged by the caller).
    pub fn access(&mut self, addr: Addr) -> bool {
        self.stamp += 1;
        let vpn = addr / self.config.page_bytes;
        let set = (vpn % self.num_sets) as usize;
        let assoc = self.config.assoc;
        let stamp = self.stamp;
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.vpn == vpn) {
            e.lru = stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if entries.len() >= assoc {
            #[expect(
                clippy::expect_used,
                reason = "this branch requires entries.len() >= assoc and assoc >= 1 is validated \
                          at construction"
            )]
            let (i, _) =
                entries.iter().enumerate().min_by_key(|(_, e)| e.lru).expect("non-empty set");
            entries.swap_remove(i);
        }
        entries.push(TlbEntry { vpn, lru: stamp });
        false
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Translation timing helper: the cycle at which translation of `addr`
/// completes, charging a page-table walk in `walk` cycles on a miss.
pub fn translate(tlb: &mut Tlb, addr: Addr, now: Cycle, walk: Cycle) -> Cycle {
    if tlb.access(addr) {
        now
    } else {
        now + walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig { entries: 4, assoc: 2, page_bytes: 4096 })
    }

    #[test]
    fn same_page_hits_after_install() {
        let mut t = tiny();
        assert!(!t.access(0x0));
        assert!(t.access(0xfff));
        assert!(!t.access(0x1000), "next page misses");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_within_a_set() {
        let mut t = tiny();
        // 2 sets; vpns 0, 2, 4 share set 0.
        t.access(0x0000); // vpn 0
        t.access(0x2000); // vpn 2
        t.access(0x0000); // refresh vpn 0
        t.access(0x4000); // vpn 4 evicts vpn 2
        assert!(t.access(0x0000), "vpn 0 retained");
        assert!(!t.access(0x2000), "vpn 2 evicted");
    }

    #[test]
    fn hit_rate_reporting() {
        let mut t = tiny();
        assert_eq!(t.hit_rate(), 1.0, "vacuous");
        t.access(0x0);
        t.access(0x0);
        t.access(0x0);
        assert!((t.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn translate_charges_walk_on_miss() {
        let mut t = tiny();
        assert_eq!(translate(&mut t, 0x5000, 100, 9), 109);
        assert_eq!(translate(&mut t, 0x5008, 100, 9), 100);
    }

    #[test]
    fn fully_associative_geometry() {
        let mut t = Tlb::new(TlbConfig::typical(4096));
        for p in 0..64u64 {
            t.access(p * 4096);
        }
        for p in 0..64u64 {
            assert!(t.access(p * 4096), "all 64 pages resident");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        Tlb::new(TlbConfig { entries: 4, assoc: 2, page_bytes: 3000 });
    }
}
