//! DataScalar system configuration.

use ds_cpu::OooConfig;
use ds_mem::{CacheConfig, MemoryTimingConfig};
use ds_net::BusConfig;

/// Full configuration of a DataScalar machine.
///
/// The defaults are the paper's §4.2 simulated implementation (with the
/// substitutions recorded in `DESIGN.md` for values the text lost):
/// 8-wide 1 GHz out-of-order cores with 256 RUU entries, split 16 KiB
/// direct-mapped single-cycle L1s (D-cache write-back
/// write-no-allocate), 8-cycle banked on-chip memory, an 8-byte
/// off-chip bus at one tenth the core clock, 128-entry 2-cycle BSHRs, a
/// 2-cycle broadcast-queue penalty, 4 KiB pages distributed round-robin,
/// and the program text replicated at every node.
#[derive(Debug, Clone)]
pub struct DsConfig {
    /// Number of processor/memory nodes.
    pub nodes: usize,
    /// Out-of-order core parameters.
    pub core: OooConfig,
    /// D-cache geometry (must keep correspondence; updated at commit).
    pub dcache: CacheConfig,
    /// I-cache geometry (text is replicated; updated at fetch).
    pub icache: CacheConfig,
    /// Local (on-chip) memory timing.
    pub memory: MemoryTimingConfig,
    /// Global bus parameters (`ports` is overridden with `nodes`).
    pub bus: BusConfig,
    /// Interconnect topology: the paper evaluates a bus and envisions a
    /// ring (§4.4); both are available.
    pub interconnect: ds_net::FabricKind,
    /// BSHR capacity in entries.
    pub bshr_entries: usize,
    /// BSHR access latency in cycles.
    pub bshr_access_cycles: u64,
    /// Broadcast-queue penalty before data reaches the bus (the
    /// traditional system's network interface pays the same).
    pub queue_penalty: u64,
    /// Architectural page size in bytes.
    pub page_bytes: u64,
    /// Communicated pages are distributed round-robin in blocks of this
    /// many pages (the paper's §3.2 distribution size).
    pub dist_block_pages: u64,
    /// Additional virtual page numbers to replicate statically (e.g.
    /// chosen by profiling, as in §3.2).
    pub replicated_vpns: Vec<u64>,
    /// Optional data-TLB geometry (`None` = free translation, the
    /// paper's implicit assumption; the ablation harness sweeps this).
    pub tlb: Option<ds_mem::TlbConfig>,
    /// Page-table-walk cost in cycles on a TLB miss (one access to the
    /// single-level table locked in local low memory, §4.2).
    pub tlb_walk_cycles: u64,
    /// Stop after this many committed instructions per node (`None` =
    /// run to completion).
    pub max_insts: Option<u64>,
    /// Abort if no node commits for this many cycles (deadlock guard).
    pub watchdog_cycles: u64,
    /// ds-chaos fault schedule: drop/delay/duplicate/reorder rules
    /// applied at the fabric's delivery boundary plus per-node tick
    /// stalls. Empty (the default) compiles down to no injector at all,
    /// keeping goldens byte-identical.
    pub fault_plan: ds_net::FaultPlan,
    /// BSHR hardening: a non-owner wait older than this many cycles
    /// escalates to an explicit retransmit request to the owner. `None`
    /// (the default) disables the timeout machinery entirely — the
    /// fault-free protocol never needs it.
    pub bshr_timeout_cycles: Option<u64>,
    /// How many timeouts a line may suffer before it degrades to the
    /// traditional request–response protocol for the rest of the run.
    pub bshr_retry_budget: u32,
    /// Disable event-horizon cycle skipping and run the naive
    /// cycle-by-cycle reference loop. Means the same thing on all
    /// three system models — they share one engine. Skipping is
    /// behavior-invariant (asserted by `tests/skip_equivalence.rs`
    /// against this path on every machine), so the only reason to set
    /// this is that equivalence check itself, or profiling the naive
    /// loop.
    pub no_skip: bool,
}

impl Default for DsConfig {
    fn default() -> Self {
        DsConfig {
            nodes: 2,
            core: OooConfig::default(),
            dcache: CacheConfig::timing_dcache(),
            icache: CacheConfig::timing_icache(),
            memory: MemoryTimingConfig::default(),
            bus: BusConfig::default(),
            interconnect: ds_net::FabricKind::Bus,
            bshr_entries: 128,
            bshr_access_cycles: 2,
            queue_penalty: 2,
            page_bytes: 4096,
            dist_block_pages: 1,
            replicated_vpns: Vec::new(),
            tlb: None,
            tlb_walk_cycles: 9,
            max_insts: None,
            watchdog_cycles: 2_000_000,
            fault_plan: ds_net::FaultPlan::default(),
            bshr_timeout_cycles: None,
            bshr_retry_budget: 3,
            no_skip: false,
        }
    }
}

impl DsConfig {
    /// A configuration with `nodes` nodes and defaults elsewhere.
    pub fn with_nodes(nodes: usize) -> Self {
        DsConfig { nodes, ..Default::default() }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero nodes, page
    /// smaller than a cache line, ...). Called by the system builders.
    pub fn validate(&self) {
        assert!(self.nodes >= 1, "need at least one node");
        assert!(self.page_bytes >= self.dcache.line_bytes, "pages must be at least one cache line");
        assert!(self.page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(self.dist_block_pages >= 1, "distribution block must be positive");
        assert!(self.bshr_entries >= 1, "need at least one BSHR entry");
        assert!(
            self.bshr_timeout_cycles != Some(0),
            "a zero BSHR timeout would retransmit every cycle"
        );
        self.fault_plan.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let c = DsConfig::default();
        assert_eq!(c.core.ruu_entries, 256);
        assert_eq!(c.dcache.size_bytes, 16 * 1024);
        assert_eq!(c.dcache.assoc, 1);
        assert_eq!(c.memory.access_cycles, 8);
        assert_eq!(c.bus.width_bytes, 8);
        assert_eq!(c.bus.clock_divisor, 10);
        c.validate();
        // Text is replicated at every node (§4.2), so instruction
        // fetches never need a CUB.
        let prog = ds_asm::assemble(".text\nmain: halt\n").unwrap();
        let sys = crate::DsSystem::new(DsConfig::with_nodes(2), &prog);
        assert_eq!(sys.page_table().classify(prog.entry), ds_mem::PageClass::Replicated);
    }

    #[test]
    fn with_nodes_sets_count() {
        let c = DsConfig::with_nodes(4);
        assert_eq!(c.nodes, 4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        DsConfig { nodes: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one cache line")]
    fn tiny_pages_rejected() {
        DsConfig { page_bytes: 16, ..Default::default() }.validate();
    }
}
