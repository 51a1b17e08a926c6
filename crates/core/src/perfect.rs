//! The perfect-data-cache upper bound.
//!
//! The paper's Figure 7/8 baseline "an identical processor with a
//! perfect data cache (single-cycle access to any operand)". The core,
//! fetch path and I-cache behaviour are identical to the DataScalar
//! nodes'; only data accesses are idealised.

use crate::config::DsConfig;
use crate::stats::{NodeStats, RunResult};
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{
    ExecError, ExecRecord, FuncCore, LoadResponse, MemSystem, OooCore, RuuTag, TraceSource,
};
use ds_mem::{AccessKind, Cache, CacheOutcome, MainMemory, MemImage};

#[derive(Debug)]
struct PerfectMem {
    icache: Cache,
    mem: MainMemory,
    line_bytes: u64,
    stats: NodeStats,
}

impl MemSystem for PerfectMem {
    fn load_issued(&mut self, _rec: &ExecRecord, now: Cycle, _tag: RuuTag) -> (LoadResponse, bool) {
        self.stats.loads_issued += 1;
        self.stats.issue_hits += 1;
        (LoadResponse::Ready(now + 1), true)
    }

    fn mem_committed(&mut self, rec: &ExecRecord, _issue_hit: Option<bool>, _now: Cycle) {
        if rec.is_store() {
            self.stats.stores_committed += 1;
        }
    }

    fn fetch_line(&mut self, pc: u64, now: Cycle) -> Cycle {
        // The I-side is NOT idealised: same local I-cache + memory as a
        // DataScalar node, so the comparison isolates the data side.
        let line = self.icache.line_addr(pc);
        match self.icache.access(pc, AccessKind::Read) {
            CacheOutcome::Hit => now,
            CacheOutcome::Miss { .. } => self.mem.access(line, self.line_bytes, now),
        }
    }
}

/// A single core with a perfect (single-cycle) data cache.
#[derive(Debug)]
pub struct PerfectSystem {
    core: OooCore,
    ms: PerfectMem,
    trace: TraceSource,
    cycles: Cycle,
    max_insts: u64,
    watchdog_cycles: u64,
    /// `Some` once the forward-progress watchdog has tripped. A perfect
    /// cache cannot wedge on data, so this is pure parity with the
    /// other system models (a broken core model would still surface as
    /// a report rather than a hang).
    deadlock: Option<Box<crate::watchdog::DeadlockReport>>,
    /// Cycle accounting (observational; a no-op ZST unless built with
    /// `obs`).
    probe: crate::node::NodeProbe,
}

impl PerfectSystem {
    /// Builds the perfect-cache comparator for `program`; core, I-cache
    /// and local-memory parameters are taken from `config`.
    pub fn new(config: &DsConfig, program: &Program) -> Self {
        let mut mem = MemImage::new();
        program.load(&mut mem);
        PerfectSystem {
            core: OooCore::new(config.core, config.icache.line_bytes),
            ms: PerfectMem {
                icache: Cache::new(config.icache),
                mem: MainMemory::new(config.memory),
                line_bytes: config.icache.line_bytes,
                stats: NodeStats::default(),
            },
            trace: TraceSource::new(FuncCore::with_stack(program.entry, program.stack_top), mem),
            cycles: 0,
            max_insts: config.max_insts.unwrap_or(u64::MAX),
            watchdog_cycles: config.watchdog_cycles,
            deadlock: None,
            probe: Default::default(),
        }
    }

    /// Runs to completion (or the instruction cap).
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    pub fn run(&mut self) -> Result<RunResult, ExecError> {
        let mut wd = crate::watchdog::ForwardProgress::new(self.watchdog_cycles);
        while !self.core.is_done() && self.core.committed() < self.max_insts {
            self.core.step(&mut self.ms, &mut self.trace, self.cycles)?;
            #[cfg(feature = "obs")]
            self.charge_cycle(self.cycles);
            self.cycles += 1;
            if self.cycles.is_multiple_of(1024) {
                self.trace.trim(self.core.fetch_cursor());
            }
            if wd.watchdog_check(self.core.committed(), self.cycles) {
                self.deadlock = Some(Box::new(crate::watchdog::DeadlockReport {
                    cycle: self.cycles,
                    committed: self.core.committed(),
                    nodes: vec![crate::watchdog::NodeDeadlockState {
                        node: 0,
                        committed: self.core.committed(),
                        oldest: self.core.oldest_entry(),
                        ..Default::default()
                    }],
                    in_flight: Vec::new(),
                    recent_events: Vec::new(),
                }));
                break;
            }
        }
        let mut stats = self.ms.stats;
        stats.core = *self.core.stats();
        Ok(RunResult {
            cycles: self.cycles,
            committed: self.core.committed(),
            nodes: vec![stats],
            bus: Default::default(),
            trace_window_high_water: self.trace.max_window_len(),
            metrics: crate::node::single_core_metrics(&self.core, &self.probe, self.cycles),
            deadlock: self.deadlock.clone(),
        })
    }

    /// Charges `now` to one stall bucket. Loads are always serviced in
    /// one cycle here, so a remote wait can never arise; it maps to its
    /// generic bucket for totality.
    #[cfg(feature = "obs")]
    fn charge_cycle(&mut self, now: Cycle) {
        let charge = crate::node::stall_bucket(self.core.stall_class(now), || {
            ds_obs::StallBucket::BshrWaitRemote
        });
        crate::node::charge_block(&mut self.probe, charge, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_asm::assemble;

    #[test]
    fn perfect_cache_runs_and_counts() {
        let prog = assemble(
            r#"
            .data
            a: .word 1, 2, 3, 4, 5, 6, 7, 8
            .text
            main:   li   t0, 8
                    la   t1, a
                    li   t2, 0
            loop:   ld   t3, 0(t1)
                    add  t2, t2, t3
                    addi t1, t1, 8
                    addi t0, t0, -1
                    bnez t0, loop
                    halt
            "#,
        )
        .unwrap();
        let config = DsConfig::default();
        let mut sys = PerfectSystem::new(&config, &prog);
        let r = sys.run().unwrap();
        assert!(r.committed > 0);
        assert!(r.ipc() > 1.0, "perfect cache should exceed 1 IPC, got {}", r.ipc());
        assert_eq!(r.nodes[0].loads_issued, 8);
    }

    #[test]
    fn respects_instruction_cap() {
        let prog = assemble(
            ".text\nmain: li t0, 100000\nloop: addi t0, t0, -1\n bnez t0, loop\n halt\n",
        )
        .unwrap();
        let config = DsConfig { max_insts: Some(500), ..Default::default() };
        let mut sys = PerfectSystem::new(&config, &prog);
        let r = sys.run().unwrap();
        assert!(r.committed >= 500);
        assert!(r.committed < 1000);
    }
}
