//! The perfect-data-cache upper bound.
//!
//! The paper's Figure 7/8 baseline "an identical processor with a
//! perfect data cache (single-cycle access to any operand)". The core,
//! fetch path and I-cache behaviour are identical to the DataScalar
//! nodes'; only data accesses are idealised.

use crate::config::DsConfig;
use crate::engine::{Engine, Machine};
use crate::stats::{NodeStats, RunResult};
use crate::watchdog::{DeadlockReport, NodeDeadlockState};
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{ExecError, ExecRecord, LoadResponse, MemSystem, OooCore, RuuTag, TraceSource};
use ds_mem::{AccessKind, Cache, CacheOutcome, MainMemory};

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
    engine: Engine,
    machine: PerfectMachine,
}

/// What the engine drives: one core and its idealised memory. A
/// perfect cache cannot wedge on data, so the watchdog is pure parity
/// with the other system models (a broken core model would still
/// surface as a report rather than a hang).
#[derive(Debug)]
struct PerfectMachine {
    core: OooCore,
    ms: PerfectMem,
    /// Cycle accounting (observational; a no-op ZST unless built with
    /// `obs`).
    ledger: crate::node::NodeLedger,
}

impl PerfectSystem {
    /// Builds the perfect-cache comparator for `program`; core, I-cache
    /// and local-memory parameters are taken from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`DsConfig::validate`]).
    pub fn new(config: &DsConfig, program: &Program) -> Self {
        config.validate();
        let machine = PerfectMachine {
            core: OooCore::new(config.core, config.icache.line_bytes),
            ms: PerfectMem {
                icache: Cache::new(config.icache),
                mem: MainMemory::new(config.memory),
                line_bytes: config.icache.line_bytes,
                stats: NodeStats::default(),
            },
            ledger: Default::default(),
        };
        PerfectSystem { engine: Engine::new(config, program), machine }
    }

    /// Runs to completion (or the instruction cap).
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    pub fn run(&mut self) -> Result<RunResult, ExecError> {
        self.engine.run(&mut self.machine)?;
        let m = &self.machine;
        let mut stats = m.ms.stats;
        stats.core = *m.core.stats();
        Ok(self.engine.result(
            m.core.committed(),
            vec![stats],
            Default::default(),
            metrics(&m.core, &m.ledger, self.engine.cycles()),
        ))
    }

    /// Cycles covered by event-horizon jumps instead of naive
    /// iteration. Zero under `no_skip`; excluded from [`RunResult`] so
    /// the two paths stay byte-comparable.
    pub fn cycles_skipped(&self) -> u64 {
        self.engine.cycles_skipped()
    }
}

impl Machine for PerfectMachine {
    fn step_cycle(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError> {
        self.core.step(&mut self.ms, trace, now)?;
        #[cfg(feature = "obs")]
        self.charge(now, 1);
        Ok(())
    }

    fn each_core(&self, mut visit: impl FnMut(&OooCore)) {
        visit(&self.core);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.core.next_event(now)
    }

    fn advance_to(&mut self, now: Cycle, horizon: Cycle) {
        self.core.advance_to(now, horizon);
        #[cfg(feature = "obs")]
        self.charge(now + 1, horizon - (now + 1));
    }

    fn deadlock_evidence(&self, _now: Cycle, report: &mut DeadlockReport) {
        report.nodes.push(NodeDeadlockState {
            node: 0,
            committed: self.core.committed(),
            oldest: self.core.oldest_entry(),
            ..Default::default()
        });
        #[cfg(feature = "obs")]
        report.recent_events.extend(self.core.events().iter().cloned());
    }
}

/// The [`ds_obs::MetricsReport`] of the one core: its event ring, cycle
/// account, per-PC profile and critical path. `None` unless built with
/// `obs`.
#[cfg(feature = "obs")]
fn metrics(
    core: &OooCore,
    ledger: &crate::node::NodeLedger,
    cycles: Cycle,
) -> Option<ds_obs::MetricsReport> {
    let mut m = ds_obs::MetricsReport::default();
    m.absorb(core.events());
    let acct = *ledger.account();
    if cfg!(any(debug_assertions, feature = "audit")) {
        assert_eq!(acct.total(), cycles, "stall buckets must sum to total cycles");
    }
    m.node_accounts.push(acct);
    m.hot_pcs = ds_obs::top_hot_pcs([ledger.pc_profile()], 16);
    m.critpath.nodes.push(core.crit_window().path_report());
    Some(m)
}

/// Uninstrumented builds carry no metrics.
#[cfg(not(feature = "obs"))]
fn metrics(
    _core: &OooCore,
    _ledger: &crate::node::NodeLedger,
    _cycles: Cycle,
) -> Option<ds_obs::MetricsReport> {
    None
}

impl PerfectMachine {
    /// Charges the `n` cycles from `at` to the stall bucket `at`
    /// classifies to (`n > 1` only for a quiescent block, which one
    /// classification covers). Loads are always serviced in one cycle
    /// here, so a remote wait can never arise; it maps to its generic
    /// bucket for totality.
    #[cfg(feature = "obs")]
    fn charge(&mut self, at: Cycle, n: u64) {
        use ds_obs::Probe as _;
        let charge = crate::node::stall_bucket(self.core.stall_class(at), || {
            ds_obs::StallBucket::BshrWaitRemote
        });
        self.ledger.charge(charge, n);
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
    #[should_panic(expected = "at least one node")]
    fn rejects_an_inconsistent_config_like_the_other_machines() {
        let prog = assemble(".text\nmain: halt\n").unwrap();
        PerfectSystem::new(&DsConfig { nodes: 0, ..Default::default() }, &prog);
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
