//! The one cycle loop all three system models run through
//! (DESIGN.md §12).
//!
//! Figure 7 compares machines that are supposed to differ in one thing,
//! the memory system, so the rest of simulating them is written once,
//! here: the clock, the shared trace and its trimming, the watchdog,
//! termination, and event-horizon skipping of quiescent cycles. A
//! machine says only what differs, through the five [`Machine`] hooks.

use crate::config::DsConfig;
use crate::stats::{NodeStats, RunResult};
use crate::watchdog::{DeadlockReport, ForwardProgress, REPORT_EVENT_TAIL};
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{ExecError, FuncCore, OooCore, TraceSource};
use ds_mem::{MemImage, PageTableBuilder, Segment};

/// Cycles between trims of the shared trace window.
const TRIM_INTERVAL: Cycle = 1024;

/// What differs between the system models.
pub(crate) trait Machine {
    /// Simulates cycle `now` completely: every core steps, the cycle is
    /// charged to a stall bucket, ready messages launch, the
    /// interconnect steps and delivers, fault timers are polled.
    fn step_cycle(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError>;

    /// The machine's flavour (`ds_obs::Flavour`).
    type Flavour: ds_obs::Flavour;

    /// Calls `visit` on every core, in node order.
    fn each_core(&self, visit: impl FnMut(&OooCore<Self::Flavour>));

    /// Earliest cycle after `now` at which any component's state can
    /// change, given that cycle `now` has fully completed. Conservative:
    /// never later than the true next change.
    fn next_event(&self, now: Cycle) -> Cycle;

    /// Applies what the naive loop's iterations over the quiescent
    /// cycles `now + 1 .. horizon` would have: the cores' stall
    /// bookkeeping, then one stall classification charged for the
    /// whole block.
    fn advance_to(&mut self, now: Cycle, horizon: Cycle);

    /// Fills in the machine's side of a deadlock report: per-node
    /// snapshots, messages still on the interconnect, and every
    /// recorded event (the engine keeps the tail). Cold path.
    fn deadlock_evidence(&self, now: Cycle, report: &mut DeadlockReport);
}

/// The page distribution every machine places `program` by: its
/// regions, text replicated at every node (§4.2: instruction fetches
/// are always served locally, so no instruction CUB is needed), the
/// statically replicated pages, and the rest dealt round-robin across
/// `config.nodes`.
pub(crate) fn page_distribution(config: &DsConfig, program: &Program) -> PageTableBuilder {
    let mut ptb = PageTableBuilder::new(config.page_bytes, config.nodes);
    for (start, end, seg) in program.regions() {
        ptb.add_region(start, end, seg);
    }
    ptb.replicate_segment(Segment::Text);
    for &vpn in &config.replicated_vpns {
        ptb.replicate_page_of(vpn * config.page_bytes);
    }
    ptb.distribute_round_robin(config.dist_block_pages);
    ptb
}

/// The run state that is the same for every machine.
#[derive(Debug)]
pub(crate) struct Engine {
    trace: TraceSource,
    cycles: Cycle,
    /// Cycles covered by event-horizon jumps rather than naive
    /// iteration (diagnostic; not part of `RunResult`).
    skipped: u64,
    /// `Some` once the forward-progress watchdog has tripped: the run
    /// terminated with this structured evidence instead of hanging.
    deadlock: Option<Box<DeadlockReport>>,
    max_insts: u64,
    watchdog_cycles: u64,
    no_skip: bool,
}

impl Engine {
    /// Loads `program` into a fresh functional core feeding the shared
    /// trace. `config` is one the caller has validated.
    pub(crate) fn new(config: &DsConfig, program: &Program) -> Self {
        let mut mem = MemImage::new();
        program.load(&mut mem);
        Engine {
            trace: TraceSource::new(FuncCore::with_stack(program.entry, program.stack_top), mem),
            cycles: 0,
            skipped: 0,
            deadlock: None,
            max_insts: config.max_insts.unwrap_or(u64::MAX),
            watchdog_cycles: config.watchdog_cycles,
            no_skip: config.no_skip,
        }
    }

    pub(crate) fn cycles(&self) -> Cycle {
        self.cycles
    }

    pub(crate) fn cycles_skipped(&self) -> u64 {
        self.skipped
    }

    pub(crate) fn deadlocked(&self) -> bool {
        self.deadlock.is_some()
    }

    /// The functional memory image (state up to the furthest point
    /// generated).
    pub(crate) fn mem(&self) -> &MemImage {
        self.trace.mem()
    }

    /// A `RunResult` from the engine's side of the run plus the
    /// machine's.
    pub(crate) fn result(
        &self,
        committed: u64,
        nodes: Vec<NodeStats>,
        bus: ds_net::BusStats,
        metrics: Option<ds_obs::MetricsReport>,
    ) -> RunResult {
        RunResult {
            cycles: self.cycles,
            committed,
            nodes,
            bus,
            trace_window_high_water: self.trace.max_window_len(),
            metrics,
            deadlock: self.deadlock.clone(),
        }
    }

    /// Runs `machine` until every core has committed the whole program
    /// (or `max_insts` instructions), or until no core commits for
    /// `watchdog_cycles` — then the run ends with a [`DeadlockReport`]
    /// instead of hanging.
    ///
    /// Unless `no_skip` pins the naive reference loop, a cycle in which
    /// nothing committed is followed by a jump to the machine's next
    /// event: every skipped cycle is one the naive loop would have
    /// executed without changing any state except the stall counters
    /// `advance_to` charges. Gating on quiescence keeps the horizon
    /// scan off busy phases (a committing core's next event is the
    /// very next cycle anyway).
    pub(crate) fn run<M: Machine>(&mut self, machine: &mut M) -> Result<(), ExecError> {
        let mut wd = ForwardProgress::new(self.watchdog_cycles);
        loop {
            let now = self.cycles;
            machine.step_cycle(&mut self.trace, now)?;
            self.cycles += 1;

            let mut total: u64 = 0;
            let mut all_done = true;
            let mut slowest_fetch = u64::MAX;
            machine.each_core(|core| {
                let committed = core.committed();
                total += committed;
                all_done &= core.is_done() || committed >= self.max_insts;
                slowest_fetch = slowest_fetch.min(core.fetch_cursor());
            });
            // Trim the shared trace behind the slowest core.
            if now.is_multiple_of(TRIM_INTERVAL) {
                self.trace.trim(slowest_fetch);
            }
            if wd.watchdog_check(total, self.cycles) {
                let mut report =
                    DeadlockReport { cycle: self.cycles, committed: total, ..Default::default() };
                machine.deadlock_evidence(now, &mut report);
                // Stable by cycle: ties keep node order, so the tail is
                // deterministic across engines.
                report.recent_events.sort_by_key(|e| e.cycle);
                let excess = report.recent_events.len().saturating_sub(REPORT_EVENT_TAIL);
                report.recent_events.drain(..excess);
                self.deadlock = Some(Box::new(report));
                return Ok(());
            }
            if all_done {
                return Ok(());
            }
            let progressed = wd.watchdog_last_progress() == self.cycles;
            if self.no_skip || progressed {
                continue;
            }
            // Clamped to the watchdog deadline, so a wedged machine
            // reaches its trip cycle by naive iteration on both engines.
            let horizon = machine.next_event(now).min(wd.watchdog_deadline());
            if horizon <= now + 1 {
                continue;
            }
            machine.advance_to(now, horizon);
            // The naive loop trims at the end of every TRIM_INTERVAL
            // multiple. Fetch cursors are frozen across the skipped
            // range, so at most one trim matters: run it iff a boundary
            // falls inside `[now + 1, horizon - 1]`.
            if (now + 1).next_multiple_of(TRIM_INTERVAL) < horizon {
                self.trace.trim(slowest_fetch);
            }
            self.skipped += horizon - (now + 1);
            self.cycles = horizon;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine whose one core never commits and whose horizon is
    /// scripted, recording what the engine asks of it.
    struct Scripted {
        core: OooCore,
        horizons: Vec<Cycle>,
        stepped: Vec<Cycle>,
        jumps: Vec<(Cycle, Cycle)>,
    }

    impl Machine for Scripted {
        fn step_cycle(&mut self, _trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError> {
            self.stepped.push(now);
            Ok(())
        }

        type Flavour = ds_obs::DefaultFlavour;

        fn each_core(&self, mut visit: impl FnMut(&OooCore)) {
            visit(&self.core);
        }

        fn next_event(&self, _now: Cycle) -> Cycle {
            self.horizons.get(self.jumps.len()).copied().unwrap_or(Cycle::MAX)
        }

        fn advance_to(&mut self, now: Cycle, horizon: Cycle) {
            self.jumps.push((now, horizon));
        }

        fn deadlock_evidence(&self, _now: Cycle, _report: &mut DeadlockReport) {}
    }

    #[test]
    fn jumps_are_clamped_to_the_watchdog_deadline_and_counted() {
        let config = DsConfig { watchdog_cycles: 50, ..Default::default() };
        let program = ds_asm::assemble(".text\nmain: halt\n").unwrap();
        let mut engine = Engine::new(&config, &program);
        let mut machine = Scripted {
            core: OooCore::new(config.core, config.icache.line_bytes),
            horizons: vec![10],
            stepped: Vec::new(),
            jumps: Vec::new(),
        };
        engine.run(&mut machine).unwrap();
        // The first horizon is honoured; the second (`Cycle::MAX`) is
        // clamped to the deadline, cycle 50, which is then stepped
        // naively and trips the watchdog.
        assert_eq!(machine.jumps, [(0, 10), (10, 50)]);
        assert_eq!(machine.stepped, [0, 10, 50]);
        assert_eq!(engine.cycles_skipped(), (10 - 1) + (50 - 11));
        assert_eq!(engine.cycles(), 51);
        assert_eq!(engine.cycles(), machine.stepped.len() as u64 + engine.cycles_skipped());
        let report = engine.deadlock.as_deref().expect("a core that never commits must trip");
        assert_eq!((report.cycle, report.committed), (51, 0));
    }
}
