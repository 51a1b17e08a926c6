//! The complete DataScalar machine.

use crate::config::DsConfig;
use crate::engine::{self, Engine, Machine};
use crate::node::{Node, Remote};
use crate::stats::RunResult;
use crate::watchdog::DeadlockReport;
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{ExecError, OooCore, TraceSource};
use ds_mem::{MemImage, PageTable};
use ds_net::{Delivery, Fabric};
use std::sync::Arc;

/// The DataScalar machine: `N` nodes on a broadcast bus, all running
/// the same program.
///
/// # Examples
///
/// See the crate-level examples and `examples/quickstart.rs`.
#[derive(Debug)]
pub struct DsSystem {
    engine: Engine,
    machine: DsMachine,
}

/// What the engine drives: the nodes, the interconnect between them,
/// and the observers that watch both.
#[derive(Debug)]
struct DsMachine {
    config: DsConfig,
    nodes: Vec<Node>,
    bus: Fabric,
    page_table: Arc<PageTable>,
    /// This cycle's completed deliveries. Reused every cycle; the hot
    /// loop allocates nothing.
    deliveries: Vec<Delivery>,
    /// Cross-node commit-stream auditor (observational only).
    #[cfg(feature = "audit")]
    audit: crate::audit::SystemAudit,
    /// System-level events (lead changes) — observational only.
    #[cfg(feature = "obs")]
    probe: ds_obs::Recorder,
    /// Node currently holding the commit lead (argmax committed, ties
    /// to the lowest id) and the cycle it took the lead.
    #[cfg(feature = "obs")]
    lead: (usize, Cycle),
}

impl DsSystem {
    /// Builds a system for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`DsConfig::validate`]).
    pub fn new(config: DsConfig, program: &Program) -> Self {
        config.validate();
        // The ledger's `setup_s` is sensitive to this allocation order
        // (see `drain_interconnect`).
        let distribution = engine::page_distribution(&config, program);
        let page_table = Arc::new(distribution.build());
        let engine = Engine::new(&config, program);
        let mut bus_cfg = config.bus;
        bus_cfg.ports = config.nodes;
        let nodes = (0..config.nodes)
            .map(|i| Node::new(i, Arc::clone(&page_table), &config, Remote::Broadcast))
            .collect();
        let machine = DsMachine {
            bus: Fabric::with_chaos(config.interconnect, bus_cfg, &config.fault_plan),
            nodes,
            page_table,
            deliveries: Vec::new(),
            #[cfg(feature = "audit")]
            audit: crate::audit::SystemAudit::new(config.nodes),
            #[cfg(feature = "obs")]
            probe: ds_obs::Recorder::default(),
            #[cfg(feature = "obs")]
            lead: (0, 0),
            config,
        };
        DsSystem { engine, machine }
    }

    /// The page table (replication/ownership map).
    pub fn page_table(&self) -> &PageTable {
        &self.machine.page_table
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.machine.nodes
    }

    /// Cycles covered by event-horizon jumps instead of naive
    /// iteration — the engine's work saved. Zero under
    /// `config.no_skip`; excluded from [`RunResult`] so the two paths
    /// stay byte-comparable.
    pub fn cycles_skipped(&self) -> u64 {
        self.engine.cycles_skipped()
    }

    /// Final memory image view (functional state; reflects execution up
    /// to the furthest point generated).
    pub fn mem(&self) -> &MemImage {
        self.engine.mem()
    }

    /// Runs until every node commits the whole program (or
    /// `config.max_insts` instructions), returning aggregate results.
    ///
    /// If no node commits for `config.watchdog_cycles` consecutive
    /// cycles — a correspondence-protocol deadlock, which the fault-free
    /// design rules out but ds-chaos injection provokes on purpose —
    /// the run terminates with a structured [`DeadlockReport`] on
    /// [`RunResult::deadlock`] instead of hanging or panicking.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors (undecodable
    /// instructions).
    pub fn run(&mut self) -> Result<RunResult, ExecError> {
        self.engine.run(&mut self.machine)?;
        let end = self.engine.cycles();
        #[cfg(feature = "obs")]
        {
            self.machine.close_lead_segment(end);
            // Close each node's final (partial) timeline interval at
            // the run's end cycle, so the interval deltas partition the
            // whole run.
            for node in &mut self.machine.nodes {
                node.close_timeline(end);
            }
        }
        let result = self.result();
        // A deadlocked interconnect cannot drain (the wedged episode's
        // traffic never resolves); the report already captured it.
        if !self.engine.deadlocked() {
            self.machine.drain_interconnect(end);
        }
        #[cfg(feature = "audit")]
        self.assert_audit_invariants();
        // Released here, not at drop: see `drain_interconnect`.
        self.machine.deliveries = Vec::new();
        Ok(result)
    }

    /// The results accumulated so far.
    pub fn result(&self) -> RunResult {
        let nodes = &self.machine.nodes;
        self.engine.result(
            nodes.iter().map(|n| n.committed()).min().unwrap_or(0),
            nodes.iter().map(|n| n.stats()).collect(),
            *self.machine.bus.stats(),
            self.metrics(),
        )
    }

    /// The fabric-level fault-injection counters: `None` when the run's
    /// `FaultPlan` was empty (no injector was built at all).
    pub fn fault_stats(&self) -> Option<&ds_net::FaultStats> {
        self.machine.bus.fault_stats()
    }

    /// Derived event-stream metrics: `None` unless built with `obs`.
    #[cfg(not(feature = "obs"))]
    fn metrics(&self) -> Option<ds_obs::MetricsReport> {
        None
    }

    /// Checks the cache-correspondence invariant: with all nodes at the
    /// same committed count, every canonical cache must hold exactly
    /// the same lines with the same dirty bits.
    pub fn correspondence_holds(&self) -> bool {
        let nodes = self.nodes();
        let counts: Vec<u64> = nodes.iter().map(|n| n.committed()).collect();
        if counts.windows(2).any(|w| w[0] != w[1]) {
            // Only comparable at equal commit points.
            return true;
        }
        let reference = nodes[0].canonical_cache_lines();
        nodes.iter().all(|n| n.canonical_cache_lines() == reference)
    }
}

impl Machine for DsMachine {
    fn step_cycle(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError> {
        // 1. Every node simulates this cycle (the paper's simulator
        //    "switches contexts after executing each cycle").
        for node in &mut self.nodes {
            node.step(trace, now)?;
        }
        #[cfg(feature = "audit")]
        self.absorb_audit();
        #[cfg(feature = "obs")]
        self.track_lead(now);
        // Top-down cycle accounting: charge this cycle to exactly one
        // bucket per node. Runs before the engine's `cycles += 1`, so
        // every node's account total equals `cycles` exactly.
        #[cfg(feature = "obs")]
        {
            let bus_busy = !self.bus.is_idle();
            for node in &mut self.nodes {
                node.charge_cycle(now, bus_busy);
            }
        }
        // 2–3. Ready broadcasts launch; the bus steps and delivers.
        launch_and_deliver(&mut self.nodes, &mut self.bus, now, &mut self.deliveries);
        // 3b. BSHR hardening: expired waits escalate to retransmit
        //     requests (or degraded direct requests). Polled after this
        //     cycle's deliveries so an arrival at `now` always beats a
        //     timeout at `now`. Gated — the fault-free path never scans.
        if self.config.bshr_timeout_cycles.is_some() {
            for node in &mut self.nodes {
                node.poll_faults(now);
            }
        }
        Ok(())
    }

    fn each_core(&self, mut visit: impl FnMut(&OooCore)) {
        for node in &self.nodes {
            visit(&node.core);
        }
    }

    /// Core event heaps, fetch stalls, queued broadcasts, BSHR
    /// deadlines and chaos-stall edges per node, plus the interconnect.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = self.bus.next_event(now);
        for node in &self.nodes {
            horizon = horizon.min(node.next_event(now));
        }
        horizon
    }

    fn advance_to(&mut self, now: Cycle, horizon: Cycle) {
        #[cfg(feature = "obs")]
        let bus_busy = !self.bus.is_idle();
        for node in &mut self.nodes {
            node.advance_to(now, horizon);
            #[cfg(feature = "obs")]
            node.charge_skipped(now + 1, horizon - (now + 1), bus_busy);
        }
    }

    /// A stalled machine means the broadcast/BSHR pairing broke and
    /// (with hardening off or exhausted) no recovery exists: per-node
    /// RUU/BSHR snapshots, every message still on (or fault-deferred
    /// inside) the interconnect, and the nodes' event rings.
    fn deadlock_evidence(&self, now: Cycle, report: &mut DeadlockReport) {
        report.nodes = self.nodes.iter().map(|n| n.deadlock_state(now)).collect();
        self.bus.pending_into(&mut report.in_flight);
        #[cfg(feature = "obs")]
        for n in &self.nodes {
            report.recent_events.extend(n.events().iter().cloned());
        }
    }
}

/// Steps 2 and 3 of a cycle: ready broadcasts enter the bus; the bus
/// advances and completed messages are delivered. `deliveries` is the
/// caller's reused scratch buffer.
fn launch_and_deliver(
    nodes: &mut [Node],
    bus: &mut Fabric,
    now: Cycle,
    deliveries: &mut Vec<Delivery>,
) {
    for node in nodes.iter_mut() {
        while let Some(msg) = node.next_outgoing(now) {
            bus.enqueue(msg);
        }
    }
    bus.step_into(now, deliveries);
    for delivery in deliveries.iter() {
        nodes[delivery.dest].deliver(&delivery.msg, now);
    }
}

impl DsMachine {
    /// Delivers every in-flight broadcast after the cores finish, so
    /// the ESP send/consume ledgers balance (a node can retire its last
    /// instruction while a reparative broadcast it triggered is still
    /// queued). Runs outside the timed region — the reported cycle
    /// count is the completion time.
    ///
    /// Drains into its own buffer, not the per-cycle one. Measured, not
    /// taste: sharing it removes one 320-byte allocation per run, and
    /// that alone moved the ledger's `setup_s` on `li.ds2.bus` from
    /// 1.1 ms to 1.6 ms (bound 25%) — glibc trims the heap differently
    /// after the run and the next rep's `Workload.build` page-faults
    /// again. So build → new → run keeps the heap-operation sequence it
    /// had before the engine split: this buffer, the allocation order
    /// in `new`, and the per-cycle buffer's release at the end of `run`.
    fn drain_interconnect(&mut self, end: Cycle) {
        let mut t = end;
        let deadline = t + 100_000_000;
        let mut deliveries = Vec::new();
        loop {
            launch_and_deliver(&mut self.nodes, &mut self.bus, t, &mut deliveries);
            t += 1;
            let quiescent = self.bus.is_idle()
                && self.nodes.iter().all(|n| n.outgoing_is_empty());
            if quiescent {
                break;
            }
            assert!(t < deadline, "interconnect failed to drain");
        }
    }
}

/// Event-stream observability (docs/observability.md): cycle-stamped
/// protocol events per node plus system-level lead tracking.
/// Observational only — an `obs` build produces the same cycles and
/// stats (asserted by `tests/golden_stats.rs` under `--features obs`).
#[cfg(feature = "obs")]
impl DsMachine {
    /// Per-cycle lead tracking: the node with the most committed
    /// instructions holds the lead (ties to the lowest id, so lead
    /// changes are deterministic). A change of leader ends one
    /// datathread run; the closed segment's length feeds the
    /// datathread-run histogram.
    fn track_lead(&mut self, now: Cycle) {
        use ds_obs::Probe as _;
        let mut leader = 0usize;
        let mut best = 0u64;
        for (i, n) in self.nodes.iter().enumerate() {
            let c = n.committed();
            if c > best {
                best = c;
                leader = i;
            }
        }
        let (prev, since) = self.lead;
        if leader != prev {
            self.probe.record(
                now,
                ds_obs::EventKind::LeadChange {
                    node: prev as u32,
                    held_cycles: now.saturating_sub(since),
                },
            );
            self.lead = (leader, now);
        }
    }

    /// Closes the final lead segment when the run ends at `end`, so
    /// every cycle of the run is covered by exactly one datathread run.
    fn close_lead_segment(&mut self, end: Cycle) {
        use ds_obs::Probe as _;
        let (prev, since) = self.lead;
        self.probe.record(
            end,
            ds_obs::EventKind::LeadChange {
                node: prev as u32,
                held_cycles: end.saturating_sub(since),
            },
        );
        self.lead = (prev, end);
    }
}

#[cfg(feature = "obs")]
impl DsSystem {
    /// Folds every ring — per-node memory sides and cores, the
    /// interconnect, and the system's own lead events — into one
    /// [`ds_obs::MetricsReport`].
    fn metrics(&self) -> Option<ds_obs::MetricsReport> {
        let mut m = crate::node::nodes_metrics(&self.machine.nodes, self.engine.cycles())?;
        m.absorb(self.machine.bus.events());
        m.absorb(self.machine.probe.ring());
        Some(m)
    }

    /// Renders the per-node cycle accounts (and per-PC memory-wait
    /// profiles) in the flamegraph folded-stacks text format: one
    /// `frame;frame value` line per leaf. Feed to `flamegraph.pl` or
    /// any folded-stacks viewer. Per node, the leaf values sum exactly
    /// to the run's total cycles.
    pub fn folded_stacks(&self) -> String {
        use ds_obs::StallBucket;
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, node) in self.machine.nodes.iter().enumerate() {
            let acct = node.cycle_account();
            let profile = node.pc_profile();
            for b in StallBucket::ALL {
                let cycles = acct.get(b);
                if cycles == 0 {
                    continue;
                }
                match b {
                    // PC-attributed buckets: the per-PC leaves (plus any
                    // overflow remainder) sum exactly to the bucket, so
                    // the bucket frame itself is emitted only via its
                    // children to avoid double counting.
                    StallBucket::BshrWaitRemote | StallBucket::LocalMemWait => {
                        let remote = b == StallBucket::BshrWaitRemote;
                        let mut attributed = 0u64;
                        for e in profile.entries() {
                            let n = if remote { e.remote_wait } else { e.local_wait };
                            if n > 0 {
                                let _ = writeln!(
                                    out,
                                    "node{i};{};0x{:x} {n}",
                                    b.label(),
                                    e.pc
                                );
                                attributed += n;
                            }
                        }
                        let rest = cycles - attributed;
                        if rest > 0 {
                            let _ =
                                writeln!(out, "node{i};{};(overflow) {rest}", b.label());
                        }
                    }
                    _ => {
                        let _ = writeln!(out, "node{i};{} {cycles}", b.label());
                    }
                }
            }
        }
        out
    }

    /// Snapshots every node's interval timeline (and segments phases)
    /// into one [`ds_obs::TimelineReport`]. Also carried on
    /// `RunResult::metrics`; exposed separately so exporters can reach
    /// it without absorbing the event rings.
    pub fn timeline_report(&self) -> ds_obs::TimelineReport {
        crate::node::timeline_report(&self.machine.nodes)
    }

    /// Renders the merged system timeline's phases in the flamegraph
    /// folded-stacks text format, rooted at the phase index
    /// (`phase0;committing 523` lines, one per phase/bucket). Kept
    /// separate from [`DsSystem::folded_stacks`]: these weights sum to
    /// the *retained* node-cycles (intervals a wrapped ring overwrote
    /// are gone), summed across nodes per phase.
    pub fn phase_folded(&self) -> String {
        use std::fmt::Write as _;
        let merged = self.timeline_report().merged();
        let mut out = String::new();
        for (i, p) in merged.phases.iter().enumerate() {
            for b in ds_obs::StallBucket::ALL {
                let cycles = p.buckets[b as usize];
                if cycles > 0 {
                    let _ = writeln!(out, "phase{i};{} {cycles}", b.label());
                }
            }
        }
        out
    }

    /// Renders the per-node critical-path attribution in the
    /// flamegraph folded-stacks text format, rooted at `crit` (kept
    /// separate from [`DsSystem::folded_stacks`], whose per-node leaves
    /// sum to total cycles; these sum to each node's *attributed* path
    /// span): `crit;node{i};{class};{kind} cycles` per edge family,
    /// plus `crit;node{i};pc;0x{pc:x} cycles` residency leaves.
    pub fn critpath_folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, node) in self.machine.nodes.iter().enumerate() {
            let rep = node.crit_window().path_report();
            for kind in ds_obs::EdgeKind::ALL {
                let cycles = rep.kind(kind);
                if cycles > 0 {
                    let _ = writeln!(
                        out,
                        "crit;node{i};{};{} {cycles}",
                        kind.class().label(),
                        kind.label()
                    );
                }
            }
            for p in &rep.crit_pcs {
                let _ = writeln!(out, "crit;node{i};pc;0x{:x} {}", p.pc, p.cycles);
            }
        }
        out
    }

    /// Renders the run's event rings as a Chrome trace-event / Perfetto
    /// JSON document: one process per node (broadcast / BSHR / DCUB /
    /// commit tracks), one for the system (lead changes), one for the
    /// interconnect (grants).
    pub fn perfetto_trace(&self) -> String {
        use ds_obs::perfetto::TraceSource;
        let n = self.machine.nodes.len() as u32;
        let names: Vec<String> = (0..n).map(|i| format!("node{i}")).collect();
        let mut sources: Vec<TraceSource<'_>> = Vec::new();
        for (i, node) in self.machine.nodes.iter().enumerate() {
            sources.push(TraceSource { pid: i as u32, name: &names[i], ring: node.events() });
            sources.push(TraceSource { pid: i as u32, name: &names[i], ring: node.core_events() });
        }
        sources.push(TraceSource { pid: n, name: "system", ring: self.machine.probe.ring() });
        sources.push(TraceSource { pid: n + 1, name: "interconnect", ring: self.machine.bus.events() });
        // Stall-bucket occupancy counter tracks, one sample per closed
        // timeline interval (they live outside the event rings).
        let mut extras: Vec<String> = Vec::new();
        for (i, node) in self.machine.nodes.iter().enumerate() {
            ds_obs::perfetto::stall_counter_events(i as u32, node.timeline().iter(), &mut extras);
        }
        ds_obs::perfetto::trace_json_with(&sources, &extras)
    }
}

/// Commit-time correspondence auditing (docs/protocol.md §3–§5): the
/// dynamic counterpart of the `ds-lint` static rules. Observational
/// only — an audit build produces the same cycles and stats.
#[cfg(feature = "audit")]
impl DsMachine {
    /// Feeds every node's freshly recorded commit events into the
    /// shared reference stream, panicking at the first divergence.
    fn absorb_audit(&mut self) {
        for i in 0..self.nodes.len() {
            while let Some(ev) = self.nodes[i].ms.audit.pending.pop_front() {
                self.audit.absorb(i, ev);
            }
        }
    }
}

#[cfg(feature = "audit")]
impl DsSystem {
    /// End-of-run ledger checks. Only meaningful for complete,
    /// fault-free runs: with injected faults the machine deadlocks
    /// before reaching here, and an instruction-budget stop leaves
    /// episodes legitimately in flight.
    fn assert_audit_invariants(&mut self) {
        self.machine.absorb_audit();
        // The message ledger below assumes the pristine ESP protocol:
        // injected faults, retransmit re-broadcasts and degraded-mode
        // traffic all perturb the per-node arrival counts by design
        // (architectural state is still asserted equal by the chaos
        // test grid).
        if !self.machine.config.fault_plan.is_empty()
            || self.machine.config.bshr_timeout_cycles.is_some()
            || self.engine.deadlocked()
        {
            return;
        }
        if !self.machine.nodes.iter().all(|n| n.is_done()) {
            return;
        }
        assert!(
            self.machine.audit.aligned(),
            "audit: nodes finished with different mem-commit counts"
        );
        assert!(
            self.correspondence_holds(),
            "audit: canonical caches differ at end of run"
        );
        let sent: Vec<u64> = self.machine.nodes.iter().map(|n| n.stats().broadcasts_sent).collect();
        let total: u64 = sent.iter().sum();
        for (i, node) in self.machine.nodes.iter().enumerate() {
            assert_eq!(
                node.stats().bshr.arrivals,
                total - sent[i],
                "audit: node {i} did not see every peer broadcast exactly once"
            );
            assert!(
                node.bshr_is_quiescent(),
                "audit: node {i} BSHR retained waits/buffers/squashes after the run"
            );
            assert_eq!(
                node.dcub_occupancy(),
                0,
                "audit: node {i} leaked DCUB entries past their residency episodes"
            );
        }
        self.machine.audit.add_checks(2 + 3 * self.machine.nodes.len() as u64);
    }

    /// Number of audit assertions that have passed so far (per-commit
    /// residency checks + cross-node stream comparisons + end-of-run
    /// ledger checks). Exposed so tests can prove the auditor actually
    /// ran.
    pub fn audit_checks(&self) -> u64 {
        self.machine.audit.checks() + self.machine.nodes.iter().map(|n| n.ms.audit.checks()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_asm::assemble;

    /// A strided read-sum over an array larger than the D-cache, so
    /// communicated misses (and broadcasts) definitely occur.
    fn strided_prog() -> Program {
        assemble(
            r#"
            .data
            arr: .space 65536
            .text
            main:   li   t0, 512
                    la   t1, arr
                    li   t2, 0
            loop:   ld   t3, 0(t1)
                    add  t2, t2, t3
                    addi t1, t1, 128
                    addi t0, t0, -1
                    bnez t0, loop
                    halt
            "#,
        )
        .unwrap()
    }

    /// A pointer chase through a linked list spread over many pages —
    /// the datathreading workload of §3.2 / Figure 3.
    fn pointer_chase_prog() -> Program {
        // Build a list of 256 nodes, each 512 bytes apart, linked
        // front-to-back, then chase it.
        assemble(
            r#"
            .data
            nodes: .space 131072
            .text
            main:   li   t0, 255
                    la   t1, nodes
            build:  addi t2, t1, 512
                    sd   t2, 0(t1)
                    mv   t1, t2
                    addi t0, t0, -1
                    bnez t0, build
                    sd   zero, 0(t1)
                    # chase
                    la   t1, nodes
            chase:  ld   t1, 0(t1)
                    bnez t1, chase
                    halt
            "#,
        )
        .unwrap()
    }

    fn run_ds(nodes: usize, prog: &Program) -> (DsSystem, crate::RunResult) {
        let config = DsConfig::with_nodes(nodes);
        let mut sys = DsSystem::new(config, prog);
        let r = sys.run().unwrap();
        (sys, r)
    }

    #[test]
    fn two_node_system_completes_and_corresponds() {
        let prog = strided_prog();
        let (sys, r) = run_ds(2, &prog);
        assert!(r.committed > 2000);
        assert!(sys.correspondence_holds(), "canonical caches diverged");
        // Both nodes committed the identical stream.
        let commits: Vec<u64> = sys.nodes().iter().map(|n| n.committed()).collect();
        assert_eq!(commits[0], commits[1]);
    }

    #[test]
    fn broadcasts_flow_and_requests_never_do() {
        let prog = strided_prog();
        let (_, r) = run_ds(2, &prog);
        assert!(r.bus.broadcasts > 0, "communicated misses must broadcast");
        assert_eq!(r.bus.requests, 0, "ESP never sends requests");
        assert_eq!(r.bus.responses, 0);
        assert_eq!(r.bus.writes, 0, "ESP never sends writes");
    }

    #[test]
    fn esp_send_consume_balance() {
        // Every broadcast is consumed (wait, buffered-then-found, or
        // squash) at every other node; nothing leaks.
        let prog = strided_prog();
        let (sys, r) = run_ds(2, &prog);
        for (i, n) in r.nodes.iter().enumerate() {
            let others_sent: u64 = r
                .nodes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, m)| m.broadcasts_sent)
                .sum();
            assert_eq!(
                n.bshr.arrivals, others_sent,
                "node {i} must receive every peer broadcast"
            );
        }
        drop(sys);
    }

    #[test]
    fn four_node_system_works() {
        let prog = strided_prog();
        let (sys, r) = run_ds(4, &prog);
        assert!(sys.correspondence_holds());
        assert!(r.bus.broadcasts > 0);
        assert_eq!(r.nodes.len(), 4);
    }

    #[test]
    fn single_node_degenerates_to_uniprocessor() {
        let prog = strided_prog();
        let (_, r) = run_ds(1, &prog);
        assert_eq!(r.bus.broadcasts, 0, "sole owner broadcasts to nobody... ");
        // (bus has 1 port; broadcasts never enqueue targets) — but the
        // run must still complete with every page local.
        assert!(r.committed > 2000);
        assert_eq!(r.nodes[0].remote_accesses, 0);
    }

    #[test]
    fn pointer_chase_exercises_datathreads() {
        let prog = pointer_chase_prog();
        let (sys, r) = run_ds(2, &prog);
        assert!(sys.correspondence_holds());
        let found: u64 = r.nodes.iter().map(|n| n.bshr.found_buffered).sum();
        let waits: u64 = r.nodes.iter().map(|n| n.bshr.waits_allocated).sum();
        assert!(found + waits > 0, "remote chase must use the BSHR");
    }

    #[test]
    fn functional_results_are_timing_independent() {
        // The sum computed by the program must match a pure functional
        // run regardless of node count.
        let src = r#"
            .data
            arr: .space 16384
            out: .word 0
            .text
            main:   li   t0, 256
                    la   t1, arr
                    li   t4, 3
            fill:   sd   t4, 0(t1)
                    addi t4, t4, 7
                    addi t1, t1, 64
                    addi t0, t0, -1
                    bnez t0, fill
                    li   t0, 256
                    la   t1, arr
                    li   t2, 0
            sum:    ld   t3, 0(t1)
                    add  t2, t2, t3
                    addi t1, t1, 64
                    addi t0, t0, -1
                    bnez t0, sum
                    la   t5, out
                    sd   t2, 0(t5)
                    halt
        "#;
        let prog = assemble(src).unwrap();
        let expected: u64 = (0..256).map(|i| 3 + 7 * i).sum();
        for nodes in [1, 2, 4] {
            let (sys, _) = run_ds(nodes, &prog);
            let out = sys.mem().read_u64(prog.symbol("out").unwrap());
            assert_eq!(out, expected, "wrong sum with {nodes} nodes");
        }
    }

    #[test]
    fn replicated_pages_never_broadcast() {
        let prog = strided_prog();
        let mut config = DsConfig::with_nodes(2);
        // Replicate every data page the program declares.
        let (start, end, _) = prog.regions()[1];
        config.replicated_vpns =
            (start / config.page_bytes..=(end - 1) / config.page_bytes).collect();
        let mut sys = DsSystem::new(config, &prog);
        let r = sys.run().unwrap();
        assert_eq!(r.bus.broadcasts, 0, "fully replicated data needs no broadcasts");
        assert!(r.nodes.iter().all(|n| n.remote_accesses == 0));
    }

    #[test]
    fn max_insts_caps_the_run() {
        let prog = strided_prog();
        let mut config = DsConfig::with_nodes(2);
        config.max_insts = Some(300);
        let mut sys = DsSystem::new(config, &prog);
        let r = sys.run().unwrap();
        assert!(r.committed >= 300);
        assert!(r.committed < 1500);
    }

    #[test]
    fn ring_interconnect_runs_and_corresponds() {
        let prog = strided_prog();
        for nodes in [2usize, 4] {
            let mut config = DsConfig::with_nodes(nodes);
            config.interconnect = ds_net::FabricKind::Ring;
            let mut sys = DsSystem::new(config, &prog);
            let r = sys.run().unwrap();
            assert!(r.committed > 2000, "{nodes}-node ring run too short");
            assert!(sys.correspondence_holds(), "ring broke correspondence");
            assert!(r.bus.broadcasts > 0);
            assert_eq!(r.bus.requests, 0);
        }
    }

    #[test]
    fn ring_and_bus_agree_functionally() {
        let prog = strided_prog();
        let run_with = |kind: ds_net::FabricKind| {
            let mut config = DsConfig::with_nodes(2);
            config.interconnect = kind;
            let mut sys = DsSystem::new(config, &prog);
            let r = sys.run().unwrap();
            (r.committed, r.bus.broadcasts)
        };
        let bus = run_with(ds_net::FabricKind::Bus);
        let ring = run_with(ds_net::FabricKind::Ring);
        assert_eq!(bus.0, ring.0, "same committed stream");
        assert_eq!(bus.1, ring.1, "same broadcast count (topology changes timing only)");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn ring_grants_reach_the_perfetto_trace() {
        let mut config = DsConfig::with_nodes(4);
        config.interconnect = ds_net::FabricKind::Ring;
        let mut sys = DsSystem::new(config, &strided_prog());
        let r = sys.run().unwrap();
        let grants = sys.machine.bus.events();
        assert_eq!(grants.len() as u64 + grants.dropped(), r.bus.transactions);
        let trace = sys.perfetto_trace();
        assert!(trace.contains(r#""args":{"name":"interconnect"}"#), "no interconnect process");
        assert!(trace.contains(r#""args":{"name":"bus"}"#), "no grant track");
    }

    #[test]
    fn watchdog_catches_a_lost_broadcast() {
        // Fault injection: dropping a broadcast must wedge the waiting
        // node, and the watchdog must terminate the run with a
        // structured report rather than spinning forever — validating
        // the deadlock tripwire end to end.
        let prog = strided_prog();
        let mut config = DsConfig::with_nodes(2);
        config.fault_plan.rules.push(ds_net::FaultRule::broadcasts(
            ds_net::FaultKind::Drop,
            10,
            u64::MAX,
        ));
        config.watchdog_cycles = 50_000;
        let mut sys = DsSystem::new(config, &prog);
        let r = sys.run().unwrap();
        let report = r.deadlock.expect("a dropped broadcast must trip the watchdog");
        assert_eq!(report.cycle, r.cycles);
        assert_eq!(report.nodes.len(), 2);
        // The wedged node is visibly waiting on something remote.
        assert!(
            report.nodes.iter().any(|n| !n.bshr_waits.is_empty()),
            "some node must hold an unanswered BSHR wait: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("deadlock at cycle"));
    }

    #[test]
    fn chaos_drop_with_timeouts_recovers_and_matches_baseline() {
        // The hardening loop end to end: a plan that drops broadcasts
        // plus a BSHR timeout must retransmit its way to completion,
        // with architectural state identical to the fault-free run.
        let prog = strided_prog();
        let baseline = {
            let mut sys = DsSystem::new(DsConfig::with_nodes(2), &prog);
            let r = sys.run().unwrap();
            (r.committed, sys.nodes()[0].canonical_cache_lines())
        };
        let mut config = DsConfig::with_nodes(2);
        config.fault_plan.rules.push(ds_net::FaultRule::broadcasts(
            ds_net::FaultKind::Drop,
            7,
            u64::MAX,
        ));
        config.bshr_timeout_cycles = Some(2000);
        config.bshr_retry_budget = 3;
        config.watchdog_cycles = 200_000;
        let mut sys = DsSystem::new(config, &prog);
        let r = sys.run().unwrap();
        assert!(r.deadlock.is_none(), "hardening must recover: {}", r.deadlock.unwrap());
        assert_eq!(r.committed, baseline.0, "same committed stream");
        for node in sys.nodes() {
            assert_eq!(
                node.canonical_cache_lines(),
                baseline.1,
                "architectural state must match the fault-free run"
            );
        }
        let retransmits: u64 = r.nodes.iter().map(|n| n.retransmit_requests).sum();
        assert!(retransmits > 0, "drops must surface as retransmit requests");
        let stats = sys.fault_stats().expect("non-empty plan builds an injector");
        assert!(stats.dropped > 0, "the injector must actually drop broadcasts");
    }

    #[test]
    fn store_heavy_program_sends_no_write_traffic() {
        // The compress observation (§4.3): stores never go off-chip.
        let prog = assemble(
            r#"
            .data
            arr: .space 65536
            .text
            main:   li   t0, 1024
                    la   t1, arr
            loop:   sd   t0, 0(t1)
                    addi t1, t1, 64
                    addi t0, t0, -1
                    bnez t0, loop
                    halt
            "#,
        )
        .unwrap();
        let (_, r) = run_ds(2, &prog);
        assert_eq!(r.bus.writes, 0);
        let dropped: u64 = r.nodes.iter().map(|n| n.writes_dropped).sum();
        assert!(dropped > 0, "non-owners drop stores");
    }
}
