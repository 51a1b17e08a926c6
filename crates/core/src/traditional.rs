//! The traditional comparator system (Figure 6a).
//!
//! One IRAM chip holds `1/N` of the program's memory on-chip; the other
//! `(N-1)/N` lives in memory chips across the same global bus, accessed
//! with a conventional request/response protocol. Write-backs and
//! write-throughs to off-chip lines also cross the bus — the traffic
//! ESP eliminates. To keep the comparison fair (§4.2) the CPU chip is a
//! DataScalar [`Node`] — the same core, caches, DCUB and TLB, the cache
//! updated at commit — that requests every line it does not hold from
//! the memory port instead of awaiting a broadcast, and its network
//! interface charges the same queue penalty as the broadcast queue.

use crate::config::DsConfig;
use crate::engine::{self, Engine, Machine};
use crate::node::{serve_request, Node, Remote};
use crate::pending::PendingQueue;
use crate::stats::RunResult;
use crate::watchdog::DeadlockReport;
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{ExecError, OooCore, TraceSource};
use ds_mem::MainMemory;
use ds_net::{Delivery, Fabric, FabricKind, FaultPlan, Message, MsgKind};
use ds_obs::{DefaultFlavour, Flavour, Instrument as _};
use std::sync::Arc;

/// Configuration of the traditional system.
#[derive(Debug, Clone)]
pub struct TraditionalConfig {
    /// Shared machine parameters (core, caches, memory, bus, page
    /// size, distribution block). `nodes = N` means `1/N` of memory is
    /// on-chip — the paper compares an `N`-node DataScalar machine
    /// against a traditional system with the same on-chip share.
    pub base: DsConfig,
}

impl TraditionalConfig {
    /// A traditional system whose on-chip share matches an `N`-node
    /// DataScalar machine.
    pub fn with_onchip_share(n: usize) -> Self {
        TraditionalConfig { base: DsConfig::with_nodes(n) }
    }
}

const CPU_PORT: usize = 0;
const MEM_PORT: usize = 1;

/// A response is written straight into the DCUB, so its data is usable
/// the cycle after it lands (a DataScalar BSHR read takes
/// `bshr_access_cycles`).
const FILL_CYCLES: Cycle = 1;

/// The traditional (request/response) IRAM system, of flavour `F`
/// (`ds_obs::Flavour`).
#[derive(Debug)]
pub struct TraditionalSystem<F: Flavour = DefaultFlavour> {
    engine: Engine,
    machine: TradMachine<F>,
}

/// What the engine drives: the CPU chip, the bus, and the memory chips
/// behind it.
#[derive(Debug)]
struct TradMachine<F: Flavour> {
    /// The CPU chip, on `CPU_PORT`; "node 0" of the page distribution
    /// is its on-chip share.
    node: Node<F>,
    bus: Fabric<F>,
    /// Off-chip memory chips behind the bus, on `MEM_PORT`.
    remote_mem: MainMemory,
    /// Responses waiting for their data-ready cycle.
    pending_responses: PendingQueue,
    /// This cycle's completed deliveries. Reused every cycle; the hot
    /// loop allocates nothing.
    deliveries: Vec<Delivery>,
}

impl TraditionalSystem {
    /// Builds the system of the [`DefaultFlavour`] for `program`.
    ///
    /// # Panics
    ///
    /// As [`TraditionalSystem::with_flavour`].
    pub fn new(config: &TraditionalConfig, program: &Program) -> Self {
        TraditionalSystem::with_flavour(config, program)
    }
}

impl<F: Flavour> TraditionalSystem<F> {
    /// Builds the system of flavour `F` for `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`DsConfig::validate`]) or asks for fault injection or BSHR
    /// timeouts, which only the DataScalar protocol has.
    pub fn with_flavour(config: &TraditionalConfig, program: &Program) -> Self {
        let base = &config.base;
        base.validate();
        assert!(base.fault_plan.is_empty(), "the traditional system takes no fault plan");
        assert!(base.bshr_timeout_cycles.is_none(), "the traditional system has no BSHR timeouts");
        let distribution = engine::page_distribution(base, program);
        let pt = Arc::new(distribution.build());
        let engine = Engine::new(base, program);
        let mut bus_cfg = base.bus;
        bus_cfg.ports = 2;
        let remote = Remote::Request { server: MEM_PORT, fill_cycles: FILL_CYCLES };
        let machine = TradMachine {
            node: Node::new(CPU_PORT, pt, base, remote),
            bus: Fabric::with_chaos(FabricKind::Bus, bus_cfg, &FaultPlan::default()),
            remote_mem: MainMemory::new(base.memory),
            pending_responses: PendingQueue::new(),
            deliveries: Vec::new(),
        };
        TraditionalSystem { engine, machine }
    }

    /// Runs to completion (or the instruction cap). If no instruction
    /// commits for the configured watchdog window (a lost response —
    /// must not happen), the run terminates with a structured
    /// [`DeadlockReport`] on `RunResult::deadlock`.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    pub fn run(&mut self) -> Result<RunResult, ExecError> {
        self.engine.run(&mut self.machine)?;
        self.machine.node.close_timeline(self.engine.cycles());
        Ok(self.result())
    }

    /// Cycles covered by event-horizon jumps instead of naive
    /// iteration. Zero under `no_skip`; excluded from [`RunResult`] so
    /// the two paths stay byte-comparable.
    pub fn cycles_skipped(&self) -> u64 {
        self.engine.cycles_skipped()
    }

    /// The results accumulated so far.
    pub fn result(&self) -> RunResult {
        let node = &self.machine.node;
        self.engine.result(
            node.committed(),
            vec![node.stats()],
            *self.machine.bus.stats(),
            crate::node::nodes_metrics(std::slice::from_ref(node), self.engine.cycles()),
        )
    }

    /// Number of commit-time residency checks the auditor has passed.
    #[cfg(feature = "audit")]
    pub fn audit_checks(&self) -> u64 {
        self.machine.node.ms.audit.checks()
    }
}

impl<F: Flavour> Machine for TradMachine<F> {
    fn step_cycle(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError> {
        self.node.step(trace, now)?;
        // Each commit is checked against the residency model as it is
        // recorded; one node has no peer stream to compare it with.
        #[cfg(feature = "audit")]
        self.node.ms.audit.pending.clear();
        self.node.charge_cycle(now, !self.bus.is_idle());
        // Due CPU-side messages leave from CPU_PORT, due responses from
        // MEM_PORT; the fabric queues per source port, so draining one
        // queue after the other keeps each port's FIFO.
        while let Some(msg) = self.node.next_outgoing(now) {
            self.bus.enqueue(msg);
        }
        while let Some(msg) = self.pending_responses.pop_due(now) {
            self.bus.enqueue(msg);
        }
        self.bus.step_into(now, &mut self.deliveries);
        for i in 0..self.deliveries.len() {
            self.deliver(self.deliveries[i].msg, now);
        }
        Ok(())
    }

    type Flavour = F;

    fn each_core(&self, mut visit: impl FnMut(&OooCore<F>)) {
        visit(&self.node.core);
    }

    /// The node's own horizon, the first cycle a queued response
    /// becomes bus-ready, and the bus.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = self.node.next_event(now).min(self.bus.next_event(now));
        if let Some(ready) = self.pending_responses.next_ready() {
            horizon = horizon.min(ready.max(now + 1));
        }
        horizon
    }

    fn advance_to(&mut self, now: Cycle, horizon: Cycle) {
        self.node.advance_to(now, horizon);
        self.node.charge_skipped(now + 1, horizon - (now + 1), !self.bus.is_idle());
    }

    /// The one node plus both bus directions.
    fn deadlock_evidence(&self, now: Cycle, report: &mut DeadlockReport) {
        report.nodes.push(self.node.deadlock_state(now));
        self.bus.pending_into(&mut report.in_flight);
        let events = self.node.ms.probe.get().into_iter().flat_map(|r| r.ring().iter());
        report.recent_events.extend(events);
    }
}

impl<F: Flavour> TradMachine<F> {
    /// A message left the bus: a request or write for the memory chips,
    /// or a response for the CPU chip.
    fn deliver(&mut self, msg: Message, now: Cycle) {
        match msg.kind {
            MsgKind::Request => {
                let ms = &self.node.ms;
                serve_request(
                    &mut self.remote_mem,
                    &msg,
                    ms.line_bytes,
                    ms.queue_penalty,
                    now,
                    &mut self.pending_responses,
                );
            }
            MsgKind::WriteBack | MsgKind::WriteThrough => {
                self.remote_mem.access(msg.line_addr, msg.payload_bytes.max(1), now);
            }
            MsgKind::Response | MsgKind::Broadcast | MsgKind::RetransmitReq => {
                self.node.deliver(&msg, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_asm::assemble;

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

    #[test]
    fn runs_and_pays_offchip_latency() {
        let config = TraditionalConfig::with_onchip_share(2);
        let mut sys = TraditionalSystem::new(&config, &strided_prog());
        let r = sys.run().unwrap();
        assert!(r.committed > 2000);
        let s = &r.nodes[0];
        assert!(s.remote_accesses > 0, "half the pages are off-chip");
        assert!(s.local_misses > 0, "half the pages are on-chip");
        assert!(r.bus.requests > 0);
        assert_eq!(r.bus.requests, s.remote_accesses, "one request per remote miss");
        assert!(r.bus.responses >= r.bus.requests - 5, "responses roughly pair requests");
        assert_eq!(r.bus.broadcasts, 0);
    }

    #[test]
    fn smaller_onchip_share_is_slower() {
        let mut half =
            TraditionalSystem::new(&TraditionalConfig::with_onchip_share(2), &strided_prog());
        let r_half = half.run().unwrap();
        let mut quarter =
            TraditionalSystem::new(&TraditionalConfig::with_onchip_share(4), &strided_prog());
        let r_quarter = quarter.run().unwrap();
        assert!(
            r_quarter.ipc() <= r_half.ipc() * 1.02,
            "1/4 on-chip ({:.3}) should not beat 1/2 on-chip ({:.3})",
            r_quarter.ipc(),
            r_half.ipc()
        );
    }

    #[test]
    fn store_misses_write_through_offchip() {
        let prog = assemble(
            r#"
            .data
            arr: .space 32768
            .text
            main:   li   t0, 256
                    la   t1, arr
            loop:   sd   t0, 0(t1)
                    addi t1, t1, 128
                    addi t0, t0, -1
                    bnez t0, loop
                    halt
            "#,
        )
        .unwrap();
        let config = TraditionalConfig::with_onchip_share(2);
        let mut sys = TraditionalSystem::new(&config, &prog);
        let r = sys.run().unwrap();
        assert!(r.bus.writes > 0, "off-chip store traffic exists");
        assert!(r.nodes[0].writethroughs_local > 0, "on-chip stores stay local");
    }

    #[test]
    #[should_panic(expected = "no BSHR timeouts")]
    fn rejects_datascalar_only_hardening() {
        let mut config = TraditionalConfig::with_onchip_share(2);
        config.base.bshr_timeout_cycles = Some(2_000);
        TraditionalSystem::new(&config, &strided_prog());
    }

    #[test]
    #[should_panic(expected = "no fault plan")]
    fn rejects_a_fault_plan() {
        let mut config = TraditionalConfig::with_onchip_share(2);
        config.base.fault_plan.rules.push(ds_net::FaultRule::broadcasts(
            ds_net::FaultKind::Drop,
            1,
            u64::MAX,
        ));
        TraditionalSystem::new(&config, &strided_prog());
    }
}
