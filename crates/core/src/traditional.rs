//! The traditional comparator system (Figure 6a).
//!
//! One IRAM chip holds `1/N` of the program's memory on-chip; the other
//! `(N-1)/N` lives in memory chips across the same global bus, accessed
//! with a conventional request/response protocol. Write-backs and
//! write-throughs to off-chip lines also cross the bus — the traffic
//! ESP eliminates. To keep the comparison fair (§4.2): the bus is the
//! same, the cache updates at commit like the DataScalar system, and
//! the network interface charges the same queue penalty as the
//! broadcast queue.

use crate::config::DsConfig;
use crate::cub::Dcub;
use crate::engine::{self, Engine, Machine};
use crate::linemap::LineMap;
use crate::pending::PendingQueue;
use crate::stats::{NodeStats, RunResult};
use crate::watchdog::{DeadlockReport, NodeDeadlockState};
use crate::Cycle;
use ds_asm::Program;
use ds_cpu::{ExecError, ExecRecord, LoadResponse, MemSystem, OooCore, RuuTag, TraceSource};
use ds_mem::{AccessKind, Cache, CacheOutcome, MainMemory, PageTable, Tlb, Victim};
use ds_net::{Delivery, Fabric, FabricKind, Message, MsgKind};
use std::rc::Rc;

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

#[derive(Debug)]
struct TradMemSide {
    pt: Rc<PageTable>,
    canon: Cache,
    icache: Cache,
    local_mem: MainMemory,
    dcub: Dcub,
    dtlb: Option<Tlb>,
    tlb_walk_cycles: u64,
    line_bytes: u64,
    queue_penalty: u64,
    /// Loads blocked on an off-chip response, per line.
    waiting: LineMap<Vec<RuuTag>>,
    /// Cycle each in-flight request entered the output queue, per line
    /// — the near end of the round trip, so the critical-path analyzer
    /// can measure the traditional system's communication edges
    /// end-to-end (request out + memory + response back).
    req_sent: LineMap<Cycle>,
    outgoing: PendingQueue,
    seq: u64,
    stats: NodeStats,
}

impl TradMemSide {
    fn send(&mut self, kind: MsgKind, line: u64, payload: u64, ready: Cycle) {
        self.outgoing.push(
            ready,
            Message {
                src: CPU_PORT,
                dest: Some(MEM_PORT),
                kind,
                line_addr: line,
                payload_bytes: payload,
                seq: self.seq,
                enqueued_at: ready,
            },
        );
        self.seq += 1;
    }

    fn handle_victim(&mut self, victim: Option<Victim>, now: Cycle) {
        let Some(v) = victim else { return };
        if !v.dirty {
            return;
        }
        if self.pt.is_local(v.line_addr, 0) {
            self.local_mem.access(v.line_addr, self.line_bytes, now);
            self.stats.writebacks_local += 1;
        } else {
            self.send(MsgKind::WriteBack, v.line_addr, self.line_bytes, now + self.queue_penalty);
        }
    }

    /// A commit-time miss with no in-flight episode (false hit): fill
    /// the canonical cache in the background, paying the traffic but
    /// not blocking the already-completed load.
    fn fill_repair(&mut self, line: u64, now: Cycle) {
        if self.pt.is_local(line, 0) {
            self.local_mem.access(line, self.line_bytes, now);
        } else {
            self.send(MsgKind::Request, line, 0, now + self.queue_penalty);
            self.req_sent.insert(line, now + self.queue_penalty);
        }
    }
}

impl MemSystem for TradMemSide {
    fn load_issued(&mut self, rec: &ExecRecord, now: Cycle, tag: RuuTag) -> (LoadResponse, bool) {
        let addr = rec.mem_addr;
        let line = self.canon.line_addr(addr);
        self.stats.loads_issued += 1;
        let now = match &mut self.dtlb {
            Some(tlb) => ds_mem::translate(tlb, addr, now, self.tlb_walk_cycles),
            None => now,
        };
        if let Some(e) = self.dcub.get(line) {
            return match e.ready_at {
                Some(r) => (LoadResponse::Ready(r.max(now + 1)), false),
                None => {
                    self.waiting.get_mut_or_default(line).push(tag);
                    (LoadResponse::Pending, false)
                }
            };
        }
        if self.canon.probe(addr) {
            self.stats.issue_hits += 1;
            return (LoadResponse::Ready(now + 1), true);
        }
        if self.pt.is_local(addr, 0) {
            self.stats.local_misses += 1;
            let done = self.local_mem.access(line, self.line_bytes, now);
            self.dcub.insert(line, Some(done), false);
            (LoadResponse::Ready(done), false)
        } else {
            self.stats.remote_accesses += 1;
            self.send(MsgKind::Request, line, 0, now + self.queue_penalty);
            self.req_sent.insert(line, now + self.queue_penalty);
            self.dcub.insert(line, None, false);
            self.waiting.get_mut_or_default(line).push(tag);
            (LoadResponse::Pending, false)
        }
    }

    fn mem_committed(&mut self, rec: &ExecRecord, issue_hit: Option<bool>, now: Cycle) {
        let addr = rec.mem_addr;
        let line = self.canon.line_addr(addr);
        if rec.is_store() {
            match self.canon.access(addr, AccessKind::Write) {
                CacheOutcome::Hit => {}
                CacheOutcome::Miss { allocated: false, .. } => {
                    if self.pt.is_local(addr, 0) {
                        self.local_mem.access(addr, rec.mem_bytes, now);
                        self.stats.writethroughs_local += 1;
                    } else {
                        self.send(
                            MsgKind::WriteThrough,
                            line,
                            rec.mem_bytes,
                            now + self.queue_penalty,
                        );
                    }
                }
                CacheOutcome::Miss { allocated: true, victim } => {
                    self.handle_victim(victim, now);
                    if self.dcub.remove(line).is_none() {
                        self.fill_repair(line, now);
                    }
                }
            }
            self.stats.stores_committed += 1;
            return;
        }
        match self.canon.access(addr, AccessKind::Read) {
            CacheOutcome::Hit => {
                if issue_hit == Some(false) {
                    self.stats.false_misses += 1;
                }
            }
            CacheOutcome::Miss { victim, .. } => {
                self.handle_victim(victim, now);
                if self.dcub.remove(line).is_none() {
                    if issue_hit == Some(true) {
                        self.stats.false_hits += 1;
                    }
                    self.fill_repair(line, now);
                }
            }
        }
    }

    fn fetch_line(&mut self, pc: u64, now: Cycle) -> Cycle {
        // Text is assumed resident on-chip (the DataScalar machine
        // replicates it; giving the traditional system the same benefit
        // keeps the comparison about data).
        let line = self.icache.line_addr(pc);
        match self.icache.access(pc, AccessKind::Read) {
            CacheOutcome::Hit => now,
            CacheOutcome::Miss { .. } => self.local_mem.access(line, self.line_bytes, now),
        }
    }
}

/// The traditional (request/response) IRAM system.
#[derive(Debug)]
pub struct TraditionalSystem {
    engine: Engine,
    machine: TradMachine,
}

/// What the engine drives: the CPU chip, the bus, and the memory chips
/// behind it.
#[derive(Debug)]
struct TradMachine {
    core: OooCore,
    ms: TradMemSide,
    bus: Fabric,
    /// Off-chip memory chips behind the bus.
    remote_mem: MainMemory,
    /// Responses waiting for their data-ready cycle.
    pending_responses: PendingQueue,
    /// This cycle's completed deliveries. Reused every cycle; the hot
    /// loop allocates nothing.
    deliveries: Vec<Delivery>,
    /// Cycle accounting (observational; a no-op ZST unless built with
    /// `obs`).
    probe: crate::node::NodeProbe,
}

impl TraditionalSystem {
    /// Builds the system for `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`DsConfig::validate`]).
    pub fn new(config: &TraditionalConfig, program: &Program) -> Self {
        let base = &config.base;
        base.validate();
        // The same distribution as the DataScalar machine; "node 0" is
        // the on-chip share.
        let distribution = engine::page_distribution(base, program);
        let pt = Rc::new(distribution.build());
        let engine = Engine::new(base, program);
        let mut bus_cfg = base.bus;
        bus_cfg.ports = 2;
        let machine = TradMachine {
            core: OooCore::new(base.core, base.icache.line_bytes),
            ms: TradMemSide {
                pt,
                canon: Cache::new(base.dcache),
                icache: Cache::new(base.icache),
                local_mem: MainMemory::new(base.memory),
                dcub: Dcub::new(),
                dtlb: base.tlb.map(Tlb::new),
                tlb_walk_cycles: base.tlb_walk_cycles,
                line_bytes: base.dcache.line_bytes,
                queue_penalty: base.queue_penalty,
                waiting: LineMap::new(),
                req_sent: LineMap::new(),
                outgoing: PendingQueue::new(),
                seq: 0,
                stats: NodeStats::default(),
            },
            bus: Fabric::new(FabricKind::Bus, bus_cfg),
            remote_mem: MainMemory::new(base.memory),
            pending_responses: PendingQueue::new(),
            deliveries: Vec::new(),
            probe: Default::default(),
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
        let m = &self.machine;
        let mut stats = m.ms.stats;
        stats.core = *m.core.stats();
        stats.dcub_max = m.ms.dcub.max_occupancy();
        self.engine.result(
            m.core.committed(),
            vec![stats],
            *m.bus.stats(),
            crate::node::single_core_metrics(&m.core, &m.probe, self.engine.cycles()),
        )
    }
}

impl Machine for TradMachine {
    fn step_cycle(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ExecError> {
        self.core.step(&mut self.ms, trace, now)?;
        #[cfg(feature = "obs")]
        self.charge(now, 1);
        // Due CPU-side messages leave from CPU_PORT, due responses from
        // MEM_PORT; the fabric queues per source port, so draining one
        // queue after the other keeps each port's FIFO.
        while let Some(msg) = self.ms.outgoing.pop_due(now) {
            self.bus.enqueue(msg);
        }
        while let Some(msg) = self.pending_responses.pop_due(now) {
            self.bus.enqueue(msg);
        }
        self.bus.step_into(now, &mut self.deliveries);
        for i in 0..self.deliveries.len() {
            self.on_delivery(self.deliveries[i].msg, now);
        }
        Ok(())
    }

    fn each_core(&self, mut visit: impl FnMut(&OooCore)) {
        visit(&self.core);
    }

    /// The core's own horizon, the first cycle a queued message in
    /// either direction becomes bus-ready, and the bus.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = self.core.next_event(now).min(self.bus.next_event(now));
        for queue in [&self.ms.outgoing, &self.pending_responses] {
            if let Some(ready) = queue.next_ready() {
                horizon = horizon.min(ready.max(now + 1));
            }
        }
        horizon
    }

    fn advance_to(&mut self, now: Cycle, horizon: Cycle) {
        self.core.advance_to(now, horizon);
        #[cfg(feature = "obs")]
        self.charge(now + 1, horizon - (now + 1));
    }

    /// One-node machine: the CPU side plus both bus directions.
    fn deadlock_evidence(&self, _now: Cycle, report: &mut DeadlockReport) {
        report.nodes.push(NodeDeadlockState {
            node: 0,
            committed: self.core.committed(),
            oldest: self.core.oldest_entry(),
            bshr_waits: self.ms.waiting.entries().iter().map(|&(l, _)| l).collect(),
            ..Default::default()
        });
        self.bus.pending_into(&mut report.in_flight);
        #[cfg(feature = "obs")]
        report.recent_events.extend(self.core.events().iter().cloned());
    }
}

impl TradMachine {
    fn on_delivery(&mut self, msg: Message, now: Cycle) {
        match msg.kind {
            MsgKind::Request => crate::node::serve_request(
                &mut self.remote_mem,
                &msg,
                self.ms.line_bytes,
                self.ms.queue_penalty,
                now,
                &mut self.pending_responses,
            ),
            MsgKind::WriteBack | MsgKind::WriteThrough => {
                self.remote_mem.access(msg.line_addr, msg.payload_bytes.max(1), now);
            }
            MsgKind::Response => {
                let ready = now + 1;
                self.ms.dcub.mark_ready(msg.line_addr, ready);
                let sent = self.ms.req_sent.remove(msg.line_addr);
                if let Some(waiters) = self.ms.waiting.remove(msg.line_addr) {
                    for tag in waiters {
                        // Tag the fill with the request's send cycle so
                        // the critical-path walk sees the whole round
                        // trip, not just the response leg.
                        match sent {
                            Some(s) => self.core.complete_load_from(tag, ready, msg.line_addr, s),
                            None => self.core.complete_load(tag, ready),
                        }
                    }
                }
            }
            MsgKind::Broadcast | MsgKind::RetransmitReq => {
                unreachable!("no ESP traffic in the traditional system")
            }
        }
    }

    /// Charges the `n` cycles from `at` to the stall bucket `at`
    /// classifies to (`n > 1` only for a quiescent block, which one
    /// classification covers). No BSHR exists here, so a remote wait is
    /// a generic off-chip request/response wait: charged to bus
    /// contention while the bus is occupied, otherwise to the
    /// `bshr-wait-remote` bucket in its generic "waiting on remote
    /// data" reading.
    #[cfg(feature = "obs")]
    fn charge(&mut self, at: Cycle, n: u64) {
        use ds_obs::StallBucket;
        let charge = crate::node::stall_bucket(self.core.stall_class(at), || {
            if self.bus.is_idle() {
                StallBucket::BshrWaitRemote
            } else {
                StallBucket::BusContentionWait
            }
        });
        crate::node::charge_block(&mut self.probe, charge, n);
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
        let mut half = TraditionalSystem::new(&TraditionalConfig::with_onchip_share(2), &strided_prog());
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
}
