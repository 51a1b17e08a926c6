//! Dependence-graph critical-path analysis.
//!
//! Cycle accounting (`account.rs`) says where a node's cycles go; it
//! cannot say whether a stall was *on* the end-to-end critical path or
//! hidden under other in-flight work. This module closes that gap with
//! a classic last-arrival dependence-graph walk (Fields et al. style):
//! at every retirement the core records one [`CritNode`] — the
//! instruction's pipeline timestamps plus *which input arrived last* at
//! each stage — into a bounded [`CritWindow`]. Walking the last-arrival
//! chain backwards from the newest commit attributes every cycle of the
//! covered span to exactly one edge, rolled up into four classes:
//!
//! * **compute** — execution latency, data dependences, local memory
//!   fills (including primary-cache hits and broadcasts already
//!   buffered in the BSHR — the paper's datathreading hits);
//! * **communication** — remote fills: BSHR waits for an owner's
//!   broadcast, or the traditional system's request/response round
//!   trips. Measured end-to-end from the *send* cycle the memory side
//!   stamps on cross-node fills, so bus-grant queueing is included;
//! * **structural** — issue slots lost waiting for a functional unit;
//! * **frontend** — fetch/dispatch gaps and in-order-commit
//!   serialization.
//!
//! The window is pre-allocated and segmented: when the buffer fills,
//! the full segment is walked *then* — allocation-free, into a
//! pre-allocated accumulator — and cleared, so attribution covers the
//! whole run with a cache-resident buffer and nothing is ever dropped.
//! (This file is a ds-lint hot module, and `edge*`/`charge*` functions
//! root the cycle path a1 and p1 police, so the recording path is
//! a1-clean all the way down.) The report-time walk only covers the
//! retained tail segment and folds it into a copy of the accumulator.
//!
//! Segment boundaries cost a little precision: a producer retired in an
//! already-flushed segment cannot be chased (the walk truncates there),
//! and adjacent segments' covered spans overlap by up to a pipeline
//! depth, so `attributed_cycles` can slightly exceed wall-clock cycles.
//! Both effects are bounded per segment and vanish against full-run
//! totals.

use crate::{Cycle, Probe};

/// Default [`CritWindow`] capacity — the *segment* size. The walk
/// flushes each full segment into the accumulator, so any capacity
/// attributes the whole run; this default keeps the buffer (1 MiB of
/// 64-byte nodes per instrumented core, plus the accumulator's 64 KiB
/// per-PC table) while giving the backward walk ~16 K retirements of
/// producer reach.
pub const DEFAULT_CRIT_WINDOW_CAPACITY: usize = 1 << 14;

/// Slots in the pre-allocated per-PC residency table (power of two).
const PC_TABLE_SLOTS: usize = 4096;

/// Bounded linear-probe length for [`PcTable::charge_pc`]; cycles that
/// cannot claim a slot within it land in the overflow counter.
const PC_PROBE_LIMIT: usize = 32;

/// Sentinel for [`CritNode::sent`]: no cross-node send stamp exists
/// (the fill was satisfied locally).
pub const UNKNOWN_SEND: Cycle = Cycle::MAX;

/// Hot PCs kept per report (mirrors the cycle-accounting table width).
const CRIT_PC_TOP: usize = 16;

/// How a retired instruction's completion was produced — the last
/// arrival into its *complete* event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FillKind {
    /// Functional-unit latency (ALU/branch/store address generation).
    #[default]
    Exec,
    /// A load satisfied by LSQ store forwarding.
    Forward,
    /// A load satisfied on-node: primary-cache hit, local memory, or a
    /// broadcast already buffered in the BSHR (a datathreading hit).
    LocalFill,
    /// A load that blocked on cross-node data: a BSHR wait for the
    /// owner's broadcast, or a traditional request/response round trip.
    RemoteFill,
}

/// One edge family of the last-arrival graph (kebab-case labels feed
/// folded stacks and JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Issue → complete through a functional unit.
    Exec,
    /// Producer's completion → consumer readiness (register or LSQ
    /// dependence on an in-window producer).
    DataDep,
    /// Issue → complete through on-node memory.
    LocalFill,
    /// Issue → complete through LSQ store forwarding.
    StoreForward,
    /// Issue → complete waiting on cross-node data (end-to-end: owner
    /// generation, bus-grant queueing, transfer, BSHR access).
    RemoteFill,
    /// Ready → issue waiting for a functional unit.
    FuWait,
    /// Fetch/dispatch gaps (in-order front end), including redirect
    /// penalties and window-full back-pressure.
    Fetch,
    /// Commit → commit in-order serialization (done, waiting for the
    /// head or commit width).
    CommitSerial,
}

/// Number of [`EdgeKind`] families.
pub const EDGE_KIND_COUNT: usize = 8;

/// The four-way roll-up the paper's question is phrased in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// Execution latency, data dependences, local fills.
    Compute,
    /// Cross-node data movement.
    Communication,
    /// Functional-unit contention.
    Structural,
    /// Fetch/dispatch/commit in-order serialization.
    Frontend,
}

/// Number of [`EdgeClass`]es.
pub const EDGE_CLASS_COUNT: usize = 4;

impl EdgeKind {
    /// Every edge kind, in label order.
    pub const ALL: [EdgeKind; EDGE_KIND_COUNT] = [
        EdgeKind::Exec,
        EdgeKind::DataDep,
        EdgeKind::LocalFill,
        EdgeKind::StoreForward,
        EdgeKind::RemoteFill,
        EdgeKind::FuWait,
        EdgeKind::Fetch,
        EdgeKind::CommitSerial,
    ];

    /// Stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Exec => "exec",
            EdgeKind::DataDep => "data-dep",
            EdgeKind::LocalFill => "local-fill",
            EdgeKind::StoreForward => "store-forward",
            EdgeKind::RemoteFill => "remote-fill",
            EdgeKind::FuWait => "fu-wait",
            EdgeKind::Fetch => "fetch",
            EdgeKind::CommitSerial => "commit-serial",
        }
    }

    /// The class this edge kind rolls up into.
    pub fn class(self) -> EdgeClass {
        match self {
            EdgeKind::Exec | EdgeKind::DataDep | EdgeKind::LocalFill | EdgeKind::StoreForward => {
                EdgeClass::Compute
            }
            EdgeKind::RemoteFill => EdgeClass::Communication,
            EdgeKind::FuWait => EdgeClass::Structural,
            EdgeKind::Fetch | EdgeKind::CommitSerial => EdgeClass::Frontend,
        }
    }

    fn index(self) -> usize {
        match self {
            EdgeKind::Exec => 0,
            EdgeKind::DataDep => 1,
            EdgeKind::LocalFill => 2,
            EdgeKind::StoreForward => 3,
            EdgeKind::RemoteFill => 4,
            EdgeKind::FuWait => 5,
            EdgeKind::Fetch => 6,
            EdgeKind::CommitSerial => 7,
        }
    }
}

impl EdgeClass {
    /// Every class, in label order.
    pub const ALL: [EdgeClass; EDGE_CLASS_COUNT] = [
        EdgeClass::Compute,
        EdgeClass::Communication,
        EdgeClass::Structural,
        EdgeClass::Frontend,
    ];

    /// Stable label (JSON keys, folded-stack frames).
    pub fn label(self) -> &'static str {
        match self {
            EdgeClass::Compute => "compute",
            EdgeClass::Communication => "communication",
            EdgeClass::Structural => "structural",
            EdgeClass::Frontend => "frontend",
        }
    }

    fn index(self) -> usize {
        match self {
            EdgeClass::Compute => 0,
            EdgeClass::Communication => 1,
            EdgeClass::Structural => 2,
            EdgeClass::Frontend => 3,
        }
    }
}

impl FillKind {
    /// The edge kind a completion of this fill kind contributes.
    pub fn edge(self) -> EdgeKind {
        match self {
            FillKind::Exec => EdgeKind::Exec,
            FillKind::Forward => EdgeKind::StoreForward,
            FillKind::LocalFill => EdgeKind::LocalFill,
            FillKind::RemoteFill => EdgeKind::RemoteFill,
        }
    }
}

/// One retired instruction's graph node: pipeline timestamps plus its
/// last-arrival provenance, recorded by the core at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritNode {
    /// Static PC of the instruction.
    pub pc: u64,
    /// Cycle the instruction entered the RUU.
    pub dispatch: Cycle,
    /// Cycle its last operand arrived (equals `dispatch` when it
    /// dispatched ready).
    pub ready: Cycle,
    /// Cycle it issued to a functional unit or the memory side.
    pub issue: Cycle,
    /// Cycle its result became available (writeback).
    pub complete: Cycle,
    /// Cycle it retired.
    pub commit: Cycle,
    /// For remote fills: the cycle the data entered the sender's output
    /// queue (broadcast send / request send), [`UNKNOWN_SEND`] otherwise.
    pub sent: Cycle,
    /// Retirement-order distance to the producer whose completion was
    /// the last arrival making this instruction ready; 0 when it
    /// dispatched ready (the frontend is then the last arrival).
    pub producer_back: u32,
    /// The last arrival into the complete event.
    pub fill: FillKind,
}

impl Default for CritNode {
    fn default() -> Self {
        CritNode {
            pc: 0,
            dispatch: 0,
            ready: 0,
            issue: 0,
            complete: 0,
            commit: 0,
            sent: UNKNOWN_SEND,
            producer_back: 0,
            fill: FillKind::Exec,
        }
    }
}

/// One PC's critical-path residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritPc {
    /// Static PC.
    pub pc: u64,
    /// Cycles of the walked path attributed to this PC's edges.
    pub cycles: u64,
}

/// Open-addressed per-PC cycle counters, allocated once at window
/// construction. Occupied slots have `cycles > 0` (the walk never
/// charges a zero span into the table), so no tombstones are needed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PcTable {
    /// Fixed slot array; never grows.
    slots: Vec<CritPc>,
    /// Cycles that could not claim a slot within the probe limit. The
    /// kind/class totals stay exact regardless; only the per-PC ranking
    /// loses these.
    overflow_cycles: u64,
}

impl PcTable {
    fn new() -> Self {
        PcTable { slots: vec![CritPc { pc: 0, cycles: 0 }; PC_TABLE_SLOTS], overflow_cycles: 0 }
    }

    /// Adds `cycles` to `pc`'s residency. Runs on the segment-flush
    /// path under `edge_retire` (rule a1 applies: bounded probing,
    /// no allocation).
    fn charge_pc(&mut self, pc: u64, cycles: u64) {
        let mask = self.slots.len() - 1;
        let mut at = (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & mask;
        for _ in 0..PC_PROBE_LIMIT {
            let slot = &mut self.slots[at];
            if slot.cycles == 0 {
                slot.pc = pc;
                slot.cycles = cycles;
                return;
            }
            if slot.pc == pc {
                slot.cycles += cycles;
                return;
            }
            at = (at + 1) & mask;
        }
        self.overflow_cycles += cycles;
    }

    /// Occupied entries ranked hottest-first, ties toward the lower PC
    /// (report time; allocation is fine here).
    fn ranked(&self) -> Vec<CritPc> {
        let mut pcs: Vec<CritPc> =
            self.slots.iter().copied().filter(|s| s.cycles > 0).collect();
        pcs.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.pc.cmp(&b.pc)));
        pcs.truncate(CRIT_PC_TOP);
        pcs
    }
}

/// The running attribution state segments are flushed into: everything
/// a [`CritPathNodeReport`] needs except the not-yet-flushed tail.
/// Pre-allocated with the window; folding a segment in never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CritAccum {
    /// Cycles covered by all flushed segment walks.
    attributed: u64,
    /// True once any segment walk broke on a producer retired in an
    /// earlier (already flushed) segment.
    truncated: bool,
    /// Nodes folded in and discarded by segment flushes.
    flushed: u64,
    /// Cycles per [`EdgeKind`].
    kind_cycles: [u64; EDGE_KIND_COUNT],
    /// Cycles per [`EdgeClass`].
    class_cycles: [u64; EDGE_CLASS_COUNT],
    /// Remote fills carrying a cross-node send stamp.
    comm_edges: u64,
    /// Sum of their end-to-end cycles.
    comm_edge_cycles: u64,
    /// The longest end-to-end communication edge observed.
    comm_edge_max: u64,
    /// Per-PC residency.
    pcs: PcTable,
}

impl CritAccum {
    fn new() -> Self {
        CritAccum {
            attributed: 0,
            truncated: false,
            flushed: 0,
            kind_cycles: [0; EDGE_KIND_COUNT],
            class_cycles: [0; EDGE_CLASS_COUNT],
            comm_edges: 0,
            comm_edge_cycles: 0,
            comm_edge_max: 0,
            pcs: PcTable::new(),
        }
    }

    /// Attributes `span` cycles of `kind` at `pc`. Runs on the
    /// segment-flush path under `edge_retire` (rule a1 applies).
    fn charge(&mut self, kind: EdgeKind, span: u64, pc: u64) {
        self.kind_cycles[kind.index()] += span;
        self.class_cycles[kind.class().index()] += span;
        if span > 0 {
            self.pcs.charge_pc(pc, span);
        }
    }
}

/// Walks one contiguous retirement-ordered segment backwards from its
/// newest commit along the last-arrival chain, attributing every
/// covered cycle to exactly one edge, and folds the result into `acc`.
/// Runs on the segment-flush path under `edge_retire` (rule a1's
/// transitive closure applies: nothing here allocates) and once more at
/// report time over the retained tail.
fn walk_nodes(nodes: &[CritNode], acc: &mut CritAccum) {
    // End-to-end communication edge lengths over every remote fill in
    // the segment (not only the ones the walk lands on): complete
    // minus the cross-node send stamp. A negative-overlap case cannot
    // arise (data cannot complete before it was sent).
    for n in nodes {
        if n.fill == FillKind::RemoteFill && n.sent != UNKNOWN_SEND {
            let e2e = n.complete.saturating_sub(n.sent);
            acc.comm_edges += 1;
            acc.comm_edge_cycles += e2e;
            acc.comm_edge_max = acc.comm_edge_max.max(e2e);
        }
    }
    let Some(last) = nodes.last() else { return };

    enum Entry {
        /// Walking into the node's commit event.
        Commit,
        /// Walking into its complete event (via a data-dep edge).
        Complete,
        /// Walking its in-order dispatch chain.
        Dispatch,
    }

    let end = last.commit;
    let mut cur = end;
    let mut i = nodes.len() - 1;
    let mut entry = Entry::Commit;
    // Each span is clamped monotone (`point.min(cur)`), so the
    // per-edge cycles telescope exactly to `end - cur` at exit —
    // the invariant behind "shares sum to 1.0".
    loop {
        let nd = nodes[i];
        match entry {
            Entry::Commit => {
                let head_blocked = i > 0 && nodes[i - 1].commit >= nd.complete;
                if head_blocked {
                    // Done before the predecessor committed: the
                    // in-order commit edge was the last arrival.
                    let t = nodes[i - 1].commit.min(cur);
                    acc.charge(EdgeKind::CommitSerial, cur - t, nd.pc);
                    cur = t;
                    i -= 1;
                } else {
                    // Commit gated by its own completion; the
                    // commit-window pop rides on the fill edge.
                    let t = nd.complete.min(cur);
                    acc.charge(nd.fill.edge(), cur - t, nd.pc);
                    cur = t;
                    entry = Entry::Complete;
                }
            }
            Entry::Complete => {
                let t_issue = nd.issue.min(cur);
                acc.charge(nd.fill.edge(), cur - t_issue, nd.pc);
                cur = t_issue;
                let t_ready = nd.ready.min(cur);
                acc.charge(EdgeKind::FuWait, cur - t_ready, nd.pc);
                cur = t_ready;
                if nd.producer_back > 0 {
                    let back = nd.producer_back as usize;
                    if back > i {
                        // The producer retired in an earlier segment.
                        acc.truncated = true;
                        break;
                    }
                    let j = i - back;
                    let p = &nodes[j];
                    let t = p.complete.min(cur);
                    // The hand-off cycle belongs to the producer.
                    acc.charge(EdgeKind::DataDep, cur - t, p.pc);
                    cur = t;
                    i = j;
                } else {
                    let t = nd.dispatch.min(cur);
                    acc.charge(EdgeKind::Fetch, cur - t, nd.pc);
                    cur = t;
                    entry = Entry::Dispatch;
                }
            }
            Entry::Dispatch => {
                if i == 0 {
                    break;
                }
                let prev = &nodes[i - 1];
                let t = prev.dispatch.min(cur);
                acc.charge(EdgeKind::Fetch, cur - t, prev.pc);
                cur = t;
                i -= 1;
            }
        }
    }
    acc.attributed += end - cur;
}

/// The bounded segment buffer of retired-instruction graph nodes plus
/// the accumulator full segments are flushed into, and — for a core's
/// window — the nodes of the instructions still in flight, stamped as
/// they go. All pre-allocated; recording never fails, blocks or
/// allocates, and attribution covers the whole run regardless of
/// capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritWindow {
    /// Backing storage, allocated once; `buf.capacity()` never changes.
    buf: Vec<CritNode>,
    /// Attribution folded in from flushed segments.
    acc: CritAccum,
    /// In-flight nodes by RUU ring slot, stamped from dispatch to
    /// commit; grows to the ring's length as the first lap is
    /// dispatched and never beyond (empty unless built by
    /// [`Probe::with_ruu_slots`]).
    stamps: Vec<CritNode>,
}

impl CritWindow {
    /// A window walking segments of at most `capacity` retirements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a critical-path window needs at least one slot");
        CritWindow { buf: Vec::with_capacity(capacity), acc: CritAccum::new(), stamps: Vec::new() }
    }

    /// Appends one retirement. A full buffer is first walked into the
    /// accumulator and cleared — amortized O(1). This is the
    /// per-retirement hot path (rule a1 applies).
    pub fn edge_retire(&mut self, node: CritNode) {
        if self.buf.len() == self.buf.capacity() {
            walk_nodes(&self.buf, &mut self.acc);
            self.acc.flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        self.buf.push(node);
    }

    /// Retained (not yet flushed) nodes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing retired yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.acc.flushed == 0
    }

    /// Maximum retirements retained before a segment flush.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Retirements recorded in total (retained + flushed). All of them
    /// contribute to the attribution; none are dropped.
    pub fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.acc.flushed
    }

    /// Retained nodes, oldest to newest (retirement order).
    pub fn iter(&self) -> impl Iterator<Item = &CritNode> + '_ {
        self.buf.iter()
    }

    /// Folds the retained tail segment into a copy of the accumulator
    /// and reports the whole-run attribution. Runs at report time only
    /// (allocation here is fine; recording is not).
    pub fn path_report(&self) -> CritPathNodeReport {
        let mut acc = self.acc.clone();
        walk_nodes(&self.buf, &mut acc);
        CritPathNodeReport {
            attributed_cycles: acc.attributed,
            truncated: acc.truncated,
            window_recorded: self.recorded(),
            window_dropped: 0,
            class_cycles: acc.class_cycles,
            kind_cycles: acc.kind_cycles,
            comm_edges: acc.comm_edges,
            comm_edge_cycles: acc.comm_edge_cycles,
            comm_edge_max: acc.comm_edge_max,
            crit_pcs: acc.pcs.ranked(),
        }
    }
}

impl Default for CritWindow {
    fn default() -> Self {
        CritWindow::with_capacity(DEFAULT_CRIT_WINDOW_CAPACITY)
    }
}

impl Probe for CritWindow {
    fn with_ruu_slots(slots: usize) -> Self {
        CritWindow { stamps: Vec::with_capacity(slots), ..CritWindow::default() }
    }

    #[inline]
    fn edge_dispatch(&mut self, slot: usize, now: Cycle) {
        let s =
            CritNode { dispatch: now, ready: now, issue: now, complete: now, ..Default::default() };
        if slot == self.stamps.len() {
            self.stamps.push(s); // first lap: within capacity
        } else {
            self.stamps[slot] = s;
        }
    }

    #[inline]
    fn edge_wake(&mut self, slot: usize, now: Cycle, producer_back: u32) {
        let s = &mut self.stamps[slot];
        s.ready = now;
        s.producer_back = producer_back;
    }

    #[inline]
    fn edge_issue(&mut self, slot: usize, now: Cycle, fill: FillKind) {
        let s = &mut self.stamps[slot];
        s.issue = now;
        s.fill = fill;
    }

    #[inline]
    fn edge_complete(&mut self, slot: usize, now: Cycle) {
        self.stamps[slot].complete = now;
    }

    #[inline]
    fn edge_sent(&mut self, slot: usize, sent: Cycle) {
        self.stamps[slot].sent = sent;
    }

    #[inline]
    fn edge_commit(&mut self, slot: usize, pc: u64, now: Cycle) -> Option<Cycle> {
        let s = CritNode { pc, commit: now, ..self.stamps[slot] };
        self.edge_retire(s);
        (s.fill == FillKind::RemoteFill && s.sent != UNKNOWN_SEND).then_some(s.sent)
    }
}

/// One node's (core's) critical-path attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritPathNodeReport {
    /// Cycles the segment walks covered, summed over every flushed
    /// segment plus the retained tail. Equals the sum of
    /// `class_cycles` exactly; adjacent segments' spans can overlap by
    /// up to a pipeline depth, so this may slightly exceed wall-clock
    /// cycles on long runs.
    pub attributed_cycles: u64,
    /// True when some segment walk broke on a producer retired in an
    /// earlier, already-flushed segment (a bounded attribution gap at
    /// that segment boundary).
    pub truncated: bool,
    /// Retirements recorded (retained + flushed).
    pub window_recorded: u64,
    /// Retirements recorded but never attributed. Always 0 since
    /// segment flushing replaced overwrite-drops; the field (and its
    /// JSON `dropped` mirror) stays so report consumers can keep
    /// checking coverage the same way.
    pub window_dropped: u64,
    /// Cycles per [`EdgeClass`] (index via `EdgeClass::ALL`).
    pub class_cycles: [u64; EDGE_CLASS_COUNT],
    /// Cycles per [`EdgeKind`] (index via `EdgeKind::ALL`).
    pub kind_cycles: [u64; EDGE_KIND_COUNT],
    /// Retained remote fills carrying a cross-node send stamp.
    pub comm_edges: u64,
    /// Sum over those fills of end-to-end cycles (complete - sent).
    pub comm_edge_cycles: u64,
    /// The longest end-to-end communication edge observed.
    pub comm_edge_max: u64,
    /// Per-PC critical-path residency, hottest first (top 16) — who is
    /// *on* the path, not merely hot.
    pub crit_pcs: Vec<CritPc>,
}

impl CritPathNodeReport {
    /// Cycles attributed to `class`.
    pub fn class(&self, class: EdgeClass) -> u64 {
        self.class_cycles[class.index()]
    }

    /// Cycles attributed to `kind`.
    pub fn kind(&self, kind: EdgeKind) -> u64 {
        self.kind_cycles[kind.index()]
    }

    /// Fraction of the attributed span on `class` (0 when nothing was
    /// attributed).
    pub fn class_share(&self, class: EdgeClass) -> f64 {
        if self.attributed_cycles == 0 {
            0.0
        } else {
            self.class(class) as f64 / self.attributed_cycles as f64
        }
    }
}

/// The run-level critical-path report on `RunResult::metrics`: one
/// entry per node (every node retires the full instruction stream, so
/// each has its own path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritPathReport {
    /// Per-node attributions, indexed by node id.
    pub nodes: Vec<CritPathNodeReport>,
}

impl CritPathReport {
    /// Attributed cycles summed over nodes.
    pub fn attributed_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.attributed_cycles).sum()
    }

    /// Cycles on `class` summed over nodes.
    pub fn class_total(&self, class: EdgeClass) -> u64 {
        self.nodes.iter().map(|n| n.class(class)).sum()
    }

    /// Machine-wide share of the attributed path on `class`.
    pub fn class_share(&self, class: EdgeClass) -> f64 {
        let total = self.attributed_total();
        if total == 0 {
            0.0
        } else {
            self.class_total(class) as f64 / total as f64
        }
    }

    /// Machine-wide communication share — the paper's "is the
    /// broadcast on the critical path?" number.
    pub fn communication_share(&self) -> f64 {
        self.class_share(EdgeClass::Communication)
    }

    /// Window drops summed over nodes (non-zero would mean tail-only
    /// attribution; segment flushing keeps this at 0).
    pub fn dropped_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.window_dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(
        pc: u64,
        dispatch: Cycle,
        ready: Cycle,
        issue: Cycle,
        complete: Cycle,
        commit: Cycle,
    ) -> CritNode {
        CritNode { pc, dispatch, ready, issue, complete, commit, ..Default::default() }
    }

    #[test]
    fn empty_window_reports_nothing() {
        let w = CritWindow::with_capacity(8);
        let r = w.path_report();
        assert_eq!(r.attributed_cycles, 0);
        assert!(!r.truncated);
        assert!(r.crit_pcs.is_empty());
    }

    #[test]
    fn single_alu_instruction_attributes_its_pipeline() {
        let mut w = CritWindow::with_capacity(8);
        // dispatch 0, ready 0, issue 2 (fu wait), complete 5, commit 6.
        let mut n = node(0x100, 0, 0, 2, 5, 6);
        n.fill = FillKind::Exec;
        w.edge_retire(n);
        let r = w.path_report();
        assert_eq!(r.attributed_cycles, 6);
        assert_eq!(r.kind(EdgeKind::Exec), 4, "issue->complete plus the commit pop");
        assert_eq!(r.kind(EdgeKind::FuWait), 2);
        assert_eq!(r.class(EdgeClass::Compute), 4);
        assert_eq!(r.class(EdgeClass::Structural), 2);
        assert_eq!(r.class_cycles.iter().sum::<u64>(), r.attributed_cycles);
    }

    #[test]
    fn data_dependence_jumps_to_the_producer() {
        let mut w = CritWindow::with_capacity(8);
        // Producer: load completing at 10, committing at 11.
        let mut p = node(0x100, 0, 0, 1, 10, 11);
        p.fill = FillKind::LocalFill;
        w.edge_retire(p);
        // Consumer: ready the cycle the producer completed, one-cycle
        // ALU, committing right behind.
        let mut c = node(0x104, 1, 10, 10, 11, 12);
        c.fill = FillKind::Exec;
        c.producer_back = 1;
        w.edge_retire(c);
        let r = w.path_report();
        assert_eq!(r.attributed_cycles, 12);
        // Consumer: commit-pop+exec 2, then data-dep 0 to producer's
        // complete at 10; producer: local fill 9 (issue 1 -> commit 11
        // is head-gated... producer chain: complete 10 -> issue 1),
        // fetch edges close the rest.
        assert!(r.kind(EdgeKind::LocalFill) >= 9, "{r:?}");
        assert_eq!(r.class_cycles.iter().sum::<u64>(), r.attributed_cycles);
        assert!(r.crit_pcs.iter().any(|p| p.pc == 0x100), "producer is on the path");
    }

    #[test]
    fn remote_fill_is_communication_and_measured_end_to_end() {
        let mut w = CritWindow::with_capacity(8);
        // Load issues at 5, the owner's broadcast entered its queue at
        // 2 (datathreading overlap), arrives/completes at 40.
        let mut n = node(0x200, 0, 0, 5, 40, 41);
        n.fill = FillKind::RemoteFill;
        n.sent = 2;
        w.edge_retire(n);
        let r = w.path_report();
        assert_eq!(r.kind(EdgeKind::RemoteFill), 36, "issue->complete plus commit pop");
        assert_eq!(r.class(EdgeClass::Communication), 36);
        assert_eq!(r.comm_edges, 1);
        assert_eq!(r.comm_edge_cycles, 38, "end-to-end from the send stamp");
        assert_eq!(r.comm_edge_max, 38);
        assert_eq!(r.class_cycles.iter().sum::<u64>(), r.attributed_cycles);
    }

    #[test]
    fn commit_serialization_walks_the_in_order_edge() {
        let mut w = CritWindow::with_capacity(8);
        // A slow head instruction...
        let mut head = node(0x300, 0, 0, 1, 50, 51);
        head.fill = FillKind::LocalFill;
        w.edge_retire(head);
        // ...and a fast one completing at 3 but committing behind it.
        let fast = node(0x304, 1, 1, 2, 3, 51);
        w.edge_retire(fast);
        let r = w.path_report();
        assert_eq!(r.kind(EdgeKind::CommitSerial), 0, "same-cycle commit costs nothing");
        assert!(r.kind(EdgeKind::LocalFill) >= 49, "the slow head dominates: {r:?}");
        assert_eq!(r.class_cycles.iter().sum::<u64>(), r.attributed_cycles);
    }

    #[test]
    fn full_buffer_flushes_the_segment_and_drops_nothing() {
        let mut w = CritWindow::with_capacity(4);
        for k in 0..10u64 {
            let mut n = node(0x400 + 4 * k, k, k, k + 1, k + 2, k + 3);
            // Chain every instruction to its predecessor so some walk
            // must chase a producer flushed with an earlier segment.
            n.producer_back = if k > 0 { 1 } else { 0 };
            w.edge_retire(n);
        }
        // Segments of 4 flushed twice (at pushes 5 and 9): two nodes
        // retained, eight folded into the accumulator, none dropped.
        assert_eq!(w.len(), 2);
        assert_eq!(w.recorded(), 10);
        let retained: Vec<u64> = w.iter().map(|n| n.dispatch).collect();
        assert_eq!(retained, vec![8, 9], "flushed segments leave only the tail");
        let r = w.path_report();
        assert_eq!(r.window_dropped, 0, "segment flushing never drops");
        assert!(r.truncated, "cross-segment producers cannot be chased");
        // Coverage spans the whole run even though the buffer holds a
        // quarter of it (boundary overlap can push it past end-to-end).
        assert!(r.attributed_cycles >= 12, "{r:?}");
        assert_eq!(r.class_cycles.iter().sum::<u64>(), r.attributed_cycles);
        assert!(r.crit_pcs.iter().any(|p| p.pc == 0x400), "first segment's PCs persist");
    }

    #[test]
    fn segment_boundary_overlap_is_bounded_by_pipeline_depth() {
        // Each node's pipeline spans 3 cycles (dispatch 2k .. commit
        // 2k+3), so adjacent segments' covered spans overlap by at most
        // that depth per boundary. A 4-entry window over 32 nodes makes
        // 7 boundaries; the unsegmented walk is the exact reference.
        let stream: Vec<CritNode> = (0..32u64)
            .map(|k| node(0x700 + 4 * (k % 5), 2 * k, 2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 3))
            .collect();
        let mut small = CritWindow::with_capacity(4);
        let mut big = CritWindow::with_capacity(64);
        for n in &stream {
            small.edge_retire(*n);
            big.edge_retire(*n);
        }
        let (rs, rb) = (small.path_report(), big.path_report());
        assert_eq!(rs.window_dropped, 0);
        assert_eq!(rs.window_recorded, rb.window_recorded);
        assert!(!rs.truncated, "no cross-segment producers on this stream");
        assert!(
            rs.attributed_cycles >= rb.attributed_cycles,
            "segmentation must not lose coverage: {rs:?}\n{rb:?}"
        );
        assert!(
            rs.attributed_cycles - rb.attributed_cycles <= 7 * 3,
            "boundary overlap exceeded a pipeline depth per segment: {rs:?}\n{rb:?}"
        );
        assert_eq!(rs.class_cycles.iter().sum::<u64>(), rs.attributed_cycles);
    }

    #[test]
    fn shares_sum_to_one_and_pcs_are_ranked() {
        let mut w = CritWindow::with_capacity(16);
        let mut lood = node(0x500, 0, 0, 1, 30, 31);
        lood.fill = FillKind::RemoteFill;
        lood.sent = 0;
        w.edge_retire(lood);
        let mut dep = node(0x504, 1, 30, 31, 33, 34);
        dep.producer_back = 1;
        w.edge_retire(dep);
        let r = w.path_report();
        let share_sum: f64 = EdgeClass::ALL.iter().map(|&c| r.class_share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12, "shares sum to 1.0, got {share_sum}");
        for pair in r.crit_pcs.windows(2) {
            assert!(
                pair[0].cycles > pair[1].cycles
                    || (pair[0].cycles == pair[1].cycles && pair[0].pc < pair[1].pc),
                "crit-PC table out of order: {:?}",
                r.crit_pcs
            );
        }
    }

    #[test]
    fn recording_never_grows_the_buffer() {
        let mut w = CritWindow::with_capacity(8);
        let cap = w.capacity();
        let ptr = w.buf.as_ptr();
        for k in 0..100u64 {
            w.edge_retire(node(0, k, k, k, k, k));
        }
        assert_eq!(w.capacity(), cap, "capacity must never change");
        assert_eq!(w.buf.as_ptr(), ptr, "storage must never reallocate");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = CritWindow::with_capacity(0);
    }

    #[test]
    fn report_is_deterministic() {
        let build = || {
            let mut w = CritWindow::with_capacity(8);
            for k in 0..20u64 {
                let mut n = node(0x600 + 4 * (k % 3), k, k, k + 1, k + 3, k + 4);
                n.producer_back = if k % 2 == 0 { 1 } else { 0 };
                w.edge_retire(n);
            }
            w.path_report()
        };
        assert_eq!(build(), build());
    }
}
