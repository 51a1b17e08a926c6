//! The out-of-order timing core.
//!
//! Modeled on SimpleScalar's `sim-outorder`, which the paper extended
//! (§3.1, §4.2): a Register Update Unit (RUU) tracks instruction
//! dependences, a load/store queue prevents loads from bypassing stores
//! to the same address and forwards store data in a single cycle, and
//! instructions issue out of order but **commit in program order** —
//! the property the DataScalar cache-correspondence protocol builds on.
//!
//! Values are resolved by the functional core at fetch (the paper
//! assumes perfect branch prediction, so the fetch stream is the
//! architected path); this module models *when* things happen, not
//! *what* they compute. All memory timing is delegated to a
//! [`MemSystem`] implementation.
//!
//! This file is the five pipeline stages — writeback, commit, issue,
//! fetch, dispatch — run in that order by [`OooCore::step`]. What they
//! operate on lives beside it: `window` (the RUU ring, its ready set
//! and wake-up lists) and `opinfo` (the per-opcode table).

mod opinfo;
mod tests;
mod window;

use crate::branch::{BranchModel, Predictor};
use crate::exec::{ExecError, ExecRecord};
use crate::trace::InstFeed;
use crate::Cycle;
use ds_isa::{FuClass, Opcode};
use ds_obs::{DefaultFlavour, FillKind, Flavour, Probe as _};
use opinfo::{Dest, OpInfo};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use window::{EState, Window, MAX_EDGES};

/// Identifies an instruction in flight: its global instruction number.
pub type RuuTag = u64;

/// The answer a [`MemSystem`] gives to an issued load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadResponse {
    /// Data will be available at the given cycle (local service).
    Ready(Cycle),
    /// Data will arrive later via [`OooCore::complete_load`] (remote
    /// service — a BSHR wait in a DataScalar node, an off-chip
    /// request/response in the traditional system).
    Pending,
}

/// The memory side of a node, as seen by the core.
///
/// Implemented by the DataScalar node, the traditional IRAM system and
/// the perfect-cache model.
pub trait MemSystem {
    /// A load left the load/store queue at `now`. Returns the response
    /// plus whether the access was a (primary-cache) hit at issue time
    /// — the paper's per-LSQ-entry hit/miss state used by the
    /// correspondence protocol (§4.1).
    fn load_issued(&mut self, rec: &ExecRecord, now: Cycle, tag: RuuTag) -> (LoadResponse, bool);

    /// A memory instruction committed at `now`, in program order.
    /// `issue_hit` is the issue-time hit/miss for loads (`None` for
    /// stores, which only touch the cache at commit, §4.2).
    fn mem_committed(&mut self, rec: &ExecRecord, issue_hit: Option<bool>, now: Cycle);

    /// Instruction fetch needs the line containing `pc`. Returns the
    /// cycle fetch may proceed (`now` on an I-cache hit).
    fn fetch_line(&mut self, pc: u64, now: Cycle) -> Cycle;
}

/// Functional-unit pool sizes.
///
/// A class configured with 0 units still gets one: the core cannot
/// retire an instruction that has nowhere to execute, so every count is
/// read as `max(count, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuPool {
    /// Integer ALUs (single-cycle, pipelined).
    pub int_alu: usize,
    /// Integer multipliers (pipelined).
    pub int_mul: usize,
    /// Integer dividers (unpipelined).
    pub int_div: usize,
    /// FP adders (pipelined).
    pub fp_alu: usize,
    /// FP multipliers (pipelined).
    pub fp_mul: usize,
    /// FP dividers (unpipelined).
    pub fp_div: usize,
    /// Cache ports for loads and stores.
    pub mem_ports: usize,
}

impl Default for FuPool {
    /// An aggressive 8-wide machine, scaled up from SimpleScalar's
    /// defaults to match the paper's "processor built about five years
    /// hence".
    fn default() -> Self {
        FuPool { int_alu: 8, int_mul: 2, int_div: 1, fp_alu: 4, fp_mul: 2, fp_div: 1, mem_ports: 4 }
    }
}

impl FuPool {
    /// Units of `class` the core models (never 0, see the type docs).
    fn count(&self, class: FuClass) -> usize {
        let configured = match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMul => self.int_mul,
            FuClass::IntDiv => self.int_div,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMul => self.fp_mul,
            FuClass::FpDiv => self.fp_div,
            FuClass::Mem => self.mem_ports,
        };
        configured.max(1)
    }
}

/// Core configuration — the paper's §4.2 processor by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Register Update Unit entries (instruction window).
    pub ruu_entries: usize,
    /// Load/store queue entries ("half as many entries as the RUU").
    pub lsq_entries: usize,
    /// Functional-unit mix.
    pub fu: FuPool,
    /// Branch handling (the paper's baseline is perfect prediction).
    pub branch: BranchModel,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            ruu_entries: 256,
            lsq_entries: 128,
            fu: FuPool::default(),
            branch: BranchModel::Perfect,
        }
    }
}

/// Aggregate core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OooStats {
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Loads whose data came from an older in-flight store (LSQ
    /// forwarding).
    pub forwarded_loads: u64,
    /// Cycles fetch was blocked on the I-cache.
    pub fetch_stall_cycles: u64,
    /// Fetch attempts blocked by a full RUU.
    pub ruu_full_stalls: u64,
    /// Fetch attempts blocked by a full LSQ.
    pub lsq_full_stalls: u64,
    /// Conditional branches + indirect jumps fetched.
    pub branches: u64,
    /// Mispredicted control transfers (0 under perfect prediction).
    pub branch_mispredicts: u64,
}

/// Per-cycle facts the stall classifier needs that the pipeline stages
/// would otherwise discard: whether anything retired and whether fetch
/// hit a structural limit *this* cycle. Maintained only on the `Obs`
/// flavour (see [`OooCore::step`]).
#[derive(Debug, Clone, Copy, Default)]
struct StepFlags {
    retired: u32,
    ruu_full: bool,
    lsq_full: bool,
}

/// What one zero-or-more-commit cycle was spent on, classified
/// top-down from the head of the commit window: on a cycle where
/// nothing retires, the oldest instruction is what the machine is
/// truly waiting on. Meaningful only on the `Obs` flavour (the flags
/// feeding it are maintained only there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStall {
    /// At least one instruction retired.
    Committing,
    /// Head is a memory op waiting on remotely-serviced data
    /// ([`LoadResponse::Pending`]); `pc` is its static PC.
    RemoteMemWait {
        /// Static PC of the blocked memory op.
        pc: u64,
    },
    /// Head is a memory op waiting on locally-serviced data.
    LocalMemWait {
        /// Static PC of the blocked memory op.
        pc: u64,
    },
    /// Fetch was blocked by a full RUU this cycle.
    RuuFull,
    /// Fetch was blocked by a full LSQ this cycle.
    LsqFull,
    /// The window is draining/refilling behind an unresolved
    /// mispredicted transfer.
    SquashReplay,
    /// Fetch is stalled (I-cache miss or post-redirect refill penalty).
    FetchStall,
    /// Nothing retired and nothing identifiably blocked (dependence
    /// chains, startup, or the program finished).
    Idle,
}

/// A point-in-time view of one RUU entry, taken when a deadlock report
/// needs to explain what the machine was waiting on. Carries only plain
/// copies — no references into the window — so reports outlive the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuuSnapshot {
    /// Static PC of the instruction.
    pub pc: u64,
    /// Zero-based index in the committed instruction stream.
    pub icount: u64,
    /// True for loads and stores.
    pub is_mem: bool,
    /// True for loads.
    pub is_load: bool,
    /// True once the load was answered [`LoadResponse::Pending`] — its
    /// data must arrive from a remote node.
    pub pending_remote: bool,
    /// The line a remote fill is expected to ride (0 until issued).
    pub fill_line: u64,
    /// Pipeline state label ("waiting" / "ready" / "issued" / "done").
    pub state: &'static str,
}

/// The out-of-order core of one node.
///
/// Drive it with one [`OooCore::step`] per cycle; deliver remote load
/// data with [`OooCore::complete_load`]. `F` picks the core's event
/// probe and critical-path window (see `ds_obs::Flavour`):
/// [`OooCore::new`] builds the [`DefaultFlavour`],
/// [`OooCore::with_flavour`] any flavour.
#[derive(Debug)]
pub struct OooCore<F: Flavour = DefaultFlavour> {
    config: OooConfig,
    /// The RUU: in-flight instructions, their ready bits and wake-up
    /// lists.
    window: Window,
    next_fetch: RuuTag,
    fetch_done: bool,
    fetch_stall_until: Cycle,
    last_fetch_line: Option<u64>,
    /// (completion cycle, tag) min-heap for completions more than one
    /// cycle out (multi-cycle units, memory, remote data).
    events: BinaryHeap<Reverse<(Cycle, RuuTag)>>,
    /// Completions due exactly next cycle — the overwhelmingly common
    /// case (single-cycle ALU ops, forwarded loads) — kept out of the
    /// heap: push is a `Vec` append, drain is a linear sweep. Always
    /// due at `due_next_cycle` when non-empty.
    due_next: Vec<RuuTag>,
    due_next_cycle: Cycle,
    /// Reused drain buffer for `due_next` (borrow split in writeback).
    due_scratch: Vec<RuuTag>,
    /// Latest in-flight producer of each integer / fp register.
    writer_i: [Option<RuuTag>; 32],
    writer_f: [Option<RuuTag>; 32],
    /// In-flight stores, program order: (tag, addr, bytes).
    store_queue: VecDeque<(RuuTag, u64, u64)>,
    /// In-flight stores per 8-byte word, hashed into [`STORE_BUCKETS`]
    /// buckets: a load whose words all count zero overlaps no store and
    /// skips the `store_queue` scan. Two words sharing a bucket only
    /// cost a scan that finds nothing — the scan, not the filter,
    /// decides every dependence.
    store_words: [u32; STORE_BUCKETS],
    /// Memory operations currently in the window (LSQ occupancy).
    mem_in_window: usize,
    /// Units per class, indexed by `FuClass as usize`.
    fu_units: [usize; FU_CLASSES.len()],
    /// Busy-until cycle of every unit of an unpipelined class (the two
    /// dividers), indexed the same way. Pipelined classes keep no
    /// per-unit state — their rows stay empty: see [`OooCore::issue`].
    fu_busy: [Vec<Cycle>; FU_CLASSES.len()],
    stats: OooStats,
    /// Line size used to decide when fetch crosses into a new I-line.
    fetch_line_bytes: u64,
    predictor: Predictor,
    /// A mispredicted control transfer fetch is waiting on.
    redirect_tag: Option<RuuTag>,
    /// Cycle-stamped commit events (a no-op on `Plain`).
    probe: F::Recorder,
    /// Last-arrival stamps and retirements for the critical path (a
    /// no-op on `Plain`).
    crit: F::Crit,
    /// Current-cycle facts for [`OooCore::stall_class`] (instrumented
    /// builds only; stays zeroed otherwise).
    flags: StepFlags,
}

const FU_CLASSES: [FuClass; 7] = [
    FuClass::IntAlu,
    FuClass::IntMul,
    FuClass::IntDiv,
    FuClass::FpAlu,
    FuClass::FpMul,
    FuClass::FpDiv,
    FuClass::Mem,
];

/// The issue lane of a load whose data an older in-flight store
/// forwards: it needs no functional unit. Lanes below it are the
/// `FuClass` discriminants.
const FORWARD_LANE: u8 = FU_CLASSES.len() as u8;
const _: () = assert!((FORWARD_LANE as usize) < window::LANES);

/// Buckets of the store-word filter (a power of two).
const STORE_BUCKETS: usize = 256;

/// The filter buckets of the 8-byte words `addr .. addr + bytes`
/// touches: one or two for the ISA's accesses of up to 8 bytes.
#[inline]
fn store_buckets(addr: u64, bytes: u64) -> impl Iterator<Item = usize> {
    let (first, last) = (addr >> 3, (addr + bytes.saturating_sub(1)) >> 3);
    (first..=last).map(|word| word as usize % STORE_BUCKETS)
}

impl OooCore {
    /// Builds an empty core of the [`DefaultFlavour`].
    ///
    /// # Panics
    ///
    /// As [`OooCore::with_flavour`].
    pub fn new(config: OooConfig, fetch_line_bytes: u64) -> Self {
        OooCore::with_flavour(config, fetch_line_bytes)
    }
}

impl<F: Flavour> OooCore<F> {
    /// Builds an empty core of flavour `F`.
    ///
    /// `fetch_line_bytes` is the I-cache line size (fetch consults the
    /// [`MemSystem`] once per line crossed).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero widths or window
    /// sizes).
    pub fn with_flavour(config: OooConfig, fetch_line_bytes: u64) -> Self {
        assert!(config.fetch_width > 0 && config.issue_width > 0 && config.commit_width > 0);
        assert!(config.ruu_entries > 0 && config.lsq_entries > 0);
        assert!(fetch_line_bytes.is_power_of_two());
        debug_assert!(FU_CLASSES.iter().enumerate().all(|(i, &c)| c as usize == i));
        OooCore {
            config,
            fu_busy: FU_CLASSES.map(|c| {
                if c.is_pipelined() {
                    Vec::new()
                } else {
                    vec![0; config.fu.count(c)]
                }
            }),
            window: Window::new(config.ruu_entries),
            next_fetch: 0,
            fetch_done: false,
            fetch_stall_until: 0,
            last_fetch_line: None,
            events: BinaryHeap::new(),
            due_next: Vec::with_capacity(config.issue_width),
            due_next_cycle: 0,
            due_scratch: Vec::with_capacity(config.issue_width),
            writer_i: [None; 32],
            writer_f: [None; 32],
            store_queue: VecDeque::new(),
            store_words: [0; STORE_BUCKETS],
            mem_in_window: 0,
            fu_units: FU_CLASSES.map(|c| config.fu.count(c)),
            stats: OooStats::default(),
            fetch_line_bytes,
            predictor: Predictor::new(config.branch),
            redirect_tag: None,
            probe: Default::default(),
            crit: F::Crit::with_ruu_slots(config.ruu_entries.next_power_of_two()),
            flags: StepFlags::default(),
        }
    }

    /// The commit-event probe: on `Obs` a `Recorder` (`Commit`,
    /// `RemoteFillCommit`), on `Plain` a ZST.
    pub fn probe(&self) -> &F::Recorder {
        &self.probe
    }

    /// The critical-path window of retired-instruction graph nodes: on
    /// `Obs` a `CritWindow`, on `Plain` a ZST.
    pub fn crit(&self) -> &F::Crit {
        &self.crit
    }

    /// The core configuration.
    pub fn config(&self) -> &OooConfig {
        &self.config
    }

    /// Committed-instruction statistics.
    pub fn stats(&self) -> &OooStats {
        &self.stats
    }

    /// True once every fetched instruction has committed and the
    /// program has no more instructions.
    pub fn is_done(&self) -> bool {
        self.fetch_done && self.window.is_empty()
    }

    /// Number of instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Instruction number the fetch stage will read next (the node's
    /// trace cursor; the minimum over nodes bounds trace trimming).
    pub fn fetch_cursor(&self) -> u64 {
        self.next_fetch
    }

    /// Snapshot of the oldest in-flight instruction — the one the
    /// commit stage is waiting on — for deadlock reports. `None` when
    /// the window is empty (fetch-starved or finished).
    pub fn oldest_entry(&self) -> Option<RuuSnapshot> {
        self.window.head().map(|e| RuuSnapshot {
            pc: e.rec.pc,
            icount: e.rec.icount,
            is_mem: e.rec.is_load() || e.rec.is_store(),
            is_load: e.rec.is_load(),
            pending_remote: e.pending_remote,
            fill_line: e.fill_line,
            state: match e.state {
                EState::Waiting(_) => "waiting",
                EState::Ready => "ready",
                EState::Issued => "issued",
                EState::Done => "done",
            },
        })
    }

    /// Supplies the completion time for a load previously answered
    /// [`LoadResponse::Pending`]. Safe to call for already-committed or
    /// unknown tags (ignored) — a squashed/duplicate arrival must not
    /// wedge the core.
    pub fn complete_load(&mut self, tag: RuuTag, available_at: Cycle) {
        if self.window.get_mut(tag).is_some_and(|e| e.state == EState::Issued) {
            self.events.push(Reverse((available_at, tag)));
        }
    }

    /// Like [`OooCore::complete_load`], additionally recording the
    /// fill's cross-node provenance: the cycle the data entered the
    /// sender's output queue and the line it rode. Feeds the
    /// critical-path communication edges (measured end-to-end from the
    /// send, so bus-grant queueing is included) and the trace flow
    /// arrows; timing is unchanged.
    pub fn complete_load_from(&mut self, tag: RuuTag, available_at: Cycle, line: u64, sent: Cycle) {
        if let Some(e) = self.window.get_mut(tag) {
            e.fill_line = line;
            self.crit.edge_sent(self.window.slot(tag), sent);
        }
        self.complete_load(tag, available_at);
    }

    /// Advances one cycle: writeback, commit, issue, fetch.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors from the trace source.
    pub fn step<M: MemSystem + ?Sized, I: InstFeed + ?Sized>(
        &mut self,
        ms: &mut M,
        feed: &mut I,
        now: Cycle,
    ) -> Result<(), ExecError> {
        if F::OBS {
            self.flags = StepFlags::default();
        }
        self.writeback(now);
        self.commit(ms, now);
        self.issue(ms, now);
        self.fetch(ms, feed, now)?;
        Ok(())
    }

    /// Earliest future cycle at which stepping this core can change any
    /// architectural or statistical state, given no external input —
    /// the core's event horizon. `Cycle::MAX` means the core is
    /// quiescent until data arrives via [`OooCore::complete_load`].
    /// Conservative by design: it may return `now + 1` when nothing
    /// would actually happen, but never a cycle later than the true
    /// next event. Call after [`OooCore::step`] for the same `now`.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.window.ready_lanes() != 0 {
            return now + 1; // a ready instruction may issue
        }
        if matches!(self.window.head().map(|e| e.state), Some(EState::Done)) {
            return now + 1; // the head may commit
        }
        if !self.due_next.is_empty() {
            return now + 1; // a completion lands next cycle
        }
        let mut horizon = match self.events.peek() {
            Some(&Reverse((cycle, _))) => cycle.max(now + 1),
            None => Cycle::MAX,
        };
        if !self.fetch_done {
            if self.fetch_stall_until == Cycle::MAX {
                // Frozen behind a mispredicted transfer: the redirect
                // resolves through that instruction's own completion,
                // already in the event heap (or arriving remotely).
            } else if self.fetch_stall_until > now {
                horizon = horizon.min(self.fetch_stall_until);
            } else if self.window.len() < self.config.ruu_entries {
                // Fetch is unstalled with window room: it may dispatch
                // (or hit the LSQ limit, or find the end of the trace)
                // next cycle. Don't try to predict which.
                return now + 1;
            }
            // else RUU-full: fetch unblocks only after a commit, and
            // commits need a writeback event already accounted above.
        }
        horizon
    }

    /// Batch-applies the per-cycle bookkeeping for the skipped range
    /// `now + 1 .. target`, exactly as that many no-progress calls to
    /// [`OooCore::step`] would have. Only valid when the engine proved
    /// (via [`OooCore::next_event`]) that every cycle in the range is
    /// event-free; the only naive-loop effects in such cycles are the
    /// fetch stall counters and the per-cycle flag reset.
    /// Allocation-free (ds-lint a1).
    pub fn advance_to(&mut self, now: Cycle, target: Cycle) {
        let skipped = target.saturating_sub(now + 1);
        if skipped == 0 {
            return;
        }
        // Nothing retires and fetch never dispatches inside a skipped
        // range, so the per-cycle flags are identical every cycle.
        self.flags = StepFlags::default();
        if self.fetch_done {
            return;
        }
        if self.fetch_stall_until > now {
            // Stalled fetch (I-line miss, post-redirect refill, or a
            // frozen mispredict): one stall cycle per skipped cycle.
            // The horizon never exceeds a finite `fetch_stall_until`,
            // so the whole range is stalled.
            self.stats.fetch_stall_cycles += skipped;
        } else if self.window.len() >= self.config.ruu_entries {
            // RUU-full: fetch retried and was turned away every cycle.
            self.stats.ruu_full_stalls += skipped;
            if F::OBS {
                self.flags.ruu_full = true;
            }
        }
    }

    /// Classifies what this cycle was spent on, for top-down cycle
    /// accounting. Call after [`OooCore::step`] for the same `now`.
    /// Meaningful only on the `Obs` flavour.
    pub fn stall_class(&self, now: Cycle) -> CoreStall {
        if self.flags.retired > 0 {
            return CoreStall::Committing;
        }
        match self.window.head() {
            Some(head) => {
                let op = head.rec.inst.op;
                if op.is_mem() && matches!(head.state, EState::Ready | EState::Issued) {
                    if head.pending_remote {
                        CoreStall::RemoteMemWait { pc: head.rec.pc }
                    } else {
                        CoreStall::LocalMemWait { pc: head.rec.pc }
                    }
                } else if self.redirect_tag.is_some() {
                    CoreStall::SquashReplay
                } else if self.flags.ruu_full {
                    CoreStall::RuuFull
                } else if self.flags.lsq_full {
                    CoreStall::LsqFull
                } else if !self.fetch_done && self.fetch_stall_until > now {
                    CoreStall::FetchStall
                } else {
                    CoreStall::Idle
                }
            }
            None => {
                if !self.fetch_done && self.fetch_stall_until > now {
                    if self.fetch_stall_until == Cycle::MAX {
                        CoreStall::SquashReplay
                    } else {
                        CoreStall::FetchStall
                    }
                } else {
                    CoreStall::Idle
                }
            }
        }
    }

    /// Queues a completion event. Completions due exactly next cycle
    /// take the flat-`Vec` fast path; everything else goes to the heap.
    #[inline]
    fn schedule(&mut self, now: Cycle, at: Cycle, tag: RuuTag) {
        if at == now + 1 && (self.due_next.is_empty() || self.due_next_cycle == at) {
            self.due_next_cycle = at;
            self.due_next.push(tag);
        } else {
            self.events.push(Reverse((at, tag)));
        }
    }

    fn writeback(&mut self, now: Cycle) {
        if !self.due_next.is_empty() && self.due_next_cycle <= now {
            let mut due = std::mem::take(&mut self.due_scratch);
            std::mem::swap(&mut due, &mut self.due_next);
            for &tag in &due {
                self.complete_tag(tag, now);
            }
            due.clear();
            self.due_scratch = due;
        }
        while let Some(&Reverse((cycle, tag))) = self.events.peek() {
            if cycle > now {
                break;
            }
            self.events.pop();
            self.complete_tag(tag, now);
        }
    }

    /// One completion event: `tag`'s result is available.
    fn complete_tag(&mut self, tag: RuuTag, now: Cycle) {
        if self.window.complete(tag, now, &mut self.crit) && self.redirect_tag == Some(tag) {
            // The mispredicted transfer resolved: redirect fetch
            // after the front-end refill penalty.
            self.redirect_tag = None;
            self.fetch_stall_until = now + 1 + self.predictor.model().penalty();
        }
    }

    fn commit<M: MemSystem + ?Sized>(&mut self, ms: &mut M, now: Cycle) {
        let mut retired = 0usize;
        for _ in 0..self.config.commit_width {
            let Some(e) = self.window.head() else { break };
            if e.state != EState::Done {
                break;
            }
            let tag = self.window.base_tag();
            retired += 1;
            // The retirement's critical-path node; a remote fill also
            // closes its trace flow, pairing the consuming commit with
            // the broadcast/request send.
            if let Some(sent) = self.crit.edge_commit(self.window.slot(tag), e.rec.pc, now) {
                let line = e.fill_line;
                self.probe.record(now, ds_obs::EventKind::RemoteFillCommit { line, sent });
            }
            let info = OpInfo::of(e.rec.inst.op);
            if info.is_mem {
                self.mem_in_window -= 1;
                if info.is_store {
                    debug_assert_eq!(self.store_queue.front().map(|s| s.0), Some(tag));
                    self.store_queue.pop_front();
                    for bucket in store_buckets(e.rec.mem_addr, e.rec.mem_bytes) {
                        self.store_words[bucket] -= 1;
                    }
                    self.stats.stores += 1;
                } else {
                    self.stats.loads += 1;
                }
                ms.mem_committed(&e.rec, e.issue_hit, now);
            }
            // Retire the rename-table pointer to this instruction; only
            // its own destination can still name it (younger writers of
            // the same register overwrite the slot at dispatch).
            let writer = match info.dest {
                Dest::Int => Some(&mut self.writer_i[e.rec.inst.rd as usize]),
                Dest::Fp => Some(&mut self.writer_f[e.rec.inst.rd as usize]),
                Dest::None => None,
            };
            if let Some(writer) = writer {
                if *writer == Some(tag) {
                    *writer = None;
                }
            }
            self.window.retire_head();
            self.stats.committed += 1;
        }
        if retired > 0 {
            if F::OBS {
                self.flags.retired = retired as u32;
            }
            self.probe.record(now, ds_obs::EventKind::Commit { n: retired as u32 });
        }
    }

    fn issue<M: MemSystem + ?Sized>(&mut self, ms: &mut M, now: Cycle) {
        let waiting = self.window.ready_lanes();
        if waiting == 0 {
            return;
        }
        // Units free this cycle, per lane. A pipelined unit accepts a
        // new operation every cycle, so all of a class's units are free
        // when the cycle starts and counting this cycle's issues is the
        // whole of its bookkeeping; an unpipelined unit is free once
        // its busy-until cycle has come. LSQ forwarding needs no unit.
        // Only the lanes that can issue are swept: one with no unit
        // left drops out, and what waits in it costs nothing.
        let mut free = [usize::MAX; window::LANES];
        let mut open = waiting;
        for class in FU_CLASSES {
            let lane = class as usize;
            free[lane] = if class.is_pipelined() {
                self.fu_units[lane]
            } else {
                self.fu_busy[lane].iter().filter(|&&until| until <= now).count()
            };
            if free[lane] == 0 {
                open &= !(1 << lane);
            }
        }
        let mut issued = 0;
        // Oldest first; each candidate is examined at most once per
        // cycle, and one that cannot get a unit stays ready.
        for step in 0..self.window.ready_steps() {
            let (first, mut bits) = self.window.ready_step(step, open);
            while bits != 0 {
                if issued >= self.config.issue_width {
                    return;
                }
                let slot = first + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = self.window.slot_mut(slot);
                let units = &mut free[e.lane as usize];
                if *units == 0 {
                    continue; // the lane closed earlier in this group
                }
                *units -= 1;
                if *units == 0 {
                    open &= !(1 << e.lane);
                }
                issued += 1;
                e.state = EState::Issued;
                let tag = e.rec.icount;
                let info = OpInfo::of(e.rec.inst.op);
                if e.lane == FORWARD_LANE {
                    // LSQ forwarding bypasses the cache port.
                    e.issue_hit = Some(true);
                    self.crit.edge_issue(slot, now, FillKind::Forward);
                    self.stats.forwarded_loads += 1;
                    self.schedule(now, now + 1, tag);
                } else if info.is_load {
                    let (resp, hit) = ms.load_issued(&e.rec, now, tag);
                    e.issue_hit = Some(hit);
                    e.pending_remote = matches!(resp, LoadResponse::Pending);
                    let fill =
                        if e.pending_remote { FillKind::RemoteFill } else { FillKind::LocalFill };
                    self.crit.edge_issue(slot, now, fill);
                    if let LoadResponse::Ready(at) = resp {
                        self.schedule(now, at.max(now + 1), tag);
                    }
                } else {
                    self.crit.edge_issue(slot, now, FillKind::Exec);
                    let done = now + Cycle::from(info.latency);
                    // An unpipelined class has a free unit (counted
                    // above), busy from now for the whole operation; a
                    // pipelined class has no per-unit rows to find.
                    let class = info.class as usize;
                    if let Some(until) = self.fu_busy[class].iter_mut().find(|b| **b <= now) {
                        *until = done;
                    }
                    self.schedule(now, done, tag);
                }
                self.window.clear_ready(slot);
            }
        }
    }

    fn fetch<M: MemSystem + ?Sized, I: InstFeed + ?Sized>(
        &mut self,
        ms: &mut M,
        feed: &mut I,
        now: Cycle,
    ) -> Result<(), ExecError> {
        if self.fetch_done {
            return Ok(());
        }
        if self.fetch_stall_until > now {
            self.stats.fetch_stall_cycles += 1;
            return Ok(());
        }
        for _ in 0..self.config.fetch_width {
            if self.window.len() >= self.config.ruu_entries {
                self.stats.ruu_full_stalls += 1;
                if F::OBS {
                    self.flags.ruu_full = true;
                }
                break;
            }
            let mut rec = ExecRecord::BLANK;
            if !feed.copy_record(self.next_fetch, &mut rec)? {
                self.fetch_done = true;
                break;
            }
            let info = OpInfo::of(rec.inst.op);
            if info.is_mem && self.mem_in_window >= self.config.lsq_entries {
                self.stats.lsq_full_stalls += 1;
                if F::OBS {
                    self.flags.lsq_full = true;
                }
                break;
            }
            // I-cache: consult the memory system once per line crossed.
            let line = rec.pc & !(self.fetch_line_bytes - 1);
            if self.last_fetch_line != Some(line) {
                let avail = ms.fetch_line(rec.pc, now);
                self.last_fetch_line = Some(line);
                if avail > now {
                    // The line is being fetched; fetch resumes (and the
                    // instruction dispatches) when it arrives.
                    self.fetch_stall_until = avail;
                    break;
                }
            }
            self.dispatch(&rec, info, now);
            self.next_fetch += 1;
            if info.is_control {
                let correct = if rec.inst.op.is_branch() {
                    self.stats.branches += 1;
                    self.predictor.predict_conditional(
                        rec.pc,
                        rec.taken,
                        rec.inst.branch_target(rec.pc),
                    )
                } else if rec.inst.op == Opcode::Jalr {
                    self.stats.branches += 1;
                    self.predictor.predict_indirect(rec.pc, rec.next_pc)
                } else {
                    true // direct jumps never mispredict
                };
                if !correct {
                    // Fetch freezes until this transfer resolves; no
                    // wrong path is issued (the correspondence protocol
                    // forbids speculative broadcasts, §4.1).
                    self.stats.branch_mispredicts += 1;
                    self.redirect_tag = Some(rec.icount);
                    self.fetch_stall_until = Cycle::MAX;
                    break;
                }
            }
            if self.fetch_stall_until > now {
                break;
            }
            if info.is_control && rec.taken {
                break;
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, rec: &ExecRecord, info: &OpInfo, now: Cycle) {
        let tag = rec.icount;
        let inst = rec.inst;
        // Collect producer dependences: at most two register sources
        // plus one store dependence, deduplicated in place — no heap.
        // (`r0` is never in the rename table, so it needs no test.)
        let mut producers = [0 as RuuTag; MAX_EDGES];
        let mut np = 0usize;
        let mut depend_on = |producer: Option<RuuTag>| {
            if let Some(p) = producer {
                if !producers[..np].contains(&p) {
                    producers[np] = p;
                    np += 1;
                }
            }
        };
        for (field, reg) in [inst.rs, inst.rt, inst.rd].into_iter().enumerate() {
            if info.srcs & (opinfo::SRC_INT_RS << field) != 0 {
                depend_on(self.writer_i[reg as usize]);
            }
            if info.srcs & (opinfo::SRC_FP_RS << field) != 0 {
                depend_on(self.writer_f[reg as usize]);
            }
        }
        // Loads depend on the youngest older overlapping store.
        let mut lane = info.class as u8;
        let (lo, hi) = (rec.mem_addr, rec.mem_addr + rec.mem_bytes);
        if info.is_load && store_buckets(lo, rec.mem_bytes).any(|b| self.store_words[b] != 0) {
            for &(stag, slo, sbytes) in self.store_queue.iter().rev() {
                let shi = slo + sbytes;
                if lo < shi && slo < hi {
                    depend_on(Some(stag));
                    if slo <= lo && hi <= shi {
                        // The store covers the load: forward.
                        lane = FORWARD_LANE;
                    }
                    break;
                }
            }
        }
        if info.is_mem {
            self.mem_in_window += 1;
            if info.is_store {
                self.store_queue.push_back((tag, rec.mem_addr, rec.mem_bytes));
                for bucket in store_buckets(rec.mem_addr, rec.mem_bytes) {
                    self.store_words[bucket] += 1;
                }
            }
        }
        self.window.dispatch(rec, &producers[..np], lane);
        self.crit.edge_dispatch(self.window.slot(tag), now);
        // Record the rename-table destination.
        match info.dest {
            Dest::Int if inst.rd != 0 => self.writer_i[inst.rd as usize] = Some(tag),
            Dest::Fp => self.writer_f[inst.rd as usize] = Some(tag),
            _ => {}
        }
    }
}
