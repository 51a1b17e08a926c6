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

use crate::branch::{BranchModel, Predictor};
use crate::exec::{ExecError, ExecRecord};
use crate::trace::InstFeed;
use crate::Cycle;
use ds_isa::{FuClass, Opcode};
use ds_obs::critpath::UNKNOWN_SEND;
use ds_obs::{CritNode, FillKind, Probe as _};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The core's observability probe: the ds-obs recorder when the `obs`
/// feature is on, a zero-sized no-op otherwise (every `record` call
/// compiles away — see `ds_obs` crate docs on the zero-cost guarantee).
#[cfg(feature = "obs")]
pub(crate) type CoreProbe = ds_obs::Recorder;
/// The disabled probe (ZST).
#[cfg(not(feature = "obs"))]
pub(crate) type CoreProbe = ds_obs::NoopProbe;

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
    fn count(&self, class: FuClass) -> usize {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMul => self.int_mul,
            FuClass::IntDiv => self.int_div,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMul => self.fp_mul,
            FuClass::FpDiv => self.fp_div,
            FuClass::Mem => self.mem_ports,
        }
    }

    fn pipelined(class: FuClass) -> bool {
        !matches!(class, FuClass::IntDiv | FuClass::FpDiv)
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    /// Waiting on `n` producers.
    Waiting(u32),
    /// Operands ready, queued for a functional unit.
    Ready,
    /// Executing (or waiting for remote data).
    Issued,
    /// Result available; may commit when it reaches the head.
    Done,
}

/// Consumer list of one window entry. Dependence fan-out is short for
/// almost every producer, so the first four readers live inline and
/// only wider fan-outs touch the heap — the plain-`Vec` version cost
/// one malloc/free per producing instruction on the simulator's
/// hottest path.
#[derive(Debug, Clone, Default)]
struct Consumers {
    inline_len: u8,
    inline: [RuuTag; 4],
    spill: Vec<RuuTag>,
}

impl Consumers {
    #[inline]
    fn push(&mut self, tag: RuuTag) {
        let n = self.inline_len as usize;
        if n < self.inline.len() {
            self.inline[n] = tag;
            self.inline_len += 1;
        } else {
            self.spill.push(tag);
        }
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = RuuTag> + '_ {
        self.inline[..self.inline_len as usize].iter().copied().chain(self.spill.iter().copied())
    }
}

#[derive(Debug, Clone)]
struct RuuEntry {
    rec: ExecRecord,
    state: EState,
    consumers: Consumers,
    issue_hit: Option<bool>,
    /// For loads: the older store that covers this load's bytes, if any.
    forward_from: Option<RuuTag>,
    /// True once the load was answered [`LoadResponse::Pending`] —
    /// its data is coming from a remote node (or off chip), not local
    /// service. Distinguishes remote from local waits in the stall
    /// classifier.
    pending_remote: bool,
    /// Last-arrival timestamps for the critical-path analyzer (plain
    /// stores, maintained unconditionally; the derived `CritNode` is
    /// only built when the probe is enabled). `t_ready` is stamped
    /// when the last producer wakes this entry; `t_complete` at
    /// writeback.
    t_dispatch: Cycle,
    t_ready: Cycle,
    t_issue: Cycle,
    t_complete: Cycle,
    /// Producer whose completion was the last arrival making this
    /// entry ready; `RuuTag::MAX` when it dispatched ready.
    last_producer: RuuTag,
    /// How the completion was produced (stamped at issue).
    fill: FillKind,
    /// For remote fills: the cycle the data entered the sender's
    /// output queue ([`UNKNOWN_SEND`] otherwise) and the line it rode.
    fill_sent: Cycle,
    fill_line: u64,
}

/// Per-cycle facts the stall classifier needs that the pipeline stages
/// would otherwise discard: whether anything retired and whether fetch
/// hit a structural limit *this* cycle. Maintained only when the probe
/// is enabled (see [`OooCore::step`]).
#[derive(Debug, Clone, Copy, Default)]
struct StepFlags {
    retired: u32,
    ruu_full: bool,
    lsq_full: bool,
}

/// What one zero-or-more-commit cycle was spent on, classified
/// top-down from the head of the commit window: on a cycle where
/// nothing retires, the oldest instruction is what the machine is
/// truly waiting on. Meaningful only on instrumented builds (the
/// flags feeding it are maintained only while the probe is enabled).
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
/// data with [`OooCore::complete_load`].
#[derive(Debug)]
pub struct OooCore {
    config: OooConfig,
    /// In-flight window; `window[0]` has tag `base_tag`.
    window: VecDeque<RuuEntry>,
    base_tag: RuuTag,
    next_fetch: RuuTag,
    fetch_done: bool,
    fetch_stall_until: Cycle,
    last_fetch_line: Option<u64>,
    /// Tags with all operands ready, as a bitmap over window slots
    /// (bit `i` == tag `base_tag + i`), scanned oldest-first at issue.
    ready: ReadySet,
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
    /// Memory operations currently in the window (LSQ occupancy).
    mem_in_window: usize,
    /// Per-class unit free times, indexed by `FuClass as usize`.
    fu_free: [Vec<Cycle>; 7],
    stats: OooStats,
    /// Line size used to decide when fetch crosses into a new I-line.
    fetch_line_bytes: u64,
    predictor: Predictor,
    /// A mispredicted control transfer fetch is waiting on.
    redirect_tag: Option<RuuTag>,
    /// Cycle-stamped commit events (no-op unless built with `obs`).
    probe: CoreProbe,
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

/// Fixed-capacity bitmap of ready window slots.
///
/// The scheduler's working set is bounded by `ruu_entries`, so a few
/// machine words replace the old `BTreeSet<RuuTag>`: insert and remove
/// are single bit operations, oldest-first selection is a
/// `trailing_zeros` scan, and commit re-bases the map with a bit shift.
#[derive(Debug)]
struct ReadySet {
    words: Vec<u64>,
}

impl ReadySet {
    fn new(capacity: usize) -> Self {
        ReadySet { words: vec![0; capacity.div_ceil(64)] }
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    /// True when any slot is ready.
    #[inline]
    fn any_set(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Slides every slot down by `k` after `k` instructions committed.
    fn shift_down(&mut self, k: usize) {
        let n = self.words.len();
        let (words, bits) = (k / 64, k % 64);
        if words > 0 {
            for i in 0..n {
                self.words[i] = if i + words < n { self.words[i + words] } else { 0 };
            }
        }
        if bits > 0 {
            for i in 0..n {
                let hi = if i + 1 < n { self.words[i + 1] } else { 0 };
                self.words[i] = (self.words[i] >> bits) | (hi << (64 - bits));
            }
        }
    }
}

impl OooCore {
    /// Builds an empty core.
    ///
    /// `fetch_line_bytes` is the I-cache line size (fetch consults the
    /// [`MemSystem`] once per line crossed).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero widths or window
    /// sizes).
    pub fn new(config: OooConfig, fetch_line_bytes: u64) -> Self {
        assert!(config.fetch_width > 0 && config.issue_width > 0 && config.commit_width > 0);
        assert!(config.ruu_entries > 0 && config.lsq_entries > 0);
        assert!(fetch_line_bytes.is_power_of_two());
        debug_assert!(FU_CLASSES.iter().enumerate().all(|(i, &c)| c as usize == i));
        let fu_free = FU_CLASSES.map(|c| vec![0u64; config.fu.count(c).max(1)]);
        OooCore {
            config,
            window: VecDeque::with_capacity(config.ruu_entries),
            base_tag: 0,
            next_fetch: 0,
            fetch_done: false,
            fetch_stall_until: 0,
            last_fetch_line: None,
            ready: ReadySet::new(config.ruu_entries),
            events: BinaryHeap::new(),
            due_next: Vec::with_capacity(config.issue_width),
            due_next_cycle: 0,
            due_scratch: Vec::with_capacity(config.issue_width),
            writer_i: [None; 32],
            writer_f: [None; 32],
            store_queue: VecDeque::new(),
            mem_in_window: 0,
            fu_free,
            stats: OooStats::default(),
            fetch_line_bytes,
            predictor: Predictor::new(config.branch),
            redirect_tag: None,
            probe: CoreProbe::default(),
            flags: StepFlags::default(),
        }
    }

    /// The recorded commit events (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn events(&self) -> &ds_obs::EventRing {
        self.probe.ring()
    }

    /// The critical-path window of retired-instruction graph nodes
    /// (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn crit_window(&self) -> &ds_obs::CritWindow {
        self.probe.crit_window()
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
        self.window.front().map(|e| RuuSnapshot {
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

    fn entry_mut(&mut self, tag: RuuTag) -> Option<&mut RuuEntry> {
        if tag < self.base_tag {
            return None;
        }
        let idx = (tag - self.base_tag) as usize;
        self.window.get_mut(idx)
    }

    /// Supplies the completion time for a load previously answered
    /// [`LoadResponse::Pending`]. Safe to call for already-committed or
    /// unknown tags (ignored) — a squashed/duplicate arrival must not
    /// wedge the core.
    pub fn complete_load(&mut self, tag: RuuTag, available_at: Cycle) {
        if let Some(e) = self.entry_mut(tag) {
            if e.state == EState::Issued {
                self.events.push(Reverse((available_at, tag)));
            }
        }
    }

    /// Like [`OooCore::complete_load`], additionally recording the
    /// fill's cross-node provenance: the cycle the data entered the
    /// sender's output queue and the line it rode. Feeds the
    /// critical-path communication edges (measured end-to-end from the
    /// send, so bus-grant queueing is included) and the trace flow
    /// arrows; timing is unchanged.
    pub fn complete_load_from(&mut self, tag: RuuTag, available_at: Cycle, line: u64, sent: Cycle) {
        if let Some(e) = self.entry_mut(tag) {
            e.fill_sent = sent;
            e.fill_line = line;
        }
        self.complete_load(tag, available_at);
    }

    /// Advances one cycle: writeback, commit, issue, fetch.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors from the trace source.
    pub fn step<M: MemSystem + ?Sized, F: InstFeed + ?Sized>(
        &mut self,
        ms: &mut M,
        feed: &mut F,
        now: Cycle,
    ) -> Result<(), ExecError> {
        if self.probe.enabled() {
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
        if self.ready.any_set() {
            return now + 1; // a ready instruction may issue
        }
        if matches!(self.window.front().map(|e| e.state), Some(EState::Done)) {
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
            if self.probe.enabled() {
                self.flags.ruu_full = true;
            }
        }
    }

    /// Classifies what this cycle was spent on, for top-down cycle
    /// accounting. Call after [`OooCore::step`] for the same `now`.
    /// Meaningful only on instrumented builds.
    pub fn stall_class(&self, now: Cycle) -> CoreStall {
        if self.flags.retired > 0 {
            return CoreStall::Committing;
        }
        match self.window.front() {
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

    /// Marks `tag` done and wakes its consumers (one completion event).
    fn complete_tag(&mut self, tag: RuuTag, now: Cycle) {
        let consumers = {
            let Some(e) = self.entry_mut(tag) else { return };
            if e.state == EState::Done {
                return;
            }
            e.state = EState::Done;
            e.t_complete = now;
            std::mem::take(&mut e.consumers)
        };
        if self.redirect_tag == Some(tag) {
            // The mispredicted transfer resolved: redirect fetch
            // after the front-end refill penalty.
            self.redirect_tag = None;
            self.fetch_stall_until = now + 1 + self.predictor.model().penalty();
        }
        for c in consumers.iter() {
            if let Some(e) = self.entry_mut(c) {
                if let EState::Waiting(n) = e.state {
                    let n = n - 1;
                    e.state = if n == 0 { EState::Ready } else { EState::Waiting(n) };
                    if n == 0 {
                        // This completion was the consumer's last
                        // arrival: its data-dependence edge.
                        e.t_ready = now;
                        e.last_producer = tag;
                        self.ready.insert((c - self.base_tag) as usize);
                    }
                }
            }
        }
    }

    fn commit<M: MemSystem + ?Sized>(&mut self, ms: &mut M, now: Cycle) {
        let mut retired = 0usize;
        for _ in 0..self.config.commit_width {
            let Some(head) = self.window.front() else { break };
            if head.state != EState::Done {
                break;
            }
            // ds-lint: allow(p1) front() above proved the window non-empty
            let e = self.window.pop_front().expect("head exists");
            let tag = self.base_tag;
            self.base_tag += 1;
            retired += 1;
            if self.probe.enabled() {
                self.edge_note_retire(&e, tag, now);
            }
            let op = e.rec.inst.op;
            if op.is_mem() {
                self.mem_in_window -= 1;
                if op.is_store() {
                    debug_assert_eq!(self.store_queue.front().map(|s| s.0), Some(tag));
                    self.store_queue.pop_front();
                    self.stats.stores += 1;
                } else {
                    self.stats.loads += 1;
                }
                ms.mem_committed(&e.rec, e.issue_hit, now);
            }
            // Retire the rename-table pointer to this instruction; only
            // its own destination can still name it (younger writers of
            // the same register overwrite the slot at dispatch).
            match dest_reg(&e.rec) {
                Some((false, r)) if r != 0 && self.writer_i[r as usize] == Some(tag) => {
                    self.writer_i[r as usize] = None;
                }
                Some((true, r)) if self.writer_f[r as usize] == Some(tag) => {
                    self.writer_f[r as usize] = None;
                }
                _ => {}
            }
            self.stats.committed += 1;
        }
        if retired > 0 {
            self.ready.shift_down(retired);
            if self.probe.enabled() {
                self.flags.retired = retired as u32;
            }
            self.probe.record(now, ds_obs::EventKind::Commit { n: retired as u32 });
        }
    }

    /// Records the retiring entry's last-arrival graph node (and, for
    /// remote fills, the flow-finish event pairing the consuming commit
    /// with the broadcast/request send). Runs once per retirement on
    /// instrumented builds; ds-lint rule a1 applies.
    fn edge_note_retire(&mut self, e: &RuuEntry, tag: RuuTag, now: Cycle) {
        let producer_back =
            if e.last_producer == RuuTag::MAX { 0 } else { (tag - e.last_producer) as u32 };
        self.probe.edge_retire(CritNode {
            pc: e.rec.pc,
            dispatch: e.t_dispatch,
            ready: e.t_ready,
            issue: e.t_issue,
            complete: e.t_complete,
            commit: now,
            sent: e.fill_sent,
            producer_back,
            fill: e.fill,
        });
        if e.fill == FillKind::RemoteFill && e.fill_sent != UNKNOWN_SEND {
            self.probe
                .record(now, ds_obs::EventKind::RemoteFillCommit { line: e.fill_line, sent: e.fill_sent });
        }
    }

    fn issue<M: MemSystem + ?Sized>(&mut self, ms: &mut M, now: Cycle) {
        let mut issued = 0;
        // Scan ready slots oldest-first; each candidate is examined at
        // most once per cycle. A slot that cannot acquire its unit
        // keeps its bit and waits for the next cycle.
        'scan: for w in 0..self.ready.words.len() {
            let mut bits = self.ready.words[w];
            while bits != 0 {
                if issued >= self.config.issue_width {
                    break 'scan;
                }
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let tag = self.base_tag + slot as u64;
                let (op, rec, forward_from) = {
                    // ds-lint: allow(p1) ready bitmap only holds in-window slots (cleared on retire)
                    let e = self.entry_mut(tag).expect("ready entries are in-window");
                    (e.rec.inst.op, e.rec, e.forward_from)
                };
                let class = op.fu_class();
                // LSQ forwarding bypasses the cache port.
                let forwarding = op.is_load() && forward_from.is_some();
                if !forwarding && self.acquire_fu(class, now).is_none() {
                    continue;
                }
                self.ready.clear(slot);
                issued += 1;
                if forwarding {
                    self.stats.forwarded_loads += 1;
                    // ds-lint: allow(p1) same tag as the entry_mut above: still in-window
                    let e = self.entry_mut(tag).unwrap();
                    e.state = EState::Issued;
                    e.issue_hit = Some(true);
                    e.t_issue = now;
                    e.fill = FillKind::Forward;
                    self.schedule(now, now + 1, tag);
                } else if op.is_load() {
                    let (resp, hit) = ms.load_issued(&rec, now, tag);
                    // ds-lint: allow(p1) same tag as the entry_mut above: still in-window
                    let e = self.entry_mut(tag).unwrap();
                    e.state = EState::Issued;
                    e.issue_hit = Some(hit);
                    e.pending_remote = matches!(resp, LoadResponse::Pending);
                    e.t_issue = now;
                    e.fill = if e.pending_remote { FillKind::RemoteFill } else { FillKind::LocalFill };
                    match resp {
                        LoadResponse::Ready(at) => {
                            self.schedule(now, at.max(now + 1), tag);
                        }
                        LoadResponse::Pending => {}
                    }
                } else {
                    // ds-lint: allow(p1) same tag as the entry_mut above: still in-window
                    let e = self.entry_mut(tag).unwrap();
                    e.state = EState::Issued;
                    e.t_issue = now;
                    self.schedule(now, now + op.latency(), tag);
                }
            }
        }
    }

    fn acquire_fu(&mut self, class: FuClass, now: Cycle) -> Option<usize> {
        let units = &mut self.fu_free[class as usize];
        let idx = units.iter().position(|&f| f <= now)?;
        units[idx] = if FuPool::pipelined(class) {
            now + 1
        } else {
            now + class_latency(class)
        };
        Some(idx)
    }

    fn fetch<M: MemSystem + ?Sized, F: InstFeed + ?Sized>(
        &mut self,
        ms: &mut M,
        feed: &mut F,
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
                if self.probe.enabled() {
                    self.flags.ruu_full = true;
                }
                break;
            }
            let rec = match feed.fetch_record(self.next_fetch)? {
                Some(r) => r,
                None => {
                    self.fetch_done = true;
                    break;
                }
            };
            if rec.inst.op.is_mem() && self.mem_in_window >= self.config.lsq_entries {
                self.stats.lsq_full_stalls += 1;
                if self.probe.enabled() {
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
            self.dispatch(rec, now);
            self.next_fetch += 1;
            if rec.inst.op.is_control() {
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
            if rec.inst.op.is_control() && rec.taken {
                break;
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, rec: ExecRecord, now: Cycle) {
        let tag = rec.icount;
        debug_assert_eq!(tag, self.base_tag + self.window.len() as u64);
        let op = rec.inst.op;
        // Collect producer dependences: at most 2 int + 2 fp sources
        // plus 1 store dependence, deduplicated in place — no heap.
        let mut producers = [0 as RuuTag; 5];
        let mut np = 0usize;
        let (iregs, ni) = int_sources(&rec);
        for &r in &iregs[..ni] {
            if r != 0 {
                if let Some(p) = self.writer_i[r as usize] {
                    if !producers[..np].contains(&p) {
                        producers[np] = p;
                        np += 1;
                    }
                }
            }
        }
        let (fregs, nf) = fp_sources(&rec);
        for &r in &fregs[..nf] {
            if let Some(p) = self.writer_f[r as usize] {
                if !producers[..np].contains(&p) {
                    producers[np] = p;
                    np += 1;
                }
            }
        }
        // Loads depend on the youngest older overlapping store.
        let mut forward_from = None;
        if op.is_load() {
            let (lo, hi) = (rec.mem_addr, rec.mem_addr + rec.mem_bytes);
            for &(stag, saddr, sbytes) in self.store_queue.iter().rev() {
                let (slo, shi) = (saddr, saddr + sbytes);
                if lo < shi && slo < hi {
                    if !producers[..np].contains(&stag) {
                        producers[np] = stag;
                        np += 1;
                    }
                    if slo <= lo && hi <= shi {
                        // Store covers the load: forward.
                        forward_from = Some(stag);
                    }
                    break;
                }
            }
        }
        // Only count producers not already done.
        let mut deps = 0u32;
        for &p in &producers[..np] {
            if let Some(e) = self.entry_mut(p) {
                if e.state != EState::Done {
                    e.consumers.push(tag);
                    deps += 1;
                }
            }
        }
        let state = if deps == 0 { EState::Ready } else { EState::Waiting(deps) };
        if state == EState::Ready {
            self.ready.insert(self.window.len());
        }
        if op.is_mem() {
            self.mem_in_window += 1;
            if op.is_store() {
                self.store_queue.push_back((tag, rec.mem_addr, rec.mem_bytes));
            }
        }
        // Record the rename-table destination.
        match dest_reg(&rec) {
            Some((false, r)) if r != 0 => self.writer_i[r as usize] = Some(tag),
            Some((true, r)) => self.writer_f[r as usize] = Some(tag),
            _ => {}
        }
        self.window.push_back(RuuEntry {
            rec,
            state,
            consumers: Consumers::default(),
            issue_hit: None,
            forward_from,
            pending_remote: false,
            t_dispatch: now,
            // Overwritten when the last producer wakes this entry; a
            // dispatch-ready instruction's last arrival is the frontend.
            t_ready: now,
            t_issue: now,
            t_complete: now,
            last_producer: RuuTag::MAX,
            fill: FillKind::Exec,
            fill_sent: UNKNOWN_SEND,
            fill_line: 0,
        });
    }
}

fn class_latency(class: FuClass) -> Cycle {
    match class {
        FuClass::IntDiv | FuClass::FpDiv => 12,
        _ => 1,
    }
}

/// Integer source registers of an executed instruction (fixed-size,
/// no heap: at most two).
fn int_sources(rec: &ExecRecord) -> ([u8; 2], usize) {
    use Opcode::*;
    let i = rec.inst;
    match i.op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu => {
            ([i.rs, i.rt], 2)
        }
        Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai => ([i.rs, 0], 1),
        Lui | Nop | Halt | Jal => ([0; 2], 0),
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => ([i.rs, 0], 1),
        Sb | Sh | Sw | Sd => ([i.rs, i.rd], 2), // rd is the store value
        Fsd => ([i.rs, 0], 1),
        Beq | Bne | Blt | Bge | Bltu | Bgeu => ([i.rs, i.rt], 2),
        Jalr => ([i.rs, 0], 1),
        Fcvtdw => ([i.rs, 0], 1),
        Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fmov | Fneg | Fabs | Feq | Flt | Fle | Fcvtwd => {
            ([0; 2], 0)
        }
    }
}

/// Floating-point source registers (fixed-size, no heap).
fn fp_sources(rec: &ExecRecord) -> ([u8; 2], usize) {
    use Opcode::*;
    let i = rec.inst;
    match i.op {
        Fadd | Fsub | Fmul | Fdiv | Feq | Flt | Fle => ([i.rs, i.rt], 2),
        Fsqrt | Fmov | Fneg | Fabs | Fcvtwd => ([i.rs, 0], 1),
        Fsd => ([i.rd, 0], 1), // store value
        _ => ([0; 2], 0),
    }
}

/// Destination register: `(is_fp, reg)`.
fn dest_reg(rec: &ExecRecord) -> Option<(bool, u8)> {
    let i = rec.inst;
    let op = i.op;
    if op.writes_freg() {
        return Some((true, i.rd));
    }
    use Opcode::*;
    match op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu
        | Addi | Andi | Ori | Xori | Slti | Slli | Srli | Srai | Lui | Lb | Lbu | Lh | Lhu
        | Lw | Lwu | Ld | Feq | Flt | Fle | Fcvtwd | Jal | Jalr => Some((false, i.rd)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FuncCore;
    use crate::trace::TraceSource;
    use ds_isa::{reg, Inst};
    use ds_mem::MemImage;

    /// A perfect memory system: 1-cycle loads, instant fetch.
    struct PerfectMem {
        loads_seen: u64,
        commits_seen: u64,
    }

    impl PerfectMem {
        fn new() -> Self {
            PerfectMem { loads_seen: 0, commits_seen: 0 }
        }
    }

    impl MemSystem for PerfectMem {
        fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
            self.loads_seen += 1;
            (LoadResponse::Ready(now + 1), true)
        }
        fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {
            self.commits_seen += 1;
        }
        fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
            now
        }
    }

    /// Memory that delays every load by a fixed latency via Pending.
    struct SlowMem {
        latency: Cycle,
        pending: Vec<(RuuTag, Cycle)>,
    }

    impl MemSystem for SlowMem {
        fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, t: RuuTag) -> (LoadResponse, bool) {
            self.pending.push((t, now + self.latency));
            (LoadResponse::Pending, false)
        }
        fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
        fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
            now
        }
    }

    fn trace_of(prog: &[Inst]) -> TraceSource {
        let mut mem = MemImage::new();
        for (i, inst) in prog.iter().enumerate() {
            mem.write_u64(0x1000 + 8 * i as u64, inst.encode());
        }
        TraceSource::new(FuncCore::new(0x1000), mem)
    }

    fn run_to_completion<M: MemSystem>(
        core: &mut OooCore,
        ms: &mut M,
        trace: &mut TraceSource,
        deliver: impl Fn(&mut M, &mut OooCore, Cycle),
    ) -> Cycle {
        let mut now = 0;
        while !core.is_done() {
            core.step(ms, trace, now).unwrap();
            deliver(ms, core, now);
            now += 1;
            assert!(now < 1_000_000, "runaway simulation");
        }
        now
    }

    #[test]
    fn straight_line_commits_everything() {
        let prog: Vec<Inst> = (0..20)
            .map(|k| Inst::rri(Opcode::Addi, reg::T0, reg::T0, k))
            .chain([Inst::halt()])
            .collect();
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert_eq!(core.committed(), 21);
        assert!(core.is_done());
    }

    #[test]
    fn dependent_chain_is_serialised() {
        // 16 dependent addis: cannot finish faster than ~16 cycles.
        let prog: Vec<Inst> = (0..16)
            .map(|_| Inst::rri(Opcode::Addi, reg::T0, reg::T0, 1))
            .chain([Inst::halt()])
            .collect();
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert!(cycles >= 16, "dependent chain took {cycles} cycles");
    }

    #[test]
    fn independent_ops_exploit_width() {
        // 64 independent adds on distinct registers: an 8-wide machine
        // should need far fewer than 64 cycles.
        let prog: Vec<Inst> = (0..64)
            .map(|k| Inst::rri(Opcode::Addi, reg::T0 + (k % 8) as u8, reg::ZERO, k))
            .chain([Inst::halt()])
            .collect();
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert!(cycles < 32, "8-wide machine took {cycles} cycles for 64 indep ops");
    }

    #[test]
    fn store_to_load_forwarding() {
        let prog = [
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
            Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 7),
            Inst::store(Opcode::Sd, reg::T1, reg::T0, 0),
            Inst::load(Opcode::Ld, reg::T2, reg::T0, 0),
            Inst::halt(),
        ];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert_eq!(core.stats().forwarded_loads, 1);
        assert_eq!(ms.loads_seen, 0, "forwarded load never reaches memory");
        assert_eq!(ms.commits_seen, 2, "store + load commit via MemSystem");
    }

    #[test]
    fn partial_overlap_blocks_but_does_not_forward() {
        let prog = [
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
            Inst::store(Opcode::Sw, reg::T1, reg::T0, 0), // 4 bytes
            Inst::load(Opcode::Ld, reg::T2, reg::T0, 0),  // 8 bytes
            Inst::halt(),
        ];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert_eq!(core.stats().forwarded_loads, 0);
        assert_eq!(ms.loads_seen, 1, "load goes to memory after the store");
    }

    #[test]
    fn pending_loads_complete_via_callback() {
        let prog = [
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
            Inst::load(Opcode::Ld, reg::T1, reg::T0, 0),
            Inst::rrr(Opcode::Add, reg::T2, reg::T1, reg::T1),
            Inst::halt(),
        ];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = SlowMem { latency: 50, pending: Vec::new() };
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |ms, core, now| {
            let due: Vec<_> = ms.pending.iter().filter(|&&(_, at)| at <= now).cloned().collect();
            ms.pending.retain(|&(_, at)| at > now);
            for (tag, at) in due {
                core.complete_load(tag, at.max(now + 1));
            }
        });
        assert!(cycles >= 50, "load latency must gate completion, took {cycles}");
        assert_eq!(core.committed(), 4);
    }

    #[test]
    fn in_order_commit_of_mem_ops() {
        // Two loads to different addresses; even if the second completes
        // first, commits must arrive in program order.
        struct OrderCheck {
            committed: Vec<u64>,
        }
        impl MemSystem for OrderCheck {
            fn load_issued(&mut self, r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
                // First load slow, second fast.
                let lat = if r.mem_addr == 0x4000 { 30 } else { 1 };
                (LoadResponse::Ready(now + lat), true)
            }
            fn mem_committed(&mut self, r: &ExecRecord, _h: Option<bool>, _now: Cycle) {
                self.committed.push(r.mem_addr);
            }
            fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
                now
            }
        }
        let prog = [
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
            Inst::load(Opcode::Ld, reg::T1, reg::T0, 0),
            Inst::load(Opcode::Ld, reg::T2, reg::T0, 0x100),
            Inst::halt(),
        ];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = OrderCheck { committed: Vec::new() };
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert_eq!(ms.committed, vec![0x4000, 0x4100]);
    }

    #[test]
    fn window_capacity_limits_runahead() {
        let mut small = OooConfig::default();
        small.ruu_entries = 4;
        small.lsq_entries = 2;
        let prog: Vec<Inst> = (0..32)
            .map(|k| Inst::rri(Opcode::Addi, reg::T0 + (k % 4) as u8, reg::ZERO, k))
            .chain([Inst::halt()])
            .collect();
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(small, 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert!(core.stats().ruu_full_stalls > 0);
        assert_eq!(core.committed(), 33);
    }

    #[test]
    fn icache_stall_blocks_fetch() {
        struct SlowFetch;
        impl MemSystem for SlowFetch {
            fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
                (LoadResponse::Ready(now + 1), true)
            }
            fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
            fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
                now + 10
            }
        }
        let prog: Vec<Inst> =
            (0..8).map(|_| Inst::nop()).chain([Inst::halt()]).collect();
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = SlowFetch;
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        // 9 instructions over 3 lines (32B lines, 8B insts), each line
        // costs 10 cycles.
        assert!(cycles >= 30, "I-miss stalls must accumulate, took {cycles}");
        assert!(core.stats().fetch_stall_cycles > 0);
    }

    #[test]
    fn div_unit_is_unpipelined() {
        // Two independent divides with one divider: serialised.
        let prog = [
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 100),
            Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 5),
            Inst::rrr(Opcode::Div, reg::T2, reg::T0, reg::T1),
            Inst::rrr(Opcode::Div, reg::T3, reg::T0, reg::T1),
            Inst::halt(),
        ];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        assert!(cycles >= 24, "two unpipelined 12-cycle divides, took {cycles}");
    }

    #[test]
    fn misprediction_stalls_cost_cycles() {
        use crate::branch::BranchModel;
        // A data-dependent alternating branch: the bimodal predictor
        // gets it wrong constantly, the perfect model never does.
        let prog: Vec<Inst> = {
            let mut v = vec![Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, 64)];
            // if (s0 & 1) skip one instruction, alternating per iteration.
            v.push(Inst::rri(Opcode::Andi, reg::T0, reg::S0, 1));
            v.push(Inst::branch(Opcode::Beq, reg::T0, reg::ZERO, 2));
            v.push(Inst::rri(Opcode::Addi, reg::T1, reg::T1, 1));
            v.push(Inst::rri(Opcode::Addi, reg::S0, reg::S0, -1));
            v.push(Inst::branch(Opcode::Bne, reg::S0, reg::ZERO, -4));
            v.push(Inst::halt());
            v
        };
        let run = |model: BranchModel| {
            let mut trace = trace_of(&prog);
            let mut config = OooConfig::default();
            config.branch = model;
            let mut core = OooCore::new(config, 32);
            let mut ms = PerfectMem::new();
            let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
            (cycles, core.stats().branch_mispredicts, core.committed())
        };
        let (perfect_cycles, perfect_miss, n1) = run(BranchModel::Perfect);
        let (pred_cycles, pred_miss, n2) =
            run(BranchModel::TwoBit { table_bits: 10, penalty: 8 });
        assert_eq!(n1, n2, "same committed stream");
        assert_eq!(perfect_miss, 0);
        assert!(pred_miss > 20, "alternating branch must mispredict, got {pred_miss}");
        assert!(
            pred_cycles > perfect_cycles + 8 * pred_miss / 2,
            "mispredictions must cost cycles: {pred_cycles} vs {perfect_cycles}"
        );
    }

    #[test]
    fn predictable_loops_barely_suffer() {
        use crate::branch::BranchModel;
        let prog: Vec<Inst> = (0..4)
            .map(|k| Inst::rri(Opcode::Addi, reg::T0 + k, reg::ZERO, 1))
            .chain([
                Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, 200),
                Inst::rri(Opcode::Addi, reg::T1, reg::T1, 1),
                Inst::rri(Opcode::Addi, reg::S0, reg::S0, -1),
                Inst::branch(Opcode::Bne, reg::S0, reg::ZERO, -2),
                Inst::halt(),
            ])
            .collect();
        let run = |model: BranchModel| {
            let mut trace = trace_of(&prog);
            let mut config = OooConfig::default();
            config.branch = model;
            let mut core = OooCore::new(config, 32);
            let mut ms = PerfectMem::new();
            run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {})
        };
        let perfect = run(BranchModel::Perfect);
        let predicted = run(BranchModel::TwoBit { table_bits: 10, penalty: 8 });
        assert!(
            predicted < perfect + 60,
            "a monotone loop should predict well: {predicted} vs {perfect}"
        );
    }

    #[test]
    fn complete_load_for_retired_tag_is_ignored() {
        let prog = [Inst::nop(), Inst::halt()];
        let mut trace = trace_of(&prog);
        let mut core = OooCore::new(OooConfig::default(), 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        core.complete_load(0, 5); // must not panic or corrupt
        assert!(core.is_done());
    }

    /// Local memory with visible latencies everywhere: loads complete
    /// 12 cycles after issue, new I-lines arrive 9 cycles after the
    /// request — plenty of quiescent gaps for the horizon to skip.
    struct LaggyMem;

    impl MemSystem for LaggyMem {
        fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
            (LoadResponse::Ready(now + 12), false)
        }
        fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
        fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
            now + 9
        }
    }

    #[test]
    fn horizon_skipping_matches_naive_stepping() {
        let prog: Vec<Inst> = (0..24i32)
            .flat_map(|k| {
                [
                    Inst::load(Opcode::Ld, reg::T0, reg::ZERO, 0x400 + 8 * k),
                    Inst::rri(Opcode::Addi, reg::T1, reg::T0, 1),
                ]
            })
            .chain([Inst::halt()])
            .collect();
        let tight = OooConfig {
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            ruu_entries: 8,
            lsq_entries: 4,
            ..Default::default()
        };

        // Reference: one step per cycle.
        let mut naive = OooCore::new(tight, 32);
        let mut naive_trace = trace_of(&prog);
        let naive_cycles = {
            let mut now = 0;
            loop {
                naive.step(&mut LaggyMem, &mut naive_trace, now).unwrap();
                if naive.is_done() {
                    break now + 1;
                }
                now += 1;
                assert!(now < 100_000, "runaway simulation");
            }
        };

        // Event-horizon: jump over every cycle the core proves inert.
        let mut skip = OooCore::new(tight, 32);
        let mut skip_trace = trace_of(&prog);
        let mut skips = 0u64;
        let skip_cycles = {
            let mut now = 0;
            loop {
                skip.step(&mut LaggyMem, &mut skip_trace, now).unwrap();
                if skip.is_done() {
                    break now + 1;
                }
                let h = skip.next_event(now);
                assert!(h > now, "horizon must be in the future");
                assert_ne!(h, Cycle::MAX, "local-only core always has a next event");
                if h > now + 1 {
                    skip.advance_to(now, h);
                    skips += 1;
                    now = h;
                } else {
                    now += 1;
                }
                assert!(now < 100_000, "runaway simulation");
            }
        };

        assert!(skips > 0, "the laggy memory must have produced skippable gaps");
        assert_eq!(skip_cycles, naive_cycles, "cycle counts must match exactly");
        assert_eq!(*skip.stats(), *naive.stats(), "all counters must match exactly");
    }
}
