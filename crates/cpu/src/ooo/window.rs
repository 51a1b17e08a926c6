//! The RUU's storage: a ring of in-flight entries, the ready bitmap
//! over its slots, and the wake-up lists threaded through the entries.
//!
//! Everything here is indexed by *slot* — `tag & mask` in a
//! power-of-two ring — so an entry is written once where it will live,
//! never moved, and retired by advancing `base_tag`. The pipeline stages
//! that drive it are in the parent module.

use super::RuuTag;
use crate::exec::ExecRecord;
use crate::Cycle;
use ds_obs::Probe;

/// Producer edges one entry can hang on: two register sources plus a
/// store dependence today, one spare.
pub(super) const MAX_EDGES: usize = 4;

/// Issue lanes the ready set keeps apart (the parent module gives them
/// meaning: one per functional-unit class plus LSQ forwarding).
pub(super) const LANES: usize = 8;

/// End of a wake-up list.
const NIL: u32 = u32::MAX;

/// Low bits of a link that name the consumer's edge.
const EDGE_BITS: u32 = MAX_EDGES.trailing_zeros();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum EState {
    /// Waiting on `n` producers.
    Waiting(u32),
    /// Operands ready, queued for a functional unit.
    Ready,
    /// Executing (or waiting for remote data).
    Issued,
    /// Result available; may commit when it reaches the head.
    Done,
}

/// One in-flight instruction.
///
/// The entry is 96 bytes on both build flavours (pinned by a test;
/// the critical-path stamps live beside the core's `CritWindow`, by
/// slot): every node copies one in at dispatch and walks several per
/// cycle, so a field added here is paid on the simulator's hottest
/// path.
#[derive(Debug, Clone, Copy)]
pub(super) struct RuuEntry {
    pub rec: ExecRecord,
    pub state: EState,
    /// Head of this entry's wake-up list — the consumers waiting on its
    /// result — as a link (`consumer slot << EDGE_BITS | consumer edge`),
    /// or [`NIL`].
    cons_head: u32,
    /// This entry's place in its producers' lists: `next[k]` is the
    /// link after this entry in the list of its `k`-th unfinished
    /// producer. The links live in the consumer because a consumer has
    /// at most [`MAX_EDGES`] producers while a producer's fan-out is
    /// unbounded: the list needs no storage of its own and no heap.
    next: [u32; MAX_EDGES],
    pub issue_hit: Option<bool>,
    /// The issue lane (`< LANES`) this instruction waits in when ready.
    pub lane: u8,
    /// True once the load was answered [`super::LoadResponse::Pending`]
    /// — its data is coming from a remote node (or off chip), not local
    /// service. Distinguishes remote from local waits in the stall
    /// classifier.
    pub pending_remote: bool,
    /// The line a remote fill rode (0 until one arrives); deadlock
    /// reports print it on every flavour.
    pub fill_line: u64,
}

impl RuuEntry {
    /// What a ring slot holds before its first dispatch overwrites it.
    const VACANT: RuuEntry = RuuEntry {
        rec: ExecRecord::BLANK,
        state: EState::Done,
        cons_head: NIL,
        next: [NIL; MAX_EDGES],
        issue_hit: None,
        lane: 0,
        pending_remote: false,
        fill_line: 0,
    };
}

/// Fixed-capacity bitmaps of ready ring slots, one per issue lane.
///
/// The scheduler's working set is bounded by the ring, so a few machine
/// words replace a sorted set: insert and remove are single bit
/// operations and oldest-first selection is a `trailing_zeros` scan.
/// Keeping the lanes apart lets that scan leave out, wholesale, every
/// instruction whose functional-unit class has no unit free — a backlog
/// behind a busy divider costs nothing until the divider frees.
#[derive(Debug)]
struct ReadySet {
    /// `groups[g][lane]`: the ready slots among `64g .. 64g + 64` that
    /// wait in `lane`.
    groups: Vec<[u64; LANES]>,
    /// Ready slots per lane.
    count: [u32; LANES],
}

impl ReadySet {
    fn new(slots: usize) -> Self {
        ReadySet { groups: vec![[0; LANES]; slots.div_ceil(64)], count: [0; LANES] }
    }

    #[inline]
    fn insert(&mut self, slot: usize, lane: u8) {
        debug_assert_eq!(self.groups[slot / 64][lane as usize] >> (slot % 64) & 1, 0);
        self.groups[slot / 64][lane as usize] |= 1 << (slot % 64);
        self.count[lane as usize] += 1;
    }

    #[inline]
    fn clear(&mut self, slot: usize, lane: u8) {
        debug_assert_eq!(self.groups[slot / 64][lane as usize] >> (slot % 64) & 1, 1);
        self.groups[slot / 64][lane as usize] &= !(1 << (slot % 64));
        self.count[lane as usize] -= 1;
    }

    /// The lanes that hold a ready slot, as a bit mask.
    #[inline]
    fn occupied(&self) -> u8 {
        let mut lanes = 0;
        for (lane, &n) in self.count.iter().enumerate() {
            lanes |= u8::from(n != 0) << lane;
        }
        lanes
    }
}

/// The in-flight window: tags `base_tag .. next_tag`, oldest first.
#[derive(Debug)]
pub(super) struct Window {
    /// The ring: `mask + 1` slots, a power of two (the one heap block
    /// of any size a core owns — see DESIGN.md §12 on `setup_s`). It
    /// grows to that length as the first lap of tags is dispatched, so
    /// construction does not touch its pages, and never beyond.
    entries: Vec<RuuEntry>,
    mask: u64,
    base_tag: RuuTag,
    next_tag: RuuTag,
    ready: ReadySet,
}

impl Window {
    /// A window that can hold at least `capacity` instructions. The
    /// caller enforces its own (possibly smaller) occupancy limit.
    pub fn new(capacity: usize) -> Self {
        let slots = capacity.next_power_of_two();
        assert!(slots <= (NIL >> EDGE_BITS) as usize, "window too large for 32-bit links");
        Window {
            entries: Vec::with_capacity(slots),
            mask: slots as u64 - 1,
            base_tag: 0,
            next_tag: 0,
            ready: ReadySet::new(slots),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        (self.next_tag - self.base_tag) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.next_tag == self.base_tag
    }

    /// Tag of the oldest in-flight instruction (of the next dispatch
    /// when the window is empty).
    #[inline]
    pub fn base_tag(&self) -> RuuTag {
        self.base_tag
    }

    /// The ring slot `tag` occupies while in flight.
    #[inline]
    pub fn slot(&self, tag: RuuTag) -> usize {
        (tag & self.mask) as usize
    }

    #[inline]
    fn holds(&self, tag: RuuTag) -> bool {
        self.base_tag <= tag && tag < self.next_tag
    }

    /// The entry of `tag` if it is still in flight.
    #[inline]
    pub fn get_mut(&mut self, tag: RuuTag) -> Option<&mut RuuEntry> {
        if self.holds(tag) {
            let slot = self.slot(tag);
            Some(&mut self.entries[slot])
        } else {
            None
        }
    }

    /// The oldest in-flight entry.
    #[inline]
    pub fn head(&self) -> Option<&RuuEntry> {
        (!self.is_empty()).then(|| &self.entries[self.slot(self.base_tag)])
    }

    /// Writes the next instruction into its ring slot, in place,
    /// hanging it on the wake-up list of every producer that has not
    /// finished. `rec.icount` must be the next tag in sequence and the
    /// ring must have a free slot.
    #[inline]
    pub fn dispatch(&mut self, rec: &ExecRecord, producers: &[RuuTag], lane: u8) {
        let tag = rec.icount;
        debug_assert_eq!(tag, self.next_tag);
        debug_assert!(self.len() <= self.mask as usize);
        debug_assert!(producers.len() <= MAX_EDGES);
        let slot = self.slot(tag);
        if slot == self.entries.len() {
            self.entries.push(RuuEntry::VACANT); // first lap: within capacity
        }
        // The links are written into the entry, not gathered in a local
        // array and copied in: that copy reads 16 bytes just stored 4 at
        // a time, a load that waits for the stores to drain.
        self.entries[slot].next = [NIL; MAX_EDGES];
        let mut deps = 0;
        for &p in producers {
            let Some(pe) = self.get_mut(p) else { continue };
            if pe.state != EState::Done {
                let link = (slot as u32) << EDGE_BITS | deps as u32;
                let after = std::mem::replace(&mut pe.cons_head, link);
                self.entries[slot].next[deps] = after;
                deps += 1;
            }
        }
        let state = if deps == 0 {
            self.ready.insert(slot, lane);
            EState::Ready
        } else {
            EState::Waiting(deps as u32)
        };
        // Every other field, where it lives.
        let entry = &mut self.entries[slot];
        entry.rec = *rec;
        entry.state = state;
        entry.cons_head = NIL;
        entry.issue_hit = None;
        entry.lane = lane;
        entry.pending_remote = false;
        entry.fill_line = 0;
        self.next_tag = tag + 1;
    }

    /// Retires the oldest entry. The window must not be empty.
    #[inline]
    pub fn retire_head(&mut self) {
        debug_assert!(!self.is_empty());
        debug_assert_eq!(self.entries[self.slot(self.base_tag)].state, EState::Done);
        self.base_tag += 1;
    }

    /// Marks `tag` done and wakes its consumers, stamping both into
    /// `crit`. Returns false — and does nothing — for a tag that has
    /// retired or already completed, so duplicate completion events are
    /// harmless.
    pub fn complete(&mut self, tag: RuuTag, now: Cycle, crit: &mut impl Probe) -> bool {
        let slot = self.slot(tag);
        let Some(e) = self.get_mut(tag) else { return false };
        if e.state == EState::Done {
            return false;
        }
        e.state = EState::Done;
        crit.edge_complete(slot, now);
        let mut link = std::mem::replace(&mut e.cons_head, NIL);
        while link != NIL {
            // A consumer cannot retire before its producer completes,
            // so every link names a live slot.
            let slot = (link >> EDGE_BITS) as usize;
            let c = &mut self.entries[slot];
            link = c.next[link as usize % MAX_EDGES];
            if let EState::Waiting(n) = c.state {
                if n == 1 {
                    // This completion was the consumer's last arrival:
                    // its data-dependence edge.
                    c.state = EState::Ready;
                    crit.edge_wake(slot, now, (c.rec.icount - tag) as u32);
                    let lane = c.lane;
                    self.ready.insert(slot, lane);
                } else {
                    c.state = EState::Waiting(n - 1);
                }
            }
        }
        true
    }

    /// The lanes that hold a ready instruction, as a bit mask.
    #[inline]
    pub fn ready_lanes(&self) -> u8 {
        self.ready.occupied()
    }

    /// Steps of an oldest-first sweep over the ready set: every group
    /// of 64 slots once, and the head's group a second time for the
    /// slots that wrapped below the head.
    #[inline]
    pub fn ready_steps(&self) -> usize {
        self.ready.groups.len() + 1
    }

    /// Step `step` of the sweep: the ready slots of the `lanes` mask in
    /// that group, as `(slot of bit 0, bits)`, older slots in lower
    /// bits. A snapshot: what the caller does to the set meanwhile shows
    /// from the next step on.
    #[inline]
    pub fn ready_step(&self, step: usize, lanes: u8) -> (usize, u64) {
        let groups = self.ready.groups.len(); // a power of two, like the ring
        let head = self.slot(self.base_tag);
        let g = (head / 64 + step) & (groups - 1);
        let mut bits = 0;
        let mut lanes = lanes;
        while lanes != 0 {
            bits |= self.ready.groups[g][lanes.trailing_zeros() as usize];
            lanes &= lanes - 1;
        }
        let below_head = !(!0 << (head % 64));
        if step == 0 {
            bits &= !below_head;
        } else if step == groups {
            bits &= below_head;
        }
        (g * 64, bits)
    }

    /// The entry in ring slot `slot`, which must hold an in-flight
    /// instruction (a ready one, say).
    #[inline]
    pub fn slot_mut(&mut self, slot: usize) -> &mut RuuEntry {
        &mut self.entries[slot]
    }

    /// Takes the instruction in `slot` out of the ready set (it is
    /// being issued).
    #[inline]
    pub fn clear_ready(&mut self, slot: usize) {
        let lane = self.entries[slot].lane;
        self.ready.clear(slot, lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_isa::Inst;
    use ds_obs::NoopProbe;

    fn rec(icount: u64) -> ExecRecord {
        ExecRecord {
            icount,
            pc: 0x1000 + 8 * icount,
            inst: Inst::nop(),
            next_pc: 0x1008 + 8 * icount,
            taken: false,
            mem_addr: 0,
            mem_bytes: 0,
        }
    }

    fn state(w: &mut Window, tag: RuuTag) -> EState {
        w.get_mut(tag).expect("in flight").state
    }

    /// The tags an oldest-first sweep of `lanes` visits.
    fn sweep(w: &mut Window, lanes: u8) -> Vec<RuuTag> {
        let mut seen = Vec::new();
        for step in 0..w.ready_steps() {
            let (first, mut bits) = w.ready_step(step, lanes);
            while bits != 0 {
                let slot = first + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                seen.push(w.slot_mut(slot).rec.icount);
            }
        }
        seen
    }

    /// Issues (if still ready), completes and retires the head, as the
    /// pipeline would.
    fn drain_head(w: &mut Window) {
        let tag = w.base_tag();
        if state(w, tag) == EState::Ready {
            w.clear_ready((tag & w.mask) as usize);
        }
        w.complete(tag, 0, &mut NoopProbe);
        w.retire_head();
    }

    /// A field added to the entry shows up here, not in the ledger —
    /// on both flavours: the `Obs` flavour keeps its critical-path stamps
    /// out of the ring.
    #[test]
    fn entry_is_96_bytes_on_both_flavours() {
        assert_eq!(std::mem::size_of::<RuuEntry>(), 96);
    }

    /// Every node copies one record per instruction out of the trace
    /// into its entry: a field added to the record is paid there.
    #[test]
    fn exec_record_is_56_bytes() {
        assert_eq!(std::mem::size_of::<ExecRecord>(), 56);
    }

    #[test]
    fn ring_wraps_without_moving_entries() {
        let mut w = Window::new(6); // 8 slots
        assert_eq!(w.mask, 7);
        let block = w.entries.as_ptr();
        for tag in 0..100u64 {
            if w.len() == 6 {
                assert_eq!(w.head().unwrap().rec.icount, tag - 6);
                drain_head(&mut w);
            }
            w.dispatch(&rec(tag), &[], 0);
            assert_eq!(w.get_mut(tag).unwrap().rec.icount, tag);
            assert!(w.get_mut(tag + 1).is_none(), "not dispatched yet");
        }
        assert_eq!(w.len(), 6);
        assert_eq!((w.entries.len(), w.entries.as_ptr()), (8, block), "one block, never regrown");
        assert!(w.get_mut(93).is_none(), "retired tags are out of the window");
        while !w.is_empty() {
            drain_head(&mut w);
        }
        assert_eq!(w.base_tag(), 100);
        assert!(w.head().is_none());
        assert_eq!(w.ready_lanes(), 0);
    }

    #[test]
    fn ready_sweep_is_oldest_first_across_the_wrap() {
        let mut w = Window::new(8);
        // Advance the head to slot 5 so the window straddles the wrap.
        for tag in 0..5 {
            w.dispatch(&rec(tag), &[], 0);
            drain_head(&mut w);
        }
        // Tags 5..11 live in slots 5, 6, 7, 0, 1, 2; 5 gates 7 and 9;
        // 6 and 10 wait in lane 3, the rest in lane 0.
        w.dispatch(&rec(5), &[], 0);
        w.dispatch(&rec(6), &[], 3);
        w.dispatch(&rec(7), &[5], 0);
        w.dispatch(&rec(8), &[], 0);
        w.dispatch(&rec(9), &[5], 0);
        w.dispatch(&rec(10), &[], 3);
        assert_eq!(w.ready_lanes(), 0b1001);
        assert_eq!(sweep(&mut w, !0), [5, 6, 8, 10]);
        assert_eq!(sweep(&mut w, 0b0001), [5, 8]);
        assert_eq!(sweep(&mut w, 0b1000), [6, 10], "a closed lane's backlog is never visited");
        w.clear_ready(5);
        w.clear_ready(0); // tag 8
        assert_eq!(sweep(&mut w, !0), [6, 10]);
        assert_eq!(w.ready_lanes(), 0b1000);
        assert!(w.complete(5, 3, &mut NoopProbe));
        assert_eq!(sweep(&mut w, !0), [6, 7, 9, 10]);
        for slot in [6, 7, 1, 2] {
            w.clear_ready(slot);
        }
        assert_eq!(w.ready_lanes(), 0);
        assert_eq!(sweep(&mut w, !0), []);
    }

    #[test]
    fn a_full_ring_is_swept_once_per_slot() {
        let mut w = Window::new(128);
        for tag in 0..70 {
            w.dispatch(&rec(tag), &[], 0);
            drain_head(&mut w);
        }
        for tag in 70..198 {
            w.dispatch(&rec(tag), &[], (tag % 8) as u8);
        }
        assert_eq!(w.len(), 128);
        assert_eq!(sweep(&mut w, !0), (70..198).collect::<Vec<_>>());
    }

    #[test]
    fn wake_up_follows_every_edge_and_only_unfinished_producers() {
        let mut w = Window::new(16);
        w.dispatch(&rec(0), &[], 0);
        w.dispatch(&rec(1), &[], 0);
        w.dispatch(&rec(2), &[], 0);
        assert!(w.complete(2, 1, &mut NoopProbe));
        // 3 waits on 0 and 1; 2 is done and must not count.
        w.dispatch(&rec(3), &[0, 1, 2], 0);
        // 4 and 5 share producer 0 with 3: one list, three members.
        w.dispatch(&rec(4), &[0], 0);
        w.dispatch(&rec(5), &[1, 0], 0);
        assert_eq!(state(&mut w, 3), EState::Waiting(2));
        assert_eq!(state(&mut w, 4), EState::Waiting(1));
        assert_eq!(state(&mut w, 5), EState::Waiting(2));
        assert!(w.complete(0, 2, &mut NoopProbe));
        assert_eq!(state(&mut w, 3), EState::Waiting(1));
        assert_eq!(state(&mut w, 4), EState::Ready);
        assert_eq!(state(&mut w, 5), EState::Waiting(1));
        assert!(!w.complete(0, 3, &mut NoopProbe), "a second completion is ignored");
        assert!(w.complete(1, 3, &mut NoopProbe));
        assert_eq!(state(&mut w, 3), EState::Ready);
        assert_eq!(state(&mut w, 5), EState::Ready);
        assert!(!w.complete(99, 3, &mut NoopProbe), "unknown tags are ignored");
    }

    #[test]
    fn a_reused_slot_starts_with_an_empty_list() {
        let mut w = Window::new(2);
        w.dispatch(&rec(0), &[], 0);
        w.dispatch(&rec(1), &[0], 0);
        drain_head(&mut w);
        drain_head(&mut w);
        // Tag 2 reuses tag 0's slot; tag 3 must hang on tag 2, not on
        // anything tag 0 left behind.
        w.dispatch(&rec(2), &[], 0);
        w.dispatch(&rec(3), &[2], 0);
        assert_eq!(state(&mut w, 3), EState::Waiting(1));
        assert!(w.complete(2, 1, &mut NoopProbe));
        assert_eq!(state(&mut w, 3), EState::Ready);
    }
}
