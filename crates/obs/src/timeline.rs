//! Interval time-series telemetry: counter deltas sampled every
//! [`SAMPLE_INTERVAL`] cycles, plus deterministic phase segmentation.
//!
//! Whole-run aggregates (cycle accounting, critical-path shares) cannot
//! distinguish a run that is broadcast-bound for 10% of its cycles and
//! idle elsewhere from one that is uniformly mediocre. The timeline
//! closes that gap: each node owns a pre-allocated [`IntervalRing`]
//! that, at every `SAMPLE_INTERVAL` boundary, closes one
//! [`IntervalSample`] holding the *deltas* accumulated since the
//! previous boundary — instructions committed, per-bucket
//! [`CycleAccount`] charges, broadcast sends/arrivals, the BSHR
//! occupancy high-water mark, and how many of the interval's cycles the
//! event-horizon engine skipped.
//!
//! The Perfetto `stalls` counter track is rendered from these same
//! intervals, and the ring follows the same overwrite-oldest +
//! drop-counter discipline as [`crate::EventRing`]: this file is a
//! ds-lint hot module, so the `sample*`/`note*` paths allocate nothing
//! after construction.
//!
//! On top of the intervals, [`segment_phases`] runs a deterministic
//! change-point pass (trailing-window smoothing, integer per-mille
//! signatures — no floats anywhere near a comparison) producing the
//! [`Phase`] list surfaced as [`TimelineReport`] on
//! `RunResult::metrics` and exported through `ds-bench-result/v1`
//! documents, per-phase folded stacks, and the `ds-dash` dashboard.

use crate::account::{CycleAccount, StallBucket, BUCKET_COUNT};
use crate::Cycle;

/// Cycles between timeline interval boundaries (and therefore between
/// Perfetto stall counter samples, which are rendered from them).
pub const SAMPLE_INTERVAL: u64 = 4096;

/// Default [`IntervalRing`] capacity: 1024 intervals cover a 4M-cycle
/// run — comfortably past the full-budget Figure 7 grid — in ~128 KiB
/// per node.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 10;

/// Trailing intervals folded into each smoothed signature before the
/// change-point comparison (noise suppression without look-ahead).
pub const SMOOTH_WINDOW: usize = 3;

/// Minimum intervals per phase: a cut is not allowed until the open
/// phase has at least this many intervals, so one noisy interval cannot
/// split a steady region in two.
pub const MIN_PHASE_INTERVALS: usize = 4;

/// Smoothed-IPC change (in thousandths of an instruction per cycle)
/// that opens a new phase.
pub const IPC_CUT_MILLIS: u64 = 200;

/// Largest single stall-bucket share change (in per-mille of the
/// interval's cycles) that opens a new phase.
pub const SHARE_CUT_MILLIS: u64 = 250;

/// One closed interval's counter deltas: everything that happened in
/// `[start, start + len)`.
#[derive(Debug, Clone, Copy, Default, Eq)]
pub struct IntervalSample {
    /// First cycle the interval covers.
    pub start: Cycle,
    /// Cycles covered (`SAMPLE_INTERVAL` except for the final partial
    /// interval closed at end of run).
    pub len: u64,
    /// Instructions committed during the interval.
    pub committed: u64,
    /// ESP broadcasts queued during the interval.
    pub sends: u64,
    /// Broadcast arrivals delivered during the interval.
    pub arrives: u64,
    /// BSHR occupancy high-water mark observed during the interval.
    pub bshr_occ_hw: u64,
    /// Cycles of the interval covered by event-horizon skips. Engine
    /// diagnostic: excluded from equality (see [`PartialEq`] impl).
    pub skipped: u64,
    /// Per-bucket cycle-account deltas, indexed by
    /// `StallBucket as usize`. Sums to `len`.
    pub buckets: [u64; BUCKET_COUNT],
}

/// Equality deliberately ignores [`IntervalSample::skipped`]: it
/// records how the *engine* covered the interval (the naive reference
/// loop never skips, the event-horizon engine skips most quiescent
/// cycles), not what the simulated machine did. Every behavioral field
/// must agree exactly across engines — that is what the
/// `skip_equivalence` grid pins once `TimelineReport` rides on
/// `RunResult::metrics`.
impl PartialEq for IntervalSample {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.len == other.len
            && self.committed == other.committed
            && self.sends == other.sends
            && self.arrives == other.arrives
            && self.bshr_occ_hw == other.bshr_occ_hw
            && self.buckets == other.buckets
    }
}

impl IntervalSample {
    /// The interval's IPC in thousandths (integer fixed-point; the
    /// phase detector compares these, never floats).
    pub fn ipc_millis(&self) -> u64 {
        (self.committed * 1000).checked_div(self.len).unwrap_or(0)
    }

    /// `bucket`'s share of the interval in per-mille.
    pub fn share_millis(&self, bucket: StallBucket) -> u64 {
        (self.buckets[bucket as usize] * 1000).checked_div(self.len).unwrap_or(0)
    }
}

/// A fixed-capacity ring of [`IntervalSample`]s plus the running state
/// needed to close the next one. Same discipline as [`crate::EventRing`]:
/// allocated once at construction, overwrite-oldest when full, a
/// `dropped` counter instead of a failure path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRing {
    /// Backing storage, allocated once; `buf.capacity()` never changes.
    buf: Vec<IntervalSample>,
    /// Index of the oldest retained interval (meaningful after wrap).
    head: usize,
    /// Intervals overwritten after wraparound.
    dropped: u64,
    /// Boundary the last interval closed at (start of the open one).
    prev_cycle: Cycle,
    /// Cumulative counter values at `prev_cycle`.
    prev_committed: u64,
    prev_sends: u64,
    prev_arrives: u64,
    prev_account: CycleAccount,
    /// High-water BSHR occupancy seen inside the open interval.
    occ_hw: u64,
    /// Skipped cycles accumulated inside the open interval.
    skipped_acc: u64,
}

impl IntervalRing {
    /// A ring retaining at most `capacity` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "an interval ring needs at least one slot");
        IntervalRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            prev_cycle: 0,
            prev_committed: 0,
            prev_sends: 0,
            prev_arrives: 0,
            prev_account: CycleAccount::default(),
            occ_hw: 0,
            skipped_acc: 0,
        }
    }

    /// Notes the BSHR occupancy for the open interval's high-water
    /// mark. Hot path: one compare.
    #[inline]
    pub fn note_occ(&mut self, occ: u64) {
        if occ > self.occ_hw {
            self.occ_hw = occ;
        }
    }

    /// Notes `n` cycles of the open interval as covered by an
    /// event-horizon skip.
    #[inline]
    pub fn note_skipped(&mut self, n: u64) {
        self.skipped_acc += n;
    }

    /// Closes the open interval at boundary `end`, given the node's
    /// *cumulative* counters at that boundary; deltas against the
    /// previous boundary become one [`IntervalSample`]. A repeated
    /// close at the same boundary (cycle 0, or end-of-run landing
    /// exactly on a boundary already closed) is a no-op, so callers
    /// can close unconditionally. Never allocates.
    pub fn sample_close(
        &mut self,
        end: Cycle,
        committed: u64,
        sends: u64,
        arrives: u64,
        account: &CycleAccount,
    ) {
        if end == self.prev_cycle {
            return;
        }
        let mut buckets = [0u64; BUCKET_COUNT];
        let now = account.buckets();
        let before = self.prev_account.buckets();
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = now[i] - before[i];
        }
        let sample = IntervalSample {
            start: self.prev_cycle,
            len: end - self.prev_cycle,
            committed: committed - self.prev_committed,
            sends: sends - self.prev_sends,
            arrives: arrives - self.prev_arrives,
            bshr_occ_hw: self.occ_hw,
            skipped: self.skipped_acc,
            buckets,
        };
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
        self.prev_cycle = end;
        self.prev_committed = committed;
        self.prev_sends = sends;
        self.prev_arrives = arrives;
        self.prev_account = *account;
        self.occ_hw = 0;
        self.skipped_acc = 0;
    }

    /// Retained intervals.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no interval has been closed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum intervals the ring retains.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Intervals overwritten after the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained intervals, oldest to newest (starts strictly
    /// increasing).
    pub fn iter(&self) -> impl Iterator<Item = &IntervalSample> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Snapshots the retained intervals and segments them into phases.
    /// Report-time only (allocates), never called from the cycle loop.
    pub fn report(&self) -> TimelineNodeReport {
        let intervals: Vec<IntervalSample> = self.iter().copied().collect();
        let phases = segment_phases(&intervals);
        TimelineNodeReport { intervals, phases, dropped: self.dropped }
    }
}

impl Default for IntervalRing {
    fn default() -> Self {
        IntervalRing::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }
}

/// One detected phase: a maximal run of consecutive intervals whose
/// smoothed signature stayed within the cut thresholds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase {
    /// First cycle the phase covers.
    pub start: Cycle,
    /// Total cycles covered.
    pub cycles: u64,
    /// Intervals folded into the phase.
    pub intervals: u32,
    /// Instructions committed across the phase.
    pub committed: u64,
    /// Per-bucket cycle sums across the phase. Sums to `cycles`.
    pub buckets: [u64; BUCKET_COUNT],
}

impl Phase {
    /// The phase's IPC in thousandths.
    pub fn ipc_millis(&self) -> u64 {
        (self.committed * 1000).checked_div(self.cycles).unwrap_or(0)
    }

    /// `bucket`'s share of the phase in per-mille.
    pub fn share_millis(&self, bucket: StallBucket) -> u64 {
        (self.buckets[bucket as usize] * 1000).checked_div(self.cycles).unwrap_or(0)
    }

    /// The bucket with the most cycles (ties break toward the earlier
    /// bucket in charge order) and its per-mille share.
    pub fn dominant(&self) -> (StallBucket, u64) {
        let mut best = StallBucket::Committing;
        let mut best_cycles = self.buckets[best as usize];
        for b in StallBucket::ALL {
            if self.buckets[b as usize] > best_cycles {
                best = b;
                best_cycles = self.buckets[b as usize];
            }
        }
        (best, self.share_millis(best))
    }

    fn absorb(&mut self, s: &IntervalSample) {
        self.cycles += s.len;
        self.intervals += 1;
        self.committed += s.committed;
        for (a, b) in self.buckets.iter_mut().zip(s.buckets.iter()) {
            *a += *b;
        }
    }
}

/// A smoothed integer signature: IPC and bucket shares in per-mille
/// over a trailing window of intervals.
#[derive(Debug, Clone, Copy, Default)]
struct Signature {
    ipc_millis: u64,
    share_millis: [u64; BUCKET_COUNT],
}

impl Signature {
    fn over(intervals: &[IntervalSample]) -> Signature {
        let cycles: u64 = intervals.iter().map(|s| s.len).sum();
        if cycles == 0 {
            return Signature::default();
        }
        let committed: u64 = intervals.iter().map(|s| s.committed).sum();
        let mut share_millis = [0u64; BUCKET_COUNT];
        for (i, out) in share_millis.iter_mut().enumerate() {
            let b: u64 = intervals.iter().map(|s| s.buckets[i]).sum();
            *out = b * 1000 / cycles;
        }
        Signature { ipc_millis: committed * 1000 / cycles, share_millis }
    }

    fn of_phase(p: &Phase) -> Signature {
        let mut share_millis = [0u64; BUCKET_COUNT];
        for (i, out) in share_millis.iter_mut().enumerate() {
            *out = (p.buckets[i] * 1000).checked_div(p.cycles).unwrap_or(0);
        }
        Signature { ipc_millis: p.ipc_millis(), share_millis }
    }

    /// True when the two signatures differ enough to cut a phase:
    /// smoothed IPC moved more than [`IPC_CUT_MILLIS`], or some
    /// bucket's share moved more than [`SHARE_CUT_MILLIS`]. Pure
    /// integer comparisons.
    fn cuts_from(&self, base: &Signature) -> bool {
        if self.ipc_millis.abs_diff(base.ipc_millis) > IPC_CUT_MILLIS {
            return true;
        }
        self.share_millis
            .iter()
            .zip(base.share_millis.iter())
            .any(|(a, b)| a.abs_diff(*b) > SHARE_CUT_MILLIS)
    }
}

/// Segments `intervals` (oldest to newest, as [`IntervalRing::iter`]
/// yields them) into phases by greedy change-point detection: each new
/// interval's trailing-window signature is compared against the open
/// phase's aggregate signature; when it moves past the cut thresholds
/// and the open phase already holds [`MIN_PHASE_INTERVALS`], a new
/// phase starts. Deterministic — integer arithmetic only, evaluated in
/// interval order.
pub fn segment_phases(intervals: &[IntervalSample]) -> Vec<Phase> {
    let mut phases: Vec<Phase> = Vec::new();
    let mut open: Option<Phase> = None;
    for (i, s) in intervals.iter().enumerate() {
        match open.as_mut() {
            None => {
                let mut p = Phase { start: s.start, ..Phase::default() };
                p.absorb(s);
                open = Some(p);
            }
            Some(p) => {
                let smoothed =
                    Signature::over(&intervals[i.saturating_sub(SMOOTH_WINDOW - 1)..=i]);
                if p.intervals as usize >= MIN_PHASE_INTERVALS
                    && smoothed.cuts_from(&Signature::of_phase(p))
                {
                    phases.push(*p);
                    let mut next = Phase { start: s.start, ..Phase::default() };
                    next.absorb(s);
                    *p = next;
                } else {
                    p.absorb(s);
                }
            }
        }
    }
    if let Some(p) = open {
        phases.push(p);
    }
    phases
}

/// One node's timeline: the retained intervals, the phases segmented
/// over them, and how many older intervals the ring overwrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineNodeReport {
    /// Retained intervals, oldest to newest.
    pub intervals: Vec<IntervalSample>,
    /// Phases segmented over the retained intervals.
    pub phases: Vec<Phase>,
    /// Intervals overwritten after ring wraparound.
    pub dropped: u64,
}

/// The run's timeline, one [`TimelineNodeReport`] per node, carried on
/// `RunResult::metrics` (empty with no nodes absorbed — e.g. before a
/// run, or for systems that do not sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineReport {
    /// The sampling cadence the intervals were closed at.
    pub interval_cycles: u64,
    /// Per-node timelines, indexed by node id.
    pub nodes: Vec<TimelineNodeReport>,
}

impl Default for TimelineReport {
    fn default() -> Self {
        TimelineReport { interval_cycles: SAMPLE_INTERVAL, nodes: Vec::new() }
    }
}

impl TimelineReport {
    /// Folds the per-node timelines into one system-level timeline:
    /// intervals aligned by start cycle with counters summed across
    /// nodes (`len` becomes node-cycles, so shares and per-mille IPC
    /// stay well-defined) and `bshr_occ_hw` taken as the cross-node
    /// max, then re-segmented into system phases.
    pub fn merged(&self) -> TimelineNodeReport {
        let mut merged: Vec<IntervalSample> = Vec::new();
        for node in &self.nodes {
            for s in &node.intervals {
                match merged.binary_search_by_key(&s.start, |m| m.start) {
                    Ok(i) => {
                        let m = &mut merged[i];
                        m.len += s.len;
                        m.committed += s.committed;
                        m.sends += s.sends;
                        m.arrives += s.arrives;
                        m.skipped += s.skipped;
                        m.bshr_occ_hw = m.bshr_occ_hw.max(s.bshr_occ_hw);
                        for (a, b) in m.buckets.iter_mut().zip(s.buckets.iter()) {
                            *a += *b;
                        }
                    }
                    Err(i) => merged.insert(i, *s),
                }
            }
        }
        let phases = segment_phases(&merged);
        let dropped = self.nodes.iter().map(|n| n.dropped).sum();
        TimelineNodeReport { intervals: merged, phases, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(charges: &[(StallBucket, u64)]) -> CycleAccount {
        let mut a = CycleAccount::default();
        for &(b, n) in charges {
            a.charge_many(b, n);
        }
        a
    }

    #[test]
    fn close_computes_deltas_and_resets_state() {
        let mut r = IntervalRing::with_capacity(8);
        r.note_occ(3);
        r.note_skipped(100);
        let a1 = acct(&[(StallBucket::Committing, 3000), (StallBucket::Idle, 1096)]);
        r.sample_close(4096, 900, 5, 7, &a1);
        let a2 = acct(&[(StallBucket::Committing, 3500), (StallBucket::Idle, 4692)]);
        r.sample_close(8192, 1100, 5, 9, &a2);
        let got: Vec<IntervalSample> = r.iter().copied().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(
            (got[0].start, got[0].len, got[0].committed, got[0].sends, got[0].arrives),
            (0, 4096, 900, 5, 7)
        );
        assert_eq!((got[0].bshr_occ_hw, got[0].skipped), (3, 100));
        assert_eq!(got[0].buckets[StallBucket::Committing as usize], 3000);
        // Second interval: deltas, not cumulative values, and the
        // occupancy/skip accumulators were reset by the first close.
        assert_eq!((got[1].start, got[1].len, got[1].committed), (4096, 4096, 200));
        assert_eq!((got[1].sends, got[1].arrives), (0, 2));
        assert_eq!((got[1].bshr_occ_hw, got[1].skipped), (0, 0));
        assert_eq!(got[1].buckets[StallBucket::Committing as usize], 500);
        assert_eq!(got[1].buckets[StallBucket::Idle as usize], 3596);
    }

    #[test]
    fn repeated_close_at_same_boundary_is_a_noop() {
        let mut r = IntervalRing::with_capacity(4);
        let a = acct(&[]);
        r.sample_close(0, 0, 0, 0, &a);
        assert!(r.is_empty());
        let a = acct(&[(StallBucket::Idle, 4096)]);
        r.sample_close(4096, 10, 0, 0, &a);
        r.sample_close(4096, 10, 0, 0, &a);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ring_wraparound_overwrites_oldest_and_counts_drops() {
        let mut r = IntervalRing::with_capacity(4);
        for i in 1..=11u64 {
            let a = acct(&[(StallBucket::Idle, i * SAMPLE_INTERVAL)]);
            r.sample_close(i * SAMPLE_INTERVAL, i, 0, 0, &a);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 7);
        let starts: Vec<u64> = r.iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![7 * 4096, 8 * 4096, 9 * 4096, 10 * 4096]);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn closing_never_grows_the_buffer() {
        let mut r = IntervalRing::with_capacity(8);
        let ptr = r.buf.as_ptr();
        for i in 1..=100u64 {
            let a = acct(&[(StallBucket::Idle, i * 16)]);
            r.sample_close(i * 16, i, i, i, &a);
        }
        assert_eq!(r.capacity(), 8);
        assert_eq!(r.buf.as_ptr(), ptr, "storage must never reallocate");
    }

    #[test]
    fn equality_ignores_the_skipped_diagnostic() {
        let a = IntervalSample { skipped: 0, ..IntervalSample::default() };
        let b = IntervalSample { skipped: 4000, ..a };
        assert_eq!(a, b, "engines that skip differently must still compare equal");
        let c = IntervalSample { committed: 1, ..a };
        assert_ne!(a, c);
    }

    /// Builds `n` uniform intervals at the given committed/idle split.
    fn uniform(n: usize, start_at: u64, committed: u64) -> Vec<IntervalSample> {
        (0..n as u64)
            .map(|i| {
                let mut buckets = [0u64; BUCKET_COUNT];
                buckets[StallBucket::Committing as usize] = committed;
                buckets[StallBucket::Idle as usize] = SAMPLE_INTERVAL - committed;
                IntervalSample {
                    start: start_at + i * SAMPLE_INTERVAL,
                    len: SAMPLE_INTERVAL,
                    committed,
                    buckets,
                    ..IntervalSample::default()
                }
            })
            .collect()
    }

    #[test]
    fn segmentation_splits_on_an_ipc_step() {
        // 8 busy intervals then 8 near-idle ones: one clean cut.
        let mut ivs = uniform(8, 0, 3500);
        ivs.extend(uniform(8, 8 * SAMPLE_INTERVAL, 200));
        let phases = segment_phases(&ivs);
        assert_eq!(phases.len(), 2, "expected one cut, got {phases:?}");
        assert_eq!(phases[0].start, 0);
        assert_eq!(phases[0].intervals, 8);
        assert_eq!(phases[1].start, 8 * SAMPLE_INTERVAL);
        let total: u64 = phases.iter().map(|p| p.cycles).sum();
        assert_eq!(total, 16 * SAMPLE_INTERVAL, "phases partition the intervals");
        assert!(phases[0].ipc_millis() > phases[1].ipc_millis());
        assert_eq!(phases[1].dominant().0, StallBucket::Idle);
    }

    #[test]
    fn segmentation_keeps_a_steady_run_in_one_phase() {
        let ivs = uniform(32, 0, 2000);
        let phases = segment_phases(&ivs);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].intervals, 32);
        assert_eq!(phases[0].committed, 32 * 2000);
    }

    #[test]
    fn segmentation_respects_the_minimum_phase_length() {
        // Alternating intervals would cut every step if allowed; the
        // minimum phase length forces runs of at least
        // MIN_PHASE_INTERVALS.
        let mut ivs = Vec::new();
        for i in 0..24u64 {
            let committed = if i % 2 == 0 { 3500 } else { 200 };
            ivs.extend(uniform(1, i * SAMPLE_INTERVAL, committed));
        }
        let phases = segment_phases(&ivs);
        assert!(phases.iter().all(|p| p.intervals as usize >= MIN_PHASE_INTERVALS
            || p.start + p.cycles == 24 * SAMPLE_INTERVAL));
    }

    #[test]
    fn segmentation_is_deterministic() {
        let mut ivs = uniform(10, 0, 3000);
        ivs.extend(uniform(10, 10 * SAMPLE_INTERVAL, 100));
        ivs.extend(uniform(10, 20 * SAMPLE_INTERVAL, 2900));
        assert_eq!(segment_phases(&ivs), segment_phases(&ivs));
    }

    #[test]
    fn merged_aligns_by_start_and_sums() {
        let node0 = TimelineNodeReport {
            intervals: uniform(4, 0, 1000),
            dropped: 2,
            ..TimelineNodeReport::default()
        };
        let mut node1 = TimelineNodeReport {
            intervals: uniform(4, 0, 500),
            ..TimelineNodeReport::default()
        };
        node1.intervals[2].bshr_occ_hw = 9;
        let t = TimelineReport { interval_cycles: SAMPLE_INTERVAL, nodes: vec![node0, node1] };
        let m = t.merged();
        assert_eq!(m.dropped, 2);
        assert_eq!(m.intervals.len(), 4);
        assert_eq!(m.intervals[0].len, 2 * SAMPLE_INTERVAL, "len sums to node-cycles");
        assert_eq!(m.intervals[0].committed, 1500);
        assert_eq!(m.intervals[2].bshr_occ_hw, 9, "high-water is the cross-node max");
        let sum: u64 = m.intervals.iter().map(|s| s.committed).sum();
        assert_eq!(sum, 4 * 1500);
    }

    #[test]
    fn phase_buckets_sum_to_phase_cycles() {
        let mut ivs = uniform(6, 0, 3100);
        ivs.extend(uniform(6, 6 * SAMPLE_INTERVAL, 300));
        for p in segment_phases(&ivs) {
            assert_eq!(p.buckets.iter().sum::<u64>(), p.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = IntervalRing::with_capacity(0);
    }
}
