//! Top-down cycle accounting: every simulated cycle charged to exactly
//! one stall bucket, plus a per-PC profile of memory-wait cycles.
//!
//! The attribution follows the top-down style of `sim-outorder` and
//! gem5's stat framework: on a cycle where nothing retires, the *oldest*
//! instruction in the commit window is what the machine is truly
//! waiting on, so the cycle is charged to whatever that instruction is
//! blocked by. The closed bucket set lives in [`StallBucket`]; the
//! accumulator is [`CycleAccount`] — a fixed array, so charging is one
//! indexed increment and ds-lint a1-clean. The invariant downstream
//! code asserts: per node, `CycleAccount::total()` equals the total
//! simulated cycles exactly. A node's account and its per-PC profile
//! travel together as one [`CycleLedger`].

use crate::Probe;

/// Number of stall buckets — the length of every [`CycleAccount`].
pub const BUCKET_COUNT: usize = 11;

/// The closed set of per-cycle charges. Exactly one per node per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum StallBucket {
    /// At least one instruction retired this cycle.
    Committing = 0,
    /// Fetch is stalled: instruction-cache miss latency or the
    /// post-redirect refill penalty after a resolved mispredict.
    FetchStall,
    /// Fetch blocked because the register update unit is full.
    RuuFull,
    /// Fetch blocked because the load/store queue is full.
    LsqFull,
    /// Head of the commit window is a memory op waiting on a remote
    /// operand (BSHR entry outstanding, bus quiet).
    BshrWaitRemote,
    /// Head of the commit window is a memory op waiting on local
    /// memory (cache miss to owned storage).
    LocalMemWait,
    /// Head is waiting on remote data while the interconnect is busy —
    /// the wait is (at least partly) contention, not pure latency.
    BusContentionWait,
    /// Head is waiting on remote data while a reparative (false-hit)
    /// broadcast squash is pending — DCUB/commit-repair territory.
    CommitRepair,
    /// The window is draining or refilling after a branch mispredict
    /// whose redirect has not yet resolved.
    SquashReplay,
    /// Head is waiting on remote data whose broadcast timed out — the
    /// BSHR is retrying (retransmit request outstanding) or the line
    /// has degraded to request–response. Only ds-chaos runs with BSHR
    /// timeouts enabled ever charge this bucket.
    RetryWait,
    /// Nothing retired and nothing is identifiably blocked: dependence
    /// chains in flight, startup, or the run already finished.
    Idle,
}

impl StallBucket {
    /// Every bucket, in charge order.
    pub const ALL: [StallBucket; BUCKET_COUNT] = [
        StallBucket::Committing,
        StallBucket::FetchStall,
        StallBucket::RuuFull,
        StallBucket::LsqFull,
        StallBucket::BshrWaitRemote,
        StallBucket::LocalMemWait,
        StallBucket::BusContentionWait,
        StallBucket::CommitRepair,
        StallBucket::SquashReplay,
        StallBucket::RetryWait,
        StallBucket::Idle,
    ];

    /// Stable kebab-case label (folded-stack frames, Perfetto args,
    /// ds-ledger `obs.stall.*` metric names).
    pub const fn label(self) -> &'static str {
        match self {
            StallBucket::Committing => "committing",
            StallBucket::FetchStall => "fetch-stall",
            StallBucket::RuuFull => "ruu-full",
            StallBucket::LsqFull => "lsq-full",
            StallBucket::BshrWaitRemote => "bshr-wait-remote",
            StallBucket::LocalMemWait => "local-memory-wait",
            StallBucket::BusContentionWait => "bus-contention-wait",
            StallBucket::CommitRepair => "commit-repair",
            StallBucket::SquashReplay => "squash-replay",
            StallBucket::RetryWait => "retry-wait",
            StallBucket::Idle => "idle",
        }
    }
}

/// Per-node cycle ledger: one counter per [`StallBucket`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAccount {
    buckets: [u64; BUCKET_COUNT],
}

impl CycleAccount {
    /// Charges one cycle to `bucket`. A single array increment —
    /// hot-path safe (no allocation, no branches beyond the index).
    #[inline]
    pub fn charge(&mut self, bucket: StallBucket) {
        self.buckets[bucket as usize] += 1;
    }

    /// Charges `n` cycles to `bucket` at once — the batch form the
    /// event-horizon engine uses when it skips a quiescent range. Must
    /// stay equivalent to `n` calls to [`CycleAccount::charge`].
    #[inline]
    pub fn charge_many(&mut self, bucket: StallBucket, n: u64) {
        self.buckets[bucket as usize] += n;
    }

    /// Cycles charged to `bucket`.
    #[inline]
    pub fn get(&self, bucket: StallBucket) -> u64 {
        self.buckets[bucket as usize]
    }

    /// Sum over all buckets — must equal elapsed cycles.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw counters, indexed by `StallBucket as usize`.
    pub fn buckets(&self) -> &[u64; BUCKET_COUNT] {
        &self.buckets
    }

    /// Adds `other`'s counters into `self` (system-wide rollups).
    pub fn merge(&mut self, other: &CycleAccount) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// `bucket`'s share of the total, in [0, 1]; 0 when empty.
    pub fn share(&self, bucket: StallBucket) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }
}

/// Which kind of memory wait a PC is being charged for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcStallKind {
    /// Charged alongside [`StallBucket::BshrWaitRemote`].
    RemoteWait,
    /// Charged alongside [`StallBucket::LocalMemWait`].
    LocalWait,
}

/// Distinct static PCs the profile tracks before overflowing. Inserts
/// below this bound never reallocate (the vec is pre-sized), keeping
/// `charge_pc` a1-clean.
pub const PC_PROFILE_CAPACITY: usize = 4096;

/// One profiled PC's accumulated wait cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcWait {
    pub pc: u64,
    pub remote_wait: u64,
    pub local_wait: u64,
}

/// Per-node map from static load/store PC to wait cycles, kept sorted
/// by PC in a pre-allocated vec. Past [`PC_PROFILE_CAPACITY`] distinct
/// PCs, further new PCs fold into the overflow counters (existing PCs
/// keep accumulating) so the bucket totals stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcProfile {
    entries: Vec<PcWait>,
    overflow_remote: u64,
    overflow_local: u64,
}

impl Default for PcProfile {
    fn default() -> Self {
        PcProfile {
            entries: Vec::with_capacity(PC_PROFILE_CAPACITY),
            overflow_remote: 0,
            overflow_local: 0,
        }
    }
}

impl PcProfile {
    /// Charges one wait cycle of `kind` to `pc`. Binary search plus an
    /// in-place insert below capacity; no allocation either way.
    #[inline]
    pub fn charge_pc(&mut self, pc: u64, kind: PcStallKind) {
        self.charge_pc_many(pc, kind, 1);
    }

    /// Charges `n` wait cycles of `kind` to `pc` at once — the batch
    /// form for skipped quiescent ranges. Must stay equivalent to `n`
    /// calls to [`PcProfile::charge_pc`] (including the overflow path).
    #[inline]
    pub fn charge_pc_many(&mut self, pc: u64, kind: PcStallKind, n: u64) {
        let i = match self.entries.binary_search_by_key(&pc, |e| e.pc) {
            Ok(i) => i,
            Err(i) => {
                // Compare against len, not spare capacity: a cloned
                // profile keeps no spare capacity but the same bound
                // must hold.
                if self.entries.len() >= PC_PROFILE_CAPACITY {
                    match kind {
                        PcStallKind::RemoteWait => self.overflow_remote += n,
                        PcStallKind::LocalWait => self.overflow_local += n,
                    }
                    return;
                }
                self.entries.insert(i, PcWait { pc, remote_wait: 0, local_wait: 0 });
                i
            }
        };
        match kind {
            PcStallKind::RemoteWait => self.entries[i].remote_wait += n,
            PcStallKind::LocalWait => self.entries[i].local_wait += n,
        }
    }

    /// The profiled PCs, sorted ascending by PC.
    pub fn entries(&self) -> &[PcWait] {
        &self.entries
    }

    /// `(remote, local)` wait cycles charged past capacity.
    pub fn overflow(&self) -> (u64, u64) {
        (self.overflow_remote, self.overflow_local)
    }
}

/// One charge: the stall bucket, plus the PC (and wait kind) the
/// memory-wait buckets attribute their cycles to.
pub type StallCharge = (StallBucket, Option<(u64, PcStallKind)>);

/// One node's cycle ledger: its [`CycleAccount`] and [`PcProfile`],
/// owned by whoever charges the node's cycles and fed only through
/// [`Probe::charge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleLedger {
    account: CycleAccount,
    pcs: PcProfile,
}

impl CycleLedger {
    /// The stall buckets charged so far.
    pub fn account(&self) -> &CycleAccount {
        &self.account
    }

    /// The per-PC memory-wait profile charged so far.
    pub fn pc_profile(&self) -> &PcProfile {
        &self.pcs
    }
}

impl Probe for CycleLedger {
    #[inline]
    fn charge(&mut self, (bucket, pc): StallCharge, n: u64) {
        if n == 0 {
            return;
        }
        if let Some((pc, kind)) = pc {
            self.pcs.charge_pc_many(pc, kind, n);
        }
        self.account.charge_many(bucket, n);
    }
}

/// One row of a top-N hot-PC table (merged across nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPc {
    pub pc: u64,
    pub remote_wait: u64,
    pub local_wait: u64,
}

impl HotPc {
    /// Combined wait cycles — the sort key of the hot-PC table.
    pub fn total(&self) -> u64 {
        self.remote_wait + self.local_wait
    }
}

/// Merges per-node profiles and returns the `n` PCs with the most
/// combined wait cycles, sorted by (total desc, pc asc) so the table
/// is deterministic.
pub fn top_hot_pcs<'a>(
    profiles: impl IntoIterator<Item = &'a PcProfile>,
    n: usize,
) -> Vec<HotPc> {
    let mut merged: Vec<HotPc> = Vec::new();
    for p in profiles {
        for e in p.entries() {
            match merged.binary_search_by_key(&e.pc, |h| h.pc) {
                Ok(i) => {
                    merged[i].remote_wait += e.remote_wait;
                    merged[i].local_wait += e.local_wait;
                }
                Err(i) => merged.insert(
                    i,
                    HotPc { pc: e.pc, remote_wait: e.remote_wait, local_wait: e.local_wait },
                ),
            }
        }
    }
    merged.sort_by(|a, b| b.total().cmp(&a.total()).then(a.pc.cmp(&b.pc)));
    merged.truncate(n);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut a = CycleAccount::default();
        a.charge(StallBucket::Committing);
        a.charge(StallBucket::Committing);
        a.charge(StallBucket::Idle);
        assert_eq!(a.get(StallBucket::Committing), 2);
        assert_eq!(a.get(StallBucket::Idle), 1);
        assert_eq!(a.total(), 3);
        assert!((a.share(StallBucket::Committing) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn charge_many_equals_repeated_charges() {
        let mut batched = CycleAccount::default();
        let mut looped = CycleAccount::default();
        batched.charge_many(StallBucket::BshrWaitRemote, 1000);
        for _ in 0..1000 {
            looped.charge(StallBucket::BshrWaitRemote);
        }
        assert_eq!(batched, looped);

        let mut pb = PcProfile::default();
        let mut pl = PcProfile::default();
        pb.charge_pc_many(0x40, PcStallKind::RemoteWait, 7);
        pb.charge_pc_many(0x80, PcStallKind::LocalWait, 3);
        for _ in 0..7 {
            pl.charge_pc(0x40, PcStallKind::RemoteWait);
        }
        for _ in 0..3 {
            pl.charge_pc(0x80, PcStallKind::LocalWait);
        }
        assert_eq!(pb, pl);
    }

    #[test]
    fn charge_pc_many_overflow_matches_repeated_charges() {
        let mut batched = PcProfile::default();
        let mut looped = PcProfile::default();
        for pc in 0..PC_PROFILE_CAPACITY as u64 {
            batched.charge_pc(pc * 4, PcStallKind::RemoteWait);
            looped.charge_pc(pc * 4, PcStallKind::RemoteWait);
        }
        batched.charge_pc_many(u64::MAX, PcStallKind::LocalWait, 9);
        for _ in 0..9 {
            looped.charge_pc(u64::MAX, PcStallKind::LocalWait);
        }
        assert_eq!(batched, looped);
        assert_eq!(batched.overflow(), (0, 9));
    }

    #[test]
    fn ledger_charges_bucket_and_pc_in_one_call() {
        let mut l = CycleLedger::default();
        l.charge((StallBucket::BshrWaitRemote, Some((0x40, PcStallKind::RemoteWait))), 5);
        l.charge((StallBucket::Committing, None), 3);
        l.charge((StallBucket::LocalMemWait, Some((0x80, PcStallKind::LocalWait))), 0);
        assert_eq!(l.account().get(StallBucket::BshrWaitRemote), 5);
        assert_eq!(l.account().total(), 8);
        let e = l.pc_profile().entries();
        assert_eq!(e.len(), 1, "a zero-cycle charge profiles no PC: {e:?}");
        assert_eq!((e[0].pc, e[0].remote_wait), (0x40, 5));
    }

    #[test]
    fn merge_sums_per_bucket() {
        let mut a = CycleAccount::default();
        a.charge(StallBucket::RuuFull);
        let mut b = CycleAccount::default();
        b.charge(StallBucket::RuuFull);
        b.charge(StallBucket::LsqFull);
        a.merge(&b);
        assert_eq!(a.get(StallBucket::RuuFull), 2);
        assert_eq!(a.get(StallBucket::LsqFull), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn labels_are_unique_and_cover_all() {
        let labels: Vec<&str> = StallBucket::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), BUCKET_COUNT);
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "duplicate label {l}");
        }
    }

    #[test]
    fn pc_profile_sorted_and_exact() {
        let mut p = PcProfile::default();
        p.charge_pc(0x40, PcStallKind::RemoteWait);
        p.charge_pc(0x10, PcStallKind::LocalWait);
        p.charge_pc(0x40, PcStallKind::RemoteWait);
        let e = p.entries();
        assert_eq!(e.len(), 2);
        assert_eq!((e[0].pc, e[0].local_wait), (0x10, 1));
        assert_eq!((e[1].pc, e[1].remote_wait), (0x40, 2));
        assert_eq!(p.overflow(), (0, 0));
    }

    #[test]
    fn pc_profile_overflow_preserves_totals() {
        let mut p = PcProfile::default();
        for pc in 0..PC_PROFILE_CAPACITY as u64 {
            p.charge_pc(pc * 4, PcStallKind::RemoteWait);
        }
        // New PC past capacity folds into overflow; existing PCs still
        // accumulate in place.
        p.charge_pc(u64::MAX, PcStallKind::LocalWait);
        p.charge_pc(0, PcStallKind::RemoteWait);
        assert_eq!(p.entries().len(), PC_PROFILE_CAPACITY);
        assert_eq!(p.overflow(), (0, 1));
        let charged: u64 = p
            .entries()
            .iter()
            .map(|e| e.remote_wait + e.local_wait)
            .sum::<u64>()
            + p.overflow().0
            + p.overflow().1;
        assert_eq!(charged, PC_PROFILE_CAPACITY as u64 + 2);
    }

    #[test]
    fn top_hot_pcs_merges_and_orders() {
        let mut a = PcProfile::default();
        let mut b = PcProfile::default();
        for _ in 0..3 {
            a.charge_pc(0x100, PcStallKind::RemoteWait);
        }
        b.charge_pc(0x100, PcStallKind::LocalWait);
        for _ in 0..4 {
            b.charge_pc(0x200, PcStallKind::LocalWait);
        }
        // Tie between 0x100 (3+1) and 0x200 (4): pc asc breaks it.
        let top = top_hot_pcs([&a, &b], 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].pc, 0x100);
        assert_eq!((top[0].remote_wait, top[0].local_wait), (3, 1));
        assert_eq!(top[1].pc, 0x200);
        let top1 = top_hot_pcs([&a, &b], 1);
        assert_eq!(top1.len(), 1);
    }
}
