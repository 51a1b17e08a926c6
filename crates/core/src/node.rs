//! One DataScalar node: out-of-order core + memory side.
//!
//! The memory side implements the ESP protocol with cache
//! correspondence:
//!
//! * the **canonical cache** is updated only at commit, so its contents
//!   are a pure function of the committed prefix — identical at every
//!   node (the correspondence invariant, asserted in tests);
//! * issue-time probes consult the (commit-lagged) canonical cache plus
//!   the DCUB's in-flight lines; a probe miss starts the episode's one
//!   fetch (local read + early broadcast at the owner, BSHR wait
//!   elsewhere);
//! * at commit, the canonical access is replayed; a **false hit** (no
//!   in-flight episode, yet a commit-order miss) triggers the repair:
//!   a late (reparative) broadcast at the owner, a BSHR squash at
//!   non-owners.
//!
//! The traditional comparator's CPU chip is the same node with one
//! difference, its [`Remote`] mode: a line it does not hold is
//! *requested* from the memory port instead of awaited as a broadcast,
//! and dirty or written-through data for it crosses the bus. A DS line
//! in degraded mode takes the same request path.

use crate::bshr::{Arrival, Bshr};
use crate::config::DsConfig;
use crate::cub::Dcub;
use crate::linemap::LineMap;
use crate::pending::PendingQueue;
use crate::stats::NodeStats;
use crate::Cycle;
use ds_cpu::{ExecRecord, LoadResponse, MemSystem, OooCore, RuuTag, TraceSource};
use ds_mem::{
    AccessKind, Cache, CacheOutcome, MainMemory, NodeId, PageClass, PageTable, Tlb, Victim,
};
use ds_net::{Message, MsgKind};
use ds_obs::{EventKind, Probe as _};
use std::sync::Arc;

/// The memory side's observability probe: the ds-obs recorder when the
/// `obs` feature is on, a zero-sized no-op otherwise. Call sites below
/// record unconditionally; without the feature each call monomorphises
/// against the ZST's empty inline default and compiles to nothing.
#[cfg(feature = "obs")]
pub(crate) type NodeProbe = ds_obs::Recorder;
/// The disabled probe (ZST).
#[cfg(not(feature = "obs"))]
pub(crate) type NodeProbe = ds_obs::NoopProbe;

/// The stall bucket one cycle is charged to, plus the PC to attribute
/// the wait to for the PC-profiled buckets.
#[cfg(feature = "obs")]
pub(crate) type StallCharge = (ds_obs::StallBucket, Option<(u64, ds_obs::PcStallKind)>);

/// The one `CoreStall → StallBucket` table all three system models
/// charge through. They differ only in how a remote-memory wait is
/// refined (`remote_wait` names its bucket); only the residual pure
/// `bshr-wait-remote` wait is attributed to the PC, so per-PC cycles
/// sum to that bucket exactly. Pure — no counters touched.
#[cfg(feature = "obs")]
pub(crate) fn stall_bucket(
    stall: ds_cpu::CoreStall,
    remote_wait: impl FnOnce() -> ds_obs::StallBucket,
) -> StallCharge {
    use ds_cpu::CoreStall;
    use ds_obs::{PcStallKind, StallBucket};
    match stall {
        CoreStall::Committing => (StallBucket::Committing, None),
        CoreStall::RemoteMemWait { pc } => {
            let bucket = remote_wait();
            let pure = bucket == StallBucket::BshrWaitRemote;
            (bucket, pure.then_some((pc, PcStallKind::RemoteWait)))
        }
        CoreStall::LocalMemWait { pc } => {
            (StallBucket::LocalMemWait, Some((pc, PcStallKind::LocalWait)))
        }
        CoreStall::RuuFull => (StallBucket::RuuFull, None),
        CoreStall::LsqFull => (StallBucket::LsqFull, None),
        CoreStall::SquashReplay => (StallBucket::SquashReplay, None),
        CoreStall::FetchStall => (StallBucket::FetchStall, None),
        CoreStall::Idle => (StallBucket::Idle, None),
    }
}

/// Charges `n` cycles to `bucket` (and its PC attribution) at once.
#[cfg(feature = "obs")]
pub(crate) fn charge_block(probe: &mut NodeProbe, (bucket, pc): StallCharge, n: u64) {
    if n == 0 {
        return;
    }
    if let Some((pc, kind)) = pc {
        probe.charge_pc_many(pc, kind, n);
    }
    probe.charge_many(bucket, n);
}

/// The [`ds_obs::MetricsReport`] of `nodes` after `cycles` simulated
/// cycles: every node's memory-side and core event rings, cycle ledger,
/// per-PC profile, critical path and timeline. `None` unless built with
/// `obs`.
#[cfg(feature = "obs")]
pub(crate) fn nodes_metrics(nodes: &[Node], cycles: Cycle) -> Option<ds_obs::MetricsReport> {
    let mut m = ds_obs::MetricsReport::default();
    for (i, n) in nodes.iter().enumerate() {
        m.absorb(n.events());
        m.absorb(n.core_events());
        let acct = *n.cycle_account();
        // The tentpole invariant: every simulated cycle was charged to
        // exactly one bucket.
        #[cfg(any(debug_assertions, feature = "audit"))]
        assert_eq!(acct.total(), cycles, "node {i} stall buckets must sum to total cycles");
        let _ = (i, cycles);
        m.node_accounts.push(acct);
    }
    m.hot_pcs = ds_obs::top_hot_pcs(nodes.iter().map(|n| n.pc_profile()), 16);
    for n in nodes {
        m.critpath.nodes.push(n.crit_window().path_report());
    }
    m.timeline = timeline_report(nodes);
    Some(m)
}

/// Uninstrumented builds carry no metrics.
#[cfg(not(feature = "obs"))]
pub(crate) fn nodes_metrics(_nodes: &[Node], _cycles: Cycle) -> Option<ds_obs::MetricsReport> {
    None
}

/// Every node's interval timeline, phases segmented.
#[cfg(feature = "obs")]
pub(crate) fn timeline_report(nodes: &[Node]) -> ds_obs::TimelineReport {
    let mut t = ds_obs::TimelineReport::default();
    for n in nodes {
        t.nodes.push(n.timeline().report());
    }
    t
}

/// Serves the point-to-point read `req` the way a memory chip does: the
/// line is read from `mem` at `now`, and its `Response` — one line,
/// from the request's destination back to its source, under the
/// request's sequence number — becomes ready `queue_penalty` cycles
/// after the data. The traditional system's off-chip memory and a
/// degraded-mode owner both answer requests through here.
pub(crate) fn serve_request(
    mem: &mut MainMemory,
    req: &Message,
    line_bytes: u64,
    queue_penalty: u64,
    now: Cycle,
    out: &mut PendingQueue,
) {
    let Some(server) = req.dest else {
        debug_assert!(false, "a request is always point-to-point");
        return;
    };
    let ready = mem.access(req.line_addr, line_bytes, now) + queue_penalty;
    out.push(
        ready,
        Message {
            src: server,
            dest: Some(req.src),
            kind: MsgKind::Response,
            line_addr: req.line_addr,
            payload_bytes: line_bytes,
            seq: req.seq,
            enqueued_at: ready,
        },
    );
}

/// How a memory side obtains a line another node owns. Fixed at
/// construction; the one thing that differs between a DataScalar node
/// and the traditional machine's CPU chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Remote {
    /// ESP: wait in the BSHR for the owner's broadcast, and drop writes
    /// to the line (the owner makes them itself). Only a degraded line
    /// is requested from its owner.
    Broadcast,
    /// Request the line from the memory behind port `server`, and write
    /// dirty victims and write-through stores back to it. A response is
    /// usable `fill_cycles` after it lands.
    Request { server: NodeId, fill_cycles: Cycle },
}

/// The per-line broadcast sequence numbers of one memory side (the
/// paper's supplementary tags), found through the page table's dense
/// page ordinal: each declared page gets one counter per line,
/// allocated at the page's first broadcast, so a tag costs O(1) however
/// many lines the node has broadcast. Lines on undeclared pages (no
/// workload has any) count in a `LineMap`.
///
/// The counters are `u64`, the width of `Message::seq`. `u32` would
/// halve the blocks, but with 512-byte blocks every rep of the ledger's
/// `li.ds2.bus` ended on a trimmed heap and `setup_s` doubled
/// (DESIGN.md §8, "Per-line broadcast tags").
#[derive(Debug)]
struct BroadcastTags {
    /// Counter blocks by page ordinal; an empty block is a page that
    /// has not broadcast yet. Sized at the first broadcast.
    pages: Vec<Vec<u64>>,
    undeclared: LineMap<u64>,
    line_shift: u32,
    lines_per_page: usize,
}

impl BroadcastTags {
    /// An empty table for lines of `line_bytes` on `pt`'s pages.
    /// Allocates nothing (DESIGN.md §12: `Node::new`'s allocation
    /// order is part of the ledger's `setup_s`).
    fn new(pt: &PageTable, line_bytes: u64) -> Self {
        BroadcastTags {
            pages: Vec::new(),
            undeclared: LineMap::new(),
            line_shift: line_bytes.trailing_zeros(),
            lines_per_page: (pt.page_size() / line_bytes).max(1) as usize,
        }
    }

    /// `line`'s next tag: how many broadcasts of it came before.
    #[inline]
    fn next(&mut self, pt: &PageTable, line: u64) -> u64 {
        let counter = match pt.ordinal(line) {
            Some(page) => {
                if self.pages.get(page).is_none_or(Vec::is_empty) {
                    self.first_touch(page, pt.declared_pages());
                }
                let slot = ((line & (pt.page_size() - 1)) >> self.line_shift) as usize;
                &mut self.pages[page][slot]
            }
            None => self.undeclared.get_mut_or_default(line),
        };
        *counter += 1;
        *counter - 1
    }

    /// Allocates `page`'s counter block (and, at the first broadcast of
    /// the run, the page index itself).
    #[cold]
    fn first_touch(&mut self, page: usize, declared_pages: usize) {
        if self.pages.is_empty() {
            self.pages.resize_with(declared_pages, Default::default);
        }
        // ds-lint: allow(a1) first-touch block allocation: one counter block per broadcasting page for the whole run, amortized to zero on the steady-state cycle path
        self.pages[page] = vec![0; self.lines_per_page];
    }

    /// Counter blocks allocated so far.
    #[cfg(test)]
    fn blocks(&self) -> usize {
        self.pages.iter().filter(|b| !b.is_empty()).count()
    }
}

/// The memory side of a node (everything in Figure 5 except the CPU
/// logic).
#[derive(Debug)]
pub(crate) struct MemSide {
    id: NodeId,
    remote: Remote,
    pt: Arc<PageTable>,
    canon: Cache,
    icache: Cache,
    mem: MainMemory,
    dcub: Dcub,
    bshr: Bshr,
    /// Optional data TLB; misses charge a local page-table walk.
    dtlb: Option<Tlb>,
    tlb_walk_cycles: u64,
    pub(crate) line_bytes: u64,
    pub(crate) queue_penalty: u64,
    /// Cycle the latest request for each line entered the output queue:
    /// the near end of the round trip its fill is stamped with.
    req_sent: LineMap<Cycle>,
    /// Messages awaiting their data-ready cycle before entering the bus
    /// queue.
    outgoing: PendingQueue,
    /// Per-line broadcast sequence numbers (the paper's supplementary
    /// tags).
    tags: BroadcastTags,
    /// Sequence number of the next point-to-point message.
    p2p_seq: u64,
    stats: NodeStats,
    /// Cycle-stamped protocol events (no-op unless built with `obs`).
    probe: NodeProbe,
    /// Commit-time correspondence auditor (observational only).
    #[cfg(feature = "audit")]
    pub(crate) audit: crate::audit::NodeAudit,
}

impl MemSide {
    fn new(id: NodeId, pt: Arc<PageTable>, config: &DsConfig, remote: Remote) -> Self {
        let access = match remote {
            Remote::Broadcast => config.bshr_access_cycles,
            Remote::Request { fill_cycles, .. } => fill_cycles,
        };
        let mut bshr = Bshr::new(config.bshr_entries, access);
        bshr.configure_timeout(config.bshr_timeout_cycles, config.bshr_retry_budget);
        let tags = BroadcastTags::new(&pt, config.dcache.line_bytes);
        MemSide {
            id,
            remote,
            pt,
            canon: Cache::new(config.dcache),
            icache: Cache::new(config.icache),
            mem: MainMemory::new(config.memory),
            dcub: Dcub::new(),
            bshr,
            dtlb: config.tlb.map(Tlb::new),
            tlb_walk_cycles: config.tlb_walk_cycles,
            line_bytes: config.dcache.line_bytes,
            queue_penalty: config.queue_penalty,
            req_sent: LineMap::new(),
            outgoing: PendingQueue::new(),
            tags,
            p2p_seq: 0,
            stats: NodeStats::default(),
            probe: NodeProbe::default(),
            #[cfg(feature = "audit")]
            audit: crate::audit::NodeAudit::default(),
        }
    }

    /// Hands the auditor one commit-order cache transition.
    #[cfg(feature = "audit")]
    fn audit_commit(
        &mut self,
        icount: u64,
        line: u64,
        store: bool,
        outcome: crate::audit::CommitOutcome,
        victim: Option<u64>,
    ) {
        self.audit.record(crate::audit::CommitEvent { icount, line, store, outcome, victim });
    }

    fn push_broadcast(&mut self, line: u64, ready: Cycle) {
        if self.remote != Remote::Broadcast || self.pt.nodes() == 1 {
            // Nobody listens: a request-mode side's peers ask for what
            // they need, and a single-node machine has no peers.
            return;
        }
        let msg = Message {
            src: self.id,
            dest: None,
            kind: MsgKind::Broadcast,
            line_addr: line,
            payload_bytes: self.line_bytes,
            seq: self.tags.next(&self.pt, line),
            enqueued_at: ready,
        };
        self.stats.broadcasts_sent += 1;
        self.probe.record(ready, EventKind::BroadcastSend { line });
        self.outgoing.push(ready, msg);
    }

    /// Queues a point-to-point `kind` message for `line` to `dest`,
    /// ready after the queue penalty. A `Request` is address-only and
    /// records its send cycle, so the fill it brings back is stamped
    /// with the whole round trip (request out, memory, response back).
    fn send(&mut self, kind: MsgKind, line: u64, payload: u64, dest: NodeId, now: Cycle) {
        let ready = now + self.queue_penalty;
        self.outgoing.push(
            ready,
            Message {
                src: self.id,
                dest: Some(dest),
                kind,
                line_addr: line,
                payload_bytes: payload,
                seq: self.p2p_seq,
                enqueued_at: ready,
            },
        );
        self.p2p_seq += 1;
        if kind == MsgKind::Request {
            self.req_sent.insert(line, ready);
        }
    }

    fn handle_victim(&mut self, victim: Option<Victim>, now: Cycle) {
        let Some(v) = victim else { return };
        if !v.dirty {
            return;
        }
        if self.pt.is_local(v.line_addr, self.id) {
            // Write-back completes in local memory (fire-and-forget:
            // it occupies a bank but blocks nothing).
            self.mem.access(v.line_addr, self.line_bytes, now);
            self.stats.writebacks_local += 1;
        } else if let Remote::Request { server, .. } = self.remote {
            self.send(MsgKind::WriteBack, v.line_addr, self.line_bytes, server, now);
        } else {
            // ESP: another node owns the line and generates the same
            // value locally; the write-back is dropped (§3.1).
            self.stats.writes_dropped += 1;
        }
    }

    /// Repairs a commit-time miss that had no in-flight episode: a
    /// broadcast at the owner, a squash at non-owners — or, on a
    /// request-mode side, a local read or a fire-and-forget request
    /// that pays the traffic without blocking the completed load.
    /// `reparative` is true for load false hits (counted as Table 3's
    /// late broadcasts) and false for write-allocate store fills, which
    /// are ordinary episode fills that merely happen at commit.
    fn fill_repair(&mut self, line: u64, now: Cycle, reparative: bool) {
        if reparative {
            self.probe.record(now, EventKind::FalseHitRepair { line });
        }
        match self.pt.classify(line) {
            PageClass::Replicated => {
                self.mem.access(line, self.line_bytes, now);
            }
            PageClass::Owned(o) if o == self.id => {
                self.mem.access(line, self.line_bytes, now);
                if reparative && self.remote == Remote::Broadcast {
                    self.stats.late_broadcasts += 1;
                }
                self.push_broadcast(line, now + self.queue_penalty);
            }
            PageClass::Owned(_) => match self.remote {
                Remote::Broadcast => self.bshr.post_squash(line),
                Remote::Request { server, .. } => self.send(MsgKind::Request, line, 0, server, now),
            },
        }
    }

    /// Records a DCUB insertion (occupancy sampled after the push).
    fn record_dcub_push(&mut self, line: u64, now: Cycle) {
        self.probe
            .record(now, EventKind::DcubPush { line, occ: self.dcub.occupancy() as u32 });
    }

    /// Records a DCUB removal (occupancy sampled after the drain).
    fn record_dcub_drain(&mut self, line: u64, now: Cycle) {
        self.probe
            .record(now, EventKind::DcubDrain { line, occ: self.dcub.occupancy() as u32 });
    }
}

impl MemSystem for MemSide {
    fn load_issued(&mut self, rec: &ExecRecord, now: Cycle, tag: RuuTag) -> (LoadResponse, bool) {
        let addr = rec.mem_addr;
        let line = self.canon.line_addr(addr);
        self.stats.loads_issued += 1;
        // Address translation: a D-TLB miss pays a local page-table
        // walk before the cache can even be indexed.
        let now = match &mut self.dtlb {
            Some(tlb) => ds_mem::translate(tlb, addr, now, self.tlb_walk_cycles),
            None => now,
        };
        // 1. Merge with an in-flight episode (false-miss normalisation).
        if let Some(e) = self.dcub.get(line) {
            return match e.ready_at {
                Some(r) => (LoadResponse::Ready(r.max(now + 1)), false),
                None => {
                    self.bshr.join_wait(line, tag);
                    (LoadResponse::Pending, false)
                }
            };
        }
        // 2. Commit-lagged canonical cache (LRU untouched at issue).
        if self.canon.probe(addr) {
            self.stats.issue_hits += 1;
            return (LoadResponse::Ready(now + 1), true);
        }
        // 3. Start the episode's one fetch.
        match self.pt.classify(addr) {
            PageClass::Replicated => {
                self.stats.local_misses += 1;
                let done = self.mem.access(line, self.line_bytes, now);
                self.dcub.insert(line, Some(done), false);
                self.record_dcub_push(line, now);
                (LoadResponse::Ready(done), false)
            }
            PageClass::Owned(o) if o == self.id => {
                self.stats.local_misses += 1;
                let done = self.mem.access(line, self.line_bytes, now);
                self.push_broadcast(line, done + self.queue_penalty);
                self.dcub.insert(line, Some(done), true);
                self.record_dcub_push(line, now);
                (LoadResponse::Ready(done), false)
            }
            PageClass::Owned(owner) => {
                self.stats.remote_accesses += 1;
                if let Remote::Request { server, .. } = self.remote {
                    // Nothing is broadcast to a request-mode side: ask,
                    // then wait. (In this order the traditional machine
                    // keeps its heap-operation sequence, DESIGN.md §12.)
                    self.send(MsgKind::Request, line, 0, server, now);
                    self.dcub.insert(line, None, false);
                    self.record_dcub_push(line, now);
                    self.bshr.request(line, tag, now);
                    let occ = self.bshr.occupancy() as u32;
                    self.probe.record(now, EventKind::BshrAllocate { line, occ });
                    return (LoadResponse::Pending, false);
                }
                match self.bshr.request(line, tag, now) {
                    Some(ready) => {
                        self.probe.record(
                            now,
                            EventKind::BshrFoundBuffered {
                                line,
                                occ: self.bshr.occupancy() as u32,
                            },
                        );
                        self.dcub.insert(line, Some(ready), false);
                        self.record_dcub_push(line, now);
                        (LoadResponse::Ready(ready), false)
                    }
                    None => {
                        self.probe.record(
                            now,
                            EventKind::BshrAllocate { line, occ: self.bshr.occupancy() as u32 },
                        );
                        // A degraded line no longer trusts the owner's
                        // broadcast: ask for the data explicitly, as a
                        // traditional machine would.
                        if self.bshr.is_degraded(line) {
                            self.stats.degraded_requests += 1;
                            self.send(MsgKind::Request, line, 0, owner, now);
                        }
                        self.dcub.insert(line, None, false);
                        self.record_dcub_push(line, now);
                        (LoadResponse::Pending, false)
                    }
                }
            }
        }
    }

    fn mem_committed(&mut self, rec: &ExecRecord, issue_hit: Option<bool>, now: Cycle) {
        let addr = rec.mem_addr;
        let line = self.canon.line_addr(addr);
        if rec.is_store() {
            match self.canon.access(addr, AccessKind::Write) {
                CacheOutcome::Hit => {
                    #[cfg(feature = "audit")]
                    self.audit_commit(rec.icount, line, true, crate::audit::CommitOutcome::Hit, None);
                }
                CacheOutcome::Miss { allocated: false, .. } => {
                    #[cfg(feature = "audit")]
                    self.audit_commit(
                        rec.icount,
                        line,
                        true,
                        crate::audit::CommitOutcome::MissBypassed,
                        None,
                    );
                    // Write-no-allocate: the store writes through to the
                    // owner's memory and is dropped everywhere else —
                    // created values never cross the interconnect (§3.1)
                    // unless the side requests its remote lines.
                    if self.pt.is_local(addr, self.id) {
                        self.mem.access(addr, rec.mem_bytes, now);
                        self.stats.writethroughs_local += 1;
                    } else if let Remote::Request { server, .. } = self.remote {
                        self.send(MsgKind::WriteThrough, line, rec.mem_bytes, server, now);
                    } else {
                        self.stats.writes_dropped += 1;
                    }
                }
                CacheOutcome::Miss { allocated: true, victim } => {
                    // Write-allocate configurations: the fill behaves
                    // like a repaired miss.
                    #[cfg(feature = "audit")]
                    self.audit_commit(
                        rec.icount,
                        line,
                        true,
                        crate::audit::CommitOutcome::MissAllocated,
                        victim.as_ref().map(|v| v.line_addr),
                    );
                    self.handle_victim(victim, now);
                    if self.dcub.remove(line).is_none() {
                        self.fill_repair(line, now, false);
                    } else {
                        self.record_dcub_drain(line, now);
                    }
                }
            }
            self.stats.stores_committed += 1;
            self.stats.dcub_max = self.stats.dcub_max.max(self.dcub.max_occupancy());
            return;
        }
        // Load: replay in commit order against the canonical cache.
        match self.canon.access(addr, AccessKind::Read) {
            CacheOutcome::Hit => {
                #[cfg(feature = "audit")]
                self.audit_commit(rec.icount, line, false, crate::audit::CommitOutcome::Hit, None);
                if issue_hit == Some(false) {
                    // Miss at issue, hit in commit order: a false miss,
                    // already normalised by the DCUB merge.
                    self.stats.false_misses += 1;
                }
            }
            CacheOutcome::Miss { victim, .. } => {
                #[cfg(feature = "audit")]
                self.audit_commit(
                    rec.icount,
                    line,
                    false,
                    crate::audit::CommitOutcome::MissAllocated,
                    victim.as_ref().map(|v| v.line_addr),
                );
                self.handle_victim(victim, now);
                if self.dcub.remove(line).is_some() {
                    // Normal episode install: the issue-time fetch (and
                    // any broadcast/wait) pairs with this canonical miss.
                    self.record_dcub_drain(line, now);
                } else {
                    // Hit at issue, miss in commit order: false hit.
                    if issue_hit == Some(true) {
                        self.stats.false_hits += 1;
                    }
                    self.fill_repair(line, now, true);
                }
            }
        }
        self.stats.dcub_max = self.stats.dcub_max.max(self.dcub.max_occupancy());
    }

    fn fetch_line(&mut self, pc: u64, now: Cycle) -> Cycle {
        // Text is replicated at every node (§4.2), so instruction
        // fetches always complete locally. The traditional machine gets
        // the same benefit, keeping the comparison about data.
        let line = self.icache.line_addr(pc);
        match self.icache.access(pc, AccessKind::Read) {
            CacheOutcome::Hit => now,
            CacheOutcome::Miss { .. } => self.mem.access(line, self.line_bytes, now),
        }
    }
}

/// One node (CPU + memory side of Figure 5): a DataScalar node, or the
/// traditional machine's CPU chip.
#[derive(Debug)]
pub struct Node {
    pub(crate) core: OooCore,
    pub(crate) ms: MemSide,
    /// Chaos tick stalls scheduled for this node, as half-open
    /// `[start, end)` cycle windows sorted by start. Empty (the common
    /// case) costs one slice-length check per cycle.
    stalls: Vec<(Cycle, Cycle)>,
    /// Interval time-series telemetry: counter deltas closed at every
    /// [`SAMPLE_INTERVAL`] boundary. Also feeds the Perfetto stall
    /// counter track.
    #[cfg(feature = "obs")]
    timeline: ds_obs::IntervalRing,
}

/// Cycles between timeline interval boundaries.
#[cfg(feature = "obs")]
use ds_obs::SAMPLE_INTERVAL;

impl Node {
    pub(crate) fn new(id: NodeId, pt: Arc<PageTable>, config: &DsConfig, remote: Remote) -> Self {
        let mut stalls: Vec<(Cycle, Cycle)> = config
            .fault_plan
            .stalls
            .iter()
            .filter(|s| s.node == id)
            .map(|s| (s.at, s.at.saturating_add(s.cycles)))
            .collect();
        stalls.sort_unstable();
        Node {
            core: OooCore::new(config.core, config.icache.line_bytes),
            ms: MemSide::new(id, pt, config, remote),
            stalls,
            #[cfg(feature = "obs")]
            timeline: ds_obs::IntervalRing::default(),
        }
    }

    /// `Some(end)` when a chaos stall covers cycle `now` — the node's
    /// tick is suppressed until `end`. Hot path: the schedule is empty
    /// in fault-free runs, so this is one length check.
    #[inline]
    pub(crate) fn stalled_until(&self, now: Cycle) -> Option<Cycle> {
        self.stalls
            .iter()
            .find(|&&(start, end)| start <= now && now < end)
            .map(|&(_, end)| end)
    }

    /// Advances the node one cycle. A chaos-stalled cycle suppresses
    /// the tick entirely (the cycle is still charged by the caller).
    pub(crate) fn step(&mut self, trace: &mut TraceSource, now: Cycle) -> Result<(), ds_cpu::ExecError> {
        if !self.stalls.is_empty() && self.stalled_until(now).is_some() {
            return Ok(());
        }
        self.core.step(&mut self.ms, trace, now)
    }

    /// Earliest future cycle at which this node's state can change: the
    /// core's own horizon, the first cycle a queued broadcast becomes
    /// bus-ready, the nearest BSHR retransmit deadline, and the nearest
    /// chaos-stall boundary (start or release — an event horizon must
    /// never skip past either edge). Conservative (never later than the
    /// true next change), so skipping to the system-wide minimum is
    /// always safe.
    pub(crate) fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = self.core.next_event(now);
        if let Some(ready) = self.ms.outgoing.next_ready() {
            horizon = horizon.min(ready.max(now + 1));
        }
        if let Some(deadline) = self.ms.bshr.next_timeout() {
            horizon = horizon.min(deadline.max(now + 1));
        }
        for &(start, end) in &self.stalls {
            if start > now {
                horizon = horizon.min(start);
                break;
            }
            if end > now {
                horizon = horizon.min(end);
            }
        }
        horizon
    }

    /// Batch-advances the node from cycle `now` to `target`, applying
    /// exactly the side effects the naive loop's idle iterations over
    /// `(now, target)` would have (stall counters; nothing else — the
    /// skipped range is quiescent by construction).
    pub(crate) fn advance_to(&mut self, now: Cycle, target: Cycle) {
        if self.stalls.is_empty() {
            self.core.advance_to(now, target);
            return;
        }
        // The naive loop suppresses the core tick inside chaos-stall
        // windows (`step` returns before `core.step`), so the batch
        // bookkeeping must leave those sub-ranges uncharged too.
        let mut from = now + 1;
        for &(start, end) in &self.stalls {
            if end <= from {
                continue;
            }
            if start >= target {
                break;
            }
            let chunk_end = start.min(target).max(from);
            if chunk_end > from {
                self.core.advance_to(from - 1, chunk_end);
            }
            from = from.max(end);
            if from >= target {
                return;
            }
        }
        if target > from {
            self.core.advance_to(from - 1, target);
        }
    }

    /// Removes and returns the next message whose data is ready by
    /// `now` (in `(ready, seq)` order), or `None` when drained.
    pub(crate) fn next_outgoing(&mut self, now: Cycle) -> Option<Message> {
        self.ms.outgoing.pop_due(now)
    }

    /// A message arrived from the interconnect: an ESP broadcast in the
    /// fault-free protocol, the response to a request-mode side's
    /// request, or one of the ds-chaos hardening kinds (retransmit
    /// requests, degraded-mode requests and responses).
    pub(crate) fn deliver(&mut self, msg: &Message, now: Cycle) {
        let line = msg.line_addr;
        match msg.kind {
            MsgKind::Broadcast => {
                self.ms.probe.record(
                    now,
                    EventKind::BroadcastArrive {
                        line,
                        latency: now.saturating_sub(msg.enqueued_at),
                    },
                );
                match self.ms.bshr.on_arrival(line, now) {
                    Arrival::Completed(waiters) => {
                        self.ms.probe.record(
                            now,
                            EventKind::BshrFill {
                                line,
                                waiters: waiters.len() as u32,
                                occ: self.ms.bshr.occupancy() as u32,
                            },
                        );
                        if let Some(&(_, ready)) = waiters.first() {
                            self.ms.dcub.mark_ready(line, ready);
                        }
                        for (tag, ready) in waiters {
                            // `enqueued_at` is the owner's send-queue
                            // cycle: tagging the fill with it lets the
                            // critical-path walk measure the broadcast
                            // end-to-end.
                            self.core.complete_load_from(tag, ready, line, msg.enqueued_at);
                        }
                    }
                    Arrival::Squashed => {
                        self.ms.probe.record(
                            now,
                            EventKind::BshrSquash { line, occ: self.ms.bshr.occupancy() as u32 },
                        );
                    }
                    Arrival::Buffered => {}
                }
            }
            MsgKind::RetransmitReq => {
                // Only the line's owner can repair a lost broadcast;
                // everyone else hears the request and ignores it (their
                // own wait, if any, is answered by the re-broadcast).
                if self.ms.pt.classify(line) == PageClass::Owned(self.ms.id) {
                    let done = self.ms.mem.access(line, self.ms.line_bytes, now);
                    self.ms.stats.retransmit_rebroadcasts += 1;
                    self.ms.probe.record(now, EventKind::RetransmitRebroadcast { line });
                    self.ms.push_broadcast(line, done + self.ms.queue_penalty);
                }
            }
            MsgKind::Request => {
                // Degraded-mode direct request: serve it like a
                // traditional memory, point-to-point.
                debug_assert_eq!(self.ms.pt.classify(line), PageClass::Owned(self.ms.id));
                self.ms.stats.degraded_responses += 1;
                let ms = &mut self.ms;
                serve_request(&mut ms.mem, msg, ms.line_bytes, ms.queue_penalty, now, &mut ms.outgoing);
            }
            MsgKind::Response => {
                // The answer to a request (every remote line of a
                // request-mode side, a degraded line here). The first
                // response for a line fills its wait; a duplicate (the
                // original broadcast raced the retransmit path, or a
                // repair's fire-and-forget request) finds none and is
                // dropped. Fills are stamped with the request's send
                // cycle, so the critical path sees the round trip.
                let sent = self.ms.req_sent.remove(line);
                if let Some((waiters, ready)) = self.ms.bshr.fill_direct(line, now) {
                    self.ms.probe.record(
                        now,
                        EventKind::BshrFill {
                            line,
                            waiters: waiters.len() as u32,
                            occ: self.ms.bshr.occupancy() as u32,
                        },
                    );
                    self.ms.dcub.mark_ready(line, ready);
                    for tag in waiters {
                        match sent {
                            Some(s) => self.core.complete_load_from(tag, ready, line, s),
                            None => self.core.complete_load(tag, ready),
                        }
                    }
                }
            }
            MsgKind::WriteBack | MsgKind::WriteThrough => {
                debug_assert!(false, "a write for the memory port reached a node");
            }
        }
    }

    /// Drains expired BSHR waits into the escalation ladder: timeout →
    /// retransmit request (broadcast), budget exhausted → per-line
    /// degradation to direct request–response. Called once per cycle by
    /// the system loop, and only when a timeout is configured — the
    /// fault-free hot path never enters. The drain order (lowest line
    /// first) is deterministic.
    pub(crate) fn poll_faults(&mut self, now: Cycle) {
        while let Some(e) = self.ms.bshr.take_expired(now) {
            let PageClass::Owned(owner) = self.ms.pt.classify(e.line) else {
                debug_assert!(false, "BSHR wait on a non-remote line");
                continue;
            };
            debug_assert_ne!(owner, self.ms.id);
            if e.newly_degraded {
                self.ms.probe.record(now, EventKind::LineDegraded { line: e.line });
            }
            if e.degraded {
                self.ms.stats.degraded_requests += 1;
                self.ms.send(MsgKind::Request, e.line, 0, owner, now);
            } else {
                self.ms.stats.retransmit_requests += 1;
                self.ms.probe.record(
                    now,
                    EventKind::RetransmitRequest { line: e.line, retry: e.retries },
                );
                let ready = now + self.ms.queue_penalty;
                self.ms.outgoing.push(
                    ready,
                    Message {
                        src: self.ms.id,
                        dest: None,
                        kind: MsgKind::RetransmitReq,
                        line_addr: e.line,
                        payload_bytes: 0,
                        seq: 0,
                        enqueued_at: ready,
                    },
                );
            }
        }
    }

    /// Assembles this node's slice of a [`crate::watchdog::DeadlockReport`].
    /// Cold path — only runs when the watchdog has already tripped.
    pub(crate) fn deadlock_state(&self, now: Cycle) -> crate::watchdog::NodeDeadlockState {
        crate::watchdog::NodeDeadlockState {
            node: self.ms.id,
            committed: self.core.committed(),
            oldest: self.core.oldest_entry(),
            bshr_waits: self.ms.bshr.wait_lines(),
            bshr_buffered: self.ms.bshr.buffered_lines(),
            pending_squashes: self.ms.bshr.squash_lines(),
            degraded_lines: self.ms.bshr.degraded_lines(),
            stalled_until: self.stalled_until(now),
        }
    }

    /// True once the node has committed the whole program.
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Instructions committed.
    pub fn committed(&self) -> u64 {
        self.core.committed()
    }

    /// True when no message is waiting for its data-ready cycle.
    pub(crate) fn outgoing_is_empty(&self) -> bool {
        self.ms.outgoing.is_empty()
    }

    /// The memory side's recorded protocol events (instrumented builds
    /// only).
    #[cfg(feature = "obs")]
    pub fn events(&self) -> &ds_obs::EventRing {
        self.ms.probe.ring()
    }

    /// The core's recorded commit events (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn core_events(&self) -> &ds_obs::EventRing {
        self.core.events()
    }

    /// The core's critical-path window of retired-instruction graph
    /// nodes (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn crit_window(&self) -> &ds_obs::CritWindow {
        self.core.crit_window()
    }

    /// Classifies the node's stall state at `now`. Pure (no counters
    /// touched), so the per-cycle and batch charge paths share one
    /// classification.
    #[cfg(feature = "obs")]
    fn classify_stall(&self, now: Cycle, bus_busy: bool) -> StallCharge {
        use ds_obs::StallBucket;
        stall_bucket(self.core.stall_class(now), || {
            // Refine the remote wait: a pending squash means a
            // false-hit repair is in flight (commit-repair); a wait
            // past its first timeout belongs to fault recovery
            // (retransmit or degraded-mode request), not the healthy
            // broadcast path; a busy bus means the wait is contention,
            // not pure broadcast latency.
            if self.ms.bshr.has_pending_squashes() {
                StallBucket::CommitRepair
            } else if self.ms.bshr.has_retrying_waits() {
                StallBucket::RetryWait
            } else if bus_busy {
                StallBucket::BusContentionWait
            } else {
                StallBucket::BshrWaitRemote
            }
        })
    }

    /// Charges `now` to exactly one stall bucket (top-down cycle
    /// accounting). Called once per simulated cycle by the machine's
    /// `step_cycle`, after the node stepped; `bus_busy` is whether the
    /// interconnect was occupied this cycle. Hot path: one
    /// classification, one array increment, no allocation.
    #[cfg(feature = "obs")]
    pub(crate) fn charge_cycle(&mut self, now: Cycle, bus_busy: bool) {
        if now.is_multiple_of(SAMPLE_INTERVAL) {
            // Close *before* charging: the interval ending at cycle C
            // covers charges for cycles [.., C). Cycle C's charge and
            // occupancy belong to the new interval; the cumulative
            // counters are read after this cycle's step.
            self.timeline.sample_close(
                now,
                self.core.committed(),
                self.ms.stats.broadcasts_sent,
                self.ms.bshr.stats().arrivals,
                self.ms.probe.account(),
            );
        }
        self.timeline.note_occ(self.ms.bshr.occupancy() as u64);
        let charge = self.classify_stall(now, bus_busy);
        charge_block(&mut self.ms.probe, charge, 1);
    }

    /// Charges the `count` cycles `[start, start + count)` skipped by an
    /// event-horizon advance, exactly as `count` per-cycle
    /// [`Node::charge_cycle`] calls would have. A skipped range is
    /// quiescent by construction — the commit head, BSHR and fetch
    /// stall all hold still, and the interconnect skipped too — so one
    /// classification at `start` covers the whole range; interval
    /// boundaries inside the range are honoured one by one.
    #[cfg(feature = "obs")]
    pub(crate) fn charge_skipped(&mut self, start: Cycle, count: u64, bus_busy: bool) {
        #[cfg(any(debug_assertions, feature = "audit"))]
        let before = *self.ms.probe.account();
        let charge = self.classify_stall(start, bus_busy);
        // A skipped range is quiescent: every counter the timeline
        // samples (commits, sends, arrivals, BSHR occupancy) is frozen
        // at its value after the last real step, which is exactly what
        // the naive loop would read at each boundary inside the range.
        let committed = self.core.committed();
        let sends = self.ms.stats.broadcasts_sent;
        let arrives = self.ms.bshr.stats().arrivals;
        let occ = self.ms.bshr.occupancy() as u64;
        let end = start + count;
        let mut from = start;
        let mut boundary = start.next_multiple_of(SAMPLE_INTERVAL);
        while boundary < end {
            // The naive loop closes the interval at each SAMPLE_INTERVAL
            // multiple *before* charging that cycle: charge up to the
            // boundary, close, continue. The per-cycle loop would also
            // have noted the (frozen) occupancy once per skipped cycle
            // — once per sub-interval reaches the same high-water mark.
            if boundary > from {
                self.timeline.note_occ(occ);
                self.timeline.note_skipped(boundary - from);
            }
            charge_block(&mut self.ms.probe, charge, boundary - from);
            self.timeline.sample_close(boundary, committed, sends, arrives, self.ms.probe.account());
            from = boundary;
            boundary += SAMPLE_INTERVAL;
        }
        if end > from {
            self.timeline.note_occ(occ);
            self.timeline.note_skipped(end - from);
        }
        charge_block(&mut self.ms.probe, charge, end - from);
        // Skip/charge parity: a horizon advance of `count` cycles must
        // charge exactly `count` cycles, all into the one bucket the
        // quiescent range classifies to.
        #[cfg(any(debug_assertions, feature = "audit"))]
        {
            let after = self.ms.probe.account();
            assert_eq!(
                after.total() - before.total(),
                count,
                "horizon skip charged a different number of cycles than it advanced"
            );
            assert_eq!(
                after.get(charge.0) - before.get(charge.0),
                count,
                "horizon skip leaked cycles outside its stall bucket"
            );
        }
    }

    /// This node's cycle ledger (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn cycle_account(&self) -> &ds_obs::CycleAccount {
        self.ms.probe.account()
    }

    /// This node's per-PC memory-wait profile (instrumented builds
    /// only).
    #[cfg(feature = "obs")]
    pub fn pc_profile(&self) -> &ds_obs::PcProfile {
        self.ms.probe.pc_profile()
    }

    /// Closes the final (possibly partial) timeline interval at the
    /// run's end cycle. Called once by `DsSystem::run`; a run
    /// ending exactly on an already-closed boundary is a no-op.
    #[cfg(feature = "obs")]
    pub(crate) fn close_timeline(&mut self, end: Cycle) {
        self.timeline.sample_close(
            end,
            self.core.committed(),
            self.ms.stats.broadcasts_sent,
            self.ms.bshr.stats().arrivals,
            self.ms.probe.account(),
        );
    }

    /// This node's interval timeline (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn timeline(&self) -> &ds_obs::IntervalRing {
        &self.timeline
    }

    /// Snapshot of this node's statistics.
    pub fn stats(&self) -> NodeStats {
        let mut s = self.ms.stats;
        s.bshr = *self.ms.bshr.stats();
        s.core = *self.core.stats();
        s.dcub_max = s.dcub_max.max(self.ms.dcub.max_occupancy());
        s
    }

    /// The canonical (commit-order) D-cache contents, for
    /// correspondence checking: sorted `(line, dirty)` pairs.
    pub fn canonical_cache_lines(&self) -> Vec<(u64, bool)> {
        self.ms.canon.resident()
    }

    /// Whether the BSHR holds no waits, buffers or pending squashes.
    #[cfg(feature = "audit")]
    pub(crate) fn bshr_is_quiescent(&self) -> bool {
        self.ms.bshr.is_quiescent()
    }

    /// In-flight DCUB entries.
    #[cfg(feature = "audit")]
    pub(crate) fn dcub_occupancy(&self) -> usize {
        self.ms.dcub.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_mem::{PageTableBuilder, Segment};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every broadcast carries its line's count of earlier broadcasts,
    /// over more lines than any workload broadcasts, in shuffled order,
    /// with repeats and a line on an undeclared page; and the tags take
    /// one counter block per page that broadcast, nothing for the rest.
    #[test]
    fn broadcast_tags_count_per_line_in_one_block_per_page() {
        let config = DsConfig::with_nodes(2);
        let (page, line_bytes) = (config.page_bytes, config.dcache.line_bytes);
        let heap = 0x10_0000;
        let mut b = PageTableBuilder::new(page, 2);
        b.add_region(0x1000, 0x3000, Segment::Text);
        b.add_region(heap, heap + 256 * page, Segment::Heap);
        b.distribute_round_robin(1);
        let pt = Arc::new(b.build());
        let mut ms = MemSide::new(0, Arc::clone(&pt), &config, Remote::Broadcast);

        // 22,528 distinct heap lines on the 176 pages whose index is not
        // 3 mod 8, broadcast once to three times each, plus one line far
        // past every declared page.
        let undeclared = 0x4000_0000;
        let mut lines = vec![undeclared; 3];
        let mut pages = BTreeSet::new();
        for p in (0..256).filter(|p| p % 8 != 3) {
            pages.insert(p);
            for l in 0..page / line_bytes {
                let line = heap + p * page + l * line_bytes;
                lines.extend(std::iter::repeat(line).take(1 + (line / line_bytes % 3) as usize));
            }
        }
        assert!(lines.len() > 40_000);
        lines.shuffle(&mut SmallRng::seed_from_u64(29));

        for (ready, &line) in lines.iter().enumerate() {
            ms.push_broadcast(line, ready as Cycle);
        }
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &line in &lines {
            let msg = ms.outgoing.pop_due(Cycle::MAX).expect("one message per push");
            assert_eq!(msg.line_addr, line);
            let count = reference.entry(line).or_default();
            assert_eq!(msg.seq, *count, "tag of {line:#x}");
            *count += 1;
        }
        assert!(ms.outgoing.pop_due(Cycle::MAX).is_none());
        assert!(reference.len() > 20_000);
        assert_eq!(ms.tags.blocks(), pages.len());
        assert_eq!(ms.tags.undeclared.len(), 1);
        assert_eq!(ms.stats.broadcasts_sent, lines.len() as u64);
    }
}
