//! `ds-obs`: the observability layer of the DataScalar workspace.
//!
//! The simulation crates report *what* happened through aggregate
//! counters (`NodeStats`, `BusStats`); this crate records *when* —
//! cycle-stamped [`Event`]s pushed through a [`Probe`] into
//! pre-allocated per-component [`EventRing`]s. Three consumers sit on
//! top of the event stream:
//!
//! * [`perfetto::trace_json`] renders rings as a Chrome trace-event /
//!   Perfetto JSON timeline (per-node broadcast, BSHR, DCUB and commit
//!   tracks);
//! * [`MetricsReport`] derives `ds-stats` histograms — broadcast
//!   latency, BSHR occupancy, datathread run lengths — carried on
//!   `RunResult`;
//! * [`json`] is a minimal parser used to validate emitted reports and
//!   traces without external dependencies.
//!
//! # The zero-cost guarantee
//!
//! [`Probe`] has one implementation per structure it can feed, and each
//! owner holds only the ones it writes: [`Recorder`] is an event ring
//! and nothing else (core, memory side, interconnect); [`CycleLedger`]
//! is one node's stall buckets and per-PC profile (held by whoever
//! charges the node's cycles); [`CritWindow`] is one core's per-slot
//! critical-path stamps and retirement segment. [`NoopProbe`] is a
//! zero-sized type whose hooks are all inlined empty defaults.
//!
//! Which one an owner holds is a type, not a build: every owner is
//! generic over a [`Flavour`], and each field is that flavour's
//! associated type. On [`Plain`] every one is the ZST, so every call
//! site monomorphises against an empty hook and compiles to nothing —
//! no branch, no field, no cache pressure. On [`Obs`] every hook is a
//! constant-time write into storage allocated at construction: the
//! cycle loop still allocates nothing (ds-lint rule a1 polices the
//! `record*`, `charge*` and `edge*` paths like any other cycle-loop
//! root). Both flavours are compiled into every build and can run side
//! by side in one process; [`DefaultFlavour`] only picks the one the
//! plain constructors build (the `obs` cargo feature makes it [`Obs`]).

pub mod account;
pub mod critpath;
mod flavour;
pub mod json;
pub mod perfetto;
mod ring;
pub mod timeline;

pub use account::{
    top_hot_pcs, CycleAccount, CycleLedger, HotPc, PcProfile, PcStallKind, StallBucket,
    StallCharge, BUCKET_COUNT,
};
pub use critpath::{
    CritNode, CritPathNodeReport, CritPathReport, CritWindow, EdgeClass, EdgeKind, FillKind,
};
pub use flavour::{DefaultFlavour, Flavour, Instrument, LeadTracker, Obs, Plain};
pub use ring::{EventRing, Recorder};
pub use timeline::{
    segment_phases, IntervalRing, IntervalSample, Phase, TimelineNodeReport, TimelineReport,
    SAMPLE_INTERVAL,
};

use ds_stats::Histogram;

/// A simulated core-clock cycle count (mirrors `ds_core::Cycle`; kept
/// local so the dependency points the other way).
pub type Cycle = u64;

/// Default [`EventRing`] capacity: big enough to hold the interesting
/// tail of a full-budget Figure 7 run, small enough (~16 K events,
/// ~0.5 MiB) that an instrumented 4-node system stays cheap.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// What happened. Field meanings:
///
/// * `line` — the line-aligned address the event concerns;
/// * `occ` — the structure's occupancy *after* the operation;
/// * `latency` — arrival cycle minus send-queue cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An ESP broadcast entered the sender's output queue.
    BroadcastSend {
        /// Line broadcast.
        line: u64,
    },
    /// A broadcast arrived at a consumer node.
    BroadcastArrive {
        /// Line delivered.
        line: u64,
        /// Core cycles from send-queue entry to arrival.
        latency: u64,
    },
    /// A remote load blocked: a BSHR wait entry was allocated.
    BshrAllocate {
        /// Line waited on.
        line: u64,
        /// BSHR occupancy after allocation.
        occ: u32,
    },
    /// An arrival satisfied an outstanding BSHR wait.
    BshrFill {
        /// Line filled.
        line: u64,
        /// Loads released by the fill.
        waiters: u32,
        /// BSHR occupancy after the fill.
        occ: u32,
    },
    /// An arrival was consumed by a pending squash (reparative
    /// broadcast for a falsely-hit line).
    BshrSquash {
        /// Line squashed.
        line: u64,
        /// BSHR occupancy after the squash.
        occ: u32,
    },
    /// A remote load found its data already buffered — the paper's
    /// datathreading evidence.
    BshrFoundBuffered {
        /// Line found.
        line: u64,
        /// BSHR occupancy after consuming the buffer.
        occ: u32,
    },
    /// A line entered the Data Commit Update Buffer.
    DcubPush {
        /// Line inserted.
        line: u64,
        /// DCUB occupancy after the push.
        occ: u32,
    },
    /// A line left the DCUB at commit.
    DcubDrain {
        /// Line removed.
        line: u64,
        /// DCUB occupancy after the drain.
        occ: u32,
    },
    /// Commit-time false hit: the repair (late broadcast at the owner,
    /// squash post at non-owners) started.
    FalseHitRepair {
        /// Line repaired.
        line: u64,
    },
    /// Instructions retired this cycle (recorded only on non-zero
    /// cycles).
    Commit {
        /// Instructions retired.
        n: u32,
    },
    /// The lead node changed — one datathread ended.
    LeadChange {
        /// The node that just *lost* the lead.
        node: u32,
        /// Cycles it held the lead.
        held_cycles: u64,
    },
    /// The interconnect granted a transaction.
    BusGrant {
        /// Payload + header bytes moved.
        bytes: u64,
        /// Core cycles the message waited for the grant.
        queue_delay: u64,
    },
    /// A load whose data crossed the interconnect retired — the far end
    /// of the broadcast/request flow that started at `sent`. Recorded
    /// by the core at commit so trace exporters can draw flow arrows
    /// from the send through the arrival to the consuming commit.
    RemoteFillCommit {
        /// Line the load consumed.
        line: u64,
        /// Cycle the data entered the sender's output queue.
        sent: u64,
    },
    /// A BSHR wait outlived its timeout: the node asked the owner to
    /// re-broadcast the line (ds-chaos hardening; never recorded in a
    /// fault-free run).
    RetransmitRequest {
        /// Line whose broadcast went missing.
        line: u64,
        /// How many timeouts this wait has now suffered (1 = first).
        retry: u32,
    },
    /// The owner answered a retransmit request with a reparative
    /// re-broadcast of the line.
    RetransmitRebroadcast {
        /// Line re-broadcast.
        line: u64,
    },
    /// A line exhausted its retry budget and degraded to the
    /// traditional request–response protocol for the rest of the run.
    LineDegraded {
        /// Line degraded.
        line: u64,
    },
}

/// One cycle-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Core cycle the event happened on.
    pub cycle: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// The recording interface the simulation crates call. Every owner
/// implements only the hooks whose structure it holds — [`Recorder`]
/// `record` (its event ring), [`CycleLedger`] `charge` (its stall
/// buckets and PC profile), [`CritWindow`] the `edge_*` family (its
/// per-slot stamps and retirement segment) — and inherits empty
/// defaults for the rest, so the disabled configuration
/// ([`NoopProbe`]) costs nothing.
pub trait Probe {
    /// Builds the probe a core with an RUU ring of `slots` slots owns
    /// (the critical-path stamps are kept per slot). Construction only.
    fn with_ruu_slots(slots: usize) -> Self
    where
        Self: Sized + Default,
    {
        let _ = slots;
        Self::default()
    }

    /// Records one event.
    #[inline(always)]
    fn record(&mut self, _cycle: Cycle, _kind: EventKind) {}

    /// Charges `n` cycles to one stall bucket, and the memory-wait ones
    /// to the PC at the head of the commit window when the charge names
    /// one. `n > 1` is the batch form the event-horizon engine uses for
    /// skipped quiescent ranges; it must equal `n` single charges.
    #[inline(always)]
    fn charge(&mut self, _charge: StallCharge, _n: u64) {}

    /// RUU ring slot `slot` took a new instruction at `now`.
    #[inline(always)]
    fn edge_dispatch(&mut self, _slot: usize, _now: Cycle) {}

    /// The completion of the instruction `producer_back` retirements
    /// older made the instruction in `slot` ready at `now` (its last
    /// arrival).
    #[inline(always)]
    fn edge_wake(&mut self, _slot: usize, _now: Cycle, _producer_back: u32) {}

    /// The instruction in `slot` issued at `now`; `fill` says what will
    /// produce its completion.
    #[inline(always)]
    fn edge_issue(&mut self, _slot: usize, _now: Cycle, _fill: FillKind) {}

    /// The instruction in `slot` completed at `now`.
    #[inline(always)]
    fn edge_complete(&mut self, _slot: usize, _now: Cycle) {}

    /// The remote data the load in `slot` waits for entered the
    /// sender's output queue at `sent`.
    #[inline(always)]
    fn edge_sent(&mut self, _slot: usize, _sent: Cycle) {}

    /// The instruction in `slot`, at `pc`, retired at `now`: its
    /// last-arrival graph node joins the critical-path window (see
    /// [`critpath`]). Returns the send stamp of a remote fill, so the
    /// caller can close the fill's trace flow.
    #[inline(always)]
    fn edge_commit(&mut self, _slot: usize, _pc: u64, _now: Cycle) -> Option<Cycle> {
        None
    }
}

/// The compile-time no-op probe: a zero-sized type whose inherited
/// hooks are empty. Every instrument of the [`Plain`] flavour is one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Derived metrics over one run's event stream, exposed on
/// `RunResult::metrics`. Deterministic: two identical runs produce
/// equal reports (asserted by `tests/obs_goldens.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Broadcast latency (send-queue entry to arrival), one sample per
    /// arrival at each consumer.
    pub broadcast_latency: Histogram,
    /// BSHR occupancy sampled after every BSHR transition — its max is
    /// the high-water mark, its quantiles the occupancy curve.
    pub bshr_occupancy: Histogram,
    /// DCUB occupancy sampled after every push/drain.
    pub dcub_occupancy: Histogram,
    /// Datathread run lengths: cycles each lead-holding node kept the
    /// lead before a lead change.
    pub datathread_run_cycles: Histogram,
    /// Instructions retired per busy commit cycle.
    pub commit_burst: Histogram,
    /// Events recorded across all rings (retained + overwritten).
    pub events_recorded: u64,
    /// Events overwritten after ring wraparound.
    pub events_dropped: u64,
    /// Per-node cycle ledgers, indexed by node id. Each sums exactly
    /// to the run's total simulated cycles.
    pub node_accounts: Vec<CycleAccount>,
    /// Top memory-wait PCs merged across nodes, hottest first.
    pub hot_pcs: Vec<HotPc>,
    /// Last-arrival critical-path attribution, one entry per node.
    pub critpath: CritPathReport,
    /// Interval time-series telemetry with phase segmentation, one
    /// timeline per node.
    pub timeline: TimelineReport,
}

impl MetricsReport {
    /// Folds one ring's retained events (and its drop counter) into the
    /// report.
    pub fn absorb(&mut self, ring: &EventRing) {
        self.events_recorded += ring.len() as u64 + ring.dropped();
        self.events_dropped += ring.dropped();
        for ev in ring.iter() {
            match ev.kind {
                EventKind::BroadcastArrive { latency, .. } => {
                    self.broadcast_latency.record(latency);
                }
                EventKind::BshrAllocate { occ, .. }
                | EventKind::BshrFill { occ, .. }
                | EventKind::BshrSquash { occ, .. }
                | EventKind::BshrFoundBuffered { occ, .. } => {
                    self.bshr_occupancy.record(occ as u64);
                }
                EventKind::DcubPush { occ, .. } | EventKind::DcubDrain { occ, .. } => {
                    self.dcub_occupancy.record(occ as u64);
                }
                EventKind::LeadChange { held_cycles, .. } => {
                    self.datathread_run_cycles.record(held_cycles);
                }
                EventKind::Commit { n } => {
                    self.commit_burst.record(n as u64);
                }
                EventKind::BroadcastSend { .. }
                | EventKind::FalseHitRepair { .. }
                | EventKind::BusGrant { .. }
                | EventKind::RemoteFillCommit { .. }
                | EventKind::RetransmitRequest { .. }
                | EventKind::RetransmitRebroadcast { .. }
                | EventKind::LineDegraded { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_records_nothing_and_is_zero_sized() {
        let mut p = NoopProbe;
        p.record(1, EventKind::Commit { n: 4 });
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
    }

    #[test]
    fn metrics_absorb_classifies_events() {
        let mut r = Recorder::with_capacity(64);
        r.record(5, EventKind::BroadcastSend { line: 0x100 });
        r.record(9, EventKind::BroadcastArrive { line: 0x100, latency: 4 });
        r.record(9, EventKind::BshrFill { line: 0x100, waiters: 2, occ: 1 });
        r.record(10, EventKind::DcubPush { line: 0x140, occ: 3 });
        r.record(12, EventKind::Commit { n: 6 });
        r.record(20, EventKind::LeadChange { node: 1, held_cycles: 15 });
        let mut m = MetricsReport::default();
        m.absorb(r.ring());
        assert_eq!(m.events_recorded, 6);
        assert_eq!(m.events_dropped, 0);
        assert_eq!(m.broadcast_latency.total(), 1);
        assert_eq!(m.broadcast_latency.max(), Some(4));
        assert_eq!(m.bshr_occupancy.count(1), 1);
        assert_eq!(m.dcub_occupancy.count(3), 1);
        assert_eq!(m.commit_burst.count(6), 1);
        assert_eq!(m.datathread_run_cycles.max(), Some(15));
    }

    #[test]
    fn metrics_count_dropped_events_after_wraparound() {
        let mut r = Recorder::with_capacity(4);
        for c in 0..10u64 {
            r.record(c, EventKind::Commit { n: 1 });
        }
        let mut m = MetricsReport::default();
        m.absorb(r.ring());
        assert_eq!(m.events_recorded, 10);
        assert_eq!(m.events_dropped, 6);
        assert_eq!(m.commit_burst.total(), 4, "only retained events feed histograms");
    }
}
