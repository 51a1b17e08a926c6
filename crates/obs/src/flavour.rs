//! Build flavours as types.
//!
//! Every probe owner in the simulation crates is generic over one
//! [`Flavour`] and holds each of its instruments as that flavour's
//! associated type: [`Obs`] names the real structures ([`Recorder`],
//! [`CycleLedger`], [`CritWindow`], [`IntervalRing`], [`LeadTracker`]),
//! [`Plain`] names the zero-sized [`NoopProbe`] for all of them. A
//! plain machine therefore carries no instrument field, and every hook
//! monomorphises against an empty inline default; [`Flavour::OBS`]
//! gates the charge and timeline-close paths, so on `Plain` they fold
//! away along with everything they would have read.
//!
//! Generic code that must read an instrument (the end-of-run metrics,
//! the deadlock report) asks its field through [`Instrument::get`],
//! which is `None` on `Plain`. Accessors that only make sense on a
//! recording machine (`events`, `crit_window`, `perfetto_trace`, …) are
//! defined on the `Obs` instantiation alone.
//!
//! Both flavours live in every build. [`DefaultFlavour`] is the one the
//! plain constructors (`DsSystem::new`, `OooCore::new`, `Fabric::new`,
//! …) build, and the `obs` cargo feature of this crate switches it to
//! [`Obs`].

use crate::{CritWindow, Cycle, CycleLedger, EventKind, IntervalRing, NoopProbe, Probe, Recorder};
use std::fmt::Debug;

/// One way of building the simulator: which instrument each probe owner
/// holds. Implemented by [`Plain`] and [`Obs`] only.
pub trait Flavour: Copy + Default + Debug + Send + Sync + 'static {
    /// True when the flavour records. Gates the per-cycle charge and
    /// timeline-close paths; on [`Plain`] they compile to nothing.
    const OBS: bool;
    /// An event ring (core, memory side, interconnect).
    type Recorder: Instrument<Recorder> + Probe;
    /// A node's stall buckets and per-PC profile.
    type Ledger: Instrument<CycleLedger> + Probe;
    /// A core's critical-path window.
    type Crit: Instrument<CritWindow> + Probe;
    /// A node's interval timeline.
    type Timeline: Instrument<IntervalRing>;
    /// A DataScalar machine's datathread lead.
    type Lead: Instrument<LeadTracker>;
}

/// The uninstrumented flavour: every instrument is a [`NoopProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plain;

/// The instrumented flavour: event rings, cycle ledgers, critical-path
/// windows, interval timelines and lead tracking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Obs;

impl Flavour for Plain {
    const OBS: bool = false;
    type Recorder = NoopProbe;
    type Ledger = NoopProbe;
    type Crit = NoopProbe;
    type Timeline = NoopProbe;
    type Lead = NoopProbe;
}

// A plain machine carries no instrument: an obs structure leaking into
// `Plain` fails the build.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<<Plain as Flavour>::Recorder>() == 0);
    assert!(size_of::<<Plain as Flavour>::Ledger>() == 0);
    assert!(size_of::<<Plain as Flavour>::Crit>() == 0);
    assert!(size_of::<<Plain as Flavour>::Timeline>() == 0);
    assert!(size_of::<<Plain as Flavour>::Lead>() == 0);
};

impl Flavour for Obs {
    const OBS: bool = true;
    type Recorder = Recorder;
    type Ledger = CycleLedger;
    type Crit = CritWindow;
    type Timeline = IntervalRing;
    type Lead = LeadTracker;
}

/// The flavour the plain constructors build.
#[cfg(not(feature = "obs"))]
pub type DefaultFlavour = Plain;
/// The flavour the plain constructors build.
#[cfg(feature = "obs")]
pub type DefaultFlavour = Obs;

/// A flavour's stand-in for the instrument `T`: `T` itself on [`Obs`],
/// [`NoopProbe`] on [`Plain`].
pub trait Instrument<T>: Default + Clone + Debug + Send + Sync {
    /// The instrument, or `None` on a flavour without it.
    fn get(&self) -> Option<&T>;
    /// The instrument, mutably, or `None` on a flavour without it.
    fn get_mut(&mut self) -> Option<&mut T>;
}

impl<T> Instrument<T> for NoopProbe {
    fn get(&self) -> Option<&T> {
        None
    }

    fn get_mut(&mut self) -> Option<&mut T> {
        None
    }
}

macro_rules! instrument_is_itself {
    ($($t:ty),*) => {$(
        impl Instrument<$t> for $t {
            #[inline]
            fn get(&self) -> Option<&$t> {
                Some(self)
            }

            #[inline]
            fn get_mut(&mut self) -> Option<&mut $t> {
                Some(self)
            }
        }
    )*};
}

instrument_is_itself!(Recorder, CycleLedger, CritWindow, IntervalRing, LeadTracker);

/// Which node leads the commit race, since when, and the ring its lead
/// changes are recorded in: one datathread run ends at every change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeadTracker {
    recorder: Recorder,
    leader: usize,
    since: Cycle,
}

impl LeadTracker {
    /// `leader` leads at `now`; a change of leader closes the previous
    /// node's run.
    #[inline]
    pub fn note(&mut self, now: Cycle, leader: usize) {
        if leader != self.leader {
            self.close(now);
            self.leader = leader;
        }
    }

    /// Closes the current run at `end` (the run's last cycle, so every
    /// cycle is covered by exactly one run).
    pub fn close(&mut self, end: Cycle) {
        let held_cycles = end.saturating_sub(self.since);
        self.recorder.record(end, EventKind::LeadChange { node: self.leader as u32, held_cycles });
        self.since = end;
    }

    /// The recorded lead changes.
    pub fn ring(&self) -> &crate::EventRing {
        self.recorder.ring()
    }
}
