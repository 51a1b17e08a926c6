//! The interconnect: one shared port layer, a bus or ring timing model,
//! plus optional fault injection.
//!
//! §4.4 surveys three technologies for the DataScalar interconnect:
//! buses (broadcasts implicit, but not scalable), rings (SCI-style,
//! pipelined, broadcasts observed in different orders), and free-space
//! optics (broadcasts essentially free — expressible here as a very
//! wide, core-clocked bus). [`Fabric`] lets the system models swap
//! among them without caring which is underneath. The timing models
//! decide only *when* a queued message is granted and *when* each copy
//! arrives; the output queues, enqueue validation, statistics and grant
//! events live once, in [`Ports`]. When a non-empty [`FaultPlan`] is
//! supplied, a [`FaultInjector`] sits between the model and its
//! deliveries; with an empty plan no injector exists and the fabric
//! behaves byte-identically to the un-hardened build.

use crate::bus::Bus;
use crate::chaos::{FaultInjector, FaultPlan, FaultStats};
use crate::ring::Ring;
use crate::{BusConfig, BusStats, Cycle, Delivery, Message, MsgKind};
use ds_obs::{DefaultFlavour, Flavour, Probe as _};
use std::collections::VecDeque;

/// Which interconnect to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricKind {
    /// A single shared bus (the paper's evaluated configuration).
    #[default]
    Bus,
    /// A unidirectional slotted ring (the paper's envisioned
    /// high-performance fabric).
    Ring,
}

/// What every timing model shares: the geometry, one FIFO output queue
/// per port, the statistics, and the grant-event probe.
#[derive(Debug, Clone)]
pub(crate) struct Ports<F: Flavour> {
    pub(crate) config: BusConfig,
    /// Messages waiting at each port for the model to grant them.
    pub(crate) queues: Vec<VecDeque<Message>>,
    stats: BusStats,
    /// Cycle-stamped grant events (a no-op on `Plain`).
    probe: F::Recorder,
}

impl<F: Flavour> Ports<F> {
    fn new(config: BusConfig) -> Self {
        assert!(config.ports > 0, "need at least one port");
        assert!(config.width_bytes > 0, "fabric must be at least a byte wide");
        assert!(config.clock_divisor > 0, "divisor must be positive");
        Ports {
            queues: vec![VecDeque::new(); config.ports],
            config,
            stats: BusStats::default(),
            probe: Default::default(),
        }
    }

    /// True when every output queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Charges one transaction the model has just granted at `now`:
    /// its bytes, its queueing delay, and the `busy` core cycles it
    /// occupies the model.
    pub(crate) fn account(&mut self, msg: &Message, now: Cycle, busy: Cycle) {
        let bytes = msg.payload_bytes + self.config.header_bytes;
        let queue_delay = now.saturating_sub(msg.enqueued_at);
        self.probe.record(now, ds_obs::EventKind::BusGrant { bytes, queue_delay });
        let s = &mut self.stats;
        s.transactions += 1;
        s.bytes += bytes;
        s.busy_cycles += busy;
        s.queue_delay_cycles += queue_delay;
        match msg.kind {
            MsgKind::Broadcast => s.broadcasts += 1,
            MsgKind::Request => s.requests += 1,
            MsgKind::Response => s.responses += 1,
            MsgKind::WriteBack | MsgKind::WriteThrough => s.writes += 1,
            MsgKind::RetransmitReq => s.retransmits += 1,
        }
    }
}

/// The timing model behind the shared ports.
#[derive(Debug, Clone)]
enum Model {
    Bus(Bus),
    Ring(Ring),
}

/// A bus or ring behind one interface, optionally faulted by ds-chaos.
///
/// Drive it with [`Fabric::enqueue`] and one [`Fabric::step_into`] per
/// core cycle. `F` picks the grant-event probe; [`Fabric::new`] builds
/// the [`DefaultFlavour`], [`Fabric::with_chaos`] any flavour.
///
/// # Examples
///
/// ```
/// use ds_net::{BusConfig, Fabric, FabricKind, Message, MsgKind};
///
/// let config = BusConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 };
/// let mut ring = Fabric::new(FabricKind::Ring, config);
/// ring.enqueue(Message {
///     src: 0, dest: None, kind: MsgKind::Broadcast,
///     line_addr: 0x1000, payload_bytes: 32, seq: 0, enqueued_at: 0,
/// });
/// let (mut arrived, mut out) = (Vec::new(), Vec::new());
/// for now in 0..100 {
///     ring.step_into(now, &mut out);
///     arrived.extend(out.iter().map(|d| d.dest));
/// }
/// assert_eq!(arrived, [1, 2, 3], "every other node, in ring order");
/// assert!(ring.is_idle());
/// ```
#[derive(Debug, Clone)]
pub struct Fabric<F: Flavour = DefaultFlavour> {
    ports: Ports<F>,
    model: Model,
    /// Present only under a non-empty fault plan; boxed because the
    /// fault path is rare and the common case should not pay its
    /// footprint.
    chaos: Option<Box<FaultInjector>>,
}

impl Fabric {
    /// Builds a fault-free fabric of `kind` from shared geometry, of
    /// the [`DefaultFlavour`].
    ///
    /// # Panics
    ///
    /// As [`Fabric::with_chaos`].
    pub fn new(kind: FabricKind, config: BusConfig) -> Self {
        Fabric::with_chaos(kind, config, &FaultPlan::default())
    }
}

impl<F: Flavour> Fabric<F> {
    /// Builds a fabric of `kind` from shared geometry, with `plan`'s
    /// message faults injected at the delivery boundary. An empty plan
    /// constructs no injector at all. Rings need at least two ports;
    /// degenerate single-node systems fall back to a bus (which never
    /// carries traffic there anyway).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no ports, zero width,
    /// or zero divisor).
    pub fn with_chaos(kind: FabricKind, config: BusConfig, plan: &FaultPlan) -> Self {
        let ports = Ports::new(config);
        let model = match kind {
            FabricKind::Ring if config.ports >= 2 => Model::Ring(Ring::new(config.ports)),
            _ => Model::Bus(Bus::default()),
        };
        let chaos = (!plan.is_empty()).then(|| Box::new(FaultInjector::new(plan)));
        Fabric { ports, model, chaos }
    }

    /// Fault-injection statistics (`None` without an active plan).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.chaos.as_deref().map(FaultInjector::stats)
    }

    /// Queues `msg` at its source port.
    ///
    /// # Panics
    ///
    /// Panics if `msg.src` (or a point-to-point `msg.dest`) is not a
    /// valid port, or if a point-to-point message addresses its own
    /// sender.
    pub fn enqueue(&mut self, msg: Message) {
        let ports = self.ports.config.ports;
        assert!(msg.src < ports, "bad source port");
        if let Some(d) = msg.dest {
            assert!(d < ports, "bad destination port");
            assert!(d != msg.src, "self-addressed message");
        }
        self.ports.queues[msg.src].push_back(msg);
    }

    /// Advances one core cycle, filling `out` with the deliveries
    /// completing now (cleared first; allocation-free once grown).
    /// Under an active fault plan the injector rewrites the batch —
    /// dropping, deferring, duplicating or reordering deliveries.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        out.clear();
        match &mut self.model {
            Model::Bus(b) => b.step_into(&mut self.ports, now, out),
            Model::Ring(r) => r.step_into(&mut self.ports, now, out),
        }
        if let Some(ch) = &mut self.chaos {
            ch.inject_step(now, out);
        }
    }

    /// Earliest future cycle at which stepping the fabric can change
    /// its state or deliver anything, absent new enqueues —
    /// `Cycle::MAX` when idle. The fabric's contribution to the
    /// system-wide event horizon; includes the injector's deferred
    /// releases so cycle skipping never jumps over a fault.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = match &self.model {
            Model::Bus(b) => b.next_event(&self.ports, now),
            Model::Ring(r) => r.next_event(&self.ports, now),
        };
        if let Some(ch) = &self.chaos {
            horizon = horizon.min(ch.next_event(now));
        }
        horizon
    }

    /// True when nothing is queued, in flight, or deferred by a fault.
    pub fn is_idle(&self) -> bool {
        let model_idle = match &self.model {
            Model::Bus(b) => b.is_idle(),
            Model::Ring(r) => r.is_idle(),
        };
        model_idle && self.ports.is_empty() && self.chaos.as_ref().is_none_or(|ch| ch.is_idle())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.ports.stats
    }

    /// Appends every in-flight, queued, or fault-deferred message to
    /// `out`, in that order (deadlock-report introspection; cold path).
    pub fn pending_into(&self, out: &mut Vec<Message>) {
        match &self.model {
            Model::Bus(b) => b.pending_into(out),
            Model::Ring(r) => r.pending_into(out),
        }
        out.extend(self.ports.queues.iter().flatten());
        if let Some(ch) = &self.chaos {
            ch.pending_into(out);
        }
    }

    /// The grant-event probe: on `Obs` a `Recorder` (`BusGrant`), on
    /// `Plain` a ZST.
    pub fn probe(&self) -> &F::Recorder {
        &self.ports.probe
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultRule};
    use crate::PortId;
    use ds_obs::Obs;

    /// A core-clocked, 8-byte-wide geometry with `ports` ports.
    pub(crate) fn fast(ports: usize) -> BusConfig {
        BusConfig { ports, width_bytes: 8, clock_divisor: 1, header_bytes: 8 }
    }

    /// A 32-byte message enqueued at `at`.
    pub(crate) fn msg(src: PortId, dest: Option<PortId>, kind: MsgKind, at: Cycle) -> Message {
        Message { src, dest, kind, line_addr: 0x1000, payload_bytes: 32, seq: 0, enqueued_at: at }
    }

    /// Steps `f` over cycles `0..cycles`, collecting every delivery.
    pub(crate) fn run(f: &mut Fabric, cycles: Cycle) -> Vec<Delivery> {
        let (mut got, mut out) = (Vec::new(), Vec::new());
        for now in 0..cycles {
            f.step_into(now, &mut out);
            got.extend_from_slice(&out);
        }
        got
    }

    fn bmsg(src: usize) -> Message {
        msg(src, None, MsgKind::Broadcast, 0)
    }

    #[test]
    fn both_kinds_deliver_broadcasts_to_all_peers() {
        for kind in [FabricKind::Bus, FabricKind::Ring] {
            let mut f = Fabric::new(kind, fast(3));
            f.enqueue(bmsg(0));
            assert_eq!(run(&mut f, 100).len(), 2, "{kind:?}");
            assert!(f.is_idle());
            assert_eq!(f.stats().broadcasts, 1);
        }
    }

    #[test]
    fn single_port_ring_falls_back_to_bus() {
        let f = Fabric::new(FabricKind::Ring, BusConfig { ports: 1, ..Default::default() });
        assert!(f.is_idle());
        assert_eq!(f.next_event(0), Cycle::MAX, "an idle one-port fabric has no events");
    }

    #[test]
    fn ring_broadcast_latency_beats_bus_for_nearest_neighbour() {
        let first_arrival = |kind| -> u64 {
            let mut f = Fabric::new(kind, fast(4));
            f.enqueue(bmsg(0));
            run(&mut f, 1000).first().expect("a delivery").at
        };
        let bus = first_arrival(FabricKind::Bus);
        let ring = first_arrival(FabricKind::Ring);
        assert!(ring <= bus, "nearest ring neighbour ({ring}) vs bus ({bus})");
    }

    #[test]
    fn stats_accumulate() {
        for kind in [FabricKind::Bus, FabricKind::Ring] {
            let mut f = Fabric::new(kind, fast(2));
            f.enqueue(bmsg(0));
            f.enqueue(msg(1, Some(0), MsgKind::Request, 0));
            run(&mut f, 100);
            let s = f.stats();
            assert_eq!(s.transactions, 2, "{kind:?}");
            assert_eq!(s.broadcasts, 1);
            assert_eq!(s.requests, 1);
            assert_eq!(s.bytes, 40 + 40);
            assert!(s.mean_queue_delay() >= 0.0);
        }
    }

    #[test]
    fn queue_delay_measured_from_enqueue() {
        let mut f = Fabric::new(FabricKind::Bus, fast(2));
        f.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let (mut delivered, mut out) = (0, Vec::new());
        for now in 0..100 {
            if now == 1 {
                f.enqueue(msg(0, Some(1), MsgKind::Response, 1));
            }
            f.step_into(now, &mut out);
            delivered += out.len();
        }
        assert_eq!(delivered, 2);
        // Second message waited from cycle 1 to its grant at cycle 5.
        assert_eq!(f.stats().queue_delay_cycles, 4);
    }

    #[test]
    #[should_panic(expected = "bad source port")]
    fn bad_port_rejected() {
        Fabric::new(FabricKind::Bus, fast(2)).enqueue(bmsg(5));
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn self_addressed_message_rejected() {
        Fabric::new(FabricKind::Ring, fast(2)).enqueue(msg(1, Some(1), MsgKind::Response, 0));
    }

    #[test]
    fn both_kinds_record_one_grant_event_per_transaction() {
        for kind in [FabricKind::Bus, FabricKind::Ring] {
            let mut f = Fabric::<Obs>::with_chaos(kind, fast(3), &FaultPlan::default());
            f.enqueue(bmsg(0));
            // First stepped at cycle 3: the grant waited three cycles.
            let mut out = Vec::new();
            for now in 3..100 {
                f.step_into(now, &mut out);
            }
            let grants: Vec<_> = f.probe().ring().iter().map(|e| (e.cycle, e.kind)).collect();
            let s = f.stats();
            let expected =
                ds_obs::EventKind::BusGrant { bytes: s.bytes, queue_delay: s.queue_delay_cycles };
            assert_eq!(grants, [(3, expected)], "{kind:?}");
            assert_eq!((s.bytes, s.queue_delay_cycles), (40, 3), "{kind:?}");
        }
    }

    #[test]
    fn empty_plan_builds_no_injector() {
        let f: Fabric =
            Fabric::with_chaos(FabricKind::Bus, BusConfig::default(), &FaultPlan::default());
        assert!(f.fault_stats().is_none());
    }

    #[test]
    fn chaos_drops_broadcasts_on_both_fabrics() {
        let plan = FaultPlan {
            rules: vec![FaultRule::broadcasts(FaultKind::Drop, 1, u64::MAX)],
            stalls: Vec::new(),
        };
        for kind in [FabricKind::Bus, FabricKind::Ring] {
            let mut f = Fabric::with_chaos(kind, fast(3), &plan);
            f.enqueue(bmsg(0));
            assert!(run(&mut f, 100).is_empty(), "{kind:?}: every delivery dropped");
            assert!(f.is_idle());
            assert_eq!(f.fault_stats().unwrap().dropped, 2, "{kind:?}");
        }
    }

    #[test]
    fn chaos_delay_holds_fabric_busy_until_release() {
        let plan = FaultPlan {
            rules: vec![FaultRule::broadcasts(FaultKind::Delay(40), 1, u64::MAX)],
            stalls: Vec::new(),
        };
        let mut f: Fabric = Fabric::with_chaos(FabricKind::Bus, fast(2), &plan);
        f.enqueue(bmsg(0));
        let (mut arrivals, mut out) = (Vec::new(), Vec::new());
        let mut now = 0;
        while now < 200 {
            f.step_into(now, &mut out);
            arrivals.extend(out.iter().map(|d| d.at));
            if f.is_idle() {
                break;
            }
            let horizon = f.next_event(now);
            assert!(horizon > now, "horizon advances");
            now = horizon.min(now + 1).max(now + 1);
        }
        assert_eq!(arrivals.len(), 1);
        assert!(arrivals[0] >= 45, "base transfer (5) plus injected delay (40)");
        assert!(f.is_idle());
    }

    #[test]
    fn pending_into_reports_deferred_messages() {
        let plan = FaultPlan {
            rules: vec![FaultRule::broadcasts(FaultKind::Delay(1000), 1, u64::MAX)],
            stalls: Vec::new(),
        };
        let mut f = Fabric::with_chaos(FabricKind::Bus, fast(2), &plan);
        f.enqueue(bmsg(0));
        run(&mut f, 20);
        let mut pending = Vec::new();
        f.pending_into(&mut pending);
        assert_eq!(pending.len(), 1, "the deferred broadcast is visible");
        assert_eq!(pending[0].kind, MsgKind::Broadcast);
    }
}
