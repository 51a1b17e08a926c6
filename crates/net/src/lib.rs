//! The global interconnect of a DataScalar (or traditional IRAM)
//! system.
//!
//! The paper's simulated implementation connects the IRAM chips with a
//! single global **bus**, slower and narrower than on-chip wires
//! (§4.2). Broadcasts on a bus are free in the sense that every
//! transaction is implicitly observed by all nodes (§4.4), which is why
//! the paper picks a bus for its evaluation; ring and optical
//! interconnects are discussed qualitatively only.
//!
//! [`Bus`] models:
//!
//! * a configurable **clock divisor** relative to the core clock and a
//!   configurable **width** in bytes — the Figure 8 sensitivity axes;
//! * round-robin **arbitration** among per-node output queues;
//! * **one transaction in flight** at a time, occupying the bus for
//!   `ceil(bytes / width)` bus cycles;
//! * delivery of [`MsgKind::Broadcast`] messages to every node except
//!   the sender, and of point-to-point messages (requests, responses,
//!   write-backs of the traditional system) to their destination.
//!
//! All communicated data in a DataScalar machine flows through exactly
//! one of these, so the bus statistics are the paper's off-chip traffic
//! numbers.

pub mod chaos;
mod fabric;
mod ring;

pub use chaos::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultStats, StallRule};
pub use fabric::{Fabric, FabricInner, FabricKind};
pub use ring::{Ring, RingConfig};

use ds_obs::Probe as _;
use std::collections::VecDeque;

/// The interconnect's observability probe: the ds-obs recorder when the
/// `obs` feature is on, a zero-sized no-op otherwise.
#[cfg(feature = "obs")]
pub(crate) type NetProbe = ds_obs::Recorder;
/// The disabled probe (ZST).
#[cfg(not(feature = "obs"))]
pub(crate) type NetProbe = ds_obs::NoopProbe;

/// A core-clock cycle count.
pub type Cycle = u64;

/// Index of a bus port (one per node; the traditional system uses port
/// 0 for the processor chip and port 1 for the off-chip memory).
pub type PortId = usize;

/// What a bus message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A DataScalar ESP data broadcast (one cache line + tag).
    Broadcast,
    /// A traditional-system read request (address only).
    Request,
    /// A traditional-system read response (one cache line).
    Response,
    /// A traditional-system write-back of a dirty line.
    WriteBack,
    /// A traditional-system write-through of a store that missed
    /// (write-no-allocate sends the store data off-chip).
    WriteThrough,
    /// A hardened-ESP retransmit request (address only, broadcast): a
    /// non-owner's BSHR wait timed out and asks the owner to re-issue
    /// its broadcast. The owner answers with a reparative re-broadcast.
    /// Never appears in a fault-free run.
    RetransmitReq,
}

impl MsgKind {
    /// True for message kinds that exist only in the traditional
    /// (request/response) protocol. ESP eliminates all of them (§3.1).
    /// `RetransmitReq` is part of hardened ESP itself, and under
    /// degradation a DataScalar node falls back to request/response, so
    /// neither counts as eliminated here.
    pub fn eliminated_by_esp(self) -> bool {
        matches!(self, MsgKind::Request | MsgKind::WriteBack | MsgKind::WriteThrough)
    }
}

/// One bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending port.
    pub src: PortId,
    /// Destination port, or `None` to broadcast to all other ports.
    pub dest: Option<PortId>,
    /// Transaction kind.
    pub kind: MsgKind,
    /// Line-aligned (or word) address the message concerns.
    pub line_addr: u64,
    /// Payload size in bytes (excluding the address/tag header).
    pub payload_bytes: u64,
    /// Per-line sequence number distinguishing repeated broadcasts of
    /// the same address (the paper's supplementary tag, §3.1).
    pub seq: u64,
    /// Core cycle at which the message entered its output queue. This
    /// is the *send* end of the critical-path analyzer's communication
    /// edges: it predates the fabric's grant, so arbitration and
    /// bus-occupancy waits fold into the end-to-end remote-fill
    /// latency instead of hiding as structural time (the `BusGrant`
    /// event's `queue_delay` reports the same gap observationally).
    pub enqueued_at: Cycle,
}

/// A message arriving at a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving port.
    pub dest: PortId,
    /// The message.
    pub msg: Message,
    /// Core cycle of arrival.
    pub at: Cycle,
}

/// Bus geometry and clocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Number of ports (nodes).
    pub ports: usize,
    /// Width in bytes per bus cycle.
    pub width_bytes: u64,
    /// Core cycles per bus cycle (the paper's core runs at 1 GHz and
    /// the off-chip bus far slower; 10 is our default, swept in Fig. 8).
    pub clock_divisor: u64,
    /// Address/tag header bytes added to every transaction.
    pub header_bytes: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig { ports: 2, width_bytes: 8, clock_divisor: 10, header_bytes: 8 }
    }
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions moved, total.
    pub transactions: u64,
    /// Total bytes moved (payload + headers).
    pub bytes: u64,
    /// Core cycles the bus spent transferring.
    pub busy_cycles: u64,
    /// Sum over transactions of (grant cycle − enqueue cycle), for mean
    /// queueing delay.
    pub queue_delay_cycles: u64,
    /// Broadcast transactions.
    pub broadcasts: u64,
    /// Request transactions.
    pub requests: u64,
    /// Response transactions.
    pub responses: u64,
    /// Write-back + write-through transactions.
    pub writes: u64,
    /// Retransmit-request transactions (hardened ESP; zero in a
    /// fault-free run).
    pub retransmits: u64,
}

impl BusStats {
    /// Mean queueing delay per transaction in core cycles.
    pub fn mean_queue_delay(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.queue_delay_cycles as f64 / self.transactions as f64
        }
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    msg: Message,
    done_at: Cycle,
}

/// The shared global bus.
///
/// Drive it with [`Bus::enqueue`] and one [`Bus::step`] per core cycle;
/// `step` returns the deliveries completing that cycle.
///
/// # Examples
///
/// ```
/// use ds_net::{Bus, BusConfig, Message, MsgKind};
///
/// let mut bus = Bus::new(BusConfig { ports: 2, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
/// bus.enqueue(Message {
///     src: 0, dest: None, kind: MsgKind::Broadcast,
///     line_addr: 0x1000, payload_bytes: 32, seq: 0, enqueued_at: 0,
/// });
/// let mut arrived = Vec::new();
/// for now in 0..10 {
///     arrived.extend(bus.step(now));
/// }
/// assert_eq!(arrived.len(), 1);
/// assert_eq!(arrived[0].dest, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    config: BusConfig,
    queues: Vec<VecDeque<Message>>,
    in_flight: Option<InFlight>,
    next_port: usize,
    stats: BusStats,
    /// Cycle-stamped grant events (no-op unless built with `obs`).
    probe: NetProbe,
}

impl Bus {
    /// Builds an idle bus.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no ports, zero width,
    /// or zero divisor).
    pub fn new(config: BusConfig) -> Self {
        assert!(config.ports > 0, "need at least one port");
        assert!(config.width_bytes > 0, "bus must be at least a byte wide");
        assert!(config.clock_divisor > 0, "divisor must be positive");
        Bus {
            queues: vec![VecDeque::new(); config.ports],
            config,
            in_flight: None,
            next_port: 0,
            stats: BusStats::default(),
            probe: NetProbe::default(),
        }
    }

    /// The recorded grant events (instrumented builds only).
    #[cfg(feature = "obs")]
    pub fn events(&self) -> &ds_obs::EventRing {
        self.probe.ring()
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Queues `msg` at its source port.
    ///
    /// # Panics
    ///
    /// Panics if `msg.src` (or a point-to-point `msg.dest`) is not a
    /// valid port.
    pub fn enqueue(&mut self, msg: Message) {
        assert!(msg.src < self.config.ports, "bad source port");
        if let Some(d) = msg.dest {
            assert!(d < self.config.ports, "bad destination port");
        }
        self.queues[msg.src].push_back(msg);
    }

    /// Total messages waiting in output queues (excluding in-flight).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.queued() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Core cycles a transaction of `payload` bytes occupies the bus.
    pub fn transfer_cycles(&self, payload_bytes: u64) -> Cycle {
        let total = payload_bytes + self.config.header_bytes;
        total.div_ceil(self.config.width_bytes) * self.config.clock_divisor
    }

    /// Advances one core cycle; returns deliveries completing now.
    ///
    /// Convenience wrapper over [`Bus::step_into`] — hot loops should
    /// pass a reused buffer to `step_into` instead.
    pub fn step(&mut self, now: Cycle) -> Vec<Delivery> {
        // ds-lint: allow(a1) documented convenience wrapper; the engine's hot loops call step_into with a reused buffer (see fn docs)
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advances one core cycle, clearing `out` and filling it with the
    /// deliveries completing now — no allocation once `out` has grown.
    ///
    /// Arbitration and transaction starts happen only on bus-clock edges
    /// (`now % clock_divisor == 0`); round-robin among ports.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        out.clear();
        // Complete an in-flight transaction.
        if let Some(fl) = &self.in_flight {
            if fl.done_at <= now {
                let msg = fl.msg;
                match msg.dest {
                    Some(d) => out.push(Delivery { dest: d, msg, at: now }),
                    None => {
                        for p in 0..self.config.ports {
                            if p != msg.src {
                                out.push(Delivery { dest: p, msg, at: now });
                            }
                        }
                    }
                }
                self.in_flight = None;
            }
        }
        // Start a new transaction on a bus-clock edge.
        if self.in_flight.is_none() && now.is_multiple_of(self.config.clock_divisor) {
            if let Some(msg) = self.arbitrate() {
                self.account(&msg, now);
                let busy = self.transfer_cycles(msg.payload_bytes);
                self.in_flight = Some(InFlight { msg, done_at: now + busy });
            }
        }
    }

    /// Earliest future cycle (strictly after `now`) at which stepping
    /// the bus can change its state or deliver anything, assuming no new
    /// messages are enqueued in between. `Cycle::MAX` when idle: an idle
    /// bus stays idle until someone enqueues. Called *after* the step at
    /// `now`, this is the bus's event horizon — every cycle before it is
    /// a guaranteed no-op.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if let Some(fl) = &self.in_flight {
            return fl.done_at.max(now + 1);
        }
        if self.queued() > 0 {
            // Nothing in flight but work queued: the next arbitration
            // happens on the next bus-clock edge.
            let d = self.config.clock_divisor;
            return ((now / d) + 1) * d;
        }
        Cycle::MAX
    }

    fn arbitrate(&mut self) -> Option<Message> {
        let ports = self.config.ports;
        for i in 0..ports {
            let p = (self.next_port + i) % ports;
            if let Some(msg) = self.queues[p].pop_front() {
                self.next_port = (p + 1) % ports;
                return Some(msg);
            }
        }
        None
    }

    fn account(&mut self, msg: &Message, now: Cycle) {
        let busy = self.transfer_cycles(msg.payload_bytes);
        self.probe.record(
            now,
            ds_obs::EventKind::BusGrant {
                bytes: msg.payload_bytes + self.config.header_bytes,
                queue_delay: now.saturating_sub(msg.enqueued_at),
            },
        );
        let s = &mut self.stats;
        s.transactions += 1;
        s.bytes += msg.payload_bytes + self.config.header_bytes;
        s.busy_cycles += busy;
        s.queue_delay_cycles += now.saturating_sub(msg.enqueued_at);
        match msg.kind {
            MsgKind::Broadcast => s.broadcasts += 1,
            MsgKind::Request => s.requests += 1,
            MsgKind::Response => s.responses += 1,
            MsgKind::WriteBack | MsgKind::WriteThrough => s.writes += 1,
            MsgKind::RetransmitReq => s.retransmits += 1,
        }
    }

    /// Appends every queued or in-flight message to `out`
    /// (deadlock-report introspection; cold path).
    pub fn pending_into(&self, out: &mut Vec<Message>) {
        if let Some(fl) = &self.in_flight {
            out.push(fl.msg);
        }
        for q in &self.queues {
            for m in q {
                out.push(*m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: PortId, dest: Option<PortId>, kind: MsgKind, at: Cycle) -> Message {
        Message {
            src,
            dest,
            kind,
            line_addr: 0x1000,
            payload_bytes: 32,
            seq: 0,
            enqueued_at: at,
        }
    }

    fn fast_bus(ports: usize) -> Bus {
        Bus::new(BusConfig { ports, width_bytes: 8, clock_divisor: 1, header_bytes: 8 })
    }

    #[test]
    fn broadcast_reaches_all_other_ports() {
        let mut bus = fast_bus(4);
        bus.enqueue(msg(1, None, MsgKind::Broadcast, 0));
        let mut got = Vec::new();
        for now in 0..20 {
            got.extend(bus.step(now));
        }
        let dests: Vec<_> = got.iter().map(|d| d.dest).collect();
        assert_eq!(dests, vec![0, 2, 3]);
    }

    #[test]
    fn transfer_time_scales_with_width() {
        let bus = fast_bus(2);
        // 32 + 8 header = 40 bytes over 8-byte bus = 5 cycles.
        assert_eq!(bus.transfer_cycles(32), 5);
        let wide = Bus::new(BusConfig { ports: 2, width_bytes: 16, clock_divisor: 1, header_bytes: 8 });
        assert_eq!(wide.transfer_cycles(32), 3);
    }

    #[test]
    fn divisor_slows_transfers() {
        let mut bus = Bus::new(BusConfig { ports: 2, width_bytes: 8, clock_divisor: 10, header_bytes: 8 });
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let mut at = None;
        for now in 0..200 {
            if let Some(d) = bus.step(now).first() {
                at = Some(d.at);
                break;
            }
        }
        assert_eq!(at, Some(50), "5 bus cycles x divisor 10");
    }

    #[test]
    fn round_robin_arbitration() {
        let mut bus = fast_bus(3);
        bus.enqueue(msg(2, Some(0), MsgKind::Response, 0));
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        bus.enqueue(msg(1, Some(2), MsgKind::Response, 0));
        let mut order = Vec::new();
        for now in 0..100 {
            for d in bus.step(now) {
                order.push(d.msg.src);
            }
        }
        assert_eq!(order, vec![0, 1, 2], "round robin from port 0");
        assert!(bus.is_idle());
    }

    #[test]
    fn one_transaction_at_a_time() {
        let mut bus = fast_bus(2);
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let mut times = Vec::new();
        for now in 0..100 {
            for d in bus.step(now) {
                times.push(d.at);
            }
        }
        assert_eq!(times.len(), 2);
        assert!(times[1] >= times[0] + 5, "second waits for the first");
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = fast_bus(2);
        bus.enqueue(msg(0, None, MsgKind::Broadcast, 0));
        bus.enqueue(msg(1, Some(0), MsgKind::Request, 0));
        for now in 0..100 {
            bus.step(now);
        }
        let s = bus.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes, 40 + 40);
        assert!(s.mean_queue_delay() >= 0.0);
    }

    #[test]
    fn next_event_matches_naive_stepping() {
        // Step a divisor-10 bus naively; at every cycle, verify that
        // cycles before the reported horizon neither deliver nor change
        // state, by checking deliveries only ever arrive at or after it.
        let mut bus = Bus::new(BusConfig { ports: 3, width_bytes: 8, clock_divisor: 10, header_bytes: 8 });
        bus.enqueue(msg(0, None, MsgKind::Broadcast, 0));
        bus.enqueue(msg(1, Some(2), MsgKind::Response, 0));
        let mut horizon = 0;
        for now in 0..400u64 {
            let got = bus.step(now);
            if !got.is_empty() {
                assert!(now >= horizon, "delivery at {now} inside skippable range (horizon {horizon})");
            }
            horizon = bus.next_event(now);
            assert!(horizon > now, "horizon must be in the future");
        }
        assert!(bus.is_idle());
        assert_eq!(bus.next_event(400), Cycle::MAX, "idle bus has no events");
    }

    #[test]
    fn next_event_of_queued_bus_is_the_next_clock_edge() {
        let mut bus = Bus::new(BusConfig { ports: 2, width_bytes: 8, clock_divisor: 10, header_bytes: 8 });
        // A message enqueued between bus-clock edges waits for the next
        // edge: that edge is the horizon.
        bus.step(5);
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 5));
        assert_eq!(bus.next_event(5), 10);
        assert_eq!(bus.next_event(9), 10);
    }

    #[test]
    fn esp_elimination_classification() {
        assert!(MsgKind::Request.eliminated_by_esp());
        assert!(MsgKind::WriteBack.eliminated_by_esp());
        assert!(MsgKind::WriteThrough.eliminated_by_esp());
        assert!(!MsgKind::Broadcast.eliminated_by_esp());
        assert!(!MsgKind::Response.eliminated_by_esp());
    }

    #[test]
    fn queue_delay_measured_from_enqueue() {
        let mut bus = fast_bus(2);
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let mut delivered = 0;
        for now in 0..100 {
            if now == 1 {
                bus.enqueue(msg(0, Some(1), MsgKind::Response, 1));
            }
            delivered += bus.step(now).len();
        }
        assert_eq!(delivered, 2);
        // Second message waited from cycle 1 to its grant at cycle 5.
        assert_eq!(bus.stats().queue_delay_cycles, 4);
    }

    #[test]
    #[should_panic(expected = "bad source port")]
    fn bad_port_rejected() {
        let mut bus = fast_bus(2);
        bus.enqueue(msg(5, None, MsgKind::Broadcast, 0));
    }
}
