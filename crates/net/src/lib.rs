//! The global interconnect of a DataScalar (or traditional IRAM)
//! system.
//!
//! The paper's simulated implementation connects the IRAM chips with a
//! single global **bus**, slower and narrower than on-chip wires
//! (§4.2). Broadcasts on a bus are free in the sense that every
//! transaction is implicitly observed by all nodes (§4.4), which is why
//! the paper picks a bus for its evaluation; it argues for an SCI-style
//! **ring** as the high-performance alternative.
//!
//! [`Fabric`] is the one interconnect type every system model steps. It
//! is one shared layer plus one of two timing models:
//!
//! * the shared layer holds a FIFO output queue per port, validates
//!   every enqueue, and charges each granted transaction to
//!   [`BusStats`] (and, with the `obs` feature, a `BusGrant` event);
//! * the **bus** model (`FabricKind::Bus`) arbitrates round-robin among
//!   the queues on bus-clock edges and carries one transaction at a
//!   time, delivering at every other port (broadcast) or at the
//!   destination (point-to-point) when the transfer completes;
//! * the **ring** model (`FabricKind::Ring`) reserves each node's
//!   outgoing link and forwards cut-through flits around a
//!   unidirectional ring, so several messages are in flight at once and
//!   different nodes hear broadcasts in different orders.
//!
//! Both models share one geometry, [`BusConfig`] — a configurable
//! **clock divisor** relative to the core clock and a **width** in bytes
//! (the Figure 8 sensitivity axes) — and one transfer time,
//! [`BusConfig::transfer_cycles`]. A [`FaultPlan`] optionally puts a
//! [`FaultInjector`] between the model and its deliveries.
//!
//! All communicated data in a DataScalar machine flows through exactly
//! one fabric, so its statistics are the paper's off-chip traffic
//! numbers.

mod bus;
pub mod chaos;
mod fabric;
mod ring;

pub use chaos::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultStats, StallRule};
pub use fabric::{Fabric, FabricKind};

/// The interconnect's observability probe: the ds-obs recorder when the
/// `obs` feature is on, a zero-sized no-op otherwise.
#[cfg(feature = "obs")]
pub(crate) type NetProbe = ds_obs::Recorder;
/// The disabled probe (ZST).
#[cfg(not(feature = "obs"))]
pub(crate) type NetProbe = ds_obs::NoopProbe;

/// A core-clock cycle count.
pub type Cycle = u64;

/// Index of a fabric port (one per node; the traditional system uses
/// port 0 for the processor chip and port 1 for the off-chip memory).
pub type PortId = usize;

/// What a fabric message is.
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

/// One fabric transaction.
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

/// Fabric geometry and clocking, shared by the bus and the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Number of ports (nodes).
    pub ports: usize,
    /// Width in bytes per bus (or link) cycle.
    pub width_bytes: u64,
    /// Core cycles per bus (or link) cycle (the paper's core runs at
    /// 1 GHz and the off-chip bus far slower; 10 is our default, swept
    /// in Fig. 8).
    pub clock_divisor: u64,
    /// Address/tag header bytes added to every transaction.
    pub header_bytes: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig { ports: 2, width_bytes: 8, clock_divisor: 10, header_bytes: 8 }
    }
}

impl BusConfig {
    /// Core cycles a `payload`-byte message occupies the bus — or one
    /// ring link — while its payload and header serialise.
    pub fn transfer_cycles(&self, payload_bytes: u64) -> Cycle {
        (payload_bytes + self.header_bytes).div_ceil(self.width_bytes) * self.clock_divisor
    }
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions moved, total.
    pub transactions: u64,
    /// Total bytes moved (payload + headers).
    pub bytes: u64,
    /// Core cycles the fabric spent transferring (on the ring, a full
    /// circuit of link transfers per transaction).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_width() {
        let narrow = BusConfig { ports: 2, width_bytes: 8, clock_divisor: 1, header_bytes: 8 };
        // 32 + 8 header = 40 bytes over 8-byte bus = 5 cycles.
        assert_eq!(narrow.transfer_cycles(32), 5);
        let wide = BusConfig { width_bytes: 16, ..narrow };
        assert_eq!(wide.transfer_cycles(32), 3);
        let slow = BusConfig { clock_divisor: 10, ..narrow };
        assert_eq!(slow.transfer_cycles(32), 50);
    }
}
