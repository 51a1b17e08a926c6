//! A unidirectional slotted ring interconnect.
//!
//! §4.4: "We envision a ring interconnect because of the
//! high-performance capability" — on a ring (e.g. the SCI the paper
//! cites), "operations are observed by all nodes if the sender is
//! responsible for removing its own message", which makes broadcast
//! nearly free structurally but introduces exactly the complication the
//! paper calls out: operands originating at different processors are
//! received at other nodes in **different orders**.
//!
//! The model is cut-through (SCI-style): the first link transfer costs
//! the full serialisation time, after which the head forwards one link
//! per link cycle, delivering a copy at every node it passes
//! (broadcast) or only at the destination (point-to-point). The sender
//! removes its own message after a full circuit. Each link reserves
//! bandwidth for the whole message, so unlike the bus, `N` messages can
//! be in flight simultaneously — the ring pipelines.

use crate::{BusStats, Cycle, Delivery, Message, MsgKind, PortId};
use std::collections::VecDeque;

/// Ring geometry and clocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Number of nodes on the ring.
    pub ports: usize,
    /// Link width in bytes per link cycle.
    pub width_bytes: u64,
    /// Core cycles per link cycle.
    pub clock_divisor: u64,
    /// Address/tag header bytes per message.
    pub header_bytes: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig { ports: 2, width_bytes: 8, clock_divisor: 10, header_bytes: 8 }
    }
}

#[derive(Debug, Clone)]
struct Flit {
    msg: Message,
    /// Node the message is currently *at* (just arrived / originated).
    at: PortId,
    /// Hops completed so far.
    hops: usize,
    /// Cycle at which it finishes the next hop.
    next_hop_done: Cycle,
}

/// The ring fabric.
///
/// # Examples
///
/// ```
/// use ds_net::{Message, MsgKind, Ring, RingConfig};
///
/// let mut ring = Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
/// ring.enqueue(Message {
///     src: 0, dest: None, kind: MsgKind::Broadcast,
///     line_addr: 0, payload_bytes: 32, seq: 0, enqueued_at: 0,
/// });
/// let mut arrivals = 0;
/// for now in 0..100 {
///     arrivals += ring.step(now).len();
/// }
/// assert_eq!(arrivals, 3, "all three other nodes hear the broadcast");
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    config: RingConfig,
    /// Messages waiting at each node for its outgoing link.
    queues: Vec<VecDeque<Message>>,
    /// Cycle each node's outgoing link frees up.
    link_free: Vec<Cycle>,
    in_flight: Vec<Flit>,
    /// Reused per-step staging buffer (keeps the hot loop allocation
    /// free).
    scratch: Vec<Flit>,
    stats: BusStats,
}

impl Ring {
    /// Builds an idle ring.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(config: RingConfig) -> Self {
        assert!(config.ports >= 2, "a ring needs at least two nodes");
        assert!(config.width_bytes > 0 && config.clock_divisor > 0);
        Ring {
            queues: vec![VecDeque::new(); config.ports],
            link_free: vec![0; config.ports],
            in_flight: Vec::new(),
            scratch: Vec::new(),
            config,
            stats: BusStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.config
    }

    /// Core cycles one hop takes for a `payload`-byte message.
    pub fn hop_cycles(&self, payload_bytes: u64) -> Cycle {
        (payload_bytes + self.config.header_bytes)
            .div_ceil(self.config.width_bytes)
            * self.config.clock_divisor
    }

    /// Queues a message at its source node.
    ///
    /// # Panics
    ///
    /// Panics on invalid ports.
    pub fn enqueue(&mut self, msg: Message) {
        assert!(msg.src < self.config.ports, "bad source port");
        if let Some(d) = msg.dest {
            assert!(d < self.config.ports, "bad destination port");
            assert!(
                d != msg.src,
                "self-addressed message would circle the ring undelivered"
            );
        }
        self.queues[msg.src].push_back(msg);
    }

    /// True when nothing is queued or circulating.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.queues.iter().all(|q| q.is_empty())
    }

    /// Accumulated statistics (hop-level busy accounting).
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Advances one core cycle; returns deliveries completing now.
    ///
    /// Convenience wrapper over [`Ring::step_into`] — hot loops should
    /// pass a reused buffer to `step_into` instead.
    pub fn step(&mut self, now: Cycle) -> Vec<Delivery> {
        // ds-lint: allow(a1) documented convenience wrapper; the engine's hot loops call step_into with a reused buffer (see fn docs)
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advances one core cycle, clearing `out` and filling it with the
    /// deliveries completing now — no allocation once the buffers have
    /// grown.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        out.clear();
        let ports = self.config.ports;
        // Advance in-flight messages that complete a hop this cycle.
        // `scratch` takes the flits; survivors go back into `in_flight`
        // in the same order.
        let mut flits = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut flits, &mut self.in_flight);
        debug_assert!(self.in_flight.is_empty());
        for mut flit in flits.drain(..) {
            if flit.next_hop_done > now {
                self.in_flight.push(flit);
                continue;
            }
            // Completed the hop to the next node.
            flit.at = (flit.at + 1) % ports;
            flit.hops += 1;
            let back_home = flit.at == flit.msg.src;
            match flit.msg.dest {
                None => {
                    if !back_home {
                        out.push(Delivery { dest: flit.at, msg: flit.msg, at: now });
                    }
                }
                Some(d) => {
                    if flit.at == d {
                        out.push(Delivery { dest: d, msg: flit.msg, at: now });
                    }
                }
            }
            // The sender removes its own message after a full circuit
            // (SCI-style); point-to-point messages still circle back so
            // the sender can observe completion.
            if back_home {
                continue;
            }
            // Cut-through: the head forwards after one link cycle,
            // but the link stays reserved for the full serialisation
            // time behind it.
            let transfer = self.hop_cycles(flit.msg.payload_bytes);
            let start = self.link_free[flit.at].max(now);
            self.link_free[flit.at] = start + transfer;
            flit.next_hop_done = start + self.config.clock_divisor;
            self.in_flight.push(flit);
        }
        self.scratch = flits;
        // Inject new messages where the outgoing link is free.
        for port in 0..ports {
            if self.link_free[port] > now {
                continue;
            }
            let Some(msg) = self.queues[port].pop_front() else { continue };
            let hop = self.hop_cycles(msg.payload_bytes);
            self.link_free[port] = now + hop;
            self.account(&msg, now, hop);
            self.in_flight.push(Flit { msg, at: port, hops: 0, next_hop_done: now + hop });
        }
    }

    /// Earliest future cycle (strictly after `now`) at which stepping
    /// the ring can change its state or deliver anything, assuming no
    /// new messages are enqueued in between — the min over every
    /// circulating flit's next hop completion and, for each node with
    /// queued messages, the cycle its outgoing link frees up.
    /// `Cycle::MAX` when idle. Called after the step at `now`.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = Cycle::MAX;
        for flit in &self.in_flight {
            horizon = horizon.min(flit.next_hop_done);
        }
        for (port, queue) in self.queues.iter().enumerate() {
            if !queue.is_empty() {
                horizon = horizon.min(self.link_free[port].max(now + 1));
            }
        }
        horizon.max(now + 1)
    }

    fn account(&mut self, msg: &Message, now: Cycle, hop: Cycle) {
        let s = &mut self.stats;
        s.transactions += 1;
        s.bytes += msg.payload_bytes + self.config.header_bytes;
        // A full circuit of hops.
        s.busy_cycles += hop * self.config.ports as u64;
        s.queue_delay_cycles += now.saturating_sub(msg.enqueued_at);
        match msg.kind {
            MsgKind::Broadcast => s.broadcasts += 1,
            MsgKind::Request => s.requests += 1,
            MsgKind::Response => s.responses += 1,
            MsgKind::WriteBack | MsgKind::WriteThrough => s.writes += 1,
            MsgKind::RetransmitReq => s.retransmits += 1,
        }
    }

    /// Appends every queued or circulating message to `out`
    /// (deadlock-report introspection; cold path).
    pub fn pending_into(&self, out: &mut Vec<Message>) {
        for flit in &self.in_flight {
            out.push(flit.msg);
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

    fn msg(src: PortId, dest: Option<PortId>, seq: u64) -> Message {
        Message {
            src,
            dest,
            kind: if dest.is_some() { MsgKind::Response } else { MsgKind::Broadcast },
            line_addr: 0x1000,
            payload_bytes: 32,
            seq,
            enqueued_at: 0,
        }
    }

    fn run(ring: &mut Ring, cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for now in 0..cycles {
            out.extend(ring.step(now));
        }
        out
    }

    #[test]
    fn broadcast_reaches_every_other_node_in_ring_order() {
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(1, None, 0));
        let got = run(&mut ring, 100);
        let dests: Vec<usize> = got.iter().map(|d| d.dest).collect();
        assert_eq!(dests, vec![2, 3, 0], "downstream ring order from node 1");
        assert!(ring.is_idle());
    }

    #[test]
    fn neighbours_hear_broadcasts_sooner_than_distant_nodes() {
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(0, None, 0));
        let got = run(&mut ring, 100);
        // First hop serialises the whole 40-byte message (5 cycles);
        // the head then cuts through one link per cycle.
        assert_eq!(got[0].at, 5);
        assert_eq!(got[1].at, 6);
        assert_eq!(got[2].at, 7);
    }

    #[test]
    fn point_to_point_delivers_only_at_destination() {
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(0, Some(2), 0));
        let got = run(&mut ring, 100);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dest, 2);
        assert_eq!(got[0].at, 6, "serialise + one cut-through hop");
        assert!(ring.is_idle(), "message removed after the circuit");
    }

    #[test]
    fn ring_pipelines_multiple_messages() {
        // Two nodes broadcasting simultaneously on a 4-ring: both
        // finish far sooner than serialised bus transfers would.
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(0, None, 0));
        ring.enqueue(msg(2, None, 1));
        let got = run(&mut ring, 200);
        assert_eq!(got.len(), 6);
        let last = got.iter().map(|d| d.at).max().unwrap();
        assert!(last <= 25, "pipelined circuits, finished at {last}");
    }

    #[test]
    fn messages_from_different_sources_arrive_in_different_orders() {
        // The paper's §4.4 complication: node 1 and node 3 observe the
        // same pair of broadcasts in opposite orders.
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(0, None, 100));
        ring.enqueue(msg(2, None, 200));
        let got = run(&mut ring, 200);
        let order_at = |node: usize| -> Vec<u64> {
            got.iter().filter(|d| d.dest == node).map(|d| d.msg.seq).collect()
        };
        assert_eq!(order_at(1), vec![100, 200]);
        assert_eq!(order_at(3), vec![200, 100]);
    }

    #[test]
    fn link_contention_serialises_at_the_busy_node() {
        let mut ring =
            Ring::new(RingConfig { ports: 2, width_bytes: 8, clock_divisor: 1, header_bytes: 8 });
        ring.enqueue(msg(0, None, 0));
        ring.enqueue(msg(0, None, 1));
        let got = run(&mut ring, 100);
        assert_eq!(got.len(), 2);
        assert!(got[1].at >= got[0].at + 5, "same outgoing link");
    }

    #[test]
    fn next_event_matches_naive_stepping() {
        let mut ring =
            Ring::new(RingConfig { ports: 4, width_bytes: 8, clock_divisor: 3, header_bytes: 8 });
        ring.enqueue(msg(0, None, 0));
        ring.enqueue(msg(2, None, 1));
        let mut horizon = 0;
        for now in 0..300u64 {
            let got = ring.step(now);
            if !got.is_empty() {
                assert!(now >= horizon, "delivery at {now} inside skippable range (horizon {horizon})");
            }
            horizon = ring.next_event(now);
            assert!(horizon > now, "horizon must be in the future");
        }
        assert!(ring.is_idle());
        assert_eq!(ring.next_event(300), Cycle::MAX, "idle ring has no events");
    }

    #[test]
    fn stats_accumulate() {
        let mut ring = Ring::new(RingConfig::default());
        ring.enqueue(msg(0, None, 0));
        ring.enqueue(msg(1, Some(0), 1));
        run(&mut ring, 1000);
        let s = ring.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.responses, 1);
        assert_eq!(s.bytes, 80);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_ring_rejected() {
        Ring::new(RingConfig { ports: 1, ..Default::default() });
    }
}
