//! The unidirectional slotted-ring timing model.
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

use crate::fabric::Ports;
use crate::{Cycle, Delivery, Message, PortId};

#[derive(Debug, Clone)]
struct Flit {
    msg: Message,
    /// Node the message is currently *at* (just arrived / originated).
    at: PortId,
    /// Cycle at which it finishes the next hop.
    next_hop_done: Cycle,
}

/// Link reservations and circulating messages.
#[derive(Debug, Clone)]
pub(crate) struct Ring {
    /// Cycle each node's outgoing link frees up.
    link_free: Vec<Cycle>,
    in_flight: Vec<Flit>,
}

impl Ring {
    /// An idle ring of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Ring { link_free: vec![0; nodes], in_flight: Vec::new() }
    }

    /// Advances one core cycle, appending the deliveries completing
    /// now to `out` — no allocation once the buffers have grown.
    pub(crate) fn step_into(&mut self, ports: &mut Ports, now: Cycle, out: &mut Vec<Delivery>) {
        let config = ports.config;
        let n = config.ports;
        // Advance the flits that complete a hop this cycle; the rest
        // keep their places.
        let link_free = &mut self.link_free;
        self.in_flight.retain_mut(|flit| {
            if flit.next_hop_done > now {
                return true;
            }
            flit.at = (flit.at + 1) % n;
            let back_home = flit.at == flit.msg.src;
            if flit.msg.dest.map_or(!back_home, |d| d == flit.at) {
                out.push(Delivery { dest: flit.at, msg: flit.msg, at: now });
            }
            // The sender removes its own message after a full circuit
            // (SCI-style); point-to-point messages still circle back so
            // the sender can observe completion.
            if back_home {
                return false;
            }
            // Cut-through: the head forwards after one link cycle, but
            // the link stays reserved for the full serialisation time
            // behind it.
            let start = link_free[flit.at].max(now);
            link_free[flit.at] = start + config.transfer_cycles(flit.msg.payload_bytes);
            flit.next_hop_done = start + config.clock_divisor;
            true
        });
        // Inject new messages where the outgoing link is free.
        for port in 0..n {
            if self.link_free[port] > now {
                continue;
            }
            let Some(msg) = ports.queues[port].pop_front() else { continue };
            let hop = config.transfer_cycles(msg.payload_bytes);
            self.link_free[port] = now + hop;
            // Busy for a full circuit of hops.
            ports.account(&msg, now, hop * n as u64);
            self.in_flight.push(Flit { msg, at: port, next_hop_done: now + hop });
        }
    }

    /// Earliest cycle after `now` at which stepping can change the
    /// ring's state: the min over every circulating flit's next hop
    /// completion and, for each node with queued messages, the cycle
    /// its outgoing link frees up. `Cycle::MAX` when idle.
    pub(crate) fn next_event(&self, ports: &Ports, now: Cycle) -> Cycle {
        let mut horizon = Cycle::MAX;
        for flit in &self.in_flight {
            horizon = horizon.min(flit.next_hop_done);
        }
        for (port, queue) in ports.queues.iter().enumerate() {
            if !queue.is_empty() {
                horizon = horizon.min(self.link_free[port].max(now + 1));
            }
        }
        horizon.max(now + 1)
    }

    /// True when nothing circulates.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Appends every circulating message to `out`.
    pub(crate) fn pending_into(&self, out: &mut Vec<Message>) {
        out.extend(self.in_flight.iter().map(|flit| flit.msg));
    }
}

#[cfg(test)]
mod tests {
    use crate::fabric::tests::{fast, msg, run};
    use crate::{BusConfig, Cycle, Fabric, FabricKind, Message, MsgKind, PortId};

    fn ring(config: BusConfig) -> Fabric {
        Fabric::new(FabricKind::Ring, config)
    }

    fn tagged(src: PortId, dest: Option<PortId>, seq: u64) -> Message {
        let kind = if dest.is_some() { MsgKind::Response } else { MsgKind::Broadcast };
        Message { seq, ..msg(src, dest, kind, 0) }
    }

    #[test]
    fn broadcast_reaches_every_other_node_in_ring_order() {
        let mut ring = ring(fast(4));
        ring.enqueue(tagged(1, None, 0));
        let dests: Vec<usize> = run(&mut ring, 100).iter().map(|d| d.dest).collect();
        assert_eq!(dests, vec![2, 3, 0], "downstream ring order from node 1");
        assert!(ring.is_idle());
    }

    #[test]
    fn neighbours_hear_broadcasts_sooner_than_distant_nodes() {
        let mut ring = ring(fast(4));
        ring.enqueue(tagged(0, None, 0));
        let got = run(&mut ring, 100);
        // First hop serialises the whole 40-byte message (5 cycles);
        // the head then cuts through one link per cycle.
        assert_eq!(got[0].at, 5);
        assert_eq!(got[1].at, 6);
        assert_eq!(got[2].at, 7);
    }

    #[test]
    fn point_to_point_delivers_only_at_destination() {
        let mut ring = ring(fast(4));
        ring.enqueue(tagged(0, Some(2), 0));
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
        let mut ring = ring(fast(4));
        ring.enqueue(tagged(0, None, 0));
        ring.enqueue(tagged(2, None, 1));
        let got = run(&mut ring, 200);
        assert_eq!(got.len(), 6);
        let last = got.iter().map(|d| d.at).max().unwrap();
        assert!(last <= 25, "pipelined circuits, finished at {last}");
    }

    #[test]
    fn messages_from_different_sources_arrive_in_different_orders() {
        // The paper's §4.4 complication: node 1 and node 3 observe the
        // same pair of broadcasts in opposite orders.
        let mut ring = ring(fast(4));
        ring.enqueue(tagged(0, None, 100));
        ring.enqueue(tagged(2, None, 200));
        let got = run(&mut ring, 200);
        let order_at = |node: usize| -> Vec<u64> {
            got.iter().filter(|d| d.dest == node).map(|d| d.msg.seq).collect()
        };
        assert_eq!(order_at(1), vec![100, 200]);
        assert_eq!(order_at(3), vec![200, 100]);
    }

    #[test]
    fn link_contention_serialises_at_the_busy_node() {
        let mut ring = ring(fast(2));
        ring.enqueue(tagged(0, None, 0));
        ring.enqueue(tagged(0, None, 1));
        let got = run(&mut ring, 100);
        assert_eq!(got.len(), 2);
        assert!(got[1].at >= got[0].at + 5, "same outgoing link");
    }

    #[test]
    fn next_event_matches_naive_stepping() {
        let mut ring = ring(BusConfig { clock_divisor: 3, ..fast(4) });
        ring.enqueue(tagged(0, None, 0));
        ring.enqueue(tagged(2, None, 1));
        let (mut horizon, mut out) = (0, Vec::new());
        for now in 0..300u64 {
            ring.step_into(now, &mut out);
            if !out.is_empty() {
                assert!(
                    now >= horizon,
                    "delivery at {now} inside skippable range (horizon {horizon})"
                );
            }
            horizon = ring.next_event(now);
            assert!(horizon > now, "horizon must be in the future");
        }
        assert!(ring.is_idle());
        assert_eq!(ring.next_event(300), Cycle::MAX, "idle ring has no events");
    }

    #[test]
    fn busy_cycles_count_a_full_circuit() {
        let mut ring = ring(BusConfig::default());
        ring.enqueue(tagged(0, None, 0));
        ring.enqueue(tagged(1, Some(0), 1));
        run(&mut ring, 1000);
        let s = ring.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.responses, 1);
        // 40 bytes over 8-byte links at divisor 10, twice around.
        assert_eq!(s.busy_cycles, 2 * 50 * 2);
    }
}
