//! The shared-bus timing model (the paper's evaluated interconnect,
//! §4.2): round-robin arbitration among the port queues on bus-clock
//! edges (`now % clock_divisor == 0`), and one transaction in flight at
//! a time, occupying the bus for its whole transfer. When it completes,
//! a broadcast is delivered at every port except the sender's, a
//! point-to-point message at its destination.

use crate::fabric::Ports;
use crate::{Cycle, Delivery, Message};
use ds_obs::Flavour;

#[derive(Debug, Clone, Copy)]
struct InFlight {
    msg: Message,
    done_at: Cycle,
}

/// Bus arbitration and occupancy state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bus {
    in_flight: Option<InFlight>,
    /// The port the next arbitration round starts from.
    next_port: usize,
}

impl Bus {
    /// Advances one core cycle, appending the deliveries completing
    /// now to `out`.
    pub(crate) fn step_into<F: Flavour>(
        &mut self,
        ports: &mut Ports<F>,
        now: Cycle,
        out: &mut Vec<Delivery>,
    ) {
        if let Some(InFlight { msg, .. }) = self.in_flight.take_if(|fl| fl.done_at <= now) {
            match msg.dest {
                Some(d) => out.push(Delivery { dest: d, msg, at: now }),
                None => {
                    for p in 0..ports.config.ports {
                        if p != msg.src {
                            out.push(Delivery { dest: p, msg, at: now });
                        }
                    }
                }
            }
        }
        if self.in_flight.is_none() && now.is_multiple_of(ports.config.clock_divisor) {
            if let Some(msg) = self.arbitrate(ports) {
                let busy = ports.config.transfer_cycles(msg.payload_bytes);
                ports.account(&msg, now, busy);
                self.in_flight = Some(InFlight { msg, done_at: now + busy });
            }
        }
    }

    /// Earliest cycle after `now` at which stepping can change the
    /// bus's state: the in-flight transfer's completion or, with only
    /// queued work, the next bus-clock edge. `Cycle::MAX` when idle.
    pub(crate) fn next_event<F: Flavour>(&self, ports: &Ports<F>, now: Cycle) -> Cycle {
        if let Some(fl) = &self.in_flight {
            return fl.done_at.max(now + 1);
        }
        if ports.is_empty() {
            return Cycle::MAX;
        }
        let d = ports.config.clock_divisor;
        (now / d + 1) * d
    }

    /// True when no transaction is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.in_flight.is_none()
    }

    /// Appends the in-flight message, if any, to `out`.
    pub(crate) fn pending_into(&self, out: &mut Vec<Message>) {
        out.extend(self.in_flight.map(|fl| fl.msg));
    }

    fn arbitrate<F: Flavour>(&mut self, ports: &mut Ports<F>) -> Option<Message> {
        let n = ports.config.ports;
        for i in 0..n {
            let p = (self.next_port + i) % n;
            if let Some(msg) = ports.queues[p].pop_front() {
                self.next_port = (p + 1) % n;
                return Some(msg);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::fabric::tests::{fast, msg, run};
    use crate::{BusConfig, Cycle, Fabric, FabricKind, MsgKind};

    fn bus(config: BusConfig) -> Fabric {
        Fabric::new(FabricKind::Bus, config)
    }

    #[test]
    fn broadcast_reaches_all_other_ports() {
        let mut bus = bus(fast(4));
        bus.enqueue(msg(1, None, MsgKind::Broadcast, 0));
        let dests: Vec<_> = run(&mut bus, 20).iter().map(|d| d.dest).collect();
        assert_eq!(dests, vec![0, 2, 3]);
    }

    #[test]
    fn divisor_slows_transfers() {
        let mut bus = bus(BusConfig { clock_divisor: 10, ..fast(2) });
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let at = run(&mut bus, 200).first().map(|d| d.at);
        assert_eq!(at, Some(50), "5 bus cycles x divisor 10");
    }

    #[test]
    fn round_robin_arbitration() {
        let mut bus = bus(fast(3));
        bus.enqueue(msg(2, Some(0), MsgKind::Response, 0));
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        bus.enqueue(msg(1, Some(2), MsgKind::Response, 0));
        let order: Vec<_> = run(&mut bus, 100).iter().map(|d| d.msg.src).collect();
        assert_eq!(order, vec![0, 1, 2], "round robin from port 0");
        assert!(bus.is_idle());
    }

    #[test]
    fn one_transaction_at_a_time() {
        let mut bus = bus(fast(2));
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 0));
        let times: Vec<_> = run(&mut bus, 100).iter().map(|d| d.at).collect();
        assert_eq!(times.len(), 2);
        assert!(times[1] >= times[0] + 5, "second waits for the first");
    }

    #[test]
    fn next_event_matches_naive_stepping() {
        // Step a divisor-10 bus naively; at every cycle, verify that
        // cycles before the reported horizon neither deliver nor change
        // state, by checking deliveries only ever arrive at or after it.
        let mut bus = bus(BusConfig { clock_divisor: 10, ..fast(3) });
        bus.enqueue(msg(0, None, MsgKind::Broadcast, 0));
        bus.enqueue(msg(1, Some(2), MsgKind::Response, 0));
        let (mut horizon, mut out) = (0, Vec::new());
        for now in 0..400u64 {
            bus.step_into(now, &mut out);
            if !out.is_empty() {
                assert!(
                    now >= horizon,
                    "delivery at {now} inside skippable range (horizon {horizon})"
                );
            }
            horizon = bus.next_event(now);
            assert!(horizon > now, "horizon must be in the future");
        }
        assert!(bus.is_idle());
        assert_eq!(bus.next_event(400), Cycle::MAX, "idle bus has no events");
    }

    #[test]
    fn next_event_of_queued_bus_is_the_next_clock_edge() {
        let mut bus = bus(BusConfig { clock_divisor: 10, ..fast(2) });
        // A message enqueued between bus-clock edges waits for the next
        // edge: that edge is the horizon.
        bus.step_into(5, &mut Vec::new());
        bus.enqueue(msg(0, Some(1), MsgKind::Response, 5));
        assert_eq!(bus.next_event(5), 10);
        assert_eq!(bus.next_event(9), 10);
    }
}
