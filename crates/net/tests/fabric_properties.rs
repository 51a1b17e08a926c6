//! Property tests over both fabric kinds: conservation (every enqueued
//! message is delivered exactly the right number of times), ordering,
//! and accounting.

use ds_net::{BusConfig, Delivery, Fabric, FabricKind, Message, MsgKind, PortId};
use proptest::prelude::*;

const KINDS: [FabricKind; 2] = [FabricKind::Bus, FabricKind::Ring];

#[derive(Debug, Clone)]
struct MsgSpec {
    src: PortId,
    dest: Option<PortId>,
    payload: u64,
    enqueue_at: u64,
}

fn msg_strategy(ports: usize) -> impl Strategy<Value = MsgSpec> {
    (0..ports, prop::option::of(0..ports), 0u64..128, 0u64..200).prop_filter_map(
        "dest != src for point-to-point",
        move |(src, dest, payload, enqueue_at)| {
            if dest == Some(src) {
                return None;
            }
            Some(MsgSpec { src, dest, payload, enqueue_at })
        },
    )
}

/// Folds specs drawn for up to six ports onto `ports` ports.
fn fold_onto(ports: usize, specs: Vec<MsgSpec>) -> Vec<MsgSpec> {
    specs
        .into_iter()
        .map(|mut s| {
            s.src %= ports;
            s.dest = s.dest.map(|d| d % ports).filter(|&d| d != s.src);
            s
        })
        .collect()
}

/// Enqueues every spec at its cycle (message id = index, carried in
/// `seq`) and steps the fabric through one reused delivery buffer until
/// it drains.
fn drive(kind: FabricKind, config: BusConfig, specs: &[MsgSpec]) -> (Vec<Delivery>, Fabric) {
    let mut fabric = Fabric::new(kind, config);
    let mut sorted: Vec<(usize, &MsgSpec)> = specs.iter().enumerate().collect();
    sorted.sort_by_key(|&(i, s)| (s.enqueue_at, i));
    let (mut deliveries, mut out) = (Vec::new(), Vec::new());
    let mut cursor = 0;
    let mut now = 0u64;
    // Run until everything drains (bounded by a generous budget).
    while (cursor < sorted.len() || !fabric.is_idle()) && now < 2_000_000 {
        while cursor < sorted.len() && sorted[cursor].1.enqueue_at <= now {
            let (i, s) = sorted[cursor];
            fabric.enqueue(Message {
                src: s.src,
                dest: s.dest,
                kind: if s.dest.is_some() { MsgKind::Response } else { MsgKind::Broadcast },
                line_addr: i as u64 * 64,
                payload_bytes: s.payload,
                seq: i as u64,
                enqueued_at: s.enqueue_at,
            });
            cursor += 1;
        }
        fabric.step_into(now, &mut out);
        deliveries.extend_from_slice(&out);
        now += 1;
    }
    (deliveries, fabric)
}

fn geometry(ports: usize, width_bytes: u64, clock_divisor: u64) -> BusConfig {
    BusConfig { ports, width_bytes, clock_divisor, header_bytes: 8 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_message_is_delivered_exactly_once_per_recipient(
        ports in 2usize..6,
        width in prop_oneof![Just(4u64), Just(8), Just(16)],
        divisor in 1u64..12,
        specs in prop::collection::vec(msg_strategy(6), 1..40),
    ) {
        let specs = fold_onto(ports, specs);
        for kind in KINDS {
            let (deliveries, fabric) = drive(kind, geometry(ports, width, divisor), &specs);
            prop_assert!(fabric.is_idle(), "{:?} failed to drain", kind);
            for (i, s) in specs.iter().enumerate() {
                let got: Vec<&Delivery> =
                    deliveries.iter().filter(|d| d.msg.seq == i as u64).collect();
                match s.dest {
                    Some(d) => {
                        prop_assert_eq!(got.len(), 1, "{:?}: msg {} point-to-point", kind, i);
                        prop_assert_eq!(got[0].dest, d);
                    }
                    None => {
                        prop_assert_eq!(got.len(), ports - 1, "{:?}: msg {} fan-out", kind, i);
                        let mut dests: Vec<usize> = got.iter().map(|d| d.dest).collect();
                        dests.sort_unstable();
                        dests.dedup();
                        prop_assert_eq!(dests.len(), ports - 1);
                        prop_assert!(!dests.contains(&s.src));
                    }
                }
            }
            prop_assert_eq!(fabric.stats().transactions, specs.len() as u64);
        }
    }

    #[test]
    fn same_source_messages_deliver_in_fifo_order(
        count in 2usize..20,
        divisor in 1u64..8,
    ) {
        let specs: Vec<MsgSpec> = (0..count)
            .map(|_| MsgSpec { src: 0, dest: Some(1), payload: 32, enqueue_at: 0 })
            .collect();
        for kind in KINDS {
            let (deliveries, _) = drive(kind, geometry(2, 8, divisor), &specs);
            let seqs: Vec<u64> = deliveries.iter().map(|d| d.msg.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted, "{:?}: per-port FIFO violated", kind);
        }
    }

    #[test]
    fn bytes_accounting_matches_payloads(
        specs in prop::collection::vec(msg_strategy(3), 1..20),
    ) {
        let specs = fold_onto(3, specs);
        let expected: u64 = specs.iter().map(|s| s.payload + 8).sum();
        for kind in KINDS {
            let (_, fabric) = drive(kind, geometry(3, 8, 2), &specs);
            prop_assert_eq!(fabric.stats().bytes, expected, "{:?}", kind);
        }
    }

    #[test]
    fn deliveries_never_precede_enqueue_plus_transfer(
        specs in prop::collection::vec(msg_strategy(4), 1..25),
        divisor in 1u64..6,
    ) {
        let specs = fold_onto(4, specs);
        let config = geometry(4, 8, divisor);
        for kind in KINDS {
            let (deliveries, _) = drive(kind, config, &specs);
            for d in &deliveries {
                let min_transfer = config.transfer_cycles(d.msg.payload_bytes);
                prop_assert!(
                    d.at >= d.msg.enqueued_at + min_transfer,
                    "{:?}: delivery at {} before enqueue {} + transfer {}",
                    kind, d.at, d.msg.enqueued_at, min_transfer
                );
            }
        }
    }
}
