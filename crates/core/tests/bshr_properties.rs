//! Property tests over the BSHR under random interleavings of
//! requests, arrivals and squashes: nothing leaks, nothing double
//! completes, occupancy accounting stays consistent. Also models
//! `LineMap` (the sorted-vec map under the BSHR, DCUB and traditional
//! wait lists since PR 1) against `BTreeMap` under random
//! insert/remove/lookup interleavings.

use ds_core::bshr::{Arrival, Bshr};
use ds_core::linemap::LineMap;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A load requests `line` (tag supplied by index).
    Request(u64),
    /// A broadcast for `line` arrives.
    Arrive(u64),
    /// The correspondence protocol posts a squash for `line`.
    Squash(u64),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (0u64..8, 0u8..3).prop_map(|(line, kind)| {
        let line = line * 64;
        match kind {
            0 => Event::Request(line),
            1 => Event::Arrive(line),
            _ => Event::Squash(line),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_leaks_no_double_completion(
        events in prop::collection::vec(event_strategy(), 1..200),
    ) {
        let mut bshr = Bshr::new(16, 2);
        let mut completed: Vec<u64> = Vec::new(); // tags
        let mut outstanding: BTreeMap<u64, Vec<u64>> = BTreeMap::new(); // line -> tags
        for (i, &ev) in events.iter().enumerate() {
            let tag = i as u64;
            let now = i as u64 * 10;
            match ev {
                Event::Request(line) => {
                    // Mirror the node's usage: join an existing wait via
                    // the entry map, else request.
                    match outstanding.get_mut(&line) {
                        Some(tags) => {
                            bshr.join_wait(line, tag);
                            tags.push(tag);
                        }
                        None => {
                            if bshr.request(line, tag, now).is_none() {
                                outstanding.insert(line, vec![tag]);
                            } else {
                                completed.push(tag); // satisfied from buffer
                            }
                        }
                    }
                }
                Event::Arrive(line) => match bshr.on_arrival(line, now) {
                    Arrival::Completed(waiters) => {
                        let expect = outstanding.remove(&line).unwrap_or_default();
                        let got: Vec<u64> = waiters.iter().map(|&(t, _)| t).collect();
                        prop_assert_eq!(&got, &expect, "wrong waiters for line {:#x}", line);
                        for (t, ready) in waiters {
                            prop_assert!(ready >= now, "completion in the past");
                            completed.push(t);
                        }
                    }
                    Arrival::Buffered | Arrival::Squashed => {}
                },
                Event::Squash(line) => {
                    // Squashes must never kill an outstanding wait.
                    bshr.post_squash(line);
                    prop_assert!(
                        !outstanding.contains_key(&line) || bshr.has_wait(line),
                        "squash destroyed a wait for {:#x}", line
                    );
                }
            }
        }
        // Every completion is unique.
        let mut unique = completed.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), completed.len(), "double completion");
        // Residual waits are exactly the outstanding map.
        for line in outstanding.keys() {
            prop_assert!(bshr.has_wait(*line), "wait for {:#x} vanished", line);
        }
    }

    #[test]
    fn occupancy_never_negative_and_stats_monotone(
        events in prop::collection::vec(event_strategy(), 1..100),
    ) {
        let mut bshr = Bshr::new(4, 1);
        let mut last_arrivals = 0;
        let mut have_wait: BTreeSet<u64> = Default::default();
        for (i, &ev) in events.iter().enumerate() {
            match ev {
                Event::Request(line) => {
                    if have_wait.contains(&line) {
                        bshr.join_wait(line, i as u64);
                    } else if bshr.request(line, i as u64, 0).is_none() {
                        have_wait.insert(line);
                    }
                }
                Event::Arrive(line) => {
                    if let Arrival::Completed(_) = bshr.on_arrival(line, 0) {
                        have_wait.remove(&line);
                    }
                }
                Event::Squash(line) => bshr.post_squash(line),
            }
            let s = bshr.stats();
            prop_assert!(s.arrivals >= last_arrivals);
            last_arrivals = s.arrivals;
            prop_assert!(bshr.occupancy() <= events.len());
            prop_assert!(s.max_occupancy >= bshr.occupancy());
        }
    }
}

/// One `LineMap` operation for the model test.
#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u64, u32),
    Remove(u64),
    Lookup(u64),
    GetOrDefault(u64),
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    // A small line universe so inserts, removes and lookups collide
    // often — the interesting paths are the collisions.
    (0u64..24, 0u32..1000, 0u8..4).prop_map(|(line, val, kind)| {
        let line = line * 64;
        match kind {
            0 => MapOp::Insert(line, val),
            1 => MapOp::Remove(line),
            2 => MapOp::Lookup(line),
            _ => MapOp::GetOrDefault(line),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `LineMap` behaves exactly like `BTreeMap` — same returns from
    /// every operation, same contents, same (sorted) iteration order.
    #[test]
    fn linemap_matches_btreemap_model(
        ops in prop::collection::vec(map_op_strategy(), 1..200),
    ) {
        let mut map: LineMap<u32> = LineMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for &op in &ops {
            match op {
                MapOp::Insert(line, val) => {
                    prop_assert_eq!(map.insert(line, val), model.insert(line, val));
                }
                MapOp::Remove(line) => {
                    prop_assert_eq!(map.remove(line), model.remove(&line));
                }
                MapOp::Lookup(line) => {
                    prop_assert_eq!(map.get(line), model.get(&line));
                    prop_assert_eq!(map.contains_key(line), model.contains_key(&line));
                }
                MapOp::GetOrDefault(line) => {
                    prop_assert_eq!(
                        *map.get_mut_or_default(line),
                        *model.entry(line).or_default()
                    );
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            // Entry-for-entry identical in the same (ascending) order:
            // LineMap iteration is deterministic and sorted, which is
            // what lets it replace hash maps under the d1 lint rule.
            prop_assert!(
                map.entries().iter().map(|&(k, v)| (k, v)).eq(model.iter().map(|(&k, &v)| (k, v))),
                "entry streams diverged"
            );
        }
    }
}
