//! Model-based testing of the page table: the flat, run-indexed table
//! must answer every query exactly as the straightforward `BTreeMap`
//! table it replaced, and number its declared pages densely in address
//! order.

use ds_mem::{Addr, NodeId, PageClass, PageTableBuilder, Segment};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The reference: one `BTreeMap` entry per declared page, built the way
/// the builder always has (replicated first, then the round-robin
/// owner, else `vpn % nodes`), and looked up by dividing.
struct RefTable {
    page_size: u64,
    nodes: usize,
    entries: BTreeMap<u64, (PageClass, Segment)>,
}

impl RefTable {
    fn classify(&self, addr: Addr) -> PageClass {
        let vpn = addr / self.page_size;
        match self.entries.get(&vpn) {
            Some(&(class, _)) => class,
            None => PageClass::Owned((vpn % self.nodes as u64) as NodeId),
        }
    }

    fn segment(&self, addr: Addr) -> Option<Segment> {
        self.entries.get(&(addr / self.page_size)).map(|&(_, s)| s)
    }
}

/// Everything a builder can be told, in the order a system tells it.
#[derive(Debug, Clone)]
struct Layout {
    page_shift: u32,
    nodes: usize,
    /// `(start, end, segment)` byte ranges.
    regions: Vec<(Addr, Addr, Segment)>,
    replicated_pages: Vec<Addr>,
    replicated_segments: Vec<Segment>,
    /// `None`: never distributed (declared pages fall back to
    /// `vpn % nodes`).
    block_pages: Option<u64>,
}

impl Layout {
    fn page_size(&self) -> u64 {
        1 << self.page_shift
    }

    fn reference(&self) -> RefTable {
        let ps = self.page_size();
        let mut segments = BTreeMap::new();
        for &(start, end, seg) in &self.regions {
            for vpn in start / ps..=(end - 1) / ps {
                segments.insert(vpn, seg);
            }
        }
        let mut replicated: BTreeSet<u64> = self.replicated_pages.iter().map(|a| a / ps).collect();
        for &seg in &self.replicated_segments {
            replicated.extend(segments.iter().filter(|(_, &s)| s == seg).map(|(&v, _)| v));
        }
        let mut owners = BTreeMap::new();
        if let Some(block) = self.block_pages {
            for seg in Segment::ALL {
                let vpns = segments.iter().filter(|(v, &s)| s == seg && !replicated.contains(v));
                for (i, (&vpn, _)) in vpns.enumerate() {
                    owners.insert(vpn, ((i as u64 / block) % self.nodes as u64) as NodeId);
                }
            }
        }
        let entries = segments
            .iter()
            .map(|(&vpn, &seg)| {
                let class = if replicated.contains(&vpn) {
                    PageClass::Replicated
                } else {
                    PageClass::Owned(
                        owners.get(&vpn).copied().unwrap_or((vpn % self.nodes as u64) as NodeId),
                    )
                };
                (vpn, (class, seg))
            })
            .collect();
        RefTable { page_size: ps, nodes: self.nodes, entries }
    }
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    (0usize..4).prop_map(|i| Segment::ALL[i])
}

/// Page sizes 16 B to 64 KiB; regions laid out upward with gaps of zero
/// (adjacent segments) to three pages and unaligned ends; a few
/// replicated pages, some outside every region.
fn layout_strategy() -> impl Strategy<Value = Layout> {
    (
        4u32..17,
        1usize..6,
        prop::collection::vec((0u64..4, 1u64..40, 0u64..4096, 0u64..4096, segment_strategy()), 1..6),
        prop::collection::vec(0u64..200, 0..6),
        prop::collection::vec(segment_strategy(), 0..3),
        prop::option::of(1u64..5),
    )
        .prop_map(|(page_shift, nodes, raw, rep_pages, replicated_segments, block_pages)| {
            let ps = 1u64 << page_shift;
            let mut page = 0;
            let mut regions = Vec::new();
            for (gap, pages, start_off, end_off, seg) in raw {
                page += gap;
                let start = page * ps + start_off % ps;
                let end = ((page + pages - 1) * ps + 1 + end_off % ps).max(start + 1);
                regions.push((start, end, seg));
                page += pages;
            }
            Layout {
                page_shift,
                nodes,
                regions,
                replicated_pages: rep_pages.into_iter().map(|p| p * ps + ps / 2).collect(),
                replicated_segments,
                block_pages,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_table_matches_reference_model(
        layout in layout_strategy(),
        probes in prop::collection::vec(0u64..(1 << 24), 1..200),
    ) {
        let ps = layout.page_size();
        let mut b = PageTableBuilder::new(ps, layout.nodes);
        for &(start, end, seg) in &layout.regions {
            b.add_region(start, end, seg);
        }
        for &addr in &layout.replicated_pages {
            b.replicate_page_of(addr);
        }
        for &seg in &layout.replicated_segments {
            b.replicate_segment(seg);
        }
        if let Some(block) = layout.block_pages {
            b.distribute_round_robin(block);
        }
        let pt = b.build();
        let model = layout.reference();

        prop_assert_eq!(pt.declared_pages(), model.entries.len());
        prop_assert_eq!(
            pt.replicated_per_segment(),
            Segment::ALL.map(|seg| model
                .entries
                .values()
                .filter(|&&(c, s)| s == seg && c == PageClass::Replicated)
                .count())
        );
        for node in 0..layout.nodes {
            let owned = model.entries.values().filter(|&&(c, _)| c == PageClass::Owned(node)).count();
            prop_assert_eq!(pt.pages_owned_by(node), owned);
        }

        // Dense ordinals, in vpn order, at both ends of every page.
        for (i, &vpn) in model.entries.keys().enumerate() {
            prop_assert_eq!(pt.ordinal(vpn * ps), Some(i));
            prop_assert_eq!(pt.ordinal(vpn * ps + ps - 1), Some(i));
        }

        // Probes: random addresses over and past the layout (scaled to
        // the page size), every region edge, and the address extremes.
        let mut addrs: Vec<Addr> = probes.iter().map(|&p| p * ps >> 12).collect();
        for &(start, end, _) in &layout.regions {
            addrs.extend([start, end - 1, end, start.saturating_sub(ps), end + ps]);
        }
        addrs.extend([0, u64::MAX]);
        for addr in addrs {
            let class = model.classify(addr);
            prop_assert_eq!(pt.classify(addr), class, "classify({:#x})", addr);
            prop_assert_eq!(pt.segment(addr), model.segment(addr), "segment({:#x})", addr);
            prop_assert_eq!(pt.ordinal(addr).is_some(), model.segment(addr).is_some());
            prop_assert_eq!(pt.vpn(addr), addr / ps);
            for node in 0..layout.nodes {
                let local = class == PageClass::Replicated || class == PageClass::Owned(node);
                prop_assert_eq!(pt.is_local(addr, node), local, "is_local({:#x}, {})", addr, node);
            }
        }
    }
}
