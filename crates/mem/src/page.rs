//! The page table: replicated/communicated classification and
//! page ownership.
//!
//! The paper (§2, §4.2) divides the address space into *replicated*
//! pages, mapped in every node's local memory, and *communicated*
//! pages, each owned by exactly one node. The page table carries one
//! replicated bit and one ownership bit per page; we also tag each page
//! with its [`Segment`] so the Table 2 experiment can report replication
//! per segment.

use crate::Addr;
use std::collections::BTreeMap;

/// Identifier of a DataScalar node (processor/memory module).
pub type NodeId = usize;

/// Program segment a page belongs to, used for Table 2's per-segment
/// replication accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Program text.
    Text,
    /// Global (static) data.
    Global,
    /// Heap.
    Heap,
    /// Stack.
    Stack,
}

impl Segment {
    /// All segments in display order.
    pub const ALL: [Segment; 4] = [Segment::Text, Segment::Global, Segment::Heap, Segment::Stack];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Segment::Text => "text",
            Segment::Global => "global",
            Segment::Heap => "heap",
            Segment::Stack => "stack",
        }
    }
}

/// Classification of an address by the page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// Mapped in every node's local memory; accesses always complete
    /// locally and are never broadcast.
    Replicated,
    /// Communicated: owned by exactly one node, which services and
    /// broadcasts it.
    Owned(NodeId),
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    class: PageClass,
    segment: Segment,
}

/// A maximal run of consecutive declared pages.
#[derive(Debug, Clone, Copy)]
struct Run {
    first_vpn: u64,
    pages: u64,
    /// Ordinal of `first_vpn`: the number of declared pages below it.
    base: usize,
}

/// The single-level page table of a DataScalar system.
///
/// Construct one through [`PageTableBuilder`]. Addresses on pages never
/// declared to the builder fall back to a deterministic round-robin
/// ownership (`vpn % nodes`), so timing simulation is total even if a
/// workload touches memory outside its declared layout.
///
/// The declared pages are stored densely, in address order, and found
/// through their runs of consecutive page numbers — one per program
/// segment, or fewer where segments abut — so a lookup is a shift and a
/// scan over a handful of runs. [`PageTable::ordinal`] exposes each
/// declared page's position in that order, for per-page side tables.
///
/// # Examples
///
/// ```
/// use ds_mem::{PageTableBuilder, PageClass, Segment};
///
/// let mut b = PageTableBuilder::new(4096, 2);
/// b.add_region(0x0000, 0x2000, Segment::Text);
/// b.add_region(0x2000, 0x6000, Segment::Global);
/// b.replicate_segment(Segment::Text);
/// b.distribute_round_robin(1);
/// let pt = b.build();
/// assert_eq!(pt.classify(0x100), PageClass::Replicated);
/// assert_eq!(pt.classify(0x2000), PageClass::Owned(0));
/// assert_eq!(pt.classify(0x3000), PageClass::Owned(1));
/// assert_eq!(pt.ordinal(0x3000), Some(3));
/// assert_eq!(pt.ordinal(0x6000), None);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: u64,
    page_shift: u32,
    nodes: usize,
    /// Runs of consecutive declared pages, ascending and disjoint.
    runs: Vec<Run>,
    /// Every declared page, indexed by its ordinal (ascending vpn).
    entries: Vec<PageEntry>,
}

impl PageTable {
    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of nodes in the partition.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Virtual page number of `addr`.
    pub fn vpn(&self, addr: Addr) -> u64 {
        addr >> self.page_shift
    }

    /// The dense ordinal of the declared page holding `addr`: declared
    /// pages are numbered `0..declared_pages()` in ascending address
    /// order. `None` for an undeclared page.
    #[inline]
    pub fn ordinal(&self, addr: Addr) -> Option<usize> {
        let vpn = self.vpn(addr);
        self.runs.iter().find_map(|r| {
            let offset = vpn.wrapping_sub(r.first_vpn);
            (offset < r.pages).then(|| r.base + offset as usize)
        })
    }

    /// Classifies `addr` as replicated or owned-by-node.
    #[inline]
    pub fn classify(&self, addr: Addr) -> PageClass {
        match self.ordinal(addr) {
            Some(i) => self.entries[i].class,
            None => self.undeclared_owner(self.vpn(addr)),
        }
    }

    /// The round-robin owner of an undeclared page (no workload touches
    /// one, hence out of line).
    #[cold]
    fn undeclared_owner(&self, vpn: u64) -> PageClass {
        PageClass::Owned((vpn % self.nodes as u64) as NodeId)
    }

    /// True when `node` can service `addr` from its local memory
    /// (replicated everywhere, or owned by `node`).
    #[inline]
    pub fn is_local(&self, addr: Addr, node: NodeId) -> bool {
        match self.classify(addr) {
            PageClass::Replicated => true,
            PageClass::Owned(owner) => owner == node,
        }
    }

    /// The segment of `addr`, if its page was declared.
    pub fn segment(&self, addr: Addr) -> Option<Segment> {
        self.ordinal(addr).map(|i| self.entries[i].segment)
    }

    /// Counts replicated pages per segment, in [`Segment::ALL`] order.
    pub fn replicated_per_segment(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for e in &self.entries {
            if e.class == PageClass::Replicated {
                let idx = Segment::ALL.iter().position(|&s| s == e.segment).unwrap();
                counts[idx] += 1;
            }
        }
        counts
    }

    /// Total number of declared pages.
    pub fn declared_pages(&self) -> usize {
        self.entries.len()
    }

    /// Number of declared pages owned by `node` (excludes replicated).
    pub fn pages_owned_by(&self, node: NodeId) -> usize {
        self.entries.iter().filter(|e| e.class == PageClass::Owned(node)).count()
    }
}

/// Builder for a [`PageTable`].
///
/// Typical flow: declare the program's regions, mark some pages (or
/// whole segments) replicated, then distribute the remaining
/// communicated pages round-robin in blocks — the paper's §3.2
/// methodology.
#[derive(Debug, Clone)]
pub struct PageTableBuilder {
    page_size: u64,
    nodes: usize,
    segments: BTreeMap<u64, Segment>,
    replicated: std::collections::BTreeSet<u64>,
    owners: BTreeMap<u64, NodeId>,
}

impl PageTableBuilder {
    /// Creates a builder for a `nodes`-way partition with the given page
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two or `nodes == 0`.
    pub fn new(page_size: u64, nodes: usize) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        assert!(nodes > 0, "need at least one node");
        Self {
            page_size,
            nodes,
            segments: BTreeMap::new(),
            replicated: Default::default(),
            owners: BTreeMap::new(),
        }
    }

    /// Declares `[start, end)` as belonging to `segment`. The range is
    /// expanded outward to page boundaries.
    pub fn add_region(&mut self, start: Addr, end: Addr, segment: Segment) -> &mut Self {
        assert!(end > start, "empty region");
        let first = start / self.page_size;
        let last = (end - 1) / self.page_size;
        for vpn in first..=last {
            self.segments.insert(vpn, segment);
        }
        self
    }

    /// Marks the page containing `addr` as replicated at every node.
    pub fn replicate_page_of(&mut self, addr: Addr) -> &mut Self {
        self.replicated.insert(addr / self.page_size);
        self
    }

    /// Marks every declared page of `segment` replicated.
    pub fn replicate_segment(&mut self, segment: Segment) -> &mut Self {
        let vpns: Vec<u64> = self
            .segments
            .iter()
            .filter(|(_, &s)| s == segment)
            .map(|(&v, _)| v)
            .collect();
        self.replicated.extend(vpns);
        self
    }

    /// Distributes all declared, non-replicated pages round-robin across
    /// the nodes in blocks of `block_pages` contiguous pages — the
    /// paper's communicated-data distribution (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if `block_pages == 0`.
    pub fn distribute_round_robin(&mut self, block_pages: u64) -> &mut Self {
        assert!(block_pages > 0, "block size must be positive");
        // Assign per segment so each segment starts its rotation at node
        // 0, spreading every segment across all nodes (the paper keeps
        // distribution blocks smaller than 1/n of each segment for the
        // same reason).
        for seg in Segment::ALL {
            let vpns: Vec<u64> = self
                .segments
                .iter()
                .filter(|(v, &s)| s == seg && !self.replicated.contains(v))
                .map(|(&v, _)| v)
                .collect();
            for (i, vpn) in vpns.iter().enumerate() {
                let node = (i as u64 / block_pages) % self.nodes as u64;
                self.owners.insert(*vpn, node as NodeId);
            }
        }
        self
    }

    /// Finalises the table.
    pub fn build(&self) -> PageTable {
        let mut entries = Vec::with_capacity(self.segments.len());
        let mut runs: Vec<Run> = Vec::new();
        for (&vpn, &segment) in &self.segments {
            let class = if self.replicated.contains(&vpn) {
                PageClass::Replicated
            } else {
                match self.owners.get(&vpn) {
                    Some(&n) => PageClass::Owned(n),
                    // Declared but never distributed: fall back to
                    // per-page round-robin.
                    None => PageClass::Owned((vpn % self.nodes as u64) as NodeId),
                }
            };
            match runs.last_mut() {
                Some(r) if r.first_vpn + r.pages == vpn => r.pages += 1,
                _ => runs.push(Run { first_vpn: vpn, pages: 1, base: entries.len() }),
            }
            entries.push(PageEntry { class, segment });
        }
        PageTable {
            page_size: self.page_size,
            page_shift: self.page_size.trailing_zeros(),
            nodes: self.nodes,
            runs,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> PageTableBuilder {
        let mut b = PageTableBuilder::new(4096, 4);
        b.add_region(0x0000, 0x4000, Segment::Text); // 4 pages
        b.add_region(0x1_0000, 0x1_8000, Segment::Global); // 8 pages
        b.add_region(0x2_0000, 0x2_4000, Segment::Heap); // 4 pages
        b.add_region(0x7_0000, 0x7_2000, Segment::Stack); // 2 pages
        b
    }

    #[test]
    fn round_robin_distribution_per_segment() {
        let mut b = builder();
        b.distribute_round_robin(1);
        let pt = b.build();
        // Global pages 0x10..0x17 cycle 0,1,2,3,0,1,2,3.
        for i in 0..8u64 {
            assert_eq!(
                pt.classify(0x1_0000 + i * 4096),
                PageClass::Owned((i % 4) as usize)
            );
        }
        // Each segment restarts at node 0.
        assert_eq!(pt.classify(0x2_0000), PageClass::Owned(0));
        assert_eq!(pt.classify(0x7_0000), PageClass::Owned(0));
    }

    #[test]
    fn block_distribution_groups_pages() {
        let mut b = builder();
        b.distribute_round_robin(2);
        let pt = b.build();
        // Global: blocks of two pages per node.
        assert_eq!(pt.classify(0x1_0000), PageClass::Owned(0));
        assert_eq!(pt.classify(0x1_1000), PageClass::Owned(0));
        assert_eq!(pt.classify(0x1_2000), PageClass::Owned(1));
        assert_eq!(pt.classify(0x1_3000), PageClass::Owned(1));
    }

    #[test]
    fn replicated_segment_is_local_everywhere() {
        let mut b = builder();
        b.replicate_segment(Segment::Text);
        b.distribute_round_robin(1);
        let pt = b.build();
        for node in 0..4 {
            assert!(pt.is_local(0x100, node));
        }
        assert_eq!(pt.classify(0x100), PageClass::Replicated);
        assert_eq!(pt.replicated_per_segment(), [4, 0, 0, 0]);
    }

    #[test]
    fn undeclared_pages_fall_back_round_robin() {
        let pt = builder().build();
        let far = 0x50_0000u64;
        let vpn = far / 4096;
        assert_eq!(pt.classify(far), PageClass::Owned((vpn % 4) as usize));
    }

    #[test]
    fn is_local_only_for_owner() {
        let mut b = builder();
        b.distribute_round_robin(1);
        let pt = b.build();
        let addr = 0x1_1000; // global page 1 -> node 1
        assert!(pt.is_local(addr, 1));
        assert!(!pt.is_local(addr, 0));
        assert!(!pt.is_local(addr, 2));
    }

    #[test]
    fn segments_recorded() {
        let pt = builder().build();
        assert_eq!(pt.segment(0x0), Some(Segment::Text));
        assert_eq!(pt.segment(0x1_0000), Some(Segment::Global));
        assert_eq!(pt.segment(0x2_0000), Some(Segment::Heap));
        assert_eq!(pt.segment(0x7_0000), Some(Segment::Stack));
        assert_eq!(pt.segment(0x50_0000), None);
    }

    #[test]
    fn pages_owned_by_counts() {
        let mut b = builder();
        b.distribute_round_robin(1);
        let pt = b.build();
        let total: usize = (0..4).map(|n| pt.pages_owned_by(n)).sum();
        assert_eq!(total, pt.declared_pages());
    }

    #[test]
    fn replicate_single_page() {
        let mut b = builder();
        b.replicate_page_of(0x2_0000);
        b.distribute_round_robin(1);
        let pt = b.build();
        assert_eq!(pt.classify(0x2_0000), PageClass::Replicated);
        assert_ne!(pt.classify(0x2_1000), PageClass::Replicated);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_size_rejected() {
        PageTableBuilder::new(3000, 2);
    }
}
