//! Set-associative cache state model with true LRU and configurable
//! write policy.
//!
//! This models cache *state* (tags, dirtiness, replacement), not data —
//! values are functional in this simulator. The DataScalar node uses
//! one instance as its *canonical* commit-order cache (the structure the
//! cache-correspondence protocol keeps identical across nodes) and the
//! trace experiments use instances directly.

use crate::Addr;

/// Write-miss / write-hit policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back, write-allocate: the paper's §3.1 trace configuration.
    WriteBackAllocate,
    /// Write-back, write-no-allocate: the paper's §4.2 timing
    /// configuration ("with a write-allocate protocol, a write miss
    /// requires sending an inter-processor message, only to overwrite
    /// the received data").
    WriteBackNoAllocate,
}

/// Static cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways); 1 = direct-mapped.
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's §3.1 trace cache: 64 KiB, 2-way, write-allocate,
    /// write-back (line size ours, 32 B).
    pub fn spec95_trace() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            write_policy: WritePolicy::WriteBackAllocate,
        }
    }

    /// The paper's §4.2 timing D-cache: 16 KiB direct-mapped,
    /// write-back write-no-allocate.
    pub fn timing_dcache() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            assoc: 1,
            line_bytes: 32,
            write_policy: WritePolicy::WriteBackNoAllocate,
        }
    }

    /// The paper's §4.2 timing I-cache: 16 KiB direct-mapped (writes
    /// never occur).
    pub fn timing_icache() -> Self {
        Self::timing_dcache()
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    pub fn num_sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc >= 1, "associativity must be at least 1");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines >= self.assoc as u64 && lines.is_multiple_of(self.assoc as u64),
            "capacity must be a multiple of assoc * line size"
        );
        let sets = lines / self.assoc as u64;
        assert!(sets.is_power_of_two(), "number of sets must be a power of two");
        sets
    }
}

/// Kind of access presented to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// A line evicted by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line_addr: Addr,
    /// Whether the line was dirty (requires a write-back under
    /// write-back policies).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss {
        /// Whether the access allocated the line (false only for write
        /// misses under write-no-allocate).
        allocated: bool,
        /// The line evicted to make room, if any.
        victim: Option<Victim>,
    },
}

impl CacheOutcome {
    /// True for [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }

    /// True for any miss.
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotonic last-use stamp for true LRU.
    lru: u64,
}

/// A set-associative cache state model.
///
/// # Examples
///
/// ```
/// use ds_mem::{Cache, CacheConfig, AccessKind, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::timing_dcache());
/// assert!(c.access(0x1000, AccessKind::Read).is_miss());
/// assert!(c.access(0x1008, AccessKind::Read).is_hit(), "same line");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    num_sets: u64,
    /// log2(line_bytes); geometry asserts powers of two, so indexing is
    /// shift/mask rather than division (access() runs twice per memory
    /// instruction and the divisor is not a compile-time constant).
    line_shift: u32,
    /// log2(num_sets).
    set_shift: u32,
    stamp: u64,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: line size and set count
    /// must be powers of two and the capacity a multiple of
    /// `assoc * line_bytes`.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.assoc); num_sets as usize],
            num_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            stamp: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.config.line_bytes - 1)
    }

    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & (self.num_sets - 1)) as usize, line >> self.set_shift)
    }

    /// Checks for presence without updating any state.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Performs an access, updating LRU, dirtiness, and allocation
    /// state, and reports hit/miss plus any victim.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> CacheOutcome {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_idx, tag) = self.set_and_tag(addr);
        let assoc = self.config.assoc;
        let write_policy = self.config.write_policy;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = stamp;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            return CacheOutcome::Hit;
        }
        // Miss.
        let allocate = match (kind, write_policy) {
            (AccessKind::Read, _) => true,
            (AccessKind::Write, WritePolicy::WriteBackAllocate) => true,
            (AccessKind::Write, WritePolicy::WriteBackNoAllocate) => false,
        };
        if !allocate {
            return CacheOutcome::Miss { allocated: false, victim: None };
        }
        let victim = if set.len() < assoc {
            None
        } else {
            let (i, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                // ds-lint: allow(p1) this branch requires set.len() >= assoc and assoc >= 1 is validated at construction
                .expect("non-empty set");
            let evicted = set.swap_remove(i);
            let line_base = (evicted.tag * self.num_sets + set_idx as u64) * self.config.line_bytes;
            Some(Victim { line_addr: line_base, dirty: evicted.dirty })
        };
        set.push(Line { tag, dirty: kind == AccessKind::Write, lru: stamp });
        CacheOutcome::Miss { allocated: true, victim }
    }

    /// Removes the line containing `addr`, returning whether it was
    /// present and dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set_idx, tag) = self.set_and_tag(addr);
        let set = &mut self.sets[set_idx];
        let i = set.iter().position(|l| l.tag == tag)?;
        Some(set.swap_remove(i).dirty)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Iterates over all resident line addresses in a deterministic
    /// order (sorted), together with their dirty bits. Used by the
    /// correspondence-invariant checks.
    pub fn resident(&self) -> Vec<(Addr, bool)> {
        let mut out: Vec<(Addr, bool)> = self
            .sets
            .iter()
            .enumerate()
            .flat_map(|(si, set)| {
                set.iter().map(move |l| {
                    ((l.tag * self.num_sets + si as u64) * self.config.line_bytes, l.dirty)
                })
            })
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: usize, policy: WritePolicy) -> Cache {
        // 4 lines of 32 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc,
            line_bytes: 32,
            write_policy: policy,
        })
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        assert!(c.access(0, AccessKind::Read).is_miss());
        assert!(c.access(31, AccessKind::Read).is_hit());
        assert!(c.access(32, AccessKind::Read).is_miss(), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        // Two sets; lines 0, 64 map to set 0; 32, 96 to set 1 ... with 4
        // lines, num_sets = 2: line k maps to set (k % 2).
        c.access(0, AccessKind::Read); // set 0
        c.access(64, AccessKind::Read); // set 0, second way
        c.access(0, AccessKind::Read); // touch line 0 -> 64 is LRU
        let out = c.access(128, AccessKind::Read); // set 0, evicts 64
        match out {
            CacheOutcome::Miss { victim: Some(v), .. } => {
                assert_eq!(v.line_addr, 64);
                assert!(!v.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(64));
    }

    #[test]
    fn dirty_victim_on_written_line() {
        let mut c = tiny(1, WritePolicy::WriteBackAllocate);
        c.access(0, AccessKind::Write);
        // 4 sets when direct-mapped: line k -> set k % 4. Line 128 (line
        // number 4) also maps to set 0.
        let out = c.access(128, AccessKind::Read);
        match out {
            CacheOutcome::Miss { victim: Some(v), .. } => {
                assert_eq!(v.line_addr, 0);
                assert!(v.dirty);
            }
            other => panic!("expected dirty victim, got {other:?}"),
        }
    }

    #[test]
    fn write_no_allocate_does_not_install() {
        let mut c = tiny(2, WritePolicy::WriteBackNoAllocate);
        let out = c.access(0, AccessKind::Write);
        assert_eq!(out, CacheOutcome::Miss { allocated: false, victim: None });
        assert!(!c.probe(0));
        // But a write *hit* dirties the line.
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        let resident = c.resident();
        assert_eq!(resident, vec![(0, true)]);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        // Probing 0 must NOT refresh it.
        assert!(c.probe(0));
        let out = c.access(128, AccessKind::Read);
        match out {
            CacheOutcome::Miss { victim: Some(v), .. } => assert_eq!(v.line_addr, 0),
            other => panic!("expected eviction of 0, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        c.access(0, AccessKind::Write);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.probe(0));
    }

    #[test]
    fn resident_lines_counts() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        assert_eq!(c.resident_lines(), 0);
        c.access(0, AccessKind::Read);
        c.access(32, AccessKind::Read);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Larger geometry: verify tag/set math by evicting and re-probing.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            write_policy: WritePolicy::WriteBackAllocate,
        });
        let addrs = [0x0u64, 0x2000, 0x4000];
        for &a in &addrs {
            c.access(a, AccessKind::Read);
        }
        // All three map to set 0 (num_sets = 8, strides of 0x2000 = 8 lines... )
        // 0x2000/64 = 128 lines, 128 % 8 = 0. Good.
        let resident = c.resident();
        assert_eq!(resident.len(), 2);
        assert!(resident.iter().all(|&(a, _)| a == 0x2000 || a == 0x4000));
    }

    #[test]
    #[should_panic(expected = "multiple of assoc")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 2,
            line_bytes: 32,
            write_policy: WritePolicy::WriteBackAllocate,
        });
    }

    #[test]
    fn paper_configs_construct() {
        assert_eq!(CacheConfig::spec95_trace().num_sets(), 1024);
        assert_eq!(CacheConfig::timing_dcache().num_sets(), 512);
        Cache::new(CacheConfig::spec95_trace());
        Cache::new(CacheConfig::timing_icache());
    }
}
