//! Model-based testing of the cache: the optimised set-associative
//! implementation must agree, access for access, with a naive
//! reference model.

use ds_mem::{AccessKind, Cache, CacheConfig, CacheOutcome, WritePolicy};
use proptest::prelude::*;

/// A deliberately simple reference cache: a vector of (line, dirty)
/// per set, most-recently-used at the back.
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<(u64, bool)>>,
    num_sets: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        RefCache { config, sets: vec![Vec::new(); num_sets as usize], num_sets }
    }

    fn set_and_line(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        ((line % self.num_sets) as usize, line * self.config.line_bytes)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> (bool, Option<(u64, bool)>) {
        let (si, line) = self.set_and_line(addr);
        let set = &mut self.sets[si];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, mut d) = set.remove(pos);
            if kind == AccessKind::Write {
                d = true;
            }
            set.push((l, d));
            return (true, None);
        }
        let allocate =
            kind == AccessKind::Read || self.config.write_policy == WritePolicy::WriteBackAllocate;
        if !allocate {
            return (false, None);
        }
        let victim = if set.len() >= self.config.assoc { Some(set.remove(0)) } else { None };
        set.push((line, kind == AccessKind::Write));
        (false, victim)
    }
}

fn config_strategy() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(1usize), Just(2), Just(4)],
        prop_oneof![Just(16u64), Just(32), Just(64)],
        prop_oneof![Just(WritePolicy::WriteBackAllocate), Just(WritePolicy::WriteBackNoAllocate)],
        1u32..5, // sets exponent
    )
        .prop_map(|(assoc, line, policy, sets_exp)| CacheConfig {
            size_bytes: line * assoc as u64 * (1 << sets_exp),
            assoc,
            line_bytes: line,
            write_policy: policy,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(
        config in config_strategy(),
        accesses in prop::collection::vec((0u64..4096, prop::bool::ANY), 1..300),
    ) {
        let mut dut = Cache::new(config);
        let mut model = RefCache::new(config);
        for (i, &(addr, is_write)) in accesses.iter().enumerate() {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let (model_hit, model_victim) = model.access(addr, kind);
            let out = dut.access(addr, kind);
            match out {
                CacheOutcome::Hit => {
                    prop_assert!(model_hit, "access {}: dut hit, model missed", i);
                }
                CacheOutcome::Miss { allocated, victim } => {
                    prop_assert!(!model_hit, "access {}: dut missed, model hit", i);
                    let model_alloc = kind == AccessKind::Read
                        || config.write_policy == WritePolicy::WriteBackAllocate;
                    prop_assert_eq!(allocated, model_alloc);
                    let dv = victim.map(|v| (v.line_addr, v.dirty));
                    prop_assert_eq!(dv, model_victim, "access {}: victim mismatch", i);
                }
            }
        }
        // Final contents agree.
        let mut model_lines: Vec<(u64, bool)> =
            model.sets.iter().flatten().copied().collect();
        model_lines.sort_unstable();
        prop_assert_eq!(dut.resident(), model_lines);
    }

    #[test]
    fn probe_never_mutates(
        config in config_strategy(),
        accesses in prop::collection::vec(0u64..4096, 1..100),
        probes in prop::collection::vec(0u64..4096, 1..50),
    ) {
        let mut dut = Cache::new(config);
        for &a in &accesses {
            dut.access(a, AccessKind::Read);
        }
        let before = dut.resident();
        for &p in &probes {
            let _ = dut.probe(p);
        }
        prop_assert_eq!(dut.resident(), before);
    }

    #[test]
    fn invalidate_then_access_misses(
        config in config_strategy(),
        addr in 0u64..4096,
    ) {
        let mut dut = Cache::new(config);
        dut.access(addr, AccessKind::Read);
        prop_assert!(dut.probe(addr));
        dut.invalidate(addr);
        prop_assert!(!dut.probe(addr));
        prop_assert!(dut.access(addr, AccessKind::Read).is_miss());
    }
}
