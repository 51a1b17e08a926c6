//! Property tests over the out-of-order core: whatever the memory
//! system's timing does, the core must commit exactly the functional
//! instruction stream, in order, exactly once.

use ds_cpu::{
    Cycle, ExecRecord, FuncCore, LoadResponse, MemSystem, OooConfig, OooCore, RuuTag, TraceSource,
};
use ds_isa::{reg, Inst, Opcode};
use ds_mem::MemImage;
use proptest::prelude::*;

/// A memory system with proptest-chosen per-load latencies, a mix of
/// `Ready` and `Pending` responses, and commit-order checking.
struct ChaoticMem {
    latencies: Vec<u64>,
    next: usize,
    pending: Vec<(RuuTag, Cycle)>,
    committed_order: Vec<u64>,
}

impl MemSystem for ChaoticMem {
    fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, tag: RuuTag) -> (LoadResponse, bool) {
        let lat = self.latencies[self.next % self.latencies.len()];
        self.next += 1;
        if lat.is_multiple_of(2) {
            (LoadResponse::Ready(now + 1 + lat), true)
        } else {
            self.pending.push((tag, now + 1 + lat));
            (LoadResponse::Pending, false)
        }
    }

    fn mem_committed(&mut self, r: &ExecRecord, _h: Option<bool>, _now: Cycle) {
        self.committed_order.push(r.icount);
    }

    fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
        now
    }
}

/// Builds a program of interleaved ALU ops, loads, stores and short
/// loops — structured to halt.
#[expect(clippy::expect_used, reason = "test helper: a generated program that fails is a bug")]
fn build_program(ops: &[(u8, u8, i32)], loops: u8) -> (TraceSource, u64) {
    let mut mem = MemImage::new();
    let mut insts: Vec<Inst> = Vec::new();
    insts.push(Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, i32::from(loops).max(1)));
    let top = insts.len();
    for &(kind, r, v) in ops {
        let r = 4 + (r % 16); // a0..t9, keeping s0 for the loop
        match kind % 4 {
            0 => insts.push(Inst::rri(Opcode::Addi, r, r, v)),
            1 => insts.push(Inst::rrr(Opcode::Xor, r, r, 4 + ((r + 1) % 16))),
            2 => {
                insts.push(Inst::rri(Opcode::Addi, reg::K2, reg::ZERO, 0x8000 + (v & 0xff0)));
                insts.push(Inst::load(Opcode::Ld, r, reg::K2, 0));
            }
            _ => {
                insts.push(Inst::rri(Opcode::Addi, reg::K2, reg::ZERO, 0x8000 + (v & 0xff0)));
                insts.push(Inst::store(Opcode::Sd, r, reg::K2, 0));
            }
        }
    }
    insts.push(Inst::rri(Opcode::Addi, reg::S0, reg::S0, -1));
    let off = top as i32 - insts.len() as i32;
    insts.push(Inst::branch(Opcode::Bne, reg::S0, reg::ZERO, off));
    insts.push(Inst::halt());
    for (i, inst) in insts.iter().enumerate() {
        mem.write_u64(0x1_0000 + 8 * i as u64, inst.encode());
    }
    // Count the stream functionally first.
    let mut probe = FuncCore::new(0x1_0000);
    let mut probe_mem = mem.clone();
    probe.run(&mut probe_mem, 10_000_000).expect("functional run");
    assert!(probe.halted());
    (TraceSource::new(FuncCore::new(0x1_0000), mem), probe.icount())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn core_commits_the_exact_functional_stream(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 0i32..4000), 1..30),
        loops in 1u8..6,
        latencies in prop::collection::vec(0u64..60, 1..8),
        ruu_exp in 2u32..8,
    ) {
        let (mut trace, want) = build_program(&ops, loops);
        let config = OooConfig {
            ruu_entries: 1 << ruu_exp,
            lsq_entries: ((1 << ruu_exp) / 2).max(1),
            ..OooConfig::default()
        };
        let mut core = OooCore::new(config, 32);
        let mut ms = ChaoticMem {
            latencies,
            next: 0,
            pending: Vec::new(),
            committed_order: Vec::new(),
        };
        let mut now = 0u64;
        while !core.is_done() {
            core.step(&mut ms, &mut trace, now).expect("steps");
            let due: Vec<(RuuTag, Cycle)> =
                ms.pending.iter().copied().filter(|&(_, at)| at <= now).collect();
            ms.pending.retain(|&(_, at)| at > now);
            for (tag, at) in due {
                core.complete_load(tag, at.max(now + 1));
            }
            now += 1;
            prop_assert!(now < 3_000_000, "core wedged at {} commits", core.committed());
        }
        prop_assert_eq!(core.committed(), want);
        // Memory operations committed in strictly increasing program order.
        prop_assert!(
            ms.committed_order.windows(2).all(|w| w[0] < w[1]),
            "mem ops committed out of order"
        );
    }

    #[test]
    fn commit_count_is_independent_of_memory_timing(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 0i32..4000), 1..20),
        loops in 1u8..4,
    ) {
        let run = |lats: Vec<u64>| {
            let (mut trace, _) = build_program(&ops, loops);
            let mut core = OooCore::new(OooConfig::default(), 32);
            let mut ms = ChaoticMem {
                latencies: lats,
                next: 0,
                pending: Vec::new(),
                committed_order: Vec::new(),
            };
            let mut now = 0u64;
            while !core.is_done() && now < 3_000_000 {
                core.step(&mut ms, &mut trace, now).expect("steps");
                let due: Vec<(RuuTag, Cycle)> =
                    ms.pending.iter().copied().filter(|&(_, at)| at <= now).collect();
                ms.pending.retain(|&(_, at)| at > now);
                for (tag, at) in due {
                    core.complete_load(tag, at.max(now + 1));
                }
                now += 1;
            }
            core.committed()
        };
        prop_assert_eq!(run(vec![0]), run(vec![57, 3, 44]));
    }
}
