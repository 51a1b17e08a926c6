//! Tests of the whole core, driven through `OooCore::step`.

#![cfg(test)]

use super::*;
use crate::exec::FuncCore;
use crate::trace::TraceSource;
use ds_isa::{reg, Inst};
use ds_mem::MemImage;
use ds_obs::Obs;

/// A perfect memory system: 1-cycle loads, instant fetch.
struct PerfectMem {
    loads_seen: u64,
    commits_seen: u64,
}

impl PerfectMem {
    fn new() -> Self {
        PerfectMem { loads_seen: 0, commits_seen: 0 }
    }
}

impl MemSystem for PerfectMem {
    fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
        self.loads_seen += 1;
        (LoadResponse::Ready(now + 1), true)
    }
    fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {
        self.commits_seen += 1;
    }
    fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
        now
    }
}

/// Memory that delays every load by a fixed latency via Pending.
struct SlowMem {
    latency: Cycle,
    pending: Vec<(RuuTag, Cycle)>,
}

impl MemSystem for SlowMem {
    fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, t: RuuTag) -> (LoadResponse, bool) {
        self.pending.push((t, now + self.latency));
        (LoadResponse::Pending, false)
    }
    fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
    fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
        now
    }
}

fn trace_of(prog: &[Inst]) -> TraceSource {
    trace_at(0x1000, prog)
}

/// `prog` loaded at, and entered from, `entry`.
fn trace_at(entry: u64, prog: &[Inst]) -> TraceSource {
    let mut mem = MemImage::new();
    for (i, inst) in prog.iter().enumerate() {
        mem.write_u64(entry + 8 * i as u64, inst.encode());
    }
    TraceSource::new(FuncCore::new(entry), mem)
}

fn run_to_completion<M: MemSystem, F: Flavour>(
    core: &mut OooCore<F>,
    ms: &mut M,
    trace: &mut TraceSource,
    deliver: impl Fn(&mut M, &mut OooCore<F>, Cycle),
) -> Cycle {
    let mut now = 0;
    while !core.is_done() {
        core.step(ms, trace, now).unwrap();
        deliver(ms, core, now);
        now += 1;
        assert!(now < 1_000_000, "runaway simulation");
    }
    now
}

#[test]
fn straight_line_commits_everything() {
    let prog: Vec<Inst> = (0..20)
        .map(|k| Inst::rri(Opcode::Addi, reg::T0, reg::T0, k))
        .chain([Inst::halt()])
        .collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert_eq!(core.committed(), 21);
    assert!(core.is_done());
}

#[test]
fn dependent_chain_is_serialised() {
    // 16 dependent addis: cannot finish faster than ~16 cycles.
    let prog: Vec<Inst> = (0..16)
        .map(|_| Inst::rri(Opcode::Addi, reg::T0, reg::T0, 1))
        .chain([Inst::halt()])
        .collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert!(cycles >= 16, "dependent chain took {cycles} cycles");
}

#[test]
fn independent_ops_exploit_width() {
    // 64 independent adds on distinct registers: an 8-wide machine
    // should need far fewer than 64 cycles.
    let prog: Vec<Inst> = (0..64)
        .map(|k| Inst::rri(Opcode::Addi, reg::T0 + (k % 8) as u8, reg::ZERO, k))
        .chain([Inst::halt()])
        .collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert!(cycles < 32, "8-wide machine took {cycles} cycles for 64 indep ops");
}

#[test]
fn store_to_load_forwarding() {
    let prog = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
        Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 7),
        Inst::store(Opcode::Sd, reg::T1, reg::T0, 0),
        Inst::load(Opcode::Ld, reg::T2, reg::T0, 0),
        Inst::halt(),
    ];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert_eq!(core.stats().forwarded_loads, 1);
    assert_eq!(ms.loads_seen, 0, "forwarded load never reaches memory");
    assert_eq!(ms.commits_seen, 2, "store + load commit via MemSystem");
}

#[test]
fn partial_overlap_blocks_but_does_not_forward() {
    let prog = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
        Inst::store(Opcode::Sw, reg::T1, reg::T0, 0), // 4 bytes
        Inst::load(Opcode::Ld, reg::T2, reg::T0, 0),  // 8 bytes
        Inst::halt(),
    ];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert_eq!(core.stats().forwarded_loads, 0);
    assert_eq!(ms.loads_seen, 1, "load goes to memory after the store");
}

#[test]
fn pending_loads_complete_via_callback() {
    let prog = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
        Inst::load(Opcode::Ld, reg::T1, reg::T0, 0),
        Inst::rrr(Opcode::Add, reg::T2, reg::T1, reg::T1),
        Inst::halt(),
    ];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = SlowMem { latency: 50, pending: Vec::new() };
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |ms, core, now| {
        let due: Vec<_> = ms.pending.iter().filter(|&&(_, at)| at <= now).cloned().collect();
        ms.pending.retain(|&(_, at)| at > now);
        for (tag, at) in due {
            core.complete_load(tag, at.max(now + 1));
        }
    });
    assert!(cycles >= 50, "load latency must gate completion, took {cycles}");
    assert_eq!(core.committed(), 4);
}

#[test]
fn in_order_commit_of_mem_ops() {
    // Two loads to different addresses; even if the second completes
    // first, commits must arrive in program order.
    struct OrderCheck {
        committed: Vec<u64>,
    }
    impl MemSystem for OrderCheck {
        fn load_issued(&mut self, r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
            // First load slow, second fast.
            let lat = if r.mem_addr == 0x4000 { 30 } else { 1 };
            (LoadResponse::Ready(now + lat), true)
        }
        fn mem_committed(&mut self, r: &ExecRecord, _h: Option<bool>, _now: Cycle) {
            self.committed.push(r.mem_addr);
        }
        fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
            now
        }
    }
    let prog = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
        Inst::load(Opcode::Ld, reg::T1, reg::T0, 0),
        Inst::load(Opcode::Ld, reg::T2, reg::T0, 0x100),
        Inst::halt(),
    ];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = OrderCheck { committed: Vec::new() };
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert_eq!(ms.committed, vec![0x4000, 0x4100]);
}

#[test]
fn window_capacity_limits_runahead() {
    let small = OooConfig { ruu_entries: 4, lsq_entries: 2, ..OooConfig::default() };
    let prog: Vec<Inst> = (0..32)
        .map(|k| Inst::rri(Opcode::Addi, reg::T0 + (k % 4) as u8, reg::ZERO, k))
        .chain([Inst::halt()])
        .collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(small, 32);
    let mut ms = PerfectMem::new();
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert!(core.stats().ruu_full_stalls > 0);
    assert_eq!(core.committed(), 33);
}

#[test]
fn icache_stall_blocks_fetch() {
    struct SlowFetch;
    impl MemSystem for SlowFetch {
        fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
            (LoadResponse::Ready(now + 1), true)
        }
        fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
        fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
            now + 10
        }
    }
    let prog: Vec<Inst> = (0..8).map(|_| Inst::nop()).chain([Inst::halt()]).collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = SlowFetch;
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    // 9 instructions over 3 lines (32B lines, 8B insts), each line
    // costs 10 cycles.
    assert!(cycles >= 30, "I-miss stalls must accumulate, took {cycles}");
    assert!(core.stats().fetch_stall_cycles > 0);
}

#[test]
fn div_unit_is_unpipelined() {
    // Two independent divides with one divider: serialised.
    let prog = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 100),
        Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 5),
        Inst::rrr(Opcode::Div, reg::T2, reg::T0, reg::T1),
        Inst::rrr(Opcode::Div, reg::T3, reg::T0, reg::T1),
        Inst::halt(),
    ];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert!(cycles >= 24, "two unpipelined 12-cycle divides, took {cycles}");
}

#[test]
fn misprediction_stalls_cost_cycles() {
    use crate::branch::BranchModel;
    // A data-dependent alternating branch: the bimodal predictor
    // gets it wrong constantly, the perfect model never does.
    let prog: Vec<Inst> = {
        let mut v = vec![Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, 64)];
        // if (s0 & 1) skip one instruction, alternating per iteration.
        v.push(Inst::rri(Opcode::Andi, reg::T0, reg::S0, 1));
        v.push(Inst::branch(Opcode::Beq, reg::T0, reg::ZERO, 2));
        v.push(Inst::rri(Opcode::Addi, reg::T1, reg::T1, 1));
        v.push(Inst::rri(Opcode::Addi, reg::S0, reg::S0, -1));
        v.push(Inst::branch(Opcode::Bne, reg::S0, reg::ZERO, -4));
        v.push(Inst::halt());
        v
    };
    let run = |model: BranchModel| {
        let mut trace = trace_of(&prog);
        let config = OooConfig { branch: model, ..OooConfig::default() };
        let mut core = OooCore::new(config, 32);
        let mut ms = PerfectMem::new();
        let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
        (cycles, core.stats().branch_mispredicts, core.committed())
    };
    let (perfect_cycles, perfect_miss, n1) = run(BranchModel::Perfect);
    let (pred_cycles, pred_miss, n2) = run(BranchModel::TwoBit { table_bits: 10, penalty: 8 });
    assert_eq!(n1, n2, "same committed stream");
    assert_eq!(perfect_miss, 0);
    assert!(pred_miss > 20, "alternating branch must mispredict, got {pred_miss}");
    assert!(
        pred_cycles > perfect_cycles + 8 * pred_miss / 2,
        "mispredictions must cost cycles: {pred_cycles} vs {perfect_cycles}"
    );
}

#[test]
fn predictable_loops_barely_suffer() {
    use crate::branch::BranchModel;
    let prog: Vec<Inst> = (0..4)
        .map(|k| Inst::rri(Opcode::Addi, reg::T0 + k, reg::ZERO, 1))
        .chain([
            Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, 200),
            Inst::rri(Opcode::Addi, reg::T1, reg::T1, 1),
            Inst::rri(Opcode::Addi, reg::S0, reg::S0, -1),
            Inst::branch(Opcode::Bne, reg::S0, reg::ZERO, -2),
            Inst::halt(),
        ])
        .collect();
    let run = |model: BranchModel| {
        let mut trace = trace_of(&prog);
        let config = OooConfig { branch: model, ..OooConfig::default() };
        let mut core = OooCore::new(config, 32);
        let mut ms = PerfectMem::new();
        run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {})
    };
    let perfect = run(BranchModel::Perfect);
    let predicted = run(BranchModel::TwoBit { table_bits: 10, penalty: 8 });
    assert!(
        predicted < perfect + 60,
        "a monotone loop should predict well: {predicted} vs {perfect}"
    );
}

#[test]
fn complete_load_for_retired_tag_is_ignored() {
    let prog = [Inst::nop(), Inst::halt()];
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = PerfectMem::new();
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    core.complete_load(0, 5); // must not panic or corrupt
    assert!(core.is_done());
}

/// Local memory with visible latencies everywhere: loads complete
/// 12 cycles after issue, new I-lines arrive 9 cycles after the
/// request — plenty of quiescent gaps for the horizon to skip.
struct LaggyMem;

impl MemSystem for LaggyMem {
    fn load_issued(&mut self, _r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
        (LoadResponse::Ready(now + 12), false)
    }
    fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
    fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
        now + 9
    }
}

#[test]
fn horizon_skipping_matches_naive_stepping() {
    let prog: Vec<Inst> = (0..24i32)
        .flat_map(|k| {
            [
                Inst::load(Opcode::Ld, reg::T0, reg::ZERO, 0x400 + 8 * k),
                Inst::rri(Opcode::Addi, reg::T1, reg::T0, 1),
            ]
        })
        .chain([Inst::halt()])
        .collect();
    let tight = OooConfig {
        fetch_width: 2,
        issue_width: 2,
        commit_width: 2,
        ruu_entries: 8,
        lsq_entries: 4,
        ..Default::default()
    };

    // Reference: one step per cycle.
    let mut naive = OooCore::new(tight, 32);
    let mut naive_trace = trace_of(&prog);
    let naive_cycles = {
        let mut now = 0;
        loop {
            naive.step(&mut LaggyMem, &mut naive_trace, now).unwrap();
            if naive.is_done() {
                break now + 1;
            }
            now += 1;
            assert!(now < 100_000, "runaway simulation");
        }
    };

    // Event-horizon: jump over every cycle the core proves inert.
    let mut skip = OooCore::new(tight, 32);
    let mut skip_trace = trace_of(&prog);
    let mut skips = 0u64;
    let skip_cycles = {
        let mut now = 0;
        loop {
            skip.step(&mut LaggyMem, &mut skip_trace, now).unwrap();
            if skip.is_done() {
                break now + 1;
            }
            let h = skip.next_event(now);
            assert!(h > now, "horizon must be in the future");
            assert_ne!(h, Cycle::MAX, "local-only core always has a next event");
            if h > now + 1 {
                skip.advance_to(now, h);
                skips += 1;
                now = h;
            } else {
                now += 1;
            }
            assert!(now < 100_000, "runaway simulation");
        }
    };

    assert!(skips > 0, "the laggy memory must have produced skippable gaps");
    assert_eq!(skip_cycles, naive_cycles, "cycle counts must match exactly");
    assert_eq!(*skip.stats(), *naive.stats(), "all counters must match exactly");
}

/// Memory whose latencies depend only on the address: loads take
/// 1–19 cycles (every third word answers `Pending` and is delivered
/// by the harness), a new I-line costs 3 cycles.
struct PatternMem {
    pending: Vec<(RuuTag, Cycle)>,
}

impl MemSystem for PatternMem {
    fn load_issued(&mut self, r: &ExecRecord, now: Cycle, t: RuuTag) -> (LoadResponse, bool) {
        let word = r.mem_addr >> 3;
        let at = now + 1 + (word % 7) * 3;
        if word.is_multiple_of(3) {
            self.pending.push((t, at));
            (LoadResponse::Pending, false)
        } else {
            (LoadResponse::Ready(at), word.is_multiple_of(2))
        }
    }
    fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
    fn fetch_line(&mut self, pc: u64, now: Cycle) -> Cycle {
        now + 3 * u64::from((pc >> 5).is_multiple_of(4))
    }
}

/// Three small kernels that between them reach every stage's
/// corners: (0) integer loop with mul/div/rem, a 12-reader fan-out
/// and a data-dependent branch; (1) stores and loads with full,
/// partial and unaligned overlaps over a strided array; (2) FP
/// chain with fdiv/fsqrt, conversions, compares and fld/fsd.
fn pinned_programs() -> [Vec<Inst>; 3] {
    use reg::*;
    let mut int_loop =
        vec![Inst::rri(Opcode::Addi, S0, ZERO, 40), Inst::rri(Opcode::Addi, T0, ZERO, 977)];
    // loop body (offsets relative to its first instruction)
    int_loop.extend([Inst::rrr(Opcode::Mul, T1, T0, S0), Inst::rri(Opcode::Addi, T2, T1, 13)]);
    int_loop.extend((0..12).map(|k| Inst::rri(Opcode::Xori, T3 + (k % 4), T2, k as i32)));
    int_loop.extend([
        Inst::rrr(Opcode::Div, T7, T1, S0),
        Inst::rrr(Opcode::Rem, T8, T2, S0),
        Inst::rrr(Opcode::Add, T0, T7, T8),
        Inst::rri(Opcode::Andi, T9, T0, 1),
        Inst::branch(Opcode::Beq, T9, ZERO, 2),
        Inst::rrr(Opcode::Sub, T0, T0, T3),
        Inst::rri(Opcode::Addi, S0, S0, -1),
        Inst::branch(Opcode::Bne, S0, ZERO, -21),
        Inst::halt(),
    ]);

    let mut mem_mix =
        vec![Inst::rri(Opcode::Addi, S0, ZERO, 0x4000), Inst::rri(Opcode::Addi, S1, ZERO, 48)];
    mem_mix.extend([
        Inst::load(Opcode::Ld, T0, S0, 0),
        Inst::rri(Opcode::Addi, T1, T0, 3),
        Inst::store(Opcode::Sd, T1, S0, 4), // unaligned: two words
        Inst::load(Opcode::Lb, T2, S0, 9),  // covered: forwards
        Inst::load(Opcode::Ld, T3, S0, 8),  // partial: blocks
        Inst::store(Opcode::Sw, T2, S0, 2048),
        Inst::load(Opcode::Lw, T4, S0, 2048),  // forwards
        Inst::load(Opcode::Ld, T5, S0, 2048),  // partial
        Inst::load(Opcode::Lhu, T6, S0, 4096), // same bucket, no store
        Inst::store(Opcode::Sb, T6, S0, 17),
        Inst::store(Opcode::Sh, T5, S0, 24),
        Inst::rrr(Opcode::Add, T7, T3, T4),
        Inst::store(Opcode::Sd, T7, S0, 32),
        Inst::rri(Opcode::Addi, S0, S0, 40),
        Inst::rri(Opcode::Addi, S1, S1, -1),
        Inst::branch(Opcode::Bne, S1, ZERO, -15),
        Inst::halt(),
    ]);

    let mut fp_chain = vec![
        Inst::rri(Opcode::Addi, S0, ZERO, 0x6000),
        Inst::rri(Opcode::Addi, S1, ZERO, 24),
        Inst::rri(Opcode::Addi, T0, ZERO, 3),
        Inst::rrr(Opcode::Fcvtdw, 1, T0, 0),
        Inst::rrr(Opcode::Fcvtdw, 2, S1, 0),
    ];
    fp_chain.extend([
        Inst::rrr(Opcode::Fadd, 3, 1, 2),
        Inst::rrr(Opcode::Fmul, 4, 3, 1),
        Inst::rrr(Opcode::Fdiv, 5, 4, 2),
        Inst::rrr(Opcode::Fsqrt, 6, 4, 0),
        Inst::rrr(Opcode::Fsub, 7, 5, 6),
        Inst::store(Opcode::Fsd, 7, S0, 0),
        Inst::load(Opcode::Fld, 8, S0, 0), // forwards
        Inst::load(Opcode::Fld, 9, S0, 64),
        Inst::rrr(Opcode::Fabs, 10, 9, 0),
        Inst::rrr(Opcode::Fneg, 11, 8, 0),
        Inst::rrr(Opcode::Fmov, 1, 10, 0),
        Inst::rrr(Opcode::Flt, T1, 11, 10),
        Inst::rrr(Opcode::Fcvtwd, T2, 3, 0),
        Inst::rrr(Opcode::Add, T3, T1, T2),
        Inst::rrr(Opcode::Fcvtdw, 2, T3, 0),
        Inst::rri(Opcode::Addi, S0, S0, 8),
        Inst::rri(Opcode::Addi, S1, S1, -1),
        Inst::branch(Opcode::Bne, S1, ZERO, -17),
        Inst::halt(),
    ]);
    [int_loop, mem_mix, fp_chain]
}

fn run_pinned(prog: &[Inst], ruu_entries: usize) -> (Cycle, OooStats) {
    let config = OooConfig {
        ruu_entries,
        lsq_entries: ruu_entries / 2,
        branch: crate::branch::BranchModel::TwoBit { table_bits: 6, penalty: 3 },
        ..Default::default()
    };
    let mut trace = trace_of(prog);
    let mut core = OooCore::new(config, 32);
    let mut ms = PatternMem { pending: Vec::new() };
    let cycles = run_to_completion(&mut core, &mut ms, &mut trace, |ms, core, now| {
        for &(tag, at) in ms.pending.iter().filter(|&&(_, at)| at <= now + 1) {
            core.complete_load(tag, at.max(now + 1));
        }
        ms.pending.retain(|&(_, at)| at > now + 1);
    });
    (cycles, *core.stats())
}

/// `(program, ruu_entries, cycles, [committed, loads, stores,
/// forwarded_loads, fetch_stall_cycles, ruu_full_stalls,
/// lsq_full_stalls, branches, branch_mispredicts])`, captured from the
/// `VecDeque` window this ring replaced (commit 03cc199). 6 and 100 are
/// not powers of two: those rings wrap at a different place from the
/// occupancy limit, hundreds of times per run.
const PINNED: [(usize, usize, Cycle, [u64; 9]); 9] = [
    (0, 6, 1714, [871, 0, 0, 0, 606, 971, 0, 80, 16]),
    (0, 100, 1344, [871, 0, 0, 0, 1065, 106, 0, 80, 16]),
    (0, 256, 1344, [871, 0, 0, 0, 1166, 0, 0, 80, 16]),
    (1, 6, 2236, [771, 288, 240, 96, 204, 2, 1883, 48, 2]),
    (1, 100, 445, [771, 288, 240, 96, 204, 0, 30, 48, 2]),
    (1, 256, 415, [771, 288, 240, 96, 204, 0, 0, 48, 2]),
    (2, 6, 1025, [438, 48, 24, 24, 60, 913, 0, 24, 2]),
    (2, 100, 992, [438, 48, 24, 24, 62, 668, 0, 24, 2]),
    (2, 256, 992, [438, 48, 24, 24, 61, 294, 0, 24, 2]),
];

#[test]
fn timing_and_counters_are_pinned_across_window_sizes() {
    let programs = pinned_programs();
    for (p, ruu, cycles, counters) in PINNED {
        let (got_cycles, s) = run_pinned(&programs[p], ruu);
        let got = [
            s.committed,
            s.loads,
            s.stores,
            s.forwarded_loads,
            s.fetch_stall_cycles,
            s.ruu_full_stalls,
            s.lsq_full_stalls,
            s.branches,
            s.branch_mispredicts,
        ];
        assert_eq!((got_cycles, got), (cycles, counters), "program {p}, ruu_entries {ruu}");
    }
}

fn state_of(core: &mut OooCore, tag: RuuTag) -> EState {
    core.window.get_mut(tag).expect("in flight").state
}

#[test]
fn a_forty_reader_fan_out_wakes_in_the_completion_cycle() {
    // One 12-cycle divide feeds 40 readers (the old inline consumer
    // list held four and spilled the rest to the heap). On a machine
    // wide enough to issue them all at once, every reader must have
    // left the window's wait state in the very step the divide
    // completes — the head commits in the cycle it writes back.
    let mut prog = vec![
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 100),
        Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 5),
        Inst::rrr(Opcode::Div, reg::T2, reg::T0, reg::T1),
    ];
    prog.extend((0..40).map(|k| Inst::rri(Opcode::Addi, reg::T3 + (k % 8) as u8, reg::T2, k)));
    prog.push(Inst::halt());
    let wide = OooConfig {
        issue_width: 64,
        fu: FuPool { int_alu: 64, ..Default::default() },
        ..Default::default()
    };
    let mut trace = trace_of(&prog);
    let mut core = OooCore::new(wide, 32);
    let mut ms = PerfectMem::new();
    let mut now = 0;
    while core.committed() < 3 {
        for tag in 3..core.fetch_cursor().min(43) {
            assert_eq!(state_of(&mut core, tag), EState::Waiting(1), "reader {tag}");
        }
        core.step(&mut ms, &mut trace, now).unwrap();
        now += 1;
        assert!(now < 100, "the divide never completed");
    }
    assert!(now > 12, "the divide takes 12 cycles, finished after {now}");
    assert_eq!(core.fetch_cursor(), 44, "every reader dispatched before the divide finished");
    for tag in 3..43 {
        assert_eq!(state_of(&mut core, tag), EState::Issued, "reader {tag}");
    }
    run_to_completion(&mut core, &mut ms, &mut trace, |_, _, _| {});
    assert_eq!(core.committed(), 44);
}

/// Perfect memory that notes the cycle of every load it sees.
struct LoadClock {
    issued_at: Vec<(u64, Cycle)>,
}

impl MemSystem for LoadClock {
    fn load_issued(&mut self, r: &ExecRecord, now: Cycle, _t: RuuTag) -> (LoadResponse, bool) {
        self.issued_at.push((r.mem_addr, now));
        (LoadResponse::Ready(now + 1), true)
    }
    fn mem_committed(&mut self, _r: &ExecRecord, _h: Option<bool>, _now: Cycle) {}
    fn fetch_line(&mut self, _pc: u64, now: Cycle) -> Cycle {
        now
    }
}

/// Runs `prog` (entered at 0x2000) on the default core; returns the
/// core, the load clock and the most store words ever counted at once.
fn run_store_filter(prog: &[Inst]) -> (OooCore, LoadClock, u32) {
    let mut trace = trace_at(0x2000, prog);
    let mut core = OooCore::new(OooConfig::default(), 32);
    let mut ms = LoadClock { issued_at: Vec::new() };
    let mut most = 0;
    let mut now = 0;
    while !core.is_done() {
        core.step(&mut ms, &mut trace, now).unwrap();
        most = most.max(core.store_words.iter().sum());
        now += 1;
        assert!(now < 1000, "runaway simulation");
    }
    assert_eq!(core.store_words, [0; STORE_BUCKETS], "every counted store word is released");
    (core, ms, most)
}

/// `s0 = base`, `t2 = 100 / 7` — a store of `t2` cannot complete
/// before cycle 12, so it is in flight while the loads dispatch.
fn slow_store_value(base: i32) -> Vec<Inst> {
    vec![
        Inst::rri(Opcode::Addi, reg::S0, reg::ZERO, base),
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 100),
        Inst::rri(Opcode::Addi, reg::T1, reg::ZERO, 7),
        Inst::rrr(Opcode::Div, reg::T2, reg::T0, reg::T1),
    ]
}

#[test]
fn store_filter_aliasing_creates_no_dependence() {
    // Two stores 2 KiB apart share a filter bucket. The load between
    // them reads the second one's word while only the first is in
    // flight: the filter sends it to the store-queue scan, the scan
    // finds no overlap, and the load goes to memory at once.
    let mut prog = slow_store_value(0x4000);
    prog.extend([
        Inst::store(Opcode::Sd, reg::T2, reg::S0, 0),
        Inst::load(Opcode::Ld, reg::T3, reg::S0, 2048),
        Inst::store(Opcode::Sd, reg::T2, reg::S0, 2048),
        Inst::halt(),
    ]);
    let (core, ms, most) = run_store_filter(&prog);
    assert_eq!(most, 2, "both stores were counted, in one bucket");
    assert_eq!(core.stats().forwarded_loads, 0);
    let [(addr, at)] = ms.issued_at[..] else { panic!("one load, got {:?}", ms.issued_at) };
    assert_eq!(addr, 0x4800);
    assert!(at < 5, "the load must not wait for the aliasing store, issued at {at}");
}

#[test]
fn store_filter_sees_both_words_of_an_unaligned_store() {
    // `sd` at 0x1004 covers bytes 0x1004..0x100c: words 0x1000 and
    // 0x1008. The byte at 0x1009 is covered, so `lb` forwards; `ld` at
    // 0x1008 overlaps only half of it, so it waits for the store and
    // then reads memory.
    let mut prog = slow_store_value(0x1000);
    prog.extend([
        Inst::store(Opcode::Sd, reg::T2, reg::S0, 4),
        Inst::load(Opcode::Lb, reg::T3, reg::S0, 9),
        Inst::load(Opcode::Ld, reg::T4, reg::S0, 8),
        Inst::halt(),
    ]);
    let (core, ms, most) = run_store_filter(&prog);
    assert_eq!(most, 2, "an unaligned store counts in two words");
    assert_eq!(core.stats().forwarded_loads, 1, "lb is covered by the store");
    let [(addr, at)] = ms.issued_at[..] else { panic!("one load, got {:?}", ms.issued_at) };
    assert_eq!(addr, 0x1008, "only ld reaches memory");
    assert!(at > 12, "ld waits for the store's 12-cycle value, issued at {at}");
}

/// On `Obs` every retirement reaches the core's own critical-path
/// window, stamped from the ring slot it occupied — on a 4-slot ring
/// every slot is reused several times, so a stale stamp from an earlier
/// occupant would break the orderings. The remote load keeps its send
/// stamp, its consumer points back at it, and its commit closes the
/// fill's trace flow.
#[test]
fn retirements_carry_their_slot_stamps_into_the_crit_window() {
    let small = OooConfig { ruu_entries: 4, ..OooConfig::default() };
    let prog: Vec<Inst> = [
        Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 0x4000),
        Inst::load(Opcode::Ld, reg::T1, reg::T0, 0),
        Inst::rrr(Opcode::Add, reg::T2, reg::T1, reg::T1),
    ]
    .into_iter()
    .chain((0..12).map(|k| Inst::rri(Opcode::Addi, reg::T3, reg::ZERO, k)))
    .chain([Inst::halt()])
    .collect();
    let mut trace = trace_of(&prog);
    let mut core = OooCore::<Obs>::with_flavour(small, 32);
    let mut ms = SlowMem { latency: 50, pending: Vec::new() };
    run_to_completion(&mut core, &mut ms, &mut trace, |ms, core, now| {
        let due: Vec<_> = ms.pending.iter().filter(|&&(_, at)| at <= now).cloned().collect();
        ms.pending.retain(|&(_, at)| at > now);
        for (tag, at) in due {
            core.complete_load_from(tag, at.max(now + 1), 0x4000, 3);
        }
    });
    let nodes: Vec<ds_obs::CritNode> = core.crit().iter().collect();
    assert_eq!(nodes.len(), prog.len(), "one node per retirement");
    for (k, n) in nodes.iter().enumerate() {
        assert!(
            n.dispatch <= n.ready && n.ready <= n.issue && n.issue < n.complete,
            "node {k}: {n:?}"
        );
        assert!(n.complete <= n.commit, "node {k}: {n:?}");
        assert_eq!(n.pc, 0x1000 + 8 * k as u64, "retirement order");
        if k >= 4 {
            let prev = nodes[k - 4].commit;
            assert!(n.dispatch >= prev, "node {k} took its slot before {prev}: {n:?}");
        }
    }
    let (load, add) = (nodes[1], nodes[2]);
    assert_eq!((load.fill, load.sent), (ds_obs::FillKind::RemoteFill, 3));
    assert!(load.complete >= load.issue + 50, "{load:?}");
    assert_eq!((add.producer_back, add.ready), (1, load.complete), "{add:?}");
    let flows: Vec<_> = core
        .probe()
        .ring()
        .iter()
        .filter(|e| matches!(e.kind, ds_obs::EventKind::RemoteFillCommit { .. }))
        .map(|e| (e.cycle, e.kind))
        .collect();
    let closes = ds_obs::EventKind::RemoteFillCommit { line: 0x4000, sent: 3 };
    assert_eq!(flows, [(load.commit, closes)]);
}
