//! The functional reference stream.

use ds_asm::Program;
use ds_cpu::FuncCore;
use ds_mem::MemImage;

/// What kind of memory reference an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// Instruction fetch (one per executed instruction).
    InstFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// One memory reference of the architected execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEvent {
    /// Kind of reference.
    pub kind: RefKind,
    /// Byte address referenced.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u64,
    /// Index of the instruction that generated it.
    pub icount: u64,
}

/// Runs `program` functionally for at most `max_insts` instructions,
/// invoking `f` for every memory reference in order: the instruction
/// fetch first, then the data access (if any).
///
/// Returns the number of instructions executed.
///
/// # Panics
///
/// Panics if the program contains undecodable instructions (workload
/// programs are trusted).
pub fn for_each_ref(program: &Program, max_insts: u64, mut f: impl FnMut(RefEvent)) -> u64 {
    let mut mem = MemImage::new();
    program.load(&mut mem);
    let mut cpu = FuncCore::with_stack(program.entry, program.stack_top);
    let mut executed = 0;
    while executed < max_insts {
        #[expect(
            clippy::expect_used,
            reason = "documented Panics contract: workload programs are trusted"
        )]
        let Some(rec) = cpu.step(&mut mem).expect("workload executes cleanly") else {
            break;
        };
        executed += 1;
        f(RefEvent {
            kind: RefKind::InstFetch,
            addr: rec.pc,
            bytes: ds_isa::INST_BYTES,
            icount: rec.icount,
        });
        if rec.is_load() {
            f(RefEvent {
                kind: RefKind::Load,
                addr: rec.mem_addr,
                bytes: rec.mem_bytes,
                icount: rec.icount,
            });
        } else if rec.is_store() {
            f(RefEvent {
                kind: RefKind::Store,
                addr: rec.mem_addr,
                bytes: rec.mem_bytes,
                icount: rec.icount,
            });
        }
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_asm::assemble;

    fn prog() -> Program {
        assemble(
            r#"
            .data
            x: .word 7
            .text
            main: la t0, x
                  ld t1, 0(t0)
                  sd t1, 8(t0)
                  halt
            "#,
        )
        .unwrap()
    }

    #[test]
    fn every_instruction_fetch_is_reported() {
        let p = prog();
        let mut fetches = 0;
        let n = for_each_ref(&p, u64::MAX, |e| {
            if e.kind == RefKind::InstFetch {
                fetches += 1;
            }
        });
        assert_eq!(fetches, n);
        assert_eq!(n, 5, "la(2) + ld + sd + halt");
    }

    #[test]
    fn data_refs_follow_their_fetch() {
        let p = prog();
        let mut events = Vec::new();
        for_each_ref(&p, u64::MAX, |e| events.push(e));
        let load = events.iter().find(|e| e.kind == RefKind::Load).unwrap();
        let store = events.iter().find(|e| e.kind == RefKind::Store).unwrap();
        assert_eq!(load.addr, p.symbol("x").unwrap());
        assert_eq!(store.addr, p.symbol("x").unwrap() + 8);
        assert_eq!(load.bytes, 8);
    }

    #[test]
    fn max_insts_truncates() {
        let p = prog();
        let n = for_each_ref(&p, 2, |_| {});
        assert_eq!(n, 2);
    }
}
