//! Demand-driven committed-instruction stream shared by all nodes.

use crate::exec::{ExecError, ExecRecord, FuncCore};
use ds_mem::MemImage;
use std::collections::VecDeque;

/// A sliding window over the architected execution path of a program.
///
/// All DataScalar nodes run the same program on the same data, and the
/// paper's timing simulations assume perfect branch prediction, so every
/// node's fetch stream is the same sequence of [`ExecRecord`]s. A
/// `TraceSource` materialises that sequence once, on demand, from a
/// [`FuncCore`]; each consumer indexes it by instruction number, and
/// [`TraceSource::trim`] releases records every consumer has passed.
///
/// The *skew* between consumers' cursors is exactly the paper's
/// datathreading: a node running ahead on locally owned operands fetches
/// further into this stream than its peers.
///
/// # Examples
///
/// ```
/// use ds_cpu::{FuncCore, TraceSource};
/// use ds_isa::Inst;
/// use ds_mem::MemImage;
///
/// let mut mem = MemImage::new();
/// mem.write_u64(0x1000, Inst::nop().encode());
/// mem.write_u64(0x1008, Inst::halt().encode());
/// let mut trace = TraceSource::new(FuncCore::new(0x1000), mem);
/// assert!(trace.get(0).unwrap().is_some());
/// assert!(trace.get(1).unwrap().is_some());
/// assert!(trace.get(2).unwrap().is_none(), "past the halt");
/// ```
#[derive(Debug)]
pub struct TraceSource {
    core: FuncCore,
    mem: MemImage,
    window: VecDeque<ExecRecord>,
    /// Instruction number of `window[0]`.
    base: u64,
    /// Set once the functional core halts; records past the end are
    /// `None`.
    end: Option<u64>,
    /// High-water mark of `window.len()` — the worst-case node skew
    /// (datathreading distance) plus in-flight window.
    max_window: usize,
}

impl TraceSource {
    /// Wraps a functional core and its memory image.
    ///
    /// The core should be positioned at the program entry; the image
    /// must already contain the loaded program.
    pub fn new(core: FuncCore, mem: MemImage) -> Self {
        TraceSource { core, mem, window: VecDeque::new(), base: 0, end: None, max_window: 0 }
    }

    /// Returns the record of instruction `idx` (extending the window by
    /// functional execution as needed), or `None` if the program halts
    /// before `idx`.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors (undecodable
    /// instructions).
    ///
    /// # Panics
    ///
    /// Panics if `idx` has already been trimmed away — consumers must
    /// not read behind the trim point.
    pub fn get(&mut self, idx: u64) -> Result<Option<&ExecRecord>, ExecError> {
        assert!(idx >= self.base, "instruction {idx} already trimmed (base {})", self.base);
        while self.end.is_none() && self.base + self.window.len() as u64 <= idx {
            match self.core.step(&mut self.mem)? {
                Some(rec) => self.window.push_back(rec),
                None => self.end = Some(self.base + self.window.len() as u64),
            }
        }
        if self.window.len() > self.max_window {
            self.max_window = self.window.len();
        }
        Ok(self.window.get((idx - self.base) as usize))
    }

    /// Drops all records before `min_idx` (the minimum over all
    /// consumers' cursors).
    pub fn trim(&mut self, min_idx: u64) {
        let n = (min_idx.saturating_sub(self.base) as usize).min(self.window.len());
        if n > 0 {
            self.window.drain(..n);
            self.base += n as u64;
        }
    }

    /// The total length of the committed stream, if the program has
    /// halted within the portion generated so far.
    pub fn known_len(&self) -> Option<u64> {
        self.end
    }

    /// Instructions currently buffered.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// High-water mark of the buffered window over the whole run.
    pub fn max_window_len(&self) -> usize {
        self.max_window
    }

    /// Read access to the final memory image (useful for checking
    /// program results after a run). The image reflects execution up to
    /// the furthest record generated so far.
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// The functional core (e.g. to inspect final register state).
    pub fn core(&self) -> &FuncCore {
        &self.core
    }
}

/// The fetch stage's instruction supply: the engine feeds the
/// out-of-order cores straight from a demand-extended [`TraceSource`];
/// layer benchmarks and tests substitute a canned stream.
pub trait InstFeed {
    /// The record of instruction `idx`, or `None` if the program halts
    /// before it.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    fn fetch_record(&mut self, idx: u64) -> Result<Option<ExecRecord>, ExecError>;
}

impl InstFeed for TraceSource {
    #[inline]
    fn fetch_record(&mut self, idx: u64) -> Result<Option<ExecRecord>, ExecError> {
        Ok(self.get(idx)?.copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_isa::{reg, Inst, Opcode};

    fn source(prog: &[Inst]) -> TraceSource {
        let mut mem = MemImage::new();
        for (i, inst) in prog.iter().enumerate() {
            mem.write_u64(0x1000 + 8 * i as u64, inst.encode());
        }
        TraceSource::new(FuncCore::new(0x1000), mem)
    }

    fn counted_loop() -> TraceSource {
        source(&[
            Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 3),
            Inst::rri(Opcode::Addi, reg::T0, reg::T0, -1),
            Inst::branch(Opcode::Bne, reg::T0, reg::ZERO, -1),
            Inst::halt(),
        ])
    }

    #[test]
    fn random_access_within_window() {
        let mut t = counted_loop();
        // Stream: addi, (addi, bne) x3, halt = 1 + 6 + 1 = 8 records.
        assert_eq!(t.get(7).unwrap().unwrap().inst.op, Opcode::Halt);
        assert_eq!(t.get(0).unwrap().unwrap().inst.op, Opcode::Addi);
        assert!(t.get(8).unwrap().is_none());
        assert_eq!(t.known_len(), Some(8));
    }

    #[test]
    fn trim_releases_memory_but_keeps_future() {
        let mut t = counted_loop();
        t.get(7).unwrap();
        assert_eq!(t.window_len(), 8);
        t.trim(5);
        assert_eq!(t.window_len(), 3);
        assert_eq!(t.get(5).unwrap().unwrap().icount, 5);
    }

    #[test]
    #[should_panic(expected = "already trimmed")]
    fn reading_behind_trim_panics() {
        let mut t = counted_loop();
        t.get(7).unwrap();
        t.trim(5);
        let _ = t.get(2);
    }

    #[test]
    fn two_consumers_with_skew() {
        let mut t = counted_loop();
        let mut a = 0u64;
        let mut b = 0u64;
        // Consumer A runs ahead.
        while t.get(a).unwrap().is_some() {
            a += 1;
        }
        while t.get(b).unwrap().is_some() {
            let rec = *t.get(b).unwrap().unwrap();
            assert_eq!(rec.icount, b);
            b += 1;
            t.trim(b.min(a));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn bad_program_propagates_error() {
        let mut mem = MemImage::new();
        mem.write_u64(0x1000, u64::MAX);
        let mut t = TraceSource::new(FuncCore::new(0x1000), mem);
        assert!(t.get(0).is_err());
    }
}
