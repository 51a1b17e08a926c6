//! The loadable program image.

use ds_isa::{Inst, INST_BYTES};
use ds_mem::{MemImage, Segment};
use std::collections::BTreeMap;

/// Default base address of the text segment.
pub const DEFAULT_TEXT_BASE: u64 = 0x1_0000;
/// Default base address of the data (global) segment.
pub const DEFAULT_DATA_BASE: u64 = 0x40_0000;
/// Default initial stack pointer (stacks grow down).
pub const DEFAULT_STACK_TOP: u64 = 0x800_0000;
/// Default stack reservation, for page-table construction.
pub const DEFAULT_STACK_BYTES: u64 = 256 * 1024;

/// A linked DS-1 program image.
///
/// Produced by [`crate::assemble`] or [`crate::ProgBuilder`]; loaded
/// into a [`MemImage`] with [`Program::load`]. The segment layout
/// ([`Program::regions`]) feeds the DataScalar page table, which needs
/// to know which pages are text, globals, heap and stack (the paper's
/// Table 2 reports replication per segment).
#[derive(Debug, Clone)]
pub struct Program {
    /// Base byte address of the text segment.
    pub text_base: u64,
    /// The instructions, in layout order.
    pub text: Vec<Inst>,
    /// Base byte address of the data segment.
    pub data_base: u64,
    /// Initialised data bytes.
    pub data: Vec<u8>,
    /// Zero-initialised bytes following `data`.
    pub bss_bytes: u64,
    /// Declared heap extent (bytes past the bss), for page-table
    /// construction. The heap base is [`Program::heap_base`].
    pub heap_bytes: u64,
    /// Entry point.
    pub entry: u64,
    /// Initial stack pointer.
    pub stack_top: u64,
    /// Declared stack reservation below `stack_top`.
    pub stack_bytes: u64,
    /// Symbol table (labels to byte addresses).
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// An empty program with the default layout.
    pub fn new() -> Self {
        Program {
            text_base: DEFAULT_TEXT_BASE,
            text: Vec::new(),
            data_base: DEFAULT_DATA_BASE,
            data: Vec::new(),
            bss_bytes: 0,
            heap_bytes: 0,
            entry: DEFAULT_TEXT_BASE,
            stack_top: DEFAULT_STACK_TOP,
            stack_bytes: DEFAULT_STACK_BYTES,
            symbols: BTreeMap::new(),
        }
    }

    /// Size of the text segment in bytes.
    pub fn text_bytes(&self) -> u64 {
        self.text.len() as u64 * INST_BYTES
    }

    /// First byte past the initialised + zero-initialised data: the
    /// heap base, rounded up to 4 KiB.
    pub fn heap_base(&self) -> u64 {
        let end = self.data_base + self.data.len() as u64 + self.bss_bytes;
        (end + 0xfff) & !0xfff
    }

    /// The address of a symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Writes text and data into `mem`.
    pub fn load(&self, mem: &mut MemImage) {
        for (i, inst) in self.text.iter().enumerate() {
            mem.write_u64(self.text_base + i as u64 * INST_BYTES, inst.encode());
        }
        mem.write_bytes(self.data_base, &self.data);
        // bss/heap/stack are zero by MemImage's default.
    }

    /// Segment layout as `(start, end, segment)` triples for the page
    /// table. The global segment covers data + bss; the heap region is
    /// included only if `heap_bytes > 0`.
    pub fn regions(&self) -> Vec<(u64, u64, Segment)> {
        let mut v = Vec::with_capacity(4);
        if !self.text.is_empty() {
            v.push((self.text_base, self.text_base + self.text_bytes(), Segment::Text));
        }
        let global_end = self.data_base + self.data.len() as u64 + self.bss_bytes;
        if global_end > self.data_base {
            v.push((self.data_base, global_end, Segment::Global));
        }
        if self.heap_bytes > 0 {
            v.push((self.heap_base(), self.heap_base() + self.heap_bytes, Segment::Heap));
        }
        if self.stack_bytes > 0 {
            v.push((self.stack_top - self.stack_bytes, self.stack_top, Segment::Stack));
        }
        v
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_isa::{reg, Opcode};

    fn sample() -> Program {
        let mut p = Program::new();
        p.text = vec![Inst::rri(Opcode::Addi, reg::T0, reg::ZERO, 1), Inst::halt()];
        p.data = vec![1, 2, 3, 4];
        p.bss_bytes = 100;
        p.heap_bytes = 8192;
        p.symbols.insert("main".into(), p.text_base);
        p
    }

    #[test]
    fn load_places_text_and_data() {
        let p = sample();
        let mut mem = MemImage::new();
        p.load(&mut mem);
        let w = mem.read_u64(p.text_base);
        assert_eq!(Inst::decode(w).unwrap().op, Opcode::Addi);
        assert_eq!(mem.read_u8(p.data_base + 2), 3);
    }

    #[test]
    fn heap_base_is_page_aligned_past_bss() {
        let p = sample();
        let hb = p.heap_base();
        assert_eq!(hb % 4096, 0);
        assert!(hb >= p.data_base + p.data.len() as u64 + p.bss_bytes);
    }

    #[test]
    fn regions_cover_all_segments() {
        let p = sample();
        let regions = p.regions();
        let segs: Vec<Segment> = regions.iter().map(|r| r.2).collect();
        assert_eq!(segs, vec![Segment::Text, Segment::Global, Segment::Heap, Segment::Stack]);
        for (start, end, _) in regions {
            assert!(end > start);
        }
    }

    #[test]
    fn empty_program_has_minimal_regions() {
        let p = Program::new();
        let regions = p.regions();
        assert_eq!(regions.len(), 1, "only the stack region");
        assert_eq!(regions[0].2, Segment::Stack);
    }

    #[test]
    fn symbol_lookup() {
        let p = sample();
        assert_eq!(p.symbol("main"), Some(p.text_base));
        assert_eq!(p.symbol("nope"), None);
    }
}
