//! Sparse byte-addressable memory image for functional execution.

use crate::Addr;
use std::cell::Cell;
// ds-lint: allow(d1) probe-only chunk index: never iterated, so hash order cannot reach simulated state
use std::collections::HashMap;

/// Storage granularity of the sparse image (independent of the
/// architectural page size configured in the [`crate::PageTable`]).
const CHUNK: u64 = 4096;

/// A sparse, little-endian, byte-addressable memory image.
///
/// Reads of unmapped memory return zero; writes allocate backing
/// storage on demand. In a DataScalar system every node runs the same
/// program and computes every store, so each node's functional image is
/// the *entire* address space — ownership affects only timing, never
/// values. One shared `MemImage` therefore backs all nodes.
///
/// Chunk storage is a dense `Vec` reached through a `chunk id → index`
/// map, with a one-entry memo of the last chunk touched: the functional
/// core's fetch/load/store stream is overwhelmingly sequential within a
/// chunk, so the common case skips hashing entirely. The memo is a
/// [`Cell`] so reads (`&self`) refresh it too.
///
/// # Examples
///
/// ```
/// use ds_mem::MemImage;
///
/// let mut m = MemImage::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9_0000), 0, "unmapped reads as zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    chunks: Vec<Box<[u8]>>,
    // ds-lint: allow(d1) probed by chunk id on the functional hot path (memoized); never iterated
    index: HashMap<u64, u32>,
    /// Last resolution as `(chunk id, vec index)` — hit on sequential
    /// access.
    memo: Cell<Option<(u64, u32)>>,
}

impl MemImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a chunk id to its dense index, consulting the memo
    /// first.
    #[inline]
    fn lookup(&self, id: u64) -> Option<u32> {
        if let Some((memo_id, idx)) = self.memo.get() {
            if memo_id == id {
                return Some(idx);
            }
        }
        let idx = *self.index.get(&id)?;
        self.memo.set(Some((id, idx)));
        Some(idx)
    }

    #[inline]
    fn chunk(&self, addr: Addr) -> Option<&[u8]> {
        let idx = self.lookup(addr / CHUNK)?;
        Some(&self.chunks[idx as usize])
    }

    #[inline]
    fn chunk_mut(&mut self, addr: Addr) -> &mut [u8] {
        let id = addr / CHUNK;
        let idx = match self.lookup(id) {
            Some(idx) => idx,
            None => {
                // ds-lint: allow(p1) 2^32 chunks would be 2^48 bytes of simulated memory; the address space is 48-bit so the count cannot overflow
                let idx = u32::try_from(self.chunks.len()).expect("chunk count fits u32");
                // ds-lint: allow(a1) first-touch chunk allocation: one 4 KiB vec per touched chunk for the whole run, amortized to zero on the steady-state cycle path
                self.chunks.push(vec![0u8; CHUNK as usize].into_boxed_slice());
                self.index.insert(id, idx);
                self.memo.set(Some((id, idx)));
                idx
            }
        };
        &mut self.chunks[idx as usize]
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.chunk(addr) {
            Some(c) => c[(addr % CHUNK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let off = (addr % CHUNK) as usize;
        self.chunk_mut(addr)[off] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`. Accesses may
    /// straddle chunk boundaries; no alignment is required.
    fn read_le<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: within one chunk.
        let off = (addr % CHUNK) as usize;
        if off + N <= CHUNK as usize {
            if let Some(c) = self.chunk(addr) {
                out.copy_from_slice(&c[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        out
    }

    fn write_le<const N: usize>(&mut self, addr: Addr, bytes: [u8; N]) {
        let off = (addr % CHUNK) as usize;
        if off + N <= CHUNK as usize {
            self.chunk_mut(addr)[off..off + N].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.read_le(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_le(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_le(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Reads an `f64` (IEEE-754 bits via `u64`).
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies `bytes` into the image starting at `addr`, one
    /// chunk-sized `copy_from_slice` at a time.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr % CHUNK) as usize;
            let n = rest.len().min(CHUNK as usize - off);
            self.chunk_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector,
    /// copying chunk-wise (unmapped chunks read as zeros).
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut addr = addr;
        let mut dst = &mut out[..];
        while !dst.is_empty() {
            let off = (addr % CHUNK) as usize;
            let n = dst.len().min(CHUNK as usize - off);
            if let Some(c) = self.chunk(addr) {
                dst[..n].copy_from_slice(&c[off..off + n]);
            }
            addr += n as u64;
            dst = &mut dst[n..];
        }
        out
    }

    /// Number of backing chunks allocated (a proxy for touched
    /// footprint; each chunk is 4 KiB).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(123456789), 0);
        assert_eq!(m.allocated_chunks(), 0);
    }

    #[test]
    fn widths_roundtrip() {
        let mut m = MemImage::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xcdef);
        m.write_u32(30, 0x1234_5678);
        m.write_u64(40, 0x1122_3344_5566_7788);
        m.write_f64(50, -3.5);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xcdef);
        assert_eq!(m.read_u32(30), 0x1234_5678);
        assert_eq!(m.read_u64(40), 0x1122_3344_5566_7788);
        assert_eq!(m.read_f64(50), -3.5);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MemImage::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(1), 2);
        assert_eq!(m.read_u8(2), 3);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn straddles_chunk_boundary() {
        let mut m = MemImage::new();
        let addr = CHUNK - 3;
        m.write_u64(addr, 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.read_u64(addr), 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.allocated_chunks(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = MemImage::new();
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(5000, &data);
        assert_eq!(m.read_bytes(5000, 100), data);
    }

    #[test]
    fn bulk_bytes_span_many_chunks() {
        let mut m = MemImage::new();
        // 3 chunks' worth starting mid-chunk, so both the write and the
        // read cross two boundaries.
        let data: Vec<u8> = (0..3 * CHUNK).map(|i| (i * 7 + 13) as u8).collect();
        let addr = 10 * CHUNK + 100;
        m.write_bytes(addr, &data);
        assert_eq!(m.read_bytes(addr, data.len()), data);
        assert_eq!(m.allocated_chunks(), 4);
        // A read overlapping mapped and unmapped chunks zero-fills the
        // unmapped tail.
        let tail = m.read_bytes(addr + data.len() as u64 - 4, 100);
        assert_eq!(&tail[..4], &data[data.len() - 4..]);
        assert!(tail[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut m = MemImage::new();
        m.write_u64(64, 1);
        m.write_u64(64, 2);
        assert_eq!(m.read_u64(64), 2);
    }

    #[test]
    fn memo_survives_alternating_chunks() {
        let mut m = MemImage::new();
        let a = 0;
        let b = 100 * CHUNK;
        m.write_u64(a, 1);
        m.write_u64(b, 2);
        // Alternate so the memo is wrong on every access.
        for _ in 0..10 {
            assert_eq!(m.read_u64(a), 1);
            assert_eq!(m.read_u64(b), 2);
        }
        let cloned = m.clone();
        assert_eq!(cloned.read_u64(a), 1);
        assert_eq!(cloned.read_u64(b), 2);
    }
}
