//! Byte-addressable simulated physical memory.

use crate::{FrameAllocator, FrameId, MemError, PhysAddr, Result, PAGE_SIZE};
use std::collections::HashMap;

/// Simulated host DRAM.
///
/// Storage is materialized one frame at a time on first write, so a host with
/// gigabytes of simulated DRAM costs almost nothing until data is actually
/// placed in it. Reads of frames that were never written observe zeros, like
/// demand-zero memory on a real OS.
#[derive(Debug)]
pub struct PhysicalMemory {
    allocator: FrameAllocator,
    data: HashMap<u64, Box<[u8]>>,
}

impl PhysicalMemory {
    /// Creates a physical memory with `total_frames` frames of 4 KB.
    pub fn new(total_frames: u64) -> Self {
        PhysicalMemory {
            allocator: FrameAllocator::new(total_frames),
            data: HashMap::new(),
        }
    }

    /// The frame allocator for this memory.
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when DRAM is exhausted.
    pub fn alloc_frame(&mut self) -> Result<FrameId> {
        self.allocator.alloc()
    }

    /// Frees one frame, dropping its contents.
    pub fn free_frame(&mut self, frame: FrameId) {
        self.data.remove(&frame.number());
        self.allocator.free(frame);
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.allocator.total_frames() * PAGE_SIZE
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<()> {
        let end = addr.raw().checked_add(len as u64);
        match end {
            Some(end) if end <= self.size_bytes() => Ok(()),
            _ => Err(MemError::PhysOutOfRange { addr, len }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// The range may span frame boundaries. Unwritten memory reads as zero.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the range exceeds DRAM.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr.raw();
        let mut filled = 0usize;
        while filled < buf.len() {
            let frame = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            match self.data.get(&frame) {
                Some(bytes) => {
                    buf[filled..filled + chunk].copy_from_slice(&bytes[off..off + chunk])
                }
                None => buf[filled..filled + chunk].fill(0),
            }
            filled += chunk;
            cursor += chunk as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, materializing frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the range exceeds DRAM.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr.raw();
        let mut consumed = 0usize;
        while consumed < buf.len() {
            let frame = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - consumed);
            let bytes = self
                .data
                .entry(frame)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            bytes[off..off + chunk].copy_from_slice(&buf[consumed..consumed + chunk]);
            consumed += chunk;
            cursor += chunk as u64;
        }
        Ok(())
    }

    /// Fills all of `frame` with the little-endian word `value`.
    ///
    /// The bulk form of writing `value` to each of the frame's 512 words:
    /// one filled page replaces whatever the frame held, with one map
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the frame lies beyond DRAM.
    pub fn fill_frame_u64(&mut self, frame: FrameId, value: u64) -> Result<()> {
        self.check_range(frame.base(), PAGE_SIZE as usize)?;
        let page = value.to_le_bytes().repeat(PAGE_SIZE as usize / 8);
        self.data.insert(frame.number(), page.into_boxed_slice());
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr` (used by page-table walkers).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the word exceeds DRAM.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the word exceeds DRAM.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Number of frames whose storage has been materialized.
    pub fn resident_frames(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = PhysicalMemory::new(16);
        let mut buf = [0xAAu8; 8];
        mem.read(PhysAddr::new(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn write_then_read_roundtrips_across_frames() {
        let mut mem = PhysicalMemory::new(16);
        let addr = PhysAddr::new(PAGE_SIZE - 3);
        let payload = b"straddling frame boundary";
        mem.write(addr, payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        mem.read(addr, &mut back).unwrap();
        assert_eq!(&back, payload);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = PhysicalMemory::new(1);
        let past_end = PhysAddr::new(PAGE_SIZE - 1);
        assert!(matches!(
            mem.write(past_end, &[1, 2]),
            Err(MemError::PhysOutOfRange { .. })
        ));
        let mut b = [0u8; 2];
        assert!(matches!(
            mem.read(past_end, &mut b),
            Err(MemError::PhysOutOfRange { .. })
        ));
        // Exactly at the edge is fine.
        mem.write(past_end, &[7]).unwrap();
    }

    #[test]
    fn u64_roundtrip() {
        let mut mem = PhysicalMemory::new(4);
        mem.write_u64(PhysAddr::new(8), 0xDEAD_BEEF_CAFE_F00D)
            .unwrap();
        assert_eq!(
            mem.read_u64(PhysAddr::new(8)).unwrap(),
            0xDEAD_BEEF_CAFE_F00D
        );
    }

    #[test]
    fn freeing_frame_drops_contents() {
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base(), b"x").unwrap();
        mem.free_frame(f);
        let f2 = mem.alloc_frame().unwrap();
        assert_eq!(f, f2, "lowest frame is reused");
        let mut b = [0xFFu8; 1];
        mem.read(f2.base(), &mut b).unwrap();
        assert_eq!(b[0], 0, "recycled frame reads as zero");
    }

    /// The same frame filled word by word with `write_u64`, the way
    /// translation tables were initialized before the bulk fill existed.
    fn filled_word_by_word(frame: FrameId, value: u64) -> Vec<u8> {
        let mut mem = PhysicalMemory::new(frame.number() + 1);
        for i in 0..PAGE_SIZE / 8 {
            mem.write_u64(frame.base().offset(i * 8), value).unwrap();
        }
        let mut out = vec![0u8; PAGE_SIZE as usize];
        mem.read(frame.base(), &mut out).unwrap();
        out
    }

    #[test]
    fn fill_frame_matches_word_by_word_writes() {
        let value = 0x0000_0000_00BA_D000;
        let mut mem = PhysicalMemory::new(4);
        let f = FrameId::new(2);
        mem.fill_frame_u64(f, value).unwrap();
        let mut back = vec![0u8; PAGE_SIZE as usize];
        mem.read(f.base(), &mut back).unwrap();
        assert_eq!(back, filled_word_by_word(f, value));
        assert_eq!(mem.read_u64(f.base().offset(8 * 511)).unwrap(), value);
        // Neighbours are untouched.
        assert_eq!(mem.read_u64(FrameId::new(1).base()).unwrap(), 0);
        assert_eq!(mem.read_u64(FrameId::new(3).base()).unwrap(), 0);
    }

    #[test]
    fn fill_frame_overwrites_a_dirty_recycled_frame() {
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base(), &[0xEE; PAGE_SIZE as usize]).unwrap();
        mem.free_frame(f);
        let again = mem.alloc_frame().unwrap();
        assert_eq!(f, again, "lowest frame is reused");
        // Dirty it again while allocated, then fill over the old bytes.
        mem.write(again.base().offset(100), b"stale").unwrap();
        mem.fill_frame_u64(again, 0x1122_3344_5566_7788).unwrap();
        let mut back = vec![0u8; PAGE_SIZE as usize];
        mem.read(again.base(), &mut back).unwrap();
        assert_eq!(back, filled_word_by_word(again, 0x1122_3344_5566_7788));
    }

    #[test]
    fn fill_frame_materializes_exactly_one_frame() {
        let mut mem = PhysicalMemory::new(8);
        // Even an all-zero fill materializes the frame, as word writes do.
        mem.fill_frame_u64(FrameId::new(5), 0).unwrap();
        assert_eq!(mem.resident_frames(), 1);
        mem.fill_frame_u64(FrameId::new(5), 7).unwrap();
        assert_eq!(mem.resident_frames(), 1, "a refill reuses the frame");
    }

    #[test]
    fn fill_frame_out_of_range_rejected() {
        let mut mem = PhysicalMemory::new(2);
        assert!(matches!(
            mem.fill_frame_u64(FrameId::new(2), 1),
            Err(MemError::PhysOutOfRange { .. })
        ));
        assert_eq!(mem.resident_frames(), 0);
    }
}
