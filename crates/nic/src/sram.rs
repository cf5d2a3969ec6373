//! NIC on-board SRAM.
//!
//! The LANai 4.2 board carries 1 MB of SRAM holding the firmware, the command
//! post buffers, the Shared UTLB-Cache, and (for Hierarchical-UTLB) the
//! per-process top-level page directories. SRAM references cost the NIC
//! processor a fixed, small time; the interesting budget is *capacity* —
//! which is exactly why the paper moves translation tables off the board.

use crate::{NicError, Result};
use std::fmt;

/// Default board SRAM size: 1 MB, as on the LANai 4.2.
pub const DEFAULT_SRAM_BYTES: u64 = 1 << 20;

/// An offset into NIC SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SramAddr(u64);

impl SramAddr {
    /// Creates an SRAM address from a raw offset.
    pub const fn new(raw: u64) -> Self {
        SramAddr(raw)
    }

    /// Raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        SramAddr(self.0 + bytes)
    }
}

impl fmt::Display for SramAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sram:{:#x}", self.0)
    }
}

/// A region of SRAM handed out by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramRegion {
    base: SramAddr,
    len: u64,
}

impl SramRegion {
    /// Base address of the region.
    pub fn base(self) -> SramAddr {
        self.base
    }

    /// Length in bytes.
    pub fn len(self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Address of byte `offset` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the region.
    pub fn at(self, offset: u64) -> SramAddr {
        assert!(offset < self.len, "offset {offset} outside region");
        self.base.offset(offset)
    }
}

/// The NIC's on-board memory with a bump allocator.
///
/// Firmware data structures are laid out once at initialization and never
/// freed (the MCP is downloaded at driver load), so a bump allocator matches
/// the real allocation discipline.
#[derive(Debug)]
pub struct Sram {
    data: Vec<u8>,
    next_free: u64,
}

impl Sram {
    /// Creates SRAM of `size` bytes.
    pub fn new(size: u64) -> Self {
        Sram {
            data: vec![0u8; size as usize],
            next_free: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes not yet allocated.
    pub fn available(&self) -> u64 {
        self.capacity() - self.next_free
    }

    /// Allocates a region of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramExhausted`] when the board is full.
    pub fn alloc(&mut self, len: u64) -> Result<SramRegion> {
        if len > self.available() {
            return Err(NicError::SramExhausted {
                requested: len,
                available: self.available(),
            });
        }
        let base = SramAddr(self.next_free);
        self.next_free += len;
        Ok(SramRegion { base, len })
    }

    fn check(&self, addr: SramAddr, len: usize) -> Result<()> {
        let end = addr.0.checked_add(len as u64);
        match end {
            Some(end) if end <= self.capacity() => Ok(()),
            _ => Err(NicError::SramOutOfRange {
                offset: addr.0,
                len,
            }),
        }
    }

    /// Reads bytes from SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramOutOfRange`] on an out-of-bounds access.
    pub fn read(&self, addr: SramAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        let start = addr.0 as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        Ok(())
    }

    /// Writes bytes into SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramOutOfRange`] on an out-of-bounds access.
    pub fn write(&mut self, addr: SramAddr, buf: &[u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        let start = addr.0 as usize;
        self.data[start..start + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Reads a little-endian `u64` (one translation-table word).
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramOutOfRange`] on an out-of-bounds access.
    pub fn read_u64(&self, addr: SramAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramOutOfRange`] on an out-of-bounds access.
    pub fn write_u64(&mut self, addr: SramAddr, value: u64) -> Result<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Fills every 8-byte word of `region` with the little-endian `value`
    /// (a trailing partial word takes the leading bytes of `value`).
    ///
    /// The bulk form of one `write_u64` per word: how firmware tables are
    /// initialized with the garbage address or an empty directory entry.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::SramOutOfRange`] if the region exceeds SRAM.
    pub fn fill_u64(&mut self, region: SramRegion, value: u64) -> Result<()> {
        self.check(region.base, region.len as usize)?;
        let start = region.base.0 as usize;
        let word = value.to_le_bytes();
        let mut words = self.data[start..start + region.len as usize].chunks_exact_mut(word.len());
        for chunk in &mut words {
            chunk.copy_from_slice(&word);
        }
        let tail = words.into_remainder();
        tail.copy_from_slice(&word[..tail.len()]);
        Ok(())
    }
}

impl Default for Sram {
    fn default() -> Self {
        Sram::new(DEFAULT_SRAM_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bumps_and_exhausts() {
        let mut sram = Sram::new(64);
        let a = sram.alloc(32).unwrap();
        let b = sram.alloc(32).unwrap();
        assert_eq!(a.base().raw(), 0);
        assert_eq!(b.base().raw(), 32);
        assert!(matches!(sram.alloc(1), Err(NicError::SramExhausted { .. })));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut sram = Sram::new(128);
        let r = sram.alloc(16).unwrap();
        sram.write_u64(r.at(8), 0xFEED).unwrap();
        assert_eq!(sram.read_u64(r.at(8)).unwrap(), 0xFEED);
        let mut buf = [0u8; 4];
        sram.read(r.at(0), &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn out_of_range_access_rejected() {
        let sram = Sram::new(8);
        let mut buf = [0u8; 4];
        assert!(matches!(
            sram.read(SramAddr::new(6), &mut buf),
            Err(NicError::SramOutOfRange { .. })
        ));
    }

    #[test]
    fn fill_matches_word_by_word_writes() {
        let value = 0x0000_0000_00BA_D000;
        let mut filled = Sram::new(256);
        let mut written = Sram::new(256);
        for sram in [&mut filled, &mut written] {
            sram.alloc(8).unwrap();
        }
        let r = filled.alloc(64).unwrap();
        written.alloc(64).unwrap();
        filled.fill_u64(r, value).unwrap();
        for i in 0..8 {
            written.write_u64(r.at(i * 8), value).unwrap();
        }
        assert_eq!(filled.data, written.data, "only the region changes");
        assert_eq!(filled.read_u64(r.at(56)).unwrap(), value);

        // A trailing partial word takes the value's leading bytes.
        let odd = filled.alloc(12).unwrap();
        filled.fill_u64(odd, 0x0807_0605_0403_0201).unwrap();
        let mut back = [0u8; 13];
        filled.read(odd.base(), &mut back).unwrap();
        assert_eq!(back, [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn fill_out_of_bounds_region_rejected() {
        let mut sram = Sram::new(64);
        let beyond = SramRegion {
            base: SramAddr::new(32),
            len: 40,
        };
        assert!(matches!(
            sram.fill_u64(beyond, 1),
            Err(NicError::SramOutOfRange { .. })
        ));
        assert!(sram.data.iter().all(|&b| b == 0), "nothing was written");
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn region_at_bounds_checked() {
        let mut sram = Sram::new(64);
        let r = sram.alloc(8).unwrap();
        let _ = r.at(8);
    }

    #[test]
    fn default_is_one_megabyte() {
        assert_eq!(Sram::default().capacity(), 1 << 20);
    }
}
