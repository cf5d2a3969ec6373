//! The Hierarchical-UTLB translation table (paper §3.3).
//!
//! Instead of user-managed slot indices, the translation table *is* a
//! two-level page table keyed by virtual address:
//!
//! * the **top-level directory** lives in NIC SRAM, so a Shared UTLB-Cache
//!   miss costs one SRAM reference (directory) plus one DMA (second-level
//!   entry fetch),
//! * the **second-level tables** live in host physical memory, one 4 KB
//!   frame each, holding the physical addresses of explicitly pinned pages,
//! * entries of pages that are not pinned hold the garbage-page address, so
//!   the NIC performs no validity checks (§4.2),
//! * a second-level table may be **swapped out** to disk; the directory then
//!   stores the disk block number and a presence bit (§3.3), and touching it
//!   requires a host interrupt to swap it back in.

use crate::{Result, UtlbError};
use std::collections::HashMap;
use utlb_mem::{
    BlockId, FrameId, PhysAddr, PhysicalMemory, ProcessId, SwapDevice, VirtPage, PAGE_SIZE,
};
use utlb_nic::{Sram, SramRegion};

/// Entries per second-level table: one 4 KB frame of 8-byte entries.
pub const LEAF_ENTRIES: u64 = PAGE_SIZE / 8;

/// Directory entries per process: covers `DIR_ENTRIES * LEAF_ENTRIES` pages
/// (4 GB of virtual address space with 4 KB pages — the whole 32-bit space
/// of the paper's machines).
pub const DIR_ENTRIES: u64 = 2048;

/// What a directory slot currently points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEntry {
    /// No second-level table exists yet.
    Empty,
    /// Second-level table resident in host memory at this frame.
    Present(FrameId),
    /// Second-level table swapped out to this disk block.
    Swapped(BlockId),
}

const FLAG_PRESENT: u64 = 0b01;
const FLAG_SWAPPED: u64 = 0b10;

fn encode(entry: DirEntry) -> u64 {
    match entry {
        DirEntry::Empty => 0,
        DirEntry::Present(f) => (f.number() << 2) | FLAG_PRESENT,
        DirEntry::Swapped(b) => (b.raw() << 2) | FLAG_SWAPPED,
    }
}

fn decode(raw: u64) -> DirEntry {
    if raw & FLAG_PRESENT != 0 {
        DirEntry::Present(FrameId::new(raw >> 2))
    } else if raw & FLAG_SWAPPED != 0 {
        DirEntry::Swapped(BlockId::new(raw >> 2))
    } else {
        DirEntry::Empty
    }
}

/// A per-process Hierarchical-UTLB translation table.
#[derive(Debug)]
pub struct HierTable {
    pid: ProcessId,
    directory: SramRegion,
    garbage: PhysAddr,
    /// Valid (installed, non-garbage) entry count, for accounting.
    installed: u64,
    /// Resident leaf frames, mirrored from the directory for iteration.
    leaves: HashMap<u64, FrameId>,
}

impl HierTable {
    /// Allocates the top-level directory in NIC SRAM.
    ///
    /// # Errors
    ///
    /// Propagates SRAM exhaustion.
    pub fn new(pid: ProcessId, sram: &mut Sram, garbage: PhysAddr) -> Result<Self> {
        let directory = sram.alloc(DIR_ENTRIES * 8).map_err(UtlbError::Nic)?;
        sram.fill_u64(directory, encode(DirEntry::Empty))
            .map_err(UtlbError::Nic)?;
        Ok(HierTable {
            pid,
            directory,
            garbage,
            installed: 0,
            leaves: HashMap::new(),
        })
    }

    /// Owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Number of installed (pinned) translations.
    pub fn installed(&self) -> u64 {
        self.installed
    }

    /// The garbage-page address entries are initialized with.
    pub fn garbage(&self) -> PhysAddr {
        self.garbage
    }

    fn split(page: VirtPage) -> (u64, u64) {
        let n = page.number();
        let dir = n / LEAF_ENTRIES;
        assert!(
            dir < DIR_ENTRIES,
            "virtual page {n:#x} outside the 4 GB space the directory covers"
        );
        (dir, n % LEAF_ENTRIES)
    }

    /// Reads a directory slot — one NIC SRAM reference.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors (simulator-internal).
    pub fn dir_entry(&self, page: VirtPage, sram: &Sram) -> Result<DirEntry> {
        let (dir, _) = Self::split(page);
        let raw = sram
            .read_u64(self.directory.at(dir * 8))
            .map_err(UtlbError::Nic)?;
        Ok(decode(raw))
    }

    fn set_dir_entry(&mut self, dir: u64, entry: DirEntry, sram: &mut Sram) -> Result<()> {
        sram.write_u64(self.directory.at(dir * 8), encode(entry))
            .map_err(UtlbError::Nic)?;
        match entry {
            DirEntry::Present(f) => {
                self.leaves.insert(dir, f);
            }
            _ => {
                self.leaves.remove(&dir);
            }
        }
        Ok(())
    }

    fn ensure_leaf(
        &mut self,
        dir: u64,
        host: &mut PhysicalMemory,
        sram: &mut Sram,
    ) -> Result<FrameId> {
        if let Some(f) = self.leaves.get(&dir) {
            return Ok(*f);
        }
        let raw = sram
            .read_u64(self.directory.at(dir * 8))
            .map_err(UtlbError::Nic)?;
        match decode(raw) {
            DirEntry::Present(f) => Ok(f),
            DirEntry::Swapped(_) => panic!("swap-in must be performed before installing"),
            DirEntry::Empty => {
                let frame = host.alloc_frame()?;
                host.fill_frame_u64(frame, self.garbage.raw())?;
                self.set_dir_entry(dir, DirEntry::Present(frame), sram)?;
                Ok(frame)
            }
        }
    }

    /// Host physical address of the translation entry for `page`, when its
    /// second-level table is resident — this is the address the NIC DMAs
    /// from on a Shared UTLB-Cache miss.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors.
    pub fn entry_addr(&self, page: VirtPage, sram: &Sram) -> Result<Option<PhysAddr>> {
        let (dir, leaf) = Self::split(page);
        match self.dir_entry(page, sram)? {
            DirEntry::Present(_) => {
                let frame = self.leaves[&dir];
                Ok(Some(frame.base().offset(leaf * 8)))
            }
            _ => Ok(None),
        }
    }

    /// Installs the translation `page → phys` (driver side of the pin
    /// `ioctl`), materializing the second-level table if needed.
    ///
    /// # Errors
    ///
    /// Propagates frame-allocation and range errors.
    pub fn install(
        &mut self,
        page: VirtPage,
        phys: PhysAddr,
        host: &mut PhysicalMemory,
        sram: &mut Sram,
    ) -> Result<()> {
        let (dir, leaf) = Self::split(page);
        let frame = self.ensure_leaf(dir, host, sram)?;
        let addr = frame.base().offset(leaf * 8);
        let old = host.read_u64(addr)?;
        host.write_u64(addr, phys.raw())?;
        if old == self.garbage.raw() && phys != self.garbage {
            self.installed += 1;
        }
        Ok(())
    }

    /// Invalidates the translation for `page` (after unpinning), restoring
    /// the garbage address.
    ///
    /// The second-level table must be resident: like the install path, the
    /// driver faults a swapped table in (see [`HierTable::swap_in`]) before
    /// touching entries. Invalidating through a swapped-out leaf is a
    /// silent no-op, mirroring an OS that defers the table update to the
    /// next fault.
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn invalidate(
        &mut self,
        page: VirtPage,
        host: &mut PhysicalMemory,
        sram: &Sram,
    ) -> Result<()> {
        let (dir, leaf) = Self::split(page);
        let _ = sram; // directory itself is untouched by an invalidate
        if let Some(frame) = self.leaves.get(&dir) {
            let addr = frame.base().offset(leaf * 8);
            let old = host.read_u64(addr)?;
            if old != self.garbage.raw() {
                host.write_u64(addr, self.garbage.raw())?;
                self.installed -= 1;
            }
        }
        Ok(())
    }

    /// Reads the stored translation for `page`; garbage means "not pinned".
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn read_entry(
        &self,
        page: VirtPage,
        host: &PhysicalMemory,
        sram: &Sram,
    ) -> Result<PhysAddr> {
        match self.entry_addr(page, sram)? {
            Some(addr) => Ok(PhysAddr::new(host.read_u64(addr)?)),
            None => Ok(self.garbage),
        }
    }

    /// Swaps the second-level table containing `page` out to disk (§3.3),
    /// freeing its host frame. Returns the disk block, or `None` if the
    /// table was not resident.
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn swap_out(
        &mut self,
        page: VirtPage,
        host: &mut PhysicalMemory,
        sram: &mut Sram,
        swap: &mut SwapDevice,
    ) -> Result<Option<BlockId>> {
        let (dir, _) = Self::split(page);
        let Some(frame) = self.leaves.get(&dir).copied() else {
            return Ok(None);
        };
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        host.read(frame.base(), &mut buf)?;
        let block = swap.store(&buf);
        host.free_frame(frame);
        self.set_dir_entry(dir, DirEntry::Swapped(block), sram)?;
        Ok(Some(block))
    }

    /// Swaps the second-level table containing `page` back in. The real
    /// system raises a host interrupt for this; the caller charges that
    /// cost. Returns `true` if a swap-in happened.
    ///
    /// # Errors
    ///
    /// Propagates swap and allocation errors.
    pub fn swap_in(
        &mut self,
        page: VirtPage,
        host: &mut PhysicalMemory,
        sram: &mut Sram,
        swap: &mut SwapDevice,
    ) -> Result<bool> {
        let (dir, _) = Self::split(page);
        let raw = sram
            .read_u64(self.directory.at(dir * 8))
            .map_err(UtlbError::Nic)?;
        let DirEntry::Swapped(block) = decode(raw) else {
            return Ok(false);
        };
        let data = swap.load(block)?;
        let frame = host.alloc_frame()?;
        host.write(frame.base(), &data)?;
        self.set_dir_entry(dir, DirEntry::Present(frame), sram)?;
        Ok(true)
    }

    /// Releases every resident leaf frame (process teardown).
    pub fn release(&mut self, host: &mut PhysicalMemory) {
        for (_, frame) in self.leaves.drain() {
            host.free_frame(frame);
        }
        self.installed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GARBAGE: PhysAddr = PhysAddr::new(0x00BA_D000);

    fn setup() -> (PhysicalMemory, Sram, HierTable) {
        let mut host = PhysicalMemory::new(256);
        let mut sram = Sram::new(1 << 20);
        let t = HierTable::new(ProcessId::new(1), &mut sram, GARBAGE).unwrap();
        let _ = &mut host;
        (host, sram, t)
    }

    #[test]
    fn fresh_table_reads_garbage() {
        let (host, sram, t) = setup();
        assert_eq!(
            t.read_entry(VirtPage::new(7), &host, &sram).unwrap(),
            GARBAGE
        );
        assert_eq!(
            t.dir_entry(VirtPage::new(7), &sram).unwrap(),
            DirEntry::Empty
        );
        assert_eq!(t.installed(), 0);
    }

    #[test]
    fn new_leaf_matches_word_by_word_garbage_writes() {
        let (mut host, mut sram, mut t) = setup();
        let page = VirtPage::new(3 * LEAF_ENTRIES + 5);
        t.install(page, PhysAddr::new(0x42_000), &mut host, &mut sram)
            .unwrap();
        let DirEntry::Present(frame) = t.dir_entry(page, &sram).unwrap() else {
            panic!("install materializes the leaf");
        };
        let mut expect = PhysicalMemory::new(256);
        for i in 0..LEAF_ENTRIES {
            expect
                .write_u64(frame.base().offset(i * 8), GARBAGE.raw())
                .unwrap();
        }
        expect
            .write_u64(frame.base().offset(5 * 8), 0x42_000)
            .unwrap();
        let (mut got, mut want) = (vec![0u8; 4096], vec![0u8; 4096]);
        host.read(frame.base(), &mut got).unwrap();
        expect.read(frame.base(), &mut want).unwrap();
        assert_eq!(got, want);
        assert_eq!(host.resident_frames(), 1, "one leaf, one frame");
    }

    #[test]
    fn fresh_directory_reads_empty_in_every_slot() {
        // Leave junk where the directory will go: the fill must clear it.
        let mut sram = Sram::new(1 << 20);
        let junk = vec![0xFFu8; (DIR_ENTRIES * 8) as usize];
        sram.write(utlb_nic::SramAddr::new(0), &junk).unwrap();
        let t = HierTable::new(ProcessId::new(1), &mut sram, GARBAGE).unwrap();
        for dir in 0..DIR_ENTRIES {
            assert_eq!(
                t.dir_entry(VirtPage::new(dir * LEAF_ENTRIES), &sram)
                    .unwrap(),
                DirEntry::Empty
            );
        }
    }

    #[test]
    fn install_read_invalidate_roundtrip() {
        let (mut host, mut sram, mut t) = setup();
        let page = VirtPage::new(1000);
        t.install(page, PhysAddr::new(0x42_000), &mut host, &mut sram)
            .unwrap();
        assert_eq!(t.installed(), 1);
        assert_eq!(
            t.read_entry(page, &host, &sram).unwrap(),
            PhysAddr::new(0x42_000)
        );
        // Re-install does not double count.
        t.install(page, PhysAddr::new(0x43_000), &mut host, &mut sram)
            .unwrap();
        assert_eq!(t.installed(), 1);
        t.invalidate(page, &mut host, &sram).unwrap();
        assert_eq!(t.read_entry(page, &host, &sram).unwrap(), GARBAGE);
        assert_eq!(t.installed(), 0);
        // Idempotent invalidate.
        t.invalidate(page, &mut host, &sram).unwrap();
        assert_eq!(t.installed(), 0);
    }

    #[test]
    fn entry_addr_supports_consecutive_prefetch() {
        let (mut host, mut sram, mut t) = setup();
        // Two consecutive pages in the same leaf: their entry addresses are
        // 8 bytes apart, which is what makes prefetch a single DMA.
        let p0 = VirtPage::new(64);
        let p1 = VirtPage::new(65);
        t.install(p0, PhysAddr::new(0x1000), &mut host, &mut sram)
            .unwrap();
        t.install(p1, PhysAddr::new(0x2000), &mut host, &mut sram)
            .unwrap();
        let a0 = t.entry_addr(p0, &sram).unwrap().unwrap();
        let a1 = t.entry_addr(p1, &sram).unwrap().unwrap();
        assert_eq!(a1.raw() - a0.raw(), 8);
    }

    #[test]
    fn swap_out_and_in_preserves_translations() {
        let (mut host, mut sram, mut t) = setup();
        let mut swap = SwapDevice::new();
        let page = VirtPage::new(12);
        t.install(page, PhysAddr::new(0x9000), &mut host, &mut sram)
            .unwrap();
        let frames_before = host.allocator().allocated_frames();

        let block = t.swap_out(page, &mut host, &mut sram, &mut swap).unwrap();
        assert!(block.is_some());
        assert_eq!(host.allocator().allocated_frames(), frames_before - 1);
        assert!(matches!(
            t.dir_entry(page, &sram).unwrap(),
            DirEntry::Swapped(_)
        ));
        assert_eq!(t.entry_addr(page, &sram).unwrap(), None);

        assert!(t.swap_in(page, &mut host, &mut sram, &mut swap).unwrap());
        assert_eq!(
            t.read_entry(page, &host, &sram).unwrap(),
            PhysAddr::new(0x9000)
        );
        // Second swap-in is a no-op.
        assert!(!t.swap_in(page, &mut host, &mut sram, &mut swap).unwrap());
    }

    #[test]
    fn swap_out_of_nonresident_leaf_is_none() {
        let (mut host, mut sram, mut t) = setup();
        let mut swap = SwapDevice::new();
        assert_eq!(
            t.swap_out(VirtPage::new(5), &mut host, &mut sram, &mut swap)
                .unwrap(),
            None
        );
    }

    #[test]
    fn release_frees_leaf_frames() {
        let (mut host, mut sram, mut t) = setup();
        t.install(
            VirtPage::new(0),
            PhysAddr::new(0x1000),
            &mut host,
            &mut sram,
        )
        .unwrap();
        t.install(
            VirtPage::new(LEAF_ENTRIES),
            PhysAddr::new(0x2000),
            &mut host,
            &mut sram,
        )
        .unwrap();
        let before = host.allocator().allocated_frames();
        t.release(&mut host);
        assert_eq!(host.allocator().allocated_frames(), before - 2);
        assert_eq!(t.installed(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the 4 GB space")]
    fn out_of_coverage_page_panics() {
        let (_, sram, t) = setup();
        let _ = t.dir_entry(VirtPage::new(DIR_ENTRIES * LEAF_ENTRIES), &sram);
    }
}
