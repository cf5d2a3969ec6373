//! The per-process UTLB translation table (paper §3.1).
//!
//! A fixed-size table in NIC SRAM, one per process, holding physical
//! addresses of pinned pages. The table is protected — invisible to the user
//! process — but *user-managed*: the process chooses the slots where the
//! driver stores translations, and passes slot indices to the NIC with each
//! request. Every slot is initialized with the garbage page's physical
//! address (§4.2), so the NIC never validates indices.
//!
//! This variant suffers *fragmentation*: after complex access patterns a
//! buffer's translations may be scattered through the table — one of the
//! reasons §3.3 introduces Hierarchical-UTLB, which this crate also
//! implements in [`crate::HierTable`].

use crate::lookup::UtlbIndex;
use crate::{Result, UtlbError};
use utlb_mem::{PhysAddr, ProcessId};
use utlb_nic::{Sram, SramRegion};

/// The free slots of a fixed-size translation table.
///
/// Slots never handed out are a bump cursor over `next..capacity`; only
/// slots given back are stored, in a stack. Recycled slots come out first,
/// last in first out, then fresh slots in ascending order — the order a
/// `Vec` of every slot in descending order yields under `pop`/`push`, built
/// here without touching a word per slot at registration.
#[derive(Debug)]
pub(crate) struct FreeSlots {
    next: u32,
    capacity: u32,
    recycled: Vec<u32>,
}

impl FreeSlots {
    /// All `capacity` slots free.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = u32::try_from(capacity).expect("table capacity fits a u32 index");
        FreeSlots {
            next: 0,
            capacity,
            recycled: Vec::new(),
        }
    }

    /// Number of free slots.
    pub(crate) fn len(&self) -> usize {
        self.recycled.len() + (self.capacity - self.next) as usize
    }

    /// Takes a free slot: the last one given back, else the lowest fresh one.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        if let Some(slot) = self.recycled.pop() {
            return Some(slot);
        }
        (self.next < self.capacity).then(|| {
            self.next += 1;
            self.next - 1
        })
    }

    /// Gives `slot` back.
    pub(crate) fn push(&mut self, slot: u32) {
        self.recycled.push(slot);
    }
}

/// A per-process translation table resident in NIC SRAM.
#[derive(Debug)]
pub struct PerProcessTable {
    pid: ProcessId,
    region: SramRegion,
    capacity: usize,
    free: FreeSlots,
    garbage: PhysAddr,
}

impl PerProcessTable {
    /// Allocates a table of `capacity` entries in `sram` for `pid`, with
    /// every slot initialized to the garbage address.
    ///
    /// # Errors
    ///
    /// Propagates SRAM exhaustion — the board limitation motivating the
    /// Shared UTLB-Cache.
    pub fn new(
        pid: ProcessId,
        capacity: usize,
        sram: &mut Sram,
        garbage: PhysAddr,
    ) -> Result<Self> {
        let region = sram.alloc(capacity as u64 * 8).map_err(UtlbError::Nic)?;
        sram.fill_u64(region, garbage.raw())
            .map_err(UtlbError::Nic)?;
        Ok(PerProcessTable {
            pid,
            region,
            capacity,
            free: FreeSlots::new(capacity),
            garbage,
        })
    }

    /// Owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Reserves a free slot, if any.
    pub fn alloc_slot(&mut self) -> Option<UtlbIndex> {
        self.free.pop().map(UtlbIndex)
    }

    /// Stores `phys` at `index` (the driver half of the install `ioctl`).
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors.
    ///
    /// # Panics
    ///
    /// Panics if the index is beyond the table capacity — indices come from
    /// [`PerProcessTable::alloc_slot`], so an out-of-range one is a bug.
    pub fn install(&mut self, index: UtlbIndex, phys: PhysAddr, sram: &mut Sram) -> Result<()> {
        assert!((index.0 as usize) < self.capacity, "index out of range");
        sram.write_u64(self.region.at(index.0 as u64 * 8), phys.raw())
            .map_err(UtlbError::Nic)?;
        Ok(())
    }

    /// Invalidates `index`: rewrites the garbage address and frees the slot.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors.
    pub fn evict(&mut self, index: UtlbIndex, sram: &mut Sram) -> Result<()> {
        assert!((index.0 as usize) < self.capacity, "index out of range");
        sram.write_u64(self.region.at(index.0 as u64 * 8), self.garbage.raw())
            .map_err(UtlbError::Nic)?;
        self.free.push(index.0);
        Ok(())
    }

    /// The NIC-side read: returns the physical address stored at `index`.
    ///
    /// By the garbage-page design this *never fails* for in-range indices —
    /// a stale or wrong index yields the harmless garbage address. Indices
    /// past the table end are clamped onto the garbage page too, matching
    /// the "no validity checking" contract.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors (simulator-internal only).
    pub fn read(&self, index: UtlbIndex, sram: &Sram) -> Result<PhysAddr> {
        if (index.0 as usize) >= self.capacity {
            return Ok(self.garbage);
        }
        let raw = sram
            .read_u64(self.region.at(index.0 as u64 * 8))
            .map_err(UtlbError::Nic)?;
        Ok(PhysAddr::new(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup(capacity: usize) -> (Sram, PerProcessTable) {
        let mut sram = Sram::new(1 << 16);
        let t = PerProcessTable::new(
            ProcessId::new(1),
            capacity,
            &mut sram,
            PhysAddr::new(0x00BA_D000),
        )
        .unwrap();
        (sram, t)
    }

    #[test]
    fn fresh_table_reads_garbage_everywhere() {
        let (sram, t) = setup(8);
        for i in 0..8 {
            assert_eq!(
                t.read(UtlbIndex(i), &sram).unwrap(),
                PhysAddr::new(0x00BA_D000)
            );
        }
        // Out-of-range index also lands on garbage, never an error.
        assert_eq!(
            t.read(UtlbIndex(999), &sram).unwrap(),
            PhysAddr::new(0x00BA_D000)
        );
    }

    #[test]
    fn install_then_read_then_evict() {
        let (mut sram, mut t) = setup(4);
        let idx = t.alloc_slot().unwrap();
        t.install(idx, PhysAddr::new(0x0123_4000), &mut sram)
            .unwrap();
        assert_eq!(t.read(idx, &sram).unwrap(), PhysAddr::new(0x0123_4000));
        t.evict(idx, &mut sram).unwrap();
        assert_eq!(t.read(idx, &sram).unwrap(), PhysAddr::new(0x00BA_D000));
        assert_eq!(t.free_slots(), 4);
    }

    #[test]
    fn slots_exhaust_and_recycle() {
        let (mut sram, mut t) = setup(2);
        let a = t.alloc_slot().unwrap();
        let _b = t.alloc_slot().unwrap();
        assert!(t.alloc_slot().is_none());
        t.evict(a, &mut sram).unwrap();
        assert_eq!(t.alloc_slot(), Some(a));
    }

    proptest! {
        /// Random alloc/give-back sequences pick the same slot each time in
        /// the bump-plus-stack list as in the slot list tables kept before
        /// it — every slot in a `Vec`, highest first, so `pop` yields the
        /// lowest — both for the bare list (as `IndexedEngine` holds it)
        /// and through a table.
        #[test]
        fn free_slots_match_the_reversed_vec(
            capacity in 0u32..70,
            ops in proptest::collection::vec((any::<bool>(), any::<u32>()), 0..300),
        ) {
            let mut model: Vec<u32> = (0..capacity).rev().collect();
            let mut slots = FreeSlots::new(capacity as usize);
            let (mut sram, mut table) = setup(capacity as usize);
            let mut held: Vec<u32> = Vec::new();
            for (alloc, pick) in ops {
                if alloc || held.is_empty() {
                    let want = model.pop();
                    prop_assert_eq!(slots.pop(), want);
                    prop_assert_eq!(table.alloc_slot().map(|ix| ix.0), want);
                    held.extend(want);
                } else {
                    let slot = held.swap_remove(pick as usize % held.len());
                    model.push(slot);
                    slots.push(slot);
                    table.evict(UtlbIndex(slot), &mut sram).unwrap();
                }
                prop_assert_eq!(slots.len(), model.len());
                prop_assert_eq!(table.free_slots(), model.len());
            }
        }
    }

    #[test]
    fn sram_exhaustion_surfaces() {
        let mut sram = Sram::new(64);
        let r = PerProcessTable::new(ProcessId::new(1), 1024, &mut sram, PhysAddr::new(0));
        assert!(matches!(r, Err(UtlbError::Nic(_))));
    }
}
