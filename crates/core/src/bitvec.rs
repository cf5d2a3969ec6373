//! The user-level pin-status bit vector.
//!
//! Under Hierarchical-UTLB "the user-level library only needs a bit array to
//! maintain the memory-pinning status of virtual pages" (§3.3). The check on
//! the send path scans this bitmap: its cost "varies with the first bit's
//! position in the bit map" (Table 1) — a run that is entirely pinned is
//! decided by whole-word probes, while a straggling first unpinned bit costs
//! a partial scan.
//!
//! The vector is chunked so a sparse 32-bit (or larger) virtual page space
//! costs memory proportional to the pages actually touched.

use std::collections::HashMap;
use utlb_mem::VirtPage;

const WORD_BITS: u64 = 64;
/// Pages covered by one chunk of the sparse bitmap.
const CHUNK_PAGES: u64 = 4096;
const CHUNK_WORDS: usize = (CHUNK_PAGES / WORD_BITS) as usize;

/// Result of a pin-status check over a page run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// First page in the run that is *not* pinned, if any.
    pub first_unpinned: Option<VirtPage>,
    /// Bitmap words probed — the unit the check cost scales with.
    pub words_probed: u64,
}

impl CheckOutcome {
    /// Whether the whole run was pinned (a check *hit*).
    pub fn is_hit(&self) -> bool {
        self.first_unpinned.is_none()
    }
}

/// Sparse bit vector recording which virtual pages are pinned.
#[derive(Debug, Default)]
pub struct PinBitVector {
    chunks: HashMap<u64, Box<[u64; CHUNK_WORDS]>>,
    set_bits: u64,
}

impl PinBitVector {
    /// Creates an empty (all-unpinned) vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages marked pinned.
    pub fn count(&self) -> u64 {
        self.set_bits
    }

    fn locate(page: VirtPage) -> (u64, usize, u64) {
        let n = page.number();
        let chunk = n / CHUNK_PAGES;
        let within = n % CHUNK_PAGES;
        (chunk, (within / WORD_BITS) as usize, within % WORD_BITS)
    }

    /// Whether `page` is marked pinned.
    pub fn is_set(&self, page: VirtPage) -> bool {
        let (chunk, word, bit) = Self::locate(page);
        self.chunks
            .get(&chunk)
            .is_some_and(|c| c[word] & (1 << bit) != 0)
    }

    /// Marks `page` pinned. Returns `true` if the bit was newly set.
    pub fn set(&mut self, page: VirtPage) -> bool {
        let (chunk, word, bit) = Self::locate(page);
        let c = self
            .chunks
            .entry(chunk)
            .or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let mask = 1u64 << bit;
        if c[word] & mask == 0 {
            c[word] |= mask;
            self.set_bits += 1;
            true
        } else {
            false
        }
    }

    /// Marks `page` unpinned. Returns `true` if the bit was set before.
    pub fn clear(&mut self, page: VirtPage) -> bool {
        let (chunk, word, bit) = Self::locate(page);
        if let Some(c) = self.chunks.get_mut(&chunk) {
            let mask = 1u64 << bit;
            if c[word] & mask != 0 {
                c[word] &= !mask;
                self.set_bits -= 1;
                return true;
            }
        }
        false
    }

    /// Checks whether all of `start .. start+count` are pinned.
    ///
    /// Scans word-at-a-time like the real library and reports how many words
    /// it probed, so callers can charge a position-dependent check cost
    /// (Table 1 reports min and max over bit positions).
    pub fn check_run(&self, start: VirtPage, count: u64) -> CheckOutcome {
        let mut words_probed = 0u64;
        let mut i = 0u64;
        let mut last_word = None;
        while i < count {
            let page = start.offset(i);
            let (chunk, word, _) = Self::locate(page);
            let key = (chunk, word);
            if last_word != Some(key) {
                words_probed += 1;
                last_word = Some(key);
            }
            if !self.is_set(page) {
                return CheckOutcome {
                    first_unpinned: Some(page),
                    words_probed,
                };
            }
            i += 1;
        }
        CheckOutcome {
            first_unpinned: None,
            words_probed,
        }
    }

    /// Length of the pinned run starting at `start`, capped at `max` pages.
    ///
    /// The batched lookup path's word-wise predictor: each probe decides a
    /// whole bitmap word (up to 64 pages) at once, so a long pinned run is
    /// confirmed with one probe per 64 pages instead of one per page.
    pub fn pinned_prefix(&self, start: VirtPage, max: u64) -> u64 {
        let mut n = 0u64;
        while n < max {
            let (chunk, word, bit) = Self::locate(start.offset(n));
            let Some(c) = self.chunks.get(&chunk) else {
                return n;
            };
            // All bits from `bit` to the end of the word (bounded by the
            // pages still wanted), decided in one mask compare.
            let span = (WORD_BITS - bit).min(max - n);
            let mask = if span == WORD_BITS {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            let missing = !c[word] & mask;
            if missing == 0 {
                n += span;
            } else {
                return n + (missing.trailing_zeros() as u64 - bit);
            }
        }
        n
    }
}

/// Fixed-capacity dense bit vector.
///
/// Backs the validity bits of [`crate::SharedUtlbCache`]'s flat line array:
/// one bit per cache line, packed 64 to a word, so a probe costs one shift
/// and mask instead of chasing an `Option` discriminant per way, and
/// occupancy is a popcount over the words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseBits {
    words: Vec<u64>,
    len: usize,
}

impl DenseBits {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        DenseBits {
            words: vec![0u64; len.div_ceil(WORD_BITS as usize)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `ix` is set.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    #[inline]
    pub fn get(&self, ix: usize) -> bool {
        assert!(ix < self.len, "bit {ix} out of bounds for {}", self.len);
        self.words[ix / 64] & (1u64 << (ix % 64)) != 0
    }

    /// Sets bit `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    #[inline]
    pub fn set(&mut self, ix: usize) {
        assert!(ix < self.len, "bit {ix} out of bounds for {}", self.len);
        self.words[ix / 64] |= 1u64 << (ix % 64);
    }

    /// Clears bit `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    #[inline]
    pub fn clear(&mut self, ix: usize) {
        assert!(ix < self.len, "bit {ix} out of bounds for {}", self.len);
        self.words[ix / 64] &= !(1u64 << (ix % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the set bits, ascending.
    ///
    /// Walks a word at a time: zero words cost one compare, and each set bit
    /// is found with `trailing_zeros`, so a sparse vector is cheap to scan.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// Clears every set bit whose index `pred` accepts, in place, and
    /// returns how many it cleared. Visits set bits only, like
    /// [`DenseBits::ones`].
    pub fn clear_where(&mut self, mut pred: impl FnMut(usize) -> bool) -> usize {
        let mut cleared = 0;
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if pred(w * 64 + b as usize) {
                    *word &= !(1u64 << b);
                    cleared += 1;
                }
            }
        }
        cleared
    }

    /// First clear bit in `start..end`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector.
    pub fn first_zero_in(&self, start: usize, end: usize) -> Option<usize> {
        assert!(start <= end && end <= self.len, "range out of bounds");
        (start..end).find(|&ix| !self.get(ix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn dense_bits_set_get_clear() {
        let mut b = DenseBits::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn dense_bits_first_zero_in() {
        let mut b = DenseBits::zeros(8);
        assert_eq!(b.first_zero_in(0, 8), Some(0));
        for i in 0..4 {
            b.set(i);
        }
        assert_eq!(b.first_zero_in(0, 8), Some(4));
        assert_eq!(b.first_zero_in(0, 4), None);
        assert_eq!(b.first_zero_in(4, 4), None, "empty range has no zero");
    }

    #[test]
    fn dense_bits_set_bit_walk_at_word_edges() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            // Every third bit plus both ends, so each word edge is covered.
            let mut b = DenseBits::zeros(len);
            for ix in (0..len).filter(|ix| ix % 3 == 0 || *ix + 1 == len) {
                b.set(ix);
            }
            let naive: Vec<usize> = (0..len).filter(|&ix| b.get(ix)).collect();
            assert_eq!(b.ones().collect::<Vec<_>>(), naive, "len {len}");

            // Clear the odd indices among them; the rest stay set.
            let mut cleared = b.clone();
            let n = cleared.clear_where(|ix| ix % 2 == 1);
            assert_eq!(n, naive.iter().filter(|ix| *ix % 2 == 1).count());
            let kept: Vec<usize> = naive.iter().copied().filter(|ix| ix % 2 == 0).collect();
            assert_eq!(cleared.ones().collect::<Vec<_>>(), kept, "len {len}");
            assert_eq!(cleared.count_ones(), kept.len());

            // A full vector walks every index; clearing all empties it.
            let mut full = DenseBits::zeros(len);
            (0..len).for_each(|ix| full.set(ix));
            assert!(full.ones().eq(0..len), "len {len}");
            assert_eq!(full.clear_where(|_| true), len);
            assert_eq!(full, DenseBits::zeros(len));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dense_bits_get_out_of_bounds_panics() {
        DenseBits::zeros(4).get(4);
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut v = PinBitVector::new();
        assert!(!v.is_set(page(5)));
        assert!(v.set(page(5)));
        assert!(!v.set(page(5)), "second set is not new");
        assert!(v.is_set(page(5)));
        assert_eq!(v.count(), 1);
        assert!(v.clear(page(5)));
        assert!(!v.clear(page(5)));
        assert_eq!(v.count(), 0);
    }

    #[test]
    fn check_run_finds_first_unpinned() {
        let mut v = PinBitVector::new();
        for i in 0..10 {
            v.set(page(i));
        }
        v.clear(page(7));
        let out = v.check_run(page(0), 10);
        assert_eq!(out.first_unpinned, Some(page(7)));
        let hit = v.check_run(page(0), 7);
        assert!(hit.is_hit());
    }

    #[test]
    fn check_run_probes_fewer_words_when_failing_early() {
        let v = PinBitVector::new();
        // Nothing pinned: first probe decides.
        let out = v.check_run(page(0), 1000);
        assert_eq!(out.words_probed, 1);
        assert_eq!(out.first_unpinned, Some(page(0)));
    }

    #[test]
    fn full_scan_probes_proportional_words() {
        let mut v = PinBitVector::new();
        for i in 0..256 {
            v.set(page(i));
        }
        let out = v.check_run(page(0), 256);
        assert!(out.is_hit());
        assert_eq!(out.words_probed, 4, "256 pages / 64 bits per word");
    }

    #[test]
    fn sparse_far_apart_pages() {
        let mut v = PinBitVector::new();
        v.set(page(0));
        v.set(page(1 << 30));
        assert!(v.is_set(page(1 << 30)));
        assert!(!v.is_set(page(1 << 29)));
        assert_eq!(v.count(), 2);
    }

    #[test]
    fn pinned_prefix_agrees_with_check_run() {
        let mut v = PinBitVector::new();
        for i in 0..200 {
            v.set(page(i));
        }
        v.clear(page(130));
        assert_eq!(v.pinned_prefix(page(0), 256), 130);
        assert_eq!(v.pinned_prefix(page(0), 64), 64, "capped by max");
        assert_eq!(v.pinned_prefix(page(131), 69), 69);
        assert_eq!(v.pinned_prefix(page(130), 10), 0);
        assert_eq!(v.pinned_prefix(page(500), 10), 0, "untouched chunk");
        // Exhaustive cross-check against the scalar predicate.
        for start in 0..210 {
            for len in [1u64, 3, 63, 64, 65, 128] {
                let expect = (0..len).take_while(|i| v.is_set(page(start + i))).count() as u64;
                assert_eq!(
                    v.pinned_prefix(page(start), len),
                    expect,
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn pinned_prefix_crosses_chunk_boundaries() {
        let mut v = PinBitVector::new();
        let base = CHUNK_PAGES - 3;
        for i in 0..6 {
            v.set(page(base + i));
        }
        assert_eq!(v.pinned_prefix(page(base), 10), 6);
    }

    #[test]
    fn check_run_across_chunk_boundary() {
        let mut v = PinBitVector::new();
        let base = CHUNK_PAGES - 2;
        for i in 0..4 {
            v.set(page(base + i));
        }
        let out = v.check_run(page(base), 4);
        assert!(out.is_hit());
        assert_eq!(out.words_probed, 2);
    }
}
