//! The batched, allocation-free lookup path, and the one page walk every
//! engine's lookups share.
//!
//! The replay runners translate one trace record at a time, and a record is
//! a contiguous page run for one process. The scalar
//! [`lookup_run`](crate::TranslationMechanism::lookup_run) entry point
//! allocates a fresh `Vec<PageOutcome>` per record and re-derives per-process
//! state page by page; at millions of records that allocation and re-derivation
//! is the replay hot path. [`LookupBatch`] names the record's page run and
//! [`OutcomeBuf`] is the caller-owned buffer the batched
//! [`lookup_run_into`](crate::TranslationMechanism::lookup_run_into) path
//! emits into — the runner clears and reuses one buffer across the whole
//! trace, so the steady state allocates nothing per record.
//!
//! Both entry points are written once here, over the crate-private
//! [`PageWalk`] hooks each engine supplies: [`lookup_run`] loops the
//! engine's scalar per-page walk, and [`lookup_run_into`] coalesces runs of
//! pure hits around it. Engines forward their
//! [`TranslationMechanism`](crate::TranslationMechanism) methods to these,
//! so the coalescing contract holds for every mechanism by construction.

use crate::{PageOutcome, Result, UtlbError};
use utlb_mem::{Host, ProcessId, VirtAddr, VirtPage};
use utlb_nic::{Board, Nanos};

/// One record's translation request: `npages` consecutive pages for `pid`
/// starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupBatch {
    /// The requesting process.
    pub pid: ProcessId,
    /// First page of the run.
    pub start: VirtPage,
    /// Number of consecutive pages.
    pub npages: u64,
}

impl LookupBatch {
    /// A batch over an explicit page run.
    pub fn new(pid: ProcessId, start: VirtPage, npages: u64) -> Self {
        LookupBatch { pid, start, npages }
    }

    /// The batch covering the buffer `[va, va + nbytes)` — the page span a
    /// trace record describes.
    pub fn for_buffer(pid: ProcessId, va: VirtAddr, nbytes: u64) -> Self {
        LookupBatch {
            pid,
            start: va.page(),
            npages: va.span_pages(nbytes),
        }
    }
}

/// A caller-owned, reusable buffer of per-page outcomes.
///
/// The batched lookup path appends into this instead of returning a fresh
/// `Vec` per record; callers clear and reuse one buffer across a whole
/// trace, so its capacity is paid once.
pub type OutcomeBuf = Vec<PageOutcome>;

/// The hooks an engine supplies so the shared drivers can run its lookups.
///
/// A *pure hit* is a page whose every check hits — no pin, no table fetch,
/// no interrupt — so its clock charge is the constant [`hit_ns`], whatever
/// the absolute time. That is what lets [`lookup_run_into`] defer the
/// charges of a run of hits and apply them in one advance.
///
/// [`hit_ns`]: PageWalk::hit_ns
pub(crate) trait PageWalk {
    /// Whether `pid` is registered.
    fn registered(&self, pid: ProcessId) -> bool;

    /// The clock charge of one pure hit.
    fn hit_ns(&self) -> Nanos;

    /// Translates the longest prefix of `run` whose pages are pure hits,
    /// stopping at the first page that is not: pushes one outcome per page,
    /// does each page's counter, recency and cache work, and emits its
    /// `Lookup { ns: hit_event_ns }` event, but leaves the clock alone.
    /// Returns the number of pages translated (0 when the first page is
    /// not a pure hit). `run.pid` is registered.
    fn hit_run(
        &mut self,
        board: &Board,
        run: LookupBatch,
        hit_event_ns: u64,
        out: &mut OutcomeBuf,
    ) -> Result<u64>;

    /// The scalar per-page walk: translates `page` exactly as the hardware
    /// would, charging the clock as it goes. The reference both drivers
    /// are checked against. `pid` is registered.
    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome>;
}

/// The scalar driver behind every engine's
/// [`lookup_run`](crate::TranslationMechanism::lookup_run): the registration
/// check, then one [`PageWalk::lookup_page`] per page.
pub(crate) fn lookup_run<E: PageWalk>(
    engine: &mut E,
    host: &mut Host,
    board: &mut Board,
    pid: ProcessId,
    start: VirtPage,
    npages: u64,
) -> Result<Vec<PageOutcome>> {
    if !engine.registered(pid) {
        return Err(UtlbError::UnregisteredProcess(pid));
    }
    start
        .range(npages)
        .map(|page| engine.lookup_page(host, board, pid, page))
        .collect()
}

/// The batched driver behind every engine's
/// [`lookup_run_into`](crate::TranslationMechanism::lookup_run_into).
///
/// Runs of pure hits go through [`PageWalk::hit_run`] and their identical
/// clock charges are coalesced. Any other page first settles the pending
/// charges — so the miss path sees the clock the scalar walk would — and
/// then takes the scalar [`PageWalk::lookup_page`] unchanged. Outcomes,
/// statistics, probe events and the clock are therefore identical to
/// [`lookup_run`].
pub(crate) fn lookup_run_into<E: PageWalk>(
    engine: &mut E,
    host: &mut Host,
    board: &mut Board,
    batch: LookupBatch,
    out: &mut OutcomeBuf,
) -> Result<()> {
    let LookupBatch { pid, start, npages } = batch;
    if !engine.registered(pid) {
        return Err(UtlbError::UnregisteredProcess(pid));
    }
    let hit_ns = engine.hit_ns();
    let hit_event_ns = hit_ns.as_nanos();
    let mut pending = 0u64; // coalesced hit charges not yet on the clock
    let mut i = 0u64;
    while i < npages {
        let run = LookupBatch::new(pid, start.offset(i), npages - i);
        let hits = engine.hit_run(board, run, hit_event_ns, out)?;
        if hits > 0 {
            pending += hits;
            i += hits;
            continue;
        }
        settle(board, hit_ns, &mut pending);
        out.push(engine.lookup_page(host, board, pid, run.start)?);
        i += 1;
    }
    settle(board, hit_ns, &mut pending);
    Ok(())
}

/// Applies `pending` deferred hit charges in one clock advance.
fn settle(board: &mut Board, hit_ns: Nanos, pending: &mut u64) {
    if *pending > 0 {
        board.clock.advance(hit_ns * *pending);
        *pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_for_buffer_matches_the_record_span() {
        let pid = ProcessId::new(1);
        // 16 bytes before a page boundary, 32 bytes long: two pages.
        let va = VirtAddr::new(0x10_0FF0);
        let batch = LookupBatch::for_buffer(pid, va, 32);
        assert_eq!(batch, LookupBatch::new(pid, va.page(), 2));
        assert_eq!(batch.npages, 2);
    }
}
