//! Serial trace replay: the board kernel with one board and no stations.
//!
//! Unlike the paper's count-only simulator, replay drives the *actual*
//! engines from `utlb-core` on the simulated host and NIC: pages really get
//! pinned, translation tables really live in simulated DRAM, and the Shared
//! UTLB-Cache really fills over the simulated I/O bus. The statistics
//! reported are therefore the mechanism's own counters, not a re-model.
//! The loop itself is [`replay_trace`]; see [`crate::board`].

use crate::board::{replay_trace, BoardSim};
use crate::{MissBreakdown, MissClassifier, SimConfig};
use serde::{Deserialize, Serialize};
use utlb_core::obs::SharedCollector;
use utlb_core::{CacheStats, LookupRates, OutcomeBuf, TranslationMechanism, TranslationStats};
use utlb_mem::ProcessId;
use utlb_nic::BoardSnapshot;
use utlb_trace::{TraceRecord, TraceStream};

/// Records pulled per refill of the streaming replay loop. The loop's
/// resident trace state is one chunk, whatever the stream's total size.
pub const STREAM_CHUNK: usize = 1024;

/// The replay loop's reusable buffers, hoisted out so a sweep worker can
/// carry one arena across every cell it executes.
///
/// A single run already allocates nothing per record: the stream chunk and
/// the batched-lookup [`OutcomeBuf`] are reused across the whole stream.
/// This struct extends the same pattern across *sweep cells* —
/// [`sweep_with`](crate::sweep_with) builds one `SweepScratch` per worker
/// and [`Run::execute_in`](crate::Run::execute_in) threads it into each
/// run, so a 140-cell grid pays the buffer growth once per worker instead
/// of once per cell.
///
/// Every buffer is cleared by the replay loop before use, so reuse is
/// behavior-preserving: results are byte-identical whether a scratch is
/// fresh or carried over, which the sweep determinism suite pins.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Stream refill buffer ([`STREAM_CHUNK`] records at steady state).
    pub(crate) chunk: Vec<TraceRecord>,
    /// Per-record page outcomes from the batched lookup path.
    pub(crate) out: OutcomeBuf,
}

impl SweepScratch {
    /// An empty arena; buffers grow to steady state on first use.
    pub fn new() -> Self {
        SweepScratch {
            chunk: Vec::with_capacity(STREAM_CHUNK),
            out: OutcomeBuf::new(),
        }
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Aggregate translation counters across all processes.
    pub stats: TranslationStats,
    /// NIC-cache counters.
    pub cache: CacheStats,
    /// 3C classification of NIC misses.
    pub breakdown: MissBreakdown,
    /// Per-process counters, keyed by raw pid — lets multiprogrammed runs
    /// attribute interference to each program.
    pub per_process: Vec<(u32, TranslationStats)>,
    /// Total simulated time spent in translation work (ns).
    pub sim_time_ns: u64,
}

impl SimResult {
    /// Per-lookup rates for the §6.2 cost formulas.
    pub fn rates(&self) -> LookupRates {
        self.stats.rates()
    }

    /// Counters summed over a pid subset (one program of a multiprogrammed
    /// trace).
    pub fn stats_for_pids(&self, pids: &[u32]) -> TranslationStats {
        self.per_process
            .iter()
            .filter(|(p, _)| pids.contains(p))
            .map(|(_, s)| *s)
            .fold(TranslationStats::default(), |a, b| a + b)
    }

    /// Average UTLB lookup cost in µs under `cfg`'s cost model.
    pub fn utlb_lookup_cost(&self, cfg: &SimConfig) -> f64 {
        cfg.cost.utlb_lookup_cost(&self.rates())
    }

    /// Average cache-line probes per lookup (1.0 for a direct-mapped cache;
    /// up to k for a k-way set, probed serially by the firmware).
    pub fn probes_per_lookup(&self) -> f64 {
        if self.cache.lookups() == 0 {
            1.0
        } else {
            self.cache.probes as f64 / self.cache.lookups() as f64
        }
    }

    /// Average UTLB lookup cost including the serial tag-check penalty of
    /// set-associative organizations (§6.3).
    pub fn utlb_lookup_cost_serial(&self, cfg: &SimConfig) -> f64 {
        cfg.cost
            .utlb_lookup_cost_with_probes(&self.rates(), self.probes_per_lookup())
    }

    /// Average interrupt-based lookup cost in µs under `cfg`'s cost model.
    pub fn intr_lookup_cost(&self, cfg: &SimConfig) -> f64 {
        cfg.cost.intr_lookup_cost(&self.rates())
    }

    /// Simulated translation time per lookup, in µs.
    pub fn sim_us_per_lookup(&self) -> f64 {
        if self.stats.lookups == 0 {
            return 0.0;
        }
        self.sim_time_ns as f64 / 1000.0 / self.stats.lookups as f64
    }
}

/// Serial replay: one board, no stations, the collector attached when the
/// run is observed. A materialized [`Trace`](utlb_trace::Trace) enters
/// through a [`utlb_trace::TraceView`], a fused generate+replay run hands
/// in the generator stream directly — which is why their results are
/// identical by construction, and why replay memory is O(chunk) rather
/// than O(trace) in the fused mode. Returns the result plus the board's
/// counters for obs exports.
pub(crate) fn replay_stream<M, S>(
    engine: &mut M,
    stream: &mut S,
    pids: &[ProcessId],
    cfg: &SimConfig,
    obs: Option<&SharedCollector>,
    scratch: &mut SweepScratch,
) -> (SimResult, BoardSnapshot)
where
    M: TranslationMechanism + ?Sized,
    S: TraceStream + ?Sized,
{
    let classifier = MissClassifier::new(cfg.cache_entries);
    let mut boards = [BoardSim::new(engine, Some(classifier), obs.cloned())];
    let run = replay_trace(
        &mut boards,
        cfg.host_frames,
        stream,
        pids,
        |_| 0,
        &[],
        scratch,
    );
    let result = boards[0].sim_result(&run.workload, &run.resident(0));
    (result, boards[0].board.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mechanism, Run, RunOutputExt};
    use utlb_trace::{gen, GenConfig, SplashApp, Trace};

    fn tiny(app: SplashApp) -> Trace {
        gen::generate(
            app,
            &GenConfig {
                seed: 21,
                scale: 0.05,
                app_processes: 4,
            },
        )
    }

    fn exec(mech: Mechanism, trace: &Trace, cfg: &SimConfig) -> SimResult {
        Run::new(mech)
            .config(cfg)
            .execute(trace)
            .into_sim()
            .unwrap()
    }

    #[test]
    fn utlb_unpins_nothing_with_infinite_memory() {
        let trace = tiny(SplashApp::Water);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(1024));
        assert_eq!(r.stats.unpins, 0, "Table 4: UTLB never unpins");
        assert_eq!(r.stats.lookups, trace.total_lookups());
        // Check misses equal distinct pages (every page pinned exactly once).
        assert_eq!(r.stats.check_misses, trace.footprint_pages());
        assert_eq!(r.stats.pins, trace.footprint_pages());
    }

    #[test]
    fn intr_unpins_on_every_eviction() {
        let trace = tiny(SplashApp::Water);
        // Cache much smaller than footprint forces evictions.
        let r = exec(Mechanism::Intr, &trace, &SimConfig::study(64));
        assert!(r.stats.unpins > 0);
        assert_eq!(r.stats.interrupts, r.stats.ni_misses);
        // pins - unpins = pages still cached, bounded by the cache size.
        let resident = r.stats.pins - r.stats.unpins;
        assert!(resident > 0 && resident <= 64, "resident {resident}");
    }

    #[test]
    fn utlb_and_intr_see_identical_miss_streams_on_same_cache() {
        // §6.2: "we assume that the cache structures are the same for both".
        let trace = tiny(SplashApp::Volrend);
        let cfg = SimConfig::study(256);
        let u = exec(Mechanism::Utlb, &trace, &cfg);
        let i = exec(Mechanism::Intr, &trace, &cfg);
        assert_eq!(u.stats.ni_misses, i.stats.ni_misses);
        assert_eq!(u.breakdown, i.breakdown);
    }

    #[test]
    fn classification_totals_match_ni_misses() {
        let trace = tiny(SplashApp::Radix);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(128));
        assert_eq!(r.breakdown.total(), r.stats.ni_misses);
    }

    #[test]
    fn bigger_cache_never_increases_compulsory_misses() {
        let trace = tiny(SplashApp::Barnes);
        let small = exec(Mechanism::Utlb, &trace, &SimConfig::study(64));
        let big = exec(Mechanism::Utlb, &trace, &SimConfig::study(4096));
        assert_eq!(small.breakdown.compulsory, big.breakdown.compulsory);
        assert!(big.stats.ni_misses <= small.stats.ni_misses);
    }

    #[test]
    fn per_process_stats_sum_to_aggregate() {
        let trace = tiny(SplashApp::Volrend);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(256));
        assert_eq!(r.per_process.len(), 5);
        let all: Vec<u32> = r.per_process.iter().map(|(p, _)| *p).collect();
        assert_eq!(r.stats_for_pids(&all), r.stats);
        assert_eq!(r.stats_for_pids(&[]).lookups, 0);
    }

    #[test]
    fn observed_run_reconciles_and_changes_nothing() {
        let trace = tiny(SplashApp::Water);
        let cfg = SimConfig::study(256).limit_mb(1);
        for mech in Mechanism::ALL {
            let plain = exec(mech, &trace, &cfg);
            let (result, obs) = Run::new(mech)
                .config(&cfg)
                .observed_ring(32)
                .execute(&trace)
                .into_observed()
                .unwrap();
            // The probe is passive: observed and plain runs agree exactly.
            assert_eq!(result.stats, plain.stats, "{mech}");
            assert_eq!(result.sim_time_ns, plain.sim_time_ns, "{mech}");
            // And the event stream reconciles with the engine counters.
            assert!(obs.reconciled, "{mech} mismatches: {:?}", obs.mismatches);
            assert_eq!(obs.mechanism, mech.to_string());
            // Batching may coalesce clock charges, never probe events: one
            // Lookup/CheckMiss/NiMiss event per counted occurrence.
            assert_eq!(obs.metrics.counts.lookups, result.stats.lookups);
            assert_eq!(obs.metrics.counts.check_misses, result.stats.check_misses);
            assert_eq!(obs.metrics.counts.ni_misses, result.stats.ni_misses);
            assert_eq!(obs.metrics.lookup_ns.count(), result.stats.lookups);
            assert_eq!(obs.traces.len(), trace.process_ids().len());
            assert_eq!(obs.board.interrupts_raised, result.stats.interrupts);
        }
    }

    #[test]
    fn lookup_costs_are_positive_and_reflect_misses() {
        let trace = tiny(SplashApp::Fft);
        let cfg = SimConfig::study(128);
        let r = exec(Mechanism::Utlb, &trace, &cfg);
        let utlb = r.utlb_lookup_cost(&cfg);
        assert!(utlb > 1.0, "at least the two check hits: {utlb}");
        assert!(r.sim_us_per_lookup() > 0.0);
    }
}
