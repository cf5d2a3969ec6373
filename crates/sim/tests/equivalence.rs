//! The generic-runner refactor must be invisible in the results.
//!
//! The UTLB and interrupt replays used to carry one hand-written loop
//! each; both now ride the single builder-driven generic loop. The
//! §3.1/§3.2 ablations likewise used to carry a bespoke `replay_trace`
//! harness; they now go through the same loop. These tests replicate the
//! *old* loops — driving each engine one record (or one page) at a time
//! through its scalar per-page walk, with no batching and no runner — and
//! require the refactored runners to produce byte-identical JSON.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use utlb_core::obs::{Event, Probe};
use utlb_core::{
    CacheStats, IndexedEngine, IntrEngine, LookupBatch, OutcomeBuf, PerProcessEngine,
    TranslationMechanism, TranslationStats, UtlbEngine,
};
use utlb_mem::{Host, ProcessId, VirtPage};
use utlb_nic::{Board, Nanos};
use utlb_sim::{
    DesConfig, DesResult, Mechanism, MissClassifier, ObsReport, Run, RunOutputExt, SimConfig,
    SimResult,
};
use utlb_trace::{gen, GenConfig, SplashApp, Trace};

// The replay shapes under test, spelled on the one `Run` builder.

fn run_mechanism(mech: Mechanism, trace: &Trace, cfg: &SimConfig) -> SimResult {
    Run::new(mech)
        .config(cfg)
        .execute(trace)
        .into_sim()
        .unwrap()
}

fn run_utlb(trace: &Trace, cfg: &SimConfig) -> SimResult {
    run_mechanism(Mechanism::Utlb, trace, cfg)
}

fn run_intr(trace: &Trace, cfg: &SimConfig) -> SimResult {
    run_mechanism(Mechanism::Intr, trace, cfg)
}

fn run_des_mechanism(
    mech: Mechanism,
    trace: &Trace,
    cfg: &SimConfig,
    des: &DesConfig,
) -> DesResult {
    Run::new(mech)
        .config(cfg)
        .des(*des)
        .execute(trace)
        .into_des()
        .unwrap()
}

fn run_mechanism_observed(
    mech: Mechanism,
    trace: &Trace,
    cfg: &SimConfig,
    ring: usize,
) -> (SimResult, ObsReport) {
    Run::new(mech)
        .config(cfg)
        .observed_ring(ring)
        .execute(trace)
        .into_observed()
        .unwrap()
}

/// Host frames; must stay in sync with the runner's own constant.
const HOST_FRAMES: u64 = 1 << 20;

fn water() -> Trace {
    gen::generate(
        SplashApp::Water,
        &GenConfig {
            seed: 21,
            scale: 0.05,
            app_processes: 4,
        },
    )
}

/// The pre-refactor `run_utlb` body, kept as the golden reference.
fn legacy_run_utlb(trace: &Trace, cfg: &SimConfig) -> SimResult {
    let mut host = Host::new(HOST_FRAMES);
    let mut board = Board::new();
    let mut engine = UtlbEngine::new(cfg.utlb_config());
    let mut classifier = MissClassifier::new(cfg.cache_entries);

    let pids = trace.process_ids();
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected);
        engine
            .register_process(&mut host, &mut board, got)
            .expect("registration succeeds on a fresh host");
    }

    let t0 = board.clock.now();
    for rec in &trace.records {
        board.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        let pages = engine
            .lookup_buffer(&mut host, &mut board, rec.pid, rec.va, rec.nbytes)
            .expect("trace lookups succeed");
        for page in &pages {
            classifier.access(rec.pid, page.page, page.ni_miss);
        }
    }
    let sim_time_ns = (board.clock.now() - t0).as_nanos();

    let per_process = pids
        .iter()
        .map(|p| (p.raw(), engine.stats(*p).expect("registered")))
        .collect();
    SimResult {
        workload: trace.workload.clone(),
        stats: engine.aggregate_stats(),
        cache: engine.cache().stats(),
        breakdown: classifier.breakdown(),
        per_process,
        sim_time_ns,
    }
}

/// The pre-refactor `run_intr` body, kept as the golden reference.
fn legacy_run_intr(trace: &Trace, cfg: &SimConfig) -> SimResult {
    let mut host = Host::new(HOST_FRAMES);
    let mut board = Board::new();
    let mut engine = IntrEngine::new(cfg.intr_config());
    let mut classifier = MissClassifier::new(cfg.cache_entries);

    let pids = trace.process_ids();
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected);
        engine
            .register_process(&mut host, &mut board, got)
            .expect("registration succeeds on a fresh host");
    }

    let t0 = board.clock.now();
    for rec in &trace.records {
        board.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        let npages = rec.va.span_pages(rec.nbytes);
        let outcomes = engine
            .lookup_run(&mut host, &mut board, rec.pid, rec.va.page(), npages)
            .expect("trace lookups succeed");
        for o in &outcomes {
            classifier.access(rec.pid, o.page, o.ni_miss);
        }
    }
    let sim_time_ns = (board.clock.now() - t0).as_nanos();

    let per_process = pids
        .iter()
        .map(|p| (p.raw(), engine.stats(*p).expect("registered")))
        .collect();
    SimResult {
        workload: trace.workload.clone(),
        stats: engine.aggregate_stats(),
        cache: engine.cache().stats(),
        breakdown: classifier.breakdown(),
        per_process,
        sim_time_ns,
    }
}

/// The pre-refactor ablation harness, verbatim from
/// `experiments/ablations.rs`: spawn one process per trace pid, register,
/// then walk every record's page span one page at a time — never advancing
/// the simulated clock.
fn legacy_replay<E>(
    trace: &Trace,
    engine: &mut E,
    register: impl Fn(&mut E, &mut Host, &mut Board, ProcessId),
    lookup: impl Fn(&mut E, &mut Host, &mut Board, ProcessId, VirtPage),
) -> Vec<ProcessId> {
    let pids = trace.process_ids();
    let mut host = Host::new(HOST_FRAMES);
    let mut board = Board::new();
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected, "trace pids must be dense from 1");
        register(engine, &mut host, &mut board, got);
    }
    for rec in &trace.records {
        let npages = rec.va.span_pages(rec.nbytes);
        for page in rec.va.page().range(npages) {
            lookup(engine, &mut host, &mut board, rec.pid, page);
        }
    }
    pids
}

/// The pre-refactor §3.1 ablation body, kept as the golden reference.
fn legacy_run_perproc(trace: &Trace, cfg: &SimConfig) -> TranslationStats {
    let mut engine = PerProcessEngine::new(cfg.perproc_config());
    let pids = legacy_replay(
        trace,
        &mut engine,
        |e, host, board, pid| {
            e.register_process(host, board, pid)
                .expect("registration succeeds");
        },
        |e, host, board, pid, page| {
            e.lookup_run(host, board, pid, page, 1)
                .expect("trace lookups succeed");
        },
    );
    pids.iter()
        .map(|p| engine.stats(*p).expect("registered"))
        .fold(TranslationStats::default(), |a, b| a + b)
}

/// The pre-refactor §3.2 ablation body, kept as the golden reference. (The
/// registration call has grown a `&mut Board` argument since; the loop is
/// otherwise untouched.)
fn legacy_run_indexed(trace: &Trace, cfg: &SimConfig) -> (TranslationStats, CacheStats) {
    let mut engine = IndexedEngine::new(cfg.indexed_config());
    let pids = legacy_replay(
        trace,
        &mut engine,
        |e, host, board, pid| {
            e.register_process(host, board, pid)
                .expect("registration succeeds");
        },
        |e, host, board, pid, page| {
            e.lookup_run(host, board, pid, page, 1)
                .expect("trace lookups succeed");
        },
    );
    let stats = pids
        .iter()
        .map(|p| engine.stats(*p).expect("registered"))
        .fold(TranslationStats::default(), |a, b| a + b);
    (stats, engine.cache().stats())
}

#[test]
fn generic_utlb_run_is_byte_identical_to_the_legacy_loop() {
    let trace = water();
    for cfg in [SimConfig::study(256), SimConfig::study(1024).limit_mb(1)] {
        let legacy = serde_json::to_string(&legacy_run_utlb(&trace, &cfg)).unwrap();
        let generic = serde_json::to_string(&run_utlb(&trace, &cfg)).unwrap();
        assert_eq!(legacy, generic, "cache_entries = {}", cfg.cache_entries);
    }
}

#[test]
fn generic_intr_run_is_byte_identical_to_the_legacy_loop() {
    let trace = water();
    for cfg in [SimConfig::study(256), SimConfig::study(1024).limit_mb(1)] {
        let legacy = serde_json::to_string(&legacy_run_intr(&trace, &cfg)).unwrap();
        let generic = serde_json::to_string(&run_intr(&trace, &cfg)).unwrap();
        assert_eq!(legacy, generic, "cache_entries = {}", cfg.cache_entries);
    }
}

#[test]
fn unified_perproc_run_matches_the_legacy_ablation_loop() {
    let trace = water();
    // A small static table forces the §3.1 capacity-evict path; the default
    // covers the all-hits regime.
    for cfg in [
        SimConfig {
            table_entries: 64,
            ..SimConfig::study(256)
        },
        SimConfig::study(256),
    ] {
        let legacy = serde_json::to_string(&legacy_run_perproc(&trace, &cfg)).unwrap();
        let unified = run_mechanism(Mechanism::PerProc, &trace, &cfg);
        let got = serde_json::to_string(&unified.stats).unwrap();
        assert_eq!(legacy, got, "table_entries = {}", cfg.table_entries);
        // §3.1 has no NIC cache; the unified runner must report it as empty.
        assert_eq!(unified.cache, CacheStats::default());
    }
}

#[test]
fn unified_indexed_run_matches_the_legacy_ablation_loop() {
    let trace = water();
    // A tiny cache exercises conflict evictions and the DMA re-fetch path.
    for cfg in [SimConfig::study(64), SimConfig::study(1024)] {
        let (legacy_stats, legacy_cache) = legacy_run_indexed(&trace, &cfg);
        let unified = run_mechanism(Mechanism::Indexed, &trace, &cfg);
        assert_eq!(
            serde_json::to_string(&legacy_stats).unwrap(),
            serde_json::to_string(&unified.stats).unwrap(),
            "cache_entries = {}",
            cfg.cache_entries
        );
        assert_eq!(legacy_cache, unified.cache);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The §3.1/§3.2 unification holds for arbitrary traces and table
    /// geometries, not just the hand-picked configurations above.
    #[test]
    fn unified_variant_runs_match_legacy_loops_for_any_trace(
        seed in any::<u64>(),
        scale in 0.02f64..0.05,
        table_log in 5u32..13,
        app_ix in 0usize..7,
        indexed in any::<bool>(),
    ) {
        let app = SplashApp::ALL[app_ix];
        let gencfg = GenConfig { seed, scale, app_processes: 4 };
        let trace = gen::generate(app, &gencfg);
        let cfg = SimConfig {
            table_entries: 1 << table_log,
            ..SimConfig::study(256)
        };
        if indexed {
            let (legacy, _) = legacy_run_indexed(&trace, &cfg);
            let unified = run_mechanism(Mechanism::Indexed, &trace, &cfg);
            prop_assert_eq!(legacy, unified.stats);
        } else {
            let legacy = legacy_run_perproc(&trace, &cfg);
            let unified = run_mechanism(Mechanism::PerProc, &trace, &cfg);
            prop_assert_eq!(legacy, unified.stats);
        }
    }
}

/// The scalar per-record replay loop — the pre-batching `run` body, kept as
/// the golden reference for the batched lookup path. Drives the trait's
/// allocating `lookup_run`, classifying each page individually.
fn scalar_replay<M: TranslationMechanism>(
    engine: &mut M,
    trace: &Trace,
    cfg: &SimConfig,
) -> SimResult {
    let mut host = Host::new(HOST_FRAMES);
    let mut board = Board::new();
    let mut classifier = MissClassifier::new(cfg.cache_entries);

    let pids = trace.process_ids();
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected);
        engine
            .register_process(&mut host, &mut board, got)
            .expect("registration succeeds on a fresh host");
    }

    let t0 = board.clock.now();
    for rec in &trace.records {
        board.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        let npages = rec.va.span_pages(rec.nbytes);
        let pages = engine
            .lookup_run(&mut host, &mut board, rec.pid, rec.va.page(), npages)
            .expect("trace lookups succeed");
        for page in &pages {
            classifier.access(rec.pid, page.page, page.ni_miss);
        }
    }
    let sim_time_ns = (board.clock.now() - t0).as_nanos();

    let per_process = pids
        .iter()
        .map(|p| (p.raw(), engine.stats(*p).expect("registered")))
        .collect();
    SimResult {
        workload: trace.workload.clone(),
        stats: engine.aggregate_stats(),
        cache: engine.cache_stats(),
        breakdown: classifier.breakdown(),
        per_process,
        sim_time_ns,
    }
}

/// [`scalar_replay`] behind a [`Mechanism`] dispatch.
fn scalar_run_mechanism(mech: Mechanism, trace: &Trace, cfg: &SimConfig) -> SimResult {
    match mech {
        Mechanism::Utlb => scalar_replay(&mut UtlbEngine::new(cfg.utlb_config()), trace, cfg),
        Mechanism::PerProc => {
            scalar_replay(&mut PerProcessEngine::new(cfg.perproc_config()), trace, cfg)
        }
        Mechanism::Indexed => {
            scalar_replay(&mut IndexedEngine::new(cfg.indexed_config()), trace, cfg)
        }
        Mechanism::Intr => scalar_replay(&mut IntrEngine::new(cfg.intr_config()), trace, cfg),
    }
}

/// A probe that records every `(pid, event)` it sees, in order.
#[derive(Debug, Clone, Default)]
struct EventLog(Rc<RefCell<Vec<(ProcessId, Event)>>>);

impl EventLog {
    /// Returns the events recorded since the last call.
    fn drain(&self) -> Vec<(ProcessId, Event)> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl Probe for EventLog {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.0.borrow_mut().push((pid, event));
    }
}

/// Drives two engines of the same type in lockstep — one through scalar
/// `lookup_run`, one through batched `lookup_run_into` — asserting after
/// *every record* that outcomes, simulated clocks and the ordered
/// `(pid, Event)` stream agree, and at the end that all statistics do.
/// Stronger than end-state JSON comparison: a transient divergence that
/// later cancels out would still fail here. The event order matters on its
/// own: the DES overlay decodes each record's events into page demands.
fn assert_batched_lockstep_matches_scalar<M: TranslationMechanism>(
    scalar: &mut M,
    batched: &mut M,
    trace: &Trace,
) {
    let mut host_s = Host::new(HOST_FRAMES);
    let mut host_b = Host::new(HOST_FRAMES);
    let mut board_s = Board::new();
    let mut board_b = Board::new();
    let (events_s, events_b) = (EventLog::default(), EventLog::default());
    scalar.set_probe(Box::new(events_s.clone()));
    batched.set_probe(Box::new(events_b.clone()));

    let pids = trace.process_ids();
    for expected in &pids {
        assert_eq!(host_s.spawn_process(), *expected);
        assert_eq!(host_b.spawn_process(), *expected);
        scalar
            .register_process(&mut host_s, &mut board_s, *expected)
            .expect("registration succeeds");
        batched
            .register_process(&mut host_b, &mut board_b, *expected)
            .expect("registration succeeds");
    }

    let mut out = OutcomeBuf::new();
    for (ix, rec) in trace.records.iter().enumerate() {
        board_s.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        board_b.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        let npages = rec.va.span_pages(rec.nbytes);
        let pages = scalar
            .lookup_run(&mut host_s, &mut board_s, rec.pid, rec.va.page(), npages)
            .expect("trace lookups succeed");
        out.clear();
        batched
            .lookup_run_into(
                &mut host_b,
                &mut board_b,
                LookupBatch::for_buffer(rec.pid, rec.va, rec.nbytes),
                &mut out,
            )
            .expect("trace lookups succeed");
        assert_eq!(out, pages, "outcomes diverge at record {ix}");
        assert_eq!(
            board_s.clock.now(),
            board_b.clock.now(),
            "clocks diverge at record {ix}"
        );
        assert_eq!(
            events_s.drain(),
            events_b.drain(),
            "events diverge at record {ix}"
        );
    }

    assert_eq!(scalar.aggregate_stats(), batched.aggregate_stats());
    assert_eq!(scalar.cache_stats(), batched.cache_stats());
    for pid in &pids {
        assert_eq!(
            scalar.stats(*pid).expect("registered"),
            batched.stats(*pid).expect("registered"),
            "per-process stats diverge for {pid:?}"
        );
    }
}

/// Lockstep comparison behind a [`Mechanism`] dispatch.
fn assert_batched_matches_scalar(mech: Mechanism, trace: &Trace, cfg: &SimConfig) {
    match mech {
        Mechanism::Utlb => assert_batched_lockstep_matches_scalar(
            &mut UtlbEngine::new(cfg.utlb_config()),
            &mut UtlbEngine::new(cfg.utlb_config()),
            trace,
        ),
        Mechanism::PerProc => assert_batched_lockstep_matches_scalar(
            &mut PerProcessEngine::new(cfg.perproc_config()),
            &mut PerProcessEngine::new(cfg.perproc_config()),
            trace,
        ),
        Mechanism::Indexed => assert_batched_lockstep_matches_scalar(
            &mut IndexedEngine::new(cfg.indexed_config()),
            &mut IndexedEngine::new(cfg.indexed_config()),
            trace,
        ),
        Mechanism::Intr => assert_batched_lockstep_matches_scalar(
            &mut IntrEngine::new(cfg.intr_config()),
            &mut IntrEngine::new(cfg.intr_config()),
            trace,
        ),
    }
}

#[test]
fn batched_lookup_matches_scalar_lockstep_for_all_mechanisms() {
    let trace = water();
    // A tiny cache forces evictions (and for Intr, conflict unpins across
    // processes); the memory limit adds mem-limit unpins; the larger cache
    // covers the mostly-hits fast-path regime the batching targets.
    for cfg in [
        SimConfig::study(64),
        SimConfig::study(256).limit_mb(1),
        SimConfig::study(1024),
    ] {
        for mech in Mechanism::ALL {
            assert_batched_matches_scalar(mech, &trace, &cfg);
        }
    }
}

#[test]
fn batched_run_is_byte_identical_to_a_scalar_replay() {
    let trace = water();
    let cfg = SimConfig::study(256).limit_mb(1);
    for mech in Mechanism::ALL {
        let scalar = serde_json::to_string(&scalar_run_mechanism(mech, &trace, &cfg)).unwrap();
        let batched = serde_json::to_string(&run_mechanism(mech, &trace, &cfg)).unwrap();
        assert_eq!(scalar, batched, "{mech}");
    }
}

#[test]
fn des_zero_contention_base_is_byte_identical_to_a_scalar_replay() {
    // `run_des` now drives the batched path too; its serial half must still
    // reproduce the scalar replay bit-exactly under zero contention.
    let trace = water();
    let cfg = SimConfig::study(256);
    for mech in Mechanism::ALL {
        let scalar = scalar_run_mechanism(mech, &trace, &cfg);
        let des = run_des_mechanism(mech, &trace, &cfg, &DesConfig::zero_contention());
        assert_eq!(
            serde_json::to_string(&scalar).unwrap(),
            serde_json::to_string(&des.base).unwrap(),
            "{mech}"
        );
        assert_eq!(des.des_time_ns, scalar.sim_time_ns, "{mech}: DES overlay");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched and scalar lookup paths agree in lockstep for arbitrary
    /// traces and cache geometries, for every mechanism.
    #[test]
    fn batched_lookup_matches_scalar_for_any_trace(
        seed in any::<u64>(),
        scale in 0.02f64..0.05,
        cache_log in 6u32..11,
        app_ix in 0usize..7,
        mech_ix in 0usize..4,
        limit in any::<bool>(),
    ) {
        let app = SplashApp::ALL[app_ix];
        let gencfg = GenConfig { seed, scale, app_processes: 4 };
        let trace = gen::generate(app, &gencfg);
        let mut cfg = SimConfig::study(1usize << cache_log);
        if limit {
            cfg = cfg.limit_mb(1);
        }
        assert_batched_matches_scalar(Mechanism::ALL[mech_ix], &trace, &cfg);
    }
}

#[test]
fn probe_stream_reconciles_with_engine_stats_on_water() {
    let trace = water();
    let cfg = SimConfig::study(256).limit_mb(1);
    for mech in Mechanism::ALL {
        let (result, obs) = run_mechanism_observed(mech, &trace, &cfg, 64);
        assert!(obs.reconciled, "{mech} mismatches: {:?}", obs.mismatches);
        // The headline counters, spelled out: the event stream carries the
        // same totals as the engines' own statistics.
        assert_eq!(obs.metrics.counts.lookups, result.stats.lookups, "{mech}");
        assert_eq!(
            obs.metrics.counts.ni_misses, result.stats.ni_misses,
            "{mech}"
        );
        assert_eq!(obs.metrics.counts.pins, result.stats.pins, "{mech}");
        assert_eq!(obs.metrics.counts.unpins, result.stats.unpins, "{mech}");
        assert_eq!(
            obs.metrics.counts.interrupts, result.stats.interrupts,
            "{mech}"
        );
        assert_eq!(obs.metrics.pin_ns.sum_ns(), result.stats.pin_time_ns);
        // Ring traces exist for every trace process and respect capacity.
        assert_eq!(obs.traces.len(), trace.process_ids().len());
        assert!(obs.traces.iter().all(|t| t.events.len() <= 64));
    }
}
