//! Host-time benchmark of the UTLB simulator.
//!
//! Four closed-loop workloads, each loading a different slice of the
//! simulator (see `README.md` in this directory for why each was chosen
//! and which layers it loads and bypasses):
//!
//! * [`Workload::Stream`] — fused generate+replay of looped Barnes through
//!   each mechanism in turn: trace generation, the engine hit path and the
//!   miss classifier.
//! * [`Workload::Sweep`] — a 336-cell grid through the public
//!   [`SweepGrid`] on up to two workers: cold-cache replays (the engine
//!   miss path), trace materialization, the DES station walk, cluster
//!   sharding, sweep dispatch and the checkpoint journal.
//! * [`Workload::Churn`] — many short connections over a four-board
//!   clustered front end: registration, handshakes and redirects.
//! * [`Workload::Serve`] — a few long-lived connections on the single-board
//!   front end: the reactor request path and credit admission.
//!
//! One [`pass`] is one closed-loop cycle of a workload: every run starts
//! after the previous one ends. A pass returns its host timings, the
//! outcome of its output checks, and a digest of every simulated result,
//! which must not depend on whether the pass was traced.
//!
//! Host time comes from two clocks (see the `spans` module). End-to-end
//! figures are CPU time of the measuring thread, or of the process for the
//! multi-worker sweep, so that time spent waiting for a shared host's
//! cores is not charged to the simulator, scaled by `host_speed` probes
//! taken around every timed operation, so that a slow stretch of a shared
//! memory system is not charged either. Per-layer spans are wall time.

mod spans;

use serde::{Deserialize, Serialize};
use spans::{cpu_ns, host_speed, Cpu, EngineCalls, Stopwatch, Timed, TimedStream};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use utlb_core::{Associativity, TranslationMechanism, TranslationStats};
use utlb_des::{AdmissionStats, DesConfig};
use utlb_mem::Host;
use utlb_nic::Board;
use utlb_sim::frontend::{frontend_reference, FrontendConfig};
use utlb_sim::{
    ClusterConfig, Live, Mechanism, Run, RunOutputExt, SimConfig, SweepGrid, SweepScratch,
};
use utlb_trace::{gen, GenConfig, Looped, SplashApp, Trace};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fused generate+replay of looped Barnes, one mechanism after another.
    Stream,
    /// A geometry × mechanism × timing-model grid over all seven apps.
    Sweep,
    /// Short connections churned through a clustered front end.
    Churn,
    /// Long-lived connections on the single-board front end.
    Serve,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Stream,
        Workload::Sweep,
        Workload::Churn,
        Workload::Serve,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Sweep => "sweep",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one pass. [`Size::full`] is what the benchmark command
/// measures; [`Size::small`] keeps every code path but runs in well under
/// a second, for the self-test.
#[derive(Debug, Clone)]
pub struct Size {
    /// Trace scale of the looped Barnes stream.
    pub stream_scale: f64,
    /// Epochs each mechanism's stream is looped for.
    pub stream_epochs: u64,
    /// Records per `stream` step.
    pub stream_step_records: u64,
    /// Trace scale of the seven sweep traces.
    pub sweep_scale: f64,
    /// Connections per churn run.
    pub churn_connections: usize,
    /// Requests per served connection.
    pub serve_requests_per_conn: usize,
    /// Served requests per `serve` step.
    pub serve_step_requests: u64,
}

impl Size {
    /// The measured size.
    pub fn full() -> Self {
        Size {
            stream_scale: 1.0,
            stream_epochs: 8,
            stream_step_records: 16384,
            sweep_scale: 0.25,
            churn_connections: 768,
            serve_requests_per_conn: 4096,
            serve_step_requests: 8192,
        }
    }

    /// A reduced size with the same code paths, for tests.
    pub fn small() -> Self {
        Size {
            stream_scale: 0.1,
            stream_epochs: 2,
            stream_step_records: 256,
            sweep_scale: 0.02,
            churn_connections: 96,
            serve_requests_per_conn: 64,
            serve_step_requests: 64,
        }
    }
}

/// NIC cache entries of the `stream` and `serve` runs and of every sweep
/// twin: the paper's 8 K study point.
const STUDY_ENTRIES: usize = 8192;
/// Gap between looped epochs (ns), as in the repository's stream-scale
/// experiment.
const EPOCH_GAP_NS: u64 = 20_000;
/// Boards of the sweep's cluster cells and of the churn front end.
const BOARDS: usize = 4;
/// Offered payload load of the sweep's contended DES cells.
const DES_LOAD: f64 = 1.0;
/// Open connections of a churn run: many fewer than its connections.
const CHURN_OPEN_WINDOW: usize = 16;
/// Requests per churned connection.
const CHURN_REQUESTS: usize = 4;
/// Per-process table entries of the churn runs. At the 8 K default the
/// Indexed registration (which writes every entry) swamps a churn pass; at
/// 1 K it stays the costliest registration but leaves handshakes and
/// redirects visible, and PerProc still reaches its SRAM cliff (128 tables
/// per board) inside a run.
const CHURN_TABLE_ENTRIES: usize = 1024;
/// Connections of a serve run, all open for its whole length.
const SERVE_CONNECTIONS: usize = 16;
/// Set-up samples per pass: each run's set-up is timed this many times
/// (the last build is the one that runs).
const SETUP_REPS: usize = 5;
/// Thread CPU time one set-up sample spans at least, ns. A set-up that
/// takes less is built in a batch, doubled until it is this long, and the
/// sample is the batch's time per build: the clock reads, a system call
/// each, then cost nothing next to what they time.
const SETUP_SAMPLE_NS: u64 = 100_000;

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Digest of every simulated count and sim-time value of the pass.
    pub digest: u64,
    /// Runs (or sweep cells) attempted.
    pub attempted: u64,
    /// Runs that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Set-up time of a whole pass (every run's set-up), scaled CPU
    /// seconds; several samples per pass.
    pub setup_s: Vec<f64>,
    /// CPU time of the timed operations, each scaled by the host speed
    /// measured around it, ns.
    pub timed_ns: u64,
    /// Wall time of the timed operations, ns: the clock per-layer spans
    /// are subtracted from.
    pub wall_ns: u64,
    /// Pages translated by the timed operations.
    pub lookups: u64,
    /// Translation requests (trace records or served requests).
    pub requests: u64,
    /// Connection attempts (live front ends).
    pub connections: u64,
    /// Pages translated per scaled CPU second, one sample per absorbed
    /// pass.
    pub lookup_rates: Vec<f64>,
    /// Requests per scaled CPU second, one sample per absorbed pass.
    pub request_rates: Vec<f64>,
    /// Scaled CPU time per step, ms.
    pub steps_ms: Vec<f64>,
    /// Host speed of each timed operation.
    pub speeds: Vec<f64>,
    /// Summed span and count totals, keyed by layer quantity.
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    /// Records the outcome of one run's checks.
    fn run_checked(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Records a timed operation and the steps it closed, both scaled by
    /// the host speed measured around it.
    fn timed(&mut self, t: &Timing, steps_ms: &[f64]) {
        self.timed_ns += (t.cpu_ns as f64 * t.speed) as u64;
        self.wall_ns += t.wall_ns;
        self.steps_ms.extend(steps_ms.iter().map(|s| s * t.speed));
        self.speeds.push(t.speed);
    }

    /// Records set-up samples (thread CPU seconds), scaled by the median
    /// speed of the pass's timed operations: call after the last of them.
    fn setup(&mut self, samples: &[f64]) {
        let speed = quantile(&self.speeds, 0.5);
        self.setup_s.extend(samples.iter().map(|s| s * speed));
    }

    /// Adds `v` to layer quantity `key`.
    fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.layers.entry(key.into()).or_insert(0.0) += v;
    }

    /// Adds one mechanism's engine spans and counters.
    fn add_calls(&mut self, mech: Mechanism, calls: &EngineCalls, trace: bool) {
        let m = mech_key(mech);
        if trace && calls.lookup_calls > 0 {
            self.add(format!("core.{m}.lookup_ns"), calls.lookup_ns as f64);
            self.add(format!("core.{m}.timed_pages"), calls.pages as f64);
        }
        if trace && calls.register_calls > 0 {
            self.add(format!("core.{m}.register_ns"), calls.register_ns as f64);
            self.add(
                format!("core.{m}.register_calls"),
                calls.register_calls as f64,
            );
            self.add(
                format!("core.{m}.unregister_ns"),
                calls.unregister_ns as f64,
            );
            self.add(
                format!("core.{m}.unregister_calls"),
                calls.unregister_calls as f64,
            );
        }
    }

    /// Adds one run's NIC hit counts.
    fn add_hits(&mut self, mech: Mechanism, stats: &TranslationStats) {
        let m = mech_key(mech);
        self.add(format!("core.{m}.lookups"), stats.lookups as f64);
        self.add(format!("core.{m}.ni_misses"), stats.ni_misses as f64);
    }

    /// Folds another pass of the same workload into this one.
    pub fn absorb(&mut self, other: Pass) {
        if other.timed_ns > 0 {
            let secs = other.timed_ns as f64 / 1e9;
            self.lookup_rates.push(other.lookups as f64 / secs);
            self.request_rates.push(other.requests as f64 / secs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.setup_s.extend(other.setup_s);
        self.timed_ns += other.timed_ns;
        self.wall_ns += other.wall_ns;
        self.lookups += other.lookups;
        self.requests += other.requests;
        self.connections += other.connections;
        self.steps_ms.extend(other.steps_ms);
        self.speeds.extend(other.speeds);
        for (k, v) in other.layers {
            *self.layers.entry(k).or_insert(0.0) += v;
        }
    }
}

/// The lower-case mechanism tag used in metric names.
fn mech_key(mech: Mechanism) -> &'static str {
    match mech {
        Mechanism::Utlb => "utlb",
        Mechanism::PerProc => "perproc",
        Mechanism::Indexed => "indexed",
        Mechanism::Intr => "intr",
    }
}

/// 64-bit FNV-1a, folded over serialized results.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn feed<T: Serialize + ?Sized>(&mut self, value: &T) {
        let text = serde_json::to_string(value).expect("simulation results serialize");
        self.bytes(text.as_bytes());
    }

    fn of<T: Serialize + ?Sized>(value: &T) -> u64 {
        let mut d = Digest::new();
        d.feed(value);
        d.0
    }
}

/// The mechanism invariants every translation result must satisfy, plus
/// the page count the wrapper saw when there is one.
fn check_stats(mech: Mechanism, stats: &TranslationStats, pages: Option<u64>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(pages) = pages {
        if stats.lookups != pages {
            problems.push(format!(
                "{} lookups but the engine was asked for {pages} pages",
                stats.lookups
            ));
        }
    }
    match mech {
        Mechanism::Intr if stats.interrupts != stats.ni_misses => problems.push(format!(
            "Intr raised {} interrupts for {} NI misses",
            stats.interrupts, stats.ni_misses
        )),
        Mechanism::Utlb if stats.interrupts != 0 => {
            problems.push(format!("UTLB raised {} interrupts", stats.interrupts));
        }
        Mechanism::PerProc if stats.ni_misses != 0 => {
            problems.push(format!("PerProc took {} NI misses", stats.ni_misses));
        }
        _ => {}
    }
    problems
}

/// The identities every front-end run must satisfy: each connection was
/// accepted or refused, each offered request admitted or rejected `Busy`,
/// and no page stayed pinned after its connection closed.
fn check_frontend(
    [accepted, refused, connections]: [u64; 3],
    admission: &AdmissionStats,
    offered: u64,
    pinned_end: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if accepted + refused != connections {
        problems.push(format!(
            "accepted {accepted} + refused {refused} != {connections} connections"
        ));
    }
    if admission.admitted + admission.rejected != offered {
        problems.push(format!(
            "admitted {} + busy {} != offered {offered}",
            admission.admitted, admission.rejected
        ));
    }
    if pinned_end != 0 {
        problems.push(format!("{pinned_end} pages left pinned"));
    }
    problems
}

/// What a timed operation took.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_ns: u64,
    cpu_ns: u64,
    /// Mean [`host_speed`] of the probes right before and right after.
    speed: f64,
}

/// Runs `op` between two [`host_speed`] probes, timing it on `clock`.
fn measure<T>(clock: Cpu, op: impl FnOnce() -> T) -> (T, Timing) {
    let before = host_speed();
    let watch = Stopwatch::start(clock);
    let out = op();
    let (wall_ns, cpu_ns) = watch.read();
    let speed = (before + host_speed()) / 2.0;
    (
        out,
        Timing {
            wall_ns,
            cpu_ns,
            speed,
        },
    )
}

/// Times a run's set-up [`SETUP_REPS`] times and returns the last build,
/// adding the `i`-th sample (thread CPU seconds per build, batched up to
/// [`SETUP_SAMPLE_NS`]) to `reps[i]`. Summed over a pass's runs, each
/// entry of `reps` is one sample of the pass's whole set-up. Each build is
/// dropped, inside the sample, before the next starts.
fn timed_setup<T>(reps: &mut [f64; SETUP_REPS], mut build: impl FnMut() -> T) -> T {
    let mut built = None;
    for rep in reps.iter_mut() {
        let mut batch = 1u64;
        loop {
            let start = cpu_ns(Cpu::Thread);
            for _ in 0..batch {
                drop(built.take());
                built = Some(build());
            }
            let took = cpu_ns(Cpu::Thread).saturating_sub(start);
            if took >= SETUP_SAMPLE_NS {
                *rep += took as f64 / 1e9 / batch as f64;
                break;
            }
            batch *= 2;
        }
    }
    built.expect("SETUP_REPS is positive")
}

/// Runs one closed-loop pass of `workload` on inputs generated from
/// `seed`. With `trace` on, spans are recorded at every layer boundary;
/// the simulated results, and so the digest, are the same either way.
pub fn pass(workload: Workload, size: &Size, seed: u64, trace: bool) -> Pass {
    match workload {
        Workload::Stream => stream_pass(size, seed, trace),
        Workload::Sweep => sweep_pass(size, seed, trace),
        Workload::Churn => churn_pass(size, seed, trace),
        Workload::Serve => serve_pass(size, seed, trace),
    }
}

// ---------------------------------------------------------------- stream

fn stream_pass(size: &Size, seed: u64, trace: bool) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Digest::new();
    let sim = SimConfig::study(STUDY_ENTRIES);
    let gcfg = GenConfig {
        seed,
        scale: size.stream_scale,
        app_processes: 4,
    };
    let mut scratch = SweepScratch::new();
    let mut setup = [0.0; SETUP_REPS];
    for mech in Mechanism::ALL {
        let (mut stream, run) = timed_setup(&mut setup, || {
            let looped = Looped::new(
                gen::stream(SplashApp::Barnes, &gcfg),
                size.stream_epochs,
                EPOCH_GAP_NS,
                |_| gen::stream(SplashApp::Barnes, &gcfg),
            );
            (
                TimedStream::new(looped, trace, size.stream_step_records),
                Run::with_config(&sim),
            )
        });

        // The engine is built inside the timed region, where `Run::execute`
        // builds it too, not in the set-up: on a shared 2-vCPU Xeon VM,
        // filling the engines' 256 KiB cache arrays took ~40 or ~60 µs per
        // pass depending on what other tenants were doing, in phases
        // longer than a run, which split the set-up median into two
        // modes. With the run it is a small share of the measured rate.
        let ((out, engine), timing) = measure(Cpu::Thread, || {
            stream.steps.start();
            let mut engine = Timed::new(mech.engine(&sim), trace, 0);
            let out = run
                .execute_with_in(&mut engine, &mut scratch, &mut stream)
                .into_sim();
            (out, engine)
        });

        let what = format!("stream {mech}");
        let result = match out {
            Ok(r) => r,
            Err(e) => {
                pass.run_checked(&what, vec![e.to_string()]);
                continue;
            }
        };
        let calls = engine.calls;
        let mut problems = check_stats(mech, &result.stats, Some(calls.pages));
        if stream.records != calls.lookup_calls {
            problems.push(format!(
                "{} records streamed but {} lookup calls",
                stream.records, calls.lookup_calls
            ));
        }
        pass.run_checked(&what, problems);
        digest.feed(&result);

        pass.timed(&timing, &stream.steps.samples_ms);
        pass.lookups += result.stats.lookups;
        pass.requests += stream.records;
        pass.add_calls(mech, &calls, trace);
        pass.add_hits(mech, &result.stats);
        if trace {
            pass.add("stream.gen_ns", stream.gen_ns as f64);
            pass.add("stream.engine_ns", calls.engine_ns() as f64);
            pass.add("stream.records", stream.records as f64);
        }
    }
    pass.setup(&setup);
    pass.digest = digest.0;
    pass
}

// ----------------------------------------------------------------- sweep

/// Cache sizes of the sweep's serial geometry cells.
const SWEEP_ENTRIES: [usize; 3] = [1024, 4096, 16384];
/// Organizations of the sweep's serial geometry cells.
const SWEEP_ASSOC: [Associativity; 3] = [
    Associativity::Direct,
    Associativity::TwoWay,
    Associativity::FourWay,
];

/// What a sweep cell replays.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellKind {
    /// A serial replay at one cache geometry.
    Serial(usize, Associativity),
    /// The serial replay at the study point the DES and cluster cells
    /// are compared against.
    Twin,
    /// The twin's geometry under contended discrete-event timing.
    Des,
    /// The twin's geometry sharded over [`BOARDS`] boards.
    Cluster,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    app: usize,
    mech: Mechanism,
    kind: CellKind,
}

impl Cell {
    fn sim(&self) -> SimConfig {
        match self.kind {
            CellKind::Serial(entries, assoc) => SimConfig {
                associativity: assoc,
                ..SimConfig::study(entries)
            },
            CellKind::Twin | CellKind::Des | CellKind::Cluster => SimConfig::study(STUDY_ENTRIES),
        }
    }

    fn key(&self, seed: u64, scale: f64) -> String {
        format!(
            "{}|{}|{:?}|seed={seed}|scale={scale}",
            SplashApp::ALL[self.app],
            self.mech,
            self.kind
        )
    }

    /// Relative cost for LPT dispatch: lookups, weighted by timing model.
    fn cost(&self, traces: &[Trace]) -> u64 {
        let lookups = traces[self.app].total_lookups();
        match self.kind {
            CellKind::Serial(..) | CellKind::Twin => lookups,
            CellKind::Des => lookups * 2,
            CellKind::Cluster => lookups * 3,
        }
    }
}

/// One sweep cell's result, as the checkpoint journal stores it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CellOut {
    /// Digest of the cell's full simulated result.
    digest: u64,
    /// Digest of the serial half (the whole result for serial cells, the
    /// base of a DES result, zero for cluster cells).
    serial_digest: u64,
    /// Aggregate translation counters.
    stats: TranslationStats,
    /// Problems the cell's own checks found.
    problems: Vec<String>,
    /// Trace records replayed.
    records: u64,
    /// Wall time of the cell's run, ns.
    host_ns: u64,
    /// Thread CPU time of the cell's run, ns.
    cpu_ns: u64,
    /// Host time inside the engine, ns (traced serial and DES cells).
    lookup_ns: u64,
    /// Pages the wrapped engine translated (serial and DES cells).
    timed_pages: u64,
}

fn sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in 0..SplashApp::ALL.len() {
        for mech in Mechanism::ALL {
            for entries in SWEEP_ENTRIES {
                for assoc in SWEEP_ASSOC {
                    cells.push(Cell {
                        app,
                        mech,
                        kind: CellKind::Serial(entries, assoc),
                    });
                }
            }
            for kind in [CellKind::Twin, CellKind::Des, CellKind::Cluster] {
                cells.push(Cell { app, mech, kind });
            }
        }
    }
    cells
}

fn run_cell(cell: &Cell, trace_in: &Trace, scratch: &mut SweepScratch, trace: bool) -> CellOut {
    let sim = cell.sim();
    let mut engine = Timed::new(cell.mech.engine(&sim), trace, 0);
    let clock = Stopwatch::start(Cpu::Thread);
    let outcome = match cell.kind {
        CellKind::Serial(..) | CellKind::Twin => Run::with_config(&sim)
            .execute_with_in(&mut engine, scratch, trace_in)
            .into_sim()
            .map(|r| {
                let d = Digest::of(&r);
                (d, d, r.stats, true)
            }),
        CellKind::Des => Run::with_config(&sim)
            .des(DesConfig::contended(DES_LOAD))
            .execute_with_in(&mut engine, scratch, trace_in)
            .into_des()
            .map(|r| (Digest::of(&r), Digest::of(&r.base), r.base.stats, true)),
        CellKind::Cluster => Run::new(cell.mech)
            .config(&sim)
            .cluster(ClusterConfig::new(BOARDS))
            .execute(trace_in)
            .into_cluster()
            .map(|r| (Digest::of(&r), 0, r.aggregate_stats(), false)),
    };
    let (host_ns, cpu_ns) = clock.read();
    let records = trace_in.records.len() as u64;
    let calls = engine.calls;
    let (digest, serial_digest, stats, wrapped, mut problems) = match outcome {
        Ok((d, sd, stats, wrapped)) => (d, sd, stats, wrapped, Vec::new()),
        Err(e) => (
            0,
            0,
            TranslationStats::default(),
            false,
            vec![e.to_string()],
        ),
    };
    if problems.is_empty() {
        problems = check_stats(cell.mech, &stats, wrapped.then_some(calls.pages));
        if stats.lookups != trace_in.total_lookups() {
            problems.push(format!(
                "{} lookups for a trace of {}",
                stats.lookups,
                trace_in.total_lookups()
            ));
        }
    }
    CellOut {
        digest,
        serial_digest,
        stats,
        problems,
        records,
        host_ns,
        cpu_ns,
        lookup_ns: calls.lookup_ns,
        timed_pages: calls.pages,
    }
}

/// A scratch directory for the sweep's checkpoint journal, under the
/// working directory and removed on drop.
struct JournalDir(PathBuf);

/// Parent of every journal directory, relative to the working directory.
const SCRATCH_DIR: &str = ".perfbench-tmp";

impl JournalDir {
    fn fresh() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_DIR).join(format!("journal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the sweep journal directory");
        JournalDir(dir)
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only once no other journal is left in it.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// Sweep workers: at most two, and never more than the host has.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

fn sweep_pass(size: &Size, seed: u64, trace: bool) -> Pass {
    let mut pass = Pass::default();
    let gcfg = GenConfig {
        seed,
        scale: size.sweep_scale,
        app_processes: 4,
    };

    let clock = Stopwatch::start(Cpu::Thread);
    let traces: Vec<Trace> = SplashApp::ALL
        .iter()
        .map(|&app| gen::generate(app, &gcfg))
        .collect();
    let cells = sweep_cells();
    let (setup_ns, setup_cpu_ns) = clock.read();
    let journal = JournalDir::fresh();
    let workers = sweep_workers();

    let key = |c: &Cell| c.key(seed, size.sweep_scale);
    let grid = || {
        SweepGrid::over(&cells)
            .cost(|c| c.cost(&traces))
            .workers(workers)
            .checkpoint_at(&journal.0, "perfbench-sweep", key)
    };
    // Process CPU time: every worker's, and the dispatch and journal
    // writes around the cells.
    let (outs, timing) = measure(Cpu::Process, || {
        grid().run_with(SweepScratch::new, |cell, scratch| {
            run_cell(cell, &traces[cell.app], scratch, trace)
        })
    });

    // A second pass over the same journal must be served from it entirely
    // and return the cells the first pass computed.
    let recomputed = AtomicUsize::new(0);
    let t = Instant::now();
    let resumed = grid().run_with(SweepScratch::new, |cell, scratch| {
        recomputed.fetch_add(1, Ordering::Relaxed);
        run_cell(cell, &traces[cell.app], scratch, trace)
    });
    let resume_ns = t.elapsed().as_nanos() as u64;
    drop(journal);
    let recomputed = recomputed.into_inner();

    let mut digest = Digest::new();
    for (cell, out) in cells.iter().zip(&outs) {
        let what = format!(
            "sweep {} {} {:?}",
            SplashApp::ALL[cell.app],
            cell.mech,
            cell.kind
        );
        let mut problems = out.problems.clone();
        if matches!(cell.kind, CellKind::Des | CellKind::Cluster) {
            let twin = cells
                .iter()
                .zip(&outs)
                .find(|(c, _)| c.app == cell.app && c.mech == cell.mech && c.kind == CellKind::Twin)
                .map(|(_, o)| o)
                .expect("every app and mechanism has a twin");
            problems.extend(twin_mismatch(cell.kind, out, twin));
        }
        pass.run_checked(&what, problems);
        digest.feed(&(out.digest, out.serial_digest, &out.stats));

        pass.lookups += out.stats.lookups;
        pass.requests += out.records;
        pass.add_hits(cell.mech, &out.stats);
        if trace {
            let m = mech_key(cell.mech);
            if out.timed_pages > 0 {
                pass.add(format!("core.{m}.lookup_ns"), out.lookup_ns as f64);
                pass.add(format!("core.{m}.timed_pages"), out.timed_pages as f64);
            }
            pass.add("sweep.cells_ns", out.host_ns as f64);
            let kind = match cell.kind {
                CellKind::Twin => Some("sweep.twin_ns"),
                CellKind::Des => Some("sweep.des_ns"),
                CellKind::Cluster => Some("sweep.cluster_ns"),
                CellKind::Serial(..) => None,
            };
            if let Some(kind) = kind {
                pass.add(kind, out.host_ns as f64);
            }
        }
    }
    let same = resumed.len() == outs.len()
        && resumed.iter().zip(&outs).all(|(a, b)| {
            (a.digest, a.serial_digest, &a.stats) == (b.digest, b.serial_digest, &b.stats)
        });
    let mut problems = Vec::new();
    if recomputed != 0 {
        problems.push(format!(
            "{recomputed} cells recomputed instead of read back"
        ));
    }
    if !same {
        problems.push("the journal returned different cells".to_string());
    }
    pass.run_checked("sweep journal resume", problems);

    pass.digest = digest.0;
    let cells_ms: Vec<f64> = outs.iter().map(|o| o.cpu_ns as f64 / 1e6).collect();
    pass.timed(&timing, &cells_ms);
    pass.setup(&[setup_cpu_ns as f64 / 1e9]);
    if trace {
        pass.add("sweep.materialize_ns", setup_ns as f64);
        pass.add("sweep.grids", 1.0);
        pass.add("sweep.worker_ns", (workers as u64 * timing.wall_ns) as f64);
        pass.add("sweep.resume_ns", resume_ns as f64);
    }
    pass
}

/// Why a DES or cluster cell disagrees with its serial twin. A DES cell's
/// serial half must be the twin, bit for bit; a cluster cell shards the
/// same records over boards with private caches, so only the counts that
/// do not depend on cache placement must match.
fn twin_mismatch(kind: CellKind, out: &CellOut, twin: &CellOut) -> Vec<String> {
    let mut problems = Vec::new();
    if kind == CellKind::Des && out.serial_digest != twin.serial_digest {
        problems.push("DES serial half differs from its serial twin".to_string());
    }
    let (a, b) = (&out.stats, &twin.stats);
    if (a.lookups, a.check_misses, a.pins) != (b.lookups, b.check_misses, b.pins) {
        problems.push(format!(
            "lookups/check misses/pins {}/{}/{} vs serial twin {}/{}/{}",
            a.lookups, a.check_misses, a.pins, b.lookups, b.check_misses, b.pins
        ));
    }
    problems
}

// ----------------------------------------------------------------- churn

fn churn_config(size: &Size, seed: u64) -> FrontendConfig {
    FrontendConfig {
        connections: size.churn_connections,
        open_window: CHURN_OPEN_WINDOW,
        requests_per_conn: CHURN_REQUESTS,
        seed,
        ..FrontendConfig::default()
    }
}

/// Replays the churn's registration pattern on one standalone engine: the
/// same connection count through the same FIFO open window, every call
/// timed and every refusal counted. The clustered run builds its engines
/// internally, so this is how its registration cost is attributed.
fn registration_churn(mech: Mechanism, sim: &SimConfig, fcfg: &FrontendConfig) -> EngineCalls {
    let mut engine = Timed::new(mech.engine(sim), true, 0);
    let mut host = Host::new(sim.host_frames);
    let mut board = Board::new();
    let mut open = VecDeque::with_capacity(fcfg.open_window);
    let close = |engine: &mut Timed, host: &mut Host, board: &mut Board, pid| {
        engine
            .unregister_process(host, board, pid)
            .expect("open connection is registered");
        host.kill_process(pid).expect("connection process is live");
    };
    for _ in 0..fcfg.connections {
        if open.len() == fcfg.open_window {
            let pid = open.pop_front().expect("window is full");
            close(&mut engine, &mut host, &mut board, pid);
        }
        let pid = host.spawn_process();
        if engine.register_process(&mut host, &mut board, pid).is_ok() {
            open.push_back(pid);
        } else {
            host.kill_process(pid).expect("freshly spawned process");
        }
    }
    for pid in open {
        close(&mut engine, &mut host, &mut board, pid);
    }
    engine.calls
}

fn churn_pass(size: &Size, seed: u64, trace: bool) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Digest::new();
    let sim = SimConfig {
        table_entries: CHURN_TABLE_ENTRIES,
        ..SimConfig::study(STUDY_ENTRIES)
    };
    let fcfg = churn_config(size, seed);
    let mut setup = [0.0; SETUP_REPS];
    for mech in Mechanism::ALL {
        let run = timed_setup(&mut setup, || {
            Run::new(mech)
                .config(&sim)
                .frontend(fcfg.clone())
                .cluster(ClusterConfig::new(BOARDS))
        });

        let (out, timing) = measure(Cpu::Thread, || run.execute(Live).into_cluster_frontend());

        let what = format!("churn {mech}");
        let r = match out {
            Ok(r) => r,
            Err(e) => {
                pass.run_checked(&what, vec![e.to_string()]);
                continue;
            }
        };
        let mut problems = check_stats(mech, &r.stats, None);
        problems.extend(check_frontend(
            [r.accepted, r.refused, r.connections],
            &r.admission,
            r.offered,
            r.pinned_pages_end,
        ));
        pass.run_checked(&what, problems);
        digest.feed(&r);

        pass.timed(&timing, &[]);
        pass.lookups += r.stats.lookups;
        pass.requests += r.served;
        pass.connections += r.connections;
        pass.add_hits(mech, &r.stats);
        if trace {
            let calls = registration_churn(mech, &sim, &fcfg);
            pass.add_calls(mech, &calls, true);
            pass.add("churn.registration_ns", calls.engine_ns() as f64);
            // Refusals are the clustered run's own: every registration a
            // board refused, redirected attempts included.
            let refusals: u64 = r.boards.iter().map(|b| b.refusals).sum();
            pass.add(format!("core.{}.refusals", mech_key(mech)), refusals as f64);
            pass.add("churn.redirects", r.redirects as f64);
        }
    }
    // A churn step is the whole pass: one run per mechanism, so every
    // step is the same work (per-run times differ a hundredfold).
    pass.steps_ms.push(pass.timed_ns as f64 / 1e6);
    if trace {
        pass.add("churn.passes", 1.0);
    }
    pass.setup(&setup);
    pass.digest = digest.0;
    pass
}

// ----------------------------------------------------------------- serve

fn serve_config(size: &Size, seed: u64) -> FrontendConfig {
    FrontendConfig {
        connections: SERVE_CONNECTIONS,
        open_window: SERVE_CONNECTIONS,
        requests_per_conn: size.serve_requests_per_conn,
        credit_window: 4,
        queue_depth: 8,
        think_ns: 50_000,
        seed,
        ..FrontendConfig::default()
    }
}

/// The untimed no-stall check: one connection with ample credits must be
/// bit-exact with the serial replay of its materialized trace.
fn serve_reference(mech: Mechanism, seed: u64, digest: &mut Digest) -> Vec<String> {
    let sim = SimConfig::study(STUDY_ENTRIES);
    let fcfg = FrontendConfig {
        connections: 1,
        open_window: 1,
        requests_per_conn: 200,
        credit_window: 256,
        queue_depth: 0,
        seed,
        ..FrontendConfig::default()
    };
    let live = match Run::new(mech)
        .config(&sim)
        .frontend(fcfg.clone())
        .execute(Live)
        .into_frontend()
    {
        Ok(r) => r,
        Err(e) => return vec![e.to_string()],
    };
    let serial = frontend_reference(mech, &sim, &fcfg);
    digest.feed(&live);
    let mut problems = Vec::new();
    if (live.stats, live.cache, live.sim_time_ns)
        != (serial.stats, serial.cache, serial.sim_time_ns)
    {
        problems.push("no-stall live run differs from its serial reference".to_string());
    }
    if live.admission.stalled != 0 || live.admission.rejected != 0 {
        problems.push("no-stall reference run stalled or rejected".to_string());
    }
    problems
}

fn serve_pass(size: &Size, seed: u64, trace: bool) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Digest::new();
    let mut scratch = SweepScratch::new();
    let sim = SimConfig::study(STUDY_ENTRIES);
    let fcfg = serve_config(size, seed);
    let mut setup = [0.0; SETUP_REPS];
    for mech in Mechanism::ALL {
        let problems = serve_reference(mech, seed, &mut digest);
        pass.run_checked(&format!("serve reference {mech}"), problems);

        let run = timed_setup(&mut setup, || Run::with_config(&sim).frontend(fcfg.clone()));

        // Built inside the timed region, for the reason `stream_pass` gives.
        let ((out, engine), timing) = measure(Cpu::Thread, || {
            let mut engine = Timed::new(mech.engine(&sim), trace, size.serve_step_requests);
            let out = run
                .execute_with_in(&mut engine, &mut scratch, Live)
                .into_frontend();
            (out, engine)
        });

        let what = format!("serve {mech}");
        let r = match out {
            Ok(r) => r,
            Err(e) => {
                pass.run_checked(&what, vec![e.to_string()]);
                continue;
            }
        };
        let calls = engine.calls;
        let mut problems = check_stats(mech, &r.stats, Some(calls.pages));
        problems.extend(check_frontend(
            [r.accepted, r.refused, r.connections],
            &r.admission,
            r.offered,
            calls.leaked_pins,
        ));
        if r.served != calls.lookup_calls {
            problems.push(format!(
                "{} served but {} lookup calls",
                r.served, calls.lookup_calls
            ));
        }
        pass.run_checked(&what, problems);
        digest.feed(&r);

        pass.timed(&timing, &engine.steps.samples_ms);
        pass.lookups += r.stats.lookups;
        pass.requests += r.served;
        pass.connections += r.connections;
        pass.add_calls(mech, &calls, trace);
        pass.add_hits(mech, &r.stats);
        if trace {
            pass.add("serve.engine_ns", calls.engine_ns() as f64);
            pass.add("serve.served", r.served as f64);
            pass.add("serve.offered", r.offered as f64);
            pass.add("serve.busy", r.admission.rejected as f64);
            pass.add("serve.admitted", r.admission.admitted as f64);
            pass.add("serve.stalled", r.admission.stalled as f64);
        }
    }
    pass.setup(&setup);
    pass.digest = digest.0;
    pass
}

// ---------------------------------------------------------------- report

/// `num / den`, or zero when the layer did no work on this workload.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `p`-quantile (0..=1) of `samples`, linearly interpolated.
fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced measurement: medians of the
/// per-run set-up times, of the per-pass rates and of the step times.
pub fn end_to_end(m: &Pass, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", quantile(&m.setup_s, 0.5)),
        metric("lookups_per_s", "1/s", quantile(&m.lookup_rates, 0.5)),
        metric("requests_per_s", "1/s", quantile(&m.request_rates, 0.5)),
        metric("step_ms_p50", "ms", quantile(&m.steps_ms, 0.5)),
        metric("step_ms_p95", "ms", quantile(&m.steps_ms, 0.95)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// The per-layer metrics of a traced measurement. `traced` holds the
/// traced passes, `untraced` the untraced passes of the same work; a
/// layer a workload does not load reads zero.
pub fn per_layer(traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let l = |k: &str| traced.layers.get(k).copied().unwrap_or(0.0);
    // Spans are wall time, so self times subtract them from wall time.
    let wall_ns = traced.wall_ns as f64;
    let mut out = Vec::new();

    let records = l("stream.records");
    out.push(metric(
        "trace.gen_ns_per_record",
        "ns",
        ratio(l("stream.gen_ns"), records),
    ));
    out.push(metric(
        "trace.materialize_ms",
        "ms",
        ratio(l("sweep.materialize_ns"), l("sweep.grids") * 1e6),
    ));
    out.push(metric(
        "runner.self_ns_per_record",
        "ns",
        ratio(
            wall_ns - l("stream.gen_ns") - l("stream.engine_ns"),
            records,
        ),
    ));
    for mech in Mechanism::ALL {
        let m = mech_key(mech);
        let k = |q: &str| l(&format!("core.{m}.{q}"));
        out.push(metric(
            format!("core.{m}.lookup_ns_per_page"),
            "ns",
            ratio(k("lookup_ns"), k("timed_pages")),
        ));
        let lookups = k("lookups");
        out.push(metric(
            format!("core.{m}.ni_hit_ratio"),
            "count",
            ratio(lookups - k("ni_misses"), lookups),
        ));
        out.push(metric(
            format!("core.{m}.register_us"),
            "us",
            ratio(k("register_ns"), k("register_calls") * 1e3),
        ));
        out.push(metric(
            format!("core.{m}.unregister_us"),
            "us",
            ratio(k("unregister_ns"), k("unregister_calls") * 1e3),
        ));
        out.push(metric(
            format!("core.{m}.refusals"),
            "count",
            ratio(k("refusals"), l("churn.passes")),
        ));
    }
    out.push(metric(
        "des.over_serial",
        "count",
        ratio(l("sweep.des_ns"), l("sweep.twin_ns")),
    ));
    out.push(metric(
        "cluster.over_serial",
        "count",
        ratio(l("sweep.cluster_ns"), l("sweep.twin_ns")),
    ));
    out.push(metric(
        "frontend.self_ns_per_request",
        "ns",
        ratio(wall_ns - l("serve.engine_ns"), l("serve.served")),
    ));
    out.push(metric(
        "frontend.busy_frac",
        "count",
        ratio(l("serve.busy"), l("serve.offered")),
    ));
    out.push(metric(
        "frontend.stall_frac",
        "count",
        ratio(l("serve.stalled"), l("serve.admitted")),
    ));
    out.push(metric(
        "frontend.self_s",
        "s",
        ratio(
            wall_ns - l("churn.registration_ns"),
            l("churn.passes") * 1e9,
        ),
    ));
    out.push(metric(
        "frontend.redirect_hops_per_conn",
        "count",
        ratio(l("churn.redirects"), traced.connections as f64),
    ));
    out.push(metric(
        "frontend.connections_per_s",
        "1/s",
        ratio(untraced.connections as f64, untraced.timed_ns as f64 / 1e9),
    ));
    let worker_ns = l("sweep.worker_ns");
    out.push(metric(
        "sweep.idle_frac",
        "count",
        if worker_ns > 0.0 {
            1.0 - l("sweep.cells_ns") / worker_ns
        } else {
            0.0
        },
    ));
    out.push(metric(
        "sweep.journal_resume_ms",
        "ms",
        ratio(l("sweep.resume_ns"), l("sweep.grids") * 1e6),
    ));
    out.push(metric(
        "trace_overhead_frac",
        "count",
        ratio(wall_ns, untraced.wall_ns as f64) - 1.0,
    ));
    let attempted = (traced.attempted + untraced.attempted) as f64;
    out.push(metric(
        "failed_frac",
        "count",
        ratio((traced.failed + untraced.failed) as f64, attempted),
    ));
    out
}

/// The process' peak resident set (`VmHWM`) in MB, or zero where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
