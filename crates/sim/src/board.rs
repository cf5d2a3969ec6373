//! The board kernel: one simulated NIC board, and the one trace-replay
//! loop every replay mode runs on.
//!
//! The paper's evaluation is one trace-driven loop: translate each record
//! on the NIC, count misses, price them with the §6.2 cost model. Every
//! replay mode here is that loop over [`BoardSim`]s, configured
//! differently:
//!
//! | Mode | Boards | Private stations | Shared stations | Collector |
//! |---|---|---|---|---|
//! | serial `Run::execute` | 1 | — | — | if `.observed()` |
//! | `.des(cfg)` | 1 | firmware, DMA engine | bus, interrupt service | if `.observed()` |
//! | `.cluster(cfg)` | N | firmware, DMA engine | host memory, bus, interrupt service | per board |
//! | `.frontend(cfg)` | 1 | — | — | if `.observed()` |
//! | `.frontend(cfg).cluster(cfg)` | N | firmware, DMA engine | host memory, bus, interrupt service | per board |
//!
//! A board's **step** is the serial half of a request: advance the board
//! clock to the arrival, translate the buffer through one batched
//! `lookup_run_into`, and classify the page outcomes (trace runs only).
//! A board with **stations** then prices the step: it drains the
//! [`DemandTap`] it attached to its engine, decomposes the events into
//! per-page demands, and walks them across its firmware and DMA engine and
//! the [`SharedStations`] with [`station_walk`], holding its firmware for
//! the whole request. The front end drives the same step through
//! [`BoardSim::serve`], and prices registration and teardown with
//! [`BoardSim::connect`]/[`BoardSim::disconnect`].
//!
//! Every optional piece costs host time when attached — a tap, a
//! collector, a classifier, a station walk — so a board carries only what
//! its mode reports. DESIGN.md ("One board kernel") has the measured costs.
//!
//! **Draw-order contract.** [`replay_trace`] consumes records in stream
//! order (non-decreasing timestamps), and the stations admit work in
//! exactly that order, so every result is a pure function of the input
//! stream. A 1-board cluster therefore reproduces the serial `.des()` run
//! bit-for-bit, and a zero-contention `.des()` run the serial clock.

use crate::cluster::{Migration, MigrationReport};
use crate::des_runner::DesConfig;
use crate::runner::{SweepScratch, STREAM_CHUNK};
use crate::stations::{emit, emit_wait, station_walk, SharedStations, StationWaits};
use crate::{MissClassifier, SimResult};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use utlb_core::obs::{Event, Histogram, Probe, SharedCollector, WaitResource};
use utlb_core::{
    page_demands_into, LookupBatch, OutcomeBuf, PageDemand, TranslationMechanism, TranslationStats,
};
use utlb_des::{DmaEngineModel, Grant, Resource, ResourceReport};
use utlb_mem::{Host, ProcessId};
use utlb_nic::{Board, Nanos};
use utlb_trace::{fill_chunk, TraceStream};

/// Per-process event-ring capacity of a cluster board's own collector.
pub(crate) const BOARD_OBS_RING: usize = 32;

/// Captures the engine's events for demand decomposition, forwarding each
/// one to the board's collector when it has one.
#[derive(Debug)]
struct DemandTap {
    buf: Rc<RefCell<Vec<Event>>>,
    inner: Option<SharedCollector>,
}

impl Probe for DemandTap {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.buf.borrow_mut().push(event);
        emit(&mut self.inner, pid, event);
    }
}

/// A board's private discrete-event stations and their accounting.
pub(crate) struct BoardStations {
    /// The NIC firmware processor: a request holds it for its full walk
    /// (the LANai processor walks pages serially), queueing at the nested
    /// stations while it does.
    firmware: Resource,
    dma: DmaEngineModel,
    shared: Rc<RefCell<SharedStations>>,
    des: DesConfig,
    kernel_pins: bool,
    tap: Rc<RefCell<Vec<Event>>>,
    demands: Vec<PageDemand>,
    pub(crate) waits: StationWaits,
    /// Per-request latency of the requests this board priced (the front
    /// end records its own end-to-end latency here instead).
    pub(crate) latency: Histogram,
    /// When this board's last work left the stations.
    pub(crate) des_end: Nanos,
    /// Background payload transfers injected.
    pub(crate) payload_transfers: u64,
    /// Background payload words moved across the bus.
    pub(crate) payload_words: u64,
}

impl BoardStations {
    /// The private station reports: firmware, then DMA engine.
    pub(crate) fn reports(&self) -> [ResourceReport; 2] {
        [self.firmware.report(), self.dma.report()]
    }

    /// Decomposes the events the tap captured since the last drain into
    /// per-page demands.
    fn drain(&mut self) {
        let mut tap = self.tap.borrow_mut();
        page_demands_into(&tap, &mut self.demands);
        tap.clear();
    }

    /// Walks `self.demands` over the stations, holding the firmware from
    /// the first instant it is free at or after `at`.
    fn walk(&mut self, at: Nanos, pid: ProcessId, probe: &mut Option<SharedCollector>) -> Grant {
        let BoardStations {
            firmware,
            dma,
            shared,
            kernel_pins,
            demands,
            waits,
            des_end,
            ..
        } = self;
        let shared = &mut *shared.borrow_mut();
        let grant = firmware.acquire_with(at, |start| {
            station_walk(start, demands, *kernel_pins, pid, dma, shared, waits, probe)
        });
        waits.fw += grant.wait;
        *des_end = (*des_end).max(grant.end);
        grant
    }

    /// Prices the request that just ran: its demands walk the stations
    /// with the firmware held from `arrival`. Returns the grant's end.
    fn price_request(
        &mut self,
        pid: ProcessId,
        arrival: Nanos,
        probe: &mut Option<SharedCollector>,
    ) -> Nanos {
        self.drain();
        let grant = self.walk(arrival, pid, probe);
        emit_wait(probe, pid, WaitResource::Firmware, grant.wait);
        grant.end
    }

    /// Background payload traffic: the record's own transfer bytes (scaled
    /// by the offered load) cross the bus after translation, optionally
    /// raising a completion interrupt. Fire-and-forget: it loads the
    /// stations but the sender does not block on it. The notification is
    /// admitted to interrupt service at its already-known completion time,
    /// so admission order follows trace order regardless of load — which
    /// keeps results reproducible and latency monotone in offered load.
    fn payload(
        &mut self,
        pid: ProcessId,
        nbytes: u64,
        after: Nanos,
        probe: &mut Option<SharedCollector>,
    ) {
        if self.des.payload_load > 0.0 {
            let words = self.des.payload_words(nbytes);
            if words > 0 {
                self.payload_transfers += 1;
                self.payload_words += words;
                let shared = &mut *self.shared.borrow_mut();
                let g1 = self.dma.program(after);
                let service = shared.io_bus.data_service(words);
                let g2 = shared.io_bus.transfer(g1.end, service);
                if self.des.notify_interrupts {
                    let g = shared.intr_svc.handle(g2.end, Nanos::ZERO);
                    self.waits.intr += g.wait;
                    emit_wait(probe, pid, WaitResource::IntrService, g.wait);
                }
            }
        }
    }
}

/// One simulated board: an engine (borrowed from the caller, or from a
/// cluster's engine list), the NIC it runs on, and the optional pieces its
/// mode needs — a miss classifier, a collector, private stations. See the
/// [module docs](self).
pub(crate) struct BoardSim<'e, M: ?Sized> {
    pub(crate) engine: &'e mut M,
    pub(crate) board: Board,
    classifier: Option<MissClassifier>,
    /// Receives the engine's events, and the board's wait and lifecycle
    /// events.
    pub(crate) collector: Option<SharedCollector>,
    pub(crate) stations: Option<BoardStations>,
    /// Origin of the measured span: the end of registration.
    pub(crate) t0: Nanos,
    /// Latest serial translation completion.
    pub(crate) last_service: Nanos,
    /// Trace runs: counters of completed residencies, keyed by raw pid.
    /// The engine drops a process's counters when it unregisters, so a
    /// migration snapshots them here first.
    carried: BTreeMap<u32, TranslationStats>,
    /// Trace runs: every pid that was ever homed here.
    ever_resident: BTreeSet<u32>,
}

impl<'e, M: TranslationMechanism + ?Sized> BoardSim<'e, M> {
    /// A board with no stations: serial timing on the board clock alone.
    pub(crate) fn new(
        engine: &'e mut M,
        classifier: Option<MissClassifier>,
        collector: Option<SharedCollector>,
    ) -> Self {
        BoardSim {
            engine,
            board: Board::new(),
            classifier,
            collector,
            stations: None,
            t0: Nanos::ZERO,
            last_service: Nanos::ZERO,
            carried: BTreeMap::new(),
            ever_resident: BTreeSet::new(),
        }
    }

    /// A cluster board: its own collector (the per-board result cells
    /// report its metrics) and private stations over `shared`.
    pub(crate) fn clustered(
        engine: &'e mut M,
        classifier: Option<MissClassifier>,
        des: &DesConfig,
        shared: &Rc<RefCell<SharedStations>>,
    ) -> Self {
        let collector = SharedCollector::new(BOARD_OBS_RING);
        BoardSim::new(engine, classifier, Some(collector)).with_stations(des, shared)
    }

    /// Adds private firmware and DMA stations walking over `shared`.
    pub(crate) fn with_stations(
        mut self,
        des: &DesConfig,
        shared: &Rc<RefCell<SharedStations>>,
    ) -> Self {
        self.stations = Some(BoardStations {
            firmware: Resource::fifo("nic_firmware", 1),
            dma: DmaEngineModel::new(&des.bus),
            shared: Rc::clone(shared),
            des: *des,
            kernel_pins: self.engine.kernel_pins(),
            tap: Rc::default(),
            demands: Vec::new(),
            waits: StationWaits::default(),
            latency: Histogram::new(),
            des_end: Nanos::ZERO,
            payload_transfers: 0,
            payload_words: 0,
        });
        self
    }

    /// Attaches the board's probe to the engine: the demand tap (which
    /// forwards to the collector) on a board with stations, else the
    /// collector. A board with neither leaves the engine's probe slot as
    /// the caller set it.
    pub(crate) fn attach(&mut self) {
        if let Some(st) = &self.stations {
            self.engine.set_probe(Box::new(DemandTap {
                buf: Rc::clone(&st.tap),
                inner: self.collector.clone(),
            }));
        } else if let Some(c) = &self.collector {
            self.engine.set_probe(c.boxed());
        }
    }

    /// Detaches what [`attach`](BoardSim::attach) attached.
    pub(crate) fn detach(&mut self) {
        if self.stations.is_some() || self.collector.is_some() {
            self.engine.take_probe();
        }
    }

    /// Fixes the origin of the measured span at the board's current time.
    pub(crate) fn start(&mut self) {
        self.t0 = self.board.clock.now();
        self.last_service = self.t0;
        if let Some(st) = &mut self.stations {
            st.des_end = st.des_end.max(self.t0);
        }
    }

    /// Serves one request arriving at `at`: the serial step, then, on a
    /// board with stations, its pricing. Returns when the translation
    /// completed: the board clock on a plain board, the end of the
    /// firmware grant on a priced one.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        host: &mut Host,
        batch: LookupBatch,
        at: Nanos,
        out: &mut OutcomeBuf,
    ) -> Nanos {
        self.board.clock.advance_to(at);
        out.clear();
        self.engine
            .lookup_run_into(host, &mut self.board, batch, out)
            .expect("lookups of a registered process succeed");
        if let Some(c) = &mut self.classifier {
            c.access_batch(batch.pid, out.as_slice());
        }
        let translated = self.board.clock.now();
        self.last_service = self.last_service.max(translated);
        match &mut self.stations {
            None => translated,
            Some(st) => st.price_request(batch.pid, at, &mut self.collector),
        }
    }

    /// Records a served request's end-to-end latency against this board
    /// (a priced board only: a plain front end's run-wide histogram is the
    /// whole story).
    pub(crate) fn record_latency(&mut self, lat_ns: u64) {
        if let Some(st) = &mut self.stations {
            st.latency.record(lat_ns);
        }
    }

    /// Sends a lifecycle event to the board's collector.
    pub(crate) fn emit(&mut self, pid: ProcessId, event: Event) {
        emit(&mut self.collector, pid, event);
    }

    /// Registers a connection's process, pricing the registration work
    /// whether or not it succeeded.
    ///
    /// # Errors
    ///
    /// Propagates the engine's refusal (e.g. exhausted board SRAM).
    pub(crate) fn connect(&mut self, host: &mut Host, pid: ProcessId) -> utlb_core::Result<()> {
        let pre = self.board.clock.now();
        let registered = self.engine.register_process(host, &mut self.board, pid);
        self.price_admin(pid, pre);
        registered
    }

    /// Unregisters a closing connection's process, pricing the teardown.
    /// Returns the process's counters, snapshotted before the engine
    /// drops them.
    pub(crate) fn disconnect(&mut self, host: &mut Host, pid: ProcessId) -> TranslationStats {
        let stats = self
            .engine
            .stats(pid)
            .expect("open connection is registered");
        let pre = self.board.clock.now();
        self.engine
            .unregister_process(host, &mut self.board, pid)
            .expect("open connection is registered");
        self.price_admin(pid, pre);
        stats
    }

    /// Prices board work that ran on the serial clock between `pre` and
    /// now onto the stations, keeping the station timeline in lock-step
    /// with the serial clock. The tap's events supply the pin, interrupt
    /// and DMA components; the serial delta is the total, so pure-firmware
    /// work is charged too. Under zero contention the grant ends exactly
    /// at the serial clock. A board without stations prices nothing.
    fn price_admin(&mut self, pid: ProcessId, pre: Nanos) {
        let now = self.board.clock.now();
        let Some(st) = &mut self.stations else {
            return;
        };
        st.drain();
        let mut d = PageDemand::default();
        for p in &st.demands {
            d.pin_ns += p.pin_ns;
            d.intr_ns += p.intr_ns;
            d.dma_ns += p.dma_ns;
            d.dma_entries += p.dma_entries;
        }
        d.total_ns = (now - pre).as_nanos();
        if d.total_ns == 0 && d.is_fast_path() {
            return; // No work: don't pollute station job counts.
        }
        st.demands.clear();
        st.demands.push(d);
        st.walk(pre, pid, &mut self.collector);
    }

    /// Homes trace process `pid` here, registering it with the engine.
    fn admit(&mut self, host: &mut Host, pid: ProcessId) {
        self.engine
            .register_process(host, &mut self.board, pid)
            .expect("registration succeeds on a fresh host");
        self.ever_resident.insert(pid.raw());
    }

    /// Runs `f` on the engine with its probe parked, so a migration's
    /// bookkeeping never reaches the demand tap or the collector.
    fn parked<R>(&mut self, f: impl FnOnce(&mut M, &mut Board) -> R) -> R {
        let probe = self.engine.take_probe();
        let r = f(self.engine, &mut self.board);
        if let Some(p) = probe {
            self.engine.set_probe(p);
        }
        r
    }

    /// The board's serial result over every residency; `resident` lists
    /// the pids homed here at the end of the run.
    pub(crate) fn sim_result(&self, workload: &str, resident: &[u32]) -> SimResult {
        let per_process: Vec<(u32, TranslationStats)> = self
            .ever_resident
            .iter()
            .map(|&pid| {
                let mut stats = self.carried.get(&pid).copied().unwrap_or_default();
                if resident.contains(&pid) {
                    stats += self
                        .engine
                        .stats(ProcessId::new(pid))
                        .expect("resident pid is registered");
                }
                (pid, stats)
            })
            .collect();
        SimResult {
            workload: workload.to_string(),
            stats: per_process
                .iter()
                .map(|(_, s)| *s)
                .fold(TranslationStats::default(), |a, b| a + b),
            cache: self.engine.cache_stats(),
            breakdown: self
                .classifier
                .as_ref()
                .map(MissClassifier::breakdown)
                .unwrap_or_default(),
            per_process,
            // From registration end to the last record's completion,
            // including idle gaps between trace timestamps.
            sim_time_ns: (self.board.clock.now() - self.t0).as_nanos(),
        }
    }
}

/// What a trace replay produced besides the boards' own state.
pub(crate) struct TraceRun {
    /// Workload name of the driving stream.
    pub(crate) workload: String,
    /// Each pid's home board at the end of the run, by slot (`pid - 1`).
    route: Vec<usize>,
    /// Per-process request latency by slot (boards with stations only).
    pub(crate) per_process_latency: Vec<Histogram>,
    /// Migrations applied, in application order.
    pub(crate) migrations: Vec<MigrationReport>,
}

impl TraceRun {
    /// Raw pids homed on `board` at the end of the run, ascending.
    pub(crate) fn resident(&self, board: usize) -> Vec<u32> {
        (1..)
            .zip(&self.route)
            .filter(|(_, b)| **b == board)
            .map(|(pid, _)| pid)
            .collect()
    }
}

/// The replay loop. Spawns the stream's processes `pids` on one host
/// (dense from 1, checked by the caller), registering each on
/// `home(pid)`; then consumes the stream in [`STREAM_CHUNK`]-sized
/// refills of the caller's scratch arena, applying each due migration
/// (`migrations` sorted by `at_ns`) before the record it falls due at,
/// and serving every record on its pid's current board. Migrations due
/// past the last record still apply.
///
/// Registration precedes all traffic: each board's span starts at its
/// registration end, and its firmware is busy until then — the serial
/// recurrence `c_i = max(c_{i-1}, ts_i) + cost_i` when nothing competes.
pub(crate) fn replay_trace<M, S>(
    boards: &mut [BoardSim<'_, M>],
    host_frames: u64,
    stream: &mut S,
    pids: &[ProcessId],
    home: impl Fn(ProcessId) -> usize,
    migrations: &[Migration],
    scratch: &mut SweepScratch,
) -> TraceRun
where
    M: TranslationMechanism + ?Sized,
    S: TraceStream + ?Sized,
{
    let mut host = Host::new(host_frames);
    let mut route = Vec::with_capacity(pids.len());
    for expected in pids {
        let pid = host.spawn_process();
        assert_eq!(pid, *expected, "trace pids must be dense from 1");
        let ix = home(pid);
        boards[ix].admit(&mut host, pid);
        route.push(ix);
    }
    for b in boards.iter_mut() {
        b.start();
        if let Some(st) = &mut b.stations {
            if b.t0 > Nanos::ZERO {
                st.firmware.acquire(Nanos::ZERO, b.t0);
            }
        }
        b.attach();
    }
    let workload = stream.workload().to_string();
    let mut per_process_latency = vec![Histogram::new(); pids.len()];
    let mut applied = Vec::new();
    let mut due = migrations.iter().peekable();

    // The chunk and outcome buffers come from the caller's arena and are
    // reused across the stream (and, in a sweep, across every cell the
    // worker runs), so steady state allocates nothing per record.
    let SweepScratch { chunk, out } = scratch;
    while fill_chunk(stream, chunk, STREAM_CHUNK) > 0 {
        for rec in chunk.iter() {
            while let Some(m) = due.next_if(|m| m.at_ns <= rec.ts_ns) {
                applied.extend(migrate(&mut host, boards, &mut route, *m));
            }
            let slot = (rec.pid.raw() - 1) as usize;
            let b = &mut boards[route[slot]];
            let arrival = Nanos::from_nanos(rec.ts_ns);
            let batch = LookupBatch::for_buffer(rec.pid, rec.va, rec.nbytes);
            let done = b.serve(&mut host, batch, arrival, out);
            if let Some(st) = &mut b.stations {
                let lat = (done - arrival).as_nanos();
                st.latency.record(lat);
                per_process_latency[slot].record(lat);
                st.payload(rec.pid, rec.nbytes, done, &mut b.collector);
            }
        }
    }
    for m in due {
        applied.extend(migrate(&mut host, boards, &mut route, *m));
    }
    for b in boards.iter_mut() {
        b.detach();
    }
    TraceRun {
        workload,
        route,
        per_process_latency,
        migrations: applied,
    }
}

/// Rehomes one process: snapshot its counters, invalidate and unpin
/// everything it held on the source board, register it fresh on the
/// destination, probes parked throughout. Returns `None` for a no-op move
/// (already home).
fn migrate<M>(
    host: &mut Host,
    boards: &mut [BoardSim<'_, M>],
    route: &mut [usize],
    m: Migration,
) -> Option<MigrationReport>
where
    M: TranslationMechanism + ?Sized,
{
    let slot = (m.pid - 1) as usize;
    let from = route[slot];
    if from == m.to_board {
        return None;
    }
    let pid = ProcessId::new(m.pid);
    let pages_invalidated = host.driver().pins().pinned_pages(pid);

    let src = &mut boards[from];
    let stats = src.engine.stats(pid).expect("migrating pid is registered");
    *src.carried.entry(m.pid).or_default() += stats;
    src.parked(|engine, board| engine.unregister_process(host, board, pid))
        .expect("unregister succeeds for a registered pid");

    let dst = &mut boards[m.to_board];
    dst.parked(|engine, board| engine.register_process(host, board, pid))
        .expect("re-registration succeeds");
    dst.ever_resident.insert(m.pid);

    route[slot] = m.to_board;
    Some(MigrationReport {
        pid: m.pid,
        at_ns: m.at_ns,
        from,
        to: m.to_board,
        pages_invalidated,
    })
}
