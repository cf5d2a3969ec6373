//! The clustered request plane: live connections homed, served, and
//! re-homed across N boards.
//!
//! `Run::frontend(cfg).cluster(topology).execute(Live)` drives the
//! board-agnostic connection reactor with the driver below supplying the
//! board side. The driver runs over a slice of board kernels; the plain
//! `Run::frontend(cfg)` is the same driver over one board with no
//! stations. On a cluster:
//!
//! * **Homing** — a new connection's [`Frame::Hello`] is routed to a home
//!   board by the topology's [`HomingPolicy`]: `hash-by-client` hashes the
//!   client index onto the ring, `least-loaded` picks the board with the
//!   fewest open connections.
//! * **Redirect re-homing** — when the home board's registration SRAM is
//!   exhausted (the §3.1 per-process engine's static tables, the §3.3
//!   hierarchical engine's 64-process directory — both lifetime bump
//!   allocations), the board answers with [`Frame::Redirect`] naming the
//!   next candidate, and the handshake re-runs there. A full ring of
//!   refusals is the only way a connection dies, so the per-board
//!   registration cliffs become cluster-wide capacity gradients.
//! * **Shared-station pricing** — every board owns its engine, firmware
//!   station, and DMA engine, but handshake pin work, demand pins,
//!   interrupts, and translation-entry DMA cross the *shared* host-memory
//!   / I/O-bus / interrupt-service stations
//!   (`SharedStations`), so cross-board contention is
//!   real and tail latency reflects it.
//!
//! **Determinism contract.** The reactor admits events in
//! `(timestamp, pid)` order; shared stations admit work in exactly that
//! order; nothing reads wall-clock time. A 1-board cluster under
//! [`DesConfig::zero_contention`] prices every station grant at its
//! cursor, so its [`single_board_image`](ClusterFrontendResult::single_board_image)
//! is byte-identical to [`Run::frontend`](crate::Run::frontend) on the
//! same inputs — pinned by `tests/cluster_frontend.rs` and CI.

use super::reactor::{run_reactor, through_wire, BoardDriver, Conn, ReqGen};
use super::{FrontendConfig, FrontendResult};
use crate::board::BoardSim;
use crate::cluster::{ClusterConfig, HomingPolicy};
use crate::des_runner::DesConfig;
use crate::stations::SharedStations;
use crate::{Mechanism, RunError, SimConfig};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use utlb_core::obs::{Event, Histogram, Metrics};
use utlb_core::{CacheStats, LookupBatch, OutcomeBuf, TranslationMechanism, TranslationStats};
use utlb_des::{AdmissionStats, CreditWindow, ResourceReport};
use utlb_mem::{Host, ProcessId, VirtAddr, PAGE_SIZE};
use utlb_msg::{Frame, FRAME_BYTES};
use utlb_nic::Nanos;

/// Multiplier of the Fibonacci-hash home-board assignment
/// (`hash-by-client`): `home = (index * PHI64 >> 32) % nodes`. The
/// migration proptest's reference residency model replays this exact
/// function.
pub(crate) const HOME_HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The home board `hash-by-client` assigns to connection `index` on an
/// `nodes`-board cluster.
pub(crate) fn hash_home(index: u64, nodes: usize) -> usize {
    ((index.wrapping_mul(HOME_HASH_MULT) >> 32) as usize) % nodes
}

/// One board's front-end tally: what its result cell reports beyond the
/// kernel's own state.
#[derive(Debug, Default)]
struct Tally {
    open_conns: usize,
    accepted: u64,
    redirected_in: u64,
    refusals: u64,
    served: u64,
    /// Counters of every connection closed here (snapshotted at close).
    stats_acc: TranslationStats,
}

/// The board side of the reactor, over any number of boards. See the
/// [module docs](self).
struct LiveDriver<'d, 'e, M: ?Sized> {
    fcfg: &'d FrontendConfig,
    policy: HomingPolicy,
    host: Host,
    boards: &'d mut [BoardSim<'e, M>],
    tally: Vec<Tally>,
    out: OutcomeBuf,
    /// Reused candidate-order scratch (O(nodes), no per-open allocation).
    order: Vec<usize>,
    spawned: u32,
    accepted: u64,
    refused: u64,
    /// Connections accepted on a board other than their first choice.
    redirected: u64,
    /// Total [`Frame::Redirect`] hops, over accepted and refused alike.
    redirects: u64,
}

impl<M: TranslationMechanism + ?Sized> LiveDriver<'_, '_, M> {
    /// Fills `self.order` with the candidate boards for connection
    /// `index`, first choice first.
    fn candidate_order(&mut self, index: u64) {
        let nodes = self.boards.len();
        self.order.clear();
        match self.policy {
            HomingPolicy::HashByClient => {
                let home = hash_home(index, nodes);
                self.order.extend((0..nodes).map(|k| (home + k) % nodes));
            }
            HomingPolicy::LeastLoaded => {
                self.order.extend(0..nodes);
                let tally = &self.tally;
                self.order.sort_by_key(|&i| (tally[i].open_conns, i));
            }
        }
    }
}

impl<M: TranslationMechanism + ?Sized> BoardDriver for LiveDriver<'_, '_, M> {
    fn open(&mut self, index: u64, open_ns: u64, wire: &mut [u8; FRAME_BYTES]) -> Option<Conn> {
        let hello = through_wire(
            Frame::Hello {
                client: index,
                buffer_bytes: self.fcfg.buffer_pages * PAGE_SIZE,
            },
            wire,
        );
        debug_assert!(hello.is_request());
        let pid = self.host.spawn_process();
        self.spawned = self.spawned.max(pid.raw());
        self.candidate_order(index);
        let order = std::mem::take(&mut self.order);
        let mut opened = None;
        for (attempt, &ix) in order.iter().enumerate() {
            let b = &mut self.boards[ix];
            if b.connect(&mut self.host, pid).is_ok() {
                let welcome = through_wire(
                    Frame::Welcome {
                        conn: pid.raw(),
                        credits: self.fcfg.credit_window as u32,
                    },
                    wire,
                );
                debug_assert!(!welcome.is_request());
                b.emit(pid, Event::Connect);
                self.accepted += 1;
                let t = &mut self.tally[ix];
                t.accepted += 1;
                t.open_conns += 1;
                if attempt > 0 {
                    self.redirected += 1;
                    t.redirected_in += 1;
                }
                let mut gen = ReqGen::new(self.fcfg, index, open_ns);
                let pending = gen.next(self.fcfg);
                opened = Some(Conn {
                    pid,
                    board: ix,
                    gen,
                    window: CreditWindow::new(self.fcfg.credit_window, self.fcfg.queue_depth),
                    pending,
                    last_done_ns: open_ns,
                    seq: 0,
                });
                break;
            }
            // Registration SRAM exhausted here: redirect the client to the
            // next candidate (if any) and re-run the Hello there.
            self.tally[ix].refusals += 1;
            if let Some(&next) = order.get(attempt + 1) {
                let redirect = through_wire(
                    Frame::Redirect {
                        client: index,
                        board: next as u32,
                    },
                    wire,
                );
                debug_assert!(!redirect.is_request());
                self.redirects += 1;
                through_wire(
                    Frame::Hello {
                        client: index,
                        buffer_bytes: self.fcfg.buffer_pages * PAGE_SIZE,
                    },
                    wire,
                );
            }
        }
        self.order = order;
        if opened.is_none() {
            // Every candidate refused: the connection dies for real.
            self.host
                .kill_process(pid)
                .expect("freshly spawned process");
            self.refused += 1;
        }
        opened
    }

    fn initial_wave_done(&mut self) {
        for b in self.boards.iter_mut() {
            b.start();
        }
    }

    fn serve(&mut self, conn: &Conn, va: VirtAddr, nbytes: u64, at: Nanos) -> Nanos {
        self.tally[conn.board].served += 1;
        let batch = LookupBatch::for_buffer(conn.pid, va, nbytes);
        self.boards[conn.board].serve(&mut self.host, batch, at, &mut self.out)
    }

    fn record_latency(&mut self, conn: &Conn, lat_ns: u64) {
        self.boards[conn.board].record_latency(lat_ns);
    }

    fn emit(&mut self, conn: &Conn, event: Event) {
        self.boards[conn.board].emit(conn.pid, event);
    }

    fn close(&mut self, conn: &Conn, _close_ns: u64) {
        let b = &mut self.boards[conn.board];
        let t = &mut self.tally[conn.board];
        t.stats_acc += b.disconnect(&mut self.host, conn.pid);
        t.open_conns -= 1;
        self.host
            .kill_process(conn.pid)
            .expect("connection process is live");
        b.emit(conn.pid, Event::Close);
    }
}

/// One board's share of a clustered front-end run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendBoardCell {
    /// Board index.
    pub board: usize,
    /// Connections this board accepted (first-choice and redirected).
    pub accepted: u64,
    /// Accepted connections that arrived here via [`Frame::Redirect`].
    pub redirected_in: u64,
    /// Handshake attempts this board refused (SRAM exhausted).
    pub refusals: u64,
    /// Requests this board served.
    pub served: u64,
    /// Translation counters of every connection homed here (snapshotted
    /// at each close).
    pub stats: TranslationStats,
    /// This board's NIC translation-cache counters at end of run.
    pub cache: CacheStats,
    /// Serial board time from the end of the initial handshake wave to
    /// this board's last translation, ns.
    pub sim_time_ns: u64,
    /// When this board's last work left the stations, same origin, ns.
    pub des_time_ns: u64,
    /// Queueing behind this board's firmware processor, ns.
    pub fw_wait_ns: u64,
    /// Queueing behind this board's DMA engine, ns.
    pub dma_wait_ns: u64,
    /// This board's share of queueing behind the shared I/O bus, ns.
    pub bus_wait_ns: u64,
    /// This board's share of queueing behind shared interrupt service, ns.
    pub intr_wait_ns: u64,
    /// This board's share of queueing behind shared host memory, ns.
    pub host_mem_wait_ns: u64,
    /// End-to-end latency of requests served by this board.
    pub latency_ns: Histogram,
    /// Per-board observability: event counts and histograms from this
    /// board's collector.
    pub metrics: Metrics,
    /// Whether `metrics` reconciled exactly with this board's stats.
    pub reconciled: bool,
    /// This board's private stations (firmware, DMA engine).
    pub resources: Vec<ResourceReport>,
}

/// Outcome of a clustered front-end run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterFrontendResult {
    /// Workload label (`"cluster_frontend"`).
    pub workload: String,
    /// Number of boards.
    pub nodes: usize,
    /// The homing policy connections were placed by.
    pub homing: HomingPolicy,
    /// Connections the run attempted.
    pub connections: u64,
    /// Connections some board accepted.
    pub accepted: u64,
    /// Connections every candidate board refused.
    pub refused: u64,
    /// Accepted connections that landed off their first-choice board.
    pub redirected: u64,
    /// Total [`Frame::Redirect`] hops (accepted and refused attempts).
    pub redirects: u64,
    /// Requests offered by accepted connections.
    pub offered: u64,
    /// Requests admitted and translated.
    pub served: u64,
    /// Page-granular lookups those requests cost, cluster-wide.
    pub served_lookups: u64,
    /// Flow-control counters summed over all connections.
    pub admission: AdmissionStats,
    /// Translation counters summed over every board.
    pub stats: TranslationStats,
    /// Translation-cache counters summed over every board.
    pub cache: CacheStats,
    /// Slowest board's serial span (handshake-wave end to last
    /// translation), ns.
    pub sim_time_ns: u64,
    /// Cluster completion on the stations: max over boards, ns.
    pub des_time_ns: u64,
    /// End-to-end request latency, all boards merged (arrival to credit
    /// return, queueing included).
    pub latency_ns: Histogram,
    /// Per-board results, board 0 first.
    pub boards: Vec<FrontendBoardCell>,
    /// The shared stations (host memory, I/O bus, interrupt service), in
    /// that order.
    pub shared: Vec<ResourceReport>,
    /// Total queueing behind the shared host memory station, ns.
    pub host_mem_wait_ns: u64,
    /// Total queueing behind the shared I/O bus, ns.
    pub bus_wait_ns: u64,
    /// Total queueing behind shared interrupt service, ns.
    pub intr_wait_ns: u64,
    /// Pages still pinned anywhere when the run ended. Every connection
    /// closes and unregisters, so this must be zero — the migration
    /// proptest pins it.
    pub pinned_pages_end: u64,
}

impl ClusterFrontendResult {
    /// Served requests per second of simulated time.
    pub fn throughput_rps(&self) -> f64 {
        if self.sim_time_ns == 0 {
            return 0.0;
        }
        self.served as f64 * 1e9 / self.sim_time_ns as f64
    }

    /// Request-latency quantile in µs (`q` in (0, 1]).
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.latency_ns.quantile_ns(q) as f64 / 1000.0
    }

    /// Median request latency in µs.
    pub fn p50_us(&self) -> f64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile request latency in µs.
    pub fn p99_us(&self) -> f64 {
        self.latency_quantile_us(0.99)
    }

    /// 99.9th-percentile request latency in µs.
    pub fn p999_us(&self) -> f64 {
        self.latency_quantile_us(0.999)
    }

    /// Service imbalance: the busiest board's served-request count over
    /// the per-board mean. 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.boards.iter().map(|b| b.served).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.boards.len() as f64;
        self.boards.iter().map(|b| b.served).max().unwrap_or(0) as f64 / mean
    }

    /// Projects a 1-board run onto the single-board [`FrontendResult`]
    /// shape — the byte-identity gate compares this against
    /// [`Run::frontend`](crate::Run::frontend) output.
    ///
    /// # Panics
    ///
    /// Panics if the run used more than one board: the projection is only
    /// meaningful (and only byte-exact) for `nodes == 1`.
    pub fn single_board_image(&self) -> FrontendResult {
        assert_eq!(
            self.nodes, 1,
            "single_board_image is the 1-board determinism gate"
        );
        FrontendResult {
            workload: "frontend".to_string(),
            connections: self.connections,
            accepted: self.accepted,
            refused: self.refused,
            offered: self.offered,
            served: self.served,
            served_lookups: self.served_lookups,
            admission: self.admission,
            stats: self.stats,
            cache: self.cache,
            sim_time_ns: self.boards[0].sim_time_ns,
            latency_ns: self.latency_ns.clone(),
        }
    }
}

/// The clustered front end: the live driver over `cluster.nodes` boards,
/// each with its own collector and private stations over one set of
/// cluster stations. See the [module docs](self); the public entry point
/// is `Run::frontend(cfg).cluster(topology).execute(Live)`.
///
/// # Errors
///
/// Returns [`RunError::Topology`] on a zero-board topology.
pub(crate) fn replay_cluster_frontend(
    mech: Mechanism,
    cfg: &SimConfig,
    fcfg: &FrontendConfig,
    des: &DesConfig,
    cluster: &ClusterConfig,
) -> Result<ClusterFrontendResult, RunError> {
    cluster.check_nodes()?;
    let shared = Rc::new(RefCell::new(SharedStations::cluster(des)));
    let mut engines: Vec<_> = (0..cluster.nodes).map(|_| mech.engine(cfg)).collect();
    let mut boards: Vec<_> = engines
        .iter_mut()
        .map(|engine| BoardSim::clustered(&mut **engine, None, des, &shared))
        .collect();
    let mut result = serve_live(&mut boards, cfg, fcfg, cluster.homing);
    result.shared = shared.borrow().reports();
    Ok(result)
}

/// Runs the reactor over `boards`, homing connections by `policy`, and
/// reads the run out as a clustered result, shared-station reports left
/// to the caller (the plain front end has none and takes its
/// [single-board image](ClusterFrontendResult::single_board_image)).
pub(crate) fn serve_live<M>(
    boards: &mut [BoardSim<'_, M>],
    cfg: &SimConfig,
    fcfg: &FrontendConfig,
    policy: HomingPolicy,
) -> ClusterFrontendResult
where
    M: TranslationMechanism + ?Sized,
{
    for b in boards.iter_mut() {
        b.attach();
    }
    let nodes = boards.len();
    let mut drv = LiveDriver {
        fcfg,
        policy,
        host: Host::new(cfg.host_frames),
        boards,
        tally: (0..nodes).map(|_| Tally::default()).collect(),
        out: OutcomeBuf::new(),
        order: Vec::with_capacity(nodes),
        spawned: 0,
        accepted: 0,
        refused: 0,
        redirected: 0,
        redirects: 0,
    };
    let counts = run_reactor(&mut drv, fcfg);

    // Nothing may stay pinned: every connection closed and unregistered.
    let pinned_pages_end: u64 = (1..=drv.spawned)
        .map(|raw| drv.host.driver().pins().pinned_pages(ProcessId::new(raw)))
        .sum();

    let mut cells: Vec<FrontendBoardCell> = Vec::with_capacity(nodes);
    let mut stats = TranslationStats::default();
    let mut cache = CacheStats::default();
    let (mut host_mem_wait, mut bus_wait, mut intr_wait) = (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
    for (ix, (b, t)) in drv.boards.iter_mut().zip(&drv.tally).enumerate() {
        b.detach();
        let board_cache = b.engine.cache_stats();
        let metrics = b
            .collector
            .as_ref()
            .map(|c| c.snapshot().metrics)
            .unwrap_or_default();
        let st = b.stations.as_ref();
        let waits = st.map(|s| s.waits).unwrap_or_default();
        stats += t.stats_acc;
        cache.hits += board_cache.hits;
        cache.misses += board_cache.misses;
        cache.probes += board_cache.probes;
        cache.evictions += board_cache.evictions;
        host_mem_wait += waits.host_mem;
        bus_wait += waits.bus;
        intr_wait += waits.intr;
        cells.push(FrontendBoardCell {
            board: ix,
            accepted: t.accepted,
            redirected_in: t.redirected_in,
            refusals: t.refusals,
            served: t.served,
            stats: t.stats_acc,
            cache: board_cache,
            sim_time_ns: (b.last_service - b.t0).as_nanos(),
            des_time_ns: st.map_or(0, |s| (s.des_end - b.t0).as_nanos()),
            fw_wait_ns: waits.fw.as_nanos(),
            dma_wait_ns: waits.dma.as_nanos(),
            bus_wait_ns: waits.bus.as_nanos(),
            intr_wait_ns: waits.intr.as_nanos(),
            host_mem_wait_ns: waits.host_mem.as_nanos(),
            latency_ns: st.map(|s| s.latency.clone()).unwrap_or_default(),
            reconciled: metrics.reconcile(&t.stats_acc).is_empty(),
            metrics,
            resources: st.map(|s| s.reports().to_vec()).unwrap_or_default(),
        });
    }

    ClusterFrontendResult {
        workload: "cluster_frontend".to_string(),
        nodes,
        homing: policy,
        connections: fcfg.connections as u64,
        accepted: drv.accepted,
        refused: drv.refused,
        redirected: drv.redirected,
        redirects: drv.redirects,
        offered: counts.offered,
        served: counts.served,
        served_lookups: stats.lookups,
        admission: counts.admission,
        stats,
        cache,
        sim_time_ns: cells.iter().map(|c| c.sim_time_ns).max().unwrap_or(0),
        des_time_ns: cells.iter().map(|c| c.des_time_ns).max().unwrap_or(0),
        // Every served request is recorded on exactly one board as well,
        // and log-bucket histograms merge exactly, so the reactor's
        // run-wide histogram is the merge of the board cells'.
        latency_ns: counts.latency_ns,
        boards: cells,
        shared: Vec::new(),
        host_mem_wait_ns: host_mem_wait.as_nanos(),
        bus_wait_ns: bus_wait.as_nanos(),
        intr_wait_ns: intr_wait.as_nanos(),
        pinned_pages_end,
    }
}
