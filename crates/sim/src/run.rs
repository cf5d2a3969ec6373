//! The unified run builder — the one public entry point into every replay
//! mode.
//!
//! The thirteen `run*`/`run_des*` functions that accreted as the simulator
//! grew (serial/streamed × dispatched/engine-supplied × observed/plain ×
//! serial-clock/discrete-event) were all the same replay loop behind
//! different argument lists. [`Run`] replaces them with one builder:
//!
//! ```
//! use utlb_sim::{Mechanism, Run, RunOutputExt, SimConfig};
//! use utlb_trace::{gen, GenConfig, SplashApp};
//!
//! let cfg = GenConfig { seed: 1, scale: 0.03, app_processes: 4 };
//! let trace = gen::generate(SplashApp::Water, &cfg);
//! let sim = SimConfig::study(1024);
//!
//! // Plain serial replay of a materialized trace:
//! let utlb = Run::new(Mechanism::Utlb).config(&sim).execute(&trace).into_sim().unwrap();
//! assert_eq!(utlb.stats.interrupts, 0);
//!
//! // The same run observed, as a fused generate+replay stream:
//! let mut stream = gen::stream(SplashApp::Water, &cfg);
//! let (streamed, obs) = Run::new(Mechanism::Utlb)
//!     .config(&sim)
//!     .observed()
//!     .execute(&mut stream)
//!     .into_observed()
//!     .unwrap();
//! assert_eq!(streamed.stats, utlb.stats);
//! assert!(obs.reconciled);
//! ```
//!
//! `execute` accepts a `&Trace`, a `&mut` any [`TraceStream`], or [`Live`]
//! (the request plane generates its own input). `.des(cfg)` switches the
//! timing model to the discrete-event stations, `.cluster(cfg)` shards the
//! run across simulated boards — composing with `.frontend(cfg)` to serve
//! *live connections* over the cluster — and `.observed()` attaches the
//! metrics/event-ring collector.
//!
//! Misconfiguration is a typed, recoverable [`RunError`] returned from
//! [`Run::execute`], never a panic: an incompatible builder combination,
//! the wrong input shape, or reading an output as a shape the run did not
//! produce all surface as `Err`. [`RunOutputExt`] lets the `Result` chain
//! straight into the accessors (`.execute(&trace).into_sim()?`).

use crate::cluster::{replay_cluster, ClusterConfig, ClusterResult, TopologyError};
use crate::des_runner::{replay_des, DesResult};
use crate::frontend::cluster::{replay_cluster_frontend, ClusterFrontendResult};
use crate::frontend::{replay_frontend, FrontendConfig, FrontendConfigError, FrontendResult};
use crate::observe::{build_report, ObsReport};
use crate::runner::{replay_stream, SimResult, SweepScratch};
use crate::{Mechanism, SimConfig};
use utlb_core::obs::SharedCollector;
use utlb_core::TranslationMechanism;
use utlb_des::DesConfig;
use utlb_mem::ProcessId;
use utlb_trace::{Trace, TraceRecord, TraceStream, TraceView};

/// Per-process event-ring capacity [`Run::observed`] uses.
pub const DEFAULT_OBS_RING: usize = 64;

/// Why a [`Run`] could not execute, or a [`RunOutput`] could not be read
/// as the requested shape. Every variant is a misuse of the builder — the
/// simulation itself is closed-world and still treats internal engine
/// failures as bugs (panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run has no mechanism: use `Run::new(mech)` or
    /// [`Run::execute_with`].
    NoMechanism,
    /// Two builder options cannot compose.
    IncompatibleConfig(ConfigConflict),
    /// The input shape does not fit the configured run.
    IncompatibleInput(InputMismatch),
    /// [`Run::observed_ring`] was given a zero ring capacity.
    EmptyObsRing,
    /// The [`FrontendConfig`] cannot run (see [`FrontendConfig::validate`]).
    Frontend(FrontendConfigError),
    /// The cluster topology does not fit the run: zero boards, a shard
    /// map that disagrees with the board count or misses a pid, or a
    /// migration naming an unknown pid or out-of-range board.
    Topology(TopologyError),
    /// An observed accessor (e.g. `.into_observed()`) on a run built
    /// without [`Run::observed`].
    NotObserved,
    /// The output was read as a shape the run did not produce (e.g.
    /// `.into_sim()` on a cluster run).
    IncompatiblePayload {
        /// The shape the accessor asked for.
        requested: &'static str,
        /// The shape the run actually produced.
        actual: &'static str,
    },
}

/// Builder options that cannot compose, carried by
/// [`RunError::IncompatibleConfig`]. The message says what to drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigConflict {
    /// A single-board frontend with `.des()`.
    FrontendDes,
    /// [`Run::execute_with`] on a cluster run, which builds one engine per
    /// board.
    ClusterEngine,
    /// `.observed()` on a clustered frontend.
    ObservedClusterFrontend,
    /// Scheduled migrations on a clustered frontend.
    FrontendMigrations,
}

impl std::fmt::Display for ConfigConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigConflict::FrontendDes => {
                "a single-board frontend run owns its own clock discipline: \
                 drop .des() or add .cluster(topology)"
            }
            ConfigConflict::ClusterEngine => {
                "cluster runs construct one engine per board: use Run::execute"
            }
            ConfigConflict::ObservedClusterFrontend => {
                "a clustered frontend reports per-board metrics in its result cells: \
                 drop .observed()"
            }
            ConfigConflict::FrontendMigrations => {
                "scheduled migrations replay traces: the frontend re-homes \
                 connections at admission instead"
            }
        })
    }
}

/// Input shapes a configured run cannot consume, carried by
/// [`RunError::IncompatibleInput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMismatch {
    /// A trace or stream fed to a frontend run.
    TraceForFrontend,
    /// [`Live`] fed to a run without `.frontend(cfg)`.
    LiveWithoutFrontend,
    /// A trace whose pids are not 1, 2, …, n: the replay spawns the
    /// trace's processes on one host, which numbers them in that order.
    SparsePids,
}

impl std::fmt::Display for InputMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InputMismatch::TraceForFrontend => {
                "a frontend run generates its own requests: execute(Live), not a trace"
            }
            InputMismatch::LiveWithoutFrontend => {
                "a Live input needs .frontend(cfg): nothing else generates requests"
            }
            InputMismatch::SparsePids => {
                "trace pids must be dense from 1: the replay host numbers processes 1, 2, …, n"
            }
        })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoMechanism => {
                write!(
                    f,
                    "Run has no mechanism: use Run::new(mech) or Run::execute_with"
                )
            }
            RunError::IncompatibleConfig(c) => write!(f, "{c}"),
            RunError::IncompatibleInput(i) => write!(f, "{i}"),
            RunError::EmptyObsRing => f.write_str("observed_ring needs a nonzero ring capacity"),
            RunError::Frontend(e) => write!(f, "invalid frontend config: {e}"),
            RunError::Topology(e) => write!(f, "invalid cluster topology: {e}"),
            RunError::NotObserved => {
                f.write_str("not an observed run: configure with Run::observed")
            }
            RunError::IncompatiblePayload { requested, actual } => write!(
                f,
                "not a {requested} run: the result is in .into_{actual}()"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TopologyError> for RunError {
    fn from(e: TopologyError) -> Self {
        RunError::Topology(e)
    }
}

/// A configured simulation run: mechanism (or caller-supplied engine),
/// simulation parameters, optional observability, optional discrete-event
/// timing, optional cluster topology. See the crate docs for the grammar.
#[derive(Debug, Clone)]
pub struct Run {
    mech: Option<Mechanism>,
    cfg: SimConfig,
    des: Option<DesConfig>,
    obs_ring: Option<usize>,
    cluster: Option<ClusterConfig>,
    frontend: Option<FrontendConfig>,
}

impl Run {
    /// A run of mechanism `mech` under the default [`SimConfig`].
    pub fn new(mech: Mechanism) -> Self {
        Run {
            mech: Some(mech),
            cfg: SimConfig::default(),
            des: None,
            obs_ring: None,
            cluster: None,
            frontend: None,
        }
    }

    /// A run with no mechanism selected, for [`execute_with`] — the caller
    /// brings the engine (to pre-attach a probe, reuse state, or drive a
    /// custom [`TranslationMechanism`] implementation).
    ///
    /// [`execute_with`]: Run::execute_with
    pub fn with_config(cfg: &SimConfig) -> Self {
        Run {
            mech: None,
            cfg: cfg.clone(),
            des: None,
            obs_ring: None,
            cluster: None,
            frontend: None,
        }
    }

    /// Sets the simulation parameters (cloned).
    pub fn config(mut self, cfg: &SimConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Attaches the standard observability collector (metrics + per-process
    /// event rings of [`DEFAULT_OBS_RING`] events) so the output carries an
    /// [`ObsReport`].
    pub fn observed(self) -> Self {
        self.observed_ring(DEFAULT_OBS_RING)
    }

    /// [`observed`](Run::observed) with an explicit per-process ring
    /// capacity. A zero capacity makes [`execute`](Run::execute) return
    /// [`RunError::EmptyObsRing`].
    pub fn observed_ring(mut self, ring_capacity: usize) -> Self {
        self.obs_ring = Some(ring_capacity);
        self
    }

    /// Switches timing to the discrete-event stations of `utlb-des`: the
    /// output becomes a [`DesResult`] whose serial half is byte-identical
    /// to the plain run. On a cluster (trace or frontend) run this sets the
    /// shared-station parameters instead.
    pub fn des(mut self, des: DesConfig) -> Self {
        self.des = Some(des);
        self
    }

    /// Shards the run across the simulated boards of `cluster`; the output
    /// becomes a [`ClusterResult`] — or, combined with
    /// [`frontend`](Run::frontend), a [`ClusterFrontendResult`] serving
    /// live connections homed across the boards. Cluster runs always use
    /// the discrete-event stations — `.des(cfg)` sets their parameters and
    /// defaults to [`DesConfig::zero_contention`].
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Switches the input source to the live request plane: `frontend`'s
    /// simulated peers connect, export buffers, and issue the requests the
    /// mechanism translates — there is no trace. Execute with the [`Live`]
    /// input; the output becomes a [`FrontendResult`]. Composes with
    /// [`observed`](Run::observed), and with [`cluster`](Run::cluster) to
    /// home connections across N boards (the output then becomes a
    /// [`ClusterFrontendResult`]); a *single-board* frontend owns its own
    /// clock discipline and rejects `.des()`.
    pub fn frontend(mut self, frontend: FrontendConfig) -> Self {
        self.frontend = Some(frontend);
        self
    }

    /// Executes the run, constructing the engine(s) from the configured
    /// [`Mechanism`]. `input` is a `&Trace`, a `&mut` any [`TraceStream`],
    /// or [`Live`] for frontend runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse: no mechanism
    /// ([`Run::with_config`] runs need [`execute_with`](Run::execute_with)),
    /// an incompatible option combination, an input shape the configured
    /// run cannot consume (including a trace whose pids are not dense
    /// from 1), a zero observation ring, an invalid frontend config, or a
    /// topology that does not fit the run.
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors — trace simulation is closed-world,
    /// so any failure past configuration is a bug worth a loud stop.
    pub fn execute(&self, input: impl RunInput) -> Result<RunOutput, RunError> {
        let mut scratch = SweepScratch::new();
        self.execute_in(&mut scratch, input)
    }

    /// [`execute`](Run::execute) with a caller-supplied scratch arena: the
    /// replay loop's reusable buffers (stream chunk, outcome buffer) come
    /// from `scratch` instead of being allocated fresh — the way sweep
    /// workers run many cells with one arena (see
    /// [`sweep_with`](crate::sweep_with)). Frontend runs generate their
    /// own requests and ignore `scratch`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse, exactly as
    /// [`execute`](Run::execute).
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors, exactly as
    /// [`execute`](Run::execute).
    pub fn execute_in(
        &self,
        scratch: &mut SweepScratch,
        input: impl RunInput,
    ) -> Result<RunOutput, RunError> {
        let mech = self.mech.ok_or(RunError::NoMechanism)?;
        if self.cluster.is_some() {
            self.check_values()?;
            if self.frontend.is_some() {
                return input.dispatch(ClusterFrontendExec { run: self, mech });
            }
            return input.dispatch(ClusterExec {
                run: self,
                mech,
                scratch,
            });
        }
        let mut engine = mech.engine(&self.cfg);
        self.execute_with_in(&mut *engine, scratch, input)
    }

    /// Executes the run on a caller-supplied engine. The engine's processes
    /// and probe slot are used in place; any probe the caller attached
    /// beforehand stays attached for non-observed serial runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse; cluster runs build one
    /// engine per board and must go through [`execute`](Run::execute).
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors.
    pub fn execute_with<M>(
        &self,
        engine: &mut M,
        input: impl RunInput,
    ) -> Result<RunOutput, RunError>
    where
        M: TranslationMechanism + ?Sized,
    {
        let mut scratch = SweepScratch::new();
        self.execute_with_in(engine, &mut scratch, input)
    }

    /// [`execute_with`](Run::execute_with) with a caller-supplied scratch
    /// arena (see [`execute_in`](Run::execute_in)).
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse; cluster runs build one
    /// engine per board and must go through [`execute`](Run::execute).
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors.
    pub fn execute_with_in<M>(
        &self,
        engine: &mut M,
        scratch: &mut SweepScratch,
        input: impl RunInput,
    ) -> Result<RunOutput, RunError>
    where
        M: TranslationMechanism + ?Sized,
    {
        if self.cluster.is_some() {
            return Err(RunError::IncompatibleConfig(ConfigConflict::ClusterEngine));
        }
        self.check_values()?;
        input.dispatch(EngineExec {
            run: self,
            engine,
            scratch,
        })
    }

    /// The option values every run shape rejects up front: a zero
    /// observation ring and an invalid frontend config.
    fn check_values(&self) -> Result<(), RunError> {
        if self.obs_ring == Some(0) {
            return Err(RunError::EmptyObsRing);
        }
        if let Some(fcfg) = &self.frontend {
            fcfg.validate().map_err(RunError::Frontend)?;
        }
        Ok(())
    }
}

/// An input [`Run::execute`] accepts: a materialized `&`[`Trace`], a
/// `&mut` [`TraceStream`] (fused generate+replay), or [`Live`].
/// Implemented for exactly those shapes; the trait only routes the input
/// to the replay loop.
pub trait RunInput {
    /// Hands the underlying stream to `visitor`. Not meant to be called
    /// directly — [`Run::execute`] does.
    #[doc(hidden)]
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out;
}

/// Internal visitor that receives the stream an input resolves to.
#[doc(hidden)]
pub trait StreamVisitor {
    /// The visit result.
    type Out;
    /// Consumes the resolved stream.
    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Self::Out;
}

impl RunInput for &Trace {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(&mut TraceView::new(self))
    }
}

impl RunInput for &std::sync::Arc<Trace> {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(&mut TraceView::new(self))
    }
}

impl<S: TraceStream> RunInput for &mut S {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(self)
    }
}

/// The input for a [`Run::frontend`] run: requests come from the simulated
/// peers, not from a trace.
///
/// ```no_run
/// # use utlb_sim::{frontend::FrontendConfig, Live, Mechanism, Run, RunOutputExt};
/// let result = Run::new(Mechanism::Utlb)
///     .frontend(FrontendConfig::default())
///     .execute(Live)
///     .into_frontend()
///     .unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Live;

/// Workload sentinel [`Live`] dispatches; the frontend branches require it.
pub(crate) const LIVE_WORKLOAD: &str = "\0live";

/// The empty stream behind [`Live`]. Replaying it is a no-op; its only job
/// is to carry the sentinel through the visitor plumbing.
struct LiveSource;

impl TraceStream for LiveSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        None
    }
    fn remaining(&self) -> u64 {
        0
    }
    fn workload(&self) -> &str {
        LIVE_WORKLOAD
    }
    fn seed(&self) -> u64 {
        0
    }
    fn process_ids(&self) -> Vec<ProcessId> {
        Vec::new()
    }
}

impl RunInput for Live {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(&mut LiveSource)
    }
}

/// The stream's pids, or [`InputMismatch::SparsePids`] unless they are
/// exactly 1, 2, …, n — the numbering the replay host gives the processes
/// it spawns. One pass over the pid list, none over the records.
fn dense_pids<S: TraceStream + ?Sized>(stream: &S) -> Result<Vec<ProcessId>, RunError> {
    let pids = stream.process_ids();
    if (1..).zip(&pids).all(|(n, pid)| pid.raw() == n) {
        Ok(pids)
    } else {
        Err(RunError::IncompatibleInput(InputMismatch::SparsePids))
    }
}

/// Single-engine execution: serial or DES, observed or plain. The scratch
/// arena feeds the trace replay loops; the frontend branch (live requests,
/// no trace) ignores it.
struct EngineExec<'r, 'e, 's, M: ?Sized> {
    run: &'r Run,
    engine: &'e mut M,
    scratch: &'s mut SweepScratch,
}

impl<M: TranslationMechanism + ?Sized> StreamVisitor for EngineExec<'_, '_, '_, M> {
    type Out = Result<RunOutput, RunError>;

    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Result<RunOutput, RunError> {
        let collector = self.run.obs_ring.map(SharedCollector::new);
        let live = stream.workload() == LIVE_WORKLOAD;
        let (payload, board) = match (&self.run.frontend, &self.run.des) {
            (Some(_), Some(_)) => {
                return Err(RunError::IncompatibleConfig(ConfigConflict::FrontendDes))
            }
            (Some(_), None) if !live => {
                return Err(RunError::IncompatibleInput(InputMismatch::TraceForFrontend))
            }
            (None, _) if live => {
                return Err(RunError::IncompatibleInput(
                    InputMismatch::LiveWithoutFrontend,
                ))
            }
            (Some(fcfg), None) => {
                let (r, board) =
                    replay_frontend(self.engine, &self.run.cfg, fcfg, collector.as_ref());
                (Payload::Frontend(Box::new(r)), board)
            }
            (None, Some(des)) => {
                let pids = dense_pids(stream)?;
                let (r, board) = replay_des(
                    self.engine,
                    stream,
                    &pids,
                    &self.run.cfg,
                    des,
                    collector.as_ref(),
                    self.scratch,
                );
                (Payload::Des(Box::new(r)), board)
            }
            (None, None) => {
                let pids = dense_pids(stream)?;
                let (r, board) = replay_stream(
                    self.engine,
                    stream,
                    &pids,
                    &self.run.cfg,
                    collector.as_ref(),
                    self.scratch,
                );
                (Payload::Sim(r), board)
            }
        };
        let obs = collector.map(|c| {
            let (workload, stats) = match &payload {
                Payload::Sim(r) => (&r.workload, &r.stats),
                Payload::Des(r) => (&r.base.workload, &r.base.stats),
                Payload::Frontend(r) => (&r.workload, &r.stats),
                _ => unreachable!("single-engine runs produce single-board payloads"),
            };
            build_report(self.engine.name(), workload, stats, board, &c)
        });
        Ok(RunOutput { payload, obs })
    }
}

/// Cluster trace execution: one engine per board, shared stations.
struct ClusterExec<'r, 's> {
    run: &'r Run,
    mech: Mechanism,
    scratch: &'s mut SweepScratch,
}

impl StreamVisitor for ClusterExec<'_, '_> {
    type Out = Result<RunOutput, RunError>;

    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Result<RunOutput, RunError> {
        if stream.workload() == LIVE_WORKLOAD {
            return Err(RunError::IncompatibleInput(
                InputMismatch::LiveWithoutFrontend,
            ));
        }
        let pids = dense_pids(stream)?;
        let des = self.run.des.unwrap_or_default();
        let cluster = self.run.cluster.as_ref().expect("checked by execute");
        let result = replay_cluster(
            self.mech,
            stream,
            &pids,
            &self.run.cfg,
            &des,
            cluster,
            self.scratch,
        )?;
        Ok(RunOutput {
            payload: Payload::Cluster(Box::new(result)),
            obs: None,
        })
    }
}

/// Clustered live-frontend execution: the request plane homed over N
/// boards with shared stations.
struct ClusterFrontendExec<'r> {
    run: &'r Run,
    mech: Mechanism,
}

impl StreamVisitor for ClusterFrontendExec<'_> {
    type Out = Result<RunOutput, RunError>;

    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Result<RunOutput, RunError> {
        if stream.workload() != LIVE_WORKLOAD {
            return Err(RunError::IncompatibleInput(InputMismatch::TraceForFrontend));
        }
        if self.run.obs_ring.is_some() {
            return Err(RunError::IncompatibleConfig(
                ConfigConflict::ObservedClusterFrontend,
            ));
        }
        let cluster = self.run.cluster.as_ref().expect("checked by execute");
        if !cluster.migrations.is_empty() {
            return Err(RunError::IncompatibleConfig(
                ConfigConflict::FrontendMigrations,
            ));
        }
        let fcfg = self.run.frontend.as_ref().expect("checked by execute");
        let des = self.run.des.unwrap_or_default();
        let result = replay_cluster_frontend(self.mech, &self.run.cfg, fcfg, &des, cluster)?;
        Ok(RunOutput {
            payload: Payload::ClusterFrontend(Box::new(result)),
            obs: None,
        })
    }
}

#[derive(Debug, Clone)]
enum Payload {
    Sim(SimResult),
    Des(Box<DesResult>),
    Cluster(Box<ClusterResult>),
    Frontend(Box<FrontendResult>),
    ClusterFrontend(Box<ClusterFrontendResult>),
}

impl Payload {
    /// The shape name used in [`RunError::IncompatiblePayload`].
    fn kind(&self) -> &'static str {
        match self {
            Payload::Sim(_) => "sim",
            Payload::Des(_) => "des",
            Payload::Cluster(_) => "cluster",
            Payload::Frontend(_) => "frontend",
            Payload::ClusterFrontend(_) => "cluster_frontend",
        }
    }
}

fn payload_err<T>(requested: &'static str, payload: &Payload) -> Result<T, RunError> {
    Err(RunError::IncompatiblePayload {
        requested,
        actual: payload.kind(),
    })
}

/// What a [`Run`] produced: a serial [`SimResult`], a discrete-event
/// [`DesResult`], a [`ClusterResult`], a [`FrontendResult`], or a
/// [`ClusterFrontendResult`], plus the [`ObsReport`] when the run was
/// observed. The `into_*` accessors return
/// [`RunError::IncompatiblePayload`] when asked for a shape the run was
/// not configured to produce; [`RunOutputExt`] provides the same accessors
/// directly on `Result<RunOutput, RunError>` so the `execute` result
/// chains without an intermediate unwrap.
#[derive(Debug, Clone)]
pub struct RunOutput {
    payload: Payload,
    obs: Option<ObsReport>,
}

impl RunOutput {
    /// The serial result: the plain result of a serial run, or the `base`
    /// half of a DES run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] on cluster and frontend
    /// runs.
    pub fn sim(&self) -> Result<&SimResult, RunError> {
        match &self.payload {
            Payload::Sim(r) => Ok(r),
            Payload::Des(r) => Ok(&r.base),
            other => payload_err("sim", other),
        }
    }

    /// Consumes the output into its serial result (see
    /// [`sim`](RunOutput::sim)).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] on cluster and frontend
    /// runs.
    pub fn into_sim(self) -> Result<SimResult, RunError> {
        match self.payload {
            Payload::Sim(r) => Ok(r),
            Payload::Des(r) => Ok(r.base),
            other => payload_err("sim", &other),
        }
    }

    /// The discrete-event result, if the run was configured with
    /// [`Run::des`].
    pub fn des(&self) -> Option<&DesResult> {
        match &self.payload {
            Payload::Des(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its discrete-event result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::des`].
    pub fn into_des(self) -> Result<DesResult, RunError> {
        match self.payload {
            Payload::Des(r) => Ok(*r),
            other => payload_err("des", &other),
        }
    }

    /// The cluster result, if the run was configured with [`Run::cluster`].
    pub fn cluster(&self) -> Option<&ClusterResult> {
        match &self.payload {
            Payload::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its cluster result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::cluster`] (trace input).
    pub fn into_cluster(self) -> Result<ClusterResult, RunError> {
        match self.payload {
            Payload::Cluster(r) => Ok(*r),
            other => payload_err("cluster", &other),
        }
    }

    /// The front-end result, if the run was configured with
    /// [`Run::frontend`] on a single board.
    pub fn frontend(&self) -> Option<&FrontendResult> {
        match &self.payload {
            Payload::Frontend(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its front-end result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::frontend`] on a single board.
    pub fn into_frontend(self) -> Result<FrontendResult, RunError> {
        match self.payload {
            Payload::Frontend(r) => Ok(*r),
            other => payload_err("frontend", &other),
        }
    }

    /// The clustered front-end result, if the run combined
    /// [`Run::frontend`] with [`Run::cluster`].
    pub fn cluster_frontend(&self) -> Option<&ClusterFrontendResult> {
        match &self.payload {
            Payload::ClusterFrontend(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its clustered front-end result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run did not combine
    /// [`Run::frontend`] with [`Run::cluster`].
    pub fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError> {
        match self.payload {
            Payload::ClusterFrontend(r) => Ok(*r),
            other => payload_err("cluster_frontend", &other),
        }
    }

    /// Consumes the output into `(front-end result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not both observed and a
    /// frontend run.
    pub fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::NotObserved)?;
        match self.payload {
            Payload::Frontend(r) => Ok((*r, obs)),
            other => payload_err("frontend", &other),
        }
    }

    /// The observability report, if the run was observed.
    pub fn obs(&self) -> Option<&ObsReport> {
        self.obs.as_ref()
    }

    /// Consumes the output into `(serial result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not observed, or on cluster
    /// and frontend runs.
    pub fn into_observed(self) -> Result<(SimResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::NotObserved)?;
        let sim = match self.payload {
            Payload::Sim(r) => r,
            Payload::Des(r) => r.base,
            other => return payload_err("sim", &other),
        };
        Ok((sim, obs))
    }

    /// Consumes the output into `(DES result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not both observed and
    /// DES-timed.
    pub fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::NotObserved)?;
        match self.payload {
            Payload::Des(r) => Ok((*r, obs)),
            other => payload_err("des", &other),
        }
    }
}

/// The [`RunOutput`] accessors, lifted onto `Result<RunOutput, RunError>`
/// so [`Run::execute`] chains directly:
/// `.execute(&trace).into_sim()?` instead of
/// `.execute(&trace)?.into_sim()?`.
pub trait RunOutputExt {
    /// See [`RunOutput::sim`].
    #[allow(clippy::missing_errors_doc)]
    fn sim(&self) -> Result<&SimResult, RunError>;
    /// See [`RunOutput::into_sim`].
    #[allow(clippy::missing_errors_doc)]
    fn into_sim(self) -> Result<SimResult, RunError>;
    /// See [`RunOutput::into_des`].
    #[allow(clippy::missing_errors_doc)]
    fn into_des(self) -> Result<DesResult, RunError>;
    /// See [`RunOutput::into_cluster`].
    #[allow(clippy::missing_errors_doc)]
    fn into_cluster(self) -> Result<ClusterResult, RunError>;
    /// See [`RunOutput::into_frontend`].
    #[allow(clippy::missing_errors_doc)]
    fn into_frontend(self) -> Result<FrontendResult, RunError>;
    /// See [`RunOutput::into_cluster_frontend`].
    #[allow(clippy::missing_errors_doc)]
    fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError>;
    /// See [`RunOutput::into_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_observed(self) -> Result<(SimResult, ObsReport), RunError>;
    /// See [`RunOutput::into_des_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError>;
    /// See [`RunOutput::into_frontend_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError>;
}

impl RunOutputExt for Result<RunOutput, RunError> {
    fn sim(&self) -> Result<&SimResult, RunError> {
        match self {
            Ok(out) => out.sim(),
            Err(e) => Err(e.clone()),
        }
    }
    fn into_sim(self) -> Result<SimResult, RunError> {
        self.and_then(RunOutput::into_sim)
    }
    fn into_des(self) -> Result<DesResult, RunError> {
        self.and_then(RunOutput::into_des)
    }
    fn into_cluster(self) -> Result<ClusterResult, RunError> {
        self.and_then(RunOutput::into_cluster)
    }
    fn into_frontend(self) -> Result<FrontendResult, RunError> {
        self.and_then(RunOutput::into_frontend)
    }
    fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError> {
        self.and_then(RunOutput::into_cluster_frontend)
    }
    fn into_observed(self) -> Result<(SimResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_observed)
    }
    fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_des_observed)
    }
    fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_frontend_observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_core::UtlbEngine;
    use utlb_trace::{gen, GenConfig, SplashApp};

    fn tiny() -> Trace {
        gen::generate(
            SplashApp::Water,
            &GenConfig {
                seed: 21,
                scale: 0.05,
                app_processes: 4,
            },
        )
    }

    #[test]
    fn trace_and_stream_inputs_agree() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let run = Run::new(Mechanism::Utlb).config(&sim);
        let a = run.execute(&trace).into_sim().unwrap();
        let mut view = TraceView::new(&trace);
        let b = run.execute(&mut view).into_sim().unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
    }

    #[test]
    fn execute_with_uses_the_supplied_engine() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let mut engine = UtlbEngine::new(sim.utlb_config());
        let r = Run::with_config(&sim)
            .execute_with(&mut engine, &trace)
            .into_sim()
            .unwrap();
        assert_eq!(r.stats.lookups, trace.total_lookups());
        // The engine keeps its state: stats remain queryable afterwards.
        assert_eq!(engine.aggregate_stats(), r.stats);
    }

    #[test]
    fn observed_output_carries_a_reconciled_report() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let (r, obs) = Run::new(Mechanism::Intr)
            .config(&sim)
            .observed_ring(16)
            .execute(&trace)
            .into_observed()
            .unwrap();
        assert!(obs.reconciled, "mismatches: {:?}", obs.mismatches);
        assert_eq!(obs.metrics.counts.lookups, r.stats.lookups);
    }

    #[test]
    fn des_output_nests_the_serial_result() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let plain = Run::new(Mechanism::Utlb)
            .config(&sim)
            .execute(&trace)
            .into_sim()
            .unwrap();
        let out = Run::new(Mechanism::Utlb)
            .config(&sim)
            .des(DesConfig::zero_contention())
            .execute(&trace);
        assert_eq!(
            out.sim().unwrap().stats,
            plain.stats,
            "sim() reads the DES base"
        );
        let des = out.into_des().unwrap();
        assert_eq!(des.base.sim_time_ns, plain.sim_time_ns);
        assert_eq!(des.des_time_ns, plain.sim_time_ns);
    }

    #[test]
    fn execute_without_mechanism_is_a_typed_error() {
        let err = Run::with_config(&SimConfig::study(64))
            .execute(&tiny())
            .unwrap_err();
        assert_eq!(err, RunError::NoMechanism);
        assert!(err.to_string().contains("no mechanism"), "{err}");
    }

    #[test]
    fn misreading_a_serial_output_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .execute(&tiny())
            .into_des()
            .unwrap_err();
        assert_eq!(
            err,
            RunError::IncompatiblePayload {
                requested: "des",
                actual: "sim"
            }
        );
        assert!(err.to_string().contains("not a des run"), "{err}");
    }

    #[test]
    fn execute_with_on_a_cluster_run_is_a_typed_error() {
        let sim = SimConfig::study(64);
        let mut engine = UtlbEngine::new(sim.utlb_config());
        let err = Run::new(Mechanism::Utlb)
            .config(&sim)
            .cluster(ClusterConfig::new(2))
            .execute_with(&mut engine, &tiny())
            .unwrap_err();
        assert!(err.to_string().contains("use Run::execute"), "{err}");
    }

    /// Every bad builder shape maps to its own typed variant, on the entry
    /// point that can reach it.
    #[test]
    fn every_bad_shape_is_a_typed_error() {
        enum Via {
            Trace,
            Live,
            Engine,
            Sparse,
        }
        let sim = SimConfig::study(64);
        let trace = tiny();
        // One process, pid 2: the replay host would spawn it as pid 1.
        let sparse = Trace::new(
            "sparse",
            0,
            vec![TraceRecord {
                ts_ns: 0,
                pid: ProcessId::new(2),
                op: utlb_trace::Op::Send,
                va: utlb_mem::VirtAddr::new(0),
                nbytes: 64,
            }],
        );
        let fcfg = FrontendConfig {
            connections: 1,
            open_window: 1,
            requests_per_conn: 4,
            ..FrontendConfig::default()
        };
        let utlb = Run::new(Mechanism::Utlb).config(&sim);
        let front = utlb.clone().frontend(fcfg);
        let two = ClusterConfig::new(2);
        let cases = [
            (
                front.clone().des(DesConfig::zero_contention()),
                Via::Live,
                RunError::IncompatibleConfig(ConfigConflict::FrontendDes),
            ),
            (
                utlb.clone().cluster(two.clone()),
                Via::Engine,
                RunError::IncompatibleConfig(ConfigConflict::ClusterEngine),
            ),
            (
                front.clone().cluster(two.clone()).observed(),
                Via::Live,
                RunError::IncompatibleConfig(ConfigConflict::ObservedClusterFrontend),
            ),
            (
                front.clone().cluster(two.clone().migrate(1, 1, 1)),
                Via::Live,
                RunError::IncompatibleConfig(ConfigConflict::FrontendMigrations),
            ),
            (
                front,
                Via::Trace,
                RunError::IncompatibleInput(InputMismatch::TraceForFrontend),
            ),
            (
                utlb.clone(),
                Via::Live,
                RunError::IncompatibleInput(InputMismatch::LiveWithoutFrontend),
            ),
            (
                utlb.clone().observed_ring(0),
                Via::Trace,
                RunError::EmptyObsRing,
            ),
            (
                utlb.clone().cluster(two.clone()).observed_ring(0),
                Via::Trace,
                RunError::EmptyObsRing,
            ),
            (
                utlb.clone(),
                Via::Sparse,
                RunError::IncompatibleInput(InputMismatch::SparsePids),
            ),
            (
                utlb.clone().des(DesConfig::zero_contention()),
                Via::Sparse,
                RunError::IncompatibleInput(InputMismatch::SparsePids),
            ),
            (
                utlb.clone().cluster(two),
                Via::Sparse,
                RunError::IncompatibleInput(InputMismatch::SparsePids),
            ),
        ];
        for (run, via, want) in cases {
            let got = match via {
                Via::Trace => run.execute(&trace),
                Via::Live => run.execute(Live),
                Via::Sparse => run.execute(&sparse),
                Via::Engine => {
                    let mut engine = UtlbEngine::new(sim.utlb_config());
                    run.execute_with(&mut engine, &trace)
                }
            };
            assert_eq!(got.unwrap_err(), want, "{want}");
        }
        let err = utlb.execute(&trace).into_observed().unwrap_err();
        assert_eq!(err, RunError::NotObserved);
    }

    #[test]
    fn live_input_without_a_frontend_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .execute(Live)
            .unwrap_err();
        assert!(err.to_string().contains(".frontend(cfg)"), "{err}");
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .cluster(ClusterConfig::new(2))
            .execute(Live)
            .unwrap_err();
        assert!(err.to_string().contains(".frontend(cfg)"), "{err}");
    }
}
