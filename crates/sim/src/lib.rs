//! Trace-driven simulation of UTLB and the interrupt-based baseline.
//!
//! This crate is the reproduction of the paper's §6: it feeds the synthetic
//! application traces (crate `utlb-trace`) through the *real* translation
//! engines (crate `utlb-core`) running on the simulated host and NIC,
//! derives the per-lookup statistics the paper reports, classifies NIC
//! misses into compulsory/capacity/conflict (Figure 7), and packages one
//! driver per table and figure:
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 1 (host-side costs) | [`experiments::table1`] |
//! | Table 2 (NIC-side costs) | [`experiments::table2`] |
//! | Table 3 (application characteristics) | [`experiments::table3`] |
//! | Table 4 (UTLB vs Intr, infinite memory) | [`experiments::table4`] |
//! | Table 5 (UTLB vs Intr, 4 MB limit) | [`experiments::table5`] |
//! | Table 6 (average lookup cost) | [`experiments::table6`] |
//! | Table 7 (prepinning) | [`experiments::table7`] |
//! | Table 8 (size × associativity) | [`experiments::table8`] |
//! | Figure 7 (3C breakdown) | [`experiments::fig7`] |
//! | Figure 8 (prefetching) | [`experiments::fig8`] |
//!
//! Extension experiments the paper calls for but could not run are in
//! `experiments::{policy_sweep, perproc_vs_shared, prepin_sweep, multiprog,
//! assoc_cost, variant_comparison}`.
//!
//! # Example
//!
//! Every run goes through one builder: pick a [`Mechanism`], layer on
//! configuration, and execute against a trace or stream.
//!
//! ```
//! use utlb_sim::{Mechanism, Run, RunOutputExt, SimConfig};
//! use utlb_trace::{gen, GenConfig, SplashApp};
//!
//! let cfg = GenConfig { seed: 1, scale: 0.03, app_processes: 4 };
//! let trace = gen::generate(SplashApp::Water, &cfg);
//! let sim = SimConfig::study(1024);
//! let utlb = Run::new(Mechanism::Utlb).config(&sim).execute(&trace).into_sim().unwrap();
//! let intr = Run::new(Mechanism::Intr).config(&sim).execute(&trace).into_sim().unwrap();
//! // The paper's central comparison, in two calls:
//! assert_eq!(utlb.stats.interrupts, 0);
//! assert_eq!(intr.stats.interrupts, intr.stats.ni_misses);
//! assert!(utlb.stats.unpins <= intr.stats.unpins);
//! ```
//!
//! Sharding that same run across a simulated multi-NIC cluster is one more
//! builder call — see [`ClusterConfig`] and [`ClusterResult`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod board;
mod classify;
mod cluster;
mod config;
mod des_runner;
pub mod experiments;
pub mod frontend;
mod observe;
mod report;
mod run;
mod runner;
mod stations;
pub mod sweep;

pub use classify::{MissBreakdown, MissClassifier, MissKind};
pub use cluster::{
    BoardCell, ClusterConfig, ClusterResult, HomingPolicy, Migration, MigrationReport,
    TopologyError,
};
pub use config::{Mechanism, SimConfig, DEFAULT_HOST_FRAMES};
pub use des_runner::{DesConfig, DesResult};
pub use frontend::cluster::{ClusterFrontendResult, FrontendBoardCell};
pub use frontend::{frontend_trace, FrontendConfig, FrontendConfigError, FrontendResult};
pub use observe::ObsReport;
pub use report::{phase_breakdown, wait_breakdown, TextTable};
pub use run::{
    ConfigConflict, InputMismatch, Live, Run, RunError, RunInput, RunOutput, RunOutputExt,
    StreamVisitor, DEFAULT_OBS_RING,
};
pub use runner::{SimResult, SweepScratch, STREAM_CHUNK};
pub use sweep::{
    sweep, sweep_over, sweep_over_with, sweep_with, worker_count, worker_topology, SweepGrid,
    WorkerSource, WorkerTopology,
};
