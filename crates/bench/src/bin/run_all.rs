//! Runs every table and figure regenerator in paper order — the one-shot
//! reproduction of the whole evaluation section — then the extension
//! contention experiments, archived under `results/`. Wall-clock
//! performance is measured by `perfbench/`, not here.

use serde::Serialize;
use utlb_core::obs::Metrics;
use utlb_sim::RunOutputExt;
use utlb_sim::{phase_breakdown, sweep_over, Mechanism, ObsReport, Run, SimConfig};
use utlb_trace::{gen, GenConfig, SplashApp};

/// Per-process event-ring capacity for observed runs: enough tail to
/// explain a surprising final state, small enough to keep exports readable.
const OBS_RING: usize = 64;

/// One observed run inside an experiment's obs export.
#[derive(Debug, Serialize)]
struct ObsRun {
    /// Application name.
    app: String,
    /// NIC cache entries of this run.
    cache_entries: usize,
    /// The full probe report (metrics, rings, board counters).
    report: ObsReport,
}

/// The `results/obs_<experiment>.json` document.
#[derive(Debug, Serialize)]
struct ObsExport {
    /// Experiment name ("table4", …).
    experiment: String,
    /// One entry per (app, mechanism) cell.
    runs: Vec<ObsRun>,
}

/// One observed cell: trace index, mechanism, and run parameters.
type ObsCell = (usize, Mechanism, SimConfig);

/// Reruns the headline experiments with the engine probe attached,
/// asserting that the event stream reconciles with the engines' own
/// statistics on every cell, printing the merged per-phase breakdown,
/// and archiving one JSON report per experiment under `results/`.
fn obs_pass(gencfg: &GenConfig) {
    std::fs::create_dir_all("results").expect("create results/");
    let traces: Vec<_> = SplashApp::ALL
        .iter()
        .map(|&app| (app, gen::generate_shared(app, gencfg)))
        .collect();

    let all_apps_all_mechs = |cfg: &SimConfig| -> Vec<ObsCell> {
        let mut cells = Vec::new();
        for tix in 0..traces.len() {
            for mech in Mechanism::ALL {
                cells.push((tix, mech, cfg.clone()));
            }
        }
        cells
    };
    let table7_cfg = {
        let mut c = SimConfig::study(8192).limit_mb(4);
        c.prepin = 16;
        c
    };
    let fig8_cfg = {
        let mut c = SimConfig::study(1024);
        c.prefetch = 8;
        c.prepin = 8;
        c
    };
    let experiments: Vec<(&str, Vec<ObsCell>)> = vec![
        ("table4", all_apps_all_mechs(&SimConfig::study(8192))),
        (
            "table5",
            all_apps_all_mechs(&SimConfig::study(8192).limit_mb(4)),
        ),
        (
            "table7",
            (0..traces.len())
                .map(|tix| (tix, Mechanism::Utlb, table7_cfg.clone()))
                .collect(),
        ),
        (
            "fig8",
            vec![(
                traces
                    .iter()
                    .position(|(app, _)| *app == SplashApp::Radix)
                    .expect("radix is in ALL"),
                Mechanism::Utlb,
                fig8_cfg,
            )],
        ),
    ];

    for (name, cells) in experiments {
        let runs: Vec<ObsRun> = sweep_over(&cells, |(tix, mech, cfg)| {
            let (app, trace) = &traces[*tix];
            let (_, report) = Run::new(*mech)
                .config(cfg)
                .observed_ring(OBS_RING)
                .execute(trace)
                .into_observed()
                .unwrap();
            assert!(
                report.reconciled,
                "{name}/{app}/{mech}: probe stream disagrees with engine stats: {:?}",
                report.mismatches
            );
            ObsRun {
                app: app.to_string(),
                cache_entries: cfg.cache_entries,
                report,
            }
        });
        for mech in Mechanism::ALL {
            let mut merged = Metrics::new();
            let mut any = false;
            for run in runs
                .iter()
                .filter(|r| r.report.mechanism == mech.to_string())
            {
                merged.merge(&run.report.metrics);
                any = true;
            }
            if any {
                println!(
                    "{}",
                    phase_breakdown(format!("Obs breakdown — {name} / {mech}"), &merged)
                );
            }
        }
        let path = format!("results/obs_{name}.json");
        let export = ObsExport {
            experiment: name.to_string(),
            runs,
        };
        let body = serde_json::to_string_pretty(&export).expect("obs export serializes");
        std::fs::write(&path, body).expect("write obs export");
        eprintln!("obs: {path}");
    }
}

/// Runs the extension contention experiments — the offered-load sweep and
/// the multiprogrammed interference run — printing both tables and
/// archiving each as JSON under `results/`.
fn contention_pass(gencfg: &GenConfig) {
    std::fs::create_dir_all("results").expect("create results/");
    let contention = utlb_sim::experiments::bus_contention(gencfg, 8192);
    println!("{contention}\n");
    let body = serde_json::to_string_pretty(&contention).expect("contention serializes");
    std::fs::write("results/contention.json", body).expect("write results/contention.json");
    eprintln!("contention: results/contention.json");

    let interference = utlb_sim::experiments::interference_des(
        SplashApp::Radix,
        SplashApp::Fft,
        gencfg,
        8192,
        4.0,
    );
    println!("{interference}\n");
    let body = serde_json::to_string_pretty(&interference).expect("interference serializes");
    std::fs::write("results/interference.json", body).expect("write results/interference.json");
    eprintln!("interference: results/interference.json");
}

fn main() {
    let args = utlb_bench::BenchArgs::parse();
    println!("{}\n", utlb_sim::experiments::table1());
    println!("{}\n", utlb_sim::experiments::table2());
    println!("{}\n", utlb_sim::experiments::table3(&args.gen));
    println!("{}\n", utlb_sim::experiments::table4(&args.gen));
    println!("{}\n", utlb_sim::experiments::table5(&args.gen));
    println!("{}\n", utlb_sim::experiments::table6(&args.gen));
    println!("{}\n", utlb_sim::experiments::table7(&args.gen));
    println!("{}\n", utlb_sim::experiments::table8(&args.gen));
    println!("{}\n", utlb_sim::experiments::fig7(&args.gen));
    println!("{}\n", utlb_sim::experiments::fig8(&args.gen));
    contention_pass(&args.gen);

    if args.obs {
        obs_pass(&args.gen);
    }
}
