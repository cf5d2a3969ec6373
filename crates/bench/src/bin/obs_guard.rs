//! Guards the observability layer's zero-overhead claim.
//!
//! The probe slot is one branch on the fast path when detached, and a
//! `NoopProbe` adds only a dynamic call per event — so a full trace replay
//! with a no-op probe attached must stay within 10% of the probe-free
//! replay. This binary times the two interleaved (alternating rounds, so
//! frequency drift hits both sides equally), compares the per-side minima
//! (the least-noisy estimator of the true cost), and exits non-zero on a
//! regression. CI runs it with `--scale 0.3` — big enough that the timed
//! region dwarfs timer resolution, small enough to stay fast.

use std::hint::black_box;
use std::time::Instant;
use utlb_core::obs::NoopProbe;
use utlb_core::{TranslationMechanism, UtlbEngine};
use utlb_sim::RunOutputExt;
use utlb_sim::{Run, SimConfig};
use utlb_trace::{gen, SplashApp};

/// Interleaved timing rounds per side.
const ROUNDS: usize = 15;

/// Maximum tolerated noop-probe / no-probe runtime ratio.
const LIMIT: f64 = 1.10;

fn main() {
    let args = utlb_bench::BenchArgs::parse();
    let trace = gen::generate_shared(SplashApp::Water, &args.gen);
    let cfg = SimConfig::study(1024);

    // Warm both paths (page tables, allocator, trace cache) before timing.
    let runner = Run::with_config(&cfg);
    runner
        .execute_with(&mut UtlbEngine::new(cfg.utlb_config()), &trace)
        .expect("warm-up run succeeds");
    {
        let mut engine = UtlbEngine::new(cfg.utlb_config());
        engine.set_probe(Box::new(NoopProbe));
        runner
            .execute_with(&mut engine, &trace)
            .expect("warm-up run succeeds");
    }

    let mut base = f64::INFINITY;
    let mut probed = f64::INFINITY;
    for _ in 0..ROUNDS {
        let mut engine = UtlbEngine::new(cfg.utlb_config());
        let t = Instant::now();
        black_box(
            runner
                .execute_with(&mut engine, &trace)
                .into_sim()
                .unwrap()
                .stats
                .lookups,
        );
        base = base.min(t.elapsed().as_secs_f64());

        let mut engine = UtlbEngine::new(cfg.utlb_config());
        engine.set_probe(Box::new(NoopProbe));
        let t = Instant::now();
        black_box(
            runner
                .execute_with(&mut engine, &trace)
                .into_sim()
                .unwrap()
                .stats
                .lookups,
        );
        probed = probed.min(t.elapsed().as_secs_f64());
    }

    let ratio = probed / base;
    println!(
        "obs_guard: no-probe {:.1} ms, noop-probe {:.1} ms, ratio {ratio:.3} (limit {LIMIT})",
        base * 1e3,
        probed * 1e3
    );
    if ratio > LIMIT {
        eprintln!("obs_guard: FAIL — no-op probe overhead exceeds {LIMIT}x");
        std::process::exit(1);
    }
    println!("obs_guard: OK");
}
