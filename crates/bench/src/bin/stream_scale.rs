//! Fused generate+replay at scale: replays a looped ~100M-lookup workload
//! that is never materialized, then the largest materialized paper trace as
//! baseline, archiving throughput, scale factor, and peak RSS to
//! `results/stream_scale.json`.
//!
//! The streamed run executes before anything else in this process so the
//! `VmHWM` reading reflects the streaming replay loop, not earlier
//! allocations — run this binary standalone, not from `run_all`.
//!
//! `UTLB_STREAM_EPOCHS` overrides the epoch count (CI uses a small value;
//! the archived numbers use the default).

use utlb_sim::experiments::{stream_scale, STREAM_SCALE_APP};

/// Default epochs: Barnes carries ~35.9 K lookups per epoch at scale 1.0,
/// so 2800 epochs ≈ 100 M lookups.
const DEFAULT_EPOCHS: u64 = 2800;

/// NIC cache entries for both runs — the paper's default study point.
const CACHE_ENTRIES: usize = 8192;

fn main() {
    let args = utlb_bench::BenchArgs::parse();
    let epochs = std::env::var("UTLB_STREAM_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_EPOCHS);

    eprintln!(
        "stream_scale: fused replay of {STREAM_SCALE_APP} x{epochs} epochs \
         (scale {}, seed {})...",
        args.gen.scale, args.gen.seed
    );
    let result = stream_scale(&args.gen, epochs, CACHE_ENTRIES);
    println!("{result}");

    assert!(
        result.scale_factor >= 10.0,
        "acceptance: streamed run must be >= 10x the largest materialized run \
         (got {:.1}x)",
        result.scale_factor
    );

    let body = serde_json::to_string_pretty(&result).expect("stream scale serializes");
    std::fs::create_dir_all("results").expect("create results/");
    // Only a full-length run updates the archived numbers; CI's small
    // smoke run (UTLB_STREAM_EPOCHS) must not clobber them.
    let dest = if epochs == DEFAULT_EPOCHS {
        "results/stream_scale.json"
    } else {
        "results/stream_scale_smoke.json"
    };
    std::fs::write(dest, &body).expect("write the stream scale result");
    eprintln!(
        "stream scale: {:.1}M lookups at {:.2} Mlookups/s, {:.1}x the baseline, \
         peak RSS {} KiB → {dest}",
        result.streamed_lookups as f64 / 1e6,
        result.streamed_mlookups_per_sec,
        result.scale_factor,
        result
            .peak_rss_after_stream_kb
            .map_or_else(|| "n/a".to_string(), |k| k.to_string()),
    );
}
