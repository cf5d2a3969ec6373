//! Request-plane load sweep: N simulated peers connect to one board,
//! export buffers, and issue remote stores/fetches that each mechanism
//! translates on demand — connection churn, credit-window admission, and
//! per-mechanism throughput / tail latency over a connections × offered-
//! load grid, archived to `results/frontend.json`.
//!
//! `UTLB_FRONTEND_CONNS` caps the connection axis (CI smoke runs use a
//! small value); a capped run writes `results/frontend_smoke.json` instead
//! so the archived full-axis numbers are never clobbered.

use utlb_sim::experiments::{frontend_load, FRONTEND_CONNS};

/// NIC cache entries — the paper's default study point.
const CACHE_ENTRIES: usize = 8192;

fn main() {
    let cap: Option<usize> = std::env::var("UTLB_FRONTEND_CONNS")
        .ok()
        .and_then(|v| v.parse().ok());
    let axis: Vec<usize> = match cap {
        Some(n) => FRONTEND_CONNS.iter().copied().filter(|&x| x <= n).collect(),
        None => FRONTEND_CONNS.to_vec(),
    };
    assert!(
        !axis.is_empty(),
        "UTLB_FRONTEND_CONNS below the smallest axis point"
    );

    eprintln!(
        "frontend: request-plane sweep over {axis:?} connections × 2 loads × 4 mechanisms..."
    );
    let result = frontend_load(CACHE_ENTRIES, &axis);
    println!("{result}");

    let body = serde_json::to_string_pretty(&result).expect("frontend load serializes");
    std::fs::create_dir_all("results").expect("create results/");
    let dest = if cap.is_none() {
        "results/frontend.json"
    } else {
        "results/frontend_smoke.json"
    };
    std::fs::write(dest, &body).expect("write the frontend result");
    eprintln!(
        "frontend: {} cells across {} connection counts, detail at {} connections → {dest}",
        result.cells.len(),
        result.axes.conns_axis.len(),
        result.detail.connections
    );
}
