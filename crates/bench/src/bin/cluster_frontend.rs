//! Clustered request-plane churn: a million simulated peers homed over
//! N boards, re-homed by `Frame::Redirect` when a board's registration
//! SRAM runs out, priced on the shared host-memory / I/O-bus / interrupt
//! stations — capacity and tail latency over a boards × homing-policy ×
//! mechanism grid, archived to `results/cluster_frontend.json`.
//!
//! `UTLB_CLUSTER_FRONTEND_CONNS` caps the connection count (CI smoke runs
//! use a small value); a capped run writes
//! `results/cluster_frontend_smoke.json` instead so the archived
//! full-churn numbers are never clobbered.

use utlb_sim::experiments::{cluster_frontend, CLUSTER_FRONTEND_CONNS, CLUSTER_FRONTEND_NODES};

/// NIC cache entries — the paper's default study point.
const CACHE_ENTRIES: usize = 8192;

fn main() {
    let cap: Option<usize> = std::env::var("UTLB_CLUSTER_FRONTEND_CONNS")
        .ok()
        .and_then(|v| v.parse().ok());
    let connections = cap.unwrap_or(CLUSTER_FRONTEND_CONNS);
    assert!(connections > 0, "need at least one connection");

    eprintln!(
        "cluster_frontend: {connections} connections over {CLUSTER_FRONTEND_NODES:?} boards \
         × 2 homing policies × 4 mechanisms..."
    );
    let result = cluster_frontend(CACHE_ENTRIES, connections, &CLUSTER_FRONTEND_NODES);
    println!("{result}");

    let body = serde_json::to_string_pretty(&result).expect("cluster frontend serializes");
    std::fs::create_dir_all("results").expect("create results/");
    let dest = if cap.is_none() {
        "results/cluster_frontend.json"
    } else {
        "results/cluster_frontend_smoke.json"
    };
    std::fs::write(dest, &body).expect("write the cluster frontend result");
    eprintln!(
        "cluster_frontend: {} cells, detail at {} boards ({} homing) → {dest}",
        result.cells.len(),
        result.detail.nodes,
        result.detail.homing,
    );
}
