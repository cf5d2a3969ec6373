//! Runs a JSONL trace file through both translation mechanisms and prints
//! the paper's per-lookup metrics — the simulator as a standalone tool.
//!
//! ```text
//! sim_trace <trace.jsonl> [cache_entries] [mem_limit_pages]
//! ```

use std::fs::File;
use std::io::BufReader;
use utlb_sim::RunOutputExt;
use utlb_sim::{Mechanism, Run, SimConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: sim_trace <trace.jsonl> [cache_entries] [mem_limit_pages]");
        std::process::exit(2);
    };
    let entries: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8192);
    let limit: Option<u64> = args.next().and_then(|v| v.parse().ok());

    // A trace file is user input: report what is wrong with it and exit,
    // rather than panic.
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("sim_trace: {path}: {e}");
        std::process::exit(1);
    };
    let file = File::open(&path).unwrap_or_else(|e| fail(&e));
    let trace = utlb_trace::read_jsonl(BufReader::new(file)).unwrap_or_else(|e| fail(&e));
    println!(
        "{}: {} records, {} lookups, {} footprint pages",
        trace.workload,
        trace.records.len(),
        trace.total_lookups(),
        trace.footprint_pages()
    );

    let mut sim = SimConfig::study(entries);
    sim.mem_limit_pages = limit;
    let u = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute(&trace)
        .into_sim()
        .unwrap_or_else(|e| fail(&e));
    let i = Run::new(Mechanism::Intr)
        .config(&sim)
        .execute(&trace)
        .into_sim()
        .unwrap_or_else(|e| fail(&e));
    println!("cache {entries} entries, mem limit {limit:?} pages/process\n");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>14}{:>12}",
        "mech", "check miss", "NI miss", "unpins", "interrupts", "µs/lookup"
    );
    println!(
        "{:<8}{:>12.3}{:>12.3}{:>12.3}{:>14}{:>12.2}",
        "UTLB",
        u.stats.check_miss_rate(),
        u.stats.ni_miss_rate(),
        u.stats.unpin_rate(),
        u.stats.interrupts,
        u.utlb_lookup_cost(&sim)
    );
    println!(
        "{:<8}{:>12}{:>12.3}{:>12.3}{:>14}{:>12.2}",
        "Intr",
        "-",
        i.stats.ni_miss_rate(),
        i.stats.unpin_rate(),
        i.stats.interrupts,
        i.intr_lookup_cost(&sim)
    );
}
