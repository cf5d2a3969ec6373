//! The benchmark checks itself on a seed its measured runs never use:
//! every workload, at a reduced size, must pass all of its output checks,
//! and a traced pass must reproduce the untraced pass's simulated digest.

use perfbench::{end_to_end, pass, per_layer, Pass, Size, Workload};

/// A seed no benchmark run is expected to use.
const HELD_OUT_SEED: u64 = 0x7E57_5EED;

fn checked(workload: Workload, trace: bool) -> Pass {
    let p = pass(workload, &Size::small(), HELD_OUT_SEED, trace);
    assert!(p.attempted > 0, "{}: nothing attempted", workload.name());
    assert_eq!(
        p.failed,
        0,
        "{} (trace {trace}): {:?}",
        workload.name(),
        p.failures
    );
    p
}

#[test]
fn every_workload_passes_its_checks_and_tracing_is_observational() {
    for workload in Workload::ALL {
        let untraced = checked(workload, false);
        let traced = checked(workload, true);
        assert_eq!(
            untraced.digest,
            traced.digest,
            "{}: tracing changed a simulated result",
            workload.name()
        );
        assert!(untraced.lookups > 0 && untraced.timed_ns > 0);
        assert!(!untraced.setup_s.is_empty() && !untraced.steps_ms.is_empty());
        assert!(
            traced.layers.len() > untraced.layers.len(),
            "{}: no spans recorded",
            workload.name()
        );
    }
}

/// Metric names in `BENCHMARK.json` order, read without a JSON parser:
/// every `"name": "<value>"` pair of one section.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn reported_metrics_match_the_benchmark_definition() {
    let mut untraced = Pass::default();
    untraced.absorb(checked(Workload::Serve, false));
    let mut traced = Pass::default();
    traced.absorb(checked(Workload::Serve, true));

    let e2e: Vec<String> = end_to_end(&untraced, 1.0)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(e2e, declared("end_to_end"));
    let layers: Vec<String> = per_layer(&traced, &untraced)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(layers, declared("per_layer"));
    assert_eq!(declared("workloads"), ["stream", "sweep", "churn", "serve"]);
}
