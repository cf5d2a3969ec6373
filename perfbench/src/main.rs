//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|sweep|churn|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs closed-loop passes of one workload until `--seconds` have elapsed
//! (the pass in flight finishes). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes of the same
//! work and reports the per-layer metrics, the tracing overhead, and
//! whether both kinds of pass produced the same simulated digest. Stdout
//! ends with a provenance line and then the result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use perfbench::{
    end_to_end, pass, peak_rss_mb, per_layer, sweep_workers, Metric, Pass, Size, Workload,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment variables the simulator reads at run time. The benchmark
/// records and then clears them, so ambient settings cannot change what
/// it measures.
const AMBIENT: [&str; 2] = ["UTLB_SIM_THREADS", "UTLB_SWEEP_CHECKPOINT"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `git describe` of the working directory when it is a git checkout.
fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream|sweep|churn|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let ambient: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("UTLB_"))
        .collect();
    for var in AMBIENT {
        std::env::remove_var(var);
    }

    let size = Size::full();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced = Pass::default();
    let mut traced = Pass::default();
    let mut digests = Vec::new();
    let mut passes = 0u64;
    loop {
        let u = pass(args.workload, &size, args.seed, false);
        digests.push(u.digest);
        untraced.absorb(u);
        if args.trace {
            let t = pass(args.workload, &size, args.seed, true);
            digests.push(t.digest);
            traced.absorb(t);
        }
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Every pass replays the same seed, traced or not: one digest.
    let mut all = untraced;
    all.attempted += 1;
    if digests.iter().any(|&d| d != digests[0]) {
        all.failed += 1;
        all.failures.push(format!(
            "simulated digests differ across passes: {digests:x?}"
        ));
    }
    let metrics: Vec<Metric> = if args.trace {
        per_layer(&traced, &all)
    } else {
        end_to_end(&all, peak_rss_mb())
    };
    let step_samples = all.steps_ms.len();
    let mut speeds = all.speeds.clone();
    speeds.sort_by(f64::total_cmp);
    let host_speed = speeds.get(speeds.len() / 2).copied().unwrap_or(0.0);
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    all.failures.extend(traced.failures);

    for f in &all.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    for m in &metrics {
        eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let ambient_json: Vec<String> = ambient
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"passes\": {passes}, \"step_samples\": {step_samples}, \"digest\": \"{:016x}\", \
         \"host_speed\": {}, \
         \"available_parallelism\": {}, \"sweep_workers\": {}, \"build_profile\": {}, \
         \"git_describe\": {}, \"wall_s\": {}, \"utlb_env\": {{{}}}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        digests[0],
        json_num(host_speed),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        sweep_workers(),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&git_describe()),
        json_num(wall_s),
        ambient_json.join(", "),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all.failed == 0,
        all.attempted,
        all.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
