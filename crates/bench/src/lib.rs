//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts the same arguments:
//!
//! ```text
//! <binary> [--scale S] [--seed N] [--json PATH] [--obs]
//! ```
//!
//! `--scale` shrinks the Table 3 footprint/lookup targets (default 1.0, the
//! paper's sizes); `--json` archives the structured result next to the
//! printed table; `--obs` (honoured by `run_all`) reruns the headline
//! experiments with the engine probe attached and writes one
//! `results/obs_<experiment>.json` observability report per experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use utlb_trace::GenConfig;

/// Parsed command-line options shared by all regeneration binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Workload generation parameters.
    pub gen: GenConfig,
    /// Where to archive the JSON result, if requested.
    pub json: Option<PathBuf>,
    /// Where to write a CSV rendering (figure binaries only).
    pub csv: Option<PathBuf>,
    /// Whether to run the observed (probe-attached) pass and export
    /// `results/obs_<experiment>.json` reports (`run_all` only).
    pub obs: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        let mut gen = GenConfig {
            seed: 1998, // year of the paper
            scale: 1.0,
            app_processes: 4,
        };
        let mut json = None;
        let mut csv = None;
        let mut obs = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => {
                    gen.scale = value("--scale").parse().unwrap_or_else(|e| {
                        eprintln!("bad --scale: {e}");
                        std::process::exit(2);
                    })
                }
                "--seed" => {
                    gen.seed = value("--seed").parse().unwrap_or_else(|e| {
                        eprintln!("bad --seed: {e}");
                        std::process::exit(2);
                    })
                }
                "--json" => json = Some(PathBuf::from(value("--json"))),
                "--csv" => csv = Some(PathBuf::from(value("--csv"))),
                "--obs" => obs = true,
                "--help" | "-h" => {
                    println!("usage: [--scale S] [--seed N] [--json PATH] [--csv PATH] [--obs]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        BenchArgs {
            gen,
            json,
            csv,
            obs,
        }
    }

    /// Writes a CSV rendering if `--csv` was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn archive_csv(&self, csv_body: &str) {
        if let Some(path) = &self.csv {
            fs::write(path, csv_body).expect("write CSV result");
            eprintln!("csv: {}", path.display());
        }
    }

    /// Archives `result` as pretty JSON if `--json` was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — an archival run with a broken
    /// destination should fail loudly.
    pub fn archive<T: Serialize>(&self, result: &T) {
        if let Some(path) = &self.json {
            let body = serde_json::to_string_pretty(result).expect("results serialize");
            fs::write(path, body).expect("write JSON result");
            eprintln!("archived: {}", path.display());
        }
    }
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            gen: GenConfig {
                seed: 1998,
                scale: 1.0,
                app_processes: 4,
            },
            json: None,
            csv: None,
            obs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_match_paper_scale() {
        let a = BenchArgs::default();
        assert_eq!(a.gen.scale, 1.0);
        assert_eq!(a.gen.app_processes, 4);
        assert!(a.json.is_none());
        assert!(!a.obs);
    }

    #[test]
    fn archive_writes_json() {
        let dir = std::env::temp_dir().join("utlb_bench_test.json");
        let a = BenchArgs {
            json: Some(dir.clone()),
            ..BenchArgs::default()
        };
        a.archive(&vec![1, 2, 3]);
        let body = std::fs::read_to_string(&dir).unwrap();
        assert!(body.contains('1'));
        std::fs::remove_file(dir).ok();
    }
}
