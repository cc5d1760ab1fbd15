//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload strong_suite|serve_cold|serve_hot --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference 0,1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in
//! this process and prints, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set of `BENCHMARK.json`; with `--trace 1`
//! a traced run reports the per-layer set instead, and writes its spans
//! to `perfbench/out/`. `perfbench/METRICS.md` defines every metric.
//!
//! The benchmark measures each layer from outside: it wraps spans around
//! its calls into the crates' public functions and adds no
//! instrumentation to the program.

mod metrics;
mod reference;
mod serve;
mod strong;
mod trace;
mod util;

use std::process::exit;

use gsim_json::{obj, Json};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured and checked.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from `BENCHMARK.json`.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer metrics whose source counter the program no longer
    /// exports: reported as missing, not as failures.
    pub missing: Vec<String>,
}

/// Where runs write traces and scratch state (ignored by git).
pub const OUT_DIR: &str = "perfbench/out";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload strong_suite|serve_cold|serve_hot --seed N \
         --seconds S --trace 0|1\n       perfbench --write-reference SEED[,SEED...]"
    );
    exit(2)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        exit(1)
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--write-reference" => {
                let seeds: Vec<u64> = value
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                return strong::write_reference(&seeds);
            }
            _ => usage(),
        }
    }
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let defs = metrics::listed(list)?;
    let report = match args.workload.as_str() {
        "strong_suite" => strong::run(&args),
        "serve_cold" => serve::run_cold(&args),
        "serve_hot" => serve::run_hot(&args),
        _ => usage(),
    }?;
    let line = obj([
        ("correct", Json::from(report.correct)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", metrics::select(&report, &defs, args.trace)?),
    ]);
    println!("{}", line.render());
    Ok(())
}
