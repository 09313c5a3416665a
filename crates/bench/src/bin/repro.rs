//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale F] [--queries N] [--seed N] [--metrics PATH] \
//!       [--full] [--verbose]
//! repro list
//! ```
//!
//! `--scale` multiplies the default dataset sizes (1.0 ≈ 30k–200k rows per
//! dataset); `--full` switches sweeps to the paper-sized grids;
//! `--metrics PATH` dumps the process-global `flood-obs` registry as
//! Prometheus text exposition after the run (every workload bridges its
//! scan counters and its `bench` query count and latency in);
//! `--verbose` streams per-phase progress to stderr. Absolute numbers
//! differ from the paper's testbed; the reproduction target is the *shape*
//! of each result. A per-phase wall-clock summary (data gen, calibration,
//! layout optimization, index builds, query execution) prints after every
//! experiment.

use flood_bench::experiments::{ExpConfig, Experiment, EXPERIMENTS};
use flood_bench::harness::Harness;
use flood_bench::phases::Phases;
use std::process::ExitCode;
use std::time::Instant;

fn print_experiment_list() {
    eprintln!("experiments:");
    for (name, about, _) in EXPERIMENTS {
        eprintln!("  {name:<10} {about}");
    }
    eprintln!("  {:<10} everything above, in paper order", "all");
}

fn usage() {
    eprintln!(
        "usage: repro <experiment> [--scale F] [--queries N] [--seed N] \
         [--metrics PATH] [--full] [--verbose]"
    );
    eprintln!("       repro list");
    print_experiment_list();
}

/// Parse a flag value, reporting the flag name on failure instead of
/// panicking.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: cannot parse {v:?} as a number"))
}

/// Parsed command line: experiment config, `--verbose`, and the optional
/// `--metrics` output path.
fn parse_config(args: &[String]) -> Result<(ExpConfig, bool, Option<String>), String> {
    let mut cfg = ExpConfig::default();
    let mut verbose = false;
    let mut metrics: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = parse_value("--scale", it.next())?;
                if !(cfg.scale.is_finite() && cfg.scale > 0.0) {
                    return Err(format!("--scale must be positive, got {}", cfg.scale));
                }
            }
            "--queries" => {
                cfg.queries = parse_value("--queries", it.next())?;
                if cfg.queries == 0 {
                    return Err("--queries must be at least 1".to_string());
                }
            }
            "--seed" => cfg.seed = parse_value("--seed", it.next())?,
            "--metrics" => {
                let path = it.next().ok_or("--metrics needs a file path")?;
                metrics = Some(path.clone());
            }
            "--full" => cfg.full = true,
            "--verbose" | "-v" => verbose = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((cfg, verbose, metrics))
}

/// Write the process-global metrics registry as Prometheus text
/// exposition; a write failure is an error exit, not a panic.
fn write_metrics(path: &str) -> Result<(), String> {
    let text = flood_obs::metrics::global().snapshot().prometheus_text();
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("metrics exposition written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    if which == "list" || which == "--help" || which == "-h" {
        usage();
        return ExitCode::SUCCESS;
    }
    let (cfg, verbose, metrics) = match parse_config(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, _, _)| which == "all" || *name == which)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {which}\n");
        print_experiment_list();
        return ExitCode::FAILURE;
    }
    println!(
        "# repro {which} (scale={}, queries={}, seed={}, full={})",
        cfg.scale, cfg.queries, cfg.seed, cfg.full
    );
    // One harness for the run, so the cost model is calibrated once; a
    // fresh ledger per experiment, so phase time is attributed per
    // experiment and not across the suite.
    let mut harness = Harness::new(cfg, verbose);
    let t0 = Instant::now();
    for (name, _, run) in selected {
        let t = Instant::now();
        run(&harness);
        harness.phases.print_summary();
        harness.phases = Phases::new(verbose);
        println!("\n[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
    if let Some(path) = metrics {
        if let Err(e) = write_metrics(&path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if which == "all" {
        println!("\n[all done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
