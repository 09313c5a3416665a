//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale F] [--queries N] [--seed N] [--threads N] \
//!       [--metrics PATH] [--full] [--verbose]
//! repro list
//! ```
//!
//! `--scale` multiplies the default dataset sizes (1.0 ≈ 30k–200k rows per
//! dataset); `--threads N` runs every workload through the `flood-exec`
//! pool with N workers (1 = the serial path); `--full` switches sweeps to
//! the paper-sized grids; `--metrics PATH` dumps the
//! process-global `flood-obs` registry as Prometheus text exposition after
//! the run (every workload bridges its scan counters in; serve/drift/obs
//! fold in their servers' full telemetry); `--verbose`
//! streams per-phase progress to stderr. Absolute numbers differ from the
//! paper's testbed; the reproduction target is the *shape* of each result.
//! A per-phase wall-clock summary (data gen, calibration, layout
//! optimization, index builds, query execution) prints after every run.

use flood_bench::experiments::{self as exp, ExpConfig};
use flood_bench::phases;
use std::process::ExitCode;

/// CLI name, what it reproduces, entry point.
type Experiment = (&'static str, &'static str, fn(&ExpConfig));

/// Every experiment, in paper order.
const EXPERIMENTS: &[Experiment] = &[
    ("tab1", "Table 1: dataset summary", exp::tab1::run),
    (
        "colstore",
        "§3: column-store scan kernels",
        exp::colstore::run,
    ),
    ("fig5", "Fig 5: w_s is not constant", exp::fig5::run),
    (
        "fig7",
        "Fig 7: query time, all indexes x datasets",
        exp::fig7::run,
    ),
    ("fig8", "Fig 8: index size vs query time", exp::fig8::run),
    ("fig9", "Fig 9: workload variants", exp::fig9::run),
    ("fig10", "Fig 10: 30 random workloads", exp::fig10::run),
    ("tab2", "Table 2: performance breakdown", exp::tab2::run),
    ("fig11", "Fig 11: component ablation", exp::fig11::run),
    (
        "fig12",
        "Fig 12: dataset size & selectivity scaling",
        exp::fig12::run,
    ),
    ("fig13", "Fig 13: scaling dimensions", exp::fig13::run),
    (
        "fig14",
        "Fig 14: cells vs query time surface",
        exp::fig14::run,
    ),
    ("tab3", "Table 3: cost-model transfer", exp::tab3::run),
    ("tab4", "Table 4: loading/learning time", exp::tab4::run),
    ("fig15", "Fig 15: data-sample size sweep", exp::fig15::run),
    ("fig16", "Fig 16: query-sample size sweep", exp::fig16::run),
    ("fig17", "Fig 17: per-cell CDF models", exp::fig17::run),
    (
        "costmodel",
        "§4.1.2: cost-model accuracy",
        exp::costmodel::run,
    ),
    (
        "lookup",
        "§6: cell identification latency",
        exp::lookup::run,
    ),
    (
        "threads",
        "§8: thread scaling — parallel + batched execution",
        exp::threads::run,
    ),
    (
        "optcost",
        "Fig 15/16: optimizer search cost and cache counters",
        exp::optcost::run,
    ),
    (
        "drift",
        "§8: adaptive re-learning under workload drift",
        exp::drift::run,
    ),
    (
        "serve",
        "§8: serving under live adaptation — latency across layout swaps",
        exp::serve::run,
    ),
    (
        "scanspeed",
        "§7.1+: compressed-domain scans — packed predicates vs decode-first",
        exp::scanspeed::run,
    ),
    (
        "obs",
        "flood-obs: instrumentation overhead on the query path",
        exp::obs::run,
    ),
    (
        "tiered",
        "tiered storage: larger-than-RAM tables under a memory budget",
        exp::tiered::run,
    ),
    (
        "correlate",
        "Tsunami/COAX ext: correlation-aware layouts — soft-FD collapse on/off",
        exp::correlate::run,
    ),
];

fn print_experiment_list() {
    eprintln!("experiments:");
    for (name, about, _) in EXPERIMENTS {
        eprintln!("  {name:<10} {about}");
    }
    eprintln!("  {:<10} everything above, in paper order", "all");
}

fn usage() {
    eprintln!(
        "usage: repro <experiment> [--scale F] [--queries N] [--seed N] [--threads N] \
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

/// Parsed command line: experiment config, the worker count (applied once
/// to the harness-global executor knob
/// [`flood_bench::harness::set_exec_threads`] rather than carried in
/// [`ExpConfig`]), and the optional `--metrics` output path.
fn parse_config(args: &[String]) -> Result<(ExpConfig, usize, Option<String>), String> {
    let mut cfg = ExpConfig::default();
    let mut threads = 1usize;
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
            "--threads" => {
                threads = parse_value("--threads", it.next())?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--metrics" => {
                let path = it.next().ok_or("--metrics needs a file path")?;
                metrics = Some(path.clone());
            }
            "--full" => cfg.full = true,
            "--verbose" | "-v" => phases::set_verbose(true),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((cfg, threads, metrics))
}

/// Write the process-global metrics registry as Prometheus text
/// exposition; a write failure is an error exit, not a panic.
fn write_metrics(path: &str) -> Result<(), String> {
    let text = flood_obs::metrics::global().prometheus_text();
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
    let (cfg, threads, metrics) = match parse_config(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    flood_bench::harness::set_exec_threads(threads);
    println!(
        "# repro {which} (scale={}, queries={}, seed={}, threads={}, full={})",
        cfg.scale, cfg.queries, cfg.seed, threads, cfg.full
    );
    let t0 = std::time::Instant::now();
    if which == "all" {
        for (name, _, run) in EXPERIMENTS {
            // Attribute phase time per experiment, not across the suite.
            phases::reset_phases();
            let t = std::time::Instant::now();
            run(&cfg);
            phases::print_phase_summary();
            println!("\n[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
        }
    } else {
        let Some((_, _, run)) = EXPERIMENTS.iter().find(|(name, _, _)| *name == which) else {
            eprintln!("unknown experiment: {which}\n");
            print_experiment_list();
            return ExitCode::FAILURE;
        };
        run(&cfg);
        phases::print_phase_summary();
    }
    if let Some(path) = metrics {
        if let Err(e) = write_metrics(&path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("\n[{which} done in {:.1}s]", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
