//! `flood-benchmark`: one command, four workloads, end-to-end and per-layer
//! numbers. See `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.

mod compare;
mod gen;
mod record;
mod stats;
mod sut;
mod trace;
mod workloads;

use gen::Workload;
use record::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunCfg;

const USAGE: &str = "\
usage: flood-benchmark <command>

  run [--seed N] [--seconds S] [--smoke] [--out DIR]
        all four workloads, untraced then traced; prints every metric and
        writes DIR/results.json and DIR/spans.jsonl (DIR defaults to .)
  bench --workload NAME --seed N --seconds S --trace 0|1
        one workload in one mode; the last line of standard output is the
        result object BENCHMARK.json's contract describes
  compare A.json B.json
        is B a regression against A? exit 1 if so, 2 if not comparable
  calibrate --out FILE
        measure this machine once and write the cost-model fixture
  manifest
        print BENCHMARK.json as generated from the metric tables

workloads: olap_resident narrow_lookup drift_adapt tiered_mixed";

/// `--seconds` when `run` is not told otherwise: `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("calibrate") => calibrate(&args[1..]),
        Some("manifest") => {
            print!("{}", record::manifest(RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--flag`s, checked against what the
/// command accepts.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it.next().ok_or(format!("{a} needs a value\n\n{USAGE}"))?;
                out.push((a.clone(), Some(v.clone())));
            } else if bare.contains(&a.as_str()) {
                out.push((a.clone(), None));
            } else {
                return Err(format!("unexpected argument {a}\n\n{USAGE}"));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.text(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{name}: cannot parse {v:?} as a whole number"))
            })
            .transpose()
    }

    fn required(&self, name: &str) -> Result<u64, String> {
        self.number(name)?
            .ok_or(format!("{name} is required\n\n{USAGE}"))
    }
}

/// Scratch space for cold segments: beside the executable, so inside the
/// build directory of whichever checkout is being measured.
fn tmp_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("an executable sits in a directory")
        .join(format!("flood-benchmark-tmp-{}", std::process::id()))
}

fn print_metrics(outcome: &record::Outcome, defs: &[record::MetricDef]) {
    for d in defs {
        if let Some(v) = outcome.metrics.get(d.name) {
            println!("  {:<30} {:>16.4} {}", d.name, v, d.unit);
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--out"], &["--smoke"])?;
    let seed = flags.number("--seed")?.unwrap_or(42);
    let seconds = flags.number("--seconds")?.unwrap_or(RUN_SECONDS).max(1);
    let smoke = flags.has("--smoke");
    let out = PathBuf::from(flags.text("--out").unwrap_or("."));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let mut records = Vec::new();
    let mut spans_jsonl = String::new();
    let mut failed = 0;
    for workload in Workload::ALL {
        let cfg = |trace| RunCfg {
            workload,
            seed,
            seconds,
            smoke,
            trace,
            tmp: tmp_dir(),
        };
        println!("== {} (seed {seed})", workload.name());
        let (untraced, _) = workloads::run(&cfg(false));
        println!(
            " end to end (tracing off): {} operations, {} failed, fingerprint {}, checksum {}",
            untraced.attempted,
            untraced.failed,
            untraced.input_fingerprint,
            untraced.result_checksum
        );
        print_metrics(&untraced, END_TO_END);
        for l in &untraced.layouts {
            println!(
                "  layout epoch {}: order {:?} sort d{} cols {:?} collapsed {:?}",
                l.epoch, l.order, l.sort_dim, l.cols, l.collapsed
            );
        }
        let (traced, spans) = workloads::run(&cfg(true));
        println!(
            " per layer (traced run): {} operations, {} failed, {} spans",
            traced.attempted,
            traced.failed,
            spans.len()
        );
        print_metrics(&traced, PER_LAYER);
        println!(" what the workload stresses:");
        for (name, v) in &traced.checks {
            println!("  {name:<50} {v:>8.4}");
        }
        failed += untraced.failed + traced.failed;
        spans_jsonl.push_str(&trace::to_jsonl(workload.name(), &spans));
        records.push((workload, record::workload_value(&untraced, &traced)));
    }
    let doc = record::results_value(record::machine_value(seed, seconds, smoke), records);
    let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
    let write = |name: &str, text: &str| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("results.json", &text)?;
    write("spans.jsonl", &spans_jsonl)?;
    println!("wrote {0}/results.json and {0}/spans.jsonl", out.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} operations failed");
        ExitCode::FAILURE
    })
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let name = flags
        .text("--workload")
        .ok_or(format!("--workload is required\n\n{USAGE}"))?;
    let workload =
        Workload::from_name(name).ok_or(format!("unknown workload {name}\n\n{USAGE}"))?;
    let trace = match flags.required("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let (outcome, _) = workloads::run(&RunCfg {
        workload,
        seed: flags.required("--seed")?,
        seconds: flags.required("--seconds")?.max(1),
        smoke: false,
        trace,
        tmp: tmp_dir(),
    });
    let defs = if trace { PER_LAYER } else { END_TO_END };
    // Wrong answers are reported in the line (`correct`, `failed`), not
    // through the exit code: the driver reads the line only on exit 0.
    println!("{}", record::result_line(&outcome, defs));
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n\n{USAGE}"));
    };
    let load = |path: &String| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::report(&rows) {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        println!("B is not as good as A");
        ExitCode::FAILURE
    })
}

fn calibrate(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--out"], &[])?;
    let out = flags
        .text("--out")
        .ok_or(format!("--out is required\n\n{USAGE}"))?;
    // The harness's release settings: 50 k uniform rows over 4 dimensions,
    // 30 queries filtering 1–4 of them at 0.1 / 1 / 10 % selectivity.
    let mut rng = gen::Rng::stream(0xCA11B, 1);
    let columns: Vec<Vec<u64>> = (0..4)
        .map(|_| (0..50_000).map(|_| rng.below(1_000_000)).collect())
        .collect();
    let queries: Vec<gen::Query> = (0..30)
        .map(|i| {
            let k = 1 + i % 4;
            let per_dim = [0.001f64, 0.01, 0.1][(i / 4) % 3].powf(1.0 / k as f64);
            let mut bounds = vec![None; 4];
            for b in bounds.iter_mut().take(k) {
                let width = (per_dim * 1_000_000.0) as u64;
                let lo = rng.below(1_000_000 - width);
                *b = Some((lo, lo + width));
            }
            gen::Query { bounds }
        })
        .collect();
    let json = sut::calibrate_cost_model(&columns, &queries);
    std::fs::write(out, json + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
