//! The `repro` binary's command-line contract: bad input never panics, it
//! prints the experiment list and exits non-zero; `list` documents every
//! experiment.

use flood_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: repro"));
}

#[test]
fn list_shows_every_experiment_and_succeeds() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let err = stderr(&out);
    let names = EXPERIMENTS.iter().map(|(name, _, _)| *name);
    for name in names.chain(["all"]) {
        assert!(err.contains(name), "`repro list` must mention {name}");
    }
}

#[test]
fn unknown_experiment_prints_list_and_fails() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown experiment: fig99"));
    assert!(err.contains("experiments:"), "must print the list: {err}");
}

#[test]
fn bad_scale_values_fail_without_panicking() {
    for bad in [
        &["fig5", "--scale", "abc"][..],
        &["fig5", "--scale", "-1"],
        &["fig5", "--scale", "0"],
        &["fig5", "--scale"],
        &["fig5", "--queries", "0"],
        &["fig5", "--seed", "x"],
    ] {
        let out = repro(bad);
        assert!(!out.status.success(), "{bad:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("error:") && !err.contains("panicked"),
            "{bad:?} must report a parse error, got: {err}"
        );
        assert!(err.contains("usage: repro"), "bad flags must print usage");
    }
}

#[test]
fn metrics_flag_writes_prometheus_exposition() {
    let dir = std::env::temp_dir().join(format!("repro-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.prom");
    let path_s = path.to_str().expect("utf-8 path");
    // `lookup` drives its trees through `Harness::drive`, which bridges each
    // workload's scan counters and its query count and latency into the
    // process-global registry.
    let out = repro(&[
        "lookup",
        "--scale",
        "0.02",
        "--queries",
        "4",
        "--metrics",
        path_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("exposition written");
    for needle in [
        "# TYPE flood_scan_points_scanned_total counter",
        "flood_scan_points_scanned_total ",
        "flood_bench_queries_total ",
        "# TYPE flood_bench_workload_ns summary",
        "flood_bench_workload_ns{quantile=\"0.5\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_requires_a_path() {
    let out = repro(&["fig5", "--metrics"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--metrics needs a file path"));
}

#[test]
fn metrics_write_failure_is_an_error_exit() {
    let out = repro(&[
        "fig5",
        "--scale",
        "0.02",
        "--queries",
        "4",
        "--metrics",
        "/nonexistent-dir/metrics.prom",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot write"), "{}", stderr(&out));
}

#[test]
fn unknown_flag_fails() {
    // `--json` went with the perf ledger: a script still passing it must
    // fail loudly, not run without its artifact.
    for flag in ["--bogus", "--json"] {
        let out = repro(&["fig5", flag, "x"]);
        assert!(!out.status.success());
        assert!(stderr(&out).contains(&format!("unknown flag: {flag}")));
    }
}

/// README's "Running the experiments" table lists the registry, in order,
/// then `all`.
#[test]
fn readme_table_lists_the_registry() {
    let readme = include_str!("../../../README.md");
    let (_, section) = readme
        .split_once("## Running the experiments")
        .expect("README has the section");
    let section = section.split("\n## ").next().expect("non-empty");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let names = EXPERIMENTS.iter().map(|(name, _, _)| *name);
    assert_eq!(documented, names.chain(["all"]).collect::<Vec<_>>());
}
