//! Metric names, units and bounds — the single list the binary reports
//! from, mirrored by `../BENCHMARK.json` (a self-test keeps the two equal)
//! — and the JSON shapes of `results.json` and the driver's result line.

use crate::gen::Workload;
use crate::sut::LayoutDesc;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// before `compare` calls it a regression; `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
    /// Timings vary run to run; everything else must repeat exactly for
    /// the same seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("query_p50_us", "us", Lower, 0.25, false),
    e2e("query_p99_us", "us", Lower, 0.25, false),
    e2e("throughput_qps", "ops/s", Higher, 0.25, false),
    e2e("batch_qps", "queries/s", Higher, 0.25, false),
    e2e("epoch_swap_ms", "ms", Lower, 0.25, false),
    e2e("bytes_per_row", "B/row", Lower, 0.10, true),
    e2e("scan_overhead", "ratio", Lower, 0.10, true),
];

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

const fn rate(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// Single layers, from the traced run. The layers are the crates.
pub const PER_LAYER: &[MetricDef] = &[
    // serve: the resident front end.
    time("serve.execute_ns", "ns"),
    time("serve.self_ns", "ns"),
    time("serve.snapshot_ns", "ns"),
    time("serve.publish_us", "us"),
    time("serve.adapt_kept_ms", "ms"),
    time("serve.adapt_swapped_ms", "ms"),
    count("serve.swaps", "count", Higher),
    count("serve.checks", "count", Lower),
    count("serve.stale_queries", "count", Lower),
    // serve: the tiered front end.
    time("serve.tiered_self_ns", "ns"),
    count("serve.retried", "count", Lower),
    count("serve.degraded", "count", Lower),
    // core, query side (per-query means).
    time("core.execute_ns", "ns"),
    time("core.plan_ns", "ns"),
    count("core.cells_projected", "count", Lower),
    count("core.refinements", "count", Lower),
    count("core.ranges_scanned", "count", Lower),
    // core, learning a layout.
    time("core.sample_flatten_ms", "ms"),
    time("core.search_ms", "ms"),
    count("core.cost_evals", "count", Lower),
    count("core.memo_hit_rate", "ratio", Higher),
    count("core.dim_reuse_rate", "ratio", Higher),
    count("core.relearns", "count", Lower),
    count("core.sample_flattens", "count", Lower),
    count("core.cross_relearn_hits", "count", Higher),
    // core, building an index.
    time("core.build_ms", "ms"),
    time("core.build_flatten_ms", "ms"),
    time("core.build_sort_ms", "ms"),
    time("core.build_models_ms", "ms"),
    count("core.index_bytes", "B", Lower),
    count("core.cells_nonempty", "count", Higher),
    count("core.fds_active", "count", Higher),
    // core, the cost model against the clock.
    rate("core.predicted_over_actual", "ratio", Lower),
    // learned: micro-loops over the workload's own sort column.
    time("learned.rmi_build_ms", "ms"),
    time("learned.rmi_cdf_ns", "ns"),
    time("learned.plm_build_ms", "ms"),
    time("learned.plm_lookup_ns", "ns"),
    time("learned.forest_predict_ns", "ns"),
    // store: the resident scan kernels.
    time("store.scan_ns", "ns"),
    count("store.points_scanned", "count", Lower),
    count("store.points_matched", "count", Higher),
    count("store.exact_frac", "ratio", Higher),
    count("store.blocks_skipped", "count", Higher),
    count("store.blocks_accepted", "count", Higher),
    count("store.blocks_probed", "count", Lower),
    count("store.data_bytes", "B", Lower),
    // store.tier: cold segments behind the cache.
    time("tier.try_execute_ns", "ns"),
    time("tier.backend_get_us", "us"),
    count("tier.backend_gets", "count", Lower),
    count("tier.backend_bytes_read", "B", Lower),
    count("tier.backend_bytes_written", "B", Lower),
    count("tier.write_amp", "ratio", Lower),
    count("tier.faults", "count", Lower),
    count("tier.hits", "count", Higher),
    count("tier.evictions", "count", Lower),
    count("tier.hit_rate", "ratio", Higher),
    count("tier.segments_skipped", "count", Higher),
    time("tier.insert_ns", "ns"),
    time("tier.compact_ms", "ms"),
    count("tier.cold_frac", "ratio", Higher),
    rate("tier.ingest_rows_per_s", "rows/s", Higher),
    // exec: the pool under the batched path.
    rate("exec.batch_qps_t1", "queries/s", Higher),
    rate("exec.batch_qps_t2", "queries/s", Higher),
    time("exec.partitioned_us", "us"),
    count("exec.pool_tasks", "count", Lower),
    rate("exec.pool_busy_frac", "ratio", Higher),
    // obs: the instrumentation the query path carries.
    time("obs.snapshot_us", "us"),
    time("obs.hist_record_ns", "ns"),
    count("obs.counter_drift", "count", Lower),
    // baselines: reference only.
    time("baselines.fullscan_us", "us"),
    rate("baselines.flood_speedup", "ratio", Higher),
    // bench: the benchmark observing itself.
    rate("bench.trace_overhead_pct", "%", Lower),
    time("bench.timer_ns", "ns"),
    time("bench.gen_s", "s"),
    rate("bench.peak_rss_mb", "MB", Lower),
];

/// Named measurements, in definition order once reported.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `{"name": {"value": v, "unit": u}}` object of `defs`, in
    /// definition order. Every defined metric must have been measured and
    /// nothing undefined may have been.
    pub fn to_value(&self, defs: &[MetricDef]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "undefined metric {name}"
            );
        }
        Value::Map(
            defs.iter()
                .map(|d| {
                    let v = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    (
                        d.name.to_string(),
                        Value::Map(vec![
                            ("value".into(), Value::F64(v)),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one run of one workload in one mode produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted / failed (typed errors + degraded reads +
    /// oracle mismatches).
    pub attempted: u64,
    pub failed: u64,
    pub input_fingerprint: String,
    pub result_checksum: String,
    /// Every epoch's layout, in publication order.
    pub layouts: Vec<LayoutDesc>,
    /// `(metric, min, max, samples)` across the passes or samples a
    /// reported value was picked from.
    pub spread: Vec<(&'static str, f64, f64, usize)>,
    /// Traced run only: the shares that show the workload stresses what
    /// it claims to (README, "what each workload must show").
    pub checks: Vec<(&'static str, f64)>,
}

fn map(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn seq_u(xs: &[usize]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::U64(x as u64)).collect())
}

fn layouts_value(layouts: &[LayoutDesc]) -> Value {
    Value::Seq(
        layouts
            .iter()
            .map(|l| {
                map(vec![
                    ("epoch", Value::U64(l.epoch)),
                    ("order", seq_u(&l.order)),
                    ("sort_dim", Value::U64(l.sort_dim as u64)),
                    ("cols", seq_u(&l.cols)),
                    (
                        "collapsed",
                        Value::Seq(l.collapsed.iter().map(|&(d, h)| seq_u(&[d, h])).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

/// The last line of standard output the driver reads.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let v = map(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", outcome.metrics.to_value(defs)),
    ]);
    serde_json::to_string(&v).expect("a value tree serializes")
}

/// One workload's entry in `results.json`: the untraced run's end-to-end
/// numbers and the traced run's per-layer numbers.
pub fn workload_value(untraced: &Outcome, traced: &Outcome) -> Value {
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    map(vec![
        (
            "input_fingerprint",
            Value::Str(untraced.input_fingerprint.clone()),
        ),
        (
            "result_checksum",
            Value::Str(untraced.result_checksum.clone()),
        ),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        (
            "failed_frac",
            Value::F64(failed as f64 / attempted.max(1) as f64),
        ),
        ("layouts", layouts_value(&untraced.layouts)),
        ("end_to_end", untraced.metrics.to_value(END_TO_END)),
        (
            "spread",
            Value::Map(
                untraced
                    .spread
                    .iter()
                    .map(|&(name, min, max, samples)| {
                        (
                            name.to_string(),
                            map(vec![
                                ("min", Value::F64(min)),
                                ("max", Value::F64(max)),
                                ("samples", Value::U64(samples as u64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("per_layer", traced.metrics.to_value(PER_LAYER)),
        (
            "checks",
            Value::Map(
                traced
                    .checks
                    .iter()
                    .map(|&(name, v)| (name.to_string(), Value::F64(v)))
                    .collect(),
            ),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine record written into every `results.json`.
pub fn machine_value(seed: u64, seconds: u64, smoke: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    map(vec![
        ("cpu", Value::Str(cpu)),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "pool_threads",
            Value::U64(crate::sut::pool_threads() as u64),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_sha",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("smoke", Value::Bool(smoke)),
    ])
}

pub fn results_value(machine: Value, workloads: Vec<(Workload, Value)>) -> Value {
    map(vec![
        ("schema", Value::U64(1)),
        ("machine", machine),
        (
            "workloads",
            Value::Map(
                workloads
                    .into_iter()
                    .map(|(w, v)| (w.name().to_string(), v))
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json`, generated from the tables above so the file the driver
/// reads cannot drift from what the binary prints
/// (`flood-benchmark manifest > ../BENCHMARK.json`).
pub fn manifest(run_seconds: u64) -> String {
    let strs = |xs: &[&str]| Value::Seq(xs.iter().map(|s| Value::Str(s.to_string())).collect());
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", Value::Str(d.name.into())),
            ("unit", Value::Str(d.unit.into())),
            ("better", Value::Str(d.better.as_str().into())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Value::F64(b)));
        }
        map(pairs)
    };
    let doc = map(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "bench",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Seq(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        map(vec![
                            ("name", Value::Str(w.name().into())),
                            ("why", Value::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree serializes") + "\n"
}

/// Field lookup in a parsed JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the binary prints. The committed file must be the generated one.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            manifest(crate::RUN_SECONDS),
            "regenerate with `flood-benchmark manifest`"
        );
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 * 1024);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for d in END_TO_END {
            o.metrics.set(d.name, 1.5);
        }
        let line = result_line(&o, END_TO_END);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            field(&v, "metrics").unwrap().as_map().unwrap().len(),
            END_TO_END.len()
        );
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }
}
