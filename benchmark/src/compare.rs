//! `compare A.json B.json`: is B a regression against A?
//!
//! Applies each end-to-end metric's bound and direction, requires
//! everything that must repeat exactly — result checksums, learned
//! layouts, count-type metrics — to be equal, and refuses outright when
//! the two records did not measure the same inputs.

use crate::record::{field, number, Better, MetricDef, END_TO_END, PER_LAYER};
use serde::Value;

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// Must repeat exactly and did not.
    Differs,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    /// `(b - a) / a`, when both are numbers and `a` is not 0.
    pub delta: Option<f64>,
    pub verdict: Verdict,
}

/// Judge one timing: B against A under `def`'s direction and bound.
pub fn judge(def: &MetricDef, a: f64, b: f64) -> Verdict {
    if def.exact {
        return if a == b {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
    }
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let worse = match def.better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    };
    if worse {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn metric_value(workload: &Value, section: &str, name: &str) -> Option<f64> {
    field(field(field(workload, section)?, name)?, "value").and_then(number)
}

fn render(v: Option<&Value>) -> String {
    v.map_or("missing".into(), |v| {
        serde_json::to_string(v).unwrap_or_else(|_| "?".into())
    })
}

/// Compare two `results.json` documents. `Err` when they cannot be
/// compared at all (different inputs, missing workloads).
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(field(doc, "workloads")
            .and_then(Value::as_map)
            .ok_or("no `workloads` object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, va) in &wa {
        let vb = &wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("workload {name} is missing from the second record"))?
            .1;
        let (fa, fb) = (
            field(va, "input_fingerprint"),
            field(vb, "input_fingerprint"),
        );
        if fa.is_none() || fa != fb {
            return Err(format!(
                "{name}: input_fingerprint differs ({} vs {}) — not the same inputs, nothing to compare",
                render(fa),
                render(fb)
            ));
        }
        let mut exact = |metric: &str, xa: Option<&Value>, xb: Option<&Value>| {
            rows.push(Row {
                workload: name.clone(),
                metric: metric.into(),
                a: render(xa),
                b: render(xb),
                delta: None,
                verdict: if xa.is_some() && xa == xb {
                    Verdict::Ok
                } else {
                    Verdict::Differs
                },
            });
        };
        exact(
            "result_checksum",
            field(va, "result_checksum"),
            field(vb, "result_checksum"),
        );
        exact("layouts", field(va, "layouts"), field(vb, "layouts"));
        let failed = |v: &Value| field(v, "failed_frac").and_then(number);
        let (xa, xb) = (failed(va), failed(vb));
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_frac".into(),
            a: format!("{xa:?}"),
            b: format!("{xb:?}"),
            delta: None,
            verdict: match (xa, xb) {
                (Some(xa), Some(xb)) if xb <= xa => Verdict::Ok,
                _ => Verdict::Regression,
            },
        });
        let sections = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)];
        for (section, defs) in sections {
            // Per-layer timings carry no bound: only what must repeat
            // exactly is judged there.
            for def in defs.iter().filter(|d| d.bound.is_some() || d.exact) {
                let xa = metric_value(va, section, def.name);
                let xb = metric_value(vb, section, def.name);
                let (verdict, delta) = match (xa, xb) {
                    (Some(xa), Some(xb)) => {
                        (judge(def, xa, xb), (xa != 0.0).then(|| (xb - xa) / xa))
                    }
                    _ => (Verdict::Differs, None),
                };
                rows.push(Row {
                    workload: name.clone(),
                    metric: def.name.into(),
                    a: xa.map_or("missing".into(), |x| format!("{x:.4}")),
                    b: xb.map_or("missing".into(), |x| format!("{x:.4}")),
                    delta,
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// Print one row per (workload, metric); returns whether B passes.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<28} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "A", "B", "delta"
    );
    for r in rows {
        let clip = |s: &str| -> String { s.chars().take(18).collect() };
        println!(
            "{:<14} {:<28} {:>18} {:>18} {:>9}  {}",
            r.workload,
            r.metric,
            clip(&r.a),
            clip(&r.b),
            r.delta
                .map_or("-".into(), |d| format!("{:+.1}%", d * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Differs => "DIFFERS",
            }
        );
    }
    rows.iter().all(|r| r.verdict == Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::record::{results_value, workload_value, Metrics, Outcome};

    fn record(
        fingerprint: &str,
        checksum: &str,
        p50: f64,
        qps: f64,
        swaps: f64,
        failed: u64,
    ) -> Value {
        let mut untraced = Outcome {
            attempted: 100,
            failed,
            input_fingerprint: fingerprint.into(),
            result_checksum: checksum.into(),
            ..Default::default()
        };
        for d in END_TO_END {
            untraced.metrics.set(d.name, 10.0);
        }
        untraced.metrics.set("query_p50_us", p50);
        untraced.metrics.set("throughput_qps", qps);
        let mut traced = Outcome {
            attempted: 100,
            metrics: Metrics::default(),
            ..Default::default()
        };
        for d in PER_LAYER {
            traced.metrics.set(d.name, 1.0);
        }
        traced.metrics.set("serve.swaps", swaps);
        results_value(
            Value::Null,
            vec![(Workload::DriftAdapt, workload_value(&untraced, &traced))],
        )
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
            .clone()
    }

    #[test]
    fn bound_and_direction() {
        let bound = |name: &str| {
            let def = END_TO_END.iter().find(|d| d.name == name).unwrap();
            def.bound.unwrap()
        };
        let base = record("f", "c", 100.0, 1000.0, 6.0, 0);
        // Lower is better: just inside the bound passes, just outside
        // fails, any improvement passes.
        let b = bound("query_p50_us");
        let inside = record("f", "c", 100.0 * (1.0 + b - 0.01), 1000.0, 6.0, 0);
        assert!(report(&compare(&base, &inside).unwrap()));
        let outside = record("f", "c", 100.0 * (1.0 + b + 0.01), 1000.0, 6.0, 0);
        let rows = compare(&base, &outside).unwrap();
        assert_eq!(verdict_of(&rows, "query_p50_us"), Verdict::Regression);
        assert!(!report(&rows));
        let rows = compare(&base, &record("f", "c", 50.0, 1000.0, 6.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "query_p50_us"), Verdict::Ok);
        // Higher is better: a fall past the bound fails, a rise never does.
        let b = bound("throughput_qps");
        let fallen = record("f", "c", 100.0, 1000.0 * (1.0 - b - 0.01), 6.0, 0);
        let rows = compare(&base, &fallen).unwrap();
        assert_eq!(verdict_of(&rows, "throughput_qps"), Verdict::Regression);
        let rows = compare(&base, &record("f", "c", 100.0, 2000.0, 6.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "throughput_qps"), Verdict::Ok);
    }

    #[test]
    fn exact_things_must_be_equal() {
        let base = record("f", "c", 100.0, 1000.0, 6.0, 0);
        let rows = compare(&base, &record("f", "other", 100.0, 1000.0, 6.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "result_checksum"), Verdict::Differs);
        let rows = compare(&base, &record("f", "c", 100.0, 1000.0, 7.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "serve.swaps"), Verdict::Differs);
        // A per-layer timing has no bound and is not judged at all.
        assert!(rows.iter().all(|r| r.metric != "serve.execute_ns"));
        let rows = compare(&base, &record("f", "c", 100.0, 1000.0, 6.0, 1)).unwrap();
        assert_eq!(verdict_of(&rows, "failed_frac"), Verdict::Regression);
    }

    #[test]
    fn different_inputs_are_refused() {
        let err = compare(
            &record("f", "c", 100.0, 1000.0, 6.0, 0),
            &record("g", "c", 100.0, 1000.0, 6.0, 0),
        )
        .unwrap_err();
        assert!(err.contains("input_fingerprint differs"), "{err}");
    }
}
