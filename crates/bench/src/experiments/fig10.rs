//! Fig 10: 30 random query workloads on TPC-H. Baselines stay tuned for
//! the original workload; Flood retrains its layout per workload and should
//! win at the median.

use crate::harness::{fmt_ms, index_dims, Harness};
use flood_data::workloads::random_workload;
use flood_data::{DatasetKind, WorkloadKind};

/// One workload's outcome.
pub struct Round {
    /// Flood's average query time (ms).
    pub flood_ms: f64,
    /// Best non-Flood average query time (ms).
    pub best_other_ms: f64,
    /// Seconds Flood spent re-learning + rebuilding.
    pub retrain_s: f64,
}

/// Run the rounds; returns one entry per random workload.
pub fn rounds(h: &Harness) -> Vec<Round> {
    let cfg = &h.cfg;
    let kind = DatasetKind::TpcH;
    let ds = h.generate(|| kind.generate(cfg.rows(kind), cfg.seed));
    let tuned_for = h.workload(&ds, WorkloadKind::OlapSkewed, cfg.queries);
    let fixed = h.fixed_baselines(&ds.table, &index_dims(&ds.table, &tuned_for.train));
    let agg = Some(kind.agg_dim());
    // The paper runs 30 random workloads; 6 already show the median story
    // at default scale.
    let n_rounds = if cfg.full { 30 } else { 6 };
    let keys = kind.key_dims();

    (0..n_rounds)
        .map(|round| {
            let w = random_workload(
                &ds.table,
                &keys,
                cfg.queries,
                cfg.target_selectivity(),
                cfg.seed.wrapping_add(round as u64 * 1_000 + 17),
            );
            let (flood, retrain) = h.learn_flood(&ds.table, &w.train);
            Round {
                flood_ms: h.drive(&flood, &w.test, agg).avg_ms(),
                best_other_ms: fixed
                    .iter()
                    .map(|idx| h.drive(idx, &w.test, agg).avg_ms())
                    .fold(f64::INFINITY, f64::min),
                retrain_s: retrain.as_secs_f64(),
            }
        })
        .collect()
}

/// Print per-round times and the median improvement.
pub fn run(h: &Harness) {
    println!("\n=== Fig 10: random query workloads (TPC-H) ===");
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>10}",
        "round", "flood (ms)", "best other(ms)", "speedup", "retrain(s)"
    );
    let mut speedups: Vec<f64> = Vec::new();
    for (i, r) in rounds(h).iter().enumerate() {
        let s = r.best_other_ms / r.flood_ms.max(1e-9);
        speedups.push(s);
        println!(
            "{:<8} {:>12} {:>14} {:>11.2}x {:>10.2}",
            i,
            fmt_ms(r.flood_ms),
            fmt_ms(r.best_other_ms),
            s,
            r.retrain_s
        );
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = speedups[speedups.len() / 2];
    let wins = speedups.iter().filter(|&&s| s > 1.0).count();
    println!(
        "median speedup vs best tuned baseline: {median:.2}x ({wins}/{} rounds won)",
        speedups.len()
    );
}
