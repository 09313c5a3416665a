//! Fig 15: sampling the dataset — learning time and resulting query time as
//! the optimizer's data-sample size varies (§7.7). The sweep machinery is
//! shared with Fig 16, which varies the query sample instead.

use crate::harness::{mean_std, Harness};
use flood_core::{FloodConfig, OptimizerConfig};
use flood_data::{Dataset, DatasetKind, Workload};

/// One measurement row.
pub struct SampleRow {
    /// Sample size used for learning.
    pub sample: usize,
    /// Mean layout-learning time (s).
    pub learn_s: f64,
    /// Mean test query time (ms) and its standard deviation over trials.
    pub query_ms: (f64, f64),
}

/// For each sample size, learn under `ocfg(size, trial)` over a few trials,
/// build, and drive the test split.
pub fn sweep(
    h: &Harness,
    (ds, w): &(Dataset, Workload),
    samples: &[usize],
    ocfg: impl Fn(usize, u64) -> OptimizerConfig,
) -> Vec<SampleRow> {
    let trials: u64 = if h.cfg.full { 3 } else { 2 };
    let row = |&sample: &usize| {
        let (learns, queries): (Vec<f64>, Vec<f64>) = (0..trials)
            .map(|trial| {
                let learned = h.learn(&ds.table, &w.train, ocfg(sample, trial));
                let learn_s = learned.learn_time.as_secs_f64();
                let (index, _) = h.build_flood(&ds.table, learned.layout, FloodConfig::default());
                (learn_s, h.drive(&index, &w.test, None).avg_ms())
            })
            .unzip();
        SampleRow {
            sample,
            learn_s: mean_std(&learns).0,
            query_ms: mean_std(&queries),
        }
    };
    samples.iter().map(row).collect()
}

/// Print a sweep — the smallest and largest dataset by default, all four
/// with `--full` (each dataset repeats the same shape).
pub fn print(h: &Harness, column: &str, rows: impl Fn(DatasetKind) -> Vec<SampleRow>) {
    let kinds: &[DatasetKind] = if h.cfg.full {
        &DatasetKind::ALL
    } else {
        &[DatasetKind::Sales, DatasetKind::TpcH]
    };
    for &kind in kinds {
        println!("\n--- {} ---", kind.name());
        println!(
            "{column:>10} {:>12} {:>18}",
            "learn (s)", "query (ms ± std)"
        );
        for row in rows(kind) {
            println!(
                "{:>10} {:>12.3} {:>12.3} ± {:.3}",
                row.sample, row.learn_s, row.query_ms.0, row.query_ms.1
            );
        }
    }
}

/// Run one dataset's sweep.
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<SampleRow> {
    let data = h.dataset(kind);
    let n = data.0.table.len();
    // The paper sweeps up to the full dataset; learning time grows
    // linearly with the sample while query time stays flat, so the sweep
    // caps at a large-but-bounded sample unless --full.
    let top = if h.cfg.full { n } else { (n / 8).min(12_000) };
    let samples: Vec<usize> = [n / 200, n / 20, top]
        .into_iter()
        .filter(|&s| s >= 100)
        .collect();
    sweep(h, &data, &samples, |data_sample, trial| OptimizerConfig {
        data_sample,
        seed: h.cfg.seed.wrapping_add(trial),
        ..h.cfg.optimizer(n)
    })
}

/// Learning time grows with the sample, query time stays flat almost
/// immediately.
pub fn run(h: &Harness) {
    println!("\n=== Fig 15: data-sample size vs learning & query time ===");
    print(h, "sample", |kind| run_dataset(h, kind));
}
