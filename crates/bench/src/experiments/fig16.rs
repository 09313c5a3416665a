//! Fig 16: sampling the query workload — learning time and resulting query
//! time as the optimizer's query-sample size varies (§7.7). "Since queries
//! within each type have similar characteristics … Flood only requires a
//! few queries of each type to learn a good layout."

use super::fig15::{print, sweep, SampleRow};
use crate::harness::Harness;
use flood_core::OptimizerConfig;
use flood_data::DatasetKind;

/// Run one dataset's sweep.
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<SampleRow> {
    let data = h.dataset(kind);
    let (n, n_train) = (data.0.table.len(), data.1.train.len());
    // The paper's point is that ~5 queries per type suffice; the default
    // sweep tops out at 50 learning queries, --full at the whole train set.
    let top = if h.cfg.full { n_train } else { 50 };
    let mut samples: Vec<usize> = [5usize, 10, 25, top]
        .into_iter()
        .filter(|&s| s <= n_train)
        .collect();
    samples.dedup();
    sweep(h, &data, &samples, |query_sample, trial| OptimizerConfig {
        query_sample,
        seed: h.cfg.seed.wrapping_add(100 + trial),
        ..h.cfg.optimizer(n)
    })
}

/// A handful of learning queries already finds the good layout.
pub fn run(h: &Harness) {
    println!("\n=== Fig 16: query-sample size vs learning & query time ===");
    print(h, "queries", |kind| run_dataset(h, kind));
}
