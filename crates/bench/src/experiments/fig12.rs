//! Fig 12: scalability — (a) dataset size, (b) query selectivity, on TPC-H.

use crate::harness::{fmt_ms, Baseline, Harness};
use flood_data::{Dataset, DatasetKind, Workload, WorkloadKind};

const KIND: DatasetKind = DatasetKind::TpcH;

/// One sweep point: every index but the R\*-tree over `ds`, on one line.
fn point(h: &Harness, label: String, ds: &Dataset, w: &Workload) {
    let results = h.compare_all(&ds.table, w, Some(KIND.agg_dim()), &[Baseline::RStarTree]);
    print!("{label}");
    for r in &results {
        print!(" {}={}", r.short_name(), fmt_ms(r.avg_ms()));
    }
    println!();
}

/// (a) Query time as the dataset grows; Flood should scale sub-linearly.
pub fn run_sizes(h: &Harness) {
    let base = h.cfg.rows(KIND);
    let mut sizes = vec![base / 16, base / 4, base];
    if h.cfg.full {
        sizes.push(base * 4);
    }
    println!("\n--- Fig 12a: varying dataset size (tpc-h) ---");
    for n in sizes {
        let ds = h.generate(|| KIND.generate(n, h.cfg.seed));
        let w = h.workload(&ds, WorkloadKind::OlapSkewed, h.cfg.queries);
        point(h, format!("n={n:<9}"), &ds, &w);
    }
}

/// (b) Query time as selectivity varies from 0.001% to 10%.
pub fn run_selectivity(h: &Harness) {
    let cfg = &h.cfg;
    let ds = h.generate(|| KIND.generate(cfg.rows(KIND), cfg.seed));
    // The paper sweeps 0.001%–10%; three decades around the default 0.1%
    // already show the trend, --full restores the ends.
    let targets: &[f64] = if cfg.full {
        &[1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    } else {
        &[1e-4, 1e-3, 1e-2]
    };
    println!("\n--- Fig 12b: varying query selectivity (tpc-h) ---");
    for &t in targets {
        let w = Workload::generate(WorkloadKind::OlapSkewed, &ds, cfg.queries, t, cfg.seed);
        point(h, format!("sel={t:<8.0e}"), &ds, &w);
    }
}

/// Both panels.
pub fn run(h: &Harness) {
    println!("\n=== Fig 12: scalability ===");
    run_sizes(h);
    run_selectivity(h);
}
