//! §7.1 sanity check: our column store's full-scan throughput vs an ideal
//! tight loop over raw `Vec<u64>` columns (the stand-in for the paper's
//! MonetDB comparison — both run single-threaded, uncompressed scans).
//! The paper reports its store within 5% of MonetDB; ours should be within
//! a few percent of the raw loop.

use super::ExpConfig;
use flood_data::{DatasetKind, Workload, WorkloadKind};
use flood_store::{scan_filtered, CountVisitor, ScanStats};
use std::time::Instant;

/// Run the comparison; returns (store ns/row, raw ns/row).
#[allow(clippy::needless_range_loop)] // the raw loop indexes parallel columns
pub fn compare(cfg: &ExpConfig) -> (f64, f64) {
    let kind = DatasetKind::TpcH;
    let ds = crate::phases::time_phase("data-gen", || kind.generate(cfg.rows(kind), cfg.seed));
    let w = Workload::generate(
        WorkloadKind::OlapUniform,
        &ds,
        if cfg.full { 150 } else { 50 },
        cfg.target_selectivity(),
        cfg.seed,
    );
    // Raw columns for the ideal-loop variant.
    let raw: Vec<Vec<u64>> = (0..ds.table.dims())
        .map(|d| ds.table.column(d).to_vec())
        .collect();

    // Our store.
    let t0 = Instant::now();
    let mut total_store = 0u64;
    for q in &w.test {
        let mut v = CountVisitor::default();
        let mut s = ScanStats::default();
        let t = &ds.table;
        let Ok(()) = scan_filtered(t, q, 0, t.len(), None, None, &mut v, &mut s);
        total_store += v.count;
    }
    let store_ns = t0.elapsed().as_nanos() as f64 / (ds.table.len() as f64 * w.test.len() as f64);

    // Ideal loop: same access pattern, hand-rolled.
    let t0 = Instant::now();
    let mut total_raw = 0u64;
    for q in &w.test {
        let filtered = q.filtered_dims();
        let mut count = 0u64;
        'rows: for r in 0..ds.table.len() {
            for &d in &filtered {
                let v = raw[d][r];
                let (lo, hi) = q.bound(d).expect("filtered");
                if v < lo || v > hi {
                    continue 'rows;
                }
            }
            count += 1;
        }
        total_raw += count;
    }
    let raw_ns = t0.elapsed().as_nanos() as f64 / (ds.table.len() as f64 * w.test.len() as f64);
    assert_eq!(total_store, total_raw, "scan results must agree");
    (store_ns, raw_ns)
}

/// Print the ratio.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== §7.1: column-store scan throughput sanity ===");
    let (store, raw) = compare(cfg);
    println!("our store: {store:.3} ns/row/query; ideal raw loop: {raw:.3} ns/row/query");
    println!(
        "overhead: {:+.1}% (paper reports within 5% of MonetDB)",
        (store / raw - 1.0) * 100.0
    );
}
