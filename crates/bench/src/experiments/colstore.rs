//! §7.1 sanity check: our column store's full-scan throughput vs an ideal
//! tight loop over raw `Vec<u64>` columns (the stand-in for the paper's
//! MonetDB comparison — both run single-threaded, uncompressed scans).
//! The paper reports its store within 5% of MonetDB; ours should be within
//! a few percent of the raw loop.

use crate::harness::Harness;
use flood_data::{DatasetKind, WorkloadKind};
use flood_store::{scan_filtered, CountVisitor, ScanStats};

/// Run the comparison; returns (store ns/row, raw ns/row).
#[allow(clippy::needless_range_loop)] // the raw loop indexes parallel columns
pub fn compare(h: &Harness) -> (f64, f64) {
    let kind = DatasetKind::TpcH;
    let ds = h.generate(|| kind.generate(h.cfg.rows(kind), h.cfg.seed));
    let n_queries = if h.cfg.full { 150 } else { 50 };
    let w = h.workload(&ds, WorkloadKind::OlapUniform, n_queries);
    let t = &ds.table;
    // Raw columns for the ideal-loop variant.
    let raw: Vec<Vec<u64>> = (0..t.dims()).map(|d| t.column(d).to_vec()).collect();

    // Our store.
    let (total_store, store) = h.phases.time("query-exec", || {
        let mut total = 0u64;
        for q in &w.test {
            let mut v = CountVisitor::default();
            let mut s = ScanStats::default();
            let Ok(()) = scan_filtered(t, q, 0, t.len(), None, None, &mut v, &mut s);
            total += v.count;
        }
        total
    });

    // Ideal loop: same access pattern, hand-rolled.
    let (total_raw, ideal) = h.phases.time("query-exec", || {
        let mut total = 0u64;
        for q in &w.test {
            let filtered = q.filtered_dims();
            'rows: for r in 0..t.len() {
                for &d in &filtered {
                    let v = raw[d][r];
                    let (lo, hi) = q.bound(d).expect("filtered");
                    if v < lo || v > hi {
                        continue 'rows;
                    }
                }
                total += 1;
            }
        }
        total
    });
    assert_eq!(total_store, total_raw, "scan results must agree");
    let rows_read = t.len() as f64 * w.test.len() as f64;
    (
        store.as_nanos() as f64 / rows_read,
        ideal.as_nanos() as f64 / rows_read,
    )
}

/// Print the ratio.
pub fn run(h: &Harness) {
    println!("\n=== §7.1: column-store scan throughput sanity ===");
    let (store, raw) = compare(h);
    println!("our store: {store:.3} ns/row/query; ideal raw loop: {raw:.3} ns/row/query");
    println!(
        "overhead: {:+.1}% (paper reports within 5% of MonetDB)",
        (store / raw - 1.0) * 100.0
    );
}
