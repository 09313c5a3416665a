//! §6 lookup-latency comparison: time to *identify* the relevant cells /
//! pages, excluding scanning — "Flood with flattening takes 0.46ms to
//! identify relevant grid cells (excluding refinement), while the k-d tree
//! and hyperoctree take 8.9ms (20×) and 1.8ms (4×) to identify matching
//! pages".
//!
//! Flood's side is its projection phase (per the paper, refinement
//! excluded); the trees' side is their traversal — the time they take to
//! plan a query, Table 2's IT.

use crate::harness::{index_dims, Baseline, Harness};
use flood_data::DatasetKind;

/// Run the comparison on TPC-H; returns (name, identification ms/query).
pub fn compare(h: &Harness) -> Vec<(String, f64)> {
    let (ds, w) = h.dataset(DatasetKind::TpcH);
    let per_query_ms = 1e3 / w.test.len().max(1) as f64;

    // Flood: projection time only.
    let (flood, _) = h.learn_flood(&ds.table, &w.train);
    let projection_ns: u64 = (h.profile(&flood, &w.test, 1).iter())
        .map(|(_, times)| times.projection_ns)
        .sum();
    let mut out = vec![(
        "Flood".to_string(),
        projection_ns as f64 / 1e9 * per_query_ms,
    )];

    // Trees: traversal time.
    let dims = index_dims(&ds.table, &w.train);
    for b in [Baseline::KdTree, Baseline::Hyperoctree] {
        let (tree, _) = (h.build_baseline(b, &ds.table, &dims, None)).expect("trees build");
        let r = h.drive(&tree, &w.test, None);
        out.push((r.index, r.index_time.as_secs_f64() * per_query_ms));
    }
    out
}

/// Print it.
pub fn run(h: &Harness) {
    println!("\n=== §6: cell/page identification latency (tpc-h) ===");
    let rows = compare(h);
    let flood = rows[0].1;
    println!("{:<14} {:>16} {:>10}", "index", "identify (ms)", "vs Flood");
    for (name, it) in &rows {
        println!("{name:<14} {it:>16.4} {:>9.1}x", it / flood.max(1e-9));
    }
}
