//! Fig 14: the index-time / scan-time tradeoff as the number of cells
//! grows, and whether the learned optimum lands at the minimum (§7.6).
//!
//! We fix the learned layout's ordering and scale its column counts
//! proportionally, measuring per-phase times via Flood's profiled
//! execution; the optimizer's chosen cell count is reported alongside.

use crate::harness::Harness;
use flood_core::{FloodConfig, FloodIndex};
use flood_data::DatasetKind;
use flood_store::{RangeQuery, ScanStats};

/// One sweep point.
pub struct SweepPoint {
    /// Total cells of this layout.
    pub cells: usize,
    /// Average total query time (ms).
    pub total_ms: f64,
    /// Average scan time (ms).
    pub scan_ms: f64,
    /// Average index (projection + refinement) time (ms).
    pub index_ms: f64,
    /// Scan overhead.
    pub so: f64,
}

/// Measure one index over the test split with phase timing.
fn profile(h: &Harness, index: &FloodIndex, test: &[RangeQuery]) -> SweepPoint {
    let (mut scan, mut idx) = (0u64, 0u64);
    let mut stats = ScanStats::default();
    for (s, t) in h.profile(index, test, 1) {
        scan += t.scan_ns;
        idx += t.index_ns();
        stats.merge(&s);
    }
    let per_query_ms = |ns: u64| ns as f64 / 1e6 / test.len().max(1) as f64;
    SweepPoint {
        cells: index.layout().num_cells(),
        total_ms: per_query_ms(scan + idx),
        scan_ms: per_query_ms(scan),
        index_ms: per_query_ms(idx),
        so: stats.scan_overhead().unwrap_or(f64::NAN),
    }
}

/// Run the sweep; returns the points and the learned layout's cell count.
pub fn sweep(h: &Harness) -> (Vec<SweepPoint>, usize) {
    let (ds, w) = h.dataset(DatasetKind::TpcH);
    let (flood, _) = h.learn_flood(&ds.table, &w.train);
    let learned = flood.layout().clone();

    let factors: &[f64] = if h.cfg.full {
        &[1.0 / 64.0, 1.0 / 16.0, 0.25, 4.0, 16.0, 64.0]
    } else {
        &[1.0 / 16.0, 0.25, 4.0, 16.0]
    };
    let k = learned.cols().len().max(1) as f64;
    let mut points = vec![profile(h, &flood, &w.test)];
    for &f in factors {
        let per_dim = f.powf(1.0 / k);
        let cols: Vec<usize> = learned
            .cols()
            .iter()
            .map(|&c| ((c as f64 * per_dim).round() as usize).clamp(1, 8_192))
            .collect();
        let (index, _) = h.build_flood(&ds.table, learned.with_cols(cols), FloodConfig::default());
        points.push(profile(h, &index, &w.test));
    }
    // Stable, so of two layouts with the learned cell count the learned
    // one (first) is kept.
    points.sort_by_key(|p| p.cells);
    points.dedup_by_key(|p| p.cells);
    (points, learned.num_cells())
}

/// Print the cost surface.
pub fn run(h: &Harness) {
    println!("\n=== Fig 14: cells vs query/scan/index time (tpc-h) ===");
    let (points, learned_cells) = sweep(h);
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>8}",
        "cells", "query(ms)", "scan(ms)", "index(ms)", "SO"
    );
    for p in &points {
        let marker = if p.cells == learned_cells {
            "  <- learned optimum"
        } else {
            ""
        };
        println!(
            "{:>10} {:>12.3} {:>10.3} {:>10.3} {:>8.2}{marker}",
            p.cells, p.total_ms, p.scan_ms, p.index_ms, p.so
        );
    }
    let best = points
        .iter()
        .min_by(|a, b| a.total_ms.partial_cmp(&b.total_ms).expect("finite"))
        .expect("non-empty sweep");
    println!(
        "sweep minimum at {} cells ({:.3} ms); learned layout chose {} cells",
        best.cells, best.total_ms, learned_cells
    );
}
