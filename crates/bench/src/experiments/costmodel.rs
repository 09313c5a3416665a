//! §4.1.2 — Why use machine learning for the cost model?
//!
//! "query time predicted using a simple analytical model that replaces the
//! weight parameters of Eq. 1 with fine-tuned constants has on average 9×
//! larger difference from the true query time than our machine-learning
//! based cost model. Furthermore, predicting the weight parameters using a
//! linear regression model … produces query time predictions with 4× larger
//! difference."
//!
//! Protocol: calibrate a random-forest and a linear weight model on one set
//! of random layouts, then evaluate prediction error on *fresh* random
//! layouts (held-out), against the measured query times.

use crate::harness::Harness;
use flood_core::cost::calibration::{calibrate, random_layout, CalibrationConfig, WeightModelKind};
use flood_core::cost::features::{cell_size_quantiles, QueryStatistics};
use flood_core::{CostModel, FloodConfig};
use flood_data::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean relative error of each model: (forest, linear, constant).
pub fn errors(h: &Harness) -> (f64, f64, f64) {
    let (ds, w) = h.dataset(DatasetKind::TpcH);
    let cal = CalibrationConfig {
        n_layouts: if h.cfg.full { 10 } else { 6 },
        max_cells_log2: 13,
        reps: 2,
        seed: h.cfg.seed,
        ..Default::default()
    };
    let calibrated = |kind| {
        let cal = CalibrationConfig { kind, ..cal };
        let ((weights, _), _) = h
            .phases
            .time("calibration", || calibrate(&ds.table, &w.train, cal));
        CostModel::new(weights)
    };
    let models = [
        calibrated(WeightModelKind::Forest),
        calibrated(WeightModelKind::Linear),
        CostModel::analytic_default(),
    ];

    // Held-out layouts: different seed stream than calibration's.
    let mut rng = StdRng::seed_from_u64(h.cfg.seed ^ 0xDEAD);
    let mut errs = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..4 {
        let layout = random_layout(ds.table.dims(), &mut rng, &cal);
        let (index, _) = h.build_flood(&ds.table, layout, FloodConfig::default());
        let (avg, median, p95) = cell_size_quantiles(&index.cell_sizes());
        let total_cells = index.layout().num_cells() as f64;
        let sort_dim = index.layout().sort_dim();
        // Best-of-2 to denoise the "true" time.
        for (q, (stats, times)) in w.test.iter().zip(h.profile(&index, &w.test, 2)) {
            let true_ns = times.total_ns();
            if true_ns == 0 {
                continue;
            }
            let ns = (stats.points_scanned + stats.points_in_exact_ranges) as f64;
            let qstats = QueryStatistics {
                nc: stats.cells_projected as f64,
                ns,
                total_cells,
                avg_cell_size: avg,
                median_cell_size: median,
                p95_cell_size: p95,
                dims_filtered: q.num_filtered() as f64,
                avg_visited_per_cell: ns / (stats.cells_projected as f64).max(1.0),
                exact_points: stats.points_in_exact_ranges as f64,
                sort_filtered: q.filters(sort_dim),
            };
            for (m, err) in models.iter().zip(&mut errs) {
                let pred = m.predict(&qstats).time_ns;
                err.push((pred - true_ns as f64).abs() / true_ns as f64);
            }
        }
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&errs[0]), mean(&errs[1]), mean(&errs[2]))
}

/// Print the comparison.
pub fn run(h: &Harness) {
    println!("\n=== §4.1.2: cost-model accuracy (why machine learning?) ===");
    let (forest, linear, constant) = errors(h);
    println!("mean relative error on held-out random layouts (tpc-h):");
    println!("  random forest:      {:.2}", forest);
    println!(
        "  linear regression:  {:.2}  ({:.1}x the forest's error)",
        linear,
        linear / forest.max(1e-9)
    );
    println!(
        "  tuned constants:    {:.2}  ({:.1}x the forest's error)",
        constant,
        constant / forest.max(1e-9)
    );
    println!("(paper: linear 4x, constants 9x)");
}
