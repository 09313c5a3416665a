//! Cost-model calibration (§4.1.1).
//!
//! "Flood generates random layouts by randomly selecting an ordering of the
//! d dimensions, then randomly selecting the number of columns in the grid
//! dimensions to achieve a random target number of total cells. Flood then
//! runs the query workload on each layout, and measures the weights w and
//! aforementioned statistics for each query. Each query for each random
//! layout will produce a single training example. In our evaluation, we
//! found that 10 random layouts produces a sufficient number of training
//! examples to create accurate models."
//!
//! Calibration is a one-time cost per machine; Table 3 shows the resulting
//! weights transfer across datasets.

use crate::config::FloodConfig;
use crate::cost::features::{cell_size_quantiles, QueryStatistics};
use crate::cost::weights::{WeightModel, WeightModels};
use crate::index::FloodIndex;
use crate::layout::Layout;
use flood_learned::forest::{RandomForest, RandomForestConfig};
use flood_learned::linear::MultiLinearModel;
use flood_store::{CountVisitor, RangeQuery, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which regressor calibration trains for each weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WeightModelKind {
    /// Random forests (the paper's design).
    #[default]
    Forest,
    /// Linear regression over the same features (§4.1.2 ablation).
    Linear,
}

/// log2 of the smallest random total-cell target (capped at
/// [`CalibrationConfig::max_cells_log2`]).
const MIN_CELLS_LOG2: u32 = 4;

/// Configuration for [`calibrate`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Number of random layouts to measure (paper: 10).
    pub n_layouts: usize,
    /// Regressor family.
    pub kind: WeightModelKind,
    /// log2 of the largest random total-cell target.
    pub max_cells_log2: u32,
    /// RNG seed.
    pub seed: u64,
    /// Repeat each query this many times and keep the fastest run
    /// (denoises the tiny per-phase timings).
    pub reps: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            n_layouts: 10,
            kind: WeightModelKind::Forest,
            max_cells_log2: 14,
            seed: 0xCA11B,
            reps: 1,
        }
    }
}

/// Diagnostics from a calibration run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Training examples gathered per weight (wp, wr, ws).
    pub examples: (usize, usize, usize),
    /// Training mean absolute error per weight, in ns.
    pub train_mae: (f64, f64, f64),
}

/// Generate one random layout over `dims` dimensions (§4.1.1's procedure).
pub fn random_layout(dims: usize, rng: &mut StdRng, cfg: &CalibrationConfig) -> Layout {
    assert!(dims >= 1);
    let mut order: Vec<usize> = (0..dims).collect();
    order.shuffle(rng);
    if dims == 1 {
        return Layout::sort_only(order[0]);
    }
    // Random target total cells, split log-uniformly across grid dims.
    let total_log2 =
        rng.gen_range(MIN_CELLS_LOG2.min(cfg.max_cells_log2)..=cfg.max_cells_log2) as f64;
    let mut shares: Vec<f64> = (0..dims - 1).map(|_| rng.gen_range(0.1..1.0)).collect();
    let sum: f64 = shares.iter().sum();
    for s in &mut shares {
        *s = *s / sum * total_log2;
    }
    let cols: Vec<usize> = shares
        .iter()
        .map(|&s| (2f64.powf(s).round() as usize).max(1))
        .collect();
    Layout::new(order, cols)
}

/// Measure per-phase weights on random layouts and train the weight models.
///
/// The dataset and workload may be entirely synthetic — the weights
/// calibrate the *hardware*, not the data (Table 3).
pub fn calibrate(
    table: &Table,
    queries: &[RangeQuery],
    cfg: CalibrationConfig,
) -> (WeightModels, CalibrationReport) {
    assert!(!queries.is_empty(), "calibration needs a query workload");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dims = table.dims();

    let mut xp: Vec<Vec<f64>> = Vec::new();
    let mut yp: Vec<f64> = Vec::new();
    let mut xr: Vec<Vec<f64>> = Vec::new();
    let mut yr: Vec<f64> = Vec::new();
    let mut xs_: Vec<Vec<f64>> = Vec::new();
    let mut ys_: Vec<f64> = Vec::new();

    for _ in 0..cfg.n_layouts {
        let layout = random_layout(dims, &mut rng, &cfg);
        // Random layouts carry no soft FDs, so the probe indexes run the
        // un-tightened scan path the cost model's N_c assumes.
        let index = FloodIndex::build(table, layout, FloodConfig::default());
        let sizes = index.cell_sizes();
        let (avg, median, p95) = cell_size_quantiles(&sizes);
        let total_cells = index.layout().num_cells() as f64;
        let sort_dim = index.layout().sort_dim();

        for q in queries {
            let mut best: Option<(flood_store::ScanStats, crate::index::PhaseTimes)> = None;
            for _ in 0..cfg.reps.max(1) {
                let mut v = CountVisitor::default();
                let run = index.execute_profiled(q, None, &mut v);
                let better = match &best {
                    None => true,
                    Some((_, t)) => run.1.total_ns() < t.total_ns(),
                };
                if better {
                    best = Some(run);
                }
            }
            let (stats, times) = best.expect("at least one rep");
            let ns = (stats.points_scanned + stats.points_in_exact_ranges) as f64;
            let nc = stats.cells_projected as f64;
            let qstats = QueryStatistics {
                nc,
                ns,
                total_cells,
                avg_cell_size: avg,
                median_cell_size: median,
                p95_cell_size: p95,
                dims_filtered: q.num_filtered() as f64,
                avg_visited_per_cell: ns / nc.max(1.0),
                exact_points: stats.points_in_exact_ranges as f64,
                sort_filtered: q.filters(sort_dim),
            };
            let feats = qstats.features().to_vec();
            if nc >= 1.0 {
                xp.push(feats.clone());
                yp.push(times.projection_ns as f64 / nc);
            }
            if qstats.sort_filtered && stats.refinements > 0 {
                xr.push(feats.clone());
                yr.push(times.refinement_ns as f64 / stats.refinements as f64);
            }
            if ns >= 1.0 {
                xs_.push(feats);
                ys_.push(times.scan_ns as f64 / ns);
            }
        }
    }

    let fit = |xs: &[Vec<f64>], ys: &[f64], seed: u64| -> WeightModel {
        if xs.is_empty() {
            return WeightModel::Constant(0.0);
        }
        match cfg.kind {
            WeightModelKind::Forest => {
                let rf_cfg = RandomForestConfig {
                    n_trees: 30,
                    max_depth: 10,
                    min_leaf: 3,
                    feature_frac: 0.7,
                    seed,
                };
                WeightModel::Forest(RandomForest::fit(xs, ys, rf_cfg))
            }
            WeightModelKind::Linear => WeightModel::Linear(MultiLinearModel::fit(xs, ys)),
        }
    };
    let wp = fit(&xp, &yp, cfg.seed ^ 1);
    let wr = fit(&xr, &yr, cfg.seed ^ 2);
    let ws = fit(&xs_, &ys_, cfg.seed ^ 3);

    let mae = |m: &WeightModel, xs: &[Vec<f64>], ys: &[f64]| -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter()
            .zip(ys)
            .map(|(x, &y)| (m.predict(x) - y).abs())
            .sum::<f64>()
            / xs.len() as f64
    };
    let report = CalibrationReport {
        examples: (xp.len(), xr.len(), xs_.len()),
        train_mae: (mae(&wp, &xp, &yp), mae(&wr, &xr, &yr), mae(&ws, &xs_, &ys_)),
    };
    (WeightModels { wp, wr, ws }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        let n = 4_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| i % 97).collect(),
            (0..n).map(|i| (i * i) % 1009).collect(),
            (0..n).map(|i| i * 3).collect(),
        ])
    }

    fn small_queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::all(3).with_range(0, 10, 50),
            RangeQuery::all(3)
                .with_range(1, 0, 400)
                .with_range(2, 0, 6_000),
            RangeQuery::all(3).with_range(2, 100, 9_000),
            RangeQuery::all(3)
                .with_range(0, 0, 96)
                .with_range(1, 100, 900),
        ]
    }

    #[test]
    fn random_layouts_are_valid_and_varied() {
        let cfg = CalibrationConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut cell_counts = Vec::new();
        for _ in 0..20 {
            let l = random_layout(4, &mut rng, &cfg);
            assert_eq!(l.num_dims(), 4);
            cell_counts.push(l.num_cells());
        }
        cell_counts.dedup();
        assert!(
            cell_counts.len() > 5,
            "layouts should vary: {cell_counts:?}"
        );
    }

    #[test]
    fn random_layout_single_dim() {
        let cfg = CalibrationConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let l = random_layout(1, &mut rng, &cfg);
        assert_eq!(l.num_cells(), 1);
    }

    /// A cell budget below `MIN_CELLS_LOG2` draws from the budget itself
    /// instead of an empty range.
    #[test]
    fn random_layout_below_min_cells_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let one_cell = CalibrationConfig {
            max_cells_log2: 0,
            ..Default::default()
        };
        assert_eq!(random_layout(4, &mut rng, &one_cell).num_cells(), 1);
        let tiny = CalibrationConfig {
            max_cells_log2: 2,
            ..Default::default()
        };
        for _ in 0..20 {
            let l = random_layout(4, &mut rng, &tiny);
            assert!(l.num_cells() <= 8, "{l}");
        }
    }

    #[test]
    fn calibration_produces_models_and_examples() {
        let cfg = CalibrationConfig {
            n_layouts: 3,
            max_cells_log2: 8,
            ..Default::default()
        };
        let (models, report) = calibrate(&small_table(), &small_queries(), cfg);
        assert!(
            report.examples.0 >= 12,
            "wp examples: {:?}",
            report.examples
        );
        assert!(
            report.examples.2 >= 12,
            "ws examples: {:?}",
            report.examples
        );
        // Predictions must be finite and non-negative after clamping.
        let feats = [0.0; 10];
        assert!(models.wp.predict(&feats).is_finite());
        assert!(models.ws.predict(&feats).is_finite());
    }

    #[test]
    fn linear_kind_trains_linear_models() {
        let cfg = CalibrationConfig {
            n_layouts: 2,
            max_cells_log2: 6,
            kind: WeightModelKind::Linear,
            ..Default::default()
        };
        let (models, _) = calibrate(&small_table(), &small_queries(), cfg);
        assert!(matches!(models.wp, WeightModel::Linear(_)));
    }
}
