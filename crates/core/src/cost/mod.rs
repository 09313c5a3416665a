//! The cost model (§4.1): `Time(D, q, L) = w_p·N_c + w_r·N_c + w_s·N_s`.
//!
//! The three weights are *not* constants — they depend on the dataset, query
//! and layout in non-linear, interdependent ways (Fig 5), so Flood predicts
//! each from measurable statistics with a random-forest regressor calibrated
//! once per machine (§4.1.1). A constant-weight analytic model and a linear
//! model over the same features are kept for the §4.1.2 ablation.
//!
//! Paper map — which experiment exercises what:
//! - `repro fig5` measures raw `w_s` variation across random layouts, the
//!   motivation for learned weights ([`weights::WeightModel`]).
//! - `repro costmodel` reproduces the §4.1.2 accuracy ablation:
//!   [`CostModel::analytic_default`] (tuned constants) vs linear vs the
//!   random forest, on held-out layouts.
//! - `repro tab3` calibrates per dataset ([`calibration::calibrate`]) and
//!   transfers the weights across datasets (§7.6).
//! - The `repro` harness calibrates once per run and keeps the model in
//!   its harness value; Table 4's "learning" column is what the resulting
//!   model costs to use inside the optimizer.

pub mod calibration;
pub mod features;
pub mod weights;

pub use calibration::{calibrate, CalibrationConfig, CalibrationReport};
pub use features::QueryStatistics;
pub use weights::{WeightModel, WeightModels};

use serde::{Deserialize, Serialize};

/// A calibrated cost model: predicts query time from layout/query statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// The per-weight predictors.
    pub weights: WeightModels,
}

/// A per-query cost prediction, decomposed by phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCostEstimate {
    /// Predicted per-cell projection weight (ns).
    pub wp: f64,
    /// Predicted per-cell refinement weight (ns); zero when the query does
    /// not filter the sort dimension.
    pub wr: f64,
    /// Predicted per-point scan weight (ns).
    pub ws: f64,
    /// Predicted total query time (ns): `wp·Nc + wr·Nc + ws·Ns`.
    pub time_ns: f64,
}

impl CostModel {
    /// Wrap weight models into a cost model.
    pub fn new(weights: WeightModels) -> Self {
        CostModel { weights }
    }

    /// The §4.1.2 ablation: Eq. 1 with fine-tuned constant weights.
    pub fn analytic_default() -> Self {
        CostModel {
            weights: WeightModels::constant_default(),
        }
    }

    /// Predict the time of one query described by `stats` (Eq. 1).
    pub fn predict(&self, stats: &QueryStatistics) -> QueryCostEstimate {
        let feats = stats.features();
        let wp = self.weights.wp.predict(&feats).max(1.0);
        let wr = if stats.sort_filtered {
            self.weights.wr.predict(&feats).max(0.0)
        } else {
            0.0
        };
        let ws = self.weights.ws.predict(&feats).max(0.05);
        QueryCostEstimate {
            wp,
            wr,
            ws,
            time_ns: wp * stats.nc + wr * stats.nc + ws * stats.ns,
        }
    }

    /// Mean predicted time over a set of per-query statistics (the layout
    /// optimizer's objective, Eq. 1 averaged over the workload).
    pub fn predict_workload(&self, all: &[QueryStatistics]) -> f64 {
        if all.is_empty() {
            return 0.0;
        }
        all.iter().map(|s| self.predict(s).time_ns).sum::<f64>() / all.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(nc: f64, ns: f64, sort_filtered: bool) -> QueryStatistics {
        QueryStatistics {
            nc,
            ns,
            total_cells: 1024.0,
            avg_cell_size: 1000.0,
            median_cell_size: 1000.0,
            p95_cell_size: 1200.0,
            dims_filtered: 2.0,
            avg_visited_per_cell: ns / nc.max(1.0),
            exact_points: 0.0,
            sort_filtered,
        }
    }

    #[test]
    fn analytic_model_is_linear_in_counts() {
        let m = CostModel::analytic_default();
        let a = m.predict(&stats(10.0, 1_000.0, true));
        let b = m.predict(&stats(20.0, 2_000.0, true));
        assert!((b.time_ns / a.time_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn refinement_weight_zero_without_sort_filter() {
        let m = CostModel::analytic_default();
        let with = m.predict(&stats(100.0, 1_000.0, true));
        let without = m.predict(&stats(100.0, 1_000.0, false));
        assert_eq!(without.wr, 0.0);
        assert!(with.time_ns > without.time_ns);
    }

    #[test]
    fn workload_average() {
        let m = CostModel::analytic_default();
        let qs = vec![stats(10.0, 100.0, false), stats(30.0, 300.0, false)];
        let avg = m.predict_workload(&qs);
        let each: f64 = qs.iter().map(|s| m.predict(s).time_ns).sum::<f64>() / 2.0;
        assert_eq!(avg, each);
        assert_eq!(m.predict_workload(&[]), 0.0);
    }
}
