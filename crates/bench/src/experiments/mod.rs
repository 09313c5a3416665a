//! One module per paper experiment, listed in [`EXPERIMENTS`]. Every
//! experiment prints the rows/series its figure or table reports, from what
//! the [`Harness`] measured, and is driven through the `repro` binary.

pub mod colstore;
pub mod correlate;
pub mod costmodel;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod lookup;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;

use crate::harness::Harness;
use flood_core::OptimizerConfig;
use flood_data::DatasetKind;

/// CLI name, what it reproduces, entry point.
pub type Experiment = (&'static str, &'static str, fn(&Harness));

/// Every experiment, in paper order — the one list `repro`, the smoke
/// suite and the README table are checked against.
pub const EXPERIMENTS: &[Experiment] = &[
    ("tab1", "Table 1: dataset summary", tab1::run),
    ("colstore", "§3: column-store scan kernels", colstore::run),
    ("fig5", "Fig 5: w_s is not constant", fig5::run),
    (
        "fig7",
        "Fig 7: query time, all indexes x datasets",
        fig7::run,
    ),
    ("fig8", "Fig 8: index size vs query time", fig8::run),
    ("fig9", "Fig 9: workload variants", fig9::run),
    ("fig10", "Fig 10: 30 random workloads", fig10::run),
    ("tab2", "Table 2: performance breakdown", tab2::run),
    ("fig11", "Fig 11: component ablation", fig11::run),
    (
        "fig12",
        "Fig 12: dataset size & selectivity scaling",
        fig12::run,
    ),
    ("fig13", "Fig 13: scaling dimensions", fig13::run),
    ("fig14", "Fig 14: cells vs query time surface", fig14::run),
    ("tab3", "Table 3: cost-model transfer", tab3::run),
    ("tab4", "Table 4: loading/learning time", tab4::run),
    ("fig15", "Fig 15: data-sample size sweep", fig15::run),
    ("fig16", "Fig 16: query-sample size sweep", fig16::run),
    ("fig17", "Fig 17: per-cell CDF models", fig17::run),
    ("costmodel", "§4.1.2: cost-model accuracy", costmodel::run),
    ("lookup", "§6: cell identification latency", lookup::run),
    (
        "correlate",
        "Tsunami/COAX ext: correlation-aware layouts — soft-FD collapse on/off",
        correlate::run,
    ),
];

/// Shared experiment configuration, parsed from the `repro` command line.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Multiplier on default dataset sizes.
    pub scale: f64,
    /// Queries per workload split.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Run the full paper-sized sweeps (slower).
    pub full: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            queries: 100,
            seed: 42,
            full: false,
        }
    }
}

impl ExpConfig {
    /// Default row counts per dataset (×`scale`). Ratios follow Table 1
    /// (30M : 300M : 105M : 230M), shrunk so every experiment finishes in
    /// seconds; `--full` doubles them (and widens each experiment's sweep
    /// grids) for paper-shaped runs.
    pub fn rows(&self, kind: DatasetKind) -> usize {
        let base = match kind {
            DatasetKind::Sales => 30_000.0,
            DatasetKind::TpcH => 200_000.0,
            DatasetKind::Osm => 80_000.0,
            DatasetKind::Perfmon => 150_000.0,
        };
        let full_factor = if self.full { 2.0 } else { 1.0 };
        (base * full_factor * self.scale) as usize
    }

    /// Layout-optimizer configuration sized for the experiment scale.
    /// Sampling follows Fig 15/16: ~1–2% of the data and a few dozen
    /// queries lose nothing, so the default budget is lean and `--full`
    /// restores the roomier search.
    pub fn optimizer(&self, n_rows: usize) -> OptimizerConfig {
        let (max_sample, max_queries, gd_steps) = if self.full {
            (8_000, 30, 16)
        } else {
            (4_000, 20, 12)
        };
        OptimizerConfig {
            data_sample: (n_rows / 50).clamp(1_000, max_sample),
            query_sample: self.queries.min(max_queries),
            gd_steps,
            max_total_cells: 1 << 16,
            init_points_per_cell: 256,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The paper's default target selectivity (0.1%).
    pub fn target_selectivity(&self) -> f64 {
        0.001
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_controls_rows() {
        let small = ExpConfig {
            scale: 0.1,
            ..Default::default()
        };
        let big = ExpConfig {
            scale: 2.0,
            ..Default::default()
        };
        for kind in DatasetKind::ALL {
            assert!(small.rows(kind) < big.rows(kind));
        }
        // Table 1 ratios: tpch is the largest, sales the smallest.
        let c = ExpConfig::default();
        assert!(c.rows(DatasetKind::TpcH) > c.rows(DatasetKind::Perfmon));
        assert!(c.rows(DatasetKind::Sales) < c.rows(DatasetKind::Osm));
        // --full doubles the data and widens the optimizer's search budget.
        let full = ExpConfig {
            full: true,
            ..Default::default()
        };
        for kind in DatasetKind::ALL {
            assert_eq!(full.rows(kind), 2 * c.rows(kind));
        }
        let (lean, roomy) = (c.optimizer(1_000_000), full.optimizer(1_000_000));
        assert!(lean.data_sample < roomy.data_sample);
        assert!(lean.gd_steps < roomy.gd_steps);
    }

    #[test]
    fn dataset_and_workload_shapes() {
        let cfg = ExpConfig {
            scale: 0.05,
            queries: 10,
            ..Default::default()
        };
        let (ds, w) = Harness::pinned(cfg).dataset(DatasetKind::Sales);
        assert_eq!(ds.table.len(), cfg.rows(DatasetKind::Sales));
        assert_eq!(w.train.len(), 10);
        assert_eq!(w.test.len(), 10);
    }
}
