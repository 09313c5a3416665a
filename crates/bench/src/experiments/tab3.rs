//! Table 3: cost-model robustness — weights calibrated on one dataset are
//! used to learn layouts for every other dataset; resulting query times
//! should sit within ~10% of the self-calibrated diagonal (§7.6).

use crate::harness::Harness;
use flood_core::cost::calibration::{calibrate, CalibrationConfig};
use flood_core::{CostModel, FloodConfig};
use flood_data::DatasetKind;

/// Run the 4×4 matrix; returns `times[train_idx][layout_idx]` in ms.
pub fn matrix(h: &Harness) -> Vec<Vec<f64>> {
    // Generate all datasets + workloads once.
    let pairs: Vec<_> = DatasetKind::ALL.iter().map(|&k| h.dataset(k)).collect();

    // Calibrate a cost model per dataset.
    let cal_cfg = CalibrationConfig {
        n_layouts: if h.cfg.full { 10 } else { 4 },
        max_cells_log2: 12,
        seed: h.cfg.seed,
        ..Default::default()
    };
    let models: Vec<CostModel> = pairs
        .iter()
        .map(|(ds, w)| {
            let ((weights, _), _) = h
                .phases
                .time("calibration", || calibrate(&ds.table, &w.train, cal_cfg));
            CostModel::new(weights)
        })
        .collect();

    // Learn layouts with every model, run on the target's test split.
    let cell = |model: &CostModel, (ds, w): &(flood_data::Dataset, flood_data::Workload)| {
        let ocfg = h.cfg.optimizer(ds.table.len());
        let learned = h.learn_under(model, &ds.table, &w.train, ocfg);
        let (index, _) = h.build_flood(&ds.table, learned.layout, FloodConfig::default());
        h.drive(&index, &w.test, Some(ds.kind.agg_dim())).avg_ms()
    };
    models
        .iter()
        .map(|model| pairs.iter().map(|pair| cell(model, pair)).collect())
        .collect()
}

/// Print the matrix with %-difference annotations vs the diagonal.
pub fn run(h: &Harness) {
    println!("\n=== Table 3: cost-model transfer across datasets ===");
    let times = matrix(h);
    print!("{:<22}", "models trained on ↓");
    for k in DatasetKind::ALL {
        print!(" {:>16}", k.name());
    }
    println!();
    for (mi, row) in times.iter().enumerate() {
        print!("{:<22}", DatasetKind::ALL[mi].name());
        for (di, &ms) in row.iter().enumerate() {
            let diag = times[di][di];
            if mi == di {
                print!(" {ms:>16.3}");
            } else {
                let pct = (ms - diag) / diag * 100.0;
                print!(" {:>9.3} ({pct:+.0}%)", ms);
            }
        }
        println!();
    }
}
