//! Table 4: index creation time — Flood split into learning (layout
//! optimization) and loading (building the primary index), baselines as a
//! single build. Loading is further split into the build's own phases
//! ([`flood_core::index::BuildTimes`]): CDF fitting, cell assignment, the
//! sort into storage order, the column gather, per-cell models.

use super::ExpConfig;
use flood_baselines::{
    ClusteredIndex, GridFile, Hyperoctree, KdTree, RStarTree, UbTree, ZOrderIndex,
};
use flood_core::{FloodBuilder, LayoutOptimizer};
use flood_data::DatasetKind;
use std::time::Instant;

/// Print creation times for every index on every dataset.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== Table 4: index creation time (seconds) ===");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "index", "sales", "tpc-h", "osm", "perfmon"
    );
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("Flood Learning".into(), Vec::new()),
        ("Flood Loading".into(), Vec::new()),
        ("Flood Total".into(), Vec::new()),
        ("Clustered".into(), Vec::new()),
        ("Z Order".into(), Vec::new()),
        ("UB tree".into(), Vec::new()),
        ("Hyperoctree".into(), Vec::new()),
        ("K-d tree".into(), Vec::new()),
        ("Grid File".into(), Vec::new()),
        ("R* tree".into(), Vec::new()),
    ];
    // Flood Loading by phase, printed beneath it (what is left of loading
    // is cumulative columns and soft-FD support).
    let mut loading: [(&str, Vec<f64>); 5] =
        ["flatten", "assign", "sort", "permute", "models"].map(|phase| (phase, Vec::new()));
    for kind in DatasetKind::ALL {
        let (ds, w) = cfg.dataset_and_workload(kind);
        let table = &ds.table;
        let dims = crate::harness::dims_by_selectivity(table, &w.train);
        let filtered: Vec<usize> = dims
            .iter()
            .copied()
            .filter(|&d| w.train.iter().any(|q| q.filters(d)))
            .collect();

        // Flood: learning + loading.
        let optimizer = LayoutOptimizer::with_config(
            crate::harness::calibrated_cost_model().clone(),
            cfg.optimizer(table.len()),
        );
        let t0 = Instant::now();
        let learned = optimizer.optimize(table, &w.train);
        let learn = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let flood = FloodBuilder::new().layout(learned.layout).build(table);
        let load = t0.elapsed().as_secs_f64();
        let bt = flood.build_times();
        let phases = [
            bt.flatten_ns,
            bt.assign_ns,
            bt.sort_ns - bt.assign_ns - bt.permute_ns,
            bt.permute_ns,
            bt.models_ns,
        ];
        for ((_, times), ns) in loading.iter_mut().zip(phases) {
            times.push(ns as f64 / 1e9);
        }
        rows[0].1.push(learn);
        rows[1].1.push(load);
        rows[2].1.push(learn + load);

        let time = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let key = filtered[0];
        rows[3].1.push(time(&|| {
            let _ = ClusteredIndex::build(table, key);
        }));
        rows[4].1.push(time(&|| {
            let _ = ZOrderIndex::build(table, filtered.clone());
        }));
        rows[5].1.push(time(&|| {
            let _ = UbTree::build(table, filtered.clone());
        }));
        rows[6].1.push(time(&|| {
            let _ = Hyperoctree::build(table, filtered.clone());
        }));
        rows[7].1.push(time(&|| {
            let _ = KdTree::build(table, filtered.clone());
        }));
        let t0 = Instant::now();
        let gf_ok = GridFile::build(table, filtered.clone()).is_ok();
        rows[8].1.push(if gf_ok {
            t0.elapsed().as_secs_f64()
        } else {
            f64::NAN
        });
        rows[9].1.push(time(&|| {
            let _ = RStarTree::build(table, filtered.clone());
        }));
    }
    for (name, times) in rows {
        print!("{name:<16}");
        for t in times {
            if t.is_nan() {
                print!(" {:>10}", "N/A");
            } else {
                print!(" {t:>10.2}");
            }
        }
        println!();
        if name == "Flood Loading" {
            for (phase, times) in &loading {
                print!("  {phase:<14}");
                for t in times {
                    print!(" {t:>10.3}");
                }
                println!();
            }
        }
    }
}
