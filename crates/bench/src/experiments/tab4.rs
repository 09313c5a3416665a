//! Table 4: index creation time — Flood split into learning (layout
//! optimization) and loading (building the primary index), baselines as a
//! single build. Loading is further split into the build's own phases
//! ([`flood_core::index::BuildTimes`]): CDF fitting, cell assignment, the
//! sort into storage order, the column gather, per-cell models.

use crate::harness::{index_dims, Baseline, Harness};
use flood_core::FloodConfig;
use flood_data::DatasetKind;

const BASELINES: [(&str, Baseline); 7] = [
    ("Clustered", Baseline::Clustered),
    ("Z Order", Baseline::ZOrder),
    ("UB tree", Baseline::UbTree),
    ("Hyperoctree", Baseline::Hyperoctree),
    ("K-d tree", Baseline::KdTree),
    ("Grid File", Baseline::GridFile),
    ("R* tree", Baseline::RStarTree),
];

/// Print creation times for every index on every dataset.
pub fn run(h: &Harness) {
    println!("\n=== Table 4: index creation time (seconds) ===");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "index", "sales", "tpc-h", "osm", "perfmon"
    );
    let flood = ["Flood Learning", "Flood Loading", "Flood Total"];
    let mut rows: Vec<(&str, Vec<f64>)> = (flood.into_iter())
        .chain(BASELINES.map(|(name, _)| name))
        .map(|name| (name, Vec::new()))
        .collect();
    // Flood Loading by phase, printed beneath it.
    let mut loading: [(&str, Vec<f64>); 6] =
        ["flatten", "assign", "sort", "permute", "models", "support"]
            .map(|phase| (phase, Vec::new()));
    for kind in DatasetKind::ALL {
        let (ds, w) = h.dataset(kind);
        let table = &ds.table;

        // Flood: learning + loading.
        let ocfg = h.cfg.optimizer(table.len());
        let learned = h.learn(table, &w.train, ocfg);
        let learn = learned.learn_time.as_secs_f64();
        let (flood, load) = h.build_flood(table, learned.layout, FloodConfig::default());
        let load = load.as_secs_f64();
        let bt = flood.build_times();
        let phases = [
            bt.flatten_ns,
            bt.assign_ns,
            bt.sort_ns - bt.assign_ns - bt.permute_ns,
            bt.permute_ns,
            bt.models_ns,
            bt.support_ns,
        ];
        for ((_, times), ns) in loading.iter_mut().zip(phases) {
            times.push(ns as f64 / 1e9);
        }
        rows[0].1.push(learn);
        rows[1].1.push(load);
        rows[2].1.push(learn + load);

        let dims = index_dims(table, &w.train);
        for (row, (_, b)) in rows[3..].iter_mut().zip(BASELINES) {
            let built = h.build_baseline(b, table, &dims, None);
            row.1
                .push(built.map_or(f64::NAN, |(_, dt)| dt.as_secs_f64()));
        }
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
