//! Fig 7: overall query time of every index on every dataset, with
//! baselines tuned per workload and Flood's layout learned automatically.

use crate::harness::{print_results, Baseline, Harness, RunResult};
use flood_data::DatasetKind;

/// Run the full comparison on one dataset.
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<RunResult> {
    let (ds, w) = h.dataset(kind);
    // Mirror the paper's panels: the R*-tree ran out of memory on tpc-h and
    // perfmon; the Grid File never finished building on osm and perfmon.
    let skip: &[Baseline] = match kind {
        DatasetKind::Sales => &[],
        DatasetKind::TpcH => &[Baseline::RStarTree],
        DatasetKind::Osm => &[Baseline::GridFile],
        DatasetKind::Perfmon => &[Baseline::RStarTree, Baseline::GridFile],
    };
    h.compare_all(&ds.table, &w, Some(kind.agg_dim()), skip)
}

/// Print all four panels plus the headline speedups.
pub fn run(h: &Harness) {
    println!("\n=== Fig 7: overall query time (all indexes × all datasets) ===");
    for kind in DatasetKind::ALL {
        let results = run_dataset(h, kind);
        print_results(&format!("{}: query time", kind.name()), &results);
        // Flood (always last) against the best and worst of the rest.
        let (flood, others) = results.split_last().expect("Flood always runs");
        let best = others
            .iter()
            .min_by_key(|r| r.avg_query())
            .expect("baselines");
        let worst = others
            .iter()
            .max_by_key(|r| r.avg_query())
            .expect("baselines");
        let f = flood.avg_ms().max(1e-9);
        println!(
            "  Flood vs next best ({}): {:.2}x; vs worst ({}): {:.1}x",
            best.index,
            best.avg_ms() / f,
            worst.index,
            worst.avg_ms() / f,
        );
    }
}
