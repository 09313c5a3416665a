//! Table 2: the performance breakdown — scan overhead (SO), time per
//! scanned point (TPS), scan time (ST), index time (IT), total time (TT),
//! with IT and ST clocked apart by [`Harness::drive`].

use crate::harness::{Harness, RunResult};
use flood_data::DatasetKind;

/// Run the breakdown for one dataset.
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<RunResult> {
    let (ds, w) = h.dataset(kind);
    h.compare_all(&ds.table, &w, Some(kind.agg_dim()), &[])
}

/// Print the Table 2 columns for every dataset.
pub fn run(h: &Harness) {
    println!("\n=== Table 2: performance breakdown ===");
    println!("SO = points touched / matched; TPS = ns per scanned point;");
    println!("ST = scan ms/query; IT = index (projection+refinement) ms/query; TT = total.");
    for kind in DatasetKind::ALL {
        println!("\n--- {} ---", kind.name());
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "index", "SO", "TPS", "ST(ms)", "IT(ms)", "TT(ms)"
        );
        for r in run_dataset(h, kind) {
            let per_query_ms = 1e3 / r.queries.max(1) as f64;
            println!(
                "{:<14} {:>8.2} {:>8.2} {:>10.3} {:>10.4} {:>10.3}",
                r.index,
                r.scan_overhead(),
                r.scan_time.as_nanos() as f64 / r.touched() as f64,
                r.scan_time.as_secs_f64() * per_query_ms,
                r.index_time.as_secs_f64() * per_query_ms,
                r.total_time().as_secs_f64() * per_query_ms,
            );
        }
    }
}
