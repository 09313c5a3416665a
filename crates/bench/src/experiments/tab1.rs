//! Table 1: dataset and query characteristics.

use crate::harness::Harness;
use flood_data::DatasetKind;

/// Print the Table 1 equivalent at the configured scale.
pub fn run(h: &Harness) {
    println!("\n=== Table 1: dataset and query characteristics ===");
    println!("(paper sizes: sales 30M / tpc-h 300M / osm 105M / perfmon 230M)");
    println!(
        "{:<10} {:>10} {:>9} {:>11} {:>10}",
        "dataset", "records", "queries", "dimensions", "size (MB)"
    );
    for kind in DatasetKind::ALL {
        let (ds, w) = h.dataset(kind);
        println!(
            "{:<10} {:>10} {:>9} {:>11} {:>10.2}",
            ds.name(),
            ds.table.len(),
            w.len(),
            ds.table.dims(),
            ds.table.size_bytes() as f64 / (1 << 20) as f64,
        );
    }
}
