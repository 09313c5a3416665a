//! Fig 5: the per-point scan weight w_s is not constant — it varies with the
//! number of scanned points and the average scan run length (locality), the
//! motivation for learned weight models (§4.1.2).

use crate::harness::Harness;
use flood_core::cost::calibration::{random_layout, CalibrationConfig};
use flood_core::FloodConfig;
use flood_data::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(ws, points scanned, avg run length)`, one per query per random layout.
pub fn collect(h: &Harness) -> Vec<(f64, f64, f64)> {
    let (ds, w) = h.dataset(DatasetKind::TpcH);
    let mut rng = StdRng::seed_from_u64(h.cfg.seed);
    let cal_cfg = CalibrationConfig {
        max_cells_log2: 12,
        ..Default::default()
    };
    let n_layouts = if h.cfg.full { 10 } else { 5 };
    let mut samples = Vec::new();
    for _ in 0..n_layouts {
        let layout = random_layout(ds.table.dims(), &mut rng, &cal_cfg);
        let (index, _) = h.build_flood(&ds.table, layout, FloodConfig::default());
        for (stats, times) in h.profile(&index, &w.test, 1) {
            let ns = (stats.points_scanned + stats.points_in_exact_ranges) as f64;
            if ns >= 1.0 {
                samples.push((times.scan_ns as f64 / ns, ns, stats.avg_run_length()));
            }
        }
    }
    samples
}

/// Print w_s binned against both features.
pub fn run(h: &Harness) {
    let samples = collect(h);
    println!("\n=== Fig 5: w_s is not constant ===");
    print_binned("num scanned points", &samples, |s| s.1);
    print_binned("avg scan run length", &samples, |s| s.2);
    let (min, max) = samples.iter().fold((f64::INFINITY, 0.0f64), |(mn, mx), s| {
        (mn.min(s.0), mx.max(s.0))
    });
    println!(
        "w_s range across queries: {min:.2} – {max:.2} ns/point ({:.1}x spread)",
        max / min.max(1e-9)
    );
}

fn print_binned(label: &str, samples: &[(f64, f64, f64)], key: impl Fn(&(f64, f64, f64)) -> f64) {
    println!("\nw_s vs {label} (log10 bins):");
    println!("{:<18} {:>8} {:>14}", "bin", "queries", "avg w_s (ns)");
    let mut bins: std::collections::BTreeMap<i32, (f64, usize)> = Default::default();
    for s in samples {
        let k = key(s).max(1.0).log10().floor() as i32;
        let e = bins.entry(k).or_insert((0.0, 0));
        e.0 += s.0;
        e.1 += 1;
    }
    for (k, (sum, n)) in bins {
        println!("10^{:<15} {:>8} {:>14.2}", k, n, sum / n as f64);
    }
}
