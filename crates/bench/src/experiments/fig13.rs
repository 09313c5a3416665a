//! Fig 13: scaling the number of dimensions on uniform synthetic data
//! (§7.5): query time per index, and the ratio vs a full scan (the curse of
//! dimensionality).
//!
//! Workload per the paper: the number of filtered dimensions varies
//! uniformly from 1 to d, filters land on the first k dimensions, and
//! per-dimension selectivity is equal with overall selectivity 0.1%.

use crate::harness::{dimensional_workload, fmt_ms, Baseline, Harness};
use flood_data::datasets::uniform;
use flood_data::DatasetKind;

/// Run the sweep, printing per-d index results.
pub fn run(h: &Harness) {
    println!("\n=== Fig 13: scaling dimensions (uniform synthetic) ===");
    let cfg = &h.cfg;
    let dims: &[usize] = if cfg.full {
        &[2, 4, 6, 9, 12, 15, 18]
    } else {
        &[2, 4, 6, 9]
    };
    let n = cfg.rows(DatasetKind::Osm);
    let targets = [cfg.target_selectivity()];
    for &d in dims {
        let table = h.generate(|| uniform::generate(n, d, cfg.seed));
        let w = dimensional_workload(&table, d, &targets, cfg.queries, cfg.seed);
        // The Grid File's directory grows exponentially with d.
        let skip: &[Baseline] = if d <= 6 {
            &[Baseline::RStarTree]
        } else {
            &[Baseline::RStarTree, Baseline::GridFile]
        };
        let results = h.compare_all(&table, &w, None, skip);
        let full_scan = results[0].avg_ms();
        print!("d={d:<3}");
        for r in &results {
            print!(" {}={}", r.short_name(), fmt_ms(r.avg_ms()));
        }
        println!();
        print!("     ratio vs full scan:");
        for r in &results[1..] {
            let ratio = full_scan / r.avg_ms().max(1e-9);
            print!(" {}={ratio:.1}x", r.short_name());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensional_workload_covers_k_1_through_d() {
        let t = uniform::generate(3_000, 4, 1);
        let w = dimensional_workload(&t, 4, &[0.001], 200, 1);
        let mut seen = [false; 5];
        for q in &w.train {
            let k = q.num_filtered();
            assert!((1..=4).contains(&k));
            // Filters land on the first k dimensions (paper §7.5).
            for d in 0..k {
                assert!(q.filters(d), "dims 0..k must be filtered");
            }
            seen[k] = true;
        }
        assert!(seen[1..=4].iter().all(|&s| s), "every k should appear");
    }

    #[test]
    fn per_dim_selectivity_shrinks_with_k() {
        let t = uniform::generate(5_000, 3, 2);
        let w = dimensional_workload(&t, 3, &[0.001], 100, 2);
        // A k=1 query's single range must be far narrower than a k=3
        // query's per-dim ranges (0.001 vs 0.1 of the domain).
        let width = |q: &flood_store::RangeQuery, d: usize| {
            let (lo, hi) = q.bound(d).expect("filtered");
            (hi - lo) as f64 / uniform::DOMAIN as f64
        };
        let k1: Vec<f64> = w
            .train
            .iter()
            .filter(|q| q.num_filtered() == 1)
            .map(|q| width(q, 0))
            .collect();
        let k3: Vec<f64> = w
            .train
            .iter()
            .filter(|q| q.num_filtered() == 3)
            .map(|q| width(q, 0))
            .collect();
        if !(k1.is_empty() || k3.is_empty()) {
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(avg(&k1) < avg(&k3) / 5.0, "{} vs {}", avg(&k1), avg(&k3));
        }
    }
}
