//! Random workloads for the dynamic-shift experiment (Fig 10).
//!
//! "Each workload ... consists of at most 10 distinct query types, and each
//! query type in turn consists of up to 6 dimensions, both chosen uniformly
//! at random. The selectivities of each dimension are chosen randomly, with
//! the constraint that all queries have an average total selectivity of
//! around 0.1% and are more selective on key attributes."

use super::{DimFilter, QueryBuilder, QueryTemplate, Workload};
use flood_store::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generate one random workload over `table`.
///
/// `key_dims` are treated as key attributes (tighter selectivities);
/// `n` queries land in each of the train/test splits.
pub fn random_workload(
    table: &Table,
    key_dims: &[usize],
    n: usize,
    target_selectivity: f64,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF16A);
    let d = table.dims();
    let n_types = rng.gen_range(1..=10usize);
    let mut templates = Vec::with_capacity(n_types);
    for t in 0..n_types {
        let k = rng.gen_range(1..=d.min(6));
        let mut dims: Vec<usize> = (0..d).collect();
        dims.shuffle(&mut rng);
        dims.truncate(k);
        let filters = dims
            .iter()
            .map(|&dim| {
                // Per-dim selectivity random in log space; keys tighter.
                let base: f64 = 10f64.powf(rng.gen_range(-2.5..-0.3));
                let sel = if key_dims.contains(&dim) {
                    base * 0.1
                } else {
                    base
                };
                DimFilter::range(dim, sel.clamp(1e-4, 0.9))
            })
            .collect();
        templates.push(QueryTemplate::new(&format!("type{t}"), filters));
    }
    let weights: Vec<f64> = (0..templates.len())
        .map(|_| rng.gen_range(0.2..1.0))
        .collect();
    let mut builder = QueryBuilder::new(table, seed ^ 0xB0B);
    builder.workload(
        &format!("random-{seed}"),
        &templates,
        &weights,
        n,
        Some(target_selectivity),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let n = 10_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| (i * 7919) % 10_000).collect(),
            (0..n).map(|i| (i * 104729) % 10_000).collect(),
            (0..n).collect(),
            (0..n).map(|i| i % 97).collect(),
        ])
    }

    #[test]
    fn workloads_differ_by_seed() {
        let t = table();
        let a = random_workload(&t, &[2], 10, 0.001, 1);
        let b = random_workload(&t, &[2], 10, 0.001, 2);
        assert_ne!(a.train, b.train);
    }

    #[test]
    fn queries_have_bounded_dims() {
        let t = table();
        for seed in 0..5 {
            let w = random_workload(&t, &[2], 10, 0.001, seed);
            for q in w.train.iter().chain(&w.test) {
                let k = q.num_filtered();
                assert!((1..=4).contains(&k), "filtered dims {k}");
            }
        }
    }

    #[test]
    fn selectivity_near_target() {
        let t = table();
        let w = random_workload(&t, &[2], 20, 0.001, 3);
        let sel = |q: &flood_store::RangeQuery| flood_testkit::count(&t, q) as f64 / t.len() as f64;
        let avg: f64 = w.test.iter().map(sel).sum::<f64>() / w.test.len() as f64;
        assert!(avg < 0.05, "avg selectivity {avg} too far from 0.001");
    }
}
