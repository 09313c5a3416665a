//! Criterion bench: what Algorithm 1's search spends per candidate layout —
//! the learning time of Table 4 and Figs 15–16 — by layer.
//!
//! * `mask/{10k,100k}×c{1,16,1024}` — one filtered (query, dimension,
//!   columns) contribution counted through a fresh `StatsCache`: one grid
//!   mask build plus the one-dimension conjunction that reads it.
//! * `price/12dim` — one memo-miss `predict` of 100 queries on a cold
//!   evaluator: 1 100 mask builds, 100 conjunctions, 100 cost-model calls.
//! * `search/{12dim,7dim}-100k` — `LayoutOptimizer::optimize` end to end
//!   (sample, flatten, search) on a 100 k-row table.
//!
//! The cost model is the analytic one, so the forests a calibrated model
//! adds per (layout, query) pair are not in these numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flood_core::optimizer::SampleSpace;
use flood_core::{CorrelationConfig, CostModel, Layout, LayoutOptimizer};
use flood_store::{RangeQuery, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u64 = 100_000;
const DOMAIN: u64 = 1 << 20;

/// `dims` columns: a unique key, then uniform, skewed (quadratic) and
/// low-cardinality ones in turn.
fn table(dims: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(0xf100d);
    let cols = (0..dims)
        .map(|d| {
            (0..N)
                .map(|i| match d {
                    0 => i * (DOMAIN / N),
                    d if d % 3 == 1 => rng.gen_range(0..DOMAIN),
                    d if d % 3 == 2 => rng.gen_range(0..1_024u64).pow(2),
                    _ => rng.gen_range(0..50u64) * (DOMAIN / 50),
                })
                .collect()
        })
        .collect();
    Table::from_columns(cols)
}

/// 100 key-window lookups: a window of `width` on dimension 0 and a loose
/// range (the middle 60–100 % of the domain) on every other dimension.
fn lookups(dims: usize, width: u64) -> Vec<RangeQuery> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..100)
        .map(|_| {
            let key = rng.gen_range(0..DOMAIN - width);
            (1..dims).fold(
                RangeQuery::all(dims).with_range(0, key, key + width),
                |q, d| {
                    let margin = rng.gen_range(0..DOMAIN / 5);
                    q.with_range(d, margin, DOMAIN - margin)
                },
            )
        })
        .collect()
}

/// 100 range scans filtering three of the dimensions at ≈ 5 % each.
fn scans(dims: usize) -> Vec<RangeQuery> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..100)
        .map(|i| {
            (0..3).fold(RangeQuery::all(dims), |q, k| {
                let lo = rng.gen_range(0..DOMAIN - DOMAIN / 20);
                q.with_range((i + 2 * k) % dims, lo, lo + DOMAIN / 20)
            })
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let wide = table(12);
    let narrow = table(7);
    let wide_queries = lookups(12, 32);
    let opt = LayoutOptimizer::new(CostModel::analytic_default());

    let mut group = c.benchmark_group("optimizer_search");
    for (label, sample) in [("10k", 10_000), ("100k", 100_000)] {
        let query = [RangeQuery::all(12).with_range(1, DOMAIN / 4, 3 * (DOMAIN / 4))];
        let mut rng = StdRng::seed_from_u64(3);
        let ccfg = CorrelationConfig::default();
        let space = SampleSpace::build(&wide, &query, sample, &mut rng, &ccfg);
        for cols in [1usize, 16, 1_024] {
            group.bench_function(format!("mask/{label}×c{cols}"), |b| {
                b.iter(|| {
                    let mut cache = space.stats_cache();
                    black_box(space.query_stats_cached(&[1, 0], &[cols], &mut cache))
                })
            });
        }
    }

    let cold = opt.evaluator_sampled(&wide, &wide_queries);
    let layout = Layout::new((1..12).chain([0]).collect(), vec![2; 11]);
    group.bench_function("price/12dim", |b| {
        b.iter(|| black_box(cold.clone().predict(&layout)))
    });

    group.bench_function("search/12dim-100k", |b| {
        b.iter(|| black_box(opt.optimize(&wide, &wide_queries)))
    });
    let narrow_queries = scans(7);
    group.bench_function("search/7dim-100k", |b| {
        b.iter(|| black_box(opt.optimize(&narrow, &narrow_queries)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
