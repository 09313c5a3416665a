//! Criterion bench: `FloodIndex::build` — Table 4's loading time, the cost
//! of every re-layout — on 1 M rows × 6 columns.
//!
//! Two sources (plain, and block-compressed like a live index's own data
//! under `FloodConfig::compress`) × two layouts: a 3-dimension × 7-column
//! grid (343 cells: boundaries, counting sort and many short per-cell sorts
//! all matter) and a sort-only one (no CDF, no cell ids, one long sort).
//! `repro tab4` prints the same build split by phase.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flood_core::{FloodConfig, FloodIndex, Layout};
use flood_store::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1_000_000;

/// Uniform, skewed (quadratic), low-cardinality and wide-domain columns.
fn table() -> Table {
    let mut rng = StdRng::seed_from_u64(0xf100d);
    let cols = (0..6)
        .map(|d| {
            (0..N)
                .map(|_| match d % 4 {
                    0 => rng.gen_range(0..1_000_000u64),
                    1 => rng.gen_range(0..3_000u64).pow(2),
                    2 => rng.gen_range(0..50u64),
                    _ => rng.gen_range(0..1u64 << 40),
                })
                .collect()
        })
        .collect();
    Table::from_columns(cols)
}

fn bench(c: &mut Criterion) {
    let plain = table();
    let mut compressed = plain.clone();
    compressed.compress();
    let layouts = [
        ("grid_7x7x7", Layout::new(vec![0, 1, 2, 3], vec![7, 7, 7])),
        ("sort_only", Layout::sort_only(3)),
    ];

    let mut group = c.benchmark_group("flood_build");
    group.sample_size(10);
    for (source, table, compress) in [("plain", &plain, false), ("compressed", &compressed, true)] {
        for (name, layout) in &layouts {
            group.bench_function(format!("{source}/{name}"), |b| {
                let cfg = FloodConfig {
                    compress,
                    ..FloodConfig::default()
                };
                b.iter(|| black_box(FloodIndex::build(table, layout.clone(), cfg.clone())))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
