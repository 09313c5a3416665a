//! Criterion bench: packed-domain scans vs decode-first, selectivity sweep.
//!
//! One compressed table, two physical orders:
//!
//! * `sorted/*` — filter column is the sort key: tight per-block `[min, max]`
//!   spans, so low selectivity turns into wholesale block skipping.
//! * `unsorted/*` — every block spans the domain: no skipping possible, the
//!   comparison isolates the word-parallel (SWAR) probe path.
//!
//! Each point scans the identical compressed table twice — through
//! `FullScan` (the scan kernel's block path) and through the reference row
//! loop `scan_rows`, which decodes every value first — so the delta is
//! purely the kernel. BASELINES.md records reference numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flood_baselines::FullScan;
use flood_store::{scan_rows, CountVisitor, MultiDimIndex, RangeQuery, ScanStats, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 400_000;
const DOMAIN: u64 = 1 << 32;

/// (sorted?, selectivity per-mille) → (index, query at that selectivity).
fn setup(sorted: bool, permille: u64) -> (FullScan, RangeQuery) {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let mut key: Vec<u64> = (0..N).map(|_| rng.gen_range(0..DOMAIN)).collect();
    let mut quantiles = key.clone();
    quantiles.sort_unstable();
    if sorted {
        key = quantiles.clone();
    }
    let agg: Vec<u64> = (0..N).map(|_| rng.gen_range(0..1_000)).collect();
    let mut t = Table::from_columns(vec![key, agg]);
    t.compress();
    // Bounds from quantile positions: the query matches permille/1000 rows.
    let span = (N * permille as usize / 1000).max(1);
    let lo_idx = (N - span) / 2;
    let q = RangeQuery::all(2).with_range(0, quantiles[lo_idx], quantiles[lo_idx + span - 1]);
    (FullScan::build(&t), q)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_scan");
    group.throughput(Throughput::Elements(N as u64));
    for sorted in [true, false] {
        let shape = if sorted { "sorted" } else { "unsorted" };
        for permille in [1u64, 10, 100] {
            let (index, q) = setup(sorted, permille);
            for mode in ["packed", "decode_first"] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{shape}/{mode}"), permille),
                    &permille,
                    |b, _| {
                        b.iter(|| {
                            let mut v = CountVisitor::default();
                            let q = black_box(&q);
                            let s = if mode == "packed" {
                                index.execute(q, None, &mut v)
                            } else {
                                let (t, mut s) = (index.data(), ScanStats::default());
                                let Ok(()) =
                                    scan_rows(t, &q.checks(), 0, t.len(), None, &mut v, &mut s);
                                s
                            };
                            black_box((v.count, s.points_scanned))
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
