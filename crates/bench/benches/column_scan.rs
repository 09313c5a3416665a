//! Criterion bench: column-store scan kernels — plain vs block-delta
//! compressed access, filtered vs exact scans, cumulative-column SUMs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flood_store::{
    scan_exact, scan_filtered, CountVisitor, RangeQuery, ScanStats, SumVisitor, Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table(n: usize, compress: bool) -> Table {
    let mut rng = StdRng::seed_from_u64(11);
    let mut t = Table::from_columns(vec![
        (0..n).map(|_| rng.gen_range(0..10_000u64)).collect(),
        (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect(),
    ]);
    if compress {
        t.compress();
    }
    t
}

fn bench(c: &mut Criterion) {
    let n = 1_000_000usize;
    let q = RangeQuery::all(2).with_range(0, 1_000, 2_000);

    let mut group = c.benchmark_group("column_scan");
    group.throughput(Throughput::Elements(n as u64));
    for (label, compress) in [("plain", false), ("compressed", true)] {
        let t = table(n, compress);
        group.bench_with_input(BenchmarkId::new("filtered", label), &t, |b, t| {
            b.iter(|| {
                let mut v = CountVisitor::default();
                let mut s = ScanStats::default();
                let Ok(()) =
                    scan_filtered(t, black_box(&q), 0, t.len(), None, None, &mut v, &mut s);
                black_box(v.count)
            })
        });
        group.bench_with_input(BenchmarkId::new("exact_sum", label), &t, |b, t| {
            b.iter(|| {
                let mut v = SumVisitor::default();
                let mut s = ScanStats::default();
                let Ok(()) = scan_exact(t, 0, t.len(), Some(1), None, &mut v, &mut s);
                black_box(v.sum)
            })
        });
    }
    // Cumulative column: the O(1) SUM fast path.
    let t = table(n, false);
    let cum = t.cumulative_sum(1);
    group.bench_function("exact_sum/cumulative", |b| {
        b.iter(|| {
            let mut v = SumVisitor::default();
            let mut s = ScanStats::default();
            let Ok(()) = scan_exact(&t, 0, t.len(), Some(1), Some(&cum), &mut v, &mut s);
            black_box(v.sum)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
