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
//! purely the kernel.
//!
//! Both shapes scan whole blocks of a width-32 column, which is not where
//! Flood spends its time: a learned grid hands the kernel hundreds of
//! ranges of a few dozen rows each. `cells/*` is that regime — 32-row
//! ranges at a stride that starts them anywhere in a block, two probed
//! columns of the widths named in the case (5, 11 and 20 do not subdivide
//! a word; 8 does), a `SumVisitor` and a cumulative column, as
//! `RangeScan::drive` calls the kernel. BASELINES.md records reference
//! numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flood_baselines::FullScan;
use flood_store::{
    scan_checked, scan_rows, CountVisitor, MultiDimIndex, RangeQuery, ScanStats, SumVisitor, Table,
};
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

/// Rows per `cells/*` range, and the distance between range starts.
const CELL_ROWS: usize = 32;
const CELL_STRIDE: usize = 100;
/// Bit widths of the `cells/*` table's filter columns; column 4 is summed.
const CELL_WIDTHS: [u32; 4] = [5, 11, 20, 8];

/// Uniform values below `2^width` per filter column: every block packs at
/// that width and spans its domain, so a check on the middle ~55 % of it
/// is always probed, never skipped or accepted.
fn cells_table() -> Table {
    let mut rng = StdRng::seed_from_u64(0xce11);
    let mut cols: Vec<Vec<u64>> = CELL_WIDTHS
        .iter()
        .map(|&w| (0..N).map(|_| rng.gen_range(0..1u64 << w)).collect())
        .collect();
    cols.push((0..N).map(|_| rng.gen_range(0..1_000)).collect());
    let mut t = Table::from_columns(cols);
    t.compress();
    t
}

fn bench_cells(c: &mut Criterion) {
    let t = cells_table();
    let cumulative = t.cumulative_sum(4);
    let mut group = c.benchmark_group("packed_scan");
    group.throughput(Throughput::Elements((N / CELL_STRIDE * CELL_ROWS) as u64));
    for dims in [[0usize, 1], [2, 3]] {
        let checks = dims.map(|d| {
            let top = (1u64 << CELL_WIDTHS[d]) - 1;
            (d, top / 5, top / 4 * 3)
        });
        let id = format!("w{}+w{}", CELL_WIDTHS[dims[0]], CELL_WIDTHS[dims[1]]);
        group.bench_function(BenchmarkId::new("cells", id), |b| {
            b.iter(|| {
                let (mut v, mut s) = (SumVisitor::default(), ScanStats::default());
                let checks = black_box(&checks);
                for start in (0..N - CELL_ROWS).step_by(CELL_STRIDE) {
                    let (end, sums) = (start + CELL_ROWS, Some(&cumulative));
                    let Ok(()) =
                        scan_checked(&t, checks, start, end, Some(4), sums, &mut v, &mut s);
                }
                black_box((v.sum, v.count, s.blocks_probed))
            })
        });
    }
    group.finish();
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

criterion_group!(benches, bench, bench_cells);
criterion_main!(benches);
