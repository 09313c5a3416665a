//! Compressed-domain scan speed: packed-predicate evaluation with block
//! skipping vs the decode-first kernel, across selectivities.
//!
//! Two table shapes bracket the optimization's range:
//!
//! * **sorted** — the filter column is the sort key, so compressed blocks
//!   have tight, disjoint `[min, max]` spans and low-selectivity predicates
//!   dismiss almost every block from metadata alone (the regime a Flood
//!   layout puts its primary dimensions in).
//! * **unsorted** — every block spans the whole domain, so nothing can be
//!   skipped and the comparison isolates the word-parallel probe path
//!   against per-value decode.
//!
//! Both sides scan the identical compressed table: *packed* is the
//! `FullScan` index (the scan kernel's block path), *decode-first* calls the
//! reference row loop [`scan_rows`] directly, which decodes every value
//! before comparing. Counts and sums are asserted equal.

use super::ExpConfig;
use crate::phases::time_phase;
use flood_baselines::FullScan;
use flood_store::{
    scan_rows, CountVisitor, MultiDimIndex, RangeQuery, ScanStats, SumVisitor, Table, Visitor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Selectivities in per-mille (0.1%, 1%, 10%).
const SELECTIVITIES_PERMILLE: &[usize] = &[1, 10, 100];

struct Shape {
    label: &'static str,
    /// Filter on this dimension.
    filter_dim: usize,
    table: Table,
    /// Sorted copy of the filter column, for quantile → bound lookups.
    sorted_filter: Vec<u64>,
}

fn build_shapes(cfg: &ExpConfig) -> Vec<Shape> {
    let n = (400_000.0 * cfg.scale) as usize;
    let n = n.max(2_000);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5ca_5ca);
    let domain = 1u64 << 32;
    let mut key: Vec<u64> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
    let agg: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
    let shuffled = key.clone();
    key.sort_unstable();
    let sorted_key = key.clone();
    let mut sorted_table = Table::from_columns(vec![key, agg.clone()]);
    sorted_table.compress();
    let mut sorted_shuffled = shuffled.clone();
    sorted_shuffled.sort_unstable();
    let mut unsorted_table = Table::from_columns(vec![shuffled, agg]);
    unsorted_table.compress();
    vec![
        Shape {
            label: "sorted",
            filter_dim: 0,
            table: sorted_table,
            sorted_filter: sorted_key,
        },
        Shape {
            label: "unsorted",
            filter_dim: 0,
            table: unsorted_table,
            sorted_filter: sorted_shuffled,
        },
    ]
}

/// Queries hitting exactly `permille`/1000 of the rows: bounds are values at
/// the matching quantile positions of the sorted filter column.
fn queries(shape: &Shape, permille: usize, count: usize, seed: u64) -> Vec<RangeQuery> {
    let n = shape.sorted_filter.len();
    let span = (n * permille / 1000).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ permille as u64);
    (0..count)
        .map(|_| {
            let lo_idx = rng.gen_range(0..n - span + 1);
            let (lo, hi) = (
                shape.sorted_filter[lo_idx],
                shape.sorted_filter[lo_idx + span - 1],
            );
            RangeQuery::all(shape.table.dims()).with_range(shape.filter_dim, lo, hi)
        })
        .collect()
}

/// Run `qs` through `scan` as a COUNT and a SUM over column 1; returns
/// (total count, total sum, wall ns).
fn run_workload(
    scan: impl Fn(&RangeQuery, Option<usize>, &mut dyn Visitor),
    qs: &[RangeQuery],
) -> (u64, u64, u64) {
    let t0 = Instant::now();
    let mut count = 0u64;
    let mut sum = 0u64;
    for q in qs {
        let mut c = CountVisitor::default();
        scan(q, None, &mut c);
        count += c.count;
        let mut s = SumVisitor::default();
        scan(q, Some(1), &mut s);
        sum = sum.wrapping_add(s.sum);
    }
    (count, sum, t0.elapsed().as_nanos() as u64)
}

/// Print the comparison; returns (shape, permille, decode ms, packed ms).
pub fn compare(cfg: &ExpConfig) -> Vec<(&'static str, usize, f64, f64)> {
    let shapes = time_phase("data-gen", || build_shapes(cfg));
    let mut rows = Vec::new();
    for shape in &shapes {
        let packed = time_phase("index-build", || FullScan::build(&shape.table));
        let run_packed = |q: &RangeQuery, agg: Option<usize>, v: &mut dyn Visitor| {
            packed.execute(q, agg, v);
        };
        let run_decode = |q: &RangeQuery, agg: Option<usize>, v: &mut dyn Visitor| {
            let (t, mut stats) = (&shape.table, ScanStats::default());
            let Ok(()) = scan_rows(t, &q.checks(), 0, t.len(), agg, v, &mut stats);
        };
        for &permille in SELECTIVITIES_PERMILLE {
            let qs = queries(shape, permille, cfg.queries, cfg.seed);
            let ((pc, psum, pns), (dc, dsum, dns)) = time_phase("query-exec", || {
                (run_workload(run_packed, &qs), run_workload(run_decode, &qs))
            });
            assert_eq!((pc, psum), (dc, dsum), "paths must agree on results");
            // One representative query's block accounting.
            let mut v = CountVisitor::default();
            let stats = packed.execute(&qs[0], None, &mut v);
            let blocks = stats.blocks_skipped + stats.blocks_accepted + stats.blocks_probed;
            let skipped_frac = if blocks == 0 {
                0.0
            } else {
                stats.blocks_skipped as f64 / blocks as f64
            };
            let (d_ms, p_ms) = (dns as f64 / 1e6, pns as f64 / 1e6);
            let speedup = if p_ms > 0.0 { d_ms / p_ms } else { 0.0 };
            println!(
                "{:>9}  sel {:>5.1}%  decode-first {:>9.2} ms  packed {:>9.2} ms  \
                 speedup {:>5.2}x  blocks skipped {:>5.1}%",
                shape.label,
                permille as f64 / 10.0,
                d_ms,
                p_ms,
                speedup,
                skipped_frac * 100.0,
            );
            rows.push((shape.label, permille, d_ms, p_ms));
        }
    }
    rows
}

/// Entry point for `repro scanspeed`.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== §7.1+: compressed-domain scans — packed vs decode-first ===");
    println!(
        "(FullScan over a compressed 2-column table; selectivity per-mille sweep \
         {SELECTIVITIES_PERMILLE:?}, {} queries each; counts+sums asserted equal)",
        cfg.queries
    );
    let rows = compare(cfg);
    let best = rows
        .iter()
        .filter(|(label, permille, _, _)| *label == "sorted" && *permille <= 10)
        .map(|&(_, _, d, p)| if p > 0.0 { d / p } else { 0.0 })
        .fold(0.0f64, f64::max);
    println!("best ≤1%-selectivity speedup on the sorted shape: {best:.2}x");
}
