//! Differential property suite: the scan kernel's block path is
//! bit-identical to the row-at-a-time loop.
//!
//! For arbitrary tables (mixed plain/compressed columns), check lists, row
//! sub-ranges and visitors, `scan_checked` must produce exactly the results
//! *and* the [`ScanStats`] of the reference `scan_rows` — block counters
//! and wall-clock aside, which only the block path records; the shared
//! [`assert_stats_equivalent`] helper normalizes both sides. Likewise
//! `scan_filtered`, over a sub-range and over the whole table.
//!
//! Generators deliberately cover the adversarial block shapes: width-0
//! (constant) blocks from run-length columns, width-64 blocks from
//! full-range values, predicate bounds snapped exactly onto a block's
//! min/max, and partial last blocks from non-multiple-of-128 lengths.
//! Deterministic anchors at the bottom pin the counter semantics the
//! properties can't see (how many blocks were skipped/accepted/probed).
//!
//! `FLOOD_PROPTEST_CASES` scales the case count (CI raises it on push).

mod common;

use common::{
    build_table, cuts_strategy, diff_driver_all, filter_strategy, plan_from, Bound, DimFilter,
};
use flood_store::{
    assert_stats_equivalent, scan_checked, scan_filtered, scan_rows, CollectVisitor, CountVisitor,
    CumulativeColumn, RangeQuery, ScanStats, SumVisitor, Table, Visitor, BLOCK_LEN,
};
use flood_testkit::{answer, cases};
use proptest::prelude::*;

fn resolve(table: &Table, dim: usize, b: Bound) -> u64 {
    let (mn, mx) = table.dim_bounds(dim);
    match b {
        Bound::BlockEdge(sel, want_max) => match table.column(dim).as_compressed() {
            Some(c) if !c.blocks().is_empty() => {
                let blk = &c.blocks()[sel as usize % c.blocks().len()];
                if want_max {
                    blk.max()
                } else {
                    blk.min()
                }
            }
            _ => resolve(table, dim, Bound::Frac(sel % 1001)),
        },
        Bound::Frac(sel) => mn + ((mx - mn) as u128 * sel as u128 / 1000) as u64,
    }
}

/// Resolve filter specs into a checked-dims list and the equivalent query.
fn make_checks(table: &Table, filters: &[DimFilter; 3]) -> (Vec<(usize, u64, u64)>, RangeQuery) {
    let mut checks = Vec::new();
    let mut query = RangeQuery::all(3);
    for (d, f) in filters.iter().enumerate() {
        if let Some((a, b)) = f {
            let (x, y) = (resolve(table, d, *a), resolve(table, d, *b));
            let (lo, hi) = (x.min(y), x.max(y));
            checks.push((d, lo, hi));
            query = query.with_range(d, lo, hi);
        }
    }
    (checks, query)
}

/// The row loop and the kernel under every visitor kind (SUM and MIN/MAX
/// over column `agg`, SUM with `cumulative`) over one (table, checks,
/// range) instance: results and normalized stats must be bit-identical.
/// Returns the kernel's stats, COUNT's first, for counter assertions.
fn diff_all_visitors(
    table: &Table,
    checks: &[(usize, u64, u64)],
    (start, end): (usize, usize),
    agg: Option<usize>,
    cumulative: Option<&CumulativeColumn>,
) -> [ScanStats; 4] {
    let rows = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        let Ok(()) = scan_rows(table, checks, start, end, agg, v, &mut s);
        s
    };
    let kernel = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        let Ok(()) = scan_checked(table, checks, start, end, agg, cumulative, v, &mut s);
        s
    };
    let (want, want_stats) = answer(&rows, agg, agg);
    let (got, got_stats) = answer(&kernel, agg, agg);
    // Exact row order, not set equality: serial kernels must agree visit
    // for visit.
    assert_eq!(got, want, "result");
    for (kind, (got, want)) in ["count", "sum", "minmax", "collect"]
        .iter()
        .zip(got_stats.iter().zip(&want_stats))
    {
        assert_stats_equivalent(got, want, kind);
    }
    got_stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Core differential: arbitrary tables × filters × sub-ranges ×
    /// compression masks, all four visitors.
    #[test]
    fn packed_equals_decode_first(
        runs in proptest::collection::vec((0u64..6, 1usize..220), 1..8),
        seed in 0u64..1_000_000,
        filters in (filter_strategy(), filter_strategy(), filter_strategy()),
        compress_mask in 0u8..8,
        range_sel in (0u16..1000, 0u16..1000),
        cuts in cuts_strategy(),
        split in 0usize..4,
    ) {
        let mut table = build_table(&runs, seed);
        // Compress a per-case subset of columns; checks on the plain rest
        // exercise the kernel's per-row residual path (mask 0 = all plain,
        // where the kernel must delegate to the row loop outright).
        let dims: Vec<usize> = (0..3).filter(|d| compress_mask & (1 << d) != 0).collect();
        table.compress_dims(&dims);
        let len = table.len();
        let (a, b) = (
            len * range_sel.0 as usize / 1000,
            len * range_sel.1 as usize / 1000,
        );
        let (start, end) = (a.min(b), a.max(b));
        let filters = [filters.0, filters.1, filters.2];
        let (checks, query) = make_checks(&table, &filters);
        let cumulative = table.cumulative_sum(1);

        diff_all_visitors(&table, &checks, (start, end), Some(1), Some(&cumulative));

        // The query-taking wrapper routes identically.
        let mut dv = SumVisitor::default();
        let mut ds = ScanStats::default();
        let Ok(()) = scan_rows(&table, &query.checks(), start, end, Some(1), &mut dv, &mut ds);
        let mut pv = SumVisitor::default();
        let mut ps = ScanStats::default();
        let Ok(()) = scan_filtered(
            &table, &query, start, end, Some(1), Some(&cumulative), &mut pv, &mut ps,
        );
        prop_assert_eq!((pv.sum, pv.count), (dv.sum, dv.count));
        assert_stats_equivalent(&ps, &ds, "scan_filtered, sub-range");

        let mut dv = CountVisitor::default();
        let mut ds = ScanStats::default();
        let Ok(()) = scan_rows(&table, &query.checks(), 0, len, None, &mut dv, &mut ds);
        let mut pv = CountVisitor::default();
        let mut ps = ScanStats::default();
        let Ok(()) = scan_filtered(&table, &query, 0, len, None, None, &mut pv, &mut ps);
        prop_assert_eq!(pv.count, dv.count);
        assert_stats_equivalent(&ps, &ds, "scan_filtered, whole table");

        // The scan driver over a list of such ranges, serial and chunked.
        let plan = plan_from(len, &checks, &cuts, split);
        diff_driver_all(&table, &table, &plan, Some(&cumulative));
    }

    /// Compression must not change what the kernel computes: the block
    /// path over the compressed table equals the row loop over the *plain*
    /// copy, stats included.
    #[test]
    fn packed_on_compressed_equals_plain_reference(
        runs in proptest::collection::vec((0u64..6, 1usize..220), 1..8),
        seed in 0u64..1_000_000,
        filters in (filter_strategy(), filter_strategy(), filter_strategy()),
    ) {
        let plain = build_table(&runs, seed);
        let mut compressed = plain.clone();
        compressed.compress();
        let filters = [filters.0, filters.1, filters.2];
        // Resolve bounds against the compressed table so BlockEdge snaps.
        let (checks, _) = make_checks(&compressed, &filters);
        let len = plain.len();

        let mut rv = CollectVisitor::default();
        let mut rs = ScanStats::default();
        let Ok(()) = scan_rows(&plain, &checks, 0, len, None, &mut rv, &mut rs);
        let mut pv = CollectVisitor::default();
        let mut ps = ScanStats::default();
        let Ok(()) = scan_checked(&compressed, &checks, 0, len, None, None, &mut pv, &mut ps);
        prop_assert_eq!(&pv.rows, &rv.rows);
        assert_stats_equivalent(&ps, &rs, "compressed vs plain reference");
    }
}

// ---------------------------------------------------------------------------
// Deterministic anchors: block-counter semantics the properties can't pin.
// ---------------------------------------------------------------------------

fn compressed_table(cols: Vec<Vec<u64>>) -> Table {
    let mut t = Table::from_columns(cols);
    t.compress();
    t
}

#[test]
fn constant_blocks_skip_and_accept_without_probing() {
    // 300 rows of the constant 7: three width-0 blocks (128 + 128 + 44).
    let t = compressed_table(vec![vec![7; 300]]);
    let skip = diff_all_visitors(&t, &[(0, 8, 9)], (0, 300), Some(0), None)[0];
    assert_eq!(
        (
            skip.blocks_skipped,
            skip.blocks_accepted,
            skip.blocks_probed
        ),
        (3, 0, 0),
        "always-false predicate must dismiss every block from metadata"
    );
    let accept = diff_all_visitors(&t, &[(0, 7, 7)], (0, 300), Some(0), None)[0];
    assert_eq!(
        (
            accept.blocks_skipped,
            accept.blocks_accepted,
            accept.blocks_probed
        ),
        (0, 3, 0),
        "width-0 blocks are accepted or skipped, never probed"
    );
}

#[test]
fn sorted_data_skips_out_of_range_blocks() {
    // Sorted column: block b holds values [128b, 128b+127] exactly.
    let t = compressed_table(vec![(0..1024).collect()]);
    // Bounds exactly on block 3's min and block 5's max: blocks 3..=5
    // accepted wholesale, everything else skipped, nothing probed.
    let s = diff_all_visitors(&t, &[(0, 3 * 128, 5 * 128 + 127)], (0, 1024), Some(0), None)[0];
    assert_eq!(
        (s.blocks_skipped, s.blocks_accepted, s.blocks_probed),
        (5, 3, 0)
    );
    // Shift both bounds one value inward: the edge blocks must be probed.
    let s = diff_all_visitors(
        &t,
        &[(0, 3 * 128 + 1, 5 * 128 + 126)],
        (0, 1024),
        Some(0),
        None,
    )[0];
    assert_eq!(
        (s.blocks_skipped, s.blocks_accepted, s.blocks_probed),
        (5, 1, 2)
    );
}

#[test]
fn width_64_blocks_differential() {
    let vals: Vec<u64> = (0..256)
        .map(|i| if i % 2 == 0 { i } else { u64::MAX - i })
        .collect();
    let t = compressed_table(vec![vals]);
    for (lo, hi) in [
        (0, u64::MAX),
        (0, 255),
        (u64::MAX - 255, u64::MAX),
        (128, u64::MAX - 128),
        (300, 400), // matches nothing but can't be skipped by min/max
    ] {
        diff_all_visitors(&t, &[(0, lo, hi)], (0, 256), Some(0), None);
    }
}

#[test]
fn partial_last_block_never_emits_padding() {
    // 200 rows: one full block + one 72-row block whose packed words carry
    // zero-padding lanes. An accept-everything predicate must yield exactly
    // 200 rows, and a probe must never surface offsets ≥ 72.
    let t = compressed_table(vec![(500..700).collect()]);
    let s = diff_all_visitors(&t, &[(0, 0, u64::MAX)], (0, 200), Some(0), None)[0];
    assert_eq!((s.blocks_accepted, s.blocks_probed), (2, 0));
    // Delta 0 (the padding lanes' value) inside the predicate: probe path.
    diff_all_visitors(&t, &[(0, 628, 699)], (0, 200), Some(0), None);
}

#[test]
fn accepted_blocks_answer_sums_from_cumulative() {
    // Sorted key: a mid-range predicate accepts interior blocks wholesale.
    let key: Vec<u64> = (0..1024).collect();
    let agg: Vec<u64> = (0..1024).map(|i| i * 3 + 1).collect();
    let t = compressed_table(vec![key, agg]);
    let cumulative = t.cumulative_sum(1);
    let checks = [(0usize, 130u64, 900u64)];
    let ps = diff_all_visitors(&t, &checks, (0, 1024), Some(1), Some(&cumulative))[1];
    assert!(
        ps.blocks_accepted >= 4,
        "interior blocks must be accepted wholesale, got {ps:?}"
    );
}

#[test]
fn empty_tables_and_empty_ranges() {
    let t = compressed_table(vec![vec![], vec![]]);
    diff_all_visitors(&t, &[(0, 0, 10)], (0, 0), Some(1), None);
    let t = compressed_table(vec![(0..300).collect(), (300..600).collect()]);
    diff_all_visitors(&t, &[(0, 0, 10)], (150, 150), Some(1), None);
    // Sub-range entirely inside one block.
    diff_all_visitors(&t, &[(0, 100, 200)], (130, 140), Some(1), None);
}

#[test]
fn unaligned_subranges_match() {
    // Scan ranges that start/end mid-block exercise the offset clamps.
    let t = compressed_table(vec![
        (0..1000).map(|i| i % 97).collect(),
        (0..1000).map(|i| i * 31).collect(),
    ]);
    for (s, e) in [(1, 999), (127, 129), (128, 256), (130, 890), (0, 1)] {
        diff_all_visitors(&t, &[(0, 10, 60)], (s, e), Some(1), None);
    }
}

#[test]
fn block_len_is_what_these_tests_assume() {
    // The counter arithmetic above hard-codes 128-row blocks.
    assert_eq!(BLOCK_LEN, 128);
}
