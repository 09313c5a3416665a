//! Property tests for the Flood index: equivalence with brute force under
//! every configuration axis (flattening × refinement × compression ×
//! cumulative columns), and grid/cell-table invariants.
//!
//! The second block pins the *build*: the storage order and cell table of
//! [`FloodIndex::build`] against the row-at-a-time reference it replaced
//! ([`reference_order`]), and [`FloodIndex::rebuild`] on a pool against
//! `build`. The third pins the *pooled build*: [`FloodIndex::build_with`]
//! at 1, 2, 3 and 5 workers against the serial `build`, byte for byte
//! ([`FloodIndex::differs_from`]), on tables long enough for radix-sorted
//! cells, plus deterministic edge cases. The fourth pins
//! *refinement*: every planned `[start, end)` against `partition_point`
//! over the decoded cell, on cells around one block long — where
//! refinement ranks ([`flood_store::rank_rows`]) instead of searching.
//! `FLOOD_PROPTEST_CASES` scales these blocks' case counts (CI runs them at
//! 512 in the optimised build, where `debug_assert`s are off and shifts
//! and subtractions wrap instead of panicking).

use flood_core::{
    FdPair, Flattener, Flattening, FloodBuilder, FloodConfig, FloodIndex, Layout, Refinement,
};
use flood_store::{
    CountVisitor, MultiDimIndex, PlannedIndex, RangeQuery, SumVisitor, Table, ThreadPool, BLOCK_LEN,
};
use flood_testkit::{arb_lcg_table, arb_query, cases, count, oracle, span, Lcg};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_table() -> impl Strategy<Value = Table> {
    arb_lcg_table(1..300, [32, 5_000, 1 << 30])
}

fn arb_query3() -> impl Strategy<Value = RangeQuery> {
    arb_query(3, prop_oneof![Just(None), span(5_000)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_configurations_match_oracle(
        t in arb_table(),
        q in arb_query3(),
        uniform in any::<bool>(),
        binsearch in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let mut b = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![5, 4]))
            .compress(compress);
        if uniform {
            b = b.flattening(Flattening::Uniform);
        }
        if binsearch {
            b = b.refinement(Refinement::BinarySearch);
        }
        let idx = b.build(&t);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        prop_assert_eq!(v.count, count(&t, &q));
    }

    #[test]
    fn sum_with_cumulative_matches_oracle(t in arb_table(), q in arb_query3()) {
        let idx = FloodBuilder::new()
            .layout(Layout::new(vec![0, 2, 1], vec![4, 4]))
            .cumulative_sum(1)
            .build(&t);
        let mut v = SumVisitor::default();
        idx.execute(&q, Some(1), &mut v);
        prop_assert_eq!(v.sum, oracle(&t, &q, Some(1), None).sum.sum);
    }

    #[test]
    fn sort_only_layout_matches_oracle(t in arb_table(), q in arb_query3()) {
        let idx = FloodBuilder::new().layout(Layout::sort_only(1)).build(&t);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        prop_assert_eq!(v.count, count(&t, &q));
    }

    #[test]
    fn cell_table_partitions_the_data(t in arb_table()) {
        let idx = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![6, 6]))
            .build(&t);
        // Cell sizes sum to the table size; data within each cell is sorted
        // by the sort dimension.
        let sizes = idx.cell_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), t.len());
        let data = idx.data();
        let sort_dim = idx.layout().sort_dim();
        let mut at = 0usize;
        for sz in sizes {
            for i in at + 1..at + sz {
                prop_assert!(
                    data.value(i - 1, sort_dim) <= data.value(i, sort_dim),
                    "cell not sorted at row {i}"
                );
            }
            at += sz;
        }
    }

    #[test]
    fn stats_scan_overhead_at_least_one(t in arb_table(), q in arb_query3()) {
        let idx = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&t);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        if let Some(so) = stats.scan_overhead() {
            prop_assert!(so >= 1.0, "scan overhead below 1: {so}");
        }
    }
}

/// Five columns that stress the build: three values repeated throughout
/// (long runs of equal keys), a small domain, the full `u64` domain with
/// both ends present, an already-ascending column with ties, and the row
/// id — which makes every row distinct, so equal data row by row means an
/// equal permutation. `n` may be 0 or 1.
fn build_table(n: usize, seed: u64) -> Table {
    let mut s = Lcg::new(seed, 11);
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); 5];
    for i in 0..n as u64 {
        cols[0].push(s.next_u64() % 3);
        cols[1].push(s.next_u64() % 5_000);
        cols[2].push(match s.next_u64() % 16 {
            0 => u64::MAX,
            1 => 0,
            2 => (1 << 53) + s.next_u64() % 4,
            _ => (s.next_u64() << 11) | (s.next_u64() % 2_048),
        });
        cols[3].push(i / 3);
        cols[4].push(i);
    }
    Table::from_columns(cols)
}

/// A layout over a seed-drawn subset and order of the five columns: one to
/// four grid dimensions with 1, 2, 3, 7 or 16 columns each (one-column
/// dimensions mixed with wider ones), with a sort dimension or without
/// (`histogram`).
fn build_layout(seed: u64, histogram: bool) -> Layout {
    let mut s = Lcg::new(seed, 11);
    let mut order: Vec<usize> = (0..5).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, s.next_u64() as usize % (i + 1));
    }
    order.truncate(1 + s.next_u64() as usize % 5);
    let grid_dims = order.len() - usize::from(!histogram);
    let cols = (0..grid_dims)
        .map(|_| [1, 1, 2, 3, 7, 16][s.next_u64() as usize % 6])
        .collect();
    if histogram {
        Layout::histogram(order, cols)
    } else {
        Layout::new(order, cols)
    }
}

/// The build as it was before column boundaries and the counting sort: one
/// `bucket` per row and grid dimension (a CDF fitted for *every* grid
/// dimension, one-column ones included), one comparison sort over unique
/// `(cell, sort value, row)` triples, a second pass for the cell table.
/// Returns the storage order and `cell_starts`.
fn reference_order(t: &Table, layout: &Layout, mode: Flattening) -> (Vec<u32>, Vec<usize>) {
    let flattener = Flattener::fit(t, None, layout.grid_dims(), mode);
    let cols = layout.cols();
    let mut keyed: Vec<(u64, u64, u32)> = (0..t.len())
        .map(|row| {
            let mut cell = 0u64;
            for (&d, &c) in layout.grid_dims().iter().zip(cols) {
                cell = cell * c as u64 + flattener.bucket(d, t.value(row, d), c) as u64;
            }
            (cell, t.value(row, layout.sort_dim()), row as u32)
        })
        .collect();
    keyed.sort_unstable();
    let mut cell_starts = vec![0usize; layout.num_cells() + 1];
    for &(cell, ..) in &keyed {
        cell_starts[cell as usize + 1] += 1;
    }
    for c in 0..layout.num_cells() {
        cell_starts[c + 1] += cell_starts[c];
    }
    (keyed.iter().map(|&(.., row)| row).collect(), cell_starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn build_equals_reference(
        n in 0usize..400,
        seed in any::<u64>(),
        histogram in any::<bool>(),
        uniform in any::<bool>(),
        compressed_source in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let mut t = build_table(n, seed);
        let layout = build_layout(seed.rotate_left(17), histogram);
        let mode = if uniform { Flattening::Uniform } else { Flattening::Learned };
        let (perm, cell_starts) = reference_order(&t, &layout, mode);
        if compressed_source {
            t.compress();
        }
        let idx = FloodBuilder::new()
            .layout(layout.clone())
            .flattening(mode)
            .compress(compress)
            .build(&t);
        for c in 0..layout.num_cells() {
            prop_assert_eq!(
                idx.cell_range(c),
                (cell_starts[c], cell_starts[c + 1]),
                "{}, cell {}", layout, c
            );
        }
        for (i, &row) in perm.iter().enumerate() {
            prop_assert_eq!(idx.data().row(i), t.row(row as usize), "{}, row {}", layout, i);
        }
    }

    /// A chain of re-layouts (grid dimensions kept, dropped, re-added and
    /// changed in width along the way) through `rebuild`, each step
    /// against a from-scratch `build` over the same data.
    #[test]
    fn rebuild_equals_build(
        n in 0usize..400,
        seed in any::<u64>(),
        uniform in any::<bool>(),
        compress in any::<bool>(),
    ) {
        let t = build_table(n, seed);
        let cfg = FloodConfig {
            flattening: if uniform { Flattening::Uniform } else { Flattening::Learned },
            compress,
            ..FloodConfig::default()
        };
        // The first two carry a soft FD: grid-hosted, then sort-hosted.
        let fd = |host, dep| vec![FdPair { host, dep }];
        let chain = [
            Layout::new(vec![0, 1, 2], vec![3, 7]).with_fds(fd(0, 3)), // first fit of d0, d1
            Layout::new(vec![1, 2, 3, 4], vec![5, 1, 4]).with_fds(fd(4, 0)), // d1 kept, d2 one column, d3 new
            Layout::histogram(vec![0, 4], vec![2, 6]),    // disjoint from the last; d0 again
            build_layout(seed.rotate_left(29), false),
        ];
        let mut live = FloodIndex::build(&t, Layout::sort_only(2), cfg.clone());
        for layout in chain {
            let fresh = FloodIndex::build(live.data(), layout.clone(), cfg.clone());
            live = live.rebuild(layout, ThreadPool::from_env());
            for c in 0..fresh.layout().num_cells() {
                prop_assert_eq!(live.cell_range(c), fresh.cell_range(c), "cell {}", c);
            }
            for i in 0..t.len() {
                prop_assert_eq!(live.data().row(i), fresh.data().row(i), "row {}", i);
            }
            prop_assert_eq!(live.index_size_bytes(), fresh.index_size_bytes());
            prop_assert_eq!(live.active_fds(), fresh.active_fds());
        }
    }
}

/// `FloodIndex::build_with` on 1, 2, 3 and 5 workers (5: more workers than
/// the assign and the scatter cut tasks for), with the serial build's CDFs,
/// is the serial build.
fn assert_pooled_equals_serial(t: &Table, layout: &Layout, cfg: &FloodConfig) {
    let serial = FloodIndex::build(t, layout.clone(), cfg.clone());
    for workers in [1, 2, 3, 5] {
        let cdfs = Arc::clone(serial.flattener());
        let pool = ThreadPool::new(workers);
        let pooled = FloodIndex::build_with(t, layout.clone(), cfg.clone(), cdfs, pool);
        assert_eq!(
            pooled.differs_from(&serial),
            None,
            "{layout} over {} rows at {workers} workers",
            t.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// Up to 2 000 rows: cells past the radix cut-off, cells longer than
    /// one cell-sort task's share; compressed sources decoded a chunk at a
    /// time; a soft FD and a cumulative column to rebuild.
    #[test]
    fn pooled_build_equals_serial(
        n in 0usize..2_000,
        seed in any::<u64>(),
        histogram in any::<bool>(),
        uniform in any::<bool>(),
        compressed_source in any::<bool>(),
        compress in any::<bool>(),
        fd in any::<bool>(),
    ) {
        let mut t = build_table(n, seed);
        if compressed_source {
            t.compress();
        }
        let mut layout = build_layout(seed.rotate_left(17), histogram);
        if fd {
            let host = layout.order()[0];
            layout = layout.with_fds(vec![FdPair { host, dep: (host + 1) % 5 }]);
        }
        let cfg = FloodConfig {
            flattening: if uniform { Flattening::Uniform } else { Flattening::Learned },
            compress,
            cumulative_dims: vec![seed as usize % 5],
            ..FloodConfig::default()
        };
        assert_pooled_equals_serial(&t, &layout, &cfg);
    }
}

/// The pooled build's edge cases: one cell holding every row, all-equal sort keys, keys spanning
/// `0..=u64::MAX`, fewer rows than workers, no rows, and a compressed
/// table whose last block is short.
#[test]
fn pooled_build_edge_cases() {
    let n = 6_000;
    let t = build_table(n, 3);
    let cfg = FloodConfig::default();
    let compressed = FloodConfig {
        compress: true,
        ..FloodConfig::default()
    };
    // One cell: no grid, and a grid of one column.
    for layout in [Layout::sort_only(2), Layout::new(vec![0, 2], vec![1])] {
        assert_pooled_equals_serial(&t, &layout, &cfg);
    }
    // All sort keys equal: column 0 holds three values, a constant column
    // holds one.
    let constant = Table::from_columns(vec![(0..n as u64).map(|i| i % 7).collect(), vec![9; n]]);
    assert_pooled_equals_serial(&constant, &Layout::new(vec![0, 1], vec![3]), &cfg);
    // Keys over the whole of `u64`, both ends present, in one cell and
    // in several.
    let wide = build_table(n, 11);
    assert!((0..n).any(|r| wide.value(r, 2) == u64::MAX) && (0..n).any(|r| wide.value(r, 2) == 0));
    assert_pooled_equals_serial(&wide, &Layout::sort_only(2), &cfg);
    assert_pooled_equals_serial(&wide, &Layout::new(vec![1, 2], vec![2]), &compressed);
    // Fewer rows than workers, and none.
    for rows in [0, 1, 2] {
        let t = build_table(rows, 5);
        assert_pooled_equals_serial(&t, &Layout::new(vec![1, 0, 2], vec![3, 2]), &cfg);
        assert_pooled_equals_serial(&t, &Layout::sort_only(2), &compressed);
    }
    // A compressed source of 5 blocks and 37 rows.
    let mut short = build_table(5 * BLOCK_LEN + 37, 13);
    short.compress();
    for layout in [Layout::new(vec![1, 3, 2], vec![7, 2]), Layout::sort_only(2)] {
        assert_pooled_equals_serial(&short, &layout, &cfg);
        assert_pooled_equals_serial(&short, &layout, &compressed);
    }
}

/// A two-column table laid out as one cell per distinct value of column 0
/// (under [`Flattening::Uniform`] with that many grid columns), sorted on
/// column 1, plus the sort keys drawn. Cell sizes run from 1 to
/// `BLOCK_LEN + 1` — single rows, half blocks, and the sizes either side of
/// the block length, so cells start mid-block, span two blocks, and sit on
/// both sides of the rank/search cut-off. Sort keys repeat heavily (a
/// domain of 1, 3 or 40 values) or barely (2²⁰, the whole of `u64`), over
/// a non-zero base.
fn cell_table(cells: usize, seed: u64) -> (Table, Vec<u64>) {
    let mut s = Lcg::new(seed, 11);
    let domain = [1, 3, 40, 1 << 20, u64::MAX][s.next_u64() as usize % 5];
    let base = [0, 1_000, 1 << 40][s.next_u64() as usize % 3];
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); 2];
    for cell in 0..cells as u64 {
        let size = match s.next_u64() % 6 {
            0 => 1 + s.next_u64() % 3,
            1 => 60 + s.next_u64() % 10,
            2 | 3 => BLOCK_LEN as u64 - 2 + s.next_u64() % 4,
            _ => 1 + s.next_u64() % (BLOCK_LEN as u64 + 1),
        };
        for _ in 0..size {
            cols[0].push(cell);
            cols[1].push(match domain {
                u64::MAX => (s.next_u64() << 11) | (s.next_u64() % 2_048),
                _ => base + s.next_u64() % domain,
            });
        }
    }
    let keys = cols[1].clone();
    (Table::from_columns(cols), keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Whatever refines a cell — ranking up to `BLOCK_LEN` rows, a PLM or
    /// bisection above — the planned range is the `partition_point` pair
    /// of the query's sort bound over the cell's decoded keys.
    #[test]
    fn refined_ranges_equal_partition_point(
        cells in 1usize..12,
        seed in any::<u64>(),
        compress in any::<bool>(),
        binsearch in any::<bool>(),
        picks in proptest::collection::vec((any::<u64>(), 0u64..8), 2),
    ) {
        let (t, keys) = cell_table(cells, seed);
        // Bounds on, next to and far from stored keys; 0 and u64::MAX too.
        let bound = |(at, how): (u64, u64)| {
            let key = keys[at as usize % keys.len()];
            match how {
                0 => 0,
                1 => u64::MAX,
                2 => key.saturating_sub(1),
                3 => key.saturating_add(1),
                _ => key,
            }
        };
        let (a, b) = (bound(picks[0]), bound(picks[1]));
        let (a, b) = (a.min(b), a.max(b));
        let idx = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1], vec![cells]))
            .flattening(Flattening::Uniform)
            .refinement(if binsearch { Refinement::BinarySearch } else { Refinement::Plm })
            .compress(compress)
            .build(&t);
        let plan = idx.plan(&RangeQuery::all(2).with_range(1, a, b));
        // The generator's claim: one cell per value of column 0, all kept.
        prop_assert_eq!(idx.non_empty_cells(), cells);
        prop_assert_eq!(plan.ranges.len(), cells);
        prop_assert_eq!(plan.stats.refinements, plan.ranges.len() as u64);
        for r in &plan.ranges {
            let (s, e) = idx.cell_range(r.tag as usize);
            let cell: Vec<u64> = (s..e).map(|i| idx.data().value(i, 1)).collect();
            let want = (
                s + cell.partition_point(|&v| v < a),
                s + cell.partition_point(|&v| v <= b),
            );
            prop_assert_eq!(
                (r.start, r.end), want,
                "cell {} = rows [{}, {}), bound [{}, {}]", r.tag, s, e, a, b
            );
        }
    }
}
