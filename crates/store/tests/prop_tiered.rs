//! Differential property suite: tiered scans ≡ fully-resident scans.
//!
//! For arbitrary tables, predicates, sub-ranges, memory budgets (including
//! zero — everything cold, every scan faults) and adversarial eviction
//! schedules injected between queries, `scan_checked` over a
//! `TieredTable` must produce exactly the results, row order, *and* shared
//! [`ScanStats`] counters of the reference row loop (`scan_rows`) over the
//! same data fully resident — and the block counters of `scan_checked`
//! over the resident compressed table, since a tiered scan must make the
//! identical skip/accept/probe decision from resident metadata. Only the
//! tier counters (`segments_*`) are new; `assert_stats_equivalent` and
//! [`ScanStats::sans_tier_counters`] normalize them away.
//!
//! Residency is *performance* state, never *result* state: evicting
//! everything, shrinking the budget mid-workload, or re-running a query
//! against a cold cache must be invisible in results.
//!
//! A read is *planned* before it is scanned: [`TieredScan`] looks only at
//! the table's `candidate_rows`. The last property holds that plan against
//! the full scan on tables whose columns are ordered, ordered in runs,
//! reversed or random, grown by [`TieredDelta`] appends.
//!
//! `FLOOD_PROPTEST_CASES` scales the case count (CI raises it on push);
//! `FLOOD_MEM_BUDGET`, when set, is added to the budget pool so CI can
//! force a mostly-cold run of this whole suite.

mod common;

use common::{
    build_table, cuts_strategy, diff_driver_all, filter_strategy, plan_from, Bound, Cut, DimFilter,
};
use flood_store::{
    assert_stats_equivalent, scan_checked, scan_rows, Check, FileBackend, MemBackend, RangeQuery,
    ScanStats, StorageBackend, Table, TierConfig, TieredDelta, TieredScan, TieredTable, Visitor,
    BLOCK_LEN,
};
use flood_testkit::{answer, cases, splitmix, Answer};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// The budget pool: everything-cold, tiny (heavy eviction churn), medium,
/// effectively-unbounded — plus the CI override when present.
fn budgets() -> Vec<usize> {
    let mut b = vec![0, 2_048, 64 << 10, 1 << 30];
    if std::env::var_os("FLOOD_MEM_BUDGET").is_some() {
        // Through the one parser, which rejects a typo by name.
        b.push(TierConfig::default().from_env().budget_bytes);
    }
    b
}

/// An adversarial residency perturbation injected between queries.
#[derive(Debug, Clone, Copy)]
enum Evict {
    /// Leave the cache as the previous query left it.
    None,
    /// Drop every resident segment.
    All,
    /// Shrink the budget to `frac/1000` of its value (evicting down to it
    /// immediately), then restore the original budget.
    Squeeze(u16),
}

fn evict_strategy() -> impl Strategy<Value = Evict> {
    prop_oneof![
        Just(Evict::None),
        Just(Evict::All),
        (0u16..1000).prop_map(Evict::Squeeze),
    ]
}

fn apply_evict(t: &TieredTable, op: Evict) {
    match op {
        Evict::None => {}
        Evict::All => t.cache().evict_all(),
        Evict::Squeeze(frac) => {
            let budget = t.cache().budget_bytes();
            t.cache().set_budget(budget / 1000 * frac as usize);
            t.cache().set_budget(budget);
        }
    }
}

fn resolve(tiered: &TieredTable, dim: usize, b: Bound) -> u64 {
    let meta = tiered.tiered_column(dim).meta();
    let (mn, mx) = meta.iter().fold((u64::MAX, 0u64), |(lo, hi), m| {
        (lo.min(m.min), hi.max(m.max))
    });
    let (mn, mx) = if meta.is_empty() { (0, 0) } else { (mn, mx) };
    match b {
        Bound::BlockEdge(sel, want_max) if !meta.is_empty() => {
            let m = &meta[sel as usize % meta.len()];
            if want_max {
                m.max
            } else {
                m.min
            }
        }
        Bound::BlockEdge(sel, _) => resolve(tiered, dim, Bound::Frac(sel % 1001)),
        Bound::Frac(sel) => mn + ((mx - mn) as u128 * sel as u128 / 1000) as u64,
    }
}

fn make_checks(tiered: &TieredTable, filters: &[DimFilter; 3]) -> Vec<(usize, u64, u64)> {
    let mut checks = Vec::new();
    for (d, f) in filters.iter().enumerate() {
        if let Some((a, b)) = f {
            let (x, y) = (resolve(tiered, d, *a), resolve(tiered, d, *b));
            checks.push((d, x.min(y), x.max(y)));
        }
    }
    checks
}

/// Records every (row, value) pair in visit order — catches any difference
/// in match set, emission order, or aggregation values.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct RowValueVisitor {
    seen: Vec<(usize, u64)>,
}

impl Visitor for RowValueVisitor {
    fn visit(&mut self, row: usize, value: u64) {
        self.seen.push((row, value));
    }
}

/// One read of a query's matches into a visitor, over aggregation column
/// `agg`.
type Read<'a> = &'a dyn Fn(Option<usize>, &mut dyn Visitor) -> ScanStats;

/// What `read` returns under every visitor kind (SUM and MIN/MAX over
/// column 1), plus the exact (row, value) sequence it visits with column 2
/// as the value — order and values, not just sets — and each run's stats,
/// the (row, value) run's last.
fn every_visitor(read: Read) -> (Answer<usize>, Vec<(usize, u64)>, Vec<ScanStats>) {
    let (answer, stats) = answer(&read, Some(1), Some(1));
    let mut v = RowValueVisitor::default();
    let last = read(Some(2), &mut v);
    (answer, v.seen, stats.into_iter().chain([last]).collect())
}

const KINDS: [&str; 5] = ["count", "sum", "minmax", "collect", "rowvalue"];

/// Every visitor kind over one (table, checks, range) instance: the row
/// loop over `resident`, then the kernel over both tables. Results must
/// equal the row loop's, and the tiered stats, tier counters aside, must
/// equal the resident kernel's exactly. Returns the tiered stats of the
/// last run for tier-counter assertions.
fn diff_all_visitors(
    resident: &Table,
    tiered: &TieredTable,
    checks: &[(usize, u64, u64)],
    start: usize,
    end: usize,
) -> ScanStats {
    let rows = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        let Ok(()) = scan_rows(resident, checks, start, end, agg, v, &mut s);
        s
    };
    let kernel = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        let Ok(()) = scan_checked(resident, checks, start, end, agg, None, v, &mut s);
        s
    };
    let cold = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        scan_checked(tiered, checks, start, end, agg, None, v, &mut s)
            .expect("the test backends never fail");
        s
    };
    let (want, want_seen, want_stats) = every_visitor(&rows);
    let (_, _, kernel_stats) = every_visitor(&kernel);
    let (got, got_seen, tiered_stats) = every_visitor(&cold);
    assert_eq!((got, got_seen), (want, want_seen), "result");
    for (i, kind) in KINDS.iter().enumerate() {
        assert_stats_equivalent(&tiered_stats[i], &want_stats[i], kind);
        assert_eq!(
            tiered_stats[i].sans_tier_counters(),
            kernel_stats[i],
            "{kind}: shared counters must match exactly"
        );
    }
    tiered_stats[4]
}

/// How one column of the planned-read tables is ordered.
#[derive(Debug, Clone, Copy)]
enum Order {
    Sorted,
    /// Ascending in runs of 97 rows, each run starting over.
    RunwiseSorted,
    Reversed,
    Random,
}

fn order_strategy() -> impl Strategy<Value = Order> {
    prop_oneof![
        Just(Order::Sorted),
        Just(Order::RunwiseSorted),
        Just(Order::Reversed),
        Just(Order::Random),
    ]
}

/// Rows `rows` of a column ordered by `order`. A *dip* batch — the
/// `dip`-th, counted from 1 — lies wholly below everything before it,
/// whatever the order.
fn column_rows(order: Order, rows: Range<usize>, dip: Option<u64>, s: &mut u64) -> Vec<u64> {
    const BASE: u64 = 1 << 32;
    rows.map(|r| {
        let (r, jitter) = (r as u64, splitmix(s) % 3);
        let v = match order {
            Order::Sorted => r * 3 + jitter,
            Order::RunwiseSorted => (r % 97) * 5 + r / 97 % 3,
            Order::Reversed => (1 << 20) - r * 2,
            Order::Random => splitmix(s) % 4_096,
        };
        match dip {
            None => BASE + v,
            Some(k) => BASE - k * (1 << 21) + v % (1 << 20),
        }
    })
    .collect()
}

/// The segments `checks` leave as candidates, by brute force over block
/// metadata: from the first segment with a block whose max reaches `lo` to
/// the last with a block whose min is within `hi`, for every check.
fn brute_candidate_rows(t: &TieredTable, checks: &[Check]) -> Range<usize> {
    let mut segs = 0..t.n_segments();
    for &(d, lo, hi) in checks {
        let meta = t.tiered_column(d).meta();
        let of = |span: &flood_store::tier::SegSpan| &meta[span.first_block..][..span.n_blocks];
        let reaches = |sp| of(sp).iter().any(|m| m.max >= lo);
        let within = |sp| of(sp).iter().any(|m| m.min <= hi);
        let first = t.spans().iter().position(reaches);
        let last = t.spans().iter().rposition(within);
        segs = match (first, last) {
            (Some(f), Some(l)) if lo <= hi => segs.start.max(f)..segs.end.min(l + 1),
            _ => 0..0,
        };
    }
    if segs.is_empty() {
        return 0..0;
    }
    let last = t.spans()[segs.end - 1];
    t.spans()[segs.start].first_block * BLOCK_LEN
        ..t.len().min((last.first_block + last.n_blocks) * BLOCK_LEN)
}

/// Every visitor kind through a planned read (`read`, returning its
/// stats) against `scan_rows` over all of `full`: same result in the same
/// order, same match count, and exactly `planned` rows looked at.
fn planned_vs_full_all(full: &Table, checks: &[Check], planned: usize, read: Read) {
    let rows = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut s = ScanStats::default();
        let Ok(()) = scan_rows(full, checks, 0, full.len(), agg, v, &mut s);
        s
    };
    let (want, want_seen, _) = every_visitor(&rows);
    let (got, got_seen, stats) = every_visitor(read);
    for (kind, s) in KINDS.iter().zip(&stats) {
        assert_eq!(s.points_matched, want.count, "{kind}: matched");
        assert_eq!(s.points_scanned, planned as u64, "{kind}: scanned");
    }
    assert_eq!((got, got_seen), (want, want_seen), "result");
    assert!(planned <= full.len(), "more than the full scan");
}

/// A planned read of the rows `delta` has sealed, through a [`TieredScan`]
/// over its base, against the full scan of the same rows resident. `rows`
/// holds every row inserted, buffered ones last.
fn check_planned_reads(delta: &TieredDelta, rows: &[Vec<u64>], filters: &[DimFilter; 3]) {
    let base = delta.base();
    assert_eq!(delta.len(), rows[0].len(), "sealed plus buffered");
    let checks = make_checks(base, filters);
    let candidates = base.candidate_rows(&checks);
    assert_eq!(
        candidates,
        brute_candidate_rows(base, &checks),
        "{checks:?}"
    );
    assert_eq!(candidates.start % base.segment_rows(), 0, "aligned start");
    assert!(
        candidates.end % base.segment_rows() == 0 || candidates.end == base.len(),
        "aligned end: {candidates:?} of {}",
        base.len()
    );

    let sealed = rows.iter().map(|col| col[..base.len()].to_vec()).collect();
    let full = Table::from_columns(sealed);
    let query = checks.iter().fold(RangeQuery::all(3), |q, &(d, lo, hi)| {
        q.with_range(d, lo, hi)
    });
    let index = TieredScan::new(base.clone());
    planned_vs_full_all(&full, &checks, candidates.len(), &|agg, v| {
        index
            .try_execute(&query, agg, v)
            .expect("in-memory backend")
    });
}

/// The core differential: `resident` sealed into `backend` under a budget
/// from the pool, queried with one predicate over varying sub-ranges, with
/// adversarial residency perturbations between queries. Results and shared
/// counters must be identical every time — the cache state a query starts
/// from is invisible.
#[allow(clippy::too_many_arguments)]
fn tiered_equals_resident_on(
    backend: Arc<dyn StorageBackend>,
    mut resident: Table,
    filters: [DimFilter; 3],
    budget_sel: usize,
    segment_blocks: usize,
    range_sels: &[(u16, u16)],
    evictions: &[Evict],
    cuts: &[Cut],
    split: usize,
) {
    let pool = budgets();
    let budget = pool[budget_sel % pool.len()];
    let tiered = TieredTable::seal(
        &resident,
        backend,
        TierConfig {
            budget_bytes: budget,
            segment_blocks,
        },
    )
    .unwrap();
    resident.compress();
    let checks = make_checks(&tiered, &filters);
    let len = resident.len();
    for (i, &(a, b)) in range_sels.iter().enumerate() {
        let (x, y) = (len * a as usize / 1000, len * b as usize / 1000);
        let (start, end) = (x.min(y), x.max(y));
        let ts = diff_all_visitors(&resident, &tiered, &checks, start, end);
        if budget == 0 {
            // Everything-cold: a scan can never find a segment resident.
            assert_eq!(ts.segments_hit, 0, "budget=0 must never hit");
        }
        apply_evict(&tiered, evictions[i % evictions.len()]);

        // The scan driver over a list of ranges, serial and chunked at
        // segment boundaries, from whatever residency that left.
        let plan = plan_from(len, &checks, cuts, split);
        diff_driver_all(&tiered, &resident, &plan, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// Core differential: arbitrary tables × budgets × eviction schedules
    /// × predicates × sub-ranges, all visitors.
    #[test]
    fn tiered_equals_resident(
        runs in proptest::collection::vec((0u64..6, 1usize..220), 1..8),
        seed in 0u64..1_000_000,
        filters in (filter_strategy(), filter_strategy(), filter_strategy()),
        budget_sel in 0usize..8,
        segment_blocks in 1usize..5,
        range_sels in proptest::collection::vec((0u16..1000, 0u16..1000), 1..4),
        evictions in proptest::collection::vec(evict_strategy(), 1..4),
        cuts in cuts_strategy(),
        split in 0usize..4,
    ) {
        tiered_equals_resident_on(
            Arc::new(MemBackend::new()),
            build_table(&runs, seed),
            [filters.0, filters.1, filters.2],
            budget_sel, segment_blocks, &range_sels, &evictions, &cuts, split,
        );
    }

    /// The core differential sealed through the file backend: every fault
    /// is a positioned read of the one data file.
    #[test]
    fn tiered_equals_resident_over_files(
        runs in proptest::collection::vec((0u64..6, 1usize..220), 1..8),
        seed in 0u64..1_000_000,
        filters in (filter_strategy(), filter_strategy(), filter_strategy()),
        budget_sel in 0usize..8,
        segment_blocks in 1usize..5,
        range_sels in proptest::collection::vec((0u16..1000, 0u16..1000), 1..4),
        evictions in proptest::collection::vec(evict_strategy(), 1..4),
        cuts in cuts_strategy(),
        split in 0usize..4,
    ) {
        tiered_equals_resident_on(
            Arc::new(FileBackend::new_temp().unwrap()),
            build_table(&runs, seed),
            [filters.0, filters.1, filters.2],
            budget_sel, segment_blocks, &range_sels, &evictions, &cuts, split,
        );
    }

    /// Sealing is lossless: decoding every cold segment reproduces the
    /// source table bit-for-bit, names included.
    #[test]
    fn seal_resident_roundtrip(
        runs in proptest::collection::vec((0u64..6, 1usize..220), 1..8),
        seed in 0u64..1_000_000,
        segment_blocks in 1usize..7,
    ) {
        let source = build_table(&runs, seed);
        let tiered = TieredTable::seal(
            &source,
            Arc::new(MemBackend::new()),
            TierConfig { budget_bytes: 0, segment_blocks },
        ).unwrap();
        let back = tiered.resident().unwrap();
        prop_assert_eq!(back.len(), source.len());
        for d in 0..source.dims() {
            for r in 0..source.len() {
                prop_assert_eq!(back.value(r, d), source.value(r, d), "row {} dim {}", r, d);
            }
        }
        prop_assert_eq!(back.names(), source.names());
    }

    /// Compaction ≡ resident concat: appending arbitrary fresh rows (which
    /// re-seals unaligned tails into new segments) yields exactly the table
    /// a resident concatenation would.
    #[test]
    fn append_equals_resident_concat(
        runs in proptest::collection::vec((0u64..6, 1usize..180), 1..6),
        seed in 0u64..1_000_000,
        extra in 0usize..300,
        segment_blocks in 1usize..5,
        filters in (filter_strategy(), filter_strategy(), filter_strategy()),
    ) {
        let source = build_table(&runs, seed);
        let mut tiered = TieredTable::seal(
            &source,
            Arc::new(MemBackend::new()),
            TierConfig { budget_bytes: 4_096, segment_blocks },
        ).unwrap();
        let mut s = seed ^ 0xdead_beef;
        let fresh: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..extra).map(|_| splitmix(&mut s) % 4_096).collect())
            .collect();
        tiered.append_columns(fresh.clone()).unwrap();

        // Resident reference: concat source + fresh, compressed.
        let mut concat: Vec<Vec<u64>> = (0..3)
            .map(|d| (0..source.len()).map(|r| source.value(r, d)).collect())
            .collect();
        for (d, col) in fresh.iter().enumerate() {
            concat[d].extend_from_slice(col);
        }
        let mut reference = Table::from_columns(concat);
        reference.compress();

        let filters = [filters.0, filters.1, filters.2];
        let checks = make_checks(&tiered, &filters);
        diff_all_visitors(&reference, &tiered, &checks, 0, reference.len());
    }

    /// Planned reads ≡ the full scan: `TieredScan` looks only at
    /// `candidate_rows`, which is exactly what brute force over the block
    /// metadata leaves — on columns ordered every which way, while rows
    /// are buffered, and after each append re-seals an unaligned tail,
    /// including batches that undercut everything sealed before them.
    #[test]
    fn planned_reads_equal_full_scan(
        orders in (order_strategy(), order_strategy(), order_strategy()),
        seed in 0u64..1_000_000,
        sealed in 0usize..600,
        appends in proptest::collection::vec((1usize..260, proptest::arbitrary::any::<bool>()), 2..5),
        filters in proptest::collection::vec(
            (filter_strategy(), filter_strategy(), filter_strategy()), 1..4),
        budget_sel in 0usize..8,
        segment_blocks in 1usize..5,
    ) {
        let orders = [orders.0, orders.1, orders.2];
        let mut s = seed;
        let mut batch = |rows: Range<usize>, dip: Option<u64>| -> Vec<Vec<u64>> {
            orders.iter().map(|&o| column_rows(o, rows.clone(), dip, &mut s)).collect()
        };
        // An odd row count: the first append always re-seals a tail.
        let mut rows = batch(0..sealed | 1, None);
        let pool = budgets();
        let base = TieredTable::seal(
            &Table::from_columns(rows.clone()),
            Arc::new(MemBackend::new()),
            TierConfig { budget_bytes: pool[budget_sel % pool.len()], segment_blocks },
        ).unwrap();
        let mut delta = TieredDelta::with_threshold(base, usize::MAX);
        let check = |delta: &TieredDelta, rows: &[Vec<u64>]| {
            for f in &filters {
                check_planned_reads(delta, rows, &[f.0, f.1, f.2]);
            }
        };
        check(&delta, &rows);

        let mut dips = 0;
        for &(len, dip) in &appends {
            dips += u64::from(dip);
            let start = rows[0].len();
            let fresh = batch(start..start + len, dip.then_some(dips));
            for ((&a, &b), &c) in fresh[0].iter().zip(&fresh[1]).zip(&fresh[2]) {
                delta.insert(&[a, b, c]).unwrap();
            }
            for (col, new) in rows.iter_mut().zip(&fresh) {
                col.extend_from_slice(new);
            }
            check(&delta, &rows);
            delta.compact().unwrap();
            prop_assert_eq!(delta.base().len(), rows[0].len());
            check(&delta, &rows);
        }
    }
}
