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
//! `FLOOD_PROPTEST_CASES` scales the case count (CI raises it on push);
//! `FLOOD_MEM_BUDGET`, when set, is added to the budget pool so CI can
//! force a mostly-cold run of this whole suite.

mod common;

use common::{
    build_table, cases, cuts_strategy, diff_driver_all, filter_strategy, plan_from, splitmix,
    Bound, DimFilter,
};
use flood_store::{
    assert_stats_equivalent, scan_checked, scan_rows, CountVisitor, MemBackend, MinMaxVisitor,
    ScanStats, SumVisitor, Table, TierConfig, TieredTable, Visitor,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The budget pool: everything-cold, tiny (heavy eviction churn), medium,
/// effectively-unbounded — plus the CI override when present.
fn budgets() -> Vec<usize> {
    let mut b = vec![0, 2_048, 64 << 10, 1 << 30];
    if let Some(env) = std::env::var("FLOOD_MEM_BUDGET")
        .ok()
        .and_then(|s| s.trim().parse().ok())
    {
        b.push(env);
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

/// Run the row loop over `resident`, then the kernel over both tables;
/// results must equal the row loop's and the tiered stats, tier counters
/// aside, must equal the resident kernel's exactly. Returns the tiered
/// stats for tier-counter assertions.
#[allow(clippy::too_many_arguments)]
fn diff_tiered<V: Visitor + Default, R: PartialEq + std::fmt::Debug>(
    resident: &Table,
    tiered: &TieredTable,
    checks: &[(usize, u64, u64)],
    start: usize,
    end: usize,
    agg: Option<usize>,
    extract: fn(&V) -> R,
    label: &str,
) -> ScanStats {
    let mut want_v = V::default();
    let mut want_s = ScanStats::default();
    let Ok(()) = scan_rows(resident, checks, start, end, agg, &mut want_v, &mut want_s);
    let mut rv = V::default();
    let mut rs = ScanStats::default();
    let Ok(()) = scan_checked(resident, checks, start, end, agg, None, &mut rv, &mut rs);
    let mut tv = V::default();
    let mut ts = ScanStats::default();
    scan_checked(tiered, checks, start, end, agg, None, &mut tv, &mut ts)
        .expect("in-memory backend never fails");
    assert_eq!(extract(&tv), extract(&want_v), "{label}: result");
    assert_stats_equivalent(&ts, &want_s, label);
    let mut got = ts.sans_tier_counters();
    got.scan_ns = 0;
    let mut want = rs;
    want.scan_ns = 0;
    assert_eq!(got, want, "{label}: shared counters must match exactly");
    ts
}

/// All visitor kinds over one (table, checks, range) instance.
fn diff_all_visitors(
    resident: &Table,
    tiered: &TieredTable,
    checks: &[(usize, u64, u64)],
    start: usize,
    end: usize,
) -> ScanStats {
    diff_tiered::<CountVisitor, _>(
        resident,
        tiered,
        checks,
        start,
        end,
        None,
        |v| v.count,
        "count",
    );
    diff_tiered::<SumVisitor, _>(
        resident,
        tiered,
        checks,
        start,
        end,
        Some(1),
        |v| (v.sum, v.count),
        "sum",
    );
    diff_tiered::<MinMaxVisitor, _>(
        resident,
        tiered,
        checks,
        start,
        end,
        Some(1),
        |v| (v.min, v.max, v.count),
        "minmax",
    );
    // Exact (row, value) sequence — order and values, not just sets.
    diff_tiered::<RowValueVisitor, _>(
        resident,
        tiered,
        checks,
        start,
        end,
        Some(2),
        |v| v.seen.clone(),
        "rowvalue",
    )
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
        let mut resident = build_table(&runs, seed);
        let pool = budgets();
        let budget = pool[budget_sel % pool.len()];
        let tiered = TieredTable::seal(
            &resident,
            Arc::new(MemBackend::new()),
            TierConfig { budget_bytes: budget, segment_blocks },
        ).unwrap();
        resident.compress();
        let filters = [filters.0, filters.1, filters.2];
        let checks = make_checks(&tiered, &filters);
        let len = resident.len();

        // A little workload: same predicate over varying sub-ranges, with
        // adversarial residency perturbations between queries. Results and
        // shared counters must be identical every time — the cache state a
        // query starts from is invisible.
        for (i, &(a, b)) in range_sels.iter().enumerate() {
            let (x, y) = (len * a as usize / 1000, len * b as usize / 1000);
            let (start, end) = (x.min(y), x.max(y));
            let ts = diff_all_visitors(&resident, &tiered, &checks, start, end);
            if budget == 0 {
                // Everything-cold: a scan can never find a segment resident.
                prop_assert_eq!(ts.segments_hit, 0, "budget=0 must never hit");
            }
            apply_evict(&tiered, evictions[i % evictions.len()]);

            // The scan driver over a list of ranges, serial and chunked at
            // segment boundaries, from whatever residency that left.
            let plan = plan_from(len, &checks, &cuts, split);
            diff_driver_all(&tiered, &resident, &plan, None);
        }
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
}
