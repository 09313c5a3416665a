//! Shared by `prop_packed_scan` and `prop_tiered`: the scan driver held
//! against per-range kernel calls. For an arbitrary list of disjoint row
//! ranges, each flagged exact or given an arbitrary subset of the checks,
//! `RangeScan::run` ≡ the one `ScanPlan` at 1, 3 and 8 tasks ≡ one
//! reference kernel call per range — visited rows, aggregates and every
//! `ScanStats` counter, `ranges_scanned` included. Also the table and
//! bound generators the two suites draw from.

use flood_store::{
    assert_stats_equivalent, run_tasks_merged, scan_exact, scan_rows, BlockSource, Check,
    CumulativeColumn, MatchCount, MergeVisitor, PlannedRange, RangePlan, RangeScan, ScanStats,
    Table, Visitor,
};
use flood_testkit::{answer, splitmix, Run};
use proptest::prelude::*;
use std::fmt::Display;

/// Column 2's run-length spec: `(value, run_len)` pairs. Runs ≥ [`BLOCK_LEN`]
/// (and adjacent equal runs) produce genuine width-0 blocks.
pub type Runs = Vec<(u64, usize)>;

/// Three columns sharing the length the runs column dictates:
/// d0 local (small deltas), d1 full-range u64 (width-64 blocks), d2 runs.
pub fn build_table(runs: &Runs, seed: u64) -> Table {
    let len: usize = runs.iter().map(|&(_, n)| n).sum();
    let mut s = seed;
    let d0: Vec<u64> = (0..len)
        .map(|_| (1 << 20) | (splitmix(&mut s) % 256))
        .collect();
    let d1: Vec<u64> = (0..len).map(|_| splitmix(&mut s)).collect();
    let d2: Vec<u64> = runs
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
        .collect();
    Table::from_columns(vec![d0, d1, d2])
}

/// How one query bound is chosen once the table exists.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// `sel / 1000` of the dimension's [min, max] span.
    Frac(u16),
    /// Exactly block `sel % num_blocks`'s min (`false`) or max (`true`) —
    /// only meaningful on compressed columns; falls back to `Frac` on plain.
    BlockEdge(u16, bool),
}

pub fn bound_strategy() -> impl Strategy<Value = Bound> {
    prop_oneof![
        (0u16..1001).prop_map(Bound::Frac),
        (0u16..64, proptest::arbitrary::any::<bool>()).prop_map(|(b, mx)| Bound::BlockEdge(b, mx)),
    ]
}

/// One dimension's filter spec; resolved against the built table.
pub type DimFilter = Option<(Bound, Bound)>;

pub fn filter_strategy() -> impl Strategy<Value = DimFilter> {
    prop_oneof![
        Just(None),
        (bound_strategy(), bound_strategy()).prop_map(Some),
    ]
}

/// One cut point: a position in ‰ of the table and what the range it opens
/// is — bits 0–2 select masked checks, bit 3 flags it exact, bit 4 leaves
/// a gap instead of a range.
pub type Cut = (u16, u8);

pub fn cuts_strategy() -> impl Strategy<Value = Vec<Cut>> {
    proptest::collection::vec((0u16..1001, 0u8..32), 0..7)
}

/// The ranges between consecutive cut points (equal points give empty
/// ranges, which a plan may hold). The first `split` checks are selected by
/// mask, the rest are the tail.
pub fn plan_from(len: usize, checks: &[Check], cuts: &[Cut], split: usize) -> RangePlan {
    let mut cuts = cuts.to_vec();
    cuts.sort_unstable();
    let (masked, tail) = checks.split_at(split.min(checks.len()));
    let subset = |kind: u8| (kind as u32 & 7) & ((1 << masked.len()) - 1);
    let ranges = cuts
        .windows(2)
        .filter(|w| w[0].1 & 16 == 0)
        .map(|w| PlannedRange {
            start: len * w[0].0 as usize / 1000,
            end: len * w[1].0 as usize / 1000,
            checks: (w[0].1 & 8 == 0).then_some(subset(w[0].1)),
            tag: 0,
        });
    RangePlan {
        ranges: ranges.collect(),
        masked: masked.to_vec(),
        tail: tail.to_vec(),
        stats: ScanStats::default(),
    }
}

/// Run `plan` over `source` serially and chunked, under every visitor kind
/// (SUM and MIN/MAX over column 1, with `cumulative`): both must equal one
/// reference kernel call per non-empty range over `reference` (the same
/// rows, resident).
pub fn diff_driver_all<S: BlockSource<Error: Display> + Sync>(
    source: &S,
    reference: &Table,
    plan: &RangePlan,
    cumulative: Option<&CumulativeColumn>,
) {
    let kernels = |agg: Option<usize>, v: &mut dyn Visitor| {
        let mut want = ScanStats::default();
        let mut counter = MatchCount::new(v);
        for r in plan.ranges.iter().filter(|r| r.start < r.end) {
            want.ranges_scanned += 1;
            let (s, e) = (r.start, r.end);
            let Ok(()) = match r.checks {
                None => scan_exact(reference, s, e, agg, cumulative, &mut counter, &mut want),
                Some(mask) => {
                    let masked = plan.masked.iter().enumerate();
                    let mut subset: Vec<Check> = masked
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &c)| c)
                        .collect();
                    subset.extend_from_slice(&plan.tail);
                    scan_rows(reference, &subset, s, e, agg, &mut counter, &mut want)
                }
            };
        }
        want.points_matched = counter.matched;
        want
    };
    let (want, want_stats) = answer(&kernels, Some(1), Some(1));

    let driver = Driver {
        source,
        plan,
        cumulative,
    };
    let serial = |agg: Option<usize>, v: &mut dyn Visitor| {
        let run = driver.scan(agg).try_run(v);
        run.unwrap_or_else(|e| panic!("serial run failed: {e}"))
    };
    let (got, serial_stats) = answer(&serial, Some(1), Some(1));
    assert_eq!(got, want, "serial");
    for (got, want) in serial_stats.iter().zip(&want_stats) {
        assert_stats_equivalent(got, want, "serial");
    }

    let sans_tier = |s: [ScanStats; 4]| s.map(|s| s.sans_tier_counters());
    for tasks in [1, 3, 8] {
        let (got, merged) = answer(&Chunked(&driver, tasks), Some(1), Some(1));
        assert_eq!(got, want, "{tasks} tasks");
        // Aligned cuts: even the block counters merge to the serial run's.
        assert_eq!(sans_tier(merged), sans_tier(serial_stats), "{tasks} tasks");
    }
}

/// `plan` over `source`, through the scan driver.
struct Driver<'a, S> {
    source: &'a S,
    plan: &'a RangePlan,
    cumulative: Option<&'a CumulativeColumn>,
}

impl<'a, S: BlockSource<Error: Display> + Sync> Driver<'a, S> {
    fn scan(&self, agg: Option<usize>) -> RangeScan<'a, S> {
        RangeScan {
            source: self.source,
            plan: self.plan.clone(),
            agg_dim: agg,
            cumulative: self.cumulative,
        }
    }
}

/// The driver's plan cut into at most `.1` aligned chunks, run one after
/// another and merged.
struct Chunked<'d, 'a, S>(&'d Driver<'a, S>, usize);

impl<S: BlockSource<Error: Display> + Sync> Run for Chunked<'_, '_, S> {
    fn run<V: MergeVisitor + Default>(&self, agg: Option<usize>) -> (V, ScanStats) {
        run_tasks_merged::<V>(&self.0.scan(agg).chunked(self.1))
    }
}
