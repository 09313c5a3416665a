//! What an index *plans* — an ordered list of physical row ranges — and the
//! one driver that *runs* such a list over a [`BlockSource`] (§3.2(3)):
//! [`RangeScan::run`] on the calling thread, [`ChunkedRangeScan`] — the
//! workspace's only [`ScanPlan`] — cut into tasks, both through one loop.

use crate::cumulative::CumulativeColumn;
use crate::index_trait::{PlannedIndex, ScanPlan};
use crate::partition::{partition_ranges_aligned, RangeChunk};
use crate::query::RangeQuery;
use crate::scan::{scan_checked, scan_exact, BlockSource, Check};
use crate::stats::ScanStats;
use crate::tier::{with_retries, SCAN_RETRIES};
use crate::visitor::{MatchCount, Visitor};
use std::fmt::Display;

/// One physical row range `[start, end)` of a plan.
#[derive(Debug, Clone, Copy)]
pub struct PlannedRange {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
    /// `None`: the index proved every row matches (an *exact* range).
    /// `Some(mask)`: each row is still checked against
    /// [`RangePlan::masked`]`[i]` for every set bit `i`, then against all
    /// of [`RangePlan::tail`].
    pub checks: Option<u32>,
    /// The planner's own note (Flood: the cell id); the driver ignores it.
    pub tag: u32,
}

impl PlannedRange {
    /// A range whose every row matches.
    pub fn exact(start: usize, end: usize) -> Self {
        PlannedRange {
            start,
            end,
            checks: None,
            tag: 0,
        }
    }

    /// A range checked against the plan's [`tail`](RangePlan::tail) only.
    pub fn checked(start: usize, end: usize) -> Self {
        PlannedRange {
            checks: Some(0),
            ..Self::exact(start, end)
        }
    }
}

/// A planned query: the ranges to scan, in scan order, the checks they
/// select from, and the counters planning itself accrued.
#[derive(Debug, Clone, Default)]
pub struct RangePlan {
    /// Disjoint row ranges; empty ones are allowed and cost nothing.
    pub ranges: Vec<PlannedRange>,
    /// Checks a range opts into bit by bit (at most 32).
    pub masked: Vec<Check>,
    /// Checks every non-exact range verifies — stored once, not per range.
    pub tail: Vec<Check>,
    /// Plan-side counters only (`cells_projected`, `refinements`,
    /// `cells_visited`); everything else is the driver's to count.
    pub stats: ScanStats,
}

impl RangePlan {
    /// An empty plan whose non-exact ranges verify all of `query`'s filters.
    pub fn filtered(query: &RangeQuery) -> Self {
        RangePlan {
            tail: query.checks(),
            ..Default::default()
        }
    }

    /// Rows `[0, len)` checked against `query`: a full scan.
    pub fn full(len: usize, query: &RangeQuery) -> Self {
        let mut plan = Self::filtered(query);
        plan.ranges.push(PlannedRange::checked(0, len));
        plan
    }
}

/// A [`RangePlan`] bound to the source it scans.
pub struct RangeScan<'a, S> {
    /// The table the plan's row ranges index into.
    pub source: &'a S,
    /// What to scan.
    pub plan: RangePlan,
    /// The column visitors aggregate, if any.
    pub agg_dim: Option<usize>,
    /// Prefix sums of `agg_dim`: answer exact ranges, and blocks a check
    /// list accepts wholesale.
    pub cumulative: Option<&'a CumulativeColumn>,
}

impl<'a, S: BlockSource> RangeScan<'a, S> {
    /// Bind `plan` to the source and cumulative column of the index that
    /// made it.
    pub fn of<I: PlannedIndex<Source = S>>(
        index: &'a I,
        plan: RangePlan,
        agg_dim: Option<usize>,
    ) -> Self {
        RangeScan {
            source: index.source(),
            plan,
            agg_dim,
            cumulative: agg_dim.and_then(|d| index.cumulative(d)),
        }
    }

    /// Scan every range on the calling thread; the returned stats start
    /// from the plan's own. A read failure surfaces at once, unretried.
    pub fn try_run(&self, visitor: &mut dyn Visitor) -> Result<ScanStats, S::Error> {
        self.run_whole(false, visitor)
    }

    /// [`try_run`](Self::try_run) for the infallible trait surfaces: a
    /// range whose read fails is retried under the tier's [`with_retries`]
    /// policy, and a read that keeps failing panics.
    pub fn run(&self, visitor: &mut dyn Visitor) -> ScanStats
    where
        S::Error: Display,
    {
        retried(self.run_whole(true, visitor))
    }

    fn run_whole(&self, retry: bool, visitor: &mut dyn Visitor) -> Result<ScanStats, S::Error> {
        let mut stats = self.plan.stats;
        let whole = self.plan.ranges.iter().map(|&r| (r, false));
        self.drive(whole, retry, visitor, &mut stats)?;
        Ok(stats)
    }

    /// Cut the ranges into at most `max_tasks` balanced tasks at the
    /// source's own [`alignment`](BlockSource::alignment): no compression
    /// block — and no cold segment — is read by two tasks.
    pub fn chunked(self, max_tasks: usize) -> ChunkedRangeScan<'a, S> {
        let bounds: Vec<(usize, usize)> =
            self.plan.ranges.iter().map(|r| (r.start, r.end)).collect();
        ChunkedRangeScan {
            tasks: partition_ranges_aligned(&bounds, max_tasks, self.source.alignment()),
            scan: self,
        }
    }

    /// The scan driver: every range of every index goes through this loop,
    /// as pieces — a planned range or a cut of one, flagged when it
    /// *continues* a range an earlier piece opened. **Accounting:**
    /// `ranges_scanned` counts each non-empty planned range once however
    /// many pieces it is cut into; empty ranges are neither scanned nor
    /// counted; `points_matched` is what `visitor` was shown, added once.
    /// The check list is rebuilt only when consecutive pieces differ in
    /// their subset.
    ///
    /// Every kernel pins before it emits, so a piece that fails has shown
    /// the visitor nothing and may be retried on its own; on `Err` the
    /// visitor holds the pieces before the failing one — nothing at all for
    /// a one-range plan.
    fn drive(
        &self,
        pieces: impl Iterator<Item = (PlannedRange, bool)>,
        retry: bool,
        visitor: &mut dyn Visitor,
        stats: &mut ScanStats,
    ) -> Result<(), S::Error> {
        let (source, agg, cum) = (self.source, self.agg_dim, self.cumulative);
        let mut counter = MatchCount::new(visitor);
        let mut checks: Vec<Check> = Vec::new();
        let mut built: Option<u32> = None;
        for (r, continuation) in pieces {
            if r.start >= r.end {
                continue;
            }
            stats.ranges_scanned += u64::from(!continuation);
            if let Some(mut mask) = r.checks.filter(|_| built != r.checks) {
                built = r.checks;
                checks.clear();
                while mask != 0 {
                    checks.push(self.plan.masked[mask.trailing_zeros() as usize]);
                    mask &= mask - 1;
                }
                checks.extend_from_slice(&self.plan.tail);
            }
            let mut scan = || match r.checks {
                None => scan_exact(source, r.start, r.end, agg, cum, &mut counter, stats),
                Some(_) => scan_checked(
                    source,
                    &checks,
                    r.start,
                    r.end,
                    agg,
                    cum,
                    &mut counter,
                    stats,
                ),
            };
            if retry {
                with_retries(scan).0?
            } else {
                scan()?
            }
        }
        stats.points_matched += counter.matched;
        Ok(())
    }
}

/// Unwrap a scan the infallible trait surfaces ran with retries.
fn retried<T, E: Display>(scanned: Result<T, E>) -> T {
    scanned.unwrap_or_else(|e| panic!("scan failed after {SCAN_RETRIES} retries: {e}"))
}

/// A [`RangeScan`] partitioned for the `flood-exec` pool — the one
/// [`ScanPlan`] behind every [`PartitionedScan`](crate::PartitionedScan).
/// Tasks retry a failed piece (it emitted nothing) and panic when it keeps
/// failing, as the infallible trait surface requires.
pub struct ChunkedRangeScan<'a, S> {
    scan: RangeScan<'a, S>,
    tasks: Vec<Vec<RangeChunk>>,
}

impl<S: BlockSource + Sync> ScanPlan for ChunkedRangeScan<'_, S>
where
    S::Error: Display,
{
    fn tasks(&self) -> usize {
        self.tasks.len()
    }

    fn run_task(&self, i: usize, visitor: &mut dyn Visitor, stats: &mut ScanStats) {
        let ranges = &self.scan.plan.ranges;
        let pieces = self.tasks[i].iter().map(|c| {
            let cut = PlannedRange {
                start: c.start,
                end: c.end,
                ..ranges[c.source]
            };
            (cut, c.continuation)
        });
        retried(self.scan.drive(pieces, true, visitor, stats));
    }

    fn plan_stats(&self) -> ScanStats {
        self.scan.plan.stats
    }
}
