//! The common interface every multi-dimensional index in this workspace
//! implements (Flood and all eight baselines of §7.2).
//!
//! The query interface follows Appendix A: the caller provides the start and
//! end value of the filter range in each dimension and a visitor that
//! accumulates the aggregation. Execution returns [`ScanStats`] so the
//! Table 2 performance breakdown can be produced for any index.
//!
//! A query is **plan → run**. The half that *is* the index (projection
//! and refinement, a tree or curve traversal, an endpoint lookup) is
//! [`PlannedIndex::plan`]: an ordered list of physical row ranges, each
//! exact or carrying the checks still owed per row. The half that is not —
//! running that list over the column store — is written once, in
//! [`crate::plan`]; [`MultiDimIndex::execute`] and
//! [`PartitionedScan::plan_scan`] are derived from `plan`, so §7.2 compares
//! indexes, not scan loops. The one index that cannot plan is the UB-tree,
//! whose z-address skipping interleaves navigation with row checks; it
//! implements [`MultiDimIndex`] by hand.

use crate::cumulative::CumulativeColumn;
use crate::plan::{RangePlan, RangeScan};
use crate::query::RangeQuery;
use crate::scan::BlockSource;
use crate::stats::ScanStats;
use crate::table::Table;
use crate::visitor::{MergeVisitor, Visitor};
use std::fmt::{Debug, Display};

/// A read-optimized index over a fixed multi-dimensional table.
///
/// # Shared-read contract
///
/// [`execute`](MultiDimIndex::execute) takes `&self` and must not mutate
/// any state observable by another call: all per-query scratch (cell
/// lists, refinement bounds, visitor state, [`ScanStats`]) lives on the
/// caller's stack or in the `&mut` visitor, never in the index. Any number
/// of threads may therefore execute against one index concurrently with no
/// synchronization, and every call returns exactly what a serial run would
/// — this is what lets `flood-exec` fan a batch across its pool and
/// `flood-serve` hand one `Arc`'d snapshot to every in-flight reader while
/// a replacement index is built elsewhere. Implementations that want
/// interior caches must keep them thread-safe *and* result-invisible.
pub trait MultiDimIndex {
    /// Execute `query`, feeding matching rows to `visitor`.
    ///
    /// `agg_dim` names the column whose values the visitor aggregates
    /// (e.g. the SUM column); `None` for COUNT-style visitors.
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats;

    /// Index structure size in bytes — metadata only, *excluding* the data
    /// itself (Fig 8's x-axis).
    fn index_size_bytes(&self) -> usize;

    /// Short display name (used by the benchmark harness).
    fn name(&self) -> &'static str;
}

/// A query plan whose scan work has been split into independent tasks.
///
/// Produced by [`PartitionedScan::plan_scan`] and consumed by the
/// `flood-exec` thread pool: each task runs into its own visitor and
/// [`ScanStats`], and the partial results are merged afterwards via
/// [`crate::visitor::MergeVisitor`] and [`ScanStats::merge`]. Tasks touch
/// disjoint physical row ranges, so executing them in any order — or
/// concurrently — reproduces the serial result exactly (up to visitor
/// ordering, e.g. `CollectVisitor` row order).
pub trait ScanPlan: Sync {
    /// Number of independent scan tasks. Zero when the query matches no
    /// physical range at all (the plan stats still apply).
    fn tasks(&self) -> usize;

    /// Execute task `i` (`0 <= i < tasks()`), feeding matching rows into
    /// `visitor` and counters into `stats` — including the task's
    /// `points_matched`.
    fn run_task(&self, i: usize, visitor: &mut dyn Visitor, stats: &mut ScanStats);

    /// Counters accrued while *planning* (projection, refinement). Merge
    /// these once per query — not once per task — when aggregating.
    fn plan_stats(&self) -> ScanStats;
}

/// An index whose single-query scan work can be partitioned for parallel
/// execution.
///
/// Planning stays on the calling thread; the returned [`ScanPlan`] carries
/// the per-task scan work. Every [`PlannedIndex`] is one.
pub trait PartitionedScan: MultiDimIndex + Sync {
    /// Plan `query` into at most `max_tasks` independently scannable tasks.
    fn plan_scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        max_tasks: usize,
    ) -> Box<dyn ScanPlan + '_>;
}

/// An index that answers a query by *planning* it: everything else —
/// [`MultiDimIndex`] and [`PartitionedScan`] — is derived below.
pub trait PlannedIndex: Sync {
    /// [`MultiDimIndex::name`].
    const NAME: &'static str;

    /// Where the planned rows live.
    type Source: BlockSource<Error: Display> + Sync;

    /// The table the plan's row ranges index into.
    fn source(&self) -> &Self::Source;

    /// The row ranges `query` has to look at, in scan order. Shared-read:
    /// see [`MultiDimIndex`].
    fn plan(&self, query: &RangeQuery) -> RangePlan;

    /// Prefix sums over column `agg_dim`, when the index keeps them.
    fn cumulative(&self, _agg_dim: usize) -> Option<&CumulativeColumn> {
        None
    }

    /// [`MultiDimIndex::index_size_bytes`].
    fn structure_bytes(&self) -> usize;
}

impl<T: PlannedIndex> MultiDimIndex for T {
    /// Plan, then run with retries; a read that keeps failing panics.
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats {
        RangeScan::of(self, self.plan(query), agg_dim).run(visitor)
    }

    fn index_size_bytes(&self) -> usize {
        self.structure_bytes()
    }

    fn name(&self) -> &'static str {
        T::NAME
    }
}

impl<T: PlannedIndex> PartitionedScan for T {
    fn plan_scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        max_tasks: usize,
    ) -> Box<dyn ScanPlan + '_> {
        Box::new(RangeScan::of(self, self.plan(query), agg_dim).chunked(max_tasks))
    }
}

/// Run every task of `plan` on the calling thread, each into its own
/// visitor and stats, merged the way `flood-exec` merges them — the pool's
/// result without the pool, for the suites that hold the two equal.
pub fn run_tasks_merged<V: MergeVisitor + Default>(plan: &dyn ScanPlan) -> (V, ScanStats) {
    let mut merged = V::default();
    let mut stats = plan.plan_stats();
    for i in 0..plan.tasks() {
        let mut v = V::default();
        let mut s = ScanStats::default();
        plan.run_task(i, &mut v, &mut s);
        merged.merge_from(v);
        stats.merge(&s);
    }
    (merged, stats)
}

/// Assert that `index`'s partitioned plan for `query`, cut into each of
/// `task_counts`, shows its visitors what the serial
/// [`MultiDimIndex::execute`] shows and merges to the same stats — tier
/// counters aside, which depend on what earlier runs left resident.
///
/// # Panics
/// When a partitioned run disagrees with the serial one.
#[track_caller]
pub fn assert_partitioned_matches_serial<V>(
    index: &dyn PartitionedScan,
    query: &RangeQuery,
    agg_dim: Option<usize>,
    task_counts: &[usize],
) where
    V: MergeVisitor + Default + PartialEq + Debug,
{
    let mut serial = V::default();
    let serial_stats = index.execute(query, agg_dim, &mut serial);
    for &max_tasks in task_counts {
        let plan = index.plan_scan(query, agg_dim, max_tasks);
        let (merged, stats) = run_tasks_merged::<V>(&*plan);
        assert_eq!(merged, serial, "{max_tasks} tasks, {query:?}");
        assert_eq!(
            stats.sans_tier_counters(),
            serial_stats.sans_tier_counters(),
            "{max_tasks} tasks, {query:?}"
        );
    }
}

// The shared-read contract above leans on the core store types being
// freely shareable across threads; losing `Send + Sync` (say, by adding an
// `Rc` or a `Cell` to one of them) would surface far away, in the exec and
// serve crates. Pin it here, where the contract is stated.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Table>();
    _assert_send_sync::<RangeQuery>();
    _assert_send_sync::<ScanStats>();
    _assert_send_sync::<CumulativeColumn>();
};
