//! The common interface every multi-dimensional index in this workspace
//! implements (Flood and all eight baselines of §7.2).
//!
//! The query interface follows Appendix A: the caller provides the start and
//! end value of the filter range in each dimension and a visitor that
//! accumulates the aggregation. Execution returns [`ScanStats`] so the
//! Table 2 performance breakdown can be produced for any index.

use crate::cumulative::CumulativeColumn;
use crate::partition::{partition_ranges_aligned, RangeChunk};
use crate::query::RangeQuery;
use crate::scan::{scan_exact, scan_filtered, BlockSource};
use crate::stats::ScanStats;
use crate::table::Table;
use crate::tier::{with_retries, SCAN_RETRIES};
use crate::visitor::{MatchCount, Visitor};

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
/// Planning (projection/refinement for Flood, endpoint lookup for a
/// clustered index) stays on the calling thread; the returned [`ScanPlan`]
/// carries the per-task scan work. Indexes whose execution cannot be
/// decomposed (tree traversals interleaving navigation and scanning) simply
/// don't implement this — batch-level parallelism via
/// `flood-exec`'s `execute_batch` still applies to them.
pub trait PartitionedScan: MultiDimIndex + Sync {
    /// Plan `query` into at most `max_tasks` independently scannable tasks.
    fn plan_scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        max_tasks: usize,
    ) -> Box<dyn ScanPlan + '_>;
}

/// A ready-made [`ScanPlan`] for indexes whose planned scan work is plain
/// physical row ranges of one [`BlockSource`] — the full-scan (resident and
/// tiered) and clustered baselines, or anything else without per-range
/// check lists.
///
/// Ranges are chunked by [`partition_ranges_aligned`] at the source's own
/// [`alignment`](BlockSource::alignment), so no compression block — and no
/// cold segment — is read by two tasks; each chunk runs [`scan_filtered`]
/// against the residual query, or [`scan_exact`] when every row in range
/// is known to match. A chunk whose reads fail is retried under the tier's
/// [`with_retries`] policy — it emitted nothing, so retrying just that
/// chunk is sound — and a persistent failure panics, as the infallible
/// trait surface requires. Keeping the chunk-loop/stats protocol here —
/// including `points_matched` attribution — means plan implementors can't
/// drift from the serial counters one copy at a time.
pub struct ChunkedScanPlan<'a, S> {
    source: &'a S,
    /// Per-row residual filters; `None` = every row in range matches.
    residual: Option<RangeQuery>,
    agg_dim: Option<usize>,
    /// Cumulative SUM column: answers exact ranges, and blocks a residual
    /// accepts wholesale.
    cumulative: Option<&'a CumulativeColumn>,
    tasks: Vec<Vec<RangeChunk>>,
    plan_stats: ScanStats,
}

impl<'a, S: BlockSource> ChunkedScanPlan<'a, S> {
    /// Chunk `ranges` into at most `max_tasks` balanced tasks over `source`.
    pub fn new(
        source: &'a S,
        residual: Option<RangeQuery>,
        agg_dim: Option<usize>,
        cumulative: Option<&'a CumulativeColumn>,
        ranges: &[(usize, usize)],
        max_tasks: usize,
        plan_stats: ScanStats,
    ) -> Self {
        ChunkedScanPlan {
            source,
            residual,
            agg_dim,
            cumulative,
            tasks: partition_ranges_aligned(ranges, max_tasks, source.alignment()),
            plan_stats,
        }
    }
}

impl<S: BlockSource + Sync> ScanPlan for ChunkedScanPlan<'_, S>
where
    S::Error: std::fmt::Display,
{
    fn tasks(&self) -> usize {
        self.tasks.len()
    }

    fn run_task(&self, i: usize, visitor: &mut dyn Visitor, stats: &mut ScanStats) {
        let mut counter = MatchCount::new(visitor);
        let (src, agg, cum) = (self.source, self.agg_dim, self.cumulative);
        for c in &self.tasks[i] {
            let (scanned, _) = with_retries(|| match &self.residual {
                Some(q) => scan_filtered(src, q, c.start, c.end, agg, cum, &mut counter, stats),
                None => scan_exact(src, c.start, c.end, agg, cum, &mut counter, stats),
            });
            if let Err(e) = scanned {
                panic!("scan task failed after {SCAN_RETRIES} retries: {e}");
            }
        }
        stats.points_matched += counter.matched;
    }

    fn plan_stats(&self) -> ScanStats {
        self.plan_stats
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
