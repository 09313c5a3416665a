//! [`TieredScan`]: the scan "index" over a [`TieredTable`] — the tiered
//! counterpart of the `Full Scan` baseline, narrowed to the segments the
//! table's running bounds leave as candidates — and the execution entry
//! point for sealed larger-than-RAM data.
//!
//! # Failure policy
//!
//! A tiered scan can fail where a resident scan cannot: a segment load may
//! hit an I/O error or corruption. The policy, relied on by `flood-serve`:
//!
//! * [`TieredScan::try_execute`] surfaces the typed [`StorageError`]. The
//!   kernel guarantees the visitor saw *nothing* from the failed attempt
//!   (no partial results), so retrying with the same visitor is sound.
//! * [`with_retries`] is the one retry loop: up to [`SCAN_RETRIES`]
//!   retries, so transient faults heal. The infallible
//!   [`MultiDimIndex::execute`](crate::MultiDimIndex::execute) and
//!   partitioned plans panic when it still fails; `flood-serve`'s read
//!   path degrades the query instead.
//!
//! Partitioned plans cut at [`TieredTable::segment_rows`] boundaries (the
//! table's own [`alignment`](crate::BlockSource::alignment)), so every
//! segment a query needs is faulted and pinned by exactly one task:
//! parallel fault counts sum to the serial scan's and workers never race to
//! load the same cold segment for one query.

use super::backend::StorageBackend;
use super::backend::StorageError;
use super::cache::TierConfig;
use super::table::TieredTable;
use crate::index_trait::PlannedIndex;
use crate::plan::{RangePlan, RangeScan};
use crate::query::RangeQuery;
use crate::stats::ScanStats;
use crate::table::Table;
use crate::visitor::Visitor;
use std::sync::Arc;

/// How many times a failed tier read is retried before giving up.
pub const SCAN_RETRIES: usize = 2;

/// Run a fallible tier read until it succeeds or has been retried
/// [`SCAN_RETRIES`] times; returns the last result and the attempts used
/// (`attempts - 1` retries happened). Sound only for reads that leave no
/// trace when they fail, which every scan kernel guarantees.
pub fn with_retries<T, E>(mut read: impl FnMut() -> Result<T, E>) -> (Result<T, E>, usize) {
    let mut attempts = 1;
    loop {
        match read() {
            Err(_) if attempts <= SCAN_RETRIES => attempts += 1,
            last => return (last, attempts),
        }
    }
}

/// Scan execution over tiered storage.
#[derive(Debug, Clone)]
pub struct TieredScan {
    data: TieredTable,
}

impl TieredScan {
    /// Wrap an already-sealed table.
    pub fn new(data: TieredTable) -> Self {
        TieredScan { data }
    }

    /// Seal `table` cold and wrap it.
    pub fn seal(
        table: &Table,
        backend: Arc<dyn StorageBackend>,
        cfg: TierConfig,
    ) -> Result<Self, StorageError> {
        Ok(TieredScan {
            data: TieredTable::seal(table, backend, cfg)?,
        })
    }

    /// The underlying tiered table.
    pub fn data(&self) -> &TieredTable {
        &self.data
    }

    /// Execute `query`, surfacing segment-load failures instead of
    /// retrying. On `Err` the visitor is untouched; on `Ok` the results
    /// match the resident `Full Scan` baseline exactly, and so do the stats
    /// of a scan of the planned range (modulo the tier counters).
    pub fn try_execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> Result<ScanStats, StorageError> {
        RangeScan::of(self, self.plan(query), agg_dim).try_run(visitor)
    }
}

impl PlannedIndex for TieredScan {
    const NAME: &'static str = "Tiered Scan";
    type Source = TieredTable;

    fn source(&self) -> &TieredTable {
        &self.data
    }

    /// One range: the table's [`candidate_rows`](TieredTable::candidate_rows)
    /// for `query`'s filters, checked against all of them. **Accounting:**
    /// `points_scanned` and `segments_skipped` count that range, not the
    /// table — rows and segments the running bounds ruled out were never
    /// looked at, so they are neither scanned nor skipped.
    fn plan(&self, query: &RangeQuery) -> RangePlan {
        self.data.plan(query)
    }

    /// The resident footprint of cold data: block metadata, cumulative
    /// sidecars, segment geometry.
    fn structure_bytes(&self) -> usize {
        self.data.metadata_bytes()
    }
}

// The serve layer hands `Arc<TieredScan>` snapshots to reader threads and
// runs eviction concurrently; pin the thread-safety the tier types must
// keep.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<TieredScan>();
    _assert_send_sync::<TieredTable>();
    _assert_send_sync::<super::cache::SegmentCache>();
    _assert_send_sync::<StorageError>();
};

#[cfg(test)]
mod tests {
    use super::super::backend::{FailingBackend, MemBackend};
    use super::*;
    use crate::index_trait::{
        assert_partitioned_matches_serial, run_tasks_merged, MultiDimIndex, PartitionedScan,
    };
    use crate::visitor::{CountVisitor, SumVisitor};

    fn table(n: u64) -> Table {
        Table::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|i| (i * 37) % 501).collect(),
        ])
    }

    fn tiered(n: u64, budget: usize) -> TieredScan {
        TieredScan::seal(
            &table(n),
            Arc::new(MemBackend::new()),
            TierConfig {
                budget_bytes: budget,
                segment_blocks: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn execute_matches_resident_full_scan() {
        let t = table(1_500);
        let idx = tiered(1_500, 0);
        let q = RangeQuery::all(2).with_range(0, 200, 900);
        let mut v = SumVisitor::default();
        let stats = idx.execute(&q, Some(1), &mut v);
        let want: u64 = (200..=900u64)
            .map(|r| t.value(r as usize, 1))
            .fold(0, |a, x| a.wrapping_add(x));
        assert_eq!(v.sum, want);
        assert_eq!(v.count, 701);
        assert_eq!(stats.points_matched, 701);
        assert_eq!(stats.ranges_scanned, 1);
        // Segments of 256 rows; [200, 900] on the ordered column can only
        // be in the first four.
        assert_eq!(stats.points_scanned, 1_024);
    }

    #[test]
    fn execute_retries_transient_faults() {
        let inner = Arc::new(MemBackend::new());
        let failing = Arc::new(FailingBackend::new(inner));
        let idx = TieredScan::seal(
            &table(512),
            failing.clone(),
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap();
        failing.fail_load(1);
        let q = RangeQuery::all(2).with_range(0, 0, 300);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, 301, "retry must not duplicate or drop rows");
        assert_eq!(stats.points_matched, 301);
        assert_eq!(failing.injected(), 1);
    }

    #[test]
    #[should_panic(expected = "scan failed after 2 retries")]
    fn execute_panics_on_persistent_failure() {
        let inner = Arc::new(MemBackend::new());
        let failing = Arc::new(FailingBackend::new(inner));
        let idx = TieredScan::seal(
            &table(512),
            failing.clone(),
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap();
        for nth in 1..=(SCAN_RETRIES as u64 + 1) {
            failing.fail_load(nth);
        }
        let q = RangeQuery::all(2).with_range(0, 0, 300);
        let mut v = CountVisitor::default();
        let _ = idx.execute(&q, None, &mut v);
    }

    #[test]
    fn partitioned_plan_matches_serial() {
        let idx = tiered(5_000, 1 << 20);
        let q = RangeQuery::all(2)
            .with_range(0, 100, 4_200)
            .with_range(1, 0, 250);
        // Tier counters may split differently across warm caches, but
        // every shared counter must merge to the serial value.
        assert_partitioned_matches_serial::<CountVisitor>(&idx, &q, None, &[1, 3, 8]);
    }

    #[test]
    fn parallel_fault_counts_sum_to_serial() {
        // Budget 0: nothing survives between acquires, so fault counts are
        // pure "who needed what". Segment-aligned cuts put every needed
        // segment in exactly one task, so the merged fault count equals the
        // serial scan's — no duplicate loads, no cross-task races.
        let idx = tiered(5_000, 0);
        let q = RangeQuery::all(2)
            .with_range(0, 100, 4_200)
            .with_range(1, 0, 250);
        let mut sv = CountVisitor::default();
        let serial_stats = idx.execute(&q, None, &mut sv);
        for max_tasks in [2, 5] {
            let plan = idx.plan_scan(&q, None, max_tasks);
            let (v, merged) = run_tasks_merged::<CountVisitor>(&*plan);
            assert_eq!(v.count, sv.count, "{max_tasks} tasks");
            assert_eq!(
                merged.segments_faulted, serial_stats.segments_faulted,
                "{max_tasks} tasks: a segment was loaded by more than one task"
            );
            assert_eq!(merged.segments_hit, 0, "{max_tasks} tasks");
        }
    }

    #[test]
    fn empty_table_executes_cleanly() {
        let idx = TieredScan::seal(
            &Table::from_columns(vec![vec![], vec![]]),
            Arc::new(MemBackend::new()),
            TierConfig::default(),
        )
        .unwrap();
        let mut v = CountVisitor::default();
        let stats = idx.execute(&RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 0);
        assert_eq!(stats.points_matched, 0);
        assert_eq!(idx.plan_scan(&RangeQuery::all(2), None, 4).tasks(), 0);
    }
}
