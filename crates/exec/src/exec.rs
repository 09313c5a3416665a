//! The query executor: parallel single-query scans and batched queries.
//!
//! Paper map: §8's concurrency remark — "different cells can be refined
//! and scanned simultaneously. This can be especially useful for large
//! queries" — is the latency mode ([`QueryExecutor::execute`]): Table 2
//! splits a Flood query into projection (SO/TPS), refinement (IT) and scan
//! (ST) phases, and only the scan phase scales with data volume, so that
//! is the phase split across workers. Projection and refinement stay on
//! the calling thread, exactly as the serial §3.2 pipeline runs them. The
//! throughput mode ([`QueryExecutor::execute_batch`]) is the independent
//! complement for OLAP workloads like §7.3's: whole queries are
//! independent units of work, so any [`MultiDimIndex`] — baselines
//! included — benefits without implementing partitioning.
//! `flood-benchmark`'s batched phase measures both modes
//! (`exec.partitioned_us`, `exec.batch_qps_t1` / `_t2`).

use crate::pool::{PoolMetrics, ThreadPool};
use flood_store::{MergeVisitor, MultiDimIndex, PartitionedScan, RangeQuery, ScanStats, Visitor};

/// How many tasks to plan per worker. Over-partitioning lets the dynamic
/// injector smooth out cells of very different population; the factor is
/// small because each task re-enters the scan kernel.
const TASKS_PER_THREAD: usize = 4;

/// Schedules query execution over a [`ThreadPool`].
///
/// Two modes, composable with any visitor:
///
/// * [`QueryExecutor::execute`] — *intra-query* parallelism: one query's
///   scan work, partitioned by the index via [`PartitionedScan`], spread
///   across workers (latency-oriented).
/// * [`QueryExecutor::execute_batch`] — *inter-query* parallelism: many
///   queries scheduled across workers, one visitor per query
///   (throughput-oriented; works with every [`MultiDimIndex`], baselines
///   included).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryExecutor {
    pool: ThreadPool,
}

impl QueryExecutor {
    /// An executor over the given pool.
    pub fn new(pool: ThreadPool) -> Self {
        QueryExecutor { pool }
    }

    /// An executor with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        QueryExecutor {
            pool: ThreadPool::new(threads),
        }
    }

    /// An executor sized by `FLOOD_THREADS` / available parallelism
    /// ([`ThreadPool::from_env`]).
    pub fn from_env() -> Self {
        QueryExecutor {
            pool: ThreadPool::from_env(),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying pool.
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Execute one query with its scan work split across the pool.
    ///
    /// Planning (projection/refinement) runs on the calling thread; each
    /// scan task accumulates into its own `V`, merged deterministically at
    /// the end. The result and the aggregate [`ScanStats`] are identical to
    /// the serial [`MultiDimIndex::execute`] up to visitor ordering (a
    /// `CollectVisitor` sees rows in task order, not global row order).
    pub fn execute<V>(
        &self,
        index: &dyn PartitionedScan,
        query: &RangeQuery,
        agg_dim: Option<usize>,
    ) -> (V, ScanStats)
    where
        V: MergeVisitor + Default,
    {
        // One task per worker-share; a single thread plans a single task so
        // the degenerate mode is exactly the serial path.
        let max_tasks = if self.threads() == 1 {
            1
        } else {
            self.threads() * TASKS_PER_THREAD
        };
        let plan = index.plan_scan(query, agg_dim, max_tasks);
        let mut stats = plan.plan_stats();
        let partials = self.pool.run(plan.tasks(), |i| {
            let mut v = V::default();
            let mut s = ScanStats::default();
            plan.run_task(i, &mut v, &mut s);
            (v, s)
        });
        let mut merged = V::default();
        for (v, s) in partials {
            merged.merge_from(v);
            stats.merge(&s);
        }
        (merged, stats)
    }

    /// Execute a batch of queries across the pool, one visitor per query.
    ///
    /// Returns `(visitor, stats)` per query, in input order — exactly what
    /// a serial loop over [`MultiDimIndex::execute`] produces. Queries are
    /// claimed dynamically, so a batch of mixed-cost queries stays
    /// balanced.
    pub fn execute_batch<V, I>(
        &self,
        index: &I,
        queries: &[RangeQuery],
        agg_dim: Option<usize>,
    ) -> Vec<(V, ScanStats)>
    where
        V: Visitor + Default + Send,
        I: MultiDimIndex + Sync + ?Sized,
    {
        self.execute_batch_observed(index, queries, agg_dim, None)
    }

    /// [`QueryExecutor::execute_batch`] with optional pool telemetry: when
    /// `obs` is set, the run's task count, worker busy time and injector
    /// depth are recorded into the registered [`PoolMetrics`].
    ///
    /// A separate method rather than a field because `QueryExecutor` is
    /// deliberately `Copy` — handles travel with the caller (the serving
    /// layer), not the executor.
    pub fn execute_batch_observed<V, I>(
        &self,
        index: &I,
        queries: &[RangeQuery],
        agg_dim: Option<usize>,
        obs: Option<&PoolMetrics>,
    ) -> Vec<(V, ScanStats)>
    where
        V: Visitor + Default + Send,
        I: MultiDimIndex + Sync + ?Sized,
    {
        self.pool.run_observed(
            queries.len(),
            |i| {
                let mut v = V::default();
                let s = index.execute(&queries[i], agg_dim, &mut v);
                (v, s)
            },
            obs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_baselines::FullScan;
    use flood_store::{CountVisitor, SumVisitor, Table};

    fn index() -> FullScan {
        let n = 10_000u64;
        FullScan::build(&Table::from_columns(vec![
            (0..n).map(|i| i % 1_000).collect(),
            (0..n).map(|i| (i * 7) % 500).collect(),
        ]))
    }

    #[test]
    fn parallel_execute_matches_serial() {
        let idx = index();
        let q = RangeQuery::all(2).with_range(0, 100, 400);
        let mut serial = CountVisitor::default();
        let serial_stats = idx.execute(&q, None, &mut serial);
        for threads in [1, 2, 4, 8] {
            let exec = QueryExecutor::with_threads(threads);
            let (par, stats) = exec.execute::<CountVisitor>(&idx, &q, None);
            assert_eq!(par.count, serial.count, "{threads} threads");
            assert_eq!(stats, serial_stats, "{threads} threads");
        }
    }

    #[test]
    fn batch_matches_serial_loop() {
        let idx = index();
        let queries: Vec<RangeQuery> = (0..17)
            .map(|i| RangeQuery::all(2).with_range(0, i * 50, i * 50 + 99))
            .collect();
        let exec = QueryExecutor::with_threads(4);
        let batch = exec.execute_batch::<SumVisitor, _>(&idx, &queries, Some(1));
        assert_eq!(batch.len(), queries.len());
        for (q, (v, s)) in queries.iter().zip(&batch) {
            let mut want = SumVisitor::default();
            let want_stats = idx.execute(q, Some(1), &mut want);
            assert_eq!(v.sum, want.sum);
            assert_eq!(v.count, want.count);
            assert_eq!(*s, want_stats);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let idx = index();
        let exec = QueryExecutor::from_env();
        let out = exec.execute_batch::<CountVisitor, _>(&idx, &[], None);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_table_executes() {
        let idx = FullScan::build(&Table::from_columns(vec![vec![], vec![]]));
        let exec = QueryExecutor::with_threads(4);
        let (v, stats) = exec.execute::<CountVisitor>(&idx, &RangeQuery::all(2), None);
        assert_eq!(v.count, 0);
        assert_eq!(stats.points_matched, 0);
    }
}
