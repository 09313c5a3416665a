//! # flood-exec
//!
//! Parallel query execution for the Flood workspace — the concurrency the
//! paper sketches in §8 ("different cells can be refined and scanned
//! simultaneously") as a real subsystem:
//!
//! * [`ThreadPool`] — a hand-rolled scoped thread pool (`std` only; rayon
//!   is not vendored): workers under [`std::thread::scope`] pull task
//!   indices from a shared atomic injector, so borrowed tables and plans
//!   flow into tasks without `Arc`. One thread means nothing spawns — the
//!   degenerate mode runs on the caller's stack. Sized explicitly, or via
//!   the `FLOOD_THREADS` environment variable ([`ThreadPool::from_env`]).
//!   It is defined in `flood-store`, so that `FloodIndex` builds run on it
//!   too, and re-exported here.
//! * [`QueryExecutor::execute`] — intra-query parallelism: an index that
//!   implements `flood_store::PartitionedScan` (every planned index: Flood
//!   and all baselines but the UB-tree) has its planned row ranges cut
//!   into balanced, `BLOCK_LEN`-aligned tasks; each worker scans into a
//!   thread-local visitor and `ScanStats`, merged deterministically at
//!   the end.
//! * [`QueryExecutor::execute_batch`] — inter-query parallelism for
//!   throughput workloads: a batch of `RangeQuery`s scheduled across the
//!   pool, one visitor per query, results in input order. Works with every
//!   `MultiDimIndex`.
//!
//! Parallel and serial execution are result- and stats-equivalent (the
//! property suite in `tests/prop_parallel.rs` pins this for Count/Sum/
//! MinMax/Collect visitors); only visitor ordering may differ.
//!
//! Paper map: §8 "Other Optimizations" (concurrency) → [`exec`]; the
//! phase anatomy that motivates splitting only the scan (Table 2's
//! SO/TPS/IT/ST breakdown) → [`exec`]'s module docs; the balanced,
//! block-aligned task planning → `flood_store`'s `partition` module.
//! Measured scaling: `flood-benchmark`'s `exec.batch_qps_t1`/`_t2`.
//!
//! ```
//! use flood_exec::{QueryExecutor, ThreadPool};
//! use flood_store::{CountVisitor, RangeQuery, Table};
//! use flood_baselines::FullScan;
//!
//! let table = Table::from_columns(vec![(0..10_000u64).collect()]);
//! let index = FullScan::build(&table);
//! let exec = QueryExecutor::new(ThreadPool::new(4));
//!
//! // One query, scan split across 4 workers.
//! let q = RangeQuery::all(1).with_range(0, 1_000, 4_999);
//! let (count, _stats) = exec.execute::<CountVisitor>(&index, &q, None);
//! assert_eq!(count.count, 4_000);
//!
//! // A batch of queries, one worker each.
//! let batch: Vec<RangeQuery> =
//!     (0..8).map(|i| RangeQuery::all(1).with_range(0, i * 100, i * 100 + 49)).collect();
//! let results = exec.execute_batch::<CountVisitor, _>(&index, &batch, None);
//! assert!(results.iter().all(|(v, _)| v.count == 50));
//! ```

pub mod exec;

pub use exec::QueryExecutor;
pub use flood_store::pool;
pub use flood_store::{PoolMetrics, ThreadPool, THREADS_ENV};
