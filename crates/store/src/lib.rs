//! # flood-store
//!
//! An in-memory, read-optimized column store — the storage substrate that the
//! Flood index (and every baseline index in this workspace) is built on.
//!
//! This reproduces the custom column store described in §7.1 of
//! *Learning Multi-dimensional Indexes* (SIGMOD 2020):
//!
//! * **Block-delta compression**: each column is divided into consecutive
//!   blocks of 128 values; each value is encoded as a bit-packed delta to the
//!   minimum value of its block. Access remains constant-time
//!   ([`CompressedColumn`]).
//! * **64-bit integer attributes**: every column is `u64`; strings and
//!   floats are mapped to integers before ingestion.
//! * **Exact-range scan elision**: when a caller can prove that an entire
//!   physical range matches the query filter, per-value predicate checks are
//!   skipped ([`scan::scan_exact`]).
//! * **Cumulative aggregate columns**: a column whose `i`-th value is the
//!   cumulative aggregation of elements `0..=i`, so a SUM over an exact range
//!   is just two lookups ([`CumulativeColumn`]).
//! * **Packed-domain predicate evaluation**: range filters are resolved
//!   against compressed columns without decoding — blocks are skipped or
//!   accepted wholesale from per-block min/max, and the rest are compared
//!   in the delta domain without a branch per value
//!   ([`scan::scan_checked`], which picks block-wise or row-wise from the
//!   column representation).
//!
//! The crate also defines the shared query model ([`RangeQuery`]), the
//! [`Visitor`] abstraction that all indexes use to process matching records,
//! and the scoped [`ThreadPool`] that parallel scans and index builds run on.
//!
//! For tables larger than RAM, the [`tier`] module seals columns into
//! checksummed cold segments behind a pluggable [`StorageBackend`], keeps
//! only per-block metadata and cumulative sidecars resident, and faults
//! segments through a budgeted [`SegmentCache`]. The scan kernel is the
//! same function over either kind of table (a [`BlockSource`]), so results
//! and shared [`ScanStats`] counters are bit-identical by construction.

pub mod block;
pub mod column;
pub mod cumulative;
pub mod index_trait;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod query;
pub mod scan;
pub mod stats;
pub mod table;
pub mod tier;
pub mod visitor;

pub use block::{Block, BlockMask, BlockMatch, BlockMeta, BLOCK_LEN};
pub use column::{Column, CompressedColumn};
pub use cumulative::CumulativeColumn;
pub use index_trait::{
    assert_partitioned_matches_serial, run_tasks_merged, MultiDimIndex, PartitionedScan,
    PlannedIndex, ScanPlan,
};
pub use partition::{partition_ranges_aligned, RangeChunk};
pub use plan::{ChunkedRangeScan, PlannedRange, RangePlan, RangeScan};
pub use pool::{PoolMetrics, ThreadPool, THREADS_ENV};
pub use query::{QueryRect, RangeQuery};
pub use scan::{rank_rows, scan_checked, scan_exact, scan_filtered, scan_rows, BlockSource, Check};
pub use stats::{assert_stats_equivalent, ScanStats, ScanStatsMetrics};
pub use table::Table;
pub use tier::{
    FailingBackend, FileBackend, MemBackend, SegmentCache, SegmentKey, StorageBackend,
    StorageError, TierConfig, TieredDelta, TieredScan, TieredTable,
};
pub use visitor::{
    CollectVisitor, CountVisitor, MatchCount, MergeVisitor, MinMaxVisitor, SumVisitor, Visitor,
};
