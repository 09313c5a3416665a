//! Tiered storage: larger-than-RAM tables behind a [`StorageBackend`].
//!
//! The resident column store ([`crate::table`]) is the hot tier. This
//! module adds the cold tier: sealed tables whose bit-packed blocks live
//! in checksummed segment blobs on a pluggable backend (in-memory for
//! tests, one data file for real datasets), loaded and evicted at segment
//! granularity under a configurable memory budget.
//!
//! Layering:
//!
//! * [`backend`] — [`SegmentKey`], [`StorageError`], the [`StorageBackend`]
//!   trait, and its implementations ([`MemBackend`], [`FileBackend`],
//!   fault-injecting [`FailingBackend`]). [`FileBackend`] appends every
//!   blob to one data file and finds it through an in-memory
//!   `key → (offset, len)` index, so a fault is one positioned read.
//! * [`segment`] — the checksummed on-disk codec for a run of blocks.
//! * [`cache`] — [`SegmentCache`]: budgeted LRU residency with pin-safe
//!   eviction, plus [`TierConfig`] (`FLOOD_MEM_BUDGET`).
//! * [`table`] — [`TieredTable`]: resident block metadata, cumulative
//!   sidecars and running segment bounds over cold segments; sealing,
//!   compaction, and the rows a read has to look at.
//! * [`scan`] — [`BlockSource`](crate::BlockSource) for a [`TieredTable`]:
//!   the one scan kernel ([`crate::scan`]) runs over cold segments by
//!   pinning them through the cache before it emits.
//! * [`index`] — [`TieredScan`], the scan index over tiered data (it
//!   plans the table's candidate rows), and [`with_retries`], the retry
//!   policy for fallible tier reads.
//! * [`delta`] — [`TieredDelta`], fresh inserts compacting into new cold
//!   segments.

pub mod backend;
pub mod cache;
pub mod delta;
pub mod index;
pub mod scan;
pub mod segment;
pub mod table;

pub use backend::{
    FailingBackend, FileBackend, MemBackend, SegmentKey, StorageBackend, StorageError,
};
pub use cache::{LoadedSegment, SegmentCache, TierConfig};
pub use delta::{TieredDelta, DEFAULT_TIER_DELTA_THRESHOLD};
pub use index::{with_retries, TieredScan, SCAN_RETRIES};
pub use segment::{decode_segment, encode_segment};
pub use table::{SegSpan, TieredColumn, TieredTable};
