//! [`TieredTable`]: a sealed table whose column data lives in cold
//! segments, with per-block metadata and cumulative sidecars always
//! resident.
//!
//! Sealing splits every column into [`BLOCK_LEN`]-sized bit-packed blocks
//! and groups runs of [`TierConfig::segment_blocks`] blocks into segments
//! written to a [`StorageBackend`]. What stays in RAM unconditionally is
//! tiny and O(rows / 128):
//!
//! * [`BlockMeta`] (min/max/len) per block — enough to classify every
//!   range predicate, so scans skip cold segments without reading them;
//! * a per-block cumulative sum sidecar — whole-block SUM accepts are
//!   answered with zero data access, like the resident store's
//!   [`CumulativeColumn`](crate::CumulativeColumn) at block granularity;
//! * per column, the steps of its running maximum over segments `0..=s`
//!   and running minimum over segments `s..` (`BoundSteps`) — what
//!   [`TieredTable::candidate_rows`] plans a read from: both are monotone
//!   in `s` whatever the data, so a range predicate bounds the segments
//!   that can hold a match with two binary searches, and on a column the
//!   rows happen to be ordered by (arrival time) that is the §3.2
//!   sort-dimension refinement, discovered rather than declared;
//! * segment geometry and residency handles.
//!
//! Segment files are reference-counted: cloning a `TieredTable` (how the
//! serving layer snapshots an epoch) shares them, and a segment's blob is
//! deleted from the backend only when the last table generation
//! referencing it drops. A pinned snapshot therefore never faults on a
//! retired epoch's segments — they are not retired until it lets go.
//!
//! Geometry invariant: every segment starts at a block index that is a
//! multiple of `segment_blocks` and spans at most `segment_blocks` blocks
//! (compaction preserves this), so cuts aligned to
//! [`TieredTable::segment_rows`] never split a segment.

use super::backend::{SegmentKey, StorageBackend, StorageError};
use super::cache::{SegmentCache, TierConfig};
use super::segment::encode_segment;
use crate::block::{Block, BlockMeta, BLOCK_LEN};
use crate::plan::{PlannedRange, RangePlan};
use crate::query::RangeQuery;
use crate::scan::Check;
use crate::table::Table;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocates process-unique table lineage ids, so two tiered tables never
/// collide in a shared backend.
static TABLE_IDS: AtomicU64 = AtomicU64::new(1);

/// A run of consecutive blocks sealed as one segment (shared geometry for
/// every column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegSpan {
    /// Index of the first block in the segment.
    pub first_block: usize,
    /// Number of blocks in the segment.
    pub n_blocks: usize,
}

/// A reference-counted handle to one stored segment blob. Dropping the
/// last handle retires the blob: it is discarded from the cache and
/// deleted from the backend (best-effort).
#[derive(Debug)]
pub(crate) struct SegmentFile {
    key: SegmentKey,
    /// Encoded blob size (cold-tier footprint).
    bytes: usize,
    cache: Arc<SegmentCache>,
}

impl SegmentFile {
    pub(crate) fn key(&self) -> SegmentKey {
        self.key
    }
}

impl Drop for SegmentFile {
    fn drop(&mut self) {
        self.cache.discard(self.key);
        let _ = self.cache.backend().delete(self.key);
    }
}

/// A running bound over a column's segments, kept only where it changes:
/// `vals` is strictly increasing and `segs[i]` is the segment that sets the
/// bound to `vals[i]`. One entry per segment on a column the rows are
/// ordered by, a handful on an unordered one.
#[derive(Debug, Clone, Default)]
struct BoundSteps {
    segs: Vec<u32>,
    vals: Vec<u64>,
}

impl BoundSteps {
    /// Resident bytes.
    fn size_bytes(&self) -> usize {
        self.segs.len() * 4 + self.vals.len() * 8
    }

    /// Keep the first `n` steps.
    fn keep(&mut self, n: usize) {
        self.segs.truncate(n);
        self.vals.truncate(n);
    }

    /// Forget segments `keep..` (a short tail about to be re-sealed).
    fn truncate(&mut self, keep: usize) {
        self.keep(self.segs.partition_point(|&s| (s as usize) < keep));
    }

    /// Running maximum over segments `0..=seg`: a step where `max` exceeds
    /// every earlier segment's.
    fn push_max(&mut self, seg: usize, max: u64) {
        if self.vals.last().is_none_or(|&v| v < max) {
            self.segs.push(seg as u32);
            self.vals.push(max);
        }
    }

    /// Running minimum over segments `seg..`: earlier steps that are not
    /// below `min` no longer undercut everything after them.
    fn push_min(&mut self, seg: usize, min: u64) {
        self.keep(self.vals.partition_point(|&v| v < min));
        self.segs.push(seg as u32);
        self.vals.push(min);
    }
}

/// One column of a tiered table: resident metadata plus segment handles.
#[derive(Debug, Clone)]
pub struct TieredColumn {
    /// Per-block min/max/len.
    meta: Vec<BlockMeta>,
    /// Cumulative sidecar: `block_prefix[b]` is the wrapping sum of every
    /// value in blocks `0..=b`.
    block_prefix: Vec<u64>,
    /// The running maximum over segments `0..=s`: its steps are the first
    /// segment to reach each new high.
    max_steps: BoundSteps,
    /// The running minimum over segments `s..`: its steps are the last
    /// segment to hold each value below everything after it.
    min_steps: BoundSteps,
    /// One handle per segment, parallel to the table's spans.
    files: Vec<Arc<SegmentFile>>,
}

impl TieredColumn {
    /// Per-block metadata, in block order.
    pub fn meta(&self) -> &[BlockMeta] {
        &self.meta
    }

    /// Wrapping sum of every value in block `b` — from the resident
    /// sidecar, no data access.
    #[inline]
    pub fn block_sum(&self, b: usize) -> u64 {
        let upto = self.block_prefix[b];
        if b == 0 {
            upto
        } else {
            upto.wrapping_sub(self.block_prefix[b - 1])
        }
    }

    /// The key of segment `s` of this column.
    pub(crate) fn segment_key(&self, s: usize) -> SegmentKey {
        self.files[s].key()
    }

    /// The segments that can hold a value in `[lo, hi]`, as far as the
    /// running bounds tell: from the first one whose maximum reaches `lo`
    /// to the last one whose minimum is within `hi` — two binary searches.
    /// Empty (`start >= end`) when no segment qualifies on either side.
    fn candidate_segments(&self, lo: u64, hi: u64) -> Range<usize> {
        let reaching = self.max_steps.vals.partition_point(|&v| v < lo);
        let within = self.min_steps.vals.partition_point(|&v| v <= hi);
        match (self.max_steps.segs.get(reaching), within.checked_sub(1)) {
            (Some(&first), Some(i)) => first as usize..self.min_steps.segs[i] as usize + 1,
            _ => 0..0,
        }
    }
}

/// A sealed table stored cold, scanned through the segment cache.
#[derive(Debug, Clone)]
pub struct TieredTable {
    spans: Vec<SegSpan>,
    /// Block index → segment index.
    seg_of_block: Vec<u32>,
    columns: Vec<TieredColumn>,
    names: Vec<String>,
    len: usize,
    segment_blocks: usize,
    table_id: u64,
    next_seg: Arc<AtomicU64>,
    cache: Arc<SegmentCache>,
}

impl TieredTable {
    /// Seal `table` into `backend` under `cfg`: compress every column into
    /// blocks, group them into segments, write the segments cold, and keep
    /// only metadata resident. The source table is not consumed; callers
    /// drop it to realize the memory win.
    pub fn seal(
        table: &Table,
        backend: Arc<dyn StorageBackend>,
        cfg: TierConfig,
    ) -> Result<Self, StorageError> {
        let segment_blocks = cfg.segment_blocks.max(1);
        let cache = Arc::new(SegmentCache::new(backend, cfg.budget_bytes));
        let table_id = TABLE_IDS.fetch_add(1, Ordering::Relaxed);
        let mut out = TieredTable {
            spans: Vec::new(),
            seg_of_block: Vec::new(),
            columns: (0..table.dims())
                .map(|_| TieredColumn {
                    meta: Vec::new(),
                    block_prefix: Vec::new(),
                    max_steps: BoundSteps::default(),
                    min_steps: BoundSteps::default(),
                    files: Vec::new(),
                })
                .collect(),
            names: table.names().to_vec(),
            len: 0,
            segment_blocks,
            table_id,
            next_seg: Arc::new(AtomicU64::new(0)),
            cache,
        };
        let cols: Vec<Vec<u64>> = (0..table.dims())
            .map(|d| table.column(d).to_vec())
            .collect();
        out.append_columns(cols)?;
        Ok(out)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The residency manager shared by every clone of this table.
    pub fn cache(&self) -> &Arc<SegmentCache> {
        &self.cache
    }

    /// Rows per full segment — the cut alignment for partitioned scans.
    pub fn segment_rows(&self) -> usize {
        self.segment_blocks * BLOCK_LEN
    }

    /// Number of blocks per column.
    pub fn n_blocks(&self) -> usize {
        self.seg_of_block.len()
    }

    /// Number of segments per column.
    pub fn n_segments(&self) -> usize {
        self.spans.len()
    }

    /// Segment geometry (shared by every column).
    pub fn spans(&self) -> &[SegSpan] {
        &self.spans
    }

    /// The segment that holds block `b`.
    #[inline]
    pub fn segment_of_block(&self, b: usize) -> usize {
        self.seg_of_block[b] as usize
    }

    /// Column accessor.
    pub fn tiered_column(&self, dim: usize) -> &TieredColumn {
        &self.columns[dim]
    }

    /// The storage key of column `dim`'s segment `s` (tests and
    /// diagnostics; scans resolve keys internally).
    pub fn segment_key(&self, dim: usize, s: usize) -> SegmentKey {
        self.columns[dim].segment_key(s)
    }

    /// Every segment key of column `dim`, in segment order.
    pub fn segment_keys(&self, dim: usize) -> Vec<SegmentKey> {
        (0..self.n_segments())
            .map(|s| self.segment_key(dim, s))
            .collect()
    }

    /// The rows a read filtered by `checks` has to look at: one
    /// [`segment_rows`](Self::segment_rows)-aligned range (its end clipped
    /// to the table) outside which every block is ruled out by some check,
    /// from each checked column's running segment bounds — resident
    /// metadata, no I/O, two binary searches per check. Empty for a check
    /// with `lo > hi`, an empty table, or bounds no segment can meet; the
    /// whole table when nothing is checked.
    pub fn candidate_rows(&self, checks: &[Check]) -> Range<usize> {
        let mut segs = 0..self.n_segments();
        for &(dim, lo, hi) in checks {
            let col = if lo <= hi {
                self.columns[dim].candidate_segments(lo, hi)
            } else {
                0..0
            };
            segs = segs.start.max(col.start)..segs.end.min(col.end);
        }
        if segs.is_empty() {
            return 0..0;
        }
        let last = self.spans[segs.end - 1];
        self.spans[segs.start].first_block * BLOCK_LEN
            ..self.len.min((last.first_block + last.n_blocks) * BLOCK_LEN)
    }

    /// The plan of a read of this table: `query`'s filters checked over
    /// [`candidate_rows`](Self::candidate_rows), and no range at all when
    /// that is empty.
    pub(crate) fn plan(&self, query: &RangeQuery) -> RangePlan {
        let mut plan = RangePlan::filtered(query);
        let rows = self.candidate_rows(&plan.tail);
        if !rows.is_empty() {
            plan.ranges
                .push(PlannedRange::checked(rows.start, rows.end));
        }
        plan
    }

    /// Always-resident metadata footprint in bytes: block metadata,
    /// cumulative sidecars, running segment bounds, and segment geometry.
    /// This is what a larger-than-RAM table costs when fully cold.
    pub fn metadata_bytes(&self) -> usize {
        let per_col: usize = self
            .columns
            .iter()
            .map(|c| {
                c.meta.len() * std::mem::size_of::<BlockMeta>()
                    + c.block_prefix.len() * 8
                    + c.max_steps.size_bytes()
                    + c.min_steps.size_bytes()
                    + c.files.len() * std::mem::size_of::<SegmentFile>()
            })
            .sum();
        per_col + self.spans.len() * std::mem::size_of::<SegSpan>() + self.seg_of_block.len() * 4
    }

    /// Total encoded bytes across every cold segment of every column — the
    /// dataset's cold-tier footprint, to size a memory budget against.
    pub fn cold_bytes(&self) -> usize {
        self.columns
            .iter()
            .flat_map(|c| c.files.iter())
            .map(|f| f.bytes)
            .sum()
    }

    /// Append `cols` (column-major, one `Vec` per dimension, equal
    /// lengths) as new sealed segments — the compaction path for
    /// `delta.rs`-style fresh inserts.
    ///
    /// When the tail segment is not full, it is decoded, merged with the
    /// new rows, and re-sealed as fresh segments (its old blob retires via
    /// handle drop — clones of this table made earlier keep it alive and
    /// readable). All backend writes happen before any self-mutation: on
    /// error the table is unchanged and best-effort cleanup removes the
    /// orphaned new blobs.
    pub fn append_columns(&mut self, cols: Vec<Vec<u64>>) -> Result<(), StorageError> {
        assert_eq!(cols.len(), self.dims(), "column count mismatch");
        let added = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == added),
            "ragged append: columns differ in length"
        );
        if added == 0 {
            return Ok(());
        }

        // Rows from the start of the tail segment that must be re-sealed
        // together with the appended rows: all of it unless it is full —
        // a short tail left in place would put the next segment off the
        // `segment_blocks` grid.
        let (keep_spans, tail_start) = match self.spans.last() {
            Some(tail) if self.len < (tail.first_block + self.segment_blocks) * BLOCK_LEN => {
                (self.spans.len() - 1, tail.first_block * BLOCK_LEN)
            }
            _ => (self.spans.len(), self.len),
        };
        let first_new_block = tail_start / BLOCK_LEN;

        // Gather the values to seal: decoded tail rows (if any) ++ appended.
        let mut to_seal: Vec<Vec<u64>> = Vec::with_capacity(self.dims());
        for (d, new_vals) in cols.into_iter().enumerate() {
            let mut vals = Vec::with_capacity((self.len - tail_start) + added);
            if tail_start < self.len {
                let tail_seg = self.spans.len() - 1;
                let (loaded, _) = self.cache.acquire(self.columns[d].segment_key(tail_seg))?;
                for blk in &loaded.blocks {
                    blk.decompress_into(&mut vals);
                }
            }
            vals.extend_from_slice(&new_vals);
            to_seal.push(vals);
        }
        let new_rows = to_seal[0].len();
        let new_blocks = new_rows.div_ceil(BLOCK_LEN);

        // Seal and write every new segment before touching self.
        let mut new_files: Vec<Vec<Arc<SegmentFile>>> = Vec::with_capacity(self.dims());
        let mut new_meta: Vec<Vec<BlockMeta>> = Vec::with_capacity(self.dims());
        let mut new_sums: Vec<Vec<u64>> = Vec::with_capacity(self.dims());
        let mut new_spans: Vec<SegSpan> = Vec::new();
        let mut written: Vec<SegmentKey> = Vec::new();
        let mut write_all = || -> Result<(), StorageError> {
            for span_start in (0..new_blocks).step_by(self.segment_blocks) {
                let span_blocks = self.segment_blocks.min(new_blocks - span_start);
                new_spans.push(SegSpan {
                    first_block: first_new_block + span_start,
                    n_blocks: span_blocks,
                });
            }
            for vals in &to_seal {
                let blocks: Vec<Block> = vals.chunks(BLOCK_LEN).map(Block::compress).collect();
                let mut files = Vec::new();
                for span_start in (0..new_blocks).step_by(self.segment_blocks) {
                    let span_blocks = self.segment_blocks.min(new_blocks - span_start);
                    let run = &blocks[span_start..span_start + span_blocks];
                    let key = SegmentKey {
                        table: self.table_id,
                        dim: new_files.len() as u32,
                        id: self.next_seg.fetch_add(1, Ordering::Relaxed),
                    };
                    let blob = encode_segment(run);
                    self.cache.backend().put(key, &blob)?;
                    written.push(key);
                    files.push(Arc::new(SegmentFile {
                        key,
                        bytes: blob.len(),
                        cache: self.cache.clone(),
                    }));
                }
                new_files.push(files);
                new_meta.push(blocks.iter().map(Block::meta).collect());
                let mut sums = Vec::with_capacity(blocks.len());
                for chunk in vals.chunks(BLOCK_LEN) {
                    sums.push(chunk.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
                }
                new_sums.push(sums);
            }
            Ok(())
        };
        if let Err(e) = write_all() {
            for key in written {
                let _ = self.cache.backend().delete(key);
            }
            return Err(e);
        }

        // Commit: drop the rebuilt tail (handles retire the old blobs once
        // no clone references them) and splice the new geometry in.
        self.spans.truncate(keep_spans);
        self.seg_of_block.truncate(first_new_block);
        for (span_off, span) in new_spans.iter().enumerate() {
            let seg_idx = (keep_spans + span_off) as u32;
            self.spans.push(*span);
            self.seg_of_block
                .extend(std::iter::repeat_n(seg_idx, span.n_blocks));
        }
        for (d, col) in self.columns.iter_mut().enumerate() {
            col.files.truncate(keep_spans);
            col.files.append(&mut new_files[d]);
            col.meta.truncate(first_new_block);
            col.meta.extend_from_slice(&new_meta[d]);
            col.block_prefix.truncate(first_new_block);
            let mut acc = col.block_prefix.last().copied().unwrap_or(0);
            for &s in &new_sums[d] {
                acc = acc.wrapping_add(s);
                col.block_prefix.push(acc);
            }
            // A re-sealed tail keeps its rows, so the segment that replaces
            // it bounds them again: the steps of the segments kept are
            // still the steps of the table they are a prefix of.
            col.max_steps.truncate(keep_spans);
            col.min_steps.truncate(keep_spans);
            for (span_off, span) in new_spans.iter().enumerate() {
                let first = span.first_block - first_new_block;
                let blocks = &new_meta[d][first..first + span.n_blocks];
                let max = blocks.iter().map(|m| m.max).max().expect("non-empty span");
                let min = blocks.iter().map(|m| m.min).min().expect("non-empty span");
                col.max_steps.push_max(keep_spans + span_off, max);
                col.min_steps.push_min(keep_spans + span_off, min);
            }
        }
        self.len = tail_start + new_rows;
        Ok(())
    }

    /// Materialize a fully-resident copy of the table (plain columns),
    /// reading every segment directly from the backend without disturbing
    /// cache residency or fault counters. The correctness oracle for the
    /// differential suites; also handy for re-learning over sealed data.
    pub fn resident(&self) -> Result<Table, StorageError> {
        let mut cols = Vec::with_capacity(self.dims());
        for col in &self.columns {
            let mut vals = Vec::with_capacity(self.len);
            for file in &col.files {
                for b in &self.cache.load(file.key())?.blocks {
                    b.decompress_into(&mut vals);
                }
            }
            cols.push(vals);
        }
        Ok(Table::from_named_columns(cols, self.names.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemBackend;
    use super::*;

    fn table(n: u64) -> Table {
        Table::from_named_columns(
            vec![
                (0..n).map(|i| i % 97).collect(),
                (0..n).map(|i| (i * 31) % 1009).collect(),
            ],
            vec!["a".into(), "b".into()],
        )
    }

    fn seal(n: u64, budget: usize) -> (TieredTable, Arc<MemBackend>) {
        let backend = Arc::new(MemBackend::new());
        let t = TieredTable::seal(
            &table(n),
            backend.clone(),
            TierConfig {
                budget_bytes: budget,
                segment_blocks: 2,
            },
        )
        .unwrap();
        (t, backend)
    }

    #[test]
    fn seal_resident_roundtrip() {
        let (t, _backend) = seal(1000, 0);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.n_blocks(), 8);
        assert_eq!(t.n_segments(), 4);
        let r = t.resident().unwrap();
        let orig = table(1000);
        assert_eq!(r.len(), orig.len());
        for d in 0..2 {
            for row in 0..1000 {
                assert_eq!(r.value(row, d), orig.value(row, d), "row {row} dim {d}");
            }
        }
        assert_eq!(r.names(), orig.names());
    }

    #[test]
    fn metadata_matches_blocks() {
        let (t, _backend) = seal(300, 0);
        let orig = table(300);
        let col = t.tiered_column(0);
        assert_eq!(col.meta().len(), 3);
        for (b, m) in col.meta().iter().enumerate() {
            let s = b * BLOCK_LEN;
            let e = (s + BLOCK_LEN).min(300);
            let vals: Vec<u64> = (s..e).map(|r| orig.value(r, 0)).collect();
            assert_eq!(m.min, *vals.iter().min().unwrap());
            assert_eq!(m.max, *vals.iter().max().unwrap());
            assert_eq!(m.len as usize, e - s);
            assert_eq!(
                col.block_sum(b),
                vals.iter().fold(0u64, |a, &v| a.wrapping_add(v))
            );
        }
    }

    #[test]
    fn classify_meta_matches_block_classify() {
        let vals: Vec<u64> = (0..100u64).map(|i| 50 + (i * 7) % 200).collect();
        let blk = Block::compress(&vals);
        let meta = blk.meta();
        assert_eq!((meta.min, meta.max), (blk.min(), blk.max()));
        assert_eq!(meta.len as usize, blk.len());
        for (lo, hi) in [
            (0, 49),
            (0, 50),
            (50, 249),
            (100, 150),
            (250, 300),
            (0, u64::MAX),
        ] {
            assert_eq!(meta.classify(lo, hi), blk.classify(lo, hi), "[{lo},{hi}]");
        }
    }

    #[test]
    fn append_aligned_creates_new_segments_only() {
        // 512 rows = 4 blocks = 2 full segments (segment_blocks=2).
        let (mut t, _backend) = seal(512, 1 << 20);
        let keys_before = t.segment_keys(0);
        t.append_columns(vec![(0..100u64).collect(), (0..100u64).rev().collect()])
            .unwrap();
        assert_eq!(t.len(), 612);
        let keys_after = t.segment_keys(0);
        assert_eq!(
            &keys_after[..keys_before.len()],
            &keys_before[..],
            "aligned append must not rewrite sealed segments"
        );
        let r = t.resident().unwrap();
        assert_eq!(r.value(512, 0), 0);
        assert_eq!(r.value(611, 1), 0);
    }

    #[test]
    fn append_unaligned_reseal_preserves_rows() {
        // A tail short of a block (300 rows), and one of whole blocks but
        // short of a segment (384 rows = 3 blocks, 2 to a segment).
        for n in [300, 384] {
            let (mut t, _backend) = seal(n as u64, 1 << 20);
            t.append_columns(vec![(1000..1070u64).collect(), (2000..2070u64).collect()])
                .unwrap();
            assert_eq!(t.len(), n + 70);
            let r = t.resident().unwrap();
            let orig = table(n as u64);
            for row in 0..n {
                assert_eq!(r.value(row, 0), orig.value(row, 0), "row {row}");
            }
            for i in 0..70 {
                assert_eq!(r.value(n + i, 0), 1000 + i as u64);
                assert_eq!(r.value(n + i, 1), 2000 + i as u64);
            }
            // Geometry invariant: spans start at segment_blocks boundaries.
            for s in t.spans() {
                assert_eq!(s.first_block % 2, 0, "span start must stay aligned");
                assert!(s.n_blocks <= 2);
            }
        }
    }

    #[test]
    fn candidate_rows_edges() {
        // Column a cycles 0..97 (every segment spans all of it), b likewise
        // over 0..1009; neither narrows anything it can meet.
        let (t, _backend) = seal(1000, 0);
        assert_eq!(t.candidate_rows(&[]), 0..1000);
        assert_eq!(t.candidate_rows(&[(0, 10, 20)]), 0..1000);
        assert_eq!(t.candidate_rows(&[(0, 20, 10)]), 0..0, "lo > hi");
        assert_eq!(t.candidate_rows(&[(0, 97, u64::MAX)]), 0..0, "above");
        assert_eq!(t.candidate_rows(&[(0, 0, 96), (1, 2_000, 3_000)]), 0..0);
        let (empty, _backend) = seal(0, 0);
        assert_eq!(empty.candidate_rows(&[]), 0..0);
        assert_eq!(empty.candidate_rows(&[(0, 0, u64::MAX)]), 0..0);

        // Appended rows above (a) and below (b) everything sealed: each
        // bound moves only the end it can.
        let (mut t, _backend) = seal(512, 0);
        t.append_columns(vec![vec![500; 256], vec![0; 256]])
            .unwrap();
        assert_eq!(t.candidate_rows(&[(0, 100, 600)]), 512..768);
        assert_eq!(t.candidate_rows(&[(0, 0, 96)]), 0..512);
        // The low tail's maximum cannot trim the end: only minima do.
        assert_eq!(t.candidate_rows(&[(1, 1, 1_008)]), 0..768);
    }

    #[test]
    fn clone_pins_retired_segments_alive() {
        let (mut t, backend) = seal(300, 1 << 20);
        let snapshot = t.clone();
        let blobs_before = backend.blob_count();
        // Unaligned append rewrites the tail segment of both columns.
        t.append_columns(vec![vec![1, 2, 3], vec![4, 5, 6]])
            .unwrap();
        // Old tail blobs still exist: the snapshot references them.
        assert!(backend.blob_count() > blobs_before);
        let r = snapshot.resident().unwrap();
        assert_eq!(r.len(), 300, "snapshot still reads its own generation");
        drop(snapshot);
        // Last reference gone: retired blobs are deleted.
        assert_eq!(
            backend.blob_count(),
            t.segment_keys(0).len() + t.segment_keys(1).len()
        );
    }

    #[test]
    fn empty_table_seals() {
        let backend = Arc::new(MemBackend::new());
        let t = TieredTable::seal(
            &Table::from_columns(vec![vec![], vec![]]),
            backend,
            TierConfig::default(),
        )
        .unwrap();
        assert!(t.is_empty());
        assert_eq!(t.n_segments(), 0);
        assert_eq!(t.resident().unwrap().len(), 0);
    }

    #[test]
    fn distinct_tables_never_share_keys() {
        let backend = Arc::new(MemBackend::new());
        let cfg = TierConfig::default().with_budget(0);
        let a = TieredTable::seal(&table(200), backend.clone(), cfg).unwrap();
        let b = TieredTable::seal(&table(200), backend, cfg).unwrap();
        for ka in a.segment_keys(0) {
            for kb in b.segment_keys(0) {
                assert_ne!(ka, kb);
            }
        }
    }
}
