//! [`BlockSource`] for a [`TieredTable`]: what the scan kernel
//! ([`crate::scan`]) needs to run over cold segments.
//!
//! Block metadata and the per-block cumulative sidecar are always
//! resident, so the kernel classifies every block — and answers whole-block
//! exact accepts — with no I/O: a cold segment whose every block skips is
//! never read. Pinning marks the segments the surviving blocks need in one
//! dense (column × segment) table over the scanned rows' segments, then
//! acquires the marked ones through the
//! [`SegmentCache`](super::SegmentCache) in table order — ascending
//! `(dim, segment)`, each once — and holds them for the duration of the
//! scan; a block finds its segment by indexing the table. Any load failure
//! returns a typed [`StorageError`] from there, *before the visitor has
//! seen a single row*.

use super::backend::StorageError;
use super::cache::LoadedSegment;
use super::table::TieredTable;
use crate::block::{BlockMeta, BLOCK_LEN};
use crate::scan::{BlockRef, BlockSource, PinnedBlocks};
use crate::stats::ScanStats;
use std::ops::Range;
use std::sync::Arc;

/// The segments pinned for one scan, in one dense table over the scanned
/// rows' segments: column `dim`'s segment `s` sits at
/// `dim * n_seg + (s - first)`, `None` where the scan needs no data.
pub struct PinnedSegments<'a> {
    table: &'a TieredTable,
    /// The first segment the scanned rows overlap.
    first: usize,
    /// Segments the scanned rows overlap.
    n_seg: usize,
    segments: Vec<Option<Arc<LoadedSegment>>>,
    faulted: u64,
    hit: u64,
    /// Referenced columns × overlapping segments, minus what was pinned:
    /// segments whose data the scan never read.
    skipped: u64,
}

impl BlockSource for TieredTable {
    type Error = StorageError;
    type Pinned<'a> = PinnedSegments<'a>;

    fn alignment(&self) -> usize {
        self.segment_rows()
    }

    #[inline]
    fn block_meta(&self, dim: usize, b: usize) -> Option<BlockMeta> {
        Some(self.tiered_column(dim).meta()[b])
    }

    /// Whole blocks only, from the cumulative sidecar.
    fn block_sum(&self, dim: usize, b: usize, rows: Range<usize>) -> Option<u64> {
        let col = self.tiered_column(dim);
        let whole = rows.start == b * BLOCK_LEN && rows.len() == col.meta()[b].len as usize;
        whole.then(|| col.block_sum(b))
    }

    /// All-or-nothing: the first failed load aborts the scan. Needs are
    /// marked in the table first, then acquired in slot order — ascending
    /// `(dim, segment)`, each needed segment once.
    fn pin<'a>(
        &'a self,
        rows: Range<usize>,
        dims: impl Iterator<Item = usize>,
        needs: impl FnOnce(&mut dyn FnMut(usize, usize)),
    ) -> Result<PinnedSegments<'a>, StorageError> {
        let first = self.segment_of_block(rows.start / BLOCK_LEN);
        let n_seg = self.segment_of_block((rows.end - 1) / BLOCK_LEN) - first + 1;
        let mut needed = vec![false; self.dims() * n_seg];
        needs(&mut |dim, b| needed[dim * n_seg + self.segment_of_block(b) - first] = true);
        let mut segments = vec![None; needed.len()];
        let (mut faulted, mut hit) = (0u64, 0u64);
        for i in (0..needed.len()).filter(|&i| needed[i]) {
            let key = self.segment_key(i / n_seg, first + i % n_seg);
            let (loaded, was_fault) = self.cache().acquire(key)?;
            if was_fault {
                faulted += 1;
            } else {
                hit += 1;
            }
            segments[i] = Some(loaded);
        }
        let mut seen = vec![false; self.dims()];
        let referenced = dims
            .filter(|&d| !std::mem::replace(&mut seen[d], true))
            .count();
        Ok(PinnedSegments {
            table: self,
            first,
            n_seg,
            segments,
            faulted,
            hit,
            skipped: (referenced * n_seg) as u64 - (faulted + hit),
        })
    }
}

impl PinnedBlocks for PinnedSegments<'_> {
    #[inline]
    fn block(&self, dim: usize, b: usize) -> BlockRef<'_> {
        let seg = self.table.segment_of_block(b);
        let loaded = self.segments[dim * self.n_seg + seg - self.first]
            .as_deref()
            .expect("needed segment not pinned");
        BlockRef::Packed(&loaded.blocks[b - self.table.spans()[seg].first_block])
    }

    fn record(&self, stats: &mut ScanStats) {
        stats.segments_faulted += self.faulted;
        stats.segments_hit += self.hit;
        stats.segments_skipped += self.skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::{MemBackend, SegmentKey, StorageBackend};
    use super::super::cache::TierConfig;
    use super::*;
    use crate::query::RangeQuery;
    use crate::scan::{scan_checked, scan_filtered};
    use crate::table::Table;
    use crate::visitor::{CollectVisitor, CountVisitor, SumVisitor, Visitor};

    /// Records every (row, value) pair in visit order — the strictest
    /// observer: any difference in rows, order, or values shows up.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct RowValueVisitor {
        seen: Vec<(usize, u64)>,
    }

    impl Visitor for RowValueVisitor {
        fn visit(&mut self, row: usize, value: u64) {
            self.seen.push((row, value));
        }
    }

    fn dataset(n: u64) -> Vec<Vec<u64>> {
        vec![
            (0..n).collect(),                                      // sorted
            (0..n).map(|i| (i * 2_654_435_761) % 1_000).collect(), // scattered
            (0..n).map(|i| i % 7).collect(),                       // low-cardinality payload
        ]
    }

    fn pair(n: u64, budget: usize) -> (TieredTable, Table) {
        let mut resident = Table::from_columns(dataset(n));
        let tiered = TieredTable::seal(
            &resident,
            Arc::new(MemBackend::new()),
            TierConfig {
                budget_bytes: budget,
                segment_blocks: 2,
            },
        )
        .unwrap();
        resident.compress();
        (tiered, resident)
    }

    /// The kernel over both sources with the same checks; assert identical
    /// collected rows, values, and shared counters.
    fn assert_parity(
        tiered: &TieredTable,
        resident: &Table,
        checks: &[(usize, u64, u64)],
        start: usize,
        end: usize,
        agg_dim: Option<usize>,
    ) {
        let mut want_v = RowValueVisitor::default();
        let mut want_s = ScanStats::default();
        let Ok(()) = scan_checked(
            resident,
            checks,
            start,
            end,
            agg_dim,
            None,
            &mut want_v,
            &mut want_s,
        );
        let mut got_v = RowValueVisitor::default();
        let mut got_s = ScanStats::default();
        scan_checked(
            tiered, checks, start, end, agg_dim, None, &mut got_v, &mut got_s,
        )
        .unwrap();
        assert_eq!(got_v, want_v, "row/value mismatch for {checks:?}");
        assert_eq!(
            got_s.sans_tier_counters(),
            want_s.sans_tier_counters(),
            "stats mismatch for {checks:?}"
        );
    }

    #[test]
    fn tiered_matches_packed_across_selectivities() {
        let (tiered, resident) = pair(1_000, 0);
        for checks in [
            vec![(0usize, 100u64, 299u64)],
            vec![(0, 0, 999)],
            vec![(0, 990, 2_000)],
            vec![(1, 0, 499)],
            vec![(0, 100, 899), (1, 250, 750)],
            vec![(0, 5_000, 6_000)], // nothing matches
            vec![(2, 3, 3)],
        ] {
            for agg in [None, Some(2)] {
                assert_parity(&tiered, &resident, &checks, 0, 1_000, agg);
            }
        }
    }

    #[test]
    fn tiered_matches_packed_on_subranges_and_block_edges() {
        let (tiered, resident) = pair(700, 0);
        let checks = vec![(0usize, 50u64, 620u64)];
        for (s, e) in [
            (0, 700),
            (1, 699),
            (128, 256),
            (127, 129),
            (640, 700),
            (256, 256),
        ] {
            assert_parity(&tiered, &resident, &checks, s, e, Some(1));
        }
    }

    #[test]
    fn empty_checks_visits_every_row() {
        let (tiered, resident) = pair(300, 0);
        assert_parity(&tiered, &resident, &[], 10, 290, Some(1));
        assert_parity(&tiered, &resident, &[], 0, 300, None);
    }

    #[test]
    fn skipped_segments_are_never_read() {
        // dim0 sorted: a narrow range touches one segment's worth of blocks;
        // the rest skip from metadata with zero faults.
        let (tiered, _resident) = pair(2_048, 0);
        let mut v = CountVisitor::default();
        let mut s = ScanStats::default();
        scan_checked(
            &tiered,
            &[(0, 0, 100)],
            0,
            2_048,
            None,
            None,
            &mut v,
            &mut s,
        )
        .unwrap();
        assert_eq!(v.count, 101);
        assert!(s.segments_skipped > 0, "{s:?}");
        // Only dim0 segments overlapping [0,100] were faulted (1 probe
        // block → 1 segment).
        assert_eq!(s.segments_faulted + s.segments_hit, 1, "{s:?}");
        assert_eq!(tiered.cache().faults(), 1);
    }

    #[test]
    fn full_block_exact_accept_needs_no_data() {
        // SUM over an accept-everything predicate: every full block answers
        // from the sidecar; zero faults when range is block-aligned.
        let (tiered, resident) = pair(1_024, 0);
        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        scan_checked(
            &tiered,
            &[(0, 0, u64::MAX)],
            0,
            1_024,
            Some(1),
            None,
            &mut v,
            &mut s,
        )
        .unwrap();
        let want: u64 = (0..1_024).map(|r| resident.value(r, 1)).sum();
        assert_eq!(v.sum, want);
        assert_eq!(v.count, 1_024);
        assert_eq!(
            s.segments_faulted, 0,
            "sidecar accept must not fault: {s:?}"
        );
        assert_eq!(s.blocks_accepted, 8);
        assert_eq!(tiered.cache().faults(), 0);
    }

    #[test]
    fn count_without_values_needs_no_agg_column() {
        let (tiered, _resident) = pair(512, 0);
        let mut v = CountVisitor::default();
        let mut s = ScanStats::default();
        // Probe blocks need dim0 data, but CountVisitor never needs dim1.
        scan_checked(
            &tiered,
            &[(0, 10, 200)],
            0,
            512,
            Some(1),
            None,
            &mut v,
            &mut s,
        )
        .unwrap();
        assert_eq!(v.count, 191);
        for key in tiered.segment_keys(1) {
            assert!(
                !tiered.cache().is_resident(key),
                "agg column faulted for a COUNT"
            );
        }
    }

    #[test]
    fn filtered_and_full_wrappers_match_packed() {
        let (tiered, resident) = pair(600, 0);
        let q = RangeQuery::all(3)
            .with_range(0, 100, 400)
            .with_range(1, 0, 600);
        for agg in [None, Some(2)] {
            let mut want_v = RowValueVisitor::default();
            let mut want_s = ScanStats::default();
            let Ok(()) = scan_filtered(&resident, &q, 0, 600, agg, None, &mut want_v, &mut want_s);
            let mut got_v = RowValueVisitor::default();
            let mut got_s = ScanStats::default();
            scan_filtered(&tiered, &q, 0, 600, agg, None, &mut got_v, &mut got_s).unwrap();
            assert_eq!(got_v, want_v);
            assert_eq!(
                got_s.sans_tier_counters().points_scanned,
                want_s.points_scanned
            );
        }
    }

    /// Records the key of every get, over a [`MemBackend`].
    #[derive(Debug, Default)]
    struct RecordingBackend {
        inner: MemBackend,
        gets: std::sync::Mutex<Vec<SegmentKey>>,
    }

    impl StorageBackend for RecordingBackend {
        fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.put(key, bytes)
        }

        fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError> {
            self.gets.lock().unwrap().push(key);
            self.inner.get(key)
        }

        fn delete(&self, key: SegmentKey) -> Result<(), StorageError> {
            self.inner.delete(key)
        }
    }

    /// Pinning acquires each needed segment once, in ascending
    /// `(dim, segment)` order — the order the cache's recency and counters
    /// depend on. With a zero budget every acquire faults, so the backend's
    /// gets are the acquisition sequence.
    #[test]
    fn pins_each_needed_segment_once_in_key_order() {
        let backend = Arc::new(RecordingBackend::default());
        let resident = Table::from_columns(dataset(1_024));
        let tiered = TieredTable::seal(
            &resident,
            backend.clone(),
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap();
        let position = |key: SegmentKey| {
            (0..3)
                .flat_map(|d| (0..tiered.n_segments()).map(move |s| (d, s)))
                .find(|&(d, s)| tiered.segment_key(d, s) == key)
                .expect("a key of this table")
        };
        backend.gets.lock().unwrap().clear();
        // Rows 100..1000 overlap segments 0..=3 of 256 rows, the first and
        // last partly; dim 0 is sorted (edge blocks probe, block 0 skips),
        // dim 1 is scattered (every surviving block probes it).
        let (start, end) = (100, 1_000);
        let checks = [(0, 150, 900), (1, 100, 800)];
        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        scan_checked(&tiered, &checks, start, end, Some(2), None, &mut v, &mut s).unwrap();

        let want: Vec<usize> = (start..end)
            .filter(|&r| {
                checks
                    .iter()
                    .all(|&(d, lo, hi)| (lo..=hi).contains(&resident.value(r, d)))
            })
            .collect();
        assert_eq!(v.count, want.len() as u64);
        assert_eq!(
            v.sum,
            want.iter().map(|&r| resident.value(r, 2)).sum::<u64>()
        );

        let gets: Vec<(usize, usize)> = backend
            .gets
            .lock()
            .unwrap()
            .iter()
            .map(|&k| position(k))
            .collect();
        assert!(
            gets.windows(2).all(|w| w[0] < w[1]),
            "gets not strictly ascending by (dim, segment): {gets:?}"
        );
        assert_eq!(gets.len() as u64, s.segments_faulted, "{gets:?}");
        assert!(
            gets.iter().any(|g| g.0 == 0) && gets.iter().any(|g| g.0 == 2),
            "{gets:?}"
        );
        assert!(s.segments_skipped > 0, "{s:?}");
        let (referenced, overlapping) = (3, 4);
        assert_eq!(
            s.segments_faulted + s.segments_skipped,
            referenced * overlapping,
            "{s:?}"
        );
        assert_eq!(s.segments_hit, 0);
    }

    #[test]
    fn error_leaves_visitor_and_stats_untouched() {
        use super::super::backend::FailingBackend;
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let failing = Arc::new(FailingBackend::new(inner));
        let resident = Table::from_columns(dataset(512));
        let tiered = TieredTable::seal(
            &resident,
            failing.clone(),
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap();
        failing.fail_load(1);
        let mut v = CollectVisitor::default();
        let mut s = ScanStats::default();
        let checks = [(0, 10, 300)];
        let err =
            scan_checked(&tiered, &checks, 0, 512, Some(1), None, &mut v, &mut s).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(v.rows.is_empty(), "no partial results on error");
        assert_eq!(s, ScanStats::default(), "stats untouched on error");
        // Retry succeeds: the failure was transient and nothing was emitted.
        scan_checked(&tiered, &checks, 0, 512, Some(1), None, &mut v, &mut s).unwrap();
        assert_eq!(v.rows.len(), 291);
    }
}
