//! Splitting a query's physical row ranges into balanced scan tasks.
//!
//! The parallel execution layer (`flood-exec`) schedules one worker per
//! task. Balance matters more than task count: a query's cells can differ
//! in population by orders of magnitude, so tasks are sized by *points*,
//! not by ranges, and a large range is cut at aligned boundaries so a cut
//! never splits a compression block or a storage segment. (Range *ends*
//! fall wherever the caller's cells fall — distinct ranges meeting inside
//! one block can still land in different tasks, which is fine for the
//! read-only scans this serves.)
//!
//! Paper map: the ranges being split are the refined per-cell sub-ranges
//! of §3.2 step 3 — after projection and refinement have already shrunk
//! the work to `N_s` points — so splitting them realizes §8's "different
//! cells can be … scanned simultaneously" without touching the index
//! structures. The population skew this guards against is the same
//! skew flattening (§5.1) reduces but does not eliminate (Fig 5's
//! cell-size spread). Because a cut never splits a block, each
//! block-subrange of a source range is classified (skipped / accepted /
//! probed) by exactly one task, and the merged `blocks_*` counters match a
//! serial run exactly; [`RangeChunk::continuation`] lets the scan driver
//! ([`crate::plan`]) do the same for `ranges_scanned`.

use crate::block::BLOCK_LEN;

/// A contiguous piece of one source range, produced by
/// [`partition_ranges_aligned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeChunk {
    /// Index of the source range this chunk was cut from.
    pub source: usize,
    /// First row of the chunk (inclusive).
    pub start: usize,
    /// One past the last row of the chunk.
    pub end: usize,
    /// True when `start` is not the source range's own start — this chunk
    /// continues a range opened by an earlier chunk.
    pub continuation: bool,
}

impl RangeChunk {
    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the chunk covers no rows (never produced by
    /// [`partition_ranges_aligned`]).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Split `ranges` (half-open `[start, end)` row intervals) into at most
/// `max_tasks` task groups of roughly equal total point count.
///
/// Empty ranges are dropped. Ranges larger than a task's share are cut at
/// `align`-aligned row indices; every cut after the first within a range is
/// flagged [`RangeChunk::continuation`]. The output is deterministic and
/// covers every input row exactly once, in input order.
///
/// Resident scans pass [`BLOCK_LEN`]; tiered scans pass their segment
/// length (a multiple of it) so a cut never splits a storage segment: every
/// segment is then faulted and pinned by exactly one task, parallel fault
/// counts sum to the serial scan's, and two workers never race to load the
/// same cold segment for one query. Alignments must be a positive multiple
/// of [`BLOCK_LEN`] so block-counter parity (see module docs) is preserved.
///
/// # Panics
/// When `align` is zero or not a multiple of [`BLOCK_LEN`].
pub fn partition_ranges_aligned(
    ranges: &[(usize, usize)],
    max_tasks: usize,
    align: usize,
) -> Vec<Vec<RangeChunk>> {
    assert!(
        align > 0 && align % BLOCK_LEN == 0,
        "cut alignment {align} must be a positive multiple of BLOCK_LEN"
    );
    let max_tasks = max_tasks.max(1);
    let total: usize = ranges
        .iter()
        .map(|&(s, e)| e.saturating_sub(s))
        .sum::<usize>();
    if total == 0 {
        return Vec::new();
    }
    // Each closed task holds ≥ target points, so at most `max_tasks` tasks
    // are ever produced.
    let target = total.div_ceil(max_tasks);
    let mut tasks: Vec<Vec<RangeChunk>> = Vec::new();
    let mut cur: Vec<RangeChunk> = Vec::new();
    let mut cur_points = 0usize;
    for (source, &(start, end)) in ranges.iter().enumerate() {
        if start >= end {
            continue;
        }
        let mut s = start;
        while s < end {
            let cap = (target - cur_points).max(1);
            let cut = if end - s <= cap {
                end
            } else {
                // Prefer the last aligned boundary within capacity; when the
                // capacity is smaller than the distance to the next
                // boundary, overshoot to it rather than splitting a block
                // (or, for tiered scans, a storage segment).
                let down = (s + cap) / align * align;
                if down > s {
                    down
                } else {
                    ((s + cap).div_ceil(align) * align).min(end)
                }
            };
            cur.push(RangeChunk {
                source,
                start: s,
                end: cut,
                continuation: s != start,
            });
            cur_points += cut - s;
            s = cut;
            if cur_points >= target {
                tasks.push(std::mem::take(&mut cur));
                cur_points = 0;
            }
        }
    }
    if !cur.is_empty() {
        tasks.push(cur);
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition_ranges(ranges: &[(usize, usize)], max_tasks: usize) -> Vec<Vec<RangeChunk>> {
        partition_ranges_aligned(ranges, max_tasks, BLOCK_LEN)
    }

    /// Flatten tasks back into covered rows per source range.
    fn coverage(tasks: &[Vec<RangeChunk>], n_sources: usize) -> Vec<Vec<(usize, usize)>> {
        let mut per_source = vec![Vec::new(); n_sources];
        for t in tasks {
            for c in t {
                per_source[c.source].push((c.start, c.end));
            }
        }
        for v in &mut per_source {
            v.sort_unstable();
        }
        per_source
    }

    #[test]
    fn single_range_single_task() {
        let tasks = partition_ranges(&[(0, 1000)], 1);
        assert_eq!(tasks.len(), 1);
        assert_eq!(
            tasks[0],
            vec![RangeChunk {
                source: 0,
                start: 0,
                end: 1000,
                continuation: false
            }]
        );
    }

    #[test]
    fn large_range_splits_block_aligned() {
        let tasks = partition_ranges(&[(0, 10_000)], 4);
        assert_eq!(tasks.len(), 4);
        let mut covered = 0;
        for (i, t) in tasks.iter().enumerate() {
            for c in t {
                covered += c.len();
                if c.continuation {
                    assert_eq!(c.start % BLOCK_LEN, 0, "task {i}: cut not block-aligned");
                }
            }
        }
        assert_eq!(covered, 10_000);
        // Balanced within one block of each other (except the tail task).
        let sizes: Vec<usize> = tasks
            .iter()
            .map(|t| t.iter().map(RangeChunk::len).sum())
            .collect();
        for &s in &sizes[..sizes.len() - 1] {
            assert!(
                (2_500..=2_500 + BLOCK_LEN).contains(&s),
                "unbalanced: {sizes:?}"
            );
        }
    }

    #[test]
    fn never_exceeds_max_tasks() {
        for max in 1..=9 {
            for ranges in [
                vec![(0usize, 17usize); 40],
                vec![(0, 100_000)],
                vec![(5, 6), (10, 1_000), (2_000, 2_001), (3_000, 50_000)],
            ] {
                let tasks = partition_ranges(&ranges, max);
                assert!(tasks.len() <= max, "{max}: {} tasks", tasks.len());
            }
        }
    }

    #[test]
    fn covers_every_row_exactly_once() {
        let ranges = vec![
            (0, 300),
            (300, 301),
            (500, 500),
            (1_000, 7_777),
            (9_000, 9_129),
        ];
        let tasks = partition_ranges(&ranges, 5);
        let cov = coverage(&tasks, ranges.len());
        for (i, &(s, e)) in ranges.iter().enumerate() {
            if s >= e {
                assert!(cov[i].is_empty(), "empty range {i} must produce no chunks");
                continue;
            }
            // Chunks of range i tile [s, e) without gaps or overlap.
            let mut at = s;
            for &(cs, ce) in &cov[i] {
                assert_eq!(cs, at, "gap/overlap in range {i}");
                at = ce;
            }
            assert_eq!(at, e, "range {i} not fully covered");
        }
    }

    #[test]
    fn continuation_flags_count_original_ranges() {
        let ranges = vec![(0, 4_096), (10_000, 14_096)];
        let tasks = partition_ranges(&ranges, 8);
        let chunks: usize = tasks.iter().map(Vec::len).sum();
        let continuations: usize = tasks.iter().flatten().filter(|c| c.continuation).count();
        assert_eq!(chunks - continuations, ranges.len());
    }

    #[test]
    fn segment_aligned_cuts_respect_coarser_boundaries() {
        let seg = 8 * BLOCK_LEN;
        let tasks = partition_ranges_aligned(&[(0, 10 * seg + 37)], 6, seg);
        assert!(tasks.len() <= 6);
        let mut covered = 0;
        for t in &tasks {
            for c in t {
                covered += c.len();
                if c.continuation {
                    assert_eq!(c.start % seg, 0, "cut not segment-aligned");
                }
            }
        }
        assert_eq!(covered, 10 * seg + 37);
    }

    #[test]
    #[should_panic(expected = "multiple of BLOCK_LEN")]
    fn unaligned_alignment_panics() {
        let _ = partition_ranges_aligned(&[(0, 100)], 2, BLOCK_LEN + 1);
    }

    #[test]
    fn empty_input_yields_no_tasks() {
        assert!(partition_ranges(&[], 4).is_empty());
        assert!(partition_ranges(&[(7, 7), (9, 9)], 4).is_empty());
    }

    #[test]
    fn tiny_ranges_group_without_splitting() {
        let ranges: Vec<(usize, usize)> = (0..20).map(|i| (i * 10, i * 10 + 3)).collect();
        let tasks = partition_ranges(&ranges, 4);
        assert!(tasks.len() <= 4);
        for c in tasks.iter().flatten() {
            assert!(!c.continuation, "3-row ranges must never split");
            assert_eq!(c.len(), 3);
        }
    }
}
