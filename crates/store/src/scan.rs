//! The scan kernel shared by every index, written once over a
//! [`BlockSource`] (§3.2(3) and the §7.1 optimizations).
//!
//! * [`scan_checked`] — check rows of a physical range against a list of
//!   `(dim, lo, hi)` constraints, block-at-a-time: each block is classified
//!   from its per-column min/max ([`BlockMeta::classify`]); a block some
//!   check rules out is *skipped*, one every check covers is *accepted*
//!   wholesale, and only the rest have their packed words compared in the
//!   delta domain ([`Block::match_mask`]: one branch-free pass over the
//!   piece's deltas at any width, SWAR for whole blocks of a width dividing
//!   64). A probed piece's surviving mask reaches a visitor that
//!   [`supports_exact`](Visitor::supports_exact) as one `(count, sum)`
//!   group — as an accepted block does — and any other visitor row by row,
//!   in row order. [`scan_filtered`] is the same call with the checks
//!   taken from a [`RangeQuery`].
//! * [`scan_rows`] — the row-at-a-time loop: the only path for columns
//!   without block metadata (plain columns) or an empty check list, which
//!   `scan_checked` falls back to on its own, and the reference the
//!   differential suites compare the block path against.
//! * [`scan_exact`] — the caller guarantees every row in the range matches;
//!   skip checks entirely and, when possible, answer from a cumulative column.
//! * [`rank_rows`] — not a scan but the same pass put to counting: how many
//!   values of a short sorted run lie below a bound, which is where the
//!   bound falls in it (Flood's refinement of cells up to a block long).
//!
//! What differs between a resident [`Table`] and a tiered one is behind
//! [`BlockSource`]: where block metadata comes from, and what *pinning* the
//! blocks a scan reads means — nothing for a `Table`, faulting cold
//! segments through the cache for a
//! [`TieredTable`](crate::tier::TieredTable). Every kernel pins before it
//! emits, so a failed scan has shown the visitor nothing and left `stats`
//! untouched, and the caller may retry it wholesale.
//!
//! Results and [`ScanStats`] are bit-identical across the block and row
//! paths and across sources (`points_scanned` counts rows *resolved*,
//! whether per row or from block metadata); only the `blocks_*` counters
//! (block path) and `segments_*` counters (tiered sources) are extra.

use crate::block::{Block, BlockMask, BlockMatch, BlockMeta, BLOCK_LEN};
use crate::column::Column;
use crate::cumulative::CumulativeColumn;
use crate::query::RangeQuery;
use crate::stats::ScanStats;
use crate::table::Table;
use crate::visitor::Visitor;
use std::convert::Infallible;
use std::ops::Range;

/// One per-row constraint `(dim, lo, hi)`: `lo <= row[dim] <= hi`.
pub type Check = (usize, u64, u64);

/// Block `b` of one column, resolved once per block by the kernels.
#[derive(Debug, Clone, Copy)]
pub enum BlockRef<'a> {
    /// A bit-packed block.
    Packed(&'a Block),
    /// The block's rows in a plain column.
    Plain(&'a [u64]),
}

impl<'a> BlockRef<'a> {
    /// Value at offset `i` within the block.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            BlockRef::Packed(b) => b.get(i),
            BlockRef::Plain(v) => v[i],
        }
    }

    /// How many values at offsets `[start, end)` are `< a`, and how many
    /// are `<= b` ([`Block::rank`]; a plain block counts over its slice).
    #[inline]
    pub fn rank(&self, a: u64, b: u64, start: usize, end: usize) -> (usize, usize) {
        match self {
            BlockRef::Packed(blk) => blk.rank(a, b, start, end),
            BlockRef::Plain(v) => v[start..end].iter().fold((0, 0), |(lt, le), &x| {
                (lt + usize::from(x < a), le + usize::from(x <= b))
            }),
        }
    }

    /// The packed block — what every column with [`BlockMeta`] resolves to.
    #[inline]
    fn packed(self) -> &'a Block {
        match self {
            BlockRef::Packed(b) => b,
            BlockRef::Plain(_) => unreachable!("a column with block metadata is packed"),
        }
    }
}

/// Where a scan's blocks come from: the two things a resident and a tiered
/// table differ in — block metadata and what reading a block costs.
pub trait BlockSource {
    /// Why pinning can fail ([`Infallible`] for resident data).
    type Error;
    /// The blocks one scan pinned, readable without further failure.
    type Pinned<'a>: PinnedBlocks
    where
        Self: 'a;

    /// Row alignment partitioned scans cut at (a multiple of [`BLOCK_LEN`]),
    /// so no unit of pinning is shared between two tasks.
    fn alignment(&self) -> usize;

    /// Min/max/len of block `b` of column `dim`, available without pinning;
    /// `None` for a column that keeps none (checked row-at-a-time instead).
    fn block_meta(&self, dim: usize, b: usize) -> Option<BlockMeta>;

    /// The wrapping sum of `dim` over `rows` (all inside block `b`) when
    /// the source can give it without reading the block.
    fn block_sum(&self, _dim: usize, _b: usize, _rows: Range<usize>) -> Option<u64> {
        None
    }

    /// Pin what a scan of `rows` referencing columns `dims` will read.
    /// `needs` reports every `(dim, block)` the scan reads, in any order
    /// and with repeats; a source whose reads cannot fail never runs it.
    fn pin<'a>(
        &'a self,
        rows: Range<usize>,
        dims: impl Iterator<Item = usize>,
        needs: impl FnOnce(&mut dyn FnMut(usize, usize)),
    ) -> Result<Self::Pinned<'a>, Self::Error>;
}

/// The read side of [`BlockSource::pin`].
pub trait PinnedBlocks {
    /// Block `b` of column `dim` (must have been reported as needed).
    fn block(&self, dim: usize, b: usize) -> BlockRef<'_>;

    /// Value of `row` in column `dim`.
    #[inline]
    fn value(&self, dim: usize, row: usize) -> u64 {
        self.block(dim, row / BLOCK_LEN).get(row % BLOCK_LEN)
    }

    /// Add what pinning cost (the `segments_*` counters) to `stats`.
    fn record(&self, _stats: &mut ScanStats) {}
}

impl BlockSource for Table {
    type Error = Infallible;
    type Pinned<'a> = &'a Table;

    fn alignment(&self) -> usize {
        BLOCK_LEN
    }

    #[inline]
    fn block_meta(&self, dim: usize, b: usize) -> Option<BlockMeta> {
        self.column(dim)
            .as_compressed()
            .map(|c| c.blocks()[b].meta())
    }

    #[inline]
    fn pin(
        &self,
        _rows: Range<usize>,
        _dims: impl Iterator<Item = usize>,
        _needs: impl FnOnce(&mut dyn FnMut(usize, usize)),
    ) -> Result<&Table, Infallible> {
        Ok(self)
    }
}

impl PinnedBlocks for &Table {
    #[inline]
    fn block(&self, dim: usize, b: usize) -> BlockRef<'_> {
        match self.column(dim) {
            Column::Compressed(c) => BlockRef::Packed(&c.blocks()[b]),
            Column::Plain(v) => {
                BlockRef::Plain(&v[b * BLOCK_LEN..v.len().min((b + 1) * BLOCK_LEN)])
            }
        }
    }

    #[inline]
    fn value(&self, dim: usize, row: usize) -> u64 {
        Table::value(self, row, dim)
    }
}

/// Rows `[start, end)` cut at block boundaries: `(block, first row, one
/// past the last row)` per piece. `start < end`.
fn block_pieces(start: usize, end: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (start / BLOCK_LEN..=(end - 1) / BLOCK_LEN).map(move |b| {
        (
            b,
            (b * BLOCK_LEN).max(start),
            ((b + 1) * BLOCK_LEN).min(end),
        )
    })
}

/// The aggregation column a scan actually reads: none when the visitor
/// ignores values, so it gets zeros and costs no aggregation-column access.
fn read_agg(agg_dim: Option<usize>, visitor: &dyn Visitor) -> Option<usize> {
    agg_dim.filter(|_| visitor.needs_value())
}

/// Whether `row` satisfies every check.
#[inline]
fn passes(pinned: &impl PinnedBlocks, checks: &[Check], row: usize) -> bool {
    checks.iter().all(|&(d, lo, hi)| {
        let v = pinned.value(d, row);
        lo <= v && v <= hi
    })
}

/// Visit the rows of `[start, end)` that pass `checks`, one at a time.
fn visit_rows(
    pinned: &impl PinnedBlocks,
    checks: &[Check],
    agg: Option<usize>,
    start: usize,
    end: usize,
    visitor: &mut dyn Visitor,
) {
    for (b, bs, be) in block_pieces(start, end) {
        let values = agg.map(|d| pinned.block(d, b));
        for row in (bs..be).filter(|&row| passes(pinned, checks, row)) {
            visitor.visit(row, values.map_or(0, |blk| blk.get(row - b * BLOCK_LEN)));
        }
    }
}

/// Wrapping sum of column `dim` over rows `[start, end)`.
fn sum_rows(pinned: &impl PinnedBlocks, dim: usize, start: usize, end: usize) -> u64 {
    let mut sum = 0u64;
    for (b, bs, be) in block_pieces(start, end) {
        let blk = pinned.block(dim, b);
        for row in bs..be {
            sum = sum.wrapping_add(blk.get(row - b * BLOCK_LEN));
        }
    }
    sum
}

/// Ranks of `a` and `b` among rows `[start, end)` of column `dim`: how many
/// values are `< a`, and how many are `<= b`, counted block piece by block
/// piece ([`BlockRef::rank`]). Where the rows are sorted on `dim` these are
/// `partition_point(< a)` and `partition_point(<= b)` over them — Flood's
/// refinement of a cell no longer than a block, which spans at most two
/// pieces.
pub fn rank_rows(
    table: &Table,
    dim: usize,
    a: u64,
    b: u64,
    start: usize,
    end: usize,
) -> (usize, usize) {
    let mut ranks = (0, 0);
    if start < end {
        for (blk, bs, be) in block_pieces(start, end) {
            let base = blk * BLOCK_LEN;
            let (lt, le) = table.block(dim, blk).rank(a, b, bs - base, be - base);
            ranks = (ranks.0 + lt, ranks.1 + le);
        }
    }
    ranks
}

/// Scan rows `[start, end)` checking the listed `(dim, lo, hi)`
/// constraints row by row; matching rows are fed to `visitor` with their
/// value in `agg_dim` (pass `None` for COUNT-style visitors). Touches only
/// the checked columns plus the aggregation column for matches — the
/// column-store access pattern of §7.2(1). Records no `blocks_*` counters.
pub fn scan_rows<S: BlockSource>(
    source: &S,
    checks: &[(usize, u64, u64)],
    start: usize,
    end: usize,
    agg_dim: Option<usize>,
    visitor: &mut dyn Visitor,
    stats: &mut ScanStats,
) -> Result<(), S::Error> {
    if start >= end {
        return Ok(());
    }
    let agg = read_agg(agg_dim, visitor);
    let dims = || checks.iter().map(|c| c.0).chain(agg);
    let pinned = source.pin(start..end, dims(), |need| {
        for (b, ..) in block_pieces(start, end) {
            dims().for_each(|d| need(d, b));
        }
    })?;
    stats.points_scanned += (end - start) as u64;
    pinned.record(stats);
    visit_rows(&pinned, checks, agg, start, end, visitor);
    Ok(())
}

/// Scan rows `[start, end)` that are all guaranteed to match (an *exact*
/// range): no per-row checks. With a cumulative column and a visitor that
/// supports the fast path, this is O(1).
pub fn scan_exact<S: BlockSource>(
    source: &S,
    start: usize,
    end: usize,
    agg_dim: Option<usize>,
    cumulative: Option<&CumulativeColumn>,
    visitor: &mut dyn Visitor,
    stats: &mut ScanStats,
) -> Result<(), S::Error> {
    if start >= end {
        return Ok(());
    }
    let n = (end - start) as u64;
    let agg = read_agg(agg_dim, visitor);
    let exact = visitor.supports_exact();
    // O(1) when prefix sums answer for the data: nothing is read at all.
    let reads = agg.filter(|_| !(exact && cumulative.is_some()));
    let pinned = source.pin(start..end, reads.into_iter(), |need| {
        for (b, ..) in block_pieces(start, end) {
            reads.into_iter().for_each(|d| need(d, b));
        }
    })?;
    stats.points_in_exact_ranges += n;
    pinned.record(stats);
    if !exact {
        stats.points_scanned += n;
        visit_rows(&pinned, &[], agg, start, end, visitor);
        return Ok(());
    }
    let sum = match (cumulative, agg) {
        (Some(c), _) => c.range_sum(start, end - 1),
        (None, Some(d)) => {
            stats.points_scanned += n;
            sum_rows(&pinned, d, start, end)
        }
        (None, None) => 0,
    };
    visitor.visit_exact_sum(end - start, sum);
    Ok(())
}

/// Call `f` with every offset set in `mask`, ascending.
#[inline]
fn for_each_set(mask: BlockMask, mut f: impl FnMut(usize)) {
    for (wi, mut bits) in mask.into_iter().enumerate() {
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Classify block `b` against every check on a column with block metadata.
/// Returns `false` when some check rules the whole block out; otherwise
/// `probes` holds the checks the metadata could not decide, translated to
/// the block's delta domain (empty: every such check covers the block).
#[inline]
fn classify_block(
    source: &impl BlockSource,
    checks: &[Check],
    b: usize,
    probes: &mut Vec<Check>,
) -> bool {
    probes.clear();
    for &(d, lo, hi) in checks {
        match source.block_meta(d, b).map(|m| m.classify(lo, hi)) {
            Some(BlockMatch::Skip) => return false,
            Some(BlockMatch::Probe { dlo, dhi }) => probes.push((d, dlo, dhi)),
            Some(BlockMatch::Accept) | None => {}
        }
    }
    true
}

/// Scan rows `[start, end)` checking only the listed `(dim, lo, hi)`
/// constraints — the kernel behind Flood's per-cell scans, where dimensions
/// proven exact by projection/refinement are dropped from the check list.
///
/// Blocks are classified from metadata, so a skipped block costs no data
/// access (on a tiered source: no I/O — a cold segment whose every block
/// skips is never read). Accepted blocks emit their rows wholesale: through
/// one [`Visitor::visit_exact_sum`] when the visitor takes it, answered
/// from `cumulative` or [`BlockSource::block_sum`] with zero data access
/// when either applies (sound under a filter, because acceptance proves
/// every in-range row matches). Checks on columns without block metadata
/// are applied per surviving row.
///
/// With no check on a column with block metadata — or no checks at all —
/// this *is* [`scan_rows`]; `cumulative` is then unused.
#[allow(clippy::too_many_arguments)]
pub fn scan_checked<S: BlockSource>(
    source: &S,
    checks: &[(usize, u64, u64)],
    start: usize,
    end: usize,
    agg_dim: Option<usize>,
    cumulative: Option<&CumulativeColumn>,
    visitor: &mut dyn Visitor,
    stats: &mut ScanStats,
) -> Result<(), S::Error> {
    if start >= end {
        return Ok(());
    }
    // A column keeps metadata for all of its blocks or for none; checks on
    // one that keeps none are resolved per surviving row.
    let has_meta = |c: &Check| source.block_meta(c.0, start / BLOCK_LEN).is_some();
    if !checks.iter().any(has_meta) {
        return scan_rows(source, checks, start, end, agg_dim, visitor, stats);
    }
    let residual: Vec<Check> = checks.iter().copied().filter(|c| !has_meta(c)).collect();
    let agg = read_agg(agg_dim, visitor);
    let exact = visitor.supports_exact();
    // The sum of an accepted piece without reading it, when there is one:
    // such a piece does not need the aggregation column pinned.
    let free_sum = |d: usize, b: usize, rows: Range<usize>| match cumulative {
        Some(c) => Some(c.range_sum(rows.start, rows.end - 1)),
        None => source.block_sum(d, b, rows),
    };
    let mut probes: Vec<Check> = Vec::new();

    let dims = checks.iter().map(|c| c.0).chain(agg);
    let pinned = source.pin(start..end, dims, |need| {
        for (b, bs, be) in block_pieces(start, end) {
            if !classify_block(source, checks, b, &mut probes) {
                continue;
            }
            probes.iter().chain(&residual).for_each(|c| need(c.0, b));
            let accepted = probes.is_empty() && residual.is_empty();
            if let Some(d) = agg {
                if !(accepted && exact && free_sum(d, b, bs..be).is_some()) {
                    need(d, b);
                }
            }
        }
    })?;

    stats.points_scanned += (end - start) as u64;
    pinned.record(stats);
    'blocks: for (b, bs, be) in block_pieces(start, end) {
        if !classify_block(source, checks, b, &mut probes) {
            stats.blocks_skipped += 1;
            continue;
        }
        if probes.is_empty() && residual.is_empty() {
            stats.blocks_accepted += 1;
            if !exact {
                visit_rows(&pinned, &[], agg, bs, be, visitor);
                continue;
            }
            let sum = agg.map_or(0, |d| {
                free_sum(d, b, bs..be).unwrap_or_else(|| sum_rows(&pinned, d, bs, be))
            });
            visitor.visit_exact_sum(be - bs, sum);
            continue;
        }
        stats.blocks_probed += 1;
        if probes.is_empty() {
            visit_rows(&pinned, &residual, agg, bs, be, visitor);
            continue;
        }
        let base = b * BLOCK_LEN;
        let mut mask = [u64::MAX; 2];
        for &(d, dlo, dhi) in &probes {
            let m = pinned
                .block(d, b)
                .packed()
                .match_mask(dlo, dhi, bs - base, be - base);
            mask = [mask[0] & m[0], mask[1] & m[1]];
            if mask == [0, 0] {
                continue 'blocks;
            }
        }
        let values = agg.map(|d| pinned.block(d, b));
        if exact && residual.is_empty() {
            // The mask is the answer: its rows as one anonymous group.
            let mut sum = 0u64;
            if let Some(blk) = values {
                for_each_set(mask, |i| sum = sum.wrapping_add(blk.get(i)));
            }
            let count = mask[0].count_ones() + mask[1].count_ones();
            visitor.visit_exact_sum(count as usize, sum);
            continue;
        }
        for_each_set(mask, |i| {
            if passes(&pinned, &residual, base + i) {
                visitor.visit(base + i, values.map_or(0, |blk| blk.get(i)));
            }
        });
    }
    Ok(())
}

/// [`scan_checked`] with the checks read off `query`'s filters.
#[allow(clippy::too_many_arguments)]
pub fn scan_filtered<S: BlockSource>(
    source: &S,
    query: &RangeQuery,
    start: usize,
    end: usize,
    agg_dim: Option<usize>,
    cumulative: Option<&CumulativeColumn>,
    visitor: &mut dyn Visitor,
    stats: &mut ScanStats,
) -> Result<(), S::Error> {
    scan_checked(
        source,
        &query.checks(),
        start,
        end,
        agg_dim,
        cumulative,
        visitor,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visitor::{CountVisitor, SumVisitor};

    fn table() -> Table {
        // dim0: 0..10, dim1: 10x dim0
        Table::from_columns(vec![(0..10).collect(), (0..10).map(|i| i * 10).collect()])
    }

    /// `scan_filtered` over `[start, end)` with no cumulative column.
    fn filtered(
        t: &Table,
        q: &RangeQuery,
        (start, end): (usize, usize),
        agg: Option<usize>,
        v: &mut dyn Visitor,
    ) -> ScanStats {
        let mut s = ScanStats::default();
        let Ok(()) = scan_filtered(t, q, start, end, agg, None, v, &mut s);
        s
    }

    #[test]
    fn filtered_scan_counts_matches() {
        let t = table();
        let q = RangeQuery::all(2).with_range(0, 3, 6);
        let mut v = CountVisitor::default();
        let s = filtered(&t, &q, (0, t.len()), None, &mut v);
        assert_eq!(v.count, 4); // rows 3,4,5,6
        assert_eq!(s.points_scanned, 10);
    }

    #[test]
    fn filtered_scan_subrange() {
        let t = table();
        let q = RangeQuery::all(2).with_range(0, 3, 6);
        let mut v = CountVisitor::default();
        let s = filtered(&t, &q, (5, 9), None, &mut v);
        assert_eq!(v.count, 2); // rows 5,6
        assert_eq!(s.points_scanned, 4);
    }

    #[test]
    fn filtered_scan_sums_agg_column() {
        let t = table();
        let q = RangeQuery::all(2).with_range(0, 2, 4);
        let mut v = SumVisitor::default();
        filtered(&t, &q, (0, t.len()), Some(1), &mut v);
        assert_eq!(v.sum, 20 + 30 + 40);
    }

    #[test]
    fn block_path_agrees_with_row_path_and_counts_blocks() {
        let mut t = Table::from_columns(vec![(0..1_000).collect(), (0..1_000).rev().collect()]);
        let checks = [(0, 100, 400), (1, 0, 800)];
        let mut want = SumVisitor::default();
        let mut want_s = ScanStats::default();
        let Ok(()) = scan_rows(&t, &checks, 50, 900, Some(1), &mut want, &mut want_s);
        assert_eq!(want_s.blocks_probed + want_s.blocks_skipped, 0);
        // Compress one checked column only: the other check stays per-row.
        for dims in [&[0][..], &[0, 1]] {
            t.compress_dims(dims);
            let mut got = SumVisitor::default();
            let mut got_s = ScanStats::default();
            let Ok(()) = scan_checked(&t, &checks, 50, 900, Some(1), None, &mut got, &mut got_s);
            assert_eq!((got.sum, got.count), (want.sum, want.count), "{dims:?}");
            assert_eq!(got_s.points_scanned, want_s.points_scanned);
            assert!(got_s.blocks_skipped > 0 && got_s.blocks_probed > 0);
        }
    }

    #[test]
    fn exact_scan_skips_checks() {
        let t = table();
        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        let Ok(()) = scan_exact(&t, 2, 5, Some(1), None, &mut v, &mut s);
        assert_eq!(v.sum, 20 + 30 + 40);
        assert_eq!(v.count, 3);
        assert_eq!(s.points_in_exact_ranges, 3);
    }

    #[test]
    fn exact_scan_with_cumulative_is_data_free() {
        let t = table();
        let c = t.cumulative_sum(1);
        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        let Ok(()) = scan_exact(&t, 0, 10, Some(1), Some(&c), &mut v, &mut s);
        assert_eq!(v.sum, (0..10u64).map(|i| i * 10).sum());
        // Prefix-sum path scans nothing.
        assert_eq!(s.points_scanned, 0);
        assert_eq!(s.points_in_exact_ranges, 10);
    }

    #[test]
    fn exact_scan_empty_range_is_noop() {
        let t = table();
        let mut v = CountVisitor::default();
        let mut s = ScanStats::default();
        let Ok(()) = scan_exact(&t, 5, 5, None, None, &mut v, &mut s);
        assert_eq!(v.count, 0);
    }

    #[test]
    fn full_scan_equals_manual_filter() {
        let t = table();
        let q = RangeQuery::all(2).with_range(1, 25, 65);
        let mut v = CountVisitor::default();
        filtered(&t, &q, (0, t.len()), None, &mut v);
        assert_eq!(v.count, 4); // 30,40,50,60
    }
}
