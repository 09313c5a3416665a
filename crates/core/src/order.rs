//! Flood's storage order (§3.1): rows grouped by cell, within a cell by
//! sort value, ties in row order — computed on a [`ThreadPool`] as a
//! permutation plus the cell table.
//!
//! Three pool runs, each task owning a disjoint piece of the run's output,
//! so the order is the same at any worker count:
//! 1. **assign** — cell ids over block-aligned row chunks, a column at a
//!    time. `bucket` is monotone in the value, so a dimension's ≤ c − 1
//!    column boundaries (found with the model itself) place a value by
//!    comparisons alone; a compressed column is decoded a block at a time,
//!    only over the chunk. Each chunk keeps its own cell histogram; their
//!    sum is the cell table.
//! 2. **scatter** — a counting sort by cell id: each task owns an
//!    equal-row run of cells, scans every row's cell id and fills its own
//!    cells in row order, so the scatter is stable.
//! 3. **cell sort** — each cell's `(sort value, row)` run sorted by value,
//!    one task per run of whole cells. The scatter left the rows of a cell
//!    ascending, so a stable sort by value is the sort of those unique
//!    pairs: a small cell takes std's unstable sort, a larger one a stable
//!    LSD radix sort over `value − min`.
//!
//! Stages 1 and 2 run at most `MAX_ROW_PASS_TASKS` tasks: each assign
//! chunk keeps a histogram of every cell (a `u32` per cell) and each
//! scatter task reads every row's cell id, so their memory and reads grow
//! with the task count.
//!
//! The order is the one sorting unique (cell, value, row) triples gives:
//! the scatter groups by the first component, the cell sort orders by the
//! other two. The gather into that order is [`Table::permuted_on`].

use crate::flatten::Flattener;
use flood_store::{Table, ThreadPool, BLOCK_LEN};
use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

/// A cell is radix-sorted only when it holds more than this many rows per
/// pass its key range needs; a shorter one takes std's unstable sort. A
/// pass costs a 2048-entry prefix sum plus one scattered write per row.
/// Measured on cells of random keys, rows ascending: the two break even
/// at ≈ 130 rows for one pass (an 11-bit range), ≈ 330 for three (30-bit)
/// and ≈ 770 for six (63-bit); at twice those rows radix is 1.5–5× faster.
const RADIX_ROWS_PER_PASS: usize = 128;

/// Most tasks the assign and the scatter are cut into, whatever the
/// worker count: up to this many cell histograms are live at once (4 MB
/// each at the optimizer's 2^20-cell cap), and every scatter task reads
/// all `n` cell ids.
const MAX_ROW_PASS_TASKS: usize = 4;

/// Bits of the key each radix pass sorts on.
const DIGIT_BITS: u32 = 11;
/// Buckets per radix pass.
const RADIX: usize = 1 << DIGIT_BITS;
/// Passes a full 64-bit key range needs.
const MAX_PASSES: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;

/// What [`storage_order`] returns.
pub(crate) struct StorageOrder {
    /// `cell_starts[c]..cell_starts[c + 1]` is cell `c`'s range of rows.
    pub cell_starts: Vec<u32>,
    /// Row `i` of the storage order is the table's row `perm[i]`.
    pub perm: Vec<u32>,
    /// The sort dimension's column in storage order.
    pub sorted_keys: Vec<u64>,
    /// A buffer as long as the table, its pages already touched, for the
    /// gather to reuse.
    pub spare: Vec<u64>,
    /// Wall-clock of stage 1 (cell ids, histograms, the cell table).
    pub assign_ns: u64,
}

/// The storage order of `table` over a grid of `num_cells` cells: `split`
/// lists each grid dimension cut into more than one column as
/// `(dimension, columns, stride)`, cut with `flattener`'s CDFs; rows are
/// sorted within a cell on `sort_dim`.
pub(crate) fn storage_order(
    table: &Table,
    flattener: &Flattener,
    split: &[(usize, usize, usize)],
    num_cells: usize,
    sort_dim: usize,
    pool: ThreadPool,
) -> StorageOrder {
    let t0 = Instant::now();
    let n = table.len();
    let workers = pool.threads();
    let row_tasks = workers.min(MAX_ROW_PASS_TASKS);
    let bounds: Vec<(usize, Vec<u64>, usize, usize)> = (split.iter())
        .map(|&(d, c, stride)| {
            let thr = flattener.dim(d).expect("split, so fitted").boundaries(c);
            (d, thr, c, stride)
        })
        .collect();

    // 1. Cell ids and one histogram per block-aligned chunk; a compressed
    //    sort column is decoded here too, chunk by chunk, for the scatter.
    let chunk = n
        .div_ceil(row_tasks)
        .next_multiple_of(BLOCK_LEN)
        .max(BLOCK_LEN);
    let key_col = table.column(sort_dim);
    let mut cells = vec![0u32; n];
    let mut hists = vec![0u32; n.div_ceil(chunk) * num_cells];
    let mut decoded: Vec<u64> = Vec::new();
    if key_col.as_compressed().is_some() {
        decoded.resize(n, 0);
    }
    let mut decoded_chunks = decoded.chunks_mut(chunk);
    let tasks: Vec<_> = (cells.chunks_mut(chunk).zip(hists.chunks_mut(num_cells)))
        .enumerate()
        .map(|(i, (cells, hist))| (i * chunk, cells, hist, decoded_chunks.next()))
        .collect();
    pool.map(tasks, |(start, cells, hist, keys)| {
        let rows = start..start + cells.len();
        for (d, thr, c, stride) in &bounds {
            let mut at = 0;
            table.column(*d).for_each_slice(rows.clone(), |vals| {
                for (cell, &v) in cells[at..at + vals.len()].iter_mut().zip(vals) {
                    let col = thr.partition_point(|&t| t <= v);
                    debug_assert_eq!(col, flattener.bucket(*d, v, *c), "dimension {d}, value {v}");
                    *cell += (col * stride) as u32;
                }
                at += vals.len();
            });
        }
        if let Some(keys) = keys {
            let mut at = 0;
            key_col.for_each_slice(rows, |vals| {
                keys[at..at + vals.len()].copy_from_slice(vals);
                at += vals.len();
            });
        }
        for &cell in cells.iter() {
            hist[cell as usize] += 1;
        }
    });
    let mut cell_starts = vec![0u32; num_cells + 1];
    for hist in hists.chunks(num_cells) {
        for (count, &h) in cell_starts[1..].iter_mut().zip(hist) {
            *count += h;
        }
    }
    drop(hists);
    for c in 0..num_cells {
        cell_starts[c + 1] += cell_starts[c];
    }
    let keys: Cow<[u64]> = match key_col.as_compressed() {
        Some(_) => Cow::Owned(decoded),
        None => key_col.values(),
    };
    let assign_ns = t0.elapsed().as_nanos() as u64;

    // 2. The stable scatter, one equal-row run of cells per task.
    let (mut sorted_keys, mut perm) = (vec![0u64; n], vec![0u32; n]);
    {
        let runs = cell_runs(&cell_starts, row_tasks);
        let mut next = cell_starts[..num_cells].to_vec();
        let out = Pairs::new(&mut sorted_keys, &mut perm);
        let outs = out.split(runs.iter().map(|r| rows_of(&cell_starts, r).len()));
        let nexts = split_lens(&mut next, runs.iter().map(Range::len));
        let tasks: Vec<_> = runs.into_iter().zip(outs).zip(nexts).collect();
        let (cells, keys) = (&cells, &keys);
        pool.map(tasks, |((run, out), next)| {
            let base = cell_starts[run.start];
            for (row, &cell) in cells.iter().enumerate() {
                let Some(slot) = next.get_mut((cell as usize).wrapping_sub(run.start)) else {
                    continue;
                };
                let at = (*slot - base) as usize;
                (out.keys[at], out.rows[at]) = (keys[row], row as u32);
                *slot += 1;
            }
        });
    }
    drop(keys);

    // 3. The cell sort: runs of whole cells of about n / (4 · workers)
    //    rows, a task each; a longer cell is never split. The scratch is the cell ids' buffer and one the gather reuses.
    let runs = cell_runs(&cell_starts, 4 * workers);
    let mut spare = vec![0u64; n];
    let mut spare_rows = cells;
    let lens = || runs.iter().map(|r| rows_of(&cell_starts, r).len());
    let tasks: Vec<_> = (runs.iter())
        .zip(Pairs::new(&mut sorted_keys, &mut perm).split(lens()))
        .zip(Pairs::new(&mut spare, &mut spare_rows).split(lens()))
        .collect();
    pool.map(tasks, |((cells, mut run), mut scratch)| {
        let mut sorter = CellSorter::default();
        let base = cell_starts[cells.start] as usize;
        for c in cells.clone() {
            let rows = rows_of(&cell_starts, &(c..c + 1));
            let rows = rows.start - base..rows.end - base;
            sorter.sort(run.range(rows.clone()), scratch.range(rows));
        }
    });
    StorageOrder {
        cell_starts,
        perm,
        sorted_keys,
        spare,
        assign_ns,
    }
}

/// Cut cells `0..num_cells` into at most `parts` consecutive runs of about
/// equal row count (a cell is never split; empty runs are dropped).
pub(crate) fn cell_runs(cell_starts: &[u32], parts: usize) -> Vec<Range<usize>> {
    let num_cells = cell_starts.len() - 1;
    let n = cell_starts[num_cells] as usize;
    let mut cuts: Vec<usize> = (0..=parts)
        .map(|t| cell_starts.partition_point(|&s| (s as usize) < t * n / parts))
        .collect();
    cuts[parts] = num_cells;
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The rows of cells `cells`.
fn rows_of(cell_starts: &[u32], cells: &Range<usize>) -> Range<usize> {
    cell_starts[cells.start] as usize..cell_starts[cells.end] as usize
}

/// `s` cut into consecutive pieces of the given lengths.
fn split_lens<T>(mut s: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut s).split_at_mut(len);
        s = tail;
        head
    })
    .collect()
}

/// A stretch of the storage order while it is built: each row's sort
/// value, and its row id.
struct Pairs<'a> {
    keys: &'a mut [u64],
    rows: &'a mut [u32],
}

impl<'a> Pairs<'a> {
    fn new(keys: &'a mut [u64], rows: &'a mut [u32]) -> Self {
        debug_assert_eq!(keys.len(), rows.len());
        Pairs { keys, rows }
    }

    /// Cut into consecutive pieces of the given lengths.
    fn split(self, lens: impl Iterator<Item = usize> + Clone) -> Vec<Pairs<'a>> {
        let keys = split_lens(self.keys, lens.clone());
        let rows = split_lens(self.rows, lens);
        let pairs = keys.into_iter().zip(rows);
        pairs.map(|(keys, rows)| Pairs { keys, rows }).collect()
    }

    fn range(&mut self, r: Range<usize>) -> Pairs<'_> {
        Pairs::new(&mut self.keys[r.clone()], &mut self.rows[r])
    }

    /// Row `i` of `src` into row `at`.
    #[inline]
    fn put(&mut self, at: usize, src: &Pairs, i: usize) {
        (self.keys[at], self.rows[at]) = (src.keys[i], src.rows[i]);
    }
}

/// One cell-sort task's buffers, reused across its cells.
#[derive(Default)]
struct CellSorter {
    /// Radix counts, one row per pass.
    counts: Vec<[u32; RADIX]>,
    /// A short cell as `(value, row)` pairs for std's sort.
    pairs: Vec<(u64, u32)>,
}

impl CellSorter {
    /// Sort one cell, rows ascending on entry, by value with ties in row
    /// order; `scratch` is as long as `cell`.
    fn sort(&mut self, cell: Pairs, scratch: Pairs) {
        let len = cell.keys.len();
        let (mut min, mut max, mut sorted, mut prev) = (u64::MAX, 0, true, 0);
        for &key in cell.keys.iter() {
            sorted &= prev <= key;
            prev = key;
            min = min.min(key);
            max = max.max(key);
        }
        if sorted {
            return;
        }
        let passes = (u64::BITS - (max - min).leading_zeros()).div_ceil(DIGIT_BITS) as usize;
        if len <= RADIX_ROWS_PER_PASS * passes {
            self.pairs.clear();
            (self.pairs).extend(cell.keys.iter().copied().zip(cell.rows.iter().copied()));
            self.pairs.sort_unstable();
            for (i, &(key, row)) in self.pairs.iter().enumerate() {
                (cell.keys[i], cell.rows[i]) = (key, row);
            }
            return;
        }
        self.counts.resize(MAX_PASSES, [0; RADIX]);
        let counts = &mut self.counts[..passes];
        counts.iter_mut().for_each(|c| c.fill(0));
        for &key in cell.keys.iter() {
            let mut digits = key - min;
            for count in counts.iter_mut() {
                count[digits as usize % RADIX] += 1;
                digits >>= DIGIT_BITS;
            }
        }
        let digit = |key: u64, shift: u32| ((key - min) >> shift) as usize % RADIX;
        let (mut src, mut dst) = (cell, scratch);
        let mut in_scratch = false;
        for (pass, count) in counts.iter_mut().enumerate() {
            let shift = pass as u32 * DIGIT_BITS;
            // Every row has the same digit: the pass would move nothing.
            if count[digit(src.keys[0], shift)] as usize == len {
                continue;
            }
            let mut sum = 0;
            for c in count.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            for i in 0..len {
                let slot = &mut count[digit(src.keys[i], shift)];
                dst.put(*slot as usize, &src, i);
                *slot += 1;
            }
            std::mem::swap(&mut src, &mut dst);
            in_scratch = !in_scratch;
        }
        if in_scratch {
            dst.keys.copy_from_slice(src.keys);
            dst.rows.copy_from_slice(src.rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_testkit::Lcg;

    /// `(value, row)` pairs, rows ascending, drawn from `domain` (all of
    /// `u64`, both ends present, when it is `u64::MAX`).
    fn cell(len: usize, domain: u64, rng: &mut Lcg) -> (Vec<u64>, Vec<u32>) {
        let mut keys: Vec<u64> = (0..len)
            .map(|_| match domain {
                u64::MAX => (rng.next_u64() << 11) ^ rng.next_u64(),
                _ => 5 + rng.next_u64() % domain,
            })
            .collect();
        if len > 1 && domain == u64::MAX {
            (keys[0], keys[len - 1]) = (u64::MAX, 0);
        }
        (keys, (0..len as u32).collect())
    }

    fn sorted_pairs(keys: &[u64], rows: &[u32]) -> Vec<(u64, u32)> {
        let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(rows.iter().copied()).collect();
        want.sort_unstable();
        want
    }

    /// The cell sort equals std's sort on cells of every size around the
    /// radix cut-offs, keys spanning one value, a few, and all of `u64`.
    #[test]
    fn cell_sort_equals_comparison_sort() {
        let mut rng = Lcg::new(7, 11);
        let mut sorter = CellSorter::default();
        let cut = RADIX_ROWS_PER_PASS;
        for len in [
            0,
            1,
            2,
            cut,
            cut + 1,
            2 * cut + 1,
            6 * cut + 1,
            3_000,
            20_000,
        ] {
            for domain in [1, 3, 1 << 11, 1 << 12, 1 << 40, u64::MAX] {
                let (mut keys, mut rows) = cell(len, domain, &mut rng);
                let want = sorted_pairs(&keys, &rows);
                let (mut skeys, mut srows) = (vec![0; len], vec![0; len]);
                let scratch = Pairs::new(&mut skeys, &mut srows);
                sorter.sort(Pairs::new(&mut keys, &mut rows), scratch);
                let got: Vec<(u64, u32)> = keys.into_iter().zip(rows).collect();
                assert_eq!(got, want, "{len} rows over {domain}");
            }
        }
    }

    #[test]
    fn cell_runs_cover_every_cell_once() {
        let starts = [0u32, 0, 10, 10, 11, 40, 41, 41, 100];
        for parts in 1..6 {
            let runs = cell_runs(&starts, parts);
            assert!(runs.len() <= parts);
            assert_eq!(runs.first().map(|r| r.start), Some(0));
            assert_eq!(runs.last().map(|r| r.end), Some(starts.len() - 1));
            assert!(runs.windows(2).all(|w| w[0].end == w[1].start));
        }
        let whole = |runs: Vec<Range<usize>>| (runs.len() == 1).then(|| runs[0].clone());
        assert_eq!(whole(cell_runs(&starts, 1)), Some(0..8));
        assert_eq!(
            whole(cell_runs(&[0, 0, 0], 3)),
            Some(0..2),
            "no rows: one run"
        );
    }
}
