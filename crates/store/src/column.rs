//! Columns: either plain `Vec<u64>` or block-delta compressed.
//!
//! The paper's store compresses every column by ~77% with block-delta
//! encoding while keeping constant-time element access. We expose both a
//! compressed and a plain representation behind one enum so benchmarks can
//! toggle compression (the MonetDB comparison in §7.1 runs uncompressed).

use crate::block::{Block, BLOCK_LEN};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// A read-only column of `u64` values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// Uncompressed storage, one word per value.
    Plain(Vec<u64>),
    /// Block-delta compressed storage.
    Compressed(CompressedColumn),
}

impl Column {
    /// Build a plain (uncompressed) column.
    pub fn plain(values: Vec<u64>) -> Self {
        Column::Plain(values)
    }

    /// Build a block-delta compressed column.
    pub fn compressed(values: &[u64]) -> Self {
        Column::Compressed(CompressedColumn::compress(values))
    }

    /// Number of values in the column.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Column::Plain(v) => v.len(),
            Column::Compressed(c) => c.len(),
        }
    }

    /// True when the column holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant-time access to the value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            Column::Plain(v) => v[i],
            Column::Compressed(c) => c.get(i),
        }
    }

    /// Every value as one slice: a plain column is borrowed, a compressed
    /// one is decoded once. The way to read a whole column — [`Column::get`]
    /// pays a block lookup and an unpack per value.
    pub fn values(&self) -> Cow<'_, [u64]> {
        match self {
            Column::Plain(v) => Cow::Borrowed(v),
            Column::Compressed(c) => Cow::Owned(c.to_vec()),
        }
    }

    /// Materialize the column as a plain vector.
    pub fn to_vec(&self) -> Vec<u64> {
        self.values().into_owned()
    }

    /// Heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Column::Plain(v) => v.len() * 8,
            Column::Compressed(c) => c.size_bytes(),
        }
    }

    /// The compressed representation, when this column has one — the
    /// packed-domain scan path keys off this to skip/probe blocks.
    #[inline]
    pub fn as_compressed(&self) -> Option<&CompressedColumn> {
        match self {
            Column::Plain(_) => None,
            Column::Compressed(c) => Some(c),
        }
    }

    /// Visit rows `rows` in order as contiguous slices: one borrowed slice
    /// of a plain column, one decoded block at a time of a compressed one —
    /// so a range of a compressed column is read without decoding the rest.
    pub fn for_each_slice(&self, rows: Range<usize>, mut f: impl FnMut(&[u64])) {
        match self {
            Column::Plain(v) => f(&v[rows]),
            Column::Compressed(c) => {
                let mut buf = Vec::with_capacity(BLOCK_LEN);
                let mut at = rows.start;
                while at < rows.end {
                    let (b, off) = (at / BLOCK_LEN, at % BLOCK_LEN);
                    buf.clear();
                    c.blocks[b].decompress_into(&mut buf);
                    let take = (buf.len() - off).min(rows.end - at);
                    f(&buf[off..off + take]);
                    at += take;
                }
            }
        }
    }

    /// `out[i] = self[perm[i]]`, `out` cleared first. A compressed column is
    /// decoded into `decoded` on the way; the two buffers are reused as they
    /// come, so a caller gathering many columns allocates them once.
    pub(crate) fn gather_into(&self, perm: &[u32], decoded: &mut Vec<u64>, out: &mut Vec<u64>) {
        let values: &[u64] = match self {
            Column::Plain(v) => v,
            Column::Compressed(c) => {
                decoded.clear();
                c.blocks.iter().for_each(|b| b.decompress_into(decoded));
                decoded
            }
        };
        out.clear();
        out.extend(perm.iter().map(|&p| values[p as usize]));
    }
}

/// A column compressed with block-delta encoding (§7.1).
///
/// Values are grouped into blocks of [`BLOCK_LEN`] and each block stores
/// bit-packed deltas to its minimum. `get` is constant-time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompressedColumn {
    blocks: Vec<Block>,
    len: usize,
}

impl CompressedColumn {
    /// Compress `values` into blocks of [`BLOCK_LEN`].
    pub fn compress(values: &[u64]) -> Self {
        let blocks = values.chunks(BLOCK_LEN).map(Block::compress).collect();
        CompressedColumn {
            blocks,
            len: values.len(),
        }
    }

    /// Number of values stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Constant-time access to the value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        // BLOCK_LEN is a power of two: the division compiles to a shift.
        self.blocks[i / BLOCK_LEN].get(i % BLOCK_LEN)
    }

    /// The underlying blocks; block `b` holds rows
    /// `b * BLOCK_LEN .. (b + 1) * BLOCK_LEN` (last block possibly short).
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Decompress the whole column.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        for b in &self.blocks {
            b.decompress_into(&mut out);
        }
        out
    }

    /// Total heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.iter().map(Block::size_bytes).sum::<usize>()
    }

    /// Compression ratio achieved vs. plain 8-byte storage (0.77 = 77% saved).
    pub fn compression_ratio(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        1.0 - self.size_bytes() as f64 / (self.len as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| 1_000_000 + (i * 37) % 5_000)
            .collect()
    }

    #[test]
    fn compressed_roundtrip() {
        let vals = sample(1000);
        let c = CompressedColumn::compress(&vals);
        assert_eq!(c.len(), 1000);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), v);
        }
        assert_eq!(c.to_vec(), vals);
    }

    #[test]
    fn compressed_saves_space_on_local_data() {
        // Values near each other compress well.
        let vals = sample(100_000);
        let c = CompressedColumn::compress(&vals);
        assert!(
            c.compression_ratio() > 0.5,
            "expected >50% savings, got {:.2}",
            c.compression_ratio()
        );
    }

    #[test]
    fn empty_column() {
        let c = CompressedColumn::compress(&[]);
        assert!(c.is_empty());
        assert_eq!(c.to_vec(), Vec::<u64>::new());
    }

    #[test]
    fn column_enum_dispatch() {
        let vals = sample(300);
        let p = Column::plain(vals.clone());
        let c = Column::compressed(&vals);
        assert_eq!(p.len(), c.len());
        for i in 0..vals.len() {
            assert_eq!(p.get(i), c.get(i));
        }
        assert!(c.size_bytes() < p.size_bytes());
    }

    /// A one-column table re-ordered through `Table::permuted`, which
    /// gathers each column with `Column::gather_into`.
    fn permuted(col: Column, perm: &[u32]) -> Column {
        let mut t = Table::from_columns(vec![col.to_vec()]);
        if col.as_compressed().is_some() {
            t.compress();
        }
        t.permuted(perm).column(0).clone()
    }

    #[test]
    fn permute_reorders() {
        let out = permuted(Column::plain(vec![10, 20, 30, 40]), &[3, 1, 0, 2]);
        assert_eq!(out.to_vec(), vec![40, 20, 10, 30]);
    }

    #[test]
    fn slices_cover_any_row_range() {
        let vals = sample(3 * BLOCK_LEN + 17);
        for col in [Column::plain(vals.clone()), Column::compressed(&vals)] {
            for (a, b) in [
                (0, vals.len()),
                (5, 5),
                (3, BLOCK_LEN + 9),
                (BLOCK_LEN, 3 * BLOCK_LEN + 1),
            ] {
                let mut got = Vec::new();
                col.for_each_slice(a..b, |s| got.extend_from_slice(s));
                assert_eq!(got, vals[a..b], "rows {a}..{b}");
            }
        }
    }

    #[test]
    fn permute_preserves_representation() {
        let vals = sample(200);
        let out = permuted(
            Column::compressed(&vals),
            &(0..200u32).rev().collect::<Vec<_>>(),
        );
        assert!(matches!(out, Column::Compressed(_)));
        let rev: Vec<u64> = vals.iter().rev().copied().collect();
        assert_eq!(out.to_vec(), rev);
    }
}
