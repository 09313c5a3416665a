//! A table: a fixed set of equally long columns plus optional helpers
//! (cumulative aggregation columns, permutation application).

use crate::column::Column;
use crate::cumulative::CumulativeColumn;
use crate::pool::ThreadPool;
use serde::{Deserialize, Serialize};

/// An immutable, in-memory, columnar table of `u64` attributes.
///
/// Rows are addressed by physical index `0..len()`. Indexes that impose their
/// own storage order (Flood, Z-order, trees, …) call [`Table::permuted`] once
/// at build time and keep the reordered copy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    columns: Vec<Column>,
    names: Vec<String>,
    len: usize,
}

impl Table {
    /// Build a table from plain column vectors with default names `d0, d1, …`.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths.
    pub fn from_columns(cols: Vec<Vec<u64>>) -> Self {
        let names = (0..cols.len()).map(|i| format!("d{i}")).collect();
        Self::from_named_columns(cols, names)
    }

    /// Build a table from plain column vectors with explicit names.
    pub fn from_named_columns(cols: Vec<Vec<u64>>, names: Vec<String>) -> Self {
        assert_eq!(cols.len(), names.len(), "one name per column");
        let len = cols.first().map_or(0, Vec::len);
        for (i, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), len, "column {i} length mismatch");
        }
        Table {
            columns: cols.into_iter().map(Column::plain).collect(),
            names,
            len,
        }
    }

    /// Compress every column with block-delta encoding (in place).
    pub fn compress(&mut self) {
        for c in &mut self.columns {
            if let Column::Plain(v) = c {
                *c = Column::compressed(v);
            }
        }
    }

    /// Compress only the listed columns, leaving the rest plain — a mixed
    /// table lets hot filter columns scan packed while wide/incompressible
    /// ones stay flat.
    pub fn compress_dims(&mut self, dims: &[usize]) {
        for &d in dims {
            if let Column::Plain(v) = &self.columns[d] {
                self.columns[d] = Column::compressed(v);
            }
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns (dimensions).
    #[inline]
    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Column accessor.
    #[inline]
    pub fn column(&self, dim: usize) -> &Column {
        &self.columns[dim]
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Value of row `row` in dimension `dim` (constant time).
    #[inline]
    pub fn value(&self, row: usize, dim: usize) -> u64 {
        self.columns[dim].get(row)
    }

    /// Materialize row `row` as a point (one value per dimension).
    pub fn row(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Materialize row `row` into a reusable buffer (avoids allocation).
    pub fn row_into(&self, row: usize, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.get(row)));
    }

    /// A new table whose row `i` is this table's row `perm[i]`.
    pub fn permuted(&self, perm: &[u32]) -> Table {
        self.permuted_on(perm, false, ThreadPool::serial(), None, None)
    }

    /// [`Table::permuted`] with one task per column on `pool`, each column
    /// block-compressed inside its task when `compress` is set (a
    /// compressed column always is). `ordered` may hand over one column's
    /// values already in the new order, as `(dimension, values)`: they are
    /// taken, not gathered. The first column that stays plain is gathered
    /// into `spare` when given, the others into buffers reserved on the
    /// calling thread.
    pub fn permuted_on(
        &self,
        perm: &[u32],
        compress: bool,
        pool: ThreadPool,
        mut ordered: Option<(usize, Vec<u64>)>,
        mut spare: Option<Vec<u64>>,
    ) -> Table {
        assert_eq!(perm.len(), self.len, "permutation length mismatch");
        let packed = |c: &Column| compress || c.as_compressed().is_some();
        let tasks = (self.columns.iter().enumerate())
            .map(|(d, c)| match ordered.take_if(|(od, _)| *od == d) {
                Some((_, values)) => (c, Some(values), Vec::new()),
                None if packed(c) => (c, None, Vec::new()),
                None => (
                    c,
                    None,
                    spare.take().unwrap_or_else(|| Vec::with_capacity(self.len)),
                ),
            })
            .collect();
        let columns = pool.map(tasks, |(c, values, mut out)| {
            let values = values.unwrap_or_else(|| {
                c.gather_into(perm, &mut Vec::new(), &mut out);
                out
            });
            if packed(c) {
                Column::compressed(&values)
            } else {
                Column::Plain(values)
            }
        });
        Table {
            columns,
            names: self.names.clone(),
            len: self.len,
        }
    }

    /// Build a cumulative SUM column over dimension `dim` (§7.1 optimization
    /// 2): entry `i` holds `sum(column[0..=i])`.
    pub fn cumulative_sum(&self, dim: usize) -> CumulativeColumn {
        CumulativeColumn::build(&self.columns[dim])
    }

    /// Total heap size of all columns, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(Column::size_bytes).sum()
    }

    /// Per-dimension `(min, max)` over the data; `(0,0)` for empty tables.
    /// A compressed column answers from its blocks' headers, undecoded.
    pub fn dim_bounds(&self, dim: usize) -> (u64, u64) {
        fn span(ranges: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
            ranges
                .reduce(|(mn, mx), (lo, hi)| (mn.min(lo), mx.max(hi)))
                .unwrap_or((0, 0))
        }
        match &self.columns[dim] {
            Column::Plain(v) => span(v.iter().map(|&x| (x, x))),
            Column::Compressed(c) => span(c.blocks().iter().map(|b| (b.min(), b.max()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::from_columns(vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]])
    }

    #[test]
    fn construction_and_access() {
        let t = t();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dims(), 2);
        assert_eq!(t.value(2, 1), 30);
        assert_eq!(t.row(3), vec![4, 40]);
    }

    #[test]
    fn row_into_reuses_buffer() {
        let t = t();
        let mut buf = Vec::new();
        t.row_into(0, &mut buf);
        assert_eq!(buf, vec![1, 10]);
        t.row_into(2, &mut buf);
        assert_eq!(buf, vec![3, 30]);
    }

    #[test]
    fn permutation() {
        let t = t().permuted(&[2, 0, 3, 1]);
        assert_eq!(t.row(0), vec![3, 30]);
        assert_eq!(t.row(1), vec![1, 10]);
        assert_eq!(t.row(3), vec![2, 20]);
    }

    /// Any worker count, a column handed over in order, a spare buffer:
    /// the same table as `permuted` (and `compress`).
    #[test]
    fn pooled_permutation_equals_serial() {
        let vals = |k: u64| (0..1_000u64).map(|i| (i * k) % 977).collect::<Vec<_>>();
        let mut t = Table::from_columns(vec![vals(3), vals(7), vals(11)]);
        t.compress_dims(&[1]);
        let perm: Vec<u32> = (0..1_000u32).map(|i| (i * 389) % 1_000).collect();
        for compress in [false, true] {
            let mut serial = t.permuted(&perm);
            if compress {
                serial.compress();
            }
            for threads in [1, 2, 3] {
                for d in [None, Some(1), Some(2)] {
                    let ordered = d.map(|d| (d, serial.column(d).to_vec()));
                    let spare = Some(vec![5; 10]);
                    let pool = ThreadPool::new(threads);
                    let pooled = t.permuted_on(&perm, compress, pool, ordered, spare);
                    // The representation of each column is part of the Debug.
                    assert_eq!(
                        format!("{pooled:?}"),
                        format!("{serial:?}"),
                        "{threads} workers"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_columns_panic() {
        let _ = Table::from_columns(vec![vec![1], vec![1, 2]]);
    }

    #[test]
    fn compress_preserves_values() {
        let mut t = Table::from_columns(vec![(0..1000).collect(), (1000..2000).collect()]);
        let before: Vec<_> = (0..t.len()).map(|r| t.row(r)).collect();
        t.compress();
        let after: Vec<_> = (0..t.len()).map(|r| t.row(r)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn dim_bounds() {
        let t = t();
        assert_eq!(t.dim_bounds(0), (1, 4));
        assert_eq!(t.dim_bounds(1), (10, 40));
    }

    #[test]
    fn dim_bounds_of_compressed_columns() {
        // Three blocks and a short fourth; the extremes sit in different blocks.
        let vals: Vec<u64> = (0..400u64).map(|i| 1_000 + (i * 37) % 5_000).collect();
        let mut t = Table::from_columns(vec![vals, vec![7; 400]]);
        let plain = (t.dim_bounds(0), t.dim_bounds(1));
        t.compress();
        assert_eq!((t.dim_bounds(0), t.dim_bounds(1)), plain);
        assert_eq!(plain.1, (7, 7));
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![]]);
        assert!(t.is_empty());
        assert_eq!(t.dim_bounds(0), (0, 0));
    }
}
