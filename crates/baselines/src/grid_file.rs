//! Grid File (§7.2(3), Appendix A) — Nievergelt, Hinterberger & Sevcik.
//!
//! The d-dimensional space is divided into *blocks* by per-dimension split
//! boundaries; multiple adjacent blocks form a *bucket*, and all points of a
//! bucket are stored contiguously and unsorted. The grid is built
//! incrementally: a bucket that overflows the page size is split (1) along
//! an existing block boundary inside it if one exists, else (2) by adding a
//! new grid column at the bucket's midpoint along a round-robin dimension.
//!
//! Unlike Flood, columns are determined incrementally, nothing adapts to the
//! query workload, and points within buckets are unsorted — querying a
//! bucket means scanning all of it. The directory is a dense d-dimensional
//! array, so heavily skewed data blows it up super-linearly (§2, ref \[9\]); the
//! builder enforces a block budget and reports failure the way the paper
//! timed out its runs.

use flood_store::{PlannedIndex, PlannedRange, RangePlan, RangeQuery, Table};

/// Default page size (points per bucket before splitting).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;
/// Default cap on directory blocks before the build reports failure.
pub const DEFAULT_MAX_BLOCKS: usize = 1 << 22;

/// Why a Grid File build was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridFileError {
    /// The directory exceeded the block budget (the paper's ">1 hour on
    /// heavily skewed data" cases).
    DirectoryBlowup {
        /// Number of directory blocks at abandonment.
        blocks: usize,
    },
}

impl std::fmt::Display for GridFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridFileError::DirectoryBlowup { blocks } => {
                write!(
                    f,
                    "grid-file directory exceeded block budget ({blocks} blocks)"
                )
            }
        }
    }
}

impl std::error::Error for GridFileError {}

/// A bucket's region in block space: an inclusive box per dimension.
#[derive(Debug, Clone)]
struct Bucket {
    /// Inclusive block-coordinate box `[lo_i, hi_i]` per indexed dim.
    blo: Vec<u32>,
    bhi: Vec<u32>,
    rows: Vec<u32>,
    /// Storage range after finalization.
    start: u32,
    end: u32,
}

/// The Grid File index.
#[derive(Debug)]
pub struct GridFile {
    data: Table,
    dims: Vec<usize>,
    /// Per-dimension sorted split boundaries (a value `b` splits `< b` from
    /// `>= b`).
    boundaries: Vec<Vec<u64>>,
    /// Dense directory: block coords (row-major) → bucket id.
    directory: Vec<u32>,
    buckets: Vec<Bucket>,
}

impl GridFile {
    /// Build over `table`, indexing `dims`, with default page size/budget.
    pub fn build(table: &Table, dims: Vec<usize>) -> Result<Self, GridFileError> {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE, DEFAULT_MAX_BLOCKS)
    }

    /// Build with explicit page size and directory budget.
    pub fn build_with_page_size(
        table: &Table,
        dims: Vec<usize>,
        page_size: usize,
        max_blocks: usize,
    ) -> Result<Self, GridFileError> {
        assert!(page_size >= 1);
        assert!(!dims.is_empty());
        let k = dims.len();
        let mut gf = GridFile {
            data: table.clone(), // replaced by the permuted copy at the end
            dims,
            boundaries: vec![Vec::new(); k],
            directory: vec![0],
            buckets: vec![Bucket {
                blo: vec![0; k],
                bhi: vec![0; k],
                rows: Vec::new(),
                start: 0,
                end: 0,
            }],
        };
        let mut rr_dim = 0usize; // round-robin split dimension
        for row in 0..table.len() {
            gf.insert(table, row as u32, page_size, &mut rr_dim, max_blocks)?;
        }
        gf.finalize(table);
        Ok(gf)
    }

    /// Block count of the directory.
    pub fn num_blocks(&self) -> usize {
        self.directory.len()
    }

    /// Bucket count.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The reordered data.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Block coordinate of value `v` along indexed dim `i`.
    #[inline]
    fn block_coord(&self, i: usize, v: u64) -> u32 {
        self.boundaries[i].partition_point(|&b| b <= v) as u32
    }

    /// Row-major directory offset of block coords.
    fn dir_offset(&self, coords: &[u32]) -> usize {
        let mut off = 0usize;
        for (i, &c) in coords.iter().enumerate() {
            off = off * (self.boundaries[i].len() + 1) + c as usize;
        }
        off
    }

    fn insert(
        &mut self,
        table: &Table,
        row: u32,
        page_size: usize,
        rr_dim: &mut usize,
        max_blocks: usize,
    ) -> Result<(), GridFileError> {
        let coords: Vec<u32> = self
            .dims
            .iter()
            .enumerate()
            .map(|(i, &d)| self.block_coord(i, table.value(row as usize, d)))
            .collect();
        let b = self.directory[self.dir_offset(&coords)] as usize;
        self.buckets[b].rows.push(row);
        if self.buckets[b].rows.len() > page_size {
            self.split_bucket(table, b, rr_dim, max_blocks)?;
        }
        Ok(())
    }

    /// Split bucket `b` (Appendix A's two cases).
    fn split_bucket(
        &mut self,
        table: &Table,
        b: usize,
        rr_dim: &mut usize,
        max_blocks: usize,
    ) -> Result<(), GridFileError> {
        let k = self.dims.len();
        // Case 1: an existing block boundary inside the bucket's region.
        let case1 = (0..k)
            .map(|off| (*rr_dim + off) % k)
            .find(|&i| self.buckets[b].bhi[i] > self.buckets[b].blo[i]);
        let split_dim = if let Some(i) = case1 {
            i
        } else {
            // Case 2: add a new grid column at the bucket's value midpoint
            // along a round-robin dimension with a non-degenerate extent.
            let mut added = None;
            for off in 0..k {
                let i = (*rr_dim + off) % k;
                let (lo, hi) = self.block_value_extent(table, b, i);
                if lo >= hi {
                    continue;
                }
                let mid = lo + (hi - lo) / 2 + 1; // boundary splits `< mid`
                self.add_boundary(i, mid, max_blocks)?;
                added = Some(i);
                break;
            }
            match added {
                Some(i) => i,
                None => return Ok(()), // all dims degenerate: oversize bucket
            }
        };
        *rr_dim = (split_dim + 1) % k;

        // Split the bucket's block box in half along split_dim.
        let (blo, bhi) = (
            self.buckets[b].blo[split_dim],
            self.buckets[b].bhi[split_dim],
        );
        debug_assert!(bhi > blo);
        let cut = blo + (bhi - blo) / 2; // left keeps [blo, cut]
        let mut right = Bucket {
            blo: self.buckets[b].blo.clone(),
            bhi: self.buckets[b].bhi.clone(),
            rows: Vec::new(),
            start: 0,
            end: 0,
        };
        right.blo[split_dim] = cut + 1;
        self.buckets[b].bhi[split_dim] = cut;
        let right_id = self.buckets.len() as u32;

        // Reassign points.
        let dim = self.dims[split_dim];
        let rows = std::mem::take(&mut self.buckets[b].rows);
        for row in rows {
            let c = self.block_coord(split_dim, table.value(row as usize, dim));
            if c > cut {
                right.rows.push(row);
            } else {
                self.buckets[b].rows.push(row);
            }
        }
        self.buckets.push(right);

        // Re-point the directory for the right half.
        self.repoint(right_id);
        Ok(())
    }

    /// Value extent of bucket `b` along indexed dim `i` (the region's value
    /// bounds, derived from its block box and the boundary list).
    fn block_value_extent(&self, table: &Table, b: usize, i: usize) -> (u64, u64) {
        let bounds = &self.boundaries[i];
        let (blo, bhi) = (self.buckets[b].blo[i], self.buckets[b].bhi[i]);
        let lo = if blo == 0 {
            table.dim_bounds(self.dims[i]).0
        } else {
            bounds[(blo - 1) as usize]
        };
        let hi = if (bhi as usize) >= bounds.len() {
            table.dim_bounds(self.dims[i]).1
        } else {
            bounds[bhi as usize] - 1
        };
        (lo, hi)
    }

    /// Insert a new boundary value on dim `i` and rebuild the directory
    /// (every bucket's block box stretches across the new column).
    fn add_boundary(
        &mut self,
        i: usize,
        value: u64,
        max_blocks: usize,
    ) -> Result<(), GridFileError> {
        let pos = self.boundaries[i].partition_point(|&b| b < value);
        if self.boundaries[i].get(pos) == Some(&value) {
            return Ok(()); // boundary already exists
        }
        self.boundaries[i].insert(pos, value);
        let new_blocks: usize = self.boundaries.iter().map(|b| b.len() + 1).product();
        if new_blocks > max_blocks {
            return Err(GridFileError::DirectoryBlowup { blocks: new_blocks });
        }
        // Stretch every bucket's block box across the inserted column.
        let p = pos as u32;
        for bucket in &mut self.buckets {
            if bucket.blo[i] > p {
                bucket.blo[i] += 1;
            }
            if bucket.bhi[i] >= p {
                bucket.bhi[i] += 1;
            }
        }
        self.rebuild_directory();
        Ok(())
    }

    /// Rebuild the dense directory from the bucket regions.
    fn rebuild_directory(&mut self) {
        let total: usize = self.boundaries.iter().map(|b| b.len() + 1).product();
        self.directory = vec![u32::MAX; total];
        for id in 0..self.buckets.len() {
            self.repoint(id as u32);
        }
        debug_assert!(self.directory.iter().all(|&b| b != u32::MAX));
    }

    /// Point every directory block of bucket `id`'s region at it.
    fn repoint(&mut self, id: u32) {
        let (blo, bhi) = {
            let b = &self.buckets[id as usize];
            (b.blo.clone(), b.bhi.clone())
        };
        let mut coords = blo.clone();
        loop {
            let off = self.dir_offset(&coords);
            self.directory[off] = id;
            // Odometer over the block box.
            let mut i = coords.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if coords[i] < bhi[i] {
                    coords[i] += 1;
                    break;
                }
                coords[i] = blo[i];
            }
        }
    }

    /// Concatenate buckets into storage order and permute the data.
    fn finalize(&mut self, table: &Table) {
        let mut order: Vec<u32> = Vec::with_capacity(table.len());
        for b in &mut self.buckets {
            b.start = order.len() as u32;
            order.extend_from_slice(&b.rows);
            b.end = order.len() as u32;
            b.rows = Vec::new();
        }
        self.data = table.permuted(&order);
    }
}

impl PlannedIndex for GridFile {
    const NAME: &'static str = "Grid File";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    /// Every bucket whose block box intersects the query's, checked per row.
    fn plan(&self, query: &RangeQuery) -> RangePlan {
        let mut plan = RangePlan::filtered(query);
        // Block ranges per indexed dim.
        let ranges: Vec<(u32, u32)> = self
            .dims
            .iter()
            .enumerate()
            .map(|(i, &d)| match query.bound(d) {
                Some((lo, hi)) => (self.block_coord(i, lo), self.block_coord(i, hi)),
                None => (0, self.boundaries[i].len() as u32),
            })
            .collect();
        for b in &self.buckets {
            let hit = b
                .blo
                .iter()
                .zip(&b.bhi)
                .zip(&ranges)
                .all(|((&blo, &bhi), &(qlo, qhi))| blo <= qhi && qlo <= bhi);
            if hit {
                plan.stats.cells_visited += 1;
                let (start, end) = (b.start as usize, b.end as usize);
                plan.ranges.push(PlannedRange::checked(start, end));
            }
        }
        plan
    }

    fn structure_bytes(&self) -> usize {
        self.directory.len() * 4
            + self.boundaries.iter().map(|b| b.len() * 8).sum::<usize>()
            + self.buckets.len() * std::mem::size_of::<Bucket>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{CountVisitor, MultiDimIndex};
    use flood_testkit::{count, hashed_table};

    fn table(n: u64) -> Table {
        hashed_table(n, |i| i * 48271)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(6_000);
        let gf = GridFile::build_with_page_size(&t, vec![0, 1], 128, 1 << 20).expect("build");
        let queries = [
            RangeQuery::all(3),
            RangeQuery::all(3).with_range(0, 100, 2_000),
            RangeQuery::all(3)
                .with_range(0, 0, 5_000)
                .with_range(1, 100, 900),
            RangeQuery::all(3).with_range(2, 100, 120),
            RangeQuery::all(3).with_eq(0, 761),
        ];
        for (i, q) in queries.iter().enumerate() {
            let mut v = CountVisitor::default();
            gf.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn buckets_respect_page_size_roughly() {
        let t = table(10_000);
        let gf = GridFile::build_with_page_size(&t, vec![0, 1], 256, 1 << 20).expect("build");
        assert!(
            gf.num_buckets() >= 10_000 / 256,
            "buckets: {}",
            gf.num_buckets()
        );
        // Directory has at least as many blocks as buckets.
        assert!(gf.num_blocks() >= gf.num_buckets() / 2);
    }

    #[test]
    fn selective_query_prunes_buckets() {
        let t = table(20_000);
        let gf = GridFile::build_with_page_size(&t, vec![0, 1], 256, 1 << 20).expect("build");
        let q = RangeQuery::all(3).with_range(0, 0, 99).with_range(1, 0, 99);
        let mut v = CountVisitor::default();
        let stats = gf.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert!(
            stats.points_scanned < t.len() as u64 / 2,
            "scanned {}",
            stats.points_scanned
        );
    }

    #[test]
    fn duplicate_points_dont_loop() {
        // All points identical: bucket can never split — must not recurse
        // forever, just hold an oversize bucket.
        let t = Table::from_columns(vec![vec![3u64; 2_000], vec![5u64; 2_000]]);
        let gf = GridFile::build_with_page_size(&t, vec![0, 1], 64, 1 << 20).expect("build");
        let mut v = CountVisitor::default();
        gf.execute(&RangeQuery::all(2).with_eq(0, 3), None, &mut v);
        assert_eq!(v.count, 2_000);
        assert_eq!(gf.num_buckets(), 1);
    }

    #[test]
    fn block_budget_reports_blowup() {
        // A tiny budget forces the blowup error quickly.
        let t = table(5_000);
        let res = GridFile::build_with_page_size(&t, vec![0, 1], 8, 16);
        assert!(matches!(res, Err(GridFileError::DirectoryBlowup { .. })));
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![]]);
        let gf = GridFile::build(&t, vec![0, 1]).expect("build");
        let mut v = CountVisitor::default();
        gf.execute(&RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 0);
    }
}
