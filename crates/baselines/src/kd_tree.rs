//! k-d tree (§7.2(7), Appendix A).
//!
//! "We recursively partition space using the median value along each
//! dimension, until the number of points in each page has below the page
//! size number of points. The dimensions are used for partitioning in a
//! round robin fashion, in order of decreasing selectivity. If the remaining
//! points all have the same value in a particular dimension, that dimension
//! is no longer used for further partitioning."

use crate::plan_boxes;
use flood_store::{PlannedIndex, RangePlan, RangeQuery, Table};

/// Default page size (points per leaf).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;

#[derive(Debug)]
struct Node {
    /// Split dimension and value (`u64::MAX` dim sentinel for leaves).
    split_dim: u32,
    split_val: u64,
    left: u32,
    right: u32,
    /// Per-dimension bounding box of the node's points.
    box_lo: Vec<u64>,
    box_hi: Vec<u64>,
    start: u32,
    end: u32,
}

const LEAF: u32 = u32::MAX;

/// The k-d tree index.
#[derive(Debug)]
pub struct KdTree {
    data: Table,
    nodes: Vec<Node>,
}

struct Builder<'a> {
    table: &'a Table,
    dims: Vec<usize>,
    page_size: usize,
    nodes: Vec<Node>,
    order: Vec<u32>,
}

impl KdTree {
    /// Build over `table`, cycling through `dims` (most selective first).
    pub fn build(table: &Table, dims: Vec<usize>) -> Self {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE)
    }

    /// Build with an explicit page size.
    pub fn build_with_page_size(table: &Table, dims: Vec<usize>, page_size: usize) -> Self {
        assert!(page_size >= 1);
        assert!(!dims.is_empty());
        let mut b = Builder {
            table,
            dims,
            page_size,
            nodes: Vec::new(),
            order: Vec::new(),
        };
        let mut rows: Vec<u32> = (0..table.len() as u32).collect();
        if !rows.is_empty() {
            b.build_node(&mut rows, 0);
        }
        let data = table.permuted(&b.order);
        KdTree {
            data,
            nodes: b.nodes,
        }
    }

    /// The reordered data.
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl Builder<'_> {
    fn build_node(&mut self, rows: &mut Vec<u32>, next_dim: usize) -> u32 {
        let id = self.nodes.len() as u32;
        let dims_n = self.table.dims();
        let mut box_lo = vec![u64::MAX; dims_n];
        let mut box_hi = vec![0u64; dims_n];
        for &r in rows.iter() {
            for d in 0..dims_n {
                let v = self.table.value(r as usize, d);
                box_lo[d] = box_lo[d].min(v);
                box_hi[d] = box_hi[d].max(v);
            }
        }
        let start = self.order.len() as u32;
        self.nodes.push(Node {
            split_dim: LEAF,
            split_val: 0,
            left: 0,
            right: 0,
            box_lo,
            box_hi,
            start,
            end: start,
        });

        if rows.len() <= self.page_size {
            self.order.extend_from_slice(rows);
            self.nodes[id as usize].end = self.order.len() as u32;
            return id;
        }

        // Round-robin dimension selection, skipping constant dimensions.
        let mut chosen = None;
        for off in 0..self.dims.len() {
            let d = self.dims[(next_dim + off) % self.dims.len()];
            let (lo, hi) = (
                self.nodes[id as usize].box_lo[d],
                self.nodes[id as usize].box_hi[d],
            );
            if lo < hi {
                chosen = Some((d, (next_dim + off + 1) % self.dims.len()));
                break;
            }
        }
        let Some((dim, next)) = chosen else {
            // All dimensions constant: cannot split further.
            self.order.extend_from_slice(rows);
            self.nodes[id as usize].end = self.order.len() as u32;
            return id;
        };

        // Median split.
        rows.sort_unstable_by_key(|&r| self.table.value(r as usize, dim));
        let mut mid = rows.len() / 2;
        let median = self.table.value(rows[mid] as usize, dim);
        // Keep ties on the left so the right side strictly exceeds the
        // split value (guarantees both sides non-empty: the dimension is
        // non-constant, so some value exceeds the median... unless the
        // median is the maximum; then put ties on the right instead).
        if median
            < self
                .table
                .value(*rows.last().expect("non-empty") as usize, dim)
        {
            while mid < rows.len() && self.table.value(rows[mid] as usize, dim) == median {
                mid += 1;
            }
        } else {
            while mid > 0 && self.table.value(rows[mid - 1] as usize, dim) == median {
                mid -= 1;
            }
        }
        debug_assert!(mid > 0 && mid < rows.len());
        let mut right_rows: Vec<u32> = rows.split_off(mid);
        let split_val = self.table.value(rows[rows.len() - 1] as usize, dim);

        let left = self.build_node(rows, next);
        let right = self.build_node(&mut right_rows, next);
        let node = &mut self.nodes[id as usize];
        node.split_dim = dim as u32;
        node.split_val = split_val;
        node.left = left;
        node.right = right;
        node.end = self.order.len() as u32;
        id
    }
}

impl PlannedIndex for KdTree {
    const NAME: &'static str = "K-d tree";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    fn plan(&self, query: &RangeQuery) -> RangePlan {
        plan_boxes(
            query,
            &self.nodes,
            (!self.nodes.is_empty()).then_some(0),
            |n| (&n.box_lo[..], &n.box_hi[..], n.start, n.end),
            |n, stack| {
                if n.split_dim != LEAF {
                    stack.extend([n.left, n.right]);
                }
            },
        )
    }

    fn structure_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + (n.box_lo.len() + n.box_hi.len()) * 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{CountVisitor, MultiDimIndex};
    use flood_testkit::{count, hashed_queries, hashed_table};

    fn table(n: u64) -> Table {
        hashed_table(n, |i| i * i * 31)
    }

    fn queries() -> Vec<RangeQuery> {
        hashed_queries(120)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(8_000);
        let idx = KdTree::build_with_page_size(&t, vec![0, 1, 2], 64);
        for (i, q) in queries().iter().enumerate() {
            let mut v = CountVisitor::default();
            idx.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn balanced_depth() {
        let t = table(16_384);
        let idx = KdTree::build_with_page_size(&t, vec![0, 1, 2], 128);
        // A median-split tree over 16k points with 128-point leaves has
        // ~128 leaves → ~255 nodes (modulo duplicate-value splits).
        assert!(
            idx.num_nodes() >= 200 && idx.num_nodes() <= 400,
            "{}",
            idx.num_nodes()
        );
    }

    #[test]
    fn prunes_on_selective_queries() {
        let t = table(20_000);
        let idx = KdTree::build_with_page_size(&t, vec![0, 1, 2], 128);
        let q = RangeQuery::all(3).with_range(0, 0, 99).with_range(1, 0, 99);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        let touched = stats.points_scanned + stats.points_in_exact_ranges;
        assert!(touched < t.len() as u64 / 4, "touched {touched}");
    }

    #[test]
    fn duplicate_heavy_dimension() {
        // Dim 0 has only 3 distinct values; the builder must not loop.
        let n = 5_000u64;
        let t = Table::from_columns(vec![(0..n).map(|i| i % 3).collect(), (0..n).collect()]);
        let idx = KdTree::build_with_page_size(&t, vec![0, 1], 64);
        let q = RangeQuery::all(2).with_eq(0, 1);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
    }

    #[test]
    fn all_identical_points() {
        let t = Table::from_columns(vec![vec![4u64; 1_000], vec![2u64; 1_000]]);
        let idx = KdTree::build_with_page_size(&t, vec![0, 1], 16);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(2).with_eq(0, 4), None, &mut v);
        assert_eq!(v.count, 1_000);
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![]]);
        let idx = KdTree::build(&t, vec![0, 1]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 0);
    }
}
