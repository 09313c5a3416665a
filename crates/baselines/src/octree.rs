//! Hyperoctree (§7.2(6), Appendix A).
//!
//! Space is recursively halved along every indexed dimension at once
//! (2^k children per node) until a node holds at most `page_size` points.
//! Points within a page are contiguous; pages follow an in-order traversal.
//! Each node stores its children, the min/max per dimension of its points,
//! and its physical range. Children are kept sparse: only non-empty
//! hyperoctants are materialized.

use crate::plan_boxes;
use flood_store::{PlannedIndex, RangePlan, RangeQuery, Table};

/// Default page size (points per leaf).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;

/// Cap on split dimensions: 2^k children per node; beyond this fan-out the
/// tree degenerates into allocation noise, so only the first
/// `MAX_SPLIT_DIMS` (most selective) indexed dimensions participate in
/// splitting. Remaining filters are applied during scans.
pub const MAX_SPLIT_DIMS: usize = 10;

#[derive(Debug)]
struct Node {
    /// (octant code, child node id), sorted by code; empty for leaves.
    children: Vec<(u32, u32)>,
    /// Per *table* dimension min/max of the subtree's points.
    box_lo: Vec<u64>,
    box_hi: Vec<u64>,
    start: u32,
    end: u32,
}

/// The hyperoctree index.
#[derive(Debug)]
pub struct Hyperoctree {
    data: Table,
    nodes: Vec<Node>,
    page_size: usize,
}

struct Builder<'a> {
    table: &'a Table,
    split_dims: Vec<usize>,
    page_size: usize,
    nodes: Vec<Node>,
    order: Vec<u32>,
}

impl Hyperoctree {
    /// Build over `table`, splitting on `dims` (most selective first).
    pub fn build(table: &Table, dims: Vec<usize>) -> Self {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE)
    }

    /// Build with an explicit page size.
    pub fn build_with_page_size(table: &Table, dims: Vec<usize>, page_size: usize) -> Self {
        assert!(page_size >= 1);
        let split_dims: Vec<usize> = dims.into_iter().take(MAX_SPLIT_DIMS).collect();
        let mut b = Builder {
            table,
            split_dims,
            page_size,
            nodes: Vec::new(),
            order: Vec::new(),
        };
        let mut rows: Vec<u32> = (0..table.len() as u32).collect();
        // The root's split region spans each dimension's value range.
        let region: Vec<(u64, u64)> = b.split_dims.iter().map(|&d| table.dim_bounds(d)).collect();
        if !rows.is_empty() {
            b.build_node(&mut rows, &region, 0);
        }
        let data = table.permuted(&b.order);
        Hyperoctree {
            data,
            nodes: b.nodes,
            page_size,
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

    /// Page size this tree was built with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

impl Builder<'_> {
    /// Build the subtree over `rows` within `region`; returns the node id.
    fn build_node(&mut self, rows: &mut Vec<u32>, region: &[(u64, u64)], depth: usize) -> u32 {
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
            children: Vec::new(),
            box_lo,
            box_hi,
            start,
            end: start,
        });

        // Leaf: small enough, or the region can no longer shrink.
        let degenerate = region.iter().all(|&(lo, hi)| lo >= hi);
        if rows.len() <= self.page_size || degenerate || depth >= 64 {
            self.order.extend_from_slice(rows);
            self.nodes[id as usize].end = self.order.len() as u32;
            return id;
        }

        // Partition into hyperoctants around the region midpoints.
        let mids: Vec<u64> = region.iter().map(|&(lo, hi)| lo + (hi - lo) / 2).collect();
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for &r in rows.iter() {
            let mut code = 0u32;
            for (i, &d) in self.split_dims.iter().enumerate() {
                if self.table.value(r as usize, d) > mids[i] {
                    code |= 1 << i;
                }
            }
            match groups.binary_search_by_key(&code, |&(c, _)| c) {
                Ok(g) => groups[g].1.push(r),
                Err(pos) => groups.insert(pos, (code, vec![r])),
            }
        }
        rows.clear();
        rows.shrink_to_fit();

        let mut children = Vec::with_capacity(groups.len());
        for (code, mut group) in groups {
            let child_region: Vec<(u64, u64)> = region
                .iter()
                .zip(&mids)
                .enumerate()
                .map(|(i, (&(lo, hi), &mid))| {
                    if code & (1 << i) == 0 {
                        (lo, mid)
                    } else {
                        (mid.saturating_add(1).min(hi), hi)
                    }
                })
                .collect();
            let child = self.build_node(&mut group, &child_region, depth + 1);
            children.push((code, child));
        }
        self.nodes[id as usize].children = children;
        self.nodes[id as usize].end = self.order.len() as u32;
        id
    }
}

impl PlannedIndex for Hyperoctree {
    const NAME: &'static str = "Hyperoctree";
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
            |n, stack| stack.extend(n.children.iter().map(|&(_, c)| c)),
        )
    }

    fn structure_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.children.len() * 8
                    + (n.box_lo.len() + n.box_hi.len()) * 8
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{CountVisitor, MultiDimIndex};
    use flood_testkit::{count, hashed_queries, hashed_table};

    fn table(n: u64) -> Table {
        hashed_table(n, |i| i * i)
    }

    fn queries() -> Vec<RangeQuery> {
        hashed_queries(200)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(8_000);
        let idx = Hyperoctree::build_with_page_size(&t, vec![0, 1, 2], 64);
        for (i, q) in queries().iter().enumerate() {
            let mut v = CountVisitor::default();
            let stats = idx.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
            assert_eq!(stats.points_matched, v.count);
        }
    }

    #[test]
    fn containment_triggers_exact_scans() {
        let t = table(8_000);
        let idx = Hyperoctree::build_with_page_size(&t, vec![0, 1, 2], 64);
        // A query covering everything: the root box is contained.
        let mut v = CountVisitor::default();
        let stats = idx.execute(&RangeQuery::all(3), None, &mut v);
        assert_eq!(v.count, 8_000);
        assert_eq!(stats.points_scanned, 0, "root containment ⇒ all exact");
        assert_eq!(stats.points_in_exact_ranges, 8_000);
    }

    #[test]
    fn selective_query_prunes_subtrees() {
        let t = table(20_000);
        let idx = Hyperoctree::build_with_page_size(&t, vec![0, 1, 2], 128);
        let q = RangeQuery::all(3).with_range(0, 0, 99).with_range(1, 0, 99);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        let touched = stats.points_scanned + stats.points_in_exact_ranges;
        assert!(
            touched < t.len() as u64 / 4,
            "expected pruning, touched {touched}"
        );
    }

    #[test]
    fn identical_points_terminate() {
        let t = Table::from_columns(vec![vec![7u64; 5_000], vec![9u64; 5_000]]);
        let idx = Hyperoctree::build_with_page_size(&t, vec![0, 1], 64);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(2).with_eq(0, 7), None, &mut v);
        assert_eq!(v.count, 5_000);
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![]]);
        let idx = Hyperoctree::build(&t, vec![0, 1]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 0);
    }

    #[test]
    fn caps_split_dimensions() {
        // 12 dims: only the first MAX_SPLIT_DIMS participate in splits, but
        // results stay correct.
        let n = 2_000u64;
        let cols: Vec<Vec<u64>> = (0..12)
            .map(|d| (0..n).map(|i| (i * (d as u64 * 13 + 7)) % 1_000).collect())
            .collect();
        let t = Table::from_columns(cols);
        let idx = Hyperoctree::build_with_page_size(&t, (0..12).collect(), 32);
        let q = RangeQuery::all(12).with_range(11, 0, 500);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
    }
}
