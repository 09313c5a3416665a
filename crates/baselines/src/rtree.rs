//! Read-optimized R-tree, bulk loaded with Sort-Tile-Recursive packing.
//!
//! The paper benchmarks libspatialindex's R\*-tree "bulk loaded to optimize
//! for read query performance" (§7.2(8)). libspatialindex's bulk loader is
//! an STR packer, so an STR-packed R-tree with rectangle-pruned descent
//! reproduces the evaluated read path. (See DESIGN.md's substitution table.)

use crate::plan_boxes;
use flood_store::{PlannedIndex, RangePlan, RangeQuery, Table};

/// Default leaf capacity (points per leaf page).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;
/// Internal-node fanout.
pub const DEFAULT_FANOUT: usize = 16;

#[derive(Debug)]
struct Node {
    /// Child node ids; empty for leaves.
    children: Vec<u32>,
    box_lo: Vec<u64>,
    box_hi: Vec<u64>,
    start: u32,
    end: u32,
}

/// An STR bulk-loaded R-tree over the indexed dimensions.
#[derive(Debug)]
pub struct RStarTree {
    data: Table,
    nodes: Vec<Node>,
    root: u32,
}

impl RStarTree {
    /// Build over `table`, tiling on `dims` (most selective first).
    pub fn build(table: &Table, dims: Vec<usize>) -> Self {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE, DEFAULT_FANOUT)
    }

    /// Build with explicit leaf capacity and fanout.
    pub fn build_with_page_size(
        table: &Table,
        dims: Vec<usize>,
        page_size: usize,
        fanout: usize,
    ) -> Self {
        assert!(page_size >= 1 && fanout >= 2);
        assert!(!dims.is_empty());
        // 1. STR-tile the points into leaves.
        let mut rows: Vec<u32> = (0..table.len() as u32).collect();
        let n_leaves = table.len().div_ceil(page_size).max(1);
        let mut leaf_groups: Vec<Vec<u32>> = Vec::with_capacity(n_leaves);
        str_tile(table, &dims, 0, &mut rows, n_leaves, &mut leaf_groups);

        // 2. Lay leaves out contiguously and wrap them in nodes.
        let mut order: Vec<u32> = Vec::with_capacity(table.len());
        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<u32> = Vec::new();
        for group in &leaf_groups {
            let start = order.len() as u32;
            order.extend_from_slice(group);
            let (lo, hi) = bbox(table, group);
            level.push(nodes.len() as u32);
            nodes.push(Node {
                children: Vec::new(),
                box_lo: lo,
                box_hi: hi,
                start,
                end: order.len() as u32,
            });
        }
        let data = table.permuted(&order);

        // 3. Pack upward until a single root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
            for chunk in level.chunks(fanout) {
                let mut lo = nodes[chunk[0] as usize].box_lo.clone();
                let mut hi = nodes[chunk[0] as usize].box_hi.clone();
                for &c in &chunk[1..] {
                    let n = &nodes[c as usize];
                    for d in 0..lo.len() {
                        lo[d] = lo[d].min(n.box_lo[d]);
                        hi[d] = hi[d].max(n.box_hi[d]);
                    }
                }
                let start = nodes[chunk[0] as usize].start;
                let end = nodes[*chunk.last().expect("non-empty") as usize].end;
                next.push(nodes.len() as u32);
                nodes.push(Node {
                    children: chunk.to_vec(),
                    box_lo: lo,
                    box_hi: hi,
                    start,
                    end,
                });
            }
            level = next;
        }
        let root = level.first().copied().unwrap_or(0);
        RStarTree { data, nodes, root }
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

/// Recursive STR tiling: sort by `dims[depth]`, slice into
/// `ceil(target^(1/remaining))` slabs, recurse with the remainder.
fn str_tile(
    table: &Table,
    dims: &[usize],
    depth: usize,
    rows: &mut [u32],
    target_leaves: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if rows.is_empty() {
        return;
    }
    if target_leaves <= 1 || depth >= dims.len() {
        out.push(rows.to_vec());
        return;
    }
    let remaining = dims.len() - depth;
    let slabs = (target_leaves as f64).powf(1.0 / remaining as f64).ceil() as usize;
    let d = dims[depth];
    rows.sort_unstable_by_key(|&r| table.value(r as usize, d));
    let per_slab = rows.len().div_ceil(slabs);
    let leaves_per_slab = target_leaves.div_ceil(slabs);
    for chunk in rows.chunks_mut(per_slab.max(1)) {
        str_tile(table, dims, depth + 1, chunk, leaves_per_slab, out);
    }
}

/// Bounding box over all table dimensions for a set of rows.
fn bbox(table: &Table, rows: &[u32]) -> (Vec<u64>, Vec<u64>) {
    let dims = table.dims();
    let mut lo = vec![u64::MAX; dims];
    let mut hi = vec![0u64; dims];
    for &r in rows {
        for d in 0..dims {
            let v = table.value(r as usize, d);
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    (lo, hi)
}

impl PlannedIndex for RStarTree {
    const NAME: &'static str = "R* Tree";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    fn plan(&self, query: &RangeQuery) -> RangePlan {
        plan_boxes(
            query,
            &self.nodes,
            (!self.data.is_empty()).then_some(self.root),
            |n| (&n.box_lo[..], &n.box_hi[..], n.start, n.end),
            |n, stack| stack.extend_from_slice(&n.children),
        )
    }

    fn structure_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.children.len() * 4
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
        hashed_table(n, |i| i * 48271)
    }

    fn queries() -> Vec<RangeQuery> {
        hashed_queries(120)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(8_000);
        let idx = RStarTree::build_with_page_size(&t, vec![0, 1, 2], 64, 8);
        for (i, q) in queries().iter().enumerate() {
            let mut v = CountVisitor::default();
            idx.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn str_packing_gives_tight_leaves() {
        let t = table(10_000);
        let idx = RStarTree::build_with_page_size(&t, vec![0, 1], 100, 8);
        // STR over 2 dims with 100 leaves → leaves should be spatially tight:
        // a point query touches far fewer nodes than exist.
        let q = RangeQuery::all(3)
            .with_range(0, 5_000, 5_010)
            .with_range(1, 5_000, 5_010);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert!(
            stats.cells_visited < idx.num_nodes() as u64 / 2,
            "visited {} of {}",
            stats.cells_visited,
            idx.num_nodes()
        );
    }

    #[test]
    fn containment_exact_scan() {
        let t = table(5_000);
        let idx = RStarTree::build_with_page_size(&t, vec![0, 1, 2], 64, 8);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&RangeQuery::all(3), None, &mut v);
        assert_eq!(v.count, 5_000);
        assert_eq!(stats.points_scanned, 0);
    }

    #[test]
    fn single_point_and_empty() {
        let t1 = Table::from_columns(vec![vec![7], vec![8], vec![9]]);
        let idx = RStarTree::build(&t1, vec![0, 1]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(3).with_eq(0, 7), None, &mut v);
        assert_eq!(v.count, 1);

        let t0 = Table::from_columns(vec![vec![], vec![], vec![]]);
        let idx = RStarTree::build(&t0, vec![0, 1]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(3), None, &mut v);
        assert_eq!(v.count, 0);
    }
}
