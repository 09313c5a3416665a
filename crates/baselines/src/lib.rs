//! # flood-baselines
//!
//! The eight baseline indexes of §7.2, all implemented on the same column
//! store (`flood-store`) and the same [`MultiDimIndex`] interface as Flood,
//! with the same optimizations where applicable (exact-range scan elision,
//! cumulative aggregation columns):
//!
//! 1. [`FullScan`] — visits every point, touching only filtered columns.
//! 2. [`ClusteredIndex`] — data sorted by one dimension, an RMI locating the
//!    endpoints (a learned clustered B-Tree equivalent; Appendix A).
//! 3. [`GridFile`] — incremental bucket-splitting grid (Nievergelt et al.).
//! 4. [`ZOrderIndex`] — points ordered by Morton code, paged with min/max
//!    metadata.
//! 5. [`UbTree`] — Z-ordered pages plus BIGMIN "skip ahead".
//! 6. [`Hyperoctree`] — recursive 2^d splitting with a page-size cap.
//! 7. [`KdTree`] — median splits, dimensions round-robin by selectivity.
//! 8. [`RStarTree`] — an STR bulk-loaded, read-optimized R-tree (the paper
//!    benchmarks libspatialindex's R*; STR packing reproduces its read-path
//!    behaviour).
//!
//! Every index here answers queries identically to [`FullScan`]; the
//! integration suite enforces it.
//!
//! [`MultiDimIndex`]: flood_store::MultiDimIndex

pub mod clustered;
pub mod full_scan;
pub mod grid_file;
pub mod kd_tree;
pub mod morton;
pub mod octree;
pub mod rtree;
pub mod ub_tree;
pub mod zorder;

pub use clustered::ClusteredIndex;
pub use full_scan::FullScan;
pub use grid_file::GridFile;
pub use kd_tree::KdTree;
pub use octree::Hyperoctree;
pub use rtree::RStarTree;
pub use ub_tree::UbTree;
pub use zorder::ZOrderIndex;

use flood_store::{PlannedRange, RangePlan, RangeQuery};

/// The plan of a bounding-box hierarchy (k-d tree, hyperoctree, R-tree),
/// depth-first from `root`: a subtree the query contains is one exact
/// range, a leaf it only intersects is checked per row. `bounds` gives a
/// node's box and row range; `children` pushes its children — nothing for
/// a leaf.
pub(crate) fn plan_boxes<N>(
    query: &RangeQuery,
    nodes: &[N],
    root: Option<u32>,
    bounds: impl Fn(&N) -> (&[u64], &[u64], u32, u32),
    children: impl Fn(&N, &mut Vec<u32>),
) -> RangePlan {
    let mut plan = RangePlan::filtered(query);
    let rect = query.rect();
    let mut stack: Vec<u32> = root.into_iter().collect();
    while let Some(id) = stack.pop() {
        let node = &nodes[id as usize];
        let (lo, hi, start, end) = bounds(node);
        let (start, end) = (start as usize, end as usize);
        plan.stats.cells_visited += 1;
        if !rect.intersects_box(lo, hi) {
            continue;
        }
        let pushed = stack.len();
        if rect.contains_box(lo, hi) {
            plan.ranges.push(PlannedRange::exact(start, end));
            continue;
        }
        children(node, &mut stack);
        if stack.len() == pushed {
            plan.ranges.push(PlannedRange::checked(start, end));
        }
    }
    plan
}
