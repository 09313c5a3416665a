//! UB-tree (§7.2(5), Appendix A).
//!
//! Like the Z-order index, points are sorted by Z-value and paged, but the
//! UB-tree can "skip ahead": when the scan cursor reaches a Z-value outside
//! the query rectangle, it computes the next Z-value *inside* the rectangle
//! (BIGMIN) and jumps to the page containing it, avoiding long useless runs
//! of the Z-curve.

use crate::morton::MortonEncoder;
use flood_store::{MatchCount, MultiDimIndex, RangeQuery, ScanStats, Table, Visitor};

/// Default page size (points per page).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;

/// The UB-tree: Z-sorted data, per-point Z-values, per-page minimum Z.
#[derive(Debug)]
pub struct UbTree {
    data: Table,
    encoder: MortonEncoder,
    /// Z-value of every point, in storage order (sorted).
    zvals: Vec<u64>,
    /// First Z-value of each page ("the page's minimum Z-order value").
    page_z_min: Vec<u64>,
    page_size: usize,
}

impl UbTree {
    /// Build over `table`, interleaving `dims` (most selective first).
    pub fn build(table: &Table, dims: Vec<usize>) -> Self {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE)
    }

    /// Build with an explicit page size.
    pub fn build_with_page_size(table: &Table, dims: Vec<usize>, page_size: usize) -> Self {
        assert!(page_size >= 1);
        let encoder = MortonEncoder::new(table, dims);
        let mut keyed: Vec<(u64, u32)> = (0..table.len())
            .map(|r| (encoder.encode_row(table, r), r as u32))
            .collect();
        keyed.sort_unstable();
        let perm: Vec<u32> = keyed.iter().map(|&(_, r)| r).collect();
        let data = table.permuted(&perm);
        let zvals: Vec<u64> = keyed.into_iter().map(|(z, _)| z).collect();
        let page_z_min = zvals.chunks(page_size).map(|c| c[0]).collect();
        UbTree {
            data,
            encoder,
            zvals,
            page_z_min,
            page_size,
        }
    }

    /// The reordered data.
    pub fn data(&self) -> &Table {
        &self.data
    }
}

impl MultiDimIndex for UbTree {
    /// Hand-written — the one index that does not plan: BIGMIN skipping
    /// decides where to go next from the row it just checked, so navigation
    /// and row checks interleave and no kernel is ever called on a range.
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats {
        let mut stats = ScanStats::default();
        let mut counter = MatchCount::new(visitor);
        if self.zvals.is_empty() {
            return stats;
        }
        let (rect_lo, rect_hi) = self.encoder.normalized_rect(query);
        let (z_lo, z_hi) = self.encoder.z_range(&rect_lo, &rect_hi);
        let filtered = query.filtered_dims();
        let needs_value = counter.needs_value();

        let mut idx = self.zvals.partition_point(|&z| z < z_lo);
        let mut last_page = usize::MAX;
        while idx < self.zvals.len() {
            let z = self.zvals[idx];
            if z > z_hi {
                break;
            }
            let page = idx / self.page_size;
            if page != last_page {
                stats.cells_visited += 1;
                last_page = page;
            }
            if self.encoder.z_in_rect(z, &rect_lo, &rect_hi) {
                // Candidate: still verify the raw filter (normalization is
                // coarser than the actual query bounds).
                stats.points_scanned += 1;
                let ok = filtered
                    .iter()
                    .all(|&d| query.matches_dim(d, self.data.value(idx, d)));
                if ok {
                    let v = match agg_dim {
                        Some(d) if needs_value => self.data.value(idx, d),
                        _ => 0,
                    };
                    counter.visit(idx, v);
                }
                idx += 1;
            } else {
                // Skip ahead: next Z-value inside the rectangle, located via
                // the per-page minimum Z-values, then within the page.
                stats.refinements += 1;
                match self.encoder.bigmin(z, &rect_lo, &rect_hi) {
                    None => break,
                    Some(next_z) => {
                        debug_assert!(next_z > z);
                        let page = self
                            .page_z_min
                            .partition_point(|&pz| pz <= next_z)
                            .saturating_sub(1);
                        let start = page * self.page_size;
                        let end = ((page + 1) * self.page_size).min(self.zvals.len());
                        idx = start + self.zvals[start..end].partition_point(|&v| v < next_z);
                        // next_z may exceed this page's range: continue from
                        // the following page.
                        if idx == end && end < self.zvals.len() {
                            idx = end;
                        }
                    }
                }
            }
        }
        stats.ranges_scanned = 1;
        stats.points_matched = counter.matched;
        stats
    }

    fn index_size_bytes(&self) -> usize {
        self.zvals.len() * 8 + self.page_z_min.len() * 8
    }

    fn name(&self) -> &'static str {
        "UB tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::CountVisitor;
    use flood_testkit::{count, hashed_table};

    fn table(n: u64) -> Table {
        hashed_table(n, |i| i * 97)
    }

    fn queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::all(3),
            RangeQuery::all(3).with_range(0, 100, 700),
            RangeQuery::all(3)
                .with_range(0, 0, 900)
                .with_range(1, 100, 300),
            RangeQuery::all(3)
                .with_range(0, 5_000, 5_100)
                .with_range(1, 5_000, 5_100)
                .with_range(2, 0, 1 << 40),
            RangeQuery::all(3).with_eq(1, 97),
        ]
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(6_000);
        let idx = UbTree::build_with_page_size(&t, vec![0, 1, 2], 128);
        for (i, q) in queries().iter().enumerate() {
            let mut v = CountVisitor::default();
            idx.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn skip_ahead_reduces_scanned_points() {
        let t = table(20_000);
        let zo = crate::zorder::ZOrderIndex::build_with_page_size(&t, vec![0, 1, 2], 256);
        let ub = UbTree::build_with_page_size(&t, vec![0, 1, 2], 256);
        let q = RangeQuery::all(3)
            .with_range(0, 1_000, 1_200)
            .with_range(1, 1_000, 1_200);
        let mut v1 = CountVisitor::default();
        let s_zo = zo.execute(&q, None, &mut v1);
        let mut v2 = CountVisitor::default();
        let s_ub = ub.execute(&q, None, &mut v2);
        assert_eq!(v1.count, v2.count);
        assert!(s_ub.refinements > 0, "expected BIGMIN jumps");
        assert!(
            s_ub.points_scanned <= s_zo.points_scanned,
            "UB-tree should not scan more than Z-order: {} vs {}",
            s_ub.points_scanned,
            s_zo.points_scanned
        );
    }

    #[test]
    fn tiny_page_size() {
        let t = table(500);
        let idx = UbTree::build_with_page_size(&t, vec![0, 1, 2], 1);
        let q = RangeQuery::all(3).with_range(0, 0, 5_000);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![], vec![]]);
        let idx = UbTree::build(&t, vec![0, 1, 2]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(3), None, &mut v);
        assert_eq!(v.count, 0);
    }
}
