//! Z-Order index (§7.2(4), Appendix A).
//!
//! Points are ordered by Z-value and grouped into fixed-size pages. Each
//! page stores the per-dimension min/max of its points. A query computes the
//! smallest and largest Z-value of its rectangle, binary-searches the page
//! ends, and iterates every page in between, scanning a page only when its
//! min/max box intersects the query rectangle.

use crate::morton::MortonEncoder;
use flood_store::{PlannedIndex, PlannedRange, RangePlan, RangeQuery, Table};

/// Default page size (points per page).
pub const DEFAULT_PAGE_SIZE: usize = 1_024;

/// Per-page metadata: bounding box + first Z-value.
#[derive(Debug, Clone)]
struct Page {
    start: u32,
    end: u32,
    z_min: u64,
    /// Per *table* dimension min/max of the page's points.
    box_lo: Vec<u64>,
    box_hi: Vec<u64>,
}

/// The Z-order index: data sorted by Morton code, paged.
#[derive(Debug)]
pub struct ZOrderIndex {
    data: Table,
    encoder: MortonEncoder,
    pages: Vec<Page>,
}

impl ZOrderIndex {
    /// Build over `table`, interleaving `dims` (most selective first), with
    /// the default page size.
    pub fn build(table: &Table, dims: Vec<usize>) -> Self {
        Self::build_with_page_size(table, dims, DEFAULT_PAGE_SIZE)
    }

    /// Build with an explicit page size (the index's single tunable, §6).
    pub fn build_with_page_size(table: &Table, dims: Vec<usize>, page_size: usize) -> Self {
        assert!(page_size >= 1);
        let encoder = MortonEncoder::new(table, dims);
        let mut keyed: Vec<(u64, u32)> = (0..table.len())
            .map(|r| (encoder.encode_row(table, r), r as u32))
            .collect();
        keyed.sort_unstable();
        let perm: Vec<u32> = keyed.iter().map(|&(_, r)| r).collect();
        let data = table.permuted(&perm);

        let mut pages = Vec::with_capacity(table.len().div_ceil(page_size));
        let dims_n = table.dims();
        let mut at = 0usize;
        while at < data.len() {
            let end = (at + page_size).min(data.len());
            let mut lo = vec![u64::MAX; dims_n];
            let mut hi = vec![0u64; dims_n];
            for row in at..end {
                for d in 0..dims_n {
                    let v = data.value(row, d);
                    lo[d] = lo[d].min(v);
                    hi[d] = hi[d].max(v);
                }
            }
            pages.push(Page {
                start: at as u32,
                end: end as u32,
                z_min: keyed[at].0,
                box_lo: lo,
                box_hi: hi,
            });
            at = end;
        }
        ZOrderIndex {
            data,
            encoder,
            pages,
        }
    }

    /// The reordered data.
    pub fn data(&self) -> &Table {
        &self.data
    }
}

impl PlannedIndex for ZOrderIndex {
    const NAME: &'static str = "Z Order";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    /// The pages between the query's smallest and largest Z-value, each
    /// checked per row when its min/max box can match the filter.
    fn plan(&self, query: &RangeQuery) -> RangePlan {
        let mut plan = RangePlan::filtered(query);
        let (rect_lo, rect_hi) = self.encoder.normalized_rect(query);
        let (z_lo, z_hi) = self.encoder.z_range(&rect_lo, &rect_hi);
        // Last page whose first Z ≤ z_lo could still contain z_lo.
        let first = self
            .pages
            .partition_point(|p| p.z_min <= z_lo)
            .saturating_sub(1);
        let rect = query.rect();
        for page in self.pages[first..].iter().take_while(|p| p.z_min <= z_hi) {
            plan.stats.cells_visited += 1;
            if rect.intersects_box(&page.box_lo, &page.box_hi) {
                let (start, end) = (page.start as usize, page.end as usize);
                plan.ranges.push(PlannedRange::checked(start, end));
            }
        }
        plan
    }

    fn structure_bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|p| std::mem::size_of::<Page>() + (p.box_lo.len() + p.box_hi.len()) * 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{CountVisitor, MultiDimIndex};
    use flood_testkit::{count, hashed_table};

    fn table(n: u64) -> Table {
        hashed_table(n, |i| i * 40503)
    }

    fn queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::all(3),
            RangeQuery::all(3).with_range(0, 100, 2_000),
            RangeQuery::all(3)
                .with_range(0, 0, 5_000)
                .with_range(1, 2_000, 3_000),
            RangeQuery::all(3)
                .with_range(0, 9_000, 9_999)
                .with_range(1, 0, 500)
                .with_range(2, 0, 4_000),
            RangeQuery::all(3).with_eq(0, 4),
        ]
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = table(8_000);
        let idx = ZOrderIndex::build_with_page_size(&t, vec![0, 1, 2], 128);
        for (i, q) in queries().iter().enumerate() {
            let mut v = CountVisitor::default();
            let stats = idx.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
            assert_eq!(stats.points_matched, v.count);
        }
    }

    #[test]
    fn selective_query_skips_pages() {
        let t = table(8_000);
        let idx = ZOrderIndex::build_with_page_size(&t, vec![0, 1, 2], 64);
        let q = RangeQuery::all(3).with_range(0, 0, 99).with_range(1, 0, 99);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert!(
            stats.points_scanned < t.len() as u64 / 2,
            "should skip most pages, scanned {}",
            stats.points_scanned
        );
    }

    #[test]
    fn page_size_one_and_huge() {
        let t = table(500);
        for ps in [1usize, 1_000_000] {
            let idx = ZOrderIndex::build_with_page_size(&t, vec![0, 1, 2], ps);
            let q = RangeQuery::all(3).with_range(1, 100, 900);
            let mut v = CountVisitor::default();
            idx.execute(&q, None, &mut v);
            assert_eq!(v.count, count(&t, &q), "page size {ps}");
        }
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![], vec![]]);
        let idx = ZOrderIndex::build(&t, vec![0, 1, 2]);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(3), None, &mut v);
        assert_eq!(v.count, 0);
    }
}
