//! Property-based equivalence: on arbitrary small tables and arbitrary
//! queries, every index agrees with the brute-force oracle — COUNT, SUM,
//! MIN/MAX and the matched rows.

use flood::baselines::{Hyperoctree, KdTree, RStarTree, UbTree, ZOrderIndex};
use flood::core::{FloodBuilder, Layout};
use flood::store::{MultiDimIndex, RangeQuery, Table};
use flood_testkit::{answer, arb_lcg_table, arb_query, oracle, serial, span};
use proptest::prelude::*;

/// A random 3-dim table of up to 400 rows with small domains (to force
/// duplicate values and boundary collisions).
fn arb_table() -> impl Strategy<Value = Table> {
    arb_lcg_table(1..400, [16, 1_000, u64::MAX >> 20])
}

/// An arbitrary query over 3 dims: each dim unfiltered, an equality, or a
/// range (possibly empty of matches).
fn arb_query3() -> impl Strategy<Value = RangeQuery> {
    let dim_bound = prop_oneof![
        Just(None),
        (0u64..1_000).prop_map(|v| Some((v, v))),
        span(2_000),
    ];
    arb_query(3, dim_bound)
}

/// `idx`'s answer under every visitor kind (SUM over the wide column 2,
/// MIN/MAX over column 1) as the oracle gives it: COUNT first, on its own,
/// then the rest.
fn check(idx: &dyn MultiDimIndex, data: &Table, t: &Table, q: &RangeQuery) {
    let got = answer(&serial(idx, q), Some(2), Some(1)).0.tuples(data);
    let want = oracle(t, q, Some(2), Some(1));
    assert_eq!(got.count, want.count, "{} COUNT", idx.name());
    assert_eq!(got, want, "{}", idx.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flood_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 3]))
            .build(&t);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn flood_histogram_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = FloodBuilder::new()
            .layout(Layout::histogram(vec![2, 0], vec![4, 4]))
            .build(&t);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn zorder_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = ZOrderIndex::build_with_page_size(&t, vec![0, 1, 2], 32);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn ubtree_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = UbTree::build_with_page_size(&t, vec![0, 1, 2], 32);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn octree_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = Hyperoctree::build_with_page_size(&t, vec![0, 1, 2], 16);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn kdtree_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = KdTree::build_with_page_size(&t, vec![0, 1, 2], 16);
        check(&idx, idx.data(), &t, &q);
    }

    #[test]
    fn rtree_equals_oracle(t in arb_table(), q in arb_query3()) {
        let idx = RStarTree::build_with_page_size(&t, vec![0, 1, 2], 16, 4);
        check(&idx, idx.data(), &t, &q);
    }
}
