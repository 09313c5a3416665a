//! Property tests for the column store: compression is lossless, cumulative
//! columns match naive sums, scans agree with brute force.

use flood_store::{
    scan_exact, scan_filtered, Column, CompressedColumn, CountVisitor, CumulativeColumn,
    RangeQuery, ScanStats, SumVisitor, Table,
};
use flood_testkit::{count, Lcg};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compression_is_lossless(values in proptest::collection::vec(any::<u64>(), 0..600)) {
        let c = CompressedColumn::compress(&values);
        prop_assert_eq!(c.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(c.get(i), v);
        }
        prop_assert_eq!(c.to_vec(), values);
    }

    #[test]
    fn compression_never_grows_much(values in proptest::collection::vec(0u64..1_000_000, 1..600)) {
        // Block-delta adds per-block metadata but packed deltas of bounded
        // values must stay well under one word per value + overhead.
        let c = CompressedColumn::compress(&values);
        prop_assert!(c.size_bytes() <= values.len() * 8 + 64 * (values.len() / 128 + 1) + 64);
    }

    #[test]
    fn cumulative_matches_naive(values in proptest::collection::vec(any::<u64>(), 1..300),
                                a in 0usize..300, b in 0usize..300) {
        let n = values.len();
        let (s, e) = ((a % n).min(b % n), (a % n).max(b % n));
        let col = Column::plain(values.clone());
        let c = CumulativeColumn::build(&col);
        let naive = values[s..=e].iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(c.range_sum(s, e), naive);
    }

    #[test]
    fn filtered_scan_matches_bruteforce(
        rows in proptest::collection::vec((0u64..50, 0u64..50), 1..300),
        lo0 in 0u64..50, w0 in 0u64..20,
        lo1 in 0u64..50, w1 in 0u64..20,
    ) {
        let t = Table::from_columns(vec![
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
        ]);
        let q = RangeQuery::all(2)
            .with_range(0, lo0, lo0 + w0)
            .with_range(1, lo1, lo1 + w1);
        let mut v = CountVisitor::default();
        let mut s = ScanStats::default();
        let Ok(()) = scan_filtered(&t, &q, 0, t.len(), None, None, &mut v, &mut s);
        let truth = count(&t, &q);
        prop_assert_eq!(v.count, truth);
        prop_assert_eq!(s.points_scanned, t.len() as u64);
    }

    #[test]
    fn exact_scan_sums_match_with_and_without_cumulative(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
        a in 0usize..300, b in 0usize..300,
    ) {
        let n = values.len();
        let (s, e) = ((a % n).min(b % n), (a % n).max(b % n));
        let t = Table::from_columns(vec![values]);
        let cum = t.cumulative_sum(0);
        let mut with = SumVisitor::default();
        let mut stats = ScanStats::default();
        let Ok(()) = scan_exact(&t, s, e + 1, Some(0), Some(&cum), &mut with, &mut stats);
        let mut without = SumVisitor::default();
        let Ok(()) = scan_exact(&t, s, e + 1, Some(0), None, &mut without, &mut stats);
        prop_assert_eq!(with.sum, without.sum);
        prop_assert_eq!(with.count, without.count);
    }

    #[test]
    fn permutation_is_a_bijection(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        seed in any::<u64>(),
    ) {
        let n = values.len();
        // A pseudo-random permutation derived from the seed.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut s = Lcg::new(seed, 33);
        for i in (1..n).rev() {
            perm.swap(i, s.below(i + 1));
        }
        let t = Table::from_columns(vec![values.clone()]);
        let p = t.permuted(&perm);
        let mut back: Vec<u64> = (0..n).map(|i| p.value(i, 0)).collect();
        let mut orig = values;
        back.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(back, orig);
    }
}
