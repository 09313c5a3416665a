//! Correlation exploitation must be invisible in results: for any table,
//! any injected soft functional dependency (any noise width, any broken-row
//! rate), any layout, and every visitor, a correlation-**on** index — its
//! layout carries soft FDs — returns exactly what the correlation-**off**
//! index over the same layout without them (and a brute-force oracle)
//! returns. Fit quality is deliberately *not* assumed: fixed layouts carry
//! the planted pair whatever its noise, and learned layouts come from a
//! detection config far more aggressive than the default, so weak, dirty
//! fits get exploited too, and the exact-envelope + residual-pass design
//! has to absorb them losslessly.
//!
//! The learned-layout case also pins what travels on the layout: the
//! search's collapse-grade FDs on indexed hosts, of which the index
//! exploits all but the outlier cut, across `rebuild` and `with_cols`.
//!
//! `FLOOD_PROPTEST_CASES` scales the case count (CI raises it on push, and
//! runs it at 512 in the optimised build).

use flood_core::{
    CorrelationConfig, CorrelationModel, CostModel, FdPair, FloodBuilder, FloodIndex, Layout,
    LayoutOptimizer, OptimizerConfig,
};
use flood_store::{CountVisitor, MultiDimIndex, RangeQuery, Table, ThreadPool};
use flood_testkit::{answer, cases, count, fd_table, oracle, query, serial, Answer};
use proptest::prelude::*;

/// Exploit-everything detection: thresholds low enough that even a
/// noise-dominated fit is taken. Results must not care.
fn aggressive() -> CorrelationConfig {
    CorrelationConfig {
        enabled: true,
        min_strength: 0.3,
        reweight_strength: 0.1,
        max_outlier_rate: 0.1,
        ..Default::default()
    }
}

fn off() -> CorrelationConfig {
    CorrelationConfig {
        enabled: false,
        ..Default::default()
    }
}

fn arb_fd_table() -> impl Strategy<Value = Table> {
    (
        40usize..400,
        any::<u64>(),
        prop_oneof![Just(1u64), Just(64), Just(4_000)],
        prop_oneof![Just(0u32), Just(5), Just(25)],
    )
        .prop_map(|(n, seed, w, o)| fd_table(n, seed, w, o))
}

/// Queries over the 4 dims; the dependent (d1) is always filtered so the
/// translate/tighten/residual machinery actually runs on every case (the
/// unfiltered-dependent path is covered by the other suites).
fn arb_query() -> impl Strategy<Value = RangeQuery> {
    let host = prop_oneof![Just(None), bound(10_000)];
    let dep = bound(26_000);
    let b2 = prop_oneof![Just(None), bound(64)];
    let b3 = prop_oneof![Just(None), bound(1 << 20)];
    (host, dep, b2, b3).prop_map(|(b0, b1, b2, b3)| query(4, [b0, b1, b2, b3]))
}

fn bound(domain: u64) -> impl Strategy<Value = Option<(u64, u64)>> {
    (0..domain, 1..domain / 2).prop_map(|(lo, w)| Some((lo, lo + w)))
}

/// What the fixed-layout cases attach: the planted `d1 ≈ 2·d0`, plus a
/// pair of independent columns (d3 on d2) the index must absorb just as
/// losslessly — with both filtered, the residual pass unions two FDs.
const CARRIED: [FdPair; 2] = [FdPair { host: 0, dep: 1 }, FdPair { host: 2, dep: 3 }];

/// Whether `active` is `carried` less some entries (the outlier cut), in
/// order.
fn is_cut_of(active: &[FdPair], carried: &[FdPair]) -> bool {
    let mut rest = carried.iter();
    active.iter().all(|a| rest.any(|c| c == a))
}

/// Every visitor, on vs off vs oracle, for one (table, query, layout): the
/// on side's layout carries [`CARRIED`], the off side's nothing. Matching
/// rows compare as value tuples (physical ids differ between layouts).
fn check_all_visitors(
    t: &Table,
    q: &RangeQuery,
    layout: Layout,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let on = FloodBuilder::new()
        .layout(layout.clone().with_fds(CARRIED.to_vec()))
        .build(t);
    let off_idx = FloodBuilder::new().layout(layout).build(t);
    prop_assert!(is_cut_of(&on.active_fds(), &CARRIED));
    prop_assert!(off_idx.active_fds().is_empty());

    let every = |idx: &FloodIndex| {
        answer(&serial(idx, q), Some(3), Some(1))
            .0
            .tuples(idx.data())
    };
    let (a_on, a_off) = (every(&on), every(&off_idx));
    prop_assert_eq!(a_on.count, a_off.count, "COUNT diverged");
    prop_assert_eq!(a_on.sum.sum, a_off.sum.sum, "SUM diverged");
    let minmax = |a: &Answer<Vec<u64>>| (a.minmax.min, a.minmax.max);
    prop_assert_eq!(minmax(&a_on), minmax(&a_off), "MIN/MAX diverged");
    prop_assert_eq!(&a_on.rows, &a_off.rows, "COLLECT diverged");
    prop_assert_eq!(a_on, oracle(t, q, Some(3), Some(1)), "wrong vs oracle");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// Grid-hosted exploitation: the planted dependent is unindexed, its
    /// host is a grid dimension, so every d1 filter routes through d0's
    /// envelopes.
    #[test]
    fn grid_hosted_on_equals_off(t in arb_fd_table(), q in arb_query()) {
        check_all_visitors(&t, &q, Layout::new(vec![0, 2, 3], vec![6, 4]))?;
    }

    /// Sort-hosted exploitation: the host is the sort dimension, so
    /// tightening goes through host-value buckets instead of grid columns.
    #[test]
    fn sort_hosted_on_equals_off(t in arb_fd_table(), q in arb_query()) {
        check_all_visitors(&t, &q, Layout::new(vec![2, 3, 0], vec![5, 4]))?;
    }

    /// The dependent indexed alongside its host: tightening competes with
    /// the dependent's own columns, and must still change nothing.
    #[test]
    fn indexed_dep_on_equals_off(t in arb_fd_table(), q in arb_query()) {
        check_all_visitors(&t, &q, Layout::new(vec![0, 1, 2, 3], vec![4, 3, 3]))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// End-to-end: layouts *learned* with correlation on and off (the on
    /// side may collapse or re-weight the dependent) return identical
    /// results for queries the optimizer never saw — and so does the on
    /// index re-laid out with one more column per grid dimension. The on
    /// layout carries exactly the collapse-grade FDs of the search's model
    /// whose host it indexes, the off layout none, and each index exploits
    /// its layout's list less the outlier cut.
    #[test]
    fn learned_layouts_agree_on_results(
        t in arb_fd_table(),
        train in proptest::collection::vec(arb_query(), 8),
        test in proptest::collection::vec(arb_query(), 8),
    ) {
        let learn = |ccfg: CorrelationConfig| {
            let ocfg = OptimizerConfig {
                data_sample: usize::MAX,
                query_sample: 8,
                gd_steps: 4,
                max_total_cells: 1 << 8,
                correlation: ccfg,
                ..Default::default()
            };
            let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), ocfg);
            FloodBuilder::new().layout(opt.optimize(&t, &train).layout).build(&t)
        };
        let on = learn(aggressive());
        let off_idx = learn(off());

        // The search's model: `data_sample ≥ n` samples every row.
        let rows: Vec<usize> = (0..t.len()).collect();
        let model = CorrelationModel::detect_rows(&t, &rows, &aggressive());
        let layout = on.layout();
        let priced: Vec<FdPair> = (model.fds().iter())
            .filter(|f| f.collapse && layout.order().contains(&f.host))
            .map(|f| FdPair { host: f.host, dep: f.dep })
            .collect();
        prop_assert_eq!(layout.fds(), &priced[..]);
        prop_assert!(off_idx.layout().fds().is_empty());
        prop_assert!(is_cut_of(&on.active_fds(), layout.fds()));

        // Same layout, same rows, same envelopes: the cut repeats.
        prop_assert_eq!(on.rebuild(layout.clone(), ThreadPool::from_env()).active_fds(), on.active_fds());
        let wider = layout.with_cols(layout.cols().iter().map(|c| c + 1).collect());
        let rebuilt = on.rebuild(wider, ThreadPool::from_env());
        prop_assert_eq!(rebuilt.layout().fds(), layout.fds());
        prop_assert!(is_cut_of(&rebuilt.active_fds(), layout.fds()));

        for q in &test {
            let truth = count(&t, q);
            for (idx, name) in [(&on, "on"), (&off_idx, "off"), (&rebuilt, "rebuilt on")] {
                let mut v = CountVisitor::default();
                idx.execute(q, None, &mut v);
                prop_assert_eq!(v.count, truth, "{} wrong vs oracle", name);
            }
        }
    }
}
