//! Property suite: the incremental per-dimension statistics path is
//! **bit-identical** to a from-scratch `query_stats` over arbitrary probe
//! sequences — the invariant that lets `LayoutOptimizer` swap one in for
//! the other freely (the optimizer-search analogue of PR 3's
//! parallel ≡ serial suite).
//!
//! Each case builds one `SampleSpace` (arbitrary table, dimension count,
//! query set, sample size) and drives one persistent `StatsCache` through
//! an arbitrary sequence of `(order, cols)` probes: single-dimension moves,
//! revisits, order swaps, and indexed-dimension subsets all arise from the
//! generator. Every probe's cached statistics must equal the full scan's
//! exactly (`QueryStatistics` is compared field-for-field via `PartialEq`;
//! both paths share one arithmetic skeleton, so equal counts give equal
//! floats).
//!
//! A second block drives the same equality through the regime the first
//! one's generators (`d ≤ 5`, columns in `1..=64`) rarely reach: 8–12
//! dimensions probed at 1–2 columns under loose filters, where most masks
//! are all ones or have no interior and the cached path answers from flags
//! instead of bitmaps. `FLOOD_PROPTEST_CASES` scales that block (CI runs it
//! at 512 in release).
//!
//! A third block holds the layout search split over a pool — one task per
//! sort-dimension candidate, all reading and filling the evaluator's shared
//! caches — to the search one `predict` at a time: same layout, price,
//! candidates and work counters at 1, 2, 3 and 5 workers, over a first
//! window, a second one sharing queries with it, and a repeat of the second
//! that only the layout memo answers.
//!
//! The vendored proptest subset has no `prop_flat_map`, so the
//! dimension-dependent structures (columns, query bounds, probe orders)
//! are synthesized from drawn seeds with the kit's [`Lcg`] stream.

use flood_core::optimizer::{descend, GdConfig, SampleSpace};
use flood_core::{
    CorrelationConfig, CostEvaluator, CostModel, Layout, LayoutOptimizer, OptimizerConfig,
};
use flood_store::pool::ThreadPool;
use flood_store::{RangeQuery, Table};
use flood_testkit::{cases, lcg_table, Lcg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Value domains cycled across dimensions: wide, narrow, tiny — so column
/// boundaries land on ties, repeated values, and near-empty marginals.
const DOMAINS: [u64; 5] = [1 << 30, 5_000, 97, 1 << 16, 33];

fn make_table(d: usize, n: usize, seed: u64) -> Table {
    let domains: Vec<u64> = (0..d).map(|dim| DOMAINS[dim % DOMAINS.len()]).collect();
    lcg_table(n, seed, &domains)
}

/// 0–4 queries; each dimension is left unfiltered ~40% of the time.
fn make_queries(d: usize, seed: u64) -> Vec<RangeQuery> {
    let mut s = Lcg::new(seed, 33);
    let count = s.below(5);
    (0..count)
        .map(|_| {
            let mut q = RangeQuery::all(d);
            for dim in 0..d {
                if s.below(5) < 2 {
                    continue;
                }
                let a = s.next_u64() % 6_000;
                let b = s.next_u64() % 6_000;
                q = q.with_range(dim, a.min(b), a.max(b));
            }
            q
        })
        .collect()
}

/// 1–7 probes; each is a shuffled subset of the dimensions (sort dimension
/// last) plus per-grid-dim column counts in `1..=64`. Shuffling a fixed
/// universe guarantees orders never contain duplicates.
fn make_probes(d: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut s = Lcg::new(seed, 33);
    let count = 1 + s.below(7);
    (0..count)
        .map(|_| {
            let mut order: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                let j = s.below(i + 1);
                order.swap(i, j);
            }
            order.truncate(1 + s.below(d));
            let cols = (1..order.len()).map(|_| 1 + s.below(64)).collect();
            (order, cols)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_full_over_probe_sequences(
        d_raw in 0usize..4,
        n in 8usize..250,
        table_seed in any::<u64>(),
        q_seed in any::<u64>(),
        probe_seed in any::<u64>(),
        sample in 16usize..400,
    ) {
        let d = 2 + d_raw;
        let table = make_table(d, n, table_seed);
        let queries = make_queries(d, q_seed);
        let mut rng = StdRng::seed_from_u64(table_seed ^ q_seed);
        let space = SampleSpace::build(&table, &queries, sample, &mut rng, &CorrelationConfig::default());
        let mut cache = space.stats_cache();
        for (order, cols) in make_probes(d, probe_seed) {
            let full = space.query_stats(&order, &cols);
            let cached = space.query_stats_cached(&order, &cols, &mut cache);
            prop_assert_eq!(&full, &cached, "order {:?} cols {:?}", &order, &cols);
        }
    }

    /// The same probes replayed in reverse through a warm cache — with
    /// every per-dimension entry already present — must still match the
    /// full scan (cache entries are immutable facts, never invalidated by
    /// later probes).
    #[test]
    fn revisits_through_a_warm_cache_stay_exact(
        d_raw in 0usize..3,
        n in 8usize..200,
        table_seed in any::<u64>(),
        q_seed in any::<u64>(),
        probe_seed in any::<u64>(),
    ) {
        let d = 2 + d_raw;
        let table = make_table(d, n, table_seed);
        let queries = make_queries(d, q_seed);
        let mut rng = StdRng::seed_from_u64(table_seed ^ q_seed);
        let space = SampleSpace::build(&table, &queries, usize::MAX, &mut rng, &CorrelationConfig::default());
        let mut cache = space.stats_cache();
        let probes = make_probes(d, probe_seed);
        for (order, cols) in &probes {
            let _ = space.query_stats_cached(order, cols, &mut cache);
        }
        let warm_recounts = cache.recounts();
        for (order, cols) in probes.iter().rev() {
            let full = space.query_stats(order, cols);
            let cached = space.query_stats_cached(order, cols, &mut cache);
            prop_assert_eq!(&full, &cached, "order {:?} cols {:?}", order, cols);
        }
        prop_assert_eq!(
            cache.recounts(),
            warm_recounts,
            "a warm cache must re-count nothing on replay"
        );
    }
}

/// 1–6 queries over `d` dimensions, each filtering most of them: loose
/// ranges (the lower end in the bottom fifth of the domain, the upper in
/// the top fifth, often the whole domain) with an occasional tight one.
fn make_loose_queries(d: usize, seed: u64) -> Vec<RangeQuery> {
    let mut s = Lcg::new(seed, 33);
    let count = 1 + s.below(6);
    (0..count)
        .map(|_| {
            let mut q = RangeQuery::all(d);
            for dim in 0..d {
                let domain = DOMAINS[dim % DOMAINS.len()];
                let (lo, hi) = match s.below(8) {
                    0 => continue,
                    1 => {
                        let a = s.next_u64() % domain;
                        (a, a + s.next_u64() % (domain / 16 + 1))
                    }
                    2 | 3 => (0, domain),
                    _ => (
                        s.next_u64() % (domain / 5 + 1),
                        domain - s.next_u64() % (domain / 5 + 1),
                    ),
                };
                q = q.with_range(dim, lo, hi);
            }
            q
        })
        .collect()
}

/// 2–9 probes over at least `d − 2` of the dimensions, with one or two
/// columns per grid dimension and now and then a few more.
fn make_narrow_probes(d: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut s = Lcg::new(seed, 33);
    let count = 2 + s.below(8);
    (0..count)
        .map(|_| {
            let mut order: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                let j = s.below(i + 1);
                order.swap(i, j);
            }
            order.truncate(d - s.below(3));
            let cols = (1..order.len())
                .map(|_| match s.below(10) {
                    0 => 3 + s.below(6),
                    _ => 1 + s.below(2),
                })
                .collect();
            (order, cols)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// The all-ones regime: many dimensions, one or two columns each, loose
    /// filters. Cached statistics — mostly flags, few bitmaps — equal the
    /// full scan's on every probe, and again on a warm replay.
    #[test]
    fn wide_spaces_at_one_or_two_columns_stay_exact(
        d_raw in 0usize..5,
        n in 1usize..300,
        table_seed in any::<u64>(),
        q_seed in any::<u64>(),
        probe_seed in any::<u64>(),
        sample in 1usize..400,
    ) {
        let d = 8 + d_raw;
        let table = make_table(d, n, table_seed);
        let queries = make_loose_queries(d, q_seed);
        let mut rng = StdRng::seed_from_u64(table_seed ^ q_seed);
        let space = SampleSpace::build(&table, &queries, sample, &mut rng, &CorrelationConfig::default());
        let mut cache = space.stats_cache();
        let probes = make_narrow_probes(d, probe_seed);
        for (order, cols) in probes.iter().chain(probes.iter().rev()) {
            let full = space.query_stats(order, cols);
            let cached = space.query_stats_cached(order, cols, &mut cache);
            prop_assert_eq!(&full, &cached, "order {:?} cols {:?}", order, cols);
        }
    }
}

/// Algorithm 1 one [`CostEvaluator::predict`] at a time: every probe of
/// every candidate, in candidate order, priced through the one evaluator
/// before the next — the reference a search split over a pool is
/// held to. Correlation is off, so no dimension collapses or re-weights.
/// Returns the winner, its price and every candidate's.
fn search_one_predict_at_a_time(
    opt: &LayoutOptimizer,
    eval: &mut CostEvaluator,
) -> (Layout, f64, Vec<(usize, f64)>) {
    let cfg = opt.config();
    let mut candidates = eval.space().dims_by_selectivity();
    if candidates.is_empty() {
        candidates = (0..eval.space().dims()).collect();
    }
    let gd = GdConfig {
        steps: cfg.gd_steps,
        max_total_cells: cfg.max_total_cells,
        ..Default::default()
    };
    let target_cells = (eval.space().full_len() / cfg.init_points_per_cell.max(1))
        .clamp(4, cfg.max_total_cells) as f64;
    let mut best: Option<(Layout, f64)> = None;
    let mut priced = Vec::new();
    for (i, &sort_dim) in candidates.iter().enumerate() {
        let order: Vec<usize> = (candidates.iter().enumerate())
            .filter(|&(j, _)| j != i)
            .map(|(_, &d)| d)
            .chain([sort_dim])
            .collect();
        let k = order.len() - 1;
        let init = vec![target_cells.log2() / k.max(1) as f64; k];
        let (cols, cost) = descend(&init, &gd, |cols| {
            eval.predict(&Layout::new(order.clone(), cols.to_vec()))
        });
        priced.push((sort_dim, cost));
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((Layout::new(order, cols), cost));
        }
    }
    let (layout, cost) = best.expect("at least one candidate");
    (layout, cost, priced)
}

/// What a search did to an evaluator: cost evaluations, memo hits, mask
/// recounts, mask reuses and cross-epoch hits.
fn work(eval: &CostEvaluator) -> [usize; 5] {
    [
        eval.cost_evals(),
        eval.cache_hits(),
        eval.dim_recounts(),
        eval.dim_reuses(),
        eval.cross_epoch_hits(),
    ]
}

fn delta(after: [usize; 5], before: [usize; 5]) -> [usize; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// A search split over a pool, one task per sort-dimension candidate,
    /// all pricing through one shared cache, equals the search one
    /// `predict` at a time: on a first window, on a second one sharing
    /// queries with it (masks and costs carried across the epoch), and on
    /// that window again — the same layout, price and candidates, bit for
    /// bit, and the same five counters, at 1, 2, 3 and 5 workers. The
    /// repeat search is answered from the memo alone.
    #[test]
    fn pooled_search_equals_one_predict_at_a_time(
        d_raw in 0usize..5,
        n in 64usize..400,
        table_seed in any::<u64>(),
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
        c_seed in any::<u64>(),
        sample in 32usize..400,
    ) {
        let d = 2 + d_raw;
        let table = make_table(d, n, table_seed);
        let [a, b, c] = [a_seed, b_seed, c_seed].map(|s| make_queries(d, s));
        let first: Vec<RangeQuery> = a.into_iter().chain(b.iter().cloned()).collect();
        let second: Vec<RangeQuery> = b.into_iter().chain(c).collect();
        let opt = LayoutOptimizer::with_config(
            CostModel::analytic_default(),
            OptimizerConfig {
                data_sample: sample,
                query_sample: 8,
                gd_steps: 4,
                max_total_cells: 1 << 10,
                init_points_per_cell: 16,
                correlation: CorrelationConfig { enabled: false, ..Default::default() },
                ..Default::default()
            },
        );
        let windows = [&first, &second, &second];
        for threads in [1, 2, 3, 5] {
            let pool = ThreadPool::new(threads);
            let mut reference = opt.evaluator_sampled(&table, &first);
            let mut pooled = opt.evaluator_sampled(&table, &first);
            for (phase, window) in windows.iter().enumerate() {
                for eval in [&mut reference, &mut pooled] {
                    eval.set_window(&opt.sample_queries(window).0);
                    eval.advance_epoch();
                }
                let before = work(&reference);
                let (layout, cost, candidates) = search_one_predict_at_a_time(&opt, &mut reference);
                let want = delta(work(&reference), before);
                let before = work(&pooled);
                let got = opt.optimize_on(&mut pooled, pool);
                let at = format!("{threads} workers, window {phase}");
                prop_assert_eq!(&got.layout, &layout, "{}", &at);
                prop_assert_eq!(got.predicted_ns.to_bits(), cost.to_bits(), "{}", &at);
                let bits = |c: &[(usize, f64)]| c.iter().map(|&(d, ns)| (d, ns.to_bits())).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got.candidates), bits(&candidates), "{}", &at);
                let counted = [got.cost_evals, got.cache_hits, got.dim_recounts, got.dim_reuses];
                prop_assert_eq!(counted, [want[0], want[1], want[2], want[3]], "{}", &at);
                prop_assert_eq!(delta(work(&pooled), before), want, "{}", &at);
                if phase == 2 {
                    prop_assert_eq!(got.cache_hits, got.cost_evals, "memo only, {}", &at);
                    prop_assert_eq!(got.dim_recounts + got.dim_reuses, 0, "{}", &at);
                }
            }
        }
    }
}
