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
//! The vendored proptest subset has no `prop_flat_map`, so the
//! dimension-dependent structures (columns, query bounds, probe orders)
//! are synthesized from drawn seeds with a splitmix-style stream — the
//! same idiom `prop_flood.rs` uses for table content.

use flood_core::optimizer::SampleSpace;
use flood_core::CorrelationConfig;
use flood_store::{RangeQuery, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Value domains cycled across dimensions: wide, narrow, tiny — so column
/// boundaries land on ties, repeated values, and near-empty marginals.
const DOMAINS: [u64; 5] = [1 << 30, 5_000, 97, 1 << 16, 33];

/// A deterministic 64-bit stream for seed-derived structure.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform draw from `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn make_table(d: usize, n: usize, seed: u64) -> Table {
    let mut s = Stream(seed | 1);
    Table::from_columns(
        (0..d)
            .map(|dim| {
                let domain = DOMAINS[dim % DOMAINS.len()];
                (0..n).map(|_| s.next() % domain).collect()
            })
            .collect(),
    )
}

/// 0–4 queries; each dimension is left unfiltered ~40% of the time.
fn make_queries(d: usize, seed: u64) -> Vec<RangeQuery> {
    let mut s = Stream(seed | 1);
    let count = s.below(5);
    (0..count)
        .map(|_| {
            let mut q = RangeQuery::all(d);
            for dim in 0..d {
                if s.below(5) < 2 {
                    continue;
                }
                let a = s.next() % 6_000;
                let b = s.next() % 6_000;
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
    let mut s = Stream(seed | 1);
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
    let mut s = Stream(seed | 1);
    let count = 1 + s.below(6);
    (0..count)
        .map(|_| {
            let mut q = RangeQuery::all(d);
            for dim in 0..d {
                let domain = DOMAINS[dim % DOMAINS.len()];
                let (lo, hi) = match s.below(8) {
                    0 => continue,
                    1 => {
                        let a = s.next() % domain;
                        (a, a + s.next() % (domain / 16 + 1))
                    }
                    2 | 3 => (0, domain),
                    _ => (
                        s.next() % (domain / 5 + 1),
                        domain - s.next() % (domain / 5 + 1),
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
    let mut s = Stream(seed | 1);
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

/// Case-count override from `FLOOD_PROPTEST_CASES` (unset/invalid → default).
fn cases(default: u32) -> u32 {
    std::env::var("FLOOD_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
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
