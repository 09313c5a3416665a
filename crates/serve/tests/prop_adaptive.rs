//! Adaptive re-learning under drift: the one evaluator the adaptive loop
//! points at each window it checks and re-learns on must be a pure
//! optimization — every window priced and searched exactly as a
//! from-scratch evaluator would — and the diagnostics must prove the
//! sharing actually happened.
//!
//! The deterministic scenario runs with `data_sample ≥ n` (the whole table
//! flattened), where pooled and fresh are **bit-identical** by
//! construction: the data multiset never changes across rebuilds, so a full
//! sample gives both identical CDFs, identical flattened queries, and
//! multiset-invariant point counts. With a partial sample a pooled and a
//! fresh evaluator keep different (equally valid) samples alive, so the
//! property test checks the invariant that really matters: query *results*
//! never depend on what the cache holds.
//!
//! The loop under test is [`FloodServer`]'s: one worker, each query served
//! with [`FloodServer::execute`] and followed by one
//! [`FloodServer::maybe_adapt`] turn. The same loop must keep correlation
//! exploitation invisible in results as the layouts it adopts change.

use flood_core::{
    CorrelationConfig, CostModel, FloodConfig, FloodIndex, LayoutOptimizer, OptimizerConfig,
};
use flood_serve::{AdaptiveConfig, AdaptiveDiagnostics, FloodServer, ServeConfig};
use flood_store::{CountVisitor, RangeQuery, Table};
use flood_testkit::{count, fd_table, prime_table, Lcg};
use proptest::prelude::*;
use std::sync::Arc;

fn optimizer(full_sample: bool) -> LayoutOptimizer {
    LayoutOptimizer::with_config(
        CostModel::analytic_default(),
        OptimizerConfig {
            data_sample: if full_sample { usize::MAX } else { 400 },
            query_sample: 10,
            gd_steps: 5,
            max_total_cells: 1 << 10,
            ..Default::default()
        },
    )
}

/// The `i`-th query of a phase filtering `dim`.
fn phase_query(dim: usize, i: usize) -> RangeQuery {
    let lo = (i as u64 * 53) % 9_000;
    RangeQuery::all(3).with_range(dim, lo, lo + 180)
}

/// A two-phase drifting stream: dim-0 ranges, then dim-1 ranges.
fn drifting_stream(per_phase: usize) -> Vec<RangeQuery> {
    let phase = |dim: usize| (0..per_phase).map(move |i| phase_query(dim, i));
    phase(0).chain(phase(1)).collect()
}

/// A gradual drift: dim-0 ranges, then dim-0 and dim-1 ranges in turn, so
/// no run of dim-1 queries forms and only the cadence can see the change.
fn blended_stream(per_phase: usize) -> Vec<RangeQuery> {
    let blend = (0..per_phase).map(|i| phase_query(i % 2, i));
    (0..per_phase)
        .map(|i| phase_query(0, i))
        .chain(blend)
        .collect()
}

fn adaptive(full_sample: bool, t: &Table, train: &[RangeQuery]) -> FloodServer {
    adaptive_with(optimizer(full_sample), 1.1, t, train)
}

/// A one-worker server checking a window of 16 every 8 queries.
fn adaptive_with(
    optimizer: LayoutOptimizer,
    degradation_factor: f64,
    t: &Table,
    train: &[RangeQuery],
) -> FloodServer {
    FloodServer::build(
        t,
        train,
        optimizer,
        FloodConfig::default(),
        ServeConfig {
            adaptive: AdaptiveConfig {
                window: 16,
                check_every: 8,
                degradation_factor,
            },
            threads: 1,
            ..Default::default()
        },
    )
}

/// Serve `stream` one query at a time, each followed by an adaptation
/// turn, and return the build side's lifetime counters.
fn serve(s: &FloodServer, stream: &[RangeQuery]) -> AdaptiveDiagnostics {
    for q in stream {
        let mut v = CountVisitor::default();
        s.execute(q, None, &mut v);
        s.maybe_adapt();
    }
    s.diagnostics().adaptive
}

/// With the full table as the sample, the re-pointed evaluator and a cold
/// one agree bit for bit on every window of the stream and on its run: same
/// price for the incumbent layout, same search result — and the
/// diagnostics pin down that the adaptive loop did the shared work once.
#[test]
fn shared_and_cold_agree_bit_for_bit_on_full_sample() {
    let t = prime_table(3_000);
    let stream = drifting_stream(30);
    let train: Vec<RangeQuery> = stream[..16].to_vec();
    let opt = optimizer(true);

    // The windows `AdaptiveConfig { window: 16, check_every: 8 }` checks,
    // each over the table as the last adopted layout reordered it.
    let mut pooled = opt.evaluator_sampled(&t, &train);
    let sample = Arc::clone(pooled.space().data());
    let mut layout = opt.optimize_in(&mut pooled).layout;
    assert_eq!(layout, opt.optimize(&t, &train).layout, "initial learn");
    let mut windows = 0;
    for window in stream.windows(16).step_by(8) {
        let index = FloodIndex::build(&t, layout.clone(), FloodConfig::default());
        let data = index.data();
        pooled.set_window(&opt.sample_queries(window).0);
        assert_eq!(
            pooled.predict(&layout).to_bits(),
            opt.evaluator_sampled(data, window)
                .predict(&layout)
                .to_bits(),
            "check pricing must coincide"
        );
        let shared = opt.optimize_in(&mut pooled);
        let cold = opt.optimize(data, window);
        assert_eq!(shared.layout, cold.layout, "re-learns must coincide");
        assert_eq!(shared.predicted_ns.to_bits(), cold.predicted_ns.to_bits());
        // A shift check searches the window's last 8 queries, its run,
        // through a query set of its own.
        let run = &window[8..];
        pooled.set_window(&opt.sample_queries(run).0);
        assert_eq!(
            pooled.predict(&layout).to_bits(),
            opt.evaluator_sampled(data, run).predict(&layout).to_bits(),
            "run pricing must coincide"
        );
        let shared_run = opt.optimize_in(&mut pooled);
        let cold_run = opt.optimize(data, run);
        assert_eq!(
            shared_run.layout, cold_run.layout,
            "run searches must coincide"
        );
        assert_eq!(
            shared_run.predicted_ns.to_bits(),
            cold_run.predicted_ns.to_bits()
        );
        layout = shared.layout;
        windows += 1;
    }
    assert!(
        Arc::ptr_eq(&sample, pooled.space().data()),
        "one flatten for every window"
    );
    // The first window is the training set, which the evaluator is
    // already on; every other window and run is a query set of its own.
    assert_eq!(
        (pooled.window_flattens(), pooled.window_reuses()),
        (2 * windows, 1)
    );

    // The work ledger of the loop that ships. The abrupt shift's run of 8
    // makes the check due and its search reads the run alone; the blended
    // drift makes no run, so a cadence check searches the window it priced.
    for (stream, run_searches) in [(stream, 1), (blended_stream(30), 0)] {
        let d = serve(&adaptive(true, &t, &train), &stream);
        assert!(d.relearns >= 1, "the drift must trigger a re-learn: {d:?}");
        assert!(d.relearn_searches >= d.relearns, "{d:?}");
        assert_eq!(d.sample_flattens, 1, "{d:?}");
        assert_eq!(d.run_searches, run_searches, "{d:?}");
        assert_eq!(
            (d.window_flattens, d.window_reuses),
            (1 + d.checks + d.run_searches, 0),
            "one per build, check and run search: {d:?}"
        );
        // Only a window search reads the queries its check priced; pricing
        // the old layout on a shifted run builds masks on dimensions the
        // search moves away from.
        if run_searches == 0 {
            assert!(
                d.cache_hits_across_relearns > 0,
                "the check's pricing must feed the search: {d:?}"
            );
        }
    }
}

/// Re-running the same deterministic scenario reproduces the same
/// diagnostics — the counters are part of the observable contract.
#[test]
fn diagnostics_are_deterministic() {
    let t = prime_table(2_000);
    let stream = drifting_stream(24);
    let train: Vec<RangeQuery> = stream[..16].to_vec();
    let run = || {
        let mut d = serve(&adaptive(true, &t, &train), &stream);
        d.relearn_wall = Default::default(); // wall-clock is the only nondeterministic field
        d
    };
    assert_eq!(run(), run());
}

/// Re-learning carries the search's FDs over: two servers, correlation on
/// (exploit-everything detection) and off, serve a stream that drifts from
/// host-filtering to dependent-filtering. Each re-learn rebuilds the
/// support for the new layout's FDs (collapse or not), and every answer
/// along the way must match brute force and the correlation-off twin.
#[test]
fn adaptive_relearn_under_drifting_correlation_stays_exact() {
    // A soft FD `d1 ≈ 2·d0 + noise` (noise width 64) that 5% of the rows
    // break.
    let t = fd_table(3_000, 42, 64, 5);
    // Phase 1 filters the host; phase 2 drifts to the dependent plus an
    // independent dimension the initial layout never indexed.
    let phase1 = (0..30).map(|i| {
        let lo = (i as u64 * 977) % 9_000;
        RangeQuery::all(4).with_range(0, lo, lo + 400)
    });
    let phase2 = (0..30).map(|i| {
        let lo = (i as u64 * 977) % 16_000;
        RangeQuery::all(4).with_range(1, lo, lo + 800).with_range(
            3,
            (i as u64 * 31_337) % (1 << 19),
            1 << 19,
        )
    });
    let stream: Vec<RangeQuery> = phase1.chain(phase2).collect();
    let train: Vec<RangeQuery> = stream[..16].to_vec();

    let server = |correlation: CorrelationConfig| {
        let optimizer = LayoutOptimizer::with_config(
            CostModel::analytic_default(),
            OptimizerConfig {
                data_sample: usize::MAX,
                query_sample: 10,
                gd_steps: 5,
                max_total_cells: 1 << 10,
                correlation,
                ..Default::default()
            },
        );
        adaptive_with(optimizer, 1.0, &t, &train) // re-learn at every check
    };
    let on = server(CorrelationConfig {
        enabled: true,
        min_strength: 0.3,
        reweight_strength: 0.1,
        max_outlier_rate: 0.1,
        ..Default::default()
    });
    let off = server(CorrelationConfig {
        enabled: false,
        ..Default::default()
    });

    for q in &stream {
        let [count_on, count_off] = [&on, &off].map(|s| {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
            s.maybe_adapt();
            v.count
        });
        let truth = count(&t, q);
        assert_eq!(count_on, count_off, "adaptive on/off diverged");
        assert_eq!(count_on, truth, "adaptive wrong vs oracle");
    }
    assert!(
        on.diagnostics().adaptive.relearns >= 1,
        "the drifting stream must trigger at least one re-learn"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// What the cache holds never changes what queries return, whatever
    /// the stream looks like — a partial sample outlives the row order it
    /// was drawn from, so layouts may differ from a fresh learn's, but
    /// layouts never change result sets.
    #[test]
    fn cache_mode_never_changes_results(
        seed in any::<u64>(),
        n_raw in 0u64..3,
        stream_len in 8usize..40,
    ) {
        let n = 600 + n_raw * 350;
        let t = prime_table(n);
        // Seed-derived stream mixing dims and widths (vendored proptest
        // has no flat_map; derive structure from a seeded stream).
        let mut rng = Lcg::new(seed, 33);
        let stream: Vec<RangeQuery> = (0..stream_len)
            .map(|_| {
                let dim = (rng.next_u64() % 3) as usize;
                let lo = rng.next_u64() % 9_000;
                let width = 50 + rng.next_u64() % 2_000;
                RangeQuery::all(3).with_range(dim, lo, lo + width)
            })
            .collect();
        let train: Vec<RangeQuery> = stream[..stream.len().min(8)].to_vec();

        let s = adaptive(false, &t, &train);
        for q in &stream {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
            s.maybe_adapt();
            let truth = count(&t, q);
            prop_assert_eq!(v.count, truth);
        }
    }
}
