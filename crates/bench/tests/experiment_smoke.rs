//! Every experiment completes — the regression net for the "tractable
//! repro suite" guarantee — and the first paper-*shape* checks.
//!
//! Tests run unoptimized, so each experiment executes at a tiny scale with
//! a generous per-experiment budget, under the pinned analytic cost model
//! so layouts repeat run to run; the release-mode `repro` binary at its
//! default scale (the <10 s per experiment target) is exercised by the CI
//! smoke job and its numbers are recorded in BASELINES.md. The budget here
//! only catches order-of-magnitude regressions (an accidentally quadratic
//! loop, a removed cache), not seconds-level drift.

use flood_bench::experiments::{self as exp, ExpConfig, EXPERIMENTS};
use flood_bench::harness::Harness;
use flood_data::DatasetKind;
use std::time::{Duration, Instant};

/// Tiny but non-degenerate: a few thousand rows, enough queries for every
/// workload template to appear.
fn tiny() -> Harness {
    Harness::pinned(ExpConfig {
        scale: 0.02,
        queries: 8,
        ..Default::default()
    })
}

/// Generous debug-mode budget per experiment.
const BUDGET: Duration = Duration::from_secs(180);

fn assert_completes(name: &str) {
    let (_, _, run) = EXPERIMENTS
        .iter()
        .find(|(registered, _, _)| *registered == name)
        .unwrap_or_else(|| panic!("{name} is not a registered experiment"));
    let t0 = Instant::now();
    run(&tiny());
    let elapsed = t0.elapsed();
    assert!(
        elapsed < BUDGET,
        "{name} took {elapsed:?} at tiny scale (budget {BUDGET:?}) — \
         an order-of-magnitude perf regression"
    );
}

/// One `#[test]` per experiment (libtest needs the names at compile time,
/// and they run in parallel), each looked up in the registry;
/// [`every_registered_experiment_is_smoked`] holds the two lists equal.
macro_rules! smoke {
    ($($name:ident),* $(,)?) => {
        const SMOKED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                assert_completes(stringify!($name));
            }
        )*
    };
}

smoke!(
    tab1, colstore, fig5, fig7, fig8, fig9, fig10, tab2, fig11, fig12, fig13, fig14, tab3, tab4,
    fig15, fig16, fig17, costmodel, lookup, correlate,
);

#[test]
fn every_registered_experiment_is_smoked() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(
        SMOKED, registered,
        "smoke!(…) must list the registry, in order"
    );
}

/// The harness attributes wall-clock to named phases while experiments run.
#[test]
fn experiments_record_phase_timings() {
    let h = tiny();
    exp::fig7::run_dataset(&h, DatasetKind::Sales);
    let rows = h.phases.totals();
    let phase = |n: &str| rows.iter().find(|(name, _, _)| name == n);
    for want in ["data-gen", "layout-opt", "index-build", "query-exec"] {
        let (_, total, count) = phase(want).unwrap_or_else(|| panic!("{want} phase recorded"));
        assert!(*count > 0);
        assert!(*total > Duration::ZERO);
    }
    assert!(
        phase("calibration").is_none(),
        "the pinned model never calibrates"
    );
}

/// Table 2's shape: index time and scan time, clocked apart from outside,
/// add up to the total; the UB-tree, which cannot plan, has no index time;
/// and (Fig 7 / Table 2) on every stand-in dataset Flood's learned layout
/// touches fewer points than a full scan.
#[test]
fn table2_splits_add_up_and_flood_touches_less_than_a_full_scan() {
    let h = tiny();
    for kind in DatasetKind::ALL {
        let rows = exp::tab2::run_dataset(&h, kind);
        let by_name = |name: &str| {
            rows.iter()
                .find(|r| r.index == name)
                .unwrap_or_else(|| panic!("{name} row on {}", kind.name()))
        };
        for r in &rows {
            let (it, st, tt) = (r.index_time, r.scan_time, r.total_time());
            assert_eq!(it + st, tt, "{} on {}", r.index, kind.name());
            assert!(st > Duration::ZERO, "{} on {}", r.index, kind.name());
            assert!(
                (r.avg_query().as_secs_f64() * r.queries as f64 - tt.as_secs_f64()).abs() < 1e-6,
                "TT is the sum over the workload's queries"
            );
        }
        assert_eq!(by_name("UB tree").index_time, Duration::ZERO);
        assert!(by_name("Flood").index_time > Duration::ZERO);
        let (flood, full) = (by_name("Flood").touched(), by_name("Full Scan").touched());
        assert!(
            flood < full,
            "{}: Flood touched {flood} points, Full Scan {full}",
            kind.name()
        );
    }
}
