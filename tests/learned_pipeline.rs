//! End-to-end tests of the learning pipeline: calibration → layout
//! optimization → build → execution, plus the ablation ordering the paper
//! reports (Fig 11) verified on the implementation-agnostic scan-overhead
//! metric rather than flaky wall-clock times.

use flood::core::cost::calibration::{calibrate, CalibrationConfig};
use flood::core::{CostModel, Flattening, FloodBuilder, Layout, LayoutOptimizer, OptimizerConfig};
use flood::data::{DatasetKind, Workload, WorkloadKind};
use flood::store::{CountVisitor, MultiDimIndex, RangeQuery, ScanStats, Table};

fn workload_so(index: &dyn MultiDimIndex, queries: &[RangeQuery]) -> f64 {
    let mut stats = ScanStats::default();
    for q in queries {
        let mut v = CountVisitor::default();
        stats.merge(&index.execute(q, None, &mut v));
    }
    stats.scan_overhead().unwrap_or(f64::INFINITY)
}

fn fast_opt(n: usize) -> OptimizerConfig {
    OptimizerConfig {
        data_sample: (n / 10).clamp(500, 4_000),
        query_sample: 20,
        gd_steps: 10,
        max_total_cells: 1 << 14,
        ..Default::default()
    }
}

#[test]
fn calibrated_pipeline_end_to_end() {
    let ds = DatasetKind::TpcH.generate(20_000, 9);
    let w = Workload::generate(WorkloadKind::OlapSkewed, &ds, 25, 0.002, 9);

    let (weights, report) = calibrate(
        &ds.table,
        &w.train[..10],
        CalibrationConfig {
            n_layouts: 3,
            max_cells_log2: 10,
            ..Default::default()
        },
    );
    assert!(report.examples.0 >= 30, "wp examples {:?}", report.examples);

    let optimizer = LayoutOptimizer::with_config(CostModel::new(weights), fast_opt(ds.table.len()));
    let learned = optimizer.optimize(&ds.table, &w.train);
    assert!(learned.predicted_ns.is_finite() && learned.predicted_ns > 0.0);

    let index = FloodBuilder::new().layout(learned.layout).build(&ds.table);
    // Correctness against the oracle on the *test* split.
    for q in &w.test {
        let mut v = CountVisitor::default();
        index.execute(q, None, &mut v);
        assert_eq!(v.count, flood_testkit::count(&ds.table, q));
    }
}

#[test]
fn learned_layout_beats_unindexed_dims() {
    // The learned layout's scan overhead must beat a layout gridding the
    // never-filtered dimension.
    let ds = DatasetKind::Sales.generate(20_000, 5);
    let w = Workload::generate(WorkloadKind::SingleType, &ds, 30, 0.002, 5);
    let optimizer =
        LayoutOptimizer::with_config(CostModel::analytic_default(), fast_opt(ds.table.len()));
    let learned = optimizer.optimize(&ds.table, &w.train);
    let flood = FloodBuilder::new()
        .layout(learned.layout.clone())
        .build(&ds.table);

    // An intentionally bad layout: grid on two dims the single-type
    // workload never touches.
    let touched: Vec<usize> = (0..ds.table.dims())
        .filter(|&d| w.train.iter().any(|q| q.filters(d)))
        .collect();
    let untouched: Vec<usize> = (0..ds.table.dims())
        .filter(|d| !touched.contains(d))
        .take(2)
        .collect();
    assert!(
        untouched.len() >= 2,
        "single-type workload leaves dims free"
    );
    let bad = FloodBuilder::new()
        .layout(Layout::new(
            vec![untouched[0], untouched[1], touched[0]],
            vec![16, 16],
        ))
        .build(&ds.table);

    let so_learned = workload_so(&flood, &w.test);
    let so_bad = workload_so(&bad, &w.test);
    assert!(
        so_learned < so_bad,
        "learned SO {so_learned:.1} should beat bad layout SO {so_bad:.1}"
    );
}

#[test]
fn flattening_reduces_scan_overhead_on_skew() {
    // Fig 11's +Flattening step, on the implementation-agnostic metric:
    // identical layouts, one with uniform spacing, one with learned CDFs,
    // on heavily skewed data.
    let n = 30_000usize;
    let table = Table::from_columns(vec![
        (0..n as u64).map(|i| (i * i) % 1_000_000).collect(), // quadratic skew
        (0..n as u64).map(|i| ((i * 31) % 173).pow(2)).collect(), // skewed small domain
        (0..n as u64).collect(),
    ]);
    let queries: Vec<RangeQuery> = (0..30)
        .map(|i| {
            let lo = (i * 1_000) as u64;
            RangeQuery::all(3)
                .with_range(0, lo, lo + 30_000)
                .with_range(2, 0, (n / 2) as u64)
        })
        .collect();
    let layout = Layout::new(vec![0, 1, 2], vec![32, 4]);
    let uniform = FloodBuilder::new()
        .layout(layout.clone())
        .flattening(Flattening::Uniform)
        .build(&table);
    let learned = FloodBuilder::new()
        .layout(layout)
        .flattening(Flattening::Learned)
        .build(&table);
    let so_u = workload_so(&uniform, &queries);
    let so_l = workload_so(&learned, &queries);
    assert!(
        so_l < so_u,
        "flattening should cut scan overhead on skewed data: {so_l:.2} vs {so_u:.2}"
    );
}

#[test]
fn sort_dim_refinement_gives_exact_ranges() {
    // +Sort Dim (Fig 11): with a sort-dim filter, the sorted variant scans
    // strictly fewer points than the histogram variant of the same budget.
    let ds = DatasetKind::TpcH.generate(20_000, 13);
    let queries: Vec<RangeQuery> = (0..20)
        .map(|i| {
            RangeQuery::all(7)
                .with_range(0, 100 + i * 20, 400 + i * 20)
                .with_range(1, 0, 2_000)
        })
        .collect();
    let hist = FloodBuilder::new()
        .layout(Layout::histogram(vec![0, 1], vec![16, 8]))
        .build(&ds.table);
    let sorted = FloodBuilder::new()
        .layout(Layout::new(vec![0, 1], vec![128]))
        .build(&ds.table);
    let so_h = workload_so(&hist, &queries);
    let so_s = workload_so(&sorted, &queries);
    assert!(
        so_s <= so_h,
        "sort-dim refinement should not scan more: {so_s:.2} vs {so_h:.2}"
    );
}

#[test]
fn optimizer_is_deterministic_per_seed() {
    let ds = DatasetKind::Osm.generate(10_000, 21);
    let w = Workload::generate(WorkloadKind::OlapUniform, &ds, 20, 0.002, 21);
    let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_opt(10_000));
    let a = opt.optimize(&ds.table, &w.train);
    let b = opt.optimize(&ds.table, &w.train);
    assert_eq!(a.layout, b.layout);
    assert_eq!(a.predicted_ns, b.predicted_ns);
}
