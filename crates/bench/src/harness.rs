//! The one harness every experiment runs on: configuration, the memoized
//! cost model, the phase ledger, and the single dataset → cost model →
//! learn → build → drive path. An experiment asks it for data, layouts,
//! indexes and timed runs, and is left with rows and (optionally)
//! assertions; every clock read of the suite is in this file.
//!
//! Query time is split from outside, the way Table 2 defines it: *index
//! time* (IT) is what [`PartitionedScan::plan_scan`] takes — projection and
//! refinement, a tree or curve traversal — and *scan time* (ST) is running
//! the planned ranges, so `IT + ST = TT` for every index that plans. The
//! UB-tree cannot plan (BIGMIN skipping decides where to go next from the
//! row it just checked), so its whole cursor loop counts as scan time and
//! its IT is zero — the paper's Table 2 shows it near zero for the same
//! reason.

use crate::experiments::ExpConfig;
use crate::phases::Phases;
use flood_baselines::{
    ClusteredIndex, FullScan, GridFile, Hyperoctree, KdTree, RStarTree, UbTree, ZOrderIndex,
};
use flood_core::cost::calibration::{calibrate, CalibrationConfig};
use flood_core::index::PhaseTimes;
use flood_core::optimizer::OptimizedLayout;
use flood_core::{CostModel, FloodConfig, FloodIndex, Layout, LayoutOptimizer, OptimizerConfig};
use flood_data::workloads::{DimFilter, QueryBuilder, QueryTemplate};
use flood_data::{Dataset, DatasetKind, Workload, WorkloadKind};
use flood_obs::{metrics::global, Histogram, HistogramSummary};
use flood_store::{
    CountVisitor, MultiDimIndex, PartitionedScan, RangeQuery, ScanStats, ScanStatsMetrics, Table,
};
use std::cell::OnceCell;
use std::time::{Duration, Instant};

/// One experiment's harness.
#[derive(Debug)]
pub struct Harness {
    /// Scale, query budget, seed, sweep size.
    pub cfg: ExpConfig,
    /// Where this experiment's wall-clock went.
    pub phases: Phases,
    /// The cost model every layout search uses, calibrated on first use.
    model: OnceCell<CostModel>,
}

/// The §7.2 baselines, in Fig 7's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// No index.
    FullScan,
    /// Sorted on the most selective dimension.
    Clustered,
    /// Bulk-loaded R\*-tree.
    RStarTree,
    /// Z-order curve over pages.
    ZOrder,
    /// Z-order with BIGMIN skipping.
    UbTree,
    /// 2^d-ary space partition.
    Hyperoctree,
    /// Median-split binary partition.
    KdTree,
    /// Grid File (its directory may blow up on skew).
    GridFile,
}

impl Baseline {
    /// Every baseline.
    pub const ALL: [Baseline; 8] = [
        Baseline::FullScan,
        Baseline::Clustered,
        Baseline::RStarTree,
        Baseline::ZOrder,
        Baseline::UbTree,
        Baseline::Hyperoctree,
        Baseline::KdTree,
        Baseline::GridFile,
    ];
    /// The page-organised ones Figs 8–10 sweep and hold fixed.
    pub const PAGED: [Baseline; 4] = [
        Baseline::ZOrder,
        Baseline::UbTree,
        Baseline::Hyperoctree,
        Baseline::KdTree,
    ];

    fn build(self, table: &Table, dims: &[usize], page: Option<usize>) -> Result<Built, String> {
        let d = dims.to_vec();
        // Every paged baseline has the same default.
        let page = page.unwrap_or(flood_baselines::zorder::DEFAULT_PAGE_SIZE);
        let planned = |i: Box<dyn PartitionedScan>| Ok(Built::Planned(i));
        match self {
            Baseline::FullScan => planned(Box::new(FullScan::build(table))),
            Baseline::Clustered => planned(Box::new(ClusteredIndex::build(table, d[0]))),
            Baseline::RStarTree => planned(Box::new(RStarTree::build(table, d))),
            Baseline::ZOrder => {
                planned(Box::new(ZOrderIndex::build_with_page_size(table, d, page)))
            }
            Baseline::UbTree => Ok(Built::UbTree(UbTree::build_with_page_size(table, d, page))),
            Baseline::Hyperoctree => {
                planned(Box::new(Hyperoctree::build_with_page_size(table, d, page)))
            }
            Baseline::KdTree => planned(Box::new(KdTree::build_with_page_size(table, d, page))),
            Baseline::GridFile => match GridFile::build(table, d) {
                Ok(gf) => planned(Box::new(gf)),
                Err(e) => Err(e.to_string()),
            },
        }
    }
}

/// A built baseline.
pub enum Built {
    /// One that plans.
    Planned(Box<dyn PartitionedScan>),
    /// The one that does not.
    UbTree(UbTree),
}

/// An index as [`Harness::drive`] takes it.
#[derive(Clone, Copy)]
pub enum Subject<'a> {
    /// Plans, so index time and scan time are clocked apart.
    Planned(&'a dyn PartitionedScan),
    /// Navigation and row checks interleave: all of it is scan time.
    UbTree(&'a UbTree),
}

impl<'a, T: PartitionedScan> From<&'a T> for Subject<'a> {
    fn from(index: &'a T) -> Self {
        Subject::Planned(index)
    }
}

impl<'a> From<&'a Built> for Subject<'a> {
    fn from(built: &'a Built) -> Self {
        match built {
            Built::Planned(index) => Subject::Planned(&**index),
            Built::UbTree(ub) => Subject::UbTree(ub),
        }
    }
}

/// One index driven over one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Index display name.
    pub index: String,
    /// Queries executed.
    pub queries: usize,
    /// Table 2's IT, summed over the workload.
    pub index_time: Duration,
    /// Table 2's ST, summed over the workload.
    pub scan_time: Duration,
    /// Counters summed over the workload.
    pub stats: ScanStats,
    /// Index structure size in bytes.
    pub index_size: usize,
    /// Build time (zero when the caller did not build through the harness).
    pub build_time: Duration,
}

impl RunResult {
    /// Table 2's TT, summed over the workload.
    pub fn total_time(&self) -> Duration {
        self.index_time + self.scan_time
    }

    /// Average query time.
    pub fn avg_query(&self) -> Duration {
        self.total_time() / self.queries.max(1) as u32
    }

    /// Average query time in milliseconds.
    pub fn avg_ms(&self) -> f64 {
        self.avg_query().as_secs_f64() * 1e3
    }

    /// Points touched: scanned plus covered by exact ranges (`N_s`).
    pub fn touched(&self) -> u64 {
        self.stats.points_scanned + self.stats.points_in_exact_ranges
    }

    /// Scan overhead (Table 2's SO).
    pub fn scan_overhead(&self) -> f64 {
        self.stats.scan_overhead().unwrap_or(f64::NAN)
    }

    /// The index name, short enough for a one-line series.
    pub fn short_name(&self) -> String {
        self.index.replace(' ', "").chars().take(8).collect()
    }
}

impl Harness {
    /// A harness that calibrates its cost model on this machine the first
    /// time a layout is learned (§4.1.1: a one-time cost; Table 3: the
    /// weights transfer across datasets, so one synthetic calibration
    /// serves a whole experiment).
    pub fn new(cfg: ExpConfig, verbose: bool) -> Self {
        Harness {
            cfg,
            phases: Phases::new(verbose),
            model: OnceCell::new(),
        }
    }

    /// A harness under the pinned [`CostModel::analytic_default`]: layouts
    /// repeat run to run, which is what the test suite wants.
    pub fn pinned(cfg: ExpConfig) -> Self {
        Harness {
            model: OnceCell::from(CostModel::analytic_default()),
            ..Harness::new(cfg, false)
        }
    }

    /// Nanoseconds each of `f(0)`, …, `f(n - 1)` took (`query-exec`).
    pub fn latencies(&self, n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
        let t0 = Instant::now();
        let ns = (0..n)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_nanos() as u64
            })
            .collect();
        self.phases.record("query-exec", t0.elapsed());
        ns
    }

    /// Run a generator under the `data-gen` phase.
    pub fn generate<T>(&self, f: impl FnOnce() -> T) -> T {
        self.phases.time("data-gen", f).0
    }

    /// Dataset `kind` at the configured scale and its Fig 7 (skewed OLAP)
    /// workload.
    pub fn dataset(&self, kind: DatasetKind) -> (Dataset, Workload) {
        let cfg = &self.cfg;
        self.generate(|| {
            let ds = kind.generate(cfg.rows(kind), cfg.seed);
            let w = self.workload(&ds, WorkloadKind::OlapSkewed, cfg.queries);
            (ds, w)
        })
    }

    /// An `n`-query workload of `kind` at the paper's default selectivity.
    pub fn workload(&self, ds: &Dataset, kind: WorkloadKind, n: usize) -> Workload {
        let cfg = &self.cfg;
        Workload::generate(kind, ds, n, cfg.target_selectivity(), cfg.seed)
    }

    /// The cost model layouts are learned under.
    pub fn cost_model(&self) -> &CostModel {
        self.model.get_or_init(|| {
            let calibration = || {
                let table = flood_data::datasets::uniform::generate(50_000, 4, 0xCA11B);
                let w = dimensional_workload(&table, 4, &[0.001, 0.01, 0.1], 30, 0xCA11B);
                let cal = CalibrationConfig {
                    n_layouts: 8,
                    max_cells_log2: 13,
                    reps: 2,
                    ..Default::default()
                };
                let (models, report) = calibrate(&table, &w.train, cal);
                self.phases.progress(&format!(
                    "calibrated cost model: {} wp / {} wr / {} ws examples",
                    report.examples.0, report.examples.1, report.examples.2
                ));
                CostModel::new(models)
            };
            self.phases.time("calibration", calibration).0
        })
    }

    /// A layout optimizer over [`Self::cost_model`].
    pub fn optimizer(&self, ocfg: OptimizerConfig) -> LayoutOptimizer {
        LayoutOptimizer::with_config(self.cost_model().clone(), ocfg)
    }

    /// Algorithm 1 over `train` under [`Self::cost_model`] (`layout-opt`).
    pub fn learn(
        &self,
        table: &Table,
        train: &[RangeQuery],
        ocfg: OptimizerConfig,
    ) -> OptimizedLayout {
        self.learn_under(self.cost_model(), table, train, ocfg)
    }

    /// [`Self::learn`] under a cost model of the caller's (Table 3).
    pub fn learn_under(
        &self,
        model: &CostModel,
        table: &Table,
        train: &[RangeQuery],
        ocfg: OptimizerConfig,
    ) -> OptimizedLayout {
        let optimizer = LayoutOptimizer::with_config(model.clone(), ocfg);
        let (learned, dt) = self
            .phases
            .time("layout-opt", || optimizer.optimize(table, train));
        self.phases.progress(&format!(
            "learned layout {} ({} cells, {} cost evals, {} memo hits, {}/{} dim recounts/reuses) in {:.2}s",
            learned.layout,
            learned.layout.num_cells(),
            learned.cost_evals,
            learned.cache_hits,
            learned.dim_recounts,
            learned.dim_reuses,
            dt.as_secs_f64()
        ));
        learned
    }

    /// Build Flood over `layout` (`index-build`); the index and its
    /// loading time.
    pub fn build_flood(
        &self,
        table: &Table,
        layout: Layout,
        fcfg: FloodConfig,
    ) -> (FloodIndex, Duration) {
        self.phases
            .time("index-build", || FloodIndex::build(table, layout, fcfg))
    }

    /// The paper's automatic path at the experiment's stock budget: learn
    /// a layout on `train`, build Flood with it; the index and how long
    /// both took.
    pub fn learn_flood(&self, table: &Table, train: &[RangeQuery]) -> (FloodIndex, Duration) {
        let t0 = Instant::now();
        let learned = self.learn(table, train, self.cfg.optimizer(table.len()));
        let (flood, _) = self.build_flood(table, learned.layout, FloodConfig::default());
        (flood, t0.elapsed())
    }

    /// Build baseline `b` over `dims` (`index-build`); `None`, with a note,
    /// when it cannot be built. `page` overrides the default page size of
    /// the [`Baseline::PAGED`] ones.
    pub fn build_baseline(
        &self,
        b: Baseline,
        table: &Table,
        dims: &[usize],
        page: Option<usize>,
    ) -> Option<(Built, Duration)> {
        let (built, dt) = self
            .phases
            .time("index-build", || b.build(table, dims, page));
        match built {
            Ok(built) => Some((built, dt)),
            Err(e) => {
                eprintln!("  ({b:?} skipped: {e})");
                None
            }
        }
    }

    /// The baselines Figs 9–10 tune once and hold fixed: the paged four and
    /// the Grid File where it builds.
    pub fn fixed_baselines(&self, table: &Table, dims: &[usize]) -> Vec<Built> {
        (Baseline::PAGED.into_iter().chain([Baseline::GridFile]))
            .filter_map(|b| Some(self.build_baseline(b, table, dims, None)?.0))
            .collect()
    }

    /// Drive `queries` through `index` (`query-exec`), clocking index time
    /// and scan time apart.
    pub fn drive<'a>(
        &self,
        index: impl Into<Subject<'a>>,
        queries: &[RangeQuery],
        agg_dim: Option<usize>,
    ) -> RunResult {
        let subject = index.into();
        let mut stats = ScanStats::default();
        let (mut index_time, mut scan_time) = (Duration::ZERO, Duration::ZERO);
        for q in queries {
            let mut v = CountVisitor::default();
            let t0 = Instant::now();
            match subject {
                Subject::Planned(index) => {
                    let plan = index.plan_scan(q, agg_dim, 1);
                    let planned = Instant::now();
                    stats.merge(&plan.plan_stats());
                    for task in 0..plan.tasks() {
                        plan.run_task(task, &mut v, &mut stats);
                    }
                    index_time += planned - t0;
                    scan_time += planned.elapsed();
                }
                Subject::UbTree(ub) => {
                    stats.merge(&ub.execute(q, agg_dim, &mut v));
                    scan_time += t0.elapsed();
                }
            }
        }
        let total = index_time + scan_time;
        self.phases.record("query-exec", total);
        // Bridge the workload's counters into the process-global registry,
        // so `repro --metrics` has scan-level content for every experiment.
        // Once per workload — the loop above is untouched.
        ScanStatsMetrics::register(global(), "scan").record(&stats);
        global()
            .counter("bench", "queries")
            .add(queries.len() as u64);
        global()
            .histogram("bench", "workload_ns")
            .record(total.as_nanos() as u64);
        let (name, index_size) = match subject {
            Subject::Planned(index) => (index.name(), index.index_size_bytes()),
            Subject::UbTree(ub) => (ub.name(), ub.index_size_bytes()),
        };
        RunResult {
            index: name.to_string(),
            queries: queries.len(),
            index_time,
            scan_time,
            stats,
            index_size,
            build_time: Duration::ZERO,
        }
    }

    /// Flood's own per-phase clocks (projection / refinement / scan) for
    /// each query, the fastest of `reps` runs — what §4.1.1 calibrates on.
    pub fn profile(
        &self,
        index: &FloodIndex,
        queries: &[RangeQuery],
        reps: usize,
    ) -> Vec<(ScanStats, PhaseTimes)> {
        let best = |q| {
            (0..reps.max(1))
                .map(|_| index.execute_profiled(q, None, &mut CountVisitor::default()))
                .min_by_key(|(_, times)| times.total_ns())
                .expect("at least one rep")
        };
        let profile = || queries.iter().map(best).collect();
        self.phases.time("query-exec", profile).0
    }

    /// Build every baseline not in `skip`, tuned on `w.train`, and learned
    /// Flood; drive `w.test` through each (Fig 7's data, one row per index
    /// in [`Baseline::ALL`]'s order — Full Scan first — then Flood, last).
    pub fn compare_all(
        &self,
        table: &Table,
        w: &Workload,
        agg_dim: Option<usize>,
        skip: &[Baseline],
    ) -> Vec<RunResult> {
        let dims = index_dims(table, &w.train);
        let mut out = Vec::new();
        for b in Baseline::ALL.into_iter().filter(|b| !skip.contains(b)) {
            if let Some((built, build_time)) = self.build_baseline(b, table, &dims, None) {
                out.push(RunResult {
                    build_time,
                    ..self.drive(&built, &w.test, agg_dim)
                });
            }
        }
        let (flood, build_time) = self.learn_flood(table, &w.train);
        out.push(RunResult {
            build_time,
            ..self.drive(&flood, &w.test, agg_dim)
        });
        out
    }
}

/// §7.5's dimensional workload: one template per `k = 1..=max_k` filtered
/// dimensions (the first `k`) and per overall selectivity in `targets`,
/// split evenly across the filtered dimensions, at equal weight.
pub fn dimensional_workload(
    table: &Table,
    max_k: usize,
    targets: &[f64],
    n: usize,
    seed: u64,
) -> Workload {
    let templates: Vec<QueryTemplate> = (1..=max_k)
        .flat_map(|k| {
            targets.iter().map(move |&total| {
                let per_dim = total.powf(1.0 / k as f64);
                QueryTemplate::new(
                    &format!("k{k}s{total}"),
                    (0..k).map(|d| DimFilter::range(d, per_dim)).collect(),
                )
            })
        })
        .collect();
    let weights = vec![1.0; templates.len()];
    QueryBuilder::new(table, seed).workload("dims", &templates, &weights, n, None)
}

/// Latency percentiles from the shared `flood-obs` histogram — the one
/// percentile implementation experiments report through. Quantiles are
/// within [`Histogram::RELATIVE_ERROR`] of the exact sorted-sample answer.
pub fn percentiles_from_ns(ns: &[u64]) -> HistogramSummary {
    let h = Histogram::new();
    for &v in ns {
        h.record(v);
    }
    h.summary()
}

/// Average fraction of (a strided sample of) the rows that the queries
/// filtering dimension `d` keep; `None` when no query filters it.
pub fn avg_selectivity(table: &Table, queries: &[RangeQuery], d: usize) -> Option<f64> {
    let n = table.len().max(1);
    let step = (n / 2_000).max(1);
    let fractions: Vec<f64> = queries
        .iter()
        .filter_map(|q| q.bound(d))
        .map(|(lo, hi)| {
            let sampled = (0..n).step_by(step);
            let seen = sampled.len();
            let hits = sampled
                .filter(|&r| (lo..=hi).contains(&table.value(r, d)))
                .count();
            hits as f64 / seen as f64
        })
        .collect();
    (!fractions.is_empty()).then(|| fractions.iter().sum::<f64>() / fractions.len() as f64)
}

/// Per-dimension selectivity ordering for baseline tuning: most selective
/// (smallest average fraction of rows matched) first, unfiltered dims last.
pub fn dims_by_selectivity(table: &Table, queries: &[RangeQuery]) -> Vec<usize> {
    let avg: Vec<Option<f64>> = (0..table.dims())
        .map(|d| avg_selectivity(table, queries, d))
        .collect();
    let mut dims: Vec<usize> = (0..table.dims()).collect();
    dims.sort_by(|&a, &b| {
        // Filtered dims first, then by ascending selectivity fraction.
        (avg[b].is_some().cmp(&avg[a].is_some())).then(avg[a].partial_cmp(&avg[b]).expect("finite"))
    });
    dims
}

/// Dimensions some query in `train` filters, most selective first — what
/// the baselines index on (every dimension when none is filtered).
pub fn index_dims(table: &Table, train: &[RangeQuery]) -> Vec<usize> {
    let mut dims = dims_by_selectivity(table, train);
    // Filtered dimensions sort first.
    let filtered = dims
        .iter()
        .take_while(|&&d| train.iter().any(|q| q.filters(d)))
        .count();
    if filtered > 0 {
        dims.truncate(filtered);
    }
    dims
}

/// Format milliseconds in the paper's 3-sig-figs style.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.3}")
    }
}

/// Format bytes human-readably (Fig 8 axis style).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.1}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}kB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Print a run-result table.
pub fn print_results(title: &str, results: &[RunResult]) {
    println!("\n=== {title} ===");
    println!(
        "{:<14} {:>12} {:>10} {:>12} {:>12}",
        "index", "avg query(ms)", "SO", "index size", "build(s)"
    );
    for r in results {
        println!(
            "{:<14} {:>12} {:>10.2} {:>12} {:>12.2}",
            r.index,
            fmt_ms(r.avg_ms()),
            r.scan_overhead(),
            fmt_bytes(r.index_size),
            r.build_time.as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_ordering_prefers_filtered_dims() {
        let n = 5_000u64;
        let t = Table::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|i| i % 100).collect(),
            (0..n).map(|i| i % 7).collect(),
        ]);
        let qs = vec![
            RangeQuery::all(3).with_range(0, 0, 49), // ~1%
            RangeQuery::all(3).with_range(1, 0, 49), // ~50%
        ];
        let dims = dims_by_selectivity(&t, &qs);
        assert_eq!(dims[0], 0, "most selective first: {dims:?}");
        assert_eq!(dims[1], 1);
        assert_eq!(dims[2], 2, "unfiltered last");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0kB");
        assert_eq!(fmt_ms(1.5), "1.50");
    }

    /// The histogram-derived percentiles agree with the exact
    /// sort-and-index computation they replaced, on a fixed latency-shaped
    /// sample, within the histogram's documented error bound.
    #[test]
    fn histogram_percentiles_agree_with_exact_sort() {
        // Deterministic sample: a tight mode around 25µs, a slower mode
        // around 300µs, and a handful of multi-ms outliers.
        let mut ns: Vec<u64> = Vec::new();
        let mut rng = flood_testkit::Lcg::new(0x5EED, 0);
        let mut next = || rng.next_u64();
        ns.extend((0..2_000).map(|_| 25_000 + next() % 8_000));
        ns.extend((0..120).map(|_| 300_000 + next() % 60_000));
        ns.extend((0..8u64).map(|i| 2_000_000 + i * 700_000));
        let got = percentiles_from_ns(&ns);
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        let exact = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        assert_eq!(got.count as usize, ns.len());
        for (q, v) in [
            (0.50, got.p50),
            (0.90, got.p90),
            (0.99, got.p99),
            (0.999, got.p999),
        ] {
            let want = exact(q);
            let err = (v as f64 - want as f64).abs() / want as f64;
            assert!(
                err <= Histogram::RELATIVE_ERROR,
                "p{q}: histogram {v} vs exact {want} (err {err})"
            );
        }
        assert_eq!(got.min, sorted[0]);
        assert_eq!(got.max, *sorted.last().unwrap());
    }

    /// Every workload run leaves its aggregate counters in the
    /// process-global registry (what `repro --metrics` exposes), and splits
    /// its time the way Table 2 does.
    #[test]
    fn run_workload_bridges_into_global_registry() {
        let n = 2_000u64;
        let t = Table::from_columns(vec![(0..n).collect(), (0..n).map(|i| i % 40).collect()]);
        let qs = vec![
            RangeQuery::all(2).with_range(0, 0, 99),
            RangeQuery::all(2).with_range(1, 5, 10),
        ];
        let h = Harness::pinned(ExpConfig::default());
        let before = global().snapshot();
        let before_q = before.counter("bench", "queries").unwrap_or(0);
        let before_scanned = before.counter("scan", "points_scanned").unwrap_or(0);
        let planned = h.drive(&FullScan::build(&t), &qs, None);
        let ub = h.drive(Subject::UbTree(&UbTree::build(&t, vec![0, 1])), &qs, None);
        let after = global().snapshot();
        assert_eq!(after.counter("bench", "queries"), Some(before_q + 4));
        assert_eq!(
            after.counter("scan", "points_scanned"),
            Some(before_scanned + planned.stats.points_scanned + ub.stats.points_scanned)
        );
        assert!(after.histogram("bench", "workload_ns").unwrap().count >= 2);
        // Driving through a plan changes no counter.
        let mut want = ScanStats::default();
        for q in &qs {
            want.merge(&FullScan::build(&t).execute(q, None, &mut CountVisitor::default()));
        }
        assert_eq!(planned.stats, want);
        assert_eq!(planned.stats.points_matched, ub.stats.points_matched);
        assert!(planned.index_time > Duration::ZERO && planned.scan_time > Duration::ZERO);
        assert_eq!(ub.index_time, Duration::ZERO, "the UB-tree cannot plan");
        assert!(h
            .phases
            .totals()
            .iter()
            .any(|(n, _, c)| n == "query-exec" && *c == 2));
    }
}
