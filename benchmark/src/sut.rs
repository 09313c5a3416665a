//! Every call into the system under test goes through this file, so the
//! measured public surface is readable in one place:
//!
//! * `flood-serve` — `FloodServer::{build, execute, serve_stream,
//!   maybe_adapt, force_relearn, snapshot, diagnostics, metrics_snapshot}`,
//!   `TieredServer::{seal, execute, insert, compact, snapshot, cache,
//!   diagnostics}`, `Published::{new, publish, snapshot}`;
//! * `flood-core` — `LayoutOptimizer::{new, evaluator_sampled,
//!   optimize_in}`, `CostEvaluator::predict`, `FloodIndex::{build,
//!   layout, active_fds, build_times, non_empty_cells, data}`,
//!   `cost::calibrate`, `CostModel::predict` (+ its serde form);
//! * `flood-store` — `MultiDimIndex::{execute, index_size_bytes}`,
//!   `PartitionedScan::plan_scan`, `ScanPlan::{tasks, run_task,
//!   plan_stats}`, `TieredScan::try_execute`, `StorageBackend` (wrapped by
//!   [`CountingBackend`]), `FileBackend::new`, `SegmentCache` counters,
//!   `Table::{from_columns, size_bytes}`;
//! * `flood-exec` — `QueryExecutor::{with_threads, execute,
//!   execute_batch}`;
//! * `flood-learned` — `Rmi::{build, predict}`,
//!   `PiecewiseLinearModel::{build, lookup_lb}`;
//! * `flood-obs` — `Histogram::{new, record}`, `MetricsSnapshot` readers;
//! * `flood-baselines` — `FullScan::build`.
//!
//! Configuration is the shipped one: every `*Config` is `Default` except
//! `ServeConfig::{threads, batch}` and what describes the data rather than
//! tunes the system ([`Shape`]). The cost model is the committed fixture.

use crate::gen::Query;
use crate::trace;
use flood_core::cost::calibration::{calibrate, CalibrationConfig};
use flood_core::cost::QueryStatistics;
use flood_core::{CostEvaluator, CostModel, FloodConfig, FloodIndex, LayoutOptimizer};
use flood_exec::QueryExecutor;
use flood_obs::MetricsSnapshot;
use flood_serve::{
    AdaptOutcome, FloodServer, IndexSnapshot, Published, ServeConfig, ServeDiagnostics,
    TieredServeDiagnostics, TieredServer, TieredSnapshot,
};
use flood_store::{
    FileBackend, MultiDimIndex, PartitionedScan, ScanPlan, SegmentKey, StorageBackend,
    StorageError, SumVisitor, TierConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use flood_core::optimizer::OptimizedLayout;
pub use flood_store::{RangeQuery, ScanStats, Table};

/// Batch size of the batched phase (`ServeConfig::batch`).
const BATCH: usize = 64;

/// The committed cost model, compiled in so a run never depends on where
/// it was started from.
pub const COST_MODEL_JSON: &str = include_str!("../fixtures/cost_model.json");

/// Workers for the batched phase: `min(2, nproc)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn load_cost_model() -> CostModel {
    serde_json::from_str(COST_MODEL_JSON).expect("fixtures/cost_model.json parses as a CostModel")
}

/// Run the system's own calibration once and serialize the result — the
/// only place the machine is measured; `run` never calibrates.
pub fn calibrate_cost_model(columns: &[Vec<u64>], queries: &[Query]) -> String {
    let cfg = CalibrationConfig {
        n_layouts: 8,
        max_cells_log2: 13,
        reps: 2,
        ..Default::default()
    };
    let (models, _report) = calibrate(&table(columns), &to_queries(queries), cfg);
    serde_json::to_string(&CostModel::new(models)).expect("cost model serializes")
}

pub fn table(columns: &[Vec<u64>]) -> Table {
    Table::from_columns(columns.to_vec())
}

pub fn to_query(q: &Query) -> RangeQuery {
    let mut out = RangeQuery::all(q.bounds.len());
    for (d, b) in q.bounds.iter().enumerate() {
        if let Some((lo, hi)) = b {
            out = out.with_range(d, *lo, *hi);
        }
    }
    out
}

pub fn to_queries<'a>(qs: impl IntoIterator<Item = &'a Query>) -> Vec<RangeQuery> {
    qs.into_iter().map(to_query).collect()
}

/// What a read returned: `(COUNT, SUM)` and the epoch it was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub count: u64,
    pub sum: u64,
    pub epoch: u64,
}

impl Answer {
    fn of(v: SumVisitor, epoch: u64) -> Self {
        Answer {
            count: v.count,
            sum: v.sum,
            epoch,
        }
    }
}

/// What about the *data* a resident server has to be told: which column
/// reads aggregate (it gets the cumulative column the paper's §7.1 uses)
/// and whether the stored copy is block-compressed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub agg_dim: Option<usize>,
    pub compress: bool,
}

impl Shape {
    fn flood_config(self) -> FloodConfig {
        FloodConfig {
            compress: self.compress,
            cumulative_dims: self.agg_dim.into_iter().collect(),
            ..Default::default()
        }
    }
}

/// One published layout, as recorded per epoch in `results.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutDesc {
    pub epoch: u64,
    pub order: Vec<usize>,
    pub sort_dim: usize,
    pub cols: Vec<usize>,
    /// `(dependent, host)` of every soft FD the index exploits.
    pub collapsed: Vec<(usize, usize)>,
}

fn describe(snap: &IndexSnapshot) -> LayoutDesc {
    let index = snap.index();
    LayoutDesc {
        epoch: snap.epoch(),
        order: index.layout().order().to_vec(),
        sort_dim: index.layout().sort_dim(),
        cols: index.layout().cols().to_vec(),
        collapsed: index.active_fds().iter().map(|f| (f.dep, f.host)).collect(),
    }
}

/// The resident stack: a `FloodServer` over one table.
pub struct Resident {
    server: FloodServer,
    agg_dim: Option<usize>,
}

pub type Adapt = AdaptOutcome;

impl Resident {
    /// Set-up as a user pays it: load the cost model, learn a layout for
    /// `train`, build the index, publish epoch 0.
    pub fn build(table: &Table, train: &[RangeQuery], shape: Shape) -> Self {
        let server = FloodServer::build(
            table,
            train,
            optimizer(),
            shape.flood_config(),
            ServeConfig {
                threads: pool_threads(),
                batch: BATCH,
                ..Default::default()
            },
        );
        Resident {
            server,
            agg_dim: shape.agg_dim,
        }
    }

    pub fn execute(&self, q: &RangeQuery) -> (Answer, ScanStats) {
        let mut v = SumVisitor::default();
        let (stats, epoch) = self.server.execute(q, self.agg_dim, &mut v);
        (Answer::of(v, epoch), stats)
    }

    pub fn maybe_adapt(&self) -> Adapt {
        self.server.maybe_adapt()
    }

    pub fn force_relearn(&self, workload: &[RangeQuery]) -> u64 {
        self.server.force_relearn(workload)
    }

    /// The batched path: `serve_stream::<SumVisitor>` in batches of
    /// [`BATCH`] on the server's pool.
    pub fn serve_stream(&self, queries: &[RangeQuery]) -> Vec<(Answer, ScanStats)> {
        self.server
            .serve_stream::<SumVisitor>(queries, self.agg_dim)
            .into_iter()
            .flat_map(|b| {
                let epoch = b.epoch;
                b.results
                    .into_iter()
                    .map(move |(v, s)| (Answer::of(v, epoch), s))
            })
            .collect()
    }

    pub fn snapshot(&self) -> IndexSnapshot {
        self.server.snapshot()
    }

    pub fn layout(&self) -> LayoutDesc {
        describe(&self.server.snapshot())
    }

    /// `(index bytes, stored data bytes)` of the live epoch.
    pub fn resident_bytes(&self) -> (usize, usize) {
        let snap = self.server.snapshot();
        (
            snap.index().index_size_bytes(),
            snap.index().data().size_bytes(),
        )
    }

    pub fn diagnostics(&self) -> ServeDiagnostics {
        self.server.diagnostics()
    }

    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.server
            .metrics_snapshot()
            .expect("metrics are on by default")
    }
}

/// `MultiDimIndex::execute` on a pinned epoch.
pub fn index_execute(
    snap: &IndexSnapshot,
    q: &RangeQuery,
    agg_dim: Option<usize>,
) -> (Answer, ScanStats) {
    let mut v = SumVisitor::default();
    let stats = snap.index().execute(q, agg_dim, &mut v);
    (Answer::of(v, snap.epoch()), stats)
}

/// Project + refine on a pinned epoch: `PartitionedScan::plan_scan(q, agg, 1)`.
pub fn index_plan<'a>(
    snap: &'a IndexSnapshot,
    q: &RangeQuery,
    agg_dim: Option<usize>,
) -> Box<dyn ScanPlan + 'a> {
    snap.index().plan_scan(q, agg_dim, 1)
}

/// Scan a planned query: every `ScanPlan::run_task`.
pub fn plan_scan(plan: &dyn ScanPlan) -> (u64, ScanStats) {
    let mut v = SumVisitor::default();
    let mut stats = plan.plan_stats();
    for i in 0..plan.tasks() {
        plan.run_task(i, &mut v, &mut stats);
    }
    (v.count, stats)
}

pub fn optimizer() -> LayoutOptimizer {
    LayoutOptimizer::new(load_cost_model())
}

/// Sample + flatten: `LayoutOptimizer::evaluator_sampled`.
pub fn evaluator(opt: &LayoutOptimizer, table: &Table, train: &[RangeQuery]) -> CostEvaluator {
    opt.evaluator_sampled(table, train)
}

/// The layout search: `LayoutOptimizer::optimize_in`.
pub fn search(opt: &LayoutOptimizer, eval: &mut CostEvaluator) -> OptimizedLayout {
    opt.optimize_in(eval)
}

/// What the cost model predicts for the live layout on `workload` (ns per
/// query), priced the way a re-learn would price it.
pub fn predicted_ns(
    opt: &LayoutOptimizer,
    table: &Table,
    workload: &[RangeQuery],
    snap: &IndexSnapshot,
) -> f64 {
    opt.evaluator_sampled(table, workload)
        .predict(snap.index().layout())
}

/// Build-side numbers of one `FloodIndex::build`.
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    pub flatten_ns: u64,
    pub sort_ns: u64,
    pub models_ns: u64,
    pub index_bytes: usize,
    pub data_bytes: usize,
    pub cells_nonempty: usize,
    pub fds_active: usize,
}

pub fn build_index(
    table: &Table,
    learned: &OptimizedLayout,
    shape: Shape,
) -> (FloodIndex, BuildReport) {
    let index = FloodIndex::build(table, learned.layout.clone(), shape.flood_config());
    let t = index.build_times();
    let report = BuildReport {
        flatten_ns: t.flatten_ns,
        sort_ns: t.sort_ns,
        models_ns: t.models_ns,
        index_bytes: index.index_size_bytes(),
        data_bytes: index.data().size_bytes(),
        cells_nonempty: index.non_empty_cells(),
        fds_active: index.active_fds().len(),
    };
    (index, report)
}

/// Publish `next` over `first` on a scratch publication point; returns the
/// nanoseconds the swap took.
pub fn publish_scratch<T>(first: T, next: T) -> u64 {
    let published = Published::new(first);
    let t0 = Instant::now();
    published.publish(next);
    let ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(published.snapshot().epoch(), 1);
    ns
}

/// `QueryExecutor::execute_batch` over any index on `threads` workers.
pub fn exec_batch<I>(
    threads: usize,
    index: &I,
    queries: &[RangeQuery],
    agg_dim: Option<usize>,
) -> Vec<(u64, u64)>
where
    I: MultiDimIndex + Sync + ?Sized,
{
    QueryExecutor::with_threads(threads)
        .execute_batch::<SumVisitor, _>(index, queries, agg_dim)
        .into_iter()
        .map(|(v, _)| (v.count, v.sum))
        .collect()
}

/// `QueryExecutor::execute`: one query, its scan split across `threads`.
pub fn exec_partitioned(
    threads: usize,
    index: &dyn PartitionedScan,
    q: &RangeQuery,
    agg_dim: Option<usize>,
) -> u64 {
    QueryExecutor::with_threads(threads)
        .execute::<SumVisitor>(index, q, agg_dim)
        .0
        .count
}

pub fn flood_index(snap: &IndexSnapshot) -> &FloodIndex {
    snap.index()
}

pub fn full_scan(table: &Table) -> flood_baselines::FullScan {
    flood_baselines::FullScan::build(table)
}

/// `MultiDimIndex::execute` on any index, COUNT/SUM answer only.
pub fn any_execute(
    index: &dyn MultiDimIndex,
    q: &RangeQuery,
    agg_dim: Option<usize>,
) -> (u64, u64) {
    let mut v = SumVisitor::default();
    index.execute(q, agg_dim, &mut v);
    (v.count, v.sum)
}

/// Micro-loops over the `learned` crate on one sorted column.
pub mod learned {
    use flood_learned::rmi::RmiConfig;
    use flood_learned::{PiecewiseLinearModel, Rmi};

    pub fn rmi_build(sorted: &[u64]) -> Rmi {
        Rmi::build(sorted, RmiConfig::default())
    }

    pub fn rmi_cdf(rmi: &Rmi, key: u64) -> f64 {
        rmi.predict(key)
    }

    pub fn plm_build(sorted: &[u64]) -> PiecewiseLinearModel {
        PiecewiseLinearModel::build_default(sorted)
    }

    pub fn plm_lookup(plm: &PiecewiseLinearModel, sorted: &[u64], v: u64) -> usize {
        plm.lookup_lb(v, |i| sorted[i])
    }
}

/// One cost-model prediction (three weight-forest walks) for a query that
/// projected `nc` cells and scanned `ns` points.
pub fn cost_predict(model: &CostModel, nc: f64, ns: f64, dims_filtered: f64) -> f64 {
    let cells = nc.max(1.0);
    model
        .predict(&QueryStatistics {
            nc,
            ns,
            total_cells: 4096.0,
            avg_cell_size: 256.0,
            median_cell_size: 256.0,
            p95_cell_size: 512.0,
            dims_filtered,
            avg_visited_per_cell: ns / cells,
            exact_points: 0.0,
            sort_filtered: true,
        })
        .time_ns
}

/// `flood-obs` histogram handle for the record micro-loop.
pub fn obs_histogram() -> flood_obs::Histogram {
    flood_obs::Histogram::new()
}

/// The benchmark's counting wrapper around the real `FileBackend`: counts
/// and times what crosses the storage boundary and opens a span per call.
///
/// Reads go straight to the files (the OS page cache serves them; nothing
/// is fsynced — README, flush policy). Writes are held back: `put` keeps
/// the bytes and [`CountingBackend::flush`] hands them to `FileBackend`,
/// which the driver calls right after the timed `seal` or `compact`
/// returns. What a file creation costs on the box this was defined on is
/// set by which inodes ext4 hands out (a recycled one is about nine times
/// slower than a fresh one, for as many creations as files were deleted
/// before), not by the program: with the creations inside the timings,
/// `setup_s` and `epoch_swap_ms` of one binary differed by half between
/// two build directories.
#[derive(Debug)]
pub struct CountingBackend {
    inner: FileBackend,
    /// Written but not yet flushed, in order of arrival.
    pending: Mutex<Vec<(SegmentKey, Vec<u8>)>>,
    pub gets: AtomicU64,
    pub get_ns: AtomicU64,
    pub bytes_read: AtomicU64,
    pub puts: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl CountingBackend {
    fn new(dir: &Path) -> Result<Self, StorageError> {
        Ok(CountingBackend {
            inner: FileBackend::new(dir)?,
            pending: Mutex::new(Vec::new()),
            gets: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    fn pending(&self) -> std::sync::MutexGuard<'_, Vec<(SegmentKey, Vec<u8>)>> {
        self.pending
            .lock()
            .expect("no thread panics holding the pending writes")
    }

    /// Write everything held back through `FileBackend::put`.
    pub fn flush(&self) -> Result<(), StorageError> {
        let held = std::mem::take(&mut *self.pending());
        held.iter()
            .try_for_each(|(key, bytes)| self.inner.put(*key, bytes))
    }
}

// Statistics only: nothing is published through these counters.
const STAT: Ordering = Ordering::Relaxed;

impl StorageBackend for CountingBackend {
    fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError> {
        let _span = trace::span("tier.backend_put");
        self.puts.fetch_add(1, STAT);
        self.bytes_written.fetch_add(bytes.len() as u64, STAT);
        self.pending().push((key, bytes.to_vec()));
        Ok(())
    }

    fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError> {
        let _span = trace::span("tier.backend_get");
        let t0 = Instant::now();
        // A segment read back before its flush is still in `pending`.
        let held = self
            .pending()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, bytes)| bytes.clone());
        let out = match held {
            Some(bytes) => Ok(bytes),
            None => self.inner.get(key),
        };
        self.get_ns.fetch_add(t0.elapsed().as_nanos() as u64, STAT);
        self.gets.fetch_add(1, STAT);
        if let Ok(bytes) = &out {
            self.bytes_read.fetch_add(bytes.len() as u64, STAT);
        }
        out
    }

    fn delete(&self, key: SegmentKey) -> Result<(), StorageError> {
        self.pending().retain(|(k, _)| *k != key);
        self.inner.delete(key)
    }
}

/// Cache counters of the tiered stack at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    pub evictions: u64,
    pub resident_segments: usize,
    pub total_segments: usize,
    pub cold_bytes: usize,
    pub metadata_bytes: usize,
    pub rows: usize,
}

/// The tiered stack: a `TieredServer` sealed through a `FileBackend` in
/// `dir`, cache budget a quarter of the cold bytes.
pub struct Tiered {
    server: TieredServer,
    backend: Arc<CountingBackend>,
    agg_dim: Option<usize>,
}

impl Tiered {
    pub fn seal(table: &Table, dir: &Path, agg_dim: Option<usize>) -> Result<Self, StorageError> {
        let backend = Arc::new(CountingBackend::new(dir)?);
        let server = TieredServer::seal(
            table,
            backend.clone() as Arc<dyn StorageBackend>,
            TierConfig::default(),
        )?;
        let cold = server.snapshot().value().data().cold_bytes();
        server.cache().set_budget(cold / 4);
        Ok(Tiered {
            server,
            backend,
            agg_dim,
        })
    }

    pub fn execute(&self, q: &RangeQuery) -> Result<(Answer, ScanStats), StorageError> {
        let mut v = SumVisitor::default();
        let (stats, epoch) = self.server.execute(q, self.agg_dim, &mut v)?;
        Ok((Answer::of(v, epoch), stats))
    }

    pub fn insert(&self, row: &[u64]) -> Result<usize, StorageError> {
        self.server.insert(row)
    }

    /// Seal buffered rows and publish; returns the new epoch.
    pub fn compact(&self) -> Result<u64, StorageError> {
        self.server.compact()
    }

    /// Create the files of the segments written since the last call; the
    /// driver calls this outside its timings ([`CountingBackend`]).
    pub fn flush_writes(&self) -> Result<(), StorageError> {
        self.backend.flush()
    }

    pub fn snapshot(&self) -> TieredSnapshot {
        self.server.snapshot()
    }

    /// `TieredScan::try_execute` on a pinned epoch.
    pub fn try_execute(
        &self,
        snap: &TieredSnapshot,
        q: &RangeQuery,
    ) -> Result<(Answer, ScanStats), StorageError> {
        let mut v = SumVisitor::default();
        let stats = snap.value().try_execute(q, self.agg_dim, &mut v)?;
        Ok((Answer::of(v, snap.epoch()), stats))
    }

    /// The batched path over cold data: `QueryExecutor::execute_batch` on
    /// the pinned `TieredScan`.
    pub fn batch(&self, queries: &[RangeQuery]) -> Vec<(u64, u64)> {
        let snap = self.server.snapshot();
        exec_batch(pool_threads(), snap.value(), queries, self.agg_dim)
    }

    pub fn backend(&self) -> &CountingBackend {
        &self.backend
    }

    pub fn diagnostics(&self) -> TieredServeDiagnostics {
        self.server.diagnostics()
    }

    pub fn cache_report(&self) -> CacheReport {
        let snap = self.server.snapshot();
        let data = snap.value().data();
        let cache = data.cache();
        CacheReport {
            evictions: cache.evictions(),
            resident_segments: cache.resident_segments(),
            total_segments: data.n_segments() * data.dims(),
            cold_bytes: data.cold_bytes(),
            metadata_bytes: data.metadata_bytes(),
            rows: data.len(),
        }
    }
}
