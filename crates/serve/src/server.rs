//! The serving front end: shared readers over a [`PublishedIndex`] with
//! background adaptation.
//!
//! [`FloodServer`] composes the pieces the rest of the workspace provides:
//!
//! * reads go through [`PublishedIndex::snapshot`] — every request (or
//!   batch) pins one epoch and never observes a mix of layouts;
//! * admission is layered on the `flood-exec` scoped pool:
//!   [`FloodServer::execute`] is the closed-loop per-request path,
//!   [`FloodServer::serve_batch`] / [`FloodServer::serve_stream`] the
//!   open-loop batched path ([`flood_exec::QueryExecutor::execute_batch`]
//!   under one snapshot per batch);
//! * every served query is recorded in an [`ObservationLog`] through
//!   `&self`, and the [`Relearner`] — behind a mutex that readers never
//!   touch — prices the window, searches, and rebuilds off the serving
//!   path, publishing the replacement with a pointer swap
//!   ([`FloodServer::maybe_adapt`]).

use crate::epoch::{IndexSnapshot, PublishedIndex};
use flood_core::{
    AdaptiveConfig, AdaptiveDiagnostics, FloodConfig, FloodIndex, LayoutOptimizer, ObservationLog,
    Relearner,
};
use flood_exec::{PoolMetrics, QueryExecutor, ThreadPool};
use flood_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use flood_store::{RangeQuery, ScanStats, ScanStatsMetrics, Table, Visitor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`FloodServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Window / cadence / degradation threshold for background adaptation.
    pub adaptive: AdaptiveConfig,
    /// Admission: [`FloodServer::serve_stream`] cuts an open-loop stream
    /// into batches of at most this many queries; each batch executes
    /// under one snapshot.
    pub batch: usize,
    /// Worker threads for batched execution. 0 sizes from the environment
    /// (`FLOOD_THREADS`, else available parallelism).
    pub threads: usize,
    /// Keep the metrics registry live (the default). The instrumented
    /// query path costs a clock read and a handful of relaxed atomics per
    /// query — `repro obs` holds it to a ≤5% p50 budget. `false` serves
    /// with no telemetry at all, the baseline that budget is measured
    /// against.
    pub metrics: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            adaptive: AdaptiveConfig::default(),
            batch: 64,
            threads: 0,
            metrics: true,
        }
    }
}

/// What one [`FloodServer::maybe_adapt`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptOutcome {
    /// No degradation check was due.
    NotDue,
    /// A check was due but another adaptation was in flight; the due flag
    /// is left set so a later call retries.
    Busy,
    /// The window was priced; the current layout survives.
    Kept,
    /// A re-learned layout was built and published as this epoch.
    Swapped(u64),
}

/// One batch's results: every query answered against the same epoch.
#[derive(Debug)]
pub struct ServedBatch<V> {
    /// The epoch the whole batch was served from.
    pub epoch: u64,
    /// Per-query `(visitor, stats)` in input order.
    pub results: Vec<(V, ScanStats)>,
}

/// Serving-layer counters ([`FloodServer::diagnostics`]).
#[derive(Debug, Clone)]
pub struct ServeDiagnostics {
    /// Current epoch number.
    pub epoch: u64,
    /// Layout swaps published.
    pub swaps: u64,
    /// Swapped-out epochs whose last reader has dropped (memory freed).
    pub retired_epochs: usize,
    /// Swapped-out epochs still pinned by in-flight snapshots.
    pub live_retired: usize,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered (== `submitted` once the server is idle: the
    /// serving path never drops a request).
    pub completed: u64,
    /// Queries recorded in the observation window.
    pub observed: u64,
    /// `maybe_adapt` calls that found the relearner busy.
    pub adapt_skipped: u64,
    /// The build side's counters (checks, relearns, cache work).
    pub adaptive: AdaptiveDiagnostics,
}

/// The server's registered metric handles, one `flood-obs` [`Registry`]
/// per server, grouped by subsystem:
///
/// * `serve` — `queries`/`completed`/`batches` counters, `query_ns`
///   (closed-loop latency), `batch_ns` and `batch_size` histograms;
/// * `scan` — every [`ScanStats`] counter, accumulated per served query;
/// * `pool` — executor telemetry (tasks, runs, busy time, injector depth);
/// * `adapt` — `swaps`/`kept`/`busy` outcome counters, `swap_wall_ns`,
///   plus the relearner's lifetime gauges refreshed at snapshot time;
/// * `epoch` — publication gauges (current epoch, retirements, pinned
///   readers) refreshed at snapshot time.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    queries: Arc<Counter>,
    completed: Arc<Counter>,
    batches: Arc<Counter>,
    query_ns: Arc<Histogram>,
    batch_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    scan: ScanStatsMetrics,
    pool: PoolMetrics,
    swaps: Arc<Counter>,
    kept: Arc<Counter>,
    busy: Arc<Counter>,
    swap_wall_ns: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            queries: registry.counter("serve", "queries"),
            completed: registry.counter("serve", "completed"),
            batches: registry.counter("serve", "batches"),
            query_ns: registry.histogram("serve", "query_ns"),
            batch_ns: registry.histogram("serve", "batch_ns"),
            batch_size: registry.histogram("serve", "batch_size"),
            scan: ScanStatsMetrics::register(&registry, "scan"),
            pool: PoolMetrics::register(&registry, "pool"),
            swaps: registry.counter("adapt", "swaps"),
            kept: registry.counter("adapt", "kept"),
            busy: registry.counter("adapt", "busy"),
            swap_wall_ns: registry.histogram("adapt", "swap_wall_ns"),
            registry,
        }
    }

    /// The registry itself — e.g. to [`Registry::absorb`] this server's
    /// metrics into the process-global registry at end of run.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// A shared-read front end over one table's [`FloodIndex`], re-learning
/// its layout in the background while readers stream through.
///
/// All serving methods take `&self`: share a `FloodServer` across threads
/// (e.g. `std::thread::scope`) and call [`FloodServer::execute`] /
/// [`FloodServer::serve_batch`] from readers while one maintenance thread
/// polls [`FloodServer::maybe_adapt`].
#[derive(Debug)]
pub struct FloodServer {
    published: PublishedIndex,
    exec: QueryExecutor,
    batch: usize,
    obs: ObservationLog,
    /// Set by the recorder that crosses the check cadence, consumed by
    /// the adaptation turn that wins the relearner lock.
    check_due: AtomicBool,
    /// The build side. Readers never take this lock — a re-learn in
    /// flight only makes `maybe_adapt` report [`AdaptOutcome::Busy`].
    relearner: Mutex<Relearner>,
    submitted: AtomicU64,
    completed: AtomicU64,
    adapt_skipped: AtomicU64,
    /// `None` when [`ServeConfig::metrics`] was off: the query path then
    /// takes no clock reads and touches no metric atomics at all.
    metrics: Option<ServerMetrics>,
}

impl FloodServer {
    /// Learn an initial layout for `train` over `table`, build it, and
    /// publish it as epoch 0.
    pub fn build(
        table: &Table,
        train: &[RangeQuery],
        optimizer: LayoutOptimizer,
        flood_cfg: FloodConfig,
        cfg: ServeConfig,
    ) -> Self {
        let (relearner, learned) = Relearner::learn_initial(table, train, optimizer, cfg.adaptive);
        let index = FloodIndex::build(table, learned.layout, flood_cfg);
        let pool = if cfg.threads == 0 {
            ThreadPool::from_env()
        } else {
            ThreadPool::new(cfg.threads)
        };
        FloodServer {
            published: PublishedIndex::new(index),
            exec: QueryExecutor::new(pool),
            batch: cfg.batch.max(1),
            obs: ObservationLog::new(cfg.adaptive.window, cfg.adaptive.check_every),
            check_due: AtomicBool::new(false),
            relearner: Mutex::new(relearner),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            adapt_skipped: AtomicU64::new(0),
            metrics: cfg.metrics.then(ServerMetrics::new),
        }
    }

    /// Closed-loop path: execute one query against the current snapshot,
    /// record the observation, and return `(stats, epoch served from)`.
    pub fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> (ScanStats, u64) {
        use flood_store::MultiDimIndex;
        let mut span = flood_obs::span("query");
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let snap = {
            let _pin = flood_obs::span("pin");
            self.published.snapshot()
        };
        let stats = {
            let _scan = flood_obs::span("scan");
            snap.index().execute(query, agg_dim, visitor)
        };
        {
            let _observe = flood_obs::span("observe");
            self.note(query);
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.queries.inc();
            m.completed.inc();
            m.query_ns.record(t0.elapsed().as_nanos() as u64);
            m.scan.record(&stats);
        }
        if span.is_sampled() {
            span.note(&format!(
                "epoch={} matched={}",
                snap.epoch(),
                stats.points_matched
            ));
        }
        (stats, snap.epoch())
    }

    /// Open-loop path: execute a batch under one snapshot, queries spread
    /// across the executor's workers, results in input order.
    pub fn serve_batch<V>(&self, queries: &[RangeQuery], agg_dim: Option<usize>) -> ServedBatch<V>
    where
        V: Visitor + Default + Send,
    {
        let mut span = flood_obs::span("batch");
        self.submitted
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let snap = {
            let _pin = flood_obs::span("pin");
            self.published.snapshot()
        };
        let results = {
            let _scan = flood_obs::span("scan");
            self.exec.execute_batch_observed::<V, _>(
                snap.index(),
                queries,
                agg_dim,
                self.metrics.as_ref().map(|m| &m.pool),
            )
        };
        {
            let _observe = flood_obs::span("observe");
            for q in queries {
                self.note(q);
            }
        }
        self.completed
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.batches.inc();
            m.batch_ns.record(t0.elapsed().as_nanos() as u64);
            m.batch_size.record(queries.len() as u64);
            m.queries.add(queries.len() as u64);
            m.completed.add(queries.len() as u64);
            for (_, s) in &results {
                m.scan.record(s);
            }
        }
        if span.is_sampled() {
            span.note(&format!("epoch={} size={}", snap.epoch(), queries.len()));
        }
        ServedBatch {
            epoch: snap.epoch(),
            results,
        }
    }

    /// Admission over an open-loop stream: cut `queries` into batches of
    /// at most [`ServeConfig::batch`] and serve each under a fresh
    /// snapshot, so a stream in flight picks up a published swap at the
    /// next batch boundary.
    pub fn serve_stream<V>(
        &self,
        queries: &[RangeQuery],
        agg_dim: Option<usize>,
    ) -> Vec<ServedBatch<V>>
    where
        V: Visitor + Default + Send,
    {
        queries
            .chunks(self.batch)
            .map(|chunk| self.serve_batch(chunk, agg_dim))
            .collect()
    }

    /// Record a served query; remember when a degradation check comes due.
    fn note(&self, query: &RangeQuery) {
        if self.obs.record(query) {
            self.check_due.store(true, Ordering::Release);
        }
    }

    /// The adaptation turn, callable from any maintenance thread. When a
    /// check is due and no other adaptation is in flight: price the
    /// window against the current snapshot, and when degraded, search,
    /// rebuild off the serving path, and publish the replacement.
    pub fn maybe_adapt(&self) -> AdaptOutcome {
        if !self.check_due.load(Ordering::Acquire) {
            return AdaptOutcome::NotDue;
        }
        let Ok(mut relearner) = self.relearner.try_lock() else {
            self.adapt_skipped.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.busy.inc();
            }
            return AdaptOutcome::Busy;
        };
        self.check_due.store(false, Ordering::Release);
        let _span = flood_obs::span("adapt");
        let snap = self.published.snapshot();
        let window = self.obs.snapshot();
        match relearner.check(&window, snap.index().data(), snap.index().layout()) {
            Some(learned) => AdaptOutcome::Swapped(self.rebuild_and_publish(&snap, learned.layout)),
            None => {
                if let Some(m) = &self.metrics {
                    m.kept.inc();
                }
                AdaptOutcome::Kept
            }
        }
    }

    /// Re-learn on `workload` unconditionally and publish the result —
    /// deterministic swap schedules for experiments and soak tests.
    /// Blocks until the new epoch is live; returns its number.
    pub fn force_relearn(&self, workload: &[RangeQuery]) -> u64 {
        let mut relearner = self.relearner.lock().expect("relearner poisoned");
        let snap = self.published.snapshot();
        let learned = relearner.relearn_on(snap.index().data(), workload);
        self.rebuild_and_publish(&snap, learned.layout)
    }

    /// Build a new index over the snapshot's data (Flood is clustered —
    /// the data multiset is the table, so the snapshot's fitted CDFs carry
    /// over) and swap it in.
    fn rebuild_and_publish(&self, snap: &IndexSnapshot, layout: flood_core::Layout) -> u64 {
        let _span = flood_obs::span("epoch_swap");
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let index = snap.index().rebuild(layout);
        let epoch = self.published.publish(index);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.swaps.inc();
            m.swap_wall_ns.record(t0.elapsed().as_nanos() as u64);
        }
        epoch
    }

    /// A snapshot of the current epoch (for harnesses that pin an epoch
    /// across their own measurement loops).
    pub fn snapshot(&self) -> IndexSnapshot {
        self.published.snapshot()
    }

    /// The publication point (epoch / swap / retirement accounting).
    pub fn published(&self) -> &PublishedIndex {
        &self.published
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Worker threads batched execution uses.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Refresh the point-in-time gauges (epoch accounting, relearner
    /// lifetime counters) the hot path doesn't maintain. The relearner is
    /// polled with `try_lock`: a re-learn in flight keeps its previous
    /// gauge values rather than blocking the scrape.
    fn refresh_gauges(&self, m: &ServerMetrics) {
        let reg = &m.registry;
        let g = |name: &str, v: i64| reg.gauge("epoch", name).set(v);
        g("current", self.published.epoch() as i64);
        g("swaps", self.published.swaps() as i64);
        g("retired", self.published.retired_epochs() as i64);
        g("live_retired", self.published.live_retired() as i64);
        g("pinned_readers", self.published.pinned_readers() as i64);
        if let Ok(relearner) = self.relearner.try_lock() {
            relearner.diagnostics().export(reg, "adapt");
        }
    }

    /// A point-in-time copy of every server metric — scan, pool, adapt and
    /// epoch subsystems included. `None` when [`ServeConfig::metrics`] was
    /// off.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let m = self.metrics.as_ref()?;
        self.refresh_gauges(m);
        Some(m.registry.snapshot())
    }

    /// Prometheus text exposition of the current metrics. `None` when
    /// metrics are off.
    pub fn metrics_prometheus(&self) -> Option<String> {
        Some(self.metrics_snapshot()?.prometheus_text())
    }

    /// JSON exposition of the current metrics. `None` when metrics are
    /// off.
    pub fn metrics_json(&self) -> Option<String> {
        Some(self.metrics_snapshot()?.to_json())
    }

    /// The live metric handles (e.g. to absorb this server's registry into
    /// the process-global one). Gauges are refreshed first, as in
    /// [`FloodServer::metrics_snapshot`]. `None` when metrics are off.
    pub fn metrics(&self) -> Option<&ServerMetrics> {
        let m = self.metrics.as_ref()?;
        self.refresh_gauges(m);
        Some(m)
    }

    /// Serving-layer counters plus the build side's diagnostics.
    pub fn diagnostics(&self) -> ServeDiagnostics {
        let adaptive = self
            .relearner
            .lock()
            .expect("relearner poisoned")
            .diagnostics();
        ServeDiagnostics {
            epoch: self.published.epoch(),
            swaps: self.published.swaps(),
            retired_epochs: self.published.retired_epochs(),
            live_retired: self.published.live_retired(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            observed: self.obs.observed(),
            adapt_skipped: self.adapt_skipped.load(Ordering::Relaxed),
            adaptive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_core::{CostModel, OptimizerConfig};
    use flood_store::{CountVisitor, MultiDimIndex, Table};

    fn table() -> Table {
        let n = 6_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| (i * 7919) % 10_000).collect(),
            (0..n).map(|i| (i * 104729) % 10_000).collect(),
            (0..n).collect(),
        ])
    }

    fn optimizer() -> LayoutOptimizer {
        LayoutOptimizer::with_config(
            CostModel::analytic_default(),
            OptimizerConfig {
                data_sample: 600,
                query_sample: 10,
                gd_steps: 6,
                max_total_cells: 1 << 10,
                ..Default::default()
            },
        )
    }

    fn workload_on(dim: usize, n: usize) -> Vec<RangeQuery> {
        (0..n)
            .map(|i| {
                RangeQuery::all(3).with_range(
                    dim,
                    (i as u64 * 37) % 9_000,
                    (i as u64 * 37) % 9_000 + 150,
                )
            })
            .collect()
    }

    fn server(adaptive: AdaptiveConfig) -> (Table, FloodServer) {
        let t = table();
        let s = FloodServer::build(
            &t,
            &workload_on(0, 30),
            optimizer(),
            FloodConfig::default(),
            ServeConfig {
                adaptive,
                batch: 16,
                threads: 1,
                ..Default::default()
            },
        );
        (t, s)
    }

    #[test]
    fn per_request_results_match_ground_truth() {
        let (t, s) = server(AdaptiveConfig::default());
        for q in &workload_on(1, 20) {
            let mut v = CountVisitor::default();
            let (_, epoch) = s.execute(q, None, &mut v);
            assert_eq!(epoch, 0);
            let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
            assert_eq!(v.count, truth);
        }
        let d = s.diagnostics();
        assert_eq!(d.submitted, 20);
        assert_eq!(d.completed, 20);
        assert_eq!(d.observed, 20);
    }

    #[test]
    fn batched_stream_matches_serial_and_counts_requests() {
        let (t, s) = server(AdaptiveConfig::default());
        let queries = workload_on(1, 40);
        let batches = s.serve_stream::<CountVisitor>(&queries, None);
        assert_eq!(batches.len(), 3, "40 queries at batch 16 → 16+16+8");
        let mut served = 0;
        for b in &batches {
            for ((v, s_), q) in b.results.iter().zip(queries[served..].iter()) {
                let mut want = CountVisitor::default();
                let want_stats = s.snapshot().index().execute(q, None, &mut want);
                assert_eq!(v.count, want.count);
                assert_eq!(*s_, want_stats);
                let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
                assert_eq!(v.count, truth);
            }
            served += b.results.len();
        }
        assert_eq!(served, queries.len());
        let d = s.diagnostics();
        assert_eq!(d.submitted, 40);
        assert_eq!(d.completed, 40, "zero dropped requests");
    }

    #[test]
    fn stable_workload_never_retrains() {
        let (_, s) = server(AdaptiveConfig {
            window: 20,
            check_every: 10,
            degradation_factor: 1.5,
        });
        for q in workload_on(0, 30).iter().cycle().take(60) {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
            assert!(
                !matches!(s.maybe_adapt(), AdaptOutcome::Swapped(_)),
                "same workload should not trigger retraining"
            );
        }
        let d = s.diagnostics();
        assert_eq!((d.epoch, d.swaps), (0, 0));
        assert!(d.adaptive.checks > 0, "checks must run");
        assert_eq!(
            d.adaptive.relearn_searches, 0,
            "no degraded check, no search"
        );
        assert_eq!(
            d.adaptive.sample_flattens, 1,
            "the data sample is flattened once, ever"
        );
    }

    #[test]
    fn shifted_workload_swaps_in_the_background_turn() {
        let (t, s) = server(AdaptiveConfig {
            window: 24,
            check_every: 12,
            degradation_factor: 1.2,
        });
        assert_eq!(s.maybe_adapt(), AdaptOutcome::NotDue);
        let before = s.snapshot();
        let mut swapped = false;
        for q in &workload_on(1, 60) {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
            if let AdaptOutcome::Swapped(e) = s.maybe_adapt() {
                assert!(e >= 1);
                swapped = true;
            }
        }
        assert!(swapped, "shifted workload must publish a new layout");
        assert_eq!(before.epoch(), 0, "pinned snapshot stays on its epoch");
        assert!(s.snapshot().index().layout().order().contains(&1));
        // The pinned pre-swap snapshot still answers correctly.
        let q = &workload_on(1, 1)[0];
        let mut v = CountVisitor::default();
        before.index().execute(q, None, &mut v);
        let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
        assert_eq!(v.count, truth);
        drop(before);
        let d = s.diagnostics();
        assert!(d.swaps >= 1);
        assert_eq!(
            d.retired_epochs as u64, d.swaps,
            "all retired epochs freed once readers dropped"
        );
    }

    #[test]
    fn force_relearn_publishes_deterministically() {
        let (_, s) = server(AdaptiveConfig::default());
        assert_eq!(s.force_relearn(&workload_on(1, 24)), 1);
        assert_eq!(s.force_relearn(&workload_on(0, 24)), 2);
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.diagnostics().adaptive.relearns, 2);
    }

    #[test]
    fn metrics_snapshot_covers_every_subsystem() {
        let (_, s) = server(AdaptiveConfig::default());
        // Mixed traffic: closed-loop requests and an open-loop stream.
        for q in &workload_on(1, 5) {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
        }
        s.serve_stream::<CountVisitor>(&workload_on(0, 20), None);
        s.force_relearn(&workload_on(1, 24));
        let snap = s.metrics_snapshot().expect("metrics on by default");
        assert_eq!(
            snap.subsystems(),
            vec!["adapt", "epoch", "pool", "scan", "serve"]
        );
        // serve: every admitted query is counted, per path.
        assert_eq!(snap.counter("serve", "queries"), Some(25));
        assert_eq!(snap.counter("serve", "completed"), Some(25));
        assert_eq!(snap.counter("serve", "batches"), Some(2), "20 at batch 16");
        let qh = snap.histogram("serve", "query_ns").unwrap();
        assert_eq!(qh.count, 5, "closed-loop latencies only");
        assert!(qh.p50 > 0);
        let bs = snap.histogram("serve", "batch_size").unwrap();
        assert_eq!(bs.sum, 20, "batch sizes sum to open-loop queries");
        // scan: the bridge saw every query's stats.
        assert!(snap.counter("scan", "points_scanned").unwrap() > 0);
        // pool: the observed batch path ran its tasks.
        assert_eq!(snap.counter("pool", "tasks"), Some(20));
        assert_eq!(snap.counter("pool", "runs"), Some(2));
        // adapt + epoch: the forced swap is visible everywhere.
        assert_eq!(snap.counter("adapt", "swaps"), Some(1));
        assert_eq!(snap.histogram("adapt", "swap_wall_ns").unwrap().count, 1);
        assert_eq!(snap.gauge("adapt", "relearns"), Some(1));
        assert_eq!(snap.gauge("epoch", "current"), Some(1));
        assert_eq!(snap.gauge("epoch", "swaps"), Some(1));
        assert_eq!(snap.gauge("epoch", "pinned_readers"), Some(0));
        // Both expositions render the same counters.
        let prom = s.metrics_prometheus().unwrap();
        assert!(prom.contains("flood_serve_queries_total 25"), "{prom}");
        assert!(prom.contains("flood_epoch_current 1"), "{prom}");
        let json = s.metrics_json().unwrap();
        assert!(json.contains("\"queries\":25"), "{json}");
    }

    #[test]
    fn metrics_off_serves_without_telemetry() {
        let t = table();
        let s = FloodServer::build(
            &t,
            &workload_on(0, 30),
            optimizer(),
            FloodConfig::default(),
            ServeConfig {
                metrics: false,
                batch: 16,
                threads: 1,
                ..Default::default()
            },
        );
        let mut v = CountVisitor::default();
        s.execute(&workload_on(1, 1)[0], None, &mut v);
        assert!(s.metrics_snapshot().is_none());
        assert!(s.metrics_prometheus().is_none());
        assert!(s.metrics_json().is_none());
        assert!(s.metrics().is_none());
        // The plain diagnostics still work with metrics off.
        assert_eq!(s.diagnostics().submitted, 1);
    }
}
