//! The one serving front end, [`Server<T, B>`]: readers pin an epoch of
//! a [`Published<T>`] generation — any [`PlannedIndex`] — while the build
//! side `B`, which readers never lock, prepares the next one.
//!
//! [`Server::try_execute`] is the one read path: pin, plan, scan under
//! [`with_retries`], and count each serving event once, in the server's
//! metrics registry — [`Server::diagnostics`] reads its ledger from the same
//! counters [`Server::metrics_snapshot`] exposes. What only one `T`
//! can do stays on its alias: batched admission on the `flood-exec` pool
//! and the §8 adaptation turn ([`crate::adaptive`]) on [`FloodServer`] (a
//! resident read cannot fail, so its `execute` is infallible), insert /
//! compact on [`TieredServer`](crate::TieredServer).

use crate::adaptive::{AdaptiveConfig, AdaptiveDiagnostics, AdaptiveSide};
use crate::epoch::{Epoch, Published};
use flood_core::index::BuildTimes;
use flood_core::FloodIndex;
use flood_exec::PoolMetrics;
use flood_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use flood_store::tier::with_retries;
use flood_store::{
    BlockSource, PlannedIndex, RangeQuery, RangeScan, ScanStats, ScanStatsMetrics, Visitor,
};
use std::sync::Arc;
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
    /// Worker threads for batched execution, layout searches and index
    /// builds. 0 sizes from the environment (`FLOOD_THREADS`, else
    /// available parallelism).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            adaptive: AdaptiveConfig::default(),
            batch: 64,
            threads: 0,
        }
    }
}

/// One batch's results: every query answered against the same epoch.
#[derive(Debug)]
pub struct ServedBatch<V> {
    /// The epoch the whole batch was served from.
    pub epoch: u64,
    /// Per-query `(visitor, stats)` in input order.
    pub results: Vec<(V, ScanStats)>,
}

/// Serving-layer counters ([`Server::diagnostics`]), one type for both
/// servers; a field only one build side keeps reads 0 on the other.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeDiagnostics {
    /// Current epoch number.
    pub epoch: u64,
    /// Generations published (layout swaps, or compactions).
    pub swaps: u64,
    /// Swapped-out epochs whose last reader has dropped (memory freed).
    pub retired_epochs: usize,
    /// Swapped-out epochs still pinned by in-flight snapshots.
    pub live_retired: usize,
    /// Requests admitted (`serve.queries`).
    pub submitted: u64,
    /// Requests answered completely (`serve.completed`;
    /// `submitted == completed + degraded` once the server is idle: the
    /// serving path never drops a request).
    pub completed: u64,
    /// Attempts that hit a storage fault and were retried in place
    /// (`serve.retried`).
    pub retried: u64,
    /// Requests that exhausted the retry budget and surfaced a typed error
    /// (`serve.degraded`).
    pub degraded: u64,
    /// `maybe_adapt` calls that found the learner busy (resident).
    pub adapt_skipped: u64,
    /// Times the learner's lock was taken over from a holder that
    /// panicked (resident).
    pub learner_recoveries: u64,
    /// The learner's counters: checks, relearns, cache work (resident).
    pub adaptive: AdaptiveDiagnostics,
    /// Rows buffered, not yet visible to readers (tiered).
    pub buffered: usize,
}

/// The server's registered metric handles, one `flood-obs` [`Registry`]
/// per server and the only place a serving event is counted, grouped by
/// subsystem:
///
/// * `serve` — `queries` (admitted) / `completed` / `retried` / `degraded`
///   / `batches` counters, `query_ns` (closed-loop latency), `batch_ns`,
///   `batch_size` histograms;
/// * `scan` — every [`ScanStats`] counter, accumulated per answered query;
/// * `pool` — executor telemetry (tasks, runs, busy time, injector depth);
/// * `adapt` — the `swap_wall_ns` histogram, plus the build side's
///   lifetime gauges refreshed at snapshot time;
/// * `build` — the served index's [`BuildTimes`], one gauge per stage
///   (`assign_ns`, `sort_ns`, `permute_ns`, `models_ns`, `support_ns`),
///   set at each publish of a resident layout;
/// * `epoch` — publication gauges (current epoch, retirements, pinned
///   readers) refreshed at snapshot time.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    registry: Registry,
    queries: Arc<Counter>,
    completed: Arc<Counter>,
    retried: Arc<Counter>,
    degraded: Arc<Counter>,
    batches: Arc<Counter>,
    query_ns: Arc<Histogram>,
    batch_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    scan: ScanStatsMetrics,
    pool: PoolMetrics,
    pub(crate) swap_wall_ns: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            queries: registry.counter("serve", "queries"),
            completed: registry.counter("serve", "completed"),
            retried: registry.counter("serve", "retried"),
            degraded: registry.counter("serve", "degraded"),
            batches: registry.counter("serve", "batches"),
            query_ns: registry.histogram("serve", "query_ns"),
            batch_ns: registry.histogram("serve", "batch_ns"),
            batch_size: registry.histogram("serve", "batch_size"),
            scan: ScanStatsMetrics::register(&registry, "scan"),
            pool: PoolMetrics::register(&registry, "pool"),
            swap_wall_ns: registry.histogram("adapt", "swap_wall_ns"),
            registry,
        }
    }

    /// Set the `build.*` gauges to the published index's stage timings.
    pub(crate) fn record_build(&self, t: BuildTimes) {
        let g = |name: &str, ns: u64| self.registry.gauge("build", name).set(ns as i64);
        g("assign_ns", t.assign_ns);
        g("sort_ns", t.sort_ns);
        g("permute_ns", t.permute_ns);
        g("models_ns", t.models_ns);
        g("support_ns", t.support_ns);
    }
}

/// The side of a [`Server`] that prepares the next generation. Readers
/// never lock it: they only hand it the queries they answered.
pub trait BuildSide {
    /// Note a query the read path answered, with its own scan counters.
    fn observe(&self, _query: &RangeQuery, _stats: &ScanStats) {}

    /// Fill in this side's fields of `d`.
    fn report(&self, d: &mut ServeDiagnostics);

    /// Refresh this side's gauges in the server's registry.
    fn export(&self, _registry: &Registry) {}
}

/// A shared-read front end: readers pin an epoch of `T` and never take a
/// lock for the duration of a query, while the build side `B` publishes
/// replacements. All methods take `&self`: share a server across threads.
#[derive(Debug)]
pub struct Server<T, B> {
    pub(crate) published: Published<T>,
    pub(crate) build: B,
    pub(crate) metrics: ServerMetrics,
}

impl<T: PlannedIndex, B: BuildSide> Server<T, B> {
    /// Publish `value` as epoch 0 next to its build side.
    pub(crate) fn new(value: T, build: B) -> Self {
        Server {
            published: Published::new(value),
            build,
            metrics: ServerMetrics::new(),
        }
    }

    /// The read path: execute one query against the current snapshot and
    /// return `(stats, epoch served from)`. A failed read is retried in
    /// place under [`with_retries`]; a query that exhausts the budget
    /// counts as degraded and surfaces the last typed error, its visitor
    /// untouched.
    pub fn try_execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> Result<(ScanStats, u64), <T::Source as BlockSource>::Error> {
        let m = &self.metrics;
        m.queries.inc();
        let t0 = Instant::now();
        let snap = self.published.snapshot();
        let index = snap.value();
        let scan = RangeScan::of(index, index.plan(query), agg_dim);
        // Retrying the whole query is sound only while a failed `try_run`
        // has shown the visitor nothing: `TieredScan` plans one range, and a
        // resident read cannot fail. A fallible plan of several ranges would
        // need per-piece retries instead.
        let (result, attempts) = with_retries(|| scan.try_run(visitor));
        if attempts > 1 {
            m.retried.add(attempts as u64 - 1);
        }
        let stats = result.inspect_err(|_| m.degraded.inc())?;
        self.build.observe(query, &stats);
        m.completed.inc();
        m.query_ns.record(t0.elapsed().as_nanos() as u64);
        m.scan.record(&stats);
        Ok((stats, snap.epoch()))
    }

    /// Count a query refused before the read path — submitted and
    /// degraded, its visitor untouched — and hand back why.
    pub(crate) fn refuse<E>(&self, err: E) -> E {
        self.metrics.queries.inc();
        self.metrics.degraded.inc();
        err
    }

    /// A snapshot of the current epoch (pin an epoch across a measurement
    /// loop; a retired generation stays queryable while it is held).
    pub fn snapshot(&self) -> Arc<Epoch<T>> {
        self.published.snapshot()
    }

    /// The publication point (epoch / swap / retirement accounting).
    pub fn published(&self) -> &Published<T> {
        &self.published
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Refresh the point-in-time gauges the hot path doesn't maintain:
    /// epoch accounting, then the build side's own.
    fn refresh_gauges(&self) {
        let reg = &self.metrics.registry;
        let g = |name: &str, v: i64| reg.gauge("epoch", name).set(v);
        g("current", self.published.epoch() as i64);
        g("swaps", self.published.swaps() as i64);
        g("retired", self.published.retired_epochs() as i64);
        g("live_retired", self.published.live_retired() as i64);
        g("pinned_readers", self.published.pinned_readers() as i64);
        self.build.export(reg);
    }

    /// A point-in-time copy of every server metric. Always `Some`: the
    /// registry is always live.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.refresh_gauges();
        Some(self.metrics.registry.snapshot())
    }

    /// Serving-layer counters plus the build side's. The request ledger is
    /// read off the registry's `serve.*` counters.
    pub fn diagnostics(&self) -> ServeDiagnostics {
        let m = &self.metrics;
        let mut d = ServeDiagnostics {
            epoch: self.published.epoch(),
            swaps: self.published.swaps(),
            retired_epochs: self.published.retired_epochs(),
            live_retired: self.published.live_retired(),
            submitted: m.queries.get(),
            completed: m.completed.get(),
            retried: m.retried.get(),
            degraded: m.degraded.get(),
            ..Default::default()
        };
        self.build.report(&mut d);
        d
    }
}

/// The resident server: a [`FloodIndex`] layout re-learned in the
/// background while readers stream through. Share it across threads and
/// call [`FloodServer::execute`] / [`FloodServer::serve_batch`] from
/// readers while one maintenance thread polls [`FloodServer::maybe_adapt`].
pub type FloodServer = Server<FloodIndex, AdaptiveSide>;

impl FloodServer {
    /// Closed-loop path: [`Server::try_execute`], which cannot fail on a
    /// resident index.
    pub fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> (ScanStats, u64) {
        let Ok(served) = self.try_execute(query, agg_dim, visitor);
        served
    }

    /// Open-loop path: execute a batch under one snapshot, queries spread
    /// across the executor's workers, results in input order.
    pub fn serve_batch<V>(&self, queries: &[RangeQuery], agg_dim: Option<usize>) -> ServedBatch<V>
    where
        V: Visitor + Default + Send,
    {
        let m = &self.metrics;
        let n = queries.len() as u64;
        m.queries.add(n);
        let t0 = Instant::now();
        let snap = self.published.snapshot();
        let results = self.build.exec.execute_batch_observed::<V, _>(
            snap.index(),
            queries,
            agg_dim,
            Some(&m.pool),
        );
        for (q, (_, s)) in queries.iter().zip(&results) {
            self.build.observe(q, s);
        }
        m.completed.add(n);
        m.batches.inc();
        m.batch_ns.record(t0.elapsed().as_nanos() as u64);
        m.batch_size.record(n);
        for (_, s) in &results {
            m.scan.record(s);
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
            .chunks(self.build.batch)
            .map(|chunk| self.serve_batch(chunk, agg_dim))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adaptive::AdaptOutcome;
    use flood_core::{CostModel, FloodConfig, LayoutOptimizer, OptimizerConfig};
    use flood_store::{CountVisitor, MultiDimIndex, Table};

    fn table() -> Table {
        flood_testkit::prime_table(6_000)
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

    pub(crate) fn workload_on(dim: usize, n: usize) -> Vec<RangeQuery> {
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

    pub(crate) fn server(adaptive: AdaptiveConfig) -> (Table, FloodServer) {
        server_trained_on(&workload_on(0, 30), adaptive)
    }

    pub(crate) fn server_trained_on(
        train: &[RangeQuery],
        adaptive: AdaptiveConfig,
    ) -> (Table, FloodServer) {
        server_on(train, adaptive, 1)
    }

    /// [`server_trained_on`] with a pool of `threads` workers.
    pub(crate) fn server_on(
        train: &[RangeQuery],
        adaptive: AdaptiveConfig,
        threads: usize,
    ) -> (Table, FloodServer) {
        let t = table();
        let s = FloodServer::build(
            &t,
            train,
            optimizer(),
            FloodConfig::default(),
            ServeConfig {
                adaptive,
                batch: 16,
                threads,
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
            let truth = flood_testkit::count(&t, q);
            assert_eq!(v.count, truth);
        }
        let d = s.diagnostics();
        assert_eq!(d.submitted, 20);
        assert_eq!(d.completed, 20);
        assert_eq!((d.retried, d.degraded), (0, 0));
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
                let truth = flood_testkit::count(&t, q);
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
        let truth = flood_testkit::count(&t, q);
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

    /// Each request-ledger field of [`ServeDiagnostics`] equals its
    /// `serve.*` registry counter: one count per serving event.
    pub(crate) fn assert_ledger_is_the_registry<T: PlannedIndex, B: BuildSide>(
        s: &Server<T, B>,
    ) -> ServeDiagnostics {
        let d = s.diagnostics();
        let snap = s.metrics_snapshot().expect("metrics are always on");
        let c = |name: &str| snap.counter("serve", name);
        assert_eq!(c("queries"), Some(d.submitted));
        assert_eq!(c("completed"), Some(d.completed));
        assert_eq!(c("retried"), Some(d.retried));
        assert_eq!(c("degraded"), Some(d.degraded));
        d
    }

    #[test]
    fn metrics_snapshot_covers_every_subsystem() {
        let (_, s) = server(AdaptiveConfig::default());
        // Mixed traffic: closed-loop requests and an open-loop stream.
        for q in &workload_on(1, 5) {
            let mut v = CountVisitor::default();
            s.execute(q, None, &mut v);
        }
        let d = assert_ledger_is_the_registry(&s);
        assert_eq!((d.submitted, d.completed), (5, 5), "single admission");
        s.serve_stream::<CountVisitor>(&workload_on(0, 20), None);
        let d = assert_ledger_is_the_registry(&s);
        assert_eq!((d.submitted, d.completed), (25, 25), "batched admission");
        assert_eq!((d.retried, d.degraded), (0, 0));
        s.force_relearn(&workload_on(1, 24));
        let snap = s.metrics_snapshot().expect("metrics are always on");
        assert_eq!(
            snap.subsystems(),
            vec!["adapt", "build", "epoch", "pool", "scan", "serve"]
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
        assert_eq!(snap.histogram("adapt", "swap_wall_ns").unwrap().count, 1);
        assert_eq!(snap.gauge("adapt", "relearns"), Some(1));
        assert_eq!(snap.gauge("adapt", "checks"), Some(0));
        assert_eq!(snap.gauge("epoch", "current"), Some(1));
        assert_eq!(snap.gauge("epoch", "swaps"), Some(1));
        assert_eq!(snap.gauge("epoch", "pinned_readers"), Some(0));
        // The exposition renders the same counters.
        let prom = snap.prometheus_text();
        assert!(prom.contains("flood_serve_queries_total 25"), "{prom}");
        assert!(prom.contains("flood_epoch_current 1"), "{prom}");
    }
}
