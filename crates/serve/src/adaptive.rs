//! The §8 shifting-workload loop, whole: [`FloodServer`]'s build side and
//! its [`FloodServer::build`] / [`FloodServer::maybe_adapt`] /
//! [`FloodServer::force_relearn`].
//!
//! Readers record each answered query into a sliding window; the one
//! recorder per cadence crossing marks a check due. A maintenance turn
//! prices the current layout on the window and, past the threshold, runs
//! Algorithm 1, rebuilds off the serving path and publishes. All three calls
//! share one learn path and one [`EvaluatorCache`]: a rebuild never changes
//! the data multiset, so the data sample is flattened once, every index is
//! cut with that sample's CDFs, and the check that triggers a re-learn
//! hands its masks and memo entries to the search.

use crate::epoch::IndexSnapshot;
use crate::server::{BuildSide, FloodServer, ServeConfig, ServeDiagnostics, Server};
use flood_core::{EvaluatorCache, Flattening, FloodConfig, FloodIndex, Layout, LayoutOptimizer};
use flood_exec::{QueryExecutor, ThreadPool};
use flood_obs::Registry;
use flood_store::{RangeQuery, Table};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Window, cadence and degradation threshold of the adaptive loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Number of recent queries kept in the observation window.
    pub window: usize,
    /// Re-check cadence: evaluate the layout every `check_every` queries.
    pub check_every: usize,
    /// Retrain when `cost(current layout, window)` exceeds
    /// `degradation_factor × cost(layout at last build, its workload)`.
    pub degradation_factor: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 100,
            check_every: 50,
            degradation_factor: 1.5,
        }
    }
}

/// Work counters for one adaptive loop's lifetime, for `flood-benchmark`
/// and the re-learn regression tests. The initial learn is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptiveDiagnostics {
    /// Times the layout was replaced.
    pub relearns: usize,
    /// Degradation checks run (windows priced).
    pub checks: usize,
    /// Re-learn *searches* run (a degraded check triggered Algorithm 1),
    /// whether or not the resulting layout was adopted.
    pub relearn_searches: usize,
    /// Total wall-clock of those searches.
    pub relearn_wall: Duration,
    /// During re-learn searches: cost evaluations and per-dimension mask
    /// fetches served by cache state built *before* the search began — the
    /// degradation check's pricing work, or earlier windows.
    pub cache_hits_across_relearns: usize,
    /// Times the data sample was flattened (sampling + RMI training): 1
    /// for the whole lifetime unless the table's shape changed.
    pub sample_flattens: usize,
    /// Observation windows flattened into a fresh evaluator.
    pub window_flattens: usize,
    /// Checks/re-learns answered by a pooled evaluator (same window
    /// fingerprint).
    pub window_reuses: usize,
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

/// [`FloodServer`]'s build side: the observation window readers record
/// into, the learner behind a mutex readers never touch, and the pool the
/// batched path runs on.
#[derive(Debug)]
pub struct AdaptiveSide {
    pub(crate) exec: QueryExecutor,
    pub(crate) batch: usize,
    /// The most recent `cap` queries (at least one), oldest first. Held
    /// only for a push: readers never wait on a re-learn to record.
    window: Mutex<VecDeque<RangeQuery>>,
    cap: usize,
    check_every: usize,
    since_check: AtomicUsize,
    /// Set by the recorder that crosses the check cadence, consumed by
    /// the adaptation turn that wins the learner lock.
    check_due: AtomicBool,
    /// A learn in flight only makes `maybe_adapt` report
    /// [`AdaptOutcome::Busy`].
    learner: Mutex<Learner>,
    adapt_skipped: AtomicU64,
}

impl AdaptiveSide {
    /// Record one query. Returns `true` when this record makes a
    /// degradation check due: `check_every` records have accumulated and
    /// the window is at least half full. Under concurrent recording exactly
    /// one caller per crossing sees `true`; the cadence counter only resets
    /// when a due check is claimed, matching the serial loop.
    // Out of line: inlined into `observe`, the read path measured 5–12 %
    // slower p50 on `olap_resident` and `narrow_lookup` (2 vCPU, alternating).
    #[inline(never)]
    fn record(&self, query: &RangeQuery) -> bool {
        let len = {
            let mut w = self.window.lock().expect("observation window poisoned");
            if w.len() >= self.cap.max(1) {
                w.pop_front();
            }
            w.push_back(query.clone());
            w.len()
        };
        let n = self.since_check.fetch_add(1, Ordering::AcqRel) + 1;
        n >= self.check_every
            && len >= self.cap / 2
            && self
                .since_check
                .compare_exchange(n, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// The current window contents, oldest first.
    fn window(&self) -> Vec<RangeQuery> {
        let w = self.window.lock().expect("observation window poisoned");
        w.iter().cloned().collect()
    }
}

impl BuildSide for AdaptiveSide {
    /// Record the query; remember when a degradation check comes due.
    fn observe(&self, query: &RangeQuery) {
        if self.record(query) {
            self.check_due.store(true, Ordering::Release);
        }
    }

    fn report(&self, d: &mut ServeDiagnostics) {
        d.adapt_skipped = self.adapt_skipped.load(Ordering::Relaxed);
        d.adaptive = self.learner.lock().expect("learner poisoned").diagnostics();
    }

    /// The lifetime counters as `adapt.*` gauges: cumulative snapshots, so
    /// a repeated export overwrites rather than double-counts. Polled with
    /// `try_lock`: a learn in flight keeps the previous learner values
    /// rather than blocking the scrape.
    fn export(&self, registry: &Registry) {
        let skipped = self.adapt_skipped.load(Ordering::Relaxed);
        registry.gauge("adapt", "skipped").set(skipped as i64);
        let g = |name: &str, v: usize| registry.gauge("adapt", name).set(v as i64);
        let Ok(learner) = self.learner.try_lock() else {
            return;
        };
        let d = learner.diagnostics();
        g("relearns", d.relearns);
        g("checks", d.checks);
        g("relearn_searches", d.relearn_searches);
        g("cache_hits_across_relearns", d.cache_hits_across_relearns);
        g("sample_flattens", d.sample_flattens);
        g("window_flattens", d.window_flattens);
        g("window_reuses", d.window_reuses);
        g("relearn_wall_ns", d.relearn_wall.as_nanos() as usize);
    }
}

/// The optimizer, the cost baseline, and the one [`EvaluatorCache`] every
/// learn of a server's lifetime shares.
#[derive(Debug)]
struct Learner {
    optimizer: LayoutOptimizer,
    degradation_factor: f64,
    baseline_cost: f64,
    shared: EvaluatorCache,
    /// The counters kept here; the flatten counts are read off `shared`.
    tally: AdaptiveDiagnostics,
}

impl Learner {
    /// Learn a layout for `workload` over `data`; returns it when it is to
    /// be adopted. An empty workload learns nothing. With an `incumbent`
    /// this is a degradation check: the incumbent, priced on the sample the
    /// search reads, is kept while within `degradation_factor × baseline`,
    /// and a searched layout replaces it only when cheaper (an unadopted
    /// search raises the baseline, so the same window doesn't thrash).
    /// Without one, the learned layout is always adopted.
    fn learn(
        &mut self,
        data: &Table,
        workload: &[RangeQuery],
        incumbent: Option<&Layout>,
    ) -> Option<Layout> {
        if workload.is_empty() {
            return None;
        }
        let (queries, mut rng) = self.optimizer.sample_queries(workload);
        let eval = self
            .shared
            .evaluator(&self.optimizer, data, &queries, &mut rng);
        let current = incumbent.map(|layout| eval.predict(layout));
        if let Some(cost) = current {
            self.tally.checks += 1;
            if cost <= self.degradation_factor * self.baseline_cost {
                return None;
            }
        }
        // The epoch boundary separates pricing's cache state from the search,
        // so the cross-epoch counter reports exactly what pricing pre-paid.
        eval.advance_epoch();
        let cross0 = eval.cross_epoch_hits();
        let t0 = Instant::now();
        let learned = self.optimizer.optimize_in(eval);
        self.tally.relearn_wall += t0.elapsed();
        self.tally.relearn_searches += 1;
        self.tally.cache_hits_across_relearns += eval.cross_epoch_hits() - cross0;
        if let Some(cost) = current.filter(|&cost| learned.predicted_ns >= cost) {
            self.baseline_cost = cost;
            return None;
        }
        self.baseline_cost = learned.predicted_ns;
        self.tally.relearns += 1;
        Some(learned.layout)
    }

    /// Lifetime work counters (see [`AdaptiveDiagnostics`]).
    fn diagnostics(&self) -> AdaptiveDiagnostics {
        AdaptiveDiagnostics {
            sample_flattens: self.shared.data_builds(),
            window_flattens: self.shared.window_builds(),
            window_reuses: self.shared.window_reuses(),
            ..self.tally
        }
    }
}

impl FloodServer {
    /// Learn an initial layout for `train` over `table`, build it with the
    /// learner's sample CDFs, and publish it as epoch 0.
    ///
    /// # Panics
    /// Panics if `train` is empty, `table` has no rows, or `flood_cfg`
    /// asks for [`Flattening::Uniform`]: a server's grid is cut with the
    /// learned CDFs its search priced, which are fitted once per table.
    pub fn build(
        table: &Table,
        train: &[RangeQuery],
        optimizer: LayoutOptimizer,
        flood_cfg: FloodConfig,
        cfg: ServeConfig,
    ) -> Self {
        assert!(!table.is_empty(), "cannot optimize over an empty table");
        assert_eq!(
            flood_cfg.flattening,
            Flattening::Learned,
            "a server cuts its grid with its sample's learned CDFs"
        );
        let mut learner = Learner {
            optimizer,
            degradation_factor: cfg.adaptive.degradation_factor,
            baseline_cost: 0.0,
            shared: EvaluatorCache::new(),
            tally: AdaptiveDiagnostics::default(),
        };
        let layout = learner
            .learn(table, train, None)
            .expect("cannot optimize for an empty workload");
        // The initial learn replaces no layout: the lifetime counters
        // start after it.
        learner.tally = AdaptiveDiagnostics::default();
        // The grid is cut with the CDFs the search priced it through.
        let cdfs = learner
            .shared
            .flattener()
            .expect("the learn built a sample");
        let index = FloodIndex::build_with(table, layout, flood_cfg, Arc::clone(cdfs));
        let pool = if cfg.threads == 0 {
            ThreadPool::from_env()
        } else {
            ThreadPool::new(cfg.threads)
        };
        let build = AdaptiveSide {
            exec: QueryExecutor::new(pool),
            batch: cfg.batch.max(1),
            window: Mutex::new(VecDeque::with_capacity(cfg.adaptive.window)),
            cap: cfg.adaptive.window,
            check_every: cfg.adaptive.check_every,
            since_check: AtomicUsize::new(0),
            check_due: AtomicBool::new(false),
            learner: Mutex::new(learner),
            adapt_skipped: AtomicU64::new(0),
        };
        Server::new(index, build)
    }

    /// The adaptation turn, callable from any maintenance thread. When a
    /// check is due and no other adaptation is in flight: price the
    /// window against the current snapshot, and when degraded, search,
    /// rebuild off the serving path, and publish the replacement.
    pub fn maybe_adapt(&self) -> AdaptOutcome {
        let side = &self.build;
        if !side.check_due.load(Ordering::Acquire) {
            return AdaptOutcome::NotDue;
        }
        let Ok(mut learner) = side.learner.try_lock() else {
            side.adapt_skipped.fetch_add(1, Ordering::Relaxed);
            return AdaptOutcome::Busy;
        };
        side.check_due.store(false, Ordering::Release);
        let snap = self.published.snapshot();
        let window = side.window();
        let index = snap.index();
        match learner.learn(index.data(), &window, Some(index.layout())) {
            Some(layout) => AdaptOutcome::Swapped(self.rebuild_and_publish(&snap, layout)),
            None => AdaptOutcome::Kept,
        }
    }

    /// Re-learn on `workload` unconditionally and publish the result —
    /// deterministic swap schedules for experiments and soak tests.
    /// Blocks until the new epoch is live; returns its number. An empty
    /// workload learns nothing: the current epoch stays live and is
    /// returned.
    pub fn force_relearn(&self, workload: &[RangeQuery]) -> u64 {
        let mut learner = self.build.learner.lock().expect("learner poisoned");
        let snap = self.published.snapshot();
        match learner.learn(snap.index().data(), workload, None) {
            Some(layout) => self.rebuild_and_publish(&snap, layout),
            None => snap.epoch(),
        }
    }

    /// Build a new index over the snapshot's data and swap it in. Flood is
    /// clustered — the data multiset is the table — so the rebuild shares
    /// the snapshot's CDFs, the learner's sample ones, and fits none.
    fn rebuild_and_publish(&self, snap: &IndexSnapshot, layout: Layout) -> u64 {
        let t0 = Instant::now();
        let index = snap.index().rebuild(layout);
        let epoch = self.published.publish(index);
        self.metrics
            .swap_wall_ns
            .record(t0.elapsed().as_nanos() as u64);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{server, workload_on};
    use flood_store::CountVisitor;

    /// A zero-capacity window still keeps the latest query, never more.
    #[test]
    fn zero_capacity_window_keeps_one_query() {
        let (_, s) = server(AdaptiveConfig {
            window: 0,
            check_every: 10,
            ..Default::default()
        });
        let w = workload_on(0, 100);
        let dues: usize = w.iter().map(|q| s.build.record(q) as usize).sum();
        assert_eq!(s.build.window(), w[99..].to_vec());
        assert_eq!(dues, 10, "the cadence still fires every 10 records");
        assert_eq!(
            s.build.since_check.load(Ordering::Relaxed),
            0,
            "the 100th record claimed the last crossing"
        );
    }

    /// One recorder per cadence crossing is told a check is due, even with
    /// concurrent recording.
    #[test]
    fn due_checks_fire_once_per_crossing() {
        let q = RangeQuery::all(3);
        let (_, s) = server(AdaptiveConfig {
            window: 8,
            check_every: 5,
            ..Default::default()
        });
        let dues: usize = (0..25).map(|_| s.build.record(&q) as usize).sum();
        // 25 records, cadence 5, window fills at 4 (cap/2): crossings at
        // 5, 10, 15, 20, 25.
        assert_eq!(dues, 5);

        let (_, s) = server(AdaptiveConfig {
            window: 64,
            check_every: 10,
            ..Default::default()
        });
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (side, total, q) = (&s.build, &total, &q);
                scope.spawn(move || {
                    let mine: usize = (0..100).map(|_| side.record(q) as usize).sum();
                    total.fetch_add(mine, Ordering::Relaxed);
                });
            }
        });
        let dues = total.load(Ordering::Relaxed);
        assert!(
            (30..=40).contains(&dues),
            "400 records at cadence 10 claim ~40 checks once the window \
             half-fills, never more: {dues}"
        );
    }

    /// Concurrent readers record through `&FloodServer` while executing;
    /// the one check their records make due sees every one of them.
    #[test]
    fn shared_readers_record_observations() {
        let (_, s) = server(AdaptiveConfig {
            window: 64,
            check_every: 100,
            ..Default::default()
        });
        let queries = workload_on(1, 25);
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (s, queries) = (&s, &queries);
                scope.spawn(move || {
                    for q in queries {
                        s.execute(q, None, &mut CountVisitor::default());
                    }
                });
            }
        });
        assert_eq!(
            s.build.window().len(),
            64,
            "window retains the most recent cap"
        );
        // 100 records at cadence 100: the crossing reset the counter, so
        // none was lost or counted twice.
        assert_eq!(s.build.since_check.load(Ordering::Relaxed), 0);
        // The 100th record crossed the cadence, exactly once.
        assert_ne!(s.maybe_adapt(), AdaptOutcome::NotDue);
        assert_eq!(s.maybe_adapt(), AdaptOutcome::NotDue);
        assert_eq!(s.diagnostics().adaptive.checks, 1);
    }

    #[test]
    fn diagnostics_export_publishes_gauges() {
        let (_, s) = server(AdaptiveConfig::default());
        s.force_relearn(&workload_on(1, 24));
        let d = s.diagnostics().adaptive;
        let reg = Registry::new();
        s.build.export(&reg);
        // Export twice: cumulative snapshots must overwrite, not add.
        s.build.export(&reg);
        let snap = reg.snapshot();
        let gauge = |name: &str| snap.gauge("adapt", name).map(|v| v as usize);
        assert_eq!(gauge("relearns"), Some(1));
        assert_eq!(gauge("checks"), Some(0));
        assert_eq!(gauge("relearn_searches"), Some(1));
        assert_eq!(gauge("sample_flattens"), Some(1));
        assert_eq!(gauge("window_flattens"), Some(d.window_flattens));
        assert_eq!(gauge("window_reuses"), Some(d.window_reuses));
        assert_eq!(
            gauge("cache_hits_across_relearns"),
            Some(d.cache_hits_across_relearns)
        );
        assert_eq!(
            snap.gauge("adapt", "relearn_wall_ns"),
            Some(d.relearn_wall.as_nanos() as i64)
        );
        assert_eq!(gauge("skipped"), Some(0));
    }

    /// The served grid is cut with the CDFs the search priced: the live
    /// index shares the learner's sample `Flattener` after the build, after
    /// a `maybe_adapt` swap and after `force_relearn`, so none of them fits
    /// a CDF of its own.
    #[test]
    fn served_index_shares_the_sample_cdfs() {
        let (_, s) = server(AdaptiveConfig {
            window: 24,
            check_every: 12,
            degradation_factor: 1.2,
        });
        let shares_sample = |s: &FloodServer| {
            let learner = s.build.learner.lock().expect("learner poisoned");
            let sample = learner
                .shared
                .flattener()
                .expect("built by the first learn");
            Arc::ptr_eq(s.snapshot().index().flattener(), sample)
        };
        assert!(shares_sample(&s), "after build");
        let swapped = workload_on(1, 60).iter().any(|q| {
            s.execute(q, None, &mut CountVisitor::default());
            matches!(s.maybe_adapt(), AdaptOutcome::Swapped(_))
        });
        assert!(swapped, "the shifted workload swaps");
        assert!(shares_sample(&s), "after a maybe_adapt swap");
        assert_eq!(s.force_relearn(&workload_on(2, 24)), s.epoch());
        assert!(s.epoch() >= 2);
        assert!(shares_sample(&s), "after force_relearn");
        assert_eq!(s.diagnostics().adaptive.sample_flattens, 1);
    }

    #[test]
    #[should_panic(expected = "a server cuts its grid with its sample's learned CDFs")]
    fn a_server_rejects_uniform_flattening() {
        let t = Table::from_columns(vec![(0..100).collect()]);
        let opt = LayoutOptimizer::new(flood_core::CostModel::analytic_default());
        let cfg = FloodConfig {
            flattening: Flattening::Uniform,
            ..Default::default()
        };
        FloodServer::build(&t, &[RangeQuery::all(1)], opt, cfg, ServeConfig::default());
    }

    /// A forced re-learn on no queries learns nothing: no epoch, no swap,
    /// no zero baseline for the next check to trip over.
    #[test]
    fn force_relearn_on_no_queries_keeps_the_layout() {
        let (_, s) = server(AdaptiveConfig {
            window: 30,
            check_every: 30,
            ..Default::default()
        });
        let layout = s.snapshot().index().layout().clone();
        assert_eq!(s.force_relearn(&[]), 0);
        let d = s.diagnostics();
        assert_eq!((d.epoch, d.swaps, d.adaptive.relearns), (0, 0, 0));
        assert_eq!(s.snapshot().index().layout(), &layout);
        // The next check prices the training workload against the
        // baseline its own learn set.
        for q in &workload_on(0, 30) {
            s.execute(q, None, &mut CountVisitor::default());
        }
        assert_eq!(s.maybe_adapt(), AdaptOutcome::Kept);
        assert_eq!(s.snapshot().index().layout(), &layout);
    }
}
