//! Workload-shift detection and automatic re-learning (§8, Shifting
//! workloads).
//!
//! "Flood could periodically evaluate the cost (§4) of the current layout
//! on queries over a recent time window. If the cost exceeds a threshold,
//! Flood can replace the layout." — the loop is split into two halves with
//! very different sharing requirements:
//!
//! * [`ObservationLog`] — the *read side*: a sliding window of observed
//!   queries plus the check cadence counter, entirely behind interior
//!   mutability (a short-lived mutex around the deque, atomics for the
//!   counters). Any number of concurrent readers can
//!   [`ObservationLog::record`] through a shared reference while serving
//!   queries; exactly one of them is told a degradation check is due.
//! * [`Relearner`] — the *build side*: the layout optimizer, the cost
//!   baseline, and the re-learn caches. [`Relearner::check`] prices the
//!   current layout on a window snapshot and, when degraded, runs
//!   Algorithm 1 and decides adoption. It never touches an index: it
//!   returns the winning [`OptimizedLayout`] and the caller rebuilds
//!   ([`crate::FloodIndex::rebuild`]) and publishes it.
//!
//! `flood-serve`'s `FloodServer` composes the two into the §8 loop:
//! readers record, a maintenance turn checks, and an adopted layout is
//! rebuilt off the serving path and published behind an epoch-swapped
//! `Arc`.
//!
//! ## Cache sharing across re-learns
//!
//! Pricing and re-learning both run against a flattened data sample
//! ([`crate::optimizer::SampleSpace`]), whose expensive half — row
//! sampling, per-dimension RMI training, flattening — depends only on the
//! data. Flood is clustered, so rebuilds permute rows but never change the
//! data *multiset*; the [`Relearner`] keeps one [`EvaluatorCache`] alive
//! across every check and re-learn: the data sample is flattened **once**,
//! and the query-dependent layers (flattened windows, per-dimension mask
//! caches, layout memos) are keyed on a fingerprint of the sampled
//! observation window, so the degradation check that triggers a re-learn
//! hands its masks and memo entries straight to the layout search.
//! [`Relearner::diagnostics`] reports the work.
//!
//! ## Correlation across re-learns (Tsunami/COAX extension)
//!
//! No extra wiring is needed to keep soft-FD exploitation current: a
//! re-learn searches with [`crate::optimizer::OptimizerConfig::correlation`]
//! (collapse/re-weight candidates against the sampled window), the winning
//! layout carries the FDs that search priced, and the rebuild that adopts
//! it builds exact envelopes and outlier rows for exactly those.
//! `tests/prop_correlation.rs` pins the result identity of this loop under
//! a drifting workload.

use crate::layout::Layout;
use crate::optimizer::{EvaluatorCache, LayoutOptimizer, OptimizedLayout};
use flood_store::{RangeQuery, Table};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration for the adaptive loop (the serving layer's background
/// adaptation in `flood-serve`).
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
/// and the re-learn regression tests.
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

impl AdaptiveDiagnostics {
    /// Publish these lifetime counters into a `flood-obs` registry under
    /// `subsystem` as gauges — the diagnostics are cumulative snapshots,
    /// so repeated exports overwrite rather than double-count.
    pub fn export(&self, registry: &flood_obs::Registry, subsystem: &str) {
        let g = |name: &str, v: usize| registry.gauge(subsystem, name).set(v as i64);
        g("relearns", self.relearns);
        g("checks", self.checks);
        g(
            "cache_hits_across_relearns",
            self.cache_hits_across_relearns,
        );
        g("sample_flattens", self.sample_flattens);
        g("window_flattens", self.window_flattens);
        g("window_reuses", self.window_reuses);
        registry
            .gauge(subsystem, "relearn_wall_ns")
            .set(self.relearn_wall.as_nanos() as i64);
    }
}

/// The read side of the adaptive loop: a sliding window of observed
/// queries plus the check-cadence counter, safe to record into from any
/// number of concurrent readers through a shared reference.
///
/// The deque sits behind a mutex held only for a push (microseconds — the
/// serving path never blocks behind a re-learn), the cadence counter is an
/// atomic, and the due-check handshake uses a compare-exchange so exactly
/// one recorder per crossing is told a check is due.
#[derive(Debug)]
pub struct ObservationLog {
    window: Mutex<VecDeque<RangeQuery>>,
    cap: usize,
    check_every: usize,
    since_check: AtomicUsize,
    observed: AtomicU64,
}

impl ObservationLog {
    /// A log keeping the most recent `cap` queries (at least one),
    /// declaring a check due every `check_every` records (once the window
    /// is at least half full).
    pub fn new(cap: usize, check_every: usize) -> Self {
        ObservationLog {
            window: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
            check_every,
            since_check: AtomicUsize::new(0),
            observed: AtomicU64::new(0),
        }
    }

    /// Record one observed query. Returns `true` when this record makes a
    /// degradation check due — `check_every` records have accumulated and
    /// the window is at least half full. Under concurrent recording
    /// exactly one caller per crossing sees `true`; the cadence counter
    /// only resets when a due check is claimed, matching the serial loop.
    pub fn record(&self, query: &RangeQuery) -> bool {
        let len = {
            let mut w = self.window.lock().expect("observation window poisoned");
            if w.len() >= self.cap.max(1) {
                w.pop_front();
            }
            w.push_back(query.clone());
            w.len()
        };
        self.observed.fetch_add(1, Ordering::Relaxed);
        let n = self.since_check.fetch_add(1, Ordering::AcqRel) + 1;
        n >= self.check_every
            && len >= self.cap / 2
            && self
                .since_check
                .compare_exchange(n, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// The current window contents, oldest first.
    pub fn snapshot(&self) -> Vec<RangeQuery> {
        self.window
            .lock()
            .expect("observation window poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Queries currently in the window.
    pub fn len(&self) -> usize {
        self.window
            .lock()
            .expect("observation window poisoned")
            .len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total queries ever recorded (not capped by the window).
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }
}

/// The build side of the adaptive loop: prices observation windows against
/// the cost baseline and runs the layout search when degraded.
///
/// Owns no index — [`Relearner::check`] returns the adopted
/// [`OptimizedLayout`] (or `None`) and the caller rebuilds/publishes.
/// That split is what lets `flood-serve` run the search and rebuild off
/// the serving path and swap the result in atomically.
#[derive(Debug)]
pub struct Relearner {
    optimizer: LayoutOptimizer,
    cfg: AdaptiveConfig,
    baseline_cost: f64,
    /// Shared flattened sample + per-window evaluators.
    shared: EvaluatorCache,
    /// The counters this side keeps itself; the flatten counts are read
    /// off `shared` when [`Relearner::diagnostics`] is asked.
    tally: AdaptiveDiagnostics,
}

impl Relearner {
    /// Learn the initial layout for `initial_workload` over `table` and
    /// seed the cost baseline with its predicted cost. Returns the
    /// relearner and the learned layout for the caller to build.
    pub fn learn_initial(
        table: &Table,
        initial_workload: &[RangeQuery],
        optimizer: LayoutOptimizer,
        cfg: AdaptiveConfig,
    ) -> (Self, OptimizedLayout) {
        let mut shared = EvaluatorCache::new();
        let learned = optimizer.optimize_shared(table, initial_workload, &mut shared);
        let relearner = Relearner {
            optimizer,
            cfg,
            baseline_cost: learned.predicted_ns,
            shared,
            tally: AdaptiveDiagnostics::default(),
        };
        (relearner, learned)
    }

    /// Price `current` on the observation `window`; when degraded past the
    /// baseline, search for a replacement. Returns the layout to adopt, or
    /// `None` to keep the current one (an un-adopted search raises the
    /// baseline so the same window doesn't thrash).
    ///
    /// The layout is priced on the optimizer's deterministic query sample
    /// of the window ([`LayoutOptimizer::sample_queries`]) — the same
    /// subset a re-learn would search on, so the degradation comparison
    /// and the adopt-or-keep comparison read from one scale.
    pub fn check(
        &mut self,
        window: &[RangeQuery],
        data: &Table,
        current: &Layout,
    ) -> Option<OptimizedLayout> {
        if window.is_empty() {
            return None;
        }
        self.tally.checks += 1;
        let mut span = flood_obs::span("degradation_check");
        let adopted = self.price_and_search(window, data, current);
        if span.is_sampled() {
            span.note(&format!(
                "window={} adopted={}",
                window.len(),
                adopted.is_some()
            ));
        }
        adopted
    }

    /// One data sample for the lifetime, evaluators pooled by window
    /// fingerprint, the check's pricing work feeding the search.
    fn price_and_search(
        &mut self,
        window: &[RangeQuery],
        data: &Table,
        layout: &Layout,
    ) -> Option<OptimizedLayout> {
        let (queries, mut rng) = self.optimizer.sample_queries(window);
        let eval = self
            .shared
            .evaluator(&self.optimizer, data, &queries, &mut rng);
        let current = eval.predict(layout);
        if current <= self.cfg.degradation_factor * self.baseline_cost {
            return None;
        }
        // Degraded: re-learn on the same evaluator. The epoch boundary
        // separates the check's cache state from the search, so the
        // cross-epoch counter reports exactly what the check pre-paid.
        eval.advance_epoch();
        let cross0 = eval.cross_epoch_hits();
        let _span = flood_obs::span("relearn");
        let t0 = Instant::now();
        let learned = self.optimizer.optimize_in(eval);
        self.tally.relearn_wall += t0.elapsed();
        self.tally.relearn_searches += 1;
        self.tally.cache_hits_across_relearns += eval.cross_epoch_hits() - cross0;
        // Adopt the learned layout when it beats the degraded current
        // cost; otherwise raise the baseline so the same window doesn't
        // thrash.
        if learned.predicted_ns < current {
            self.baseline_cost = learned.predicted_ns;
            self.tally.relearns += 1;
            Some(learned)
        } else {
            self.baseline_cost = current;
            None
        }
    }

    /// Re-learn unconditionally on `workload` (no degradation gate, always
    /// adopted) — deterministic layout swaps for the serving experiments
    /// and the soak harness.
    pub fn relearn_on(&mut self, data: &Table, workload: &[RangeQuery]) -> OptimizedLayout {
        let _span = flood_obs::span("relearn");
        let t0 = Instant::now();
        let (queries, mut rng) = self.optimizer.sample_queries(workload);
        let eval = self
            .shared
            .evaluator(&self.optimizer, data, &queries, &mut rng);
        eval.advance_epoch();
        let cross0 = eval.cross_epoch_hits();
        let learned = self.optimizer.optimize_in(eval);
        self.tally.cache_hits_across_relearns += eval.cross_epoch_hits() - cross0;
        self.tally.relearn_wall += t0.elapsed();
        self.tally.relearn_searches += 1;
        self.baseline_cost = learned.predicted_ns;
        self.tally.relearns += 1;
        learned
    }

    /// Lifetime work counters (see [`AdaptiveDiagnostics`]).
    pub fn diagnostics(&self) -> AdaptiveDiagnostics {
        AdaptiveDiagnostics {
            sample_flattens: self.shared.data_builds(),
            window_flattens: self.shared.window_builds(),
            window_reuses: self.shared.window_reuses(),
            ..self.tally
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::index::FloodIndex;
    use crate::optimizer::OptimizerConfig;
    use crate::FloodConfig;
    use flood_store::{CountVisitor, MultiDimIndex};

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

    /// A relearner and index tuned for dim-0 ranges only.
    fn learned_on_dim0(degradation_factor: f64) -> (Relearner, FloodIndex) {
        let t = table();
        let (relearner, learned) = Relearner::learn_initial(
            &t,
            &workload_on(0, 30),
            optimizer(),
            AdaptiveConfig {
                degradation_factor,
                ..Default::default()
            },
        );
        (
            relearner,
            FloodIndex::build(&t, learned.layout, FloodConfig::default()),
        )
    }

    #[test]
    fn shifted_workload_triggers_retrain() {
        let (mut r, index) = learned_on_dim0(1.2);
        // Shift: everything now filters dim 1 only.
        let w1 = workload_on(1, 24);
        let learned = r
            .check(&w1[..12], index.data(), index.layout())
            .expect("shift to an unindexed dim must trigger retraining");
        assert_ne!(
            index.layout(),
            &learned.layout,
            "retraining should change the layout"
        );
        assert!(
            learned.layout.order().contains(&1),
            "new layout must index the hot dimension: {}",
            learned.layout
        );
        // A wider window priced against the same stale layout searches
        // again, on top of what the first check and search cached.
        assert!(r.check(&w1, index.data(), index.layout()).is_some());
        let d = r.diagnostics();
        assert_eq!((d.checks, d.relearns), (2, 2));
        assert!(
            d.relearn_searches >= d.relearns && d.relearn_wall > Duration::ZERO,
            "every adopted re-learn came from a timed search"
        );
        assert!(
            d.cache_hits_across_relearns > 0,
            "earlier pricing must feed a later search"
        );
        assert_eq!(d.sample_flattens, 1, "one data flatten across re-learns");
    }

    #[test]
    fn results_stay_correct_across_retrains() {
        let t = table();
        let (mut r, index) = learned_on_dim0(1.1);
        let w1 = workload_on(1, 30);
        let learned = r
            .check(&w1[..16], index.data(), index.layout())
            .expect("degraded window re-learns");
        let rebuilt = index.rebuild(learned.layout);
        for q in &w1 {
            let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
            for idx in [&index, &rebuilt] {
                let mut v = CountVisitor::default();
                idx.execute(q, None, &mut v);
                assert_eq!(v.count, truth);
            }
        }
    }

    /// Concurrent readers record observations through `&ObservationLog`
    /// while executing; the writer's later check sees every one of them.
    #[test]
    fn shared_readers_record_observations() {
        let (mut r, index) = learned_on_dim0(1.5);
        let log = ObservationLog::new(64, 1_000_000); // never due mid-run
        let queries = workload_on(1, 25);
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (log, index, queries) = (&log, &index, &queries);
                scope.spawn(move || {
                    for q in queries {
                        let mut v = CountVisitor::default();
                        index.execute(q, None, &mut v);
                        let due = log.record(q);
                        assert!(!due, "cadence of 1M can never be due here");
                    }
                });
            }
        });
        assert_eq!(log.observed(), (threads * queries.len()) as u64);
        assert_eq!(log.len(), 64, "window retains the most recent cap");
        // The writer's turn sees the recorded window and can check on it.
        r.check(&log.snapshot(), index.data(), index.layout());
        assert_eq!(r.diagnostics().checks, 1);
    }

    /// A zero-capacity window still keeps the latest query, never more.
    #[test]
    fn zero_capacity_window_keeps_one_query() {
        let log = ObservationLog::new(0, 10);
        let w = workload_on(0, 100);
        let dues: usize = w.iter().map(|q| log.record(q) as usize).sum();
        assert_eq!(log.snapshot(), w[99..].to_vec());
        assert_eq!(log.observed(), 100);
        assert_eq!(dues, 10, "the cadence still fires every 10 records");
    }

    /// One recorder per cadence crossing is told a check is due, even with
    /// concurrent recording.
    #[test]
    fn due_checks_fire_once_per_crossing() {
        let log = ObservationLog::new(8, 5);
        let q = RangeQuery::all(1);
        let dues: usize = (0..25).map(|_| log.record(&q) as usize).sum();
        // 25 records, cadence 5, window fills at 4 (cap/2): crossings at
        // 5, 10, 15, 20, 25.
        assert_eq!(dues, 5);

        let log = ObservationLog::new(64, 10);
        let total = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (log, total, q) = (&log, &total, &q);
                scope.spawn(move || {
                    let mut mine = 0;
                    for _ in 0..100 {
                        mine += log.record(q) as usize;
                    }
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

    #[test]
    fn diagnostics_export_publishes_gauges() {
        let diag = AdaptiveDiagnostics {
            relearns: 3,
            checks: 12,
            relearn_searches: 2,
            relearn_wall: Duration::from_nanos(1_200),
            cache_hits_across_relearns: 42,
            sample_flattens: 1,
            window_flattens: 5,
            window_reuses: 7,
        };
        let reg = flood_obs::Registry::new();
        diag.export(&reg, "adapt");
        // Export twice: cumulative snapshots must overwrite, not add.
        diag.export(&reg, "adapt");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("adapt", "relearns"), Some(3));
        assert_eq!(snap.gauge("adapt", "checks"), Some(12));
        assert_eq!(snap.gauge("adapt", "cache_hits_across_relearns"), Some(42));
        assert_eq!(snap.gauge("adapt", "sample_flattens"), Some(1));
        assert_eq!(snap.gauge("adapt", "window_flattens"), Some(5));
        assert_eq!(snap.gauge("adapt", "window_reuses"), Some(7));
        assert_eq!(snap.gauge("adapt", "relearn_wall_ns"), Some(1_200));
    }
}
