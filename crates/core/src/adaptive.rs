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
//!   returns the winning [`OptimizedLayout`] and the caller rebuilds and
//!   *publishes* however it likes — in place here, or behind an
//!   epoch-swapped `Arc` in `flood-serve`.
//!
//! [`AdaptiveFlood`] composes the two with a [`FloodIndex`] into the
//! single-threaded §8 loop: observe, check, rebuild in place.
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
//! [`AdaptiveFlood::diagnostics`] reports the work.
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

use crate::config::FloodConfig;
use crate::index::FloodIndex;
use crate::layout::Layout;
use crate::optimizer::{EvaluatorCache, LayoutOptimizer, OptimizedLayout};
use flood_store::{MultiDimIndex, RangeQuery, ScanStats, Table, Visitor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration for the adaptive loop ([`AdaptiveFlood`], and the serving
/// layer's background adaptation in `flood-serve`).
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
    /// Total wall-clock spent in re-learn searches.
    pub fn relearn_wall_total(&self) -> Duration {
        self.relearn_wall
    }

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
            .set(self.relearn_wall_total().as_nanos() as i64);
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
    /// A log keeping the most recent `cap` queries, declaring a check due
    /// every `check_every` records (once the window is at least half
    /// full).
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
            if w.len() == self.cap {
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

    /// The configuration in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Predicted cost baseline (ns/query) of the current layout.
    pub fn baseline_cost(&self) -> f64 {
        self.baseline_cost
    }

    /// Times a re-learned layout was adopted.
    pub fn relearns(&self) -> usize {
        self.tally.relearns
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

/// A self-retuning Flood index: [`ObservationLog`] + [`Relearner`] +
/// [`FloodIndex`], rebuilt in place on the caller's thread.
///
/// Shared readers can record observations through
/// [`AdaptiveFlood::record`] (`&self`); the check and rebuild still take
/// `&mut self`. For a serving layer where the rebuild itself happens off
/// the read path, see `flood-serve`.
#[derive(Debug)]
pub struct AdaptiveFlood {
    index: FloodIndex,
    obs: ObservationLog,
    relearner: Relearner,
}

impl AdaptiveFlood {
    /// Build with an initial workload (used to learn the first layout and
    /// set the cost baseline).
    pub fn build(
        table: &Table,
        initial_workload: &[RangeQuery],
        optimizer: LayoutOptimizer,
        flood_cfg: FloodConfig,
        cfg: AdaptiveConfig,
    ) -> Self {
        let (relearner, learned) =
            Relearner::learn_initial(table, initial_workload, optimizer, cfg);
        let index = FloodIndex::build(table, learned.layout, flood_cfg);
        AdaptiveFlood {
            index,
            obs: ObservationLog::new(cfg.window, cfg.check_every),
            relearner,
        }
    }

    /// Execute a query, record it in the observation window, and retrain if
    /// the periodic check finds the layout degraded. Returns the stats plus
    /// whether a retrain happened.
    pub fn execute_adaptive(
        &mut self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> (ScanStats, bool) {
        let stats = self.index.execute(query, agg_dim, visitor);
        let retrained = self.observe(query);
        (stats, retrained)
    }

    /// Record an already-executed query in the observation window and run
    /// the periodic degradation check. Returns whether a retrain happened.
    ///
    /// Harnesses that time query execution separately from adaptation
    /// execute against [`AdaptiveFlood::index`] and then feed the query
    /// here; [`AdaptiveFlood::execute_adaptive`] is the two fused.
    pub fn observe(&mut self, query: &RangeQuery) -> bool {
        if self.record(query) {
            self.maybe_retrain()
        } else {
            false
        }
    }

    /// The read-side half of [`AdaptiveFlood::observe`]: record a query
    /// through a shared reference (no `&mut` needed — concurrent readers
    /// can call this while executing against [`AdaptiveFlood::index`]).
    /// Returns `true` when a degradation check is due; hand that to
    /// [`AdaptiveFlood::maybe_retrain`] on the writer's turn.
    pub fn record(&self, query: &RangeQuery) -> bool {
        self.obs.record(query)
    }

    /// Price the current layout on the window; retrain when degraded.
    /// Returns whether a retrain happened.
    pub fn maybe_retrain(&mut self) -> bool {
        let window = self.obs.snapshot();
        match self
            .relearner
            .check(&window, self.index.data(), self.index.layout())
        {
            Some(learned) => {
                // The rebuild happens on the index's own data copy (Flood
                // is clustered: the data multiset is the table), so the
                // CDFs it has fitted carry over.
                self.index = self.index.rebuild(learned.layout);
                true
            }
            None => false,
        }
    }

    /// The live index.
    pub fn index(&self) -> &FloodIndex {
        &self.index
    }

    /// The observation window (shared read side).
    pub fn observations(&self) -> &ObservationLog {
        &self.obs
    }

    /// Times the layout has been replaced.
    pub fn relearns(&self) -> usize {
        self.relearner.relearns()
    }

    /// Predicted cost baseline (ns/query) of the current layout.
    pub fn baseline_cost(&self) -> f64 {
        self.relearner.baseline_cost()
    }

    /// Lifetime work counters (see [`AdaptiveDiagnostics`]).
    pub fn diagnostics(&self) -> AdaptiveDiagnostics {
        self.relearner.diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::optimizer::OptimizerConfig;
    use flood_store::CountVisitor;

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

    #[test]
    fn stable_workload_never_retrains() {
        let t = table();
        let w = workload_on(0, 30);
        let mut a = AdaptiveFlood::build(
            &t,
            &w,
            optimizer(),
            FloodConfig::default(),
            AdaptiveConfig {
                window: 20,
                check_every: 10,
                degradation_factor: 1.5,
            },
        );
        let mut retrains = 0;
        for q in w.iter().cycle().take(60) {
            let mut v = CountVisitor::default();
            let (_, r) = a.execute_adaptive(q, None, &mut v);
            retrains += r as usize;
        }
        assert_eq!(retrains, 0, "same workload should not trigger retraining");
        let d = a.diagnostics();
        assert!(d.checks > 0, "checks must run");
        assert_eq!(d.relearn_searches, 0, "no degraded check, no search");
        assert_eq!(
            d.sample_flattens, 1,
            "the data sample is flattened once, ever"
        );
    }

    #[test]
    fn shifted_workload_triggers_retrain() {
        let t = table();
        // Initial layout tuned for dim 0 only.
        let w0 = workload_on(0, 30);
        let mut a = AdaptiveFlood::build(
            &t,
            &w0,
            optimizer(),
            FloodConfig::default(),
            AdaptiveConfig {
                window: 24,
                check_every: 12,
                degradation_factor: 1.2,
            },
        );
        let before = a.index().layout().clone();
        // Shift: everything now filters dim 1 only.
        let w1 = workload_on(1, 40);
        let mut retrained = false;
        for q in &w1 {
            let mut v = CountVisitor::default();
            let (_, r) = a.execute_adaptive(q, None, &mut v);
            retrained |= r;
        }
        assert!(
            retrained,
            "shift to an unindexed dim must trigger retraining"
        );
        assert!(a.relearns() >= 1);
        let after = a.index().layout();
        assert_ne!(&before, after, "retraining should change the layout");
        assert!(
            after.order().contains(&1),
            "new layout must index the hot dimension: {after}"
        );
        let d = a.diagnostics();
        assert_eq!(d.relearns, a.relearns());
        assert!(
            d.relearn_searches >= d.relearns && d.relearn_wall > Duration::ZERO,
            "every adopted re-learn came from a timed search"
        );
        assert!(
            d.cache_hits_across_relearns > 0,
            "the degradation check's pricing must feed the search"
        );
        assert_eq!(d.sample_flattens, 1, "one data flatten across re-learns");
    }

    #[test]
    fn results_stay_correct_across_retrains() {
        let t = table();
        let w0 = workload_on(0, 20);
        let mut a = AdaptiveFlood::build(
            &t,
            &w0,
            optimizer(),
            FloodConfig::default(),
            AdaptiveConfig {
                window: 16,
                check_every: 8,
                degradation_factor: 1.1,
            },
        );
        let w1 = workload_on(1, 30);
        for q in &w1 {
            let mut v = CountVisitor::default();
            a.execute_adaptive(q, None, &mut v);
            let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
            assert_eq!(v.count, truth);
        }
    }

    /// The observe() bugfix regression: concurrent readers sharing
    /// `&AdaptiveFlood` record observations while executing; a later
    /// `&mut` check sees every one of them. Before the split, recording
    /// required `&mut self` even on the no-relearn path, so this could
    /// not compile, let alone run.
    #[test]
    fn shared_readers_record_observations() {
        let t = table();
        let w0 = workload_on(0, 30);
        let a = AdaptiveFlood::build(
            &t,
            &w0,
            optimizer(),
            FloodConfig::default(),
            AdaptiveConfig {
                window: 64,
                check_every: 1_000_000, // never due mid-run
                degradation_factor: 1.5,
            },
        );
        let queries = workload_on(1, 25);
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (a, queries) = (&a, &queries);
                scope.spawn(move || {
                    for q in queries {
                        let mut v = CountVisitor::default();
                        a.index().execute(q, None, &mut v);
                        let due = a.record(q);
                        assert!(!due, "cadence of 1M can never be due here");
                    }
                });
            }
        });
        let obs = a.observations();
        assert_eq!(obs.observed(), (threads * queries.len()) as u64);
        assert_eq!(obs.len(), 64, "window retains the most recent cap");
        // The writer's turn sees the recorded window and can check on it.
        let mut a = a;
        let checks0 = a.diagnostics().checks;
        a.maybe_retrain();
        assert_eq!(a.diagnostics().checks, checks0 + 1);
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
