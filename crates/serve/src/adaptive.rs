//! The §8 shifting-workload loop, whole: [`FloodServer`]'s build side and
//! its [`FloodServer::build`] / [`FloodServer::maybe_adapt`] /
//! [`FloodServer::force_relearn`].
//!
//! Readers record each answered query, with the points it touched, into a
//! sliding window. A check comes due two ways: a *shift* — `SHIFT_RUN`
//! consecutive queries each touching more than `degradation_factor ×` the
//! epoch's reference — or the `check_every` cadence, which catches drift
//! too slow to make such a run and waits while one is in progress. A
//! maintenance turn prices the current layout on the whole window and,
//! past the threshold, runs Algorithm 1 — on the shift's run alone (less
//! any leading queries of the old regime), or on the window for a cadence
//! check — rebuilds off the serving path, publishes, and restarts the
//! window from the queries the new layout was learned on. All three calls share one
//! learn path and one [`CostEvaluator`], pointed at each window in turn: a
//! rebuild never changes the data multiset, so the data sample is flattened
//! once, every index is cut with that sample's CDFs, and the check that
//! triggers a re-learn hands its masks and memo entries to the search. Each
//! search runs on the server's pool, one task per sort-dimension candidate,
//! as every build does.

use crate::epoch::IndexSnapshot;
use crate::server::{BuildSide, FloodServer, ServeConfig, ServeDiagnostics, Server};
use flood_core::{CostEvaluator, Flattening, FloodConfig, FloodIndex, Layout, LayoutOptimizer};
use flood_exec::{QueryExecutor, ThreadPool};
use flood_obs::Registry;
use flood_store::{RangeQuery, ScanStats, Table};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Queries served on a fresh epoch whose mean touched-point count is its
/// reference: enough to average one query's range width away, few enough
/// that a shift soon after a swap is still caught.
const REFERENCE_QUERIES: usize = 16;

/// Consecutive queries touching more than `degradation_factor ×` the
/// reference that make a check due. After an abrupt shift every query is
/// heavy, while heavy queries inside one regime rarely come this many in a
/// row; the run is also all a shift's re-learn searches, so it must hold
/// enough queries to learn a layout from.
const SHIFT_RUN: usize = 8;

/// Window, cadence and degradation threshold of the adaptive loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Number of recent queries kept in the observation window.
    pub window: usize,
    /// Re-check cadence: evaluate the layout every `check_every` queries
    /// once the window is half full, deferred while a run of heavy queries
    /// is in progress. An abrupt shift is caught sooner, by that run; the
    /// cadence stays for slow drift, which raises the cost of the window
    /// without ever making the run.
    pub check_every: usize,
    /// Retrain when `cost(current layout, window)` exceeds
    /// `degradation_factor × cost(layout at last build, its workload)`.
    /// Also the shift trigger's ratio: a query is heavy when it touches
    /// more than `degradation_factor ×` the epoch's reference.
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
    /// Those of the checks a shift made due rather than the cadence.
    pub shift_checks: usize,
    /// Re-learn *searches* run (a degraded check triggered Algorithm 1),
    /// whether or not the resulting layout was adopted.
    pub relearn_searches: usize,
    /// Those of the searches that ran on a shift's run alone, each over a
    /// query set of its own.
    pub run_searches: usize,
    /// Total wall-clock of those searches.
    pub relearn_wall: Duration,
    /// During re-learn searches: cost evaluations and per-dimension mask
    /// fetches served by cache state built *before* the search began — the
    /// degradation check's pricing work, or earlier windows.
    pub cache_hits_across_relearns: usize,
    /// Times the data sample was flattened (sampling + RMI training):
    /// always 1, when the server was built; every window reuses it.
    pub sample_flattens: usize,
    /// Observation windows flattened into a query layer, the build's
    /// included.
    pub window_flattens: usize,
    /// Checks/re-learns that found the evaluator already on their window
    /// (same fingerprint).
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

/// What made a check due, and so what a degraded check searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// `check_every` records: search the whole window.
    Cadence,
    /// A run of this many heavy records, the window's last: search them
    /// alone.
    Shift(usize),
}

/// The observation window and the trigger state readers keep with it,
/// under one lock.
#[derive(Debug)]
struct Window {
    /// The most recent `cap` queries (at least one), oldest first, each
    /// with the points it touched.
    queries: VecDeque<(RangeQuery, u64)>,
    /// Records since the last cadence crossing was claimed.
    since_check: usize,
    /// Records on this epoch, counted up to [`REFERENCE_QUERIES`].
    measured: usize,
    /// Points those records touched.
    measured_sum: u64,
    /// `degradation_factor ×` their mean once measured; infinite before.
    heavy_above: f64,
    /// Consecutive records since then that touched more.
    run: usize,
    /// The run crossed a multiple of [`SHIFT_RUN`] since the last check
    /// took the window.
    shift_due: bool,
}

impl Window {
    /// A window holding `queries`, its reference not yet measured.
    fn new(queries: VecDeque<(RangeQuery, u64)>) -> Self {
        Window {
            queries,
            since_check: 0,
            measured: 0,
            measured_sum: 0,
            heavy_above: f64::INFINITY,
            run: 0,
            shift_due: false,
        }
    }

    /// Count one record's touched points: into the reference while it is
    /// measured, then into the run. Returns `true` when the run crosses a
    /// multiple of [`SHIFT_RUN`].
    fn track(&mut self, touched: u64, factor: f64) -> bool {
        if self.measured < REFERENCE_QUERIES {
            self.measured += 1;
            self.measured_sum += touched;
            if self.measured == REFERENCE_QUERIES {
                self.heavy_above = factor * self.measured_sum as f64 / REFERENCE_QUERIES as f64;
            }
            return false;
        }
        if touched as f64 <= self.heavy_above {
            self.run = 0;
            return false;
        }
        self.run += 1;
        self.run % SHIFT_RUN == 0
    }
}

/// [`FloodServer`]'s build side: the observation window readers record
/// into, the learner behind a mutex readers never touch, and the pool the
/// batched path runs on.
#[derive(Debug)]
pub struct AdaptiveSide {
    pub(crate) exec: QueryExecutor,
    pub(crate) batch: usize,
    /// Held only to record one query: readers never wait on a re-learn.
    window: Mutex<Window>,
    cap: usize,
    check_every: usize,
    degradation_factor: f64,
    /// Set by the recorder that makes a check due, cleared by the
    /// adaptation turn that takes the window; both under the window lock.
    check_due: AtomicBool,
    /// A learn in flight only makes `maybe_adapt` report
    /// [`AdaptOutcome::Busy`].
    learner: Mutex<Learner>,
    adapt_skipped: AtomicU64,
    /// Times the learner's lock was taken over from a holder that panicked.
    learner_recoveries: AtomicU64,
}

impl AdaptiveSide {
    /// The window lock. Each statement under it leaves the ring and the
    /// trigger counters consistent, so a holder that panicked left nothing
    /// torn: recover the guard rather than fail every later read.
    fn lock_window(&self) -> MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The learner's lock, waiting for a learn in flight. A holder that
    /// panicked — inside a learn, a rebuild or its publish — stopped at
    /// most a learn's bookkeeping half done: the cached statistics and the
    /// baseline feed only cost estimates, never an answer, so the learner
    /// is taken over (and the recovery counted) rather than stopping every
    /// later adaptation.
    fn lock_learner(&self) -> MutexGuard<'_, Learner> {
        self.learner.lock().unwrap_or_else(|p| self.recover(p))
    }

    /// [`AdaptiveSide::lock_learner`] without waiting: `None` while a learn
    /// is in flight.
    fn try_lock_learner(&self) -> Option<MutexGuard<'_, Learner>> {
        match self.learner.try_lock() {
            Ok(learner) => Some(learner),
            Err(TryLockError::Poisoned(p)) => Some(self.recover(p)),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    fn recover<'a>(&self, p: PoisonError<MutexGuard<'a, Learner>>) -> MutexGuard<'a, Learner> {
        self.learner_recoveries.fetch_add(1, Ordering::Relaxed);
        self.learner.clear_poison();
        p.into_inner()
    }

    /// Record one query and the points it touched. Returns `true` when
    /// this record makes a check due: its run of heavy queries reaches a
    /// multiple of [`SHIFT_RUN`], or, outside a run, `check_every` records
    /// have accumulated with the window at least half full. Under
    /// concurrent recording exactly one caller per crossing sees `true`.
    // Out of line: inlined into `observe`, the read path measured 5–12 %
    // slower p50 on `olap_resident` and `narrow_lookup` (2 vCPU, alternating).
    #[inline(never)]
    fn record(&self, query: &RangeQuery, touched: u64) -> bool {
        let mut w = self.lock_window();
        if w.queries.len() >= self.cap.max(1) {
            w.queries.pop_front();
        }
        w.queries.push_back((query.clone(), touched));
        let shift = w.track(touched, self.degradation_factor);
        w.shift_due |= shift;
        w.since_check += 1;
        // A run in progress defers the cadence: a cadence check inside it
        // would search a window of both regimes. The run's own check, or
        // the first light record after it, prices the same window soon.
        let cadence =
            w.run == 0 && w.since_check >= self.check_every && w.queries.len() >= self.cap / 2;
        if cadence {
            w.since_check = 0;
        }
        if shift || cadence {
            self.check_due.store(true, Ordering::Release);
        }
        shift || cadence
    }

    /// Take a due check: the window it prices, oldest first, and what made
    /// it due.
    fn take_check(&self) -> (Vec<RangeQuery>, Trigger) {
        let mut w = self.lock_window();
        self.check_due.store(false, Ordering::Release);
        let window: Vec<RangeQuery> = w.queries.iter().map(|(q, _)| q.clone()).collect();
        let trigger = if std::mem::take(&mut w.shift_due) {
            // A run broken since it came due: the last SHIFT_RUN records.
            let run = w.run.max(SHIFT_RUN).min(window.len());
            let touched: Vec<u64> = w.queries.range(window.len() - run..).map(|e| e.1).collect();
            Trigger::Shift(since_shift(&touched, self.degradation_factor))
        } else {
            Trigger::Cadence
        };
        (window, trigger)
    }

    /// After a publish: restart the window from `learned_on`, the queries
    /// the new layout was learned on, and measure the new epoch's
    /// reference afresh. No later check prices a query the old layout
    /// served, and a check due on the old window is dropped. What those
    /// queries touch on the new layout is unknown, and no run reaches back
    /// past the reference to read it: they are kept with 0.
    fn restart(&self, learned_on: &[RangeQuery]) {
        let mut w = self.lock_window();
        let skip = learned_on.len().saturating_sub(self.cap.max(1));
        *w = Window::new(learned_on[skip..].iter().map(|q| (q.clone(), 0)).collect());
        self.check_due.store(false, Ordering::Release);
    }
}

/// How many of a run's records, given their touched counts oldest first,
/// came after the shift: leading records that touched less than
/// `1 / factor ×` the run's median were heavy by chance on the old regime,
/// and the re-learn leaves them out. The newest record always stays.
fn since_shift(touched: &[u64], factor: f64) -> usize {
    let mut sorted = touched.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2] as f64;
    let before = touched[..touched.len() - 1]
        .iter()
        .take_while(|&&t| t as f64 * factor < median)
        .count();
    touched.len() - before
}

impl BuildSide for AdaptiveSide {
    /// Record the query and the points it touched.
    fn observe(&self, query: &RangeQuery, stats: &ScanStats) {
        self.record(query, stats.points_scanned + stats.points_in_exact_ranges);
    }

    fn report(&self, d: &mut ServeDiagnostics) {
        d.adapt_skipped = self.adapt_skipped.load(Ordering::Relaxed);
        d.adaptive = self.lock_learner().diagnostics();
        d.learner_recoveries = self.learner_recoveries.load(Ordering::Relaxed);
    }

    /// The lifetime counters as `adapt.*` gauges: cumulative snapshots, so
    /// a repeated export overwrites rather than double-counts. Polled with
    /// `try_lock`: a learn in flight keeps the previous learner values
    /// rather than blocking the scrape.
    fn export(&self, registry: &Registry) {
        let skipped = self.adapt_skipped.load(Ordering::Relaxed);
        registry.gauge("adapt", "skipped").set(skipped as i64);
        let g = |name: &str, v: usize| registry.gauge("adapt", name).set(v as i64);
        let Some(learner) = self.try_lock_learner() else {
            return;
        };
        let recoveries = self.learner_recoveries.load(Ordering::Relaxed);
        g("learner_recoveries", recoveries as usize);
        let d = learner.diagnostics();
        g("relearns", d.relearns);
        g("checks", d.checks);
        g("shift_checks", d.shift_checks);
        g("relearn_searches", d.relearn_searches);
        g("run_searches", d.run_searches);
        g("cache_hits_across_relearns", d.cache_hits_across_relearns);
        g("sample_flattens", d.sample_flattens);
        g("window_flattens", d.window_flattens);
        g("window_reuses", d.window_reuses);
        g("relearn_wall_ns", d.relearn_wall.as_nanos() as usize);
    }
}

/// The optimizer, the cost baseline, the one [`CostEvaluator`] every
/// learn of a server's lifetime points at its window, and the server's pool
/// every search runs on.
#[derive(Debug)]
struct Learner {
    optimizer: LayoutOptimizer,
    degradation_factor: f64,
    baseline_cost: f64,
    eval: CostEvaluator,
    pool: ThreadPool,
    /// The counters kept here; the window counts are read off `eval`.
    tally: AdaptiveDiagnostics,
}

impl Learner {
    /// Learn a layout for `window`; returns it when it is to be adopted. An
    /// empty window learns nothing. With an incumbent this is a
    /// degradation check: the incumbent, priced on the sampled window, is
    /// kept while within `degradation_factor × baseline`. Past it, the
    /// search reads the window, or for a shift only its run, and its layout
    /// replaces the incumbent only when cheaper on the same queries (an
    /// unadopted search raises the baseline to the window's price, so the
    /// same window doesn't thrash). Without an incumbent the learned layout
    /// is always adopted.
    fn learn(
        &mut self,
        window: &[RangeQuery],
        check: Option<(&Layout, Trigger)>,
    ) -> Option<Layout> {
        if window.is_empty() {
            return None;
        }
        self.point_at(window);
        // The incumbent's price on the window, and on what the search reads.
        let mut priced = None;
        if let Some((incumbent, trigger)) = check {
            let cost = self.eval.predict(incumbent);
            self.tally.checks += 1;
            self.tally.shift_checks += usize::from(trigger != Trigger::Cadence);
            if cost <= self.degradation_factor * self.baseline_cost {
                return None;
            }
            let mut searched_cost = cost;
            if let Trigger::Shift(run) = trigger {
                self.point_at(&window[window.len() - run..]);
                searched_cost = self.eval.predict(incumbent);
                self.tally.run_searches += 1;
            }
            priced = Some((cost, searched_cost));
        }
        self.search(priced)
    }

    /// Point the evaluator at `queries` as the search samples them.
    fn point_at(&mut self, queries: &[RangeQuery]) {
        self.eval
            .set_window(&self.optimizer.sample_queries(queries).0);
    }

    /// Search the window the evaluator is on. `priced` is the incumbent's
    /// price on the checked window and on that one, when there is an
    /// incumbent.
    fn search(&mut self, priced: Option<(f64, f64)>) -> Option<Layout> {
        // The epoch boundary separates pricing's cache state from the search,
        // so the cross-epoch counter reports exactly what pricing pre-paid.
        self.eval.advance_epoch();
        let cross0 = self.eval.cross_epoch_hits();
        let t0 = Instant::now();
        let learned = self.optimizer.optimize_on(&mut self.eval, self.pool);
        self.tally.relearn_wall += t0.elapsed();
        self.tally.relearn_searches += 1;
        self.tally.cache_hits_across_relearns += self.eval.cross_epoch_hits() - cross0;
        if let Some((cost, _)) = priced.filter(|&(_, searched)| learned.predicted_ns >= searched) {
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
            sample_flattens: 1,
            window_flattens: self.eval.window_flattens(),
            window_reuses: self.eval.window_reuses(),
            ..self.tally
        }
    }
}

impl FloodServer {
    /// Learn an initial layout for `train` over `table`, build it with the
    /// learner's sample CDFs, and publish it as epoch 0. The search and the
    /// build both run on the server's pool.
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
        assert!(!train.is_empty(), "cannot optimize for an empty workload");
        assert_eq!(
            flood_cfg.flattening,
            Flattening::Learned,
            "a server cuts its grid with its sample's learned CDFs"
        );
        // One pool for the server's searches, builds and batches.
        let pool = if cfg.threads == 0 {
            ThreadPool::from_env()
        } else {
            ThreadPool::new(cfg.threads)
        };
        let mut learner = Learner {
            eval: optimizer.evaluator_sampled(table, train),
            optimizer,
            degradation_factor: cfg.adaptive.degradation_factor,
            baseline_cost: 0.0,
            tally: AdaptiveDiagnostics::default(),
            pool,
        };
        let layout = learner.search(None).expect("no incumbent to keep");
        // The initial learn replaces no layout: the lifetime counters
        // start after it.
        learner.tally = AdaptiveDiagnostics::default();
        // The grid is cut with the CDFs the search priced it through.
        let cdfs = learner.eval.space().data().flattener();
        let index = FloodIndex::build_with(table, layout, flood_cfg, Arc::clone(cdfs), pool);
        let build_times = index.build_times();
        let build = AdaptiveSide {
            exec: QueryExecutor::new(pool),
            batch: cfg.batch.max(1),
            window: Mutex::new(Window::new(VecDeque::with_capacity(cfg.adaptive.window))),
            cap: cfg.adaptive.window,
            check_every: cfg.adaptive.check_every,
            degradation_factor: cfg.adaptive.degradation_factor,
            check_due: AtomicBool::new(false),
            learner: Mutex::new(learner),
            adapt_skipped: AtomicU64::new(0),
            learner_recoveries: AtomicU64::new(0),
        };
        let server = Server::new(index, build);
        server.metrics.record_build(build_times);
        server
    }

    /// The adaptation turn, callable from any maintenance thread. When a
    /// check is due and no other adaptation is in flight: price the
    /// window against the current snapshot, and when degraded, search —
    /// the shift's run alone, or the window on a cadence check — rebuild
    /// off the serving path, publish the replacement, and restart the
    /// window from what was searched (empty after a cadence check).
    pub fn maybe_adapt(&self) -> AdaptOutcome {
        let side = &self.build;
        if !side.check_due.load(Ordering::Acquire) {
            return AdaptOutcome::NotDue;
        }
        let Some(mut learner) = side.try_lock_learner() else {
            side.adapt_skipped.fetch_add(1, Ordering::Relaxed);
            return AdaptOutcome::Busy;
        };
        let snap = self.published.snapshot();
        let (window, trigger) = side.take_check();
        let Some(layout) = learner.learn(&window, Some((snap.index().layout(), trigger))) else {
            return AdaptOutcome::Kept;
        };
        let epoch = self.rebuild_and_publish(&snap, layout);
        side.restart(match trigger {
            Trigger::Shift(run) => &window[window.len() - run..],
            Trigger::Cadence => &[],
        });
        AdaptOutcome::Swapped(epoch)
    }

    /// Re-learn on `workload` unconditionally and publish the result —
    /// deterministic swap schedules for experiments and soak tests.
    /// Blocks until the new epoch is live; returns its number, and the
    /// window restarts empty. An empty workload learns nothing: the current
    /// epoch stays live and is returned.
    pub fn force_relearn(&self, workload: &[RangeQuery]) -> u64 {
        let mut learner = self.build.lock_learner();
        let snap = self.published.snapshot();
        let Some(layout) = learner.learn(workload, None) else {
            return snap.epoch();
        };
        let epoch = self.rebuild_and_publish(&snap, layout);
        self.build.restart(&[]);
        epoch
    }

    /// Build a new index over the snapshot's data on the server's pool and
    /// swap it in. Flood is clustered — the data multiset is the table — so
    /// the rebuild shares the snapshot's CDFs, the learner's sample ones,
    /// and fits none.
    fn rebuild_and_publish(&self, snap: &IndexSnapshot, layout: Layout) -> u64 {
        let t0 = Instant::now();
        let index = snap.index().rebuild(layout, self.build.exec.pool());
        let build_times = index.build_times();
        let epoch = self.published.publish(index);
        self.metrics
            .swap_wall_ns
            .record(t0.elapsed().as_nanos() as u64);
        self.metrics.record_build(build_times);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{server, server_on, server_trained_on, workload_on};
    use flood_store::CountVisitor;
    use std::sync::atomic::AtomicUsize;

    /// The window's queries, oldest first.
    fn window(s: &FloodServer) -> Vec<RangeQuery> {
        s.build
            .lock_window()
            .queries
            .iter()
            .map(|(q, _)| q.clone())
            .collect()
    }

    /// Serve `q` closed-loop; returns (rows matched, points touched, epoch).
    fn serve(s: &FloodServer, q: &RangeQuery) -> (u64, u64, u64) {
        let mut v = CountVisitor::default();
        let (stats, epoch) = s.execute(q, None, &mut v);
        (
            v.count,
            stats.points_scanned + stats.points_in_exact_ranges,
            epoch,
        )
    }

    /// A zero-capacity window still keeps the latest query, never more.
    #[test]
    fn zero_capacity_window_keeps_one_query() {
        let (_, s) = server(AdaptiveConfig {
            window: 0,
            check_every: 10,
            ..Default::default()
        });
        let w = workload_on(0, 100);
        let dues: usize = w.iter().map(|q| s.build.record(q, 0) as usize).sum();
        assert_eq!(window(&s), w[99..].to_vec());
        assert_eq!(dues, 10, "the cadence still fires every 10 records");
        assert_eq!(
            s.build.lock_window().since_check,
            0,
            "the 100th record claimed the last crossing"
        );
    }

    /// One recorder per cadence crossing, and one per run of heavy
    /// queries, is told a check is due, even with concurrent recording.
    #[test]
    fn due_checks_fire_once_per_crossing() {
        let q = RangeQuery::all(3);
        let (_, s) = server(AdaptiveConfig {
            window: 8,
            check_every: 5,
            ..Default::default()
        });
        let dues: usize = (0..25).map(|_| s.build.record(&q, 0) as usize).sum();
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
                    let mine: usize = (0..100).map(|_| side.record(q, 0) as usize).sum();
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

        // Cadence off: the reference is measured, then four readers record
        // one run of heavy queries between them.
        let (_, s) = server(AdaptiveConfig {
            window: 64,
            check_every: usize::MAX,
            ..Default::default()
        });
        for _ in 0..REFERENCE_QUERIES {
            assert!(!s.build.record(&q, 100));
        }
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (side, total, q) = (&s.build, &total, &q);
                scope.spawn(move || {
                    let mine: usize = (0..SHIFT_RUN / 4)
                        .map(|_| side.record(q, 1_000) as usize)
                        .sum();
                    total.fetch_add(mine, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1, "one run, one check");
        let w = s.build.lock_window();
        assert_eq!((w.run, w.shift_due), (SHIFT_RUN, true));
    }

    /// The run a shift check searches starts at the shift: an old-regime
    /// query heavy by chance just before it is left out, while a mild
    /// shift keeps its whole run. While the run grows the cadence waits.
    #[test]
    fn a_shift_run_starts_at_the_shift() {
        assert_eq!(since_shift(&[200, 9_000, 10_000, 8_000], 1.5), 3);
        assert_eq!(since_shift(&[200, 220, 180, 250], 1.5), 4);
        assert_eq!(since_shift(&[7], 1.5), 1);

        let q = RangeQuery::all(3);
        let (_, s) = server(AdaptiveConfig {
            window: 32,
            check_every: 20,
            ..Default::default()
        });
        let side = &s.build;
        for _ in 0..REFERENCE_QUERIES {
            assert!(!side.record(&q, 100));
        }
        assert!(!side.record(&q, 200), "old regime, heavy by chance");
        // Records 18..=24: the cadence crossing at 20 falls inside the run.
        let dues: Vec<bool> = (1..SHIFT_RUN).map(|_| side.record(&q, 100_000)).collect();
        assert_eq!(dues, [false, false, false, false, false, false, true]);
        assert_eq!(side.take_check().1, Trigger::Shift(SHIFT_RUN - 1));
        assert!(side.record(&q, 100), "the run ends: the deferred cadence");
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
        assert_eq!(window(&s).len(), 64, "window retains the most recent cap");
        // 100 records at cadence 100: the crossing reset the counter, so
        // none was lost or counted twice.
        assert_eq!(s.build.lock_window().since_check, 0);
        // The 100th record crossed the cadence, exactly once.
        assert_ne!(s.maybe_adapt(), AdaptOutcome::NotDue);
        assert_eq!(s.maybe_adapt(), AdaptOutcome::NotDue);
        assert_eq!(s.diagnostics().adaptive.checks, 1);
    }

    #[test]
    fn diagnostics_export_publishes_gauges() {
        let (_, s) = server(AdaptiveConfig::default());
        // A shift makes one check due and swaps; a forced re-learn follows.
        let shift = workload_on(0, REFERENCE_QUERIES)
            .into_iter()
            .chain(workload_on(1, SHIFT_RUN));
        for q in shift {
            serve(&s, &q);
            s.maybe_adapt();
        }
        s.force_relearn(&workload_on(2, 24));
        let d = s.diagnostics().adaptive;
        let reg = Registry::new();
        s.build.export(&reg);
        // Export twice: cumulative snapshots must overwrite, not add.
        s.build.export(&reg);
        let snap = reg.snapshot();
        let gauge = |name: &str| snap.gauge("adapt", name).map(|v| v as usize);
        assert_eq!(gauge("relearns"), Some(2));
        assert_eq!(gauge("checks"), Some(1));
        assert_eq!(gauge("shift_checks"), Some(1));
        assert_eq!(gauge("relearn_searches"), Some(2));
        assert_eq!(gauge("run_searches"), Some(1));
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
        assert_eq!(gauge("learner_recoveries"), Some(0));
        // The served index's build, stage by stage, in the server's own
        // registry: the forced re-learn's.
        let snap = s.metrics_snapshot().expect("always on");
        let t = s.snapshot().index().build_times();
        let stage = |name: &str| snap.gauge("build", name).map(|v| v as u64);
        assert_eq!(stage("assign_ns"), Some(t.assign_ns));
        assert_eq!(stage("sort_ns"), Some(t.sort_ns));
        assert_eq!(stage("permute_ns"), Some(t.permute_ns));
        assert_eq!(stage("models_ns"), Some(t.models_ns));
        assert_eq!(stage("support_ns"), Some(t.support_ns));
        assert!(t.sort_ns > 0 && t.assign_ns + t.permute_ns <= t.sort_ns);
    }

    /// An abrupt shift is re-learned within one run: the first query of
    /// the new regime a re-learned layout serves is query `k_shift + c`,
    /// with `c` = [`SHIFT_RUN`] = 8, the shift causes exactly one swap, and
    /// the window after it holds the run and no pre-shift query.
    #[test]
    fn an_abrupt_shift_relearns_within_one_run() {
        const K_SHIFT: usize = 40;
        const C: usize = SHIFT_RUN;
        let (_, s) = server(AdaptiveConfig::default());
        let stream: Vec<RangeQuery> = workload_on(0, K_SHIFT)
            .into_iter()
            .chain(workload_on(1, 60))
            .collect();
        let mut epochs = Vec::new();
        let mut after_swap = None;
        for q in &stream {
            epochs.push(serve(&s, q).2);
            if let AdaptOutcome::Swapped(_) = s.maybe_adapt() {
                after_swap.get_or_insert_with(|| window(&s));
            }
        }
        let first = epochs.iter().position(|&e| e > 0);
        assert_eq!(first, Some(K_SHIFT + C), "epochs served: {epochs:?}");
        let d = s.diagnostics();
        assert_eq!(d.swaps, 1, "one shift, one swap: {d:?}");
        assert_eq!(d.adaptive.shift_checks, 1, "{d:?}");
        assert_eq!(d.adaptive.run_searches, 1, "{d:?}");
        let w = after_swap.expect("swapped");
        assert!(
            w.iter().all(|q| !stream[..K_SHIFT].contains(q)),
            "a pre-shift query outlived the publish"
        );
        assert_eq!(
            w,
            stream[K_SHIFT..K_SHIFT + C],
            "the window restarts from the run"
        );
    }

    /// Heavy bursts inside one regime are not a shift. Blocks of ten narrow
    /// and ten wide ranges on dimension 0 touch ≥ 4× more points on the
    /// wide ones, so every wide block makes a shift check due; the whole
    /// window, priced against the regime's own baseline, keeps the layout.
    #[test]
    fn heavy_bursts_in_a_stable_regime_never_swap() {
        const BLOCKS: usize = 16;
        let block = |b: usize| {
            let width = if b % 2 == 0 { 150 } else { 1_500 };
            (0..10).map(move |i| {
                let lo = ((b * 10 + i) as u64 * 37) % 8_000;
                RangeQuery::all(3).with_range(0, lo, lo + width)
            })
        };
        let stream: Vec<RangeQuery> = (0..BLOCKS).flat_map(block).collect();
        let (t, s) = server_trained_on(&stream[..40], AdaptiveConfig::default());
        let mut touched = Vec::new();
        for q in &stream {
            let (count, points, _) = serve(&s, q);
            assert_eq!(count, flood_testkit::count(&t, q));
            touched.push(points);
            assert!(!matches!(s.maybe_adapt(), AdaptOutcome::Swapped(_)));
        }
        let lo = touched.iter().min().copied().unwrap_or(0).max(1);
        let hi = touched.iter().max().copied().unwrap_or(0);
        assert!(hi >= 4 * lo, "touched counts vary {lo}..{hi}");
        let d = s.diagnostics();
        assert_eq!(d.swaps, 0, "{d:?}");
        assert!(
            (1..=BLOCKS / 2).contains(&d.adaptive.shift_checks),
            "at most one shift check per wide block: {d:?}"
        );
    }

    /// A reader that panics holding the window lock poisons nothing: later
    /// reads record, answer correctly, and the loop still re-learns.
    #[test]
    fn a_poisoned_window_lock_still_serves() {
        let (t, s) = server(AdaptiveConfig::default());
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _w = s.build.window.lock();
                    panic!("a reader panics holding the window lock");
                })
                .join()
        });
        assert!(panicked.is_err() && s.build.window.is_poisoned());
        let stream = workload_on(0, REFERENCE_QUERIES)
            .into_iter()
            .chain(workload_on(1, 30));
        for q in stream {
            let (count, _, _) = serve(&s, &q);
            assert_eq!(count, flood_testkit::count(&t, &q));
            s.maybe_adapt();
        }
        assert_eq!(s.diagnostics().swaps, 1, "the shift still re-learns");
    }

    /// A panic holding the learner's lock — inside a learn, a rebuild or
    /// its publish — ends nothing: the next shift still swaps, a forced
    /// re-learn still publishes, `diagnostics()` still answers, and each
    /// take-over is counted once.
    #[test]
    fn a_poisoned_learner_still_adapts() {
        let (t, s) = server(AdaptiveConfig::default());
        let poison = || {
            let panicked = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _learner = s.build.learner.lock();
                        panic!("a learn panics holding the learner");
                    })
                    .join()
            });
            assert!(panicked.is_err() && s.build.learner.is_poisoned());
        };
        poison();
        let shift = workload_on(0, REFERENCE_QUERIES)
            .into_iter()
            .chain(workload_on(1, SHIFT_RUN));
        for q in shift {
            let (count, _, _) = serve(&s, &q);
            assert_eq!(count, flood_testkit::count(&t, &q));
            s.maybe_adapt();
        }
        assert_eq!(s.diagnostics().swaps, 1, "the shift still swaps");
        poison();
        assert_eq!(s.force_relearn(&workload_on(2, 24)), 2, "published");
        poison();
        let d = s.diagnostics();
        assert_eq!((d.epoch, d.swaps, d.adaptive.relearns), (2, 2, 2));
        assert_eq!(d.learner_recoveries, 3);
        assert!(!s.build.learner.is_poisoned());
        let snap = s.metrics_snapshot().expect("always on");
        assert_eq!(snap.gauge("adapt", "learner_recoveries"), Some(3));
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
            let sample = learner.eval.space().data().flattener();
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

    /// A forced re-learn on the window the server was built on goes through
    /// the evaluator already on it: no window is flattened, and the repeat
    /// search is answered from the build's layout memo.
    #[test]
    fn force_relearn_on_the_build_window_reuses_the_evaluator() {
        let train = workload_on(0, 30);
        let (_, s) = server_trained_on(&train, AdaptiveConfig::default());
        let before = s.diagnostics().adaptive;
        assert_eq!((before.window_flattens, before.window_reuses), (1, 0));
        s.force_relearn(&train);
        let d = s.diagnostics().adaptive;
        assert_eq!((d.window_flattens, d.window_reuses), (1, 1), "{d:?}");
        assert!(d.cache_hits_across_relearns > 0, "{d:?}");
        assert_eq!((d.relearn_searches, d.sample_flattens), (1, 1), "{d:?}");
    }

    /// The search is split over the server's pool, and nothing it learns
    /// depends on the worker count: servers on one and on two workers
    /// publish the same layout at the build and after a forced re-learn on
    /// a new window, with the same work counters.
    #[test]
    fn searches_learn_the_same_on_one_or_two_workers() {
        // Every query filters all three dimensions: three sort-dimension
        // candidates, so two workers split the search.
        let window = |widths: [u64; 3], n: usize| -> Vec<RangeQuery> {
            (0..n as u64)
                .map(|i| {
                    (0..3).fold(RangeQuery::all(3), |q, d| {
                        let lo = (i * 37 + d as u64 * 1_013) % 9_000;
                        q.with_range(d, lo, lo + widths[d])
                    })
                })
                .collect()
        };
        let (train, shifted) = (
            window([150, 2_000, 6_000], 30),
            window([5_000, 120, 900], 30),
        );
        let learned = |threads: usize| {
            let (_, s) = server_on(&train, AdaptiveConfig::default(), threads);
            let built = s.snapshot().index().layout().clone();
            assert_eq!(built.order().len(), 3, "three candidates: {built}");
            s.force_relearn(&shifted);
            let relearned = s.snapshot().index().layout().clone();
            let d = AdaptiveDiagnostics {
                relearn_wall: Duration::ZERO,
                ..s.diagnostics().adaptive
            };
            (built, relearned, d)
        };
        let (one, two) = (learned(1), learned(2));
        assert_eq!(one, two);
        assert_ne!(one.0, one.1, "the new window learns a new layout");
        assert_eq!((one.2.relearn_searches, one.2.window_flattens), (1, 2));
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
