//! Layout optimization (§4.2, Algorithm 1) — the component behind Fig 11's
//! "+Learning" step and the learning-time curves of Figs 15/16.
//!
//! ```text
//! FindOptimalLayout(D, Q, T):
//!   D̂, Q̂ ← Sample(D), Sample(Q)
//!   D̂, Q̂ ← Flatten(D̂, Q̂)            # per-dim RMIs trained on the sample
//!   dims  ← order by avg selectivity
//!   for i in 0..d:
//!     O ← grid dims in selectivity order, dims[i] as sort dimension
//!     C, cost ← GradientDescent(T, O, D̂, Q̂)
//!     keep the cheapest (O, C)
//! ```
//!
//! Optimization never builds an index, sorts data, or runs a query: `N_c` is
//! computed exactly from the query rectangle and layout parameters, and
//! `N_s` and the weight-model features are estimated from the flattened data
//! sample.
//!
//! Performance: the data sample is flattened **once** per search (one
//! [`SampleSpace`] shared by every sort-dimension candidate), and the
//! search's cost evaluations run through one [`CostEvaluator`], which
//! layers two caches:
//!
//! 1. a **layout memo** keyed on the full `(order, columns)` vector — the
//!    finite-difference probes of [`descend`] repeatedly revisit the same
//!    rounded column vectors, so each distinct layout is scored once
//!    ([`OptimizedLayout::cost_evals`] / [`OptimizedLayout::cache_hits`]
//!    report the effect);
//! 2. **incremental per-query statistics** keyed on
//!    `(query fingerprint, dim, column_count)` ([`sample::StatsCache`]) — a
//!    memo *miss* whose probe moved one dimension re-counts only that
//!    dimension's filtered queries and derives the rest by AND-ing cached
//!    bitsets ([`OptimizedLayout::dim_recounts`] /
//!    [`OptimizedLayout::dim_reuses`]); because entries are keyed by query
//!    identity, the cache also survives the *workload* changing, which is
//!    what [`CostEvaluator::set_window`] exploits across `flood-serve`'s
//!    re-learns.
//!
//! The candidates' descents are independent, so a search runs one task per
//! candidate on a [`ThreadPool`] ([`LayoutOptimizer::optimize_on`]; a server
//! passes its own pool, [`LayoutOptimizer::optimize_in`] one worker) — whole
//! descents of milliseconds each, never part of one evaluation, so one
//! `run`'s spawn is all the pool costs. The tasks share the evaluator's
//! caches — memo, masks, per-(layout, query) costs — reading and filling
//! them side by side, and each counts its own work; the counts are summed
//! after the run. A layout key ends in its sort dimension, so two
//! candidates never price the same layout: only a grid mask is needed by
//! two tasks, and whichever reaches it first builds it. So the counters
//! count the work done, which is what one probe at a time would do, at any
//! worker count: `cost_evals` every probe, `cache_hits` the memo hits,
//! `dim_recounts` the masks this search built, `dim_reuses` every other
//! mask fetch, and [`CostEvaluator::cross_epoch_hits`] the hits on entries
//! of earlier epochs. The winner is the cheapest candidate, the first in
//! candidate order among equals.
//!
//! Paper map: §4.2/Algorithm 1 → [`LayoutOptimizer::optimize`]; §4.2 step 3
//! (gradient descent over column counts) → [`gradient`]; §7.7 sampling
//! sensitivity (Figs 15/16) → [`OptimizerConfig::data_sample`] and
//! [`OptimizerConfig::query_sample`]; the optimizer-search cost the paper
//! reports as learning time (Figs 15/16's left panels) → `repro fig15` /
//! `fig16` and `flood-benchmark`'s `core.search_ms`.
//!
//! **Correlation extension (beyond the Flood paper).** Flood treats
//! dimensions as independent; its successors exploit inter-dimension
//! correlation (Tsunami's regions, COAX's correlation-aware completion).
//! This search folds a lightweight form of both into Algorithm 1 via
//! [`OptimizerConfig::correlation`]: soft functional dependencies detected
//! on the data sample ([`crate::correlation::CorrelationModel`]) either
//! **collapse** a dependent dimension out of the candidate set — its
//! predicates are rewritten through the host inside the sample space, so
//! candidate layouts are priced as if the rewrite were already live — or
//! **re-weight** it with a per-dimension column-budget cap scaled by the
//! fit strength ([`GdConfig::per_dim_max_log2`]). With the knob off the
//! search is bit-identical to the paper's. [`OptimizedLayout::collapsed`]
//! and [`OptimizedLayout::reweighted`] report what fired, and the winning
//! layout carries the collapse-grade FDs it indexes the host of
//! ([`crate::correlation::CorrelationModel::attach`]) — the index builds
//! exact support for exactly those, and detects nothing itself.

pub mod gradient;
pub mod sample;

pub use gradient::{descend, GdConfig};
use sample::{read, write, Aged, LayoutKey, Tally};
pub use sample::{DataSample, SampleSpace, StatsCache};

use crate::correlation::CorrelationConfig;
use crate::cost::CostModel;
use crate::index::MAX_GRID_DIMS;
use crate::layout::Layout;
use flood_store::pool::ThreadPool;
use flood_store::{RangeQuery, Table};
use gradient::MAX_COL_LOG2;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Configuration for [`LayoutOptimizer`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Maximum data-sample size (Fig 15: 0.01–1 % suffices).
    pub data_sample: usize,
    /// Maximum query-sample size (Fig 16: ~5 % suffices).
    pub query_sample: usize,
    /// Gradient-descent steps per sort-dimension candidate.
    pub gd_steps: usize,
    /// Cap on the total cell count of candidate layouts.
    pub max_total_cells: usize,
    /// Target average points per cell for the descent's starting layout.
    pub init_points_per_cell: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Soft-FD detection over the data sample (Tsunami/COAX extension) —
    /// the only soft-FD detection there is. Detected collapse-grade
    /// dependents are dropped from the candidate grid dimensions (their
    /// predicates route through the host, and the layout carries the FD
    /// to the index), and re-weight-grade dependents search under a
    /// reduced column cap. Detection runs *after* row sampling, so
    /// disabling it leaves the sampling stream — and therefore the search
    /// — bit-identical.
    pub correlation: CorrelationConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            data_sample: 10_000,
            query_sample: 100,
            gd_steps: 20,
            max_total_cells: 1 << 20,
            init_points_per_cell: 1_024,
            seed: 0x0F700D,
            correlation: CorrelationConfig::default(),
        }
    }
}

/// The result of a layout search.
#[derive(Debug, Clone)]
pub struct OptimizedLayout {
    /// The winning layout, carrying the collapse-grade soft FDs whose host
    /// it indexes.
    pub layout: Layout,
    /// Its predicted average query time (ns).
    pub predicted_ns: f64,
    /// Wall-clock learning time.
    pub learn_time: std::time::Duration,
    /// Predicted cost of each sort-dimension candidate `(dim, ns)` —
    /// diagnostics for the harness.
    pub candidates: Vec<(usize, f64)>,
    /// Cost-model evaluations requested by the search (memoized + fresh).
    pub cost_evals: usize,
    /// Evaluations answered from the layout memo instead of re-deriving
    /// statistics from the flattened sample.
    pub cache_hits: usize,
    /// Per-(query, dimension) masks this search built — the dirty set
    /// across every memo miss, each mask once however many candidates
    /// needed it (see [`sample::StatsCache`]).
    pub dim_recounts: usize,
    /// Per-(query, dimension) mask fetches served from the incremental
    /// cache — masks probes needed that were already built.
    pub dim_reuses: usize,
    /// Dimensions the search dropped from the candidate set because a
    /// collapse-grade soft FD routes their predicates through a host
    /// dimension (Tsunami/COAX extension; empty with correlation off).
    pub collapsed: Vec<usize>,
    /// Dimensions kept in the search but under a correlation-reduced
    /// column cap (re-weight-grade soft FDs).
    pub reweighted: Vec<usize>,
}

/// Searches the layout space for the cheapest layout under a cost model.
#[derive(Debug, Clone)]
pub struct LayoutOptimizer {
    cost: CostModel,
    cfg: OptimizerConfig,
}

impl LayoutOptimizer {
    /// Optimizer with default configuration.
    pub fn new(cost: CostModel) -> Self {
        LayoutOptimizer {
            cost,
            cfg: OptimizerConfig::default(),
        }
    }

    /// Optimizer with explicit configuration.
    pub fn with_config(cost: CostModel, cfg: OptimizerConfig) -> Self {
        LayoutOptimizer { cost, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// The deterministic query sampling `optimize` applies before
    /// flattening: shuffle the workload with the configured seed and keep
    /// [`OptimizerConfig::query_sample`] queries. Returns the sampled
    /// queries plus the RNG in the state the data-sample builder draws its
    /// rows from, so [`LayoutOptimizer::evaluator_sampled`] sees the same
    /// stream as `optimize`.
    pub fn sample_queries(&self, workload: &[RangeQuery]) -> (Vec<RangeQuery>, StdRng) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut queries: Vec<RangeQuery> = workload.to_vec();
        queries.shuffle(&mut rng);
        queries.truncate(self.cfg.query_sample.max(1));
        (queries, rng)
    }

    /// Find the cheapest layout for `workload` over `table` (Algorithm 1):
    /// the search over a fresh [`LayoutOptimizer::evaluator_sampled`].
    ///
    /// # Panics
    /// Panics if the workload is empty or the table has no rows.
    pub fn optimize(&self, table: &Table, workload: &[RangeQuery]) -> OptimizedLayout {
        assert!(
            !workload.is_empty(),
            "cannot optimize for an empty workload"
        );
        assert!(!table.is_empty(), "cannot optimize over an empty table");
        let start = Instant::now();
        let mut evaluator = self.evaluator_sampled(table, workload);
        self.search(&mut evaluator, ThreadPool::serial(), start)
    }

    /// [`LayoutOptimizer::optimize_on`] on one worker.
    pub fn optimize_in(&self, evaluator: &mut CostEvaluator) -> OptimizedLayout {
        self.optimize_on(evaluator, ThreadPool::serial())
    }

    /// Run Algorithm 1's candidate loop against an existing evaluator, one
    /// task per sort-dimension candidate on `pool`. Counters in the result
    /// are deltas over this call, so a reused evaluator reports only this
    /// search's work. The layout, its price, the candidates and every
    /// counter are the same at any worker count.
    pub fn optimize_on(&self, evaluator: &mut CostEvaluator, pool: ThreadPool) -> OptimizedLayout {
        self.search(evaluator, pool, Instant::now())
    }

    /// Algorithm 1's search loop over one evaluator. `start` anchors
    /// `learn_time` so callers can include (or exclude) their sampling and
    /// flattening work.
    fn search(
        &self,
        evaluator: &mut CostEvaluator,
        pool: ThreadPool,
        start: Instant,
    ) -> OptimizedLayout {
        // Candidate dimensions: everything the sampled workload filters,
        // most selective first. Never-filtered dimensions are left out of
        // the index entirely (§7.5: Flood "chooses not to include the least
        // frequently filtered dimensions").
        let mut candidates = evaluator.space().dims_by_selectivity();
        if candidates.is_empty() {
            candidates = (0..evaluator.space().dims()).collect();
        }

        // Correlation exploitation (Tsunami/COAX extension). Collapse-grade
        // dependents leave the candidate set entirely: the sample-space
        // rewrite already routes their predicates through the host, so
        // spending grid columns (or the sort slot) on them is pure waste.
        // Re-weight-grade dependents stay searchable but under a column cap
        // shrunk by the detected strength — a dimension that is 70%
        // predicted by its host deserves ~30% of the usual budget.
        let corr = evaluator.space().data().correlation().clone();
        let mut collapsed: Vec<usize> = Vec::new();
        if !corr.is_empty() {
            let pruned: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&d| !corr.is_collapsed_dep(d))
                .collect();
            // Keep the original set when pruning would leave nothing to
            // index (every filtered dimension collapsed).
            if !pruned.is_empty() && pruned.len() < candidates.len() {
                collapsed = candidates
                    .iter()
                    .copied()
                    .filter(|&d| corr.is_collapsed_dep(d))
                    .collect();
                candidates = pruned;
            }
        }
        // One candidate sorts, the rest grid: keep the most selective
        // `MAX_GRID_DIMS + 1`, the widest layout `FloodIndex` can build.
        candidates.truncate(MAX_GRID_DIMS + 1);
        let reweighted: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&d| corr.reweight_strength_of(d).is_some())
            .collect();

        let gd_cfg = GdConfig {
            steps: self.cfg.gd_steps,
            max_total_cells: self.cfg.max_total_cells,
            ..Default::default()
        };
        // Starting point: equal log-split of a cell budget of
        // n / init_points_per_cell.
        let target_cells = (evaluator.space().full_len() / self.cfg.init_points_per_cell.max(1))
            .clamp(4, self.cfg.max_total_cells) as f64;

        // One task per candidate, all pricing through the evaluator's
        // shared caches. A layout key ends in its sort dimension, so two
        // candidates never price the same layout; only a grid mask can be
        // needed by two of them, and it is built once.
        let shared: &CostEvaluator = evaluator;
        let searched = pool.run(candidates.len(), |i| {
            // Grid dims: the other candidates, in selectivity order.
            let order: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &d)| d)
                .chain(std::iter::once(candidates[i]))
                .collect();
            let k = order.len() - 1;
            let mut pricer = shared.pricer();
            let (cols, cost) = if k == 0 {
                let cost = pricer.predict_order(&order, &[]);
                (Vec::new(), cost)
            } else {
                let gd = if reweighted.is_empty() {
                    gd_cfg.clone()
                } else {
                    // Per-grid-dimension caps: a re-weighted dependent's
                    // budget shrinks with the FD strength.
                    GdConfig {
                        per_dim_max_log2: order[..k]
                            .iter()
                            .map(|&d| match corr.reweight_strength_of(d) {
                                Some(s) => MAX_COL_LOG2 * (1.0 - s),
                                None => MAX_COL_LOG2,
                            })
                            .collect(),
                        ..gd_cfg.clone()
                    }
                };
                let init = vec![target_cells.log2() / k as f64; k];
                descend(&init, &gd, |cols| pricer.predict_order(&order, cols))
            };
            (Layout::new(order, cols), cost, pricer.tally)
        });
        // Sum the tasks' counts, and pick the cheapest, the first of equals.
        let mut work = Tally::default();
        let mut best: Option<(Layout, f64)> = None;
        let mut diagnostics = Vec::new();
        for ((layout, cost, tally), &sort_dim) in searched.into_iter().zip(&candidates) {
            work += tally;
            diagnostics.push((sort_dim, cost));
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((layout, cost));
            }
        }
        let (layout, predicted_ns) = best.expect("at least one candidate");
        evaluator.tally += work;
        OptimizedLayout {
            layout: corr.attach(layout),
            predicted_ns,
            learn_time: start.elapsed(),
            candidates: diagnostics,
            cost_evals: work.cost_evals,
            cache_hits: work.cache_hits,
            dim_recounts: work.recounts,
            dim_reuses: work.fetches - work.recounts,
            collapsed,
            reweighted,
        }
    }

    /// Sample `workload` as [`LayoutOptimizer::optimize`] does, then sample
    /// and flatten `table` from the same RNG stream: an evaluator that can
    /// score any number of layouts against the sampled workload, and be
    /// re-pointed at later windows ([`CostEvaluator::set_window`]), without
    /// re-sampling or re-flattening the data. Pricing a layout here is
    /// directly comparable to an `optimize` run's `predicted_ns`.
    pub fn evaluator_sampled(&self, table: &Table, workload: &[RangeQuery]) -> CostEvaluator {
        let (queries, mut rng) = self.sample_queries(workload);
        let space = SampleSpace::build(
            table,
            &queries,
            self.cfg.data_sample,
            &mut rng,
            &self.cfg.correlation,
        );
        let cache = space.stats_cache();
        CostEvaluator {
            space,
            cost: self.cost.clone(),
            cache,
            memo: RwLock::default(),
            tally: Tally::default(),
            window_flattens: 1,
            window_reuses: 0,
        }
    }
}

/// Cache entries (masks and per-query costs) tolerated before stale
/// pruning kicks in (couple of MB at typical sample sizes).
const MASK_CACHE_CAP: usize = 8_192;
/// Epochs (window rotations) an entry may sit unused before pruning.
const MASK_KEEP_EPOCHS: usize = 2;

/// Scores layouts against one flattened data sample (built once) and the
/// current window of queries, caching work at two granularities.
///
/// The expensive parts of cost prediction — sampling the table, training
/// per-dimension CDFs, flattening — depend only on the data, so sweeps over
/// many candidate layouts (Fig 14) and every later window amortize them
/// here. On top of that, repeat layouts are answered from a per-window
/// **layout memo** and fresh layouts re-count only the dimensions that
/// differ from anything seen before, via the incremental per-dimension
/// [`StatsCache`]. The `cost_evals`/`cache_hits` (memo) and
/// `dim_recounts`/`dim_reuses` (per-dimension cache) counters expose both
/// layers for diagnostics.
///
/// `flood-serve`'s adaptive loop holds one for a server's lifetime and
/// points it at each window it prices ([`CostEvaluator::set_window`]). The
/// data multiset of a clustered index never changes, so the sample — and
/// its CDFs, which cut every index the loop builds — is flattened once.
/// One evaluator serves one logical table (the same multiset, in any row
/// order) under one cost model.
///
/// The memo, masks and per-(layout, query) costs are shared: the tasks of
/// one search read and fill them side by side through `&self`, each
/// counting its own work.
#[derive(Debug)]
pub struct CostEvaluator {
    space: SampleSpace,
    cost: CostModel,
    cache: StatsCache,
    /// Layout memo of the current window, aged like the cache's entries
    /// (for cross-epoch attribution).
    memo: RwLock<HashMap<LayoutKey, Aged<f64>>>,
    /// What every pricing so far counted.
    tally: Tally,
    window_flattens: usize,
    window_reuses: usize,
}

impl CostEvaluator {
    /// Point the evaluator at the window `queries` (sampled as
    /// [`LayoutOptimizer::sample_queries`] samples). The current window
    /// again (same [`SampleSpace::query_fingerprint`]) keeps everything,
    /// layout memo included. A new one is flattened into a query layer over
    /// the same data sample with an empty layout memo — costs depend on the
    /// query set — while masks and per-query costs, keyed by each query's
    /// own fingerprint, carry over into a new epoch: sliding windows share
    /// most of their queries, so a check or re-learn re-counts only the
    /// queries that entered since. Past 8 192 entries, those idle for two
    /// windows are pruned.
    pub fn set_window(&mut self, queries: &[RangeQuery]) {
        if SampleSpace::query_fingerprint(queries) == self.space.query_fp() {
            self.window_reuses += 1;
            return;
        }
        self.window_flattens += 1;
        self.space = SampleSpace::over(Arc::clone(self.space.data()), queries);
        write(&self.memo).clear();
        self.cache.advance_epoch();
        if self.cache.entry_count() > MASK_CACHE_CAP {
            let keep_from = self.cache.epoch().saturating_sub(MASK_KEEP_EPOCHS);
            self.cache.prune_stale(keep_from);
        }
    }

    /// The flattened sample this evaluator scores against.
    pub fn space(&self) -> &SampleSpace {
        &self.space
    }

    /// Predicted average query time (ns) of `layout` on the sampled
    /// workload.
    pub fn predict(&mut self, layout: &Layout) -> f64 {
        let mut pricer = self.pricer();
        let cost = pricer.predict_order(layout.order(), layout.cols());
        let tally = pricer.tally;
        self.tally += tally;
        cost
    }

    /// A pricing task over the evaluator's shared caches.
    fn pricer(&self) -> Pricer<'_> {
        Pricer {
            eval: self,
            tally: Tally::default(),
        }
    }

    /// Cost-model evaluations requested so far (memoized + fresh).
    pub fn cost_evals(&self) -> usize {
        self.tally.cost_evals
    }

    /// Evaluations answered from the layout memo.
    pub fn cache_hits(&self) -> usize {
        self.tally.cache_hits
    }

    /// Per-dimension masks built.
    pub fn dim_recounts(&self) -> usize {
        self.tally.recounts
    }

    /// Per-dimension mask fetches served from the incremental cache.
    pub fn dim_reuses(&self) -> usize {
        self.tally.fetches - self.tally.recounts
    }

    /// Start a new epoch: subsequent memo hits and mask reuses on state
    /// created before this call count as cross-epoch (see
    /// [`CostEvaluator::cross_epoch_hits`]).
    pub fn advance_epoch(&mut self) {
        self.cache.advance_epoch();
    }

    /// Memo hits + per-dimension mask reuses served by state created in an
    /// earlier epoch — how much of this epoch's work previous epochs (e.g.
    /// the degradation check before a re-learn) already paid for.
    pub fn cross_epoch_hits(&self) -> usize {
        self.tally.cross
    }

    /// Windows flattened into a query layer, the first included.
    pub fn window_flattens(&self) -> usize {
        self.window_flattens
    }

    /// [`CostEvaluator::set_window`] calls that found the current window.
    pub fn window_reuses(&self) -> usize {
        self.window_reuses
    }
}

/// One pricing task: the evaluator, whose caches it reads and fills side
/// by side with a search's other tasks, and what it counted.
struct Pricer<'a> {
    eval: &'a CostEvaluator,
    tally: Tally,
}

impl Pricer<'_> {
    /// [`CostEvaluator::predict`] on a raw `(order, cols)` pair — the form
    /// the descent's probes arrive in.
    fn predict_order(&mut self, order: &[usize], cols: &[usize]) -> f64 {
        let eval = self.eval;
        let epoch = eval.cache.epoch();
        self.tally.cost_evals += 1;
        let key = (order.to_vec(), cols.to_vec());
        if let Some(entry) = read(&eval.memo).get(&key) {
            self.tally.cache_hits += 1;
            return *entry.hit(epoch, &mut self.tally.cross);
        }
        let c = self.predict_per_query(&key);
        write(&eval.memo)
            .entry(key)
            .or_insert_with(|| Aged::new(c, epoch));
        c
    }

    /// The memo-miss pricing path: each query's cost under this layout is
    /// memoized in the carried cache keyed on `(layout, query fingerprint)`
    /// — a pair's cost depends on nothing else, so statistics and weight
    /// models run only for queries this layout was never priced on (in any
    /// window sharing the cache). Bit-identical to
    /// `predict_workload(query_stats(..))`: per-query statistics are
    /// per-query facts, and the mean is summed in query order.
    fn predict_per_query(&mut self, key: &LayoutKey) -> f64 {
        let (eval, tally) = (self.eval, &mut self.tally);
        let qn = eval.space.query_count();
        if qn == 0 {
            return 0.0;
        }
        let qfps = eval.space.qfps();
        let mut costs = eval.cache.cost_probe(key, qfps, tally);
        let missing: Vec<usize> = (0..qn).filter(|&qi| costs[qi].is_none()).collect();
        if !missing.is_empty() {
            let stats = eval
                .space
                .query_stats_over(&key.0, &key.1, &missing, &eval.cache, tally);
            for (st, &qi) in stats.iter().zip(&missing) {
                costs[qi] = Some(eval.cost.predict(st).time_ns);
            }
            let fresh = missing
                .iter()
                .map(|&qi| (qfps[qi], costs[qi].expect("just priced")));
            eval.cache.cost_insert(key, fresh);
        }
        let sum: f64 = costs.iter().map(|c| c.expect("filled above")).sum();
        sum / qn as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    /// Table where dim 0 is heavily queried & selective, dim 2 never
    /// filtered, dim 1 filtered with wide ranges.
    fn table() -> Table {
        flood_testkit::prime_table(8_000)
    }

    fn workload() -> Vec<RangeQuery> {
        let mut qs = Vec::new();
        for i in 0..12u64 {
            qs.push(
                RangeQuery::all(3)
                    .with_range(0, i * 100, i * 100 + 150) // ~1.5% selective
                    .with_range(1, 0, 8_000), // 80% selective
            );
        }
        qs
    }

    fn fast_cfg() -> OptimizerConfig {
        OptimizerConfig {
            data_sample: 800,
            query_sample: 8,
            gd_steps: 8,
            max_total_cells: 1 << 12,
            ..Default::default()
        }
    }

    #[test]
    fn optimize_returns_valid_layout() {
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_cfg());
        let result = opt.optimize(&table(), &workload());
        let l = &result.layout;
        // Dim 2 is never filtered: it must not be indexed.
        assert!(!l.order().contains(&2), "layout {l}");
        assert!(result.predicted_ns > 0.0);
        assert_eq!(result.candidates.len(), 2);
    }

    #[test]
    fn optimizer_prefers_fine_columns_on_selective_dim() {
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_cfg());
        let result = opt.optimize(&table(), &workload());
        let l = &result.layout;
        // The selective dim-0 should either be the sort dim or get real
        // partitioning; the barely-selective dim-1 shouldn't dominate.
        if let Some(pos) = l.grid_dims().iter().position(|&d| d == 0) {
            assert!(
                l.col_count(pos) >= 2,
                "selective dim should be partitioned: {l}"
            );
        } else {
            assert_eq!(l.sort_dim(), 0);
        }
    }

    #[test]
    fn optimize_memoizes_repeated_column_vectors() {
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_cfg());
        let result = opt.optimize(&table(), &workload());
        assert!(result.cost_evals > 0);
        assert!(
            result.cache_hits > 0,
            "descent revisits rounded column vectors; evals {} hits {}",
            result.cost_evals,
            result.cache_hits
        );
        assert!(result.cache_hits < result.cost_evals);
    }

    /// The cache diagnostics against a known probe sequence: a fresh layout
    /// counts its filtered (query, dimension) pairs, a changed column count
    /// re-counts exactly the moved dimension, and a repeat layout hits the
    /// memo and touches nothing. The sample keeps all 12 workload queries,
    /// which filter both dims, so each mask unit appears 12 times.
    #[test]
    fn evaluator_diagnostics_follow_known_probe_sequence() {
        let cfg = OptimizerConfig {
            query_sample: 12,
            ..fast_cfg()
        };
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), cfg);
        let mut eval = opt.evaluator_sampled(&table(), &workload());

        // Probe 1: grid dim 0 @ 8 columns, sort dim 1 — both fresh for
        // every query.
        eval.predict(&Layout::new(vec![0, 1], vec![8]));
        assert_eq!((eval.cost_evals(), eval.cache_hits()), (1, 0));
        assert_eq!((eval.dim_recounts(), eval.dim_reuses()), (24, 0));

        // Probe 2: dim 0 moves to 16 columns — only it is re-counted; the
        // sort masks are reused.
        eval.predict(&Layout::new(vec![0, 1], vec![16]));
        assert_eq!((eval.cost_evals(), eval.cache_hits()), (2, 0));
        assert_eq!((eval.dim_recounts(), eval.dim_reuses()), (36, 12));

        // Probe 3: the first layout again — answered from the memo, no
        // per-dimension work at all.
        eval.predict(&Layout::new(vec![0, 1], vec![8]));
        assert_eq!((eval.cost_evals(), eval.cache_hits()), (3, 1));
        assert_eq!((eval.dim_recounts(), eval.dim_reuses()), (36, 12));

        // Probe 4: same column counts under a swapped order — a memo miss
        // with two fresh mask units per query: dim 1 as a grid dim @ 8,
        // dim 0 as the sort dimension.
        eval.predict(&Layout::new(vec![1, 0], vec![8]));
        assert_eq!((eval.cost_evals(), eval.cache_hits()), (4, 1));
        assert_eq!((eval.dim_recounts(), eval.dim_reuses()), (60, 12));
    }

    /// The reference the caches are held to: `predict` — layout memo,
    /// per-query cost memo, per-dimension masks — equals one from-scratch
    /// scan of the sample per layout, bit for bit, on the layout the search
    /// picks, on explicit ones, and on a repeat that hits the memo.
    #[test]
    fn full_recompute_mode_matches_incremental() {
        let t = table();
        let w = workload();
        let cost = CostModel::analytic_default();
        let opt = LayoutOptimizer::with_config(cost.clone(), fast_cfg());
        let learned = opt.optimize(&t, &w);
        let mut eval = opt.evaluator_sampled(&t, &w);
        let layouts = [
            learned.layout.clone(),
            Layout::new(vec![0, 1], vec![32]),
            Layout::new(vec![1, 0], vec![8]),
            Layout::new(vec![0, 1, 2], vec![16, 4]),
            Layout::sort_only(0),
            Layout::new(vec![0, 1], vec![32]),
        ];
        for layout in &layouts {
            let cached = eval.predict(layout);
            let full =
                cost.predict_workload(&eval.space().query_stats(layout.order(), layout.cols()));
            assert_eq!(cached.to_bits(), full.to_bits(), "layout {layout}");
        }
        assert_eq!(
            learned.predicted_ns.to_bits(),
            eval.predict(&learned.layout).to_bits(),
            "the search reports the cost the reference assigns its winner"
        );
        assert!(eval.cache_hits() > 0 && eval.dim_reuses() > 0);
    }

    /// `optimize` is `optimize_in` over `evaluator_sampled` — same RNG
    /// stream, same sampled rows — also when the sample is a strict subset
    /// of the table.
    #[test]
    fn optimize_equals_a_search_over_evaluator_sampled() {
        let t = table();
        let w = workload();
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_cfg());
        assert!(opt.config().data_sample < t.len(), "partial sample");
        let cold = opt.optimize(&t, &w);
        let mut eval = opt.evaluator_sampled(&t, &w);
        let shared = opt.optimize_in(&mut eval);
        assert_eq!(cold.layout, shared.layout);
        assert_eq!(cold.predicted_ns.to_bits(), shared.predicted_ns.to_bits());
        assert_eq!(
            (
                cold.cost_evals,
                cold.cache_hits,
                cold.dim_recounts,
                cold.dim_reuses
            ),
            (
                shared.cost_evals,
                shared.cache_hits,
                shared.dim_recounts,
                shared.dim_reuses
            ),
        );
        assert_eq!((eval.window_flattens(), eval.window_reuses()), (1, 0));
    }

    /// A window change re-points the evaluator without touching its data
    /// sample: it then prices and searches exactly like a fresh evaluator
    /// on that window (full sample, so both hold the same rows), the memo
    /// starts empty, and masks of the queries both windows share are not
    /// counted again. The same window again keeps the memo.
    #[test]
    fn a_repointed_evaluator_equals_a_fresh_one() {
        let t = table();
        let opt = LayoutOptimizer::with_config(
            CostModel::analytic_default(),
            OptimizerConfig {
                data_sample: usize::MAX,
                query_sample: 12,
                ..fast_cfg()
            },
        );
        let (a, b) = (&workload()[..8], &workload()[4..]);
        let mut eval = opt.evaluator_sampled(&t, a);
        let first = opt.optimize_in(&mut eval);
        let data = Arc::clone(eval.space().data());
        let recounts = eval.dim_recounts();

        eval.set_window(&opt.sample_queries(b).0);
        assert_eq!((eval.window_flattens(), eval.window_reuses()), (2, 0));
        assert!(Arc::ptr_eq(&data, eval.space().data()), "one data sample");
        let mut fresh = opt.evaluator_sampled(&t, b);
        let (repointed, cold) = (eval.predict(&first.layout), fresh.predict(&first.layout));
        assert_eq!(repointed.to_bits(), cold.to_bits());
        assert_eq!(eval.cache_hits(), first.cache_hits, "the memo was reset");
        let searched = opt.optimize_in(&mut eval);
        let cold = opt.optimize(&t, b);
        assert_eq!(searched.layout, cold.layout);
        assert_eq!(searched.predicted_ns.to_bits(), cold.predicted_ns.to_bits());
        assert!(
            eval.dim_recounts() - recounts < cold.dim_recounts,
            "the four shared queries' masks carry over"
        );

        eval.set_window(&opt.sample_queries(b).0);
        assert_eq!((eval.window_flattens(), eval.window_reuses()), (2, 1));
        let again = opt.optimize_in(&mut eval);
        assert_eq!(again.layout, searched.layout);
        assert_eq!(again.cache_hits, again.cost_evals, "answered by the memo");
    }

    /// A search builds each mask once, whichever candidate needs it first:
    /// with three candidates, two of them grid the third dimension from the
    /// same starting column counts, and the masks built over the space equal
    /// `dim_recounts` at 1, 2 and 5 workers.
    #[test]
    fn a_search_builds_each_mask_once() {
        let n = 8_000u64;
        let t = Table::from_columns(vec![
            (0..n).map(|i| (i * 7919) % 10_000).collect(),
            (0..n).map(|i| (i * 104729) % 10_000).collect(),
            (0..n).map(|i| (i * 31) % 10_000).collect(),
        ]);
        let w: Vec<RangeQuery> = (0..12u64)
            .map(|i| {
                RangeQuery::all(3)
                    .with_range(0, i * 100, i * 100 + 150)
                    .with_range(1, 0, 8_000)
                    .with_range(2, i * 500, i * 500 + 3_000)
            })
            .collect();
        let cfg = OptimizerConfig {
            query_sample: 12,
            correlation: CorrelationConfig {
                enabled: false,
                ..Default::default()
            },
            ..fast_cfg()
        };
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), cfg);
        let mut recounts = Vec::new();
        for threads in [1, 2, 5] {
            let mut eval = opt.evaluator_sampled(&t, &w);
            let searched = opt.optimize_on(&mut eval, ThreadPool::new(threads));
            assert_eq!(searched.candidates.len(), 3);
            assert_eq!(
                eval.space().mask_builds(),
                searched.dim_recounts,
                "{threads} workers"
            );
            recounts.push(searched.dim_recounts);
        }
        assert!(recounts.iter().all(|&r| r == recounts[0]), "{recounts:?}");
    }

    /// A workload filtering all 40 dimensions of a table: the search keeps
    /// the `MAX_GRID_DIMS` most selective as grid candidates, and the index
    /// built from the result answers like a full scan.
    #[test]
    fn wide_table_learns_a_buildable_layout() {
        let (n, d) = (1_500u64, 40usize);
        let t = Table::from_columns(
            (0..d as u64)
                .map(|c| (0..n).map(|i| (i * (2 * c + 7919)) % 1_000).collect())
                .collect(),
        );
        let qs: Vec<RangeQuery> = (0..d)
            .map(|i| {
                RangeQuery::all(d)
                    .with_range(i, 100, 400 + 10 * i as u64)
                    .with_range((i + 1) % d, 0, 700)
            })
            .collect();
        let opt = LayoutOptimizer::with_config(
            CostModel::analytic_default(),
            OptimizerConfig {
                data_sample: 300,
                query_sample: d,
                gd_steps: 1,
                max_total_cells: 1 << 10,
                ..Default::default()
            },
        );
        let learned = opt.optimize(&t, &qs);
        assert_eq!(learned.candidates.len(), MAX_GRID_DIMS + 1);
        assert_eq!(learned.layout.grid_dims().len(), MAX_GRID_DIMS);
        let index = crate::FloodIndex::build(&t, learned.layout, Default::default());
        for q in &qs {
            let mut v = flood_store::CountVisitor::default();
            flood_store::MultiDimIndex::execute(&index, q, None, &mut v);
            assert_eq!(v.count, flood_testkit::count(&t, q));
        }
    }

    #[test]
    fn predict_cost_orders_layouts_sensibly() {
        let opt = LayoutOptimizer::with_config(CostModel::analytic_default(), fast_cfg());
        let mut eval = opt.evaluator_sampled(&table(), &workload());
        // A grid on the selective dim 0 beats a grid on the unfiltered dim 2.
        let cg = eval.predict(&Layout::new(vec![0, 1], vec![32]));
        let cb = eval.predict(&Layout::new(vec![2, 1], vec![32]));
        assert!(
            cg < cb,
            "grid on selective dim should be cheaper: {cg} vs {cb}"
        );
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn empty_workload_panics() {
        let opt = LayoutOptimizer::new(CostModel::analytic_default());
        let _ = opt.optimize(&table(), &[]);
    }
}
