//! Soft functional dependencies between dimensions — detection and
//! exploitation (an **extension** beyond the Flood paper, following the
//! correlation ideas of Tsunami (arXiv 2006.13282) and COAX
//! (arXiv 2006.16393)).
//!
//! Real multi-dimensional data is rarely independent: a "dependent"
//! dimension often tracks a "host" dimension up to a bounded residual
//! (ship date ≈ receipt date + a few days). Flood's grid treats the two as
//! independent, so it spends columns on both and projects rectangles over
//! a diagonal support — most projected cells are empty or boundary cells.
//!
//! This module implements the three stages the optimizer and the index use
//! to exploit such **soft functional dependencies** (soft FDs). Detection
//! runs **once**, in the layout search; the layout carries its verdict.
//!
//! 1. **Detection** ([`CorrelationModel::detect_rows`], on the optimizer's
//!    data sample): sort each (host, dep) pair by the host value, split
//!    into host-quantile buckets, and fit a trimmed `[lo, hi]` envelope of
//!    the dependent values per bucket (a monotone piecewise-constant fit
//!    with residual bounds, COAX-style). The fit is scored by *strength*
//!    (1 − mean envelope width / global dep width) and *outlier rate*
//!    (fraction of sampled rows outside their bucket's envelope).
//! 2. **Collapse / re-weight** (the optimizer, see `optimizer::search`):
//!    strong fits collapse the dependent dimension out of the candidate
//!    grid — its predicates are routed through the host dimension by
//!    [`CorrelationModel::rewrite`] — while mid-strength fits only shrink
//!    the dependent dimension's column budget in the gradient search. The
//!    winning layout carries the collapse-grade FDs whose host it indexes
//!    ([`CorrelationModel::attach`], [`Layout::fds`]).
//! 3. **Residual check** (`CorrSupport`, built inside
//!    `FloodIndex::build` for exactly the layout's FDs): one builder makes
//!    *exact* envelopes over the **full** table per host *bucket* — a host
//!    grid column, or, when the host is the sort dimension, one of 48
//!    host-value quantile buckets cut once per build — plus the exact
//!    sorted set of rows outside their envelope (*outlier rows*). Each
//!    cell feeds it runs of rows sharing a bucket (a grid cell is one run;
//!    a cell sorted by its host is cut where the values cross a cut), read
//!    from the decoded columns. At query time a filter on a collapsed
//!    dimension translates to the first and last bucket whose envelope
//!    meets it, which narrows the host's projected columns or the sort
//!    dimension's refinement bound; outlier rows whose dependent value
//!    matches the filter are re-added
//!    **individually** with full per-point checks (so residual cost is
//!    bounded by the outlier count, never by cell size), and the dependent
//!    dimension's own bound is still verified per point by the scan kernel
//!    (`scan_checked`) — so results are bit-identical to an index over the
//!    same layout carrying no FDs.
//!
//! The search's detection is behind [`CorrelationConfig::enabled`]
//! (default **on**); disabled, it returns an empty model, the layout
//! carries nothing, and every hook degenerates to the pre-correlation code
//! path, bit for bit.

use flood_store::{RangeQuery, Table, ThreadPool};
use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::grid::Grid;
use crate::layout::{FdPair, Layout};

/// Knobs for soft-FD detection, carried by `OptimizerConfig` (collapse /
/// re-weight during the layout search). The index takes its FDs from the
/// layout and has no knobs of its own.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationConfig {
    /// Master switch. Off ⇒ no detection, no rewriting, no tightening —
    /// bit-identical to the pre-correlation system.
    pub enabled: bool,
    /// Host-quantile buckets for the monotone envelope fit (fewer buckets
    /// are used when the sample is small).
    pub buckets: usize,
    /// Collapse threshold: dependents whose fit strength reaches this are
    /// removed from the candidate grid and routed through their host.
    pub min_strength: f64,
    /// Re-weight band: fits in `[reweight_strength, min_strength)` keep
    /// the dependent dimension in the grid but cap its column budget to
    /// `MAX_COL_LOG2 · (1 − strength)`, where the search's per-dimension
    /// cap `MAX_COL_LOG2` is 10 (1024 columns).
    pub reweight_strength: f64,
    /// Maximum tolerated fraction of rows outside their bucket envelope;
    /// also the trim budget when fitting envelopes (half per side).
    pub max_outlier_rate: f64,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            enabled: true,
            buckets: 48,
            min_strength: 0.9,
            reweight_strength: 0.5,
            max_outlier_rate: 0.02,
        }
    }
}

/// A detected soft functional dependency: `dep ≈ f(host)` for a monotone
/// piecewise-constant `f` with bounded residual.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoftFd {
    /// The dimension the dependent is routed through.
    pub host: usize,
    /// The dependent dimension.
    pub dep: usize,
    /// 1 − mean bucket-envelope width / global dependent width, in
    /// `[0, 1]`; 1.0 is an exact (sampled) functional dependency.
    pub strength: f64,
    /// Fraction of sampled rows outside their bucket's envelope.
    pub outlier_rate: f64,
    /// Strong enough to collapse (vs. merely re-weight)?
    pub collapse: bool,
}

/// The per-bucket envelope backing one detected FD: bucket `b` covers host
/// values `[host_lo[b], host_hi[b]]` and its sampled dependents fall in
/// `[dep_lo[b], dep_hi[b]]` (outliers excepted).
#[derive(Debug, Clone, PartialEq)]
struct FdEnvelope {
    host_lo: Vec<u64>,
    host_hi: Vec<u64>,
    dep_lo: Vec<u64>,
    dep_hi: Vec<u64>,
}

impl FdEnvelope {
    /// Host range covering every bucket whose dependent envelope
    /// intersects `[lo, hi]`; `None` when no bucket does. Buckets are
    /// consecutive runs of the host-sorted sample, so the first meeting
    /// bucket holds the range's low end and the last its high end.
    fn translate(&self, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let env = |b: usize| Some((self.dep_lo[b], self.dep_hi[b]));
        let (first, last) = meeting_buckets(self.host_lo.len(), lo, hi, env)?;
        Some((self.host_lo[first], self.host_hi[last]))
    }
}

/// First and last of the host-ordered buckets `0..n` whose dependent
/// envelope `env(b)` (`None`: no row in the bucket) meets `[lo, hi]`;
/// `None` when no bucket does.
fn meeting_buckets(
    n: usize,
    lo: u64,
    hi: u64,
    env: impl Fn(usize) -> Option<(u64, u64)>,
) -> Option<(usize, usize)> {
    let meets = |&b: &usize| env(b).is_some_and(|(a, z)| a <= hi && lo <= z);
    Some(((0..n).find(meets)?, (0..n).rfind(meets)?))
}

/// The set of soft FDs detected on one table (sample), with enough fit
/// state to translate dependent-dimension predicates into host ranges.
///
/// Assignments are acyclic and functional: each dependent has at most one
/// host, no dimension is simultaneously a host and a dependent (no
/// chains), chosen greedily by descending strength with deterministic
/// tie-breaks.
#[derive(Debug, Clone, Default)]
pub struct CorrelationModel {
    fds: Vec<SoftFd>,
    envelopes: Vec<FdEnvelope>,
}

/// One candidate pair fit, before the greedy assignment.
struct PairFit {
    fd: SoftFd,
    env: FdEnvelope,
}

/// Fit a trimmed monotone envelope to `pairs` (already `(host, dep)`,
/// unsorted). Returns `None` when the sample is too small to trust.
fn fit_pair(mut pairs: Vec<(u64, u64)>, cfg: &CorrelationConfig) -> Option<(f64, f64, FdEnvelope)> {
    let n = pairs.len();
    if n < 64 {
        return None;
    }
    pairs.sort_unstable();
    let k = cfg.buckets.clamp(1, n / 16);
    let mut env = FdEnvelope {
        host_lo: Vec::with_capacity(k),
        host_hi: Vec::with_capacity(k),
        dep_lo: Vec::with_capacity(k),
        dep_hi: Vec::with_capacity(k),
    };
    let mut width_sum = 0.0f64;
    let mut deps: Vec<u64> = Vec::with_capacity(n / k + 1);
    for b in 0..k {
        let (s, e) = (b * n / k, (b + 1) * n / k);
        deps.clear();
        deps.extend(pairs[s..e].iter().map(|&(_, d)| d));
        // Adaptive trim: even small buckets must shed their extremes (one
        // broken row blows the envelope up to the global width and masks a
        // strong fit), but clean buckets keep every row.
        let (lo, hi) = envelope(&mut deps, cfg.max_outlier_rate);
        env.host_lo.push(pairs[s].0);
        env.host_hi.push(pairs[e - 1].0);
        env.dep_lo.push(lo);
        env.dep_hi.push(hi);
        width_sum += (hi - lo) as f64;
    }
    // Outliers: rows *well* outside their bucket's envelope — beyond half
    // an envelope width of margin. Trimmed edge rows sit just outside the
    // envelope by construction and must not count as evidence of a broken
    // dependency, while genuinely broken rows (drawn far from the fit)
    // land past the margin regardless of how much the trim absorbed.
    let mut outliers = 0usize;
    for b in 0..k {
        let (s, e) = (b * n / k, (b + 1) * n / k);
        let margin = (env.dep_hi[b] - env.dep_lo[b]) / 2;
        let lo = env.dep_lo[b].saturating_sub(margin);
        let hi = env.dep_hi[b].saturating_add(margin);
        outliers += pairs[s..e]
            .iter()
            .filter(|&&(_, d)| d < lo || d > hi)
            .count();
    }
    let global_lo = env.dep_lo.iter().min().copied().unwrap_or(0);
    let global_hi = env.dep_hi.iter().max().copied().unwrap_or(0);
    let global_w = (global_hi - global_lo) as f64;
    let strength = if global_w == 0.0 {
        1.0
    } else {
        (1.0 - width_sum / k as f64 / global_w).clamp(0.0, 1.0)
    };
    Some((strength, outliers as f64 / n as f64, env))
}

impl CorrelationModel {
    /// Detect soft FDs on a row sample of `table` (the optimizer's
    /// `DataSample` rows). The empty model when disabled or the sample is
    /// too small.
    pub fn detect_rows(table: &Table, rows: &[usize], cfg: &CorrelationConfig) -> Self {
        let d = table.dims();
        if !cfg.enabled || rows.len() < 64 || d < 2 {
            return Self::default();
        }
        let mut fits: Vec<PairFit> = Vec::new();
        for host in 0..d {
            for dep in 0..d {
                if dep == host {
                    continue;
                }
                let pairs: Vec<(u64, u64)> = rows
                    .iter()
                    .map(|&r| (table.value(r, host), table.value(r, dep)))
                    .collect();
                if let Some((strength, outlier_rate, env)) = fit_pair(pairs, cfg) {
                    if strength >= cfg.reweight_strength && outlier_rate <= cfg.max_outlier_rate {
                        fits.push(PairFit {
                            fd: SoftFd {
                                host,
                                dep,
                                strength,
                                outlier_rate,
                                collapse: strength >= cfg.min_strength,
                            },
                            env,
                        });
                    }
                }
            }
        }
        // Greedy assignment, strongest first; deterministic tie-break on
        // (host, dep). Each dependent gets one host; a host may serve many
        // dependents; no dimension is both (no chains, no cycles).
        fits.sort_by(|a, b| {
            b.fd.strength
                .partial_cmp(&a.fd.strength)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.fd.host, a.fd.dep).cmp(&(b.fd.host, b.fd.dep)))
        });
        let mut model = Self::default();
        let mut is_dep = vec![false; d];
        let mut is_host = vec![false; d];
        for f in fits {
            if is_dep[f.fd.dep] || is_host[f.fd.dep] || is_dep[f.fd.host] {
                continue;
            }
            is_dep[f.fd.dep] = true;
            is_host[f.fd.host] = true;
            model.fds.push(f.fd);
            model.envelopes.push(f.env);
        }
        model
    }

    /// No dependencies detected (also the disabled case).
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Every detected dependency, strongest first.
    pub fn fds(&self) -> &[SoftFd] {
        &self.fds
    }

    /// Whether `dim` is the dependent of a collapse-grade FD.
    pub fn is_collapsed_dep(&self, dim: usize) -> bool {
        self.fds.iter().any(|f| f.collapse && f.dep == dim)
    }

    /// Strength of the re-weight-grade FD whose dependent is `dim`, if any.
    pub fn reweight_strength_of(&self, dim: usize) -> Option<f64> {
        self.fds
            .iter()
            .find(|f| !f.collapse && f.dep == dim)
            .map(|f| f.strength)
    }

    /// Translate a bound on the dependent of FD `i` into a host range
    /// (buckets whose envelope intersects). `None`: no bucket intersects.
    pub fn translate(&self, i: usize, lo: u64, hi: u64) -> Option<(u64, u64)> {
        self.envelopes[i].translate(lo, hi)
    }

    /// Rewrite a query for layout pricing: every filter on a collapsed
    /// dependent also implies (via the envelopes) a bound on its host,
    /// intersected into the query. The dependent's own filter is kept —
    /// it still costs a per-point check. Conservative: when no bucket
    /// intersects, or the implied host range is disjoint from an existing
    /// host bound, the query is left unchanged.
    pub fn rewrite(&self, q: &RangeQuery) -> RangeQuery {
        let mut out = q.clone();
        for (i, f) in self.fds.iter().enumerate() {
            if !f.collapse {
                continue;
            }
            if let Some((lo, hi)) = q.bound(f.dep) {
                if let Some((tlo, thi)) = self.translate(i, lo, hi) {
                    out.tighten(f.host, tlo, thi);
                }
            }
        }
        out
    }

    /// [`CorrelationModel::rewrite`] over a whole workload.
    pub fn rewrite_all(&self, qs: &[RangeQuery]) -> Vec<RangeQuery> {
        qs.iter().map(|q| self.rewrite(q)).collect()
    }

    /// `layout` carrying this model's collapse-grade FDs whose host it
    /// indexes: the FDs [`CorrelationModel::rewrite`] priced the layout
    /// with, less those its index could not tighten through. The layout
    /// search attaches its verdict with this.
    pub fn attach(&self, layout: Layout) -> Layout {
        let fds = (self.fds.iter())
            .filter(|f| f.collapse && layout.order().contains(&f.host))
            .map(|f| FdPair {
                host: f.host,
                dep: f.dep,
            })
            .collect();
        layout.with_fds(fds)
    }
}

/// Where a supported FD's host sits in the index layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostSlot {
    /// Grid dimension at this position of the layout ordering.
    Grid(usize),
    /// The sort dimension.
    Sort,
}

/// One FD's exact, full-table support inside a built index: the
/// dependent's envelope per host bucket — a host grid column, or one of the
/// sort host's value buckets ([`SortBuckets`]) — and the sorted set of rows
/// falling outside their envelope.
#[derive(Debug, Clone)]
pub(crate) struct FdSupport {
    pub fd: FdPair,
    pub slot: HostSlot,
    /// Per bucket: the dependent's envelope; `None` where no row falls.
    env: Vec<Option<(u64, u64)>>,
    /// Rows (indices into the *reordered* table) outside their envelope,
    /// as `(dep value, row, cell)` sorted by value: the residual pass
    /// binary searches the dependent filter's bound, so query-time residual
    /// work is proportional to the *matching* outliers, never to cell
    /// sizes — and the precomputed cell id spares it a `cell_starts`
    /// search per row.
    pub outliers: Vec<(u64, u32, u32)>,
}

impl FdSupport {
    /// First and last bucket whose envelope meets the dependent bound
    /// `[lo, hi]`. `None`: no non-outlier row can match — only the outlier
    /// rows need visiting.
    pub fn translate(&self, lo: u64, hi: u64) -> Option<(usize, usize)> {
        meeting_buckets(self.env.len(), lo, hi, |b| self.env[b])
    }

    /// Rows whose dependent value falls in `[lo, hi]`, ascending by value.
    pub fn outliers_in(&self, lo: u64, hi: u64) -> &[(u64, u32, u32)] {
        let a = self.outliers.partition_point(|&(v, _, _)| v < lo);
        let b = self.outliers.partition_point(|&(v, _, _)| v <= hi);
        &self.outliers[a..b]
    }
}

/// The sort host's value buckets, shared by every sort-hosted FD (they all
/// share the sort dimension): bucket `b` covers host values
/// `(cuts[b - 1], cuts[b]]`, and bucket 0 starts at `min`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortBuckets {
    min: u64,
    cuts: Vec<u64>,
}

impl SortBuckets {
    /// Cuts at the [`SUPPORT_BUCKETS`] quantiles of `host`, the sort
    /// column in storage order (at least one row): sorted within each
    /// cell already, so a run-adaptive sort only merges the cells.
    fn fit(mut host: Vec<u64>) -> Self {
        host.sort();
        let (n, k) = (host.len(), SUPPORT_BUCKETS.min(host.len()));
        let mut cuts: Vec<u64> = (1..=k).map(|b| host[b * n / k - 1]).collect();
        cuts.dedup();
        SortBuckets { min: host[0], cuts }
    }

    /// The bucket holding host value `v`, one of the fitted column's (the
    /// last cut is its largest value).
    fn bucket(&self, v: u64) -> usize {
        self.cuts.partition_point(|&c| c < v)
    }

    /// The host values of buckets `first..=last`.
    pub fn values(&self, (first, last): (usize, usize)) -> (u64, u64) {
        let lo = match first {
            0 => self.min,
            _ => self.cuts[first - 1].saturating_add(1),
        };
        (lo, self.cuts[last])
    }
}

/// Trim budget of the index's exact envelopes (half per side; see
/// [`adaptive_trim`]) — [`CorrelationConfig::max_outlier_rate`]'s default.
const SUPPORT_TRIM_RATE: f64 = 0.02;
/// Host-value buckets of a sort-hosted FD's envelopes —
/// [`CorrelationConfig::buckets`]' default.
const SUPPORT_BUCKETS: usize = 48;

/// Exact support for the FDs a layout carries. The search detected them on
/// a sample; the envelopes and outlier sets here are **exact** over the
/// full (reordered) table, which is what makes query-time tightening
/// lossless.
#[derive(Debug, Clone, Default)]
pub(crate) struct CorrSupport {
    pub fds: Vec<FdSupport>,
    /// The sort host's buckets; empty when no FD is sort-hosted.
    pub sort: SortBuckets,
}

impl CorrSupport {
    /// Build exact support over `data` (the reordered table) for every FD
    /// `layout` carries, one task per FD on `pool`.
    pub fn build(
        layout: &Layout,
        grid: &Grid,
        data: &Table,
        cell_starts: &[u32],
        pool: ThreadPool,
    ) -> Self {
        if data.is_empty() {
            return Self::default();
        }
        let sort_dim = layout.has_sort_dim().then(|| layout.sort_dim());
        let sort_hosted = layout.fds().iter().any(|f| Some(f.host) == sort_dim);
        let host = sort_hosted.then(|| data.column(layout.sort_dim()).values());
        let sort =
            (host.as_ref()).map_or_else(SortBuckets::default, |h| SortBuckets::fit(h.to_vec()));
        let fds = pool.map(layout.fds().to_vec(), |fd| {
            let (slot, buckets) = match &host {
                Some(host) if Some(fd.host) == sort_dim => {
                    (HostSlot::Sort, Buckets::Sort(&sort, host))
                }
                _ => {
                    let i = (layout.grid_dims().iter().position(|&d| d == fd.host))
                        .expect("Layout::with_fds checked the host is indexed");
                    let (stride, cols) = (grid.stride(i), grid.cols()[i]);
                    (HostSlot::Grid(i), Buckets::Grid { stride, cols })
                }
            };
            let dep = data.column(fd.dep).values();
            build_support(fd, slot, &buckets, &dep, cell_starts)
        });
        // A dependency whose exact outlier set is large (the sample
        // under-reported how dirty the pair is) costs more to patch per
        // query than it saves — drop it rather than exploit it.
        let fds = (fds.into_iter())
            .filter(|support| support.outliers.len() * 8 <= data.len())
            .collect();
        CorrSupport { fds, sort }
    }
}

/// How an FD's host places the rows of the reordered table into buckets.
enum Buckets<'a> {
    /// A grid host's column: a coordinate of the cell id.
    Grid { stride: usize, cols: usize },
    /// The sort host's value buckets, over its column in storage order.
    Sort(&'a SortBuckets, &'a [u64]),
}

impl Buckets<'_> {
    fn len(&self) -> usize {
        match self {
            Buckets::Grid { cols, .. } => *cols,
            Buckets::Sort(buckets, _) => buckets.cuts.len(),
        }
    }

    /// Calls `f(bucket, cell, rows)` for each run of rows of one cell that
    /// share a bucket, in row order: a grid host's cell is one run, and a
    /// sort host's, sorted by host value, is cut where its values cross a
    /// bucket's cut.
    fn for_each_run(&self, cell_starts: &[u32], mut f: impl FnMut(usize, u32, Range<usize>)) {
        for (cell, w) in cell_starts.windows(2).enumerate() {
            let (mut at, end) = (w[0] as usize, w[1] as usize);
            while at < end {
                let (b, to) = match *self {
                    Buckets::Grid { stride, cols } => (cell / stride % cols, end),
                    Buckets::Sort(buckets, host) => {
                        let b = buckets.bucket(host[at]);
                        let cut = buckets.cuts[b];
                        (b, at + host[at..end].partition_point(|&v| v <= cut))
                    }
                };
                f(b, cell as u32, at..to);
                at = to;
            }
        }
    }
}

/// One FD's exact support: each bucket's trimmed envelope of the dependent
/// `dep` (the reordered table's column), then every row outside its
/// bucket's envelope.
fn build_support(
    fd: FdPair,
    slot: HostSlot,
    buckets: &Buckets,
    dep: &[u64],
    cell_starts: &[u32],
) -> FdSupport {
    let mut per_bucket: Vec<Vec<u64>> = vec![Vec::new(); buckets.len()];
    buckets.for_each_run(cell_starts, |b, _, rows| {
        per_bucket[b].extend_from_slice(&dep[rows]);
    });
    let env: Vec<Option<(u64, u64)>> = (per_bucket.into_iter())
        .map(|mut vals| (!vals.is_empty()).then(|| envelope(&mut vals, SUPPORT_TRIM_RATE)))
        .collect();
    // Exact outlier set, keyed by dependent value for the residual pass's
    // binary search.
    let mut outliers = Vec::new();
    buckets.for_each_run(cell_starts, |b, cell, rows| {
        let (lo, hi) = env[b].expect("a run's bucket holds its rows");
        for (r, &v) in rows.clone().zip(&dep[rows]) {
            if v < lo || v > hi {
                outliers.push((v, r as u32, cell));
            }
        }
    });
    outliers.sort_unstable();
    FdSupport {
        fd,
        slot,
        env,
        outliers,
    }
}

/// The trimmed envelope of one bucket's dependents (at least one),
/// reordering them: [`adaptive_trim`] reads only the [`max_trim`] + 1
/// values at either end of a sorted slice, so only those are selected and
/// sorted.
fn envelope(vals: &mut [u64], rate: f64) -> (u64, u64) {
    let len = vals.len();
    let t = max_trim(len, rate);
    if len >= 2 * (t + 1) {
        vals.select_nth_unstable(t);
        vals[t + 1..].select_nth_unstable(len - 2 * (t + 1));
        vals[..=t].sort_unstable();
        vals[len - 1 - t..].sort_unstable();
    } else {
        vals.sort_unstable();
    }
    let t = adaptive_trim(vals, rate);
    (vals[t], vals[len - 1 - t])
}

/// The largest per-side trim of `len` values: the outlier budget plus 3σ
/// of slack, leaving at least one value.
fn max_trim(len: usize, rate: f64) -> usize {
    let m = len as f64 * rate * 0.5;
    ((m + 3.0 * m.sqrt()).ceil() as usize).min(len.saturating_sub(1) / 2)
}

/// Smallest per-side trim whose envelope is within 25% of the width at the
/// maximum trim ([`max_trim`]): clean columns keep every row — no
/// residual rows at all — while dirty columns shed just their broken rows
/// instead of letting one of them stretch the envelope to the global
/// width.
fn adaptive_trim(sorted: &[u64], rate: f64) -> usize {
    let len = sorted.len();
    let t_max = max_trim(len, rate);
    let target = (sorted[len - 1 - t_max] - sorted[t_max]) as f64 * 1.25;
    (0..=t_max)
        .find(|&t| ((sorted[len - 1 - t] - sorted[t]) as f64) <= target)
        .unwrap_or(t_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::{Flattener, Flattening};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Detection over every row of `t` (the optimizer's sample at
    /// `data_sample ≥ n`).
    fn detect(t: &Table, cfg: &CorrelationConfig) -> CorrelationModel {
        let rows: Vec<usize> = (0..t.len()).collect();
        CorrelationModel::detect_rows(t, &rows, cfg)
    }

    /// host uniform, dep = host/2 + noise in [0, w), optional outliers.
    fn correlated_table(n: usize, w: u64, outlier_every: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut host = Vec::with_capacity(n);
        let mut dep = Vec::with_capacity(n);
        let mut indep = Vec::with_capacity(n);
        for i in 0..n {
            let h: u64 = rng.gen_range(0..1_000_000);
            let d = if outlier_every > 0 && i % outlier_every == 0 {
                rng.gen_range(0..1_000_000)
            } else {
                h / 2 + rng.gen_range(0..w.max(1))
            };
            host.push(h);
            dep.push(d);
            indep.push(rng.gen_range(0..1_000_000));
        }
        Table::from_columns(vec![host, dep, indep])
    }

    /// host uniform, dep = |host − 500k|/2 + noise in [0, w): a vee-shaped
    /// dependency. Unlike a linear relation (where both directions have the
    /// same relative residual and quantization noise picks the winner),
    /// this one is only functional host→dep — the inverse maps each dep
    /// value to two distant host branches — so the detected direction is
    /// decidable.
    fn vee_table(n: usize, w: u64, outlier_every: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut host = Vec::with_capacity(n);
        let mut dep = Vec::with_capacity(n);
        let mut indep = Vec::with_capacity(n);
        for i in 0..n {
            let h: u64 = rng.gen_range(0..1_000_000);
            let d = if outlier_every > 0 && i % outlier_every == 0 {
                rng.gen_range(0..1_000_000)
            } else {
                (h as i64 - 500_000).unsigned_abs() / 2 + rng.gen_range(0..w.max(1))
            };
            host.push(h);
            dep.push(d);
            indep.push(rng.gen_range(0..1_000_000));
        }
        Table::from_columns(vec![host, dep, indep])
    }

    #[test]
    fn detects_strong_dependency_and_direction() {
        let t = vee_table(4_000, 1_000, 0, 7);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(
            m.fds()
                .iter()
                .any(|f| f.host == 0 && f.dep == 1 && f.collapse),
            "expected collapse-grade 0→1 FD, got {:?}",
            m.fds()
        );
        assert!(m.is_collapsed_dep(1));
        assert!(!m.is_collapsed_dep(0));
        assert!(!m.is_collapsed_dep(2));
    }

    #[test]
    fn linear_dependency_collapses_in_one_direction() {
        // A linear relation fits equally well both ways; either direction
        // is a correct exploitation, but exactly one must be assigned.
        let t = correlated_table(4_000, 1_000, 0, 7);
        let m = detect(&t, &CorrelationConfig::default());
        let pair: Vec<_> = m
            .fds()
            .iter()
            .filter(|f| f.collapse && f.host != 2 && f.dep != 2)
            .collect();
        assert_eq!(pair.len(), 1, "got {:?}", m.fds());
        assert!(!m.is_collapsed_dep(2));
    }

    #[test]
    fn independent_dimensions_stay_unassigned() {
        let mut rng = StdRng::seed_from_u64(3);
        let cols: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..4_000).map(|_| rng.gen_range(0..1_000_000)).collect())
            .collect();
        let t = Table::from_columns(cols);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(m.is_empty(), "spurious FDs: {:?}", m.fds());
    }

    #[test]
    fn disabled_config_detects_nothing() {
        let t = correlated_table(2_000, 100, 0, 7);
        let cfg = CorrelationConfig {
            enabled: false,
            ..Default::default()
        };
        assert!(detect(&t, &cfg).is_empty());
    }

    #[test]
    fn outlier_rate_threshold_rejects_noisy_fits() {
        // Every 10th row breaks the dependency: ~10% outliers ≫ 2% budget.
        let t = correlated_table(4_000, 1_000, 10, 7);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(
            !m.fds().iter().any(|f| f.host == 0 && f.dep == 1),
            "10% outliers must not pass: {:?}",
            m.fds()
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let t = correlated_table(3_000, 500, 0, 11);
        let cfg = CorrelationConfig::default();
        let a = detect(&t, &cfg);
        let b = detect(&t, &cfg);
        assert_eq!(a.fds(), b.fds());
    }

    #[test]
    fn no_chains_or_shared_roles() {
        // dim1 = f(dim0), dim2 = g(dim1) — transitively correlated; the
        // greedy assignment must not make dim1 both host and dependent.
        let mut rng = StdRng::seed_from_u64(5);
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for _ in 0..4_000 {
            let h: u64 = rng.gen_range(0..1_000_000);
            let a = h + rng.gen_range(0u64..500);
            let b = a / 2 + rng.gen_range(0u64..300);
            c0.push(h);
            c1.push(a);
            c2.push(b);
        }
        let t = Table::from_columns(vec![c0, c1, c2]);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(!m.is_empty());
        for f in m.fds() {
            assert!(
                !m.fds().iter().any(|g| g.dep == f.host),
                "chained assignment: {:?}",
                m.fds()
            );
            assert_eq!(
                m.fds().iter().filter(|g| g.dep == f.dep).count(),
                1,
                "dependent with two hosts: {:?}",
                m.fds()
            );
        }
    }

    #[test]
    fn rewrite_routes_dep_bound_through_host() {
        let t = vee_table(4_000, 1_000, 0, 7);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(m.is_collapsed_dep(1));
        let q = RangeQuery::all(3).with_range(1, 100_000, 110_000);
        let rq = m.rewrite(&q);
        // The dependent's own bound is kept (still checked per point)...
        assert_eq!(rq.bound(1), Some((100_000, 110_000)));
        // ...and a host bound appears. dep = |host − 500k|/2 + [0, 1000)
        // means matching hosts sit in [280k, 302k] ∪ [698k, 720k]; the
        // translated bound must cover both branches (plus bucket slack)...
        let (hlo, hhi) = rq.bound(0).expect("host bound implied");
        assert!(hlo <= 281_000 && hhi >= 719_000, "({hlo}, {hhi})");
        // ...while still being a useful restriction on the 1M domain.
        assert!(hlo >= 150_000 && hhi <= 850_000, "({hlo}, {hhi})");
    }

    /// A fitted envelope's translation is the hull of every bucket whose
    /// dependent envelope meets the bound — the scan over all buckets the
    /// first/last-bucket lookup replaced — on bounds below, inside, across
    /// and above the dependent's range.
    #[test]
    fn translation_is_the_hull_of_meeting_buckets() {
        let t = vee_table(4_000, 1_000, 50, 7);
        let m = detect(&t, &CorrelationConfig::default());
        assert!(!m.fds().is_empty());
        let mut rng = StdRng::seed_from_u64(11);
        for env in &m.envelopes {
            assert!(env.host_lo.windows(2).all(|w| w[0] <= w[1]));
            assert!(env.host_hi.windows(2).all(|w| w[0] <= w[1]));
            for width in [0u64, 1_000, 50_000, 1_000_000].repeat(100) {
                let lo = rng.gen_range(0..700_000);
                let hi = lo + rng.gen_range(0..=width);
                let hull = (0..env.host_lo.len())
                    .filter(|&b| env.dep_lo[b] <= hi && lo <= env.dep_hi[b])
                    .map(|b| (env.host_lo[b], env.host_hi[b]))
                    .reduce(|(a, z), (l, h)| (a.min(l), z.max(h)));
                assert_eq!(env.translate(lo, hi), hull, "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn rewrite_is_identity_without_fds() {
        let m = CorrelationModel::default();
        let q = RangeQuery::all(2).with_range(0, 5, 10);
        assert_eq!(m.rewrite(&q), q);
    }

    #[test]
    fn constant_dependent_is_a_perfect_fit() {
        let n = 2_000;
        let host: Vec<u64> = (0..n as u64).collect();
        let dep = vec![42u64; n];
        let mut rng = StdRng::seed_from_u64(9);
        let indep: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        let t = Table::from_columns(vec![host, dep, indep]);
        let m = detect(&t, &CorrelationConfig::default());
        let f = m
            .fds()
            .iter()
            .find(|f| f.dep == 1)
            .expect("constant column collapses");
        assert_eq!(f.strength, 1.0);
        assert!(f.collapse);
    }

    /// `t` in a build's storage order under `layout` (uniform flattening
    /// is fine for the support's invariants), with its cell table.
    fn storage_order(t: &Table, layout: &Layout) -> (Table, Vec<u32>) {
        let grid = Grid::new(layout);
        let (dims, cols) = (layout.grid_dims(), layout.cols());
        let flattener = Flattener::fit(t, None, dims, Flattening::Uniform);
        let mut keyed: Vec<(usize, u64, u32)> = (0..t.len())
            .map(|r| {
                let coords: Vec<usize> = (dims.iter().zip(cols))
                    .map(|(&d, &c)| flattener.bucket(d, t.value(r, d), c))
                    .collect();
                (
                    grid.cell_id(&coords),
                    t.value(r, layout.sort_dim()),
                    r as u32,
                )
            })
            .collect();
        keyed.sort_unstable();
        let perm: Vec<u32> = keyed.iter().map(|&(_, _, r)| r).collect();
        let mut cell_starts = vec![0u32; grid.num_cells() + 1];
        for &(cell, _, _) in &keyed {
            cell_starts[cell + 1] += 1;
        }
        for i in 0..grid.num_cells() {
            cell_starts[i + 1] += cell_starts[i];
        }
        (t.permuted(&perm), cell_starts)
    }

    /// The exactness invariant for both host slots, on a table whose
    /// dependent breaks the FD every 97 rows: every row is listed as an
    /// outlier or lies in its host bucket's envelope, and its dependent
    /// value translates to a range covering its host — a host column range
    /// holding its cell's column, or a sort-host value range holding its
    /// host value.
    #[test]
    fn support_envelopes_are_exact_over_the_full_table() {
        let t = vee_table(2_000, 800, 97, 13);
        let fds = vec![FdPair { host: 0, dep: 1 }];
        for (layout, slot) in [
            (Layout::new(vec![0, 2], vec![8]), HostSlot::Grid(0)),
            (Layout::new(vec![2, 0], vec![4]), HostSlot::Sort),
        ] {
            let layout = layout.with_fds(fds.clone());
            let grid = Grid::new(&layout);
            let (data, cell_starts) = storage_order(&t, &layout);
            let support =
                CorrSupport::build(&layout, &grid, &data, &cell_starts, ThreadPool::serial());
            // Outliers every 97 rows ≈ 1% — far below the ⅛ cut.
            let [fd] = &support.fds[..] else {
                panic!("expected {slot:?} FD support, got {:?}", support.fds);
            };
            assert_eq!(fd.slot, slot);
            let cells = cell_starts.windows(2).filter(|w| w[0] < w[1]).count();
            assert_eq!(cells, grid.num_cells(), "{slot:?}: every cell holds rows");
            for cell in 0..grid.num_cells() {
                for r in cell_starts[cell] as usize..cell_starts[cell + 1] as usize {
                    if fd.outliers.iter().any(|&(_, o, _)| o as usize == r) {
                        continue;
                    }
                    let (h, v) = (data.value(r, 0), data.value(r, 1));
                    let range = fd.translate(v, v);
                    // The row's bucket, and the host position it covers.
                    let (bucket, covered) = match slot {
                        HostSlot::Grid(i) => {
                            let col = cell / grid.stride(i) % grid.cols()[i];
                            (col, range.map(|(lo, hi)| (lo..=hi).contains(&col)))
                        }
                        HostSlot::Sort => {
                            let values = range.map(|t| support.sort.values(t));
                            (
                                support.sort.bucket(h),
                                values.map(|(lo, hi)| (lo..=hi).contains(&h)),
                            )
                        }
                    };
                    let (lo, hi) = fd.env[bucket].expect("the row's bucket holds it");
                    assert!(
                        (lo..=hi).contains(&v),
                        "{slot:?}: row {r} (dep {v}) outside [{lo}, {hi}]"
                    );
                    assert_eq!(
                        covered,
                        Some(true),
                        "{slot:?}: row {r} (host {h}, dep {v}), {range:?}"
                    );
                }
            }
            // Row-granular means the residual set stays near the injected
            // ~1% rate instead of inflating to whole cells.
            assert!(
                fd.outliers.len() < data.len() / 20,
                "{slot:?}: outlier set too large: {} of {}",
                fd.outliers.len(),
                data.len()
            );
        }
    }
}
