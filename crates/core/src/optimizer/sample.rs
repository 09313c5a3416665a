//! The flattened sample space: the optimizer's stand-in for the full dataset.
//!
//! Algorithm 1 flattens a data sample and the query sample with per-dimension
//! RMIs, then evaluates every candidate layout against them: `N_c` exactly
//! from the (flattened) query rectangle and the column counts, `N_s` and the
//! weight-model features by counting sample points. Because flattening makes
//! every marginal uniform, a dimension with `c` columns splits at
//! `i/c` for `i = 1..c` in flattened space.
//!
//! ## Two layers: data sample vs query layer
//!
//! The expensive half of a [`SampleSpace`] — sampling rows, fitting its
//! [`Flattener`] (one RMI per dimension), flattening the sample, sorting
//! each dimension — depends only on the *data*. The cheap half — flattening
//! the queries and computing per-dimension selectivities — depends on the
//! *query set*.
//! [`DataSample`] holds the first and is shareable (behind an `Arc`) across
//! any number of query sets over the same table;
//! [`SampleSpace::over`] attaches a query layer without touching the data.
//! A [`crate::CostEvaluator`] re-pointed at a new observation window does
//! exactly that: the data multiset of a clustered index never changes, so
//! one [`DataSample`] serves every window `flood-serve`'s adaptive loop
//! prices, and its [`Flattener`] cuts the grid of every index it builds.
//!
//! ## Incremental per-dimension statistics
//!
//! A layout's statistics are a *conjunction* of independent per-dimension
//! facts about each sample point: which column it lands in under `c`
//! columns of grid dimension `d` (inside the query's column range? on a
//! boundary column?), and whether it passes the sort-dimension filter.
//! [`SampleSpace::query_stats`] recomputes all of them with one scan per
//! call; [`SampleSpace::query_stats_cached`] instead caches each filtered
//! query-dimension's contribution as bitsets keyed on
//! `(query fingerprint, dim, column_count)` in a [`StatsCache`], so a
//! gradient-descent probe that moves one dimension's column count
//! re-counts **only that dimension** (the dirty set) and re-derives
//! `N_s`/`N_c`/the exact-point count by AND-ing cached masks — a
//! word-parallel operation 64× narrower than the point scan. Keying by the
//! *query's own* fingerprint (not its position in some window) makes the
//! cache valid across query sets over the same data sample: sliding
//! observation windows share most of their queries, so a re-learn finds
//! the masks its earlier checks and re-learns already built. The two paths are bit-identical by construction: identical
//! column arithmetic, identical multiplication order for `N_c`, and one
//! shared [`QueryStatistics::estimated`] constructor (pinned by
//! `tests/prop_incremental.rs` over arbitrary probe sequences).
//!
//! ### A mask is a rank range
//!
//! Which column a point lands in does not depend on the query, and
//! `col(v) = min(⌊v·c⌋, c − 1)` is monotone in `v`. So a mask is never
//! counted point by point: [`DataSample`] keeps, per dimension, the flat
//! values sorted, the point id at each rank, and **prefix bitmaps** — the
//! bitset of the first `k · stride` ranks for every `k`. The points inside a
//! query's column range are a run of ranks `[a, b)` found by
//! `partition_point` with `col` itself as predicate (ties and `f32`→`f64`
//! rounding cannot diverge from the per-point loop, which now lives only in
//! this module's tests as the reference), and the run's bitmap is
//! `prefix[⌊b/stride⌉] ^ prefix[⌊a/stride⌉]` plus at most `stride / 2`
//! single-bit toggles per end: O(words), however many points pass. The
//! boundary mask is the same call over four ranks, the sort mask the same
//! with `v < lo` / `v <= hi` as predicates. The table has a fixed number of
//! rows (≤ 65; `stride` is the multiple of 64 that makes it so), which bounds
//! it at ≈ 8 bytes per point and dimension — 68 KB per dimension at the
//! default 10 k sample — instead of O(n²) when the sample is the table.
//!
//! A mask that says nothing is a flag, not a bitmap: when every point
//! passes (every mask at one column, most at two under loose filters) no
//! `pass` bitmap is kept and the conjunction skips the AND; when no passing
//! point lies strictly between the two boundary columns no `boundary`
//! bitmap is kept and the query's exact-point count is 0 without touching a
//! word. Both are properties of the mask, observable where it is built.
//!
//! Every cache entry — grid masks, sort masks, per-(layout, query) costs,
//! and the evaluator's layout memo — is one `Aged` value stamped with the
//! [`StatsCache::epoch`] it was made in and last served in, and every hit
//! goes through `Aged::hit`. Hits on entries made in an earlier epoch are
//! counted separately ([`StatsCache::cross_epoch_reuses`]), which is how
//! the adaptive loop attributes re-learn cache hits to work done by earlier
//! degradation checks; the last-served stamp is what pruning reads.
//!
//! ## Correlation rewrite (Tsunami/COAX extension, beyond the Flood paper)
//!
//! [`DataSample::build`] also runs soft-FD detection over the sampled rows
//! ([`CorrelationModel`], behind [`CorrelationConfig::enabled`]). The
//! query layer then rewrites every filter on a *collapse-grade dependent*
//! into the equivalent host-dimension range before flattening, so the
//! statistics price each candidate layout under the same predicate routing
//! the built index will actually perform. Detection here only has to steer
//! the search — exactness at query time comes from the index's own
//! full-table envelopes, never from this sample.

use crate::correlation::{CorrelationConfig, CorrelationModel};
use crate::cost::features::QueryStatistics;
use crate::flatten::{DimCdf, Flattener, Flattening};
use flood_store::{RangeQuery, Table};
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A flattened query: per-dimension bounds in `[0, 1]` flat space.
#[derive(Debug, Clone)]
pub struct FlatQuery {
    /// `bounds[d] = Some((cdf(lo), cdf(hi)))` when dimension `d` is filtered.
    pub bounds: Vec<Option<(f32, f32)>>,
    /// Number of filtered dimensions.
    pub dims_filtered: usize,
}

/// The query-independent half of a [`SampleSpace`]: sampled rows flattened
/// through a [`Flattener`] fitted on them, one RMI per dimension. Building
/// one costs a table sample, `dims` RMI trainings, and two copies of the
/// flattened sample — everything a re-learn on the same table can skip by
/// sharing it via `Arc`. Its `Flattener` is also what a server's index
/// cuts its grid with, so the grid the search priced is the grid built.
#[derive(Debug)]
pub struct DataSample {
    /// Row-major flattened sample values: `flat[p * dims + d]`.
    flat: Vec<f32>,
    /// Each dimension's flat values in ascending order:
    /// `sorted[d * n_points + r]` is the `r`-th smallest of dimension `d`.
    /// A column range of a query is a run of ranks here, found by
    /// `partition_point`.
    sorted: Vec<f32>,
    /// The point holding each rank: `rank_ids[d * n_points + r]`.
    rank_ids: Vec<u32>,
    /// Per-dimension prefix bitmaps, `prefix_rows()` rows of
    /// `n_points.div_ceil(64)` words each: row `k` of dimension `d` has bit `p` set ⇔ point `p` is among
    /// the first `k * stride` ranks of `d`. At most [`PREFIX_BLOCKS`] + 1
    /// rows whatever the sample size, so the table is O(n) per dimension.
    prefix: Vec<u64>,
    /// Ranks per prefix row: a multiple of [`WORD_BITS`].
    stride: usize,
    n_points: usize,
    n_dims: usize,
    /// Scale factor from sample counts to full-dataset counts.
    scale: f64,
    full_n: usize,
    /// The per-dimension CDFs the sample was flattened through, fitted on
    /// its rows: new query sets are flattened against the *same* space, and
    /// an index built from this sample cuts its grid with them.
    flattener: Arc<Flattener>,
    /// Process-unique identity stamped at build time; a [`StatsCache`]
    /// carries its creator's id so cross-space reuse panics instead of
    /// silently producing wrong statistics (sample sizes can collide,
    /// identities cannot).
    space_id: u64,
    /// Soft FDs detected on the sampled rows (Tsunami/COAX extension).
    /// Query layers built over this sample rewrite collapsed-dependent
    /// filters through it; empty when correlation is disabled.
    correlation: CorrelationModel,
}

/// Source of [`DataSample::space_id`] values.
static NEXT_SPACE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DataSample {
    /// Sample up to `max_sample` rows of `table`, train per-dimension RMIs
    /// on the sample, and flatten it (Algorithm 1 lines 6–8, data side).
    /// Soft-FD detection (`ccfg`) runs on the same sampled rows, after the
    /// RNG has been consumed, so correlation on/off never changes the
    /// sampling stream.
    pub fn build(
        table: &Table,
        max_sample: usize,
        rng: &mut StdRng,
        ccfg: &CorrelationConfig,
    ) -> Self {
        let full_n = table.len();
        let n_dims = table.dims();
        let take = max_sample.clamp(1, full_n.max(1));
        let rows: Vec<usize> = if take >= full_n {
            (0..full_n).collect()
        } else {
            index_sample(rng, full_n, take).into_vec()
        };
        let n_points = rows.len();
        let correlation = CorrelationModel::detect_rows(table, &rows, ccfg);

        // Per-dimension CDFs trained on the sample.
        let all: Vec<usize> = (0..n_dims).collect();
        let flattener = Flattener::fit(table, Some(&rows), &all, Flattening::Learned);
        let cdfs: Vec<&DimCdf> = (0..n_dims)
            .map(|d| flattener.dim(d).expect("fitted above"))
            .collect();

        // Flatten the sample, row-major.
        let mut flat = Vec::with_capacity(n_points * n_dims);
        for &r in &rows {
            for (d, cdf) in cdfs.iter().enumerate() {
                flat.push(cdf.cdf(table.value(r, d)) as f32);
            }
        }
        // Checked once here: the per-dimension sort below and every
        // `partition_point` over its output rely on a total order.
        assert!(
            flat.iter().all(|v| v.is_finite()),
            "flattened sample values are finite"
        );
        assert!(
            u32::try_from(n_points).is_ok(),
            "sample point ids fit in u32"
        );

        // Per-dimension sort order and prefix bitmaps for the incremental
        // path's mask builds (see `rank_prefix_xor`).
        let words = n_points.div_ceil(WORD_BITS);
        let stride = n_points
            .div_ceil(PREFIX_BLOCKS)
            .next_multiple_of(WORD_BITS)
            .max(WORD_BITS);
        let mut sorted = Vec::with_capacity(n_points * n_dims);
        let mut rank_ids = Vec::with_capacity(n_points * n_dims);
        let mut prefix = Vec::with_capacity(n_dims * (n_points.div_ceil(stride) + 1) * words);
        let mut by_value: Vec<(f32, u32)> = Vec::with_capacity(n_points);
        let mut row = vec![0u64; words];
        for d in 0..n_dims {
            by_value.clear();
            by_value.extend((0..n_points).map(|p| (flat[p * n_dims + d], p as u32)));
            by_value.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            row.fill(0);
            prefix.extend_from_slice(&row);
            for block in by_value.chunks(stride) {
                for &(_, p) in block {
                    row[p as usize / WORD_BITS] |= 1u64 << (p as usize % WORD_BITS);
                }
                prefix.extend_from_slice(&row);
            }
            sorted.extend(by_value.iter().map(|&(v, _)| v));
            rank_ids.extend(by_value.iter().map(|&(_, p)| p));
        }

        DataSample {
            flat,
            sorted,
            rank_ids,
            prefix,
            stride,
            n_points,
            n_dims,
            scale: full_n as f64 / n_points.max(1) as f64,
            full_n,
            flattener: Arc::new(flattener),
            space_id: NEXT_SPACE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            correlation,
        }
    }

    /// The CDFs this sample was flattened through, one per dimension: what
    /// a search prices layouts through, for the build to cut its grid with.
    pub fn flattener(&self) -> &Arc<Flattener> {
        &self.flattener
    }

    /// The soft FDs detected on this sample (empty when disabled).
    pub fn correlation(&self) -> &CorrelationModel {
        &self.correlation
    }

    /// Rows per dimension in `prefix`: the empty prefix, then one per
    /// `stride` ranks.
    fn prefix_rows(&self) -> usize {
        self.n_points.div_ceil(self.stride) + 1
    }

    /// Dimension `dim`'s flat values in ascending order.
    fn sorted(&self, dim: usize) -> &[f32] {
        &self.sorted[dim * self.n_points..(dim + 1) * self.n_points]
    }

    /// XOR over `ranks` of `R(r)`, the bitmap of the points at ranks
    /// `[0, r)` of `dim`'s sort order — so `[a, b]` with `a <= b` gives the
    /// points at ranks `[a, b)`, and `[a, a2, b2, b]` those at
    /// `[a, a2) ∪ [b2, b)`. Each `R(r)` is the nearest prefix row with the
    /// ≤ `stride / 2` points between that row's edge and `r` toggled one
    /// bit at a time: O(words + stride) per rank, however many points the
    /// range holds.
    fn rank_prefix_xor(&self, dim: usize, ranks: &[usize]) -> Vec<u64> {
        let n = self.n_points;
        let words = n.div_ceil(WORD_BITS);
        let ids = &self.rank_ids[dim * n..(dim + 1) * n];
        let rows = &self.prefix[dim * self.prefix_rows() * words..][..self.prefix_rows() * words];
        let mut out = vec![0u64; words];
        for &r in ranks {
            // `r <= n <= (prefix_rows() - 1) * stride`, so `k` is a row.
            let k = (r + self.stride / 2) / self.stride;
            for (o, w) in out.iter_mut().zip(&rows[k * words..(k + 1) * words]) {
                *o ^= w;
            }
            let edge = (k * self.stride).min(n);
            for &p in &ids[r.min(edge)..r.max(edge)] {
                out[p as usize / WORD_BITS] ^= 1u64 << (p as usize % WORD_BITS);
            }
        }
        out
    }

    /// Number of sampled points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }
}

/// The flattened data + query sample used for cost evaluation: a shared
/// [`DataSample`] plus one flattened query set.
#[derive(Debug)]
pub struct SampleSpace {
    data: Arc<DataSample>,
    queries: Vec<FlatQuery>,
    /// Per-query fingerprints, aligned with `queries` — the cache keys of
    /// the incremental path.
    qfps: Vec<u64>,
    /// Average flattened query width per dimension (selectivity), `None`
    /// for dimensions never filtered.
    avg_selectivity: Vec<Option<f64>>,
    /// Fingerprint of the query set this space was built over, before any
    /// rewrite (see [`SampleSpace::query_fingerprint`]).
    query_fp: u64,
    /// Grid and sort masks built over this space, for tests that hold a
    /// search's builds to its recounts.
    #[cfg(test)]
    mask_builds: AtomicUsize,
}

impl SampleSpace {
    /// Sample up to `max_sample` rows of `table`, train per-dimension RMIs
    /// on the sample, and flatten both the sample and the `queries`.
    pub fn build(
        table: &Table,
        queries: &[RangeQuery],
        max_sample: usize,
        rng: &mut StdRng,
        ccfg: &CorrelationConfig,
    ) -> Self {
        let data = Arc::new(DataSample::build(table, max_sample, rng, ccfg));
        SampleSpace::over(data, queries)
    }

    /// Attach a query layer to an existing (shared) data sample: flatten
    /// `queries` through the sample's CDFs and record selectivities. Costs
    /// no sampling, no RMI training, no data flattening.
    ///
    /// When the sample detected soft FDs, queries are first rewritten
    /// through [`DataSample::correlation`] — a filter on a collapsed
    /// dependent implies a host bound — so predicted costs price the
    /// correlation-tightened projection the built index will actually run.
    /// The per-query mask-cache keys are computed on the *rewritten*
    /// queries (rewriting is deterministic per sample, so repeat queries
    /// still collide), `query_fp` on the queries as given. With no FDs the
    /// rewrite is the identity.
    pub fn over(data: Arc<DataSample>, queries: &[RangeQuery]) -> Self {
        let query_fp = SampleSpace::query_fingerprint(queries);
        let rewritten;
        let queries: &[RangeQuery] = if data.correlation.is_empty() {
            queries
        } else {
            rewritten = data.correlation.rewrite_all(queries);
            &rewritten
        };
        let n_dims = data.n_dims;
        let cdfs: Vec<&DimCdf> = (0..n_dims)
            .map(|d| {
                data.flattener
                    .dim(d)
                    .expect("a sample fits every dimension")
            })
            .collect();
        let mut sel_sum = vec![0.0f64; n_dims];
        let mut sel_cnt = vec![0usize; n_dims];
        let flat_queries: Vec<FlatQuery> = queries
            .iter()
            .map(|q| {
                let mut bounds = Vec::with_capacity(n_dims);
                for d in 0..n_dims {
                    match q.bound(d) {
                        Some((lo, hi)) => {
                            let (flo, fhi) = (cdfs[d].cdf(lo) as f32, cdfs[d].cdf(hi) as f32);
                            sel_sum[d] += (fhi - flo) as f64;
                            sel_cnt[d] += 1;
                            bounds.push(Some((flo, fhi)));
                        }
                        None => bounds.push(None),
                    }
                }
                FlatQuery {
                    dims_filtered: q.num_filtered(),
                    bounds,
                }
            })
            .collect();
        let avg_selectivity = (0..n_dims)
            .map(|d| {
                if sel_cnt[d] == 0 {
                    None
                } else {
                    Some(sel_sum[d] / sel_cnt[d] as f64)
                }
            })
            .collect();

        let qfps: Vec<u64> = queries.iter().map(fingerprint_query).collect();
        SampleSpace {
            query_fp,
            data,
            queries: flat_queries,
            qfps,
            avg_selectivity,
            #[cfg(test)]
            mask_builds: AtomicUsize::new(0),
        }
    }

    /// Grid and sort masks built over this space so far.
    #[cfg(test)]
    pub(crate) fn mask_builds(&self) -> usize {
        self.mask_builds.load(Ordering::Relaxed)
    }

    /// Order-sensitive fingerprint of a query set: a stable 64-bit hash
    /// combining every query's own fingerprint. Two windows with equal
    /// queries in equal order collide by construction; anything else
    /// collides with probability ~2⁻⁶⁴. The keying
    /// [`crate::CostEvaluator::set_window`] uses to recognise a repeat
    /// observation window.
    pub fn query_fingerprint(queries: &[RangeQuery]) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_eat(&mut h, queries.len() as u64);
        for q in queries {
            fnv_eat(&mut h, fingerprint_query(q));
        }
        h
    }

    /// The shared data sample.
    pub fn data(&self) -> &Arc<DataSample> {
        &self.data
    }

    /// Fingerprint of the query set this space carries.
    pub fn query_fp(&self) -> u64 {
        self.query_fp
    }

    /// Number of queries in this space's query layer.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Per-query fingerprints, aligned with the query layer.
    pub(crate) fn qfps(&self) -> &[u64] {
        &self.qfps
    }

    /// Number of sampled points.
    pub fn len(&self) -> usize {
        self.data.n_points
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.data.n_points == 0
    }

    /// Rows in the full table the sample stands in for.
    pub fn full_len(&self) -> usize {
        self.data.full_n
    }

    /// Dimensions per row.
    pub fn dims(&self) -> usize {
        self.data.n_dims
    }

    /// Dimensions filtered by at least one sampled query, most selective
    /// (smallest average flattened width) first — Algorithm 1's `dims`.
    pub fn dims_by_selectivity(&self) -> Vec<usize> {
        let mut dims: Vec<(usize, f64)> = self
            .avg_selectivity
            .iter()
            .enumerate()
            .filter_map(|(d, s)| s.map(|s| (d, s)))
            .collect();
        dims.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("selectivities are finite"));
        dims.into_iter().map(|(d, _)| d).collect()
    }

    /// Average selectivity (flattened width) of `dim`, if ever filtered.
    pub fn selectivity(&self, dim: usize) -> Option<f64> {
        self.avg_selectivity[dim]
    }

    /// Estimate the per-query statistics of layout `(order, cols)` — the
    /// cost-model inputs, without building anything (§4.2 step 3).
    ///
    /// `order` lists indexed dims (sort last), `cols` the grid column
    /// counts (`order.len() - 1` entries).
    pub fn query_stats(&self, order: &[usize], cols: &[usize]) -> Vec<QueryStatistics> {
        assert_eq!(cols.len() + 1, order.len());
        let n_dims = self.data.n_dims;
        let n_points = self.data.n_points;
        let grid_dims = &order[..order.len() - 1];
        let sort_dim = *order.last().expect("non-empty order");
        let total_cells: f64 = cols.iter().map(|&c| c as f64).product::<f64>().max(1.0);
        let avg_cell = self.data.full_n as f64 / total_cells;

        let mut out = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            // Projection: exact column ranges per grid dim.
            let mut nc = 1.0f64;
            let mut ranges: Vec<(u32, u32, bool)> = Vec::with_capacity(grid_dims.len());
            for (&d, &c) in grid_dims.iter().zip(cols) {
                match q.bounds[d] {
                    Some((lo, hi)) => {
                        let lo_col = ((lo as f64 * c as f64) as u32).min(c as u32 - 1);
                        let hi_col = ((hi as f64 * c as f64) as u32).min(c as u32 - 1);
                        nc *= (hi_col - lo_col + 1) as f64;
                        ranges.push((lo_col, hi_col, true));
                    }
                    None => {
                        // The query rectangle spans the whole dimension:
                        // every column contributes to N_c.
                        nc *= c as f64;
                        ranges.push((0, c as u32 - 1, false));
                    }
                }
            }
            let sort_bound = q.bounds[sort_dim];
            // Any filter on an unindexed dimension forces per-point checks,
            // so no sub-range can be exact.
            let has_unindexed_filter =
                (0..n_dims).any(|d| q.bounds[d].is_some() && !order.contains(&d));

            // Scan estimate from the sample.
            let mut ns_sample = 0usize;
            let mut exact_sample = 0usize;
            'points: for p in 0..n_points {
                let row = &self.data.flat[p * n_dims..(p + 1) * n_dims];
                let mut interior = !has_unindexed_filter;
                for ((&d, &c), &(lo_col, hi_col, filtered)) in
                    grid_dims.iter().zip(cols).zip(&ranges)
                {
                    let col = ((row[d] as f64 * c as f64) as u32).min(c as u32 - 1);
                    if col < lo_col || col > hi_col {
                        continue 'points;
                    }
                    if filtered && (col == lo_col || col == hi_col) {
                        interior = false;
                    }
                }
                if let Some((lo, hi)) = sort_bound {
                    let v = row[sort_dim];
                    if v < lo || v > hi {
                        continue 'points;
                    }
                }
                ns_sample += 1;
                if interior {
                    exact_sample += 1;
                }
            }
            let ns = ns_sample as f64 * self.data.scale;
            let exact = exact_sample as f64 * self.data.scale;
            out.push(QueryStatistics::estimated(
                nc,
                ns,
                exact,
                total_cells,
                avg_cell,
                q.dims_filtered as f64,
                sort_bound.is_some(),
            ));
        }
        out
    }

    /// A [`StatsCache`] bound to this sample and query set, for
    /// [`SampleSpace::query_stats_cached`].
    pub fn stats_cache(&self) -> StatsCache {
        StatsCache {
            grid: RwLock::default(),
            sort: RwLock::default(),
            costs: RwLock::default(),
            space_id: self.data.space_id,
            epoch: 0,
            tally: Tally::default(),
        }
    }

    /// [`SampleSpace::query_stats`], incrementally: identical output (bit
    /// for bit), but each filtered query-dimension's per-point contribution
    /// is cached in `cache` keyed on `(query fingerprint, dim, cols)`, so
    /// only contributions this probe actually introduced are re-counted —
    /// whether the previous probe differed by one column count, or by a
    /// whole observation window that shares queries with this one.
    ///
    /// # Panics
    /// Panics if `cache` was built over a different [`DataSample`] (the
    /// masks would be meaningless) or if `cols`/`order` lengths disagree.
    pub fn query_stats_cached(
        &self,
        order: &[usize],
        cols: &[usize],
        cache: &mut StatsCache,
    ) -> Vec<QueryStatistics> {
        let all: Vec<usize> = (0..self.queries.len()).collect();
        let mut tally = Tally::default();
        let stats = self.query_stats_over(order, cols, &all, cache, &mut tally);
        cache.tally += tally;
        stats
    }

    /// [`SampleSpace::query_stats_cached`] restricted to the queries at
    /// `subset` (indices into this space's query list), in `subset` order,
    /// through a shared `cache`: masks it lacks are built into it, and the
    /// fetches, builds and cross-epoch hits are counted into `tally`. The
    /// entry point for per-query cost memoization, which only needs
    /// statistics for the queries whose `(query, layout)` cost is not
    /// already known, and for search tasks pricing side by side.
    pub(crate) fn query_stats_over(
        &self,
        order: &[usize],
        cols: &[usize],
        subset: &[usize],
        cache: &StatsCache,
        tally: &mut Tally,
    ) -> Vec<QueryStatistics> {
        assert_eq!(cols.len() + 1, order.len());
        assert!(
            cache.space_id == self.data.space_id,
            "StatsCache built for a different SampleSpace"
        );
        let n_dims = self.data.n_dims;
        let n_points = self.data.n_points;
        let grid_dims = &order[..order.len() - 1];
        let sort_dim = *order.last().expect("non-empty order");
        let total_cells: f64 = cols.iter().map(|&c| c as f64).product::<f64>().max(1.0);
        let avg_cell = self.data.full_n as f64 / total_cells;

        // Dirty-set recomputation: build masks only for the filtered
        // (query, dim, cols) triples nothing has built yet; everything else
        // is served from the cache, including entries built for *other*
        // query sets that share queries with this one, and entries another
        // search task built a moment ago.
        let (mut grid_wanted, mut sort_wanted) = (Vec::new(), Vec::new());
        for &qi in subset {
            let (q, qfp) = (&self.queries[qi], self.qfps[qi]);
            for (&d, &c) in grid_dims.iter().zip(cols) {
                if q.bounds[d].is_some() {
                    grid_wanted.push((qi, (qfp, d, c)));
                }
            }
            if q.bounds[sort_dim].is_some() {
                sort_wanted.push((qi, (qfp, sort_dim)));
            }
        }
        let epoch = cache.epoch;
        let grid_masks = gather(&cache.grid, &grid_wanted, epoch, tally, |qi, (_, d, c)| {
            self.build_query_grid_masks(qi, d, c)
        });
        let sort_masks = gather(&cache.sort, &sort_wanted, epoch, tally, |qi, (_, d)| {
            self.build_query_sort_mask(qi, d)
        });
        // Served in the order they were gathered.
        let (mut grid, mut sort) = (grid_masks.iter(), sort_masks.iter());

        let ones = all_points(n_points);
        let mut acc = vec![0u64; ones.len()];
        let mut boundaries: Vec<&[u64]> = Vec::with_capacity(grid_dims.len());
        let mut out = Vec::with_capacity(subset.len());
        for &qi in subset {
            let q = &self.queries[qi];
            // N_c: multiply per-dimension column counts in `grid_dims`
            // order — the same f64 multiplication sequence as the full
            // scan, so the product is bit-identical.
            let mut nc = 1.0f64;
            acc.copy_from_slice(&ones);
            // Any filter on an unindexed dimension forces per-point checks,
            // so no sub-range can be exact.
            let mut exact_possible =
                !(0..n_dims).any(|d| q.bounds[d].is_some() && !order.contains(&d));
            boundaries.clear();
            for (&d, &c) in grid_dims.iter().zip(cols) {
                match q.bounds[d] {
                    Some(_) => {
                        let masks = grid.next().expect("gathered above");
                        nc *= masks.ncols;
                        // An all-ones mask leaves `acc` as it is.
                        if let Some(pass) = &masks.pass {
                            and(&mut acc, pass);
                        }
                        match &masks.boundary {
                            Some(boundary) => boundaries.push(boundary),
                            // No interior: `acc ⊆ pass = boundary`, so
                            // removing the boundary leaves nothing.
                            None => exact_possible = false,
                        }
                    }
                    // The query rectangle spans the whole dimension: every
                    // column contributes to N_c and every point passes.
                    None => nc *= c as f64,
                }
            }
            if q.bounds[sort_dim].is_some() {
                if let Some(pass) = &**sort.next().expect("gathered above") {
                    and(&mut acc, pass);
                }
            }
            let ns_sample = popcount(&acc);
            let exact_sample = if exact_possible {
                for boundary in &boundaries {
                    and_not(&mut acc, boundary);
                }
                popcount(&acc)
            } else {
                0
            };
            let ns = ns_sample as f64 * self.data.scale;
            let exact = exact_sample as f64 * self.data.scale;
            out.push(QueryStatistics::estimated(
                nc,
                ns,
                exact,
                total_cells,
                avg_cell,
                q.dims_filtered as f64,
                q.bounds[sort_dim].is_some(),
            ));
        }
        out
    }

    /// Count one filtered query's grid contribution at one column count:
    /// the per-point pass/boundary bitsets and the query rectangle's column
    /// span. `col(v) = min(⌊v·c⌋, c − 1)` — exactly the column arithmetic
    /// of the full scan — is monotone in `v`, so the points of a column
    /// range are a run of the dimension's sort order: `partition_point`
    /// with `col` itself as predicate finds it (ties and `f32`→`f64`
    /// rounding cannot diverge from the per-point loop), and
    /// [`DataSample::rank_prefix_xor`] turns the run into a bitmap without
    /// visiting its points.
    fn build_query_grid_masks(&self, qi: usize, dim: usize, c: usize) -> GridMasks {
        #[cfg(test)]
        self.mask_builds.fetch_add(1, Ordering::Relaxed);
        let sorted = self.data.sorted(dim);
        let (lo, hi) = self.queries[qi].bounds[dim].expect("only filtered dims are cached");
        let col = |v: f32| ((v as f64 * c as f64) as u32).min(c as u32 - 1);
        let (lo_col, hi_col) = (col(lo), col(hi));
        // Ranks [a, b) pass; of those, [a2, b2) lie strictly between the
        // two boundary columns.
        let a = sorted.partition_point(|&v| col(v) < lo_col);
        let b = sorted.partition_point(|&v| col(v) <= hi_col);
        let a2 = a + sorted[a..b].partition_point(|&v| col(v) <= lo_col);
        let b2 = a + sorted[a..b].partition_point(|&v| col(v) < hi_col);
        let full = a == 0 && b == sorted.len();
        let no_interior = a2 >= b2;
        GridMasks {
            ncols: (hi_col - lo_col + 1) as f64,
            pass: (!full).then(|| self.data.rank_prefix_xor(dim, &[a, b])),
            boundary: (!no_interior).then(|| self.data.rank_prefix_xor(dim, &[a, a2, b2, b])),
        }
    }

    /// Count one filtered query's sort-dimension crossings: which points
    /// pass the query's sort-dimension bound — again a run of the sort
    /// order. Bit `p` is set ⇔ point `p` lies inside the bound; `None` ⇔
    /// every point does. The mask does not depend on the grid, and
    /// unfiltered sort dimensions are never cached (refinement never runs
    /// and every point passes).
    fn build_query_sort_mask(&self, qi: usize, dim: usize) -> Option<Vec<u64>> {
        #[cfg(test)]
        self.mask_builds.fetch_add(1, Ordering::Relaxed);
        let sorted = self.data.sorted(dim);
        let (lo, hi) = self.queries[qi].bounds[dim].expect("only filtered dims are cached");
        let a = sorted.partition_point(|&v| v < lo);
        let b = sorted.partition_point(|&v| v <= hi);
        let full = a == 0 && b == sorted.len();
        (!full).then(|| self.data.rank_prefix_xor(dim, &[a, b]))
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over one little-endian word: stable across runs and toolchains
/// (unlike `DefaultHasher`), cheap, and collision-safe enough for cache
/// keying.
#[inline]
fn fnv_eat(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Stable fingerprint of one query's per-dimension bounds — the
/// query-identity half of the [`StatsCache`] key. Equal-bound queries
/// collide by construction (their masks are identical, so sharing the
/// entry is exactly right).
fn fingerprint_query(q: &RangeQuery) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_eat(&mut h, q.dims() as u64);
    for d in 0..q.dims() {
        match q.bound(d) {
            Some((lo, hi)) => {
                fnv_eat(&mut h, 1);
                fnv_eat(&mut h, lo);
                fnv_eat(&mut h, hi);
            }
            None => fnv_eat(&mut h, 0),
        }
    }
    h
}

const WORD_BITS: usize = 64;

/// Most blocks a dimension's prefix-bitmap table is cut into. Fixed, so the
/// table is at most `PREFIX_BLOCKS + 1` bitmaps of `n_points` bits — about
/// 8 bytes per point and dimension — however large the sample grows.
const PREFIX_BLOCKS: usize = 64;

/// The all-points mask, with trailing bits beyond `n_points` cleared so
/// popcounts equal point counts.
fn all_points(n_points: usize) -> Vec<u64> {
    let mut ones = vec![!0u64; n_points.div_ceil(WORD_BITS)];
    if let Some(last) = ones.last_mut() {
        let tail = n_points % WORD_BITS;
        if tail != 0 {
            *last = (1u64 << tail) - 1;
        }
    }
    ones
}

#[inline]
fn and(acc: &mut [u64], mask: &[u64]) {
    for (a, m) in acc.iter_mut().zip(mask) {
        *a &= m;
    }
}

#[inline]
fn and_not(acc: &mut [u64], mask: &[u64]) {
    for (a, m) in acc.iter_mut().zip(mask) {
        *a &= !m;
    }
}

#[inline]
fn popcount(acc: &[u64]) -> usize {
    acc.iter().map(|w| w.count_ones() as usize).sum()
}

/// One filtered query's cached grid contribution at one column count.
#[derive(Debug, Clone)]
struct GridMasks {
    /// Columns of this dimension inside the query rectangle — the factor
    /// this dimension contributes to `N_c`.
    ncols: f64,
    /// Bit `p` set ⇔ point `p`'s column lies inside the query's column
    /// range. `None` ⇔ every point passes (the mask is *full*): no bitmap
    /// is kept and the conjunction skips it.
    pass: Option<Vec<u64>>,
    /// Bit `p` set ⇔ point `p` passes *and* lands on a boundary column
    /// (`lo_col` or `hi_col`) — it is visited but not inside an exact
    /// sub-range. `None` ⇔ no passing point lies strictly between the two
    /// boundary columns (*no interior*): the boundary is `pass` itself, so
    /// nothing under this query can be exact.
    boundary: Option<Vec<u64>>,
}

/// A layout as the pricing caches key it: `(order, cols)`.
pub(crate) type LayoutKey = (Vec<usize>, Vec<usize>);

/// A grid mask's key: `(query fingerprint, dim, column count)`.
type GridKey = (u64, usize, usize);

/// A sort mask's key: `(query fingerprint, sort dim)`.
type SortKey = (u64, usize);

/// One shared table of masks, handed out as `Arc`s so a pricing call holds
/// its masks after it releases the lock.
type MaskTable<K, T> = RwLock<HashMap<K, Aged<Arc<T>>>>;

/// One cached pricing fact — a grid or sort mask, a `(layout, query)`
/// cost, a layout's memoized cost — stamped with the [`StatsCache::epoch`]
/// it was made in and the one it last served in.
#[derive(Debug)]
pub(crate) struct Aged<T> {
    pub(crate) value: T,
    born: usize,
    /// Stamped through `&self`: the search tasks of one search read one
    /// cache side by side, and all of them stamp the current epoch.
    used: AtomicUsize,
}

impl<T> Aged<T> {
    /// A fact made in `epoch`.
    pub(crate) fn new(value: T, epoch: usize) -> Self {
        Aged {
            value,
            born: epoch,
            used: AtomicUsize::new(epoch),
        }
    }

    /// The one hit path: serve the fact in `epoch`, stamp it used, and
    /// count it in `cross` when an earlier epoch made it.
    pub(crate) fn hit(&self, epoch: usize, cross: &mut usize) -> &T {
        self.used.store(epoch, Ordering::Relaxed);
        *cross += usize::from(self.born < epoch);
        &self.value
    }

    /// The epoch it last served in.
    fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }
}

/// Memo of per-query, per-dimension statistics over one [`DataSample`],
/// keyed on `(query fingerprint, dim, column_count)` — the dirty-set cache
/// behind [`SampleSpace::query_stats_cached`] — plus per-(layout, query)
/// predicted costs.
///
/// A gradient-descent probe that moves one dimension hits the cache for
/// every unmoved dimension and re-counts only the moved one; because the
/// finite-difference probes of [`crate::optimizer::gradient::descend`]
/// revisit the same per-dimension column counts over and over, most probes
/// re-count *nothing* and reduce to bitset ANDs. Because entries are keyed
/// by query identity rather than window position, the cache also survives
/// the query set changing: re-pricing a slid observation window re-counts
/// only the queries that actually entered it. [`StatsCache::recounts`] /
/// [`StatsCache::reuses`] report the effect in (query, dim) units.
///
/// Each table sits behind one lock, and the sort-dimension candidates of a
/// search read and fill it side by side through `&self`: a pricing call
/// gathers what exists under one read lock and builds what is missing under
/// at most one write lock, so a mask is built once however many tasks need
/// it.
///
/// Validity is tied to the *data sample* only; the cache carries the
/// sample's process-unique identity and rejects use with any other.
#[derive(Debug)]
pub struct StatsCache {
    grid: MaskTable<GridKey, GridMasks>,
    /// Sort-dimension pass masks (see `build_query_sort_mask`).
    sort: MaskTable<SortKey, Option<Vec<u64>>>,
    /// Per-(layout, query) predicted costs: `costs[(order, cols)][qfp]` is
    /// the cost model's `time_ns` for that query under that layout. A
    /// `(query, layout)` pair's cost depends on nothing else, so entries
    /// outlive the observation window that created them — the layer that
    /// makes repeat pricing of recurring queries free across re-learns.
    /// Valid for one cost model (the holder's optimizer never swaps its
    /// model mid-flight).
    costs: RwLock<HashMap<LayoutKey, HashMap<u64, Aged<f64>>>>,
    /// Identity of the owning data sample (process-unique, stamped at build
    /// time), to reject cross-space reuse — sizes alone can collide.
    space_id: u64,
    /// Current epoch: a caller-advanced generation counter. Entries
    /// remember their creation epoch, so reuse of work done in an earlier
    /// generation (e.g. a previous degradation check feeding a re-learn) is
    /// observable via [`StatsCache::cross_epoch_reuses`].
    epoch: usize,
    /// What [`SampleSpace::query_stats_cached`] counted over this cache.
    tally: Tally,
}

/// What pricing counted: layout-memo lookups (`cost_evals`, of them
/// `cache_hits`), mask `fetches` in (query, dimension) units, the masks it
/// built (`recounts`), and `cross`, its hits on memo entries, masks and
/// per-query costs an earlier epoch made. A search's tasks each count their
/// own, summed after the run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) cost_evals: usize,
    pub(crate) cache_hits: usize,
    pub(crate) fetches: usize,
    pub(crate) recounts: usize,
    pub(crate) cross: usize,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.cost_evals += other.cost_evals;
        self.cache_hits += other.cache_hits;
        self.fetches += other.fetches;
        self.recounts += other.recounts;
        self.cross += other.cross;
    }
}

/// A cache table's read guard. An entry is inserted whole or not at all,
/// so a table whose lock a panicking task poisoned is still sound.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// A cache table's write guard (see [`read`]).
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The masks at `wanted`'s keys, in `wanted` order: one read lock gathers
/// what `table` holds, and at most one write lock builds what it lacks with
/// `build(query index, key)`. `or_insert_with` builds a key only if no other
/// task inserted it in between, so `recounts` counts exactly the keys this
/// call inserted, and a search builds each mask once.
fn gather<K: Copy + Eq + Hash, T>(
    table: &MaskTable<K, T>,
    wanted: &[(usize, K)],
    epoch: usize,
    tally: &mut Tally,
    build: impl Fn(usize, K) -> T,
) -> Vec<Arc<T>> {
    tally.fetches += wanted.len();
    let mut found: Vec<Option<Arc<T>>> = {
        let table = read(table);
        let cross = &mut tally.cross;
        wanted
            .iter()
            .map(|(_, key)| table.get(key).map(|e| Arc::clone(e.hit(epoch, cross))))
            .collect()
    };
    if found.iter().any(Option::is_none) {
        let mut table = write(table);
        for (slot, &(qi, key)) in found.iter_mut().zip(wanted) {
            if slot.is_none() {
                let entry = table.entry(key).or_insert_with(|| {
                    tally.recounts += 1;
                    Aged::new(Arc::new(build(qi, key)), epoch)
                });
                *slot = Some(Arc::clone(&entry.value));
            }
        }
    }
    found
        .into_iter()
        .map(|m| m.expect("gathered or built"))
        .collect()
}

impl StatsCache {
    /// The costs this cache holds of `layout_key` for the queries with
    /// fingerprints `qfps`, in that order (`None`: never priced), read
    /// under one lock; hits on an earlier epoch's costs count in `tally`.
    pub(crate) fn cost_probe(
        &self,
        layout_key: &LayoutKey,
        qfps: &[u64],
        tally: &mut Tally,
    ) -> Vec<Option<f64>> {
        let costs = read(&self.costs);
        let Some(per_query) = costs.get(layout_key) else {
            return vec![None; qfps.len()];
        };
        let cross = &mut tally.cross;
        qfps.iter()
            .map(|qfp| per_query.get(qfp).map(|e| *e.hit(self.epoch, cross)))
            .collect()
    }

    /// Record freshly computed `(query fingerprint, time_ns)` costs of one
    /// layout as entries of the current epoch, under one lock.
    pub(crate) fn cost_insert(
        &self,
        layout_key: &LayoutKey,
        fresh: impl IntoIterator<Item = (u64, f64)>,
    ) {
        let mut costs = write(&self.costs);
        let per_query = costs.entry(layout_key.clone()).or_default();
        for (qfp, ns) in fresh {
            per_query
                .entry(qfp)
                .or_insert_with(|| Aged::new(ns, self.epoch));
        }
    }

    /// Per-(query, dimension) contributions counted from scratch (cache
    /// misses).
    pub fn recounts(&self) -> usize {
        self.tally.recounts
    }

    /// Per-(query, dimension) contributions served from the cache —
    /// contributions a probe needed but did not change.
    pub fn reuses(&self) -> usize {
        self.tally.fetches - self.tally.recounts
    }

    /// Mask reuses and per-query cost hits on entries created in an earlier
    /// epoch (before the last [`StatsCache::advance_epoch`]).
    pub fn cross_epoch_reuses(&self) -> usize {
        self.tally.cross
    }

    /// Start a new epoch: subsequent reuses of entries created before this
    /// call count as cross-epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The current epoch.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Cached entries (grid + sort masks + per-query costs).
    pub fn entry_count(&self) -> usize {
        let costs: usize = read(&self.costs).values().map(HashMap::len).sum();
        read(&self.grid).len() + read(&self.sort).len() + costs
    }

    /// Drop entries that last served a probe before `min_last_used` —
    /// long-lived holders (adaptive indexes) bound memory this way once
    /// old windows' queries stop recurring.
    pub fn prune_stale(&mut self, min_last_used: usize) {
        write(&self.grid).retain(|_, e| e.used() >= min_last_used);
        write(&self.sort).retain(|_, e| e.used() >= min_last_used);
        let mut costs = write(&self.costs);
        for per_query in costs.values_mut() {
            per_query.retain(|_, e| e.used() >= min_last_used);
        }
        costs.retain(|_, per_query| !per_query.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_testkit::{cases, Lcg};
    use rand::SeedableRng;

    fn table() -> Table {
        let n = 4_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| i % 1_000).collect(),
            (0..n).map(|i| (i * i) % 10_000).collect(),
            (0..n).collect(),
        ])
    }

    fn space(queries: &[RangeQuery], sample: usize) -> SampleSpace {
        let mut rng = StdRng::seed_from_u64(3);
        SampleSpace::build(
            &table(),
            queries,
            sample,
            &mut rng,
            &CorrelationConfig::default(),
        )
    }

    #[test]
    fn selectivity_ordering() {
        let qs = vec![
            RangeQuery::all(3)
                .with_range(0, 0, 9)
                .with_range(1, 0, 9_000),
            RangeQuery::all(3)
                .with_range(0, 10, 29)
                .with_range(1, 0, 8_000),
        ];
        let s = space(&qs, 2_000);
        // Dim 0 is ~1-3% selective, dim 1 ~80-90%; dim 2 never filtered.
        assert_eq!(s.dims_by_selectivity(), vec![0, 1]);
        assert!(s.selectivity(2).is_none());
        assert!(s.selectivity(0).expect("filtered") < s.selectivity(1).expect("filtered"));
    }

    #[test]
    fn ns_estimate_tracks_truth() {
        // Query selecting ~10% of dim 0 with full sample (scale = 1).
        // Correlation off: dim 0 (= row id % 1000) is detectably soft-FD
        // dependent on dim 2 (= row id), and the resulting query rewrite
        // would add a host bound on the sort dimension — correct, but not
        // what this test measures.
        let qs = vec![RangeQuery::all(3).with_range(0, 0, 99)];
        let mut rng = StdRng::seed_from_u64(3);
        let ccfg = CorrelationConfig {
            enabled: false,
            ..Default::default()
        };
        let s = SampleSpace::build(&table(), &qs, usize::MAX, &mut rng, &ccfg);
        // Layout: grid on dim 0 with 10 columns, sort dim 2.
        let stats = s.query_stats(&[0, 2], &[10]);
        assert_eq!(stats.len(), 1);
        let st = &stats[0];
        // True matching fraction is 10%; the scanned estimate covers whole
        // boundary columns so it is ≥ the true count but ≤ ~3 columns.
        let truth = 400.0; // 4000 rows * 10%
        assert!(st.ns >= truth * 0.8, "ns {}", st.ns);
        assert!(st.ns <= truth * 3.5, "ns {}", st.ns);
        assert!(st.nc >= 1.0 && st.nc <= 3.0, "nc {}", st.nc);
        assert!(!st.sort_filtered);
    }

    #[test]
    fn finer_grids_scan_fewer_points() {
        let qs = vec![RangeQuery::all(3).with_range(1, 0, 400)];
        let s = space(&qs, usize::MAX);
        let coarse = &s.query_stats(&[1, 2], &[2])[0];
        let fine = &s.query_stats(&[1, 2], &[64])[0];
        assert!(
            fine.ns <= coarse.ns,
            "finer grid must not scan more: {} vs {}",
            fine.ns,
            coarse.ns
        );
        assert!(fine.nc >= coarse.nc);
    }

    #[test]
    fn sort_filter_reduces_ns_via_refinement() {
        let qs = vec![RangeQuery::all(3)
            .with_range(0, 0, 499)
            .with_range(2, 0, 399)];
        let s = space(&qs, usize::MAX);
        // Sort dim = 2 → refinement prunes to ~10% of dim 2.
        let with_sort = &s.query_stats(&[0, 2], &[4])[0];
        // Sort dim = 1 (unfiltered sort) → dim 2 filter is unindexed → all
        // points in matching columns scanned.
        let without = &s.query_stats(&[0, 1], &[4])[0];
        assert!(
            with_sort.ns < without.ns,
            "refinement should prune: {} vs {}",
            with_sort.ns,
            without.ns
        );
        assert!(with_sort.sort_filtered);
        assert!(!without.sort_filtered);
        // The unindexed dim-2 filter kills exactness in the second layout.
        assert_eq!(without.exact_points, 0.0);
    }

    #[test]
    fn cached_stats_equal_full_scan_bit_for_bit() {
        let qs = vec![
            RangeQuery::all(3)
                .with_range(0, 0, 99)
                .with_range(2, 0, 399),
            RangeQuery::all(3)
                .with_range(1, 0, 4_000)
                .with_range(2, 100, 3_000),
            RangeQuery::all(3).with_range(1, 500, 600),
        ];
        let s = space(&qs, 1_500);
        let mut cache = s.stats_cache();
        // A probe sequence that moves one dimension at a time, revisits
        // earlier column counts, and switches orders mid-stream.
        let probes: &[(&[usize], &[usize])] = &[
            (&[0, 1, 2], &[8, 8]),
            (&[0, 1, 2], &[16, 8]),  // dim 0 moved
            (&[0, 1, 2], &[16, 4]),  // dim 1 moved
            (&[0, 1, 2], &[8, 8]),   // revisit
            (&[1, 0, 2], &[4, 32]),  // swapped order
            (&[2, 0], &[64]),        // subset order, unindexed filter on 1
            (&[0, 1, 2], &[16, 16]), // back to the first order
        ];
        for &(order, cols) in probes {
            let full = s.query_stats(order, cols);
            let cached = s.query_stats_cached(order, cols, &mut cache);
            assert_eq!(full, cached, "order {order:?} cols {cols:?}");
        }
        assert!(cache.reuses() > 0, "probe sequence must hit the cache");
    }

    #[test]
    #[should_panic(expected = "different SampleSpace")]
    fn cache_rejects_foreign_sample_space() {
        let qs = vec![RangeQuery::all(3).with_range(0, 0, 99)];
        // Identical sample size and query count — sizes collide, so only
        // the stamped identity can tell these spaces apart.
        let a = space(&qs, 500);
        let b = space(&qs, 500);
        let mut cache = a.stats_cache();
        let _ = b.query_stats_cached(&[0, 2], &[8], &mut cache);
    }

    #[test]
    fn masks_carry_across_overlapping_query_sets() {
        let q1 = RangeQuery::all(3)
            .with_range(0, 0, 99)
            .with_range(2, 0, 399);
        let q2 = RangeQuery::all(3)
            .with_range(1, 500, 600)
            .with_range(0, 10, 50);
        let q3 = RangeQuery::all(3).with_range(0, 200, 300);
        let data = {
            let mut rng = StdRng::seed_from_u64(3);
            Arc::new(DataSample::build(
                &table(),
                1_000,
                &mut rng,
                &CorrelationConfig::default(),
            ))
        };
        // Window A = {q1, q2}; window B slides to {q2, q3}. One cache
        // serves both: B's probe re-counts only q3's contributions.
        let a = SampleSpace::over(data.clone(), &[q1, q2.clone()]);
        let b = SampleSpace::over(data, &[q2, q3]);
        let mut cache = a.stats_cache();
        let probe: (&[usize], &[usize]) = (&[0, 1, 2], &[8, 16]);
        assert_eq!(
            a.query_stats(probe.0, probe.1),
            a.query_stats_cached(probe.0, probe.1, &mut cache)
        );
        let recounts_after_a = cache.recounts();
        assert_eq!(
            b.query_stats(probe.0, probe.1),
            b.query_stats_cached(probe.0, probe.1, &mut cache),
            "a cache warmed by window A must still price window B exactly"
        );
        // q2's grid entries (dims 0 and 1) are reused; q3 filters dim 0
        // only, so exactly one fresh grid entry is counted.
        assert_eq!(
            cache.recounts() - recounts_after_a,
            1,
            "only the query that entered the window is re-counted"
        );
    }

    #[test]
    fn prune_drops_only_stale_entries() {
        let qs = vec![RangeQuery::all(3).with_range(0, 0, 99)];
        let s = space(&qs, 500);
        let mut cache = s.stats_cache();
        let _ = s.query_stats_cached(&[0, 2], &[8], &mut cache);
        cache.advance_epoch();
        let _ = s.query_stats_cached(&[0, 2], &[16], &mut cache); // (q,0,8) idle
        let before = cache.entry_count();
        cache.prune_stale(cache.epoch());
        assert_eq!(cache.entry_count(), before - 1, "only (q,0,8) was stale");
        // The pruned entry rebuilds on demand, exactly.
        assert_eq!(
            s.query_stats(&[0, 2], &[8]),
            s.query_stats_cached(&[0, 2], &[8], &mut cache)
        );
    }

    #[test]
    fn shared_data_sample_matches_from_scratch_build() {
        let qs = vec![
            RangeQuery::all(3)
                .with_range(0, 0, 99)
                .with_range(2, 0, 399),
            RangeQuery::all(3).with_range(1, 500, 600),
        ];
        // Build once from the table, then re-attach the same queries to the
        // shared data sample: statistics must be identical bit for bit.
        let direct = space(&qs, 1_500);
        let reattached = SampleSpace::over(direct.data().clone(), &qs);
        assert_eq!(direct.query_fp(), reattached.query_fp());
        for (order, cols) in [
            (vec![0usize, 1, 2], vec![8usize, 8]),
            (vec![1, 0], vec![16]),
        ] {
            assert_eq!(
                direct.query_stats(&order, &cols),
                reattached.query_stats(&order, &cols),
            );
        }
        assert_eq!(
            direct.dims_by_selectivity(),
            reattached.dims_by_selectivity()
        );
    }

    #[test]
    fn query_fingerprint_tracks_content_and_order() {
        let a = vec![
            RangeQuery::all(3).with_range(0, 0, 99),
            RangeQuery::all(3).with_range(1, 5, 10),
        ];
        let b = a.clone();
        assert_eq!(
            SampleSpace::query_fingerprint(&a),
            SampleSpace::query_fingerprint(&b)
        );
        let shifted = vec![
            RangeQuery::all(3).with_range(0, 0, 100),
            RangeQuery::all(3).with_range(1, 5, 10),
        ];
        assert_ne!(
            SampleSpace::query_fingerprint(&a),
            SampleSpace::query_fingerprint(&shifted)
        );
        let reordered: Vec<RangeQuery> = a.iter().rev().cloned().collect();
        assert_ne!(
            SampleSpace::query_fingerprint(&a),
            SampleSpace::query_fingerprint(&reordered)
        );
        // Filtered vs unfiltered dimension must not collide with a (0,0)
        // bound.
        let unfiltered = vec![RangeQuery::all(3)];
        let zero_bound = vec![RangeQuery::all(3).with_range(0, 0, 0)];
        assert_ne!(
            SampleSpace::query_fingerprint(&unfiltered),
            SampleSpace::query_fingerprint(&zero_bound)
        );
    }

    #[test]
    fn epochs_attribute_cross_check_reuse() {
        let qs = vec![RangeQuery::all(3)
            .with_range(0, 0, 99)
            .with_range(2, 0, 399)];
        let s = space(&qs, 1_000);
        let mut cache = s.stats_cache();
        // Epoch 0: a "degradation check" prices one layout.
        let _ = s.query_stats_cached(&[0, 2], &[8], &mut cache);
        assert_eq!(cache.cross_epoch_reuses(), 0);
        // Epoch 1: a "re-learn" probes the same and a fresh layout.
        cache.advance_epoch();
        let _ = s.query_stats_cached(&[0, 2], &[8], &mut cache); // both entries old
        let _ = s.query_stats_cached(&[0, 2], &[16], &mut cache); // sort old, grid fresh
        assert_eq!(cache.cross_epoch_reuses(), 3);
        // Same-epoch reuse of the epoch-1 grid entry does not count.
        let before = cache.cross_epoch_reuses();
        let _ = s.query_stats_cached(&[0, 2], &[16], &mut cache);
        assert_eq!(cache.cross_epoch_reuses(), before + 1, "sort entry is old");
    }

    /// The per-point loop the rank-range masks replaced, kept as their
    /// reference: `(pass, boundary, ncols)` of one filtered query-dimension
    /// at `c` columns, and the sort-dimension pass mask.
    fn reference_masks(s: &SampleSpace, qi: usize, dim: usize, c: usize) -> [Vec<u64>; 3] {
        let (n_points, n_dims) = (s.data.n_points, s.data.n_dims);
        let (lo, hi) = s.queries[qi].bounds[dim].expect("filtered");
        let lo_col = ((lo as f64 * c as f64) as u32).min(c as u32 - 1);
        let hi_col = ((hi as f64 * c as f64) as u32).min(c as u32 - 1);
        let mut masks = [(); 3].map(|_| vec![0u64; n_points.div_ceil(WORD_BITS)]);
        for p in 0..n_points {
            let v = s.data.flat[p * n_dims + dim];
            let bit = 1u64 << (p % WORD_BITS);
            let col = ((v as f64 * c as f64) as u32).min(c as u32 - 1);
            if col >= lo_col && col <= hi_col {
                masks[0][p / WORD_BITS] |= bit;
                if col == lo_col || col == hi_col {
                    masks[1][p / WORD_BITS] |= bit;
                }
            }
            if v >= lo && v <= hi {
                masks[2][p / WORD_BITS] |= bit;
            }
        }
        masks
    }

    /// Sample sizes around the prefix table's edges: one point, a word
    /// boundary (= one block at the minimum stride of 64) ± 1, two blocks
    /// and a bit (2·64 + 7), and — where the stride grows to 128 — a whole
    /// number of blocks (33·128) ± 1 and a last block of one point.
    const EDGE_SIZES: [usize; 9] = [1, 63, 64, 65, 135, 4_097, 4_223, 4_224, 4_225];

    /// Wide, 97-valued, 4-valued and constant columns: the last three are
    /// long runs of equal flat values that straddle column edges.
    fn runs_table(n: usize, seed: u64) -> Table {
        let mut rng = Lcg::new(seed, 33);
        Table::from_columns(vec![
            (0..n).map(|_| 1_000 + rng.next_u64() % (1 << 30)).collect(),
            (0..n).map(|_| 1_000 + rng.next_u64() % 97).collect(),
            (0..n).map(|_| 1_000 + 50 * (rng.next_u64() % 4)).collect(),
            vec![1_000; n],
        ])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases(24)))]

        /// What licenses building masks from rank ranges: on every sample
        /// size around a block edge, for column counts from 1 to more than
        /// there are points, and for bounds below, above, equal to and
        /// between the sample's values, `pass`, `boundary`, `ncols`, the
        /// two flags and the sort mask equal the per-point loop's.
        #[test]
        fn rank_range_masks_equal_per_point_reference(
            size in 0usize..EDGE_SIZES.len(),
            table_seed in proptest::prelude::any::<u64>(),
            q_seed in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prelude::*;
            let n = EDGE_SIZES[size];
            let table = runs_table(n, table_seed);
            let mut draws = Lcg::new(q_seed, 33);
            // Per dimension and end: below every value, above every value,
            // some row's own value, or anywhere in the wide domain.
            let mut bound = |dim: usize| match draws.next_u64() % 4 {
                0 => draws.next_u64() % 1_000,
                1 => (1 << 31) + draws.next_u64() % 1_000,
                2 => table.value(draws.next_u64() as usize % n, dim),
                _ => 1_000 + draws.next_u64() % (1 << 30),
            };
            let queries: Vec<RangeQuery> = (0..6)
                .map(|_| {
                    (0..4).fold(RangeQuery::all(4), |q, dim| {
                        let (a, b) = (bound(dim), bound(dim));
                        q.with_range(dim, a.min(b), a.max(b))
                    })
                })
                .collect();
            let ccfg = CorrelationConfig { enabled: false, ..Default::default() };
            let mut rng = StdRng::seed_from_u64(table_seed);
            let s = SampleSpace::build(&table, &queries, usize::MAX, &mut rng, &ccfg);
            prop_assert_eq!(s.data.n_points, n);
            prop_assert_eq!(s.data.stride, if n <= 4_096 { 64 } else { 128 });
            let ones = all_points(n);
            for qi in 0..queries.len() {
                for dim in 0..4 {
                    for c in [1, 2, 3, 64, 1_024, n + 37] {
                        let [pass, boundary, sort] = reference_masks(&s, qi, dim, c);
                        let got = s.build_query_grid_masks(qi, dim, c);
                        let at = format!("n {n} query {qi} dim {dim} c {c}");
                        prop_assert_eq!(got.pass.is_none(), pass == ones, "full, {}", &at);
                        prop_assert_eq!(got.pass.as_ref().unwrap_or(&ones), &pass, "pass, {}", &at);
                        prop_assert_eq!(
                            got.boundary.is_none(),
                            boundary == pass,
                            "no_interior, {}", &at
                        );
                        prop_assert_eq!(
                            got.boundary.as_ref().unwrap_or(&pass),
                            &boundary,
                            "boundary, {}", &at
                        );
                        let (lo, hi) = s.queries[qi].bounds[dim].expect("filtered");
                        let col = |v: f32| ((v as f64 * c as f64) as u32).min(c as u32 - 1);
                        prop_assert_eq!(got.ncols, (col(hi) - col(lo) + 1) as f64, "ncols, {}", &at);
                        let got = s.build_query_sort_mask(qi, dim);
                        prop_assert_eq!(got.as_ref().unwrap_or(&ones), &sort, "sort, {}", &at);
                        prop_assert_eq!(got.is_none(), sort == ones, "sort full, {}", &at);
                    }
                }
            }
        }
    }

    /// The prefix table has a fixed number of rows, so a sample as large as
    /// its table costs a bounded number of bytes per point and dimension:
    /// 4 (row-major flat) + 4 (sorted) + 4 (rank ids) + 65 bitmap rows of
    /// one bit each (< 8.2). A table with one row per `stride` ranks at a
    /// fixed stride would be O(n²) — 600 MB here at stride 64.
    #[test]
    fn data_sample_memory_is_linear_in_the_sample() {
        let (n, d) = (200_000u64, 2usize);
        let t = Table::from_columns(vec![
            (0..n).map(|i| (i * 7919) % 100_003).collect(),
            (0..n).map(|i| i % 1_000).collect(),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let ccfg = CorrelationConfig {
            enabled: false,
            ..Default::default()
        };
        let data = DataSample::build(&t, usize::MAX, &mut rng, &ccfg);
        assert_eq!(data.len(), n as usize);
        assert!(data.prefix_rows() <= PREFIX_BLOCKS + 1);
        let bytes =
            4 * (data.flat.len() + data.sorted.len() + data.rank_ids.len()) + 8 * data.prefix.len();
        let per_point_dim = bytes as f64 / (n as usize * d) as f64;
        assert!(
            per_point_dim <= 20.5,
            "{per_point_dim} bytes per point and dimension"
        );
    }

    #[test]
    fn scale_extrapolates_sample_counts() {
        let qs = vec![RangeQuery::all(3).with_range(0, 0, 999)];
        let full = space(&qs, usize::MAX);
        let sampled = space(&qs, 500);
        let a = &full.query_stats(&[0, 2], &[1])[0];
        let b = &sampled.query_stats(&[0, 2], &[1])[0];
        // Everything matches in both; scaled counts should agree.
        assert_eq!(a.ns, 4_000.0);
        assert!((b.ns - 4_000.0).abs() < 1e-6, "scaled ns {}", b.ns);
    }
}
