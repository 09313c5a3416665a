//! The Flood index: build (layout → storage order → per-cell models) and
//! query execution (projection → refinement → scan), §3 and §5.
//!
//! Execution is organized in the paper's three explicit phases: the first
//! two are this file's [`PlannedIndex::plan`], the third is `flood-store`'s
//! scan driver running that plan (`execute` and the partitioned scans are
//! derived from the two). [`FloodIndex::execute_profiled`] times each phase
//! — what calibrating the cost model (§4.1.1) and Table 2's IT/ST breakdown
//! need — over the same plan and the same run.

use crate::config::{FloodConfig, Refinement};
use crate::correlation::{CorrSupport, HostSlot};
use crate::flatten::Flattener;
use crate::grid::Grid;
use crate::layout::{FdPair, Layout};
use crate::order::{cell_runs, storage_order};
use flood_learned::plm::{PiecewiseLinearModel, DEFAULT_DELTA};
use flood_store::{
    rank_rows, Check, CumulativeColumn, MultiDimIndex, PlannedIndex, PlannedRange, RangePlan,
    RangeQuery, RangeScan, ScanStats, Table, ThreadPool, Visitor, BLOCK_LEN,
};
use std::sync::Arc;
use std::time::Instant;

/// Per-phase wall-clock timings of one query (nanoseconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Time locating intersecting cells and their physical ranges.
    pub projection_ns: u64,
    /// Time narrowing ranges over the sort dimension.
    pub refinement_ns: u64,
    /// Time scanning and filtering points.
    pub scan_ns: u64,
}

impl PhaseTimes {
    /// Total indexing time (projection + refinement) — Table 2's IT.
    pub fn index_ns(&self) -> u64 {
        self.projection_ns + self.refinement_ns
    }

    /// Total query time.
    pub fn total_ns(&self) -> u64 {
        self.projection_ns + self.refinement_ns + self.scan_ns
    }
}

/// Build-phase timings (Table 4's loading time): the wall-clock of each
/// stage, in nanoseconds, however many workers ran it.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTimes {
    /// Fitting flattening CDFs: 0 for a build handed its CDFs.
    pub flatten_ns: u64,
    /// Putting the data into storage order: cell ids, the scatter and
    /// cell sort, the gather and the compression.
    pub sort_ns: u64,
    /// The part of `sort_ns` spent computing column boundaries, every
    /// row's cell id and the cell table.
    pub assign_ns: u64,
    /// The part of `sort_ns` spent gathering the columns into storage
    /// order (and compressing them).
    pub permute_ns: u64,
    /// Building per-cell refinement models.
    pub models_ns: u64,
    /// Building cumulative SUM columns and soft-FD support.
    pub support_ns: u64,
}

/// Most grid dimensions a layout may have: one bit each in a planned
/// range's check mask ([`PlannedRange::checks`]).
pub(crate) const MAX_GRID_DIMS: usize = u32::BITS as usize;

/// Largest cell refined by *ranking* — one branch-free count of the sort
/// values below each bound ([`rank_rows`]) — instead of searching with a
/// PLM or by bisection; no PLM is built for such a cell. A cell this size
/// spans at most two blocks. Measured on `olap_resident` (cells of ~53
/// rows): ≈ 2.5 cycles per row ranked against ≈ 380 cycles per searched
/// refinement, whose every level is a mispredicted branch and a cold
/// `Table::value` — break-even at 130–150 rows.
const RANK_MAX_CELL: usize = BLOCK_LEN;

/// A learned multi-dimensional clustered in-memory index (§3).
#[derive(Debug)]
pub struct FloodIndex {
    cfg: FloodConfig,
    layout: Layout,
    grid: Grid,
    /// The CDFs the grid's columns are cut with; shared with the sample
    /// they were fitted on and with every rebuild.
    flattener: Arc<Flattener>,
    /// The data, re-ordered into Flood's storage order.
    data: Table,
    /// `cell_starts[c]..cell_starts[c+1]` is cell `c`'s physical range.
    cell_starts: Vec<u32>,
    /// Per-cell PLM over the sort dimension (None for small/empty cells).
    cell_models: Vec<Option<PiecewiseLinearModel>>,
    /// Pre-built cumulative SUM columns, keyed by dimension.
    cumulatives: Vec<(usize, CumulativeColumn)>,
    /// Soft-FD support (Tsunami/COAX extension): exact full-table
    /// envelopes + outlier rows per FD the layout carries. Empty when it
    /// carries none.
    correlation: CorrSupport,
    build_times: BuildTimes,
}

impl FloodIndex {
    /// Build the index over `table` with the given layout and configuration,
    /// fitting `cfg.flattening` CDFs over all of `table`'s rows for the grid
    /// dimensions the layout splits into more than one column.
    ///
    /// # Panics
    /// Panics if the table exceeds `u32::MAX` rows, the layout has more
    /// than 32 grid dimensions or `u32::MAX` cells or more, or a layout
    /// dimension is out of bounds.
    pub fn build(table: &Table, layout: Layout, cfg: FloodConfig) -> Self {
        Self::fit_and_build(table, layout, cfg, ThreadPool::serial())
    }

    /// [`FloodIndex::build`] on `pool`.
    fn fit_and_build(table: &Table, layout: Layout, cfg: FloodConfig, pool: ThreadPool) -> Self {
        let t0 = Instant::now();
        let flattener = Flattener::fit(table, None, &split_dims(&layout), cfg.flattening);
        let flatten_ns = t0.elapsed().as_nanos() as u64;
        let mut index = Self::build_with(table, layout, cfg, Arc::new(flattener), pool);
        index.build_times.flatten_ns = flatten_ns;
        index
    }

    /// [`FloodIndex::build`] cutting the grid with CDFs fitted on the same
    /// table — a server passes its data sample's
    /// ([`DataSample::flattener`](crate::optimizer::DataSample::flattener)), so
    /// the grid is the one the search priced — and running on `pool`. Fits
    /// nothing; ignores `cfg.flattening`. The index is the same at any
    /// worker count. Also panics if a split dimension has no CDF.
    pub fn build_with(
        table: &Table,
        layout: Layout,
        cfg: FloodConfig,
        flattener: Arc<Flattener>,
        pool: ThreadPool,
    ) -> Self {
        assert!(
            table.len() < u32::MAX as usize,
            "table too large for u32 row ids"
        );
        let cell_count = (layout.cols().iter()).fold(1u128, |n, &c| n.saturating_mul(c as u128));
        assert!(
            cell_count < u32::MAX as u128,
            "layout has {cell_count} cells; fewer than {} fit a u32 cell id",
            u32::MAX
        );
        assert!(
            layout.grid_dims().len() <= MAX_GRID_DIMS,
            "layout has {} grid dimensions; at most {MAX_GRID_DIMS} fit the boundary mask",
            layout.grid_dims().len()
        );
        for &d in layout.order() {
            assert!(d < table.dims(), "layout dimension {d} out of bounds");
        }
        for f in layout.fds() {
            assert!(f.dep < table.dims(), "FD dependent {} out of bounds", f.dep);
        }
        let mut build_times = BuildTimes::default();

        // 1. The grid dimensions with more than one column, cut with the
        //    flattening CDFs (§5.1) — a one-column dimension's bucket is 0
        //    whatever the model says.
        let grid = Grid::new(&layout);
        let split: Vec<(usize, usize, usize)> = (layout.grid_dims().iter().zip(layout.cols()))
            .enumerate()
            .filter(|&(_, (_, &c))| c > 1)
            .map(|(i, (&d, &c))| (d, c, grid.stride(i)))
            .collect();

        // 2. Storage order: by cell, then by sort value — the depth-first
        //    traversal of §3.1 — ties in row order, computed on the pool
        //    (cell ids, a stable scatter by cell, a per-cell sort; see
        //    `crate::order`), then one gather-and-compress task per column.
        //    The sort column comes out of the sort already in order.
        let t0 = Instant::now();
        let num_cells = grid.num_cells();
        let sort_dim = layout.sort_dim();
        let order = storage_order(table, &flattener, &split, num_cells, sort_dim, pool);
        build_times.assign_ns = order.assign_ns;
        let cell_starts = order.cell_starts;
        let t1 = Instant::now();
        let sorted = Some((sort_dim, order.sorted_keys));
        let spare = Some(order.spare);
        let data = table.permuted_on(&order.perm, cfg.compress, pool, sorted, spare);
        build_times.permute_ns = t1.elapsed().as_nanos() as u64;
        build_times.sort_ns = t0.elapsed().as_nanos() as u64;

        // 3. Per-cell refinement models over the sort dimension (§5.2), one
        //    task per run of cells.
        let t0 = Instant::now();
        let cell_models: Vec<Option<PiecewiseLinearModel>> =
            if cfg.refinement == Refinement::Plm && layout.has_sort_dim() {
                let runs = cell_runs(&cell_starts, 4 * pool.threads());
                let keys = data.column(sort_dim);
                let per_run = pool.map(runs, |cells| {
                    let mut buf: Vec<u64> = Vec::new();
                    (cells.map(|c| {
                        let (s, e) = (cell_starts[c] as usize, cell_starts[c + 1] as usize);
                        (e - s > RANK_MAX_CELL).then(|| {
                            buf.clear();
                            keys.for_each_slice(s..e, |v| buf.extend_from_slice(v));
                            PiecewiseLinearModel::build(&buf, DEFAULT_DELTA)
                        })
                    }))
                    .collect::<Vec<_>>()
                });
                per_run.into_iter().flatten().collect()
            } else {
                vec![None; num_cells]
            };
        build_times.models_ns = t0.elapsed().as_nanos() as u64;

        // 4. Cumulative SUM columns, then soft-FD support (extension): exact
        //    per-host envelopes + outlier rows over the full reordered data
        //    for the FDs the layout carries, so query-time tightening is
        //    lossless. One task per column, then one per FD.
        let t0 = Instant::now();
        let cumulatives = pool.map(cfg.cumulative_dims.clone(), |d| (d, data.cumulative_sum(d)));
        let correlation = CorrSupport::build(&layout, &grid, &data, &cell_starts, pool);
        build_times.support_ns = t0.elapsed().as_nanos() as u64;

        FloodIndex {
            cfg,
            layout,
            grid,
            flattener,
            data,
            cell_starts,
            cell_models,
            cumulatives,
            correlation,
            build_times,
        }
    }

    /// Re-lay this index's own data out under `layout` on `pool`, same
    /// configuration, sharing its CDFs: Flood is clustered, so the rows are
    /// the multiset they were fitted on. A layout splitting a dimension they
    /// lack (a [`FloodIndex::build`] fits only what its layout splits) is
    /// built from scratch instead.
    pub fn rebuild(&self, layout: Layout, pool: ThreadPool) -> Self {
        let (data, cfg) = (&self.data, self.cfg.clone());
        let fitted = |d: &usize| self.flattener.dim(*d).is_some();
        if split_dims(&layout).iter().all(fitted) {
            Self::build_with(data, layout, cfg, Arc::clone(&self.flattener), pool)
        } else {
            Self::fit_and_build(data, layout, cfg, pool)
        }
    }

    /// The first part in which `other` differs from this index — `None`
    /// when the two are the same index, byte for byte: layout,
    /// configuration, CDFs, stored columns, cell table, models, cumulative
    /// columns, soft-FD support and size. Build timings are not compared.
    pub fn differs_from(&self, other: &FloodIndex) -> Option<&'static str> {
        let same =
            |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| format!("{a:?}") == format!("{b:?}");
        [
            ("layout", same(&self.layout, &other.layout)),
            ("config", same(&self.cfg, &other.cfg)),
            ("grid", same(&self.grid, &other.grid)),
            ("flattener", same(&self.flattener, &other.flattener)),
            ("data", same(&self.data, &other.data)),
            ("cell_starts", self.cell_starts == other.cell_starts),
            ("cell_models", same(&self.cell_models, &other.cell_models)),
            ("cumulatives", same(&self.cumulatives, &other.cumulatives)),
            ("correlation", same(&self.correlation, &other.correlation)),
            (
                "size_bytes",
                self.index_size_bytes() == other.index_size_bytes(),
            ),
        ]
        .into_iter()
        .find_map(|(part, equal)| (!equal).then_some(part))
    }

    /// The CDFs this index's grid is cut with.
    pub fn flattener(&self) -> &Arc<Flattener> {
        &self.flattener
    }

    /// The soft FDs this index actively exploits: the layout's, less those
    /// whose exact outlier set holds more than ⅛ of the rows.
    pub fn active_fds(&self) -> Vec<FdPair> {
        self.correlation.fds.iter().map(|s| s.fd).collect()
    }

    /// The layout this index was built with.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &FloodConfig {
        &self.cfg
    }

    /// The reordered data (Flood is a clustered index: this *is* the table).
    pub fn data(&self) -> &Table {
        &self.data
    }

    /// Build-phase timings (Table 4's loading time).
    pub fn build_times(&self) -> BuildTimes {
        self.build_times
    }

    /// Number of non-empty cells.
    pub fn non_empty_cells(&self) -> usize {
        self.cell_starts.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// Physical range `[start, end)` of cell `c` in the reordered data.
    #[inline]
    pub fn cell_range(&self, c: usize) -> (usize, usize) {
        (
            self.cell_starts[c] as usize,
            self.cell_starts[c + 1] as usize,
        )
    }

    /// Sizes of all non-empty cells (cost-model features, §4.1.1).
    pub fn cell_sizes(&self) -> Vec<usize> {
        self.cell_starts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// [`MultiDimIndex::execute`]
    /// with per-phase wall-clock: same plan, same run, same [`ScanStats`],
    /// plus three clock reads.
    pub fn execute_profiled(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> (ScanStats, PhaseTimes) {
        let mut times = PhaseTimes::default();
        // Phases 1–2: projection (§3.2.1) + refinement (§3.2.2, §5.2).
        let plan = self.plan_timed(query, Some(&mut times));
        // Phase 3: scan (§3.2(3)).
        let t0 = Instant::now();
        let stats = RangeScan::of(self, plan, agg_dim).run(visitor);
        times.scan_ns = t0.elapsed().as_nanos() as u64;
        (stats, times)
    }

    /// Projection + refinement: one range per surviving cell, tagged with
    /// the cell id, checking the grid dimensions whose boundary column the
    /// cell sits on (the mask; sort-dimension values are exact after
    /// refinement and never checked) plus every unindexed filter (the
    /// tail). The two phases are timed only into a `times` the caller hands
    /// in; without one the clock is never read.
    ///
    /// With soft-FD support present (see [`crate::correlation`]), a filter
    /// on a collapsed dependent dimension additionally (1) tightens the
    /// host's projection range to the columns whose exact envelope
    /// intersects the filter, (2) when the host is the sort dimension,
    /// intersects the translated host bound into every cell's refinement,
    /// and (3) re-adds each *outlier row* whose dependent value matches
    /// the filter as an individual single-row range with a full boundary
    /// mask (every filtered grid dimension checked per point, the sort
    /// bound checked here), unless the main plan already covers it. The
    /// dependent's own bound is still enforced per point by the scan
    /// kernels, so results are identical to the untightened plan — only
    /// the visit counts differ, and residual work is bounded by the
    /// outlier count rather than by cell sizes.
    fn plan_timed(&self, query: &RangeQuery, times: Option<&mut PhaseTimes>) -> RangePlan {
        let mut stats = ScanStats::default();
        let mut timer = times.map(|t| (t, Instant::now()));
        let grid_dims = self.layout.grid_dims();
        let cols = self.layout.cols();
        // Base projection: the query's own bounds, per grid dimension.
        let mut base: Vec<(usize, usize)> = Vec::with_capacity(grid_dims.len());
        for (&d, &c) in grid_dims.iter().zip(cols) {
            match query.bound(d) {
                Some((lo, hi)) => base.push((
                    self.flattener.bucket(d, lo, c),
                    self.flattener.bucket(d, hi, c),
                )),
                None => base.push((0, c - 1)),
            }
        }

        // Soft-FD tightening: each applicable dependency (dependent
        // filtered, host indexed) narrows where non-outlier matches can
        // live: a grid host's projection range, or the sort bound every
        // cell is refined to — the query's own, intersected with each
        // sort-hosted translation. `empty_main` ⇒ no non-outlier row
        // matches at all and only outlier rows need visiting.
        let mut ranges = base.clone();
        let mut empty_main = false;
        let sort_dim = self.layout.sort_dim();
        let qsort = if self.layout.has_sort_dim() {
            query.bound(sort_dim)
        } else {
            None
        };
        let mut refine = qsort;
        let mut applicable: Vec<usize> = Vec::new();
        for (fi, f) in self.correlation.fds.iter().enumerate() {
            let Some((lo, hi)) = query.bound(f.fd.dep) else {
                continue;
            };
            applicable.push(fi);
            // Meeting no bucket translates to the empty range (1, 0).
            let buckets = f.translate(lo, hi);
            match f.slot {
                HostSlot::Grid(i) => {
                    let (a, b) = buckets.unwrap_or((1, 0));
                    ranges[i] = (ranges[i].0.max(a), ranges[i].1.min(b));
                    empty_main |= ranges[i].0 > ranges[i].1;
                }
                HostSlot::Sort => {
                    let (a, b) = buckets.map_or((1, 0), |t| self.correlation.sort.values(t));
                    refine = Some(refine.map_or((a, b), |(lo, hi)| (lo.max(a), hi.min(b))));
                }
            }
        }

        stats.cells_projected = if empty_main {
            0
        } else {
            Grid::cells_in_ranges(&ranges) as u64
        };
        // Filters on dimensions outside the index: checked on every range.
        let mut tail: Vec<Check> = query.checks();
        tail.retain(|(d, ..)| !self.layout.order().contains(d));
        // A range with nothing left to check is exact.
        let has_tail = !tail.is_empty();
        let subset = |mask: u32| (mask != 0 || has_tail).then_some(mask);
        let mut cells: Vec<PlannedRange> = Vec::new();
        if !empty_main {
            self.grid.for_each_cell(&ranges, |cell, coords| {
                let (s, e) = self.cell_range(cell);
                if s == e {
                    return;
                }
                let mut mask = 0u32;
                for (i, &c) in coords.iter().enumerate() {
                    let d = grid_dims[i];
                    if !query.filters(d) {
                        continue;
                    }
                    // Boundary columns are defined by the query's own
                    // bounds (`base`): FD tightening narrows *which* cells
                    // are visited, not which columns are partially covered.
                    let (lo_col, hi_col) = base[i];
                    if c == lo_col || c == hi_col {
                        mask |= 1 << i;
                    }
                }
                cells.push(PlannedRange {
                    start: s,
                    end: e,
                    checks: subset(mask),
                    tag: cell as u32,
                });
            });
        }

        if let Some((times, t0)) = &mut timer {
            times.projection_ns = t0.elapsed().as_nanos() as u64;
            *t0 = Instant::now();
        }

        // Refinement over the sort dimension (skipped by histogram layouts,
        // whose last dimension is gridded, not sorted) to `refine`: rows a
        // sort-hosted translation excludes are, by the envelope invariant,
        // outliers of that FD and re-added individually below.
        if let Some((a, b)) = refine {
            for cr in &mut cells {
                if a > b {
                    cr.start = cr.end;
                    continue;
                }
                let s = cr.start;
                let len = cr.end - s;
                let (i1, i2) = if len <= RANK_MAX_CELL {
                    rank_rows(&self.data, sort_dim, a, b, s, cr.end)
                } else {
                    let get = |i: usize| self.data.value(s + i, sort_dim);
                    match &self.cell_models[cr.tag as usize] {
                        Some(plm) => (plm.lookup_lb(a, get), plm.lookup_ub(b, get)),
                        None => (
                            partition_point(len, |i| get(i) < a),
                            partition_point(len, |i| get(i) <= b),
                        ),
                    }
                };
                stats.refinements += 1;
                cr.start = s + i1;
                cr.end = s + i2;
            }
        }
        // Residual pass: rows outside their FD envelope may match even
        // though tightening or refinement excluded them. Re-add each
        // outlier row whose dependent value matches its FD's filter as a
        // single-row range — the full boundary mask and the unindexed
        // check list enforce the rest of the query per point, and the sort
        // bound is checked right here since single-row ranges bypass
        // refinement. Rows the main plan already scans are skipped, so no
        // row is ever visited twice.
        if !applicable.is_empty() {
            let mut full_mask = 0u32;
            for (i, &d) in grid_dims.iter().enumerate() {
                if query.filters(d) {
                    full_mask |= 1 << i;
                }
            }
            let mut rows: Vec<(u32, u32)> = Vec::new();
            for &fi in &applicable {
                let f = &self.correlation.fds[fi];
                let (lo, hi) = query.bound(f.fd.dep).expect("applicable ⇒ filtered");
                rows.extend(f.outliers_in(lo, hi).iter().map(|&(_, r, c)| (r, c)));
            }
            // One FD's outliers are already distinct rows; only a
            // multi-FD union can repeat one.
            if applicable.len() > 1 {
                rows.sort_unstable();
                rows.dedup();
            }
            let mut extra: Vec<PlannedRange> = Vec::new();
            for (r, cell) in rows {
                // Must satisfy the query's own projection (the cell id was
                // precomputed at build time alongside the outlier row).
                let r = r as usize;
                if !self.grid.cell_in_ranges(cell as usize, &base) {
                    continue;
                }
                if let Some((a, b)) = qsort {
                    let v = self.data.value(r, sort_dim);
                    if v < a || v > b {
                        continue;
                    }
                }
                // Main entries are in ascending cell order (`for_each_cell`
                // iterates cell ids in order), so the row's cell — and
                // whether its refined range already covers the row — is a
                // binary search away.
                if let Ok(i) = cells.binary_search_by_key(&cell, |cr| cr.tag) {
                    if cells[i].start <= r && r < cells[i].end {
                        continue;
                    }
                }
                extra.push(PlannedRange {
                    start: r,
                    end: r + 1,
                    checks: subset(full_mask),
                    tag: cell,
                });
            }
            cells.extend(extra);
        }
        stats.cells_visited = cells.len() as u64;
        // What a mask bit selects: grid position i's own bound (never
        // selected where that dimension is unfiltered).
        let masked = grid_dims
            .iter()
            .map(|&d| (d, query.lo(d), query.hi(d)))
            .collect();
        if let Some((times, t0)) = timer {
            times.refinement_ns = t0.elapsed().as_nanos() as u64;
        }
        RangePlan {
            ranges: cells,
            masked,
            tail,
            stats,
        }
    }
}

impl PlannedIndex for FloodIndex {
    const NAME: &'static str = "Flood";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    fn plan(&self, query: &RangeQuery) -> RangePlan {
        self.plan_timed(query, None)
    }

    fn cumulative(&self, agg_dim: usize) -> Option<&CumulativeColumn> {
        let built = self.cumulatives.iter().find(|(dim, _)| *dim == agg_dim);
        built.map(|(_, c)| c)
    }

    fn structure_bytes(&self) -> usize {
        let models: usize = self
            .cell_models
            .iter()
            .flatten()
            .map(PiecewiseLinearModel::size_bytes)
            .sum();
        self.cell_starts.len() * 4
            + models
            + self.flattener.size_bytes(&split_dims(&self.layout))
            + std::mem::size_of::<Layout>()
    }
}

/// The grid dimensions `layout` splits into more than one column: the only
/// ones whose CDF a grid reads.
fn split_dims(layout: &Layout) -> Vec<usize> {
    (layout.grid_dims().iter().zip(layout.cols()))
        .filter(|&(_, &c)| c > 1)
        .map(|(&d, _)| d)
        .collect()
}

/// First index in `[0, len)` where `pred` turns false (binary search).
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FloodBuilder;
    use crate::flatten::Flattening;
    use flood_store::{
        assert_partitioned_matches_serial, CollectVisitor, CountVisitor, MultiDimIndex, SumVisitor,
    };
    use flood_testkit::{count, oracle, Lcg};

    /// Deterministic pseudo-random test table.
    fn table(n: usize, dims: usize, seed: u64) -> Table {
        let mut cols = vec![Vec::with_capacity(n); dims];
        let mut rng = Lcg::new(seed, 0);
        for _ in 0..n {
            for (d, col) in cols.iter_mut().enumerate() {
                let state = rng.next_u64();
                let v = match d % 3 {
                    0 => (state >> 40) % 1_000,          // uniform small domain
                    1 => ((state >> 33) % 1_000).pow(2), // skewed
                    _ => state >> 20,                    // wide domain
                };
                col.push(v);
            }
        }
        Table::from_columns(cols)
    }

    fn queries(dims: usize) -> Vec<RangeQuery> {
        let mut qs = vec![
            RangeQuery::all(dims), // match everything
            RangeQuery::all(dims).with_range(0, 100, 300),
            RangeQuery::all(dims).with_range(0, 0, 0), // equality, maybe empty
            RangeQuery::all(dims)
                .with_range(0, 200, 800)
                .with_range(1, 0, 250_000),
        ];
        if dims >= 3 {
            qs.push(
                RangeQuery::all(dims)
                    .with_range(1, 10_000, 640_000)
                    .with_range(2, 1 << 60, u64::MAX),
            );
            qs.push(
                RangeQuery::all(dims)
                    .with_range(0, 500, 999)
                    .with_range(1, 0, 1 << 19)
                    .with_range(2, 0, 1 << 43),
            );
        }
        qs
    }

    #[test]
    fn matches_full_scan_on_all_queries() {
        let t = table(20_000, 3, 42);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = CountVisitor::default();
            let stats = index.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
            assert_eq!(stats.points_matched, v.count, "query {i} stats");
        }
    }

    #[test]
    fn matches_full_scan_uniform_flattening() {
        let t = table(20_000, 3, 7);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![5, 9]))
            .flattening(Flattening::Uniform)
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = CountVisitor::default();
            index.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn matches_full_scan_binary_search_refinement() {
        let t = table(20_000, 3, 11);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 4]))
            .refinement(Refinement::BinarySearch)
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = CountVisitor::default();
            index.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn sum_aggregation_matches() {
        let t = table(15_000, 3, 13);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = SumVisitor::default();
            index.execute(q, Some(1), &mut v);
            assert_eq!(v.sum, oracle(&t, q, Some(1), None).sum.sum, "query {i}");
        }
    }

    #[test]
    fn cumulative_column_fast_path_matches() {
        let t = table(15_000, 3, 17);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .cumulative_sum(1)
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = SumVisitor::default();
            index.execute(q, Some(1), &mut v);
            assert_eq!(v.sum, oracle(&t, q, Some(1), None).sum.sum, "query {i}");
        }
    }

    #[test]
    fn compressed_storage_matches() {
        let t = table(10_000, 3, 19);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .compress(true)
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = CountVisitor::default();
            index.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
        }
    }

    #[test]
    fn unindexed_dimension_filters_still_apply() {
        let t = table(10_000, 4, 23);
        // Index only dims 0,1,2; dim 3 filters must be checked in the scan.
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![6, 6]))
            .build(&t);
        let q = RangeQuery::all(4)
            .with_range(0, 100, 900)
            .with_range(3, 0, 1 << 42);
        let mut v = CountVisitor::default();
        index.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
    }

    #[test]
    fn histogram_layout_matches_full_scan() {
        let t = table(20_000, 3, 53);
        let index = FloodBuilder::new()
            .layout(Layout::histogram(vec![0, 1, 2], vec![4, 4, 4]))
            .build(&t);
        for (i, q) in queries(3).iter().enumerate() {
            let mut v = CountVisitor::default();
            let stats = index.execute(q, None, &mut v);
            assert_eq!(v.count, count(&t, q), "query {i}");
            assert_eq!(stats.refinements, 0, "histogram layouts never refine");
        }
    }

    #[test]
    fn sort_only_layout_behaves_like_clustered_index() {
        let t = table(10_000, 2, 29);
        let index = FloodBuilder::new().layout(Layout::sort_only(1)).build(&t);
        let q = RangeQuery::all(2).with_range(1, 0, 1 << 50);
        let mut v = CountVisitor::default();
        let stats = index.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert_eq!(stats.cells_visited, 1);
        // Refined exactly: zero scan overhead.
        assert_eq!(stats.scan_overhead(), Some(1.0));
    }

    #[test]
    fn interior_cells_scan_exactly() {
        // A query covering everything in the grid dims and refining the sort
        // dim: every cell interior ⇒ scan overhead 1.0.
        let t = table(20_000, 3, 31);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&t);
        let q = RangeQuery::all(3).with_range(2, 0, 1 << 42);
        let mut v = CountVisitor::default();
        let stats = index.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert_eq!(stats.points_scanned, 0, "all ranges should be exact");
        assert_eq!(stats.points_in_exact_ranges, v.count);
    }

    #[test]
    fn collect_visitor_rows_are_valid() {
        let t = table(5_000, 3, 37);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&t);
        let q = RangeQuery::all(3).with_range(0, 100, 500);
        let mut v = CollectVisitor::default();
        index.execute(&q, None, &mut v);
        // Row ids refer to the index's own storage order.
        for &row in &v.rows {
            assert!(q.matches(&index.data().row(row)));
        }
        assert_eq!(v.rows.len() as u64, count(&t, &q));
    }

    #[test]
    fn stats_are_populated() {
        let t = table(20_000, 3, 41);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        let q = RangeQuery::all(3)
            .with_range(0, 100, 700)
            .with_range(2, 0, 1 << 40);
        let mut v = CountVisitor::default();
        let (stats, times) = index.execute_profiled(&q, None, &mut v);
        assert!(stats.cells_visited > 0);
        assert!(
            stats.refinements > 0,
            "sort-dim filter must trigger refinement"
        );
        assert!(times.total_ns() > 0);
        assert!(stats.scan_overhead().unwrap_or(1.0) >= 1.0);
    }

    /// `execute` and `execute_profiled` are one plan and one scan: equal
    /// stats, and the visitor is shown the same rows in the same order.
    #[test]
    fn profiled_execution_matches_plain() {
        let t = table(20_000, 3, 67);
        for layout in [
            Layout::new(vec![0, 1, 2], vec![8, 8]),
            Layout::histogram(vec![0, 1, 2], vec![4, 4, 4]),
            Layout::sort_only(1),
        ] {
            let index = FloodBuilder::new().layout(layout.clone()).build(&t);
            for (i, q) in queries(3).iter().enumerate() {
                let mut plain = CollectVisitor::default();
                let mut profiled = CollectVisitor::default();
                let stats = index.execute(q, None, &mut plain);
                let (profiled_stats, times) = index.execute_profiled(q, None, &mut profiled);
                assert_eq!(stats, profiled_stats, "{layout}, query {i}");
                assert_eq!(plain.rows, profiled.rows, "{layout}, query {i}");
                assert!(times.total_ns() > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 fit the boundary mask")]
    fn build_rejects_a_33rd_grid_dimension() {
        let t = Table::from_columns(vec![vec![1, 2, 3]; 34]);
        let layout = Layout::new((0..34).collect(), vec![1; 33]);
        let _ = FloodIndex::build(&t, layout, FloodConfig::default());
    }

    #[test]
    #[should_panic(expected = "fewer than 4294967295 fit a u32 cell id")]
    fn build_rejects_a_cell_count_past_u32() {
        let t = Table::from_columns(vec![vec![1, 2, 3]; 3]);
        let layout = Layout::new(vec![0, 1, 2], vec![1 << 16, 1 << 16]);
        let _ = FloodIndex::build(&t, layout, FloodConfig::default());
    }

    #[test]
    #[should_panic(expected = "FD dependent 3 out of bounds")]
    fn build_rejects_an_fd_dependent_out_of_bounds() {
        let t = Table::from_columns(vec![vec![1, 2, 3]; 3]);
        let layout = Layout::new(vec![0, 1], vec![2]).with_fds(vec![FdPair { host: 0, dep: 3 }]);
        let _ = FloodIndex::build(&t, layout, FloodConfig::default());
    }

    /// An FD is exploited unless its exact outlier set passes ⅛ of the
    /// rows. `dep` cycles through four values along `host`: a 4-row host
    /// column's trimmed envelope leaves half its rows outside, a 1 000-row
    /// column's keeps them all.
    #[test]
    fn active_fds_are_the_layouts_less_the_outlier_cut() {
        let n = 2_000u64;
        let t = Table::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|i| i % 4 * 1_000).collect(),
            (0..n).map(|i| i * 7 % 1_000).collect(),
        ]);
        let fds = vec![FdPair { host: 0, dep: 1 }];
        let build = |cols: usize| {
            FloodBuilder::new()
                .layout(Layout::new(vec![0, 2], vec![cols]).with_fds(fds.clone()))
                .flattening(Flattening::Uniform)
                .build(&t)
        };
        assert_eq!(build(2).active_fds(), fds);
        let fine = build(500);
        assert!(fine.active_fds().is_empty());
        assert_eq!(fine.layout().fds(), &fds[..], "the layout keeps its list");
    }

    #[test]
    fn empty_table() {
        let t = Table::from_columns(vec![vec![], vec![]]);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1], vec![4]))
            .build(&t);
        let mut v = CountVisitor::default();
        let stats = index.execute(&RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 0);
        assert_eq!(stats.cells_visited, 0);
    }

    #[test]
    fn single_row_table() {
        let t = Table::from_columns(vec![vec![5], vec![9]]);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1], vec![4]))
            .build(&t);
        let mut v = CountVisitor::default();
        index.execute(&RangeQuery::all(2).with_eq(0, 5), None, &mut v);
        assert_eq!(v.count, 1);
        let mut v = CountVisitor::default();
        index.execute(&RangeQuery::all(2).with_eq(0, 6), None, &mut v);
        assert_eq!(v.count, 0);
    }

    #[test]
    fn index_size_accounts_models() {
        let t = table(50_000, 3, 43);
        let plain = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .refinement(Refinement::BinarySearch)
            .build(&t);
        let with_models = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        assert!(with_models.index_size_bytes() > plain.index_size_bytes());
    }

    #[test]
    fn partitioned_plan_matches_sequential() {
        let t = table(30_000, 3, 59);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        for q in &queries(3) {
            assert_partitioned_matches_serial::<CountVisitor>(&index, q, None, &[1, 2, 4, 7, 32]);
        }
    }

    #[test]
    fn partitioned_sum_matches_sequential() {
        let t = table(20_000, 3, 61);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![6, 6]))
            .cumulative_sum(1)
            .build(&t);
        let q = RangeQuery::all(3)
            .with_range(0, 0, 800)
            .with_range(2, 0, 1 << 45);
        assert_partitioned_matches_serial::<SumVisitor>(&index, &q, Some(1), &[4]);
    }

    #[test]
    fn build_times_recorded() {
        let t = table(10_000, 3, 47);
        let index = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![8, 8]))
            .build(&t);
        let bt = index.build_times();
        assert!(bt.sort_ns > 0);
        assert!(bt.assign_ns > 0 && bt.permute_ns > 0);
        assert!(bt.assign_ns + bt.permute_ns <= bt.sort_ns);
    }
}
