//! Drifting workloads: phased query streams whose shape shifts over time.
//!
//! The paper's §8 sketches how Flood survives workload shift (re-price the
//! layout on a recent window, re-learn when cost degrades); Tsunami (Ding
//! et al., VLDB 2020) shows skew and drift are exactly where a learned
//! layout wins or loses. This module generates the stimulus: a stream of
//! `K` phases over one table, where each phase moves three knobs at once —
//!
//! 1. **selected-dimension mix**: the hot (filtered) dimensions rotate
//!    from phase to phase, so the old layout's grid stops covering the
//!    queried dimensions;
//! 2. **selectivity**: the per-phase total selectivity cycles around the
//!    target (tighter, on-target, wider), stressing the cost model's
//!    column-count choices;
//! 3. **center of mass**: range centers are drawn from a rank band that
//!    slides across the data per phase, so even unchanged dimensions see a
//!    different hot region.
//!
//! The distribution switches abruptly at each phase boundary: a step
//! function, the hardest case for a frozen layout.
//!
//! Everything is built from the existing template machinery
//! ([`QueryTemplate`] + [`QueryBuilder`], with per-query selectivity
//! calibration), deterministic given a seed.

use super::{DimFilter, QueryBuilder, QueryTemplate};
use flood_store::{RangeQuery, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`DriftingWorkload::generate`].
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Number of phases `K`.
    pub phases: usize,
    /// Queries per phase.
    pub queries_per_phase: usize,
    /// Filtered dimensions per query (clamped to the table's dims).
    pub filters_per_query: usize,
    /// Average total selectivity the phases cycle around (the paper's
    /// default is 0.001).
    pub target_selectivity: f64,
    /// Seed for all randomness (templates, centers, calibration).
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            phases: 4,
            queries_per_phase: 200,
            filters_per_query: 2,
            target_selectivity: 0.001,
            seed: 0xD21F7,
        }
    }
}

/// The generation-time spec of one phase (before queries are drawn).
#[derive(Debug, Clone)]
struct PhaseSpec {
    /// Weighted templates: the primary on the phase's hot dimensions plus
    /// a lighter secondary rotated by one, so each phase is a *mix*.
    templates: Vec<(QueryTemplate, f64)>,
    /// Rank band range centers are drawn from.
    band: (f64, f64),
    /// Target total selectivity for this phase's queries.
    selectivity: f64,
    /// The primary hot dimensions (diagnostics).
    hot_dims: Vec<usize>,
}

/// One phase of a generated drifting workload.
#[derive(Debug, Clone)]
pub struct DriftPhase {
    /// Phase name (`p0`, `p1`, …).
    pub name: String,
    /// The primary hot dimensions of this phase.
    pub hot_dims: Vec<usize>,
    /// Rank band the phase's range centers were drawn from.
    pub center_band: (f64, f64),
    /// Target total selectivity of the phase.
    pub selectivity: f64,
    /// The phase's queries, in arrival order.
    pub queries: Vec<RangeQuery>,
}

/// A phased query stream over one table, plus a training split drawn from
/// phase 0's distribution (what a frozen index gets to learn on).
#[derive(Debug, Clone)]
pub struct DriftingWorkload {
    /// Display name (`drift-<seed>`).
    pub name: String,
    /// Training queries from phase 0's distribution (separate draws from
    /// the phase-0 stream).
    pub train: Vec<RangeQuery>,
    /// The phases, in arrival order.
    pub phases: Vec<DriftPhase>,
}

impl DriftingWorkload {
    /// Generate the phased stream over `table`.
    ///
    /// # Panics
    /// Panics on an empty table or a config with zero phases/queries.
    pub fn generate(table: &Table, cfg: &DriftConfig) -> Self {
        assert!(!table.is_empty(), "drift needs data");
        assert!(cfg.phases > 0 && cfg.queries_per_phase > 0, "empty drift");
        let specs: Vec<PhaseSpec> = (0..cfg.phases).map(|k| phase_spec(table, cfg, k)).collect();
        let mut qb = QueryBuilder::new(table, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD21F);

        // Training split: phase 0's distribution, separate draws.
        let train = (0..cfg.queries_per_phase)
            .map(|_| draw(&mut qb, &mut rng, &specs[0]))
            .collect();

        let phases = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                let queries = (0..cfg.queries_per_phase)
                    .map(|_| draw(&mut qb, &mut rng, spec))
                    .collect();
                DriftPhase {
                    name: format!("p{k}"),
                    hot_dims: spec.hot_dims.clone(),
                    center_band: spec.band,
                    selectivity: spec.selectivity,
                    queries,
                }
            })
            .collect();
        DriftingWorkload {
            name: format!("drift-{}", cfg.seed),
            train,
            phases,
        }
    }

    /// Every phase's queries, concatenated in arrival order.
    pub fn stream(&self) -> impl Iterator<Item = &RangeQuery> {
        self.phases.iter().flat_map(|p| p.queries.iter())
    }

    /// Total queries across all phases (the training split not included).
    pub fn len(&self) -> usize {
        self.phases.iter().map(|p| p.queries.len()).sum()
    }

    /// True when no phase holds queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One weighted draw from a phase spec.
fn draw(qb: &mut QueryBuilder<'_>, rng: &mut StdRng, spec: &PhaseSpec) -> RangeQuery {
    let total: f64 = spec.templates.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total);
    let mut chosen = &spec.templates[spec.templates.len() - 1].0;
    for (t, w) in &spec.templates {
        if pick < *w {
            chosen = t;
            break;
        }
        pick -= w;
    }
    qb.calibrated_query_in_band(chosen, Some(spec.selectivity), spec.band)
}

/// Phase `k`'s spec: rotated hot dimensions, cycled selectivity, sliding
/// center band.
fn phase_spec(table: &Table, cfg: &DriftConfig, k: usize) -> PhaseSpec {
    let d = table.dims();
    let f = cfg.filters_per_query.clamp(1, d);
    // Hot dims rotate by `f` per phase, so consecutive phases share no
    // primary dimension whenever `d ≥ 2f`.
    let hot_dims: Vec<usize> = (0..f).map(|j| (k * f + j) % d).collect();
    // Secondary template: the rotation by one — each phase is a mix of
    // dimension sets, not a single query type.
    let alt_dims: Vec<usize> = (0..f).map(|j| (k * f + j + 1) % d).collect();
    // Selectivity cycles ×0.5 / ×1 / ×2 around the target.
    let selectivity = cfg.target_selectivity * 2f64.powi((k % 3) as i32 - 1);
    // Center band slides across rank space with the phase index; wide
    // enough (≥ 25% of ranks) that calibration always has room.
    let progress = if cfg.phases > 1 {
        k as f64 / (cfg.phases - 1) as f64
    } else {
        0.5
    };
    let half = (0.5 / cfg.phases as f64).max(0.125);
    let center = half + progress * (1.0 - 2.0 * half);
    let band = (center - half, center + half);

    let per_dim = selectivity.powf(1.0 / f as f64).clamp(1e-6, 1.0);
    let template = |name: String, dims: &[usize]| {
        QueryTemplate::new(
            &name,
            dims.iter()
                .map(|&dim| DimFilter::range(dim, per_dim))
                .collect(),
        )
    };
    PhaseSpec {
        templates: vec![
            (template(format!("p{k}-hot"), &hot_dims), 3.0),
            (template(format!("p{k}-alt"), &alt_dims), 1.0),
        ],
        band,
        selectivity,
        hot_dims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let n = 20_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| (i * 2654435761) % 100_000).collect(),
            (0..n).map(|i| (i * 7919) % 50_000).collect(),
            (0..n).collect(),
            (0..n).map(|i| (i * i) % 30_000).collect(),
        ])
    }

    fn cfg() -> DriftConfig {
        DriftConfig {
            phases: 4,
            queries_per_phase: 30,
            filters_per_query: 2,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let t = table();
        let a = DriftingWorkload::generate(&t, &cfg());
        let b = DriftingWorkload::generate(&t, &cfg());
        assert_eq!(a.train, b.train);
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.queries, pb.queries);
        }
        let other = DriftingWorkload::generate(&t, &DriftConfig { seed: 999, ..cfg() });
        assert_ne!(a.train, other.train, "seed must matter");
    }

    #[test]
    fn phases_rotate_hot_dimensions() {
        let t = table();
        let w = DriftingWorkload::generate(&t, &cfg());
        assert_eq!(w.phases.len(), 4);
        assert_eq!(w.len(), 4 * 30);
        assert_ne!(
            w.phases[0].hot_dims, w.phases[1].hot_dims,
            "consecutive phases must move the hot set"
        );
        // With d=4 and f=2, phases 0 and 2 share hot dims but differ in
        // band/selectivity.
        assert_ne!(w.phases[0].center_band, w.phases[2].center_band);
    }

    #[test]
    fn abrupt_queries_filter_their_phases_template_dims() {
        let t = table();
        let w = DriftingWorkload::generate(&t, &cfg());
        for (k, p) in w.phases.iter().enumerate() {
            let hot: Vec<usize> = p.hot_dims.clone();
            let alt: Vec<usize> = (0..hot.len()).map(|j| (k * 2 + j + 1) % 4).collect();
            for q in &p.queries {
                let mut dims = q.filtered_dims();
                dims.sort_unstable();
                let mut h = hot.clone();
                h.sort_unstable();
                let mut a = alt.clone();
                a.sort_unstable();
                assert!(
                    dims == h || dims == a,
                    "phase {k}: unexpected dims {dims:?} (hot {h:?}, alt {a:?})"
                );
            }
        }
    }

    #[test]
    fn center_band_slides_across_rank_space() {
        let t = table();
        let w = DriftingWorkload::generate(&t, &cfg());
        // Dim 2 is the identity column: rank = value. Average range
        // midpoint on dim-2 filters must grow from first to last phase.
        let avg_mid = |p: &DriftPhase| {
            let mids: Vec<f64> = p
                .queries
                .iter()
                .filter_map(|q| q.bound(2).map(|(lo, hi)| (lo + hi) as f64 / 2.0))
                .collect();
            if mids.is_empty() {
                None
            } else {
                Some(mids.iter().sum::<f64>() / mids.len() as f64)
            }
        };
        // Phases 0/1 both filter dim 2 in some template (alt of 0 = {1,2},
        // hot of 1 = {2,3}); last phase hot = {2,3} again at d=4... use
        // first and last phases that filter dim 2.
        let firsts: Vec<f64> = w.phases.iter().take(2).filter_map(avg_mid).collect();
        let lasts: Vec<f64> = w.phases.iter().rev().take(2).filter_map(avg_mid).collect();
        let first = firsts.iter().sum::<f64>() / firsts.len().max(1) as f64;
        let last = lasts.iter().sum::<f64>() / lasts.len().max(1) as f64;
        assert!(
            last > first,
            "center of mass must slide up the ranks: {first} → {last}"
        );
    }

    #[test]
    fn selectivity_stays_in_calibrated_range() {
        let t = table();
        let w = DriftingWorkload::generate(&t, &cfg());
        let sel = |q: &RangeQuery| flood_testkit::count(&t, q) as f64 / t.len() as f64;
        for p in &w.phases {
            let avg = p.queries.iter().map(sel).sum::<f64>() / p.queries.len() as f64;
            // Phase targets cycle in [target/2, target*2]; calibration is
            // approximate, so accept an order of magnitude around that.
            assert!(
                (2e-5..0.05).contains(&avg),
                "{}: avg selectivity {avg}, target {}",
                p.name,
                p.selectivity
            );
        }
    }

    #[test]
    fn train_split_comes_from_phase_zero() {
        let t = table();
        let w = DriftingWorkload::generate(&t, &cfg());
        assert_eq!(w.train.len(), 30);
        assert_ne!(w.train, w.phases[0].queries, "separate draws");
        let hot = vec![0usize, 1];
        let alt = vec![1usize, 2];
        for q in &w.train {
            let mut dims = q.filtered_dims();
            dims.sort_unstable();
            assert!(
                dims == hot || dims == alt,
                "train must follow phase 0's mix: {dims:?}"
            );
        }
    }
}
