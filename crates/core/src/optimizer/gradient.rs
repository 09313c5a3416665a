//! Gradient-descent search over column counts (§4.2 step 3).
//!
//! The objective — predicted average query time — is evaluated on integer
//! column counts, so we search in continuous log₂-space, round at evaluation
//! time, and use numeric gradients with a step size large enough to cross
//! integer boundaries. Steps are accepted with backtracking: the learning
//! rate grows on improvement and shrinks on failure.
//!
//! Each finite-difference probe perturbs **one** coordinate of the current
//! position (`x[i] ± h`), so consecutive objective calls differ in a single
//! dimension's rounded column count. The cost evaluator exploits exactly
//! this shape: repeated vectors hit its layout memo, and fresh vectors
//! re-count only the moved dimension through the incremental per-dimension
//! statistics cache (`optimizer::StatsCache`), leaving the rest as cached
//! bitset ANDs.

/// Default upper bound on log₂(columns) per dimension (1024 columns).
pub(crate) const MAX_COL_LOG2: f64 = 10.0;

/// Initial learning rate (in log₂-column units).
const LR: f64 = 1.0;

/// Finite-difference half-step (log₂ units); large enough to change the
/// rounded column count.
const H: f64 = 0.5;

/// Knobs for [`descend`].
#[derive(Debug, Clone)]
pub struct GdConfig {
    /// Number of gradient steps.
    pub steps: usize,
    /// Upper bound on log₂(columns) per dimension.
    pub max_col_log2: f64,
    /// Upper bound on the total number of cells (product of columns).
    pub max_total_cells: usize,
    /// Optional per-dimension overrides of [`GdConfig::max_col_log2`]
    /// (position `i` caps coordinate `i`). Empty ⇒ the uniform cap applies
    /// everywhere. The layout search uses this to shrink the budget of
    /// dimensions a soft FD predicts from a host dimension (re-weighting,
    /// part of the Tsunami/COAX correlation extension — the paper's search
    /// uses the uniform cap only).
    pub per_dim_max_log2: Vec<f64>,
}

impl Default for GdConfig {
    fn default() -> Self {
        GdConfig {
            steps: 20,
            max_col_log2: MAX_COL_LOG2,
            max_total_cells: 1 << 20,
            per_dim_max_log2: Vec::new(),
        }
    }
}

/// Map a log₂-space position to integer column counts, respecting the
/// per-dimension and total-cell caps.
pub fn to_cols(x: &[f64], cfg: &GdConfig) -> Vec<usize> {
    let cap_of = |i: usize| -> f64 {
        cfg.per_dim_max_log2
            .get(i)
            .copied()
            .unwrap_or(cfg.max_col_log2)
            .max(0.0)
    };
    let mut x: Vec<f64> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| v.clamp(0.0, cap_of(i)))
        .collect();
    // Enforce the total-cell cap by uniformly shrinking in log space.
    let total: f64 = x.iter().sum();
    let cap = (cfg.max_total_cells as f64).log2();
    if total > cap {
        let scale = cap / total;
        for v in &mut x {
            *v *= scale;
        }
    }
    x.iter()
        .map(|&v| (2f64.powf(v).round() as usize).max(1))
        .collect()
}

/// Minimize `objective` (called on integer column counts) from `init`
/// (log₂ space). Returns the best column counts and their objective value.
pub fn descend(
    init: &[f64],
    cfg: &GdConfig,
    mut objective: impl FnMut(&[usize]) -> f64,
) -> (Vec<usize>, f64) {
    let dims = init.len();
    if dims == 0 {
        let cost = objective(&[]);
        return (Vec::new(), cost);
    }
    let mut x: Vec<f64> = init.to_vec();
    let eval = |x: &[f64], obj: &mut dyn FnMut(&[usize]) -> f64| -> f64 { obj(&to_cols(x, cfg)) };
    let mut fx = eval(&x, &mut objective);
    let mut best_x = x.clone();
    let mut best_f = fx;
    let mut lr = LR;

    for _ in 0..cfg.steps {
        // Numeric gradient.
        let mut grad = vec![0.0f64; dims];
        let mut max_abs = 0.0f64;
        for i in 0..dims {
            let mut xp = x.clone();
            xp[i] += H;
            let mut xm = x.clone();
            xm[i] -= H;
            let g = (eval(&xp, &mut objective) - eval(&xm, &mut objective)) / (2.0 * H);
            grad[i] = g;
            max_abs = max_abs.max(g.abs());
        }
        if max_abs == 0.0 {
            // Flat neighbourhood: random-restart style nudge would be
            // overkill; widen the probe by doubling lr and trying a
            // diagonal move instead.
            let cand: Vec<f64> = x.iter().map(|&v| v + lr).collect();
            let fc = eval(&cand, &mut objective);
            if fc < fx {
                x = cand;
                fx = fc;
            } else {
                lr *= 0.5;
                if lr < 0.05 {
                    break;
                }
            }
            continue;
        }
        // Normalized step with backtracking acceptance.
        let cand: Vec<f64> = x
            .iter()
            .zip(&grad)
            .map(|(&v, &g)| v - lr * g / max_abs)
            .collect();
        let fc = eval(&cand, &mut objective);
        if fc < fx {
            x = cand;
            fx = fc;
            lr = (lr * 1.2).min(3.0);
        } else {
            lr *= 0.5;
            if lr < 0.05 {
                break;
            }
        }
        if fx < best_f {
            best_f = fx;
            best_x = x.clone();
        }
    }
    let cols = to_cols(&best_x, cfg);
    let final_f = objective(&cols);
    (cols, final_f.min(best_f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_cols_clamps_and_caps() {
        let cfg = GdConfig {
            max_col_log2: 4.0,
            max_total_cells: 64,
            ..Default::default()
        };
        // 2^4 each = 16·16·16 = 4096 > 64 → shrink to total ≤ 64 = 2^6.
        let cols = to_cols(&[4.0, 4.0, 4.0], &cfg);
        let total: usize = cols.iter().product();
        assert!(total <= 64, "cols {cols:?} total {total}");
        // Negative log columns clamp to 1 column.
        assert_eq!(to_cols(&[-3.0], &cfg), vec![1]);
    }

    #[test]
    fn per_dim_caps_override_uniform_cap() {
        let cfg = GdConfig {
            max_col_log2: 8.0,
            per_dim_max_log2: vec![8.0, 2.0],
            ..Default::default()
        };
        // Dim 1 is capped at 2^2 = 4 columns; dim 0 keeps the uniform cap.
        assert_eq!(to_cols(&[8.0, 8.0], &cfg), vec![256, 4]);
        // A third coordinate beyond the override vector falls back to the
        // uniform cap.
        let cfg3 = GdConfig {
            max_total_cells: 1 << 20,
            ..cfg.clone()
        };
        assert_eq!(to_cols(&[8.0, 8.0, 8.0], &cfg3), vec![256, 4, 256]);
        // The descent respects the cap: unconstrained optimum at 2^4 per
        // dim, but dim 1 can't go past 2^2.
        let obj = |cols: &[usize]| {
            cols.iter()
                .map(|&c| {
                    let l = (c as f64).log2();
                    (l - 4.0) * (l - 4.0)
                })
                .sum::<f64>()
        };
        let (cols, _) = descend(&[1.0, 1.0], &cfg, obj);
        assert!(cols[1] <= 4, "capped dim exceeded its budget: {cols:?}");
    }

    #[test]
    fn minimizes_convex_objective() {
        // Optimal at cols = [16, 16] (log2 = 4 each).
        let obj = |cols: &[usize]| {
            cols.iter()
                .map(|&c| {
                    let l = (c as f64).log2();
                    (l - 4.0) * (l - 4.0)
                })
                .sum::<f64>()
        };
        let cfg = GdConfig::default();
        let (cols, cost) = descend(&[1.0, 8.0], &cfg, obj);
        assert!(cost < 0.4, "cost {cost}, cols {cols:?}");
        for &c in &cols {
            assert!((8..=32).contains(&c), "cols {cols:?}");
        }
    }

    #[test]
    fn respects_dimension_count_zero() {
        let (cols, cost) = descend(&[], &GdConfig::default(), |_| 7.0);
        assert!(cols.is_empty());
        assert_eq!(cost, 7.0);
    }

    #[test]
    fn finds_tradeoff_minimum() {
        // Classic Flood-shaped objective: cell cost grows with columns,
        // scan cost shrinks. Minimum at c = sqrt(10000/1) = 100 per dim.
        let obj = |cols: &[usize]| {
            let cells: f64 = cols.iter().map(|&c| c as f64).product();
            cells + 10_000.0 / cells.max(1.0) * 100.0
        };
        let cfg = GdConfig {
            steps: 40,
            ..Default::default()
        };
        let (cols, cost) = descend(&[1.0, 1.0], &cfg, obj);
        // True optimum: cells = 1000, cost = 2000.
        assert!(cost < 3_000.0, "cost {cost}, cols {cols:?}");
    }
}
