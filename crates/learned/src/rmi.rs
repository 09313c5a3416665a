//! Recursive Model Index (RMI) over a sorted key set.
//!
//! A two-layer RMI: the root is a monotone linear spline that routes a key to
//! one of `B` leaf models; each leaf is a least-squares linear model over the
//! keys routed to it (Appendix A: "Models in the non-leaf layers are linear
//! spline models to ensure that the models accessed in the following layer
//! are monotonic; the models in the leaf layer are linear regressions").
//!
//! Flood uses RMIs as per-attribute CDF models for flattening (§5.1), which
//! requires the prediction to be **globally monotone** in the key — otherwise
//! a point inside a query range could be assigned a grid column outside the
//! projected range. Monotonicity is guaranteed by construction:
//!
//! 1. the root spline is monotone, so leaf assignment is monotone;
//! 2. leaf slopes are clamped non-negative;
//! 3. each leaf's output is clamped to its position range
//!    `[pos_lo, pos_hi]`, and the ranges of successive leaves are
//!    non-overlapping and increasing.

use crate::linear::{LinearModel, LinearSpline};
use crate::search::{exponential_search_lb, exponential_search_ub};
use serde::{Deserialize, Serialize};

/// Configuration for [`Rmi::build`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RmiConfig {
    /// Number of leaf models; `None` chooses `√n` clamped to `[8, 65536]`.
    pub branching: Option<usize>,
    /// Number of root-spline knots (equi-depth samples of the key set).
    pub root_knots: usize,
}

impl Default for RmiConfig {
    fn default() -> Self {
        RmiConfig {
            branching: None,
            root_knots: 256,
        }
    }
}

/// One leaf model with its clamp range.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Leaf {
    model: LinearModel,
    /// Smallest position of a key routed here (clamp floor).
    pos_lo: f64,
    /// One past the largest position of a key routed here (clamp ceiling).
    pos_hi: f64,
}

/// A two-layer recursive model index over `n` sorted keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rmi {
    root: LinearSpline,
    leaves: Vec<Leaf>,
    n: usize,
}

impl Rmi {
    /// Build an RMI over `keys`, which must be sorted (duplicates allowed).
    ///
    /// # Panics
    /// Panics in debug builds if `keys` is unsorted.
    pub fn build(keys: &[u64], cfg: RmiConfig) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        let n = keys.len();
        if n == 0 {
            return Rmi {
                root: LinearSpline::new(vec![0.0], vec![0.0]),
                leaves: vec![Leaf {
                    model: LinearModel {
                        slope: 0.0,
                        intercept: 0.0,
                    },
                    pos_lo: 0.0,
                    pos_hi: 0.0,
                }],
                n: 0,
            };
        }
        let branching = cfg
            .branching
            .unwrap_or_else(|| ((n as f64).sqrt() as usize).clamp(8, 65_536));
        let root = build_root(keys, branching, cfg.root_knots);

        // Route every key through the root; keys per leaf are contiguous
        // because the root is monotone.
        let mut leaves = Vec::with_capacity(branching);
        let mut start = 0usize;
        let mut next_lo = 0f64;
        for leaf_idx in 0..branching {
            // End of this leaf's key range: first key routed past leaf_idx.
            let end = if leaf_idx + 1 == branching {
                n
            } else {
                // Keys are sorted and routing is monotone: binary search for
                // the first position whose routed leaf exceeds leaf_idx.
                partition_by(keys, start, |k| route(&root, branching, k) <= leaf_idx)
            };
            let leaf = fit_leaf(keys, start, end, next_lo);
            next_lo = leaf.pos_hi;
            leaves.push(leaf);
            start = end;
        }
        Rmi { root, leaves, n }
    }

    /// Predicted position of `key` in the sorted key set, in `[0, n]`.
    /// Monotone in `key`.
    #[inline]
    pub fn predict(&self, key: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let leaf = &self.leaves[route(&self.root, self.leaves.len(), key)];
        leaf.model
            .predict(key as f64)
            .clamp(leaf.pos_lo, leaf.pos_hi)
    }

    /// First index `i` with `get(i) >= key`, where `get` reads the *same
    /// sorted sequence* the model was built on. Rectifies the model's guess
    /// with exponential search.
    pub fn lookup_lb(&self, key: u64, get: impl Fn(usize) -> u64) -> usize {
        exponential_search_lb(self.n, self.predict(key) as usize, key, get)
    }

    /// One past the last index with `get(i) <= key`.
    pub fn lookup_ub(&self, key: u64, get: impl Fn(usize) -> u64) -> usize {
        exponential_search_ub(self.n, self.predict(key) as usize, key, get)
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.len() * std::mem::size_of::<Leaf>()
            + self.root.len() * 16
    }

    /// The modeled CDF of `v`: its predicted position over `n`, in
    /// `[0, 1]`, monotone in `v`.
    pub fn cdf(&self, v: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.predict(v) / self.n as f64).clamp(0.0, 1.0)
    }
}

/// Route a key to a leaf index via the root spline.
#[inline]
fn route(root: &LinearSpline, branching: usize, key: u64) -> usize {
    (root.predict(key as f64) as usize).min(branching - 1)
}

/// Build the monotone root spline: equi-depth knots mapping key → leaf index.
fn build_root(keys: &[u64], branching: usize, knots: usize) -> LinearSpline {
    let n = keys.len();
    let k = knots.clamp(2, n.max(2));
    let mut xs = Vec::with_capacity(k);
    let mut ys = Vec::with_capacity(k);
    for i in 0..k {
        let pos = if k == 1 { 0 } else { i * (n - 1) / (k - 1) };
        let x = keys[pos] as f64;
        let y = pos as f64 / n as f64 * branching as f64;
        // Collapse duplicate keys to the largest y (keeps x strictly grouped
        // and y monotone).
        if let Some(&last_x) = xs.last() {
            if last_x == x {
                *ys.last_mut().expect("non-empty") = y;
                continue;
            }
        }
        xs.push(x);
        ys.push(y);
    }
    LinearSpline::new(xs, ys)
}

/// Fit one leaf over `keys[start..end]`; `floor_lo` is the previous leaf's
/// `pos_hi`, guaranteeing non-overlapping increasing clamp ranges.
fn fit_leaf(keys: &[u64], start: usize, end: usize, floor_lo: f64) -> Leaf {
    if start >= end {
        return Leaf {
            model: LinearModel {
                slope: 0.0,
                intercept: floor_lo,
            },
            pos_lo: floor_lo,
            pos_hi: floor_lo,
        };
    }
    let xs: Vec<f64> = keys[start..end].iter().map(|&k| k as f64).collect();
    let ys: Vec<f64> = (start..end).map(|i| i as f64).collect();
    Leaf {
        model: LinearModel::fit_monotone(&xs, &ys),
        pos_lo: start as f64,
        pos_hi: end as f64,
    }
}

/// First index `i >= from` where `pred(keys[i])` is false.
fn partition_by(keys: &[u64], from: usize, pred: impl Fn(u64) -> bool) -> usize {
    let (mut lo, mut hi) = (from, keys.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(keys[mid]) {
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

    fn uniform(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 7).collect()
    }

    fn skewed(n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).map(|i| (i * i) % 1_000_003).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn predicts_positions_on_uniform_keys() {
        let keys = uniform(10_000);
        let rmi = Rmi::build(&keys, RmiConfig::default());
        for (i, &k) in keys.iter().enumerate().step_by(97) {
            let p = rmi.predict(k);
            assert!(
                (p - i as f64).abs() <= 64.0,
                "key {k}: predicted {p}, true {i}"
            );
        }
    }

    #[test]
    fn lookup_is_exact_via_rectification() {
        for keys in [uniform(5_000), skewed(5_000)] {
            let rmi = Rmi::build(&keys, RmiConfig::default());
            for probe in (0..1_000_100).step_by(1009) {
                let lb = rmi.lookup_lb(probe, |i| keys[i]);
                assert_eq!(lb, keys.partition_point(|&x| x < probe), "probe {probe}");
                let ub = rmi.lookup_ub(probe, |i| keys[i]);
                assert_eq!(ub, keys.partition_point(|&x| x <= probe), "probe {probe}");
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let keys = skewed(20_000);
        let rmi = Rmi::build(&keys, RmiConfig::default());
        let mut prev = -1.0;
        for v in (0..1_000_003u64).step_by(499) {
            let c = rmi.cdf(v);
            assert!((0.0..=1.0).contains(&c), "cdf out of range: {c}");
            assert!(c >= prev, "cdf not monotone at {v}: {c} < {prev}");
            prev = c;
        }
    }

    /// Monotonicity is what lets a caller turn the model into exact value
    /// boundaries (Flood's build) or project a range to a column range
    /// (Flood's queries). Key sets chosen to break a leaf fit or the
    /// `u64 → f64` conversion: long runs of one key, gaps of 2⁴⁰, keys past
    /// 2⁵³ that round to a shared `f64`, and all of them in one set.
    #[test]
    fn cdf_is_monotone_on_adversarial_keys() {
        let runs: Vec<u64> = [3u64, 4, 1 << 20, (1 << 20) + 1]
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, 2_500))
            .collect();
        let gaps: Vec<u64> = (0..5_000u64).map(|i| ((i / 50) << 40) | (i % 50)).collect();
        let wide: Vec<u64> = (0..5_000u64).map(|i| (1 << 53) + i * 3 / 2).collect();
        let top: Vec<u64> = (0..5_000u64).map(|i| u64::MAX - (4_999 - i)).collect();
        let mut all: Vec<u64> = [&runs[..], &gaps, &wide, &top].concat();
        all.sort_unstable();
        for keys in [runs, gaps, wide, top, all] {
            let rmi = Rmi::build(&keys, RmiConfig::default());
            let mut probes: Vec<u64> = vec![0, u64::MAX];
            for w in keys.windows(2) {
                probes.extend([w[0].saturating_sub(1), w[0], w[0].saturating_add(1)]);
                probes.push(w[0] + (w[1] - w[0]) / 2);
            }
            probes.sort_unstable();
            let mut prev = 0.0;
            for v in probes {
                let c = rmi.cdf(v);
                assert!((0.0..=1.0).contains(&c), "cdf out of range at {v}: {c}");
                assert!(c >= prev, "cdf not monotone at {v}: {c} < {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn cdf_close_to_empirical() {
        use crate::cdf::EmpiricalCdf;
        let keys = skewed(50_000);
        let rmi = Rmi::build(&keys, RmiConfig::default());
        let emp = EmpiricalCdf::from_sorted(keys.clone());
        for v in (0..1_000_003u64).step_by(10_007) {
            let d = (rmi.cdf(v) - emp.cdf(v)).abs();
            assert!(d < 0.02, "cdf error {d} at {v}");
        }
    }

    #[test]
    fn handles_heavy_duplicates() {
        let mut keys = vec![5u64; 1000];
        keys.extend(vec![9u64; 1000]);
        keys.extend((10..1010).map(|i| i as u64));
        keys.sort_unstable();
        let rmi = Rmi::build(&keys, RmiConfig::default());
        assert_eq!(rmi.lookup_lb(5, |i| keys[i]), 0);
        assert_eq!(rmi.lookup_ub(5, |i| keys[i]), 1000);
        assert_eq!(rmi.lookup_lb(9, |i| keys[i]), 1000);
        assert_eq!(rmi.lookup_ub(9, |i| keys[i]), 2000);
    }

    #[test]
    fn empty_and_single() {
        let rmi = Rmi::build(&[], RmiConfig::default());
        assert_eq!(rmi.predict(42), 0.0);
        assert_eq!(rmi.cdf(42), 0.0);
        let rmi = Rmi::build(&[7], RmiConfig::default());
        assert_eq!(rmi.lookup_lb(7, |_| 7), 0);
        assert_eq!(rmi.lookup_ub(7, |_| 7), 1);
        assert_eq!(rmi.lookup_lb(8, |_| 7), 1);
    }

    #[test]
    fn constant_keys() {
        let keys = vec![3u64; 500];
        let rmi = Rmi::build(&keys, RmiConfig::default());
        assert_eq!(rmi.lookup_lb(3, |i| keys[i]), 0);
        assert_eq!(rmi.lookup_ub(3, |i| keys[i]), 500);
        assert_eq!(rmi.lookup_lb(4, |i| keys[i]), 500);
        assert_eq!(rmi.lookup_ub(2, |i| keys[i]), 0);
    }
}
