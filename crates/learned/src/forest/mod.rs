//! Random-forest regression, built from scratch.
//!
//! The paper calibrates its cost-model weights with a random-forest
//! regressor (§4.1.1, via SciPy). This module reproduces that model class
//! natively: bagged CART regression trees with per-split feature
//! subsampling, averaged at prediction time.

mod tree;

pub use tree::RegressionTree;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`RandomForest::fit`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees (bagging rounds).
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Fraction of features considered at each split (0, 1].
    pub feature_frac: f64,
    /// RNG seed for reproducible training.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 50,
            max_depth: 12,
            min_leaf: 2,
            feature_frac: 0.7,
            seed: 0x5EED,
        }
    }
}

/// A bagged ensemble of CART regression trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Train on rows `xs` (equal-width feature vectors) and targets `ys`.
    ///
    /// # Panics
    /// Panics if `xs` is empty, widths are inconsistent, or
    /// `xs.len() != ys.len()`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: RandomForestConfig) -> Self {
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        assert_eq!(xs.len(), ys.len());
        let n_features = xs[0].len();
        for r in xs {
            assert_eq!(r.len(), n_features, "inconsistent feature width");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = xs.len();
        let trees = (0..cfg.n_trees)
            .map(|_| {
                // Bootstrap sample (with replacement).
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                RegressionTree::fit(xs, ys, &sample, cfg, &mut rng)
            })
            .collect();
        RandomForest { trees, n_features }
    }

    /// Predict the target for feature vector `x` (mean over trees).
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_features);
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Mean absolute error over a labelled set (diagnostics / tests).
    pub fn mae(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter()
            .zip(ys)
            .map(|(x, &y)| (self.predict(x) - y).abs())
            .sum::<f64>()
            / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_dataset(n: usize, f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut state = 12345u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as f64 / (1u64 << 31) as f64 * 10.0;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 33) as f64 / (1u64 << 31) as f64 * 10.0;
            xs.push(vec![a, b]);
            ys.push(f(a, b));
        }
        (xs, ys)
    }

    #[test]
    fn learns_linear_function() {
        let (xs, ys) = make_dataset(2000, |a, b| 3.0 * a + 2.0 * b);
        let rf = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        let mae = rf.mae(&xs, &ys);
        assert!(mae < 1.5, "training MAE too high: {mae}");
    }

    #[test]
    fn learns_nonlinear_interaction() {
        // The motivating case for ML over linear models (§4.1.2).
        let (xs, ys) = make_dataset(3000, |a, b| if a > 5.0 { a * b } else { a + b });
        let rf = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        let mae = rf.mae(&xs, &ys);
        assert!(mae < 4.0, "training MAE too high: {mae}");

        // A linear model cannot capture this: compare fit quality.
        let lin = crate::linear::MultiLinearModel::fit(&xs, &ys);
        let lin_mae: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| (lin.predict(x) - y).abs())
            .sum::<f64>()
            / xs.len() as f64;
        assert!(
            lin_mae > mae * 1.5,
            "forest ({mae}) should beat linear ({lin_mae}) clearly"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (xs, ys) = make_dataset(500, |a, b| a - b);
        let cfg = RandomForestConfig::default();
        let rf1 = RandomForest::fit(&xs, &ys, cfg);
        let rf2 = RandomForest::fit(&xs, &ys, cfg);
        for x in xs.iter().take(50) {
            assert_eq!(rf1.predict(x), rf2.predict(x));
        }
    }

    #[test]
    fn constant_target() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 100];
        let rf = RandomForest::fit(&xs, &ys, RandomForestConfig::default());
        assert!((rf.predict(&[50.0]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let rf = RandomForest::fit(&[vec![1.0, 2.0]], &[42.0], RandomForestConfig::default());
        assert_eq!(rf.predict(&[9.0, 9.0]), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        let _ = RandomForest::fit(&[], &[], RandomForestConfig::default());
    }
}
