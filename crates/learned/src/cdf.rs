//! The exact empirical CDF, the reference a learned CDF model is measured by.
//!
//! A CDF model maps an attribute value `v` to the fraction of points with
//! values `≤ v`. Flattening places a point with value `v` into column
//! `⌊CDF(v) · n⌋`, so each column carries roughly equal mass regardless of
//! skew. Any model used for partitioning MUST be monotone — otherwise a
//! point inside a query range could land outside the projected column range.

use serde::{Deserialize, Serialize};

/// An exact empirical CDF over a (sorted copy of a) value set.
///
/// This is the reference model: `cdf(v) = |{x : x ≤ v}| / N`. The RMI
/// approximates this function; tests compare against it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    sorted: Vec<u64>,
}

impl EmpiricalCdf {
    /// Build from any value sequence (copied and sorted).
    pub fn build(values: &[u64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        EmpiricalCdf { sorted }
    }

    /// Build from already-sorted values (no copy validation in release).
    pub fn from_sorted(sorted: Vec<u64>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        EmpiricalCdf { sorted }
    }

    /// Fraction of the values `≤ v`, in `[0, 1]`.
    pub fn cdf(&self, v: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = self.sorted.partition_point(|&x| x <= v);
        rank as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_cdf_basics() {
        let c = EmpiricalCdf::build(&[10, 20, 30, 40]);
        assert_eq!(c.cdf(5), 0.0);
        assert_eq!(c.cdf(10), 0.25);
        assert_eq!(c.cdf(25), 0.5);
        assert_eq!(c.cdf(40), 1.0);
        assert_eq!(c.cdf(u64::MAX), 1.0);
    }

    #[test]
    fn empirical_cdf_duplicates() {
        let c = EmpiricalCdf::build(&[7, 7, 7, 9]);
        assert_eq!(c.cdf(6), 0.0);
        assert_eq!(c.cdf(7), 0.75);
        assert_eq!(c.cdf(8), 0.75);
        assert_eq!(c.cdf(9), 1.0);
    }

    #[test]
    fn empty_cdf() {
        let c = EmpiricalCdf::build(&[]);
        assert_eq!(c.cdf(42), 0.0);
    }

    #[test]
    fn monotone_on_random_values() {
        let vals: Vec<u64> = (0..1000).map(|i| (i * 2654435761u64) % 100_000).collect();
        let c = EmpiricalCdf::build(&vals);
        let mut prev = -1.0;
        for v in (0..100_000).step_by(997) {
            let y = c.cdf(v);
            assert!(y >= prev);
            prev = y;
        }
    }
}
