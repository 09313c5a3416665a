//! Flattening (§5.1): per-attribute CDF models that project skewed data into
//! a more uniform space.
//!
//! With a model of each attribute's CDF, columns are chosen so each holds
//! approximately the same number of points: a point with value `v` in a
//! dimension split into `n` columns lands in column `⌊CDF(v)·n⌋`. Flood
//! models each attribute with an RMI; the uniform (non-flattened) variant —
//! equally spaced columns between the dimension's min and max, §3.1 — is kept
//! for the Fig 11 ablation.

use flood_learned::cdf::CdfModel;
use flood_learned::rmi::{Rmi, RmiConfig};
use flood_store::Table;
use serde::{Deserialize, Serialize};

/// Which per-dimension CDF model flattening uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Flattening {
    /// Learned RMI CDFs (the full Flood design, §5.1).
    #[default]
    Learned,
    /// Equally spaced columns over `[min, max]` (§3.1's simple grid; the
    /// "no flattening" ablation of Fig 11).
    Uniform,
}

/// A per-dimension CDF used to map values to `[0, 1)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DimCdf {
    /// Learned CDF.
    Learned(Rmi),
    /// Linear CDF over the value range `[min, max]`.
    Uniform {
        /// Smallest value observed in the dimension.
        min: u64,
        /// Range `max − min + 1` (the paper's `r_i`).
        range: u64,
    },
}

impl DimCdf {
    /// The modeled CDF of `v`, in `[0, 1]`.
    #[inline]
    pub fn cdf(&self, v: u64) -> f64 {
        match self {
            DimCdf::Learned(rmi) => rmi.cdf(v),
            DimCdf::Uniform { min, range } => {
                if v < *min {
                    0.0
                } else {
                    ((v - min) as f64 / *range as f64).min(1.0)
                }
            }
        }
    }

    /// Column assignment among `n` columns: `⌊cdf(v)·n⌋` clamped to `n−1`.
    #[inline]
    pub fn bucket(&self, v: u64, n: usize) -> usize {
        ((self.cdf(v) * n as f64) as usize).min(n - 1)
    }

    /// The column boundaries of an `n`-column split: `thr[j]` is the
    /// smallest value whose bucket exceeds `j`, so for every `v`
    /// `thr.partition_point(|&t| t <= v) == self.bucket(v, n)` — a whole
    /// column is assigned with a few comparisons per value instead of one
    /// model evaluation. Exact because `bucket` is monotone in `v`; each
    /// boundary is a binary search over the value domain with the model
    /// itself (≤ 64 evaluations), and a boundary the model jumps over
    /// (`bucket` rising by more than one) is shared by the columns it
    /// skips. Shorter than `n − 1` when even `u64::MAX` stays below the
    /// last column.
    pub fn boundaries(&self, n: usize) -> Vec<u64> {
        let top = self.bucket(u64::MAX, n);
        let mut thr: Vec<u64> = Vec::with_capacity(top);
        while thr.len() < top {
            let j = thr.len();
            let (mut lo, mut hi) = (thr.last().copied().unwrap_or(0), u64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.bucket(mid, n) > j {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            thr.resize(self.bucket(lo, n), lo);
        }
        thr
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            DimCdf::Learned(rmi) => rmi.size_bytes(),
            DimCdf::Uniform { .. } => UNIFORM_BYTES,
        }
    }
}

/// What a [`DimCdf::Uniform`] — or a dimension's empty slot — is counted as.
const UNIFORM_BYTES: usize = 16;

/// The per-dimension CDF models of one index: one slot per table
/// dimension, filled only for the dimensions its layout grids on **with
/// more than one column**. Those are the only ones ever read — a
/// one-column dimension's bucket is 0 under any model, a dimension outside
/// the grid has no bucket at all — so nothing is sorted, fitted or even
/// min/max-scanned for the rest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Flattener {
    dims: Vec<Option<DimCdf>>,
}

impl Flattener {
    /// Fit CDF models for the listed `dims` of `table`; every other
    /// dimension's slot stays empty.
    pub fn build(table: &Table, dims: &[usize], mode: Flattening) -> Self {
        Self::build_reusing(table, dims, mode, None)
    }

    /// [`Flattener::build`], taking from `fitted` the models it already
    /// holds. A model is a pure function of the column's sorted values and
    /// the mode, so this is only for a `fitted` built in the same mode over
    /// the same multiset of rows (a re-layout of an index's own data);
    /// each hit saves a full-column sort and fit.
    pub(crate) fn build_reusing(
        table: &Table,
        dims: &[usize],
        mode: Flattening,
        fitted: Option<&Flattener>,
    ) -> Self {
        let fit = |d: usize| {
            if let Some(model) = fitted.and_then(|f| f.dims[d].as_ref()) {
                return model.clone();
            }
            match mode {
                Flattening::Learned => {
                    let mut vals = table.column(d).to_vec();
                    vals.sort_unstable();
                    DimCdf::Learned(Rmi::build(&vals, RmiConfig::default()))
                }
                Flattening::Uniform => {
                    let (min, max) = table.dim_bounds(d);
                    DimCdf::Uniform {
                        min,
                        range: (max - min).saturating_add(1),
                    }
                }
            }
        };
        let dims = (0..table.dims())
            .map(|d| dims.contains(&d).then(|| fit(d)))
            .collect();
        Flattener { dims }
    }

    /// CDF model for dimension `d`, if one was fitted.
    #[inline]
    pub fn dim(&self, d: usize) -> Option<&DimCdf> {
        self.dims[d].as_ref()
    }

    /// Column of `v` in dimension `d` under `n` columns.
    ///
    /// # Panics
    /// Panics when `n > 1` and dimension `d` has no model.
    #[inline]
    pub fn bucket(&self, d: usize, v: u64, n: usize) -> usize {
        match &self.dims[d] {
            Some(model) => model.bucket(v, n),
            None => {
                assert_eq!(n, 1, "dimension {d} has no CDF to split {n} columns with");
                0
            }
        }
    }

    /// Number of dimensions covered.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.dims
            .iter()
            .map(|m| m.as_ref().map_or(UNIFORM_BYTES, DimCdf::size_bytes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_table() -> Table {
        // dim 0: quadratic skew; dim 1: uniform.
        Table::from_columns(vec![
            (0..10_000u64).map(|i| (i * i) / 10_000).collect(),
            (0..10_000u64).collect(),
        ])
    }

    #[test]
    fn uniform_flattening_is_linear() {
        let t = Table::from_columns(vec![(0..100u64).collect()]);
        let f = Flattener::build(&t, &[0], Flattening::Uniform);
        let cdf = f.dim(0).expect("fitted");
        assert_eq!(cdf.cdf(0), 0.0);
        assert!((cdf.cdf(50) - 0.5).abs() < 0.01);
        assert_eq!(f.bucket(0, 99, 10), 9);
        assert_eq!(f.bucket(0, 0, 10), 0);
    }

    #[test]
    fn learned_flattening_equalizes_mass() {
        let t = skewed_table();
        let f = Flattener::build(&t, &[0], Flattening::Learned);
        // Bucket the skewed dimension into 10 columns and count points.
        let mut counts = [0usize; 10];
        for i in 0..t.len() {
            counts[f.bucket(0, t.value(i, 0), 10)] += 1;
        }
        let (mn, mx) = (
            *counts.iter().min().expect("ten buckets"),
            *counts.iter().max().expect("ten buckets"),
        );
        assert!(
            mx < mn * 3 + 100,
            "flattened buckets too uneven: {counts:?}"
        );

        // Uniform spacing on the same data is badly unbalanced (most of the
        // quadratic's mass sits at small values).
        let u = Flattener::build(&t, &[0], Flattening::Uniform);
        let mut ucounts = [0usize; 10];
        for i in 0..t.len() {
            ucounts[u.bucket(0, t.value(i, 0), 10)] += 1;
        }
        assert!(
            *ucounts.iter().max().expect("ten buckets") > 2 * mx,
            "uniform should be much more skewed: {ucounts:?} vs {counts:?}"
        );
    }

    #[test]
    fn bucket_is_monotone_in_value() {
        let t = skewed_table();
        let f = Flattener::build(&t, &[0], Flattening::Learned);
        let mut prev = 0usize;
        for v in 0..10_000u64 {
            let b = f.bucket(0, v, 64);
            assert!(b >= prev, "bucket went backwards at {v}");
            prev = b;
        }
    }

    #[test]
    fn unneeded_dims_get_no_model() {
        let t = skewed_table();
        let f = Flattener::build(&t, &[0], Flattening::Learned);
        assert!(f.dim(1).is_none());
        assert!(matches!(f.dim(0), Some(DimCdf::Learned(_))));
        // One column needs no model.
        assert_eq!(f.bucket(1, 1234, 1), 0);
    }

    #[test]
    #[should_panic(expected = "dimension 1 has no CDF to split 2 columns with")]
    fn splitting_an_unfitted_dimension_panics() {
        let f = Flattener::build(&skewed_table(), &[0], Flattening::Learned);
        f.bucket(1, 1234, 2);
    }

    /// Boundary lookup ≡ `bucket`, on every table value, the domain's ends
    /// and both sides of every boundary — what lets the build assign a
    /// column at a time without evaluating the model per row.
    #[test]
    fn boundary_lookup_equals_bucket() {
        // Skew, long duplicate runs, a 2^40 gap, values past 2^53 (where
        // `as f64` rounds) and the domain's last value.
        let mut vals: Vec<u64> = (0..4_000u64).map(|i| (i * i) / 4_000).collect();
        vals.extend(std::iter::repeat_n(777, 500));
        vals.extend((0..500u64).map(|i| (1 << 40) + i * 3));
        vals.extend((0..500u64).map(|i| (1 << 53) + i));
        vals.extend([u64::MAX - 1, u64::MAX]);
        let tables = [
            Table::from_columns(vec![vals]),
            skewed_table(),
            Table::from_columns(vec![vec![5; 100]]),
            Table::from_columns(vec![vec![]]),
        ];
        for t in &tables {
            for mode in [Flattening::Learned, Flattening::Uniform] {
                let f = Flattener::build(t, &[0], mode);
                let cdf = f.dim(0).expect("fitted");
                for n in [1, 2, 7, 67, 1000] {
                    let thr = cdf.boundaries(n);
                    assert!(thr.len() < n && thr.is_sorted(), "{mode:?} n={n}: {thr:?}");
                    let mut probes = t.column(0).to_vec();
                    probes.extend([0, u64::MAX]);
                    for &b in &thr {
                        probes.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
                    }
                    for v in probes {
                        assert_eq!(
                            thr.partition_point(|&b| b <= v),
                            cdf.bucket(v, n),
                            "{mode:?} n={n} v={v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn constant_dimension() {
        let t = Table::from_columns(vec![vec![5u64; 100]]);
        for mode in [Flattening::Learned, Flattening::Uniform] {
            let f = Flattener::build(&t, &[0], mode);
            let b = f.bucket(0, 5, 4);
            assert!(b < 4);
        }
    }
}
