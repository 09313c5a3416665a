//! Flattening (§5.1): per-attribute CDF models that project skewed data into
//! a more uniform space.
//!
//! With a model of each attribute's CDF, columns are chosen so each holds
//! approximately the same number of points: a point with value `v` in a
//! dimension split into `n` columns lands in column `⌊CDF(v)·n⌋`. Flood
//! models each attribute with an RMI; the uniform (non-flattened) variant —
//! equally spaced columns between the dimension's min and max, §3.1 — is kept
//! for the Fig 11 ablation.
//!
//! One [`Flattener`] per table, fitted once by [`Flattener::fit`]: the data
//! sample fits it on its rows and the search prices layouts through it; a
//! server's index and every rebuild cut their grid with that same `Arc`. A
//! standalone [`FloodIndex::build`](crate::FloodIndex::build) fits its split
//! dimensions over all rows.

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

/// The per-dimension CDF models of one table, one slot per dimension. A
/// grid reads only the dimensions it splits into **more than one column**:
/// a one-column dimension's bucket is 0 under any model, a dimension
/// outside the grid has no bucket at all.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Flattener {
    dims: Vec<Option<DimCdf>>,
}

impl Flattener {
    /// Fit `mode` CDF models for the listed `dims` over `rows` of `table` —
    /// every row when `rows` is `None`; every other dimension's slot stays
    /// empty. A learned model is an RMI over the sorted values, a uniform
    /// one spans their `[min, max]`.
    pub fn fit(table: &Table, rows: Option<&[usize]>, dims: &[usize], mode: Flattening) -> Self {
        let fit = |d: usize| {
            let mut vals: Vec<u64> = match rows {
                Some(rows) => rows.iter().map(|&r| table.value(r, d)).collect(),
                None => table.column(d).to_vec(),
            };
            match mode {
                Flattening::Learned => {
                    vals.sort_unstable();
                    DimCdf::Learned(Rmi::build(&vals, RmiConfig::default()))
                }
                Flattening::Uniform => {
                    let min = vals.iter().min().copied().unwrap_or(0);
                    let max = vals.iter().max().copied().unwrap_or(0);
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
    /// Panics when `n > 1` and dimension `d` has no model. One column
    /// evaluates no model.
    #[inline]
    pub fn bucket(&self, d: usize, v: u64, n: usize) -> usize {
        if n == 1 {
            return 0;
        }
        match &self.dims[d] {
            Some(model) => model.bucket(v, n),
            None => panic!("dimension {d} has no CDF to split {n} columns with"),
        }
    }

    /// Approximate heap size in bytes of the models of `dims`, every other
    /// slot counted as empty — what a grid splitting `dims` reads.
    pub(crate) fn size_bytes(&self, dims: &[usize]) -> usize {
        (self.dims.iter().enumerate())
            .map(|(d, m)| match m {
                Some(model) if dims.contains(&d) => model.size_bytes(),
                _ => UNIFORM_BYTES,
            })
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
        let f = Flattener::fit(&t, None, &[0], Flattening::Uniform);
        let cdf = f.dim(0).expect("fitted");
        assert_eq!(cdf.cdf(0), 0.0);
        assert!((cdf.cdf(50) - 0.5).abs() < 0.01);
        assert_eq!(f.bucket(0, 99, 10), 9);
        assert_eq!(f.bucket(0, 0, 10), 0);
    }

    #[test]
    fn learned_flattening_equalizes_mass() {
        let t = skewed_table();
        let f = Flattener::fit(&t, None, &[0], Flattening::Learned);
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
        let u = Flattener::fit(&t, None, &[0], Flattening::Uniform);
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
        let f = Flattener::fit(&t, None, &[0], Flattening::Learned);
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
        let f = Flattener::fit(&t, None, &[0], Flattening::Learned);
        assert!(f.dim(1).is_none());
        assert!(matches!(f.dim(0), Some(DimCdf::Learned(_))));
        // One column needs no model.
        assert_eq!(f.bucket(1, 1234, 1), 0);
    }

    #[test]
    #[should_panic(expected = "dimension 1 has no CDF to split 2 columns with")]
    fn splitting_an_unfitted_dimension_panics() {
        let f = Flattener::fit(&skewed_table(), None, &[0], Flattening::Learned);
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
                let f = Flattener::fit(t, None, &[0], mode);
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

    /// Per-column row spread of a grid cut with sample-fitted CDFs, as a
    /// server's is: a cubic-skew column of 200 000 rows, fitted on 10 000
    /// sampled rows, split into 1 000 columns. Measured: the sample fit
    /// leaves 2 columns empty (max/min unbounded) and fills the fullest with
    /// 548 rows, 2.74× the mean, piled at the RMI's 100 leaf edges; a
    /// full-column fit spreads the rows 111..256 (max/min 2.31). Bounds:
    /// ≤ 2 empty columns and max ≤ 3× the mean; full fit max/min ≤ 2.5.
    #[test]
    fn sample_fitted_columns_spread() {
        use rand::rngs::StdRng;
        use rand::seq::index::sample;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let (n, cols) = (200_000, 1_000);
        let t = Table::from_columns(vec![(0..n)
            .map(|_| rng.gen_range(0..1u64 << 20).pow(3))
            .collect()]);
        let rows = sample(&mut rng, n, 10_000).into_vec();
        let spread = |f: &Flattener| {
            let mut per_col = vec![0usize; cols];
            for &v in t.column(0).values().iter() {
                per_col[f.bucket(0, v, cols)] += 1;
            }
            let empty = per_col.iter().filter(|&&c| c == 0).count();
            let (min, max) = (per_col.iter().min(), per_col.iter().max());
            (empty, *min.expect("columns"), *max.expect("columns"))
        };
        let (empty, _, max) = spread(&Flattener::fit(&t, Some(&rows), &[0], Flattening::Learned));
        assert!(
            empty <= 2 && max <= 3 * n / cols,
            "sample fit: {empty} empty, max {max}"
        );
        let (_, min, max) = spread(&Flattener::fit(&t, None, &[0], Flattening::Learned));
        assert!(min > 0 && max * 2 <= min * 5, "full fit: {min}..{max}");
    }

    #[test]
    fn constant_dimension() {
        let t = Table::from_columns(vec![vec![5u64; 100]]);
        for mode in [Flattening::Learned, Flattening::Uniform] {
            let f = Flattener::fit(&t, None, &[0], mode);
            let b = f.bucket(0, 5, 4);
            assert!(b < 4);
        }
    }
}
