//! Query-workload generation (§7.3, §7.4).
//!
//! A workload is built from *query templates*: each template names the
//! filtered dimensions and a per-dimension selectivity; instantiating a
//! template picks a random center in the data and converts rank-widths to
//! value ranges, so requested selectivities hold regardless of skew.
//! Workloads are calibrated so the average total selectivity matches a
//! target (the paper scales everything to 0.1%), and every workload comes as
//! a train/test pair drawn from the same distribution (§7.3).

pub mod builder;
pub mod drift;
pub mod random;

pub use builder::QueryBuilder;
pub use drift::{DriftConfig, DriftPhase, DriftingWorkload};
pub use random::random_workload;

use crate::datasets::Dataset;
use flood_store::RangeQuery;
use serde::{Deserialize, Serialize};

/// A single filter inside a query template.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DimFilter {
    /// A range filter targeting the given fraction of the dimension's mass.
    Range {
        /// Filtered dimension.
        dim: usize,
        /// Target per-dimension selectivity in (0, 1].
        selectivity: f64,
    },
    /// An equality filter on a value sampled from the data.
    Point {
        /// Filtered dimension.
        dim: usize,
    },
}

impl DimFilter {
    /// Range filter constructor.
    pub fn range(dim: usize, selectivity: f64) -> Self {
        assert!(selectivity > 0.0 && selectivity <= 1.0);
        DimFilter::Range { dim, selectivity }
    }

    /// Equality filter constructor.
    pub fn point(dim: usize) -> Self {
        DimFilter::Point { dim }
    }

    /// The filtered dimension.
    pub fn dim(&self) -> usize {
        match *self {
            DimFilter::Range { dim, .. } | DimFilter::Point { dim } => dim,
        }
    }
}

/// A named query template (one "query type" in the paper's terms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Template name (for diagnostics).
    pub name: String,
    /// The filters each instantiation carries.
    pub filters: Vec<DimFilter>,
}

impl QueryTemplate {
    /// Create a template.
    pub fn new(name: &str, filters: Vec<DimFilter>) -> Self {
        QueryTemplate {
            name: name.to_string(),
            filters,
        }
    }

    /// Dimensions this template filters.
    pub fn dims(&self) -> Vec<usize> {
        self.filters.iter().map(DimFilter::dim).collect()
    }
}

/// The workload variants of Fig 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// O — the dataset's OLAP templates with skewed (Zipf) type weights.
    OlapSkewed,
    /// Ou — the same templates, each equally likely.
    OlapUniform,
    /// O1 — point lookups on a single primary-key attribute.
    OltpSingleKey,
    /// O2 — point lookups on two key attributes.
    OltpTwoKeys,
    /// OO — an equal mix of OLTP (O1) and OLAP (O) queries.
    Mixed,
    /// ST — a single query type.
    SingleType,
    /// FD — queries over a strict subset of the indexed dimensions.
    FewerDims,
    /// MD — every query filters all dimensions.
    ManyDims,
}

impl WorkloadKind {
    /// Short label used in Fig 9's x-axis.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::OlapSkewed => "O",
            WorkloadKind::OlapUniform => "Ou",
            WorkloadKind::OltpSingleKey => "O1",
            WorkloadKind::OltpTwoKeys => "O2",
            WorkloadKind::Mixed => "OO",
            WorkloadKind::SingleType => "ST",
            WorkloadKind::FewerDims => "FD",
            WorkloadKind::ManyDims => "MD",
        }
    }
}

/// A generated workload: train and test splits from the same distribution.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Queries the layout is optimized on.
    pub train: Vec<RangeQuery>,
    /// Queries results are reported on.
    pub test: Vec<RangeQuery>,
}

impl Workload {
    /// Generate a Fig 9-style workload variant for a dataset.
    ///
    /// `n` queries land in each split. The average total selectivity is
    /// calibrated to `target_selectivity` (the paper uses 0.001) where the
    /// templates allow (point lookups keep their natural selectivity).
    pub fn generate(
        kind: WorkloadKind,
        dataset: &Dataset,
        n: usize,
        target_selectivity: f64,
        seed: u64,
    ) -> Workload {
        let mut builder = QueryBuilder::new(&dataset.table, seed);
        let olap = dataset.kind.olap_templates();
        let keys = dataset.kind.key_dims();
        let (templates, weights): (Vec<QueryTemplate>, Vec<f64>) = match kind {
            WorkloadKind::OlapSkewed => {
                let w = (0..olap.len()).map(|i| 1.0 / (i + 1) as f64).collect();
                (olap, w)
            }
            WorkloadKind::OlapUniform => {
                let w = vec![1.0; olap.len()];
                (olap, w)
            }
            WorkloadKind::OltpSingleKey => (
                vec![QueryTemplate::new(
                    "point_1key",
                    vec![DimFilter::point(keys[0])],
                )],
                vec![1.0],
            ),
            WorkloadKind::OltpTwoKeys => (
                vec![QueryTemplate::new(
                    "point_2key",
                    vec![DimFilter::point(keys[0]), DimFilter::point(keys[1])],
                )],
                vec![1.0],
            ),
            WorkloadKind::Mixed => {
                let mut t = vec![QueryTemplate::new(
                    "point_1key",
                    vec![DimFilter::point(keys[0])],
                )];
                let mut w = vec![olap.len() as f64]; // half the mass to OLTP
                for (i, q) in olap.into_iter().enumerate() {
                    w.push(1.0 / (i + 1) as f64 * olap_norm(w.len()));
                    t.push(q);
                }
                (t, w)
            }
            WorkloadKind::SingleType => {
                let first = olap.into_iter().next().expect("dataset has templates");
                (vec![first], vec![1.0])
            }
            WorkloadKind::FewerDims => {
                // Restrict to the dims of the first two templates; drop
                // filters outside the subset.
                let mut subset: Vec<usize> = Vec::new();
                for t in olap.iter().take(2) {
                    for d in t.dims() {
                        if !subset.contains(&d) {
                            subset.push(d);
                        }
                    }
                }
                let reduced: Vec<QueryTemplate> = olap
                    .iter()
                    .map(|t| {
                        QueryTemplate::new(
                            &format!("fd_{}", t.name),
                            t.filters
                                .iter()
                                .copied()
                                .filter(|f| subset.contains(&f.dim()))
                                .collect(),
                        )
                    })
                    .filter(|t| !t.filters.is_empty())
                    .collect();
                let w = vec![1.0; reduced.len()];
                (reduced, w)
            }
            WorkloadKind::ManyDims => {
                let d = dataset.table.dims();
                let per_dim = target_selectivity.powf(1.0 / d as f64);
                let filters = (0..d).map(|dim| DimFilter::range(dim, per_dim)).collect();
                (vec![QueryTemplate::new("all_dims", filters)], vec![1.0])
            }
        };
        let name = format!("{}-{}", dataset.name(), kind.label());
        let calibrate = !matches!(
            kind,
            WorkloadKind::OltpSingleKey | WorkloadKind::OltpTwoKeys
        );
        builder.workload(
            &name,
            &templates,
            &weights,
            n,
            if calibrate {
                Some(target_selectivity)
            } else {
                None
            },
        )
    }

    /// Total number of queries across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// True when the workload holds no queries.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }
}

/// Weight normalizer so OLTP and OLAP halves balance in [`WorkloadKind::Mixed`].
fn olap_norm(_idx: usize) -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    fn dataset() -> Dataset {
        DatasetKind::Sales.generate(20_000, 3)
    }

    fn selectivity(ds: &Dataset, q: &RangeQuery) -> f64 {
        let t = &ds.table;
        flood_testkit::count(t, q) as f64 / t.len() as f64
    }

    #[test]
    fn all_kinds_generate() {
        let ds = dataset();
        for kind in [
            WorkloadKind::OlapSkewed,
            WorkloadKind::OlapUniform,
            WorkloadKind::OltpSingleKey,
            WorkloadKind::OltpTwoKeys,
            WorkloadKind::Mixed,
            WorkloadKind::SingleType,
            WorkloadKind::FewerDims,
            WorkloadKind::ManyDims,
        ] {
            let w = Workload::generate(kind, &ds, 20, 0.001, 1);
            assert_eq!(w.train.len(), 20, "{}", kind.label());
            assert_eq!(w.test.len(), 20, "{}", kind.label());
        }
    }

    #[test]
    fn olap_selectivity_calibrated() {
        let ds = dataset();
        let w = Workload::generate(WorkloadKind::OlapUniform, &ds, 30, 0.002, 7);
        let avg: f64 = w.test.iter().map(|q| selectivity(&ds, q)).sum::<f64>() / 30.0;
        assert!(
            (0.0004..0.01).contains(&avg),
            "avg selectivity {avg}, target 0.002"
        );
    }

    #[test]
    fn oltp_queries_are_points() {
        let ds = dataset();
        let w = Workload::generate(WorkloadKind::OltpTwoKeys, &ds, 10, 0.001, 1);
        for q in &w.test {
            assert_eq!(q.num_filtered(), 2);
            for d in q.filtered_dims() {
                let (lo, hi) = q.bound(d).expect("filtered");
                assert_eq!(lo, hi, "point lookups are equalities");
            }
        }
    }

    #[test]
    fn fewer_dims_uses_strict_subset() {
        let ds = dataset();
        let w = Workload::generate(WorkloadKind::FewerDims, &ds, 15, 0.001, 1);
        let mut used: Vec<usize> = Vec::new();
        for q in w.train.iter().chain(&w.test) {
            for d in q.filtered_dims() {
                if !used.contains(&d) {
                    used.push(d);
                }
            }
        }
        assert!(
            used.len() < ds.table.dims(),
            "must be a strict subset: {used:?}"
        );
    }

    #[test]
    fn many_dims_filters_everything() {
        let ds = dataset();
        let w = Workload::generate(WorkloadKind::ManyDims, &ds, 10, 0.001, 1);
        for q in &w.test {
            assert_eq!(q.num_filtered(), ds.table.dims());
        }
    }

    #[test]
    fn train_and_test_differ_but_same_shape() {
        let ds = dataset();
        let w = Workload::generate(WorkloadKind::OlapSkewed, &ds, 25, 0.001, 1);
        assert_ne!(w.train, w.test);
        // Same distribution ⇒ every query's filtered-dim signature comes
        // from the template set (both splits draw the same templates).
        let allowed: Vec<Vec<usize>> = ds
            .kind
            .olap_templates()
            .iter()
            .map(|t| {
                let mut d = t.dims();
                d.sort_unstable();
                d
            })
            .collect();
        for q in w.train.iter().chain(&w.test) {
            let mut sig = q.filtered_dims();
            sig.sort_unstable();
            assert!(allowed.contains(&sig), "unexpected signature {sig:?}");
        }
    }
}
