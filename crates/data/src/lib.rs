//! # flood-data
//!
//! Synthetic dataset and query-workload generators for the Flood evaluation
//! (§7.3). Each generator reproduces the *statistical shape* the paper's
//! datasets expose to an index — marginal skew, dimension count, correlation
//! structure, query templates and selectivities — per the substitution table
//! in DESIGN.md (the paper's sales/OSM/perfmon data are proprietary or
//! multi-GB downloads).
//!
//! All generators are deterministic given a seed, so experiments are
//! reproducible run-to-run.

pub mod datasets;
pub mod dist;
pub mod workloads;

pub use datasets::{Dataset, DatasetKind};
pub use workloads::{
    DimFilter, DriftConfig, DriftPhase, DriftingWorkload, QueryTemplate, Workload, WorkloadKind,
};
