//! # flood-core
//!
//! Flood: a learned multi-dimensional in-memory index, reproducing
//! *Learning Multi-dimensional Indexes* (Nathan, Ding, Alizadeh, Kraska —
//! SIGMOD 2020).
//!
//! Flood is a clustered index: it chooses the physical storage order of the
//! data. Given `d` indexed dimensions it:
//!
//! 1. imposes a (d−1)-dimensional **grid** over the first d−1 dimensions of a
//!    chosen ordering, and sorts points within each cell by the d-th — the
//!    *sort dimension* (§3.1);
//! 2. **flattens** each grid dimension through a learned CDF (an RMI) so
//!    every column carries roughly equal mass regardless of skew (§5.1);
//! 3. answers a query by **projection** (find intersecting cells),
//!    **refinement** (narrow each cell's physical range via a per-cell
//!    piecewise-linear model over the sort dimension), and **scan** (§3.2);
//! 4. **learns its layout** — the dimension ordering, the sort dimension and
//!    the per-dimension column counts — for a target query workload, by
//!    minimizing a cost model whose weights are predicted by random forests
//!    calibrated on the host machine (§4).
//!
//! ## Quick start
//!
//! ```
//! use flood_core::{FloodBuilder, Layout};
//! use flood_store::{CountVisitor, MultiDimIndex, RangeQuery, Table};
//!
//! // Three attributes; we index dims {0, 1} on a grid and sort by dim 2.
//! let table = Table::from_columns(vec![
//!     (0..10_000u64).map(|i| i % 100).collect(),
//!     (0..10_000u64).map(|i| (i * 37) % 1_000).collect(),
//!     (0..10_000u64).collect(),
//! ]);
//! let layout = Layout::new(vec![0, 1, 2], vec![8, 8]);
//! let index = FloodBuilder::new().layout(layout).build(&table);
//!
//! let q = RangeQuery::all(3).with_range(0, 10, 20).with_range(2, 0, 5_000);
//! let mut count = CountVisitor::default();
//! index.execute(&q, None, &mut count);
//! assert!(count.count > 0);
//! ```
//!
//! To *learn* the layout for a workload instead of specifying one, see
//! [`optimizer::LayoutOptimizer`].

pub mod config;
pub mod correlation;
pub mod cost;
pub mod flatten;
pub mod grid;
pub mod index;
pub mod layout;
pub mod optimizer;
mod order;

pub use config::{FloodBuilder, FloodConfig, Refinement};
pub use correlation::{CorrelationConfig, CorrelationModel, SoftFd};
pub use cost::{CostModel, QueryCostEstimate, WeightModels};
pub use flatten::{Flattener, Flattening};
pub use grid::Grid;
pub use index::FloodIndex;
pub use layout::{FdPair, Layout};
pub use optimizer::{CostEvaluator, LayoutOptimizer, OptimizerConfig};
