//! # flood-learned
//!
//! The learned-model zoo that the Flood index is assembled from:
//!
//! * [`rmi`] — Recursive Model Index (Kraska et al., SIGMOD 2018): a two-layer
//!   hierarchy of linear models over a sorted key set. Flood uses RMIs as
//!   per-attribute CDF models for *flattening* (§5.1) and the clustered
//!   single-dimensional baseline uses one as its primary index (§7.2).
//! * [`plm`] — Piecewise Linear Model (§5.2): greedy lower-bound segments with
//!   an average-error budget δ, used as the per-cell CDF model over the sort
//!   dimension.
//! * [`eytzinger`] — a cache-optimized implicit search tree over segment
//!   boundary keys (the paper's "cache-optimized B-Tree over those values").
//! * [`cdf`] — the exact empirical CDF a learned CDF model is measured
//!   against.
//! * [`linear`] — ordinary least squares (1-D and multivariate), linear
//!   splines; building blocks for the RMI and the cost-model ablations.
//! * [`forest`] — a from-scratch CART random-forest regressor; the paper
//!   trains its cost-model weights with SciPy's random forest (§4.1.1), we
//!   reproduce the model class natively.
//! * [`search`] — exponential (galloping) search used to rectify model
//!   mispredictions.

pub mod cdf;
pub mod eytzinger;
pub mod forest;
pub mod linear;
pub mod plm;
pub mod rmi;
pub mod search;

pub use cdf::EmpiricalCdf;
pub use eytzinger::Eytzinger;
pub use forest::{RandomForest, RandomForestConfig};
pub use linear::{LinearModel, LinearSpline, MultiLinearModel};
pub use plm::PiecewiseLinearModel;
pub use rmi::Rmi;
pub use search::{exponential_search_lb, exponential_search_ub};
