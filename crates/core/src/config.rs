//! Build-time configuration for a [`FloodIndex`](crate::index::FloodIndex).
//!
//! What to index — the dimensions, their columns, and the soft FDs to
//! tighten through — is the [`Layout`]'s; these knobs only say how to
//! store and refine it.

use crate::flatten::Flattening;
use crate::layout::Layout;
use serde::{Deserialize, Serialize};

/// How refinement (§3.2.2) locates the per-cell physical sub-range over the
/// sort dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Refinement {
    /// Per-cell piecewise linear models with exponential-search
    /// rectification (§5.2 — the full Flood design).
    #[default]
    Plm,
    /// Plain binary search within each cell (the §3.2.2 baseline; the
    /// "learned per-cell models" ablation of Fig 17).
    BinarySearch,
}

/// Configuration knobs for building a Flood index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FloodConfig {
    /// CDF models used to place points into grid columns.
    pub flattening: Flattening,
    /// Refinement strategy over the sort dimension. The per-cell PLMs use
    /// the paper's error budget δ = 50; cells of at most one block's rows
    /// get no PLM and are refined by ranking their packed values.
    pub refinement: Refinement,
    /// Compress the reordered data copy with block-delta encoding.
    pub compress: bool,
    /// Dimensions to pre-build cumulative SUM columns for (enables the O(1)
    /// exact-range aggregation fast path of §7.1 on those dimensions).
    pub cumulative_dims: Vec<usize>,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            flattening: Flattening::Learned,
            refinement: Refinement::Plm,
            compress: false,
            cumulative_dims: Vec::new(),
        }
    }
}

/// Fluent builder for [`FloodIndex`](crate::index::FloodIndex).
///
/// ```
/// use flood_core::{FloodBuilder, Layout};
/// use flood_store::Table;
///
/// let table = Table::from_columns(vec![(0..100u64).collect(), (0..100u64).rev().collect()]);
/// let index = FloodBuilder::new()
///     .layout(Layout::new(vec![0, 1], vec![4]))
///     .compress(true)
///     .build(&table);
/// assert_eq!(index.layout().num_cells(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FloodBuilder {
    layout: Option<Layout>,
    cfg: FloodConfig,
}

impl FloodBuilder {
    /// Start a builder with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the layout (required; learn one with
    /// [`LayoutOptimizer`](crate::optimizer::LayoutOptimizer) first to get
    /// the paper's automatic path).
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Set the flattening mode (default: learned RMI CDFs).
    pub fn flattening(mut self, f: Flattening) -> Self {
        self.cfg.flattening = f;
        self
    }

    /// Set the refinement strategy (default: per-cell PLMs).
    pub fn refinement(mut self, r: Refinement) -> Self {
        self.cfg.refinement = r;
        self
    }

    /// Store the reordered data block-delta compressed (default off).
    pub fn compress(mut self, on: bool) -> Self {
        self.cfg.compress = on;
        self
    }

    /// Pre-build a cumulative SUM column over `dim` for O(1) exact-range
    /// SUM aggregation.
    pub fn cumulative_sum(mut self, dim: usize) -> Self {
        self.cfg.cumulative_dims.push(dim);
        self
    }

    /// Current configuration (for inspection / tests).
    pub fn config(&self) -> &FloodConfig {
        &self.cfg
    }

    /// Build the index over `table` with the configured layout.
    ///
    /// # Panics
    /// Panics if no layout was provided.
    pub fn build(self, table: &flood_store::Table) -> crate::index::FloodIndex {
        let layout = self.layout.expect("FloodBuilder: layout is required");
        crate::index::FloodIndex::build(table, layout, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FloodConfig::default();
        assert_eq!(c.flattening, Flattening::Learned);
        assert_eq!(c.refinement, Refinement::Plm);
    }

    #[test]
    fn builder_accumulates() {
        let b = FloodBuilder::new()
            .flattening(Flattening::Uniform)
            .refinement(Refinement::BinarySearch)
            .compress(true)
            .cumulative_sum(3);
        assert_eq!(b.config().flattening, Flattening::Uniform);
        assert_eq!(b.config().refinement, Refinement::BinarySearch);
        assert!(b.config().compress);
        assert_eq!(b.config().cumulative_dims, vec![3]);
    }

    #[test]
    #[should_panic(expected = "layout is required")]
    fn build_without_layout_panics() {
        let t = flood_store::Table::from_columns(vec![vec![1, 2, 3]]);
        let _ = FloodBuilder::new().build(&t);
    }
}
