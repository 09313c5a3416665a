//! Execution statistics, the raw material for Table 2 of the paper.
//!
//! Scan overhead (SO) = points scanned / result size; it is "implementation
//! agnostic" and "a good proxy for overall query performance" (§7.4). Every
//! index records these counters while executing so the performance breakdown
//! can be regenerated.

use flood_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counters collected while executing a single query (or accumulated over a
/// workload).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanStats {
    /// Rows whose columns were inspected (including non-matching rows).
    pub points_scanned: u64,
    /// Rows visited inside *exact* sub-ranges (no per-row checks needed).
    pub points_in_exact_ranges: u64,
    /// Rows that matched the query (result size).
    pub points_matched: u64,
    /// Cells / pages / leaves the index visited during projection.
    pub cells_visited: u64,
    /// Cells inside the query's projected rectangle, including empty ones —
    /// the cost model's N_c (only meaningful for grid-based indexes).
    pub cells_projected: u64,
    /// Refinement operations performed (model or binary-search lookups).
    pub refinements: u64,
    /// Physical sub-ranges scanned (for run-length locality statistics).
    pub ranges_scanned: u64,
    /// Blocks the scan kernel dismissed from min/max metadata alone (no
    /// word of packed data touched). Always 0 on the row-at-a-time path.
    pub blocks_skipped: u64,
    /// Blocks accepted wholesale from min/max metadata (every in-range row
    /// matches the filter). Always 0 on the row-at-a-time path.
    pub blocks_accepted: u64,
    /// Blocks whose packed words were compared against delta-domain bounds.
    /// Always 0 on the row-at-a-time path.
    pub blocks_probed: u64,
    /// Cold column segments this scan loaded from the storage backend
    /// (tiered scans only; always 0 for fully-resident scans).
    pub segments_faulted: u64,
    /// Column segments this scan needed that were already resident in the
    /// tier cache (tiered scans only).
    pub segments_hit: u64,
    /// Column segments overlapping the scan range that were answered from
    /// always-resident metadata alone — never acquired, so a cold segment
    /// among them cost zero disk reads (tiered scans only).
    pub segments_skipped: u64,
}

impl ScanStats {
    /// Scan overhead: total points touched (checked + exact) per matched
    /// point. 1.0 is a perfect index; `None` when nothing matched.
    pub fn scan_overhead(&self) -> Option<f64> {
        if self.points_matched == 0 {
            return None;
        }
        Some(
            (self.points_scanned + self.points_in_exact_ranges) as f64 / self.points_matched as f64,
        )
    }

    /// Average run length of scanned ranges (locality proxy used by the cost
    /// model features, §4.1.1 / Fig 5).
    pub fn avg_run_length(&self) -> f64 {
        if self.ranges_scanned == 0 {
            return 0.0;
        }
        (self.points_scanned + self.points_in_exact_ranges) as f64 / self.ranges_scanned as f64
    }

    /// Accumulate another query's stats into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.points_scanned += other.points_scanned;
        self.points_in_exact_ranges += other.points_in_exact_ranges;
        self.points_matched += other.points_matched;
        self.cells_visited += other.cells_visited;
        self.cells_projected += other.cells_projected;
        self.refinements += other.refinements;
        self.ranges_scanned += other.ranges_scanned;
        self.blocks_skipped += other.blocks_skipped;
        self.blocks_accepted += other.blocks_accepted;
        self.blocks_probed += other.blocks_probed;
        self.segments_faulted += other.segments_faulted;
        self.segments_hit += other.segments_hit;
        self.segments_skipped += other.segments_skipped;
    }

    /// This query's counters with the block counters zeroed — the shape
    /// differential tests compare across the block and row paths, where
    /// every shared counter must agree but block counters exist on one
    /// side only.
    pub fn sans_block_counters(&self) -> ScanStats {
        ScanStats {
            blocks_skipped: 0,
            blocks_accepted: 0,
            blocks_probed: 0,
            ..*self
        }
    }

    /// This query's counters with the tiered-storage segment counters
    /// zeroed — the tiered ≡ resident differential suite compares a tiered
    /// scan against a fully-resident one, where every shared counter
    /// (block counters included) must agree but segment counters exist on
    /// the tiered side only. Mirrors [`ScanStats::sans_block_counters`].
    pub fn sans_tier_counters(&self) -> ScanStats {
        ScanStats {
            segments_faulted: 0,
            segments_hit: 0,
            segments_skipped: 0,
            ..*self
        }
    }
}

/// Registered counter handles mirroring every [`ScanStats`] field — the
/// bridge from the per-query stats structs into a `flood-obs` registry.
/// Register once (cheap and idempotent), then [`ScanStatsMetrics::record`]
/// each finished query's stats; the registry exposes the running totals.
#[derive(Debug, Clone)]
pub struct ScanStatsMetrics {
    points_scanned: Arc<Counter>,
    points_in_exact_ranges: Arc<Counter>,
    points_matched: Arc<Counter>,
    cells_visited: Arc<Counter>,
    cells_projected: Arc<Counter>,
    refinements: Arc<Counter>,
    ranges_scanned: Arc<Counter>,
    blocks_skipped: Arc<Counter>,
    blocks_accepted: Arc<Counter>,
    blocks_probed: Arc<Counter>,
    segments_faulted: Arc<Counter>,
    segments_hit: Arc<Counter>,
    segments_skipped: Arc<Counter>,
}

impl ScanStatsMetrics {
    /// Register (or look up) the scan counter set under `subsystem` in
    /// `registry`. Two bridges built against the same registry and
    /// subsystem share the same underlying counters.
    pub fn register(registry: &Registry, subsystem: &str) -> Self {
        let c = |name: &str| registry.counter(subsystem, name);
        ScanStatsMetrics {
            points_scanned: c("points_scanned"),
            points_in_exact_ranges: c("points_in_exact_ranges"),
            points_matched: c("points_matched"),
            cells_visited: c("cells_visited"),
            cells_projected: c("cells_projected"),
            refinements: c("refinements"),
            ranges_scanned: c("ranges_scanned"),
            blocks_skipped: c("blocks_skipped"),
            blocks_accepted: c("blocks_accepted"),
            blocks_probed: c("blocks_probed"),
            segments_faulted: c("segments_faulted"),
            segments_hit: c("segments_hit"),
            segments_skipped: c("segments_skipped"),
        }
    }

    /// Accumulate one query's (or one merged batch's) stats into the
    /// registry. Relaxed atomic adds only.
    pub fn record(&self, stats: &ScanStats) {
        self.points_scanned.add(stats.points_scanned);
        self.points_in_exact_ranges
            .add(stats.points_in_exact_ranges);
        self.points_matched.add(stats.points_matched);
        self.cells_visited.add(stats.cells_visited);
        self.cells_projected.add(stats.cells_projected);
        self.refinements.add(stats.refinements);
        self.ranges_scanned.add(stats.ranges_scanned);
        self.blocks_skipped.add(stats.blocks_skipped);
        self.blocks_accepted.add(stats.blocks_accepted);
        self.blocks_probed.add(stats.blocks_probed);
        self.segments_faulted.add(stats.segments_faulted);
        self.segments_hit.add(stats.segments_hit);
        self.segments_skipped.add(stats.segments_skipped);
    }
}

/// Assert that two scan-stat sets are equivalent across scan paths: every
/// shared counter must agree, block counters aside (they exist only on the
/// block path) and segment counters aside (they exist only on the tiered
/// side).
///
/// This is *the* stats-equivalence check the differential and property
/// suites share; `label` names the comparison in the panic message.
///
/// # Panics
/// When the two stat sets disagree on any compared counter.
#[track_caller]
pub fn assert_stats_equivalent(got: &ScanStats, want: &ScanStats, label: &str) {
    assert_eq!(
        got.sans_block_counters().sans_tier_counters(),
        want.sans_block_counters().sans_tier_counters(),
        "scan stats diverge across scan paths: {label}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_overhead() {
        let s = ScanStats {
            points_scanned: 90,
            points_in_exact_ranges: 10,
            points_matched: 50,
            ..Default::default()
        };
        assert_eq!(s.scan_overhead(), Some(2.0));
    }

    #[test]
    fn scan_overhead_no_matches() {
        let s = ScanStats::default();
        assert_eq!(s.scan_overhead(), None);
    }

    #[test]
    fn run_length() {
        let s = ScanStats {
            points_scanned: 100,
            ranges_scanned: 4,
            ..Default::default()
        };
        assert_eq!(s.avg_run_length(), 25.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ScanStats {
            points_scanned: 1,
            points_matched: 1,
            cells_visited: 2,
            ..Default::default()
        };
        let b = ScanStats {
            points_scanned: 9,
            points_matched: 4,
            refinements: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.points_scanned, 10);
        assert_eq!(a.points_matched, 5);
        assert_eq!(a.cells_visited, 2);
        assert_eq!(a.refinements, 3);
    }

    #[test]
    fn metrics_bridge_accumulates_every_field() {
        let reg = Registry::new();
        let bridge = ScanStatsMetrics::register(&reg, "scan");
        let s = ScanStats {
            points_scanned: 1,
            points_in_exact_ranges: 2,
            points_matched: 3,
            cells_visited: 4,
            cells_projected: 5,
            refinements: 6,
            ranges_scanned: 7,
            blocks_skipped: 8,
            blocks_accepted: 9,
            blocks_probed: 10,
            segments_faulted: 11,
            segments_hit: 12,
            segments_skipped: 13,
        };
        bridge.record(&s);
        bridge.record(&s);
        let snap = reg.snapshot();
        for (name, want) in [
            ("points_scanned", 2),
            ("points_in_exact_ranges", 4),
            ("points_matched", 6),
            ("cells_visited", 8),
            ("cells_projected", 10),
            ("refinements", 12),
            ("ranges_scanned", 14),
            ("blocks_skipped", 16),
            ("blocks_accepted", 18),
            ("blocks_probed", 20),
            ("segments_faulted", 22),
            ("segments_hit", 24),
            ("segments_skipped", 26),
        ] {
            assert_eq!(snap.counter("scan", name), Some(want), "{name}");
        }
    }

    #[test]
    fn metrics_bridge_shares_counters_by_subsystem() {
        let reg = Registry::new();
        let a = ScanStatsMetrics::register(&reg, "scan");
        let b = ScanStatsMetrics::register(&reg, "scan");
        let one = ScanStats {
            points_matched: 1,
            ..Default::default()
        };
        a.record(&one);
        b.record(&one);
        assert_eq!(reg.snapshot().counter("scan", "points_matched"), Some(2));
    }

    #[test]
    fn equivalence_ignores_block_counters_and_timing() {
        let packed = ScanStats {
            points_scanned: 10,
            points_matched: 4,
            blocks_skipped: 3,
            blocks_accepted: 1,
            blocks_probed: 2,
            ..Default::default()
        };
        let plain = ScanStats {
            points_scanned: 10,
            points_matched: 4,
            ..Default::default()
        };
        assert_stats_equivalent(&packed, &plain, "packed vs plain");
    }

    #[test]
    fn equivalence_ignores_tier_counters() {
        let tiered = ScanStats {
            points_scanned: 10,
            points_matched: 4,
            segments_faulted: 2,
            segments_hit: 1,
            segments_skipped: 5,
            ..Default::default()
        };
        let resident = ScanStats {
            points_scanned: 10,
            points_matched: 4,
            ..Default::default()
        };
        assert_stats_equivalent(&tiered, &resident, "tiered vs resident");
        assert_eq!(tiered.sans_tier_counters(), resident);
    }

    #[test]
    fn sans_tier_counters_keeps_block_counters() {
        let s = ScanStats {
            blocks_skipped: 3,
            blocks_probed: 1,
            segments_faulted: 7,
            ..Default::default()
        };
        let t = s.sans_tier_counters();
        assert_eq!(t.blocks_skipped, 3);
        assert_eq!(t.blocks_probed, 1);
        assert_eq!(t.segments_faulted, 0);
    }

    #[test]
    #[should_panic(expected = "scan stats diverge")]
    fn equivalence_catches_shared_counter_drift() {
        let a = ScanStats {
            points_scanned: 10,
            ..Default::default()
        };
        let b = ScanStats {
            points_scanned: 11,
            ..Default::default()
        };
        assert_stats_equivalent(&a, &b, "drift");
    }
}
