//! Tiered storage: query latency when the table is several times larger
//! than the memory budget.
//!
//! The dataset is sealed into checksummed cold segments on disk
//! (`FileBackend`) with a `SegmentCache` budget of **a quarter of the
//! cold bytes** (override with `FLOOD_MEM_BUDGET`), so at steady state at
//! least ~75% of segments are non-resident and every workload pass faults
//! segments back in through the LRU. The *resident* reference is the same
//! kernel with an unlimited budget and a warmed cache — the measured gap
//! is purely the cost of faulting cold segments, not a different scan.
//!
//! Reported per selectivity: resident p50, cold p50, and the degradation
//! ratio (ARCHITECTURE.md commits to ≤5× at ≥50% cold on release
//! builds). Cache behaviour (faults, hits, evictions, residency) is
//! published through `flood-obs` gauges under the `tier` subsystem and
//! lands in `repro --metrics` output. A final delta phase buffers fresh
//! inserts and compacts them into new sealed segments, reporting the
//! cold-bytes growth.

use super::ExpConfig;
use crate::phases::time_phase;
use flood_data::{DatasetKind, Workload, WorkloadKind};
use flood_store::{
    CountVisitor, FileBackend, MultiDimIndex, RangeQuery, StorageBackend, TierConfig, TieredDelta,
    TieredScan, BLOCK_LEN,
};
use std::sync::Arc;
use std::time::Instant;

/// What one tiered run measured (returned for the smoke test's asserts).
pub struct TieredSummary {
    /// Rows sealed.
    pub rows: usize,
    /// Bytes of sealed cold segments.
    pub cold_bytes: usize,
    /// The cache budget the cold run used.
    pub budget_bytes: usize,
    /// `cold_bytes / budget_bytes` — the acceptance floor is ≥4×.
    pub data_over_budget_x: f64,
    /// Fraction of segments non-resident after the cold run.
    pub cold_frac: f64,
    /// Segment faults during the cold run.
    pub faults: u64,
    /// Cache hits during the cold run.
    pub hits: u64,
    /// Evictions during the cold run.
    pub evictions: u64,
    /// `(selectivity, resident p50 ns, cold p50 ns)` per workload.
    pub p50: Vec<(f64, u64, u64)>,
    /// Median degradation ratio across the selectivity sweep.
    pub degradation_p50_x: f64,
    /// Rows appended and sealed by the delta phase.
    pub appended: usize,
    /// Cold bytes after compaction (> `cold_bytes`).
    pub cold_bytes_after_append: usize,
}

/// Drive every query once (COUNT, no aggregate) and return per-query
/// latencies.
fn drive(scan: &TieredScan, queries: &[RangeQuery]) -> Vec<u64> {
    let mut ns = Vec::with_capacity(queries.len());
    for q in queries {
        let mut v = CountVisitor::default();
        let t = Instant::now();
        scan.execute(q, None, &mut v);
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns
}

/// Exact (sorted, nearest-rank) p50.
fn exact_p50(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[(ns.len() - 1) / 2]
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    xs[(xs.len() - 1) / 2]
}

/// Run the tiered measurement; the returned summary carries every number
/// the report emits.
pub fn run_tiered(cfg: &ExpConfig) -> TieredSummary {
    let ds = time_phase("data-gen", || {
        DatasetKind::Osm.generate(cfg.rows(DatasetKind::Osm), cfg.seed)
    });
    let rows = ds.table.len();

    // Seal twice over one on-disk backend family: the cold run under the
    // constrained budget, the resident reference with an unlimited one.
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::new_temp().expect("temp dir for cold segments"));
    let resident = time_phase("index-build", || {
        TieredScan::seal(
            &ds.table,
            backend.clone(),
            TierConfig {
                budget_bytes: usize::MAX,
                ..Default::default()
            },
        )
        .expect("seal resident reference")
    });
    let cold_bytes = resident.data().cold_bytes();
    // A quarter of the data resident by default; FLOOD_MEM_BUDGET overrides
    // (the same knob the differential suites use to force cold coverage).
    let cfg_cold = TierConfig {
        budget_bytes: cold_bytes / 4,
        ..Default::default()
    }
    .from_env();
    let budget_bytes = cfg_cold.budget_bytes;
    let cold = time_phase("index-build", || {
        TieredScan::seal(&ds.table, backend.clone(), cfg_cold).expect("seal cold run")
    });

    // Selectivity sweep, one workload per point (the paper's default 0.1%
    // plus two wider ones so full-block exact accepts and probe-heavy
    // shapes both appear).
    let sweep = [0.001, 0.01, 0.1];
    let workloads: Vec<(f64, Workload)> = sweep
        .iter()
        .map(|&sel| {
            let w = time_phase("data-gen", || {
                Workload::generate(WorkloadKind::OlapSkewed, &ds, cfg.queries, sel, cfg.seed)
            });
            (sel, w)
        })
        .collect();

    // Warm the resident cache completely: after this pass its budget never
    // evicts, so the reference run is fully in-memory by construction.
    drive(&resident, &workloads[0].1.test);

    let t0 = Instant::now();
    let mut p50 = Vec::new();
    let mut ratios = Vec::new();
    for (sel, w) in &workloads {
        let r = exact_p50(drive(&resident, &w.test));
        // One un-timed cold pass first: steady-state LRU churn, not a
        // first-touch cliff, is the regime under test.
        drive(&cold, &w.test);
        let c = exact_p50(drive(&cold, &w.test));
        ratios.push(c as f64 / r.max(1) as f64);
        p50.push((*sel, r, c));
    }
    crate::phases::record_phase("query-exec", t0.elapsed());

    let cache = cold.data().cache();
    let n_segs = cold.data().n_segments() * cold.data().dims();
    let cold_frac = 1.0 - cache.resident_segments() as f64 / n_segs.max(1) as f64;
    let (faults, hits, evictions) = (cache.faults(), cache.hits(), cache.evictions());
    cache.publish_gauges(flood_obs::metrics::global(), "tier");

    // Delta phase: buffer 1% fresh rows, compact into new sealed segments.
    let appended = (rows / 100).max(2 * BLOCK_LEN);
    let mut delta = TieredDelta::new(cold.data().clone());
    let t0 = Instant::now();
    let dims = ds.table.dims();
    for i in 0..appended {
        let row: Vec<u64> = (0..dims)
            .map(|d| ((i * 37 + d * 11) % 10_000) as u64)
            .collect();
        delta.insert(&row).expect("buffer insert");
    }
    delta
        .compact()
        .expect("compact fresh rows into cold segments");
    crate::phases::record_phase("index-build", t0.elapsed());
    let cold_bytes_after_append = delta.base().cold_bytes();

    TieredSummary {
        rows,
        cold_bytes,
        budget_bytes,
        data_over_budget_x: cold_bytes as f64 / budget_bytes.max(1) as f64,
        cold_frac,
        faults,
        hits,
        evictions,
        p50,
        degradation_p50_x: median_f64(ratios),
        appended,
        cold_bytes_after_append,
    }
}

/// Run the experiment at the configured scale.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== tiered storage (larger-than-RAM tables) ===");
    let s = run_tiered(cfg);
    println!(
        "{} rows sealed to {} KiB cold; budget {} KiB ({:.1}x data/budget), {:.0}% segments cold",
        s.rows,
        s.cold_bytes / 1024,
        s.budget_bytes / 1024,
        s.data_over_budget_x,
        s.cold_frac * 100.0,
    );
    println!(
        "{:<12} {:>16} {:>14} {:>12}",
        "selectivity", "resident p50(us)", "cold p50(us)", "degradation"
    );
    for (sel, r, c) in &s.p50 {
        println!(
            "{:<12} {:>16.1} {:>14.1} {:>11.2}x",
            format!("{:.3}%", sel * 100.0),
            *r as f64 / 1_000.0,
            *c as f64 / 1_000.0,
            *c as f64 / (*r).max(1) as f64,
        );
    }
    println!(
        "cache: {} faults, {} hits, {} evictions; delta: {} rows appended, cold {} -> {} KiB. \
         median degradation {:.2}x; budget: cold p50 <= 5x resident at >=50% cold on \
         release builds.",
        s.faults,
        s.hits,
        s.evictions,
        s.appended,
        s.cold_bytes / 1024,
        s.cold_bytes_after_append / 1024,
        s.degradation_p50_x,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiered harness end to end at tiny scale: data is genuinely
    /// larger than the budget, the cold run faults and evicts, both sides
    /// answer every query, and the delta phase grows the cold tier. The
    /// ≤5× degradation budget itself is release-mode and CI-gated — here
    /// the ratio just has to be finite and positive.
    #[test]
    fn tiered_harness_measures_cold_regime() {
        let cfg = ExpConfig {
            scale: 0.05,
            queries: 6,
            ..Default::default()
        };
        let s = run_tiered(&cfg);
        assert!(s.rows >= 1_000);
        assert!(
            s.data_over_budget_x >= 3.9,
            "the cold run must be genuinely larger than RAM: {:.1}x",
            s.data_over_budget_x
        );
        assert!(
            s.cold_frac >= 0.5,
            "most segments must be cold at steady state: {:.2}",
            s.cold_frac
        );
        assert!(s.faults > 0, "the cold run must fault segments in");
        assert!(s.evictions > 0, "the LRU must evict under a 1/4 budget");
        assert_eq!(s.p50.len(), 3);
        for (sel, r, c) in &s.p50 {
            assert!(*r > 0 && *c > 0, "sel {sel}: both sides measured");
        }
        assert!(s.degradation_p50_x.is_finite() && s.degradation_p50_x > 0.0);
        assert!(s.appended > 0);
        assert!(
            s.cold_bytes_after_append > s.cold_bytes,
            "compaction must seal new cold segments"
        );
    }
}
