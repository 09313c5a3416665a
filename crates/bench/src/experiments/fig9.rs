//! Fig 9: representative workload variants (FD/MD/OO/O/Ou/O1/O2/ST) on
//! TPC-H and OSM. Baselines stay tuned for the Fig 7 (skewed OLAP)
//! workload; Flood re-learns its layout per variant — the paper's point is
//! that self-optimization wins when the admin can't retune everything.

use crate::harness::{fmt_ms, index_dims, Harness, RunResult};
use flood_data::{DatasetKind, Workload, WorkloadKind};

/// Workload variants per dataset, mirroring the figure's x-axes: TPC-H is
/// the only dataset with enough dimensions and keys for MD and O2.
pub fn variants(kind: DatasetKind) -> Vec<WorkloadKind> {
    use WorkloadKind::*;
    let all = [
        FewerDims,
        ManyDims,
        Mixed,
        OlapSkewed,
        OlapUniform,
        OltpSingleKey,
        OltpTwoKeys,
        SingleType,
    ];
    let tpch_only = |v: &WorkloadKind| matches!(v, ManyDims | OltpTwoKeys);
    (all.into_iter())
        .filter(|v| kind == DatasetKind::TpcH || !tpch_only(v))
        .collect()
}

/// Run one dataset's panel; returns (variant label, per-index results).
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<(String, Vec<RunResult>)> {
    let cfg = &h.cfg;
    let ds = h.generate(|| kind.generate(cfg.rows(kind), cfg.seed));
    // 14 variant panels × 6 indexes re-measure here; at default scale a
    // smaller per-variant query budget keeps the whole figure in seconds.
    let n_queries = if cfg.full {
        cfg.queries
    } else {
        cfg.queries.min(60)
    };
    // Baselines: built once, tuned for the OLAP workload.
    let tuned_for = h.workload(&ds, WorkloadKind::OlapSkewed, n_queries);
    let fixed = h.fixed_baselines(&ds.table, &index_dims(&ds.table, &tuned_for.train));

    let agg = Some(kind.agg_dim());
    let sel = cfg.target_selectivity();
    let mut out = Vec::new();
    for v in variants(kind) {
        let w = Workload::generate(v, &ds, n_queries, sel, cfg.seed ^ 7);
        let mut results: Vec<RunResult> =
            fixed.iter().map(|idx| h.drive(idx, &w.test, agg)).collect();
        // Flood re-learns for each variant.
        let (flood, _) = h.learn_flood(&ds.table, &w.train);
        results.push(h.drive(&flood, &w.test, agg));
        out.push((v.label().to_string(), results));
    }
    out
}

/// Print both panels.
pub fn run(h: &Harness) {
    println!("\n=== Fig 9: representative workload variants ===");
    if !h.cfg.full && h.cfg.queries > 60 {
        println!("(capping at 60 queries per variant at default scale; --full uses all)");
    }
    for kind in [DatasetKind::TpcH, DatasetKind::Osm] {
        let rows = run_dataset(h, kind);
        println!("\n--- {} ---", kind.name());
        print!("{:<10}", "workload");
        for r in &rows[0].1 {
            print!(" {:>12}", r.index);
        }
        println!(" (avg ms)");
        for (label, results) in &rows {
            print!("{label:<10}");
            for r in results {
                print!(" {:>12}", fmt_ms(r.avg_ms()));
            }
            println!();
        }
    }
}
