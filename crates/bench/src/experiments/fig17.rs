//! Fig 17: per-cell CDF models (§7.8) — (a) PLM vs RMI vs binary search on
//! OSM timestamps and staggered-uniform data; (b) the δ size/speed tradeoff.

use crate::harness::{fmt_bytes, Harness};
use flood_data::datasets::osm;
use flood_learned::plm::PiecewiseLinearModel;
use flood_learned::rmi::{Rmi, RmiConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Staggered uniform data: "uniform over identically sized but disjoint
/// intervals".
pub fn staggered_uniform(n: usize, intervals: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = 1_000_000u64;
    let gap = 9_000_000u64;
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            let i = rng.gen_range(0..intervals as u64);
            i * (width + gap) + rng.gen_range(0..width)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Average lookup time (ns) of `lookup(probe)` over the probe set.
fn time_lookups(h: &Harness, probes: &[u64], mut lookup: impl FnMut(u64) -> usize) -> f64 {
    let (sink, elapsed) = h.phases.time("query-exec", || {
        probes
            .iter()
            .fold(0usize, |sink, &p| sink.wrapping_add(lookup(p)))
    });
    std::hint::black_box(sink);
    elapsed.as_nanos() as f64 / probes.len().max(1) as f64
}

fn probes(values: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| values[rng.gen_range(0..values.len())])
        .collect()
}

/// (a) Compare the three per-cell model options on one sorted value set.
pub fn compare(h: &Harness, values: &[u64], label: &str, n_probes: usize) {
    let p = probes(values, n_probes, h.cfg.seed);
    let plm = PiecewiseLinearModel::build_default(values);
    let rmi = Rmi::build(values, RmiConfig::default());
    let t_plm = time_lookups(h, &p, |v| plm.lookup_lb(v, |i| values[i]));
    let t_rmi = time_lookups(h, &p, |v| rmi.lookup_lb(v, |i| values[i]));
    let t_bin = time_lookups(h, &p, |v| values.partition_point(|&x| x < v));
    println!(
        "{label:<22} {:>10.1} {:>10.1} {:>10.1} {:>9} {:>10}",
        t_plm,
        t_rmi,
        t_bin,
        plm.num_segments(),
        fmt_bytes(plm.size_bytes()),
    );
}

/// `base × scale`, floored so models still have something to learn.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(2_000)
}

/// Human label for a value count ("30k", "1.0M").
fn fmt_count(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else {
        format!("{}k", n / 1_000)
    }
}

/// Sorted OSM timestamps (`data-gen`).
fn osm_timestamps(h: &Harness, n: usize) -> Vec<u64> {
    h.generate(|| {
        let table = osm::generate(n, h.cfg.seed);
        let mut ts: Vec<u64> = (0..table.len())
            .map(|r| table.value(r, osm::COL_TIMESTAMP))
            .collect();
        ts.sort_unstable();
        ts
    })
}

/// Run both panels.
pub fn run(h: &Harness) {
    let cfg = &h.cfg;
    println!("\n=== Fig 17a: per-cell model lookup time (ns) ===");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>9} {:>10}",
        "dataset", "PLM", "RMI", "binary", "segments", "PLM size"
    );
    let n_probes = if cfg.full {
        200_000
    } else {
        scaled(50_000, cfg.scale)
    };
    // OSM timestamps (paper: 30k / 6M / 105M). The learned models' win over
    // binary search is a cache effect — it appears once the array outgrows
    // the LLC — so --full adds a 16M-value point.
    let mut osm_sizes = vec![
        scaled(30_000, cfg.scale),
        scaled(300_000, cfg.scale),
        scaled(1_000_000, cfg.scale),
    ];
    if cfg.full {
        osm_sizes.push(16_000_000);
    }
    // Tiny --scale values can collapse sizes onto scaled()'s floor; the
    // sizes are ascending, so one dedup keeps each row distinct.
    osm_sizes.dedup();
    for n in osm_sizes {
        let ts = osm_timestamps(h, n);
        compare(h, &ts, &format!("osm-{}", fmt_count(n)), n_probes);
    }
    // Staggered uniform (paper: 500k / 10M).
    let mut st_sizes = vec![scaled(500_000, cfg.scale), scaled(1_000_000, cfg.scale)];
    if cfg.full {
        st_sizes.push(10_000_000);
    }
    st_sizes.dedup();
    for n in st_sizes {
        let vals = h.generate(|| staggered_uniform(n, 20, cfg.seed));
        compare(h, &vals, &format!("staggered-{}", fmt_count(n)), n_probes);
    }

    let plm_n = scaled(300_000, cfg.scale);
    println!(
        "\n=== Fig 17b: δ tradeoff (PLM size vs lookup time, osm-{}) ===",
        fmt_count(plm_n)
    );
    let ts = osm_timestamps(h, plm_n);
    let p = probes(&ts, n_probes, cfg.seed);
    println!(
        "{:>8} {:>10} {:>12} {:>10}",
        "delta", "segments", "size", "lookup(ns)"
    );
    for delta in [2.0, 10.0, 50.0, 200.0, 1_000.0] {
        let plm = PiecewiseLinearModel::build(&ts, delta);
        let t = time_lookups(h, &p, |v| plm.lookup_lb(v, |i| ts[i]));
        println!(
            "{delta:>8} {:>10} {:>12} {t:>10.1}",
            plm.num_segments(),
            fmt_bytes(plm.size_bytes()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_uniform_is_sorted_with_gaps() {
        let v = staggered_uniform(10_000, 20, 7);
        assert_eq!(v.len(), 10_000);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        // Every value sits inside one of the 20 disjoint intervals.
        for &x in v.iter().step_by(97) {
            let within = x % 10_000_000;
            assert!(within < 1_000_000, "value {x} falls in a gap");
        }
    }
}
