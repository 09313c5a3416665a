//! Property suite for the flood-obs histogram: percentile accuracy against
//! the exact sorted-sample answer.
//!
//! `FLOOD_PROPTEST_CASES` scales the case count (CI raises it on push).

use flood_obs::Histogram;
use flood_testkit::{cases, splitmix};
use proptest::prelude::*;

/// A latency-shaped sample: values clustered around a scale with a heavy
/// tail, the distribution shape the histogram exists to summarize.
fn sample(seed: u64, len: usize, scale_shift: u32) -> Vec<u64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            let r = splitmix(&mut s);
            let base = (r % (1 << scale_shift)) + (1 << scale_shift);
            // ~3% of values land an extra 1–4 octaves out.
            if r % 33 == 0 {
                base << (1 + (r >> 32) % 4)
            } else {
                base
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Every quantile the summary reports stays within the documented
    /// relative-error bound of the exact sorted-sample percentile.
    #[test]
    fn quantiles_within_documented_error(
        seed in 0u64..1_000_000,
        len in 1usize..4_000,
        scale_shift in 4u32..40,
    ) {
        let vals = sample(seed, len, scale_shift);
        let h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / (exact.max(1)) as f64;
            prop_assert!(
                err <= Histogram::RELATIVE_ERROR,
                "q={} got={} exact={} err={}", q, got, exact, err
            );
        }
        prop_assert_eq!(h.summary().min, sorted[0]);
        prop_assert_eq!(h.summary().max, sorted[sorted.len() - 1]);
    }
}
