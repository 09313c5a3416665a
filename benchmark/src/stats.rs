//! The benchmark's own arithmetic: exact percentiles, medians and a stable
//! hash. Latency percentiles are computed here from raw samples, never
//! from the `flood-obs` histogram — the instrument under test is not the
//! measuring device.

/// Exact nearest-rank percentile of an ascending-sorted sample: the
/// smallest value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of measurements (lower middle for even counts,
/// so the value is always one that was measured).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    v[(v.len() - 1) / 2]
}

/// Arithmetic mean; 0 for an empty set (a layer that saw no work).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// `num / den`, 0 when the denominator is 0 (a ratio over no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: the fingerprint / checksum hash. Owned by the
/// benchmark so recorded fingerprints never depend on a library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        // Nearest rank never interpolates: with 4 samples the median is
        // the 2nd, the p99 the 4th.
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 0.5), 20);
        assert_eq!(percentile(&s, 0.51), 30);
        assert_eq!(percentile(&s, 0.99), 40);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.5]), 5.5);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::default();
        a.words(&[1, 2, 3]);
        let mut b = Fnv::default();
        b.words(&[3, 2, 1]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Fnv::default();
        c.words(&[1, 2, 3]);
        assert_eq!(a.hex(), c.hex());
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
    }
}
