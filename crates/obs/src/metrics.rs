//! The lock-free metrics layer: counters, gauges, log2-bucketed latency
//! histograms, and the [`Registry`] that names them and snapshots them for
//! the Prometheus exposition.
//!
//! Hot-path cost is the design constraint — metrics are always on in the
//! serving layer, so every update is a handful of relaxed atomic
//! read-modify-writes on handles the caller acquired once at registration
//! time. The registry's mutex guards *registration and snapshotting only*;
//! recording never takes a lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (relaxed atomic adds).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a point-in-time signed value (queue depth, pinned readers).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2^5 = 32, bounding the relative
/// quantization error of any recorded value (and thus any derived
/// percentile) to `2^-SUB_BITS` ≈ 3.1%.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Mask selecting the sub-bucket bits.
const SUB_MASK: u64 = (SUB as u64) - 1;
/// Total buckets: values `< SUB` get exact unit buckets; each msb position
/// `SUB_BITS..=63` contributes `SUB` linear buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a value (total order preserving).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & SUB_MASK;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub as usize
}

/// The midpoint of bucket `idx`'s value range — the representative a
/// percentile query reports.
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = (idx >> SUB_BITS) as u32;
    let sub = (idx & (SUB - 1)) as u64;
    let msb = octave + SUB_BITS - 1;
    let width = 1u64 << (msb - SUB_BITS);
    (1u64 << msb) + sub * width + width / 2
}

/// Derived percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A log2-bucketed histogram with linear sub-buckets: fixed memory, relaxed
/// atomic recording, percentiles within [`Histogram::RELATIVE_ERROR`] of the
/// exact sample percentiles.
///
/// Designed for latencies in nanoseconds but domain-agnostic: any `u64`
/// distribution spanning many orders of magnitude fits, which is why the
/// bench harness derives its reported percentiles from this exact type
/// (cross-checked against sorted-sample percentiles in `flood-bench`).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Stored as the value itself; `u64::MAX` = nothing recorded yet.
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Upper bound on `|reported − exact| / exact` for any percentile
    /// (half a sub-bucket width, plus rank rounding at tiny counts).
    pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << SUB_BITS) as f64;

    /// An empty histogram (~15 KiB of buckets).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice().try_into().expect("BUCKETS len"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (five relaxed atomic RMWs, no lock).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) using the same rank convention as a
    /// sorted-sample lookup: `sorted[round((len - 1) * q)]`, reported as
    /// the holding bucket's midpoint (clamped into the observed min/max so
    /// an exact-valued distribution reports exact extremes). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen > rank {
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return bucket_mid(idx).clamp(min, max);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Count, sum, min/max, and the standard percentile set.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        if count == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count,
            sum: self.sum(),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// What kind of metric a registry entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Latency/size distribution.
    Histogram,
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Entry {
    fn kind(&self) -> MetricKind {
        match self {
            Entry::Counter(_) => MetricKind::Counter,
            Entry::Gauge(_) => MetricKind::Gauge,
            Entry::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram percentile summary.
    Histogram(HistogramSummary),
}

/// A point-in-time copy of every metric in a [`Registry`], ordered by
/// `(subsystem, name)` — the exposition types render from this.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(subsystem, name, value)` rows, sorted.
    pub values: Vec<(String, String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one metric.
    pub fn get(&self, subsystem: &str, name: &str) -> Option<&MetricValue> {
        self.values
            .iter()
            .find(|(s, n, _)| s == subsystem && n == name)
            .map(|(_, _, v)| v)
    }

    /// A counter's value, when `(subsystem, name)` is a counter.
    pub fn counter(&self, subsystem: &str, name: &str) -> Option<u64> {
        match self.get(subsystem, name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, when `(subsystem, name)` is a gauge.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Option<i64> {
        match self.get(subsystem, name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's summary, when `(subsystem, name)` is a histogram.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Option<HistogramSummary> {
        match self.get(subsystem, name)? {
            MetricValue::Histogram(h) => Some(*h),
            _ => None,
        }
    }

    /// Subsystems present in this snapshot, deduplicated, in order.
    pub fn subsystems(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (s, _, _) in &self.values {
            if out.last() != Some(&s.as_str()) {
                out.push(s);
            }
        }
        out
    }

    /// Prometheus text exposition. Counters render as
    /// `flood_<subsystem>_<name>_total`, gauges as plain values, histograms
    /// as summaries (`{quantile="…"}` series plus `_sum`/`_count`).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (subsystem, name, value) in &self.values {
            let base = format!("flood_{}_{}", sanitize(subsystem), sanitize(name));
            match value {
                MetricValue::Counter(v) => {
                    let full = if base.ends_with("_total") {
                        base
                    } else {
                        format!("{base}_total")
                    };
                    out.push_str(&format!("# TYPE {full} counter\n{full} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {base} gauge\n{base} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {base} summary\n"));
                    for (q, v) in [
                        ("0.5", h.p50),
                        ("0.9", h.p90),
                        ("0.99", h.p99),
                        ("0.999", h.p999),
                    ] {
                        out.push_str(&format!("{base}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{base}_sum {}\n", h.sum));
                    out.push_str(&format!("{base}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

/// Lowercase, `[a-z0-9_]` only — the Prometheus metric-name charset.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// Names metrics and hands out shared handles. Registration is idempotent:
/// asking for the same `(subsystem, name)` again returns the *same*
/// underlying metric, so independent components can share a counter by
/// name.
///
/// # Panics
/// Registering a name that already exists with a different kind panics —
/// that is a wiring bug, not a runtime condition.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<(String, String), Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry(&self, subsystem: &str, name: &str, make: impl FnOnce() -> Entry) -> Entry {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        let e = entries
            .entry((subsystem.to_string(), name.to_string()))
            .or_insert_with(make);
        e.clone()
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, subsystem: &str, name: &str) -> Arc<Counter> {
        match self.entry(subsystem, name, || Entry::Counter(Arc::default())) {
            Entry::Counter(c) => c,
            e => panic!("{subsystem}.{name} already registered as {:?}", e.kind()),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Arc<Gauge> {
        match self.entry(subsystem, name, || Entry::Gauge(Arc::default())) {
            Entry::Gauge(g) => g,
            e => panic!("{subsystem}.{name} already registered as {:?}", e.kind()),
        }
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Arc<Histogram> {
        match self.entry(subsystem, name, || {
            Entry::Histogram(Arc::new(Histogram::new()))
        }) {
            Entry::Histogram(h) => h,
            e => panic!("{subsystem}.{name} already registered as {:?}", e.kind()),
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            values: entries
                .iter()
                .map(|((s, n), e)| {
                    let v = match e {
                        Entry::Counter(c) => MetricValue::Counter(c.get()),
                        Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                        Entry::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (s.clone(), n.clone(), v)
                })
                .collect(),
        }
    }
}

/// The process-global registry — what `repro --metrics` exposes. Components
/// register into it directly.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_total_order_preserving_and_exact_small() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_of(v), v as usize, "unit buckets below {SUB}");
            assert_eq!(bucket_mid(v as usize), v);
        }
        let mut last = 0usize;
        for shift in 0..58 {
            let v = 37u64 << shift;
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of monotone at {v}");
            last = b;
            let mid = bucket_mid(b);
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= Histogram::RELATIVE_ERROR,
                "midpoint within bound at {v}: mid={mid} err={err}"
            );
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_percentiles_track_exact_sample_percentiles() {
        let h = Histogram::new();
        // A latency-shaped sample: two modes plus a heavy tail.
        let mut sample: Vec<u64> = Vec::new();
        for i in 0..1_000u64 {
            sample.push(20_000 + (i * 13) % 7_000);
        }
        for i in 0..100u64 {
            sample.push(250_000 + i * 977);
        }
        for i in 0..10u64 {
            sample.push(4_000_000 + i * 50_021);
        }
        for &v in &sample {
            h.record(v);
        }
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let exact = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        for q in [0.5, 0.9, 0.99, 0.999] {
            let (got, want) = (h.quantile(q), exact(q));
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(
                err <= Histogram::RELATIVE_ERROR,
                "q={q}: got {got}, exact {want}, err {err}"
            );
        }
        let s = h.summary();
        assert_eq!(s.count, sample.len() as u64);
        assert_eq!(s.sum, sample.iter().sum::<u64>());
        assert_eq!(s.min, *sorted.first().unwrap());
        assert_eq!(s.max, *sorted.last().unwrap());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn concurrent_recording_conserves_totals() {
        let h = Histogram::new();
        let c = Counter::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (h, c) = (&h, &c);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = Registry::new();
        let a = r.counter("scan", "points");
        let b = r.counter("scan", "points");
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counter("scan", "points"), Some(7));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("scan", "points");
        r.gauge("scan", "points");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("serve", "queries").add(42);
        r.gauge("epoch", "live_pinned").set(3);
        let h = r.histogram("serve", "query_ns");
        h.record(1_000);
        h.record(2_000);
        let text = r.snapshot().prometheus_text();
        assert!(text.contains("# TYPE flood_serve_queries_total counter"));
        assert!(text.contains("flood_serve_queries_total 42"));
        assert!(text.contains("# TYPE flood_epoch_live_pinned gauge"));
        assert!(text.contains("flood_epoch_live_pinned 3"));
        assert!(text.contains("flood_serve_query_ns{quantile=\"0.5\"}"));
        assert!(text.contains("flood_serve_query_ns_count 2"));
        assert!(text.contains("flood_serve_query_ns_sum 3000"));
    }

    #[test]
    fn snapshot_lookup_and_subsystems() {
        let r = Registry::new();
        r.counter("adapt", "relearns").add(2);
        r.counter("scan", "rows").add(9);
        let snap = r.snapshot();
        assert_eq!(snap.subsystems(), vec!["adapt", "scan"]);
        assert_eq!(snap.counter("adapt", "relearns"), Some(2));
        assert!(snap.get("nope", "missing").is_none());
        assert!(snap.histogram("adapt", "relearns").is_none());
    }
}
