//! # flood-obs
//!
//! The Flood workspace's runtime telemetry: a lock-free metrics registry,
//! dependency-free so every other crate can report through it.
//!
//! The paper's premise is that layout decisions should follow *measured*
//! workload behavior; this crate is where those measurements live at
//! runtime rather than only inside `repro` experiments.
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles sit behind a [`Registry`]
//! keyed by `(subsystem, name)`. Recording is relaxed atomics only; the
//! registry mutex is touched at registration and snapshot time.
//! [`Histogram`] is log2-bucketed with 32 linear sub-buckets per octave,
//! bounding percentile error to ~3.1% ([`Histogram::RELATIVE_ERROR`]) in
//! constant memory — the same type the bench harness derives its reported
//! percentiles from. [`MetricsSnapshot`] renders the Prometheus text
//! exposition.
//!
//! Every `flood-serve` server counts its serving events in its own
//! registry, always on, and exposes it through `Server::metrics_snapshot()`;
//! `repro --metrics PATH` dumps the process-global registry
//! ([`metrics::global`]) for any experiment.

pub mod metrics;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricKind, MetricValue, MetricsSnapshot, Registry,
};

// Handles are shared across reader threads and the adaptation thread;
// anything non-Send/Sync here must fail to compile, not race.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Counter>();
    _assert_send_sync::<Gauge>();
    _assert_send_sync::<Histogram>();
    _assert_send_sync::<Registry>();
    _assert_send_sync::<MetricsSnapshot>();
};
