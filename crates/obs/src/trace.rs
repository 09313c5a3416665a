//! Sampled structured tracing: thread-local span stacks recorded into a
//! fixed-size ring buffer, exported as JSON lines.
//!
//! Spans cover the query lifecycle (`admit → snapshot pin → partitioned
//! scan → merge`) and the adaptation lifecycle (`observe → degradation
//! check → re-learn → epoch swap`). Tracing is off unless the `FLOOD_TRACE`
//! environment variable names a sampling rate, so the disabled hot path is
//! one relaxed atomic load and a branch.
//!
//! `FLOOD_TRACE` semantics:
//! - unset, `0`, or `off` — tracing disabled;
//! - `1` or `on` — trace every top-level span;
//! - `N` (integer > 1) — trace one in every `N` top-level spans.
//!
//! Sampling is decided at the *top* of a span stack; child spans inherit
//! the decision, so a sampled query records its whole pin/scan/merge
//! breakdown and an unsampled one records nothing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel: sampling rate not yet read from the environment.
const RATE_UNSET: u32 = u32::MAX;
/// `FLOOD_TRACE` parse failure or explicit off.
const RATE_OFF: u32 = 0;

/// 1-in-N sampling rate, lazily parsed from `FLOOD_TRACE`.
static RATE: AtomicU32 = AtomicU32::new(RATE_UNSET);
/// Top-level span sequence, shared across threads so `1-in-N` holds
/// process-wide rather than per-thread.
static SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Whether the current top-level span on this thread was sampled.
    static SAMPLED: Cell<bool> = const { Cell::new(false) };
}

/// The rate a `FLOOD_TRACE` value asks for, clamped below [`RATE_UNSET`]
/// so no setting can read as "not yet parsed".
fn parse_rate(value: &str) -> u32 {
    match value.trim() {
        "" | "0" | "off" | "false" => RATE_OFF,
        "on" | "true" => 1,
        n => n
            .parse::<u32>()
            .map_or(RATE_OFF, |every| every.min(RATE_UNSET - 1)),
    }
}

#[cold]
fn init_rate() -> u32 {
    let rate = std::env::var("FLOOD_TRACE").map_or(RATE_OFF, |v| parse_rate(&v));
    RATE.store(rate, Ordering::Relaxed);
    rate
}

/// Current sampling rate (0 = disabled). Reads the env var once.
fn rate() -> u32 {
    let r = RATE.load(Ordering::Relaxed);
    if r == RATE_UNSET {
        init_rate()
    } else {
        r
    }
}

/// Force the sampling rate, overriding `FLOOD_TRACE`. Tests and the
/// overhead experiment use this; production code should prefer the env
/// knob.
pub fn set_sampling(every: u32) {
    RATE.store(every, Ordering::Relaxed);
}

/// True when any span would currently be recorded (rate non-zero).
pub fn enabled() -> bool {
    rate() != RATE_OFF
}

/// One completed span, as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Sequence number of the *top-level* span this belongs to — all spans
    /// of one sampled query/adaptation share it.
    pub trace: u64,
    /// Nesting depth (0 = top-level).
    pub depth: u32,
    /// Span name, e.g. `"query"`, `"scan"`, `"relearn"`.
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// Free-form detail attached via [`SpanGuard::note`] (empty if none).
    pub detail: String,
}

impl SpanEvent {
    /// This event as one JSON object (a single JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut detail = String::with_capacity(self.detail.len());
        for c in self.detail.chars() {
            match c {
                '"' => detail.push_str("\\\""),
                '\\' => detail.push_str("\\\\"),
                c if (c as u32) < 0x20 => detail.push_str(&format!("\\u{:04x}", c as u32)),
                c => detail.push(c),
            }
        }
        format!(
            "{{\"trace\":{},\"depth\":{},\"span\":\"{}\",\"elapsed_ns\":{},\"detail\":\"{}\"}}",
            self.trace, self.depth, self.name, self.elapsed_ns, detail
        )
    }
}

/// Ring capacity: enough to hold the full breakdown of a few thousand
/// sampled queries without unbounded growth.
const RING_CAPACITY: usize = 8192;

struct Ring {
    events: Mutex<VecDeque<SpanEvent>>,
    dropped: AtomicU64,
}

static RING: Ring = Ring {
    events: Mutex::new(VecDeque::new()),
    dropped: AtomicU64::new(0),
};

fn push_event(ev: SpanEvent) {
    let mut events = RING.events.lock().expect("trace ring poisoned");
    if events.len() >= RING_CAPACITY {
        events.pop_front();
        RING.dropped.fetch_add(1, Ordering::Relaxed);
    }
    events.push_back(ev);
}

/// Drain and return every buffered span event (oldest first).
pub fn take_spans() -> Vec<SpanEvent> {
    let mut events = RING.events.lock().expect("trace ring poisoned");
    events.drain(..).collect()
}

/// Spans evicted from the ring because it was full, since process start.
pub fn dropped() -> u64 {
    RING.dropped.load(Ordering::Relaxed)
}

/// Drain the buffer and render it as JSON lines (one span per line).
pub fn export_jsonl() -> String {
    let mut out = String::new();
    for ev in take_spans() {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// An in-flight span. Created by [`span`]; records itself into the ring
/// buffer on drop. The disabled case is inert: no clock read, no
/// allocation.
pub struct SpanGuard {
    /// `None` when this span is not sampled.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    trace: u64,
    depth: u32,
    name: &'static str,
    start: Instant,
    detail: String,
}

impl SpanGuard {
    /// Attach free-form detail (e.g. `"rows=1024"`). No-op when the span
    /// is not sampled, so callers can pass cheap literals unconditionally;
    /// interpolate expensive detail behind [`SpanGuard::is_sampled`].
    pub fn note(&mut self, detail: &str) {
        if let Some(live) = &mut self.live {
            if !live.detail.is_empty() {
                live.detail.push(' ');
            }
            live.detail.push_str(detail);
        }
    }

    /// Whether this span will be recorded — gate expensive detail
    /// formatting on this.
    pub fn is_sampled(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        DEPTH.with(|d| d.set(live.depth));
        if live.depth == 0 {
            SAMPLED.with(|s| s.set(false));
        }
        push_event(SpanEvent {
            trace: live.trace,
            depth: live.depth,
            name: live.name,
            elapsed_ns: live.start.elapsed().as_nanos() as u64,
            detail: live.detail,
        });
    }
}

/// Open a span. Top-level calls (no enclosing span on this thread) make
/// the sampling decision; nested calls inherit it. The returned guard
/// records the span when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let rate = rate();
    if rate == RATE_OFF {
        return SpanGuard { live: None };
    }
    span_slow(name, rate)
}

fn span_slow(name: &'static str, rate: u32) -> SpanGuard {
    let depth = DEPTH.with(|d| d.get());
    let sampled = if depth == 0 {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let sampled = seq % rate as u64 == 0;
        SAMPLED.with(|s| s.set(sampled));
        sampled
    } else {
        SAMPLED.with(|s| s.get())
    };
    if !sampled {
        return SpanGuard { live: None };
    }
    DEPTH.with(|d| d.set(depth + 1));
    // All spans under one top-level span share its sequence number; SEQ has
    // already advanced past the current trace's number, hence the -1.
    let trace = SEQ.load(Ordering::Relaxed).saturating_sub(1);
    SpanGuard {
        live: Some(LiveSpan {
            trace,
            depth,
            name,
            start: Instant::now(),
            detail: String::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The RATE/SEQ/RING statics are process-global, so the trace tests
    // serialize on one mutex to avoid cross-talk.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn reset() {
        take_spans();
        SAMPLED.with(|s| s.set(false));
        DEPTH.with(|d| d.set(0));
    }

    #[test]
    fn env_rate_never_parses_to_the_unset_sentinel() {
        assert_eq!(parse_rate("4294967295"), RATE_UNSET - 1);
        assert_eq!(parse_rate(" 8 "), 8);
        assert_eq!(parse_rate("on"), 1);
        for off in ["", "0", "off", "false", "every-8th", "4294967296"] {
            assert_eq!(parse_rate(off), RATE_OFF, "{off:?}");
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_sampling(0);
        {
            let mut s = span("query");
            s.note("ignored");
            assert!(!s.is_sampled());
        }
        assert!(take_spans().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn nested_spans_share_trace_and_depth_increments() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_sampling(1);
        {
            let _q = span("query");
            let _pin = span("pin");
            let _scan = span("scan");
        }
        set_sampling(0);
        let events = take_spans();
        assert_eq!(events.len(), 3, "{events:?}");
        // Drop order is innermost-first.
        assert_eq!(events[0].name, "scan");
        assert_eq!(events[0].depth, 2);
        assert_eq!(events[1].name, "pin");
        assert_eq!(events[1].depth, 1);
        assert_eq!(events[2].name, "query");
        assert_eq!(events[2].depth, 0);
        assert!(events.iter().all(|e| e.trace == events[0].trace));
    }

    #[test]
    fn one_in_n_sampling_records_a_fraction() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_sampling(4);
        for _ in 0..40 {
            let _s = span("query");
        }
        set_sampling(0);
        let n = take_spans().len();
        assert_eq!(n, 10, "1-in-4 of 40 top-level spans");
    }

    #[test]
    fn notes_and_jsonl_export() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_sampling(1);
        {
            let mut s = span("relearn");
            s.note("cause=degradation");
            s.note("epoch=3");
        }
        set_sampling(0);
        let jsonl = export_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"span\":\"relearn\""), "{jsonl}");
        assert!(jsonl.contains("cause=degradation epoch=3"), "{jsonl}");
        let parsed: serde::Value = serde_json::from_str(jsonl.trim()).expect("valid JSON line");
        drop(parsed);
        assert!(take_spans().is_empty(), "export drains the ring");
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_sampling(1);
        let before = dropped();
        for _ in 0..(RING_CAPACITY + 10) {
            let _s = span("query");
        }
        set_sampling(0);
        assert_eq!(take_spans().len(), RING_CAPACITY);
        assert_eq!(dropped() - before, 10);
    }
}
