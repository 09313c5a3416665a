//! The phase ledger: where one experiment's wall-clock went.
//!
//! The harness funnels every expensive step through five named phases —
//! `data-gen`, `calibration`, `layout-opt`, `index-build`, `query-exec` —
//! so one summary table shows where a run's time went, and `--verbose`
//! streams progress as each phase finishes. A ledger is a value owned by
//! one [`Harness`](crate::harness::Harness): a fresh ledger per experiment
//! attributes time per experiment.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Canonical phase names, in pipeline order (used to sort the summary).
pub const PHASE_ORDER: &[&str] = &[
    "data-gen",
    "calibration",
    "layout-opt",
    "index-build",
    "query-exec",
];

/// `(phase, total, calls)` rows plus the `--verbose` switch.
#[derive(Debug, Default)]
pub struct Phases {
    verbose: bool,
    totals: RefCell<Vec<(String, Duration, usize)>>,
}

impl Phases {
    /// An empty ledger; `verbose` streams progress lines to stderr.
    pub fn new(verbose: bool) -> Self {
        Phases {
            verbose,
            totals: RefCell::default(),
        }
    }

    /// Print a progress line to stderr when verbose.
    pub fn progress(&self, msg: &str) {
        if self.verbose {
            eprintln!("  [progress] {msg}");
        }
    }

    /// Run `f`, attributing its wall-clock to `name`; returns it alongside
    /// the result. Nested phases each record their own time (the outer one
    /// includes the inner one's — the summary is a where-does-time-go
    /// guide, not a partition).
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        self.record(name, dt);
        if self.verbose {
            eprintln!("  [phase] {name} done in {:.2}s", dt.as_secs_f64());
        }
        (out, dt)
    }

    /// Add an interval measured elsewhere to phase `name`.
    pub fn record(&self, name: &str, dt: Duration) {
        let mut totals = self.totals.borrow_mut();
        if let Some(slot) = totals.iter_mut().find(|(n, _, _)| n == name) {
            slot.1 += dt;
            slot.2 += 1;
        } else {
            totals.push((name.to_string(), dt, 1));
        }
    }

    /// Snapshot of `(phase, total, calls)` rows, canonical phases first.
    pub fn totals(&self) -> Vec<(String, Duration, usize)> {
        let mut rows = self.totals.borrow().clone();
        let rank = |n: &str| {
            PHASE_ORDER
                .iter()
                .position(|&p| p == n)
                .unwrap_or(PHASE_ORDER.len())
        };
        rows.sort_by_key(|(n, _, _)| rank(n));
        rows
    }

    /// Print the summary table to stdout; no-op when nothing was recorded.
    pub fn print_summary(&self) {
        let rows = self.totals();
        if rows.is_empty() {
            return;
        }
        println!("\n-- phase summary --");
        println!("{:<14} {:>10} {:>8}", "phase", "total (s)", "calls");
        for (name, total, count) in rows {
            println!("{:<14} {:>10.2} {:>8}", name, total.as_secs_f64(), count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_merges_and_resets() {
        let phases = Phases::new(false);
        phases.time("query-exec", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        phases.record("query-exec", Duration::from_millis(5));
        phases.record("adhoc", Duration::from_millis(1));
        phases.record("data-gen", Duration::from_millis(1));
        let rows = phases.totals();
        // Canonical phases sort ahead of ad-hoc names, in pipeline order.
        let names: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["data-gen", "query-exec", "adhoc"]);
        let (_, total, count) = &rows[1];
        assert_eq!(*count, 2, "two recordings merged");
        assert!(*total >= Duration::from_millis(7));
        // A fresh ledger starts empty: per-experiment attribution.
        assert!(Phases::new(false).totals().is_empty());
    }

    #[test]
    fn verbose_flag_round_trips() {
        let loud = Phases::new(true);
        assert!(loud.verbose);
        loud.progress("covered: progress line while verbose");
        assert!(!Phases::default().verbose);
    }
}
