//! # flood-bench
//!
//! The benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§7). Run experiments through the `repro` binary:
//!
//! ```text
//! cargo run --release -p flood-bench --bin repro -- fig7 --scale 200000
//! ```
//!
//! Modules map one-to-one onto experiments; see DESIGN.md §4 for the index.

pub mod experiments;
pub mod harness;
pub mod phases;
