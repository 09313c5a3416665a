//! # flood-bench
//!
//! The benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§7). Run experiments through the `repro` binary:
//!
//! ```text
//! cargo run --release -p flood-bench --bin repro -- fig7 --scale 200000
//! ```
//!
//! [`experiments`] holds one module per experiment and the registry;
//! [`harness`] is the one value they all run on.

pub mod experiments;
pub mod harness;
pub mod phases;
