//! # flood-serve
//!
//! A concurrent serving layer over the Flood index: shared readers, live
//! layout adaptation, a buffered cold tier, zero coordination on the read
//! path.
//!
//! The paper evaluates Flood single-threaded (§7) and sketches
//! concurrency, insertions and workload-shift adaptation as §8 future
//! work. This crate composes the workspace's pieces — `flood-exec`'s pool,
//! `flood-core`'s [`Relearner`](flood_core::Relearner), `flood-store`'s
//! tier — into one front end where *building the next generation never
//! blocks serving*:
//!
//! * [`Published<T>`] — the live generation behind an epoch-swapped `Arc`.
//!   Readers clone the `Arc` (a read lock held for nanoseconds) and run
//!   against an immutable snapshot; a publisher swaps a fully built
//!   replacement in with a pointer exchange. A retired epoch is freed by
//!   `Arc` drop semantics exactly when its last in-flight reader lets go.
//! * [`Server<T, B>`] — one fallible read path ([`Server::try_execute`])
//!   over a published `T`, beside a build side `B` that readers never lock:
//!   * [`FloodServer`] publishes [`FloodIndex`](flood_core::FloodIndex)
//!     layouts, adds batched admission on the pool and a background
//!     adaptation turn ([`FloodServer::maybe_adapt`]) that prices the
//!     observed window, re-learns when degraded, rebuilds off the serving
//!     path, and publishes;
//!   * [`TieredServer`] publishes sealed cold-tier scan generations and
//!     adds buffered inserts, made visible by a compaction that publishes.
//!
//! The concurrency contract — every result is bit-identical to a serial
//! run against *either* the old or the new generation, never a mix — is
//! pinned by `tests/prop_serve.rs`; `tests/serve_soak.rs` and
//! `tests/tiered_soak.rs` drive open-loop traffic with background swaps
//! end to end. `flood-benchmark` measures latency across swaps
//! (`serve.*`, `epoch_swap_ms`).

pub mod epoch;
pub mod server;
pub mod tiered;

pub use epoch::{Epoch, EpochIndex, IndexSnapshot, Published, PublishedIndex};
pub use server::{
    AdaptOutcome, FloodServer, ServeConfig, ServeDiagnostics, ServedBatch, Server, ServerMetrics,
};
pub use tiered::{TieredServeDiagnostics, TieredServer, TieredSnapshot};

// The whole design rests on these types being shareable across reader
// threads; regressions (an Rc, a RefCell, a raw pointer) must fail to
// compile here, not deadlock in production.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<FloodServer>();
    _assert_send_sync::<TieredServer>();
};
