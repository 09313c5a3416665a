//! # flood-serve
//!
//! A concurrent serving layer over the Flood index: shared readers, live
//! layout adaptation, zero coordination on the read path.
//!
//! The paper evaluates Flood single-threaded (§7) and sketches both
//! concurrency and workload-shift adaptation as §8 future work. The rest
//! of this workspace supplies the pieces — `flood-exec`'s scoped pool,
//! `flood-core`'s [`Relearner`]/[`ObservationLog`] split — and this crate
//! composes them into a front end where *re-learning never blocks
//! serving*:
//!
//! * [`PublishedIndex`] — the live layout behind an epoch-swapped `Arc`.
//!   Readers clone the `Arc` (a read lock held for nanoseconds) and run
//!   against an immutable snapshot; a publisher swaps a fully built
//!   replacement in with a pointer exchange. A retired epoch is freed by
//!   `Arc` drop semantics exactly when its last in-flight reader lets go.
//! * [`FloodServer`] — admission (per-request closed-loop, batched
//!   open-loop over the `flood-exec` pool), observation recording through
//!   `&self`, and a background adaptation turn ([`FloodServer::maybe_adapt`])
//!   that prices the observed window, re-learns when degraded, rebuilds
//!   off the serving path, and publishes.
//!
//! The concurrency contract — every result is bit-identical to a serial
//! run against *either* the old or the new layout, never a mix — is
//! pinned by `tests/prop_serve.rs`; `tests/serve_soak.rs` drives open-loop
//! drift traffic with background adaptation end to end. `flood-benchmark`
//! measures latency across swaps (`serve.*`, `epoch_swap_ms`).
//!
//! The same publication machinery is generic ([`Published<T>`]): the
//! [`TieredServer`] publishes sealed cold-tier scan generations through
//! it, with a fallible retry-then-degrade read path and sealed-reads
//! insert visibility (`tests/tiered_soak.rs`).

pub mod epoch;
pub mod server;
pub mod tiered;

pub use epoch::{Epoch, EpochIndex, IndexSnapshot, Published, PublishedIndex};
pub use server::{
    AdaptOutcome, FloodServer, ServeConfig, ServeDiagnostics, ServedBatch, ServerMetrics,
};
pub use tiered::{TieredServeDiagnostics, TieredServer, TieredSnapshot};

use flood_core::{FloodIndex, ObservationLog, Relearner};

// The whole design rests on these types being shareable across reader
// threads; regressions (an Rc, a RefCell, a raw pointer) must fail to
// compile here, not deadlock in production.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<FloodIndex>();
    _assert_send_sync::<EpochIndex>();
    _assert_send_sync::<PublishedIndex>();
    _assert_send_sync::<FloodServer>();
    _assert_send_sync::<ObservationLog>();
    _assert_send_sync::<Relearner>();
    _assert_send_sync::<Epoch<flood_store::TieredScan>>();
    _assert_send_sync::<Published<flood_store::TieredScan>>();
    _assert_send_sync::<TieredServer>();
};
