//! Serving over tiered storage: epoch-swapped [`TieredScan`] generations
//! with a buffered write side.
//!
//! The shape mirrors [`FloodServer`](crate::server::FloodServer) — readers
//! pin one epoch through [`Published::snapshot`] and never take a lock for
//! the duration of a query — but the published value is a sealed
//! [`TieredScan`] generation instead of a `FloodIndex` layout, and the
//! failure model is different: a cold read can die on I/O, so the serving
//! path is *fallible with a retry budget* rather than infallible.
//!
//! **Sealed-reads semantics.** [`TieredServer::insert`] buffers rows on
//! the build side; readers do not see them until [`TieredServer::compact`]
//! seals the buffer into cold segments and publishes the next generation.
//! Every epoch therefore answers with a deterministic row count — the
//! property the soak suite pins (no torn reads halfway through an insert
//! batch, ever).
//!
//! **Retirement pins residency.** Generations share segment files by
//! `Arc` (`TieredTable` is a shallow clone), so a reader holding a
//! retired epoch's snapshot keeps exactly the segments that epoch
//! references loadable — evicting the cache only drops decoded bytes, and
//! a re-fault goes back to the backend, which still holds the blobs until
//! the last referencing generation drops.

use crate::epoch::{Epoch, Published};
use flood_obs::Registry;
use flood_store::tier::with_retries;
use flood_store::{
    RangeQuery, ScanStats, SegmentCache, StorageBackend, StorageError, Table, TierConfig,
    TieredDelta, TieredScan, Visitor,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A reader's snapshot of one sealed generation.
pub type TieredSnapshot = Arc<Epoch<TieredScan>>;

/// Serving-layer counters ([`TieredServer::diagnostics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredServeDiagnostics {
    /// Current epoch number.
    pub epoch: u64,
    /// Generations published (compactions that swapped).
    pub swaps: u64,
    /// Swapped-out generations whose last reader has dropped.
    pub retired_epochs: usize,
    /// Swapped-out generations still pinned by in-flight snapshots.
    pub live_retired: usize,
    /// Queries admitted.
    pub submitted: u64,
    /// Queries answered completely (`submitted == completed + degraded`
    /// once idle: the serving path never silently drops a query).
    pub completed: u64,
    /// Attempts that hit a storage fault and were retried in-place.
    pub retried: u64,
    /// Queries that exhausted the retry budget and surfaced a typed error.
    pub degraded: u64,
    /// Rows buffered on the build side, not yet visible to readers.
    pub buffered: usize,
}

/// A shared-read front end over one sealed [`TieredScan`], compacting
/// buffered inserts into new cold generations in the background.
///
/// All methods take `&self`: share across threads and call
/// [`TieredServer::execute`] from readers while one maintenance thread
/// alternates [`TieredServer::insert`] / [`TieredServer::compact`] and an
/// eviction thread churns the [`SegmentCache`].
#[derive(Debug)]
pub struct TieredServer {
    published: Published<TieredScan>,
    /// The build side. Readers never take this lock — queries run against
    /// the published snapshot only.
    build: Mutex<TieredDelta>,
    submitted: AtomicU64,
    completed: AtomicU64,
    retried: AtomicU64,
    degraded: AtomicU64,
}

impl TieredServer {
    /// Seal `table` cold through `backend` and publish it as epoch 0.
    pub fn seal(
        table: &Table,
        backend: Arc<dyn StorageBackend>,
        cfg: TierConfig,
    ) -> Result<Self, StorageError> {
        let base = flood_store::TieredTable::seal(table, backend, cfg)?;
        Ok(Self::from_delta(TieredDelta::new(base)))
    }

    /// Serve an existing delta (epoch 0 = its current base; any rows
    /// already buffered stay invisible until the first compaction).
    pub fn from_delta(delta: TieredDelta) -> Self {
        TieredServer {
            published: Published::new(TieredScan::new(delta.base().clone())),
            build: Mutex::new(delta),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Execute one query against the current snapshot. Transient storage
    /// faults are retried in-place under [`with_retries`] (the faulting
    /// scan guarantees the visitor saw nothing, so a retry is safe); a
    /// query that exhausts the budget counts as degraded and surfaces the
    /// last typed error. Returns `(stats, epoch served from)`.
    pub fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> Result<(ScanStats, u64), StorageError> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let snap = self.published.snapshot();
        let (result, attempts) = with_retries(|| snap.value().try_execute(query, agg_dim, visitor));
        self.retried
            .fetch_add(attempts as u64 - 1, Ordering::Relaxed);
        let outcome = if result.is_ok() {
            &self.completed
        } else {
            &self.degraded
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        result.map(|stats| (stats, snap.epoch()))
    }

    /// Buffer one row on the build side; returns its stable id. Invisible
    /// to readers until [`TieredServer::compact`] publishes.
    pub fn insert(&self, row: &[u64]) -> Result<usize, StorageError> {
        self.build.lock().expect("build side poisoned").insert(row)
    }

    /// Seal the buffered rows into cold segments and publish the next
    /// generation. Returns the new epoch number. On error the buffer and
    /// the published generation are both unchanged (compaction stages all
    /// backend writes before mutating the table). Publishing with an empty
    /// buffer is a no-op swap: the new epoch serves the same rows.
    pub fn compact(&self) -> Result<u64, StorageError> {
        let mut delta = self.build.lock().expect("build side poisoned");
        delta.compact()?;
        Ok(self
            .published
            .publish(TieredScan::new(delta.base().clone())))
    }

    /// A snapshot of the current generation (pin an epoch across a
    /// measurement loop; holding it keeps that generation's segments
    /// loadable even after later compactions retire it).
    pub fn snapshot(&self) -> TieredSnapshot {
        self.published.snapshot()
    }

    /// The publication point (epoch / swap / retirement accounting).
    pub fn published(&self) -> &Published<TieredScan> {
        &self.published
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Rows visible to readers in the current epoch.
    pub fn len(&self) -> usize {
        self.published.snapshot().value().data().len()
    }

    /// `true` when the current epoch serves no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment cache every generation shares — hand this to an
    /// eviction thread ([`SegmentCache::evict_all`] /
    /// [`SegmentCache::set_budget`]) to churn the cold tier under load.
    pub fn cache(&self) -> Arc<SegmentCache> {
        self.published.snapshot().value().data().cache().clone()
    }

    /// Publish point-in-time gauges: epoch accounting under
    /// `{subsystem}` and cache residency under `{subsystem}` too
    /// (`faults`/`hits`/`evictions`/`resident_bytes`/...).
    pub fn publish_gauges(&self, registry: &Registry, subsystem: &str) {
        let g = |name: &str, v: i64| registry.gauge(subsystem, name).set(v);
        g("epoch", self.published.epoch() as i64);
        g("swaps", self.published.swaps() as i64);
        g("retired", self.published.retired_epochs() as i64);
        g("live_retired", self.published.live_retired() as i64);
        g("pinned_readers", self.published.pinned_readers() as i64);
        g("degraded", self.degraded.load(Ordering::Relaxed) as i64);
        g("retried", self.retried.load(Ordering::Relaxed) as i64);
        self.cache().publish_gauges(registry, subsystem);
    }

    /// Serving-layer counters.
    pub fn diagnostics(&self) -> TieredServeDiagnostics {
        TieredServeDiagnostics {
            epoch: self.published.epoch(),
            swaps: self.published.swaps(),
            retired_epochs: self.published.retired_epochs(),
            live_retired: self.published.live_retired(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            buffered: self.build.lock().expect("build side poisoned").buffered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::tier::SCAN_RETRIES;
    use flood_store::{CountVisitor, FailingBackend, MemBackend, SumVisitor};

    fn table(n: u64) -> Table {
        Table::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|i| (i * 31) % 997).collect(),
        ])
    }

    fn mem_server(n: u64, budget: usize) -> TieredServer {
        TieredServer::seal(
            &table(n),
            Arc::new(MemBackend::new()),
            TierConfig {
                budget_bytes: budget,
                segment_blocks: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn serves_ground_truth_from_cold_storage() {
        let s = mem_server(2_000, 0);
        let t = table(2_000);
        for (lo, hi) in [(0, 1_999), (100, 700), (512, 513)] {
            let q = RangeQuery::all(2).with_range(0, lo, hi);
            let mut v = CountVisitor::default();
            let (stats, epoch) = s.execute(&q, None, &mut v).unwrap();
            assert_eq!(epoch, 0);
            let truth = (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64;
            assert_eq!(v.count, truth);
            assert_eq!(stats.points_matched, truth);
        }
        let d = s.diagnostics();
        assert_eq!(d.submitted, 3);
        assert_eq!(d.completed, 3);
        assert_eq!((d.retried, d.degraded), (0, 0));
    }

    #[test]
    fn inserts_invisible_until_compact_publishes() {
        let s = mem_server(1_000, 0);
        let q = RangeQuery::all(2);
        for i in 0..50u64 {
            let id = s.insert(&[1_000 + i, i]).unwrap();
            assert_eq!(id, 1_000 + i as usize, "stable append-only ids");
        }
        let mut v = CountVisitor::default();
        let (_, epoch) = s.execute(&q, None, &mut v).unwrap();
        assert_eq!((v.count, epoch), (1_000, 0), "buffered rows stay invisible");
        assert_eq!(s.diagnostics().buffered, 50);

        let snap0 = s.snapshot();
        assert_eq!(s.compact().unwrap(), 1);
        assert_eq!(s.diagnostics().buffered, 0);
        let mut v = CountVisitor::default();
        let (_, epoch) = s.execute(&q, None, &mut v).unwrap();
        assert_eq!((v.count, epoch), (1_050, 1), "sealed rows visible at once");

        // The pinned pre-compaction snapshot still serves its own count,
        // even after the cache is emptied under it.
        s.cache().evict_all();
        let mut v = CountVisitor::default();
        let stats = snap0.value().try_execute(&q, None, &mut v).unwrap();
        assert_eq!(v.count, 1_000, "retired epoch stays consistent");
        assert_eq!(stats.points_matched, 1_000);
        drop(snap0);
        assert_eq!(s.diagnostics().retired_epochs, 1);
    }

    #[test]
    fn transient_faults_retry_persistent_faults_degrade() {
        let failing = Arc::new(FailingBackend::new(Arc::new(MemBackend::new())));
        let s = TieredServer::seal(
            &table(1_024),
            failing.clone() as Arc<dyn StorageBackend>,
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap();
        let q = RangeQuery::all(2).with_range(0, 0, 700);

        // One transient fault: absorbed by the in-place retry.
        failing.fail_load(1);
        let mut v = CountVisitor::default();
        let (stats, _) = s.execute(&q, None, &mut v).unwrap();
        assert_eq!(v.count, 701, "retry must not duplicate or lose rows");
        assert_eq!(stats.points_matched, 701);
        assert_eq!(s.diagnostics().retried, 1);
        assert_eq!(s.diagnostics().degraded, 0);

        // Faults on every attempt: the query degrades with a typed error
        // and the visitor saw nothing.
        for k in 0..=SCAN_RETRIES as u64 {
            failing.fail_load(1 + k);
        }
        let mut v = SumVisitor::default();
        let err = s.execute(&q, Some(1), &mut v).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert_eq!((v.sum, v.count), (0, 0), "degraded query leaked results");
        let d = s.diagnostics();
        assert_eq!(d.degraded, 1);
        assert_eq!(d.submitted, d.completed + d.degraded);

        // Injections exhausted: service is whole again.
        let mut v = CountVisitor::default();
        s.execute(&q, None, &mut v).unwrap();
        assert_eq!(v.count, 701);
    }

    #[test]
    fn empty_compact_swaps_same_rows_and_gauges_export() {
        let s = mem_server(512, usize::MAX);
        assert_eq!(s.compact().unwrap(), 1, "empty buffer still swaps");
        assert_eq!(s.len(), 512);
        let reg = Registry::new();
        // A probing predicate: an exact-range COUNT would be answered from
        // resident metadata alone and leave the cache empty.
        let q = RangeQuery::all(2).with_range(0, 1, 500);
        let mut v = SumVisitor::default();
        s.execute(&q, Some(1), &mut v).unwrap();
        s.publish_gauges(&reg, "tier");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("tier", "epoch"), Some(1));
        assert_eq!(snap.gauge("tier", "swaps"), Some(1));
        assert!(snap.gauge("tier", "resident_bytes").unwrap() > 0);
    }
}
