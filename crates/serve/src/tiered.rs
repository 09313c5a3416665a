//! Serving over tiered storage: [`TieredServer`] is the [`Server`] of
//! sealed [`TieredScan`] generations, its build side the write buffer. A
//! cold read can die on I/O, so [`TieredServer::execute`] returns the typed
//! error the shared read path surfaces past its retry budget.
//!
//! **Sealed reads.** [`TieredServer::insert`] buffers rows; readers see
//! them only once [`TieredServer::compact`] seals the buffer into cold
//! segments and publishes the next generation, so every epoch answers with
//! a deterministic row count (no torn reads halfway through a batch).
//!
//! **Retirement pins residency.** Generations share segment files by
//! `Arc`, so a reader holding a retired epoch's snapshot keeps exactly the
//! segments that epoch references loadable: evicting the cache drops only
//! decoded bytes, and a re-fault reads blobs the backend still holds.

use crate::epoch::Epoch;
use crate::server::{BuildSide, ServeDiagnostics, Server};
use flood_store::{
    RangeQuery, ScanStats, SegmentCache, StorageBackend, StorageError, Table, TierConfig,
    TieredDelta, TieredScan, TieredTable, Visitor,
};
use std::sync::{Arc, Mutex};

/// A shared-read front end over one sealed [`TieredScan`], compacting
/// buffered inserts into new cold generations. Share it across threads:
/// readers call [`TieredServer::execute`] while one maintenance thread
/// alternates [`TieredServer::insert`] / [`TieredServer::compact`] and an
/// eviction thread churns the [`SegmentCache`].
pub type TieredServer = Server<TieredScan, Mutex<TieredDelta>>;

/// The tiered server's counters: the one [`ServeDiagnostics`].
pub type TieredServeDiagnostics = ServeDiagnostics;

/// A reader's snapshot of one sealed generation.
pub type TieredSnapshot = Arc<Epoch<TieredScan>>;

/// The build side: the write buffer over the newest sealed base. Readers
/// never take this lock — queries run against the published snapshot only.
impl BuildSide for Mutex<TieredDelta> {
    fn report(&self, d: &mut ServeDiagnostics) {
        d.buffered = self.lock().expect("build side poisoned").buffered();
    }
}

impl TieredServer {
    /// Seal `table` cold through `backend` and publish it as epoch 0.
    pub fn seal(
        table: &Table,
        backend: Arc<dyn StorageBackend>,
        cfg: TierConfig,
    ) -> Result<Self, StorageError> {
        let base = TieredTable::seal(table, backend, cfg)?;
        let scan = TieredScan::new(base.clone());
        Ok(Server::new(scan, Mutex::new(TieredDelta::new(base)), true))
    }

    /// The read path, [`Server::try_execute`]: `Err` is the typed error of
    /// a query that kept failing past the retry budget.
    pub fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> Result<(ScanStats, u64), StorageError> {
        self.try_execute(query, agg_dim, visitor)
    }

    /// Buffer one row on the build side; returns its stable id. Invisible
    /// to readers until [`TieredServer::compact`] publishes. On error the
    /// row is not stored.
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
            .published()
            .publish(TieredScan::new(delta.base().clone())))
    }

    /// Rows visible to readers in the current epoch.
    pub fn len(&self) -> usize {
        self.snapshot().value().data().len()
    }

    /// `true` when the current epoch serves no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment cache every generation shares — hand this to an
    /// eviction thread ([`SegmentCache::evict_all`] /
    /// [`SegmentCache::set_budget`]) to churn the cold tier under load, or
    /// to [`SegmentCache::publish_gauges`] for its residency.
    pub fn cache(&self) -> Arc<SegmentCache> {
        self.snapshot().value().data().cache().clone()
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
        // A wrong-arity row is refused without poisoning the build side.
        let err = s.insert(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, StorageError::Arity { got: 3, .. }), "{err}");
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
        let m = s.metrics_snapshot().expect("metrics on");
        assert_eq!(m.counter("serve", "completed"), Some(d.completed));

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
        // A probing predicate: an exact-range COUNT would be answered from
        // resident metadata alone and leave the cache empty.
        let q = RangeQuery::all(2).with_range(0, 1, 500);
        let mut v = SumVisitor::default();
        s.execute(&q, Some(1), &mut v).unwrap();
        let snap = s.metrics_snapshot().expect("metrics on");
        assert_eq!(snap.gauge("epoch", "current"), Some(1));
        assert_eq!(snap.gauge("epoch", "swaps"), Some(1));
        let reg = flood_obs::Registry::new();
        s.cache().publish_gauges(&reg, "tier");
        assert!(reg.snapshot().gauge("tier", "resident_bytes").unwrap() > 0);
    }
}
