//! Fault-injection suite for the cold tier: I/O errors, short reads, and
//! corruption at chosen segment loads must surface as typed
//! [`StorageError`]s — never a panic, never partial results, never a
//! silently wrong answer — and a retry after a transient fault must
//! produce exactly the full result set.

use flood_store::tier::index::SCAN_RETRIES;
use flood_store::{
    scan_checked, CollectVisitor, CountVisitor, FailingBackend, FileBackend, MemBackend,
    RangeQuery, ScanStats, StorageBackend, StorageError, SumVisitor, TierConfig, TieredScan,
    TieredTable,
};
use std::sync::Arc;

fn table(n: u64) -> flood_store::Table {
    flood_store::Table::from_columns(vec![
        (0..n).collect(),
        (0..n).map(|i| (i * 31) % 1_009 + 1).collect(),
    ])
}

/// Seal over a [`FailingBackend`] with everything cold (budget 0), so
/// every query load goes through the injector.
fn failing_setup(n: u64) -> (TieredTable, Arc<FailingBackend>) {
    let failing = Arc::new(FailingBackend::new(Arc::new(MemBackend::new())));
    let tiered = TieredTable::seal(
        &table(n),
        failing.clone() as Arc<dyn StorageBackend>,
        TierConfig {
            budget_bytes: 0,
            segment_blocks: 2,
        },
    )
    .unwrap();
    (tiered, failing)
}

#[test]
fn injected_error_at_every_load_position_is_typed_and_clean() {
    let (tiered, failing) = failing_setup(1_024);
    let checks = [(0usize, 100u64, 900u64)];
    // Baseline: how many loads does this query perform?
    let mut v = SumVisitor::default();
    let mut s = ScanStats::default();
    scan_checked(&tiered, &checks, 0, 1_024, Some(1), None, &mut v, &mut s).unwrap();
    let loads_per_query = s.segments_faulted;
    assert!(
        loads_per_query >= 2,
        "query must load several segments: {s:?}"
    );
    let want = (v.sum, v.count);
    let base_loads = failing.loads();

    // Fail each load ordinal of the query in turn: whichever segment dies,
    // the scan reports a typed error with no partial results, and the
    // retry returns the complete answer.
    for k in 0..loads_per_query {
        failing.fail_load(1 + k);
        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        let err =
            scan_checked(&tiered, &checks, 0, 1_024, Some(1), None, &mut v, &mut s).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "load {k}: {err}");
        assert!(err.key().is_some(), "error must name the failing segment");
        assert_eq!((v.sum, v.count), (0, 0), "load {k}: partial results leaked");
        assert_eq!(s, ScanStats::default(), "load {k}: stats leaked");

        let mut v = SumVisitor::default();
        let mut s = ScanStats::default();
        scan_checked(&tiered, &checks, 0, 1_024, Some(1), None, &mut v, &mut s).unwrap();
        assert_eq!((v.sum, v.count), want, "load {k}: retry must be complete");
    }
    assert_eq!(failing.injected(), loads_per_query);
    assert!(failing.loads() > base_loads);
}

#[test]
fn short_reads_surface_as_corruption_not_panic() {
    let (tiered, failing) = failing_setup(512);
    for keep in [0, 1, 7, 19, 100] {
        failing.short_read_load(1, keep);
        let mut v = CollectVisitor::default();
        let mut s = ScanStats::default();
        let err =
            scan_checked(&tiered, &[(0, 1, 510)], 0, 512, None, None, &mut v, &mut s).unwrap_err();
        match err {
            StorageError::Corrupt { detail, .. } => {
                assert!(!detail.is_empty(), "corruption should say what failed");
            }
            other => panic!("short read of {keep}B must decode-fail, got {other}"),
        }
        assert!(v.rows.is_empty(), "keep={keep}: partial results leaked");
    }
}

#[test]
fn overwritten_blob_fails_checksum() {
    let mem = Arc::new(MemBackend::new());
    let tiered = TieredTable::seal(
        &table(512),
        mem.clone() as Arc<dyn StorageBackend>,
        TierConfig {
            budget_bytes: 0,
            segment_blocks: 2,
        },
    )
    .unwrap();
    // Clobber one stored segment with garbage of plausible length.
    let victim = tiered.segment_key(0, 0);
    mem.put(victim, &vec![0xAB; 4_096]).unwrap();
    let mut v = CountVisitor::default();
    let mut s = ScanStats::default();
    let err =
        scan_checked(&tiered, &[(0, 1, 510)], 0, 512, None, None, &mut v, &mut s).unwrap_err();
    match &err {
        StorageError::Corrupt { key, .. } => assert_eq!(*key, victim),
        other => panic!("expected Corrupt, got {other}"),
    }
    assert_eq!(v.count, 0);
}

#[test]
fn version_one_segment_is_refused_by_name_not_as_a_bad_checksum() {
    let mem = Arc::new(MemBackend::new());
    let tiered = TieredTable::seal(
        &table(512),
        mem.clone() as Arc<dyn StorageBackend>,
        TierConfig {
            budget_bytes: 0,
            segment_blocks: 2,
        },
    )
    .unwrap();
    // What a version-1 build left behind: the same body under the old
    // magic, closed by FNV-1a a byte at a time.
    let victim = tiered.segment_key(0, 0);
    let mut blob = mem.get(victim).unwrap();
    let body = blob.len() - 8;
    blob[..8].copy_from_slice(b"FLDSEG01");
    let fnv1a = blob[..body].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    blob[body..].copy_from_slice(&fnv1a.to_le_bytes());
    mem.put(victim, &blob).unwrap();

    let mut v = CountVisitor::default();
    let mut s = ScanStats::default();
    let err =
        scan_checked(&tiered, &[(0, 1, 510)], 0, 512, None, None, &mut v, &mut s).unwrap_err();
    match &err {
        StorageError::Corrupt { key, detail } => {
            assert_eq!(*key, victim);
            assert!(detail.contains("unsupported segment version"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    assert_eq!(v.count, 0);
}

#[test]
fn truncated_data_file_is_corrupt_deleted_key_is_missing() {
    let backend = Arc::new(FileBackend::new_temp().unwrap());
    let tiered = TieredTable::seal(
        &table(512),
        backend.clone() as Arc<dyn StorageBackend>,
        TierConfig {
            budget_bytes: 0,
            segment_blocks: 2,
        },
    )
    .unwrap();
    // Both columns filtered: every segment of the table is needed, so the
    // loads reach past any cut of the data file.
    let checks = [(0, 1, 510), (1, 1, 510)];

    // Cut the data file in half: the first needed load whose blob lay past
    // the cut reads short → Corrupt.
    let data = backend.dir().join("segments.dat");
    let len = std::fs::metadata(&data).unwrap().len();
    assert!(len > 0);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&data)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    let mut v = CountVisitor::default();
    let mut s = ScanStats::default();
    let err = scan_checked(&tiered, &checks, 0, 512, None, None, &mut v, &mut s).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

    // Delete every segment through the backend: Missing, still typed,
    // still no panic.
    for d in 0..tiered.dims() {
        for key in tiered.segment_keys(d) {
            backend.delete(key).unwrap();
        }
    }
    let err = scan_checked(&tiered, &checks, 0, 512, None, None, &mut v, &mut s).unwrap_err();
    assert!(matches!(err, StorageError::Missing { .. }), "{err}");
    assert_eq!(v.count, 0, "no emission across any failure mode");
}

#[test]
fn index_retry_policy_heals_transients_and_reports_persistents() {
    let (tiered, failing) = failing_setup(1_024);
    let idx = TieredScan::new(tiered);
    let q = RangeQuery::all(2).with_range(0, 0, 700);

    // One transient failure: the infallible surface absorbs it.
    failing.fail_load(1);
    let mut v = CountVisitor::default();
    let stats = flood_store::MultiDimIndex::execute(&idx, &q, None, &mut v);
    assert_eq!(v.count, 701, "retry produced duplicates or losses");
    assert_eq!(stats.points_matched, 701);

    // More consecutive failures than the retry budget: try_execute (the
    // fallible surface servers use) reports every attempt's error.
    for _ in 0..=SCAN_RETRIES {
        failing.fail_load(1);
        let mut v = CountVisitor::default();
        assert!(idx.try_execute(&q, None, &mut v).is_err());
        assert_eq!(v.count, 0);
    }
    // Injections exhausted: the next call is whole again.
    let mut v = CountVisitor::default();
    idx.try_execute(&q, None, &mut v).unwrap();
    assert_eq!(v.count, 701);
}

#[test]
fn compaction_write_failure_leaves_table_and_buffer_intact() {
    use flood_store::TieredDelta;
    let (tiered, failing) = failing_setup(300);
    let before_len = tiered.len();
    let before_keys = tiered.segment_keys(0);
    let mut delta = TieredDelta::with_threshold(tiered, usize::MAX);
    for i in 0..10u64 {
        delta.insert(&[i, i + 1]).unwrap();
    }
    // Unaligned base (300 rows): compaction must first *read* the tail
    // segment; fail that load.
    failing.fail_load(1);
    let err = delta.compact().unwrap_err();
    assert!(matches!(err, StorageError::Io { .. }), "{err}");
    assert_eq!(
        delta.buffered(),
        10,
        "failed compaction must keep the buffer"
    );
    assert_eq!(delta.base().len(), before_len);
    assert_eq!(delta.base().segment_keys(0), before_keys, "base unchanged");

    // Retry heals; queries see every row exactly once.
    delta.compact().unwrap();
    assert_eq!((delta.len(), delta.buffered()), (310, 0));
    let mut v = CountVisitor::default();
    TieredScan::new(delta.base().clone())
        .try_execute(&RangeQuery::all(2), None, &mut v)
        .unwrap();
    assert_eq!(v.count, 310);
}

#[test]
fn failed_auto_compaction_does_not_keep_the_row() {
    use flood_store::TieredDelta;
    let (tiered, failing) = failing_setup(300);
    let mut delta = TieredDelta::with_threshold(tiered, 4);
    for i in 0..3u64 {
        assert_eq!(delta.insert(&[i, i + 1]).unwrap(), 300 + i as usize);
    }
    // The 4th insert reaches the threshold, and its sealing write must
    // first read the unaligned tail segment: fail that load.
    failing.fail_load(1);
    let err = delta.insert(&[3, 4]).unwrap_err();
    assert!(matches!(err, StorageError::Io { .. }), "{err}");
    assert_eq!(
        (delta.len(), delta.buffered()),
        (303, 3),
        "a failed insert stores nothing"
    );

    // The caller's retry stores the row once, under the same id.
    assert_eq!(delta.insert(&[3, 4]).unwrap(), 303);
    assert_eq!(
        (delta.len(), delta.buffered()),
        (304, 0),
        "the retry compacts"
    );
    let mut v = CountVisitor::default();
    TieredScan::new(delta.base().clone())
        .try_execute(&RangeQuery::all(2), None, &mut v)
        .unwrap();
    assert_eq!(v.count, 304);
}
