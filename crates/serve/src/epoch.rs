//! Epoch-swapped publication: the one shared-mutable cell in the serving
//! layer.
//!
//! The live value lives behind `RwLock<Arc<Epoch<T>>>`. Readers take the
//! read lock just long enough to clone the `Arc` (nanoseconds — never for
//! the duration of a query), then execute against their private snapshot
//! with no further coordination. A publisher builds the replacement
//! entirely off the lock, then swaps the `Arc` under the write lock — the
//! only writer-side critical section is a pointer exchange.
//!
//! Retirement is `Arc` drop semantics: the swapped-out epoch stays alive
//! exactly as long as the last in-flight reader holds its snapshot, and
//! the publisher keeps only a [`Weak`] per retired epoch still pinned — dead
//! ones are folded into a counter at the next publish — so
//! [`Published::retired_epochs`] can report when old generations were
//! actually freed without ever extending their lifetime.
//!
//! [`Published<T>`] is generic: the classic serving path publishes
//! [`FloodIndex`] layouts ([`PublishedIndex`]), and the tiered path
//! publishes sealed [`TieredScan`](flood_store::TieredScan) generations —
//! whose epochs *share segment files by `Arc`*, so a pinned snapshot of a
//! retired epoch keeps exactly the segments it references loadable (the
//! cold-tier analogue of "a retired layout stays queryable until its last
//! reader lets go").

use flood_core::FloodIndex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// One published generation: an immutable value tagged with its epoch
/// number.
#[derive(Debug)]
pub struct Epoch<T> {
    epoch: u64,
    value: T,
}

impl<T> Epoch<T> {
    /// The epoch this value was published as (0 = the initial build).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The published value itself.
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// One published layout generation of the classic (fully-resident) path.
pub type EpochIndex = Epoch<FloodIndex>;

impl Epoch<FloodIndex> {
    /// The index itself (alias of [`Epoch::value`], kept for the original
    /// index-serving API).
    pub fn index(&self) -> &FloodIndex {
        self.value()
    }
}

/// A reader's snapshot: a strong reference to one epoch's index. Holding
/// it pins that epoch (and nothing else) alive; dropping the last one
/// frees the retired layout.
pub type IndexSnapshot = Arc<EpochIndex>;

/// The publication point: the current epoch's value, swappable atomically
/// while readers stream through.
#[derive(Debug)]
pub struct Published<T> {
    current: RwLock<Arc<Epoch<T>>>,
    /// Swapped-out generations not yet known to be freed.
    retired: Mutex<Retired<T>>,
    swaps: AtomicU64,
}

/// The retired generations: a count of those seen freed, and a `Weak` per
/// generation a reader pinned when last looked at, oldest first. Weak so
/// diagnostics never keep a retired generation alive; a dead `Weak` still
/// holds its epoch's allocation, so each publish prunes them into `freed`
/// and the list never outgrows the number of pinned generations.
#[derive(Debug)]
struct Retired<T> {
    freed: usize,
    pinned: Vec<Weak<Epoch<T>>>,
}

impl<T> Retired<T> {
    /// Listed generations a reader pins right now.
    fn live(&self) -> usize {
        self.pinned.iter().filter(|w| w.strong_count() > 0).count()
    }
}

/// The classic publication point over [`FloodIndex`] layouts.
pub type PublishedIndex = Published<FloodIndex>;

impl<T> Published<T> {
    /// Publish `value` as epoch 0.
    pub fn new(value: T) -> Self {
        Published {
            current: RwLock::new(Arc::new(Epoch { epoch: 0, value })),
            retired: Mutex::new(Retired {
                freed: 0,
                pinned: Vec::new(),
            }),
            swaps: AtomicU64::new(0),
        }
    }

    /// Grab a snapshot of the current epoch. The read lock is held only
    /// for the `Arc` clone; queries run lock-free against the snapshot.
    pub fn snapshot(&self) -> Arc<Epoch<T>> {
        self.current
            .read()
            .expect("published value poisoned")
            .clone()
    }

    /// The current epoch number (monotone, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("published value poisoned").epoch
    }

    /// Swap `value` in as the next epoch, retiring the current one.
    /// Returns the new epoch number. The caller builds `value` off the
    /// serving path; the write lock covers only the pointer exchange.
    pub fn publish(&self, value: T) -> u64 {
        let old = {
            let mut cur = self.current.write().expect("published value poisoned");
            let epoch = cur.epoch + 1;
            std::mem::replace(&mut *cur, Arc::new(Epoch { epoch, value }))
        };
        let epoch = old.epoch + 1;
        let weak = Arc::downgrade(&old);
        // Let go first: an epoch no reader pins is freed, and counted, now.
        drop(old);
        {
            let mut retired = self.retired.lock().expect("retired list poisoned");
            retired.pinned.push(weak);
            let listed = retired.pinned.len();
            retired.pinned.retain(|w| w.strong_count() > 0);
            retired.freed += listed - retired.pinned.len();
        }
        self.swaps.fetch_add(1, Ordering::Release);
        epoch
    }

    /// Times a new epoch was published (== current epoch number).
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Acquire)
    }

    /// Swapped-out epochs whose memory has been freed — their last
    /// in-flight reader dropped its snapshot.
    pub fn retired_epochs(&self) -> usize {
        let retired = self.retired.lock().expect("retired list poisoned");
        retired.freed + retired.pinned.len() - retired.live()
    }

    /// In-flight readers currently pinning the *live* epoch — snapshot
    /// clones handed out and not yet dropped (the publication point's own
    /// reference excluded).
    pub fn pinned_readers(&self) -> usize {
        Arc::strong_count(&self.current.read().expect("published value poisoned")) - 1
    }

    /// Swapped-out epochs still pinned by at least one in-flight reader.
    pub fn live_retired(&self) -> usize {
        self.retired.lock().expect("retired list poisoned").live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_core::{FloodBuilder, Layout};
    use flood_store::{CountVisitor, MultiDimIndex, RangeQuery, Table};

    fn table() -> Table {
        let n = 2_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| i % 50).collect(),
            (0..n).map(|i| (i * 7) % 50).collect(),
            (0..n).collect(),
        ])
    }

    fn build(t: &Table, order: Vec<usize>) -> FloodIndex {
        FloodBuilder::new()
            .layout(Layout::new(order, vec![4, 4]))
            .build(t)
    }

    #[test]
    fn epochs_are_monotone_and_swaps_count() {
        let t = table();
        let p = PublishedIndex::new(build(&t, vec![0, 1, 2]));
        assert_eq!(p.epoch(), 0);
        assert_eq!(p.swaps(), 0);
        assert_eq!(p.publish(build(&t, vec![1, 0, 2])), 1);
        assert_eq!(p.publish(build(&t, vec![2, 1, 0])), 2);
        assert_eq!(p.epoch(), 2);
        assert_eq!(p.swaps(), 2);
        assert_eq!(p.snapshot().epoch(), 2);
    }

    #[test]
    fn retired_epoch_lives_until_last_reader_drops() {
        let t = table();
        let p = PublishedIndex::new(build(&t, vec![0, 1, 2]));
        let held = p.snapshot(); // in-flight reader on epoch 0
        p.publish(build(&t, vec![1, 0, 2]));
        assert_eq!(p.live_retired(), 1, "epoch 0 pinned by the reader");
        assert_eq!(p.retired_epochs(), 0);
        // The pinned snapshot still answers queries against its layout.
        let q = RangeQuery::all(3).with_range(0, 10, 20);
        let mut v = CountVisitor::default();
        held.index().execute(&q, None, &mut v);
        drop(held);
        assert_eq!(p.live_retired(), 0, "last reader gone, epoch 0 freed");
        assert_eq!(p.retired_epochs(), 1);
    }

    #[test]
    fn retired_list_holds_only_pinned_epochs() {
        let p: Published<u64> = Published::new(0);
        let listed = |p: &Published<u64>| p.retired.lock().expect("lock").pinned.len();
        for v in 1..=1_000 {
            p.publish(v);
        }
        let held = p.snapshot(); // pins epoch 1000 across the next swaps
        for v in 1_001..=3_000 {
            p.publish(v);
        }
        assert_eq!(listed(&p), 1, "dead entries are pruned at publish");
        assert_eq!(p.live_retired(), 1, "the held snapshot is still counted");
        assert_eq!(p.retired_epochs() as u64, p.swaps() - 1);
        assert_eq!(held.value(), &1_000);
        drop(held);
        assert_eq!(
            (p.live_retired(), p.retired_epochs() as u64),
            (0, p.swaps())
        );
        p.publish(3_001);
        assert_eq!(listed(&p), 0, "no reader pinned, nothing listed");
        assert_eq!(p.retired_epochs() as u64, p.swaps());
    }

    #[test]
    fn pinned_readers_follow_snapshot_lifetimes() {
        let t = table();
        let p = PublishedIndex::new(build(&t, vec![0, 1, 2]));
        assert_eq!(p.pinned_readers(), 0);
        let a = p.snapshot();
        let b = p.snapshot();
        assert_eq!(p.pinned_readers(), 2);
        drop(a);
        assert_eq!(p.pinned_readers(), 1);
        // A swap orphans the old epoch's readers: they pin a retired
        // epoch, not the live one.
        p.publish(build(&t, vec![1, 0, 2]));
        assert_eq!(p.pinned_readers(), 0);
        drop(b);
    }

    #[test]
    fn snapshot_is_stable_across_a_swap() {
        let t = table();
        let p = PublishedIndex::new(build(&t, vec![0, 1, 2]));
        let snap = p.snapshot();
        p.publish(build(&t, vec![1, 0, 2]));
        assert_eq!(snap.epoch(), 0, "a snapshot never migrates epochs");
        assert_eq!(p.snapshot().epoch(), 1);
    }

    #[test]
    fn published_is_generic_over_any_value() {
        // The tiered server publishes scan generations, not indexes; pin
        // the generic surface with a plain value.
        let p: Published<Vec<u64>> = Published::new(vec![1, 2, 3]);
        let snap = p.snapshot();
        assert_eq!(snap.value(), &vec![1, 2, 3]);
        p.publish(vec![4]);
        assert_eq!(snap.value(), &vec![1, 2, 3], "snapshot keeps its epoch");
        assert_eq!(p.snapshot().value(), &vec![4]);
        assert_eq!(p.snapshot().epoch(), 1);
    }
}
