//! Segment residency: the memory-budgeted cache between scans and the
//! storage backend.
//!
//! A segment is **resident** while the cache holds a strong reference to
//! its decoded blocks, and **cold** otherwise. [`SegmentCache::acquire`]
//! returns an `Arc` pin: a scan holds pins for every segment it needs for
//! exactly the duration of the query, so eviction can never deallocate
//! data mid-scan — it only drops the *cache's* reference, and the memory
//! is freed when the last pin goes.
//!
//! Eviction is exact least-recently-used in O(1): resident segments sit on
//! a recency list — a slab of nodes linked by index, found through a hash
//! map — so a hit or a fault moves one node to the front, and when resident
//! bytes exceed the budget the tail is dropped. A budget of zero keeps
//! nothing resident — every scan faults everything it touches, the worst
//! case the differential suite pins against the fully-resident oracle.

use super::backend::{SegmentKey, StorageBackend, StorageError};
use super::segment::decode_segment;
use crate::block::Block;
use flood_obs::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sealing and residency knobs for a tiered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Resident-tier memory budget in bytes (decoded segment heap size).
    /// Zero keeps every segment cold.
    pub budget_bytes: usize,
    /// Blocks per sealed segment; the unit of cold-tier I/O is
    /// `segment_blocks ×` [`BLOCK_LEN`](crate::BLOCK_LEN) rows.
    pub segment_blocks: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            budget_bytes: 64 << 20,
            segment_blocks: 8,
        }
    }
}

impl TierConfig {
    /// This configuration with the given memory budget.
    pub fn with_budget(self, budget_bytes: usize) -> Self {
        TierConfig {
            budget_bytes,
            ..self
        }
    }

    /// This configuration with the `FLOOD_MEM_BUDGET` environment variable
    /// (bytes) overriding the budget when set — how CI forces the test
    /// suites through a mostly-cold tier.
    ///
    /// # Panics
    /// When `FLOOD_MEM_BUDGET` is set but not a byte count — a typo must
    /// not turn the forced-cold pass into a warm one.
    pub fn from_env(self) -> Self {
        self.with_budget_override(std::env::var("FLOOD_MEM_BUDGET").ok().as_deref())
    }

    /// [`Self::from_env`] on the variable's value, `None` when unset.
    fn with_budget_override(self, value: Option<&str>) -> Self {
        let Some(v) = value else { return self };
        match v.trim().parse() {
            Ok(budget) => self.with_budget(budget),
            Err(_) => panic!("FLOOD_MEM_BUDGET must be a byte count, got {v:?}"),
        }
    }
}

/// A decoded, pinned segment: the blocks of one column run.
#[derive(Debug)]
pub struct LoadedSegment {
    /// The run's blocks, in block order.
    pub blocks: Vec<Block>,
    /// Decoded heap size, the unit the budget is enforced in.
    pub bytes: usize,
}

/// "No node" in a [`Node`] link and in the list ends.
const NIL: usize = usize::MAX;

/// One resident segment on the recency list.
#[derive(Debug)]
struct Node {
    key: SegmentKey,
    seg: Arc<LoadedSegment>,
    /// Towards the most recently used end.
    prev: usize,
    /// Towards the stalest end.
    next: usize,
}

/// The resident set in recency order. `nodes` is dense — removal moves the
/// last node into the hole — and list order *is* recency: `head` was used
/// last, `tail` is the next to go.
#[derive(Debug)]
struct CacheState {
    map: HashMap<SegmentKey, usize>,
    nodes: Vec<Node>,
    head: usize,
    tail: usize,
    resident_bytes: usize,
}

impl Default for CacheState {
    fn default() -> Self {
        CacheState {
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
        }
    }
}

impl CacheState {
    /// The one link update: what follows `prev` becomes `after`, and what
    /// precedes `next` becomes `before` — `NIL` for `prev` / `next` meaning
    /// the head / tail of the list.
    fn join(&mut self, prev: usize, next: usize, after: usize, before: usize) {
        match prev {
            NIL => self.head = after,
            p => self.nodes[p].next = after,
        }
        match next {
            NIL => self.tail = before,
            n => self.nodes[n].prev = before,
        }
    }

    /// Take slot `i` off the list: its neighbours point at each other.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        self.join(prev, next, next, prev);
    }

    /// Put slot `i` on the list as the most recently used.
    fn link_front(&mut self, i: usize) {
        let head = self.head;
        (self.nodes[i].prev, self.nodes[i].next) = (NIL, head);
        self.join(NIL, head, i, i);
    }

    /// A resident segment, marked most recently used.
    fn touch(&mut self, key: SegmentKey) -> Option<Arc<LoadedSegment>> {
        let i = *self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(self.nodes[i].seg.clone())
    }

    /// Make `seg` resident as the most recently used, in place of any copy
    /// of `key` already there.
    fn insert(&mut self, key: SegmentKey, seg: Arc<LoadedSegment>) {
        self.remove(key);
        self.resident_bytes += seg.bytes;
        let i = self.nodes.len();
        self.nodes.push(Node {
            key,
            seg,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// End `key`'s residency, if any.
    fn remove(&mut self, key: SegmentKey) -> Option<Arc<LoadedSegment>> {
        let i = self.map.remove(&key)?;
        self.unlink(i);
        let node = self.nodes.swap_remove(i);
        if let Some(moved) = self.nodes.get(i) {
            // The former last node now lives in slot `i`: its neighbours
            // and the map follow it there.
            let (prev, next, moved_key) = (moved.prev, moved.next, moved.key);
            self.join(prev, next, i, i);
            self.map.insert(moved_key, i);
        }
        self.resident_bytes -= node.seg.bytes;
        Some(node.seg)
    }

    /// End the stalest segment's residency; `false` when nothing is
    /// resident.
    fn evict_stalest(&mut self) -> bool {
        match self.nodes.get(self.tail) {
            Some(node) => self.remove(node.key).is_some(),
            None => false,
        }
    }
}

/// The memory-budgeted residency manager shared by every snapshot of one
/// tiered table lineage.
#[derive(Debug)]
pub struct SegmentCache {
    backend: Arc<dyn StorageBackend>,
    budget: AtomicUsize,
    state: Mutex<CacheState>,
    faults: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// A cache over `backend` holding at most `budget_bytes` of decoded
    /// segments.
    pub fn new(backend: Arc<dyn StorageBackend>, budget_bytes: usize) -> Self {
        SegmentCache {
            backend,
            budget: AtomicUsize::new(budget_bytes),
            state: Mutex::new(CacheState::default()),
            faults: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The storage backend cold segments are loaded from.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Pin a segment, faulting it in from the backend if it is cold.
    /// Returns the pin and whether this call performed backend I/O (a
    /// *fault*, as opposed to a resident *hit*).
    ///
    /// The backend read and decode run outside the cache lock, so
    /// concurrent scans faulting different segments do not serialize on
    /// each other's I/O.
    pub fn acquire(&self, key: SegmentKey) -> Result<(Arc<LoadedSegment>, bool), StorageError> {
        let hit = self.state().touch(key);
        if let Some(seg) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((seg, false));
        }
        let seg = self.load(key)?;
        self.admit(key, seg.clone());
        Ok((seg, true))
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("segment cache poisoned")
    }

    /// Read and decode one segment from the backend, past the cache: no
    /// residency, no counters.
    pub(crate) fn load(&self, key: SegmentKey) -> Result<Arc<LoadedSegment>, StorageError> {
        let bytes = self.backend.get(key)?;
        let blocks =
            decode_segment(&bytes).map_err(|detail| StorageError::Corrupt { key, detail })?;
        let bytes = blocks.iter().map(Block::size_bytes).sum();
        Ok(Arc::new(LoadedSegment { blocks, bytes }))
    }

    /// Count a fault and make its segment resident. Another scan may have
    /// loaded the same segment meanwhile; one copy is kept either way (this
    /// one — last writer wins, both are identical).
    fn admit(&self, key: SegmentKey, seg: Arc<LoadedSegment>) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state();
        st.insert(key, seg);
        self.evict_over_budget(&mut st);
    }

    /// Drop cache references until resident bytes fit the budget, stalest
    /// first. Pinned segments stay alive through their scans' `Arc`s; only
    /// residency ends.
    fn evict_over_budget(&self, st: &mut CacheState) {
        let budget = self.budget.load(Ordering::Relaxed);
        while st.resident_bytes > budget && st.evict_stalest() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict every resident segment (the adversarial schedule in the
    /// property suite; in-flight pins stay valid).
    pub fn evict_all(&self) {
        let mut st = self.state();
        self.evictions
            .fetch_add(st.nodes.len() as u64, Ordering::Relaxed);
        *st = CacheState::default();
    }

    /// Forget one segment if resident (used when a compaction retires its
    /// key for good; not counted as an eviction).
    pub(crate) fn discard(&self, key: SegmentKey) {
        self.state().remove(key);
    }

    /// Change the memory budget; enforcement happens immediately.
    pub fn set_budget(&self, budget_bytes: usize) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
        self.evict_over_budget(&mut self.state());
    }

    /// The current memory budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Bytes of decoded segments currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.state().resident_bytes
    }

    /// Number of segments currently resident.
    pub fn resident_segments(&self) -> usize {
        self.state().nodes.len()
    }

    /// Whether a segment is currently resident (per-segment residency
    /// tracking, surfaced for tests and diagnostics).
    pub fn is_resident(&self, key: SegmentKey) -> bool {
        self.state().map.contains_key(&key)
    }

    /// Lifetime count of backend loads (cold acquisitions).
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Lifetime count of resident acquisitions.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of budget evictions (including [`SegmentCache::evict_all`]).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Publish the cache's current state as gauges under `subsystem` in
    /// `registry` — the `flood-obs` bridge for the cold tier's
    /// fault/eviction counts.
    pub fn publish_gauges(&self, registry: &Registry, subsystem: &str) {
        let g = |name: &str, v: i64| registry.gauge(subsystem, name).set(v);
        g("budget_bytes", self.budget_bytes() as i64);
        g("resident_bytes", self.resident_bytes() as i64);
        g("resident_segments", self.resident_segments() as i64);
        g("faults", self.faults() as i64);
        g("hits", self.hits() as i64);
        g("evictions", self.evictions() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemBackend;
    use super::super::segment::encode_segment;
    use super::*;
    use crate::block::BLOCK_LEN;

    fn put_segment(b: &MemBackend, key: SegmentKey, base: u64) -> usize {
        let vals: Vec<u64> = (0..BLOCK_LEN as u64).map(|i| base + i).collect();
        let blocks = vec![Block::compress(&vals)];
        b.put(key, &encode_segment(&blocks)).unwrap();
        blocks.iter().map(Block::size_bytes).sum()
    }

    fn key(id: u64) -> SegmentKey {
        SegmentKey {
            table: 1,
            dim: 0,
            id,
        }
    }

    #[test]
    fn fault_then_hit() {
        let backend = Arc::new(MemBackend::new());
        put_segment(&backend, key(0), 100);
        let cache = SegmentCache::new(backend, 1 << 20);
        let (seg, faulted) = cache.acquire(key(0)).unwrap();
        assert!(faulted);
        assert_eq!(seg.blocks[0].get(0), 100);
        let (_, faulted) = cache.acquire(key(0)).unwrap();
        assert!(!faulted, "second acquire must be a hit");
        assert_eq!((cache.faults(), cache.hits()), (1, 1));
        assert!(cache.is_resident(key(0)));
    }

    #[test]
    fn budget_evicts_lru() {
        let backend = Arc::new(MemBackend::new());
        let sz = put_segment(&backend, key(0), 0);
        put_segment(&backend, key(1), 1000);
        put_segment(&backend, key(2), 2000);
        // Room for exactly two segments.
        let cache = SegmentCache::new(backend, 2 * sz);
        cache.acquire(key(0)).unwrap();
        cache.acquire(key(1)).unwrap();
        cache.acquire(key(0)).unwrap(); // refresh 0; 1 is now stalest
        cache.acquire(key(2)).unwrap();
        assert!(cache.is_resident(key(0)));
        assert!(!cache.is_resident(key(1)), "LRU segment must be evicted");
        assert!(cache.is_resident(key(2)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_budget_keeps_nothing_resident() {
        let backend = Arc::new(MemBackend::new());
        put_segment(&backend, key(0), 0);
        let cache = SegmentCache::new(backend, 0);
        for _ in 0..3 {
            let (_, faulted) = cache.acquire(key(0)).unwrap();
            assert!(faulted, "budget 0: every acquire faults");
        }
        assert_eq!(cache.resident_segments(), 0);
        assert_eq!(cache.faults(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn pins_survive_eviction() {
        let backend = Arc::new(MemBackend::new());
        put_segment(&backend, key(0), 42);
        let cache = SegmentCache::new(backend, 1 << 20);
        let (pin, _) = cache.acquire(key(0)).unwrap();
        cache.evict_all();
        assert_eq!(cache.resident_segments(), 0);
        // The pinned data is still readable after eviction.
        assert_eq!(pin.blocks[0].get(0), 42);
    }

    #[test]
    fn set_budget_enforces_immediately() {
        let backend = Arc::new(MemBackend::new());
        put_segment(&backend, key(0), 0);
        put_segment(&backend, key(1), 0);
        let cache = SegmentCache::new(backend, 1 << 20);
        cache.acquire(key(0)).unwrap();
        cache.acquire(key(1)).unwrap();
        assert_eq!(cache.resident_segments(), 2);
        cache.set_budget(0);
        assert_eq!(cache.resident_segments(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// The policy this cache replaced, kept as the reference model: a
    /// logical clock stamps every use and eviction takes
    /// `min_by_key(last_use)` over the whole resident set.
    #[derive(Default)]
    struct ClockModel {
        /// key → (bytes, last use).
        map: HashMap<SegmentKey, (usize, u64)>,
        clock: u64,
        budget: usize,
        resident_bytes: usize,
        faults: u64,
        hits: u64,
        evictions: u64,
        /// Keys evicted for the budget, in eviction order.
        evicted: Vec<SegmentKey>,
    }

    impl ClockModel {
        fn acquire(&mut self, key: SegmentKey, bytes: usize) {
            self.clock += 1;
            match self.map.get_mut(&key) {
                Some(e) => {
                    e.1 = self.clock;
                    self.hits += 1;
                }
                None => self.load(key, bytes),
            }
        }

        /// The insert half of a fault — on its own, a racing second load.
        fn load(&mut self, key: SegmentKey, bytes: usize) {
            self.faults += 1;
            self.clock += 1;
            let prev = self.map.insert(key, (bytes, self.clock));
            self.resident_bytes += bytes;
            self.resident_bytes -= prev.map_or(0, |p| p.0);
            self.evict_over_budget();
        }

        fn evict_over_budget(&mut self) {
            while self.resident_bytes > self.budget && !self.map.is_empty() {
                let stalest = *self.map.iter().min_by_key(|(_, e)| e.1).unwrap().0;
                self.resident_bytes -= self.map.remove(&stalest).unwrap().0;
                self.evictions += 1;
                self.evicted.push(stalest);
            }
        }

        fn set_budget(&mut self, budget: usize) {
            self.budget = budget;
            self.evict_over_budget();
        }

        fn evict_all(&mut self) {
            self.evictions += self.map.len() as u64;
            self.map.clear();
            self.resident_bytes = 0;
        }

        fn discard(&mut self, key: SegmentKey) {
            self.resident_bytes -= self.map.remove(&key).map_or(0, |e| e.0);
        }

        /// Resident keys, most recently used first.
        fn recency(&self) -> Vec<SegmentKey> {
            let mut keys: Vec<_> = self.map.iter().map(|(k, e)| (e.1, *k)).collect();
            keys.sort_unstable_by_key(|&(used, _)| std::cmp::Reverse(used));
            keys.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// Walk the cache's list head to tail, checking the slab against the
    /// map and the byte count on the way; returns the keys in list order.
    fn checked_recency(cache: &SegmentCache) -> Vec<SegmentKey> {
        let st = cache.state();
        assert_eq!(st.map.len(), st.nodes.len());
        let (mut keys, mut bytes, mut prev, mut at) = (Vec::new(), 0, NIL, st.head);
        while at != NIL {
            let node = &st.nodes[at];
            assert_eq!(node.prev, prev, "back link of slot {at}");
            assert_eq!(st.map[&node.key], at, "map entry of {:?}", node.key);
            keys.push(node.key);
            bytes += node.seg.bytes;
            (prev, at) = (at, node.next);
        }
        assert_eq!(st.tail, prev);
        assert_eq!(keys.len(), st.nodes.len(), "every slot is on the list");
        assert_eq!(
            st.resident_bytes, bytes,
            "resident_bytes = Σ resident bytes"
        );
        keys
    }

    fn assert_same(cache: &SegmentCache, model: &ClockModel, step: &str) {
        assert_eq!(checked_recency(cache), model.recency(), "{step}: recency");
        assert_eq!(cache.resident_bytes(), model.resident_bytes, "{step}");
        assert_eq!(
            (cache.faults(), cache.hits(), cache.evictions()),
            (model.faults, model.hits, model.evictions),
            "{step}: faults / hits / evictions"
        );
    }

    #[test]
    fn lru_list_matches_clock_model_on_random_schedules() {
        for seed in 0..150u64 {
            let mut state = seed;
            let mut rng = |below: u64| {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % below
            };
            // 1–64 segments of one to three blocks at differing widths.
            let backend = Arc::new(MemBackend::new());
            let sizes: Vec<usize> = (0..1 + rng(64))
                .map(|id| {
                    let vals: Vec<u64> = (0..BLOCK_LEN as u64).map(|i| i << (id % 9)).collect();
                    let blocks = vec![Block::compress(&vals); 1 + (id % 3) as usize];
                    backend.put(key(id), &encode_segment(&blocks)).unwrap();
                    blocks.iter().map(Block::size_bytes).sum()
                })
                .collect();
            let total: usize = sizes.iter().sum();
            let smallest = *sizes.iter().min().unwrap();
            let budget = |rng: &mut dyn FnMut(u64) -> u64| match rng(6) {
                0 => 0,
                1 => 1,
                2 => smallest - 1,
                3 => 1 << 40,
                _ => rng(total as u64 + 1) as usize,
            };

            let first = budget(&mut rng);
            let cache = SegmentCache::new(backend, first);
            let mut model = ClockModel {
                budget: first,
                ..Default::default()
            };
            for step in 0..250 {
                let id = rng(sizes.len() as u64);
                let (k, bytes) = (key(id), sizes[id as usize]);
                let op = match rng(20) {
                    0..=11 => {
                        let hit = model.map.contains_key(&k);
                        let (seg, faulted) = cache.acquire(k).unwrap();
                        assert_eq!((seg.bytes, faulted), (bytes, !hit));
                        model.acquire(k, bytes);
                        "acquire"
                    }
                    12..=13 => {
                        // A second load of a key that may already be
                        // resident: what a racing scan's fault does.
                        cache.admit(k, cache.load(k).unwrap());
                        model.load(k, bytes);
                        "duplicate load"
                    }
                    14..=15 => {
                        cache.discard(k);
                        model.discard(k);
                        "discard"
                    }
                    16..=18 => {
                        let b = budget(&mut rng);
                        cache.set_budget(b);
                        model.set_budget(b);
                        "set_budget"
                    }
                    _ => {
                        cache.evict_all();
                        model.evict_all();
                        "evict_all"
                    }
                };
                assert_same(&cache, &model, &format!("seed {seed} step {step} {op}"));
            }

            // Drain one eviction at a time: each takes the list's tail, the
            // segment the model calls stalest.
            model.evicted.clear();
            while model.resident_bytes > 0 {
                let tail = *checked_recency(&cache).last().unwrap();
                cache.set_budget(model.resident_bytes - 1);
                model.set_budget(model.resident_bytes - 1);
                assert_eq!(model.evicted.pop(), Some(tail), "seed {seed}: drain order");
                assert!(model.evicted.is_empty(), "one eviction per step");
                assert_same(&cache, &model, &format!("seed {seed} drain"));
            }
        }
    }

    #[test]
    fn gauges_reflect_cache_state() {
        let backend = Arc::new(MemBackend::new());
        put_segment(&backend, key(0), 0);
        let cache = SegmentCache::new(backend, 1 << 20);
        cache.acquire(key(0)).unwrap();
        cache.acquire(key(0)).unwrap();
        let reg = Registry::new();
        cache.publish_gauges(&reg, "tier");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("tier", "faults"), Some(1));
        assert_eq!(snap.gauge("tier", "hits"), Some(1));
        assert_eq!(snap.gauge("tier", "resident_segments"), Some(1));
        assert!(snap.gauge("tier", "resident_bytes").unwrap() > 0);
    }

    #[test]
    fn from_env_reads_budget_override() {
        // Avoid touching the real env (tests run concurrently): exercise
        // the parse path only when the variable is absent.
        if std::env::var("FLOOD_MEM_BUDGET").is_err() {
            let cfg = TierConfig::default().with_budget(123).from_env();
            assert_eq!(cfg.budget_bytes, 123);
        }
        let base = TierConfig::default().with_budget(123);
        assert_eq!(base.with_budget_override(None).budget_bytes, 123);
        assert_eq!(base.with_budget_override(Some(" 4096 ")).budget_bytes, 4096);
    }

    #[test]
    #[should_panic(expected = "FLOOD_MEM_BUDGET must be a byte count, got \"4k\"")]
    fn unparsable_budget_override_is_rejected_by_name() {
        let _ = TierConfig::default().with_budget_override(Some("4k"));
    }
}
