//! Criterion bench: what a tiered read pays besides its I/O — the three
//! pieces of `crates/store/src/tier/` a fault goes through, over a
//! [`MemBackend`] so the backend read is a copy — and that read itself.
//!
//! * `backend_get/{file,mem}` — one [`StorageBackend::get`] of a ≈ 2 KB
//!   segment from a store holding 1 024: a positioned read of
//!   [`FileBackend`]'s data file (page cache warm), against a copy out of
//!   [`MemBackend`].
//! * `cold_acquire/N` — [`SegmentCache::acquire`] of a cold one-block
//!   segment with `N` segments resident and the budget full: read, decode,
//!   insert, evict the stalest. The bookkeeping is O(1), so the three sizes
//!   read the same.
//! * `decode_segment/8_blocks` — validating and decoding one ≈ 2 KB segment,
//!   checksum included.
//! * `time_range_read/1M_arrival_ordered` — `TieredScan::try_execute` of a
//!   0.5 % time window plus one more filter, SUM, on a table a quarter of
//!   which fits the budget: planning from the running segment bounds, then
//!   the faults of the window's few segments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flood_store::tier::{decode_segment, encode_segment};
use flood_store::{
    Block, FileBackend, MemBackend, RangeQuery, SegmentCache, SegmentKey, StorageBackend,
    SumVisitor, Table, TierConfig, TieredScan, BLOCK_LEN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn key(id: u64) -> SegmentKey {
    SegmentKey {
        table: 1,
        dim: 0,
        id,
    }
}

fn blocks(n: usize, rng: &mut StdRng) -> Vec<Block> {
    (0..n)
        .map(|_| {
            let vals: Vec<u64> = (0..BLOCK_LEN)
                .map(|_| rng.gen_range(0..1u64 << 16))
                .collect();
            Block::compress(&vals)
        })
        .collect()
}

fn cold_acquire(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xfa017);
    let mut group = c.benchmark_group("cold_acquire");
    for resident in [64u64, 1_024, 16_384] {
        // One segment more than fits, acquired round-robin: under LRU every
        // acquire is a fault that evicts the segment needed furthest ahead.
        let backend = Arc::new(MemBackend::new());
        let run = blocks(1, &mut rng);
        let bytes: usize = run.iter().map(Block::size_bytes).sum();
        for id in 0..=resident {
            backend.put(key(id), &encode_segment(&run)).unwrap();
        }
        let cache = SegmentCache::new(backend, resident as usize * bytes);
        for id in 0..=resident {
            cache.acquire(key(id)).unwrap();
        }
        let mut next = 0;
        group.bench_function(resident, |b| {
            b.iter(|| {
                let (seg, faulted) = cache.acquire(key(next)).unwrap();
                assert!(faulted);
                next = (next + 1) % (resident + 1);
                black_box(seg)
            })
        });
    }
    group.finish();
}

fn backend_get(c: &mut Criterion) {
    const SEGMENTS: u64 = 1_024;
    let blob = encode_segment(&blocks(8, &mut StdRng::seed_from_u64(0xb10b)));
    let backends: [(&str, Arc<dyn StorageBackend>); 2] = [
        ("file", Arc::new(FileBackend::new_temp().expect("temp dir"))),
        ("mem", Arc::new(MemBackend::new())),
    ];
    let mut group = c.benchmark_group("backend_get");
    for (name, backend) in backends {
        for id in 0..SEGMENTS {
            backend.put(key(id), &blob).unwrap();
        }
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                // Stride coprime to the store: consecutive gets land apart.
                next = (next + 389) % SEGMENTS;
                black_box(backend.get(key(next)).unwrap())
            })
        });
    }
    group.finish();
}

fn decode(c: &mut Criterion) {
    let blob = encode_segment(&blocks(8, &mut StdRng::seed_from_u64(0xdec0de)));
    c.benchmark_group("decode_segment")
        .bench_function("8_blocks", |b| {
            b.iter(|| black_box(decode_segment(black_box(&blob)).unwrap()))
        });
}

fn time_range_read(c: &mut Criterion) {
    const N: u64 = 1_000_000;
    let mut rng = StdRng::seed_from_u64(0x71e7ed);
    let table = Table::from_columns(vec![
        (0..N).map(|i| i * 470 + rng.gen_range(0..400u64)).collect(),
        (0..N).map(|_| rng.gen_range(0..1_000_000u64)).collect(),
        (0..N).map(|_| rng.gen_range(16..100_000u64)).collect(),
    ]);
    let index = TieredScan::seal(&table, Arc::new(MemBackend::new()), TierConfig::default())
        .expect("in-memory seal");
    let cache = index.data().cache();
    cache.set_budget(index.data().cold_bytes() / 4);
    let window = N / 200;
    let mut at = 0;
    c.benchmark_group("time_range_read")
        .bench_function("1M_arrival_ordered", |b| {
            b.iter(|| {
                // Stride coprime to the table: windows land everywhere, and
                // rarely where one just was.
                at = (at + 7_919 * window) % (N - window);
                let q = RangeQuery::all(3)
                    .with_range(0, at * 470, (at + window) * 470)
                    .with_range(1, 250_000, 750_000);
                let mut v = SumVisitor::default();
                let stats = index.try_execute(&q, Some(2), &mut v).unwrap();
                black_box((v.sum, stats))
            })
        });
}

criterion_group!(benches, cold_acquire, backend_get, decode, time_range_read);
criterion_main!(benches);
