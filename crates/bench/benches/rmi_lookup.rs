//! Criterion bench: RMI CDF evaluation and rectified lookups — the
//! flattening hot path (§5.1) and the clustered baseline's endpoint search.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use flood_learned::rmi::{Rmi, RmiConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmi");
    for &n in &[100_000usize, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX >> 16)).collect();
        keys.sort_unstable();
        let rmi = Rmi::build(&keys, RmiConfig::default());
        let probes: Vec<u64> = (0..1_000).map(|_| keys[rng.gen_range(0..n)]).collect();

        group.bench_with_input(BenchmarkId::new("cdf", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(rmi.cdf(black_box(probes[i])))
            })
        });
        group.bench_with_input(BenchmarkId::new("lookup_lb", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(rmi.lookup_lb(black_box(probes[i]), |j| keys[j]))
            })
        });
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(Rmi::build(&keys, RmiConfig::default())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
