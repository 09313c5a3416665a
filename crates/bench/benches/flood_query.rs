//! Criterion bench: end-to-end Flood query execution vs baselines on a
//! TPC-H-style workload (a micro-scale Fig 7).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flood_baselines::{Hyperoctree, KdTree, ZOrderIndex};
use flood_core::{FloodBuilder, Layout};
use flood_data::{DatasetKind, Workload, WorkloadKind};
use flood_store::{CountVisitor, MultiDimIndex};

fn bench(c: &mut Criterion) {
    let ds = DatasetKind::TpcH.generate(200_000, 5);
    let w = Workload::generate(WorkloadKind::OlapSkewed, &ds, 50, 0.001, 5);
    let dims: Vec<usize> = (0..6).collect();

    let flood = FloodBuilder::new()
        .layout(Layout::new(vec![0, 3, 2, 1], vec![16, 3, 4]))
        .build(&ds.table);
    let zorder = ZOrderIndex::build(&ds.table, dims.clone());
    let octree = Hyperoctree::build(&ds.table, dims.clone());
    let kd = KdTree::build(&ds.table, dims);

    let indexes: Vec<(&str, &dyn MultiDimIndex)> = vec![
        ("flood", &flood),
        ("zorder", &zorder),
        ("octree", &octree),
        ("kdtree", &kd),
    ];
    let mut group = c.benchmark_group("flood_query");
    for (name, idx) in indexes {
        group.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % w.test.len();
                let mut v = CountVisitor::default();
                idx.execute(black_box(&w.test[i]), None, &mut v);
                black_box(v.count)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
