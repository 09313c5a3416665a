//! The §8 extensions in action: a table that absorbs streaming inserts
//! through a write buffer over tiered storage, and a Flood index that
//! detects when the query distribution has drifted and re-learns its
//! layout.
//!
//! ```text
//! cargo run --release --example streaming_inserts
//! ```

use flood::core::{CostModel, FloodConfig, LayoutOptimizer, OptimizerConfig};
use flood::data::DatasetKind;
use flood::serve::{AdaptOutcome, AdaptiveConfig, FloodServer, ServeConfig, TieredServer};
use flood::store::{CountVisitor, MemBackend, RangeQuery, TierConfig};
use std::sync::Arc;

fn main() {
    let ds = DatasetKind::Osm.generate(150_000, 17);

    // --- Buffered inserts -------------------------------------------------
    // Seal the table into cold segments (in memory here; `FileBackend`
    // writes them to disk) and serve it as epoch 0.
    let backend = Arc::new(MemBackend::new());
    let server = TieredServer::seal(&ds.table, backend, TierConfig::default()).expect("in-memory");
    let q = RangeQuery::all(6).with_range(2, 40_000_000, 43_000_000);
    let visible = || {
        let mut v = CountVisitor::default();
        let (_, epoch) = server.execute(&q, None, &mut v).expect("in-memory");
        (v.count, epoch)
    };
    println!(
        "(rows in the lat band, epoch) before inserts: {:?}",
        visible()
    );

    // Stream 12k new points near Boston. Readers see none of them until a
    // compaction seals the buffer and publishes the next epoch.
    for i in 0..12_000u64 {
        let row = [
            1_000_000 + i,             // id
            470_000_000 + i,           // timestamp
            42_360_000 + (i % 50_000), // lat
            71_060_000 + (i % 50_000), // lon
            0,                         // type = node
            3,                         // category
        ];
        server.insert(&row).expect("in-memory");
    }
    println!("after 12k inserts: {:?}", visible());
    server.compact().expect("in-memory");
    println!("after compaction: {:?}", visible());

    // --- Adaptive retraining ----------------------------------------------
    let optimizer = LayoutOptimizer::with_config(
        CostModel::analytic_default(),
        OptimizerConfig {
            data_sample: 8_000,
            query_sample: 25,
            ..Default::default()
        },
    );
    // Initial workload: time-range queries.
    let w_time: Vec<RangeQuery> = (0..40)
        .map(|i| RangeQuery::all(6).with_range(1, i * 10_000_000, i * 10_000_000 + 4_000_000))
        .collect();
    let adaptive = FloodServer::build(
        &ds.table,
        &w_time,
        optimizer,
        FloodConfig::default(),
        ServeConfig {
            adaptive: AdaptiveConfig {
                window: 40,
                check_every: 20,
                degradation_factor: 1.3,
            },
            threads: 1,
            ..Default::default()
        },
    );
    println!(
        "\nadaptive index starts with layout {}",
        adaptive.snapshot().index().layout()
    );

    // Serve the time workload first: the layout's reference cost per query.
    let mut retrains = 0;
    for q in &w_time[..20] {
        let mut v = CountVisitor::default();
        adaptive.execute(q, None, &mut v);
        retrains += matches!(adaptive.maybe_adapt(), AdaptOutcome::Swapped(_)) as usize;
    }
    assert_eq!(retrains, 0, "the trained-for workload keeps its layout");

    // The workload shifts to lat/lon rectangles. Every geo query touches
    // far more points than the time queries did, so a short run of them
    // makes a check due and the re-learn searches that run alone.
    let w_geo: Vec<RangeQuery> = (0..60)
        .map(|i| {
            let lat = 39_500_000 + (i % 20) * 250_000;
            RangeQuery::all(6)
                .with_range(2, lat, lat + 400_000)
                .with_range(3, 70_000_000, 76_000_000)
        })
        .collect();
    let mut first_relearned = None;
    for (i, q) in w_geo.iter().enumerate() {
        let mut v = CountVisitor::default();
        let (_, epoch) = adaptive.execute(q, None, &mut v);
        if epoch > 0 {
            first_relearned.get_or_insert(i);
        }
        retrains += matches!(adaptive.maybe_adapt(), AdaptOutcome::Swapped(_)) as usize;
    }
    println!(
        "after the shift to geo queries: {} retrain(s); layout is now {}",
        retrains,
        adaptive.snapshot().index().layout()
    );
    // The reaction bound: a re-learned layout serves the shifted workload
    // within 10 queries of the shift.
    const MAX_STALE: usize = 10;
    let first = first_relearned.expect("the shift must be re-learned");
    println!("first geo query served by a re-learned layout: #{first} (bound {MAX_STALE})");
    assert!(first <= MAX_STALE, "re-learned only at geo query #{first}");
}
