//! Shared by `prop_parallel` and `tiered_parallel`: a query through the
//! executor's partitioned scan as a [`Run`] for the kit's every-visitor
//! runner.

use flood_exec::QueryExecutor;
use flood_store::{MergeVisitor, PartitionedScan, RangeQuery, ScanStats};
use flood_testkit::Run;

/// `.2` through `.0`'s partitioned scan of `.1`.
pub struct Parallel<'a>(
    pub &'a QueryExecutor,
    pub &'a dyn PartitionedScan,
    pub &'a RangeQuery,
);

impl Run for Parallel<'_> {
    fn run<V: MergeVisitor + Default>(&self, agg: Option<usize>) -> (V, ScanStats) {
        self.0.execute::<V>(self.1, self.2, agg)
    }
}
