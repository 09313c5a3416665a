//! Input generators: tables, query lists and operation orders for the four
//! workloads. The table and the training draw are a fixed data set
//! ([`FIXTURE_SEED`]); the operations served come from `--seed`.
//!
//! The benchmark owns these (nothing from `flood-data`, no library RNG), so
//! the same seed gives byte-identical inputs on every commit the benchmark
//! is run against. The system under test receives only what is generated
//! here; the oracle in this file answers queries from the raw columns.

use crate::stats::Fnv;

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for one purpose, so adding draws to one part
    /// of a generator never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Log-normal clamped into `lo..=hi`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64, lo: u64, hi: u64) -> u64 {
        ((mu + sigma * self.normal()).exp() as u64).clamp(lo, hi)
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}

/// Zipf over `0..n` with exponent `s`, sampled by inverting a stored CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1) as u64
    }
}

/// A conjunctive range query in the benchmark's own representation:
/// per dimension an inclusive `(lo, hi)` or no filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub bounds: Vec<Option<(u64, u64)>>,
}

impl Query {
    fn all(dims: usize) -> Self {
        Query {
            bounds: vec![None; dims],
        }
    }

    #[cfg(test)]
    pub fn filtered_dims(&self) -> usize {
        self.bounds.iter().flatten().count()
    }

    fn hash_into(&self, h: &mut Fnv) {
        for b in &self.bounds {
            match b {
                Some((lo, hi)) => h.words(&[1, *lo, *hi]),
                None => h.word(0),
            }
        }
    }
}

/// One operation of a workload, in the order the client issues them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Read(Query),
    /// A batch of rows (row-major) to insert.
    Insert(Vec<Vec<u64>>),
}

/// Everything one workload hands to the system.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The table at load time, column-major.
    pub columns: Vec<Vec<u64>>,
    /// Queries the layout is learned on: a separate draw from the
    /// distribution the operations start with.
    pub train: Vec<Query>,
    pub ops: Vec<Op>,
    /// Column summed by every read; `None` for COUNT.
    pub agg_dim: Option<usize>,
    /// Operations per drift phase (`ops.len()` when the workload has one
    /// phase).
    pub phase_len: usize,
}

impl Inputs {
    pub fn rows(&self) -> usize {
        self.columns[0].len()
    }

    pub fn reads(&self) -> impl Iterator<Item = &Query> {
        self.ops.iter().filter_map(|op| match op {
            Op::Read(q) => Some(q),
            Op::Insert(_) => None,
        })
    }

    /// Hash of the table, the training draw and the operation order.
    pub fn hash_into(&self, h: &mut Fnv) {
        for c in &self.columns {
            h.words(c);
        }
        for q in &self.train {
            q.hash_into(h);
        }
        for op in &self.ops {
            match op {
                Op::Read(q) => {
                    h.word(0xAEAD);
                    q.hash_into(h);
                }
                Op::Insert(rows) => {
                    h.word(0x1175);
                    for r in rows {
                        h.words(r);
                    }
                }
            }
        }
        h.words(&[
            self.agg_dim.map_or(u64::MAX, |d| d as u64),
            self.phase_len as u64,
        ]);
    }
}

/// Brute force over the first `len` rows of the raw columns:
/// `(COUNT, SUM(agg_dim))`, the sum wrapping like the system's `SumVisitor`.
pub fn oracle(columns: &[Vec<u64>], len: usize, q: &Query, agg_dim: Option<usize>) -> (u64, u64) {
    let filters: Vec<(&[u64], u64, u64)> = q
        .bounds
        .iter()
        .enumerate()
        .filter_map(|(d, b)| b.map(|(lo, hi)| (&columns[d][..len], lo, hi)))
        .collect();
    let (mut count, mut sum) = (0u64, 0u64);
    for r in 0..len {
        if filters.iter().all(|&(c, lo, hi)| (lo..=hi).contains(&c[r])) {
            count += 1;
            if let Some(d) = agg_dim {
                sum = sum.wrapping_add(columns[d][r]);
            }
        }
    }
    (count, sum)
}

/// The four workloads. `BENCHMARK.json` and the README say why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OlapResident,
    NarrowLookup,
    DriftAdapt,
    TieredMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OlapResident,
        Workload::NarrowLookup,
        Workload::DriftAdapt,
        Workload::TieredMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapResident => "olap_resident",
            Workload::NarrowLookup => "narrow_lookup",
            Workload::DriftAdapt => "drift_adapt",
            Workload::TieredMixed => "tiered_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OlapResident => "lineitem-shaped range scans with SUM at 0.1-1% selectivity: the store scan kernels do most of the work, so block skip/accept/probe, exact ranges and layout quality show here",
            Workload::NarrowLookup => "key-window lookups matching at most 32 rows: almost nothing is scanned, so planning and serving overhead show here and a scan-kernel change must not",
            Workload::DriftAdapt => "abruptly drifting stream with adaptation polled inline: learning, rebuilding and publishing layouts is on the critical path, so a query gain bought with a slower build shows here",
            Workload::TieredMixed => "table four times its cache budget behind a file backend, 90% reads and 10% insert batches: cache policy, fault cost, segment decode and compaction show here",
        }
    }
}

/// Rows per insert batch (`tiered_mixed`).
pub const INSERT_BATCH: usize = 128;
/// Drift phases (`drift_adapt`).
pub const DRIFT_PHASES: usize = 8;
/// Queries in every training draw.
pub const TRAIN_QUERIES: usize = 200;

/// Seed of everything a layout is learned from: the table, the row sample
/// queries are shaped on, and the training draw. These are the benchmark's
/// data set, the same for every `--seed`, so every run learns the same
/// layouts and `scan_overhead`, `bytes_per_row` and the set-up work do not
/// wander with the seed (a tenth either way when they did: a different
/// table learns a different grid). `--seed` draws what is *served*: the
/// queries, the operation order and which rows arrive when.
pub const FIXTURE_SEED: u64 = 42;

/// Generate one workload's inputs: `rows` table rows and `ops` operations.
pub fn generate(workload: Workload, seed: u64, rows: usize, ops: usize) -> Inputs {
    match workload {
        Workload::OlapResident => olap_resident(seed, rows, ops),
        Workload::NarrowLookup => narrow_lookup(seed, rows, ops),
        Workload::DriftAdapt => drift_adapt(seed, rows, ops),
        Workload::TieredMixed => tiered_mixed(seed, rows, ops),
    }
}

/// A fixed-size row sample with per-dimension sorted values: quantile
/// lookups and selectivity estimates for query construction.
struct Sample {
    rows: Vec<Vec<u64>>,
    sorted: Vec<Vec<u64>>,
}

const SAMPLE_ROWS: usize = 4096;

impl Sample {
    fn new(columns: &[Vec<u64>], rng: &mut Rng) -> Self {
        let n = columns[0].len();
        let rows: Vec<Vec<u64>> = (0..SAMPLE_ROWS.min(n))
            .map(|_| {
                let r = rng.below(n as u64) as usize;
                columns.iter().map(|c| c[r]).collect()
            })
            .collect();
        let sorted = (0..columns.len())
            .map(|d| {
                let mut v: Vec<u64> = rows.iter().map(|r| r[d]).collect();
                v.sort_unstable();
                v
            })
            .collect();
        Sample { rows, sorted }
    }

    /// Where `v` sits in dimension `d`, as a fraction of the sample
    /// (midpoint of its run of equal values).
    fn rank(&self, d: usize, v: u64) -> f64 {
        let s = &self.sorted[d];
        let below = s.partition_point(|&x| x < v);
        let upto = s.partition_point(|&x| x <= v);
        (below + upto) as f64 / 2.0 / s.len() as f64
    }

    fn value_at(&self, d: usize, frac: f64) -> u64 {
        let s = &self.sorted[d];
        s[((frac * s.len() as f64) as usize).min(s.len() - 1)]
    }

    /// A range on dimension `d` holding about `width` of the rows and the
    /// value `v`.
    fn window(&self, d: usize, v: u64, width: f64) -> (u64, u64) {
        let lo_f = (self.rank(d, v) - width / 2.0).clamp(0.0, 1.0 - width);
        (
            self.value_at(d, lo_f).min(v),
            self.value_at(d, lo_f + width).max(v),
        )
    }

    fn selectivity(&self, q: &Query) -> f64 {
        let hits = self
            .rows
            .iter()
            .filter(|r| {
                q.bounds
                    .iter()
                    .zip(r.iter())
                    .all(|(b, v)| b.is_none_or(|(lo, hi)| (lo..=hi).contains(v)))
            })
            .count();
        hits as f64 / self.rows.len() as f64
    }

    /// A query filtering `dims` around the point `center`, its window
    /// widths adjusted on the sample until about `target` of the rows
    /// match — correlated and discrete dimensions included, which a
    /// product of per-dimension widths would get wrong.
    fn query_around(&self, center: &[u64], dims: &[usize], target: f64) -> Query {
        let k = dims.len() as f64;
        let floor = 1.0 / self.rows.len() as f64;
        let mut widths = vec![target.powf(1.0 / k); dims.len()];
        let mut q = Query::all(center.len());
        for _ in 0..3 {
            for (&d, &w) in dims.iter().zip(&widths) {
                q.bounds[d] = Some(self.window(d, center[d], w));
            }
            let est = self.selectivity(&q).max(floor / 2.0);
            if (0.75..=1.33).contains(&(est / target)) {
                break;
            }
            let scale = (target / est).powf(1.0 / k);
            for w in &mut widths {
                *w = (*w * scale).clamp(floor, 1.0);
            }
        }
        q
    }
}

fn row_of(columns: &[Vec<u64>], r: usize) -> Vec<u64> {
    columns.iter().map(|c| c[r]).collect()
}

/// `olap_resident`: lineitem-shaped. Sequential key, three mutually
/// correlated dates, 50-value quantity, 11-value discount, skewed price;
/// five templates filtering 2–4 dimensions at 0.1–1 % selectivity.
fn olap_resident(seed: u64, rows: usize, ops: usize) -> Inputs {
    const KEY: usize = 0;
    const SHIP: usize = 1;
    const COMMIT: usize = 2;
    const RECEIPT: usize = 3;
    const QUANTITY: usize = 4;
    const DISCOUNT: usize = 5;
    const PRICE: usize = 6;
    let mut rng = Rng::stream(FIXTURE_SEED, 1);
    let mut columns: Vec<Vec<u64>> = (0..7).map(|_| Vec::with_capacity(rows)).collect();
    for i in 0..rows {
        let order = rng.below(2_400);
        let ship = order + rng.range(1, 121);
        let quantity = rng.range(1, 50);
        columns[KEY].push(i as u64);
        columns[SHIP].push(ship);
        columns[COMMIT].push(order + rng.range(30, 90));
        columns[RECEIPT].push(ship + rng.range(1, 30));
        columns[QUANTITY].push(quantity);
        columns[DISCOUNT].push(rng.below(11));
        columns[PRICE].push(quantity * rng.log_normal(6.9, 0.8, 100, 200_000));
    }
    let templates: [&[usize]; 5] = [
        &[SHIP, DISCOUNT, QUANTITY],
        &[SHIP, RECEIPT],
        &[KEY, QUANTITY],
        &[COMMIT, RECEIPT, DISCOUNT, QUANTITY],
        &[PRICE, SHIP],
    ];
    let sample = Sample::new(&columns, &mut Rng::stream(FIXTURE_SEED, 2));
    let draw = |rng: &mut Rng, n: usize| -> Vec<Query> {
        (0..n)
            .map(|_| {
                let dims = templates[rng.below(5) as usize];
                let center = row_of(&columns, rng.below(rows as u64) as usize);
                sample.query_around(&center, dims, rng.log_uniform(0.001, 0.01))
            })
            .collect()
    };
    let train = draw(&mut Rng::stream(FIXTURE_SEED, 3), TRAIN_QUERIES);
    let ops: Vec<Op> = draw(&mut Rng::stream(seed, 4), ops)
        .into_iter()
        .map(Op::Read)
        .collect();
    Inputs {
        phase_len: ops.len(),
        columns,
        train,
        ops,
        agg_dim: Some(PRICE),
    }
}

/// `narrow_lookup`: 12 mixed columns; every query pins a window of at most
/// 32 values on the unique key column and filters 3–7 more columns loosely
/// around the same row, so 1–32 rows match and almost nothing is scanned.
fn narrow_lookup(seed: u64, rows: usize, ops: usize) -> Inputs {
    const DIMS: usize = 12;
    const KEY: usize = 0;
    const KEY_STRIDE: u64 = 7;
    let mut rng = Rng::stream(FIXTURE_SEED, 1);
    let mut columns: Vec<Vec<u64>> = Vec::with_capacity(DIMS);
    // 0: unique key (a permutation, spread by a stride).
    let mut key: Vec<u64> = (0..rows as u64).map(|i| i * KEY_STRIDE).collect();
    for i in (1..rows).rev() {
        key.swap(i, rng.below(i as u64 + 1) as usize);
    }
    columns.push(key);
    // 1–3 uniform, 4–6 Zipf, 7–9 clustered, 10 low-cardinality, 11 skewed.
    for n in [1_000_000, 50_000, 1_000] {
        columns.push((0..rows).map(|_| rng.below(n)).collect());
    }
    for (n, s) in [(1_000, 1.1), (100, 1.3), (10_000, 1.0)] {
        let z = Zipf::new(n, s);
        columns.push((0..rows).map(|_| z.sample(&mut rng)).collect());
    }
    for spread in [4_000.0, 15_000.0, 60_000.0] {
        let centres: Vec<f64> = (0..20).map(|_| rng.below(1_000_000) as f64).collect();
        columns.push(
            (0..rows)
                .map(|_| {
                    let c = centres[rng.below(20) as usize];
                    (c + spread * rng.normal()).clamp(0.0, 1_300_000.0) as u64
                })
                .collect(),
        );
    }
    columns.push((0..rows).map(|_| rng.below(24)).collect());
    columns.push(
        (0..rows)
            .map(|_| rng.log_normal(8.0, 1.5, 1, 10_000_000))
            .collect(),
    );

    let sample = Sample::new(&columns, &mut Rng::stream(FIXTURE_SEED, 2));
    let draw = |rng: &mut Rng, n: usize| -> Vec<Query> {
        (0..n)
            .map(|_| {
                let center = row_of(&columns, rng.below(rows as u64) as usize);
                let mut q = Query::all(DIMS);
                let window = rng.range(8, 32);
                let lo = (center[KEY] / KEY_STRIDE).saturating_sub(rng.below(window));
                q.bounds[KEY] = Some((lo * KEY_STRIDE, (lo + window - 1) * KEY_STRIDE));
                let mut extra = rng.range(3, 7);
                while extra > 0 {
                    let d = rng.range(1, DIMS as u64 - 1) as usize;
                    if q.bounds[d].is_none() {
                        let width = 0.2 + 0.4 * rng.unit();
                        q.bounds[d] = Some(sample.window(d, center[d], width));
                        extra -= 1;
                    }
                }
                q
            })
            .collect()
    };
    let train = draw(&mut Rng::stream(FIXTURE_SEED, 3), TRAIN_QUERIES);
    let ops: Vec<Op> = draw(&mut Rng::stream(seed, 4), ops)
        .into_iter()
        .map(Op::Read)
        .collect();
    Inputs {
        phase_len: ops.len(),
        columns,
        train,
        ops,
        agg_dim: None,
    }
}

/// `drift_adapt`: sales-shaped, six columns. The stream has
/// [`DRIFT_PHASES`] phases; phase `k` filters the dimension pair
/// `{2k, 2k+1} mod 6` at 0.1 % selectivity around rows whose first hot
/// value sits in a quantile band that slides with `k`. The change at a
/// phase boundary is abrupt.
fn drift_adapt(seed: u64, rows: usize, ops: usize) -> Inputs {
    let mut rng = Rng::stream(FIXTURE_SEED, 1);
    let store = Zipf::new(500, 1.05);
    let product = Zipf::new(5_000, 1.1);
    let mut columns: Vec<Vec<u64>> = (0..6).map(|_| Vec::with_capacity(rows)).collect();
    for _ in 0..rows {
        columns[0].push(store.sample(&mut rng));
        columns[1].push(product.sample(&mut rng));
        columns[2].push(rng.below(20));
        columns[3].push(rng.log_normal(7.0, 1.2, 1, 5_000_000));
        columns[4].push(if rng.chance(0.9) {
            rng.range(1, 5)
        } else {
            rng.range(6, 50)
        });
        columns[5].push(rng.below(730));
    }
    let sample = Sample::new(&columns, &mut Rng::stream(FIXTURE_SEED, 2));
    let phase_query = |rng: &mut Rng, phase: usize| -> Query {
        let hot = [(2 * phase) % 6, (2 * phase + 1) % 6];
        let band_lo = 0.6 * phase as f64 / (DRIFT_PHASES - 1) as f64;
        let center = loop {
            let c = row_of(&columns, rng.below(rows as u64) as usize);
            // Heavy discrete values straddle any band; accept when the
            // value's run of equal ranks overlaps it.
            let r = sample.rank(hot[0], c[hot[0]]);
            if (band_lo - 0.1..=band_lo + 0.5).contains(&r) {
                break c;
            }
        };
        sample.query_around(&center, &hot, 0.001)
    };
    let mut train_rng = Rng::stream(FIXTURE_SEED, 3);
    let train = (0..TRAIN_QUERIES)
        .map(|_| phase_query(&mut train_rng, 0))
        .collect();
    let phase_len = (ops / DRIFT_PHASES).max(1);
    let mut ops_rng = Rng::stream(seed, 4);
    let ops: Vec<Op> = (0..phase_len * DRIFT_PHASES)
        .map(|i| Op::Read(phase_query(&mut ops_rng, i / phase_len)))
        .collect();
    Inputs {
        columns,
        train,
        ops,
        agg_dim: None,
        phase_len,
    }
}

/// `tiered_mixed`: OSM-shaped, six columns, sorted by timestamp. 90 % reads
/// (a time range plus one more dimension, 0.1–1 % selectivity, four in five
/// centred in the newest fifth of the rows that exist when the read is
/// issued) and 10 % insert batches whose timestamps keep increasing.
fn tiered_mixed(seed: u64, rows: usize, ops: usize) -> Inputs {
    const TIME: usize = 0;
    const BYTES: usize = 5;
    // Exactly a tenth of the operations insert, at seeded positions: the
    // rows that will ever exist — and with them the row sample and the
    // training draw — are then the same for every seed.
    let mut order_rng = Rng::stream(seed, 5);
    let mut is_insert: Vec<bool> = (0..ops).map(|i| i < ops / 10).collect();
    for i in (1..ops).rev() {
        is_insert.swap(i, order_rng.below(i as u64 + 1) as usize);
    }
    let total = rows + ops / 10 * INSERT_BATCH;

    let mut rng = Rng::stream(FIXTURE_SEED, 1);
    let category = Zipf::new(100, 1.3);
    let metros: Vec<(f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                39_000_000.0 + rng.below(6_000_000) as f64,
                68_000_000.0 + rng.below(12_000_000) as f64,
                200_000.0 + rng.below(700_000) as f64,
            )
        })
        .collect();
    let mut all: Vec<Vec<u64>> = (0..6).map(|_| Vec::with_capacity(total)).collect();
    for i in 0..total {
        let (lat, lon, spread) = metros[(rng.below(10) as usize).min(5)];
        all[TIME].push(i as u64 * 470 + rng.below(400));
        all[1].push((lat + spread * rng.normal()).max(0.0) as u64);
        all[2].push((lon + spread * rng.normal()).max(0.0) as u64);
        all[3].push(match rng.below(100) {
            0..=84 => 0,
            85..=97 => 1,
            98 => 2,
            _ => 3,
        });
        all[4].push(category.sample(&mut rng));
        all[BYTES].push(rng.log_normal(6.0, 1.0, 16, 1_000_000));
    }
    let sample = Sample::new(&all, &mut Rng::stream(FIXTURE_SEED, 2));
    let read = |rng: &mut Rng, existing: usize| -> Query {
        let newest = existing - existing / 5;
        let r = if rng.chance(0.8) {
            rng.range(newest as u64, existing as u64 - 1)
        } else {
            rng.below(existing as u64)
        };
        let other = rng.range(1, 4) as usize;
        let target = rng.log_uniform(0.001, 0.01);
        sample.query_around(&row_of(&all, r as usize), &[TIME, other], target)
    };
    let mut train_rng = Rng::stream(FIXTURE_SEED, 3);
    let train = (0..TRAIN_QUERIES)
        .map(|_| read(&mut train_rng, rows))
        .collect();
    let mut ops_rng = Rng::stream(seed, 4);
    let mut existing = rows;
    let ops: Vec<Op> = is_insert
        .iter()
        .map(|&insert| {
            if insert {
                let batch = (existing..existing + INSERT_BATCH)
                    .map(|r| row_of(&all, r))
                    .collect();
                existing += INSERT_BATCH;
                Op::Insert(batch)
            } else {
                Op::Read(read(&mut ops_rng, existing))
            }
        })
        .collect();
    for c in &mut all {
        c.truncate(rows);
    }
    Inputs {
        phase_len: ops.len(),
        columns: all,
        train,
        ops,
        agg_dim: Some(BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(i: &Inputs) -> String {
        let mut h = Fnv::default();
        i.hash_into(&mut h);
        h.hex()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = generate(w, 42, 4_000, 400);
            let b = generate(w, 42, 4_000, 400);
            let c = generate(w, 43, 4_000, 400);
            assert_eq!(a.columns, b.columns, "{}", w.name());
            assert_eq!(a.train, b.train, "{}", w.name());
            assert_eq!(a.ops, b.ops, "{}", w.name());
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", w.name());
            assert_ne!(a.ops, c.ops, "{}", w.name());
            // The data set a layout is learned from is not the seed's.
            assert_eq!(a.columns, c.columns, "{}", w.name());
            assert_eq!(a.train, c.train, "{}", w.name());
        }
    }

    #[test]
    fn every_read_matches_something_and_narrow_stays_narrow() {
        for w in Workload::ALL {
            let i = generate(w, 7, 6_000, 300);
            let mut cols = i.columns.clone();
            for op in &i.ops {
                match op {
                    Op::Insert(rows) => {
                        assert_eq!(rows.len(), INSERT_BATCH);
                        for r in rows {
                            assert!(r[0] > *cols[0].last().unwrap(), "timestamps increase");
                            for (c, &v) in cols.iter_mut().zip(r) {
                                c.push(v);
                            }
                        }
                    }
                    Op::Read(q) => {
                        // Generated around a row that exists by then
                        // (tiered reads may centre on a still-buffered
                        // row, so count over everything inserted so far).
                        let (count, _) = oracle(&cols, cols[0].len(), q, i.agg_dim);
                        assert!(count >= 1, "{}: empty read", w.name());
                        if w == Workload::NarrowLookup {
                            assert!(count <= 32, "narrow read matched {count}");
                            assert!((4..=8).contains(&q.filtered_dims()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn olap_selectivity_lands_near_its_band() {
        let i = generate(Workload::OlapResident, 3, 40_000, 200);
        let mut sels: Vec<f64> = i
            .reads()
            .map(|q| oracle(&i.columns, i.rows(), q, None).0 as f64 / i.rows() as f64)
            .collect();
        sels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sels[sels.len() / 2];
        assert!(
            (0.0005..=0.02).contains(&median),
            "median selectivity {median}"
        );
    }

    #[test]
    fn drift_phases_rotate_the_hot_pair() {
        let i = generate(Workload::DriftAdapt, 5, 5_000, 80);
        assert_eq!(i.ops.len(), i.phase_len * DRIFT_PHASES);
        for (n, op) in i.ops.iter().enumerate() {
            let Op::Read(q) = op else {
                panic!("drift has no inserts")
            };
            let phase = n / i.phase_len;
            let hot: Vec<usize> = (0..6).filter(|&d| q.bounds[d].is_some()).collect();
            let mut want = vec![(2 * phase) % 6, (2 * phase + 1) % 6];
            want.sort_unstable();
            assert_eq!(hot, want);
        }
    }

    #[test]
    fn oracle_counts_and_sums() {
        let cols = vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]];
        let mut q = Query::all(2);
        q.bounds[0] = Some((2, 3));
        assert_eq!(oracle(&cols, 4, &q, Some(1)), (2, 50));
        assert_eq!(oracle(&cols, 2, &q, Some(1)), (1, 20));
        assert_eq!(oracle(&cols, 4, &Query::all(2), None), (4, 0));
    }
}
