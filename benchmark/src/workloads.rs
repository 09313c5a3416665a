//! The four workloads, driven from one process, closed loop, one client.
//!
//! An untraced run produces the end-to-end metrics; a traced run replays
//! the same operations with spans around one operation in eight and
//! produces the per-layer metrics. Both check every answer they can
//! against the brute-force oracle in `gen`.
//!
//! Run length is an operation count, never a duration: `--seconds` selects
//! how many operations are generated (sized so what an untraced run times
//! takes about that long at the commit that defined the benchmark, on the
//! box it was defined on), so both sides of a comparison do identical work
//! and every count repeats exactly.
//!
//! An untraced run measures in rounds — set-up, the operation list, the
//! batched phase and a layout swap, each time on a fresh server — and
//! reports every timing from its quietest sample ([`Timings::report`]).

use crate::gen::{self, Inputs, Op, Query, Workload};
use crate::record::{Metrics, Outcome};
use crate::stats::{mean, median, percentile, ratio, Fnv};
use crate::sut::{self, Adapt, Answer, Resident, ScanStats, Shape, Tiered};
use crate::trace::{self, Span};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed as STAT;
use std::time::Instant;

/// One run of one workload in one mode.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// 1/50 scale, oracle on every operation.
    pub smoke: bool,
    pub trace: bool,
    /// Scratch directory for cold segments (inside the build directory).
    pub tmp: PathBuf,
}

/// How much work a run does. Frozen when the benchmark was defined; see
/// the README for the tuning record.
struct Plan {
    rows: usize,
    /// Operations in the list.
    ops: usize,
    /// Times an untraced run repeats the whole measurement — set-up, the
    /// operation list, the batched phase, a layout swap — on a fresh
    /// server. Each timing is reported from its quietest round.
    rounds: usize,
    /// Closed-loop passes over the list per round (a stateless workload
    /// can serve its list again; a stateful one makes one pass).
    passes: usize,
    /// Times the batched phase runs per round.
    batches: usize,
    /// The oracle brute-forces one operation in this many.
    oracle_every: usize,
}

/// One operation in this many is traced.
const TRACE_EVERY: usize = 8;
/// Share of a stateful workload's operations served before timing starts.
const WARM_SHARE: usize = 20;
/// `tiered_mixed` calls `compact()` after this many inserted rows — below
/// `TieredDelta`'s 4 096-row auto-seal, so the sealing write always happens
/// inside the timed `compact()`.
const COMPACT_EVERY: usize = 2_048;
/// Reads the cross probe replays through the stack a workload does not
/// natively use.
const PROBE_READS: usize = 64;
/// Reads the exec-layer micro-loops batch.
const MICRO_READS: usize = 512;

fn plan(w: Workload, seconds: u64, smoke: bool) -> Plan {
    // (rows, operations per `--seconds`, rounds, then per round: passes,
    // batched phases; oracle sampling). The rates make the rounds
    // of an untraced run add up to about `--seconds` on the box the
    // benchmark was defined on; the per-round counts give every timing at
    // least a third of a second per round.
    let (rows, ops_per_second, rounds, passes, batches, oracle_every) = match w {
        Workload::OlapResident => (1_000_000, 280, 4, 1, 1, 64),
        // A read here takes microseconds: more passes, not more distinct
        // queries, fill the time; the oracle's brute force is the slow
        // side, so it samples less often.
        Workload::NarrowLookup => (1_000_000, 5_000, 4, 5, 2, 256),
        // The batched phase serves one phase of the stream: repeat it.
        Workload::DriftAdapt => (1_000_000, 320, 3, 1, 10, 64),
        Workload::TieredMixed => (1_000_000, 400, 3, 1, 2, 64),
    };
    if smoke {
        Plan {
            rows: rows / 50,
            ops: ops_per_second * 20 / 50,
            rounds: 2,
            passes: 1,
            batches: 1,
            oracle_every: 1,
        }
    } else {
        Plan {
            rows,
            ops: ops_per_second * seconds as usize,
            rounds,
            passes,
            batches,
            oracle_every,
        }
    }
}

fn shape(w: Workload, inputs: &Inputs) -> Shape {
    Shape {
        agg_dim: inputs.agg_dim,
        // The analytic table is stored block-compressed, as a column store
        // would hold lineitem; the other resident tables stay plain.
        compress: w == Workload::OlapResident,
    }
}

/// Run one workload; returns what it measured and the spans it recorded
/// (empty unless traced).
pub fn run(cfg: &RunCfg) -> (Outcome, Vec<Span>) {
    let plan = plan(cfg.workload, cfg.seconds, cfg.smoke);
    let t0 = Instant::now();
    let inputs = gen::generate(cfg.workload, cfg.seed, plan.rows, plan.ops);
    let gen_s = t0.elapsed().as_secs_f64();

    let mut h = Fnv::default();
    inputs.hash_into(&mut h);
    h.bytes(sut::COST_MODEL_JSON.as_bytes());
    let mut outcome = Outcome {
        input_fingerprint: h.hex(),
        ..Default::default()
    };

    let mut spans = Vec::new();
    if cfg.trace {
        trace::enable();
        spans = traced(cfg, &plan, &inputs, &mut outcome);
        outcome.metrics.set("bench.gen_s", gen_s);
        outcome.metrics.set("bench.peak_rss_mb", peak_rss_mb());
    } else if cfg.workload == Workload::TieredMixed {
        tiered_untraced(cfg, &plan, &inputs, &mut outcome);
    } else {
        resident_untraced(cfg, &plan, &inputs, &mut outcome);
    }
    (outcome, spans)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Report `pick(values)` under `name` and keep the spread of `values`.
fn set_from(
    outcome: &mut Outcome,
    name: &'static str,
    values: &[f64],
    pick: impl Fn(&[f64]) -> f64,
) {
    outcome.metrics.set(name, pick(values));
    let (lo, hi) = min_max(values);
    outcome.spread.push((name, lo, hi, values.len()));
}

fn lowest(values: &[f64]) -> f64 {
    min_max(values).0
}

fn highest(values: &[f64]) -> f64 {
    min_max(values).1
}

fn checksum(answers: impl IntoIterator<Item = Answer>) -> String {
    let mut h = Fnv::default();
    for a in answers {
        h.words(&[a.count, a.sum, a.epoch]);
    }
    h.hex()
}

// ---------------------------------------------------------------------------
// The resident stack: FloodServer.
// ---------------------------------------------------------------------------

/// What the adaptation turns of one pass did.
#[derive(Default)]
struct AdaptLog {
    kept_ns: Vec<u64>,
    swapped_ns: Vec<u64>,
    /// Wall time of every `maybe_adapt` call in the timed part.
    timed_wall_ns: u64,
    /// Queries served between a phase boundary and the next publish.
    stale_queries: u64,
    layouts: Vec<sut::LayoutDesc>,
}

/// One closed-loop pass over a read list.
#[derive(Default)]
struct ResidentPass {
    /// Latency of every timed, untraced read.
    lat_ns: Vec<u64>,
    /// Wall time of the timed part, adaptation turns included.
    wall_ns: u64,
    timed_ops: usize,
    answers: Vec<Answer>,
    /// Per read, the points it touched (checked + exact).
    touched: Vec<u64>,
    stats: ScanStats,
    adapt: AdaptLog,
    /// Traced reads whose decomposed calls disagreed with the server.
    mismatches: u64,
    /// Latency of the traced reads whose server call ran first — like for
    /// like with `lat_ns`, spans being the only difference.
    traced_lat_ns: Vec<u64>,
}

struct LoopOpts {
    /// Call `maybe_adapt` inline after every read.
    adapt: bool,
    /// Trace one read in [`TRACE_EVERY`].
    trace: bool,
    /// Leading operations served but not timed.
    warm: usize,
    phase_len: usize,
}

fn resident_loop(
    server: &Resident,
    reads: &[sut::RangeQuery],
    agg_dim: Option<usize>,
    opts: &LoopOpts,
) -> ResidentPass {
    let mut out = ResidentPass::default();
    let mut stale = false;
    let mut start = Instant::now();
    for (i, q) in reads.iter().enumerate() {
        if i == opts.warm {
            start = Instant::now();
        }
        let timed = i >= opts.warm;
        if opts.adapt && i % opts.phase_len == 0 && i > 0 {
            stale = true;
        }
        let (answer, stats) = if opts.trace && i % TRACE_EVERY == TRACE_EVERY / 2 {
            let (answer, stats, agree, first_ns) = traced_read(server, q, agg_dim, i);
            out.mismatches += u64::from(!agree);
            out.traced_lat_ns.extend(first_ns);
            (answer, stats)
        } else {
            let t = Instant::now();
            let r = server.execute(q);
            if timed {
                out.lat_ns.push(t.elapsed().as_nanos() as u64);
            }
            r
        };
        out.touched
            .push(stats.points_scanned + stats.points_in_exact_ranges);
        out.stats.merge(&stats);
        out.answers.push(answer);
        out.adapt.stale_queries += u64::from(stale);
        if opts.adapt {
            let t = Instant::now();
            let outcome = server.maybe_adapt();
            let ns = t.elapsed().as_nanos() as u64;
            if timed {
                out.adapt.timed_wall_ns += ns;
            }
            match outcome {
                Adapt::Kept => {
                    trace::closed("serve.adapt_kept", t);
                    out.adapt.kept_ns.push(ns);
                }
                Adapt::Swapped(_) => {
                    trace::closed("serve.adapt_swapped", t);
                    out.adapt.swapped_ns.push(ns);
                    out.adapt.layouts.push(server.layout());
                    stale = false;
                }
                Adapt::NotDue | Adapt::Busy => {}
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.timed_ops = reads.len() - opts.warm.min(reads.len());
    out
}

/// One traced read: the server call, and on the pinned snapshot the index
/// call and its plan / scan halves — sibling spans under one request, call
/// order rotated so no call always runs on the caches another warmed.
fn traced_read(
    server: &Resident,
    q: &sut::RangeQuery,
    agg_dim: Option<usize>,
    request: usize,
) -> (Answer, ScanStats, bool, Option<u64>) {
    trace::set_request(request as u32);
    let _request = trace::span("request");
    let turn = request / TRACE_EVERY;
    let mut served = None;
    let mut first_ns = None;
    let mut direct = 0;
    let mut planned = 0;
    for step in 0..3 {
        match (step + turn) % 3 {
            0 => {
                let t = Instant::now();
                let _s = trace::span("serve.execute");
                served = Some(server.execute(q));
                drop(_s);
                if step == 0 {
                    first_ns = Some(t.elapsed().as_nanos() as u64);
                }
            }
            1 => {
                let snap = {
                    let _s = trace::span("serve.snapshot");
                    server.snapshot()
                };
                let _s = trace::span("core.execute");
                direct = sut::index_execute(&snap, q, agg_dim).0.count;
            }
            _ => {
                let snap = server.snapshot();
                let plan = {
                    let _s = trace::span("core.plan");
                    sut::index_plan(&snap, q, agg_dim)
                };
                let _s = trace::span("store.scan");
                planned = sut::plan_scan(&*plan).0;
            }
        }
    }
    let (answer, stats) = served.expect("step 0 ran");
    let agree = answer.count == direct && answer.count == planned;
    (answer, stats, agree, first_ns)
}

/// Oracle check of a read list's answers, one in `every`.
fn oracle_mismatches(inputs: &Inputs, reads: &[&Query], answers: &[Answer], every: usize) -> u64 {
    reads
        .iter()
        .zip(answers)
        .enumerate()
        .filter(|(i, _)| i % every == 0)
        .filter(|(_, (q, a))| {
            gen::oracle(&inputs.columns, inputs.rows(), q, inputs.agg_dim) != (a.count, a.sum)
        })
        .count() as u64
}

/// Timings of a run's rounds and passes, one value per sample.
#[derive(Default)]
struct Timings {
    setup_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    qps: Vec<f64>,
    batch_qps: Vec<f64>,
    swap_ms: Vec<f64>,
}

impl Timings {
    fn pass(&mut self, lat_ns: &[u64], timed_ops: usize, wall_ns: u64) {
        let mut lat = lat_ns.to_vec();
        lat.sort_unstable();
        self.p50_us.push(percentile(&lat, 0.50) as f64 / 1e3);
        self.p99_us.push(percentile(&lat, 0.99) as f64 / 1e3);
        self.qps.push(timed_ops as f64 / secs(wall_ns));
    }

    /// Every timing from its quietest sample, not the median one: what
    /// disturbs a measurement on a shared box (a neighbour's burst, a slow
    /// spell of the host's memory system lasting seconds) only ever adds
    /// time, and the rounds are spread over the whole run so that one of
    /// them misses it. A regression moves the quietest sample too.
    fn report(&self, outcome: &mut Outcome) {
        set_from(outcome, "setup_s", &self.setup_s, lowest);
        set_from(outcome, "query_p50_us", &self.p50_us, lowest);
        set_from(outcome, "query_p99_us", &self.p99_us, lowest);
        set_from(outcome, "throughput_qps", &self.qps, highest);
        set_from(outcome, "batch_qps", &self.batch_qps, highest);
        set_from(outcome, "epoch_swap_ms", &self.swap_ms, lowest);
    }
}

fn resident_untraced(cfg: &RunCfg, plan: &Plan, inputs: &Inputs, outcome: &mut Outcome) {
    let drift = cfg.workload == Workload::DriftAdapt;
    let shape = shape(cfg.workload, inputs);
    let table = sut::table(&inputs.columns);
    let train = sut::to_queries(&inputs.train);
    let read_list: Vec<&Query> = inputs.reads().collect();
    let reads = sut::to_queries(read_list.iter().copied());
    let opts = LoopOpts {
        adapt: drift,
        trace: false,
        warm: if drift { reads.len() / WARM_SHARE } else { 0 },
        phase_len: inputs.phase_len,
    };
    let mut timings = Timings::default();
    // Answers of the first pass: the oracle checks these, every later pass
    // must repeat them.
    let mut first: Option<Vec<Answer>> = None;
    for round in 0..plan.rounds {
        let t = Instant::now();
        let server = Resident::build(&table, &train, shape);
        timings.setup_s.push(t.elapsed().as_secs_f64());
        let mut layouts = vec![server.layout()];

        // What replacing the layout costs. A drifting stream pays it
        // inline; elsewhere re-learn on the training draw — which learns
        // the layout set-up learned, so the passes below still measure it.
        if !drift {
            let t = Instant::now();
            server.force_relearn(&train);
            timings.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
            layouts.push(server.layout());
        }

        let mut pass = ResidentPass::default();
        for _ in 0..plan.passes {
            pass = resident_loop(&server, &reads, shape.agg_dim, &opts);
            timings.pass(&pass.lat_ns, pass.timed_ops, pass.wall_ns);
            outcome.attempted += reads.len() as u64;
            let first = first.get_or_insert_with(|| pass.answers.clone());
            outcome.failed += u64::from(pass.answers != *first);
        }
        if drift {
            let mut swaps: Vec<f64> = pass.adapt.swapped_ns.iter().map(|&ns| ns as f64).collect();
            if swaps.is_empty() {
                // Too short a stream to swap by itself (smoke scale).
                let t = Instant::now();
                server.force_relearn(&train);
                swaps.push(t.elapsed().as_nanos() as f64);
            }
            timings.swap_ms.push(median(&swaps) / 1e6);
            layouts.extend(pass.adapt.layouts.iter().cloned());
        }

        // Batched phase: the same reads through serve_stream. A drifting
        // stream ends on a layout that depends on its last queries, so its
        // batched phase serves the first phase's reads on a fresh server
        // instead — the layout set-up learned, the same for every seed —
        // and the round gets a second set-up sample.
        let fresh;
        let (batch_server, batch_reads) = if drift {
            let t = Instant::now();
            fresh = Resident::build(&table, &train, shape);
            timings.setup_s.push(t.elapsed().as_secs_f64());
            (&fresh, 0..inputs.phase_len)
        } else {
            (&server, 0..reads.len())
        };
        for _ in 0..plan.batches {
            let t = Instant::now();
            let served = batch_server.serve_stream(&reads[batch_reads.clone()]);
            timings
                .batch_qps
                .push(served.len() as f64 / t.elapsed().as_secs_f64());
            outcome.attempted += served.len() as u64;
            outcome.failed += served
                .iter()
                .zip(&pass.answers[batch_reads.clone()])
                .filter(|((a, _), want)| (a.count, a.sum) != (want.count, want.sum))
                .count() as u64;
        }

        // Every round learns the same layouts and touches the same points;
        // record them once.
        if round == 0 {
            outcome.layouts = layouts;
            outcome.metrics.set(
                "scan_overhead",
                ratio(
                    (pass.stats.points_scanned + pass.stats.points_in_exact_ranges) as f64,
                    pass.stats.points_matched as f64,
                ),
            );
            let (index_bytes, data_bytes) = server.resident_bytes();
            outcome.metrics.set(
                "bytes_per_row",
                (index_bytes + data_bytes) as f64 / inputs.rows() as f64,
            );
        } else {
            outcome.failed += u64::from(layouts != outcome.layouts);
        }
    }
    let first = first.expect("at least one pass");
    outcome.failed += oracle_mismatches(inputs, &read_list, &first, plan.oracle_every);
    outcome.result_checksum = checksum(first);
    timings.report(outcome);
}

// ---------------------------------------------------------------------------
// The tiered stack: TieredServer over a FileBackend.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct TieredPass {
    lat_ns: Vec<u64>,
    wall_ns: u64,
    timed_ops: usize,
    /// Per operation: the answer of a read that succeeded.
    answers: Vec<Option<Answer>>,
    stats: ScanStats,
    /// Cache outcome of each read's first call (a traced read's second
    /// call always hits what the first faulted in).
    first_call: ScanStats,
    insert_ns: u64,
    compact_ns: Vec<u64>,
    rows_inserted: usize,
    /// Rows visible to reads, by epoch.
    visible: Vec<usize>,
    /// Typed errors returned by the server.
    errors: u64,
    mismatches: u64,
    /// Latency of the traced reads whose server call ran first.
    traced_lat_ns: Vec<u64>,
}

fn tiered_loop(
    server: &Tiered,
    ops: &[Op],
    truth: &mut [Vec<u64>],
    traced: bool,
    warm: usize,
) -> TieredPass {
    let mut out = TieredPass {
        visible: vec![truth[0].len()],
        ..Default::default()
    };
    // The oracle's copy of the table grows with every insert; make room
    // now so no timed operation waits on a reallocation.
    let incoming: usize = ops
        .iter()
        .map(|op| match op {
            Op::Insert(rows) => rows.len(),
            Op::Read(_) => 0,
        })
        .sum();
    for c in truth.iter_mut() {
        c.reserve(incoming);
    }
    let mut pending = 0;
    let mut start = Instant::now();
    let compact = |out: &mut TieredPass, rows: usize| {
        let _s = trace::span("tier.compact");
        let t = Instant::now();
        match server.compact() {
            Ok(epoch) => {
                assert_eq!(
                    epoch as usize,
                    out.visible.len(),
                    "epochs count compactions"
                );
                out.visible.push(rows);
            }
            Err(_) => out.errors += 1,
        }
        out.compact_ns.push(t.elapsed().as_nanos() as u64);
        // The new segments' files are created here, outside the timing.
        out.errors += u64::from(server.flush_writes().is_err());
    };
    for (i, op) in ops.iter().enumerate() {
        if i == warm {
            start = Instant::now();
        }
        match op {
            Op::Read(q) => {
                let q = sut::to_query(q);
                if traced && i % TRACE_EVERY == TRACE_EVERY / 2 {
                    let answer = traced_tiered_read(server, &q, i, &mut out);
                    out.answers.push(answer);
                    continue;
                }
                let t = Instant::now();
                let r = server.execute(&q);
                let ns = t.elapsed().as_nanos() as u64;
                match r {
                    Ok((answer, stats)) => {
                        if i >= warm {
                            out.lat_ns.push(ns);
                        }
                        out.stats.merge(&stats);
                        out.first_call.merge(&stats);
                        out.answers.push(Some(answer));
                    }
                    Err(_) => {
                        out.errors += 1;
                        out.answers.push(None);
                    }
                }
            }
            Op::Insert(rows) => {
                trace::set_request(i as u32);
                for row in rows {
                    for (c, &v) in truth.iter_mut().zip(row) {
                        c.push(v);
                    }
                }
                let t = Instant::now();
                {
                    let _s = trace::span("tier.insert");
                    for row in rows {
                        if server.insert(row).is_err() {
                            out.errors += 1;
                        }
                    }
                }
                out.insert_ns += t.elapsed().as_nanos() as u64;
                out.rows_inserted += rows.len();
                pending += rows.len();
                if pending >= COMPACT_EVERY {
                    compact(&mut out, truth[0].len());
                    pending = 0;
                }
                out.answers.push(None);
            }
        }
    }
    // Always end on a compaction, so even the smallest run measures one
    // and every inserted row is sealed when the footprint is read.
    compact(&mut out, truth[0].len());
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.timed_ops = ops.len() - warm.min(ops.len());
    out
}

/// One traced tiered read: the server call (whose backend reads nest
/// inside it) and `try_execute` on the pinned snapshot, order rotated —
/// whichever runs second finds the segments the first faulted in.
fn traced_tiered_read(
    server: &Tiered,
    q: &sut::RangeQuery,
    request: usize,
    out: &mut TieredPass,
) -> Option<Answer> {
    trace::set_request(request as u32);
    let _request = trace::span("request");
    let mut served = None;
    let mut direct = None;
    for step in 0..2 {
        if (step + request / TRACE_EVERY) % 2 == 0 {
            let t = Instant::now();
            let _s = trace::span("serve.tiered_execute");
            served = Some(server.execute(q));
            drop(_s);
            if step == 0 {
                out.traced_lat_ns.push(t.elapsed().as_nanos() as u64);
            }
        } else {
            let snap = server.snapshot();
            let _s = trace::span("tier.try_execute");
            direct = Some(server.try_execute(&snap, q));
        }
        if step == 0 {
            if let Some(Ok((_, s))) = served.as_ref().or(direct.as_ref()) {
                out.first_call.merge(s);
            }
        }
    }
    match (served.expect("ran"), direct.expect("ran")) {
        (Ok((answer, stats)), Ok((again, _))) => {
            out.stats.merge(&stats);
            out.mismatches += u64::from((answer.count, answer.sum) != (again.count, again.sum));
            Some(answer)
        }
        _ => {
            out.errors += 1;
            None
        }
    }
}

/// Oracle check of tiered reads against the rows visible at the epoch each
/// was served from.
fn tiered_oracle_mismatches(
    ops: &[Op],
    pass: &TieredPass,
    truth: &[Vec<u64>],
    agg_dim: Option<usize>,
    every: usize,
) -> u64 {
    ops.iter()
        .zip(&pass.answers)
        .enumerate()
        .filter(|(i, _)| i % every == 0)
        .filter(|(_, (op, answer))| match (op, answer) {
            (Op::Read(q), Some(a)) => {
                gen::oracle(truth, pass.visible[a.epoch as usize], q, agg_dim) != (a.count, a.sum)
            }
            _ => false,
        })
        .count() as u64
}

fn seal_dir(tmp: &Path, n: usize) -> PathBuf {
    tmp.join(format!("seal-{n}"))
}

fn tiered_untraced(cfg: &RunCfg, plan: &Plan, inputs: &Inputs, outcome: &mut Outcome) {
    let table = sut::table(&inputs.columns);
    let warm = inputs.ops.len() / WARM_SHARE;
    // Batched phase: the newest eighth of the reads again, across the pool,
    // against the final epoch (checked against the oracle, since earlier
    // answers were given before later inserts became visible).
    let recent: Vec<&Query> = {
        let all: Vec<&Query> = inputs.reads().collect();
        let keep = (all.len() / 8).max(1);
        all[all.len() - keep..].to_vec()
    };
    let recent_sys = sut::to_queries(recent.iter().copied());

    let mut timings = Timings::default();
    let mut first: Option<Vec<Option<Answer>>> = None;
    let mut expected: Vec<(usize, (u64, u64))> = Vec::new();
    for round in 0..plan.rounds {
        // Each round seals into its own directory; all of them are removed
        // when the run ends.
        let t = Instant::now();
        let server =
            Tiered::seal(&table, &seal_dir(&cfg.tmp, round), inputs.agg_dim).expect("seal");
        timings.setup_s.push(t.elapsed().as_secs_f64());
        server.flush_writes().expect("segment files");

        let mut truth = inputs.columns.clone();
        let pass = tiered_loop(&server, &inputs.ops, &mut truth, false, warm);
        timings.pass(&pass.lat_ns, pass.timed_ops, pass.wall_ns);
        let compact_ms: Vec<f64> = pass.compact_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        timings.swap_ms.push(median(&compact_ms));
        outcome.attempted += inputs.ops.len() as u64;
        outcome.failed += pass.errors + server.diagnostics().degraded;

        if round == 0 {
            outcome.failed += tiered_oracle_mismatches(
                &inputs.ops,
                &pass,
                &truth,
                inputs.agg_dim,
                plan.oracle_every,
            );
            expected = (0..recent.len())
                .step_by(plan.oracle_every)
                .map(|i| {
                    (
                        i,
                        gen::oracle(&truth, truth[0].len(), recent[i], inputs.agg_dim),
                    )
                })
                .collect();
            outcome.metrics.set(
                "scan_overhead",
                ratio(
                    (pass.stats.points_scanned + pass.stats.points_in_exact_ranges) as f64,
                    pass.stats.points_matched as f64,
                ),
            );
            let cache = server.cache_report();
            outcome.metrics.set(
                "bytes_per_row",
                (cache.cold_bytes + cache.metadata_bytes) as f64 / cache.rows as f64,
            );
        }
        drop(truth);

        for _ in 0..plan.batches {
            let t = Instant::now();
            let served = server.batch(&recent_sys);
            timings
                .batch_qps
                .push(served.len() as f64 / t.elapsed().as_secs_f64());
            outcome.attempted += served.len() as u64;
            outcome.failed += expected
                .iter()
                .filter(|(i, want)| served[*i] != *want)
                .count() as u64;
        }

        let first = first.get_or_insert_with(|| pass.answers.clone());
        outcome.failed += u64::from(pass.answers != *first);
    }
    outcome.result_checksum = checksum(first.expect("at least one round").into_iter().flatten());
    timings.report(outcome);
    let _ = std::fs::remove_dir_all(&cfg.tmp);
}

// ---------------------------------------------------------------------------
// The traced run: both stacks over the workload's data, plus micro-loops.
// ---------------------------------------------------------------------------

/// The traced run drives *both* stacks over this workload's table and read
/// list: the one the workload natively uses runs the full operation list
/// (and is the one whose answers are check-summed); the other runs a cross
/// probe, so every layer has a measured number on every workload and
/// "should not move here" can be checked rather than assumed.
fn traced(cfg: &RunCfg, plan: &Plan, inputs: &Inputs, outcome: &mut Outcome) -> Vec<Span> {
    let native_tiered = cfg.workload == Workload::TieredMixed;
    let drift = cfg.workload == Workload::DriftAdapt;
    let table = sut::table(&inputs.columns);
    let shape = shape(cfg.workload, inputs);
    let m = &mut outcome.metrics;

    // Resident stack.
    let read_list: Vec<&Query> = if native_tiered {
        inputs.reads().take(PROBE_READS).collect()
    } else {
        inputs.reads().collect()
    };
    let reads = sut::to_queries(read_list.iter().copied());
    let train = sut::to_queries(&inputs.train);
    learn_and_build(&table, &train, shape, m);
    let server = Resident::build(&table, &train, shape);
    outcome.layouts.push(server.layout());
    let opts = LoopOpts {
        adapt: drift,
        trace: true,
        warm: if drift { reads.len() / WARM_SHARE } else { 0 },
        phase_len: inputs.phase_len,
    };
    let mut passes_served = 1;
    if !drift {
        let warm_up = LoopOpts {
            trace: false,
            ..opts
        };
        resident_loop(&server, &reads, shape.agg_dim, &warm_up);
        passes_served = 2;
    }
    let pass = resident_loop(&server, &reads, shape.agg_dim, &opts);
    outcome.layouts.extend(pass.adapt.layouts.iter().cloned());
    let resident_failed =
        pass.mismatches + oracle_mismatches(inputs, &read_list, &pass.answers, plan.oracle_every);
    resident_counters(&server, &pass, passes_served, m);
    adapt_probe(&server, &train, &pass, m);

    // Tiered stack.
    let probe;
    let ops = if native_tiered {
        &inputs.ops
    } else {
        probe = probe_ops(inputs);
        &probe
    };
    let tiered = Tiered::seal(&table, &seal_dir(&cfg.tmp, 0), inputs.agg_dim).expect("seal");
    tiered.flush_writes().expect("segment files");
    let sealed_bytes = tiered.backend().bytes_written.load(STAT);
    let sealed_evictions = tiered.cache_report().evictions;
    let mut truth = inputs.columns.clone();
    let tpass = tiered_loop(&tiered, ops, &mut truth, true, ops.len() / WARM_SHARE);
    let tiered_failed = tpass.errors
        + tpass.mismatches
        + tiered.diagnostics().degraded
        + tiered_oracle_mismatches(ops, &tpass, &truth, inputs.agg_dim, plan.oracle_every);
    tiered_counters(
        &tiered,
        &tpass,
        sealed_bytes,
        sealed_evictions,
        inputs.columns.len(),
        m,
    );
    drop(tiered);
    let _ = std::fs::remove_dir_all(&cfg.tmp);

    // Everything span-derived, then the micro-loops (untraced).
    let spans = trace::finish();
    let of = |name: &str| mean(&trace::durations(&spans, name));
    m.set("serve.execute_ns", of("serve.execute"));
    m.set("core.execute_ns", of("core.execute"));
    m.set("serve.self_ns", of("serve.execute") - of("core.execute"));
    m.set("serve.snapshot_ns", of("serve.snapshot"));
    m.set("core.plan_ns", of("core.plan"));
    m.set("store.scan_ns", of("store.scan"));
    m.set("tier.try_execute_ns", of("tier.try_execute"));
    m.set(
        "serve.tiered_self_ns",
        of("serve.tiered_execute") - of("tier.try_execute"),
    );
    // The benchmark observing itself: traced against untraced median
    // latency of the native stack's reads, within this one pass.
    let (plain, with_spans) = if native_tiered {
        (&tpass.lat_ns, &tpass.traced_lat_ns)
    } else {
        (&pass.lat_ns, &pass.traced_lat_ns)
    };
    let p50 = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5) as f64
        }
    };
    m.set(
        "bench.trace_overhead_pct",
        if p50(plain) == 0.0 {
            0.0
        } else {
            (p50(with_spans) / p50(plain) - 1.0) * 100.0
        },
    );
    m.set("bench.timer_ns", timer_ns());
    micro_loops(
        &server,
        &table,
        &reads,
        inputs,
        &pass,
        of("core.execute"),
        m,
    );

    // The shares that show a workload stresses what it claims to.
    let try_total: u64 = trace::durations(&spans, "tier.try_execute").iter().sum();
    let try_self: u64 = trace::self_durations(&spans, "tier.try_execute")
        .iter()
        .sum();
    outcome.checks = vec![
        (
            "store.scan_ns / serve.execute_ns",
            ratio(of("store.scan"), of("serve.execute")),
        ),
        (
            "adaptation turns / timed wall",
            ratio(pass.adapt.timed_wall_ns as f64, pass.wall_ns as f64),
        ),
        (
            "tier.backend_get children / tier.try_execute_ns",
            ratio((try_total - try_self) as f64, try_total as f64),
        ),
    ];

    let (native_failed, probe_failed) = if native_tiered {
        (tiered_failed, resident_failed)
    } else {
        (resident_failed, tiered_failed)
    };
    if native_tiered {
        outcome.attempted = ops.len() as u64;
        outcome.result_checksum = checksum(tpass.answers.iter().flatten().copied());
    } else {
        outcome.attempted = reads.len() as u64 * passes_served;
        outcome.result_checksum = checksum(pass.answers.iter().copied());
    }
    // A wrong answer in the cross probe is still a wrong answer.
    outcome.failed = native_failed + probe_failed;
    spans
}

/// The operations a resident workload's cross probe sends through the
/// tiered stack: its first reads, an insert batch of the table's own rows
/// after every ninth, compacted on the usual schedule.
fn probe_ops(inputs: &Inputs) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut next_row = 0;
    for (i, q) in inputs.reads().take(PROBE_READS).enumerate() {
        ops.push(Op::Read(q.clone()));
        if i % 9 == 8 {
            let batch = (0..gen::INSERT_BATCH)
                .map(|k| {
                    let r = (next_row + k) % inputs.rows();
                    inputs.columns.iter().map(|c| c[r]).collect()
                })
                .collect();
            next_row += gen::INSERT_BATCH;
            ops.push(Op::Insert(batch));
        }
    }
    ops
}

/// Learn and build once more through the public pieces `FloodServer::build`
/// composes, a span around each: sample + flatten, search, index build,
/// publish.
fn learn_and_build(table: &sut::Table, train: &[sut::RangeQuery], shape: Shape, m: &mut Metrics) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let opt = sut::optimizer();
    let t = Instant::now();
    let mut eval = {
        let _s = trace::span("core.sample_flatten");
        sut::evaluator(&opt, table, train)
    };
    m.set("core.sample_flatten_ms", ms(t));
    let t = Instant::now();
    let learned = {
        let _s = trace::span("core.search");
        sut::search(&opt, &mut eval)
    };
    m.set("core.search_ms", ms(t));
    m.set("core.cost_evals", learned.cost_evals as f64);
    m.set(
        "core.memo_hit_rate",
        ratio(learned.cache_hits as f64, learned.cost_evals as f64),
    );
    m.set(
        "core.dim_reuse_rate",
        ratio(
            learned.dim_reuses as f64,
            (learned.dim_reuses + learned.dim_recounts) as f64,
        ),
    );
    let t = Instant::now();
    let (index, report) = {
        let _s = trace::span("core.build");
        sut::build_index(table, &learned, shape)
    };
    m.set("core.build_ms", ms(t));
    m.set("core.build_flatten_ms", report.flatten_ns as f64 / 1e6);
    m.set("core.build_sort_ms", report.sort_ns as f64 / 1e6);
    m.set("core.build_models_ms", report.models_ns as f64 / 1e6);
    m.set("core.index_bytes", report.index_bytes as f64);
    m.set("core.cells_nonempty", report.cells_nonempty as f64);
    m.set("core.fds_active", report.fds_active as f64);
    m.set("store.data_bytes", report.data_bytes as f64);
    // Swap the real index in over a one-row stand-in.
    let stand_in = sut::table(&vec![vec![0]; table.dims()]);
    let (first, _) = sut::build_index(&stand_in, &learned, shape);
    let _s = trace::span("serve.publish");
    m.set(
        "serve.publish_us",
        sut::publish_scratch(first, index) as f64 / 1e3,
    );
}

/// Resident-stack counts, read straight after the pass (before any probe
/// or micro-loop sends the server more work).
fn resident_counters(server: &Resident, pass: &ResidentPass, passes_served: u64, m: &mut Metrics) {
    let n = pass.answers.len() as f64;
    let s = &pass.stats;
    let touched = (s.points_scanned + s.points_in_exact_ranges) as f64;
    m.set("core.cells_projected", s.cells_projected as f64 / n);
    m.set("core.refinements", s.refinements as f64 / n);
    m.set("core.ranges_scanned", s.ranges_scanned as f64 / n);
    m.set("store.points_scanned", s.points_scanned as f64);
    m.set("store.points_matched", s.points_matched as f64);
    m.set(
        "store.exact_frac",
        ratio(s.points_in_exact_ranges as f64, touched),
    );
    m.set("store.blocks_skipped", s.blocks_skipped as f64);
    m.set("store.blocks_accepted", s.blocks_accepted as f64);
    m.set("store.blocks_probed", s.blocks_probed as f64);

    let d = server.diagnostics();
    m.set("serve.swaps", d.swaps as f64);
    m.set("serve.checks", d.adaptive.checks as f64);
    m.set("serve.stale_queries", pass.adapt.stale_queries as f64);
    m.set("core.relearns", d.adaptive.relearns as f64);
    m.set("core.sample_flattens", d.adaptive.sample_flattens as f64);
    m.set(
        "core.cross_relearn_hits",
        d.adaptive.cache_hits_across_relearns as f64,
    );

    // obs: the registry against the driver's own sums. Every read so far
    // went through `execute` (the warm-up pass served the same list), so
    // the two must agree exactly.
    let t = Instant::now();
    const SNAPSHOTS: usize = 20;
    let mut snap = server.metrics_snapshot();
    for _ in 1..SNAPSHOTS {
        snap = server.metrics_snapshot();
    }
    m.set(
        "obs.snapshot_us",
        t.elapsed().as_secs_f64() * 1e6 / SNAPSHOTS as f64,
    );
    let off = |subsystem: &str, name: &str, want: u64| {
        snap.counter(subsystem, name).unwrap_or(0).abs_diff(want)
    };
    let served = pass.answers.len() as u64 * passes_served;
    m.set(
        "obs.counter_drift",
        (off("serve", "queries", served)
            + off("serve", "completed", served)
            + off("scan", "points_scanned", s.points_scanned * passes_served)
            + off("scan", "points_matched", s.points_matched * passes_served)) as f64,
    );
}

/// What an adaptation turn costs. A drifting stream paid both kinds
/// inline; elsewhere poll one due check on the live window and force one
/// re-learn on the training draw.
fn adapt_probe(server: &Resident, train: &[sut::RangeQuery], pass: &ResidentPass, m: &mut Metrics) {
    let mut kept = pass.adapt.kept_ns.clone();
    let mut swapped = pass.adapt.swapped_ns.clone();
    for _ in 0..4 {
        if !kept.is_empty() {
            break;
        }
        let t = Instant::now();
        match server.maybe_adapt() {
            Adapt::Kept => {
                trace::closed("serve.adapt_kept", t);
                kept.push(t.elapsed().as_nanos() as u64);
            }
            Adapt::Swapped(_) => {
                trace::closed("serve.adapt_swapped", t);
                swapped.push(t.elapsed().as_nanos() as u64);
            }
            Adapt::NotDue | Adapt::Busy => {}
        }
        // Refill the window so the next check comes due.
        for q in train.iter().take(100) {
            server.execute(q);
        }
    }
    if swapped.is_empty() {
        let t = Instant::now();
        server.force_relearn(train);
        trace::closed("serve.adapt_swapped", t);
        swapped.push(t.elapsed().as_nanos() as u64);
    }
    m.set("serve.adapt_kept_ms", mean(&kept) / 1e6);
    m.set("serve.adapt_swapped_ms", mean(&swapped) / 1e6);
}

/// Micro-loops over single layers on this workload's own data: the cost
/// model against the clock, the pool, the reference scan, the learned
/// models, the histogram.
fn micro_loops(
    server: &Resident,
    table: &sut::Table,
    reads: &[sut::RangeQuery],
    inputs: &Inputs,
    pass: &ResidentPass,
    core_execute_ns: f64,
    m: &mut Metrics,
) {
    // The reads the live layout is serving: the last phase of the stream.
    let tail_from = reads.len() - inputs.phase_len.min(reads.len());
    let tail = &reads[tail_from..];
    let snap = server.snapshot();
    m.set(
        "core.predicted_over_actual",
        ratio(
            sut::predicted_ns(&sut::optimizer(), table, tail, &snap),
            core_execute_ns,
        ),
    );

    // exec: the pool under the batched path.
    let sample: Vec<sut::RangeQuery> = tail.iter().take(MICRO_READS).cloned().collect();
    for (name, threads) in [("exec.batch_qps_t1", 1), ("exec.batch_qps_t2", 2)] {
        let t = Instant::now();
        let got = sut::exec_batch(threads, sut::flood_index(&snap), &sample, inputs.agg_dim);
        m.set(name, got.len() as f64 / t.elapsed().as_secs_f64());
    }
    let mut heavy: Vec<usize> = (tail_from..reads.len()).collect();
    heavy.sort_by_key(|&i| std::cmp::Reverse(pass.touched[i]));
    heavy.truncate((tail.len() / 100).max(1));
    let t = Instant::now();
    for &i in &heavy {
        std::hint::black_box(sut::exec_partitioned(
            sut::pool_threads(),
            sut::flood_index(&snap),
            &reads[i],
            inputs.agg_dim,
        ));
    }
    m.set(
        "exec.partitioned_us",
        t.elapsed().as_secs_f64() * 1e6 / heavy.len() as f64,
    );
    let before = server.metrics_snapshot();
    let t = Instant::now();
    let streamed = server.serve_stream(&sample);
    let wall_ns = t.elapsed().as_nanos() as f64;
    let after = server.metrics_snapshot();
    let delta = |name: &str| {
        after.counter("pool", name).unwrap_or(0) - before.counter("pool", name).unwrap_or(0)
    };
    assert_eq!(streamed.len(), sample.len());
    m.set("exec.pool_tasks", delta("tasks") as f64);
    m.set(
        "exec.pool_busy_frac",
        delta("busy_ns") as f64 / (wall_ns * sut::pool_threads() as f64),
    );

    // baselines: the paper's headline ratio on a 200-query sample.
    let sample: Vec<&sut::RangeQuery> = tail.iter().step_by((tail.len() / 200).max(1)).collect();
    let scan = sut::full_scan(table);
    let t = Instant::now();
    for q in &sample {
        std::hint::black_box(sut::any_execute(&scan, q, inputs.agg_dim));
    }
    let fullscan_us = t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    let t = Instant::now();
    for q in &sample {
        std::hint::black_box(sut::index_execute(&snap, q, inputs.agg_dim));
    }
    let flood_us = t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    m.set("baselines.fullscan_us", fullscan_us);
    m.set("baselines.flood_speedup", fullscan_us / flood_us);

    // learned: the live layout's sort column through an RMI and a PLM, and
    // the cost model's forests over this pass's own feature rows.
    let mut sorted = inputs.columns[server.layout().sort_dim].clone();
    sorted.truncate(200_000);
    sorted.sort_unstable();
    let t = Instant::now();
    let rmi = sut::learned::rmi_build(&sorted);
    m.set("learned.rmi_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let probes: Vec<u64> = sorted.iter().step_by(7).copied().collect();
    let t = Instant::now();
    for &k in &probes {
        std::hint::black_box(sut::learned::rmi_cdf(&rmi, k));
    }
    m.set(
        "learned.rmi_cdf_ns",
        t.elapsed().as_nanos() as f64 / probes.len() as f64,
    );
    let cell = &sorted[..sorted.len().min(65_536)];
    let t = Instant::now();
    let plm = sut::learned::plm_build(cell);
    m.set("learned.plm_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    for &k in cell.iter().step_by(3) {
        std::hint::black_box(sut::learned::plm_lookup(&plm, cell, k));
    }
    m.set(
        "learned.plm_lookup_ns",
        t.elapsed().as_nanos() as f64 / cell.len().div_ceil(3) as f64,
    );
    let model = sut::load_cost_model();
    let rows = pass.touched.len().min(2_000);
    let t = Instant::now();
    for (i, &touched) in pass.touched[..rows].iter().enumerate() {
        std::hint::black_box(sut::cost_predict(
            &model,
            (1 + i % 512) as f64,
            touched as f64,
            (1 + i % 4) as f64,
        ));
    }
    // One prediction walks three weight forests.
    m.set(
        "learned.forest_predict_ns",
        t.elapsed().as_nanos() as f64 / rows as f64 / 3.0,
    );

    let hist = sut::obs_histogram();
    const RECORDS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..RECORDS {
        hist.record(std::hint::black_box(1_000 + (i & 0xffff)));
    }
    m.set(
        "obs.hist_record_ns",
        t.elapsed().as_nanos() as f64 / RECORDS as f64,
    );
}

/// Tiered-stack layer metrics that come from counters.
fn tiered_counters(
    server: &Tiered,
    pass: &TieredPass,
    sealed_bytes: u64,
    sealed_evictions: u64,
    dims: usize,
    m: &mut Metrics,
) {
    let b = server.backend();
    let gets = b.gets.load(STAT);
    m.set("tier.backend_gets", gets as f64);
    m.set(
        "tier.backend_get_us",
        ratio(b.get_ns.load(STAT) as f64 / 1e3, gets as f64),
    );
    m.set("tier.backend_bytes_read", b.bytes_read.load(STAT) as f64);
    let written = b.bytes_written.load(STAT) - sealed_bytes;
    m.set("tier.backend_bytes_written", written as f64);
    m.set(
        "tier.write_amp",
        ratio(written as f64, (pass.rows_inserted * dims * 8) as f64),
    );
    let (faults, hits) = (
        pass.first_call.segments_faulted,
        pass.first_call.segments_hit,
    );
    m.set("tier.faults", faults as f64);
    m.set("tier.hits", hits as f64);
    m.set("tier.hit_rate", ratio(hits as f64, (hits + faults) as f64));
    m.set(
        "tier.segments_skipped",
        pass.first_call.segments_skipped as f64,
    );
    let cache = server.cache_report();
    m.set(
        "tier.evictions",
        (cache.evictions - sealed_evictions) as f64,
    );
    m.set(
        "tier.cold_frac",
        1.0 - ratio(cache.resident_segments as f64, cache.total_segments as f64),
    );
    m.set(
        "tier.insert_ns",
        ratio(pass.insert_ns as f64, pass.rows_inserted as f64),
    );
    m.set("tier.compact_ms", mean(&pass.compact_ns) / 1e6);
    m.set(
        "tier.ingest_rows_per_s",
        ratio(
            pass.rows_inserted as f64,
            secs(pass.insert_ns + pass.compact_ns.iter().sum::<u64>()),
        ),
    );
    let d = server.diagnostics();
    m.set("serve.retried", d.retried as f64);
    m.set("serve.degraded", d.degraded as f64);
}

/// Cost of one `Instant::now()` + `elapsed()` pair, the clock every
/// latency sample is read with.
fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / READS as f64
}
