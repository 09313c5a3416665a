//! A hand-rolled scoped thread pool.
//!
//! rayon is not vendored (the build environment has no crates.io access),
//! so the pool is built from `std` alone: [`std::thread::scope`] workers
//! pulling task indices from a shared atomic injector. The pool holds no
//! long-lived threads — workers live exactly as long as one [`ThreadPool::run`]
//! call, so borrowed data (tables, plans, queries, the disjoint `&mut`
//! slices of a build) flows into tasks without `Arc` or `'static` bounds.
//!
//! With one thread (the degenerate mode) nothing is spawned at all: tasks
//! run inline on the caller's stack, making the serial path zero-overhead
//! and trivially deadlock-free.
//!
//! Three kinds of work share one pool: scans (`flood-exec`'s
//! `QueryExecutor`, partitioned single queries and batches), index builds
//! (`FloodIndex::build_with` / `rebuild`) and layout searches
//! (`LayoutOptimizer::optimize_on`, one task per sort-dimension candidate).
//! A server runs all three on the pool it serves batches with. Each is a
//! burst that borrows its input for its duration: a table, or the cost
//! evaluator a search's tasks all read while each keeps what it prices to
//! itself. A build's tasks hand each worker its own `&mut` slice of the
//! output ([`ThreadPool::map`]). Scoped workers let all of them borrow
//! instead of reference count, and a burst of a few milliseconds or more
//! dwarfs the tens of microseconds a spawn costs — which is why a search
//! splits by candidate (tens of milliseconds each), never inside one
//! cost evaluation. It lives here, in `flood-store`, so the index crate
//! can build and search on it without depending on the executor.
//!
//! Paper map: the paper's evaluation is single-threaded ("Flood is
//! currently single threaded", §7) and §8 sketches intra-query parallelism
//! as future work; this pool is the substrate that turns the sketch into
//! something measured (`flood-benchmark`'s `exec.*` metrics), and that
//! makes the re-layout §8's shifting workloads trigger cheaper
//! (`epoch_swap_ms`).

use flood_obs::{Counter, Gauge, Registry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Environment variable overriding the default worker count
/// ([`ThreadPool::from_env`]).
pub const THREADS_ENV: &str = "FLOOD_THREADS";

/// Registered handles for the pool's telemetry — counters and gauges the
/// pool updates while [`ThreadPool::run_observed`] executes. Register once
/// against a `flood-obs` registry, pass by reference into observed runs.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Tasks executed.
    tasks: Arc<Counter>,
    /// `run` invocations (batches).
    runs: Arc<Counter>,
    /// Wall-clock nanoseconds workers spent inside task closures, summed
    /// across workers (busy time, not elapsed time).
    busy_ns: Arc<Counter>,
    /// Tasks still unclaimed by any worker right now.
    queue_depth: Arc<Gauge>,
    /// Workers participating in the current (or last) run.
    workers: Arc<Gauge>,
}

impl PoolMetrics {
    /// Register (or look up) the pool metric set under `subsystem`.
    pub fn register(registry: &Registry, subsystem: &str) -> Self {
        PoolMetrics {
            tasks: registry.counter(subsystem, "tasks"),
            runs: registry.counter(subsystem, "runs"),
            busy_ns: registry.counter(subsystem, "busy_ns"),
            queue_depth: registry.gauge(subsystem, "queue_depth"),
            workers: registry.gauge(subsystem, "workers"),
        }
    }
}

/// A scoped thread pool of a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a thread pool needs at least one worker");
        ThreadPool { threads }
    }

    /// The degenerate single-thread pool: every task runs inline on the
    /// caller's stack.
    pub fn serial() -> Self {
        ThreadPool { threads: 1 }
    }

    /// Worker count from the environment: `FLOOD_THREADS` when set,
    /// otherwise the machine's available parallelism (1 when that is
    /// unknown).
    ///
    /// # Panics
    /// Panics when `FLOOD_THREADS` is set but not a positive integer —
    /// surrounding whitespace aside — so a misconfigured pool never
    /// silently runs serial.
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => parse_threads(&v),
            Err(_) => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        ThreadPool { threads }
    }

    /// Number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `work(0..tasks)`, returning the results in task order.
    ///
    /// Tasks are distributed dynamically: each worker repeatedly claims the
    /// next unclaimed index from a shared injector, so uneven task costs
    /// balance themselves. At most `min(threads, tasks)` workers spawn;
    /// with one worker (or one task) everything runs inline.
    ///
    /// # Panics
    /// Propagates a panic from any task after all workers have stopped.
    pub fn run<T, F>(&self, tasks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_observed(tasks, work, None)
    }

    /// Run `work` on every item, one task each, returning the results in
    /// item order: `run` for tasks that each take something by value — a
    /// disjoint `&mut` slice of one output, or a buffer reserved on the
    /// calling thread.
    ///
    /// # Panics
    /// Propagates a panic from any task after all workers have stopped.
    pub fn map<S, T, F>(&self, items: Vec<S>, work: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(S) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<S>>> = items.into_iter().map(|s| Mutex::new(Some(s))).collect();
        self.run(slots.len(), |i| {
            let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
            work(slot.take().expect("each task takes its item once"))
        })
    }

    /// [`ThreadPool::run`] with optional telemetry: when `obs` is set, the
    /// run counts its tasks, accumulates worker busy time, and tracks the
    /// injector's remaining depth in the registered [`PoolMetrics`]. With
    /// `obs == None` this is exactly `run` — no clock reads, no atomics
    /// beyond the injector.
    pub fn run_observed<T, F>(&self, tasks: usize, work: F, obs: Option<&PoolMetrics>) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(tasks);
        if let Some(m) = obs {
            m.runs.inc();
            m.tasks.add(tasks as u64);
            m.workers.set(workers.max(1) as i64);
            m.queue_depth.set(tasks as i64);
        }
        if workers <= 1 {
            let out = (0..tasks)
                .map(|i| {
                    let Some(m) = obs else { return work(i) };
                    let start = Instant::now();
                    let t = work(i);
                    m.busy_ns.add(start.elapsed().as_nanos() as u64);
                    m.queue_depth.set((tasks - i - 1) as i64);
                    t
                })
                .collect();
            if let Some(m) = obs {
                m.queue_depth.set(0);
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let mut collected: Vec<(usize, T)> = Vec::with_capacity(tasks);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, work) = (&next, &work);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut busy_ns = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            if let Some(m) = obs {
                                m.queue_depth.set((tasks - i - 1) as i64);
                                let start = Instant::now();
                                out.push((i, work(i)));
                                busy_ns += start.elapsed().as_nanos() as u64;
                            } else {
                                out.push((i, work(i)));
                            }
                        }
                        if let Some(m) = obs {
                            m.busy_ns.add(busy_ns);
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                collected.extend(h.join().expect("pool worker panicked"));
            }
        });
        if let Some(m) = obs {
            m.queue_depth.set(0);
        }
        collected.sort_unstable_by_key(|&(i, _)| i);
        collected.into_iter().map(|(_, t)| t).collect()
    }
}

/// A `FLOOD_THREADS` value as a worker count: a positive integer, with
/// surrounding whitespace (a trailing newline from a shell, say) ignored.
///
/// # Panics
/// Panics on anything else, naming the value.
fn parse_threads(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!("{THREADS_ENV} must be a positive integer, got {v:?}"),
    }
}

impl Default for ThreadPool {
    /// [`ThreadPool::from_env`].
    fn default() -> Self {
        ThreadPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        assert!(ThreadPool::new(4).run(0, |i| i).is_empty());
    }

    #[test]
    fn single_task_runs_inline() {
        // One task never spawns: the closure can prove it ran on the
        // caller's thread.
        let caller = std::thread::current().id();
        let out = ThreadPool::new(8).run(1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn serial_pool_runs_on_caller_stack() {
        let caller = std::thread::current().id();
        let ids = ThreadPool::serial().run(16, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn uneven_tasks_all_complete() {
        let pool = ThreadPool::new(4);
        let out = pool.run(37, |i| {
            // Task cost varies by two orders of magnitude.
            let spins = if i % 7 == 0 { 100_000 } else { 1_000 };
            (0..spins).fold(i as u64, |a, x| a.wrapping_add(x))
        });
        assert_eq!(out.len(), 37);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn from_env_has_at_least_one_worker() {
        assert!(ThreadPool::from_env().threads() >= 1);
    }

    #[test]
    fn threads_env_values_are_trimmed() {
        assert_eq!(parse_threads(" 2 "), 2);
        assert_eq!(parse_threads("2\n"), 2);
    }

    #[test]
    #[should_panic(expected = "FLOOD_THREADS must be a positive integer, got \"0\"")]
    fn zero_threads_env_is_rejected() {
        parse_threads("0");
    }

    #[test]
    #[should_panic(expected = "FLOOD_THREADS must be a positive integer, got \"x\"")]
    fn unparsable_threads_env_is_rejected_by_name() {
        parse_threads("x");
    }

    #[test]
    fn observed_run_counts_every_task() {
        for threads in [1, 4] {
            let reg = Registry::new();
            let m = PoolMetrics::register(&reg, "pool");
            let out = ThreadPool::new(threads).run_observed(
                25,
                |i| {
                    // Make busy time measurable even at nanosecond clocks.
                    (0..2_000).fold(i as u64, |a, x| a.wrapping_add(x))
                },
                Some(&m),
            );
            assert_eq!(out.len(), 25);
            let snap = reg.snapshot();
            assert_eq!(snap.counter("pool", "tasks"), Some(25), "{threads} thr");
            assert_eq!(snap.counter("pool", "runs"), Some(1));
            assert!(snap.counter("pool", "busy_ns").unwrap() > 0);
            assert_eq!(snap.gauge("pool", "queue_depth"), Some(0), "drained");
            let workers = snap.gauge("pool", "workers").unwrap();
            assert!(workers >= 1 && workers <= threads as i64);
        }
    }

    #[test]
    fn map_hands_each_task_its_own_slice() {
        for threads in [1, 2, 3] {
            let mut out = vec![0usize; 10];
            let items: Vec<(usize, &mut [usize])> = out.chunks_mut(3).enumerate().collect();
            let lens = ThreadPool::new(threads).map(items, |(i, chunk)| {
                chunk.fill(i);
                chunk.len()
            });
            assert_eq!(lens, vec![3, 3, 3, 1]);
            assert_eq!(out, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        }
    }

    #[test]
    fn observed_and_unobserved_runs_agree() {
        let reg = Registry::new();
        let m = PoolMetrics::register(&reg, "pool");
        let pool = ThreadPool::new(3);
        let plain = pool.run(40, |i| i * 3);
        let observed = pool.run_observed(40, |i| i * 3, Some(&m));
        assert_eq!(plain, observed);
    }
}
