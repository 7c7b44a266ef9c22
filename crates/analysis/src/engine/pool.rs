//! A persistent, std-only work-stealing worker pool.
//!
//! The execution engine schedules the full configuration × benchmark grid
//! as independent tasks. A one-shot `std::thread::scope` per call (the old
//! `suite_run` approach) caps parallelism at the number of benchmarks and
//! pays thread start-up per experiment; this pool instead keeps workers
//! alive for the process lifetime and lets idle workers *steal* queued
//! tasks from busy ones, so grids with many more tasks than cores saturate
//! the machine.
//!
//! Topology: one shared injector queue plus one deque per worker. Batch
//! submission distributes tasks round-robin across the worker deques;
//! a worker pops from its own deque first, then the injector, then steals
//! from siblings. The submitting thread *helps* (runs queued tasks) while
//! it waits, which also makes nested submissions deadlock-free.
//!
//! Sizing: [`WorkerPool::global`] uses `CIRA_JOBS` if set (a positive
//! integer), else [`std::thread::available_parallelism`]. Results are
//! returned in submission order and are independent of the worker count —
//! tasks share nothing and each writes its own result slot.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use cira_obs::{Counter, Histogram, Registry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hot-path scheduling counters for a [`WorkerPool`].
///
/// Updated with relaxed atomics on every claim/execution; queue depths are
/// not stored here — they are read live off the deques when the pool is
/// registered on a [`Registry`] (see [`WorkerPool::register_metrics`]).
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Tasks fully executed by a worker or a helping submitter.
    pub tasks_executed: Counter,
    /// Tasks claimed from a *sibling's* deque (work stealing events).
    pub tasks_stolen: Counter,
    /// Fire-and-forget tasks pushed through the shared injector
    /// ([`WorkerPool::spawn`]).
    pub tasks_injected: Counter,
    /// Wall-clock task execution latency in microseconds.
    pub task_latency_us: Histogram,
}

/// Locks a mutex, ignoring poisoning (a panicking job never holds a queue
/// lock, so the protected state is always consistent).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Shared {
    /// Overflow queue for tasks not assigned to a specific worker.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker; owners pop the front, thieves steal the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Queued-but-not-yet-claimed jobs, used to gate worker sleep.
    pending: AtomicUsize,
    /// Round-robin cursor for batch distribution.
    cursor: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    metrics: PoolMetrics,
}

impl Shared {
    /// Claims one job: own deque first, then the injector, then steal.
    /// `home` is `None` for non-worker (helping) threads.
    fn claim(&self, home: Option<usize>) -> Option<Job> {
        if let Some(h) = home {
            if let Some(job) = lock_clean(&self.queues[h]).pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(job);
            }
        }
        if let Some(job) = lock_clean(&self.injector).pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        let n = self.queues.len();
        let start = home.map(|h| h + 1).unwrap_or(0);
        for k in 0..n {
            let v = (start + k) % n;
            if Some(v) == home {
                continue;
            }
            if let Some(job) = lock_clean(&self.queues[v]).pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.metrics.tasks_stolen.inc();
                return Some(job);
            }
        }
        None
    }

    /// Executes one claimed job, timing it and containing any panic.
    /// Panics are caught at the batch layer; a stray panic from a raw
    /// `submit` job must not kill the worker.
    fn run(&self, job: Job) {
        let t0 = Instant::now();
        let _ = catch_unwind(AssertUnwindSafe(job));
        self.metrics
            .task_latency_us
            .record(t0.elapsed().as_micros() as u64);
        self.metrics.tasks_executed.inc();
    }

    fn worker_loop(&self, index: usize) {
        loop {
            if let Some(job) = self.claim(Some(index)) {
                self.run(job);
                continue;
            }
            let guard = lock_clean(&self.sleep);
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.pending.load(Ordering::Acquire) == 0 {
                // Pushers raise `pending` before notifying under this mutex,
                // so the re-check above cannot miss a wakeup.
                drop(self.wake.wait(guard).unwrap_or_else(|e| e.into_inner()));
            }
        }
    }
}

/// A persistent work-stealing thread pool; see the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `jobs` worker threads (at least one).
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: PoolMetrics::default(),
        });
        cira_obs::debug!("worker pool started", workers = jobs);
        let handles = (0..jobs)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cira-worker-{i}"))
                    .spawn(move || s.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool, created on first use and sized from
    /// `CIRA_JOBS` (positive integer) or the available parallelism.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_jobs()))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs `f` over every item, in parallel, returning results in item
    /// order. The calling thread helps execute queued tasks while waiting.
    ///
    /// # Panics
    ///
    /// If any invocation of `f` panics, the panic is re-raised on the
    /// calling thread after the whole batch has finished.
    pub fn scope_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 || self.workers() == 1 {
            // Nothing to distribute; run inline (also keeps the common
            // single-benchmark path free of queue traffic).
            return (0..n).map(|i| f(i, &items[i])).collect();
        }

        struct Batch<R> {
            slots: Vec<Mutex<Option<R>>>,
            done: AtomicUsize,
            panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
            gate: Mutex<()>,
            cv: Condvar,
        }
        let batch = Batch {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        };

        let run_one = |i: usize| {
            match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                Ok(r) => *lock_clean(&batch.slots[i]) = Some(r),
                Err(p) => {
                    let mut g = lock_clean(&batch.panic);
                    if g.is_none() {
                        *g = Some(p);
                    }
                }
            }
            if batch.done.fetch_add(1, Ordering::AcqRel) + 1 == n {
                let _g = lock_clean(&batch.gate);
                batch.cv.notify_all();
            }
        };

        // Jobs capture a shared reference to the runner (the reference is
        // `Copy`, so each job can move its own copy).
        let run_one = &run_one;

        // SAFETY: every job runs exactly once before this function returns:
        // `done` is incremented only after a job body finishes, the wait
        // below does not return until `done == n`, and neither workers nor
        // the pool drop queued jobs while the pool is alive (the `&self`
        // borrow keeps it alive). Therefore the borrows of `items`, `f`,
        // and `batch` captured by the jobs never outlive this frame, and
        // erasing their lifetime to `'static` for the queue is sound.
        let jobs: Vec<Job> = (0..n)
            .map(|i| {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || run_one(i));
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        self.submit(jobs);

        // Help with queued work (this batch's or anyone's) while waiting.
        while batch.done.load(Ordering::Acquire) < n {
            if let Some(job) = self.shared.claim(None) {
                self.shared.run(job);
                continue;
            }
            let g = lock_clean(&batch.gate);
            if batch.done.load(Ordering::Acquire) < n {
                drop(batch.cv.wait(g).unwrap_or_else(|e| e.into_inner()));
            }
        }

        if let Some(p) = lock_clean(&batch.panic).take() {
            resume_unwind(p);
        }
        batch
            .slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("completed job wrote its result")
            })
            .collect()
    }

    /// Enqueues one fire-and-forget job on the pool.
    ///
    /// Unlike [`scope_map`](Self::scope_map) this does not wait: the job
    /// runs on some worker whenever one is free, and a panic inside it is
    /// caught and discarded (the pool stays healthy). This is the entry
    /// point for event-driven users — `cira-serve` schedules each
    /// session's batch-processing turns here so connection handling fans
    /// out over the same workers as the offline experiment grid.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        // Spawned jobs go through the shared injector rather than a
        // specific worker's deque: no worker owns them, any idle worker
        // picks them up, and the injector depth gauge shows the backlog
        // of event-driven work distinctly from batch work.
        lock_clean(&self.shared.injector).push_back(Box::new(job));
        self.shared.metrics.tasks_injected.inc();
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        let _g = lock_clean(&self.shared.sleep);
        self.shared.wake.notify_all();
    }

    /// Scheduling counters and the task latency histogram.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.shared.metrics
    }

    /// Registers this pool's metrics on `reg` under `pool_*` names:
    /// executed/stolen/injected counters, the task latency histogram, the
    /// worker count, and live injector / per-worker queue depth gauges.
    ///
    /// Takes `&'static self` because the registry closures read the pool
    /// on every scrape; both [`WorkerPool::global`] and the leaked pool in
    /// `cira-serve` satisfy this.
    pub fn register_metrics(&'static self, reg: &Registry) {
        let m = self.metrics();
        reg.counter(
            "pool_tasks_executed_total",
            "Tasks executed by pool workers (including helping submitters)",
            move || m.tasks_executed.get(),
        );
        reg.counter(
            "pool_tasks_stolen_total",
            "Tasks claimed from a sibling worker's deque",
            move || m.tasks_stolen.get(),
        );
        reg.counter(
            "pool_tasks_injected_total",
            "Fire-and-forget tasks pushed through the shared injector",
            move || m.tasks_injected.get(),
        );
        reg.histogram(
            "pool_task_latency_us",
            "Task execution wall-clock latency in microseconds",
            move || m.task_latency_us.snapshot(),
        );
        reg.gauge("pool_workers", "Number of pool worker threads", move || {
            self.workers() as i64
        });
        reg.gauge(
            "pool_injector_depth",
            "Jobs waiting in the shared injector queue",
            move || lock_clean(&self.shared.injector).len() as i64,
        );
        for w in 0..self.workers() {
            let label = w.to_string();
            reg.gauge_with(
                "pool_queue_depth",
                "Jobs waiting in a worker's own deque",
                &[("worker", &label)],
                move || lock_clean(&self.shared.queues[w]).len() as i64,
            );
        }
    }

    /// Enqueues ready-built jobs round-robin across the worker deques.
    fn submit(&self, jobs: Vec<Job>) {
        let count = jobs.len();
        let n = self.shared.queues.len();
        let start = self.shared.cursor.fetch_add(count, Ordering::Relaxed);
        for (k, job) in jobs.into_iter().enumerate() {
            lock_clean(&self.shared.queues[(start + k) % n]).push_back(job);
        }
        self.shared.pending.fetch_add(count, Ordering::AcqRel);
        let _g = lock_clean(&self.shared.sleep);
        self.shared.wake.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = lock_clean(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for h in lock_clean(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// `CIRA_JOBS` if set to a positive integer, else available parallelism.
pub fn default_jobs() -> usize {
    match std::env::var("CIRA_JOBS") {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("CIRA_JOBS must be a positive integer, got {v:?}")),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn maps_in_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = pool.scope_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.scope_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(pool.scope_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let out = pool.scope_map(&[1u32, 2, 3], |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        let idx: Vec<usize> = (0..256).collect();
        pool.scope_map(&idx, |_, &i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_batches_complete() {
        let pool = WorkerPool::new(2);
        let outer: Vec<u64> = (0..4).collect();
        let out = pool.scope_map(&outer, |_, &x| {
            let inner: Vec<u64> = (0..8).collect();
            pool.scope_map(&inner, |_, &y| x * 100 + y)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..4).map(|x| (0..8).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panic_propagates_after_batch() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(&items, |_, &x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        assert_eq!(pool.scope_map(&[1u32], |_, &x| x), vec![1]);
    }

    #[test]
    fn default_jobs_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn metrics_count_executed_and_injected_tasks() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..64).collect();
        pool.scope_map(&items, |_, &x| x);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        while hits.load(Ordering::SeqCst) < 5 {
            std::thread::yield_now();
        }
        let m = pool.metrics();
        assert_eq!(m.tasks_injected.get(), 5);
        // Everything queued was executed and timed (the batch plus the
        // spawned jobs; steal counts are scheduling-dependent).
        assert_eq!(m.tasks_executed.get(), 64 + 5);
        assert_eq!(m.task_latency_us.snapshot().count, 64 + 5);
        assert!(m.tasks_stolen.get() <= m.tasks_executed.get());
    }

    #[test]
    fn spawned_jobs_run_and_panics_are_contained() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.spawn(|| panic!("contained"));
        // spawn() gives no completion handle; scope_map on the same pool
        // cannot finish before earlier queued jobs have been claimed, and
        // each job bumps the counter before returning.
        while hits.load(Ordering::SeqCst) < 32 {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 32);
        // Pool still usable after the panicking job.
        assert_eq!(pool.scope_map(&[2u32], |_, &x| x * 2), vec![4]);
    }
}
