//! The shared execution engine: one substrate for every suite experiment.
//!
//! Every figure, ablation, and sweep in this reproduction runs the same
//! §1.2 loop — walk a benchmark trace, query predictor + confidence
//! structure, update — over the configuration × benchmark grid. The engine
//! factors that shape into three shared pieces:
//!
//! 1. a [`TraceCache`]: each benchmark is walked **once** into a compact
//!    [`PackedTrace`] buffer shared by every configuration (the old path
//!    regenerated the synthetic trace per configuration);
//! 2. a persistent work-stealing [`WorkerPool`] that schedules the full
//!    config × benchmark grid as independent tasks (the old path spawned
//!    one thread per benchmark per call, capping parallelism at the suite
//!    size); sized by `CIRA_JOBS` or the available parallelism;
//! 3. the batched [`replay`] kernel: a chunked inner loop, monomorphized
//!    over the predictor, with the `dyn ConfidenceMechanism` dispatch
//!    hoisted out of the per-record interleave.
//!
//! Determinism: tasks share nothing (fresh predictor/mechanism tables per
//! (config, benchmark), exactly like simulating each trace separately),
//! results are keyed by grid position, and per-benchmark statistics are
//! folded in suite order — so results are bit-identical to the sequential
//! [`crate::runner`] drivers and independent of the worker count.
//!
//! The `run_suite_*` methods on [`Engine`] are the **canonical suite
//! API**: one predictor/mechanism factory pair per experiment,
//! fresh tables per benchmark, combined with the paper's
//! equal-dynamic-branch weighting (§1.2) into a [`SuiteBuckets`].
//! Experiments call them on [`Engine::global`] (the free-function shims
//! that predated this API were removed after a deprecation cycle).
//!
//! # Examples
//!
//! ```
//! use cira_analysis::engine::Engine;
//! use cira_core::one_level::ResettingConfidence;
//! use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy};
//! use cira_predictor::Gshare;
//! use cira_trace::suite::ibs_like_suite;
//!
//! let suite: Vec<_> = ibs_like_suite().into_iter().take(2).collect();
//! let thresholds = [8u32, 16, 32];
//! let grid = Engine::global().run_grid(
//!     &suite,
//!     5_000,
//!     &thresholds,
//!     |_| Gshare::new(10, 10),
//!     |&max| {
//!         vec![Box::new(ResettingConfidence::new(
//!             IndexSpec::pc_xor_bhr(10),
//!             max,
//!             InitPolicy::AllOnes,
//!         )) as Box<dyn ConfidenceMechanism>]
//!     },
//! );
//! assert_eq!(grid.len(), 3); // one row per configuration
//! assert_eq!(grid[0][0].per_benchmark.len(), 2);
//! ```

pub mod cache;
pub mod pool;
pub mod replay;
pub mod simd;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cira_obs::{Counter, Histogram, Registry};

use cira_core::ConfidenceMechanism;
use cira_predictor::BranchPredictor;
use cira_trace::codec::PackedTrace;
use cira_trace::suite::Benchmark;

use crate::buckets::BucketStats;
use crate::curve::CoverageCurve;
use crate::runner::PredictorRun;

pub use cache::TraceCache;
pub use pool::{PoolMetrics, WorkerPool};

/// Per-benchmark and combined bucket statistics for one mechanism
/// configuration.
///
/// The paper reports composite results over the IBS suite, weighting each
/// benchmark to contribute the same number of dynamic branches (§1.2);
/// `combined` is that equal-weight combination
/// ([`BucketStats::combine_equal_weight`]) of the `per_benchmark` runs.
#[derive(Debug, Clone)]
pub struct SuiteBuckets {
    /// `(benchmark name, stats)` in suite order.
    pub per_benchmark: Vec<(String, BucketStats)>,
    /// Equal-dynamic-branch-weighted combination.
    pub combined: BucketStats,
}

impl SuiteBuckets {
    /// The coverage curve of the combined statistics.
    pub fn curve(&self) -> CoverageCurve {
        CoverageCurve::from_buckets(&self.combined)
    }

    /// The coverage curve of one benchmark by name.
    pub fn benchmark_curve(&self, name: &str) -> Option<CoverageCurve> {
        self.per_benchmark
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| CoverageCurve::from_buckets(s))
    }
}

/// Suite-runner instrumentation: how many per-benchmark replays ran and
/// how long each took end to end (materialized trace → folded stats).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Per-(config, benchmark) replay tasks completed.
    pub replays: Counter,
    /// Wall-clock time of one replay task, in microseconds.
    pub replay_us: Histogram,
}

/// Shared simulation engine: trace cache + worker pool + replay kernel.
#[derive(Debug)]
pub struct Engine {
    pool: WorkerPool,
    cache: TraceCache,
    metrics: EngineMetrics,
}

impl Engine {
    /// An engine with its own pool of `jobs` workers and an empty cache
    /// (tests use this to pin the worker count; experiments should share
    /// [`Engine::global`]).
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            pool: WorkerPool::new(jobs),
            cache: TraceCache::new(),
            metrics: EngineMetrics::default(),
        }
    }

    /// The process-wide engine (workers sized from `CIRA_JOBS` or the
    /// available parallelism; traces cached for the process lifetime).
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(|| Self {
            pool: WorkerPool::new(pool::default_jobs()),
            cache: TraceCache::new(),
            metrics: EngineMetrics::default(),
        })
    }

    /// The engine's worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The engine's trace cache.
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Replay counters and the per-benchmark replay time histogram.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Registers engine and pool metrics on `reg` (`engine_*`, `pool_*`).
    pub fn register_metrics(&'static self, reg: &Registry) {
        let m = self.metrics();
        reg.counter(
            "engine_replays_total",
            "Per-(config, benchmark) replay tasks completed",
            move || m.replays.get(),
        );
        reg.histogram(
            "engine_replay_us",
            "Wall-clock time of one replay task in microseconds",
            move || m.replay_us.snapshot(),
        );
        let cache = self.cache();
        reg.gauge(
            "engine_trace_cache_entries",
            "Materialized benchmark traces held by the cache",
            move || cache.entries() as i64,
        );
        self.pool.register_metrics(reg);
    }

    /// Times `f` as one replay task, folding the result into
    /// [`EngineMetrics`].
    fn timed_replay<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.metrics
            .replay_us
            .record(t0.elapsed().as_micros() as u64);
        self.metrics.replays.inc();
        out
    }

    /// Materializes `trace_len` records for every benchmark (in parallel,
    /// through the cache), returning the buffers in suite order.
    pub fn materialize(&self, suite: &[Benchmark], trace_len: u64) -> Vec<Arc<PackedTrace>> {
        self.pool
            .scope_map(suite, |_, bench| self.cache.get(bench, trace_len))
    }

    /// Runs the full configuration × benchmark grid: for each `config`,
    /// a fresh predictor plus mechanism set per benchmark, replayed over
    /// the shared materialized traces. Returns `[config][series]`
    /// suite results, where *series* indexes the mechanisms returned by
    /// `make_mechanisms` (same convention as
    /// [`run_suite_mechanisms`](Self::run_suite_mechanisms)).
    pub fn run_grid<P, C>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        configs: &[C],
        make_predictor: impl Fn(&C) -> P + Sync,
        make_mechanisms: impl Fn(&C) -> Vec<Box<dyn ConfidenceMechanism>> + Sync,
    ) -> Vec<Vec<SuiteBuckets>>
    where
        P: BranchPredictor + Send,
        C: Sync,
    {
        let traces = self.materialize(suite, trace_len);
        let tasks: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|ci| (0..suite.len()).map(move |bi| (ci, bi)))
            .collect();
        let per_task: Vec<Vec<BucketStats>> = self.pool.scope_map(&tasks, |_, &(ci, bi)| {
            self.timed_replay(|| {
                let mut predictor = make_predictor(&configs[ci]);
                let mut mechanisms = make_mechanisms(&configs[ci]);
                let mut refs: Vec<&mut dyn ConfidenceMechanism> = mechanisms
                    .iter_mut()
                    .map(|m| m.as_mut() as &mut dyn ConfidenceMechanism)
                    .collect();
                replay::replay_mechanisms(
                    &traces[bi],
                    trace_len as usize,
                    &mut predictor,
                    &mut refs,
                )
            })
        });
        (0..configs.len())
            .map(|ci| {
                let n_series = per_task[ci * suite.len()].len();
                (0..n_series)
                    .map(|si| {
                        let per_benchmark: Vec<(String, BucketStats)> = suite
                            .iter()
                            .enumerate()
                            .map(|(bi, bench)| {
                                (
                                    bench.name().to_owned(),
                                    per_task[ci * suite.len() + bi][si].clone(),
                                )
                            })
                            .collect();
                        let combined =
                            BucketStats::combine_equal_weight(per_benchmark.iter().map(|(_, s)| s));
                        SuiteBuckets {
                            per_benchmark,
                            combined,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs `make_predictor()` + `make_mechanism()` over every benchmark
    /// (`trace_len` dynamic branches each): fresh tables per benchmark,
    /// exactly like simulating each trace separately, combined with the
    /// paper's equal-dynamic-branch weighting.
    pub fn run_suite_mechanism<P, M>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        make_predictor: impl Fn() -> P + Sync,
        make_mechanism: impl Fn() -> M + Sync,
    ) -> SuiteBuckets
    where
        P: BranchPredictor + Send,
        M: ConfidenceMechanism + Send + 'static,
    {
        self.run_suite_mechanisms(suite, trace_len, make_predictor, || {
            vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>]
        })
        .pop()
        .expect("one mechanism, one result")
    }

    /// Runs several mechanism configurations over the suite, driving the
    /// predictor once per benchmark (not once per mechanism). Returns one
    /// [`SuiteBuckets`] per factory, in order — a one-configuration
    /// convenience over [`run_grid`](Self::run_grid).
    pub fn run_suite_mechanisms<P>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        make_predictor: impl Fn() -> P + Sync,
        make_mechanisms: impl Fn() -> Vec<Box<dyn ConfidenceMechanism>> + Sync,
    ) -> Vec<SuiteBuckets>
    where
        P: BranchPredictor + Send,
    {
        self.run_grid(
            suite,
            trace_len,
            &[()],
            |_| make_predictor(),
            |_| make_mechanisms(),
        )
        .pop()
        .expect("one config in, one config out")
    }

    /// Runs the §2 static analysis (bucket = static PC) over the suite on
    /// cached traces.
    pub fn run_suite_static<P>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        make_predictor: impl Fn() -> P + Sync,
    ) -> SuiteBuckets
    where
        P: BranchPredictor + Send,
    {
        let per_benchmark = self.map_suite(suite, trace_len, |bench, trace| {
            let mut predictor = make_predictor();
            (
                bench.name().to_owned(),
                replay::replay_static(trace, trace_len as usize, &mut predictor),
            )
        });
        let combined = BucketStats::combine_equal_weight(per_benchmark.iter().map(|(_, s)| s));
        SuiteBuckets {
            per_benchmark,
            combined,
        }
    }

    /// Per-benchmark predictor accuracy (no confidence structures) — used
    /// by the calibration harness to report the §1.2 / §5.3 operating
    /// points.
    pub fn run_suite_predictor<P>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        make_predictor: impl Fn() -> P + Sync,
    ) -> Vec<(String, PredictorRun)>
    where
        P: BranchPredictor + Send,
    {
        self.map_suite(suite, trace_len, |bench, trace| {
            let mut predictor = make_predictor();
            (
                bench.name().to_owned(),
                replay::replay_predictor(trace, trace_len as usize, &mut predictor),
            )
        })
    }

    /// Maps an arbitrary per-benchmark simulation over the suite on the
    /// shared pool, handing each invocation the benchmark and its cached
    /// materialized trace (at least `trace_len` records; replay a prefix
    /// if longer). This is the escape hatch for experiments with bespoke
    /// inner loops (flush ablations, pipeline models) so they stop rolling
    /// their own `std::thread` fan-out and oversubscribing cores.
    pub fn map_suite<R: Send>(
        &self,
        suite: &[Benchmark],
        trace_len: u64,
        f: impl Fn(&Benchmark, &PackedTrace) -> R + Sync,
    ) -> Vec<R> {
        let traces = self.materialize(suite, trace_len);
        self.pool
            .scope_map(suite, |i, bench| self.timed_replay(|| f(bench, &traces[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_core::one_level::ResettingConfidence;
    use cira_core::{IndexSpec, InitPolicy};
    use cira_predictor::Gshare;
    use cira_trace::suite::ibs_like_suite;

    fn mini_suite() -> Vec<Benchmark> {
        ibs_like_suite().into_iter().take(3).collect()
    }

    #[test]
    fn suite_mechanism_combines_benchmarks() {
        let suite = mini_suite();
        let out = Engine::global().run_suite_mechanism(
            &suite,
            20_000,
            || Gshare::new(12, 12),
            || ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes),
        );
        assert_eq!(out.per_benchmark.len(), 3);
        // Equal weighting: combined refs = number of benchmarks.
        assert!((out.combined.total_refs() - 3.0).abs() < 1e-9);
        let curve = out.curve();
        assert!(curve.coverage_at(100.0) > 99.9);
        assert!(out.benchmark_curve(suite[0].name()).is_some());
        assert!(out.benchmark_curve("nope").is_none());
    }

    #[test]
    fn multi_mechanism_run_matches_single_runs() {
        let suite = mini_suite();
        let engine = Engine::global();
        let single = engine.run_suite_mechanism(
            &suite,
            10_000,
            || Gshare::new(10, 10),
            || ResettingConfidence::new(IndexSpec::pc(10), 16, InitPolicy::AllOnes),
        );
        let multi = engine.run_suite_mechanisms(
            &suite,
            10_000,
            || Gshare::new(10, 10),
            || {
                vec![Box::new(ResettingConfidence::new(
                    IndexSpec::pc(10),
                    16,
                    InitPolicy::AllOnes,
                )) as Box<dyn ConfidenceMechanism>]
            },
        );
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].combined, single.combined);
    }

    #[test]
    fn static_run_produces_pc_buckets() {
        let suite = mini_suite();
        let out = Engine::global().run_suite_static(&suite, 10_000, || Gshare::new(10, 10));
        assert!(out.combined.distinct_keys() > 50);
    }

    #[test]
    fn predictor_run_reports_each_benchmark() {
        let suite = mini_suite();
        let runs = Engine::global().run_suite_predictor(&suite, 5_000, || Gshare::new(10, 10));
        assert_eq!(runs.len(), 3);
        for (name, run) in &runs {
            assert_eq!(run.branches, 5_000, "{name}");
            assert!(run.miss_rate() < 0.5, "{name}: {}", run.miss_rate());
        }
    }

    #[test]
    fn grid_shape_and_sharing() {
        let engine = Engine::with_jobs(4);
        let suite = mini_suite();
        let maxes = [8u32, 16];
        let grid = engine.run_grid(
            &suite,
            8_000,
            &maxes,
            |_| Gshare::new(10, 10),
            |&max| {
                vec![Box::new(ResettingConfidence::new(
                    IndexSpec::pc_xor_bhr(10),
                    max,
                    InitPolicy::AllOnes,
                )) as Box<dyn ConfidenceMechanism>]
            },
        );
        assert_eq!(grid.len(), 2);
        for row in &grid {
            assert_eq!(row.len(), 1);
            assert_eq!(row[0].per_benchmark.len(), 3);
            assert!((row[0].combined.total_refs() - 3.0).abs() < 1e-9);
        }
        // All configurations shared one materialization per benchmark.
        assert_eq!(engine.cache().entries(), 3);
        // Every (config, benchmark) task was counted and timed.
        assert_eq!(engine.metrics().replays.get(), 2 * 3);
        assert_eq!(engine.metrics().replay_us.snapshot().count, 2 * 3);
    }

    #[test]
    fn map_suite_hands_out_cached_traces() {
        let engine = Engine::with_jobs(2);
        let suite = mini_suite();
        let lens = engine.map_suite(&suite, 2_000, |_, trace| trace.len());
        assert_eq!(lens, vec![2_000, 2_000, 2_000]);
        let again = engine.map_suite(&suite, 1_000, |_, trace| trace.len());
        // Cached buffers are reused (longer is fine; callers replay a prefix).
        assert_eq!(again, vec![2_000, 2_000, 2_000]);
        assert_eq!(engine.cache().entries(), 3);
    }
}
