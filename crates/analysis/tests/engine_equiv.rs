//! Golden equivalence and determinism tests for the execution engine.
//!
//! The engine's whole contract is that its trace cache + work-stealing
//! pool + batched replay kernel change *nothing* about the statistics:
//! every number must be bit-identical to walking each benchmark trace
//! sequentially through [`cira_analysis::runner`], and independent of the
//! worker count.

use cira_analysis::engine::Engine;
use cira_analysis::{runner, BucketStats};
use cira_core::one_level::ResettingConfidence;
use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy};
use cira_predictor::Gshare;
use cira_trace::suite::{ibs_like_suite, Benchmark};

const TRACE_LENS: [u64; 2] = [10_000, 60_000];

fn suite3() -> Vec<Benchmark> {
    ibs_like_suite().into_iter().take(3).collect()
}

fn make_predictor() -> Gshare {
    Gshare::new(12, 12)
}

fn make_mechanism() -> ResettingConfidence {
    ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), 16, InitPolicy::AllOnes)
}

/// The sequential reference: fresh tables per benchmark, per-record loop,
/// no engine involved.
fn sequential_buckets(suite: &[Benchmark], len: u64) -> Vec<(String, BucketStats)> {
    suite
        .iter()
        .map(|bench| {
            let mut predictor = make_predictor();
            let mut mech = make_mechanism();
            (
                bench.name().to_owned(),
                runner::collect_mechanism_buckets(
                    bench.walker().take(len as usize),
                    &mut predictor,
                    &mut mech,
                ),
            )
        })
        .collect()
}

#[test]
fn engine_buckets_bit_identical_to_sequential_runner() {
    let suite = suite3();
    for len in TRACE_LENS {
        let reference = sequential_buckets(&suite, len);

        let engine = Engine::with_jobs(4);
        let out = engine
            .run_suite_mechanisms(&suite, len, make_predictor, || {
                vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>]
            })
            .pop()
            .expect("one series");

        assert_eq!(out.per_benchmark.len(), reference.len());
        for ((en, es), (rn, rs)) in out.per_benchmark.iter().zip(&reference) {
            assert_eq!(en, rn, "len {len}: benchmark order");
            assert_eq!(es, rs, "len {len}, {en}: buckets must be bit-identical");
        }
        let combined = BucketStats::combine_equal_weight(reference.iter().map(|(_, s)| s));
        assert_eq!(out.combined, combined, "len {len}: combined buckets");
    }
}

#[test]
fn engine_results_independent_of_worker_count() {
    let suite = suite3();
    let len = 30_000;

    // CIRA_JOBS affects only the global engine; pin both counts explicitly.
    let serial = Engine::with_jobs(1);
    let wide = Engine::with_jobs(
        std::thread::available_parallelism()
            .map(|n| n.get().max(4))
            .unwrap_or(4),
    );

    let run = |engine: &Engine| {
        engine
            .run_suite_mechanisms(&suite, len, make_predictor, || {
                vec![Box::new(make_mechanism()) as Box<dyn ConfidenceMechanism>]
            })
            .pop()
            .expect("one series")
    };
    let a = run(&serial);
    let b = run(&wide);

    assert_eq!(a.combined, b.combined);
    assert_eq!(a.per_benchmark, b.per_benchmark);
}

#[test]
fn engine_grid_rows_match_single_config_runs() {
    // A multi-config grid must reproduce each configuration's standalone
    // result — shared trace buffers must not leak state across tasks.
    let suite = suite3();
    let len = 20_000;
    let maxes = [8u32, 16];

    let engine = Engine::with_jobs(3);
    let grid = engine.run_grid(
        &suite,
        len,
        &maxes,
        |_| make_predictor(),
        |&max| {
            vec![Box::new(ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(12),
                max,
                InitPolicy::AllOnes,
            )) as Box<dyn ConfidenceMechanism>]
        },
    );

    for (&max, row) in maxes.iter().zip(&grid) {
        let reference: Vec<(String, BucketStats)> = suite
            .iter()
            .map(|bench| {
                let mut predictor = make_predictor();
                let mut mech =
                    ResettingConfidence::new(IndexSpec::pc_xor_bhr(12), max, InitPolicy::AllOnes);
                (
                    bench.name().to_owned(),
                    runner::collect_mechanism_buckets(
                        bench.walker().take(len as usize),
                        &mut predictor,
                        &mut mech,
                    ),
                )
            })
            .collect();
        assert_eq!(row[0].per_benchmark, reference, "max {max}");
    }
}
