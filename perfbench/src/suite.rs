//! The seeded IBS-like suite every workload draws its inputs from.

use std::sync::atomic::{AtomicU64, Ordering};

use cira_trace::codec::PackedTrace;
use cira_trace::suite::{suite_profiles, Benchmark};

use crate::span;

/// Run seed of benchmark `i` under workload seed `seed`. Seed 0 gives the
/// suite's default run seeds (`0xC1AA_0000 + i`), the ones behind the
/// committed `results/` logs.
pub fn run_seed(seed: u64, i: usize) -> u64 {
    0xC1AA_0000u64
        .wrapping_add(seed.wrapping_mul(16))
        .wrapping_add(i as u64)
}

/// The ten suite benchmarks with `seed`'s run seeds. The program shapes
/// do not depend on the seed, only the walk through them does, so every
/// seed costs about the same to simulate.
pub fn seeded_suite(seed: u64) -> Vec<Benchmark> {
    suite_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, p)| Benchmark::new(p, run_seed(seed, i)))
        .collect()
}

static PACKED_BYTES: AtomicU64 = AtomicU64::new(0);
static PACKED_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Walks the first `len` records of `bench` into a packed trace.
pub fn walk(bench: &Benchmark, len: usize) -> PackedTrace {
    let trace = span::span("trace.walk", 0, len as u64, || {
        bench.walker().take(len).collect::<PackedTrace>()
    });
    note_packed(&trace);
    trace
}

/// Adds a walked trace to the traced run's packed-size totals.
pub fn note_packed(trace: &PackedTrace) {
    if span::enabled() {
        PACKED_BYTES.fetch_add(trace.approx_bytes() as u64, Ordering::Relaxed);
        PACKED_RECORDS.fetch_add(trace.len() as u64, Ordering::Relaxed);
    }
}

/// `(bytes, records)` of every trace walked while tracing was on.
pub fn packed_totals() -> (u64, u64) {
    (
        PACKED_BYTES.load(Ordering::Relaxed),
        PACKED_RECORDS.load(Ordering::Relaxed),
    )
}

/// Records `[at, at + len)` of `trace` as a batch of their own.
pub fn slice(trace: &PackedTrace, at: usize, len: usize) -> PackedTrace {
    (at..(at + len).min(trace.len()))
        .map(|i| trace.get(i).expect("index in range"))
        .collect()
}

/// Splits `trace` into consecutive batches of `batch` records.
pub fn batches(trace: &PackedTrace, batch: usize) -> Vec<PackedTrace> {
    (0..trace.len())
        .step_by(batch)
        .map(|at| slice(trace, at, batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_trace::suite::ibs_like_suite;

    #[test]
    fn seed_zero_is_the_default_suite() {
        let ours = seeded_suite(0);
        let default = ibs_like_suite();
        for (a, b) in ours.iter().zip(&default) {
            assert_eq!(a.run_seed(), b.run_seed());
            assert_eq!(a.name(), b.name());
        }
        assert_ne!(seeded_suite(1)[0].run_seed(), default[0].run_seed());
    }

    #[test]
    fn batches_cover_the_trace_in_order() {
        let trace = walk(&seeded_suite(3)[2], 10_000);
        let parts = batches(&trace, 4096);
        assert_eq!(parts.len(), 3);
        let joined: Vec<_> = parts.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(joined, trace.iter().collect::<Vec<_>>());
    }
}
