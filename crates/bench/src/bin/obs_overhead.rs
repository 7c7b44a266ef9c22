//! Perf smoke test for the observability layer.
//!
//! The server's batch job pays a fixed instrumentation toll per batch:
//! one `Instant` pair around the scoring call and
//! [`ServerMetrics::record_batch`] (four relaxed counter adds and two
//! histogram records). This binary measures that toll directly: it
//! streams the same trace through a [`StreamingReplay`] in server-sized
//! batches twice — once bare, once adding exactly the server's per-batch
//! accounting, through the server's own method — and reports the
//! difference.
//!
//! A third path adds the batch job's flight-recorder calls with the
//! recorder compiled in but left **disabled** — the configuration every
//! untraced production server runs. Its only cost is one relaxed atomic
//! load per span/instant, so it must clear the same bar as plain
//! instrumentation.
//!
//! All paths do identical scoring work (asserted bit-for-bit below).
//! One rep times each path once, in an order that rotates from rep to
//! rep so no path always runs first. Each instrumented path's overhead
//! is the median over all reps of its time divided by the bare path's
//! time in the same rep: the paired ratio cancels slow periods that
//! span a rep, and the median drops reps a scheduling hiccup hit.
//! Results go to `BENCH_obs.json`. The acceptance bar is an overhead of
//! at most 2% at the default 1M-branch trace length.

use std::hint::black_box;
use std::time::Instant;

use cira_analysis::engine::replay::StreamingReplay;
use cira_bench::{banner, trace_len};
use cira_core::one_level::ResettingConfidence;
use cira_core::{IndexSpec, InitPolicy};
use cira_predictor::Gshare;
use cira_serve::metrics::ServerMetrics;
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// The server's default batch pipeline width (`cira replay --batch`).
const BATCH_LEN: usize = 4096;
/// The server's default low-confidence threshold (`HelloConfig`).
const THRESHOLD: u64 = 16;
/// Timed reps; each times every path once. Odd, so the median is one
/// rep's ratio.
const REPS: usize = 201;

/// A fresh replayer with the server's default session configuration.
fn replayer() -> StreamingReplay {
    StreamingReplay::new(
        Box::new(Gshare::paper_large()),
        Box::new(ResettingConfidence::new(
            IndexSpec::pc_xor_bhr(16),
            16,
            InitPolicy::AllOnes,
        )),
    )
}

/// Feeds every batch bare: scoring plus the low-confidence scan the
/// session does anyway, no instrumentation. Returns (mispredicts, low).
fn run_bare(batches: &[PackedTrace]) -> (u64, u64) {
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for batch in batches {
        let fed = replay.feed(batch);
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// The same loop with the server's per-batch accounting added: an
/// `Instant` pair and [`ServerMetrics::record_batch`].
fn run_instrumented(batches: &[PackedTrace], m: &ServerMetrics) -> (u64, u64) {
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for batch in batches {
        let n = batch.len() as u64;
        let t0 = Instant::now();
        let fed = replay.feed(batch);
        let service_us = t0.elapsed().as_micros() as u64;
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        m.record_batch(n, fed.mispredicts, low, service_us);
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// The instrumented loop plus the flight-recorder operations the server's
/// batch path performs per batch — a `Score` span pair around the scoring
/// call and a `Checkout`/`Complete` instant on either side — with the
/// recorder left disabled. `Span::begin`/`instant` bail on one relaxed
/// load of the enable gate, so this is the cost a server with tracing
/// compiled in but switched off pays.
fn run_traced_disabled(batches: &[PackedTrace], m: &ServerMetrics) -> (u64, u64) {
    use cira_obs::trace::{self, Stage};
    assert!(!trace::enabled(), "this path measures the disabled gate");
    let mut replay = replayer();
    let (mut mispredicts, mut low_total) = (0u64, 0u64);
    for (i, batch) in batches.iter().enumerate() {
        let n = batch.len() as u64;
        trace::instant(Stage::Checkout, i as u64, 0, 0, n);
        let t0 = Instant::now();
        let span = trace::Span::begin(Stage::Score, i as u64, 0, 0);
        let fed = replay.feed(batch);
        span.end_with(n);
        let service_us = t0.elapsed().as_micros() as u64;
        let low = fed.keys.iter().filter(|&&k| k < THRESHOLD).count() as u64;
        trace::instant(Stage::Complete, i as u64, 0, 0, low);
        m.record_batch(n, fed.mispredicts, low, service_us);
        mispredicts += fed.mispredicts;
        low_total += black_box(low);
    }
    (mispredicts, low_total)
}

/// The median of `xs` (odd length).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let len = trace_len();
    banner(
        "Observability overhead",
        "Bare batch replay vs replay + the server's per-batch accounting",
        len,
    );

    let trace: PackedTrace = ibs_like_suite()[0].walker().take(len as usize).collect();
    let batches: Vec<PackedTrace> = (0..trace.len())
        .step_by(BATCH_LEN)
        .map(|at| {
            (at..(at + BATCH_LEN).min(trace.len()))
                .map(|i| trace.get(i).expect("index in range"))
                .collect()
        })
        .collect();
    println!(
        "{} branches in {} batches of <= {BATCH_LEN}; {REPS} reps, each path once per rep",
        trace.len(),
        batches.len()
    );
    println!();

    let metrics = ServerMetrics::new();
    let traced_metrics = ServerMetrics::new();
    // Wall seconds per rep, by path: bare, instrumented, traced (off).
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut results = [(0, 0); 3];
    for rep in 0..REPS {
        for k in 0..3 {
            let path = (rep + k) % 3;
            let t0 = Instant::now();
            results[path] = match path {
                0 => run_bare(&batches),
                1 => run_instrumented(&batches, &metrics),
                _ => run_traced_disabled(&batches, &traced_metrics),
            };
            secs[path].push(t0.elapsed().as_secs_f64());
        }
    }

    // The comparison only counts if all paths did identical work, and the
    // disabled recorder must not have captured a single event.
    assert_eq!(results[0], results[1], "paths must score identically");
    assert_eq!(results[0], results[2], "paths must score identically");
    assert_eq!(metrics.records.get(), len * REPS as u64);
    assert_eq!(
        metrics.batch_service_us.snapshot().count,
        metrics.batches.get()
    );
    assert_eq!(cira_obs::trace::stats().recorded, 0, "recorder stayed off");

    let overhead = |path: usize| {
        let ratios = secs[path].iter().zip(&secs[0]).map(|(p, b)| p / b);
        100.0 * (median(ratios.collect()) - 1.0)
    };
    let overhead_pct = overhead(1);
    let trace_disabled_overhead_pct = overhead(2);
    let [bare_secs, instr_secs, traced_secs] = secs.map(median);
    println!(
        "bare:         {bare_secs:8.4}s  ({:.1}M branches/s, median rep)",
        1e-6 * len as f64 / bare_secs
    );
    println!(
        "instrumented: {instr_secs:8.4}s  ({:.1}M branches/s, median rep)",
        1e-6 * len as f64 / instr_secs
    );
    println!(
        "traced (off): {traced_secs:8.4}s  ({:.1}M branches/s, median rep)",
        1e-6 * len as f64 / traced_secs
    );
    println!();
    println!("overhead: {overhead_pct:+.2}%  (median per-rep ratio; acceptance bar: <= 2%)");
    println!("overhead with disabled tracing: {trace_disabled_overhead_pct:+.2}%  (same bar)");

    let json = format!(
        "{{\n  \"trace_len\": {},\n  \"batch_len\": {BATCH_LEN},\n  \"batches\": {},\n  \"reps\": {REPS},\n  \"method\": \"median over reps of each path's time over the bare path's in the same rep\",\n  \"bare\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"instrumented\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"traced_disabled\": {{\"wall_seconds\": {:.4}, \"branches_per_sec\": {:.0}}},\n  \"overhead_pct\": {:.3},\n  \"trace_disabled_overhead_pct\": {:.3},\n  \"identical_results\": true\n}}\n",
        len,
        batches.len(),
        bare_secs,
        len as f64 / bare_secs,
        instr_secs,
        len as f64 / instr_secs,
        traced_secs,
        len as f64 / traced_secs,
        overhead_pct,
        trace_disabled_overhead_pct,
    );
    match std::fs::write("BENCH_obs.json", &json) {
        Ok(()) => println!("wrote BENCH_obs.json"),
        Err(e) => cira_obs::warn!("could not write BENCH_obs.json", error = e),
    }
}
