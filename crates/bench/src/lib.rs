//! # cira-bench
//!
//! Experiment harness for the `cira` reproduction: one binary per paper
//! figure/table (`fig02_static`, `fig05_one_level`, …, `table1_resetting`,
//! `calibration`) plus Criterion microbenches. This library crate holds the
//! small amount of shared runner plumbing.
//!
//! Binaries honour two environment variables:
//!
//! * `CIRA_TRACE_LEN` — dynamic branches simulated per benchmark
//!   (default 1,000,000).
//! * `CIRA_RESULTS_DIR` — where CSVs are written (default `results/`).

#![warn(missing_docs)]

use std::path::PathBuf;

/// Default dynamic branches simulated per benchmark.
pub const DEFAULT_TRACE_LEN: u64 = 1_000_000;

/// Trace length per benchmark: `CIRA_TRACE_LEN` or the default.
///
/// # Panics
///
/// Panics if the environment variable is set but not a positive integer.
pub fn trace_len() -> u64 {
    match std::env::var("CIRA_TRACE_LEN") {
        Ok(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("CIRA_TRACE_LEN must be a positive integer, got {v:?}")),
        Err(_) => DEFAULT_TRACE_LEN,
    }
}

/// The `rustc --version` string the bench binaries were compiled with,
/// captured by the build script — recorded in benchmark artifacts so a
/// number can always be traced back to its toolchain.
pub fn rustc_version() -> &'static str {
    env!("CIRA_RUSTC_VERSION")
}

/// Results directory: `CIRA_RESULTS_DIR` or `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CIRA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Standard experiment banner printed by every figure binary.
pub fn banner(experiment: &str, what: &str, len: u64) {
    println!("=== {experiment} ===");
    println!("{what}");
    println!("(IBS-like synthetic suite, {len} dynamic branches per benchmark)");
    println!();
}

use cira_analysis::export::{ascii_chart, coverage_summary, save_curves_csv};
use cira_analysis::{CoverageCurve, Engine, SuiteBuckets};
use cira_core::ConfidenceMechanism;
use cira_predictor::BranchPredictor;
use cira_trace::suite::Benchmark;

/// Runs a set of named mechanism configurations over the suite, prints the
/// paper-style report (coverage at 10/20/30% budgets plus an ASCII chart),
/// saves `results/<id>.csv`, and returns the per-series suite results.
pub fn run_figure<P>(
    id: &str,
    suite: &[Benchmark],
    len: u64,
    make_predictor: impl Fn() -> P + Sync,
    series: &[&str],
    make_mechanisms: impl Fn() -> Vec<Box<dyn ConfidenceMechanism>> + Sync,
    extra: &[(&str, CoverageCurve)],
) -> Vec<SuiteBuckets>
where
    P: BranchPredictor + Send,
{
    let results =
        Engine::global().run_suite_mechanisms(suite, len, make_predictor, make_mechanisms);
    assert_eq!(results.len(), series.len(), "one name per mechanism");
    let curves: Vec<(String, CoverageCurve)> = series
        .iter()
        .map(|n| n.to_string())
        .zip(results.iter().map(|r| r.curve()))
        .chain(extra.iter().map(|(n, c)| (n.to_string(), c.clone())))
        .collect();
    report_curves(id, &curves);
    results
}

/// Prints coverage summaries and an ASCII chart for named curves and saves
/// them to `results/<id>.csv`.
pub fn report_curves(id: &str, curves: &[(String, CoverageCurve)]) {
    let named: Vec<(&str, &CoverageCurve)> = curves.iter().map(|(n, c)| (n.as_str(), c)).collect();
    for (name, curve) in &named {
        println!("{}", coverage_summary(name, curve, 20.0));
        println!(
            "    at 10%: {:5.1}%   at 30%: {:5.1}%   at 50%: {:5.1}%",
            curve.coverage_at(10.0),
            curve.coverage_at(30.0),
            curve.coverage_at(50.0)
        );
    }
    println!();
    println!("{}", ascii_chart(&named, 72, 22));
    let path = results_dir().join(format!("{id}.csv"));
    match save_curves_csv(&path, &named) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => cira_obs::warn!(
            "could not write results csv",
            path = path.display(),
            error = e
        ),
    }
}

/// The zero-bucket statistics the paper quotes for CIR methods: the share
/// of references and mispredictions seen at the given key.
pub fn zero_bucket_line(name: &str, buckets: &cira_analysis::BucketStats, key: u64) -> String {
    let cell = buckets.cell(key).copied().unwrap_or_default();
    format!(
        "{name}: zero bucket holds {:.1}% of references and {:.1}% of mispredictions",
        100.0 * cell.refs / buckets.total_refs().max(f64::MIN_POSITIVE),
        100.0 * cell.mispredicts / buckets.total_mispredicts().max(f64::MIN_POSITIVE),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bucket_line_formats_shares() {
        let mut stats = cira_analysis::BucketStats::new();
        for i in 0..8 {
            stats.observe(0, i == 0); // key 0: 8 refs, 1 miss
        }
        stats.observe(1, true); // key 1: 1 ref, 1 miss
        let line = zero_bucket_line("m", &stats, 0);
        assert!(line.contains("88.9%"), "{line}"); // 8/9 refs
        assert!(line.contains("50.0%"), "{line}"); // 1/2 misses
    }

    #[test]
    fn zero_bucket_line_handles_missing_key() {
        let stats = cira_analysis::BucketStats::new();
        let line = zero_bucket_line("m", &stats, 0);
        assert!(line.contains("0.0%"), "{line}");
    }

    #[test]
    fn results_dir_defaults() {
        // Note: does not mutate the environment (tests run in parallel).
        let d = results_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
