//! Table 1: statistics for resetting counter values (§5.2) — the best
//! one-level method (PC⊕BHR, 2^16 entries) with 0..=16 resetting counters.
//!
//! Paper numbers to reproduce:
//! * count 0 isolates 41.7% of mispredictions in 4.28% of references;
//! * counts 0–1: 57.9% in 6.85%;
//! * counts 0–15 (everything but the saturated bucket): 89.3% in 20.3%.

use cira_analysis::CounterTable;
use cira_analysis::Engine;
use cira_bench::{banner, results_dir, trace_len};
use cira_core::one_level::ResettingConfidence;
use cira_core::IndexSpec;
use cira_predictor::Gshare;
use cira_trace::suite::ibs_like_suite;

fn main() {
    let len = trace_len();
    banner(
        "Table 1",
        "Resetting counter value statistics (PC xor BHR, 2^16 entries, counters 0..=16)",
        len,
    );
    let suite = ibs_like_suite();
    let out = Engine::global().run_suite_mechanism(&suite, len, Gshare::paper_large, || {
        ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(16))
    });
    let table = CounterTable::from_buckets(&out.combined, 16);
    println!("{table}");

    let r0 = table.row(0).expect("count 0 row");
    let r1 = table.row(1).expect("count 1 row");
    let r15 = table.row(15).expect("count 15 row");
    println!(
        "count 0      : {:5.1}% of mispredictions in {:5.2}% of refs (paper 41.7 in 4.28)",
        r0.cum_pct_mispredicts, r0.cum_pct_refs
    );
    println!(
        "counts 0..=1 : {:5.1}% of mispredictions in {:5.2}% of refs (paper 57.9 in 6.85)",
        r1.cum_pct_mispredicts, r1.cum_pct_refs
    );
    println!(
        "counts 0..=15: {:5.1}% of mispredictions in {:5.2}% of refs (paper 89.3 in 20.3)",
        r15.cum_pct_mispredicts, r15.cum_pct_refs
    );

    let path = results_dir().join("table1_resetting.csv");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => cira_obs::warn!(
            "could not write table csv",
            path = path.display(),
            error = e
        ),
    }
}
