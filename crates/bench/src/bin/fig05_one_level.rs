//! Figure 5: one-level dynamic confidence methods with the ideal reduction
//! function (§4.1), indexing the 2^16-entry CIR table with PC, global BHR,
//! and PC⊕BHR.
//!
//! Paper observations to reproduce (at a 20%-of-branches budget):
//! * PC⊕BHR concentrates ≈89% of mispredictions (best);
//! * BHR alone ≈85%; PC alone ≈72%; the static method only ≈63%;
//! * the all-zeros "zero bucket" holds ≈80% of references and 12–15% of
//!   mispredictions for the two better methods.

use cira_analysis::Engine;
use cira_bench::{banner, run_figure, trace_len, zero_bucket_line};
use cira_core::one_level::OneLevelCir;
use cira_core::{ConfidenceMechanism, IndexSpec};
use cira_predictor::Gshare;
use cira_trace::suite::ibs_like_suite;

fn main() {
    let len = trace_len();
    banner(
        "Figure 5",
        "One-level dynamic confidence (ideal reduction): PC vs BHR vs PC xor BHR",
        len,
    );
    let suite = ibs_like_suite();

    let static_curve = Engine::global()
        .run_suite_static(&suite, len, Gshare::paper_large)
        .curve();

    let series = ["PC", "BHR", "BHRxorPC"];
    let results = run_figure(
        "fig05_one_level",
        &suite,
        len,
        Gshare::paper_large,
        &series,
        || {
            vec![
                Box::new(OneLevelCir::paper_default(IndexSpec::pc(16)))
                    as Box<dyn ConfidenceMechanism>,
                Box::new(OneLevelCir::paper_default(IndexSpec::bhr(16))),
                Box::new(OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16))),
            ]
        },
        &[("static", static_curve)],
    );

    println!();
    for (name, r) in series.iter().zip(&results) {
        println!("{}", zero_bucket_line(name, &r.combined, 0));
    }
    println!();
    println!("paper at 20%: PCxorBHR 89%, BHR 85%, PC 72%, static ~63%");
}
