//! Figure 6: two-level dynamic confidence methods with the ideal reduction
//! (§4.2).
//!
//! Paper observations to reproduce:
//! * best variant: PC⊕BHR indexing level 1, the level-1 CIR indexing
//!   level 2;
//! * PC⊕BHR → CIR⊕PC⊕BHR generally second;
//! * PC → CIR slightly better only in the 5–10% region, otherwise worst;
//! * all roughly comparable to the best one-level method (Fig. 7).

use cira_analysis::Engine;
use cira_bench::{banner, run_figure, trace_len};
use cira_core::two_level::TwoLevelCir;
use cira_core::ConfidenceMechanism;
use cira_predictor::Gshare;
use cira_trace::suite::ibs_like_suite;

fn main() {
    let len = trace_len();
    banner(
        "Figure 6",
        "Two-level dynamic confidence (ideal reduction): the three paper variants",
        len,
    );
    let suite = ibs_like_suite();
    let static_curve = Engine::global()
        .run_suite_static(&suite, len, Gshare::paper_large)
        .curve();

    run_figure(
        "fig06_two_level",
        &suite,
        len,
        Gshare::paper_large,
        &["PC-CIR", "BHRxorPC-CIR", "BHRxorPC-BHRxorCIRxorPC"],
        || {
            vec![
                Box::new(TwoLevelCir::variant_pc_cir()) as Box<dyn ConfidenceMechanism>,
                Box::new(TwoLevelCir::variant_pcxorbhr_cir()),
                Box::new(TwoLevelCir::variant_pcxorbhr_cirxorpcxorbhr()),
            ]
        },
        &[("static", static_curve)],
    );
    println!();
    println!("paper: best is BHRxorPC-CIR; two-level is no better than one-level (Fig. 7)");
}
