//! Figure 7: comparison of the best one-level method (PC⊕BHR), the best
//! two-level method (PC⊕BHR → CIR), and the static method.
//!
//! Paper observation to reproduce: the one- and two-level methods are very
//! similar (the two-level, if anything, *slightly worse*), so the second
//! table is not worth its cost — the paper's central negative result.

use cira_analysis::Engine;
use cira_bench::{banner, run_figure, trace_len};
use cira_core::one_level::OneLevelCir;
use cira_core::two_level::TwoLevelCir;
use cira_core::{ConfidenceMechanism, IndexSpec};
use cira_predictor::Gshare;
use cira_trace::suite::ibs_like_suite;

fn main() {
    let len = trace_len();
    banner(
        "Figure 7",
        "Best one-level vs best two-level vs static",
        len,
    );
    let suite = ibs_like_suite();
    let static_curve = Engine::global()
        .run_suite_static(&suite, len, Gshare::paper_large)
        .curve();

    let results = run_figure(
        "fig07_compare",
        &suite,
        len,
        Gshare::paper_large,
        &["BHRxorPC", "BHRxorPC-CIR"],
        || {
            vec![
                Box::new(OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16)))
                    as Box<dyn ConfidenceMechanism>,
                Box::new(TwoLevelCir::variant_pcxorbhr_cir()),
            ]
        },
        &[("static", static_curve)],
    );

    let one = results[0].curve().coverage_at(20.0);
    let two = results[1].curve().coverage_at(20.0);
    println!();
    println!(
        "at 20%: one-level {one:.1}% vs two-level {two:.1}% (paper: nearly equal, \
         two-level very slightly worse)"
    );
}
