//! Integration tests asserting the qualitative *shape* of the paper's
//! results on a reduced scale (a three-benchmark mini-suite and shorter
//! traces, so the assertions hold in debug-mode CI runs).

use cira::prelude::*;
use cira_analysis::Engine;
use cira_core::two_level::TwoLevelCir;

const LEN: u64 = 400_000;

fn mini_suite() -> Vec<Benchmark> {
    // gcc (hard), jpeg (easy), sdet (OS-heavy): a representative spread.
    ibs_like_suite()
        .into_iter()
        .filter(|b| matches!(b.name(), "gcc" | "jpeg" | "sdet"))
        .collect()
}

#[test]
fn dynamic_confidence_beats_static_at_20_percent() {
    let suite = mini_suite();
    let stat = Engine::global()
        .run_suite_static(&suite, LEN, Gshare::paper_large)
        .curve();
    let dyn_ = Engine::global()
        .run_suite_mechanism(&suite, LEN, Gshare::paper_large, || {
            OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16))
        })
        .curve();
    assert!(
        dyn_.coverage_at(20.0) > stat.coverage_at(20.0),
        "dynamic {:.1} should beat static {:.1} (paper Fig. 5)",
        dyn_.coverage_at(20.0),
        stat.coverage_at(20.0)
    );
}

#[test]
fn xor_indexing_beats_pc_only() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_large, || {
        vec![
            Box::new(OneLevelCir::paper_default(IndexSpec::pc(16))) as Box<dyn ConfidenceMechanism>,
            Box::new(OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16))),
        ]
    });
    let pc = results[0].curve().coverage_at(20.0);
    let xor = results[1].curve().coverage_at(20.0);
    assert!(xor > pc, "xor {xor:.1} vs pc {pc:.1} (paper Fig. 5)");
}

#[test]
fn resetting_counters_track_the_ideal_reduction() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_large, || {
        let idx = IndexSpec::pc_xor_bhr(16);
        vec![
            Box::new(OneLevelCir::paper_default(idx.clone())) as Box<dyn ConfidenceMechanism>,
            Box::new(ResettingConfidence::paper_default(idx)),
        ]
    });
    let ideal = results[0].curve().coverage_at(20.0);
    let reset = results[1].curve().coverage_at(20.0);
    assert!(
        (ideal - reset).abs() < 10.0,
        "resetting {reset:.1} should track ideal {ideal:.1} (paper Fig. 8)"
    );
}

#[test]
fn saturating_counters_swell_the_max_bucket() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_large, || {
        let idx = IndexSpec::pc_xor_bhr(16);
        vec![
            Box::new(SaturatingConfidence::paper_default(idx.clone()))
                as Box<dyn ConfidenceMechanism>,
            Box::new(ResettingConfidence::paper_default(idx)),
        ]
    });
    let sat_max = results[0]
        .combined
        .cell(16)
        .map(|c| c.mispredicts)
        .unwrap_or(0.0);
    let reset_max = results[1]
        .combined
        .cell(16)
        .map(|c| c.mispredicts)
        .unwrap_or(0.0);
    assert!(
        sat_max > reset_max,
        "saturating max bucket ({sat_max:.4}) should hold more mispredictions than \
         resetting's ({reset_max:.4}) (paper Fig. 8)"
    );
}

#[test]
fn all_zeros_initialization_is_worst() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_large, || {
        let idx = IndexSpec::pc_xor_bhr(16);
        vec![
            Box::new(OneLevelCir::new(idx.clone(), 16, InitPolicy::AllOnes))
                as Box<dyn ConfidenceMechanism>,
            Box::new(OneLevelCir::new(idx.clone(), 16, InitPolicy::AllZeros)),
            Box::new(OneLevelCir::new(idx, 16, InitPolicy::Random(1))),
        ]
    });
    let ones = results[0].curve().coverage_at(20.0);
    let zeros = results[1].curve().coverage_at(20.0);
    let random = results[2].curve().coverage_at(20.0);
    assert!(
        ones > zeros && random > zeros,
        "ones {ones:.1} / random {random:.1} should beat zeros {zeros:.1} (paper Fig. 11)"
    );
}

#[test]
fn two_level_is_not_better_than_one_level() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_large, || {
        vec![
            Box::new(OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16)))
                as Box<dyn ConfidenceMechanism>,
            Box::new(TwoLevelCir::variant_pcxorbhr_cir()),
        ]
    });
    let one = results[0].curve().coverage_at(20.0);
    let two = results[1].curve().coverage_at(20.0);
    // The paper's conclusion: two-level is similar, if anything slightly
    // worse; certainly not a significant win.
    assert!(
        two < one + 3.0,
        "two-level {two:.1} should not significantly beat one-level {one:.1} (paper Fig. 7)"
    );
}

#[test]
fn small_tables_degrade_gracefully() {
    let suite = mini_suite();
    let results = Engine::global().run_suite_mechanisms(&suite, LEN, Gshare::paper_small, || {
        vec![
            Box::new(ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(12),
                16,
                InitPolicy::AllOnes,
            )) as Box<dyn ConfidenceMechanism>,
            Box::new(ResettingConfidence::new(
                IndexSpec::pc_xor_bhr(7),
                16,
                InitPolicy::AllOnes,
            )),
        ]
    });
    let big = results[0].curve().coverage_at(20.0);
    let small = results[1].curve().coverage_at(20.0);
    assert!(
        big > small,
        "4096-entry CT ({big:.1}) should beat 128-entry CT ({small:.1}) (paper Fig. 10)"
    );
    // Degradation, not collapse.
    assert!(small > 30.0, "128-entry CT still useful: {small:.1}");
}

#[test]
fn jpeg_is_more_predictable_than_gcc() {
    let suite = mini_suite();
    let out = Engine::global().run_suite_mechanism(&suite, LEN, Gshare::paper_large, || {
        OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16))
    });
    let rate = |name: &str| {
        out.per_benchmark
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.miss_rate())
            .expect("benchmark present")
    };
    assert!(
        rate("jpeg") < rate("gcc"),
        "jpeg {:.3} should be easier than gcc {:.3} (paper Fig. 9)",
        rate("jpeg"),
        rate("gcc")
    );
}

#[test]
fn zero_bucket_dominates_references() {
    let suite = mini_suite();
    let out = Engine::global().run_suite_mechanism(&suite, LEN, Gshare::paper_large, || {
        OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16))
    });
    let zero = out.combined.cell(0).expect("zero bucket exists");
    let ref_share = zero.refs / out.combined.total_refs();
    let miss_share = zero.mispredicts / out.combined.total_mispredicts();
    assert!(
        ref_share > 0.5,
        "zero bucket should dominate references: {ref_share:.2} (paper: ~0.8)"
    );
    assert!(
        miss_share < 0.3,
        "zero bucket should hold few mispredictions: {miss_share:.2} (paper: 0.12-0.15)"
    );
}
