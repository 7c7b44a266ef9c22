//! Paper anchor: the benchmark's own cells, at seed 0 (the suite's
//! default run seeds) and the committed logs' 1M records per benchmark,
//! reproduce the headline numbers of `results/logs/fig08_reduction.txt`
//! and `results/logs/confidence_on_tage.txt`.
//!
//! Run with `--release`: this replays 60M records.

use cira_analysis::{BucketStats, CoverageCurve};
use cira_perfbench::offline::{configs, replay_cell, CellResult};
use cira_perfbench::suite::seeded_suite;
use cira_perfbench::Kind;
use cira_trace::codec::PackedTrace;

/// The committed logs' records per benchmark.
const LEN: usize = 1_000_000;

/// Each configuration's cells over the seed-0 suite, combined per
/// mechanism with the paper's equal-dynamic-branch weighting.
fn combined(kind: Kind) -> Vec<Vec<BucketStats>> {
    let traces: Vec<PackedTrace> = seeded_suite(0)
        .iter()
        .map(|b| b.walker().take(LEN).collect())
        .collect();
    configs(kind)
        .iter()
        .map(|cfg| {
            let cells: Vec<CellResult> =
                traces.iter().map(|t| replay_cell(cfg, t, LEN, 0)).collect();
            (0..cfg.mechanisms.len())
                .map(|m| BucketStats::combine_equal_weight(cells.iter().map(|c| &c.stats[m])))
                .collect()
        })
        .collect()
}

fn at20(stats: &BucketStats) -> String {
    format!(
        "{:.1}",
        CoverageCurve::from_buckets(stats).coverage_at(20.0)
    )
}

#[test]
fn paper_grid_gshare64k_cells_reproduce_fig08() {
    let grid = combined(Kind::PaperGrid);
    let gshare64k = &grid[0];
    let miss = CoverageCurve::from_buckets(&gshare64k[0]).miss_rate();
    assert_eq!(format!("{:.2}", miss * 100.0), "4.75", "miss rate");
    assert_eq!(at20(&gshare64k[0]), "83.8", "CIR coverage at 20%");
    assert_eq!(at20(&gshare64k[1]), "80.9", "resetting coverage at 20%");
}

#[test]
fn tage_self_cells_reproduce_confidence_on_tage() {
    let grid = combined(Kind::TageSelf);
    assert_eq!(at20(&grid[0][0]), "80.3", "tage/resetting");
    assert_eq!(at20(&grid[0][1]), "65.5", "tage/self");
    assert_eq!(at20(&grid[1][1]), "64.4", "tage-sc-lite/self");
}
