#!/usr/bin/env bash
# Regenerates the committed figure logs and CSVs at the reference trace
# length and fails if any differs from what is checked in under results/.
#
# Every cira-bench binary with a committed log runs at
# CIRA_TRACE_LEN=1000000 with its CSV redirected to a scratch directory,
# so the checkout's results/ is never overwritten. Its stdout must equal
# results/logs/<bin>.txt once cargo's preamble and the `wrote …` line
# (which names the output path) are dropped from both, and every
# committed results/*.csv must be byte-identical to its regenerated copy.
#
# Usage: scripts/check_results_reproduce.sh [scratch_dir]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT/results" "$OUT/logs"

BINS="ablation_agree ablation_context_switch ablation_counter_width
      ablation_global_cir ablation_index_hash calibration confidence_on_tage
      fig02_static fig05_one_level fig06_two_level fig07_compare
      fig08_reduction fig09_benchmarks fig10_small_tables fig11_init
      pipeline_gating roc_resetting table1_resetting"

# shellcheck disable=SC2046 # one --bin flag per word
cargo build --release -q -p cira-bench $(printf -- '--bin %s ' $BINS)

comparable() {
    grep -v -E '^ *(Compiling|Finished|Running) |^wrote ' "$1" || true
}

status=0
for bin in $BINS; do
    CIRA_TRACE_LEN=1000000 CIRA_RESULTS_DIR="$OUT/results" \
        cargo run --release -q -p cira-bench --bin "$bin" > "$OUT/logs/$bin.txt"
    if diff <(comparable "results/logs/$bin.txt") <(comparable "$OUT/logs/$bin.txt") \
        > "$OUT/logs/$bin.diff"; then
        echo "ok: results/logs/$bin.txt"
    else
        echo "FAIL: $bin output differs from results/logs/$bin.txt:" >&2
        head -n 20 "$OUT/logs/$bin.diff" >&2
        status=1
    fi
done

for csv in results/*.csv; do
    if cmp "$csv" "$OUT/results/$(basename "$csv")"; then
        echo "ok: $csv"
    else
        echo "FAIL: $csv does not reproduce" >&2
        status=1
    fi
done
exit $status
