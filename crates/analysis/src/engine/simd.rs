//! Lane-parallel chunk preparation for the vectorized replay kernel.
//!
//! The scalar replay loop carries one serial dependency through every
//! record: the global history register, updated bit by bit. But the
//! *outcomes* that feed it are trace data, already materialized in the
//! [`PackedTrace`] taken bitmap — so every record's pre-branch history is
//! computable in closed form from the history at the start of its 64-record
//! lane group:
//!
//! ```text
//! h_j = ((h_0 << j) | rev >> (64 - j)) & mask      rev = word.reverse_bits()
//! ```
//!
//! where `word` holds the group's taken bits LSB-first. Each lane `j`
//! depends only on `h_0` and the shared reversed word, so the fill loop has
//! no loop-carried dependency and auto-vectorizes. The same pass expands
//! the taken bitmap into per-record bools and gathers PCs through the site
//! dictionary, producing the flat `(pc, history, taken)` slices that
//! [`BranchPredictor::predict_train_batch`] consumes.
//!
//! Everything here is bit-identical to pushing records one at a time
//! through a [`HistoryRegister`] — the unit tests and the
//! `kernel_diff` differential suite hold it to that.
//!
//! [`BranchPredictor::predict_train_batch`]: cira_predictor::BranchPredictor::predict_train_batch
//! [`HistoryRegister`]: cira_predictor::HistoryRegister
//! [`PackedTrace`]: cira_trace::codec::PackedTrace

use cira_trace::codec::PackedTrace;

/// Records per lane group — one taken-bitmap word.
pub const LANE_GROUP: usize = 64;

/// Computes the pre-branch history for each of the `hists.len()` (≤ 64)
/// records of one lane group, given the history `h0` before the group and
/// the group's taken bits in `taken_word` (bit `j` = record `j`'s outcome).
/// Returns the history after the whole group.
///
/// Bits of `taken_word` at or beyond `hists.len()` are ignored.
///
/// # Panics
///
/// Panics if `hists.len() > 64`.
pub fn fill_group_histories(h0: u64, taken_word: u64, mask: u64, hists: &mut [u64]) -> u64 {
    let n = hists.len();
    assert!(n <= LANE_GROUP, "lane group is at most 64 records");
    if n == 0 {
        return h0;
    }
    let rev = taken_word.reverse_bits();
    hists[0] = h0 & mask;
    // Lane j's history is h0 shifted left j with the first j outcomes below
    // it: rev's top j bits are exactly t_0..t_{j-1} in push order. No
    // loop-carried dependency — j = 0 is peeled off above because a shift
    // by 64 - 0 would be undefined.
    for (j, h) in hists.iter_mut().enumerate().skip(1) {
        *h = ((h0 << j) | (rev >> (LANE_GROUP - j))) & mask;
    }
    if n == LANE_GROUP {
        rev & mask
    } else {
        ((h0 << n) | (rev >> (LANE_GROUP - n))) & mask
    }
}

/// Expands one lane group of the taken bitmap into per-record bools.
pub fn fill_group_takens(taken_word: u64, takens: &mut [bool]) {
    assert!(
        takens.len() <= LANE_GROUP,
        "lane group is at most 64 records"
    );
    for (j, t) in takens.iter_mut().enumerate() {
        *t = taken_word >> j & 1 == 1;
    }
}

/// Fills `pcs`, `hists`, and `takens` for the `c` records of `trace`
/// beginning at `start`, given the pre-chunk history `h0` (masked by
/// `mask`). Returns the history after the chunk.
///
/// `start` must be a multiple of 64 so the chunk's taken bits are
/// word-aligned in the bitmap — the chunked replay drivers guarantee this
/// by construction (chunk sizes are multiples of 64 except the last).
///
/// # Panics
///
/// Panics if `start` is not 64-aligned, the output slices are shorter than
/// `c`, or `start + c` exceeds the trace length.
#[allow(clippy::too_many_arguments)] // chunk driver: parallel output slices
pub fn fill_chunk(
    trace: &PackedTrace,
    start: usize,
    c: usize,
    h0: u64,
    mask: u64,
    pcs: &mut [u64],
    hists: &mut [u64],
    takens: &mut [bool],
) -> u64 {
    assert!(
        start.is_multiple_of(LANE_GROUP),
        "chunk start must be 64-aligned"
    );
    assert!(start + c <= trace.len(), "chunk exceeds trace length");
    let site_idx = &trace.site_indices()[start..start + c];
    let site_pcs = trace.site_pc_table();
    let words = trace.taken_words();
    // Gather PCs through the site dictionary in one tight pass.
    for (pc, &idx) in pcs[..c].iter_mut().zip(site_idx) {
        *pc = site_pcs[idx as usize];
    }
    let mut h = h0;
    let mut base = 0;
    while base < c {
        let ng = LANE_GROUP.min(c - base);
        let word = words[(start + base) / LANE_GROUP];
        h = fill_group_histories(h, word, mask, &mut hists[base..base + ng]);
        fill_group_takens(word, &mut takens[base..base + ng]);
        base += ng;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_predictor::HistoryRegister;
    use cira_trace::BranchRecord;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.max(1);
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn group_histories_match_push_loop() {
        let mut rng = xorshift(42);
        for width in [1u32, 7, 16, 63, 64] {
            let mut reg = HistoryRegister::new(width);
            reg.set(rng());
            for n in [0usize, 1, 2, 63, 64] {
                let word = rng();
                let mut hists = vec![0u64; n];
                let after = fill_group_histories(reg.value(), word, reg.mask(), &mut hists);
                for (j, &h) in hists.iter().enumerate() {
                    assert_eq!(h, reg.value(), "lane {j} width {width} n {n}");
                    reg.push(word >> j & 1 == 1);
                }
                assert_eq!(after, reg.value(), "post-group width {width} n {n}");
            }
        }
    }

    #[test]
    fn group_takens_expand_bitmap() {
        let mut takens = [false; 64];
        fill_group_takens(0b1011, &mut takens);
        assert_eq!(&takens[..5], &[true, true, false, true, false]);
        let mut partial = [false; 3];
        fill_group_takens(u64::MAX, &mut partial);
        assert_eq!(partial, [true; 3]);
    }

    #[test]
    fn chunk_fill_matches_scalar_walk() {
        let mut rng = xorshift(7);
        let n = 777; // non-multiple of 64
        let trace: PackedTrace = (0..n)
            .map(|_| BranchRecord::new((rng() % 50) << 2, rng() & 1 == 1))
            .collect();
        let mut reg = HistoryRegister::new(64);
        let mut pcs = vec![0u64; 512];
        let mut hists = vec![0u64; 512];
        let mut takens = vec![false; 512];
        let mut h = reg.value();
        let mut start = 0;
        while start < n {
            let c = 512.min(n - start);
            h = fill_chunk(
                &trace,
                start,
                c,
                h,
                reg.mask(),
                &mut pcs,
                &mut hists,
                &mut takens,
            );
            for j in 0..c {
                let r = trace.get(start + j).unwrap();
                assert_eq!(pcs[j], r.pc, "pc at {}", start + j);
                assert_eq!(takens[j], r.taken, "taken at {}", start + j);
                assert_eq!(hists[j], reg.value(), "history at {}", start + j);
                reg.push(r.taken);
            }
            assert_eq!(h, reg.value());
            start += c;
        }
    }

    #[test]
    #[should_panic(expected = "64-aligned")]
    fn unaligned_chunk_start_rejected() {
        let trace: PackedTrace = (0..100u64)
            .map(|i| BranchRecord::new(0x40, i % 2 == 0))
            .collect();
        let mut pcs = [0u64; 8];
        let mut hists = [0u64; 8];
        let mut takens = [false; 8];
        fill_chunk(&trace, 1, 4, 0, u64::MAX, &mut pcs, &mut hists, &mut takens);
    }
}
