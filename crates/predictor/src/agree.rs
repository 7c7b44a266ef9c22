//! The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997).
//!
//! Included because it attacks exactly the failure mode the paper's §5.3
//! measures: destructive aliasing in small shared counter tables. Each
//! static branch gets a *bias bit* (its first observed direction, cached in
//! a PC-indexed table); the shared history-indexed counters then predict
//! whether the branch **agrees** with its bias rather than its absolute
//! direction. Two aliasing branches that both usually agree reinforce each
//! other instead of fighting.

use crate::packed::{PackedTwoBit, BLOCK};
use crate::{assert_batch_shape, mask, table_len, BranchPredictor};

/// Agree predictor: PC-indexed bias bits + gshare-style agree counters.
///
/// # Examples
///
/// ```
/// use cira_predictor::{agree::Agree, BranchPredictor};
///
/// let mut p = Agree::new(10, 10, 10);
/// p.update(0x40, 0, false); // first outcome sets the bias
/// assert!(!p.predict(0x40, 0));
/// ```
#[derive(Debug, Clone)]
pub struct Agree {
    /// Agree/disagree counters, indexed like gshare (PC ⊕ BHR).
    counters: PackedTwoBit,
    /// Whether the bias for entry `i` has been set (bit `i % 64` of word
    /// `i / 64`). Together with `bias_dir` this packs the old
    /// `Vec<Option<bool>>` into two bitmaps for branchless access.
    bias_valid: Vec<u64>,
    /// The cached bias direction; meaningful only where `bias_valid` is set.
    bias_dir: Vec<u64>,
    table_bits: u32,
    history_bits: u32,
    bias_bits: u32,
}

impl Agree {
    /// Creates an agree predictor.
    ///
    /// * `table_bits` — log2 of the agree-counter table size.
    /// * `history_bits` — BHR bits XORed into the counter index.
    /// * `bias_bits` — log2 of the bias-bit table size.
    ///
    /// # Panics
    ///
    /// Panics if any width is outside `1..=28` or
    /// `history_bits > table_bits`.
    pub fn new(table_bits: u32, history_bits: u32, bias_bits: u32) -> Self {
        assert!(
            history_bits <= table_bits,
            "history_bits {history_bits} must not exceed table_bits {table_bits}"
        );
        let bias_words = table_len(bias_bits).div_ceil(64);
        Self {
            // Weakly-taken state doubles as "weakly agree".
            counters: PackedTwoBit::new(table_len(table_bits), 2),
            bias_valid: vec![0; bias_words],
            bias_dir: vec![0; bias_words],
            table_bits,
            history_bits,
            bias_bits,
        }
    }

    fn counter_index(&self, pc: u64, bhr: u64) -> usize {
        (((pc >> 2) ^ (bhr & mask(self.history_bits))) & mask(self.table_bits)) as usize
    }

    fn bias_index(&self, pc: u64) -> usize {
        ((pc >> 2) & mask(self.bias_bits)) as usize
    }

    /// Reads `(valid, direction)` for bias entry `bi`.
    #[inline]
    fn bias_entry(&self, bi: usize) -> (bool, bool) {
        let bit = 1u64 << (bi % 64);
        (
            self.bias_valid[bi / 64] & bit != 0,
            self.bias_dir[bi / 64] & bit != 0,
        )
    }

    /// Installs `taken` as the bias of entry `bi` if it is not yet valid,
    /// and returns the (possibly just-installed) bias — branchless
    /// equivalent of the old `Option::get_or_insert`.
    #[inline]
    fn bias_get_or_insert(&mut self, bi: usize, taken: bool) -> bool {
        let sh = bi % 64;
        let bit = 1u64 << sh;
        let valid = self.bias_valid[bi / 64] & bit != 0;
        let dir = self.bias_dir[bi / 64] & bit != 0;
        let bias = (valid & dir) | (!valid & taken);
        self.bias_dir[bi / 64] |= ((!valid & taken) as u64) << sh;
        self.bias_valid[bi / 64] |= bit;
        bias
    }

    /// The bias direction currently cached for `pc` (None before the
    /// branch's first update, or after an aliasing overwrite).
    pub fn bias_of(&self, pc: u64) -> Option<bool> {
        let (valid, dir) = self.bias_entry(self.bias_index(pc));
        valid.then_some(dir)
    }
}

impl BranchPredictor for Agree {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        // Until the bias is known, fall back to predicting taken (the
        // common static heuristic).
        let (valid, dir) = self.bias_entry(self.bias_index(pc));
        let bias = dir | !valid;
        let agrees = self.counters.predicts_taken(self.counter_index(pc, bhr));
        // agrees → bias, disagrees → !bias, i.e. XNOR.
        !(bias ^ agrees)
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let bi = self.bias_index(pc);
        let bias = self.bias_get_or_insert(bi, taken);
        let agreed = taken == bias;
        let ci = self.counter_index(pc, bhr);
        self.counters.train(ci, agreed);
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        // Shares the two index computations between the halves; the bias
        // must be read *before* a first-touch install, as in predict.
        let bi = self.bias_index(pc);
        let ci = self.counter_index(pc, bhr);
        let (valid, dir) = self.bias_entry(bi);
        let agrees = self.counters.predicts_taken(ci);
        let predicted = !((dir | !valid) ^ agrees);
        let bias = self.bias_get_or_insert(bi, taken);
        self.counters.train(ci, taken == bias);
        predicted
    }

    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        assert_batch_shape(pcs, bhrs, takens, out_correct);
        let hmask = mask(self.history_bits);
        let tmask = mask(self.table_bits);
        let bmask = mask(self.bias_bits);
        let n = pcs.len();
        let mut ci = [0u32; BLOCK];
        let mut bi = [0u32; BLOCK];
        let mut start = 0;
        while start < n {
            let c = BLOCK.min(n - start);
            // Phase 1: vectorizable index computation for both tables.
            for (slot, (&pc, &h)) in ci[..c]
                .iter_mut()
                .zip(pcs[start..].iter().zip(&bhrs[start..]))
            {
                *slot = (((pc >> 2) ^ (h & hmask)) & tmask) as u32;
            }
            for (slot, &pc) in bi[..c].iter_mut().zip(&pcs[start..start + c]) {
                *slot = ((pc >> 2) & bmask) as u32;
            }
            // Phase 2: touch the counter words (the bias bitmaps are tiny).
            for &i in &ci[..c] {
                self.counters.prefetch(i as usize);
            }
            // Phase 3: serial branchless read-modify-write.
            let out = &mut out_correct[start..start + c];
            for (((&i, &b), &t), oc) in ci[..c]
                .iter()
                .zip(&bi[..c])
                .zip(&takens[start..start + c])
                .zip(out)
            {
                let (valid, dir) = self.bias_entry(b as usize);
                let agrees = self.counters.predicts_taken(i as usize);
                let predicted = !((dir | !valid) ^ agrees);
                let bias = self.bias_get_or_insert(b as usize, t);
                self.counters.train(i as usize, t == bias);
                *oc = predicted == t;
            }
            start += c;
        }
    }

    fn describe(&self) -> String {
        format!(
            "agree({},{},bias {})",
            self.table_bits, self.history_bits, self.bias_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        crate::state::put_u64_slice(out, self.counters.words());
        crate::state::put_u64_slice(out, &self.bias_valid);
        crate::state::put_u64_slice(out, &self.bias_dir);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = crate::state::StateReader::new(bytes);
        let counters = r.u64_vec()?;
        let valid = r.u64_vec()?;
        let dir = r.u64_vec()?;
        r.finish()?;
        if valid.len() != self.bias_valid.len() || dir.len() != self.bias_dir.len() {
            return Err(format!(
                "agree restore: bias bitmaps of {}/{} words, table needs {}",
                valid.len(),
                dir.len(),
                self.bias_valid.len()
            ));
        }
        self.counters.load_words(&counters)?;
        self.bias_valid = valid;
        self.bias_dir = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryRegister;

    #[test]
    fn first_update_fixes_bias() {
        let mut p = Agree::new(8, 8, 8);
        assert_eq!(p.bias_of(0x40), None);
        p.update(0x40, 0, false);
        assert_eq!(p.bias_of(0x40), Some(false));
        // Later updates do not overwrite the bias.
        p.update(0x40, 0, true);
        assert_eq!(p.bias_of(0x40), Some(false));
    }

    #[test]
    fn learns_biased_branch_through_agreement() {
        let mut p = Agree::new(10, 10, 10);
        let mut bhr = HistoryRegister::new(10);
        let mut wrong_late = 0;
        for i in 0..2000 {
            let taken = i % 10 != 0; // 90% taken
            let pred = p.predict(0x80, bhr.value());
            if i > 500 && pred != taken && taken {
                wrong_late += 1; // only count majority-direction misses
            }
            p.update(0x80, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(wrong_late < 40, "agree should track the bias: {wrong_late}");
    }

    #[test]
    fn constructive_aliasing_between_agreeing_branches() {
        // Two branches with opposite directions share every counter
        // (1-entry counter table). gshare would fight; agree does not,
        // because both branches agree with their own bias bits.
        let mut p = Agree::new(1, 0, 8);
        let mut miss = 0;
        for i in 0..400 {
            for (pc, taken) in [(0x40u64, true), (0x80u64, false)] {
                if i > 4 && p.predict(pc, 0) != taken {
                    miss += 1;
                }
                p.update(pc, 0, taken);
            }
        }
        assert_eq!(miss, 0, "agreeing branches must not interfere");
    }

    #[test]
    fn gshare_fights_where_agree_does_not() {
        use crate::Gshare;
        let mut g = Gshare::new(1, 0);
        let mut miss = 0;
        for _ in 0..400 {
            for (pc, taken) in [(0x40u64, true), (0x80u64, false)] {
                if g.predict(pc, 0) != taken {
                    miss += 1;
                }
                g.update(pc, 0, taken);
            }
        }
        assert!(
            miss > 300,
            "gshare should thrash on this alias pair: {miss}"
        );
    }

    #[test]
    fn batch_matches_scalar_kernel() {
        use crate::ScalarKernel;
        let mut vector = Agree::new(5, 5, 4); // tiny tables: heavy aliasing
        let mut scalar = ScalarKernel(Agree::new(5, 5, 4));
        let mut x = 99u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 1000;
        let pcs: Vec<u64> = (0..n).map(|_| next()).collect();
        let bhrs: Vec<u64> = (0..n).map(|_| next()).collect();
        let takens: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
        let mut out_v = vec![false; n];
        let mut out_s = vec![false; n];
        vector.predict_train_batch(&pcs, &bhrs, &takens, &mut out_v);
        scalar.predict_train_batch(&pcs, &bhrs, &takens, &mut out_s);
        assert_eq!(out_v, out_s);
        for &pc in pcs.iter().take(64) {
            assert_eq!(vector.bias_of(pc), scalar.0.bias_of(pc));
        }
    }

    #[test]
    fn describe_includes_config() {
        assert_eq!(Agree::new(12, 12, 10).describe(), "agree(12,12,bias 10)");
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn history_wider_than_table_rejected() {
        Agree::new(8, 9, 8);
    }
}
