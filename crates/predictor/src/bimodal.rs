//! The bimodal predictor (J. E. Smith, ISCA 1981): a PC-indexed table of
//! two-bit counters.

use crate::packed::{batch_predict_train, PackedTwoBit};
use crate::{assert_batch_shape, mask, table_len, BranchPredictor};

/// PC-indexed two-bit-counter predictor.
///
/// Index: bits `(table_bits + 1)..2` of the PC (instructions are assumed
/// 4-byte aligned). No history — each static branch (modulo aliasing)
/// trains its own counter toward its majority direction.
///
/// # Examples
///
/// ```
/// use cira_predictor::{Bimodal, BranchPredictor};
///
/// let mut p = Bimodal::new(12);
/// for _ in 0..4 {
///     p.update(0x4000, 0, false);
/// }
/// assert!(!p.predict(0x4000, 0));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: PackedTwoBit,
    bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^bits` counters, initialized
    /// weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 28.
    pub fn new(bits: u32) -> Self {
        Self {
            table: PackedTwoBit::new(table_len(bits), 2),
            bits,
        }
    }

    /// Index width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true; tables have ≥2 entries).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & mask(self.bits)) as usize
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&self, pc: u64, _bhr: u64) -> bool {
        self.table.predicts_taken(self.index(pc))
    }

    fn update(&mut self, pc: u64, _bhr: u64, taken: bool) {
        let idx = self.index(pc);
        self.table.train(idx, taken);
    }

    fn predict_train(&mut self, pc: u64, _bhr: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        self.table.predict_train(idx, taken)
    }

    fn predict_train_batch(
        &mut self,
        pcs: &[u64],
        bhrs: &[u64],
        takens: &[bool],
        out_correct: &mut [bool],
    ) {
        assert_batch_shape(pcs, bhrs, takens, out_correct);
        let m = mask(self.bits);
        batch_predict_train(&mut self.table, pcs, bhrs, takens, out_correct, |pc, _h| {
            ((pc >> 2) & m) as usize
        });
    }

    fn describe(&self) -> String {
        format!("bimodal({})", self.bits)
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        crate::state::put_u64_slice(out, self.table.words());
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = crate::state::StateReader::new(bytes);
        let words = r.u64_vec()?;
        r.finish()?;
        self.table.load_words(&words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_weakly_taken() {
        let p = Bimodal::new(4);
        assert!(p.predict(0x0, 0));
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn learns_majority_direction() {
        let mut p = Bimodal::new(8);
        for _ in 0..10 {
            p.update(0x100, 0, false);
        }
        assert!(!p.predict(0x100, 0));
        // Other branches are unaffected.
        assert!(p.predict(0x200, 0));
    }

    #[test]
    fn aliasing_shares_counters() {
        let mut p = Bimodal::new(4); // 16 entries: pcs 0x0 and 0x40 collide
        for _ in 0..4 {
            p.update(0x0, 0, false);
        }
        assert!(!p.predict(0x40, 0), "aliased pc should see trained counter");
    }

    #[test]
    fn cannot_learn_alternation() {
        // T,N,T,N... leaves a 2-bit counter oscillating; accuracy ~50%.
        let mut p = Bimodal::new(8);
        let mut correct = 0;
        for i in 0..1000 {
            let taken = i % 2 == 0;
            if p.predict(0x40, 0) == taken {
                correct += 1;
            }
            p.update(0x40, 0, taken);
        }
        assert!(
            correct < 700,
            "bimodal should not learn alternation: {correct}"
        );
    }

    #[test]
    fn describe_includes_bits() {
        assert_eq!(Bimodal::new(12).describe(), "bimodal(12)");
    }
}
