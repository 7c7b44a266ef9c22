//! The gselect predictor: concatenates PC and global-history bits to index
//! the counter table (Pan, So & Rahmeh, ASPLOS-V, 1992).
//!
//! Included as a baseline and for the index-composition ablation: the paper
//! notes (§3.1) that XOR-composition beats concatenation for confidence
//! tables, mirroring gshare-vs-gselect for prediction.

use crate::packed::{batch_predict_train, PackedTwoBit};
use crate::{assert_batch_shape, mask, table_len, BranchPredictor};

/// Concatenated-index global-history predictor.
///
/// The index is `history_bits` of BHR in the low bits and
/// `table_bits - history_bits` PC bits above them.
///
/// # Examples
///
/// ```
/// use cira_predictor::{BranchPredictor, GSelect};
///
/// let mut p = GSelect::new(10, 4);
/// p.update(0x400, 0b1010, true);
/// assert!(p.predict(0x400, 0b1010));
/// ```
#[derive(Debug, Clone)]
pub struct GSelect {
    table: PackedTwoBit,
    table_bits: u32,
    history_bits: u32,
}

impl GSelect {
    /// Creates a gselect predictor, counters initialized weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is outside `1..=28` or
    /// `history_bits > table_bits`.
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        let len = table_len(table_bits);
        assert!(
            history_bits <= table_bits,
            "history_bits {history_bits} must not exceed table_bits {table_bits}"
        );
        Self {
            table: PackedTwoBit::new(len, 2),
            table_bits,
            history_bits,
        }
    }

    /// log2 of the table size.
    pub fn table_bits(&self) -> u32 {
        self.table_bits
    }

    /// Number of BHR bits in the index.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The table index used for `(pc, bhr)`.
    pub fn index(&self, pc: u64, bhr: u64) -> usize {
        let pc_bits = self.table_bits - self.history_bits;
        let pc_part = (pc >> 2) & mask(pc_bits);
        let h_part = bhr & mask(self.history_bits);
        ((pc_part << self.history_bits) | h_part) as usize
    }
}

impl BranchPredictor for GSelect {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.table.predicts_taken(self.index(pc, bhr))
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let idx = self.index(pc, bhr);
        self.table.train(idx, taken);
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        let idx = self.index(pc, bhr);
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
        let pc_mask = mask(self.table_bits - self.history_bits);
        let h_mask = mask(self.history_bits);
        let h_bits = self.history_bits;
        batch_predict_train(&mut self.table, pcs, bhrs, takens, out_correct, |pc, h| {
            ((((pc >> 2) & pc_mask) << h_bits) | (h & h_mask)) as usize
        });
    }

    fn describe(&self) -> String {
        format!("gselect({},{})", self.table_bits, self.history_bits)
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
    fn index_concatenates() {
        let p = GSelect::new(8, 4);
        // pc bits (after >>2) 0b1011 in the high nibble, history 0b0110 low.
        assert_eq!(p.index(0b1011 << 2, 0b0110), 0b1011_0110);
    }

    #[test]
    fn zero_history_bits_degenerates_to_bimodal_indexing() {
        let p = GSelect::new(8, 0);
        assert_eq!(p.index(0x40 << 2, 0xffff), 0x40);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn history_wider_than_table_rejected() {
        GSelect::new(6, 7);
    }

    #[test]
    fn learns_alternation() {
        let mut p = GSelect::new(10, 6);
        let mut bhr = crate::HistoryRegister::new(6);
        let mut correct = 0;
        for i in 0..2000 {
            let taken = i % 2 == 0;
            if p.predict(0x40, bhr.value()) == taken {
                correct += 1;
            }
            p.update(0x40, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(
            correct > 1900,
            "gselect should learn alternation: {correct}"
        );
    }

    #[test]
    fn describe_includes_config() {
        assert_eq!(GSelect::new(10, 4).describe(), "gselect(10,4)");
    }
}
