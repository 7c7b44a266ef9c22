//! The gshare predictor (McFarling, DEC WRL TN-36, 1993) — the underlying
//! predictor of every experiment in the paper.

use crate::packed::{batch_predict_train, PackedTwoBit};
use crate::{assert_batch_shape, mask, table_len, BranchPredictor, Prediction, Provider};

/// Global-history predictor indexing its counter table with
/// `PC ⊕ BHR`.
///
/// * `table_bits` — log2 of the number of two-bit counters.
/// * `history_bits` — how many BHR bits participate in the XOR
///   (`history_bits <= table_bits`).
///
/// The paper's configurations:
///
/// * [`Gshare::paper_large`] — 2^16 counters, 16 history bits, indexed by
///   PC bits 17..2 XOR the full 16-bit BHR (§1.2; 3.85% mispredictions on
///   IBS).
/// * [`Gshare::paper_small`] — 4K counters, 12 history bits (§5.3; 8.6%).
///
/// # Examples
///
/// ```
/// use cira_predictor::{BranchPredictor, Gshare};
///
/// let mut p = Gshare::new(10, 10);
/// p.update(0x400, 0b1010, true);
/// assert!(p.predict(0x400, 0b1010));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: PackedTwoBit,
    table_bits: u32,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor, counters initialized weakly taken.
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
        cira_obs::debug!(
            "gshare table allocated",
            table_bits = table_bits,
            history_bits = history_bits
        );
        Self {
            // Weakly taken (state 2) — the paper's initial value.
            table: PackedTwoBit::new(len, 2),
            table_bits,
            history_bits,
        }
    }

    /// The paper's large configuration: 2^16 entries, 16 history bits.
    pub fn paper_large() -> Self {
        Self::new(16, 16)
    }

    /// The paper's small configuration (§5.3): 4K entries, 12 history bits.
    pub fn paper_small() -> Self {
        Self::new(12, 12)
    }

    /// log2 of the table size.
    pub fn table_bits(&self) -> u32 {
        self.table_bits
    }

    /// Number of BHR bits used in the index.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The table index used for `(pc, bhr)` — exposed so confidence tables
    /// can reproduce the predictor's indexing exactly.
    pub fn index(&self, pc: u64, bhr: u64) -> usize {
        (((pc >> 2) ^ (bhr & mask(self.history_bits))) & mask(self.table_bits)) as usize
    }

    /// The raw counter state at the index for `(pc, bhr)` (0..=3).
    pub fn counter_state(&self, pc: u64, bhr: u64) -> u32 {
        self.table.state(self.index(pc, bhr))
    }
}

impl BranchPredictor for Gshare {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.table.predicts_taken(self.index(pc, bhr))
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let idx = self.index(pc, bhr);
        self.table.train(idx, taken);
    }

    fn predict_train(&mut self, pc: u64, bhr: u64, taken: bool) -> bool {
        // One index computation and one table access for both halves.
        let idx = self.index(pc, bhr);
        self.table.predict_train(idx, taken)
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        // The only self-assessment a two-bit counter offers: saturated
        // states (0, 3) are strong, transitional states (1, 2) weak.
        let state = self.table.state(self.index(pc, bhr));
        Prediction {
            taken: state >= 2,
            provider: Provider::Base,
            strength: if state == 0 || state == 3 { 3 } else { 1 },
        }
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
        batch_predict_train(&mut self.table, pcs, bhrs, takens, out_correct, |pc, h| {
            (((pc >> 2) ^ (h & hmask)) & tmask) as usize
        });
    }

    fn describe(&self) -> String {
        format!("gshare({},{})", self.table_bits, self.history_bits)
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
    fn paper_configs() {
        let large = Gshare::paper_large();
        assert_eq!(large.table_bits(), 16);
        assert_eq!(large.history_bits(), 16);
        let small = Gshare::paper_small();
        assert_eq!(small.table_bits(), 12);
        assert_eq!(small.describe(), "gshare(12,12)");
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn history_wider_than_table_rejected() {
        Gshare::new(8, 9);
    }

    #[test]
    fn index_xors_pc_and_history() {
        let p = Gshare::new(8, 8);
        assert_eq!(p.index(0b1100 << 2, 0b0101), 0b1001);
        // History masked to history_bits.
        let q = Gshare::new(8, 4);
        assert_eq!(q.index(0, 0xff), 0x0f);
    }

    #[test]
    fn learns_history_keyed_patterns() {
        // Alternating branch: bimodal can't learn it, gshare can because
        // the history disambiguates the two contexts.
        let mut p = Gshare::new(10, 10);
        let mut bhr = crate::HistoryRegister::new(10);
        let mut correct = 0;
        for i in 0..2000 {
            let taken = i % 2 == 0;
            if p.predict(0x40, bhr.value()) == taken {
                correct += 1;
            }
            p.update(0x40, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(correct > 1900, "gshare should learn alternation: {correct}");
    }

    #[test]
    fn learns_loop_exits_within_history() {
        // Loop of trip 6 (T*6 then N): full pattern fits in 10 bits of
        // history, so after warmup every outcome is predictable.
        let mut p = Gshare::new(12, 10);
        let mut bhr = crate::HistoryRegister::new(10);
        let mut wrong_late = 0;
        let mut n = 0;
        for iter in 0..3000 {
            let taken = (iter % 7) != 6;
            let pred = p.predict(0x80, bhr.value());
            if iter > 1000 {
                n += 1;
                if pred != taken {
                    wrong_late += 1;
                }
            }
            p.update(0x80, bhr.value(), taken);
            bhr.push(taken);
        }
        let rate = wrong_late as f64 / n as f64;
        assert!(rate < 0.02, "late misprediction rate {rate}");
    }

    #[test]
    fn batch_matches_scalar_kernel() {
        use crate::ScalarKernel;
        let mut vector = Gshare::new(6, 6); // tiny table: heavy aliasing
        let mut scalar = ScalarKernel(Gshare::new(6, 6));
        let mut x = 7u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 4097;
        let pcs: Vec<u64> = (0..n).map(|_| next()).collect();
        let bhrs: Vec<u64> = (0..n).map(|_| next()).collect();
        let takens: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
        let mut out_v = vec![false; n];
        let mut out_s = vec![false; n];
        vector.predict_train_batch(&pcs, &bhrs, &takens, &mut out_v);
        scalar.predict_train_batch(&pcs, &bhrs, &takens, &mut out_s);
        assert_eq!(out_v, out_s);
        for (pc, h) in pcs.iter().zip(&bhrs).take(64) {
            assert_eq!(
                vector.counter_state(*pc, *h),
                scalar.0.counter_state(*pc, *h)
            );
        }
    }

    #[test]
    fn predict_full_reports_counter_strength() {
        let mut p = Gshare::new(8, 8);
        // Fresh counters are weakly taken: weak strength, same direction
        // as predict().
        let full = p.predict_full(0, 0);
        assert_eq!((full.taken, full.strength), (true, 1));
        assert_eq!(full.provider, crate::Provider::Base);
        p.update(0, 0, true); // saturate to strongly taken
        assert_eq!(p.predict_full(0, 0).strength, 3);
        for _ in 0..3 {
            p.update(0, 0, false);
        }
        let full = p.predict_full(0, 0);
        assert_eq!((full.taken, full.strength), (false, 3));
        assert_eq!(full.taken, p.predict(0, 0));
    }

    #[test]
    fn counter_state_visible() {
        let mut p = Gshare::new(8, 8);
        assert_eq!(p.counter_state(0, 0), 2);
        p.update(0, 0, true);
        assert_eq!(p.counter_state(0, 0), 3);
    }
}
