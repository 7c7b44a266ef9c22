//! Two-level local-history predictor (Yeh & Patt, MICRO-24, 1991).
//!
//! Level 1: a PC-indexed table of per-branch history registers.
//! Level 2: a pattern history table (PHT) of two-bit counters indexed by
//! the selected local history (the PAg organization).

use crate::counter::TwoBitCounter;
use crate::{mask, table_len, BranchPredictor};

/// PAg-style two-level adaptive predictor.
///
/// # Examples
///
/// ```
/// use cira_predictor::{BranchPredictor, LocalTwoLevel};
///
/// let mut p = LocalTwoLevel::new(10, 8);
/// // A strict period-3 local pattern becomes fully predictable.
/// for i in 0..600u32 {
///     let taken = i % 3 != 2;
///     p.update(0x40, 0, taken);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LocalTwoLevel {
    histories: Vec<u64>,
    pht: Vec<TwoBitCounter>,
    bht_bits: u32,
    history_bits: u32,
}

impl LocalTwoLevel {
    /// Creates a predictor with `2^bht_bits` local-history entries of
    /// `history_bits` bits each, and a `2^history_bits`-entry PHT.
    ///
    /// # Panics
    ///
    /// Panics if either width is outside `1..=28`.
    pub fn new(bht_bits: u32, history_bits: u32) -> Self {
        Self {
            histories: vec![0; table_len(bht_bits)],
            pht: vec![TwoBitCounter::weakly_taken(); table_len(history_bits)],
            bht_bits,
            history_bits,
        }
    }

    /// log2 of the branch-history-table size.
    pub fn bht_bits(&self) -> u32 {
        self.bht_bits
    }

    /// Width of each local history register.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    fn bht_index(&self, pc: u64) -> usize {
        ((pc >> 2) & mask(self.bht_bits)) as usize
    }
}

impl BranchPredictor for LocalTwoLevel {
    fn predict(&self, pc: u64, _bhr: u64) -> bool {
        let hist = self.histories[self.bht_index(pc)];
        self.pht[(hist & mask(self.history_bits)) as usize].predicts_taken()
    }

    fn update(&mut self, pc: u64, _bhr: u64, taken: bool) {
        let bi = self.bht_index(pc);
        let hist = self.histories[bi] & mask(self.history_bits);
        self.pht[hist as usize].train(taken);
        self.histories[bi] = ((hist << 1) | taken as u64) & mask(self.history_bits);
    }

    fn describe(&self) -> String {
        format!("local({},{})", self.bht_bits, self.history_bits)
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        crate::state::put_u64_slice(out, &self.histories);
        let states: Vec<u32> = self.pht.iter().map(TwoBitCounter::state).collect();
        crate::state::put_u32_slice(out, &states);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = crate::state::StateReader::new(bytes);
        let histories = r.u64_vec()?;
        let states = r.u32_vec()?;
        r.finish()?;
        if histories.len() != self.histories.len() || states.len() != self.pht.len() {
            return Err(format!(
                "local restore: {} histories / {} pht states, table needs {}/{}",
                histories.len(),
                states.len(),
                self.histories.len(),
                self.pht.len()
            ));
        }
        if let Some(s) = states.iter().find(|&&s| s > 3) {
            return Err(format!("local restore: pht state {s} out of 0..=3"));
        }
        self.histories = histories;
        self.pht = states
            .iter()
            .map(|&s| TwoBitCounter::with_state(s))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_local_period() {
        let mut p = LocalTwoLevel::new(8, 8);
        let mut correct_late = 0;
        let mut n = 0;
        for i in 0..3000u32 {
            let taken = i % 5 != 4; // period-5 local pattern
            if i > 1000 {
                n += 1;
                if p.predict(0x80, 0) == taken {
                    correct_late += 1;
                }
            }
            p.update(0x80, 0, taken);
        }
        let acc = correct_late as f64 / n as f64;
        assert!(acc > 0.98, "local predictor should learn period 5: {acc}");
    }

    #[test]
    fn separate_branches_have_separate_histories() {
        let mut p = LocalTwoLevel::new(8, 6);
        // Branch A always taken, branch B always not-taken.
        for _ in 0..100 {
            p.update(0x100, 0, true);
            p.update(0x200, 0, false);
        }
        assert!(p.predict(0x100, 0));
        assert!(!p.predict(0x200, 0));
    }

    #[test]
    fn ignores_global_history_argument() {
        let mut p = LocalTwoLevel::new(6, 6);
        for _ in 0..10 {
            p.update(0x40, 0xdead, true);
        }
        assert_eq!(p.predict(0x40, 0), p.predict(0x40, u64::MAX));
    }

    #[test]
    fn describe_includes_config() {
        assert_eq!(LocalTwoLevel::new(10, 8).describe(), "local(10,8)");
    }
}
