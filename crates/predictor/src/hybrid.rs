//! McFarling-style combining (hybrid) predictor.
//!
//! Two component predictors run in parallel; a PC-indexed chooser table of
//! two-bit counters selects which component's prediction to use. The
//! chooser trains only when the components disagree in correctness. The
//! paper's application 3 replaces this ad-hoc chooser with explicit
//! confidence estimates (see `cira-apps::hybrid_selector`).

use crate::counter::TwoBitCounter;
use crate::{mask, table_len, BranchPredictor};

/// Combining predictor over two components.
///
/// Chooser state ≥ 2 selects the **first** component.
///
/// # Examples
///
/// ```
/// use cira_predictor::{Bimodal, BranchPredictor, Gshare, Hybrid};
///
/// let mut p = Hybrid::new(Gshare::new(10, 10), Bimodal::new(10), 10);
/// p.update(0x40, 0, true);
/// let _ = p.predict(0x40, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Hybrid<A, B> {
    first: A,
    second: B,
    chooser: Vec<TwoBitCounter>,
    chooser_bits: u32,
}

impl<A: BranchPredictor, B: BranchPredictor> Hybrid<A, B> {
    /// Creates a hybrid with a `2^chooser_bits`-entry chooser, initialized
    /// to weakly-prefer the first component.
    ///
    /// # Panics
    ///
    /// Panics if `chooser_bits` is outside `1..=28`.
    pub fn new(first: A, second: B, chooser_bits: u32) -> Self {
        cira_obs::debug!("hybrid chooser allocated", chooser_bits = chooser_bits);
        Self {
            first,
            second,
            chooser: vec![TwoBitCounter::weakly_taken(); table_len(chooser_bits)],
            chooser_bits,
        }
    }

    /// Borrows the first component.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// Borrows the second component.
    pub fn second(&self) -> &B {
        &self.second
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) & mask(self.chooser_bits)) as usize
    }

    /// Whether the chooser currently selects the first component for `pc`.
    pub fn selects_first(&self, pc: u64) -> bool {
        self.chooser[self.chooser_index(pc)].predicts_taken()
    }
}

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for Hybrid<A, B> {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        if self.selects_first(pc) {
            self.first.predict(pc, bhr)
        } else {
            self.second.predict(pc, bhr)
        }
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let p1 = self.first.predict(pc, bhr);
        let p2 = self.second.predict(pc, bhr);
        let c1 = p1 == taken;
        let c2 = p2 == taken;
        if c1 != c2 {
            let idx = self.chooser_index(pc);
            // Train toward the component that was right.
            self.chooser[idx].train(c1);
        }
        self.first.update(pc, bhr, taken);
        self.second.update(pc, bhr, taken);
    }

    fn describe(&self) -> String {
        format!(
            "hybrid({}+{},chooser {})",
            self.first.describe(),
            self.second.describe(),
            self.chooser_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        let mut first = Vec::new();
        self.first.state_save(&mut first);
        crate::state::put_blob(out, &first);
        let mut second = Vec::new();
        self.second.state_save(&mut second);
        crate::state::put_blob(out, &second);
        let states: Vec<u32> = self.chooser.iter().map(TwoBitCounter::state).collect();
        crate::state::put_u32_slice(out, &states);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = crate::state::StateReader::new(bytes);
        let first = r.blob()?;
        let second = r.blob()?;
        let states = r.u32_vec()?;
        r.finish()?;
        if states.len() != self.chooser.len() {
            return Err(format!(
                "hybrid restore: {} chooser states, table needs {}",
                states.len(),
                self.chooser.len()
            ));
        }
        if let Some(s) = states.iter().find(|&&s| s > 3) {
            return Err(format!("hybrid restore: chooser state {s} out of 0..=3"));
        }
        // The components check their own blobs; if the second refuses
        // after the first loaded, put the first back.
        let mut backup = Vec::new();
        self.first.state_save(&mut backup);
        self.first.state_load(first)?;
        if let Err(e) = self.second.state_load(second) {
            self.first
                .state_load(&backup)
                .expect("a predictor reloads its own state");
            return Err(e);
        }
        self.chooser = states
            .iter()
            .map(|&s| TwoBitCounter::with_state(s))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bimodal, Gshare, HistoryRegister, StaticDirection};

    #[test]
    fn chooser_migrates_to_better_component() {
        // Component 1 is always-not-taken, component 2 always-taken;
        // on an always-taken branch the chooser must learn component 2.
        let mut p = Hybrid::new(
            StaticDirection::always_not_taken(),
            StaticDirection::always_taken(),
            8,
        );
        assert!(p.selects_first(0x40));
        for _ in 0..4 {
            p.update(0x40, 0, true);
        }
        assert!(!p.selects_first(0x40));
        assert!(p.predict(0x40, 0));
    }

    #[test]
    fn hybrid_tracks_best_component_on_mixed_workload() {
        // Branch A alternates (gshare-friendly), branch B is biased
        // not-taken (bimodal-friendly, and gshare handles it too); the
        // hybrid should approach the better component on each.
        let mut hybrid = Hybrid::new(Gshare::new(10, 10), Bimodal::new(10), 10);
        let mut bhr = HistoryRegister::new(10);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..4000 {
            let (pc, taken) = if i % 2 == 0 {
                (0x100u64, (i / 2) % 2 == 0)
            } else {
                (0x200u64, false)
            };
            let pred = hybrid.predict(pc, bhr.value());
            if i > 2000 {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            hybrid.update(pc, bhr.value(), taken);
            bhr.push(taken);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "hybrid accuracy {acc}");
    }

    #[test]
    fn a_refused_load_changes_nothing() {
        type Pair = Hybrid<Gshare, Bimodal>;
        let trained = |seed: u64| {
            let mut p = Pair::new(Gshare::new(6, 6), Bimodal::new(6), 6);
            let mut x = seed;
            for _ in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                p.update(0x40 + (x % 64) * 4, x >> 20, x & 3 != 0);
            }
            p
        };
        let save = |p: &Pair| {
            let mut out = Vec::new();
            p.state_save(&mut out);
            out
        };
        let (mut ours, theirs) = (trained(1), trained(2));
        let before = save(&ours);
        assert_ne!(before, save(&theirs));

        // The first component's blob loads; the second's is a byte short.
        let (mut first, mut second) = (Vec::new(), Vec::new());
        theirs.first().state_save(&mut first);
        theirs.second().state_save(&mut second);
        second.pop();
        let mut blob = Vec::new();
        crate::state::put_blob(&mut blob, &first);
        crate::state::put_blob(&mut blob, &second);
        crate::state::put_u32_slice(&mut blob, &[2; 64]);
        assert!(ours.state_load(&blob).is_err());
        assert_eq!(save(&ours), before, "the first component was put back");

        let mut blob = save(&theirs);
        blob.push(0);
        assert!(ours.state_load(&blob).is_err());
        assert_eq!(save(&ours), before, "a trailing byte changes nothing");
    }

    #[test]
    fn components_accessible() {
        let p = Hybrid::new(Bimodal::new(4), Bimodal::new(5), 4);
        assert_eq!(p.first().bits(), 4);
        assert_eq!(p.second().bits(), 5);
        assert!(p.describe().contains("hybrid(bimodal(4)+bimodal(5)"));
    }
}
