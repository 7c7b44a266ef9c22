//! One-level dynamic confidence mechanisms (§3.1, §5.1).
//!
//! All three storage organizations are one mechanism, [`OneLevel`]: an
//! indexed [`Table`] updated with prediction correctness. They differ only
//! in the [`Entry`] rule of what each entry holds:
//!
//! * [`OneLevelCir`] — full `n`-bit CIRs (Fig. 3). The *key* it exposes is
//!   the raw CIR pattern, which supports the ideal reduction of §4 and,
//!   through [`MappedKey`], the ones-count reduction of §5.1.
//! * [`SaturatingConfidence`] — entries compressed to saturating up/down
//!   counters (up on correct): a logarithmic cost saving, at the price of a
//!   swollen maximum-count bucket (§5.1).
//! * [`ResettingConfidence`] — entries compressed to resetting counters
//!   (increment on correct, clear on a misprediction): tracks the ideal
//!   reduction closely and is the paper's recommended practical design.

use crate::cir::Cir;
use crate::index::{IndexInputs, IndexSpec, XorIndex};
use crate::init::InitPolicy;
use crate::table::{CirEntry, Counter, Entry, Resetting, Saturating, Table};
use crate::ConfidenceMechanism;

/// Width of the global CIR maintained for `GlobalCir`-indexed mechanisms.
pub(crate) const GLOBAL_CIR_WIDTH: u32 = 32;

/// Sub-chunk size of the two-phase batch fast path (matches the replay
/// kernel's lane-group width).
const FAST_BLOCK: usize = 64;

/// Two-phase gather driver for the compiled-XOR fast path shared by the
/// one- and two-level mechanisms: slots for the *next* 64-record sub-chunk
/// are computed (a tight vectorizable loop) and prefetched while the
/// current sub-chunk is applied serially. The apply pass must stay serial
/// and in order — aliasing records in one batch must observe each other's
/// updates.
///
/// `fast` computes the gathered slot, a one-level or first-level one, so
/// its level-one CIR term is 0. `rmw(storage, slot, pc, bhr, correct)`
/// performs one record's read-modify-write and returns the pre-update key.
#[allow(clippy::too_many_arguments)] // internal kernel driver: parallel record slices
pub(crate) fn fast_batch<S>(
    storage: &mut S,
    fast: XorIndex,
    pcs: &[u64],
    bhrs: &[u64],
    correct: &[bool],
    keys: &mut [u64],
    prefetch: impl Fn(&S, usize),
    rmw: impl Fn(&mut S, usize, u64, u64, bool) -> u64,
) {
    let n = pcs.len();
    let mut cur = [0u32; FAST_BLOCK];
    let mut nxt = [0u32; FAST_BLOCK];
    let fill = |out: &mut [u32], pcs: &[u64], bhrs: &[u64]| {
        for (slot, (&pc, &h)) in out.iter_mut().zip(pcs.iter().zip(bhrs)) {
            *slot = fast.index(pc, h, 0) as u32;
        }
    };
    let mut start = 0;
    let mut c = FAST_BLOCK.min(n);
    fill(&mut cur[..c], &pcs[..c], &bhrs[..c]);
    for &s in &cur[..c] {
        prefetch(storage, s as usize);
    }
    while start < n {
        let next_start = start + c;
        let nc = FAST_BLOCK.min(n - next_start);
        if nc > 0 {
            fill(
                &mut nxt[..nc],
                &pcs[next_start..next_start + nc],
                &bhrs[next_start..next_start + nc],
            );
            for &s in &nxt[..nc] {
                prefetch(storage, s as usize);
            }
        }
        let block = start..start + c;
        let records = pcs[block.clone()]
            .iter()
            .zip(&bhrs[block.clone()])
            .zip(&correct[block.clone()]);
        for ((&slot, ((&pc, &h), &ok)), key) in cur[..c].iter().zip(records).zip(&mut keys[block]) {
            *key = rmw(storage, slot as usize, pc, h, ok);
        }
        std::mem::swap(&mut cur, &mut nxt);
        start = next_start;
        c = nc;
    }
}

/// A one-level confidence table plus its index function: the generic
/// mechanism of Fig. 3, with entries under the rule `E`. The key for a
/// branch is its entry's value.
///
/// # Examples
///
/// ```
/// use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy};
/// use cira_core::one_level::OneLevelCir;
///
/// let mut m = OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(16));
/// assert_eq!(m.read_key(0x4000, 0), 0xffff); // all-ones init
/// m.update(0x4000, 0, true);
/// assert_eq!(m.read_key(0x4000, 0), 0xfffe);
/// ```
#[derive(Debug, Clone)]
pub struct OneLevel<E> {
    table: Table<E>,
    index: IndexSpec,
    global_cir: Cir,
}

/// One-level table of full CIRs (Fig. 3).
pub type OneLevelCir = OneLevel<CirEntry>;

/// Saturating-counter confidence table (§5.1).
///
/// Each entry counts up on a correct prediction and down on a
/// misprediction, saturating at `0` and `max`. The key is the counter
/// value: `max` plays the role of the zero bucket.
pub type SaturatingConfidence = OneLevel<Saturating>;

/// Resetting-counter confidence table (§5.1) — the paper's recommended
/// practical mechanism.
///
/// Each entry counts correct predictions and clears to zero on any
/// misprediction; the counter therefore holds the distance since the most
/// recent misprediction, i.e. exactly [`Cir::distance_since_misprediction`]
/// of the full-length CIR it replaces — at log cost.
///
/// # Examples
///
/// ```
/// use cira_core::{ConfidenceMechanism, IndexSpec};
/// use cira_core::one_level::ResettingConfidence;
///
/// let mut m = ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(12));
/// for _ in 0..20 {
///     m.update(0x40, 0, true);
/// }
/// assert_eq!(m.read_key(0x40, 0), 16); // saturated: the zero bucket
/// m.update(0x40, 0, false);
/// assert_eq!(m.read_key(0x40, 0), 0);  // reset by the misprediction
/// ```
pub type ResettingConfidence = OneLevel<Resetting>;

impl<E: Entry> OneLevel<E> {
    fn with_max(index: IndexSpec, max: u32, init: InitPolicy) -> Self {
        assert!(
            !index.uses_cir(),
            "one-level mechanisms cannot index with the level-one CIR source"
        );
        Self {
            table: Table::with_max(index.bits(), max, init),
            index,
            global_cir: Cir::zeroed(GLOBAL_CIR_WIDTH),
        }
    }

    /// Borrows the underlying table.
    pub fn table(&self) -> &Table<E> {
        &self.table
    }

    fn slot(&self, pc: u64, bhr: u64) -> usize {
        self.index.index(IndexInputs {
            pc,
            bhr,
            cir: 0,
            global_cir: self.global_cir.value() as u64,
        })
    }
}

impl OneLevelCir {
    /// Creates a one-level mechanism with `width`-bit CIRs.
    ///
    /// # Panics
    ///
    /// Panics if the index spec uses the level-one CIR source, or on
    /// invalid widths (see [`crate::table::CirTable::new`]).
    pub fn new(index: IndexSpec, width: u32, init: InitPolicy) -> Self {
        Self::with_max(index, Cir::zeroed(width).mask(), init)
    }

    /// The paper's configuration: 16-bit CIRs, all-ones initialization.
    pub fn paper_default(index: IndexSpec) -> Self {
        Self::new(index, 16, InitPolicy::AllOnes)
    }

    /// CIR width.
    pub fn width(&self) -> u32 {
        self.table.width()
    }

    /// Reads the full CIR for a branch (not just its key).
    pub fn read_cir(&self, pc: u64, bhr: u64) -> Cir {
        Cir::from_bits(self.table.get(self.slot(pc, bhr)), self.width())
    }
}

impl<E: Counter> OneLevel<E> {
    /// Creates a table of counters saturating at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0` or the index spec uses the level-one CIR.
    pub fn new(index: IndexSpec, max: u32, init: InitPolicy) -> Self {
        assert!(max > 0, "counter max must be positive");
        Self::with_max(index, max, init)
    }

    /// The paper's configuration: counters 0..=16 (comparable to 16-bit
    /// CIRs), initialized to 0 (the all-ones-CIR equivalent).
    pub fn paper_default(index: IndexSpec) -> Self {
        Self::new(index, 16, InitPolicy::AllOnes)
    }

    /// Counter saturation maximum.
    pub fn max(&self) -> u32 {
        self.table.max()
    }
}

impl<E: Entry> ConfidenceMechanism for OneLevel<E> {
    fn read_key(&self, pc: u64, bhr: u64) -> u64 {
        self.table.get(self.slot(pc, bhr)) as u64
    }

    fn update(&mut self, pc: u64, bhr: u64, correct: bool) {
        let slot = self.slot(pc, bhr);
        self.table.record(slot, correct);
        self.global_cir.push(correct);
    }

    fn observe_batch(&mut self, pcs: &[u64], bhrs: &[u64], correct: &[bool], keys: &mut [u64]) {
        assert!(
            pcs.len() == bhrs.len() && pcs.len() == correct.len() && pcs.len() == keys.len(),
            "observe_batch slices must have equal lengths"
        );
        // One slot computation serves both halves: `read_key` and `update`
        // see the same pre-update global CIR, so the slot is the same.
        if let Some(fast) = self.index.compile_xor() {
            // Fast-path slots do not read the global CIR, so its pushes can
            // be replayed after the table pass with identical final state.
            fast_batch(
                &mut self.table,
                fast,
                pcs,
                bhrs,
                correct,
                keys,
                Table::prefetch,
                |t, slot, _, _, ok| t.record(slot, ok) as u64,
            );
            for &ok in correct {
                self.global_cir.push(ok);
            }
        } else {
            for i in 0..pcs.len() {
                let slot = self.slot(pcs[i], bhrs[i]);
                keys[i] = self.table.record(slot, correct[i]) as u64;
                self.global_cir.push(correct[i]);
            }
        }
    }

    fn key_space(&self) -> Option<u64> {
        Some(self.table.max() as u64 + 1)
    }

    fn describe(&self) -> String {
        format!(
            "{} idx {} init {}",
            E::label(self.table.max()),
            self.index,
            self.table.init_policy()
        )
    }

    fn flush(&mut self) {
        self.table.reinitialize();
        self.global_cir = Cir::zeroed(GLOBAL_CIR_WIDTH);
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.table.save(out);
        cira_predictor::state::put_u32(out, self.global_cir.value());
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = cira_predictor::state::StateReader::new(bytes);
        let table = self.table.read_state(&mut r)?;
        let global = r.u32()?;
        r.finish()?;
        self.table.load(table);
        self.global_cir = Cir::from_bits(global, GLOBAL_CIR_WIDTH);
        Ok(())
    }
}

/// Wraps a mechanism, exposing `map(key)` as the key — e.g. a ones count
/// over a CIR mechanism.
///
/// # Examples
///
/// ```
/// use cira_core::{ConfidenceMechanism, IndexSpec};
/// use cira_core::one_level::{MappedKey, OneLevelCir};
///
/// let cir = OneLevelCir::paper_default(IndexSpec::pc_xor_bhr(10));
/// let ones = MappedKey::ones_count(cir);
/// assert_eq!(ones.read_key(0x40, 0), 16); // all-ones init has 16 ones
/// ```
#[derive(Debug, Clone)]
pub struct MappedKey<M> {
    inner: M,
    map: fn(u64) -> u64,
    label: &'static str,
    key_space: Option<u64>,
}

impl<M: ConfidenceMechanism> MappedKey<M> {
    /// Wraps `inner`, exposing `map(key)` with a display label and an
    /// optional key-space bound for the mapped key.
    pub fn new(inner: M, map: fn(u64) -> u64, label: &'static str, key_space: Option<u64>) -> Self {
        Self {
            inner,
            map,
            label,
            key_space,
        }
    }

    /// The ones-count reduction of §5.1: key = popcount(CIR).
    pub fn ones_count(inner: M) -> Self {
        let space = inner
            .key_space()
            .map(|s| 64 - (s.saturating_sub(1)).leading_zeros() as u64 + 1);
        Self::new(inner, |k| k.count_ones() as u64, "ones-count", space)
    }

    /// Borrows the wrapped mechanism.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: ConfidenceMechanism> ConfidenceMechanism for MappedKey<M> {
    fn read_key(&self, pc: u64, bhr: u64) -> u64 {
        (self.map)(self.inner.read_key(pc, bhr))
    }

    fn update(&mut self, pc: u64, bhr: u64, correct: bool) {
        self.inner.update(pc, bhr, correct);
    }

    fn observe_batch(&mut self, pcs: &[u64], bhrs: &[u64], correct: &[bool], keys: &mut [u64]) {
        self.inner.observe_batch(pcs, bhrs, correct, keys);
        for k in keys.iter_mut() {
            *k = (self.map)(*k);
        }
    }

    fn key_space(&self) -> Option<u64> {
        self.key_space
    }

    fn describe(&self) -> String {
        format!("{} of {}", self.label, self.inner.describe())
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.inner.state_save(out)
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.state_load(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexSpec;

    #[test]
    fn one_level_tracks_per_entry_history() {
        let mut m = OneLevelCir::new(IndexSpec::pc(8), 4, InitPolicy::AllZeros);
        m.update(0x40, 0, false);
        m.update(0x40, 0, true);
        assert_eq!(m.read_key(0x40, 0), 0b10);
        // A different pc maps elsewhere.
        assert_eq!(m.read_key(0x80, 0), 0);
    }

    #[test]
    fn one_level_respects_bhr_in_index() {
        let mut m = OneLevelCir::new(IndexSpec::pc_xor_bhr(8), 4, InitPolicy::AllZeros);
        m.update(0x40, 0b0001, false);
        assert_eq!(m.read_key(0x40, 0b0001), 1);
        assert_eq!(
            m.read_key(0x40, 0b0010),
            0,
            "different history, different entry"
        );
    }

    #[test]
    #[should_panic(expected = "level-one CIR")]
    fn one_level_rejects_cir_index() {
        OneLevelCir::paper_default(IndexSpec::cir(8));
    }

    #[test]
    fn global_cir_index_changes_with_outcomes() {
        let mut m = OneLevelCir::new(IndexSpec::global_cir(4), 4, InitPolicy::AllZeros);
        // Record a misprediction at global state 0, then a correct
        // prediction; the global CIR is now 0b01 so reads go elsewhere.
        m.update(0x40, 0, false);
        assert_eq!(m.read_key(0x40, 0), 0, "global CIR moved to a new entry");
    }

    #[test]
    fn mapped_ones_count() {
        let mut m =
            MappedKey::ones_count(OneLevelCir::new(IndexSpec::pc(6), 16, InitPolicy::AllZeros));
        m.update(0x10, 0, false);
        m.update(0x10, 0, false);
        m.update(0x10, 0, true);
        assert_eq!(m.read_key(0x10, 0), 2);
        assert_eq!(m.key_space(), Some(17));
        assert!(m.describe().contains("ones-count"));
    }

    #[test]
    fn saturating_counts_up_and_down() {
        let mut m = SaturatingConfidence::new(IndexSpec::pc(6), 4, InitPolicy::AllOnes);
        assert_eq!(m.read_key(0x10, 0), 0);
        for _ in 0..10 {
            m.update(0x10, 0, true);
        }
        assert_eq!(m.read_key(0x10, 0), 4); // saturated at max
        m.update(0x10, 0, false);
        assert_eq!(m.read_key(0x10, 0), 3); // down by one, not reset
    }

    #[test]
    fn resetting_clears_on_misprediction() {
        let mut m = ResettingConfidence::new(IndexSpec::pc(6), 8, InitPolicy::AllOnes);
        for _ in 0..5 {
            m.update(0x10, 0, true);
        }
        assert_eq!(m.read_key(0x10, 0), 5);
        m.update(0x10, 0, false);
        assert_eq!(m.read_key(0x10, 0), 0);
    }

    #[test]
    fn resetting_matches_full_cir_distance() {
        // Resetting counter ≡ distance-since-misprediction of the full CIR
        // (both saturated at width/max) for any outcome sequence.
        let index = IndexSpec::pc(4);
        let mut counter = ResettingConfidence::new(index.clone(), 16, InitPolicy::AllOnes);
        let mut full = OneLevelCir::new(index, 16, InitPolicy::AllOnes);
        let outcomes = [
            true, true, false, true, true, true, false, false, true, true, true, true, true, true,
            true, true, true, true, true, true, false, true,
        ];
        for (i, &ok) in outcomes.iter().enumerate() {
            counter.update(0x20, 0, ok);
            full.update(0x20, 0, ok);
            let cir = full.read_cir(0x20, 0);
            // The all-ones initial CIR never records distance > the number
            // of updates, so both saturate identically once warmed up.
            assert_eq!(
                counter.read_key(0x20, 0),
                cir.distance_since_misprediction() as u64,
                "diverged after {} outcomes",
                i + 1
            );
        }
    }

    #[test]
    fn key_spaces() {
        assert_eq!(
            OneLevelCir::paper_default(IndexSpec::pc(4)).key_space(),
            Some(65536)
        );
        assert_eq!(
            SaturatingConfidence::paper_default(IndexSpec::pc(4)).key_space(),
            Some(17)
        );
        assert_eq!(
            ResettingConfidence::paper_default(IndexSpec::pc(4)).key_space(),
            Some(17)
        );
    }

    #[test]
    fn describe_mentions_organization() {
        assert!(ResettingConfidence::paper_default(IndexSpec::pc_xor_bhr(4))
            .describe()
            .contains("resetting"));
        assert!(SaturatingConfidence::paper_default(IndexSpec::pc(4))
            .describe()
            .contains("saturating"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_rejected() {
        ResettingConfidence::new(IndexSpec::pc(4), 0, InitPolicy::AllOnes);
    }

    #[test]
    fn flush_restores_initial_state() {
        let mut cir = OneLevelCir::new(IndexSpec::pc(4), 8, InitPolicy::LastBit);
        let mut sat = SaturatingConfidence::new(IndexSpec::pc(4), 16, InitPolicy::AllZeros);
        let mut reset = ResettingConfidence::new(IndexSpec::pc(4), 16, InitPolicy::AllOnes);
        for _ in 0..5 {
            cir.update(0x10, 0, true);
            sat.update(0x10, 0, false);
            reset.update(0x10, 0, true);
        }
        cir.flush();
        sat.flush();
        reset.flush();
        assert_eq!(cir.read_key(0x10, 0), 0b1000_0000);
        assert_eq!(sat.read_key(0x10, 0), 16, "all-zeros equivalent count");
        assert_eq!(reset.read_key(0x10, 0), 0);
    }

    #[test]
    fn mapped_flush_delegates() {
        let mut m =
            MappedKey::ones_count(OneLevelCir::new(IndexSpec::pc(4), 8, InitPolicy::AllOnes));
        for _ in 0..8 {
            m.update(0x10, 0, true);
        }
        assert_eq!(m.read_key(0x10, 0), 0);
        m.flush();
        assert_eq!(m.read_key(0x10, 0), 8);
    }

    #[test]
    fn init_policies_shape_initial_counts() {
        let zeros = ResettingConfidence::new(IndexSpec::pc(4), 16, InitPolicy::AllZeros);
        assert_eq!(
            zeros.read_key(0, 0),
            16,
            "all-zeros CIR ≡ saturated counter"
        );
        let last = ResettingConfidence::new(IndexSpec::pc(4), 16, InitPolicy::LastBit);
        assert_eq!(last.read_key(0, 0), 15);
    }
}
