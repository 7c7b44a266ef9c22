//! Confidence tables: an indexed array of entries, each either a full
//! Correct/Incorrect Register (the CIR Table of Fig. 3) or one of its
//! counter reductions (§5.1).
//!
//! Every organization stores plain `u32` values in `0..=max`; an [`Entry`]
//! rule says only how an entry starts, how one outcome moves it and how the
//! organization is labelled. A `w`-bit CIR is the value with `max =
//! 2^w - 1`; a counter is the count itself.

use std::fmt;
use std::marker::PhantomData;

use crate::cir::Cir;
use crate::init::InitPolicy;

/// How one organization's entries start and move. Values always stay in
/// `0..=max`.
///
/// The rules, and the [`InitPolicy`] methods they call, are `#[inline]`:
/// the generic table code is compiled in whichever crate names a concrete
/// rule, and a call per entry across crates made building or flushing a
/// 2^16-entry table several times slower.
pub trait Entry: fmt::Debug + Clone + Send + Sync + 'static {
    /// The initial value of entry `entry` under `init`.
    fn initial(init: InitPolicy, max: u32, entry: usize) -> u32;

    /// The value after one prediction outcome is recorded into `value`.
    fn step(value: u32, max: u32, correct: bool) -> u32;

    /// The organization's display label, e.g. `resetting[0..=16]`.
    fn label(max: u32) -> String;
}

/// Marks the counter reductions of §5.1, whose tables are sized by their
/// saturation maximum rather than by a CIR width.
pub trait Counter: Entry {}

/// Full `w`-bit CIRs (Fig. 3): a 1 bit records a misprediction, bit 0 is
/// the most recent outcome, and `max` is the all-ones pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CirEntry;

/// Saturating up/down counters (§5.1): up on a correct prediction, down on
/// a misprediction, clamped to `0..=max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturating;

/// Resetting counters (§5.1): up on a correct prediction (saturating at
/// `max`), cleared by a misprediction — the distance since the last
/// misprediction, i.e. [`Cir::distance_since_misprediction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resetting;

/// The width of the CIR whose all-ones pattern is `max`.
fn cir_width(max: u32) -> u32 {
    u32::BITS - max.leading_zeros()
}

impl Entry for CirEntry {
    #[inline]
    fn initial(init: InitPolicy, max: u32, entry: usize) -> u32 {
        init.initial_cir(cir_width(max), entry).value()
    }

    #[inline]
    fn step(value: u32, max: u32, correct: bool) -> u32 {
        ((value << 1) | !correct as u32) & max
    }

    fn label(max: u32) -> String {
        format!("one-level CIR[{}]", cir_width(max))
    }
}

impl Entry for Saturating {
    #[inline]
    fn initial(init: InitPolicy, max: u32, entry: usize) -> u32 {
        init.initial_count(max, entry)
    }

    #[inline]
    fn step(value: u32, max: u32, correct: bool) -> u32 {
        // Branchless ±1: the inc term vanishes at max, the dec term at
        // zero, and `correct` selects between them.
        let c = correct as u32;
        value + (c & (value < max) as u32) - ((1 - c) & (value > 0) as u32)
    }

    fn label(max: u32) -> String {
        format!("saturating[0..={max}]")
    }
}

impl Entry for Resetting {
    #[inline]
    fn initial(init: InitPolicy, max: u32, entry: usize) -> u32 {
        init.initial_count(max, entry)
    }

    #[inline]
    fn step(value: u32, max: u32, correct: bool) -> u32 {
        // Branchless increment-or-clear: `correct` zeroes the whole result
        // on a misprediction, the saturation term vanishes at max.
        (correct as u32) * (value + (value < max) as u32)
    }

    fn label(max: u32) -> String {
        format!("resetting[0..={max}]")
    }
}

impl Counter for Saturating {}
impl Counter for Resetting {}

/// A table of `2^index_bits` entries in `0..=max` under the rule `E`.
///
/// # Examples
///
/// ```
/// use cira_core::{table::CirTable, InitPolicy};
///
/// let mut ct = CirTable::new(4, 8, InitPolicy::AllOnes);
/// assert_eq!(ct.get(3), 0xff);
/// ct.record(3, true); // a correct prediction shifts in a 0
/// assert_eq!(ct.get(3), 0xfe);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table<E> {
    entries: Vec<u32>,
    max: u32,
    init: InitPolicy,
    rule: PhantomData<E>,
}

/// The CIR Table (CT) of Fig. 3: `width`-bit CIRs.
pub type CirTable = Table<CirEntry>;

impl<E: Entry> Table<E> {
    /// A table of `2^index_bits` entries in `0..=max`, initialized per
    /// `init`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28`.
    pub(crate) fn with_max(index_bits: u32, max: u32, init: InitPolicy) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be 1..=28, got {index_bits}"
        );
        let len = 1usize << index_bits;
        cira_obs::debug!("confidence table allocated", entries = len, max = max);
        Self {
            entries: (0..len).map(|i| E::initial(init, max, i)).collect(),
            max,
            init,
            rule: PhantomData,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (tables have at least two entries).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest value an entry can hold.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// The initialization policy the table was created with.
    pub fn init_policy(&self) -> InitPolicy {
        self.init
    }

    /// Every entry, in index order — the table's checkpointable state
    /// (`max` and the init policy are configuration).
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Reads the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> u32 {
        self.entries[index]
    }

    /// Records one prediction outcome into the entry at `index` and
    /// returns the entry's value from before the update.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn record(&mut self, index: usize, correct: bool) -> u32 {
        let old = self.entries[index];
        self.entries[index] = E::step(old, self.max, correct);
        old
    }

    /// Hints that the entry at `index` will be accessed soon (x86_64
    /// prefetch, plain touch elsewhere). Out-of-range indices are ignored.
    #[inline]
    pub fn prefetch(&self, index: usize) {
        if let Some(v) = self.entries.get(index) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `v` is a live reference, so the pointer is valid;
            // prefetch has no architectural side effects.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    (v as *const u32).cast::<i8>(),
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                std::hint::black_box(*v);
            }
        }
    }

    /// Restores every entry from values produced by
    /// [`entries`](Self::entries) on an identically configured table.
    ///
    /// # Errors
    ///
    /// Returns a message if the entry count differs or any value exceeds
    /// `max`; the table is then unchanged.
    pub fn load(&mut self, values: &[u32]) -> Result<(), String> {
        if values.len() != self.entries.len() {
            return Err(format!(
                "{} restore: {} entries, table needs {}",
                E::label(self.max),
                values.len(),
                self.entries.len()
            ));
        }
        if let Some(v) = values.iter().find(|&&v| v > self.max) {
            return Err(format!(
                "{} restore: entry {v:#x} exceeds max {:#x}",
                E::label(self.max),
                self.max
            ));
        }
        self.entries.copy_from_slice(values);
        Ok(())
    }

    /// Re-initializes every entry (models a context-switch flush).
    pub fn reinitialize(&mut self) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            *e = E::initial(self.init, self.max, i);
        }
    }
}

impl CirTable {
    /// A table of `2^index_bits` entries, each a `width`-bit CIR
    /// initialized per `init`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28` or `width` outside
    /// `1..=32`.
    pub fn new(index_bits: u32, width: u32, init: InitPolicy) -> Self {
        Self::with_max(index_bits, Cir::zeroed(width).mask(), init)
    }

    /// CIR width in bits.
    pub fn width(&self) -> u32 {
        cir_width(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_all_entries() {
        let ct = CirTable::new(3, 16, InitPolicy::AllOnes);
        assert_eq!(ct.len(), 8);
        assert!(ct.entries().iter().all(|&c| c == 0xffff));
    }

    #[test]
    fn record_updates_single_entry() {
        let mut ct = CirTable::new(3, 4, InitPolicy::AllZeros);
        assert_eq!(ct.record(2, false), 0, "record returns the old value");
        assert_eq!(ct.get(2), 1);
        assert_eq!(ct.get(1), 0);
    }

    #[test]
    fn cir_steps_match_the_shift_register() {
        for width in [1, 5, 16, 32] {
            let max = Cir::zeroed(width).mask();
            let mut cir = Cir::all_ones(width);
            let mut value = max;
            for i in 0..40u32 {
                let correct = i % 3 != 0;
                cir.push(correct);
                value = CirEntry::step(value, max, correct);
                assert_eq!(value, cir.value(), "width {width} step {i}");
            }
        }
    }

    #[test]
    fn reinitialize_restores_policy() {
        let mut ct = CirTable::new(2, 8, InitPolicy::LastBit);
        ct.record(0, true);
        ct.record(0, true);
        ct.reinitialize();
        assert_eq!(ct.get(0), 0b1000_0000);
    }

    #[test]
    fn random_init_varies_across_entries() {
        let ct = CirTable::new(6, 16, InitPolicy::Random(11));
        let distinct: std::collections::BTreeSet<u32> = ct.entries().iter().copied().collect();
        assert!(distinct.len() > 32, "random init looks degenerate");
    }

    #[test]
    fn width_is_recovered_from_max() {
        for width in [1, 8, 16, 31, 32] {
            assert_eq!(CirTable::new(2, width, InitPolicy::AllOnes).width(), width);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        CirTable::new(2, 8, InitPolicy::AllOnes).get(4);
    }

    #[test]
    #[should_panic(expected = "1..=28")]
    fn index_bits_validated() {
        CirTable::new(0, 8, InitPolicy::AllOnes);
    }

    #[test]
    fn load_rejects_wrong_lengths_and_values_above_max() {
        let mut ct = CirTable::new(2, 4, InitPolicy::AllOnes);
        assert!(ct.load(&[0; 3]).is_err());
        assert!(ct.load(&[0, 0, 0x10, 0]).is_err());
        assert_eq!(ct.entries(), &[0xf; 4], "a rejected load changes nothing");
        ct.load(&[1, 2, 3, 0xf]).unwrap();
        assert_eq!(ct.entries(), &[1, 2, 3, 0xf]);
    }
}
