//! The CIR Table (CT): an indexed array of Correct/Incorrect Registers.

use crate::cir::Cir;
use crate::init::InitPolicy;

/// Prefetches (x86_64) or touches (elsewhere) the slice element at `i`.
/// Out-of-range indices are ignored.
#[inline]
pub(crate) fn prefetch_slot<T: Copy>(values: &[T], i: usize) {
    if let Some(v) = values.get(i) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `v` is a live reference, so the pointer is valid;
        // prefetch has no architectural side effects.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                (v as *const T).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            std::hint::black_box(*v);
        }
    }
}

/// A table of `2^index_bits` CIRs of `width` bits each.
///
/// This is the full-length-CIR organization of Fig. 3; the compressed
/// (counter-embedded) organizations of §5.1 live in
/// [`crate::one_level::SaturatingConfidence`] and
/// [`crate::one_level::ResettingConfidence`].
///
/// # Examples
///
/// ```
/// use cira_core::{table::CirTable, InitPolicy};
///
/// let mut ct = CirTable::new(4, 8, InitPolicy::AllOnes);
/// assert_eq!(ct.get(3).value(), 0xff);
/// ct.record(3, true); // a correct prediction shifts in a 0
/// assert_eq!(ct.get(3).value(), 0xfe);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CirTable {
    entries: Vec<Cir>,
    index_bits: u32,
    width: u32,
    init: InitPolicy,
}

impl CirTable {
    /// Creates a table of `2^index_bits` entries, each a `width`-bit CIR
    /// initialized per `init`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=28` or `width` outside
    /// `1..=32`.
    pub fn new(index_bits: u32, width: u32, init: InitPolicy) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be 1..=28, got {index_bits}"
        );
        let len = 1usize << index_bits;
        let entries = (0..len).map(|i| init.initial_cir(width, i)).collect();
        cira_obs::debug!("cir table allocated", entries = len, width = width);
        Self {
            entries,
            index_bits,
            width,
            init,
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

    /// Index width in bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// CIR width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The initialization policy the table was created with.
    pub fn init_policy(&self) -> InitPolicy {
        self.init
    }

    /// Reads the CIR at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> Cir {
        self.entries[index]
    }

    /// Shifts a prediction outcome into the CIR at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn record(&mut self, index: usize, correct: bool) {
        self.entries[index].push(correct);
    }

    /// Hints that the entry at `index` will be accessed soon (x86_64
    /// prefetch, plain touch elsewhere). Out-of-range indices are ignored.
    #[inline]
    pub fn prefetch(&self, index: usize) {
        prefetch_slot(&self.entries, index);
    }

    /// The raw bit pattern of every entry, in index order — the table's
    /// checkpointable state (width and init policy are configuration).
    pub fn entry_bits(&self) -> Vec<u32> {
        self.entries.iter().map(Cir::value).collect()
    }

    /// Restores every entry from raw bit patterns produced by
    /// [`entry_bits`](Self::entry_bits) on an identically configured table.
    ///
    /// # Errors
    ///
    /// Returns a message if the entry count differs or any pattern has bits
    /// above the table's CIR width.
    pub fn load_entry_bits(&mut self, bits: &[u32]) -> Result<(), String> {
        if bits.len() != self.entries.len() {
            return Err(format!(
                "cir table restore: {} entries, table needs {}",
                bits.len(),
                self.entries.len()
            ));
        }
        let mask = Cir::from_bits(0, self.width).mask();
        if let Some(b) = bits.iter().find(|&&b| b & !mask != 0) {
            return Err(format!(
                "cir table restore: pattern {b:#x} exceeds {}-bit CIR width",
                self.width
            ));
        }
        for (e, &b) in self.entries.iter_mut().zip(bits) {
            *e = Cir::from_bits(b, self.width);
        }
        Ok(())
    }

    /// Re-initializes every entry (models a context-switch flush).
    pub fn reinitialize(&mut self) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            *e = self.init.initial_cir(self.width, i);
        }
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Cir> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a CirTable {
    type Item = &'a Cir;
    type IntoIter = std::slice::Iter<'a, Cir>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_all_entries() {
        let ct = CirTable::new(3, 16, InitPolicy::AllOnes);
        assert_eq!(ct.len(), 8);
        assert!(ct.iter().all(|c| c.value() == 0xffff));
    }

    #[test]
    fn record_updates_single_entry() {
        let mut ct = CirTable::new(3, 4, InitPolicy::AllZeros);
        ct.record(2, false);
        assert_eq!(ct.get(2).value(), 1);
        assert!(ct.get(1).is_zero());
    }

    #[test]
    fn reinitialize_restores_policy() {
        let mut ct = CirTable::new(2, 8, InitPolicy::LastBit);
        ct.record(0, true);
        ct.record(0, true);
        ct.reinitialize();
        assert_eq!(ct.get(0).value(), 0b1000_0000);
    }

    #[test]
    fn random_init_varies_across_entries() {
        let ct = CirTable::new(6, 16, InitPolicy::Random(11));
        let distinct: std::collections::BTreeSet<u32> = ct.iter().map(|c| c.value()).collect();
        assert!(distinct.len() > 32, "random init looks degenerate");
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        CirTable::new(2, 8, InitPolicy::AllOnes).get(4);
    }

    #[test]
    fn into_iterator_for_reference() {
        let ct = CirTable::new(2, 8, InitPolicy::AllOnes);
        let n = (&ct).into_iter().count();
        assert_eq!(n, 4);
    }

    #[test]
    #[should_panic(expected = "1..=28")]
    fn index_bits_validated() {
        CirTable::new(0, 8, InitPolicy::AllOnes);
    }
}
