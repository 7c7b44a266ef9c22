//! Confidence-table initialization policies (§5.4).
//!
//! The paper finds that the initial CIR contents matter because the table's
//! memory is deep: all-ones and random initial values perform similarly and
//! clearly beat all-zeros (which assigns *high* confidence to cold-start
//! branches, exactly when mispredictions are most likely). The "lastbit"
//! policy — only the oldest bit set — performs like the other non-zero
//! policies while simplifying context-switch handling.

use std::fmt;

use crate::cir::Cir;

/// How CIR-table entries are initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitPolicy {
    /// Every bit 1 (all predictions "recently incorrect") — the paper's
    /// default and best performer.
    AllOnes,
    /// Every bit 0; performs noticeably worse (§5.4, Fig. 11).
    AllZeros,
    /// Only the oldest bit 1 — the cheap hardware alternative.
    LastBit,
    /// Pseudo-random contents derived from the given seed and the entry
    /// index (deterministic).
    Random(u64),
}

impl InitPolicy {
    /// The initial CIR for table entry `entry` at the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=32` (propagated from [`Cir`]).
    #[inline]
    pub fn initial_cir(self, width: u32, entry: usize) -> Cir {
        match self {
            InitPolicy::AllOnes => Cir::all_ones(width),
            InitPolicy::AllZeros => Cir::zeroed(width),
            InitPolicy::LastBit => Cir::from_bits(1 << (width - 1), width),
            InitPolicy::Random(seed) => Cir::from_bits(mix(seed ^ entry as u64) as u32, width),
        }
    }

    /// The equivalent initial value for a *counter-compressed* table entry
    /// counting 0..=`max` (see §5.1): the counter holds the distance since
    /// the last misprediction, so all-ones ⇒ 0, all-zeros ⇒ `max`, lastbit
    /// ⇒ `max - 1` (one misprediction, `width-1` correct outcomes ago), and
    /// random ⇒ a deterministic pseudo-random value in `0..=max`.
    #[inline]
    pub fn initial_count(self, max: u32, entry: usize) -> u32 {
        match self {
            InitPolicy::AllOnes => 0,
            InitPolicy::AllZeros => max,
            InitPolicy::LastBit => max.saturating_sub(1),
            InitPolicy::Random(seed) => (mix(seed ^ entry as u64) % (max as u64 + 1)) as u32,
        }
    }
}

impl fmt::Display for InitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitPolicy::AllOnes => write!(f, "ones"),
            InitPolicy::AllZeros => write!(f, "zeros"),
            InitPolicy::LastBit => write!(f, "lastbit"),
            InitPolicy::Random(seed) => write!(f, "random({seed})"),
        }
    }
}

/// SplitMix64 finalizer — a stateless 64-bit mix used to derive per-entry
/// pseudo-random initial values.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ones_fills() {
        let c = InitPolicy::AllOnes.initial_cir(16, 3);
        assert_eq!(c.value(), 0xffff);
    }

    #[test]
    fn all_zeros_clears() {
        assert!(InitPolicy::AllZeros.initial_cir(16, 3).is_zero());
    }

    #[test]
    fn lastbit_sets_only_oldest() {
        let c = InitPolicy::LastBit.initial_cir(8, 0);
        assert_eq!(c.value(), 0b1000_0000);
        assert_eq!(c.ones_count(), 1);
        // The marker occupies the oldest position, so it flags exactly the
        // reads that happen before the entry's first update — the very next
        // push shifts it out.
        let mut c = c;
        c.push(true);
        assert!(c.is_zero());
    }

    #[test]
    fn random_is_deterministic_and_varies_by_entry() {
        let a = InitPolicy::Random(7).initial_cir(16, 0);
        let b = InitPolicy::Random(7).initial_cir(16, 0);
        assert_eq!(a, b);
        let c = InitPolicy::Random(7).initial_cir(16, 1);
        assert_ne!(a, c, "adjacent entries should almost surely differ");
    }

    #[test]
    fn counter_equivalents() {
        assert_eq!(InitPolicy::AllOnes.initial_count(16, 9), 0);
        assert_eq!(InitPolicy::AllZeros.initial_count(16, 9), 16);
        assert_eq!(InitPolicy::LastBit.initial_count(16, 9), 15);
        let r = InitPolicy::Random(3).initial_count(16, 9);
        assert!(r <= 16);
    }

    #[test]
    fn lastbit_counter_on_tiny_max() {
        assert_eq!(InitPolicy::LastBit.initial_count(0, 0), 0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(InitPolicy::AllOnes.to_string(), "ones");
        assert_eq!(InitPolicy::AllZeros.to_string(), "zeros");
        assert_eq!(InitPolicy::LastBit.to_string(), "lastbit");
        assert_eq!(InitPolicy::Random(5).to_string(), "random(5)");
    }
}
