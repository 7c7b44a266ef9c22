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

use cira_predictor::state::{put_u32, StateReader};

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

/// The count word of a saved table carries its layout tag in these top
/// bits; `index_bits <= 28` leaves them free.
const TAG_SHIFT: u32 = 29;

/// The entry width of each layout tag: tag 0 is the 4-byte layout every
/// table was written in before narrow states, tags 1 and 2 are one- and
/// two-byte entries. Tags 3..=7 are unassigned.
const TAG_WIDTHS: [usize; 3] = [4, 1, 2];

/// The layout tag [`Table::save`] writes for entries in `0..=max`: the
/// narrowest width that holds `max`.
fn layout_tag(max: u32) -> u32 {
    if max <= u32::from(u8::MAX) {
        1
    } else if max <= u32::from(u16::MAX) {
        2
    } else {
        0
    }
}

/// The value every entry of a table in `0..=max` starts at under `init`,
/// or `None` under `random:N`, the one policy whose value depends on the
/// entry. A uniform table is built and flushed with one fill.
fn uniform_initial<E: Entry>(init: InitPolicy, max: u32) -> Option<u32> {
    match init {
        InitPolicy::Random(_) => None,
        _ => Some(E::initial(init, max, 0)),
    }
}

/// The entries of `bytes`, each `W` bytes little-endian.
fn decode<const W: usize>(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(W).map(|c| {
        let mut word = [0u8; 4];
        word[..W].copy_from_slice(c);
        u32::from_le_bytes(word)
    })
}

/// Writes `entries` into `out`, each as its low `W` bytes little-endian.
fn encode<const W: usize>(entries: &[u32], out: &mut [u8]) {
    for (c, e) in out.chunks_exact_mut(W).zip(entries) {
        c.copy_from_slice(&e.to_le_bytes()[..W]);
    }
}

/// A table state read by [`Table::read_state`] and checked against that
/// table; [`Table::load`] applies it.
#[derive(Debug)]
pub(crate) struct TableState<'a> {
    /// The entries, `width` bytes each.
    bytes: &'a [u8],
    width: usize,
    /// The `max` the entries were checked against.
    max: u32,
}

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
        let entries = match uniform_initial::<E>(init, max) {
            Some(value) => vec![value; len],
            None => (0..len).map(|i| E::initial(init, max, i)).collect(),
        };
        Self {
            entries,
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

    /// Appends the table's state: a `u32` count word whose top three bits
    /// tag the layout, then every entry little-endian at the narrowest
    /// width of 1, 2 or 4 bytes that holds `max`. A table whose `max`
    /// needs 4 bytes writes tag 0, the layout of a `u32`-count-prefixed
    /// slice.
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        let tag = layout_tag(self.max);
        put_u32(out, tag << TAG_SHIFT | self.entries.len() as u32);
        let start = out.len();
        let width = TAG_WIDTHS[tag as usize];
        out.resize(start + width * self.entries.len(), 0);
        let body = &mut out[start..];
        match width {
            1 => encode::<1>(&self.entries, body),
            2 => encode::<2>(&self.entries, body),
            _ => encode::<4>(&self.entries, body),
        }
    }

    /// Reads one table state from `r` and checks it against this table,
    /// leaving the table unchanged: [`load`](Self::load) applies it. The
    /// state must use the layout [`save`](Self::save) writes for this
    /// table's `max`, or the 4-byte layout of tag 0.
    ///
    /// # Errors
    ///
    /// Returns a message if the blob is truncated, the tag is neither of
    /// those layouts, the entry count differs, or any entry exceeds `max`.
    pub(crate) fn read_state<'a>(&self, r: &mut StateReader<'a>) -> Result<TableState<'a>, String> {
        let word = r.u32()?;
        let (tag, count) = (word >> TAG_SHIFT, word & ((1 << TAG_SHIFT) - 1));
        if tag != 0 && tag != layout_tag(self.max) {
            return Err(format!(
                "{} restore: layout tag {tag}, a table of max {:#x} is written with tag {} or 0",
                E::label(self.max),
                self.max,
                layout_tag(self.max)
            ));
        }
        if count as usize != self.entries.len() {
            return Err(format!(
                "{} restore: {count} entries, table needs {}",
                E::label(self.max),
                self.entries.len()
            ));
        }
        let width = TAG_WIDTHS[tag as usize];
        let bytes = r.take(width * self.entries.len())?;
        let top = match width {
            1 => decode::<1>(bytes).fold(0, u32::max),
            2 => decode::<2>(bytes).fold(0, u32::max),
            _ => decode::<4>(bytes).fold(0, u32::max),
        };
        if top > self.max {
            return Err(format!(
                "{} restore: entry {top:#x} exceeds max {:#x}",
                E::label(self.max),
                self.max
            ));
        }
        Ok(TableState {
            bytes,
            width,
            max: self.max,
        })
    }

    /// Overwrites every entry with a state that
    /// [`read_state`](Self::read_state) checked against this table.
    ///
    /// # Panics
    ///
    /// Panics if `state` was checked against a table of another size or
    /// `max`.
    pub(crate) fn load(&mut self, state: TableState<'_>) {
        assert!(
            state.max == self.max && state.bytes.len() == state.width * self.entries.len(),
            "table state checked against another table"
        );
        let entries = self.entries.iter_mut();
        match state.width {
            1 => entries
                .zip(decode::<1>(state.bytes))
                .for_each(|(e, v)| *e = v),
            2 => entries
                .zip(decode::<2>(state.bytes))
                .for_each(|(e, v)| *e = v),
            _ => entries
                .zip(decode::<4>(state.bytes))
                .for_each(|(e, v)| *e = v),
        }
    }

    /// Re-initializes every entry (models a context-switch flush).
    pub fn reinitialize(&mut self) {
        match uniform_initial::<E>(self.init, self.max) {
            Some(value) => self.entries.fill(value),
            None => {
                for (i, e) in self.entries.iter_mut().enumerate() {
                    *e = E::initial(self.init, self.max, i);
                }
            }
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
    fn fills_match_the_per_entry_initial_values() {
        fn check<E: Entry>(max: u32) {
            for init in [
                InitPolicy::AllOnes,
                InitPolicy::AllZeros,
                InitPolicy::LastBit,
                InitPolicy::Random(7),
            ] {
                for bits in [1, 6, 16] {
                    let label = format!("{} {init} 2^{bits}", E::label(max));
                    let want: Vec<u32> = (0..1 << bits).map(|i| E::initial(init, max, i)).collect();
                    let mut t = Table::<E>::with_max(bits, max, init);
                    assert_eq!(t.entries(), want, "{label}: built");
                    for i in 0..t.len() {
                        t.record(i, i % 3 == 0);
                    }
                    t.reinitialize();
                    assert_eq!(t.entries(), want, "{label}: reinitialized");
                }
            }
        }
        check::<CirEntry>(0xffff);
        check::<Saturating>(16);
        check::<Resetting>(16);
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

    /// Reads a whole blob as one table state and applies it.
    fn load_blob<E: Entry>(table: &mut Table<E>, blob: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(blob);
        let state = table.read_state(&mut r)?;
        r.finish()?;
        table.load(state);
        Ok(())
    }

    fn saved<E: Entry>(table: &Table<E>) -> Vec<u8> {
        let mut out = Vec::new();
        table.save(&mut out);
        out
    }

    /// The same state in the tag-0 layout: a plain count, `u32` entries.
    fn wide<E: Entry>(table: &Table<E>) -> Vec<u8> {
        let mut out = Vec::new();
        cira_predictor::state::put_u32_slice(&mut out, table.entries());
        out
    }

    /// A trained table of `2^4` entries in `0..=max`.
    fn trained(max: u32) -> Table<Resetting> {
        let mut t = Table::<Resetting>::with_max(4, max, InitPolicy::Random(3));
        for i in 0..200usize {
            t.record(i * 7 % 16, i % 5 != 0);
        }
        t
    }

    #[test]
    fn save_writes_the_narrowest_width_that_holds_max() {
        for (max, tag, width) in [
            (1, 1, 1),
            (0xff, 1, 1),
            (0x100, 2, 2),
            (0xffff, 2, 2),
            (0x1_0000, 0, 4),
            (u32::MAX, 0, 4),
        ] {
            let t = trained(max);
            let blob = saved(&t);
            assert_eq!(blob.len(), 4 + 16 * width, "max {max:#x}");
            assert_eq!(
                u32::from_le_bytes(blob[..4].try_into().unwrap()),
                tag << 29 | 16
            );
            let mut back = Table::<Resetting>::with_max(4, max, InitPolicy::AllZeros);
            load_blob(&mut back, &blob).unwrap();
            assert_eq!(back.entries(), t.entries(), "max {max:#x}");
            // The 4-byte layout of older states restores through the same reader.
            let mut back = Table::<Resetting>::with_max(4, max, InitPolicy::AllZeros);
            load_blob(&mut back, &wide(&t)).unwrap();
            assert_eq!(back.entries(), t.entries(), "max {max:#x}, tag-0 layout");
        }
    }

    /// Every mutation is refused without a panic and leaves `table` as it
    /// was.
    fn assert_refused<E: Entry>(table: &mut Table<E>, blob: &[u8], what: &str) {
        let before = table.entries().to_vec();
        assert!(load_blob(table, blob).is_err(), "{what}: accepted");
        assert_eq!(
            table.entries(),
            before,
            "{what}: a refused state changed the table"
        );
    }

    #[test]
    fn mutated_states_are_refused_and_change_nothing() {
        for max in [16, 0xff, 0x3ff, 0xffff, 0x1_ffff] {
            let mut t = trained(max);
            for blob in [saved(&t), wide(&t)] {
                for len in 0..blob.len() {
                    assert_refused(&mut t, &blob[..len], &format!("{max:#x} cut to {len}"));
                }
                for bit in 0..32 {
                    let mut bad = blob.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    assert_refused(&mut t, &bad, &format!("{max:#x} layout bit {bit}"));
                }
                let tag = blob[3] >> 5;
                for count in [0, 15, 17, (1 << 29) - 1] {
                    let mut bad = blob.clone();
                    bad[..4].copy_from_slice(&(u32::from(tag) << 29 | count).to_le_bytes());
                    assert_refused(&mut t, &bad, &format!("{max:#x} count {count}"));
                }
            }
            for tag in 3..8u32 {
                let mut bad = saved(&t);
                bad[..4].copy_from_slice(&(tag << 29 | 16).to_le_bytes());
                assert_refused(&mut t, &bad, &format!("{max:#x} tag {tag}"));
            }
            // An entry above max at the written width, where it fits.
            let width = (saved(&t).len() - 4) / 16;
            if u64::from(max) < (1u64 << (8 * width)) - 1 {
                let mut bad = saved(&t);
                bad[4 + 5 * width..4 + 6 * width]
                    .copy_from_slice(&(max + 1).to_le_bytes()[..width]);
                assert_refused(&mut t, &bad, &format!("{max:#x} entry above max"));
            }
            let mut bad = wide(&t);
            bad[4 + 4 * 5..4 + 4 * 6].copy_from_slice(&(max + 1).to_le_bytes());
            assert_refused(&mut t, &bad, &format!("{max:#x} tag-0 entry above max"));
        }
    }

    #[test]
    fn a_narrow_width_other_than_the_writers_is_refused() {
        // Tag 2 (two-byte entries) for a table the writer saves with tag 1.
        let mut t = trained(16);
        let mut blob = (2u32 << 29 | 16).to_le_bytes().to_vec();
        for e in t.entries() {
            blob.extend_from_slice(&(*e as u16).to_le_bytes());
        }
        assert_refused(&mut t, &blob, "tag 2 for max 16");
    }

    #[test]
    #[should_panic(expected = "another table")]
    fn load_refuses_a_state_checked_against_another_table() {
        let small = trained(16);
        let blob = saved(&small);
        let mut r = StateReader::new(&blob);
        let state = small.read_state(&mut r).unwrap();
        trained(0xff).load(state);
    }
}
