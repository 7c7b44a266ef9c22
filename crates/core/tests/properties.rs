//! Seeded property tests for the confidence-mechanism primitives and the
//! one confidence-table type behind the CIR, saturating-counter and
//! resetting-counter mechanisms.
//!
//! Each property runs a fixed number of cases drawn from an inline
//! xorshift generator, so every run checks the same inputs and a failure
//! names the case that broke.

use cira_core::one_level::{OneLevel, OneLevelCir, ResettingConfidence, SaturatingConfidence};
use cira_core::table::{CirEntry, Entry, Resetting, Saturating};
use cira_core::two_level::TwoLevelCir;
use cira_core::{Cir, ConfidenceMechanism, IndexInputs, IndexSpec, InitPolicy};
use cira_predictor::state::put_u32_slice;
use cira_predictor::SaturatingCounter;

const CASES: u64 = 256;

/// xorshift64 over a seed mixed with the case number.
struct Rng(u64);

impl Rng {
    fn case(property: u64, case: u64) -> Self {
        Self((property << 32 ^ case).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn bools(&mut self, max_len: u64) -> Vec<bool> {
        let len = self.range(0, max_len);
        (0..len).map(|_| self.bool()).collect()
    }

    fn init(&mut self) -> InitPolicy {
        match self.range(0, 3) {
            0 => InitPolicy::AllOnes,
            1 => InitPolicy::AllZeros,
            2 => InitPolicy::LastBit,
            _ => InitPolicy::Random(self.next()),
        }
    }

    /// A one-level index: compiled XOR (batched gather) or interpreted.
    fn index(&mut self) -> IndexSpec {
        let bits = self.range(1, 10) as u32;
        match self.range(0, 4) {
            0 => IndexSpec::pc(bits),
            1 => IndexSpec::bhr(bits),
            2 => IndexSpec::pc_xor_bhr(bits),
            3 => IndexSpec::global_cir(bits),
            _ => IndexSpec::pc_concat_bhr(bits.max(2)),
        }
    }

    /// A record stream over a few sites, so entries alias and repeat.
    fn stream(&mut self, max_len: u64) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
        let len = self.range(0, max_len) as usize;
        let mut pcs = Vec::with_capacity(len);
        let mut bhrs = Vec::with_capacity(len);
        let mut correct = Vec::with_capacity(len);
        for _ in 0..len {
            pcs.push(0x40_0000 + (self.range(0, 40) << 2));
            bhrs.push(self.next() & 0xfff);
            correct.push(self.range(0, 3) != 0);
        }
        (pcs, bhrs, correct)
    }
}

#[test]
fn cir_matches_reference_shift_register() {
    for case in 0..CASES {
        let mut rng = Rng::case(1, case);
        let width = rng.range(1, 32) as u32;
        let mut cir = Cir::zeroed(width);
        let mut reference = vec![false; width as usize]; // newest first
        for correct in rng.bools(100) {
            cir.push(correct);
            reference.insert(0, !correct);
            reference.truncate(width as usize);
            let bits: u32 = reference
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as u32) << i)
                .sum();
            assert_eq!(cir.value(), bits, "case {case}");
            let ones = reference.iter().filter(|&&b| b).count();
            assert_eq!(cir.ones_count() as usize, ones, "case {case}");
            let distance = reference
                .iter()
                .position(|&b| b)
                .map_or(width, |p| p as u32);
            assert_eq!(cir.distance_since_misprediction(), distance, "case {case}");
        }
    }
}

#[test]
fn saturating_counter_stays_in_bounds() {
    for case in 0..CASES {
        let mut rng = Rng::case(2, case);
        let max = rng.range(1, 99) as u32;
        let mut c = SaturatingCounter::new(0, max);
        for up in rng.bools(200) {
            if up {
                c.inc();
            } else {
                c.dec();
            }
            assert!(c.value() <= max, "case {case}");
        }
    }
}

#[test]
fn index_spec_output_is_within_table() {
    for case in 0..CASES {
        let mut rng = Rng::case(3, case);
        let bits = rng.range(1, 20) as u32;
        let inputs = IndexInputs {
            pc: rng.next(),
            bhr: rng.next(),
            cir: rng.next(),
            global_cir: rng.next(),
        };
        let mut specs = vec![
            IndexSpec::pc(bits),
            IndexSpec::bhr(bits),
            IndexSpec::pc_xor_bhr(bits),
            IndexSpec::cir(bits),
            IndexSpec::cir_xor_pc_xor_bhr(bits),
            IndexSpec::global_cir(bits),
        ];
        if bits >= 2 {
            specs.push(IndexSpec::pc_concat_bhr(bits));
        }
        for spec in specs {
            let idx = spec.index(inputs);
            assert!(idx < spec.table_len(), "case {case}: {spec}: {idx}");
        }
    }
}

#[test]
fn init_policies_produce_valid_cirs() {
    for case in 0..CASES {
        let mut rng = Rng::case(4, case);
        let width = rng.range(1, 32) as u32;
        let entry = rng.range(0, 4095) as usize;
        let seed = rng.next();
        for policy in [
            InitPolicy::AllOnes,
            InitPolicy::AllZeros,
            InitPolicy::LastBit,
            InitPolicy::Random(seed),
        ] {
            let cir = policy.initial_cir(width, entry);
            assert_eq!(cir.width(), width, "case {case}");
            assert!(cir.value() <= cir.mask(), "case {case}");
            assert!(policy.initial_count(16, entry) <= 16, "case {case}");
        }
    }
}

#[test]
fn mechanisms_never_panic_and_keys_stay_in_space() {
    for case in 0..CASES {
        let mut rng = Rng::case(5, case);
        let mut one = OneLevelCir::new(IndexSpec::pc_xor_bhr(6), 8, InitPolicy::AllOnes);
        let mut sat = SaturatingConfidence::new(IndexSpec::pc(6), 7, InitPolicy::AllZeros);
        let mut reset = ResettingConfidence::new(IndexSpec::bhr(6), 9, InitPolicy::LastBit);
        let mut two = TwoLevelCir::new(
            IndexSpec::pc(5),
            6,
            IndexSpec::cir_xor_pc_xor_bhr(6),
            5,
            InitPolicy::Random(3),
        );
        for _ in 0..rng.range(0, 300) {
            let (pc, bhr, correct) = (rng.next(), rng.next(), rng.bool());
            for (mech, space) in [
                (&mut one as &mut dyn ConfidenceMechanism, 1u64 << 8),
                (&mut sat, 8),
                (&mut reset, 10),
                (&mut two, 1 << 5),
            ] {
                let key = mech.read_key(pc, bhr);
                assert!(key < space, "case {case}: {}: key {key}", mech.describe());
                mech.update(pc, bhr, correct);
            }
        }
    }
}

#[test]
fn read_key_is_pure() {
    for case in 0..CASES {
        let mut rng = Rng::case(6, case);
        let (pc, bhr) = (rng.next(), rng.next());
        let mut mech = ResettingConfidence::new(IndexSpec::pc_xor_bhr(8), 16, InitPolicy::AllOnes);
        for correct in rng.bools(50) {
            mech.update(pc, bhr, correct);
        }
        assert_eq!(
            mech.read_key(pc, bhr),
            mech.read_key(pc, bhr),
            "case {case}"
        );
    }
}

/// Builds fresh, identically configured one-level mechanisms of rule `E`.
type Build<E> = Box<dyn Fn() -> OneLevel<E>>;

/// A random configuration of each rule: a CIR width in `1..=32` or a
/// counter maximum in `1..=40`, over a random index and init policy.
fn cir_case(rng: &mut Rng) -> Build<CirEntry> {
    let (index, width, init) = (rng.index(), rng.range(1, 32) as u32, rng.init());
    Box::new(move || OneLevelCir::new(index.clone(), width, init))
}

fn saturating_case(rng: &mut Rng) -> Build<Saturating> {
    let (index, max, init) = (rng.index(), rng.range(1, 40) as u32, rng.init());
    Box::new(move || SaturatingConfidence::new(index.clone(), max, init))
}

fn resetting_case(rng: &mut Rng) -> Build<Resetting> {
    let (index, max, init) = (rng.index(), rng.range(1, 40) as u32, rng.init());
    Box::new(move || ResettingConfidence::new(index.clone(), max, init))
}

/// Feeds a stream half through `update` and half through `observe_batch`.
fn drive<E: Entry>(m: &mut OneLevel<E>, (pcs, bhrs, correct): &(Vec<u64>, Vec<u64>, Vec<bool>)) {
    let half = pcs.len() / 2;
    for i in 0..half {
        m.update(pcs[i], bhrs[i], correct[i]);
    }
    let mut keys = vec![0; pcs.len() - half];
    m.observe_batch(&pcs[half..], &bhrs[half..], &correct[half..], &mut keys);
}

fn save<M: ConfidenceMechanism>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.state_save(&mut out);
    out
}

/// Every entry of a table stays in `0..=max` after any outcome stream.
fn entries_stay_in_range<E: Entry>(case: u64, build: Build<E>, rng: &mut Rng) {
    let mut m = build();
    let max = m.table().max();
    let stream = rng.stream(600);
    assert!(
        m.table().entries().iter().all(|&v| v <= max),
        "case {case}: init"
    );
    drive(&mut m, &stream);
    let over = m.table().entries().iter().find(|&&v| v > max);
    assert_eq!(over, None, "case {case}: {} after the stream", m.describe());
}

/// `state_save` then `state_load` into a fresh instance round-trips, and
/// the two continue identically.
fn state_round_trips<E: Entry>(case: u64, build: Build<E>, rng: &mut Rng) {
    let mut saved = build();
    drive(&mut saved, &rng.stream(600));
    let bytes = save(&saved);
    let mut restored = build();
    restored
        .state_load(&bytes)
        .unwrap_or_else(|e| panic!("case {case}: {e}"));
    assert_eq!(save(&restored), bytes, "case {case}: {}", saved.describe());
    let mut from_wide = build();
    from_wide
        .state_load(&wide(&saved))
        .unwrap_or_else(|e| panic!("case {case}: tag-0 layout: {e}"));
    assert_eq!(save(&from_wide), bytes, "case {case}: tag-0 layout");
    let (pcs, bhrs, correct) = rng.stream(300);
    let (mut a, mut b) = (vec![0; pcs.len()], vec![0; pcs.len()]);
    saved.observe_batch(&pcs, &bhrs, &correct, &mut a);
    restored.observe_batch(&pcs, &bhrs, &correct, &mut b);
    assert_eq!(a, b, "case {case}: keys after restore");
    assert_eq!(
        save(&saved),
        save(&restored),
        "case {case}: state after restore"
    );
}

/// The same state with its table in the 4-byte layout of tag 0, as builds
/// before narrow table states wrote it: a plain `u32` count, then `u32`
/// entries, then the global CIR.
fn wide<E: Entry>(m: &OneLevel<E>) -> Vec<u8> {
    let saved = save(m);
    let mut out = Vec::new();
    put_u32_slice(&mut out, m.table().entries());
    out.extend_from_slice(&saved[saved.len() - 4..]);
    out
}

/// A blob with one entry above `max` is rejected and changes nothing: in
/// the layout the table writes, wherever its entry width can hold such a
/// value, and in the 4-byte layout of tag 0.
fn entry_above_max_is_rejected<E: Entry>(case: u64, build: Build<E>, rng: &mut Rng) {
    let mut m = build();
    drive(&mut m, &rng.stream(200));
    let (max, len) = (m.table().max(), m.table().len());
    let before = save(&m);
    // Layout: the count word, the entries, then the global CIR.
    let width = (before.len() - 8) / len;
    let i = rng.range(0, len as u64 - 1) as usize;
    let mut blobs = Vec::new();
    let top = u32::MAX >> (32 - 8 * width);
    if max < top {
        for bad in [max + 1, rng.range(max as u64 + 1, top as u64) as u32] {
            let mut blob = before.clone();
            blob[4 + width * i..4 + width * (i + 1)].copy_from_slice(&bad.to_le_bytes()[..width]);
            blobs.push((bad, blob));
        }
    }
    if max < u32::MAX {
        for bad in [max + 1, rng.range(max as u64 + 1, u32::MAX as u64) as u32] {
            let mut blob = wide(&m);
            blob[4 + 4 * i..8 + 4 * i].copy_from_slice(&bad.to_le_bytes());
            blobs.push((bad, blob));
        }
    }
    for (bad, blob) in blobs {
        assert!(
            m.state_load(&blob).is_err(),
            "case {case}: {bad:#x} > {max:#x} accepted ({}-byte layout)",
            (blob.len() - 8) / len
        );
        assert_eq!(
            save(&m),
            before,
            "case {case}: a rejected blob changed the state"
        );
    }
}

#[test]
fn table_entries_stay_within_max_for_every_rule() {
    for case in 0..CASES {
        let mut rng = Rng::case(7, case);
        entries_stay_in_range(case, cir_case(&mut rng), &mut rng);
        entries_stay_in_range(case, saturating_case(&mut rng), &mut rng);
        entries_stay_in_range(case, resetting_case(&mut rng), &mut rng);
    }
}

#[test]
fn table_state_round_trips_for_every_rule() {
    for case in 0..CASES {
        let mut rng = Rng::case(8, case);
        state_round_trips(case, cir_case(&mut rng), &mut rng);
        state_round_trips(case, saturating_case(&mut rng), &mut rng);
        state_round_trips(case, resetting_case(&mut rng), &mut rng);
    }
}

#[test]
fn table_rejects_an_entry_above_max_for_every_rule() {
    for case in 0..CASES {
        let mut rng = Rng::case(9, case);
        entry_above_max_is_rejected(case, cir_case(&mut rng), &mut rng);
        entry_above_max_is_rejected(case, saturating_case(&mut rng), &mut rng);
        entry_above_max_is_rejected(case, resetting_case(&mut rng), &mut rng);
    }
}
