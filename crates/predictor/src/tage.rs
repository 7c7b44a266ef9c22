//! TAGE-class predictors (Seznec & Michaud, JILP 2006): a base bimodal
//! table plus tagged components indexed with geometrically increasing
//! global-history lengths.
//!
//! These predictors exist in this workspace to answer the question the
//! original paper could not ask: its confidence mechanisms sit beside a
//! gshare that has no opinion about its own reliability, whereas a TAGE
//! provider counter *is* a confidence estimate. [`Tage`] and
//! [`TageScLite`] report that self-assessment through
//! [`BranchPredictor::predict_full`] — the provider component and a
//! `0..=7` strength — so the analysis layer can run the paper's external
//! mechanisms head-to-head against the predictor's own signal.
//!
//! ## Design notes
//!
//! * **No internal history.** The driver owns the global history register
//!   and passes its value to every call (see the crate docs), so history
//!   lengths are capped at the driver's 64-bit BHR and folded histories
//!   are recomputed from the `bhr` argument per call. The predictor state
//!   is tables + two policy counters only, which keeps `state_save` /
//!   `state_load` exact and makes `predict` pure.
//! * **Deterministic allocation.** On a mispredict the allocator takes
//!   the first not-useful entry above the provider (no PRNG), so replays
//!   are bit-reproducible — the property every differential suite in
//!   this repo leans on.
//! * **Scalar only.** There is no SWAR batch override: per-record work is
//!   dominated by multi-table gathers that do not lane-pack the way the
//!   two-bit predictors do, so TAGE runs on the trait's default scalar
//!   batch loop (see DESIGN.md §11).

use crate::state::{put_u32, put_u32_slice, put_u64_slice, put_u8, StateReader};
use crate::{mask, table_len, BranchPredictor, PackedTwoBit, Prediction, Provider};

/// Saturation bounds of the 3-bit signed provider counters.
const CTR_MIN: i8 = -4;
const CTR_MAX: i8 = 3;
/// Saturation bound of the 2-bit useful counters.
const U_MAX: u8 = 3;
/// Updates between useful-counter decays (every entry's `u` halves).
const TICK_PERIOD: u32 = 1 << 18;
/// `use_alt_on_na` is a 4-bit counter; alt is preferred at or above 8.
const USE_ALT_MAX: u8 = 15;
const USE_ALT_INIT: u8 = 8;

/// One tagged-component entry: 3-bit signed direction counter, partial
/// tag, 2-bit useful counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct TaggedEntry {
    ctr: i8,
    tag: u16,
    u: u8,
}

/// A tagged component and the history length it folds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Component {
    len: u32,
    entries: Vec<TaggedEntry>,
}

/// Everything one table read determines about a `(pc, bhr)` pair —
/// computed identically (and purely) by `predict`, `predict_full`, and
/// `update`, which is what keeps the three views consistent.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    /// Longest matching component (0-based) and its entry index.
    provider: Option<(usize, usize)>,
    /// Next-longest matching component; `None` means the base table.
    alt: Option<(usize, usize)>,
    provider_pred: bool,
    alt_pred: bool,
    /// Provider entry looks newly allocated (weak counter, not useful).
    newly_allocated: bool,
    /// Whether the alt prediction was used as the final direction.
    used_alt: bool,
    base_index: usize,
    base_state: u32,
    /// Final predicted direction.
    taken: bool,
}

/// Folds the low `len` bits of `bhr` into `width` bits by XOR.
fn fold(bhr: u64, len: u32, width: u32) -> u64 {
    let mut h = bhr & mask(len);
    let mut folded = 0u64;
    while h != 0 {
        folded ^= h & mask(width);
        h >>= width;
    }
    folded
}

/// Self-assessed confidence of a 3-bit provider counter: 0 (weak,
/// just-allocated) ..= 3 (saturated).
fn ctr_conf(ctr: i8) -> u8 {
    (((2 * i32::from(ctr) + 1).abs() - 1) / 2) as u8
}

/// Geometric history-length series: `lens[0] = min_len`,
/// `lens[n-1] = max_len`, strictly increasing (rounding collisions are
/// bumped up by one so every component sees distinct history).
fn geometric_lengths(ncomp: u32, min_len: u32, max_len: u32) -> Vec<u32> {
    let n = ncomp as usize;
    let ratio = (f64::from(max_len) / f64::from(min_len)).powf(1.0 / (n as f64 - 1.0));
    let mut lens = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let ideal = (f64::from(min_len) * ratio.powi(i as i32)).round() as u32;
        let len = ideal.clamp(prev + 1, max_len);
        lens.push(len);
        prev = len;
    }
    lens
}

/// The TAGE predictor: a bimodal base table plus `ncomp` tagged
/// components whose history lengths grow geometrically from `min_len`
/// to `max_len`.
///
/// Tagged components each hold `2^(base_bits - 2)` entries (so the
/// aggregate tagged storage stays within a small multiple of the base
/// table), tagged with `tag_bits`-bit partial tags and guarded by 2-bit
/// useful counters with periodic decay.
///
/// # Examples
///
/// ```
/// use cira_predictor::{BranchPredictor, Provider, Tage};
///
/// let mut p = Tage::reference_64k();
/// let full = p.predict_full(0x4000, 0b1011);
/// assert_eq!(full.taken, p.predict(0x4000, 0b1011));
/// assert!(full.strength <= cira_predictor::Prediction::MAX_STRENGTH);
/// p.update(0x4000, 0b1011, true);
/// # let _ = Provider::Base;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tage {
    base: PackedTwoBit,
    comps: Vec<Component>,
    base_bits: u32,
    comp_bits: u32,
    min_len: u32,
    max_len: u32,
    tag_bits: u32,
    /// 4-bit policy counter: prefer the alternate prediction when the
    /// provider entry is newly allocated and this is >= 8.
    use_alt_on_na: u8,
    /// Updates since the last useful-counter decay.
    tick: u32,
}

impl Tage {
    /// Creates a TAGE predictor.
    ///
    /// * `base_bits` — log2 entries of the base bimodal table (tagged
    ///   components get `base_bits - 2`).
    /// * `ncomp` — number of tagged components.
    /// * `min_len` / `max_len` — geometric history-length endpoints.
    /// * `tag_bits` — partial-tag width.
    ///
    /// # Panics
    ///
    /// Panics if `base_bits` is outside `3..=28`, `ncomp` outside
    /// `2..=12`, `tag_bits` outside `4..=15`, the lengths do not satisfy
    /// `1 <= min_len < max_len <= 64`, or there are more components than
    /// distinct lengths in `min_len..=max_len`.
    pub fn new(base_bits: u32, ncomp: u32, min_len: u32, max_len: u32, tag_bits: u32) -> Self {
        assert!(
            (3..=28).contains(&base_bits),
            "tage base_bits must be 3..=28, got {base_bits}"
        );
        assert!(
            (2..=12).contains(&ncomp),
            "tage component count must be 2..=12, got {ncomp}"
        );
        assert!(
            (4..=15).contains(&tag_bits),
            "tage tag_bits must be 4..=15, got {tag_bits}"
        );
        assert!(
            min_len >= 1 && min_len < max_len && max_len <= 64,
            "tage history lengths must satisfy 1 <= min ({min_len}) < max ({max_len}) <= 64"
        );
        assert!(
            max_len - min_len + 1 >= ncomp,
            "tage needs {ncomp} distinct history lengths in {min_len}..={max_len}"
        );
        let comp_bits = base_bits - 2;
        let comp_len = table_len(comp_bits);
        let comps = geometric_lengths(ncomp, min_len, max_len)
            .into_iter()
            .map(|len| Component {
                len,
                entries: vec![TaggedEntry::default(); comp_len],
            })
            .collect();
        cira_obs::debug!(
            "tage allocated",
            base_bits = base_bits,
            ncomp = ncomp,
            min_len = min_len,
            max_len = max_len
        );
        Self {
            // Weakly taken, matching the paper's gshare initialization.
            base: PackedTwoBit::new(table_len(base_bits), 2),
            comps,
            base_bits,
            comp_bits,
            min_len,
            max_len,
            tag_bits,
            use_alt_on_na: USE_ALT_INIT,
            tick: 0,
        }
    }

    /// The reference ~64 KiB-class configuration used by the committed
    /// experiments: `tage:14:7:4:64:11` (16K-entry base, 7 components of
    /// 4K entries, histories 4..64, 11-bit tags — ~60 KiB of state).
    pub fn reference_64k() -> Self {
        Self::new(14, 7, 4, 64, 11)
    }

    /// Entry index of component `c` for `(pc, bhr)`.
    fn comp_index(&self, c: usize, pc: u64, bhr: u64) -> usize {
        let pc2 = pc >> 2;
        let h = fold(bhr, self.comps[c].len, self.comp_bits);
        ((pc2 ^ (pc2 >> (1 + c as u32)) ^ h) & mask(self.comp_bits)) as usize
    }

    /// Partial tag of component `c` for `(pc, bhr)`. Two fold widths
    /// decorrelate the tag from the index hash.
    fn comp_tag(&self, c: usize, pc: u64, bhr: u64) -> u16 {
        let len = self.comps[c].len;
        let h1 = fold(bhr, len, self.tag_bits);
        let h2 = fold(bhr, len, self.tag_bits - 1) << 1;
        (((pc >> 2) ^ h1 ^ h2) & mask(self.tag_bits)) as u16
    }

    /// The pure table read shared by `predict`, `predict_full`, and
    /// `update`.
    fn lookup(&self, pc: u64, bhr: u64) -> Lookup {
        let base_index = ((pc >> 2) & mask(self.base_bits)) as usize;
        let base_state = self.base.state(base_index);
        let base_pred = base_state >= 2;

        let mut provider = None;
        let mut alt = None;
        for c in (0..self.comps.len()).rev() {
            let idx = self.comp_index(c, pc, bhr);
            if self.comps[c].entries[idx].tag == self.comp_tag(c, pc, bhr) {
                if provider.is_none() {
                    provider = Some((c, idx));
                } else {
                    alt = Some((c, idx));
                    break;
                }
            }
        }

        let alt_pred = match alt {
            Some((c, idx)) => self.comps[c].entries[idx].ctr >= 0,
            None => base_pred,
        };
        let (provider_pred, newly_allocated) = match provider {
            Some((c, idx)) => {
                let e = self.comps[c].entries[idx];
                (e.ctr >= 0, ctr_conf(e.ctr) == 0 && e.u == 0)
            }
            None => (base_pred, false),
        };
        let used_alt = provider.is_some() && newly_allocated && self.use_alt_on_na >= USE_ALT_INIT;
        let taken = if provider.is_none() || used_alt {
            alt_pred
        } else {
            provider_pred
        };
        Lookup {
            provider,
            alt,
            provider_pred,
            alt_pred,
            newly_allocated,
            used_alt,
            base_index,
            base_state,
            taken,
        }
    }

    /// Maps a lookup to the provenance-carrying [`Prediction`].
    fn prediction_of(&self, l: &Lookup) -> Prediction {
        let base_strength = |state: u32| if state == 0 || state == 3 { 3 } else { 1 };
        match l.provider {
            Some((c, idx)) if !l.used_alt => {
                let conf = ctr_conf(self.comps[c].entries[idx].ctr);
                let agree = if l.alt_pred == l.provider_pred { 4 } else { 0 };
                Prediction {
                    taken: l.taken,
                    provider: Provider::Tagged(c as u8 + 1),
                    strength: conf + agree,
                }
            }
            Some(_) => match l.alt {
                // A weak provider deferred to the alternate: provenance
                // follows the structure that supplied the direction.
                Some((c, idx)) => Prediction {
                    taken: l.taken,
                    provider: Provider::Tagged(c as u8 + 1),
                    strength: ctr_conf(self.comps[c].entries[idx].ctr),
                },
                None => Prediction {
                    taken: l.taken,
                    provider: Provider::Base,
                    strength: base_strength(l.base_state),
                },
            },
            None => Prediction {
                taken: l.taken,
                provider: Provider::Base,
                strength: base_strength(l.base_state),
            },
        }
    }

    /// Allocates (or ages) tagged entries after a mispredict, starting
    /// just above the provider. Deterministic: the first not-useful
    /// entry wins; if every candidate is useful, they all age instead.
    fn allocate(&mut self, above: usize, pc: u64, bhr: u64, taken: bool) {
        for c in above..self.comps.len() {
            let idx = self.comp_index(c, pc, bhr);
            if self.comps[c].entries[idx].u == 0 {
                self.comps[c].entries[idx] = TaggedEntry {
                    ctr: if taken { 0 } else { -1 },
                    tag: self.comp_tag(c, pc, bhr),
                    u: 0,
                };
                return;
            }
        }
        for c in above..self.comps.len() {
            let idx = self.comp_index(c, pc, bhr);
            let e = &mut self.comps[c].entries[idx];
            e.u = e.u.saturating_sub(1);
        }
    }

    /// Periodic graceful forgetting: every [`TICK_PERIOD`] updates, halve
    /// every useful counter so stale entries become reclaimable.
    fn decay_tick(&mut self) {
        self.tick += 1;
        if self.tick >= TICK_PERIOD {
            self.tick = 0;
            for comp in &mut self.comps {
                for e in &mut comp.entries {
                    e.u >>= 1;
                }
            }
        }
    }
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.lookup(pc, bhr).taken
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        let l = self.lookup(pc, bhr);
        self.prediction_of(&l)
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let l = self.lookup(pc, bhr);
        if let Some((c, idx)) = l.provider {
            // The use-alt policy learns from cases where provider and
            // alternate disagreed on a newly allocated entry.
            if l.newly_allocated && l.provider_pred != l.alt_pred {
                if l.alt_pred == taken {
                    self.use_alt_on_na = (self.use_alt_on_na + 1).min(USE_ALT_MAX);
                } else {
                    self.use_alt_on_na = self.use_alt_on_na.saturating_sub(1);
                }
            }
            // Usefulness: the provider proved (or disproved) its worth
            // only where it disagreed with the alternate.
            if l.provider_pred != l.alt_pred {
                let e = &mut self.comps[c].entries[idx];
                if l.provider_pred == taken {
                    e.u = (e.u + 1).min(U_MAX);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
            let e = &mut self.comps[c].entries[idx];
            e.ctr = if taken {
                (e.ctr + 1).min(CTR_MAX)
            } else {
                (e.ctr - 1).max(CTR_MIN)
            };
        } else {
            self.base.train(l.base_index, taken);
        }
        if l.taken != taken {
            let above = l.provider.map_or(0, |(c, _)| c + 1);
            if above < self.comps.len() {
                self.allocate(above, pc, bhr, taken);
            }
        }
        self.decay_tick();
    }

    fn describe(&self) -> String {
        format!(
            "tage({},{}c,{}..{},tag{})",
            self.base_bits,
            self.comps.len(),
            self.min_len,
            self.max_len,
            self.tag_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        put_u64_slice(out, self.base.words());
        for comp in &self.comps {
            let packed: Vec<u32> = comp
                .entries
                .iter()
                .map(|e| u32::from(e.ctr as u8) | (u32::from(e.u) << 8) | (u32::from(e.tag) << 16))
                .collect();
            put_u32_slice(out, &packed);
        }
        put_u8(out, self.use_alt_on_na);
        put_u32(out, self.tick);
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        let words = r.u64_vec()?;
        let mut comps = Vec::with_capacity(self.comps.len());
        for (c, comp) in self.comps.iter().enumerate() {
            let packed = r.u32_vec()?;
            if packed.len() != comp.entries.len() {
                return Err(format!(
                    "tage component {c} restore: got {} entries, need {}",
                    packed.len(),
                    comp.entries.len()
                ));
            }
            let mut entries = Vec::with_capacity(packed.len());
            for (i, p) in packed.iter().enumerate() {
                let e = TaggedEntry {
                    ctr: (p & 0xff) as u8 as i8,
                    u: ((p >> 8) & 0xff) as u8,
                    tag: ((p >> 16) & 0xffff) as u16,
                };
                if !(CTR_MIN..=CTR_MAX).contains(&e.ctr)
                    || e.u > U_MAX
                    || u64::from(e.tag) > mask(self.tag_bits)
                {
                    return Err(format!("tage component {c} entry {i} out of range: {p:#x}"));
                }
                entries.push(e);
            }
            comps.push(entries);
        }
        let use_alt = r.u8()?;
        if use_alt > USE_ALT_MAX {
            return Err(format!(
                "tage use_alt_on_na {use_alt} exceeds {USE_ALT_MAX}"
            ));
        }
        let tick = r.u32()?;
        if tick >= TICK_PERIOD {
            return Err(format!("tage tick {tick} exceeds period {TICK_PERIOD}"));
        }
        r.finish()?;
        self.base.load_words(&words)?;
        for (comp, entries) in self.comps.iter_mut().zip(comps) {
            comp.entries = entries;
        }
        self.use_alt_on_na = use_alt;
        self.tick = tick;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TAGE-SC-lite
// ---------------------------------------------------------------------

/// Loop-predictor table size (direct-mapped, 64 entries).
const LOOP_BITS: u32 = 6;
/// Loop-predictor tag width (bits 17..8 of the PC).
const LOOP_TAG_BITS: u32 = 10;
/// Loop confidence needed before the loop predictor overrides TAGE.
const LOOP_CONF_MAX: u8 = 3;
/// Replacement age assigned on allocation / successful use.
const LOOP_AGE_MAX: u8 = 7;

/// Statistical-corrector geometry: three 6-bit-counter tables indexed by
/// PC folded with 0, 8, and 16 bits of history.
const SC_TABLE_BITS: u32 = 10;
const SC_HIST: [u32; 3] = [0, 8, 16];
const SC_CTR_MIN: i8 = -32;
const SC_CTR_MAX: i8 = 31;
/// Corrector vote margin needed to overturn a weak TAGE prediction, and
/// the update margin below which its counters keep training.
const SC_THRESHOLD: i32 = 10;
/// TAGE strengths below this are "weak" and open to correction (i.e. the
/// provider counter is not saturated-with-agreement).
const SC_WEAK_STRENGTH: u8 = 4;

/// One loop-predictor entry: the branch repeats `dir` for `past` trips,
/// then goes the other way once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LoopEntry {
    tag: u16,
    /// Learned trip count (0 = not yet observed).
    past: u16,
    /// Trips seen in the current iteration.
    curr: u16,
    /// Confidence that `past` is stable; predicts only when saturated.
    conf: u8,
    /// Replacement age (0 = reclaimable).
    age: u8,
    /// The repeated direction.
    dir: bool,
}

impl LoopEntry {
    /// Direction this entry predicts at its current trip position.
    fn predicts(&self) -> bool {
        if self.curr < self.past {
            self.dir
        } else {
            !self.dir
        }
    }
}

/// [`Tage`] plus two small side predictors, after TAGE-SC-L (Seznec,
/// CBP-4): a loop predictor that captures regular loop trip counts
/// beyond any history length, and a lightweight statistical corrector
/// that can overturn weak TAGE predictions when its per-branch
/// direction statistics strongly disagree.
///
/// The corrector is the "lite" GEHL form: three 6-bit-counter tables
/// over 0/8/16-bit folded histories, voting only against predictions
/// whose provider strength is below [`Prediction::MAX_STRENGTH`]'s
/// agreement band.
#[derive(Debug, Clone, PartialEq)]
pub struct TageScLite {
    tage: Tage,
    loops: Vec<LoopEntry>,
    sc: Vec<Vec<i8>>,
}

/// What the side predictors decided for one `(pc, bhr)` — pure, like
/// [`Tage::lookup`].
#[derive(Debug, Clone, Copy)]
struct ScLookup {
    /// Loop entry index.
    loop_idx: usize,
    /// Loop tag matched.
    loop_hit: bool,
    /// Loop predictor is confident enough to override.
    loop_overrides: bool,
    loop_pred: bool,
    /// Per-table corrector indices.
    sc_idx: [usize; 3],
    /// Corrector vote, centered on taken (> 0 leans taken).
    sc_sum: i32,
    /// Corrector overturned the (weak) TAGE direction.
    sc_overrides: bool,
    /// Final direction after both overrides.
    taken: bool,
}

impl TageScLite {
    /// Creates a TAGE-SC-lite predictor; parameters and panics as in
    /// [`Tage::new`] (the loop and corrector tables are fixed-size).
    pub fn new(base_bits: u32, ncomp: u32, min_len: u32, max_len: u32, tag_bits: u32) -> Self {
        Self {
            tage: Tage::new(base_bits, ncomp, min_len, max_len, tag_bits),
            loops: vec![LoopEntry::default(); table_len(LOOP_BITS)],
            sc: SC_HIST
                .iter()
                .map(|_| vec![0i8; table_len(SC_TABLE_BITS)])
                .collect(),
        }
    }

    /// The reference ~64 KiB-class configuration (see
    /// [`Tage::reference_64k`]; loop + corrector add ~2.8 KiB).
    pub fn reference_64k() -> Self {
        Self {
            tage: Tage::reference_64k(),
            loops: vec![LoopEntry::default(); table_len(LOOP_BITS)],
            sc: SC_HIST
                .iter()
                .map(|_| vec![0i8; table_len(SC_TABLE_BITS)])
                .collect(),
        }
    }

    fn loop_tag(pc: u64) -> u16 {
        ((pc >> (2 + LOOP_BITS)) & mask(LOOP_TAG_BITS)) as u16
    }

    /// Pure side-predictor read, given TAGE's prediction for the pair.
    fn sc_lookup(&self, pc: u64, bhr: u64, tage_pred: &Prediction) -> ScLookup {
        let loop_idx = ((pc >> 2) & mask(LOOP_BITS)) as usize;
        let entry = self.loops[loop_idx];
        let loop_hit = entry.tag == Self::loop_tag(pc) && entry.age > 0;
        let loop_overrides = loop_hit && entry.conf >= LOOP_CONF_MAX && entry.past > 0;
        let loop_pred = entry.predicts();

        let mut sc_idx = [0usize; 3];
        let mut sc_sum = 0i32;
        for (t, &len) in SC_HIST.iter().enumerate() {
            let idx = (((pc >> 2) ^ fold(bhr, len, SC_TABLE_BITS) ^ (t as u64 * 0x9e37))
                & mask(SC_TABLE_BITS)) as usize;
            sc_idx[t] = idx;
            sc_sum += 2 * i32::from(self.sc[t][idx]) + 1;
        }
        let sc_pred = sc_sum >= 0;
        let sc_overrides = !loop_overrides
            && tage_pred.strength < SC_WEAK_STRENGTH
            && sc_sum.abs() >= SC_THRESHOLD
            && sc_pred != tage_pred.taken;

        let taken = if loop_overrides {
            loop_pred
        } else if sc_overrides {
            sc_pred
        } else {
            tage_pred.taken
        };
        ScLookup {
            loop_idx,
            loop_hit,
            loop_overrides,
            loop_pred,
            sc_idx,
            sc_sum,
            sc_overrides,
            taken,
        }
    }

    fn full_prediction(&self, pc: u64, bhr: u64) -> (Prediction, ScLookup) {
        let tage_pred = self.tage.predict_full(pc, bhr);
        let s = self.sc_lookup(pc, bhr, &tage_pred);
        let prediction = if s.loop_overrides {
            Prediction {
                taken: s.taken,
                provider: Provider::Loop,
                strength: Prediction::MAX_STRENGTH,
            }
        } else if s.sc_overrides {
            Prediction {
                taken: s.taken,
                provider: Provider::Corrector,
                strength: (s.sc_sum.unsigned_abs() / 4).min(7) as u8,
            }
        } else {
            tage_pred
        };
        (prediction, s)
    }
}

impl BranchPredictor for TageScLite {
    fn predict(&self, pc: u64, bhr: u64) -> bool {
        self.full_prediction(pc, bhr).0.taken
    }

    fn predict_full(&self, pc: u64, bhr: u64) -> Prediction {
        self.full_prediction(pc, bhr).0
    }

    fn update(&mut self, pc: u64, bhr: u64, taken: bool) {
        let tage_pred = self.tage.predict_full(pc, bhr);
        let s = self.sc_lookup(pc, bhr, &tage_pred);

        // Loop predictor: train matched entries; allocate on a final
        // mispredict when the slot has aged out.
        let e = &mut self.loops[s.loop_idx];
        if s.loop_hit {
            if taken == e.dir {
                e.curr = e.curr.saturating_add(1);
                if e.past > 0 && e.curr > e.past {
                    // Ran past the learned trip count: not a stable loop.
                    e.conf = 0;
                    e.past = 0;
                }
            } else {
                if e.past == e.curr && e.past > 0 {
                    e.conf = (e.conf + 1).min(LOOP_CONF_MAX);
                } else {
                    e.conf = if e.past == 0 { 1 } else { 0 };
                }
                e.past = e.curr;
                e.curr = 0;
            }
            if s.loop_overrides {
                if s.loop_pred == taken {
                    e.age = LOOP_AGE_MAX;
                } else {
                    e.age = e.age.saturating_sub(1);
                }
            }
        } else if s.taken != taken {
            if e.age == 0 {
                // The mispredict that prompts allocation is typically the
                // loop *exit*, so the repeated direction is the opposite
                // of the outcome just observed.
                *e = LoopEntry {
                    tag: Self::loop_tag(pc),
                    past: 0,
                    curr: 0,
                    conf: 0,
                    age: LOOP_AGE_MAX,
                    dir: !taken,
                };
            } else {
                e.age -= 1;
            }
        }

        // Corrector: GEHL-style update on weak TAGE predictions whenever
        // the vote was wrong or inside the training margin.
        if tage_pred.strength < SC_WEAK_STRENGTH {
            let sc_pred = s.sc_sum >= 0;
            if sc_pred != taken || s.sc_sum.abs() < SC_THRESHOLD {
                for (t, &idx) in s.sc_idx.iter().enumerate() {
                    let c = &mut self.sc[t][idx];
                    *c = if taken {
                        (*c + 1).min(SC_CTR_MAX)
                    } else {
                        (*c - 1).max(SC_CTR_MIN)
                    };
                }
            }
        }

        // The TAGE core trains on its own prediction (allocation keys off
        // the tagged-path mispredict, not the overridden final).
        self.tage.update(pc, bhr, taken);
    }

    fn describe(&self) -> String {
        format!(
            "tage-sc-lite({},{}c,{}..{},tag{})",
            self.tage.base_bits,
            self.tage.comps.len(),
            self.tage.min_len,
            self.tage.max_len,
            self.tage.tag_bits
        )
    }

    fn state_save(&self, out: &mut Vec<u8>) {
        self.tage.state_save(out);
        let packed: Vec<u64> = self
            .loops
            .iter()
            .map(|e| {
                u64::from(e.tag)
                    | (u64::from(e.past) << 16)
                    | (u64::from(e.curr) << 32)
                    | (u64::from(e.conf) << 48)
                    | (u64::from(e.age) << 51)
                    | (u64::from(e.dir) << 59)
            })
            .collect();
        put_u64_slice(out, &packed);
        for table in &self.sc {
            let packed: Vec<u32> = table.iter().map(|&c| u32::from(c as u8)).collect();
            put_u32_slice(out, &packed);
        }
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        // The TAGE core consumed a prefix of the blob; re-frame it so the
        // core's reader sees exactly its own bytes. Easiest split: save
        // the current core to learn its byte length (it is fixed for a
        // given configuration).
        let mut core_probe = Vec::new();
        self.tage.state_save(&mut core_probe);
        if bytes.len() < core_probe.len() {
            return Err(format!(
                "tage-sc-lite blob truncated: {} bytes, core alone needs {}",
                bytes.len(),
                core_probe.len()
            ));
        }
        let (core_bytes, rest) = bytes.split_at(core_probe.len());

        let mut r = StateReader::new(rest);
        let packed_loops = r.u64_vec()?;
        if packed_loops.len() != self.loops.len() {
            return Err(format!(
                "loop table restore: got {} entries, need {}",
                packed_loops.len(),
                self.loops.len()
            ));
        }
        let mut loops = Vec::with_capacity(packed_loops.len());
        for (i, p) in packed_loops.iter().enumerate() {
            let e = LoopEntry {
                tag: (p & 0xffff) as u16,
                past: ((p >> 16) & 0xffff) as u16,
                curr: ((p >> 32) & 0xffff) as u16,
                conf: ((p >> 48) & 0x7) as u8,
                age: ((p >> 51) & 0xff) as u8,
                dir: (p >> 59) & 1 == 1,
            };
            if u64::from(e.tag) > mask(LOOP_TAG_BITS)
                || e.conf > LOOP_CONF_MAX
                || e.age > LOOP_AGE_MAX
                || p >> 60 != 0
            {
                return Err(format!("loop entry {i} out of range: {p:#x}"));
            }
            loops.push(e);
        }
        let mut sc = Vec::with_capacity(self.sc.len());
        for (t, table) in self.sc.iter().enumerate() {
            let packed = r.u32_vec()?;
            if packed.len() != table.len() {
                return Err(format!(
                    "corrector table {t} restore: got {} entries, need {}",
                    packed.len(),
                    table.len()
                ));
            }
            let mut counters = Vec::with_capacity(packed.len());
            for (i, p) in packed.iter().enumerate() {
                let c = (p & 0xff) as u8 as i8;
                if *p > 0xff || !(SC_CTR_MIN..=SC_CTR_MAX).contains(&c) {
                    return Err(format!(
                        "corrector table {t} entry {i} out of range: {p:#x}"
                    ));
                }
                counters.push(c);
            }
            sc.push(counters);
        }
        r.finish()?;
        self.tage.state_load(core_bytes)?;
        self.loops = loops;
        self.sc = sc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gshare, HistoryRegister};

    #[test]
    fn geometric_lengths_hit_endpoints_and_increase() {
        let lens = geometric_lengths(7, 4, 64);
        assert_eq!(lens.first(), Some(&4));
        assert_eq!(lens.last(), Some(&64));
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        // Degenerate-adjacent case: every length distinct even when the
        // rounding collides.
        let tight = geometric_lengths(5, 2, 8);
        assert!(tight.windows(2).all(|w| w[0] < w[1]), "{tight:?}");
    }

    #[test]
    fn fold_compresses_history() {
        assert_eq!(fold(0, 64, 8), 0);
        assert_eq!(fold(0b1111_0110_1010, 12, 4), 0b1111 ^ 0b0110 ^ 0b1010);
        // Only the low `len` bits participate.
        assert_eq!(fold(u64::MAX, 4, 8), 0xf);
    }

    #[test]
    fn ctr_conf_scale() {
        assert_eq!(ctr_conf(0), 0);
        assert_eq!(ctr_conf(-1), 0);
        assert_eq!(ctr_conf(3), 3);
        assert_eq!(ctr_conf(-4), 3);
        assert_eq!(ctr_conf(1), 1);
        assert_eq!(ctr_conf(-2), 1);
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn too_few_components_rejected() {
        Tage::new(10, 1, 2, 32, 8);
    }

    #[test]
    #[should_panic(expected = "1 <= min")]
    fn inverted_history_lengths_rejected() {
        Tage::new(10, 4, 32, 32, 8);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(Tage::reference_64k().describe(), "tage(14,7c,4..64,tag11)");
        assert_eq!(
            TageScLite::new(10, 4, 2, 32, 9).describe(),
            "tage-sc-lite(10,4c,2..32,tag9)"
        );
    }

    #[test]
    fn predict_is_projection_of_predict_full() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        let mut x = 11u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (pc, bhr, taken) = (x & 0xffff, x >> 16, x >> 63 == 1);
            let full = p.predict_full(pc, bhr);
            assert_eq!(full.taken, p.predict(pc, bhr));
            assert!(full.strength <= Prediction::MAX_STRENGTH);
            p.update(pc, bhr, taken);
        }
    }

    #[test]
    fn learns_long_history_patterns_gshare_cannot() {
        // Loop with trip count 40: the full pattern needs ~41 bits of
        // history. gshare(12,12) cannot disambiguate the exit; a TAGE
        // component at length >= 41 can.
        let run = |p: &mut dyn BranchPredictor| {
            let mut bhr = HistoryRegister::new(64);
            let mut wrong_late = 0u32;
            for i in 0..40_000u64 {
                let taken = i % 41 != 40;
                let pred = p.predict_train(0x80, bhr.value(), taken);
                if i > 20_000 && pred != taken {
                    wrong_late += 1;
                }
                bhr.push(taken);
            }
            wrong_late
        };
        let mut tage = Tage::new(10, 6, 4, 64, 10);
        let mut gshare = Gshare::new(12, 12);
        let tage_wrong = run(&mut tage);
        let gshare_wrong = run(&mut gshare);
        assert!(
            tage_wrong < 25,
            "tage should learn the trip-41 loop, got {tage_wrong} late mispredicts"
        );
        assert!(
            gshare_wrong > 200,
            "gshare(12,12) should keep missing the exit, got {gshare_wrong}"
        );
    }

    #[test]
    fn provider_moves_off_base_as_components_allocate() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        let mut bhr = HistoryRegister::new(64);
        let mut tagged_seen = false;
        for i in 0..5000u64 {
            let taken = i % 3 == 0;
            let full = p.predict_full(0x40, bhr.value());
            if matches!(full.provider, Provider::Tagged(_)) {
                tagged_seen = true;
            }
            p.update(0x40, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(tagged_seen, "no tagged component ever provided");
    }

    #[test]
    fn loop_predictor_catches_trips_beyond_any_history() {
        // Trip count 100 exceeds the 64-bit BHR, so the tagged components
        // cannot see the exit coming — only the loop predictor can.
        let run = |p: &mut dyn BranchPredictor| {
            let mut bhr = HistoryRegister::new(64);
            let mut wrong_late = 0u32;
            for i in 0..60_000u64 {
                let taken = i % 101 != 100;
                let pred = p.predict_train(0x80, bhr.value(), taken);
                if i > 30_000 && pred != taken {
                    wrong_late += 1;
                }
                bhr.push(taken);
            }
            wrong_late
        };
        let scl_wrong = run(&mut TageScLite::new(10, 4, 4, 64, 10));
        let tage_wrong = run(&mut Tage::new(10, 4, 4, 64, 10));
        assert!(
            scl_wrong < tage_wrong,
            "loop predictor should beat plain tage on a trip-101 loop: \
             sc-lite {scl_wrong} vs tage {tage_wrong}"
        );
        assert!(scl_wrong < 30, "sc-lite late mispredicts: {scl_wrong}");
    }

    #[test]
    fn loop_provider_reported_when_overriding() {
        let mut p = TageScLite::new(10, 4, 4, 64, 10);
        let mut bhr = HistoryRegister::new(64);
        let mut loop_seen = false;
        for i in 0..60_000u64 {
            let taken = i % 101 != 100;
            if p.predict_full(0x80, bhr.value()).provider == Provider::Loop {
                loop_seen = true;
            }
            p.update(0x80, bhr.value(), taken);
            bhr.push(taken);
        }
        assert!(loop_seen, "loop predictor never became the provider");
    }

    /// Drives `n` synthetic branches through a predictor, mixing several
    /// PCs and outcome patterns so tagged components, the loop table,
    /// and the corrector all see traffic.
    fn exercise(p: &mut dyn BranchPredictor, n: u64, seed: u64) {
        let mut bhr = HistoryRegister::new(64);
        let mut x = seed | 1;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40 + (x % 23) * 4;
            let taken = match x % 3 {
                0 => i % 7 != 6,
                1 => x & 8 == 0,
                _ => i % 41 != 40,
            };
            p.predict_train(pc, bhr.value(), taken);
            bhr.push(taken);
        }
    }

    #[test]
    fn state_round_trips_bit_identically() {
        for (a, b) in [
            (
                Box::new(Tage::new(8, 4, 2, 24, 8)) as Box<dyn BranchPredictor>,
                Box::new(Tage::new(8, 4, 2, 24, 8)) as Box<dyn BranchPredictor>,
            ),
            (
                Box::new(TageScLite::new(8, 4, 2, 24, 8)),
                Box::new(TageScLite::new(8, 4, 2, 24, 8)),
            ),
        ] {
            let (mut trained, mut fresh) = (a, b);
            exercise(&mut *trained, 20_000, 0xc1a0);
            let mut blob = Vec::new();
            trained.state_save(&mut blob);
            fresh.state_load(&blob).unwrap();
            // Same future behavior and identical re-saved bytes.
            let mut blob2 = Vec::new();
            fresh.state_save(&mut blob2);
            assert_eq!(blob, blob2, "{}", trained.describe());
            exercise(&mut *trained, 5_000, 7);
            exercise(&mut *fresh, 5_000, 7);
            let mut after_a = Vec::new();
            let mut after_b = Vec::new();
            trained.state_save(&mut after_a);
            fresh.state_save(&mut after_b);
            assert_eq!(after_a, after_b, "{}", trained.describe());
        }
    }

    #[test]
    fn state_load_rejects_corruption() {
        let mut p = Tage::new(8, 4, 2, 24, 8);
        exercise(&mut p, 5_000, 3);
        let mut blob = Vec::new();
        p.state_save(&mut blob);

        let mut fresh = Tage::new(8, 4, 2, 24, 8);
        assert!(fresh.state_load(&blob[..blob.len() - 1]).is_err());
        assert!(fresh.state_load(&[]).is_err());
        let mut extended = blob.clone();
        extended.push(0);
        assert!(fresh.state_load(&extended).is_err());
        // A differently configured instance must refuse the blob.
        let mut other = Tage::new(10, 4, 2, 24, 8);
        assert!(other.state_load(&blob).is_err());

        let mut scl = TageScLite::new(8, 4, 2, 24, 8);
        let mut scl_blob = Vec::new();
        scl.state_save(&mut scl_blob);
        assert!(scl.state_load(&scl_blob[..scl_blob.len() - 3]).is_err());
    }

    #[test]
    fn useful_counters_decay_on_tick() {
        let mut p = Tage::new(6, 2, 2, 8, 6);
        // Force a useful entry, then cross the tick boundary.
        p.comps[0].entries[0].u = 3;
        p.tick = TICK_PERIOD - 1;
        p.update(0x1234, 0, true);
        assert_eq!(p.comps[0].entries[0].u, 1, "u should halve on decay");
        assert_eq!(p.tick, 0);
    }
}
