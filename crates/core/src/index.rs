//! Confidence-table index functions.
//!
//! §3.1 of the paper enumerates the ways a CIR table can be indexed: the
//! branch PC, the global branch history register (BHR), a global CIR, and
//! combinations of these formed by exclusive-OR or by concatenating
//! sub-fields. [`IndexSpec`] captures that whole family; the paper's three
//! reported one-level variants are [`IndexSpec::pc`], [`IndexSpec::bhr`],
//! and [`IndexSpec::pc_xor_bhr`], and the two-level variants add the
//! level-one CIR as a source.

use std::fmt;

/// The values available to an index function at lookup time.
///
/// `cir` is the level-one CIR value (meaningful only when indexing a
/// second-level table); `global_cir` is the process-wide
/// correct/incorrect history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct IndexInputs {
    /// Branch program counter.
    pub pc: u64,
    /// Global branch history register value.
    pub bhr: u64,
    /// Level-one CIR value (two-level mechanisms only).
    pub cir: u64,
    /// Global correct/incorrect register value.
    pub global_cir: u64,
}

/// One component of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexSource {
    /// The branch PC (shifted right by 2: 4-byte aligned instructions).
    Pc,
    /// The global branch history register.
    Bhr,
    /// The CIR read from the first-level table (two-level methods).
    Cir,
    /// The global correct/incorrect register.
    GlobalCir,
}

impl IndexSource {
    fn extract(self, inputs: IndexInputs) -> u64 {
        match self {
            IndexSource::Pc => inputs.pc >> 2,
            IndexSource::Bhr => inputs.bhr,
            IndexSource::Cir => inputs.cir,
            IndexSource::GlobalCir => inputs.global_cir,
        }
    }

    fn label(self) -> &'static str {
        match self {
            IndexSource::Pc => "PC",
            IndexSource::Bhr => "BHR",
            IndexSource::Cir => "CIR",
            IndexSource::GlobalCir => "GCIR",
        }
    }
}

/// How multiple sources are combined into one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combine {
    /// Exclusive-OR all sources (each masked to the full index width).
    Xor,
    /// Concatenate sub-fields: the index width is split evenly across the
    /// sources (the first source receives any remainder and occupies the
    /// most-significant field).
    Concat,
}

/// A complete index function: sources, combination, and output width.
///
/// # Examples
///
/// ```
/// use cira_core::index::{IndexInputs, IndexSpec};
///
/// let spec = IndexSpec::pc_xor_bhr(16);
/// let idx = spec.index(IndexInputs { pc: 0x4000, bhr: 0xff, ..Default::default() });
/// assert_eq!(idx, ((0x4000u64 >> 2) ^ 0xff) as usize & 0xffff);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    sources: Vec<IndexSource>,
    combine: Combine,
    bits: u32,
}

impl IndexSpec {
    /// Creates an index spec.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, `bits` is outside `1..=28`, or a
    /// `Concat` split would leave a source with zero bits.
    pub fn new(sources: Vec<IndexSource>, combine: Combine, bits: u32) -> Self {
        assert!(!sources.is_empty(), "index spec needs at least one source");
        assert!((1..=28).contains(&bits), "index width must be 1..=28 bits");
        if combine == Combine::Concat {
            assert!(
                bits as usize >= sources.len(),
                "concat of {} sources cannot fit in {bits} bits",
                sources.len()
            );
        }
        Self {
            sources,
            combine,
            bits,
        }
    }

    /// Index by PC alone.
    pub fn pc(bits: u32) -> Self {
        Self::new(vec![IndexSource::Pc], Combine::Xor, bits)
    }

    /// Index by the global BHR alone.
    pub fn bhr(bits: u32) -> Self {
        Self::new(vec![IndexSource::Bhr], Combine::Xor, bits)
    }

    /// Index by `PC ⊕ BHR` — the paper's best one-level method.
    pub fn pc_xor_bhr(bits: u32) -> Self {
        Self::new(vec![IndexSource::Pc, IndexSource::Bhr], Combine::Xor, bits)
    }

    /// Index by the level-one CIR alone (second-level tables).
    pub fn cir(bits: u32) -> Self {
        Self::new(vec![IndexSource::Cir], Combine::Xor, bits)
    }

    /// Index by `CIR ⊕ PC ⊕ BHR` (the paper's third two-level variant).
    pub fn cir_xor_pc_xor_bhr(bits: u32) -> Self {
        Self::new(
            vec![IndexSource::Cir, IndexSource::Pc, IndexSource::Bhr],
            Combine::Xor,
            bits,
        )
    }

    /// Index by the global CIR alone (§3.1 reports this performs poorly;
    /// provided for the ablation).
    pub fn global_cir(bits: u32) -> Self {
        Self::new(vec![IndexSource::GlobalCir], Combine::Xor, bits)
    }

    /// Concatenation of PC and BHR sub-fields (the paper's "concatenating
    /// sub-fields" alternative; the index-hash ablation compares this
    /// against XOR).
    pub fn pc_concat_bhr(bits: u32) -> Self {
        Self::new(
            vec![IndexSource::Pc, IndexSource::Bhr],
            Combine::Concat,
            bits,
        )
    }

    /// Output width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of table entries this spec addresses.
    pub fn table_len(&self) -> usize {
        1usize << self.bits
    }

    /// The sources feeding the index.
    pub fn sources(&self) -> &[IndexSource] {
        &self.sources
    }

    /// Whether the spec reads the level-one CIR (i.e. is a second-level
    /// index).
    pub fn uses_cir(&self) -> bool {
        self.sources.contains(&IndexSource::Cir)
    }

    /// Whether the spec reads the global CIR.
    pub fn uses_global_cir(&self) -> bool {
        self.sources.contains(&IndexSource::GlobalCir)
    }

    /// Precompiles the spec for hot loops: specs that combine only PC,
    /// BHR and/or the level-one CIR by XOR reduce to three masked XOR
    /// terms, letting batch kernels skip the per-record source
    /// interpreter. Returns `None` for everything else (global-CIR
    /// sources, concatenation).
    pub fn compile_xor(&self) -> Option<XorIndex> {
        if self.combine != Combine::Xor {
            return None;
        }
        let mask = (1u64 << self.bits) - 1;
        let mut compiled = XorIndex {
            pc: 0,
            bhr: 0,
            cir: 0,
        };
        for s in &self.sources {
            // XOR semantics: repeated sources cancel pairwise.
            match s {
                IndexSource::Pc => compiled.pc ^= mask,
                IndexSource::Bhr => compiled.bhr ^= mask,
                IndexSource::Cir => compiled.cir ^= mask,
                IndexSource::GlobalCir => return None,
            }
        }
        Some(compiled)
    }

    /// Computes the table index for the given inputs.
    pub fn index(&self, inputs: IndexInputs) -> usize {
        let mask = (1u64 << self.bits) - 1;
        match self.combine {
            Combine::Xor => {
                let mut acc = 0u64;
                for s in &self.sources {
                    acc ^= s.extract(inputs);
                }
                (acc & mask) as usize
            }
            Combine::Concat => {
                let n = self.sources.len() as u32;
                let share = self.bits / n;
                let remainder = self.bits - share * n;
                let mut acc = 0u64;
                for (i, s) in self.sources.iter().enumerate() {
                    let width = if i == 0 { share + remainder } else { share };
                    let field_mask = if width >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << width) - 1
                    };
                    acc = (acc << width) | (s.extract(inputs) & field_mask);
                }
                (acc & mask) as usize
            }
        }
    }
}

/// Precompiled XOR index over PC, BHR and the level-one CIR — see
/// [`IndexSpec::compile_xor`]. Computes exactly what [`IndexSpec::index`]
/// would for the same spec. Each field is the output mask if its source
/// takes part and 0 if not, so the index is branchless.
#[derive(Debug, Clone, Copy)]
pub struct XorIndex {
    pc: u64,
    bhr: u64,
    cir: u64,
}

impl XorIndex {
    /// The table index for `(pc, bhr)` and the level-one CIR `cir` (pass 0
    /// for a first-level or one-level spec, which never reads it).
    #[inline]
    pub fn index(self, pc: u64, bhr: u64, cir: u64) -> usize {
        (((pc >> 2) & self.pc) ^ (bhr & self.bhr) ^ (cir & self.cir)) as usize
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sep = match self.combine {
            Combine::Xor => "^",
            Combine::Concat => "||",
        };
        let parts: Vec<&str> = self.sources.iter().map(|s| s.label()).collect();
        write!(f, "{}[{}b]", parts.join(sep), self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(pc: u64, bhr: u64) -> IndexInputs {
        IndexInputs {
            pc,
            bhr,
            ..Default::default()
        }
    }

    #[test]
    fn pc_index_drops_alignment_bits() {
        let spec = IndexSpec::pc(8);
        assert_eq!(spec.index(inputs(0x404, 0)), 0x101 & 0xff);
    }

    #[test]
    fn bhr_index_masks() {
        let spec = IndexSpec::bhr(4);
        assert_eq!(spec.index(inputs(0, 0xabc)), 0xc);
    }

    #[test]
    fn xor_combination_matches_gshare_style() {
        let spec = IndexSpec::pc_xor_bhr(16);
        let idx = spec.index(inputs(0x1_2344, 0x00ff));
        assert_eq!(idx, (((0x1_2344u64 >> 2) ^ 0xff) & 0xffff) as usize);
    }

    #[test]
    fn concat_splits_fields() {
        // 8 bits over [Pc, Bhr]: PC gets the top 4, BHR the bottom 4.
        let spec = IndexSpec::pc_concat_bhr(8);
        let idx = spec.index(inputs(0b1011 << 2, 0b0110));
        assert_eq!(idx, 0b1011_0110);
    }

    #[test]
    fn concat_remainder_goes_to_first_source() {
        // 9 bits over 2 sources: first gets 5, second 4.
        let spec = IndexSpec::new(vec![IndexSource::Pc, IndexSource::Bhr], Combine::Concat, 9);
        let idx = spec.index(inputs(0b11111 << 2, 0b1111));
        assert_eq!(idx, 0b1_1111_1111);
    }

    #[test]
    fn cir_sources_read_cir_fields() {
        let spec = IndexSpec::cir_xor_pc_xor_bhr(8);
        let idx = spec.index(IndexInputs {
            pc: 0,
            bhr: 0b0011,
            cir: 0b0101,
            global_cir: 0,
        });
        assert_eq!(idx, 0b0110);
        assert!(spec.uses_cir());
        assert!(!spec.uses_global_cir());
    }

    #[test]
    fn global_cir_source() {
        let spec = IndexSpec::global_cir(6);
        let idx = spec.index(IndexInputs {
            global_cir: 0b111000,
            ..Default::default()
        });
        assert_eq!(idx, 0b111000);
        assert!(spec.uses_global_cir());
    }

    #[test]
    fn compiled_xor_matches_interpreter() {
        let specs = [
            IndexSpec::pc(10),
            IndexSpec::bhr(7),
            IndexSpec::pc_xor_bhr(16),
            IndexSpec::cir(4),
            IndexSpec::cir_xor_pc_xor_bhr(12),
            // Repeated sources cancel: this is BHR alone.
            IndexSpec::new(
                vec![IndexSource::Pc, IndexSource::Bhr, IndexSource::Pc],
                Combine::Xor,
                9,
            ),
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for spec in &specs {
            let fast = spec.compile_xor().unwrap();
            for _ in 0..200 {
                x = x.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let inputs = IndexInputs {
                    pc: x,
                    bhr: x.rotate_left(23),
                    cir: x >> 40,
                    global_cir: 0,
                };
                assert_eq!(
                    fast.index(inputs.pc, inputs.bhr, inputs.cir),
                    spec.index(inputs),
                    "{spec}"
                );
            }
        }
        assert!(IndexSpec::global_cir(6).compile_xor().is_none());
        assert!(IndexSpec::pc_concat_bhr(8).compile_xor().is_none());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(IndexSpec::pc_xor_bhr(16).to_string(), "PC^BHR[16b]");
        assert_eq!(IndexSpec::pc_concat_bhr(8).to_string(), "PC||BHR[8b]");
    }

    #[test]
    fn table_len_matches_bits() {
        assert_eq!(IndexSpec::pc(10).table_len(), 1024);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panics() {
        IndexSpec::new(vec![], Combine::Xor, 8);
    }

    #[test]
    #[should_panic(expected = "1..=28")]
    fn zero_bits_panics() {
        IndexSpec::pc(0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn concat_too_narrow_panics() {
        IndexSpec::new(
            vec![IndexSource::Pc, IndexSource::Bhr, IndexSource::Cir],
            Combine::Concat,
            2,
        );
    }
}
