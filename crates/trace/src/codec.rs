//! Compact binary trace files.
//!
//! Format (`CIRT` v1): an 8-byte header (`b"CIRT"`, `u8` version, 3 reserved
//! bytes) followed by one LEB128 varint per record. Each record is encoded
//! as `zigzag(pc - prev_pc) * 2 + taken`, exploiting the strong locality of
//! branch PCs: the typical record costs 1–2 bytes instead of 9.
//!
//! # Examples
//!
//! ```
//! use cira_trace::{BranchRecord, codec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let records = vec![BranchRecord::new(0x4000, true), BranchRecord::new(0x4004, false)];
//! let mut buf = Vec::new();
//! codec::write_trace(&mut buf, records.iter().copied())?;
//! let back = codec::read_trace(&buf[..])?;
//! assert_eq!(back, records);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use crate::record::BranchRecord;

const MAGIC: &[u8; 4] = b"CIRT";
const VERSION: u8 = 1;

/// Errors produced when decoding a trace file.
#[derive(Debug)]
pub enum DecodeTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `CIRT` magic.
    BadMagic([u8; 4]),
    /// The format version is not supported.
    UnsupportedVersion(u8),
    /// A varint ran past 10 bytes (not a valid LEB128 `u64`).
    VarintOverflow,
    /// The stream ended in the middle of a varint.
    TruncatedRecord,
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTraceError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeTraceError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"CIRT\""),
            DecodeTraceError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeTraceError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            DecodeTraceError::TruncatedRecord => write!(f, "stream ended mid-record"),
        }
    }
}

impl std::error::Error for DecodeTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeTraceError {
    fn from(e: io::Error) -> Self {
        DecodeTraceError::Io(e)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// Record words are 65 bits (zigzag delta plus the taken bit), so varints are
// carried in u128 and capped at 10 LEB128 bytes (70 payload bits).
const MAX_VARINT_BITS: u32 = 70;

fn write_varint<W: Write>(w: &mut W, mut v: u128) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one varint; `Ok(None)` on clean EOF at a record boundary.
fn read_varint<R: Read>(r: &mut R) -> Result<Option<u128>, DecodeTraceError> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if first {
                    Ok(None)
                } else {
                    Err(DecodeTraceError::TruncatedRecord)
                };
            }
            Ok(_) => {}
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
        if shift >= MAX_VARINT_BITS {
            return Err(DecodeTraceError::VarintOverflow);
        }
        v |= ((byte[0] & 0x7f) as u128) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
        first = false;
    }
}

/// Writes a trace to `writer`. A `&mut W` also works (`W: Write` is taken by
/// value per the usual reader/writer convention).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write, I: IntoIterator<Item = BranchRecord>>(
    mut writer: W,
    records: I,
) -> io::Result<u64> {
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION, 0, 0, 0])?;
    let mut prev_pc: u64 = 0;
    let mut count = 0u64;
    for r in records {
        let delta = r.pc.wrapping_sub(prev_pc) as i64;
        let word = ((zigzag(delta) as u128) << 1) | r.taken as u128;
        write_varint(&mut writer, word)?;
        prev_pc = r.pc;
        count += 1;
    }
    cira_obs::debug!("trace encoded", records = count);
    Ok(count)
}

/// Reads an entire trace into memory.
///
/// # Errors
///
/// Returns [`DecodeTraceError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(reader: R) -> Result<Vec<BranchRecord>, DecodeTraceError> {
    let records: Vec<BranchRecord> = TraceReader::new(reader)?.collect::<Result<_, _>>()?;
    cira_obs::debug!("trace decoded", records = records.len());
    Ok(records)
}

/// Streaming trace decoder; yields records one at a time.
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    prev_pc: u64,
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and prepares to stream records.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] if the magic or version is wrong.
    pub fn new(mut reader: R) -> Result<Self, DecodeTraceError> {
        let mut header = [0u8; 8];
        reader
            .read_exact(&mut header)
            .map_err(DecodeTraceError::Io)?;
        if &header[0..4] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&header[0..4]);
            return Err(DecodeTraceError::BadMagic(m));
        }
        if header[4] != VERSION {
            return Err(DecodeTraceError::UnsupportedVersion(header[4]));
        }
        Ok(Self { reader, prev_pc: 0 })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<BranchRecord, DecodeTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match read_varint(&mut self.reader) {
            Ok(None) => None,
            Ok(Some(word)) => {
                let taken = word & 1 == 1;
                let delta = unzigzag((word >> 1) as u64);
                let pc = self.prev_pc.wrapping_add(delta as u64);
                self.prev_pc = pc;
                Some(Ok(BranchRecord::new(pc, taken)))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// A materialized branch trace in a packed structure-of-arrays encoding.
///
/// Branch traces revisit a small set of static sites, so instead of storing
/// 9+ bytes per [`BranchRecord`], a `PackedTrace` stores each distinct PC
/// once in a *site dictionary* and each dynamic record as a `u32` site
/// index plus one taken bit: ~4.1 bytes per record. This is the shareable
/// buffer behind the execution engine's trace cache — materialize a
/// benchmark walk once, then replay the same bytes for every configuration.
///
/// Replay order, PCs, and outcomes are exactly those of the source
/// iterator; [`PackedTrace::iter`] yields bit-identical records.
///
/// # Examples
///
/// ```
/// use cira_trace::{codec::PackedTrace, BranchRecord};
///
/// let records = vec![
///     BranchRecord::new(0x4000, true),
///     BranchRecord::new(0x4004, false),
///     BranchRecord::new(0x4000, false),
/// ];
/// let packed: PackedTrace = records.iter().copied().collect();
/// assert_eq!(packed.len(), 3);
/// assert_eq!(packed.sites(), 2);
/// let back: Vec<_> = packed.iter().collect();
/// assert_eq!(back, records);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTrace {
    /// Distinct PCs in first-appearance order.
    site_pcs: Vec<u64>,
    /// One site-dictionary index per dynamic record.
    site_idx: Vec<u32>,
    /// Taken outcomes, one bit per record, LSB-first within each word.
    taken: Vec<u64>,
}

impl PackedTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs an iterator of records; pre-sizes for `hint` records.
    pub fn with_capacity(hint: usize) -> Self {
        Self {
            site_pcs: Vec::new(),
            site_idx: Vec::with_capacity(hint),
            taken: Vec::with_capacity(hint / 64 + 1),
        }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if the trace accumulates more than `u32::MAX` distinct sites
    /// (far beyond any real or synthetic workload).
    pub fn push(&mut self, record: BranchRecord) {
        // Linear site lookup would be O(sites) per record; keep an index
        // map only while building. To avoid a persistent HashMap field the
        // builder path goes through `from_iter`/`extend`, which maintain
        // the map externally; `push` falls back to a scan for small use.
        let idx = match self.site_pcs.iter().position(|&pc| pc == record.pc) {
            Some(i) => i as u32,
            None => self.intern(record.pc),
        };
        self.push_indexed(idx, record.taken);
    }

    fn intern(&mut self, pc: u64) -> u32 {
        let idx = u32::try_from(self.site_pcs.len()).expect("more than u32::MAX distinct sites");
        self.site_pcs.push(pc);
        idx
    }

    fn push_indexed(&mut self, idx: u32, taken: bool) {
        let i = self.site_idx.len();
        self.site_idx.push(idx);
        if i.is_multiple_of(64) {
            self.taken.push(0);
        }
        if taken {
            self.taken[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Number of dynamic records.
    pub fn len(&self) -> usize {
        self.site_idx.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.site_idx.is_empty()
    }

    /// Number of distinct static branch sites.
    pub fn sites(&self) -> usize {
        self.site_pcs.len()
    }

    /// The PC of site-dictionary entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn site_pc(&self, idx: u32) -> u64 {
        self.site_pcs[idx as usize]
    }

    /// The record at position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<BranchRecord> {
        let &idx = self.site_idx.get(i)?;
        Some(BranchRecord::new(
            self.site_pcs[idx as usize],
            self.taken_at(i),
        ))
    }

    /// The site-dictionary index of record `i` (for dense per-site
    /// accumulation during replay).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn site_index_at(&self, i: usize) -> u32 {
        self.site_idx[i]
    }

    /// The taken bit of record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn taken_at(&self, i: usize) -> bool {
        assert!(i < self.site_idx.len(), "record index out of range");
        self.taken[i / 64] >> (i % 64) & 1 == 1
    }

    /// The per-record site-dictionary indices, for bulk (SoA) consumers
    /// like the vectorized replay kernel.
    pub fn site_indices(&self) -> &[u32] {
        &self.site_idx
    }

    /// The site dictionary (distinct PCs in first-appearance order);
    /// `site_indices()[i]` indexes into this slice.
    pub fn site_pc_table(&self) -> &[u64] {
        &self.site_pcs
    }

    /// The raw taken bitmap: bit `i % 64` of word `i / 64` is record `i`'s
    /// outcome (LSB-first within each word). Bits at or beyond [`len`]
    /// within the last word are zero.
    ///
    /// [`len`]: PackedTrace::len
    pub fn taken_words(&self) -> &[u64] {
        &self.taken
    }

    /// Approximate heap footprint in bytes (used by cache budgeting).
    pub fn approx_bytes(&self) -> usize {
        self.site_pcs.capacity() * 8 + self.site_idx.capacity() * 4 + self.taken.capacity() * 8
    }

    /// Iterates the records in order.
    pub fn iter(&self) -> PackedTraceIter<'_> {
        PackedTraceIter {
            trace: self,
            pos: 0,
        }
    }

    /// Serializes the trace to the stable `CIRP` v1 byte layout
    /// (everything little-endian):
    ///
    /// ```text
    /// offset  size              field
    /// 0       4                 magic "CIRP"
    /// 4       1                 version (1)
    /// 5       3                 reserved (zero)
    /// 8       4                 n_sites:   u32
    /// 12      8                 n_records: u64
    /// 20      8 * n_sites       site PCs, first-appearance order
    /// ..      4 * n_records     site index per record
    /// ..      8 * ceil(n/64)    taken bitmap, LSB-first per word
    /// ```
    ///
    /// The taken bitmap's padding bits (beyond `n_records`) are zero.
    /// [`PackedTrace::from_bytes`] round-trips this exactly; the `cira-serve`
    /// wire protocol ships `BATCH` payloads in this layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            20 + 8 * self.site_pcs.len() + 4 * self.site_idx.len() + 8 * self.taken.len(),
        );
        out.extend_from_slice(PACKED_MAGIC);
        out.extend_from_slice(&[PACKED_VERSION, 0, 0, 0]);
        out.extend_from_slice(&(self.site_pcs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.site_idx.len() as u64).to_le_bytes());
        for pc in &self.site_pcs {
            out.extend_from_slice(&pc.to_le_bytes());
        }
        for idx in &self.site_idx {
            out.extend_from_slice(&idx.to_le_bytes());
        }
        for word in &self.taken {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses the `CIRP` v1 layout written by [`PackedTrace::to_bytes`].
    ///
    /// The whole buffer must be consumed (no trailing bytes), the declared
    /// lengths must match the buffer size exactly (checked *before* any
    /// allocation, so hostile headers cannot trigger huge allocations),
    /// every site index must be in range, and bitmap padding bits must be
    /// zero — a successful parse is always bit-identical to re-serializing.
    ///
    /// # Errors
    ///
    /// Returns [`PackedBytesError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTrace, PackedBytesError> {
        if bytes.len() < 20 {
            return Err(PackedBytesError::Truncated {
                need: 20,
                have: bytes.len(),
            });
        }
        if &bytes[0..4] != PACKED_MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&bytes[0..4]);
            return Err(PackedBytesError::BadMagic(m));
        }
        if bytes[4] != PACKED_VERSION {
            return Err(PackedBytesError::UnsupportedVersion(bytes[4]));
        }
        let n_sites = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let n_records = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let n_records =
            usize::try_from(n_records).map_err(|_| PackedBytesError::LengthOverflow(n_records))?;
        let n_words = n_records.div_ceil(64);
        let expect = 20usize
            .checked_add(
                n_sites
                    .checked_mul(8)
                    .ok_or(PackedBytesError::LengthOverflow(n_sites as u64))?,
            )
            .and_then(|v| v.checked_add(n_records.checked_mul(4)?))
            .and_then(|v| v.checked_add(n_words.checked_mul(8)?))
            .ok_or(PackedBytesError::LengthOverflow(n_records as u64))?;
        if bytes.len() < expect {
            return Err(PackedBytesError::Truncated {
                need: expect,
                have: bytes.len(),
            });
        }
        if bytes.len() > expect {
            return Err(PackedBytesError::TrailingBytes(bytes.len() - expect));
        }
        let mut at = 20;
        let mut site_pcs = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            site_pcs.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
            at += 8;
        }
        let mut site_idx = Vec::with_capacity(n_records);
        for _ in 0..n_records {
            let idx = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if idx as usize >= n_sites {
                return Err(PackedBytesError::SiteIndexOutOfRange {
                    index: idx,
                    sites: n_sites as u32,
                });
            }
            site_idx.push(idx);
            at += 4;
        }
        let mut taken = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            taken.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
            at += 8;
        }
        if let Some(last) = taken.last() {
            let used = n_records - (n_words - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(PackedBytesError::NonZeroPadding);
            }
        }
        Ok(PackedTrace {
            site_pcs,
            site_idx,
            taken,
        })
    }
}

const PACKED_MAGIC: &[u8; 4] = b"CIRP";
const PACKED_VERSION: u8 = 1;

/// Errors produced when parsing [`PackedTrace::from_bytes`] input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedBytesError {
    /// Fewer bytes than the header + declared payload require.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The buffer does not start with `CIRP`.
    BadMagic([u8; 4]),
    /// Unknown layout version.
    UnsupportedVersion(u8),
    /// Declared lengths overflow the address space.
    LengthOverflow(u64),
    /// Extra bytes after the declared payload.
    TrailingBytes(usize),
    /// A record references a site outside the dictionary.
    SiteIndexOutOfRange {
        /// The offending index.
        index: u32,
        /// Dictionary size.
        sites: u32,
    },
    /// Taken-bitmap bits beyond `n_records` are set.
    NonZeroPadding,
}

impl fmt::Display for PackedBytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedBytesError::Truncated { need, have } => {
                write!(f, "truncated packed trace: need {need} bytes, have {have}")
            }
            PackedBytesError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"CIRP\""),
            PackedBytesError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PackedBytesError::LengthOverflow(n) => write!(f, "declared length {n} overflows"),
            PackedBytesError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            PackedBytesError::SiteIndexOutOfRange { index, sites } => {
                write!(f, "site index {index} out of range ({sites} sites)")
            }
            PackedBytesError::NonZeroPadding => write!(f, "non-zero taken-bitmap padding"),
        }
    }
}

impl std::error::Error for PackedBytesError {}

impl FromIterator<BranchRecord> for PackedTrace {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut out = PackedTrace::with_capacity(it.size_hint().0);
        // Interning map kept local to the build so the packed result stays
        // three flat arrays.
        let mut map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for r in it {
            let idx = *map.entry(r.pc).or_insert_with(|| {
                let idx =
                    u32::try_from(out.site_pcs.len()).expect("more than u32::MAX distinct sites");
                out.site_pcs.push(r.pc);
                idx
            });
            out.push_indexed(idx, r.taken);
        }
        out
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = BranchRecord;
    type IntoIter = PackedTraceIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`PackedTrace`].
#[derive(Debug, Clone)]
pub struct PackedTraceIter<'a> {
    trace: &'a PackedTrace,
    pos: usize,
}

impl Iterator for PackedTraceIter<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        let r = self.trace.get(self.pos)?;
        self.pos += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.trace.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PackedTraceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn roundtrip(records: &[BranchRecord]) {
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, records.iter().copied()).unwrap();
        assert_eq!(n, records.len() as u64);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        roundtrip(&[]);
    }

    #[test]
    fn single_record_roundtrips() {
        roundtrip(&[BranchRecord::new(0xdead_beef, true)]);
    }

    #[test]
    fn local_deltas_are_compact() {
        let records: Vec<_> = (0..1000u64)
            .map(|i| BranchRecord::new(0x40_0000 + 4 * (i % 16), i % 3 == 0))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, records.iter().copied()).unwrap();
        // header + ~1-2 bytes per record
        assert!(buf.len() < 8 + 2 * records.len(), "size {}", buf.len());
        assert_eq!(read_trace(&buf[..]).unwrap(), records);
    }

    #[test]
    fn random_pcs_roundtrip() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let records: Vec<_> = (0..5000)
            .map(|_| BranchRecord::new(rng.next_u64(), rng.bernoulli(0.5)))
            .collect();
        roundtrip(&records);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00".to_vec();
        match read_trace(&buf[..]) {
            Err(DecodeTraceError::BadMagic(m)) => assert_eq!(&m, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_rejected() {
        let buf = b"CIRT\x07\x00\x00\x00".to_vec();
        match read_trace(&buf[..]) {
            Err(DecodeTraceError::UnsupportedVersion(7)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let buf = b"CIRT".to_vec();
        assert!(matches!(read_trace(&buf[..]), Err(DecodeTraceError::Io(_))));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [BranchRecord::new(u64::MAX / 3, true)]).unwrap();
        buf.pop(); // chop mid-varint
        assert!(matches!(
            read_trace(&buf[..]),
            Err(DecodeTraceError::TruncatedRecord)
        ));
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut buf = b"CIRT\x01\x00\x00\x00".to_vec();
        buf.extend_from_slice(&[0xff; 11]);
        assert!(matches!(
            read_trace(&buf[..]),
            Err(DecodeTraceError::VarintOverflow)
        ));
    }

    #[test]
    fn streaming_reader_yields_incrementally() {
        let records = [
            BranchRecord::new(16, true),
            BranchRecord::new(20, false),
            BranchRecord::new(16, true),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, records.iter().copied()).unwrap();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), records[0]);
        assert_eq!(reader.next().unwrap().unwrap(), records[1]);
        assert_eq!(reader.next().unwrap().unwrap(), records[2]);
        assert!(reader.next().is_none());
    }

    #[test]
    fn packed_trace_roundtrips_suite_prefix() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let records: Vec<_> = (0..4096)
            .map(|_| BranchRecord::new(0x40_0000 + 4 * rng.next_below(300), rng.bernoulli(0.6)))
            .collect();
        let packed: PackedTrace = records.iter().copied().collect();
        assert_eq!(packed.len(), records.len());
        assert!(packed.sites() <= 300);
        let back: Vec<_> = packed.iter().collect();
        assert_eq!(back, records);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(packed.get(i), Some(*r));
            assert_eq!(packed.taken_at(i), r.taken);
            assert_eq!(packed.site_pc(packed.site_index_at(i)), r.pc);
        }
        assert_eq!(packed.get(records.len()), None);
    }

    #[test]
    fn packed_trace_is_compact() {
        let records: Vec<_> = (0..10_000u64)
            .map(|i| BranchRecord::new(0x1000 + 8 * (i % 64), i % 3 == 0))
            .collect();
        let packed: PackedTrace = records.iter().copied().collect();
        // ~4.1 bytes per record vs 16 for Vec<BranchRecord>.
        assert!(
            packed.approx_bytes() < 6 * records.len(),
            "packed {} bytes for {} records",
            packed.approx_bytes(),
            records.len()
        );
    }

    #[test]
    fn packed_trace_empty_and_push() {
        let mut p = PackedTrace::new();
        assert!(p.is_empty());
        assert_eq!(p.iter().next(), None);
        p.push(BranchRecord::new(8, true));
        p.push(BranchRecord::new(16, false));
        p.push(BranchRecord::new(8, false));
        assert_eq!(p.len(), 3);
        assert_eq!(p.sites(), 2);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            vec![
                BranchRecord::new(8, true),
                BranchRecord::new(16, false),
                BranchRecord::new(8, false)
            ]
        );
    }

    #[test]
    fn packed_trace_iter_size_hint() {
        let p: PackedTrace = (0..100u64).map(|i| BranchRecord::new(i, true)).collect();
        let mut it = p.iter();
        assert_eq!(it.len(), 100);
        it.next();
        assert_eq!(it.size_hint(), (99, Some(99)));
    }

    /// Seeded random trace with `sites` distinct PCs and `len` records.
    fn random_trace(seed: u64, sites: u64, len: usize) -> Vec<BranchRecord> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                BranchRecord::new(
                    rng.next_u64() >> 40 | rng.next_below(sites.max(1)) << 24,
                    rng.bernoulli(0.37),
                )
            })
            .collect()
    }

    #[test]
    fn packed_bytes_roundtrip_fixed_layout() {
        let records = [
            BranchRecord::new(0x4000, true),
            BranchRecord::new(0x4004, false),
            BranchRecord::new(0x4000, false),
        ];
        let packed: PackedTrace = records.iter().copied().collect();
        let bytes = packed.to_bytes();
        // Header is pinned: magic, version, reserved, counts in LE.
        assert_eq!(&bytes[0..4], b"CIRP");
        assert_eq!(&bytes[4..8], &[1, 0, 0, 0]);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(bytes[12..20].try_into().unwrap()), 3);
        assert_eq!(
            u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
            0x4000
        );
        assert_eq!(bytes.len(), 20 + 2 * 8 + 3 * 4 + 8);
        let back = PackedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back, packed);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn packed_bytes_roundtrip_random_traces() {
        // Fuzz-ish sweep: many seeded shapes, including empty, exact word
        // multiples (64, 128) and off-by-one bitmap boundaries.
        for (seed, sites, len) in [
            (1u64, 1u64, 0usize),
            (2, 1, 1),
            (3, 7, 63),
            (4, 7, 64),
            (5, 7, 65),
            (6, 300, 128),
            (7, 1000, 4096),
            (8, 3, 10_001),
        ] {
            let records = random_trace(seed, sites, len);
            let packed: PackedTrace = records.iter().copied().collect();
            let bytes = packed.to_bytes();
            let back = PackedTrace::from_bytes(&bytes).unwrap();
            assert_eq!(back, packed, "seed {seed}");
            assert_eq!(back.iter().collect::<Vec<_>>(), records, "seed {seed}");
            assert_eq!(back.to_bytes(), bytes, "seed {seed}");
        }
    }

    #[test]
    fn packed_bytes_truncations_rejected_everywhere() {
        // Chopping the buffer at every length must error, never panic.
        let packed: PackedTrace = random_trace(11, 9, 200).into_iter().collect();
        let bytes = packed.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                PackedTrace::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
    }

    #[test]
    fn packed_bytes_corruptions_rejected() {
        let packed: PackedTrace = random_trace(12, 4, 70).into_iter().collect();
        let good = packed.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            PackedTrace::from_bytes(&bad_magic),
            Err(PackedBytesError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            PackedTrace::from_bytes(&bad_version),
            Err(PackedBytesError::UnsupportedVersion(9))
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            PackedTrace::from_bytes(&trailing),
            Err(PackedBytesError::TrailingBytes(1))
        ));

        // Site index beyond the dictionary (first record's index → huge).
        let mut bad_site = good.clone();
        let idx_off = 20 + 8 * packed.sites();
        bad_site[idx_off..idx_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            PackedTrace::from_bytes(&bad_site),
            Err(PackedBytesError::SiteIndexOutOfRange { .. })
        ));

        // Padding bits set in the last bitmap word (70 records → 58 pad bits).
        let mut bad_pad = good.clone();
        let last = bad_pad.len() - 1;
        bad_pad[last] |= 0x80;
        assert!(matches!(
            PackedTrace::from_bytes(&bad_pad),
            Err(PackedBytesError::NonZeroPadding)
        ));

        // A hostile header declaring astronomically many records must be
        // rejected by the size check before any allocation happens.
        let mut hostile = good[..20].to_vec();
        hostile[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(PackedTrace::from_bytes(&hostile).is_err());
    }

    #[test]
    fn error_display_messages() {
        assert!(DecodeTraceError::VarintOverflow
            .to_string()
            .contains("varint"));
        assert!(DecodeTraceError::BadMagic(*b"ABCD")
            .to_string()
            .contains("CIRT"));
    }
}
