//! `CIRD` — the versioned checkpoint codec for a parked session.
//!
//! A [`Checkpoint`] is the complete serializable state of one streaming
//! session: the spec strings that rebuild the predictor and mechanism,
//! the session counters, the branch-history register, the opaque state
//! blobs produced by the `state_save` trait hooks, and the accumulated
//! per-key bucket cells. Restoring it into a freshly-built session
//! yields statistics **bit-identical** to a never-interrupted replay —
//! the property the crash-recovery tests assert.
//!
//! The byte layout follows the same discipline as the `CIRS` wire
//! protocol and the `cira_predictor::state` hooks: everything
//! little-endian and fixed-width, strings `u16`-length-prefixed, blobs
//! `u32`-length-prefixed, the cell list `u32`-count-prefixed, and a
//! trailing FNV-1a checksum over everything before it:
//!
//! ```text
//! magic            u32   "CIRD" (LE: 0x44524943)
//! version          u32   2 (1 is read too)
//! session_id       u64
//! threshold        u64
//! last_seq         u8 flag + u32 (0 = none, value ignored)
//! batches          u64
//! low_confidence   u64
//! bhr              u64
//! branches         u64
//! mispredicts      u64
//! predictor        string        (spec, e.g. "gshare:11:11")
//! mechanism        string        (spec, e.g. "resetting")
//! index            string        (spec, e.g. "pcxorbhr:11")
//! init             string        (spec, e.g. "ones")
//! predictor_state  blob          (state_save output)
//! mechanism_state  blob          (state_save output)
//! cells            u32 count, then per cell: key u64, refs u64, miss u64
//! checksum         u64   FNV-1a over all preceding bytes
//! ```
//!
//! Cell refs/miss counts are the session's own integer counts. Sessions
//! write cells in ascending key order, so equal states encode equal
//! bytes; older images list them in hash-map order, and a restore
//! accepts either.
//!
//! Version 2 changed no byte of this layout; it changed what a CIR or
//! counter table writes into `mechanism_state`. Each table is a `u32`
//! count word, then its entries:
//!
//! ```text
//! count word       u32   bits 0..29: entry count; bits 29..32: layout tag
//! entries          count × width bytes, little-endian
//!                        tag 0: 4 bytes; tag 1: 1 byte; tag 2: 2 bytes
//! ```
//!
//! A version-2 writer uses the narrowest width that holds the table's
//! largest value (a `resetting:16` table, values 0..=16, writes one byte
//! per entry; a 32-bit CIR table still writes four, tag 0). Version 1
//! wrote every table with tag 0, so one reader takes both versions. A
//! build that reads only version 1 refuses a version-2 image by its
//! version field instead of misreading its tables.

use crate::page::fnv64;

/// Magic number: `"CIRD"` read as a little-endian u32.
pub const CIRD_MAGIC: u32 = u32::from_le_bytes(*b"CIRD");

/// Current codec version. [`Checkpoint::decode`] reads this version and
/// version 1.
pub const CIRD_VERSION: u32 = 2;

/// Longest accepted spec string, mirroring the wire protocol's cap.
const MAX_STRING: usize = 4096;

/// The complete serializable state of one streaming session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Server-assigned session id (survives park/resume).
    pub session_id: u64,
    /// Predictor spec string.
    pub predictor: String,
    /// Mechanism spec string.
    pub mechanism: String,
    /// Index spec string.
    pub index: String,
    /// Init-policy spec string.
    pub init: String,
    /// Low-confidence threshold.
    pub threshold: u64,
    /// Highest applied batch sequence number, if any batch was applied.
    pub last_seq: Option<u32>,
    /// Batches applied.
    pub batches: u64,
    /// Low-confidence records observed.
    pub low_confidence: u64,
    /// Branch-history register value.
    pub bhr: u64,
    /// Branches replayed.
    pub branches: u64,
    /// Mispredictions observed.
    pub mispredicts: u64,
    /// Opaque predictor state (`state_save` output).
    pub predictor_state: Vec<u8>,
    /// Opaque mechanism state (`state_save` output).
    pub mechanism_state: Vec<u8>,
    /// Bucket cells as `(key, refs, mispredicts)`: ascending by key as
    /// sessions write them, any order in older images.
    pub cells: Vec<(u64, u64, u64)>,
}

/// # Panics
///
/// Panics if `s` exceeds the 4,096-byte cap `decode` enforces: an image
/// carrying it could not be read back.
fn put_string(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= MAX_STRING, "spec string too long");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// A bounds-checked little-endian reader over a checkpoint image.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "checkpoint truncated: wanted {n} bytes at offset {}, {} remain",
                self.at,
                self.remaining()
            ));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        if len > MAX_STRING {
            return Err(format!(
                "string of {len} bytes exceeds the {MAX_STRING} cap"
            ));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_owned())
    }

    fn blob(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        // Validate against the remaining bytes before allocating, so a
        // hostile length cannot force a huge allocation.
        if len > self.remaining() {
            return Err(format!(
                "blob length {len} exceeds the {} bytes remaining",
                self.remaining()
            ));
        }
        Ok(self.take(len)?.to_vec())
    }
}

impl Checkpoint {
    /// Serializes this checkpoint to its `CIRD` byte image.
    ///
    /// # Panics
    ///
    /// Panics if a spec string exceeds 4,096 bytes, which
    /// [`decode`](Self::decode) would refuse. HELLO caps specs at that
    /// length, so a session never holds a longer one.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            128 + self.predictor_state.len() + self.mechanism_state.len() + 24 * self.cells.len(),
        );
        out.extend_from_slice(&CIRD_MAGIC.to_le_bytes());
        out.extend_from_slice(&CIRD_VERSION.to_le_bytes());
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.threshold.to_le_bytes());
        out.push(u8::from(self.last_seq.is_some()));
        out.extend_from_slice(&self.last_seq.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.batches.to_le_bytes());
        out.extend_from_slice(&self.low_confidence.to_le_bytes());
        out.extend_from_slice(&self.bhr.to_le_bytes());
        out.extend_from_slice(&self.branches.to_le_bytes());
        out.extend_from_slice(&self.mispredicts.to_le_bytes());
        put_string(&mut out, &self.predictor);
        put_string(&mut out, &self.mechanism);
        put_string(&mut out, &self.index);
        put_string(&mut out, &self.init);
        put_blob(&mut out, &self.predictor_state);
        put_blob(&mut out, &self.mechanism_state);
        out.extend_from_slice(&(self.cells.len() as u32).to_le_bytes());
        for &(key, refs, miss) in &self.cells {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&refs.to_le_bytes());
            out.extend_from_slice(&miss.to_le_bytes());
        }
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a `CIRD` byte image, verifying magic, version, checksum,
    /// every length, and that no bytes trail the checksum.
    ///
    /// # Errors
    ///
    /// A message naming the first thing wrong with the image.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 8 + 8 {
            return Err(format!("checkpoint is {} bytes, too short", bytes.len()));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
        let computed = fnv64(body);
        if stored != computed {
            return Err(format!(
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ));
        }
        let mut c = Cursor::new(body);
        let magic = c.u32()?;
        if magic != CIRD_MAGIC {
            return Err(format!("bad magic {magic:#010x}: not a CIRD checkpoint"));
        }
        let version = c.u32()?;
        if !(1..=CIRD_VERSION).contains(&version) {
            return Err(format!(
                "checkpoint version {version}, this build reads 1 to {CIRD_VERSION}"
            ));
        }
        let session_id = c.u64()?;
        let threshold = c.u64()?;
        let flag = c.u8()?;
        let seq = c.u32()?;
        if flag > 1 {
            return Err(format!("last_seq flag must be 0 or 1, got {flag}"));
        }
        let last_seq = (flag == 1).then_some(seq);
        let batches = c.u64()?;
        let low_confidence = c.u64()?;
        let bhr = c.u64()?;
        let branches = c.u64()?;
        let mispredicts = c.u64()?;
        let predictor = c.string()?;
        let mechanism = c.string()?;
        let index = c.string()?;
        let init = c.string()?;
        let predictor_state = c.blob()?;
        let mechanism_state = c.blob()?;
        let count = c.u32()? as usize;
        if count > c.remaining() / 24 {
            return Err(format!(
                "cell count {count} exceeds the {} bytes remaining",
                c.remaining()
            ));
        }
        let mut cells = Vec::with_capacity(count);
        for _ in 0..count {
            let key = c.u64()?;
            let refs = c.u64()?;
            let miss = c.u64()?;
            if miss > refs {
                return Err(format!(
                    "cell {key:#x} claims {miss} mispredicts out of {refs} refs"
                ));
            }
            cells.push((key, refs, miss));
        }
        if c.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after the cell list",
                c.remaining()
            ));
        }
        Ok(Self {
            session_id,
            predictor,
            mechanism,
            index,
            init,
            threshold,
            last_seq,
            batches,
            low_confidence,
            bhr,
            branches,
            mispredicts,
            predictor_state,
            mechanism_state,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            session_id: 17,
            predictor: "gshare:11:11".to_owned(),
            mechanism: "resetting".to_owned(),
            index: "pcxorbhr:11".to_owned(),
            init: "ones".to_owned(),
            threshold: 16,
            last_seq: Some(41),
            batches: 42,
            low_confidence: 1234,
            bhr: 0xdead_beef_cafe_f00d,
            branches: 20_000,
            mispredicts: 900,
            predictor_state: vec![1, 2, 3, 4, 5],
            mechanism_state: vec![9, 8, 7],
            cells: vec![(0, 100, 3), (7, 50, 50), (16, 9_000, 0)],
        }
    }

    #[test]
    fn round_trips() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn round_trips_empty() {
        let cp = Checkpoint::default();
        assert_eq!(cp.last_seq, None);
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn every_truncation_is_rejected() {
        for bytes in [with_version(1), with_version(2)] {
            for len in 0..bytes.len() {
                assert!(
                    Checkpoint::decode(&bytes[..len]).is_err(),
                    "decode accepted a {len}-byte prefix of {} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        for bytes in [with_version(1), with_version(2)] {
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0x01;
                assert!(
                    Checkpoint::decode(&bad).is_err(),
                    "decode accepted a flip at byte {at}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn miss_exceeding_refs_rejected() {
        let mut cp = sample();
        cp.cells[0] = (0, 10, 11);
        // Re-encode (checksum is over the bad payload, so only the cell
        // validation can catch it).
        assert!(Checkpoint::decode(&cp.encode())
            .unwrap_err()
            .contains("mispredicts"));
    }

    /// `sample()` encoded with `version` in the version field and the
    /// checksum fixed up, so only the version check can refuse it.
    fn with_version(version: u32) -> Vec<u8> {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = crate::page::fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn writes_version_2_and_reads_versions_1_and_2() {
        assert_eq!(sample().encode()[4..8], 2u32.to_le_bytes());
        for version in [1, 2] {
            assert_eq!(
                Checkpoint::decode(&with_version(version)).unwrap(),
                sample()
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        for version in [0, 3, 0x7f, u32::MAX] {
            let err = Checkpoint::decode(&with_version(version)).unwrap_err();
            assert!(err.contains("version"), "{version}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "spec string too long")]
    fn encode_refuses_a_spec_longer_than_decode_accepts() {
        let cp = Checkpoint {
            mechanism: "x".repeat(MAX_STRING + 1),
            ..Checkpoint::default()
        };
        cp.encode();
    }
}
