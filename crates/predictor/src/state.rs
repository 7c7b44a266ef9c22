//! Byte-level helpers for serializing predictor and mechanism state.
//!
//! The checkpoint codec (`cira-store`'s `CIRD` format) persists the
//! *mutable* state of a predictor or confidence mechanism — table words,
//! counters, history registers — while the immutable configuration (table
//! sizes, index widths, init policies) travels separately as a spec string
//! and is rebuilt before the state is loaded. These helpers define the one
//! byte discipline every `state_save`/`state_load` implementation uses:
//! little-endian fixed-width integers, and `u32`-count-prefixed slices.
//!
//! Readers validate every length against the remaining input before
//! allocating, so a truncated or corrupted blob fails cleanly instead of
//! requesting a multi-gigabyte vector.

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` count followed by each word little-endian.
pub fn put_u64_slice(out: &mut Vec<u8>, words: &[u64]) {
    put_u32(out, words.len() as u32);
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (bytes, w) in out[start..].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
}

/// Appends a `u32` count followed by each value little-endian.
pub fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (bytes, v) in out[start..].chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends a `u32` byte length followed by the raw bytes.
pub fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    put_u32(out, blob.len() as u32);
    out.extend_from_slice(blob);
}

/// A bounds-checked cursor over a state blob.
///
/// # Examples
///
/// ```
/// use cira_predictor::state::{put_u64_slice, StateReader};
///
/// let mut buf = Vec::new();
/// put_u64_slice(&mut buf, &[1, 2, 3]);
/// let mut r = StateReader::new(&buf);
/// assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> StateReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Reads the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "state blob truncated: need {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-count-prefixed slice of `u64` words.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, String> {
        let count = self.u32()? as usize;
        if count > self.remaining() / 8 {
            return Err(format!(
                "state blob declares {count} u64 words but only {} bytes remain",
                self.remaining()
            ));
        }
        let bytes = self.take(8 * count)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a `u32`-count-prefixed slice of `u32` values.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, String> {
        let count = self.u32()? as usize;
        if count > self.remaining() / 4 {
            return Err(format!(
                "state blob declares {count} u32 values but only {} bytes remain",
                self.remaining()
            ));
        }
        let bytes = self.take(4 * count)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|v| u32::from_le_bytes(v.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!(
                "state blob has {} trailing bytes after offset {}",
                self.remaining(),
                self.at
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = StateReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        r.finish().unwrap();
    }

    #[test]
    fn slices_and_blobs_round_trip() {
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &[3, 1, 4]);
        put_u32_slice(&mut buf, &[1, 5, 9, 2]);
        put_blob(&mut buf, b"cird");
        let mut r = StateReader::new(&buf);
        assert_eq!(r.u64_vec().unwrap(), vec![3, 1, 4]);
        assert_eq!(r.u32_vec().unwrap(), vec![1, 5, 9, 2]);
        assert_eq!(r.blob().unwrap(), b"cird");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        buf.pop();
        let mut r = StateReader::new(&buf);
        assert!(r.u64().unwrap_err().contains("truncated"));
    }

    #[test]
    fn hostile_count_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // declares 4 billion words, holds none
        let mut r = StateReader::new(&buf);
        assert!(r.u64_vec().unwrap_err().contains("declares"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = StateReader::new(&[0u8; 3]);
        assert!(r.finish().unwrap_err().contains("trailing"));
    }
}
