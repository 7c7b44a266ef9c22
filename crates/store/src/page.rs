//! The on-disk page format: fixed-size slotted pages with checksummed
//! headers.
//!
//! Every page in a store file is exactly [`PAGE_SIZE`] bytes. Page 0 is
//! the superblock (see [`crate::file`]); every other page carries a
//! 32-byte header followed by up to [`PAYLOAD_PER_PAGE`] payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     1  kind        (0 = FREE, 1 = HEAD, 2 = DATA)
//!      1     3  (zero padding)
//!      4     4  payload_len (LE u32, <= PAYLOAD_PER_PAGE)
//!      8     8  next        (LE u64 page index of the chain's next page;
//!                            0 = end of chain — page 0 can never be data)
//!     16     8  token       (LE u64 owning record token)
//!     24     8  checksum    (LE u64 FNV-1a over the header with this
//!                            field zeroed, then the payload bytes)
//! ```
//!
//! A record is a chain of pages: one `HEAD` page (whose payload begins
//! with the record header, [`crate::store`]) followed by zero or more
//! `DATA` pages linked through `next`. The checksum covers exactly the
//! bytes a reader consumes, so a torn write — a crash mid-page — is
//! detected on the next open and the whole chain is discarded rather
//! than half-restored.

/// Size of every page, superblock included.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of header at the front of every non-superblock page.
pub const PAGE_HEADER: usize = 32;

/// Payload capacity of one page.
pub const PAYLOAD_PER_PAGE: usize = PAGE_SIZE - PAGE_HEADER;

/// Page kinds.
pub const KIND_FREE: u8 = 0;
/// First page of a record chain; payload starts with the record header.
pub const KIND_HEAD: u8 = 1;
/// Continuation page of a record chain.
pub const KIND_DATA: u8 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the page and checkpoint checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_continue(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continues four FNV-1a hashes, one per input. Each byte's multiply
/// depends on the one before, so one hash runs at the multiplier's
/// latency; four independent chains interleaved over the inputs' common
/// length keep it busy. Each lane then finishes its own tail.
fn fnv_continue4(mut h: [u64; 4], inputs: [&[u8]; 4]) -> [u64; 4] {
    let n = inputs.iter().map(|b| b.len()).min().unwrap_or(0);
    let [a, b, c, d] = inputs.map(|bytes| &bytes[..n]);
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
    }
    for (lane, bytes) in h.iter_mut().zip(inputs) {
        *lane = fnv_continue(*lane, &bytes[n..]);
    }
    h
}

/// The checksum of every page of a chain, given each page's header image
/// ([`PageHeader::image`]) and payload: the same value
/// [`PageHeader::write_into`] stores, computed four pages at a time.
pub(crate) fn page_checksums(pages: &[([u8; PAGE_HEADER], &[u8])]) -> Vec<u64> {
    let mut sums = Vec::with_capacity(pages.len());
    for group in pages.chunks(4) {
        // A short last group fills its idle lanes with its shortest page,
        // so the lanes run together as long as the real pages do; their
        // sums are dropped.
        let shortest = group.iter().min_by_key(|(_, payload)| payload.len());
        let lane = |i: usize| group.get(i).or(shortest).expect("a group has a page");
        let h = fnv_continue4([FNV_OFFSET; 4], [0, 1, 2, 3].map(|i| &lane(i).0[..]));
        let h = fnv_continue4(h, [0, 1, 2, 3].map(|i| lane(i).1));
        sums.extend_from_slice(&h[..group.len()]);
    }
    sums
}

/// A decoded page header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// One of [`KIND_FREE`], [`KIND_HEAD`], [`KIND_DATA`].
    pub kind: u8,
    /// Number of meaningful payload bytes.
    pub payload_len: u32,
    /// Next page in the record chain (0 terminates).
    pub next: u64,
    /// Token of the owning record (0 for free pages).
    pub token: u64,
}

impl PageHeader {
    /// A freshly-freed page's header.
    pub fn free() -> Self {
        Self {
            kind: KIND_FREE,
            payload_len: 0,
            next: 0,
            token: 0,
        }
    }

    /// The header's 32 bytes with the checksum field zeroed: what the
    /// checksum covers ahead of the payload.
    pub(crate) fn image(&self) -> [u8; PAGE_HEADER] {
        let mut image = [0u8; PAGE_HEADER];
        image[0] = self.kind;
        image[4..8].copy_from_slice(&self.payload_len.to_le_bytes());
        image[8..16].copy_from_slice(&self.next.to_le_bytes());
        image[16..24].copy_from_slice(&self.token.to_le_bytes());
        image
    }

    /// Writes this header (checksum included) and the payload into a
    /// [`PAGE_SIZE`] buffer. Bytes past the payload are zeroed so page
    /// images are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`PAYLOAD_PER_PAGE`] or disagrees
    /// with `payload_len`.
    pub fn write_into(&self, payload: &[u8], page: &mut [u8]) {
        let sum = fnv_continue(fnv64(&self.image()), payload);
        self.write_summed(payload, sum, page);
    }

    /// Like [`write_into`](Self::write_into), with the checksum already
    /// computed by [`page_checksums`].
    ///
    /// # Panics
    ///
    /// As [`write_into`](Self::write_into).
    pub(crate) fn write_summed(&self, payload: &[u8], checksum: u64, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "page buffer must be PAGE_SIZE");
        assert!(payload.len() <= PAYLOAD_PER_PAGE, "payload too large");
        assert_eq!(payload.len(), self.payload_len as usize);
        page[..PAGE_HEADER].copy_from_slice(&self.image());
        page[24..32].copy_from_slice(&checksum.to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
        page[PAGE_HEADER + payload.len()..].fill(0);
        debug_assert_eq!(checksum, page_checksum(page, payload.len()));
    }

    /// Decodes and verifies a page image. Returns the header; the payload
    /// is `page[PAGE_HEADER..PAGE_HEADER + payload_len]`.
    ///
    /// # Errors
    ///
    /// Returns a message when the kind byte, padding, payload length, or
    /// checksum is invalid — any of which marks the page as torn or
    /// foreign, and the caller discards the chain it belongs to.
    pub fn read_from(page: &[u8]) -> Result<Self, String> {
        let (header, stored) = Self::read_unverified(page)?;
        let computed = page_checksum(page, header.payload_len as usize);
        if stored != computed {
            return Err(checksum_mismatch(stored, computed));
        }
        Ok(header)
    }

    /// Decodes a page image like [`read_from`](Self::read_from) but
    /// leaves the checksum to the caller: returns the header and the
    /// stored checksum, which [`page_checksums`] must then match.
    ///
    /// # Errors
    ///
    /// As [`read_from`](Self::read_from), the checksum aside.
    pub(crate) fn read_unverified(page: &[u8]) -> Result<(Self, u64), String> {
        if page.len() != PAGE_SIZE {
            return Err(format!(
                "page image is {} bytes, not {PAGE_SIZE}",
                page.len()
            ));
        }
        let kind = page[0];
        if kind > KIND_DATA {
            return Err(format!("unknown page kind {kind}"));
        }
        if page[1..4] != [0, 0, 0] {
            return Err("nonzero header padding".to_owned());
        }
        let payload_len = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes"));
        if payload_len as usize > PAYLOAD_PER_PAGE {
            return Err(format!("payload_len {payload_len} exceeds page capacity"));
        }
        let next = u64::from_le_bytes(page[8..16].try_into().expect("8 bytes"));
        let token = u64::from_le_bytes(page[16..24].try_into().expect("8 bytes"));
        let stored = u64::from_le_bytes(page[24..32].try_into().expect("8 bytes"));
        let header = Self {
            kind,
            payload_len,
            next,
            token,
        };
        Ok((header, stored))
    }
}

/// The message for a page whose stored checksum is not the computed one.
pub(crate) fn checksum_mismatch(stored: u64, computed: u64) -> String {
    format!("page checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
}

/// The checksum of a page image: FNV-1a over the header with the
/// checksum field zeroed, then the first `payload_len` payload bytes.
fn page_checksum(page: &[u8], payload_len: usize) -> u64 {
    let mut scratch = [0u8; PAGE_HEADER];
    scratch.copy_from_slice(&page[..PAGE_HEADER]);
    scratch[24..32].fill(0);
    fnv_continue(
        fnv64(&scratch),
        &page[PAGE_HEADER..PAGE_HEADER + payload_len],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = PageHeader {
            kind: KIND_HEAD,
            payload_len: 5,
            next: 7,
            token: 0xdead_beef,
        };
        let mut page = vec![0u8; PAGE_SIZE];
        h.write_into(b"hello", &mut page);
        assert_eq!(PageHeader::read_from(&page).unwrap(), h);
    }

    #[test]
    fn free_page_round_trips() {
        let mut page = vec![0u8; PAGE_SIZE];
        PageHeader::free().write_into(&[], &mut page);
        let h = PageHeader::read_from(&page).unwrap();
        assert_eq!(h.kind, KIND_FREE);
        assert_eq!(h.payload_len, 0);
    }

    #[test]
    fn corrupt_payload_detected() {
        let h = PageHeader {
            kind: KIND_DATA,
            payload_len: 3,
            next: 0,
            token: 1,
        };
        let mut page = vec![0u8; PAGE_SIZE];
        h.write_into(b"abc", &mut page);
        page[PAGE_HEADER + 1] ^= 0x40;
        assert!(PageHeader::read_from(&page)
            .unwrap_err()
            .contains("checksum"));
    }

    #[test]
    fn corrupt_header_detected() {
        let h = PageHeader {
            kind: KIND_DATA,
            payload_len: 3,
            next: 0,
            token: 1,
        };
        let mut page = vec![0u8; PAGE_SIZE];
        h.write_into(b"abc", &mut page);
        page[9] ^= 1; // flip a bit of `next`
        assert!(PageHeader::read_from(&page)
            .unwrap_err()
            .contains("checksum"));
    }

    #[test]
    fn bytes_beyond_payload_are_not_covered() {
        // Stale bytes past payload_len must not affect validity: the
        // checksum covers exactly what a reader consumes.
        let h = PageHeader {
            kind: KIND_DATA,
            payload_len: 3,
            next: 0,
            token: 1,
        };
        let mut page = vec![0u8; PAGE_SIZE];
        h.write_into(b"abc", &mut page);
        page[PAGE_HEADER + 100] = 0xff;
        assert!(PageHeader::read_from(&page).is_ok());
    }

    #[test]
    fn oversized_payload_len_rejected() {
        let mut page = vec![0u8; PAGE_SIZE];
        PageHeader::free().write_into(&[], &mut page);
        page[4..8].copy_from_slice(&(PAYLOAD_PER_PAGE as u32 + 1).to_le_bytes());
        assert!(PageHeader::read_from(&page)
            .unwrap_err()
            .contains("capacity"));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut page = vec![0u8; PAGE_SIZE];
        PageHeader::free().write_into(&[], &mut page);
        page[0] = 9;
        assert!(PageHeader::read_from(&page).unwrap_err().contains("kind"));
    }

    #[test]
    fn four_lane_checksums_match_page_checksum() {
        // Chains of 1..=9 pages whose last page is empty, short or full.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for pages in 1..=9usize {
            for last in [0, 1, 17, PAYLOAD_PER_PAGE - 1, PAYLOAD_PER_PAGE] {
                let chain: Vec<(PageHeader, Vec<u8>)> = (0..pages)
                    .map(|i| {
                        let len = if i + 1 == pages {
                            last
                        } else {
                            PAYLOAD_PER_PAGE
                        };
                        let payload: Vec<u8> = (0..len)
                            .map(|_| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                x as u8
                            })
                            .collect();
                        let header = PageHeader {
                            kind: if i == 0 { KIND_HEAD } else { KIND_DATA },
                            payload_len: len as u32,
                            next: i as u64 + 2,
                            token: x,
                        };
                        (header, payload)
                    })
                    .collect();
                let inputs: Vec<_> = chain.iter().map(|(h, p)| (h.image(), &p[..])).collect();
                let sums = page_checksums(&inputs);
                assert_eq!(sums.len(), pages);
                for ((header, payload), sum) in chain.iter().zip(sums) {
                    let mut page = vec![0u8; PAGE_SIZE];
                    header.write_into(payload, &mut page);
                    assert_eq!(
                        sum,
                        page_checksum(&page, payload.len()),
                        "{pages} pages, last {last}"
                    );
                    assert_eq!(page[24..32], sum.to_le_bytes());
                }
            }
        }
    }

    #[test]
    fn fnv64_is_stable() {
        // Known FNV-1a vectors so the on-disk format can't silently drift.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
