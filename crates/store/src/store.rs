//! The durable session store: checkpoint blobs keyed by resume token.
//!
//! A [`SessionStore`] maps `u64` resume tokens to opaque checkpoint
//! blobs plus park metadata (session id, absolute expiry deadline, a
//! monotonic epoch), laid out as chains of checksummed pages in one
//! [`PageFile`] behind a [`BufferManager`]. Durability discipline:
//!
//! * [`SessionStore::put`] writes the whole new chain, then flushes and
//!   syncs **before** freeing any pages of the record it replaces — a
//!   crash at any instant leaves either the old record or the new one
//!   intact on disk, never neither.
//! * [`SessionStore::remove`] frees the chain and syncs, so a resumed
//!   session cannot resurrect with stale state after a later crash.
//! * The free list is **not** stored on disk. [`SessionStore::open`]
//!   rebuilds it — and the token index — by an authoritative scan of
//!   every page: torn or foreign pages are discarded, broken chains are
//!   dropped whole, and where two chains claim the same token (a crash
//!   between the new-chain sync and the old-chain free) the higher
//!   epoch wins.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;

use crate::buffer::BufferManager;
use crate::file::PageFile;
use crate::page::{
    checksum_mismatch, page_checksums, PageHeader, KIND_DATA, KIND_HEAD, PAGE_HEADER, PAGE_SIZE,
    PAYLOAD_PER_PAGE,
};

/// Bytes of record header at the front of a `HEAD` page's payload:
/// session_id u64, deadline_unix_ms u64, epoch u64, blob_len u32.
const REC_HEADER: usize = 28;

/// Blob bytes that fit in a record's head page.
const HEAD_CAPACITY: usize = PAYLOAD_PER_PAGE - REC_HEADER;

/// Park metadata stored alongside a checkpoint blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Server-assigned session id.
    pub session_id: u64,
    /// Absolute expiry deadline, milliseconds since the Unix epoch
    /// (0 = never expires). Stored absolute because a relative TTL
    /// cannot survive a restart.
    pub deadline_unix_ms: u64,
    /// Monotonic write epoch — newer wins when a crash leaves two
    /// chains claiming one token.
    pub epoch: u64,
}

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// On-disk bytes failed validation (checksum, chain, or header).
    Corrupt(String),
    /// The write would exceed the configured byte capacity.
    Full {
        /// Bytes the write needed.
        needed: u64,
        /// The configured capacity.
        capacity: u64,
    },
    /// No record under that token.
    NotFound(u64),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Full { needed, capacity } => write!(
                f,
                "store full: write needs {needed} bytes against a {capacity}-byte capacity"
            ),
            StoreError::NotFound(token) => write!(f, "no record for token {token:#018x}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Where one record lives.
#[derive(Debug, Clone)]
struct RecordLoc {
    /// Chain pages in order, head first.
    pages: Vec<u64>,
    meta: StoreMeta,
    blob_len: u32,
}

/// A durable token -> checkpoint-blob store over one page file.
#[derive(Debug)]
pub struct SessionStore {
    buf: BufferManager,
    index: HashMap<u64, RecordLoc>,
    free: Vec<u64>,
    /// Byte capacity for live pages (0 = unlimited).
    capacity_bytes: u64,
    next_epoch: u64,
}

/// Buffer-pool size in frames (64 pages = 256 KiB), deliberately small so
/// the store's working set, not the cache, bounds memory.
pub const DEFAULT_FRAMES: usize = 64;

/// Pages per recovery-scan job (4 MiB of file): coarse enough that a
/// job amortizes its dispatch, fine enough that a multi-GiB park file
/// still fans out over every worker.
const SCAN_RANGE_PAGES: u64 = 1024;

/// Parsed page headers from one page range of an open-time recovery
/// scan. Opaque to executors: they only ferry chunks from the scanner
/// back to [`SessionStore::open_scanned`], in any order, on any thread.
#[derive(Debug)]
pub struct ScanChunk {
    pages: Vec<(u64, Scanned)>,
    err: Option<io::Error>,
}

/// The per-range page scanner handed to an [`SessionStore::open_scanned`]
/// executor. `Sync`, so the executor may call it from many threads on
/// disjoint ranges concurrently (reads are positioned, `pread(2)`-style).
pub type PageScanner<'a> = &'a (dyn Fn(Range<u64>) -> ScanChunk + Sync + 'a);

#[derive(Debug, Clone)]
struct Scanned {
    header: PageHeader,
    /// Record header bytes, present on HEAD pages only.
    rec: Option<[u8; REC_HEADER]>,
}

impl SessionStore {
    /// Opens (or creates) the store at `path` over a buffer pool of
    /// [`DEFAULT_FRAMES`] frames, then scans every page to rebuild the
    /// token index and free list.
    ///
    /// # Errors
    ///
    /// I/O failures, or a superblock that is not a cira-store file.
    /// Page-level corruption is *not* an error: damaged chains are
    /// discarded and their salvageable pages freed.
    pub fn open(path: &Path, capacity_bytes: u64) -> Result<Self, StoreError> {
        // Sequential executor: run every scan job inline, in order.
        Self::open_scanned(path, capacity_bytes, |ranges, scan| {
            ranges.into_iter().map(scan).collect()
        })
    }

    /// Like [`SessionStore::open`], but the open-time recovery scan
    /// is split into page-range jobs and handed to `exec` to run —
    /// typically fanned over a worker pool. `exec` receives every range
    /// plus a thread-safe scanner and must return one [`ScanChunk`] per
    /// invocation, in any order; chunks from ranges it never scans are
    /// simply treated as unreadable (their pages land on the free list),
    /// so a conforming executor calls the scanner on **every** range.
    /// The scan only reads page headers (positioned reads, no shared
    /// cursor, buffer pool untouched); the chain walk that stitches
    /// records together stays sequential — it is index arithmetic, not
    /// I/O.
    ///
    /// # Errors
    ///
    /// I/O failures (including any surfaced inside scan jobs), or a
    /// superblock that is not a cira-store file. Page-level corruption
    /// is *not* an error: damaged chains are discarded and their
    /// salvageable pages freed.
    pub fn open_scanned<E>(path: &Path, capacity_bytes: u64, exec: E) -> Result<Self, StoreError>
    where
        E: FnOnce(Vec<Range<u64>>, PageScanner<'_>) -> Vec<ScanChunk>,
    {
        let file = if path.exists() {
            PageFile::open(path)?
        } else {
            PageFile::create(path)?
        };
        let count = file.page_count();
        let mut ranges = Vec::new();
        let mut at = 1u64; // page 0 is the superblock
        while at < count {
            let end = (at + SCAN_RANGE_PAGES).min(count);
            ranges.push(at..end);
            at = end;
        }
        let scan = |range: Range<u64>| -> ScanChunk {
            let mut chunk = ScanChunk {
                pages: Vec::new(),
                err: None,
            };
            let mut data = vec![0u8; PAGE_SIZE];
            for idx in range {
                if let Err(e) = file.read_page_at(idx, &mut data) {
                    chunk.err = Some(e);
                    return chunk;
                }
                let Ok(header) = PageHeader::read_from(&data) else {
                    continue; // torn or foreign page: unclaimed, freed later
                };
                let rec = if header.kind == KIND_HEAD {
                    if (header.payload_len as usize) < REC_HEADER {
                        continue; // head too short to carry a record header
                    }
                    let mut rec = [0u8; REC_HEADER];
                    rec.copy_from_slice(&data[32..32 + REC_HEADER]);
                    Some(rec)
                } else {
                    None
                };
                chunk.pages.push((idx, Scanned { header, rec }));
            }
            chunk
        };
        let chunks = exec(ranges, &scan);
        let mut pages: HashMap<u64, Scanned> = HashMap::new();
        for chunk in chunks {
            if let Some(e) = chunk.err {
                return Err(StoreError::Io(e));
            }
            for (idx, s) in chunk.pages {
                pages.insert(idx, s);
            }
        }

        let mut store = Self {
            buf: BufferManager::new(file, DEFAULT_FRAMES),
            index: HashMap::new(),
            free: Vec::new(),
            capacity_bytes,
            next_epoch: 1,
        };
        store.build_index(count, &pages);
        Ok(store)
    }

    /// Stitches scanned page headers into the record index and free
    /// list (the sequential tail of recovery).
    fn build_index(&mut self, count: u64, pages: &HashMap<u64, Scanned>) {
        // Walk every head's chain; only fully-valid chains survive.
        let mut records: HashMap<u64, RecordLoc> = HashMap::new();
        let mut max_epoch = 0u64;
        for (&head_idx, scanned) in pages {
            if scanned.header.kind != KIND_HEAD {
                continue;
            }
            let rec = scanned.rec.expect("heads carry a record header");
            let meta = StoreMeta {
                session_id: u64::from_le_bytes(rec[0..8].try_into().expect("8")),
                deadline_unix_ms: u64::from_le_bytes(rec[8..16].try_into().expect("8")),
                epoch: u64::from_le_bytes(rec[16..24].try_into().expect("8")),
            };
            let blob_len = u32::from_le_bytes(rec[24..28].try_into().expect("4"));
            let token = scanned.header.token;
            let mut chain = vec![head_idx];
            let mut seen: HashSet<u64> = chain.iter().copied().collect();
            let mut got = scanned.header.payload_len as usize - REC_HEADER;
            let mut next = scanned.header.next;
            let mut ok = true;
            while next != 0 {
                let Some(p) = pages.get(&next) else {
                    ok = false; // torn or missing continuation
                    break;
                };
                if p.header.kind != KIND_DATA || p.header.token != token || !seen.insert(next) {
                    ok = false;
                    break;
                }
                got += p.header.payload_len as usize;
                chain.push(next);
                next = p.header.next;
            }
            if !ok || got != blob_len as usize {
                cira_obs::debug!("store: discarding broken chain", token = token);
                continue;
            }
            max_epoch = max_epoch.max(meta.epoch);
            let loc = RecordLoc {
                pages: chain,
                meta,
                blob_len,
            };
            match records.get(&token) {
                // A crash between syncing the new chain and freeing the
                // old one leaves both; the higher epoch is the truth.
                Some(existing)
                    if (existing.meta.epoch, existing.pages[0]) >= (meta.epoch, head_idx) => {}
                _ => {
                    records.insert(token, loc);
                }
            }
        }
        // Free list: every page not claimed by a surviving chain.
        let live: HashSet<u64> = records
            .values()
            .flat_map(|r| r.pages.iter().copied())
            .collect();
        self.free = (1..count).filter(|idx| !live.contains(idx)).collect();
        self.index = records;
        self.next_epoch = max_epoch + 1;
        cira_obs::debug!(
            "store opened",
            records = self.index.len(),
            free_pages = self.free.len()
        );
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes consumed by live record pages.
    pub fn bytes_used(&self) -> u64 {
        let pages: usize = self.index.values().map(|r| r.pages.len()).sum();
        pages as u64 * PAGE_SIZE as u64
    }

    /// The configured capacity in bytes (0 = unlimited).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Buffer-pool page hits.
    pub fn page_hits(&self) -> u64 {
        self.buf.hits()
    }

    /// Buffer-pool page misses (disk reads).
    pub fn page_misses(&self) -> u64 {
        self.buf.misses()
    }

    /// Buffer-pool evictions.
    pub fn page_evictions(&self) -> u64 {
        self.buf.evictions()
    }

    /// Every live record's token and metadata, in no particular order.
    pub fn entries(&self) -> Vec<(u64, StoreMeta)> {
        self.index.iter().map(|(&t, r)| (t, r.meta)).collect()
    }

    /// The metadata for `token`, if present.
    pub fn meta(&self, token: u64) -> Option<StoreMeta> {
        self.index.get(&token).map(|r| r.meta)
    }

    /// How many chain pages a `blob_len`-byte record needs.
    fn pages_for(blob_len: usize) -> u64 {
        let tail = blob_len.saturating_sub(HEAD_CAPACITY);
        1 + tail.div_ceil(PAYLOAD_PER_PAGE) as u64
    }

    /// Stores `blob` under `token`, replacing any existing record, and
    /// syncs before returning. On return the record survives `kill -9`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] when the write would push live bytes past
    /// the capacity (the existing record under `token`, which the write
    /// replaces, does not count against it); I/O failures otherwise.
    pub fn put(
        &mut self,
        token: u64,
        session_id: u64,
        deadline_unix_ms: u64,
        blob: &[u8],
    ) -> Result<(), StoreError> {
        let new_pages = Self::pages_for(blob.len());
        if self.capacity_bytes > 0 {
            let replaced: u64 = self.index.get(&token).map_or(0, |r| r.pages.len() as u64);
            let projected =
                self.bytes_used() - replaced * PAGE_SIZE as u64 + new_pages * PAGE_SIZE as u64;
            if projected > self.capacity_bytes {
                return Err(StoreError::Full {
                    needed: projected,
                    capacity: self.capacity_bytes,
                });
            }
        }
        let meta = StoreMeta {
            session_id,
            deadline_unix_ms,
            epoch: self.next_epoch,
        };
        self.next_epoch += 1;

        // Allocate the chain: free pages first, then grow.
        let mut chain = Vec::with_capacity(new_pages as usize);
        while (chain.len() as u64) < new_pages {
            match self.free.pop() {
                Some(p) => chain.push(p),
                None => {
                    let remaining = new_pages - chain.len() as u64;
                    let first = self.buf.grow(remaining)?;
                    chain.extend(first..first + remaining);
                }
            }
        }

        // The head page carries the record header and the blob's first
        // bytes, each further page the next slice of the blob; `next`
        // pointers are known upfront. Every page is overwritten whole, so
        // none is read first.
        let mut rec = [0u8; REC_HEADER];
        rec[0..8].copy_from_slice(&meta.session_id.to_le_bytes());
        rec[8..16].copy_from_slice(&meta.deadline_unix_ms.to_le_bytes());
        rec[16..24].copy_from_slice(&meta.epoch.to_le_bytes());
        rec[24..28].copy_from_slice(&(blob.len() as u32).to_le_bytes());
        let head_take = blob.len().min(HEAD_CAPACITY);
        let mut head = Vec::with_capacity(REC_HEADER + head_take);
        head.extend_from_slice(&rec);
        head.extend_from_slice(&blob[..head_take]);
        let payloads: Vec<&[u8]> = std::iter::once(&head[..])
            .chain(blob[head_take..].chunks(PAYLOAD_PER_PAGE))
            .collect();
        debug_assert_eq!(payloads.len(), chain.len());
        let headers: Vec<PageHeader> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| PageHeader {
                kind: if i == 0 { KIND_HEAD } else { KIND_DATA },
                payload_len: payload.len() as u32,
                next: chain.get(i + 1).copied().unwrap_or(0),
                token,
            })
            .collect();
        let images: Vec<_> = headers
            .iter()
            .map(PageHeader::image)
            .zip(payloads.iter().copied())
            .collect();
        let sums = page_checksums(&images);
        for (((&page_idx, header), payload), sum) in
            chain.iter().zip(&headers).zip(&payloads).zip(sums)
        {
            self.buf
                .overwrite_page(page_idx, |page| header.write_summed(payload, sum, page))?;
        }

        // Durability point: the new chain reaches disk before the old
        // chain is touched. A crash on either side of this line leaves
        // exactly one valid record for the token (epoch breaks the tie).
        self.buf.flush_all()?;

        let old = self.index.insert(
            token,
            RecordLoc {
                pages: chain,
                meta,
                blob_len: blob.len() as u32,
            },
        );
        if let Some(old) = old {
            self.free_chain(&old.pages)?;
        }
        Ok(())
    }

    /// Loads the record under `token`, verifying every page checksum.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown tokens;
    /// [`StoreError::Corrupt`] when a page fails validation (bytes rotted
    /// since open); I/O failures otherwise.
    pub fn get(&mut self, token: u64) -> Result<(StoreMeta, Vec<u8>), StoreError> {
        let loc = self
            .index
            .get(&token)
            .cloned()
            .ok_or(StoreError::NotFound(token))?;
        // Read the whole chain, then check every page's checksum four
        // pages at a time. `read` keeps each page's header image, stored
        // checksum and payload span in `raw`, which holds the head page's
        // record header and then the blob.
        let mut raw = Vec::with_capacity(REC_HEADER + loc.blob_len as usize);
        let mut read = Vec::with_capacity(loc.pages.len());
        for &page_idx in &loc.pages {
            let start = raw.len();
            let (header, stored) = self
                .buf
                .with_page(page_idx, |data| -> Result<_, String> {
                    let (header, stored) = PageHeader::read_unverified(data)?;
                    if header.token != token {
                        return Err(format!(
                            "page {page_idx} belongs to token {:#018x}",
                            header.token
                        ));
                    }
                    raw.extend_from_slice(
                        &data[PAGE_HEADER..PAGE_HEADER + header.payload_len as usize],
                    );
                    Ok((header, stored))
                })?
                .map_err(StoreError::Corrupt)?;
            read.push((header.image(), stored, start..raw.len()));
        }
        let inputs: Vec<_> = read
            .iter()
            .map(|(image, _, span)| (*image, &raw[span.clone()]))
            .collect();
        for ((&page_idx, (_, stored, _)), computed) in
            loc.pages.iter().zip(&read).zip(page_checksums(&inputs))
        {
            if *stored != computed {
                return Err(StoreError::Corrupt(format!(
                    "page {page_idx}: {}",
                    checksum_mismatch(*stored, computed)
                )));
            }
        }
        if raw.len() != REC_HEADER + loc.blob_len as usize {
            return Err(StoreError::Corrupt(format!(
                "chain for token {token:#018x} reassembled {} bytes, expected {}",
                raw.len().saturating_sub(REC_HEADER),
                loc.blob_len
            )));
        }
        raw.drain(..REC_HEADER);
        Ok((loc.meta, raw))
    }

    /// Removes the record under `token` and syncs, so it cannot
    /// resurrect after a crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown tokens; I/O failures.
    pub fn remove(&mut self, token: u64) -> Result<StoreMeta, StoreError> {
        let loc = self
            .index
            .remove(&token)
            .ok_or(StoreError::NotFound(token))?;
        self.free_chain(&loc.pages)?;
        self.buf.flush_all()?;
        Ok(loc.meta)
    }

    /// Marks every page of a dead chain `FREE` and returns it to the
    /// free list. Not synced here — a crash before these writes land is
    /// resolved by the epoch rule at the next open.
    fn free_chain(&mut self, chain: &[u64]) -> Result<(), StoreError> {
        for &page_idx in chain {
            self.buf
                .overwrite_page(page_idx, |page| PageHeader::free().write_into(&[], page))?;
            self.free.push(page_idx);
        }
        Ok(())
    }

    /// Flushes and syncs any buffered writes.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.buf.flush_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cira-store-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sessions.cirstore")
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn put_get_round_trip_small_and_multi_page() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        let small = blob(100, 1);
        let large = blob(PAYLOAD_PER_PAGE * 3 + 17, 2);
        store.put(1, 10, 1000, &small).unwrap();
        store.put(2, 20, 2000, &large).unwrap();
        let (m1, b1) = store.get(1).unwrap();
        assert_eq!((m1.session_id, m1.deadline_unix_ms), (10, 1000));
        assert_eq!(b1, small);
        let (m2, b2) = store.get(2).unwrap();
        assert_eq!(m2.session_id, 20);
        assert_eq!(b2, large);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_survive_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        let big = blob(10_000, 3);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(77, 7, 123_456, &big).unwrap();
        } // dropped without any explicit close: put already synced
        let mut store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), 1);
        let (meta, back) = store.get(77).unwrap();
        assert_eq!(meta.session_id, 7);
        assert_eq!(meta.deadline_unix_ms, 123_456);
        assert_eq!(back, big);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replace_keeps_latest_and_reuses_pages() {
        let path = tmp("replace");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        store.put(5, 1, 0, &blob(9_000, 1)).unwrap();
        // The first replacement grows the file: the new chain must be on
        // disk before the old one is freed. The next replacement then
        // fits entirely in the freed pages.
        store.put(5, 1, 0, &blob(9_000, 5)).unwrap();
        let pages_after_second = store.buf.page_count();
        store.put(5, 1, 0, &blob(9_000, 9)).unwrap();
        assert_eq!(
            store.buf.page_count(),
            pages_after_second,
            "steady-state replacement reuses freed pages instead of growing"
        );
        let (_, back) = store.get(5).unwrap();
        assert_eq!(back, blob(9_000, 9));
        assert_eq!(store.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn remove_is_durable() {
        let path = tmp("remove");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(9, 1, 0, &blob(500, 4)).unwrap();
            store.remove(9).unwrap();
            assert!(matches!(store.get(9), Err(StoreError::NotFound(_))));
        }
        let store = SessionStore::open(&path, 0).unwrap();
        assert!(store.is_empty(), "removed record must not resurrect");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn capacity_is_enforced() {
        let path = tmp("capacity");
        let _ = std::fs::remove_file(&path);
        // Two pages of capacity: one single-page record fits, a second
        // does not.
        let mut store = SessionStore::open(&path, 2 * PAGE_SIZE as u64).unwrap();
        store.put(1, 1, 0, &blob(100, 1)).unwrap();
        store.put(2, 2, 0, &blob(100, 2)).unwrap();
        let err = store.put(3, 3, 0, &blob(100, 3)).unwrap_err();
        assert!(matches!(err, StoreError::Full { .. }), "{err}");
        // Replacing an existing record within capacity still works.
        store.put(2, 2, 0, &blob(200, 9)).unwrap();
        // And removing one frees capacity.
        store.remove(1).unwrap();
        store.put(3, 3, 0, &blob(100, 3)).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_page_discards_only_its_chain() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let good = blob(200, 1);
        let doomed = blob(PAYLOAD_PER_PAGE * 2, 2);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(1, 1, 0, &good).unwrap();
            store.put(2, 2, 0, &doomed).unwrap();
        }
        // Corrupt one payload byte of the second record's head page.
        // (Token 2's chain starts at page 2: page 1 went to token 1.)
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = 2 * PAGE_SIZE + 32 + REC_HEADER + 3;
        bytes[victim] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), 1, "only the undamaged record survives");
        assert_eq!(store.get(1).unwrap().1, good);
        assert!(matches!(store.get(2), Err(StoreError::NotFound(_))));
        // The dead chain's pages are reusable.
        store.put(3, 3, 0, &doomed).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn get_refuses_a_page_that_rotted_after_open() {
        let path = tmp("rot");
        let _ = std::fs::remove_file(&path);
        let record = blob(PAYLOAD_PER_PAGE * 5 + 100, 7);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(8, 8, 0, &record).unwrap();
        }
        // Pages 1..=6 hold the chain; flip one payload byte of the head,
        // a middle page and the short last page, each after a clean open.
        for page in [1, 4, 6] {
            let mut store = SessionStore::open(&path, 0).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let at = page * PAGE_SIZE + PAGE_HEADER + REC_HEADER + 5;
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let err = store.get(8).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains(&format!("page {page}: page checksum"))),
                "page {page}: {err}"
            );
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
        }
        let mut store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.get(8).unwrap().1, record);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_chain_is_discarded() {
        let path = tmp("chain");
        let _ = std::fs::remove_file(&path);
        let long = blob(PAYLOAD_PER_PAGE * 3, 5);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(4, 4, 0, &long).unwrap();
        }
        // Zero a continuation page wholesale (simulates a torn write).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2 * PAGE_SIZE..3 * PAGE_SIZE].fill(0xcc);
        std::fs::write(&path, &bytes).unwrap();
        let store = SessionStore::open(&path, 0).unwrap();
        assert!(
            store.is_empty(),
            "a chain with a torn page is dropped whole"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_tokens_resolve_by_epoch() {
        let path = tmp("epoch");
        let _ = std::fs::remove_file(&path);
        let old = blob(100, 1);
        let new = blob(100, 2);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(6, 6, 0, &old).unwrap();
        }
        // Capture the old record's page image, write the replacement,
        // then splice the old image back in as if the free never landed.
        let before = std::fs::read(&path).unwrap();
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(6, 6, 0, &new).unwrap();
        }
        let mut after = std::fs::read(&path).unwrap();
        // Page 1 held the old epoch-1 chain; the new chain reused it
        // after the free. Re-plant the old image on a fresh page so both
        // chains coexist (old epoch on page count, new epoch wherever it
        // landed).
        after.extend_from_slice(&before[PAGE_SIZE..2 * PAGE_SIZE]);
        std::fs::write(&path, &after).unwrap();

        let mut store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(6).unwrap().1, new, "higher epoch wins");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn page_cache_counters_move() {
        let path = tmp("cache");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        // A head page plus two more per record: 40 records overflow the pool.
        let records = 40u64;
        assert!(3 * records as usize > DEFAULT_FRAMES);
        for t in 0..records {
            let three_pages = blob(PAYLOAD_PER_PAGE * 2, t as u8);
            store.put(t, t, 0, &three_pages).unwrap();
        }
        for t in 0..records {
            store.get(t).unwrap();
        }
        assert!(store.page_misses() > 0, "cold reads miss");
        assert!(store.page_evictions() > 0, "a full frame pool must evict");
        store.get(records - 1).unwrap();
        assert!(store.page_hits() > 0, "re-reads hit");
        std::fs::remove_file(&path).unwrap();
    }

    /// A deliberately hostile executor: scans ranges on four threads and
    /// returns the chunks reversed, exercising the "any order, any
    /// thread" contract.
    fn threaded_exec(ranges: Vec<std::ops::Range<u64>>, scan: PageScanner<'_>) -> Vec<ScanChunk> {
        let mut chunks: Vec<(usize, ScanChunk)> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(i, r)| s.spawn(move || (i, scan(r))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        chunks.reverse();
        chunks.into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let path = tmp("parscan");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            for t in 0..24u64 {
                let len = 64 + (t as usize % 5) * PAYLOAD_PER_PAGE;
                store.put(t, t * 10, t * 1000, &blob(len, t as u8)).unwrap();
            }
            store.remove(7).unwrap();
            store.remove(13).unwrap();
        }
        // Corrupt one record so the parallel path also agrees on
        // discarded chains (token 0's single page is page 1).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 40] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut seq = SessionStore::open(&path, 0).unwrap();
        let mut par = SessionStore::open_scanned(&path, 0, threaded_exec).unwrap();
        assert_eq!(par.len(), seq.len());
        assert_eq!(par.bytes_used(), seq.bytes_used());
        let mut a = seq.entries();
        let mut b = par.entries();
        a.sort_by_key(|(t, _)| *t);
        b.sort_by_key(|(t, _)| *t);
        assert_eq!(a, b, "index metadata must not depend on scan order");
        for (t, _) in a {
            let (ma, ba) = seq.get(t).unwrap();
            let (mb, bb) = par.get(t).unwrap();
            assert_eq!(ma, mb);
            assert_eq!(ba, bb, "record bytes must not depend on scan order");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scanned_open_reuses_free_pages_like_sequential() {
        let path = tmp("parscan-free");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(1, 1, 0, &blob(PAYLOAD_PER_PAGE * 2, 1)).unwrap();
            store.remove(1).unwrap();
        }
        let mut store = SessionStore::open_scanned(&path, 0, threaded_exec).unwrap();
        let pages_before = store.buf.page_count();
        store.put(2, 2, 0, &blob(PAYLOAD_PER_PAGE * 2, 2)).unwrap();
        assert_eq!(
            store.buf.page_count(),
            pages_before,
            "freed pages found by the parallel scan are reused, not regrown"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn entries_and_meta_report_deadlines() {
        let path = tmp("entries");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        store.put(1, 11, 5_000, &blob(10, 0)).unwrap();
        store.put(2, 22, 9_000, &blob(10, 1)).unwrap();
        let mut entries = store.entries();
        entries.sort_by_key(|(t, _)| *t);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.session_id, 11);
        assert_eq!(entries[1].1.deadline_unix_ms, 9_000);
        assert_eq!(store.meta(2).unwrap().deadline_unix_ms, 9_000);
        assert!(store.meta(3).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
