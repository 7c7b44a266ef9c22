//! The durable session store: checkpoint blobs keyed by resume token.
//!
//! A [`SessionStore`] maps `u64` resume tokens to opaque checkpoint
//! blobs plus park metadata (session id, absolute expiry deadline, a
//! monotonic epoch), laid out as chains of checksummed pages in one
//! [`PageFile`]. A chain takes its pages in ascending order and moves
//! through one buffer of page images, with one read or write per run of
//! consecutive pages. Durability discipline:
//!
//! * [`SessionStore::put`] and [`SessionStore::remove`] each end in a
//!   sync, so on return the write survives a crash. Each is its write
//!   half ([`SessionStore::put_unsynced`],
//!   [`SessionStore::remove_unsynced`]) followed by
//!   [`SessionStore::sync`]. A write half puts its pages in the file and
//!   returns without syncing; a caller that batches several of them, or
//!   syncs on another thread through a [`SyncHandle`], makes them all
//!   crash-safe with one sync.
//! * A put that replaces a live record writes the whole new chain, then
//!   syncs **before** freeing any pages of the record it replaces — a
//!   crash at any instant leaves either the old record or the new one
//!   intact on disk, never neither.
//! * A removal rewrites every page of its chain as `FREE`. Freed pages
//!   are not handed out again until a sync that began after those
//!   `FREE` headers were written has returned, so a torn write of a
//!   later chain can never find an old chain's `DATA` pages still valid
//!   and stitch them into a record that never existed.
//! * The free list is **not** stored on disk. [`SessionStore::open`]
//!   rebuilds it — and the token index — by an authoritative scan of
//!   every page, one pass that reads the file in runs of up to 256
//!   pages: torn or foreign pages are discarded, broken chains are
//!   dropped whole, and where two chains claim the same token (a crash
//!   between the new-chain sync and the old-chain free) the higher
//!   epoch wins.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::file::{FileSyncer, PageFile};
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
    file: PageFile,
    index: HashMap<u64, RecordLoc>,
    /// Pages free for reuse: `FREE` (or never written) on disk.
    free: Vec<u64>,
    /// Pages a write half freed, each with that write half's number,
    /// in ascending number order; they join `free` once a sync covers
    /// the number.
    pending_free: Vec<(u64, u64)>,
    /// Write halves completed so far (mirrored in `progress.written`).
    written: u64,
    progress: Arc<SyncProgress>,
    /// Byte capacity for live pages (0 = unlimited).
    capacity_bytes: u64,
    next_epoch: u64,
}

/// How far the page file's syncs have caught up with its writes, shared
/// by a store and its [`SyncHandle`]s.
#[derive(Debug, Default)]
struct SyncProgress {
    /// The number of the last completed write half: all its pages were
    /// in the file when the number was stored.
    written: AtomicU64,
    /// The highest write-half number a returned sync covers.
    synced: AtomicU64,
}

/// Syncs a [`SessionStore`]'s page file from any thread, through a
/// second descriptor, without the store's `&mut`. A sync covers every
/// write half completed before it began; once it returns, the pages those
/// write halves freed become reusable.
#[derive(Debug)]
pub struct SyncHandle {
    file: FileSyncer,
    progress: Arc<SyncProgress>,
}

impl SyncHandle {
    /// Syncs the page file, covering every write half completed before
    /// the call.
    ///
    /// # Errors
    ///
    /// I/O failures syncing; nothing counts as covered then.
    pub fn sync(&self) -> io::Result<()> {
        let target = self.progress.written.load(Ordering::Acquire);
        self.file.sync()?;
        self.progress.synced.fetch_max(target, Ordering::Release);
        Ok(())
    }
}

/// Pages the open-time scan reads with one call: 1 MiB of file.
const SCAN_RUN_PAGES: u64 = 256;

/// A page the open-time scan found intact.
#[derive(Debug, Clone)]
struct Scanned {
    header: PageHeader,
    /// Record header bytes, present on HEAD pages only.
    rec: Option<[u8; REC_HEADER]>,
}

impl SessionStore {
    /// Opens (or creates) the store at `path`, then scans every page to
    /// rebuild the token index and free list. The scan reads the file in
    /// runs of up to 256 pages, one read per run, and checks each run's
    /// page checksums four pages at a time.
    ///
    /// # Errors
    ///
    /// I/O failures, or a superblock that is not a cira-store file.
    /// Page-level corruption is *not* an error: damaged chains are
    /// discarded and their salvageable pages freed.
    pub fn open(path: &Path, capacity_bytes: u64) -> Result<Self, StoreError> {
        let file = if path.exists() {
            PageFile::open(path)?
        } else {
            PageFile::create(path)?
        };
        let count = file.page_count();
        // Intact pages by index; page 0, the superblock, stays `None`.
        let mut pages: Vec<Option<Scanned>> = vec![None; count as usize];
        let mut buf = vec![0u8; (count - 1).min(SCAN_RUN_PAGES) as usize * PAGE_SIZE];
        let mut first = 1;
        while first < count {
            let len = (count - first).min(SCAN_RUN_PAGES);
            let run = &mut buf[..len as usize * PAGE_SIZE];
            file.read_pages(first, run)?;
            scan_run(first, run, &mut pages);
            first += len;
        }

        let mut store = Self {
            file,
            index: HashMap::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            written: 0,
            progress: Arc::default(),
            capacity_bytes,
            next_epoch: 1,
        };
        store.build_index(&pages);
        Ok(store)
    }

    /// Stitches the scanned pages into the record index and free list.
    fn build_index(&mut self, pages: &[Option<Scanned>]) {
        // Walk every head's chain; only fully-valid chains survive.
        let mut records: HashMap<u64, RecordLoc> = HashMap::new();
        let mut max_epoch = 0u64;
        for (head_idx, scanned) in (0u64..).zip(pages) {
            // Only a HEAD page carries a record header.
            let Some(Scanned {
                header,
                rec: Some(rec),
            }) = scanned
            else {
                continue;
            };
            let meta = StoreMeta {
                session_id: u64::from_le_bytes(rec[0..8].try_into().expect("8")),
                deadline_unix_ms: u64::from_le_bytes(rec[8..16].try_into().expect("8")),
                epoch: u64::from_le_bytes(rec[16..24].try_into().expect("8")),
            };
            let blob_len = u32::from_le_bytes(rec[24..28].try_into().expect("4"));
            let token = header.token;
            let mut chain = vec![head_idx];
            let mut seen: HashSet<u64> = chain.iter().copied().collect();
            let mut got = header.payload_len as usize - REC_HEADER;
            let mut next = header.next;
            let mut ok = true;
            while next != 0 {
                let Some(p) = pages.get(next as usize).and_then(Option::as_ref) else {
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
        let mut live = vec![false; pages.len()];
        for &page_idx in records.values().flat_map(|r| &r.pages) {
            live[page_idx as usize] = true;
        }
        self.free = (1..pages.len() as u64)
            .filter(|&idx| !live[idx as usize])
            .collect();
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
    /// As [`SessionStore::put_unsynced`], plus sync failures.
    pub fn put(
        &mut self,
        token: u64,
        session_id: u64,
        deadline_unix_ms: u64,
        blob: &[u8],
    ) -> Result<(), StoreError> {
        self.put_unsynced(token, session_id, deadline_unix_ms, blob)?;
        self.sync()
    }

    /// The write half of [`SessionStore::put`]: writes the record's
    /// pages into the file and returns without syncing, so the record
    /// is crash-safe only once the next sync returns. Replacing a live
    /// record is the exception: the new chain is synced before the old
    /// one is freed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] when the write would push live bytes past
    /// the capacity (the existing record under `token`, which the write
    /// replaces, does not count against it); I/O failures otherwise.
    pub fn put_unsynced(
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

        // Allocate the chain: free pages first, then grow, in ascending
        // order so that consecutive pages make one run.
        self.reclaim();
        let mut chain = self
            .free
            .split_off(self.free.len().saturating_sub(new_pages as usize));
        let grown = new_pages - chain.len() as u64;
        if grown > 0 {
            let first = self.file.grow(grown)?;
            chain.extend(first..first + grown);
        }
        chain.sort_unstable();

        // The head page carries the record header and the blob's first
        // bytes, each further page the next slice of the blob; `next`
        // pointers are known upfront.
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
        let inputs: Vec<_> = headers
            .iter()
            .map(PageHeader::image)
            .zip(payloads.iter().copied())
            .collect();
        let mut images = vec![0u8; chain.len() * PAGE_SIZE];
        for (((page, header), payload), sum) in images
            .chunks_exact_mut(PAGE_SIZE)
            .zip(&headers)
            .zip(&payloads)
            .zip(page_checksums(&inputs))
        {
            header.write_summed(payload, sum, page);
        }
        self.write_chain(&chain, &images)?;
        self.complete_write();

        // Durability point of a replacement: the new chain reaches disk
        // before the old chain is touched. A crash on either side of
        // this line leaves exactly one valid record for the token
        // (epoch breaks the tie).
        if self.index.contains_key(&token) {
            self.sync()?;
        }
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
            self.complete_write();
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
    pub fn get(&self, token: u64) -> Result<(StoreMeta, Vec<u8>), StoreError> {
        let loc = self.index.get(&token).ok_or(StoreError::NotFound(token))?;
        // Read the whole chain's page images, then check every page's
        // checksum four pages at a time, in that buffer.
        let mut images = vec![0u8; loc.pages.len() * PAGE_SIZE];
        self.read_chain(&loc.pages, &mut images)?;
        let mut inputs = Vec::with_capacity(loc.pages.len());
        let mut stored = Vec::with_capacity(loc.pages.len());
        for (&page_idx, page) in loc.pages.iter().zip(images.chunks_exact(PAGE_SIZE)) {
            let (header, sum) = PageHeader::read_unverified(page).map_err(StoreError::Corrupt)?;
            if header.token != token {
                return Err(StoreError::Corrupt(format!(
                    "page {page_idx} belongs to token {:#018x}",
                    header.token
                )));
            }
            let payload = &page[PAGE_HEADER..PAGE_HEADER + header.payload_len as usize];
            inputs.push((header.image(), payload));
            stored.push(sum);
        }
        for ((&page_idx, stored), computed) in
            loc.pages.iter().zip(stored).zip(page_checksums(&inputs))
        {
            if stored != computed {
                return Err(StoreError::Corrupt(format!(
                    "page {page_idx}: {}",
                    checksum_mismatch(stored, computed)
                )));
            }
        }
        // The head page's record header, then the blob.
        let mut raw = Vec::with_capacity(REC_HEADER + loc.blob_len as usize);
        for (_, payload) in inputs {
            raw.extend_from_slice(payload);
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
    /// As [`SessionStore::remove_unsynced`], plus sync failures.
    pub fn remove(&mut self, token: u64) -> Result<StoreMeta, StoreError> {
        let meta = self.remove_unsynced(token)?;
        self.sync()?;
        Ok(meta)
    }

    /// The write half of [`SessionStore::remove`]: rewrites the record's
    /// pages as `FREE` in the file and returns without syncing. Until
    /// the next sync returns, a crash may bring the record back, and
    /// its pages are not reused.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown tokens; I/O failures.
    pub fn remove_unsynced(&mut self, token: u64) -> Result<StoreMeta, StoreError> {
        let loc = self
            .index
            .remove(&token)
            .ok_or(StoreError::NotFound(token))?;
        self.free_chain(&loc.pages)?;
        self.complete_write();
        Ok(loc.meta)
    }

    /// Rewrites every page of a dead chain as `FREE` and queues it for
    /// reuse once a sync covers the write half now being written.
    fn free_chain(&mut self, chain: &[u64]) -> Result<(), StoreError> {
        let mut free = [0u8; PAGE_SIZE];
        PageHeader::free().write_into(&[], &mut free);
        self.write_chain(chain, &free.repeat(chain.len()))?;
        let number = self.written + 1;
        self.pending_free
            .extend(chain.iter().map(|&page_idx| (number, page_idx)));
        Ok(())
    }

    /// Writes a chain's page images, in chain order, with one write per
    /// run of consecutive pages.
    fn write_chain(&mut self, chain: &[u64], mut images: &[u8]) -> io::Result<()> {
        for run in runs(chain) {
            let (head, rest) = images.split_at(run.len() * PAGE_SIZE);
            self.file.write_pages(run[0], head)?;
            images = rest;
        }
        Ok(())
    }

    /// Reads a chain's page images, in chain order, with one read per
    /// run of consecutive pages.
    fn read_chain(&self, chain: &[u64], mut images: &mut [u8]) -> io::Result<()> {
        for run in runs(chain) {
            let (head, rest) = std::mem::take(&mut images).split_at_mut(run.len() * PAGE_SIZE);
            self.file.read_pages(run[0], head)?;
            images = rest;
        }
        Ok(())
    }

    /// Ends a write half whose pages are all in the file: numbers it,
    /// so a sync that begins from here on covers it.
    fn complete_write(&mut self) {
        self.written += 1;
        self.progress.written.store(self.written, Ordering::Release);
    }

    /// Moves the pending frees a returned sync covers to the free list.
    fn reclaim(&mut self) {
        let synced = self.progress.synced.load(Ordering::Acquire);
        let covered = self.pending_free.partition_point(|&(n, _)| n <= synced);
        self.free
            .extend(self.pending_free.drain(..covered).map(|(_, page)| page));
    }

    /// Whether some write half has not been covered by a returned sync.
    pub fn has_unsynced(&self) -> bool {
        self.progress.synced.load(Ordering::Acquire) < self.written
    }

    /// Syncs the page file if any write half is not yet covered, then
    /// frees the pages that removals were holding back.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.has_unsynced() {
            self.file.sync()?;
            self.progress
                .synced
                .fetch_max(self.written, Ordering::Release);
        }
        self.reclaim();
        Ok(())
    }

    /// A [`SyncHandle`] that syncs this store's page file from another
    /// thread.
    ///
    /// # Errors
    ///
    /// I/O failures duplicating the file descriptor.
    pub fn sync_handle(&self) -> io::Result<SyncHandle> {
        Ok(SyncHandle {
            file: self.file.syncer()?,
            progress: Arc::clone(&self.progress),
        })
    }
}

/// A chain's runs of consecutive ascending pages, in chain order.
fn runs(chain: &[u64]) -> impl Iterator<Item = &[u64]> {
    chain.chunk_by(|&a, &b| b == a + 1)
}

/// Keeps in `pages` each page of the run read from page `first` whose
/// header parses and whose checksum matches. A torn or foreign page stays
/// `None`, so the chain through it is discarded whole.
fn scan_run(first: u64, run: &[u8], pages: &mut [Option<Scanned>]) {
    let mut parsed = Vec::new();
    let mut inputs = Vec::new();
    for (idx, page) in (first..).zip(run.chunks_exact(PAGE_SIZE)) {
        let Ok((header, stored)) = PageHeader::read_unverified(page) else {
            continue;
        };
        parsed.push((idx, header, stored));
        inputs.push((
            header.image(),
            &page[PAGE_HEADER..PAGE_HEADER + header.payload_len as usize],
        ));
    }
    let sums = page_checksums(&inputs);
    for (((idx, header, stored), (_, payload)), computed) in
        parsed.into_iter().zip(inputs).zip(sums)
    {
        if stored != computed {
            continue;
        }
        let rec = match header.kind {
            KIND_HEAD => match payload.get(..REC_HEADER) {
                Some(rec) => Some(rec.try_into().expect("REC_HEADER bytes")),
                None => continue, // head too short to carry a record header
            },
            _ => None,
        };
        pages[idx as usize] = Some(Scanned { header, rec });
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        let store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), 1);
        let (meta, back) = store.get(77).unwrap();
        assert_eq!(meta.session_id, 7);
        assert_eq!(meta.deadline_unix_ms, 123_456);
        assert_eq!(back, big);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        let pages_after_second = store.file.page_count();
        store.put(5, 1, 0, &blob(9_000, 9)).unwrap();
        assert_eq!(
            store.file.page_count(),
            pages_after_second,
            "steady-state replacement reuses freed pages instead of growing"
        );
        let (_, back) = store.get(5).unwrap();
        assert_eq!(back, blob(9_000, 9));
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A crash image: the page file as a sync left it. Copied right
    /// after the sync returns, it drops every write made later, which
    /// is what a power loss may do to writes no sync has covered.
    fn crash_image(path: &std::path::Path, name: &str) -> std::path::PathBuf {
        let image = path.with_file_name(format!("{name}.image"));
        std::fs::copy(path, &image).unwrap();
        image
    }

    #[test]
    fn write_halves_then_one_sync_reopen_with_every_record() {
        let path = tmp("halves");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        let handle = store.sync_handle().unwrap();
        let blobs: Vec<Vec<u8>> = (0..6u8)
            .map(|t| blob(100 + t as usize * PAYLOAD_PER_PAGE, t))
            .collect();
        for (t, b) in blobs.iter().enumerate() {
            store.put_unsynced(t as u64, t as u64, 0, b).unwrap();
        }
        assert!(store.has_unsynced());
        // One sync, on another thread, covers all six write halves.
        std::thread::scope(|s| s.spawn(|| handle.sync().unwrap()).join().unwrap());
        assert!(!store.has_unsynced());
        let image = crash_image(&path, "halves");
        // Later unsynced writes are not in the image.
        store.remove_unsynced(0).unwrap();
        store.put_unsynced(9, 9, 0, &blob(50, 9)).unwrap();
        assert!(store.has_unsynced());

        let recovered = SessionStore::open(&image, 0).unwrap();
        assert_eq!(recovered.len(), blobs.len());
        for (t, b) in blobs.iter().enumerate() {
            assert_eq!(&recovered.get(t as u64).unwrap().1, b, "token {t}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn pages_freed_by_an_unsynced_removal_wait_for_the_next_sync() {
        let path = tmp("pending");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        let handle = store.sync_handle().unwrap();
        let len = PAYLOAD_PER_PAGE * 2;
        store.put(1, 1, 0, &blob(len, 1)).unwrap();
        let freed = store.index[&1].pages.clone();
        store.remove_unsynced(1).unwrap();
        // A re-put of the same token before any sync lands on fresh
        // pages: the freed ones still hold old DATA a crash could keep.
        store.put_unsynced(1, 1, 0, &blob(len, 2)).unwrap();
        let fresh = store.index[&1].pages.clone();
        assert!(
            fresh.iter().all(|p| !freed.contains(p)),
            "freed pages {freed:?} reused as {fresh:?} before a sync"
        );
        let image = crash_image(&path, "pending");
        // After a sync the freed pages are reusable again.
        handle.sync().unwrap();
        let pages = store.file.page_count();
        store.put_unsynced(2, 2, 0, &blob(len, 3)).unwrap();
        assert_eq!(store.file.page_count(), pages, "no growth once synced");
        let mut reused = store.index[&2].pages.clone();
        reused.sort_unstable();
        assert_eq!(reused, freed);
        // The crash image taken between the removal and its sync holds
        // token 1 whole, old or new, never a mix of the two.
        let recovered = SessionStore::open(&image, 0).unwrap();
        let (_, back) = recovered.get(1).unwrap();
        assert!(back == blob(len, 1) || back == blob(len, 2));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
            let store = SessionStore::open(&path, 0).unwrap();
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
        let store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.get(8).unwrap().1, record);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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

        let store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(6).unwrap().1, new, "higher epoch wins");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Blob bytes that fill a two-page chain.
    const TWO_PAGES: usize = HEAD_CAPACITY + PAYLOAD_PER_PAGE;

    #[test]
    fn chains_take_their_pages_in_ascending_order() {
        let path = tmp("ascending");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        store.put(1, 1, 0, &blob(TWO_PAGES, 1)).unwrap();
        store.put(2, 2, 0, &blob(TWO_PAGES, 2)).unwrap();
        assert_eq!(store.index[&1].pages, [1, 2], "from a fresh file");
        assert_eq!(store.index[&2].pages, [3, 4], "from a fresh file");
        // Removing the later chain first refills the free list out of
        // page order; a five-page chain takes all four pages plus one
        // grown page, and lists them ascending.
        store.remove_unsynced(2).unwrap();
        store.remove_unsynced(1).unwrap();
        store.sync().unwrap();
        store
            .put(3, 3, 0, &blob(TWO_PAGES + 3 * PAYLOAD_PER_PAGE, 3))
            .unwrap();
        assert_eq!(store.index[&3].pages, [1, 2, 3, 4, 5], "from the free list");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A store whose free list holds three two-page holes, pages 1–2, 5–6
    /// and 9–10: six two-page records were put (tokens 0..6), every other
    /// one removed, and the removals synced.
    fn store_with_holes(path: &std::path::Path) -> SessionStore {
        let _ = std::fs::remove_file(path);
        let mut store = SessionStore::open(path, 0).unwrap();
        for t in 0..6u64 {
            store.put(t, t, 0, &blob(TWO_PAGES, t as u8)).unwrap();
        }
        for t in [0, 2, 4] {
            store.remove_unsynced(t).unwrap();
        }
        store.sync().unwrap();
        store
    }

    /// An eight-page record, larger than any hole of [`store_with_holes`]:
    /// its chain takes the three holes plus two grown pages, four runs.
    fn larger_than_any_hole() -> Vec<u8> {
        blob(TWO_PAGES + 6 * PAYLOAD_PER_PAGE, 9)
    }

    #[test]
    fn a_chain_in_several_runs_round_trips_and_reopens_from_a_crash_image() {
        let path = tmp("runs");
        let mut store = store_with_holes(&path);
        let record = larger_than_any_hole();
        store.put_unsynced(9, 9, 0, &record).unwrap();
        let chain = &store.index[&9].pages;
        assert_eq!(chain, &[1, 2, 5, 6, 9, 10, 13, 14]);
        assert_eq!(runs(chain).count(), 4);
        assert_eq!(store.get(9).unwrap().1, record);
        store.sync_handle().unwrap().sync().unwrap();
        let image = crash_image(&path, "runs");
        let recovered = SessionStore::open(&image, 0).unwrap();
        assert_eq!(recovered.len(), 4);
        assert_eq!(recovered.get(9).unwrap().1, record);
        for t in [1, 3, 5] {
            assert_eq!(recovered.get(t).unwrap().1, blob(TWO_PAGES, t as u8));
        }
        // Flip one payload byte of the second run's second page.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6 * PAGE_SIZE + PAGE_HEADER + 5] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.get(9).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("page 6: page checksum")),
            "{err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_chain_written_in_descending_page_order_opens_and_reads_back() {
        let path = tmp("descending");
        let _ = std::fs::remove_file(&path);
        let record = blob(TWO_PAGES + 50, 4);
        {
            // Head on page 3, then pages 2 and 1: the order in which a
            // build that popped its free list page by page could chain
            // them.
            let mut file = PageFile::create(&path).unwrap();
            file.grow(3).unwrap();
            let mut head = Vec::new();
            for field in [11u64, 0, 1] {
                head.extend_from_slice(&field.to_le_bytes()); // session id, deadline, epoch
            }
            head.extend_from_slice(&(record.len() as u32).to_le_bytes());
            head.extend_from_slice(&record[..HEAD_CAPACITY]);
            let payloads =
                std::iter::once(&head[..]).chain(record[HEAD_CAPACITY..].chunks(PAYLOAD_PER_PAGE));
            for (page_idx, payload) in (1..=3u64).rev().zip(payloads) {
                let mut page = vec![0u8; PAGE_SIZE];
                PageHeader {
                    kind: if page_idx == 3 { KIND_HEAD } else { KIND_DATA },
                    payload_len: payload.len() as u32,
                    next: page_idx - 1,
                    token: 4,
                }
                .write_into(payload, &mut page);
                file.write_pages(page_idx, &page).unwrap();
            }
            file.sync().unwrap();
        }
        let mut store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.index[&4].pages, [3, 2, 1]);
        let (meta, back) = store.get(4).unwrap();
        assert_eq!((meta.session_id, meta.epoch), (11, 1));
        assert_eq!(back, record);
        store.remove(4).unwrap();
        assert!(SessionStore::open(&path, 0).unwrap().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// The calling thread's read and write system calls so far, `syscr`
    /// and `syscw` of `/proc/thread-self/io`.
    #[cfg(target_os = "linux")]
    fn thread_io() -> (u64, u64) {
        use std::io::Read as _;
        // One read into a buffer larger than the file, so that each
        // reading costs the same calls.
        let mut buf = [0u8; 1024];
        let n = std::fs::File::open("/proc/thread-self/io")
            .and_then(|mut f| f.read(&mut buf))
            .expect("read /proc/thread-self/io");
        let text = std::str::from_utf8(&buf[..n]).unwrap();
        let field = |name: &str| -> u64 {
            let line = text.lines().find_map(|l| l.strip_prefix(name));
            line.expect(name).trim().parse().unwrap()
        };
        (field("syscr:"), field("syscw:"))
    }

    /// The read and write system calls `f` makes on this thread, net of
    /// what reading the counters costs.
    #[cfg(target_os = "linux")]
    fn io_calls(f: impl FnOnce()) -> (u64, u64) {
        let a = thread_io();
        let b = thread_io();
        f();
        let c = thread_io();
        ((c.0 - b.0) - (b.0 - a.0), (c.1 - b.1) - (b.1 - a.1))
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_chain_moves_with_one_system_call_per_run() {
        let path = tmp("syscalls");
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).unwrap();
        // The size of a default session's checkpoint: 21 pages.
        let record = blob(82_473, 3);
        assert_eq!(SessionStore::pages_for(record.len()), 21);
        let put = io_calls(|| store.put_unsynced(1, 1, 0, &record).unwrap());
        assert_eq!(put, (0, 1), "put_unsynced: (reads, writes)");
        let get = io_calls(|| assert_eq!(store.get(1).unwrap().1, record));
        assert_eq!(get, (1, 0), "get: (reads, writes)");
        let remove = io_calls(|| {
            store.remove_unsynced(1).unwrap();
        });
        assert_eq!(remove, (0, 1), "remove_unsynced: (reads, writes)");

        // A chain in four runs takes four calls each way.
        let mut store = store_with_holes(&path);
        let record = larger_than_any_hole();
        let put = io_calls(|| store.put_unsynced(9, 9, 0, &record).unwrap());
        assert_eq!(runs(&store.index[&9].pages).count(), 4);
        assert_eq!(put, (0, 4), "put_unsynced: (reads, writes)");
        let get = io_calls(|| assert_eq!(store.get(9).unwrap().1, record));
        assert_eq!(get, (4, 0), "get: (reads, writes)");
        let remove = io_calls(|| {
            store.remove_unsynced(9).unwrap();
        });
        assert_eq!(remove, (0, 4), "remove_unsynced: (reads, writes)");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn open_reads_the_file_with_one_call_per_run() {
        let path = tmp("open-syscalls");
        drop(store_of_default_records(&path));
        let mut store = None;
        let open = io_calls(|| store = Some(SessionStore::open(&path, 0).unwrap()));
        // The superblock, then 1,008 pages in runs of 256.
        let runs = (21 * DEFAULT_RECORDS).div_ceil(SCAN_RUN_PAGES);
        assert_eq!(open, (1 + runs, 0), "open: (reads, writes)");
        assert_eq!(store.unwrap().len(), DEFAULT_RECORDS as usize);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reopen_reuses_the_free_pages_it_finds() {
        let path = tmp("reopen-free");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SessionStore::open(&path, 0).unwrap();
            store.put(1, 1, 0, &blob(PAYLOAD_PER_PAGE * 2, 1)).unwrap();
            store.remove(1).unwrap();
        }
        let mut store = SessionStore::open(&path, 0).unwrap();
        let pages_before = store.file.page_count();
        store.put(2, 2, 0, &blob(PAYLOAD_PER_PAGE * 2, 2)).unwrap();
        assert_eq!(
            store.file.page_count(),
            pages_before,
            "freed pages found by the open-time scan are reused, not regrown"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Default-size checkpoints that fill the 1,008 pages after the
    /// superblock, 21 pages each: the scan reads them in four runs, the
    /// last one short, and chains 12, 24 and 36 cross a run's end.
    const DEFAULT_RECORDS: u64 = 48;

    /// A fresh store of [`DEFAULT_RECORDS`] records, token `t` holding
    /// pages `21t + 1 ..= 21t + 21`, synced.
    fn store_of_default_records(path: &std::path::Path) -> SessionStore {
        let _ = std::fs::remove_file(path);
        let mut store = SessionStore::open(path, 0).unwrap();
        for t in 0..DEFAULT_RECORDS {
            store.put_unsynced(t, t, 0, &blob(82_473, t as u8)).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.file.page_count(), 1 + 21 * DEFAULT_RECORDS);
        store
    }

    #[test]
    fn chains_across_read_runs_reopen_and_a_torn_page_costs_only_its_chain() {
        let path = tmp("scan-runs");
        drop(store_of_default_records(&path));
        let count = 1 + 21 * DEFAULT_RECORDS;
        assert_ne!((count - 1) % SCAN_RUN_PAGES, 0, "the last run is short");
        assert_eq!((1..count).step_by(SCAN_RUN_PAGES as usize).count(), 4);
        let store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), DEFAULT_RECORDS as usize);
        for t in 0..DEFAULT_RECORDS {
            assert_eq!(store.get(t).unwrap().1, blob(82_473, t as u8), "token {t}");
        }
        // Pages 253..=273 hold token 12: the first run ends at page 256.
        assert_eq!(store.index[&12].pages, (253..=273).collect::<Vec<_>>());

        // Tear page 310 of token 14, mid-way through the second run
        // (pages 257..=512), which also holds tokens 12, 13 and 15 to 24.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[310 * PAGE_SIZE + PAGE_HEADER + 9] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = SessionStore::open(&path, 0).unwrap();
        assert_eq!(store.len(), DEFAULT_RECORDS as usize - 1);
        assert!(matches!(store.get(14), Err(StoreError::NotFound(_))));
        for t in (0..DEFAULT_RECORDS).filter(|&t| t != 14) {
            assert_eq!(store.get(t).unwrap().1, blob(82_473, t as u8), "token {t}");
        }
        assert_eq!(store.free, (295..=315).collect::<Vec<_>>());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
