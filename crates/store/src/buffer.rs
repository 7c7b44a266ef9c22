//! A pinned-page buffer manager with second-chance clock eviction.
//!
//! The [`BufferManager`] caches a bounded number of page frames over a
//! [`PageFile`]. Pages are accessed through closures that pin the frame
//! for the duration of the call; dirty frames are written back when
//! evicted or on [`BufferManager::write_back`], which does not sync
//! ([`BufferManager::sync`] does). Eviction is a clock: a reference bit
//! per frame and a sweeping hand that clears bits until it finds a cold,
//! unpinned frame — cheap, and scan-resistant enough for the park
//! workload. Pinned frames are never evicted.

use std::collections::HashMap;
use std::fmt;
use std::io;

use crate::file::{FileSyncer, PageFile};
use crate::page::PAGE_SIZE;

/// One cached page.
#[derive(Debug)]
struct Frame {
    /// Page index, or `None` while the frame is empty.
    page: Option<u64>,
    data: Vec<u8>,
    dirty: bool,
    pins: u32,
    /// The clock's reference bit: set on every access, cleared as the
    /// hand passes.
    referenced: bool,
}

/// A bounded write-back page cache over a [`PageFile`].
pub struct BufferManager {
    file: PageFile,
    frames: Vec<Frame>,
    /// page index -> frame slot
    resident: HashMap<u64, usize>,
    /// The clock hand: the next frame to consider for eviction.
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferManager")
            .field("capacity", &self.frames.len())
            .field("resident", &self.resident.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish_non_exhaustive()
    }
}

impl BufferManager {
    /// A manager of `capacity` frames (at least 1) over `file`.
    pub fn new(file: PageFile, capacity: usize) -> Self {
        let frames = (0..capacity.max(1))
            .map(|_| Frame {
                page: None,
                data: vec![0u8; PAGE_SIZE],
                dirty: false,
                pins: 0,
                referenced: false,
            })
            .collect();
        Self {
            file,
            frames,
            resident: HashMap::new(),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (disk reads) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Frames evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The underlying file's page count.
    pub fn page_count(&self) -> u64 {
        self.file.page_count()
    }

    /// Appends `count` zeroed pages to the file.
    ///
    /// # Errors
    ///
    /// I/O failures extending the file.
    pub fn grow(&mut self, count: u64) -> io::Result<u64> {
        self.file.grow(count)
    }

    /// Pins `page` into a frame. On a miss the frame is loaded from disk
    /// if `read`; otherwise it keeps stale bytes for a caller that
    /// overwrites all of them.
    fn pin(&mut self, page: u64, read: bool) -> io::Result<usize> {
        if let Some(&slot) = self.resident.get(&page) {
            self.hits += 1;
            self.frames[slot].referenced = true;
            self.frames[slot].pins += 1;
            return Ok(slot);
        }
        if page >= self.file.page_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "page {page} out of range ({} pages)",
                    self.file.page_count()
                ),
            ));
        }
        self.misses += 1;
        let slot = self.find_slot()?;
        if read {
            self.file.read_page(page, &mut self.frames[slot].data)?;
        }
        self.frames[slot].page = Some(page);
        self.frames[slot].dirty = false;
        self.frames[slot].pins = 1;
        self.frames[slot].referenced = true;
        self.resident.insert(page, slot);
        Ok(slot)
    }

    fn unpin(&mut self, slot: usize) {
        debug_assert!(self.frames[slot].pins > 0, "unpin without pin");
        self.frames[slot].pins -= 1;
    }

    /// An empty frame, evicting (with write-back) if none is free.
    fn find_slot(&mut self) -> io::Result<usize> {
        if let Some(slot) = self.frames.iter().position(|f| f.page.is_none()) {
            return Ok(slot);
        }
        let victim = self.clock_victim().ok_or_else(|| {
            io::Error::new(io::ErrorKind::OutOfMemory, "all buffer frames are pinned")
        })?;
        let old = self.frames[victim].page.expect("occupied frame");
        if self.frames[victim].dirty {
            self.file.write_page(old, &self.frames[victim].data)?;
            self.frames[victim].dirty = false;
        }
        self.resident.remove(&old);
        self.frames[victim].page = None;
        self.evictions += 1;
        cira_obs::debug!("buffer frame evicted", page = old);
        Ok(victim)
    }

    /// Sweeps the clock hand to an unpinned frame whose reference bit is
    /// clear, clearing the bits it passes. Two sweeps suffice: the first
    /// clears every bit it passes, so the second finds a cold frame if any
    /// is unpinned. `None` when every frame is pinned.
    fn clock_victim(&mut self) -> Option<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            let frame = &mut self.frames[f];
            if frame.pins > 0 {
                continue;
            }
            if !std::mem::take(&mut frame.referenced) {
                return Some(f);
            }
        }
        None
    }

    /// Runs `f` over the (pinned) contents of `page`.
    ///
    /// # Errors
    ///
    /// I/O failures loading the page.
    pub fn with_page<R>(&mut self, page: u64, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let slot = self.pin(page, true)?;
        let r = f(&self.frames[slot].data);
        self.unpin(slot);
        Ok(r)
    }

    /// Runs `f`, which must overwrite every byte of the (pinned) page, and
    /// marks the frame dirty. A miss takes a frame without reading the
    /// page first, and still counts as a miss.
    ///
    /// # Errors
    ///
    /// I/O failures writing back an evicted frame, or a page past the
    /// end of the file.
    pub fn overwrite_page<R>(
        &mut self,
        page: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> io::Result<R> {
        let slot = self.pin(page, false)?;
        let r = f(&mut self.frames[slot].data);
        self.frames[slot].dirty = true;
        self.unpin(slot);
        Ok(r)
    }

    /// Writes every dirty frame to the file without syncing it. After
    /// this returns the pages are in the file (a sync through any
    /// descriptor covers them) but not yet crash-safe; after a
    /// following [`BufferManager::sync`] they survive a crash.
    ///
    /// # Errors
    ///
    /// I/O failures writing back.
    pub fn write_back(&mut self) -> io::Result<()> {
        for slot in 0..self.frames.len() {
            if self.frames[slot].dirty {
                let page = self.frames[slot].page.expect("dirty frame has a page");
                self.file.write_page(page, &self.frames[slot].data)?;
                self.frames[slot].dirty = false;
            }
        }
        Ok(())
    }

    /// Syncs the file to stable storage; dirty frames are not written.
    ///
    /// # Errors
    ///
    /// I/O failures syncing.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync()
    }

    /// A [`FileSyncer`] on a second descriptor of the underlying file.
    ///
    /// # Errors
    ///
    /// I/O failures duplicating the descriptor.
    pub fn syncer(&self) -> io::Result<FileSyncer> {
        self.file.syncer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFile;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cira-store-buffer-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.cirstore")
    }

    fn file_with_pages(name: &str, pages: u64) -> PageFile {
        let path = tmp(name);
        let mut pf = PageFile::create(&path).unwrap();
        pf.grow(pages).unwrap();
        pf
    }

    #[test]
    fn write_back_survives_eviction() {
        let pf = file_with_pages("writeback", 8);
        let mut bm = BufferManager::new(pf, 2);
        for page in 1..=8u64 {
            bm.overwrite_page(page, |data| {
                data.fill(0);
                data[0] = page as u8;
            })
            .unwrap();
        }
        // Capacity 2 with 8 pages written: evictions must have happened,
        // and every page's byte must still read back.
        assert!(bm.evictions() > 0);
        for page in 1..=8u64 {
            let b = bm.with_page(page, |data| data[0]).unwrap();
            assert_eq!(b, page as u8);
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pf = file_with_pages("counters", 4);
        let mut bm = BufferManager::new(pf, 4);
        bm.with_page(1, |_| ()).unwrap();
        bm.with_page(1, |_| ()).unwrap();
        bm.with_page(2, |_| ()).unwrap();
        assert_eq!(bm.misses(), 2);
        assert_eq!(bm.hits(), 1);
    }

    #[test]
    fn clock_gives_second_chances() {
        let pf = file_with_pages("clock", 4);
        let mut bm = BufferManager::new(pf, 2);
        bm.with_page(1, |_| ()).unwrap();
        bm.with_page(2, |_| ()).unwrap();
        bm.with_page(3, |_| ()).unwrap(); // one of 1/2 evicted
        bm.with_page(4, |_| ()).unwrap();
        assert_eq!(bm.evictions(), 2);
        assert_eq!(bm.misses(), 4);
    }

    #[test]
    fn overwrite_skips_the_read_but_counts_the_miss() {
        let path = tmp("overwrite");
        let mut pf = PageFile::create(&path).unwrap();
        pf.grow(3).unwrap();
        pf.write_page(1, &vec![0x11; PAGE_SIZE]).unwrap();
        let mut bm = BufferManager::new(pf, 1);
        bm.with_page(2, |_| ()).unwrap();
        // The one frame now holds page 2; overwriting page 1 evicts it
        // and never sees page 1's old bytes.
        let seen = bm.overwrite_page(1, |data| {
            let old = data[0];
            data.fill(0x22);
            old
        });
        assert_eq!(
            seen.unwrap(),
            0,
            "the frame kept page 2's bytes, not page 1's"
        );
        assert_eq!((bm.hits(), bm.misses()), (0, 2));
        bm.overwrite_page(1, |data| data.fill(0x33)).unwrap();
        assert_eq!((bm.hits(), bm.misses()), (1, 2), "a resident page is a hit");
        assert!(
            bm.overwrite_page(4, |_| ()).is_err(),
            "past the end of the file"
        );
        bm.write_back().unwrap();
        drop(bm);
        let pf = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        pf.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x33));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_back_persists_dirty_frames() {
        let path = tmp("flush");
        let mut pf = PageFile::create(&path).unwrap();
        pf.grow(2).unwrap();
        let mut bm = BufferManager::new(pf, 2);
        bm.overwrite_page(1, |d| {
            d.fill(0);
            d[7] = 0x5a;
        })
        .unwrap();
        bm.write_back().unwrap();
        bm.sync().unwrap();
        drop(bm);
        let pf = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        pf.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[7], 0x5a);
        std::fs::remove_file(&path).unwrap();
    }
}
