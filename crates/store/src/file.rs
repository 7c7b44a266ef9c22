//! The page file: raw page I/O beneath the session store.
//!
//! A [`PageFile`] is a flat array of [`crate::page::PAGE_SIZE`]
//! pages addressed by index. Page 0 is the **superblock**:
//!
//! ```text
//! offset  size  field
//!      0     8  magic      ("CIRSTOR1")
//!      8     4  version    (LE u32, currently 1)
//!     12     4  page_size  (LE u32, currently 4096)
//!     16     8  checksum   (LE u64 FNV-1a over bytes 0..16)
//! ```
//!
//! The superblock is written once at creation and validated on every
//! open, so a foreign or truncated file is rejected before any record
//! is trusted. The file grows by whole pages and never shrinks; space
//! from deleted records is reused through the in-memory free list that
//! [`crate::store::SessionStore`] rebuilds on open.
//!
//! Pages are read and written at their offset (`pread(2)` and
//! `pwrite(2)`), a run of consecutive pages with one system call, and
//! no shared file cursor. A [`FileSyncer`] is a second descriptor on the
//! same file that can only sync it, so the sync can run on another
//! thread.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt as _;
use std::path::Path;

use cira_obs::trace::{self, Stage};

use crate::page::{fnv64, PAGE_SIZE};

/// A flight-recorder span for one page-I/O call, or `None` while the
/// recorder is disabled. The span inherits the ambient trace context
/// (set by the shard driving the park/resume), and the aux word carries
/// the run's first page index so dumps show *which* pages a slow I/O
/// touched.
fn io_span(stage: Stage) -> Option<trace::Span> {
    trace::enabled().then(|| trace::Span::begin_ctx(stage))
}

const MAGIC: &[u8; 8] = b"CIRSTOR1";
const VERSION: u32 = 1;

/// Raw page-granular file I/O with a validated superblock.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    pages: u64,
}

impl PageFile {
    /// Creates a fresh page file at `path` (truncating any existing
    /// file) with just the superblock, synced to disk, then syncs the
    /// directory that holds it so the file's name survives a crash too.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing the file or syncing its
    /// directory.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut sb = vec![0u8; PAGE_SIZE];
        sb[..8].copy_from_slice(MAGIC);
        sb[8..12].copy_from_slice(&VERSION.to_le_bytes());
        sb[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        let sum = fnv64(&sb[..16]);
        sb[16..24].copy_from_slice(&sum.to_le_bytes());
        file.write_all_at(&sb, 0)?;
        file.sync_all()?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(Self { file, pages: 1 })
    }

    /// Opens an existing page file, validating the superblock and that
    /// the file length is a whole number of pages.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the superblock magic,
    /// version, page size, or checksum is wrong, or the file is
    /// truncated mid-page; plain I/O errors otherwise.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        if len < PAGE_SIZE as u64 {
            return Err(invalid(format!(
                "file is {len} bytes, smaller than one page"
            )));
        }
        if len % PAGE_SIZE as u64 != 0 {
            return Err(invalid(format!(
                "file length {len} is not a multiple of the {PAGE_SIZE}-byte page size"
            )));
        }
        let mut sb = vec![0u8; PAGE_SIZE];
        file.read_exact_at(&mut sb, 0)?;
        if &sb[..8] != MAGIC {
            return Err(invalid("bad magic: not a cira-store page file".to_owned()));
        }
        let version = u32::from_le_bytes(sb[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(invalid(format!(
                "store format version {version}, this build reads {VERSION}"
            )));
        }
        let page_size = u32::from_le_bytes(sb[12..16].try_into().expect("4 bytes"));
        if page_size as usize != PAGE_SIZE {
            return Err(invalid(format!(
                "store page size {page_size}, this build uses {PAGE_SIZE}"
            )));
        }
        let stored = u64::from_le_bytes(sb[16..24].try_into().expect("8 bytes"));
        let computed = fnv64(&sb[..16]);
        if stored != computed {
            return Err(invalid("superblock checksum mismatch".to_owned()));
        }
        Ok(Self {
            file,
            pages: len / PAGE_SIZE as u64,
        })
    }

    /// Number of pages in the file, superblock included.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Reads the run of consecutive pages that starts at `first` into
    /// `buf`, a whole number of pages long, with one positioned read.
    /// It takes `&self`: a read changes no state.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the run does not lie inside
    /// the file; I/O failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of pages.
    pub fn read_pages(&self, first: u64, buf: &mut [u8]) -> io::Result<()> {
        self.check_run(first, buf.len())?;
        let span = io_span(Stage::PageRead);
        let r = self.file.read_exact_at(buf, first * PAGE_SIZE as u64);
        if let Some(span) = span {
            span.end_with(first);
        }
        r
    }

    /// Writes `buf`, a whole number of pages long, over the run of
    /// consecutive pages that starts at `first` with one positioned
    /// write. The pages must already exist — use [`PageFile::grow`] to
    /// extend the file.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the run does not lie inside
    /// the file; I/O failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of pages.
    pub fn write_pages(&mut self, first: u64, buf: &[u8]) -> io::Result<()> {
        self.check_run(first, buf.len())?;
        let span = io_span(Stage::PageWrite);
        let r = self.file.write_all_at(buf, first * PAGE_SIZE as u64);
        if let Some(span) = span {
            span.end_with(first);
        }
        r
    }

    /// Refuses a run of `len` bytes from page `first` that does not lie
    /// inside the file.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a whole number of pages.
    fn check_run(&self, first: u64, len: usize) -> io::Result<()> {
        assert_eq!(len % PAGE_SIZE, 0, "a run is a whole number of pages");
        let end = first.saturating_add((len / PAGE_SIZE) as u64);
        if end > self.pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pages {first}..{end} out of range ({} pages)", self.pages),
            ));
        }
        Ok(())
    }

    /// Appends `count` zeroed pages, returning the index of the first.
    ///
    /// # Errors
    ///
    /// I/O failures extending the file.
    pub fn grow(&mut self, count: u64) -> io::Result<u64> {
        let first = self.pages;
        self.file.set_len((self.pages + count) * PAGE_SIZE as u64)?;
        self.pages += count;
        Ok(first)
    }

    /// Flushes file data and metadata to stable storage.
    ///
    /// # Errors
    ///
    /// I/O failures syncing.
    pub fn sync(&mut self) -> io::Result<()> {
        let span = io_span(Stage::Fsync);
        let r = self.file.sync_all();
        if let Some(span) = span {
            span.end_with(self.pages);
        }
        r
    }

    /// A [`FileSyncer`] on a second descriptor of this file.
    ///
    /// # Errors
    ///
    /// I/O failures duplicating the descriptor.
    pub fn syncer(&self) -> io::Result<FileSyncer> {
        Ok(FileSyncer {
            file: self.file.try_clone()?,
        })
    }
}

/// A second descriptor on a [`PageFile`] that can only sync it.
/// `fsync(2)` flushes the file, not the descriptor, so a sync through
/// this handle covers every page the [`PageFile`] wrote before the sync
/// began, while the page file stays free to write on another thread.
#[derive(Debug)]
pub struct FileSyncer {
    file: File,
}

impl FileSyncer {
    /// Flushes file data and metadata to stable storage.
    ///
    /// # Errors
    ///
    /// I/O failures syncing.
    pub fn sync(&self) -> io::Result<()> {
        let span = io_span(Stage::Fsync);
        let r = self.file.sync_all();
        if let Some(span) = span {
            span.end();
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageHeader, KIND_DATA};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cira-store-file-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.cirstore")
    }

    #[test]
    fn create_open_round_trip() {
        let path = tmp("roundtrip");
        let mut pf = PageFile::create(&path).unwrap();
        assert_eq!(pf.page_count(), 1);
        let first = pf.grow(2).unwrap();
        assert_eq!(first, 1);
        let mut page = vec![0u8; PAGE_SIZE];
        PageHeader {
            kind: KIND_DATA,
            payload_len: 4,
            next: 0,
            token: 42,
        }
        .write_into(b"data", &mut page);
        pf.write_pages(1, &page).unwrap();
        pf.sync().unwrap();
        drop(pf);

        let pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.page_count(), 3);
        let mut back = vec![0u8; PAGE_SIZE];
        pf.read_pages(1, &mut back).unwrap();
        assert_eq!(back, page);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn out_of_range_pages_rejected() {
        let path = tmp("range");
        let mut pf = PageFile::create(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(pf.read_pages(1, &mut buf).is_err());
        assert!(pf.write_pages(9, &buf).is_err());
        // A run that starts inside the file but ends past it.
        pf.grow(2).unwrap();
        let mut run = vec![0u8; 2 * PAGE_SIZE];
        assert!(pf.write_pages(2, &run).is_err());
        assert!(pf.read_pages(2, &mut run).is_err());
        pf.write_pages(1, &run).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reads_from_several_threads_see_the_written_pages() {
        let path = tmp("pread");
        let mut pf = PageFile::create(&path).unwrap();
        pf.grow(8).unwrap();
        let mut images = Vec::new();
        for i in 1..9u64 {
            let mut page = vec![0u8; PAGE_SIZE];
            PageHeader {
                kind: KIND_DATA,
                payload_len: 1,
                next: 0,
                token: i,
            }
            .write_into(&[i as u8], &mut page);
            pf.write_pages(i, &page).unwrap();
            images.push(page);
        }
        // Shared-reference reads from several threads at once.
        std::thread::scope(|s| {
            let pf = &pf;
            let images = &images;
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut buf = vec![0u8; PAGE_SIZE];
                    for i in 0..8u64 {
                        let idx = (i + t) % 8;
                        pf.read_pages(idx + 1, &mut buf).unwrap();
                        assert_eq!(buf, images[idx as usize]);
                    }
                });
            }
        });
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn foreign_file_rejected() {
        let path = tmp("foreign");
        std::fs::write(&path, vec![0xabu8; PAGE_SIZE]).unwrap();
        let err = PageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("truncated");
        {
            PageFile::create(&path).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..PAGE_SIZE / 2]).unwrap();
        assert!(PageFile::open(&path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn corrupt_superblock_rejected() {
        let path = tmp("superblock");
        {
            PageFile::create(&path).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xff; // corrupt the version field
        std::fs::write(&path, &bytes).unwrap();
        let err = PageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
