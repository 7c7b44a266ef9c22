//! # cira-store
//!
//! A durable, buffer-managed session store: the disk tier beneath
//! `cira-serve`'s session park (rev 1.3 of the `CIRS` service).
//!
//! Layering, bottom up:
//!
//! * [`page`] — the 4 KiB slotted-page format: a 32-byte checksummed
//!   header (kind, payload length, chain pointer, owning token) so torn
//!   writes are detected, never half-trusted;
//! * [`mod@file`] — [`file::PageFile`], raw page I/O with a validated
//!   superblock (magic, version, page size);
//! * [`buffer`] — [`buffer::BufferManager`], a bounded pool of pinned
//!   page frames with write-back and second-chance clock eviction;
//! * [`store`] — [`store::SessionStore`], checkpoint blobs keyed by
//!   resume token with park metadata (session id, absolute deadline,
//!   write epoch), write-ahead-of-free durability, and open-time scan
//!   recovery;
//! * [`cird`] — [`cird::Checkpoint`], the versioned `CIRD` codec for a
//!   complete streaming-session state (specs, counters, BHR, predictor
//!   and mechanism state blobs, bucket cells), restoring which is
//!   **bit-identical** to never having stopped.
//!
//! Everything is std-only: no registry dependencies, no memory-mapped
//! I/O, no background threads. Callers own locking; `cira-serve` keeps
//! the store behind the same mutex as the hot park tier.
//!
//! # Example
//!
//! ```
//! use cira_store::cird::Checkpoint;
//! use cira_store::store::SessionStore;
//!
//! let dir = std::env::temp_dir().join(format!("cira-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("sessions.cirstore");
//! # let _ = std::fs::remove_file(&path);
//!
//! let mut store = SessionStore::open(&path, 0).unwrap();
//! let checkpoint = Checkpoint {
//!     session_id: 1,
//!     predictor: "gshare:11:11".into(),
//!     ..Checkpoint::default()
//! };
//! store.put(0xfeed, 1, 0, &checkpoint.encode()).unwrap();
//!
//! // A crash here loses nothing: put() synced before returning.
//! let mut store = SessionStore::open(&path, 0).unwrap();
//! let (_meta, blob) = store.get(0xfeed).unwrap();
//! assert_eq!(Checkpoint::decode(&blob).unwrap(), checkpoint);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod cird;
pub mod file;
pub mod page;
pub mod store;

pub use buffer::BufferManager;
pub use cird::Checkpoint;
pub use file::PageFile;
pub use store::{PageScanner, ScanChunk, SessionStore, StoreError, StoreMeta};
