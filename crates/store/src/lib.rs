//! # cira-store
//!
//! A durable session store: the disk tier beneath `cira-serve`'s
//! session park (rev 1.3 of the `CIRS` service).
//!
//! Layering, bottom up:
//!
//! * [`page`] — the 4 KiB slotted-page format: a 32-byte checksummed
//!   header (kind, payload length, chain pointer, owning token) so torn
//!   writes are detected, never half-trusted;
//! * [`mod@file`] — [`file::PageFile`], raw page I/O with a validated
//!   superblock (magic, version, page size), one positioned read or
//!   write per run of consecutive pages;
//! * [`store`] — [`store::SessionStore`], checkpoint blobs keyed by
//!   resume token with park metadata (session id, absolute deadline,
//!   write epoch), chains allocated in ascending page order and moved
//!   one run per system call, write-ahead-of-free durability, and
//!   recovery by one open-time scan that reads the file in runs;
//! * [`cird`] — [`cird::Checkpoint`], the versioned `CIRD` codec for a
//!   complete streaming-session state (specs, counters, BHR, predictor
//!   and mechanism state blobs, bucket cells), restoring which is
//!   **bit-identical** to never having stopped.
//!
//! Everything is std-only: no registry dependencies, no memory-mapped
//! I/O, no page cache of its own (reads go to the OS page cache), no
//! background threads. Callers own locking; `cira-serve` keeps
//! the store behind the same mutex as the hot park tier, and syncs it
//! from its own durability thread through a [`store::SyncHandle`],
//! which needs no lock.
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
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cird;
pub mod file;
pub mod page;
pub mod store;

pub use cird::Checkpoint;
pub use file::PageFile;
pub use store::{SessionStore, StoreError, StoreMeta, SyncHandle};
