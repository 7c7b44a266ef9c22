//! Parked-session store: detached [`Session`]s awaiting a `RESUME`.
//!
//! When a connection drops without a clean `GOODBYE` (or a client sends
//! an explicit `PARK`), the server parks its session here keyed by
//! resume token. A later `RESUME` carrying the token takes the session
//! back out and replay continues bit-identically from the last acked
//! batch.
//!
//! # Two tiers (rev 1.3)
//!
//! The park layers a hot tier over an optional durable tier:
//!
//! * the **disk tier** is a [`cira_store::SessionStore`] holding
//!   serialized [`cira_store::Checkpoint`]s. With one attached, every
//!   park writes its checkpoint when it happens ([`SessionPark::insert`]),
//!   so every parked session has a disk record, and the disk tier's byte
//!   budget, not RAM, bounds the park;
//! * the **hot tier** is a bounded in-memory deque of decoded
//!   [`Session`]s. With a disk tier it is only a cache: evicting an entry
//!   drops the decoded copy and keeps the record
//!   ([`ParkOutcome::spilled`]), and a resume that misses it decodes the
//!   checkpoint ([`Resumed::from_disk`]). Without a disk tier it is the
//!   whole park, and eviction destroys state for good (rev 1.2).
//!
//! No method here syncs the page file except at startup recovery and
//! shutdown: every write goes through the store's write halves, and the
//! caller syncs through [`SessionPark::sync_handle`], off the park's
//! lock. Each method reports whether it wrote, so the caller knows when
//! a sync is owed; a park is crash-safe once that sync returns.
//!
//! Each parked session has one expiry: an **absolute wall-clock
//! deadline** (milliseconds since the Unix epoch), kept with its hot copy
//! and persisted in its disk record's metadata, since a relative TTL
//! could not survive a restart. [`SessionPark::sweep`] and
//! [`SessionPark::take`] each read the clock once and compare every
//! deadline against that reading, so a session's two copies expire
//! together and count once. `take` refuses to resurrect anything expired
//! between sweeps, and reports the session it destroyed
//! ([`NotResumed::Destroyed`]) so the caller can account for it as a
//! sweep would.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use cira_store::{Checkpoint, SessionStore, StoreError, SyncHandle};

use crate::session::Session;

/// Milliseconds since the Unix epoch, saturating (a pre-1970 clock
/// reads as 0).
pub fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Whether a park `deadline_unix_ms` has passed at `now_ms`; 0 means no
/// deadline.
fn expired(deadline_unix_ms: u64, now_ms: u64) -> bool {
    deadline_unix_ms != 0 && deadline_unix_ms < now_ms
}

/// One detached session with its server session id and expiry.
#[derive(Debug)]
struct Parked {
    token: u64,
    session_id: u64,
    session: Session,
    /// Absolute expiry, the same value its disk record carries.
    deadline_unix_ms: u64,
}

/// What happened to a parked session and its neighbours.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParkOutcome {
    /// Sessions destroyed for good (no disk copy retained).
    pub evicted: usize,
    /// Hot entries dropped with their disk copy kept.
    pub spilled: usize,
    /// The call wrote pages that are crash-safe only once the next
    /// sync returns.
    pub wrote: bool,
}

/// Why [`SessionPark::insert`] refused a park, handing the session back
/// untouched.
#[derive(Debug)]
pub enum ParkRefusal {
    /// The disk tier refused the write: it is at its byte budget
    /// (transient — retry after sweeps or resumes free pages; mirrors
    /// `BUSY` on the wire), or the write failed.
    Full(Box<Session>),
    /// The server has no way to park at all (no disk tier and a zero
    /// hot capacity); permanent for this server configuration.
    Disabled(Box<Session>),
}

/// A session taken back out of the park.
#[derive(Debug)]
pub struct Resumed {
    /// The server session id the session was parked under.
    pub session_id: u64,
    /// The live session.
    pub session: Session,
    /// Whether the resume decoded a disk checkpoint (hot-tier miss).
    pub from_disk: bool,
    /// The take removed a disk copy. Until the next sync returns, a
    /// crash could bring the session back.
    pub wrote: bool,
}

/// Why [`SessionPark::take`] handed no session back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotResumed {
    /// Nothing is parked under the token.
    Unknown,
    /// The session was parked, but it had expired between sweeps or its
    /// checkpoint could not be read back, so the take destroyed it.
    Destroyed {
        /// The take removed a disk copy; the next sync makes the removal
        /// crash-safe.
        wrote: bool,
    },
}

/// TTL sweep results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Unique parked sessions destroyed by this sweep.
    pub expired: usize,
    /// The sweep removed disk records; the next sync makes that
    /// crash-safe.
    pub wrote: bool,
}

/// Bounded, TTL-evicting, optionally durable store of detached
/// sessions, keyed by token.
///
/// The hot tier is a deque ordered by park time: sessions are only
/// ever pushed at the back and evicted from the front, so capacity
/// eviction is O(evicted) per call. The disk tier is keyed by token
/// with its own byte budget.
#[derive(Debug)]
pub struct SessionPark {
    capacity: usize,
    ttl: Duration,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    hot: VecDeque<Parked>,
    disk: Option<SessionStore>,
}

impl SessionPark {
    /// Creates a memory-only park holding at most `capacity` sessions
    /// for at most `ttl` each. A zero capacity disables parking
    /// entirely (rev 1.2 semantics).
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        Self {
            capacity,
            ttl,
            inner: Mutex::new(Inner {
                hot: VecDeque::new(),
                disk: None,
            }),
        }
    }

    /// Creates a two-tier park over the store file at `path` (created
    /// if absent), holding at most `capacity` sessions hot and at most
    /// `disk_capacity_bytes` of checkpoint pages on disk (0 =
    /// unlimited).
    ///
    /// Recovery happens here: records already in the store — survivors
    /// of a previous process, crashed or not — are found by the store's
    /// one-pass open-time scan on the calling thread, expired ones are
    /// removed, and the rest become immediately resumable
    /// (their sessions decode lazily, on first `RESUME`, so a large
    /// park does not inflate startup memory). Returns the park and the
    /// number of sessions recovered.
    ///
    /// # Errors
    ///
    /// I/O failures, or a file that is not a cira-store page file.
    pub fn with_disk(
        capacity: usize,
        ttl: Duration,
        path: &Path,
        disk_capacity_bytes: u64,
    ) -> Result<(Self, usize), StoreError> {
        let mut store = SessionStore::open(path, disk_capacity_bytes)?;
        // Expired records are dead weight from a previous life; drop
        // them before they count against capacity, with one sync for
        // all the removals.
        let now = unix_now_ms();
        for (token, meta) in store.entries() {
            if expired(meta.deadline_unix_ms, now) {
                let _ = store.remove_unsynced(token);
            }
        }
        if let Err(e) = store.sync() {
            cira_obs::warn!("park recovery sync failed", error = format!("{e}"));
        }
        let recovered = store.len();
        cira_obs::debug!("park recovered from disk", sessions = recovered);
        Ok((
            Self {
                capacity,
                ttl,
                inner: Mutex::new(Inner {
                    hot: VecDeque::new(),
                    disk: Some(store),
                }),
            },
            recovered,
        ))
    }

    /// Whether a disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.inner.lock().unwrap().disk.is_some()
    }

    /// A handle that syncs the disk tier's page file without taking the
    /// park's lock, or `None` without a disk tier.
    ///
    /// # Errors
    ///
    /// I/O failures duplicating the file descriptor.
    pub fn sync_handle(&self) -> std::io::Result<Option<SyncHandle>> {
        let inner = self.inner.lock().unwrap();
        inner
            .disk
            .as_ref()
            .map(SessionStore::sync_handle)
            .transpose()
    }

    /// The absolute wall-clock deadline for a park made now.
    fn deadline_unix_ms(&self) -> u64 {
        unix_now_ms().saturating_add(self.ttl.as_millis() as u64)
    }

    /// Parks a detached session. With a disk tier its checkpoint is
    /// written first (crash-safe once the next sync returns,
    /// [`ParkOutcome::wrote`]) and the hot tier keeps a decoded copy when
    /// it has room; without one the hot tier is the park. Either way the
    /// oldest hot entries make room: spilled when their record stays on
    /// disk, evicted for good otherwise.
    ///
    /// # Errors
    ///
    /// A disk tier that refuses the write, or a park-less server, hands
    /// the session back untouched ([`ParkRefusal`]) rather than keeping
    /// it with less durability than promised: the caller decides whether
    /// it stays attached or is destroyed.
    pub fn insert(
        &self,
        token: u64,
        session_id: u64,
        session: Session,
    ) -> Result<ParkOutcome, ParkRefusal> {
        let mut outcome = ParkOutcome::default();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let deadline_unix_ms = self.deadline_unix_ms();
        if let Some(store) = inner.disk.as_mut() {
            let blob = session.to_checkpoint(session_id).encode();
            if let Err(e) = store.put_unsynced(token, session_id, deadline_unix_ms, &blob) {
                if !matches!(e, StoreError::Full { .. }) {
                    cira_obs::warn!(
                        "park write-through failed",
                        token = token,
                        error = format!("{e}")
                    );
                }
                return Err(ParkRefusal::Full(Box::new(session)));
            }
            outcome.wrote = true;
        }
        if self.capacity == 0 {
            if outcome.wrote {
                return Ok(outcome); // disk-only park
            }
            return Err(ParkRefusal::Disabled(Box::new(session)));
        }
        while inner.hot.len() >= self.capacity {
            inner.hot.pop_front();
            if inner.disk.is_some() {
                outcome.spilled += 1;
            } else {
                outcome.evicted += 1;
            }
        }
        inner.hot.push_back(Parked {
            token,
            session_id,
            session,
            deadline_unix_ms,
        });
        Ok(outcome)
    }

    /// Takes the session parked under `token`: from the hot tier when
    /// resident, else by decoding its disk checkpoint. Either way the
    /// disk copy is removed ([`Resumed::wrote`]; the next sync makes the
    /// removal crash-safe), so a session never resurrects after being
    /// resumed. An entry that expired between sweeps, or whose checkpoint
    /// cannot be read back, is destroyed rather than resurrected
    /// ([`NotResumed::Destroyed`]).
    ///
    /// # Errors
    ///
    /// [`NotResumed`] when no session comes back.
    pub fn take(&self, token: u64) -> Result<Resumed, NotResumed> {
        let now = unix_now_ms();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        if let Some(idx) = inner.hot.iter().position(|p| p.token == token) {
            let p = inner.hot.remove(idx).expect("index from position");
            let wrote = inner
                .disk
                .as_mut()
                .is_some_and(|store| store.remove_unsynced(token).is_ok());
            if expired(p.deadline_unix_ms, now) {
                return Err(NotResumed::Destroyed { wrote }); // expired between sweeps
            }
            return Ok(Resumed {
                session_id: p.session_id,
                session: p.session,
                from_disk: false,
                wrote,
            });
        }
        let store = inner.disk.as_mut().ok_or(NotResumed::Unknown)?;
        let got = store.get(token);
        if let Err(StoreError::NotFound(_)) = got {
            return Err(NotResumed::Unknown);
        }
        // Resumed or destroyed, the record must not come back.
        let wrote = store.remove_unsynced(token).is_ok();
        let destroyed = NotResumed::Destroyed { wrote };
        let (meta, blob) = got.map_err(|e| {
            cira_obs::warn!(
                "park disk read failed",
                token = token,
                error = format!("{e}")
            );
            destroyed
        })?;
        if expired(meta.deadline_unix_ms, now) {
            return Err(destroyed); // expired on disk between sweeps
        }
        let checkpoint = Checkpoint::decode(&blob).map_err(|e| {
            cira_obs::warn!("park checkpoint undecodable", token = token, error = e);
            destroyed
        })?;
        let session = Session::from_checkpoint(&checkpoint, token).map_err(|e| {
            cira_obs::warn!("park checkpoint unrestorable", token = token, error = e);
            destroyed
        })?;
        Ok(Resumed {
            session_id: meta.session_id,
            session,
            from_disk: true,
            wrote,
        })
    }

    /// Drops every session past its deadline and returns how many unique
    /// sessions were destroyed. With a disk tier those are its expired
    /// records, and their hot copies, which carry the same deadline, go
    /// with them; disk removals are written, not synced
    /// ([`SweepOutcome::wrote`]).
    pub fn sweep(&self) -> SweepOutcome {
        let now = unix_now_ms();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let mut outcome = SweepOutcome::default();
        let hot_before = inner.hot.len();
        inner.hot.retain(|p| !expired(p.deadline_unix_ms, now));
        match inner.disk.as_mut() {
            Some(store) => {
                for (token, meta) in store.entries() {
                    if expired(meta.deadline_unix_ms, now) {
                        outcome.wrote |= store.remove_unsynced(token).is_ok();
                        outcome.expired += 1;
                    }
                }
            }
            None => outcome.expired = hot_before - inner.hot.len(),
        }
        outcome
    }

    /// Unique sessions currently parked: every disk record with a disk
    /// tier, every hot entry without one.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        match &inner.disk {
            Some(store) => store.len(),
            None => inner.hot.len(),
        }
    }

    /// Whether the park is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checkpoint records currently in the disk tier.
    pub fn disk_records(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.disk.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// Bytes of live checkpoint pages in the disk tier.
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.disk.as_ref().map_or(0, SessionStore::bytes_used)
    }

    /// Shuts the park down and returns how many parked sessions were
    /// destroyed for good. Without a disk tier that is every one of them
    /// (rev 1.2 `clear`). With one, every parked session already has a
    /// disk record; the decoded copies are dropped and one sync covers
    /// every write, so every parked session survives the restart (a
    /// failed sync is logged).
    pub fn shutdown_drain(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let hot = std::mem::take(&mut inner.hot);
        match inner.disk.as_mut() {
            Some(store) => {
                if let Err(e) = store.sync() {
                    cira_obs::warn!("park shutdown sync failed", error = format!("{e}"));
                }
                0
            }
            None => hot.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::HelloConfig;
    use cira_trace::codec::PackedTrace;
    use cira_trace::suite::ibs_like_suite;

    fn session(token: u64) -> Session {
        Session::from_hello(&HelloConfig::default(), token).unwrap()
    }

    /// A session whose checkpoint fits in one page, for byte-budget
    /// tests (the default `gshare64k` tables span dozens of pages).
    fn small_session(token: u64) -> Session {
        let config = HelloConfig {
            predictor: "gshare:6:6".to_owned(),
            mechanism: "resetting:4".to_owned(),
            index: "pcxorbhr:6".to_owned(),
            init: "ones".to_owned(),
            threshold: 4,
        };
        Session::from_hello(&config, token).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cira-park-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("park.cirstore")
    }

    /// Whether the disk tier holds writes no sync has covered yet.
    fn unsynced(park: &SessionPark) -> bool {
        let inner = park.inner.lock().unwrap();
        inner.disk.as_ref().unwrap().has_unsynced()
    }

    #[test]
    fn insert_take_roundtrip() {
        let park = SessionPark::new(4, Duration::from_secs(60));
        let outcome = park.insert(7, 100, session(7)).unwrap();
        assert_eq!(outcome, ParkOutcome::default());
        assert_eq!(park.len(), 1);
        let r = park.take(7).unwrap();
        assert_eq!(r.session_id, 100);
        assert_eq!(r.session.token(), 7);
        assert!(!r.from_disk);
        assert_eq!(
            park.take(7).err(),
            Some(NotResumed::Unknown),
            "taken sessions stay gone"
        );
    }

    #[test]
    fn unknown_token_is_none() {
        let park = SessionPark::new(4, Duration::from_secs(60));
        park.insert(1, 1, session(1)).unwrap();
        assert_eq!(park.take(2).err(), Some(NotResumed::Unknown));
        assert_eq!(park.len(), 1, "miss must not disturb other entries");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let park = SessionPark::new(2, Duration::from_secs(60));
        assert_eq!(park.insert(1, 1, session(1)).unwrap().evicted, 0);
        assert_eq!(park.insert(2, 2, session(2)).unwrap().evicted, 0);
        assert_eq!(park.insert(3, 3, session(3)).unwrap().evicted, 1);
        assert_eq!(
            park.take(1).err(),
            Some(NotResumed::Unknown),
            "oldest was evicted"
        );
        assert!(park.take(2).is_ok());
        assert!(park.take(3).is_ok());
    }

    #[test]
    fn zero_capacity_disables_parking() {
        let park = SessionPark::new(0, Duration::from_secs(60));
        assert!(matches!(
            park.insert(1, 1, session(1)),
            Err(ParkRefusal::Disabled(_))
        ));
        assert_eq!(park.take(1).err(), Some(NotResumed::Unknown));
        assert!(park.is_empty());
    }

    #[test]
    fn ttl_sweeps_and_blocks_expired_take() {
        let park = SessionPark::new(4, Duration::from_millis(0));
        park.insert(1, 1, session(1)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            park.take(1).err(),
            Some(NotResumed::Destroyed { wrote: false }),
            "expired entries never resurrect"
        );
        park.insert(2, 2, session(2)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(park.sweep().expired, 1);
        assert!(park.is_empty());
    }

    #[test]
    fn an_expired_take_reports_what_it_destroyed() {
        let path = tmp("expired-take");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(1, Duration::from_millis(1), &path, 0).unwrap();
        park.insert(1, 1, small_session(1)).unwrap();
        // The second park pushes the first out of the one hot slot.
        assert_eq!(park.insert(2, 2, small_session(2)).unwrap().spilled, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            park.take(2).err(),
            Some(NotResumed::Destroyed { wrote: true }),
            "an expired hot entry, with its disk record"
        );
        assert_eq!(
            park.take(1).err(),
            Some(NotResumed::Destroyed { wrote: true }),
            "an expired disk record"
        );
        assert_eq!(park.take(1).err(), Some(NotResumed::Unknown));
        assert_eq!(park.take(3).err(), Some(NotResumed::Unknown));
        assert!(park.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_sweep_counts_an_expired_session_once() {
        let path = tmp("sweep-once");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(4, Duration::from_millis(40), &path, 0).unwrap();
        park.insert(1, 1, small_session(1)).unwrap();
        {
            // Backdate the session's one deadline to 1 ms ago, on its hot
            // copy and its disk record alike.
            let mut inner = park.inner.lock().unwrap();
            let inner = &mut *inner;
            let deadline = unix_now_ms() - 1;
            inner.hot[0].deadline_unix_ms = deadline;
            let store = inner.disk.as_mut().unwrap();
            let (meta, blob) = store.get(1).unwrap();
            store
                .put_unsynced(1, meta.session_id, deadline, &blob)
                .unwrap();
        }
        let first = park.sweep();
        std::thread::sleep(Duration::from_millis(60));
        let second = park.sweep();
        assert_eq!(
            first.expired + second.expired,
            1,
            "both copies expire together and count once"
        );
        assert_eq!(park.take(1).err(), Some(NotResumed::Unknown));
        assert!(park.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn shutdown_drain_without_disk_drops_all() {
        let park = SessionPark::new(4, Duration::from_secs(60));
        park.insert(1, 1, session(1)).unwrap();
        park.insert(2, 2, session(2)).unwrap();
        assert_eq!(park.shutdown_drain(), 2);
        assert!(park.is_empty());
    }

    #[test]
    fn disk_tier_survives_reopen_and_resumes_bit_identically() {
        let path = tmp("survive");
        let _ = std::fs::remove_file(&path);
        let trace: PackedTrace = ibs_like_suite()[0].walker().take(6_000).collect();
        let head: PackedTrace = (0..4_000).map(|i| trace.get(i).unwrap()).collect();
        let tail: PackedTrace = (4_000..6_000).map(|i| trace.get(i).unwrap()).collect();

        let mut reference = session(9);
        reference.apply_batch(0, &head);

        {
            let (park, recovered) =
                SessionPark::with_disk(4, Duration::from_secs(60), &path, 0).unwrap();
            assert_eq!(recovered, 0);
            let mut s = session(9);
            s.apply_batch(0, &head);
            let outcome = park.insert(9, 42, s).unwrap();
            assert!(outcome.wrote, "every park writes its checkpoint");
            assert_eq!(outcome.evicted, 0);
        } // process "dies" — nothing synced or drained

        let (park, recovered) =
            SessionPark::with_disk(4, Duration::from_secs(60), &path, 0).unwrap();
        assert_eq!(recovered, 1);
        assert_eq!(park.len(), 1);
        let r = park.take(9).unwrap();
        assert_eq!(r.session_id, 42);
        assert!(r.from_disk, "resume after restart must come from disk");
        let mut resumed = r.session;
        let a = reference.apply_batch(1, &tail);
        let b = resumed.apply_batch(1, &tail);
        assert_eq!(a, b);
        assert_eq!(reference.snapshot(), resumed.snapshot());
        assert!(park.is_empty(), "resume removes the disk record");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn hot_eviction_spills_to_disk_not_oblivion() {
        let path = tmp("spill");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(2, Duration::from_secs(60), &path, 0).unwrap();
        park.insert(1, 1, session(1)).unwrap();
        park.insert(2, 2, session(2)).unwrap();
        // Eviction drops only the decoded copy: the record was written
        // when the session parked.
        let outcome = park.insert(3, 3, session(3)).unwrap();
        assert_eq!(outcome.spilled, 1, "evicted entries spill to disk");
        assert_eq!(outcome.evicted, 0, "nothing is destroyed");
        assert_eq!(park.len(), 3, "all three sessions remain parked");
        assert_eq!(park.disk_records(), 3, "every park has a record");
        let r = park.take(1).unwrap();
        assert!(r.from_disk, "spilled session resumes from disk");
        assert!(!park.take(3).unwrap().from_disk, "recent session is hot");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn parks_write_without_syncing_and_one_sync_covers_them() {
        let path = tmp("park-one-sync");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(16, Duration::from_secs(60), &path, 0).unwrap();
        let handle = park.sync_handle().unwrap().expect("disk tier");
        assert!(!unsynced(&park));
        for t in 1..=8u64 {
            assert!(park.insert(t, t, small_session(t)).unwrap().wrote);
        }
        assert!(unsynced(&park), "an insert must not sync");
        handle.sync().unwrap();
        assert!(!unsynced(&park), "one sync covers all eight");
        // A copy of the file as that sync left it holds all eight.
        let image = path.with_file_name("park-one-sync.image");
        std::fs::copy(&path, &image).unwrap();
        let (recovered, n) =
            SessionPark::with_disk(16, Duration::from_secs(60), &image, 0).unwrap();
        assert_eq!(n, 8);
        drop(recovered);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn disk_capacity_reports_store_full() {
        let path = tmp("full");
        let _ = std::fs::remove_file(&path);
        // Room for two single-page checkpoints only.
        let (park, _) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
        park.insert(1, 1, small_session(1)).unwrap();
        park.insert(2, 2, small_session(2)).unwrap();
        let refused = match park.insert(3, 3, small_session(3)) {
            Err(ParkRefusal::Full(s)) => *s,
            other => panic!("expected Full, got {other:?}"),
        };
        assert_eq!(refused.token(), 3, "handed back");
        assert_eq!(park.len(), 2, "the refused session is not parked");
        assert_eq!(park.take(3).err(), Some(NotResumed::Unknown));
        // The condition is transient: a resume frees its record's budget.
        assert!(park.take(1).is_ok());
        assert!(park.insert(3, 3, refused).unwrap().wrote);
        assert_eq!(park.len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn shutdown_drain_syncs_and_every_parked_session_reopens() {
        let path = tmp("drain");
        let _ = std::fs::remove_file(&path);
        {
            // Two hot slots for three sessions: one is on disk only.
            let (park, _) = SessionPark::with_disk(2, Duration::from_secs(60), &path, 0).unwrap();
            for t in 1..=3u64 {
                park.insert(t, t, small_session(t)).unwrap();
            }
            assert!(unsynced(&park));
            assert_eq!(park.shutdown_drain(), 0, "nothing is destroyed");
            assert!(!unsynced(&park), "the drain syncs");
        }
        let (park, recovered) =
            SessionPark::with_disk(2, Duration::from_secs(60), &path, 0).unwrap();
        assert_eq!(recovered, 3);
        for t in 1..=3u64 {
            assert!(park.take(t).unwrap().from_disk);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn disk_sweep_uses_absolute_deadlines() {
        let path = tmp("deadline");
        let _ = std::fs::remove_file(&path);
        {
            let (park, _) = SessionPark::with_disk(0, Duration::from_millis(1), &path, 0).unwrap();
            // Zero hot capacity: disk-only park.
            let outcome = park.insert(5, 5, session(5)).unwrap();
            assert!(outcome.wrote);
            assert_eq!(outcome.evicted, 0, "persisted parks are not losses");
        }
        std::thread::sleep(Duration::from_millis(10));
        // A restart later, the record is past its wall-clock deadline.
        let (park, recovered) =
            SessionPark::with_disk(4, Duration::from_millis(1), &path, 0).unwrap();
        assert_eq!(recovered, 0, "expired records die at recovery");
        assert_eq!(park.take(5).err(), Some(NotResumed::Unknown));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn insert_refuses_rather_than_degrades() {
        // No disk tier and no hot tier: parking is simply off.
        let park = SessionPark::new(0, Duration::from_secs(60));
        match park.insert(1, 1, small_session(1)) {
            Err(ParkRefusal::Disabled(s)) => assert_eq!(s.token(), 1),
            other => panic!("expected Disabled, got {other:?}"),
        }
        // Full disk tier: the session comes back untouched, not parked
        // hot with silently-degraded durability.
        let path = tmp("durable");
        let _ = std::fs::remove_file(&path);
        let (park, _) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
        assert!(park.insert(1, 1, small_session(1)).unwrap().wrote);
        assert!(park.insert(2, 2, small_session(2)).unwrap().wrote);
        match park.insert(3, 3, small_session(3)) {
            Err(ParkRefusal::Full(s)) => assert_eq!(s.token(), 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(park.len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
