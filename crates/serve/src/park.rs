//! Parked-session store: detached [`Session`]s awaiting a `RESUME`.
//!
//! When a connection drops without a clean `GOODBYE` (or a client sends
//! an explicit `PARK`), the server parks its session here keyed by
//! resume token. A later `RESUME` carrying the token takes the session
//! back out and replay continues bit-identically from the last acked
//! batch.
//!
//! # Two tiers (rev 1.3), background spill (rev 1.4)
//!
//! The park layers a hot tier over an optional durable tier:
//!
//! * the **hot tier** is a bounded in-memory deque of live [`Session`]s
//!   — resuming from it costs nothing but a lookup;
//! * the **disk tier** is a [`cira_store::SessionStore`] holding
//!   serialized [`cira_store::Checkpoint`]s.
//!
//! How a session reaches disk depends on who parked it:
//!
//! * An explicit `PARK` frame ([`SessionPark::insert_durable`]) is
//!   **write-through**: the checkpoint's pages are in the page file
//!   before the call returns. `PARKED_ACK` is a durability receipt, so
//!   the server holds it until a sync that began after those writes has
//!   returned ([`ParkOutcome::wrote`]).
//! * A teardown park ([`SessionPark::insert`] — connection died without
//!   `GOODBYE`, idle eviction) is **lazy**: the session lands hot-only
//!   and the *background spiller* ([`SessionPark::spill_step`], driven
//!   from the shards' timer ticks) writes oldest-first batches through
//!   later.
//!
//! No method here syncs the page file except at startup recovery and
//! shutdown: every write goes through the store's write halves, and the
//! caller syncs through [`SessionPark::sync_handle`], off the park's
//! lock. Each method reports whether it wrote, so the caller knows when
//! a sync is owed. An entry's `durable` flag means "written"; the next
//! sync makes it crash-safe.
//!
//! Lazy does not mean lossy: hot-tier eviction of a not-yet-spilled
//! entry (capacity pressure) writes it through *at eviction* before the
//! decoded copy is dropped, so pressure still spills to disk, never to
//! oblivion — the park's real capacity remains the disk tier's byte
//! budget, not RAM. Only a full disk tier downgrades an eviction to a
//! real loss. A resume that misses the hot tier loads and decodes the
//! checkpoint ([`Resumed::from_disk`] reports which path served it).
//! With a disk tier but zero hot capacity, `insert` keeps rev 1.3
//! write-through (there is no hot slot to be lazy in). Without a disk
//! tier the old rev 1.2 semantics are unchanged: hot eviction destroys
//! state for good.
//!
//! Expiry is tracked two ways for the same TTL: hot entries by a
//! monotonic [`Instant`], disk records by an **absolute wall-clock
//! deadline** (milliseconds since the Unix epoch) persisted in the
//! record metadata — a relative TTL could not survive a restart.
//! [`SessionPark::sweep`] enforces both; [`SessionPark::take`] refuses
//! to resurrect anything expired between sweeps, and reports the
//! session it destroyed ([`NotResumed::Destroyed`]) so the caller can
//! account for it as a sweep would.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

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

/// One detached session with its park timestamp and server session id.
#[derive(Debug)]
struct Parked {
    token: u64,
    session_id: u64,
    session: Session,
    at: Instant,
    /// Absolute expiry persisted with the disk copy. Fixed at park time
    /// so the background spiller writes the same deadline `insert`
    /// would have.
    deadline_unix_ms: u64,
    /// Whether a disk copy was written (write-through or spill); the
    /// next sync makes it crash-safe.
    durable: bool,
}

/// What happened to a parked session and its neighbours.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParkOutcome {
    /// Sessions destroyed for good (no disk copy retained).
    pub evicted: usize,
    /// Hot entries dropped with their disk copy kept.
    pub spilled: usize,
    /// The parked session's checkpoint was written to the disk tier.
    pub persisted: bool,
    /// The disk tier refused the write at capacity (the session may
    /// still be parked hot-only).
    pub store_full: bool,
    /// The call wrote pages that are crash-safe only once the next
    /// sync returns.
    pub wrote: bool,
}

/// Why [`SessionPark::insert_durable`] refused a park, handing the
/// session back untouched.
#[derive(Debug)]
pub enum ParkRefusal {
    /// The disk tier is at its byte budget; transient — retry after
    /// sweeps or resumes free pages. Mirrors `BUSY` on the wire.
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

/// Background-spill step results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillOutcome {
    /// Hot-only sessions written through to disk by this step (not yet
    /// synced).
    pub written: usize,
    /// The step stopped early because the disk tier is at capacity;
    /// the remaining hot-only entries stay pending for a later step.
    pub store_full: bool,
}

/// Bounded, TTL-evicting, optionally durable store of detached
/// sessions, keyed by token.
///
/// The hot tier is a deque ordered by park time: sessions are only
/// ever pushed at the back and scanned from the front, so capacity and
/// TTL eviction are O(evicted) per call. The disk tier is keyed by
/// token with its own byte budget.
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
            if meta.deadline_unix_ms != 0 && meta.deadline_unix_ms < now {
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

    /// Parks a detached session *lazily*: into the hot tier only, with
    /// the disk write deferred to the background spiller
    /// ([`Self::spill_step`]) or, under capacity pressure, to eviction
    /// time. The one exception is a disk tier with zero hot capacity,
    /// where write-through is the only way to park at all.
    pub fn insert(&self, token: u64, session_id: u64, session: Session) -> ParkOutcome {
        let mut outcome = ParkOutcome::default();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let deadline = self.deadline_unix_ms();
        if self.capacity == 0 {
            if let Some(store) = inner.disk.as_mut() {
                let blob = session.to_checkpoint(session_id).encode();
                match store.put_unsynced(token, session_id, deadline, &blob) {
                    Ok(()) => outcome.persisted = true,
                    Err(StoreError::Full { .. }) => outcome.store_full = true,
                    Err(e) => {
                        cira_obs::warn!(
                            "park write-through failed",
                            token = token,
                            error = format!("{e}")
                        );
                    }
                }
            }
            if !outcome.persisted {
                outcome.evicted = 1; // dropped on the floor: parking disabled/full
            }
            outcome.wrote = outcome.persisted;
            return outcome;
        }
        Self::hot_insert(
            inner,
            self.capacity,
            &mut outcome,
            token,
            session_id,
            session,
            deadline,
        );
        outcome
    }

    /// Parks only if the session will survive: written to the disk tier
    /// when one exists (crash-safe once the next sync returns), hot
    /// otherwise. A full disk tier or a park-less server hands the
    /// session back untouched instead of degrading — the caller can keep
    /// it attached and tell the client why.
    pub fn insert_durable(
        &self,
        token: u64,
        session_id: u64,
        session: Session,
    ) -> Result<ParkOutcome, ParkRefusal> {
        let mut outcome = ParkOutcome::default();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let deadline = self.deadline_unix_ms();
        if let Some(store) = inner.disk.as_mut() {
            let blob = session.to_checkpoint(session_id).encode();
            match store.put_unsynced(token, session_id, deadline, &blob) {
                Ok(()) => {
                    outcome.persisted = true;
                    outcome.wrote = true;
                }
                Err(StoreError::Full { .. }) => return Err(ParkRefusal::Full(Box::new(session))),
                Err(e) => {
                    cira_obs::warn!(
                        "park write-through failed",
                        token = token,
                        error = format!("{e}")
                    );
                    return Err(ParkRefusal::Full(Box::new(session)));
                }
            }
        }
        if self.capacity == 0 {
            if outcome.persisted {
                return Ok(outcome); // disk-only park
            }
            return Err(ParkRefusal::Disabled(Box::new(session)));
        }
        Self::hot_insert(
            inner,
            self.capacity,
            &mut outcome,
            token,
            session_id,
            session,
            deadline,
        );
        Ok(outcome)
    }

    /// Pushes into the hot tier, evicting or spilling the oldest
    /// entries to stay within `capacity` (which must be nonzero). A
    /// victim the background spiller has not reached yet is written
    /// through here, at eviction — pressure spills to disk, not to
    /// oblivion.
    #[allow(clippy::too_many_arguments)]
    fn hot_insert(
        inner: &mut Inner,
        capacity: usize,
        outcome: &mut ParkOutcome,
        token: u64,
        session_id: u64,
        session: Session,
        deadline_unix_ms: u64,
    ) {
        while inner.hot.len() >= capacity {
            let old = inner.hot.pop_front().expect("len checked");
            if old.durable {
                outcome.spilled += 1;
            } else if let Some(store) = inner.disk.as_mut() {
                let blob = old.session.to_checkpoint(old.session_id).encode();
                match store.put_unsynced(old.token, old.session_id, old.deadline_unix_ms, &blob) {
                    Ok(()) => {
                        outcome.spilled += 1;
                        outcome.wrote = true;
                    }
                    Err(e) => {
                        if matches!(e, StoreError::Full { .. }) {
                            outcome.store_full = true;
                        } else {
                            cira_obs::warn!(
                                "park eviction spill failed",
                                token = old.token,
                                error = format!("{e}")
                            );
                        }
                        outcome.evicted += 1;
                    }
                }
            } else {
                outcome.evicted += 1;
            }
        }
        inner.hot.push_back(Parked {
            token,
            session_id,
            session,
            at: Instant::now(),
            deadline_unix_ms,
            durable: outcome.persisted,
        });
    }

    /// One background-spill step: writes up to `max_n` of the oldest
    /// hot-only (not yet written) sessions through to the disk tier,
    /// marking them durable in place. Called from the shards' timer
    /// ticks; the step writes without syncing, so the caller owes one
    /// sync for the whole step. A full disk tier stops the step early
    /// ([`SpillOutcome::store_full`]); the remainder stays pending for a
    /// later step, after sweeps or resumes free pages. A no-op without
    /// a disk tier.
    pub fn spill_step(&self, max_n: usize) -> SpillOutcome {
        let mut outcome = SpillOutcome::default();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(store) = inner.disk.as_mut() else {
            return outcome;
        };
        for p in inner.hot.iter_mut() {
            if outcome.written >= max_n {
                break;
            }
            if p.durable {
                continue;
            }
            let blob = p.session.to_checkpoint(p.session_id).encode();
            match store.put_unsynced(p.token, p.session_id, p.deadline_unix_ms, &blob) {
                Ok(()) => {
                    p.durable = true;
                    outcome.written += 1;
                }
                Err(StoreError::Full { .. }) => {
                    outcome.store_full = true;
                    break; // retrying every entry would thrash a full tier
                }
                Err(e) => {
                    cira_obs::warn!(
                        "park background spill failed",
                        token = p.token,
                        error = format!("{e}")
                    );
                    break;
                }
            }
        }
        outcome
    }

    /// Hot sessions the background spiller has not written through yet
    /// (always 0 without a disk tier — there is nowhere to spill to).
    pub fn pending_spill(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        if inner.disk.is_none() {
            return 0;
        }
        inner.hot.iter().filter(|p| !p.durable).count()
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
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        if let Some(idx) = inner.hot.iter().position(|p| p.token == token) {
            let p = inner.hot.remove(idx).expect("index from position");
            let mut wrote = false;
            if p.durable {
                if let Some(store) = inner.disk.as_mut() {
                    wrote = store.remove_unsynced(token).is_ok();
                }
            }
            if p.at.elapsed() > self.ttl {
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
        if meta.deadline_unix_ms != 0 && meta.deadline_unix_ms < unix_now_ms() {
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

    /// Drops every session parked longer than the TTL — hot entries by
    /// monotonic age, disk records by their absolute deadline — and
    /// returns how many unique sessions were destroyed. Disk removals
    /// are written, not synced ([`SweepOutcome::wrote`]).
    pub fn sweep(&self) -> SweepOutcome {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let mut outcome = SweepOutcome::default();
        while inner.hot.front().is_some_and(|p| p.at.elapsed() > self.ttl) {
            let p = inner.hot.pop_front().expect("front checked");
            if p.durable {
                if let Some(store) = inner.disk.as_mut() {
                    outcome.wrote |= store.remove_unsynced(p.token).is_ok();
                }
            }
            outcome.expired += 1;
        }
        if let Some(store) = inner.disk.as_mut() {
            // Anything left on disk past its deadline is a spilled or
            // recovered record (hot copies were just handled above).
            let now = unix_now_ms();
            for (token, meta) in store.entries() {
                if meta.deadline_unix_ms != 0 && meta.deadline_unix_ms < now {
                    outcome.wrote |= store.remove_unsynced(token).is_ok();
                    outcome.expired += 1;
                }
            }
        }
        outcome
    }

    /// Unique sessions currently parked (hot-only entries plus every
    /// disk record; write-through entries count once).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let hot_only = inner.hot.iter().filter(|p| !p.durable).count();
        let disk = inner.disk.as_ref().map_or(0, SessionStore::len);
        hot_only + disk
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

    /// Shuts the park down. Without a disk tier, every parked session is
    /// dropped (rev 1.2 `clear`). With one, hot-only entries are written
    /// through first and one sync covers them and every earlier write,
    /// so every parked session survives the restart. Returns
    /// `(persisted, dropped)` — sessions made durable on the way down,
    /// and sessions destroyed for good (a failed final sync counts the
    /// sessions it should have covered as dropped).
    pub fn shutdown_drain(&self) -> (usize, usize) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let mut persisted = 0;
        let mut dropped = 0;
        while let Some(p) = inner.hot.pop_front() {
            if p.durable {
                continue; // already on disk
            }
            match inner.disk.as_mut() {
                Some(store) => {
                    let blob = p.session.to_checkpoint(p.session_id).encode();
                    match store.put_unsynced(p.token, p.session_id, p.deadline_unix_ms, &blob) {
                        Ok(()) => persisted += 1,
                        Err(_) => dropped += 1,
                    }
                }
                None => dropped += 1,
            }
        }
        if let Some(store) = inner.disk.as_mut() {
            if let Err(e) = store.sync() {
                cira_obs::warn!("park shutdown sync failed", error = format!("{e}"));
                return (0, persisted + dropped);
            }
        }
        (persisted, dropped)
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

    #[test]
    fn insert_take_roundtrip() {
        let park = SessionPark::new(4, Duration::from_secs(60));
        let outcome = park.insert(7, 100, session(7));
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
        park.insert(1, 1, session(1));
        assert_eq!(park.take(2).err(), Some(NotResumed::Unknown));
        assert_eq!(park.len(), 1, "miss must not disturb other entries");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let park = SessionPark::new(2, Duration::from_secs(60));
        assert_eq!(park.insert(1, 1, session(1)).evicted, 0);
        assert_eq!(park.insert(2, 2, session(2)).evicted, 0);
        assert_eq!(park.insert(3, 3, session(3)).evicted, 1);
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
        assert_eq!(park.insert(1, 1, session(1)).evicted, 1);
        assert_eq!(park.take(1).err(), Some(NotResumed::Unknown));
        assert!(park.is_empty());
    }

    #[test]
    fn ttl_sweeps_and_blocks_expired_take() {
        let park = SessionPark::new(4, Duration::from_millis(0));
        park.insert(1, 1, session(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            park.take(1).err(),
            Some(NotResumed::Destroyed { wrote: false }),
            "expired entries never resurrect"
        );
        park.insert(2, 2, session(2));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(park.sweep().expired, 1);
        assert!(park.is_empty());
    }

    #[test]
    fn an_expired_take_reports_what_it_destroyed() {
        let path = tmp("expired-take");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(1, Duration::from_millis(1), &path, 0).unwrap();
        park.insert(1, 1, small_session(1));
        // The second park pushes the first out of the one hot slot to disk.
        assert_eq!(park.insert(2, 2, small_session(2)).spilled, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            park.take(2).err(),
            Some(NotResumed::Destroyed { wrote: false }),
            "an expired hot entry"
        );
        assert_eq!(
            park.take(1).err(),
            Some(NotResumed::Destroyed { wrote: true }),
            "an expired disk record"
        );
        assert_eq!(park.take(1).err(), Some(NotResumed::Unknown));
        assert_eq!(park.take(3).err(), Some(NotResumed::Unknown));
        assert!(park.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_drain_without_disk_drops_all() {
        let park = SessionPark::new(4, Duration::from_secs(60));
        park.insert(1, 1, session(1));
        park.insert(2, 2, session(2));
        assert_eq!(park.shutdown_drain(), (0, 2));
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
            let outcome = park.insert(9, 42, s);
            assert!(!outcome.persisted, "teardown parks are lazy (rev 1.4)");
            assert_eq!(outcome.evicted, 0);
            assert_eq!(park.pending_spill(), 1);
            // The background spiller (a shard tick, in production) makes
            // it durable before the process dies.
            assert_eq!(
                park.spill_step(16),
                SpillOutcome {
                    written: 1,
                    store_full: false
                }
            );
            assert_eq!(park.pending_spill(), 0);
        } // process "dies" — nothing flushed beyond the spill's own sync

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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hot_eviction_spills_to_disk_not_oblivion() {
        let path = tmp("spill");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(2, Duration::from_secs(60), &path, 0).unwrap();
        assert!(!park.insert(1, 1, session(1)).persisted, "lazy park");
        assert!(!park.insert(2, 2, session(2)).persisted, "lazy park");
        // The spiller never ran, so the eviction itself must write the
        // victim through before dropping the decoded copy.
        let outcome = park.insert(3, 3, session(3));
        assert_eq!(outcome.spilled, 1, "evicted entries spill to disk");
        assert_eq!(outcome.evicted, 0, "nothing is destroyed");
        assert_eq!(park.len(), 3, "all three sessions remain parked");
        assert_eq!(park.disk_records(), 1, "only the victim was written");
        let r = park.take(1).unwrap();
        assert!(r.from_disk, "spilled session resumes from disk");
        assert!(!park.take(3).unwrap().from_disk, "recent session is hot");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn background_spill_writes_oldest_first_in_batches() {
        let path = tmp("bgspill");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(8, Duration::from_secs(60), &path, 0).unwrap();
        for t in 1..=5u64 {
            park.insert(t, t, session(t));
        }
        assert_eq!(park.pending_spill(), 5);
        assert_eq!(park.disk_records(), 0, "nothing written at insert time");
        assert_eq!(
            park.spill_step(2),
            SpillOutcome {
                written: 2,
                store_full: false
            }
        );
        assert_eq!(park.pending_spill(), 3);
        assert_eq!(park.disk_records(), 2);
        assert_eq!(park.spill_step(usize::MAX).written, 3);
        assert_eq!(park.pending_spill(), 0);
        assert_eq!(park.disk_records(), 5);
        assert_eq!(
            park.spill_step(usize::MAX),
            SpillOutcome::default(),
            "idempotent when drained"
        );
        assert_eq!(park.len(), 5, "spilled entries still count once");
        // Spilled-but-hot entries resume from the hot tier and release
        // their disk copy.
        let r = park.take(1).unwrap();
        assert!(!r.from_disk);
        assert_eq!(park.disk_records(), 4, "resume removes the disk copy");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_spill_step_writes_without_syncing_and_one_sync_covers_it() {
        let path = tmp("spill-one-sync");
        let _ = std::fs::remove_file(&path);
        let (park, _) = SessionPark::with_disk(16, Duration::from_secs(60), &path, 0).unwrap();
        let handle = park.sync_handle().unwrap().expect("disk tier");
        let unsynced = || {
            let inner = park.inner.lock().unwrap();
            inner.disk.as_ref().unwrap().has_unsynced()
        };
        for t in 1..=8u64 {
            park.insert(t, t, small_session(t));
        }
        assert!(!unsynced());
        assert_eq!(park.spill_step(usize::MAX).written, 8);
        assert!(unsynced(), "the step itself must not sync");
        handle.sync().unwrap();
        assert!(!unsynced(), "one sync covers the whole step");
        // A copy of the file as that sync left it holds all eight.
        let image = path.with_file_name("spill-one-sync.image");
        std::fs::copy(&path, &image).unwrap();
        let (recovered, n) =
            SessionPark::with_disk(16, Duration::from_secs(60), &image, 0).unwrap();
        assert_eq!(n, 8);
        drop(recovered);
        std::fs::remove_file(&image).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn background_spill_survives_kill_between_ticks() {
        let path = tmp("bgspill-crash");
        let _ = std::fs::remove_file(&path);
        {
            let (park, _) = SessionPark::with_disk(8, Duration::from_secs(60), &path, 0).unwrap();
            park.insert(1, 1, session(1));
            park.insert(2, 2, session(2));
            assert_eq!(park.spill_step(1).written, 1, "one tick fired");
        } // kill -9 before the next tick: only the spilled entry survives
        let (park, recovered) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 0).unwrap();
        assert_eq!(recovered, 1, "lazy window is bounded by the tick cadence");
        assert!(park.take(1).unwrap().from_disk, "oldest was spilled first");
        assert_eq!(park.take(2).err(), Some(NotResumed::Unknown));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_capacity_reports_store_full() {
        let path = tmp("full");
        let _ = std::fs::remove_file(&path);
        // Room for two single-page checkpoints only.
        let (park, _) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
        park.insert(1, 1, small_session(1));
        park.insert(2, 2, small_session(2));
        park.insert(3, 3, small_session(3));
        let outcome = park.spill_step(usize::MAX);
        assert_eq!(outcome.written, 2, "the tier takes what fits");
        assert!(outcome.store_full, "and reports the stall");
        assert_eq!(park.pending_spill(), 1, "the rest stays pending");
        // The stalled session is still parked hot — resumable until
        // restart.
        assert!(!park.take(3).unwrap().from_disk);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_drain_persists_hot_only_entries() {
        let path = tmp("drain");
        let _ = std::fs::remove_file(&path);
        {
            // Disk capacity 2 pages: the third park stays hot-only.
            let (park, _) =
                SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
            park.insert(1, 1, small_session(1));
            park.insert(2, 2, small_session(2));
            park.insert(3, 3, small_session(3));
            assert!(park.spill_step(usize::MAX).store_full);
            // Make room, then drain: the hot-only session gets written.
            let r = park.take(1).unwrap();
            assert_eq!(r.session_id, 1);
            assert_eq!(park.shutdown_drain(), (1, 0));
        }
        let (park, recovered) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
        assert_eq!(recovered, 2);
        assert!(park.take(3).unwrap().from_disk);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_sweep_uses_absolute_deadlines() {
        let path = tmp("deadline");
        let _ = std::fs::remove_file(&path);
        {
            let (park, _) = SessionPark::with_disk(0, Duration::from_millis(1), &path, 0).unwrap();
            // Zero hot capacity: disk-only park.
            let outcome = park.insert(5, 5, session(5));
            assert!(outcome.persisted);
            assert_eq!(outcome.evicted, 0, "persisted parks are not losses");
        }
        std::thread::sleep(Duration::from_millis(10));
        // A restart later, the record is past its wall-clock deadline.
        let (park, recovered) =
            SessionPark::with_disk(4, Duration::from_millis(1), &path, 0).unwrap();
        assert_eq!(recovered, 0, "expired records die at recovery");
        assert_eq!(park.take(5).err(), Some(NotResumed::Unknown));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_durable_refuses_rather_than_degrades() {
        // No disk tier and no hot tier: parking is simply off.
        let park = SessionPark::new(0, Duration::from_secs(60));
        match park.insert_durable(1, 1, small_session(1)) {
            Err(ParkRefusal::Disabled(s)) => assert_eq!(s.token(), 1),
            other => panic!("expected Disabled, got {other:?}"),
        }
        // Full disk tier: the session comes back untouched, not parked
        // hot with silently-degraded durability.
        let path = tmp("durable");
        let _ = std::fs::remove_file(&path);
        let (park, _) =
            SessionPark::with_disk(8, Duration::from_secs(60), &path, 2 * 4096).unwrap();
        assert!(
            park.insert_durable(1, 1, small_session(1))
                .unwrap()
                .persisted
        );
        assert!(
            park.insert_durable(2, 2, small_session(2))
                .unwrap()
                .persisted
        );
        match park.insert_durable(3, 3, small_session(3)) {
            Err(ParkRefusal::Full(s)) => assert_eq!(s.token(), 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(park.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
