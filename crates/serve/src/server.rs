//! The TCP server: N sharded epoll event loops (thread-per-core), with
//! batch execution fanned across a shared [`WorkerPool`].
//!
//! # Threading model
//!
//! * **N shard threads**, each running one nonblocking
//!   [`crate::event::Epoll`] loop. Shard 0 owns the listener and
//!   round-robins accepted sockets across all shards (handed over
//!   through an eventfd-wakeable inbox). Every connection lives on
//!   exactly one shard: its parse buffer, its write queue, and its
//!   session are single-threaded state, mutated only by that shard.
//! * **Readiness-driven parsing**: a readable socket is drained into a
//!   per-connection [`crate::frame::FrameBuffer`]; complete frames are
//!   pulled out incrementally. Control frames (`STATS`, `SNAPSHOT`,
//!   `RESET`, `GOODBYE`, …) are answered inline on the shard; `BATCH`
//!   runs are checked out with the session and executed on the shared
//!   [`WorkerPool`], and the acks come back to the owning shard via its
//!   inbox — heavy scoring work is multiplexed over the pool's threads
//!   no matter how many connections exist.
//! * **Resumes**: a `RESUME` is answered on the shard its connection
//!   was accepted onto. Parked sessions live in one [`SessionPark`]
//!   that every shard shares, so any shard can take one out; a
//!   connection never changes shards.
//! * **Backpressure**: a session with `max_inflight` undispatched
//!   batches stops being read (its `EPOLLIN` interest is dropped) — the
//!   client eventually blocks on TCP write, bounding memory per
//!   connection. Acks queue on a write queue flushed on `EPOLLOUT`; a
//!   peer that stops reading its acks trips the per-frame
//!   [`ServerConfig::write_timeout_ms`] deadline instead of pinning a
//!   thread.
//! * **Timers** — park TTL sweeps, idle eviction, slow-loris stall
//!   tracking, and write deadlines — all run as shard-local ticks every
//!   `TICK_MS` (100 ms).
//! * **Durability**: with a disk park tier, one more thread
//!   ([`crate::durability`]) runs the page file's syncs. A shard writes
//!   a checkpoint or a removal without syncing, and holds that
//!   connection's `PARKED_ACK` or `RESUMED` (the connection is busy, as
//!   during a batch run) until the thread reports a sync that began
//!   after the writes; the completion comes back through the shard's
//!   inbox. Meanwhile the shard serves other connections.
//! * **Shutdown**: triggering the [`ShutdownToken`] stops the accept
//!   loop and puts every shard into drain: in-flight batch runs finish
//!   and are acked, every connection gets a `SHUTTING_DOWN` error, and
//!   [`ServerHandle::shutdown_and_join`] returns only after all shards
//!   exited and the park drained to disk — no accepted work is dropped.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cira_analysis::engine::pool::WorkerPool;
use cira_obs::http::MetricsServer;
use cira_obs::trace::{self, Stage};
use cira_obs::Registry;
use cira_trace::codec::PackedTrace;

use crate::durability::{Durability, Waiter};
use crate::event::{Epoll, Event, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::frame::{FrameBuffer, FrameError, Ingest, DEFAULT_MAX_FRAME};
use crate::metrics::{register_shards, ServerMetrics, ShardMetrics};
use crate::park::{NotResumed, ParkOutcome, ParkRefusal, SessionPark};
use crate::proto::{code, decode_client, encode_server, ClientFrame, ServerFrame, PROTO_VERSION};
use crate::session::Session;
use crate::shutdown::ShutdownToken;

/// Epoll token of a shard's inbox eventfd.
const WAKE_TOKEN: u64 = 0;
/// Epoll token of the listener (shard 0 only).
const LISTEN_TOKEN: u64 = 1;
/// First token handed to a connection; tokens are monotonic and never
/// reused, so a stale event for a closed connection misses the map.
const FIRST_CONN_TOKEN: u64 = 2;
/// Ready events fetched per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 128;
/// Parsed-but-undispatched frames tolerated beyond `max_inflight`
/// before a connection's read interest is dropped (control frames are
/// cheap; only batches count against `max_inflight` itself).
const PARSED_HEADROOM: usize = 16;
/// Shard timer tick, milliseconds: the epoll wait timeout, and the
/// cadence of sweeps, idle/stall checks, write deadlines.
const TICK_MS: u64 = 100;
/// Mid-frame silence tolerated before the peer is dropped as a
/// slow-loris, milliseconds.
const STALL_MS: u64 = 60_000;

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest accepted frame body, bytes.
    pub max_frame: u32,
    /// Batches buffered per session before its socket stops being read.
    pub max_inflight: u32,
    /// Per-frame write deadline, milliseconds, measured from the moment
    /// the frame is queued: a peer that stops reading its acks must not
    /// hold buffers forever. `0` disables the deadline.
    pub write_timeout_ms: u64,
    /// Sessions alive at once (attached + parked) before new `HELLO`s
    /// are shed with a `BUSY` frame (rev 1.2).
    pub max_sessions: usize,
    /// Retry-after hint carried in `BUSY` frames, milliseconds.
    pub busy_retry_ms: u32,
    /// Detached sessions kept for `RESUME` (rev 1.2); `0` disables
    /// parking entirely.
    pub park_capacity: usize,
    /// How long a parked session survives before TTL eviction,
    /// milliseconds.
    pub park_ttl_ms: u64,
    /// Close (and park) a session whose connection sends no frame for
    /// this long, milliseconds; `0` disables idle eviction.
    pub idle_timeout_ms: u64,
    /// Directory for the durable park tier (rev 1.3). When set, parked
    /// sessions are checkpointed to a `cira-store` page file there
    /// (`park.cirstore`) and survive a full server restart — including
    /// `kill -9`. `None` keeps parking in-memory only.
    pub park_dir: Option<PathBuf>,
    /// Byte budget for the durable park tier's page file; `0` means
    /// unlimited. When exhausted, an explicit `PARK` is refused with
    /// `STORE_FULL`, its session still attached, and a teardown park
    /// destroys its session.
    pub park_disk_capacity: u64,
    /// Address for the HTTP listener that serves `GET /metrics` and
    /// `GET /trace` (e.g. `127.0.0.1:9184`), or `None` for none: the
    /// `STATS` frame then is the only network readout.
    pub metrics_addr: Option<String>,
    /// Event-loop shards (one epoll loop on one thread each). `0`
    /// resolves to `std::thread::available_parallelism()` at startup.
    pub shards: usize,
    /// Record flight-recorder span events from startup (rev 1.5). The
    /// instrumentation is compiled in either way; disabled it costs one
    /// relaxed atomic load per site (see `BENCH_obs.json`).
    pub trace: bool,
    /// Per-thread trace ring capacity in events (rounded up to a power
    /// of two). Older events are overwritten and counted as dropped.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 4,
            write_timeout_ms: 30_000,
            max_sessions: 1024,
            busy_retry_ms: 500,
            park_capacity: 64,
            park_ttl_ms: 60_000,
            idle_timeout_ms: 0,
            park_dir: None,
            park_disk_capacity: 0,
            metrics_addr: None,
            shards: 0,
            trace: false,
            trace_capacity: trace::DEFAULT_CAPACITY,
        }
    }
}

/// Process-wide state every shard shares: metrics, session-id/token
/// generation, and the park of detached sessions.
#[derive(Debug)]
struct Shared {
    metrics: Arc<ServerMetrics>,
    session_ids: AtomicU64,
    /// Seed mixed into resume tokens so they are not guessable across
    /// server restarts.
    token_seed: u64,
    token_ids: AtomicU64,
    park: SessionPark,
    /// How often TTL sweeps run (a fraction of the park TTL).
    sweep_every: Duration,
    /// Monotonic deadline for the next sweep; checked from every
    /// shard's tick, deadline-guarded so only one shard actually runs
    /// it.
    next_sweep: Mutex<Instant>,
    /// The thread that syncs the park's page file; present exactly when
    /// the park has a disk tier.
    durability: Option<Durability>,
}

impl Shared {
    /// A fresh, unguessable-enough resume token (splitmix64 over a
    /// per-process random seed plus a counter — no token collides within
    /// a process, and values don't repeat across restarts).
    fn next_token(&self) -> u64 {
        let x = self
            .token_seed
            .wrapping_add(self.token_ids.fetch_add(1, Ordering::Relaxed));
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// TTL-sweeps the park if the sweep deadline has passed. Cheap when
    /// it hasn't: one lock, one comparison.
    fn maybe_sweep(&self) {
        let now = Instant::now();
        {
            let mut next = self.next_sweep.lock().unwrap_or_else(|e| e.into_inner());
            if *next > now {
                return;
            }
            *next = now + self.sweep_every;
        }
        self.sweep_park();
    }

    /// Asks the durability thread for a sync that begins after this
    /// call; `waiter` runs once it returns. Without a disk tier nothing
    /// was written, so the waiter runs at once.
    fn request_sync(&self, waiter: Option<Waiter>) {
        match &self.durability {
            Some(d) => d.request(waiter),
            None => {
                if let Some(w) = waiter {
                    w(Ok(()));
                }
            }
        }
    }

    /// TTL-sweeps the park, keeping the eviction counters and the live
    /// gauge in step.
    fn sweep_park(&self) {
        let outcome = self.park.sweep();
        if outcome.wrote {
            self.request_sync(None);
        }
        if outcome.expired > 0 {
            self.metrics.park_evicted_ttl.add(outcome.expired as u64);
            self.metrics.sessions_live.add(-(outcome.expired as i64));
            cira_obs::debug!("parked sessions expired", evicted = outcome.expired);
        }
        self.publish_store_gauges();
    }

    /// Accounts for a parked session that a take destroyed (expired
    /// between sweeps, or unreadable) as a sweep would: one TTL eviction,
    /// one live session fewer, and the sync its removal owes.
    fn account_destroyed(&self, wrote: bool) {
        if wrote {
            self.request_sync(None);
        }
        self.metrics.park_evicted_ttl.inc();
        self.metrics.sessions_live.dec();
        self.publish_store_gauges();
    }

    /// Refreshes the disk-tier gauges (record and byte footprint) after
    /// any park mutation.
    fn publish_store_gauges(&self) {
        if !self.park.has_disk() {
            return;
        }
        self.metrics
            .park_disk_records
            .set(self.park.disk_records() as i64);
        self.metrics
            .park_disk_bytes
            .set(self.park.disk_bytes() as i64);
    }

    /// Applies a [`ParkOutcome`]'s counter deltas: spills keep their
    /// sessions (disk copy retained), evictions destroy them. The caller
    /// owes the sync for `outcome.wrote`.
    fn account_park(&self, outcome: &ParkOutcome) {
        if outcome.evicted > 0 {
            self.metrics
                .park_evicted_capacity
                .add(outcome.evicted as u64);
            self.metrics.sessions_live.add(-(outcome.evicted as i64));
        }
        if outcome.spilled > 0 {
            self.metrics.park_spilled.add(outcome.spilled as u64);
        }
        self.publish_store_gauges();
    }
}

/// A session attached to a live connection, with its server-side id.
/// While a batch run executes on the pool the `Active` travels with the
/// job (checked out of the connection) and comes back in the
/// [`Done`] completion — at most one job runs a session at a time, so
/// batches apply in arrival order with no locking around session state.
#[derive(Debug)]
struct Active {
    id: u64,
    session: Session,
}

/// How a connection should be closed once its write queue drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// Orderly exchange: the session (if any) is destroyed, not parked.
    Clean,
    /// Fault: the session (if any) is parked for `RESUME`.
    Abrupt,
}

/// One queued outbound frame: length prefix + body, a partial-write
/// cursor, and the absolute deadline by which the peer must have
/// consumed it.
#[derive(Debug)]
struct WriteItem {
    /// 4-byte little-endian length prefix followed by the encoded body.
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    off: usize,
    /// Body length (for the `bytes_out` counter on completion).
    body_len: usize,
    /// Queue-time write deadline, when `write_timeout_ms > 0`.
    deadline: Option<Instant>,
}

/// All per-connection state, owned by the one shard it was handed to.
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    fd: RawFd,
    /// Epoll token on the owning shard.
    token: u64,
    /// Incremental parse buffer filled on readiness.
    rbuf: FrameBuffer,
    /// Decoded frames awaiting dispatch.
    parsed: VecDeque<ClientFrame>,
    /// Batches inside `parsed` (the backpressure signal).
    queued_batches: usize,
    /// Outbound frames awaiting `EPOLLOUT`.
    wq: VecDeque<WriteItem>,
    /// The attached session, unless checked out into a running job.
    active: Option<Active>,
    /// A batch run for this connection is executing on the pool.
    busy: bool,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// When the last complete frame arrived (idle eviction).
    last_frame: Instant,
    /// Total bytes ever ingested (stall progress detection).
    ingested: u64,
    /// `ingested` as of the last stall check.
    last_seen_ingested: u64,
    /// Milliseconds spent mid-frame without progress.
    stall_ms: u64,
    /// The peer closed its write half.
    read_eof: bool,
    /// The stream is unusable; queued writes are discarded.
    io_dead: bool,
    /// Set once the connection is condemned; it tears down as soon as
    /// it is not busy and its write queue has drained (or died).
    closing: Option<Close>,
    /// A reply waiting for the durability thread's sync; the connection
    /// is busy meanwhile.
    held: Option<Held>,
}

/// A durability receipt held until a sync covers the park writes of the
/// request it answers.
#[derive(Debug)]
enum Held {
    /// `PARK`: the session is in the park; `PARKED_ACK` is owed.
    Park { id: u64, token: u64 },
    /// `RESUME`: the session is attached again; this `RESUMED` is owed.
    Resume(ServerFrame),
}

impl ConnState {
    fn new(stream: TcpStream, fd: RawFd, token: u64) -> Self {
        Self {
            stream,
            fd,
            token,
            rbuf: FrameBuffer::new(),
            parsed: VecDeque::new(),
            queued_batches: 0,
            wq: VecDeque::new(),
            active: None,
            busy: false,
            interest: 0,
            last_frame: Instant::now(),
            ingested: 0,
            last_seen_ingested: 0,
            stall_ms: 0,
            read_eof: false,
            io_dead: false,
            closing: None,
            held: None,
        }
    }
}

/// A finished batch run coming back from the pool to the owning shard.
#[derive(Debug)]
struct Done {
    conn_id: u64,
    active: Active,
    acks: Vec<ServerFrame>,
}

/// Messages posted to a shard's inbox (new sockets from the acceptor,
/// batch completions, sync completions).
#[derive(Debug)]
enum ShardMsg {
    NewConn(TcpStream),
    Done(Box<Done>),
    /// The sync a held reply waited for returned (`Err`: it failed).
    Synced {
        conn_id: u64,
        result: Result<(), String>,
    },
}

/// A shard's cross-thread mailbox: a locked queue plus the eventfd that
/// wakes the shard's epoll loop when something lands in it.
#[derive(Debug)]
struct ShardShared {
    inbox: Mutex<VecDeque<ShardMsg>>,
    wake: WakeFd,
}

impl ShardShared {
    fn post(&self, msg: ShardMsg) {
        self.inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(msg);
        self.wake.wake();
    }
}

/// A connection's flight-recorder trace id: the owning shard in the
/// high bits keeps per-shard epoll tokens unique process-wide (the +1
/// distinguishes shard 0's connections from the "no trace id" zero).
fn conn_trace_id(shard: usize, conn_token: u64) -> u64 {
    ((shard as u64 + 1) << 32) | (conn_token & 0xffff_ffff)
}

/// One event-loop shard: an epoll instance, the connections it owns,
/// and (on shard 0) the listener.
struct Shard {
    index: usize,
    cfg: ServerConfig,
    pool: &'static WorkerPool,
    shared: Arc<Shared>,
    /// This shard's own mailbox.
    me: Arc<ShardShared>,
    /// Every shard's mailbox, self included, indexed by shard.
    peers: Vec<Arc<ShardShared>>,
    epoll: Epoll,
    /// The accept socket; only shard 0 holds one.
    listener: Option<TcpListener>,
    conns: HashMap<u64, ConnState>,
    next_conn: u64,
    /// Round-robin cursor for distributing accepted sockets.
    rr: usize,
    /// This shard's own instruments.
    smetrics: Arc<ShardMetrics>,
    shutdown: ShutdownToken,
    draining: bool,
}

impl Shard {
    fn run(mut self) {
        trace::register_thread(
            &format!("cira-serve-shard{}", self.index),
            Some(self.index as u16),
        );
        let tick = Duration::from_millis(TICK_MS);
        let timeout_ms = TICK_MS as i32;
        let mut events = [Event::default(); EVENTS_PER_WAIT];
        let mut last_tick = Instant::now();
        loop {
            let n = self.epoll.wait(&mut events, timeout_ms).unwrap_or(0);
            if n > 0 {
                self.smetrics.wakeups.inc();
            }
            self.smetrics.ready_depth.set(n as i64);
            for ev in &events[..n] {
                let (key, ready) = (ev.key(), ev.ready());
                match key {
                    WAKE_TOKEN => {
                        self.me.wake.drain();
                        self.drain_inbox();
                    }
                    LISTEN_TOKEN => self.accept_ready(),
                    id => self.service(id, ready),
                }
            }
            if self.shutdown.is_triggered() && !self.draining {
                self.enter_drain();
            }
            let now = Instant::now();
            if now.duration_since(last_tick) >= tick {
                let dt = now.duration_since(last_tick);
                last_tick = now;
                self.tick(dt);
            }
            if self.draining
                && self.conns.is_empty()
                && self
                    .me
                    .inbox
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty()
            {
                break;
            }
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        id
    }

    fn drain_inbox(&mut self) {
        loop {
            let msg = self
                .me
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            match msg {
                Some(ShardMsg::NewConn(stream)) => {
                    trace::instant(Stage::Inbox, 0, 0, self.index as u16, 0);
                    self.register_conn(stream);
                }
                Some(ShardMsg::Done(d)) => {
                    if trace::enabled() {
                        trace::instant(
                            Stage::Inbox,
                            conn_trace_id(self.index, d.conn_id),
                            d.active.session.token(),
                            self.index as u16,
                            d.acks.len() as u64,
                        );
                    }
                    self.complete(d);
                }
                Some(ShardMsg::Synced { conn_id, result }) => self.release(conn_id, result),
                None => break,
            }
        }
    }

    /// Accepts until the listener would block, distributing sockets
    /// round-robin across all shards (self included).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    self.shared.metrics.connections_total.inc();
                    self.shared.metrics.connections_active.inc();
                    cira_obs::debug!("connection accepted", peer = peer);
                    let target = self.rr % self.peers.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.index {
                        self.register_conn(stream);
                    } else {
                        self.peers[target].post(ShardMsg::NewConn(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock, or transient accept errors
            }
        }
    }

    /// Takes ownership of a socket: nonblocking, registered, tracked.
    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.shared.metrics.connections_active.dec();
            return;
        }
        let id = self.next_id();
        let fd = stream.as_raw_fd();
        let mut conn = ConnState::new(stream, fd, id);
        if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, id).is_err() {
            self.shared.metrics.connections_active.dec();
            return;
        }
        conn.interest = EPOLLIN | EPOLLRDHUP;
        trace::instant(
            Stage::Accept,
            conn_trace_id(self.index, id),
            0,
            self.index as u16,
            0,
        );
        self.smetrics.connections.inc();
        if self.draining {
            self.send(
                &mut conn,
                &ServerFrame::Error {
                    code: code::SHUTTING_DOWN,
                    message: "server is shutting down".to_owned(),
                },
            );
            conn.closing = Some(Close::Clean);
        }
        self.dispose(id, conn);
    }

    /// Lands a finished batch run: the session checks back in, acks are
    /// queued, and anything the connection parsed meanwhile dispatches.
    fn complete(&mut self, d: Box<Done>) {
        let Done {
            conn_id,
            active,
            acks,
        } = *d;
        let Some(mut conn) = self.conns.remove(&conn_id) else {
            // Defensive: connections stay in the map while busy, so this
            // should not happen — but never silently lose a session.
            self.park_detached(conn_id, active);
            return;
        };
        if trace::enabled() {
            trace::instant(
                Stage::Complete,
                conn_trace_id(self.index, conn_id),
                active.session.token(),
                self.index as u16,
                acks.len() as u64,
            );
        }
        conn.busy = false;
        debug_assert!(conn.active.is_none(), "session double-attached");
        conn.active = Some(active);
        for ack in &acks {
            self.send(&mut conn, ack);
        }
        self.pump_and_dispose(conn_id, conn);
    }

    /// Holds `conn`'s reply until the durability thread's next sync
    /// returns; the completion comes back through this shard's inbox.
    fn hold(&self, conn: &mut ConnState, held: Held) {
        conn.busy = true;
        conn.held = Some(held);
        let me = Arc::clone(&self.me);
        let conn_id = conn.token;
        self.shared.request_sync(Some(Box::new(move |result| {
            me.post(ShardMsg::Synced { conn_id, result });
        })));
    }

    /// Sends a held reply once its sync returned. A failed sync takes a
    /// parked session back out of the park and answers `STORE_FULL`
    /// with it attached again; a resume is answered anyway, with a
    /// warning (the session is already attached).
    fn release(&mut self, conn_id: u64, result: Result<(), String>) {
        let Some(mut conn) = self.conns.remove(&conn_id) else {
            return; // held connections stay in the map until released
        };
        if let Some(held) = conn.held.take() {
            conn.busy = false;
            match (held, result) {
                (Held::Park { id, token }, Ok(())) => {
                    self.parked(&mut conn, id, token);
                    conn.closing = Some(Close::Clean);
                }
                (Held::Park { id, token }, Err(error)) => {
                    cira_obs::warn!("park sync failed", session = id, error = error);
                    self.shared.metrics.park_store_full.inc();
                    match self.shared.park.take(token) {
                        Ok(resumed) => {
                            if resumed.wrote {
                                self.shared.request_sync(None);
                            }
                            self.shared.publish_store_gauges();
                            conn.active = Some(Active {
                                id,
                                session: resumed.session,
                            });
                            self.store_full(&mut conn);
                        }
                        Err(gone) => {
                            // Whoever removed an unknown token (a sweep, a
                            // RESUME) has accounted for the session.
                            if let NotResumed::Destroyed { wrote } = gone {
                                self.shared.account_destroyed(wrote);
                            }
                            self.conn_error(
                                &mut conn,
                                code::STORE_FULL,
                                "park sync failed and the session was lost".to_owned(),
                            );
                            conn.closing = Some(Close::Clean);
                        }
                    }
                }
                (Held::Resume(ack), result) => {
                    if let Err(error) = result {
                        cira_obs::warn!("resume removal sync failed", error = error);
                    }
                    self.send(&mut conn, &ack);
                }
            }
        }
        self.pump_and_dispose(conn_id, conn);
    }

    /// Counts a successful `PARK` and sends its `PARKED_ACK`.
    fn parked(&self, conn: &mut ConnState, id: u64, token: u64) {
        self.shared.metrics.sessions_parked.inc();
        cira_obs::info!("session parked on request", session = id);
        self.send(conn, &ServerFrame::ParkedAck { token });
    }

    /// Tells the client its `PARK` was refused and its session is still
    /// attached (mirrors `BUSY`).
    fn store_full(&self, conn: &mut ConnState) {
        self.send(
            conn,
            &ServerFrame::StoreFull {
                retry_after_ms: self.cfg.busy_retry_ms,
                message: "disk park tier at capacity; session still attached".to_owned(),
            },
        );
    }

    /// Inserts `session` into the park inside a `park_spill` span
    /// attributed to connection `conn_token` (aux 1 when the park took
    /// it).
    fn park_insert(
        &self,
        conn_token: u64,
        id: u64,
        session: Session,
    ) -> Result<ParkOutcome, ParkRefusal> {
        trace::set_ctx(
            conn_trace_id(self.index, conn_token),
            session.token(),
            self.index as u16,
        );
        let span = trace::Span::begin_ctx(Stage::ParkSpill);
        let parked = self.shared.park.insert(session.token(), id, session);
        span.end_with(parked.is_ok() as u64);
        trace::clear_ctx();
        parked
    }

    /// Parks the session of a connection that ended without `GOODBYE`
    /// (a teardown, or a batch run whose connection is gone), and asks
    /// for the sync its checkpoint owes. When the park refuses it —
    /// the disk tier is full or failed the write, or parking is
    /// disabled — the session is destroyed.
    fn park_detached(&self, conn_token: u64, active: Active) {
        let token = active.session.token();
        let metrics = &self.shared.metrics;
        match self.park_insert(conn_token, active.id, active.session) {
            Ok(outcome) => {
                if outcome.wrote {
                    self.shared.request_sync(None);
                }
                self.shared.account_park(&outcome);
                metrics.sessions_parked.inc();
                cira_obs::debug!(
                    "session parked",
                    session = active.id,
                    token = token,
                    shard = self.index,
                );
            }
            Err(ParkRefusal::Full(_)) => {
                // A park lost at capacity, as a full hot tier loses one.
                metrics.park_store_full.inc();
                metrics.park_evicted_capacity.inc();
                metrics.sessions_live.dec();
                cira_obs::warn!(
                    "teardown park refused by the disk tier",
                    session = active.id
                );
            }
            Err(ParkRefusal::Disabled(_)) => metrics.sessions_live.dec(),
        }
    }

    /// One connection's readiness: ingest, flush, then pump.
    fn service(&mut self, id: u64, ready: u32) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        if ready & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
            && !conn.read_eof
            && conn.closing.is_none()
        {
            match conn.rbuf.fill_from(&mut conn.stream) {
                Ok(Ingest::Drained { bytes }) | Ok(Ingest::More { bytes }) => {
                    conn.ingested = conn.ingested.wrapping_add(bytes as u64);
                }
                Ok(Ingest::Eof { bytes }) => {
                    conn.ingested = conn.ingested.wrapping_add(bytes as u64);
                    conn.read_eof = true;
                }
                Err(_) => {
                    conn.io_dead = true;
                    conn.wq.clear();
                    if conn.closing.is_none() {
                        conn.closing = Some(Close::Abrupt);
                    }
                }
            }
        }
        if ready & EPOLLOUT != 0 {
            self.flush(&mut conn);
        }
        self.pump_and_dispose(id, conn);
    }

    /// Parse → dispatch → finish-check → dispose, the common tail of
    /// every per-connection entry point. The connection is owned (out of
    /// the map) for the duration and re-inserted unless it tears down.
    fn pump_and_dispose(&mut self, id: u64, mut conn: ConnState) {
        if conn.closing.is_none() {
            self.parse(&mut conn);
        }
        self.dispatch(id, &mut conn);
        self.finish_checks(&mut conn);
        if conn.closing.is_some() {
            conn.parsed.clear();
            conn.queued_batches = 0;
        }
        self.dispose(id, conn);
    }

    /// Pulls complete frames out of the parse buffer.
    fn parse(&mut self, conn: &mut ConnState) {
        let metrics = Arc::clone(&self.shared.metrics);
        while conn.closing.is_none() {
            match conn.rbuf.next_frame(self.cfg.max_frame) {
                Ok(Some(body)) => {
                    conn.last_frame = Instant::now();
                    metrics.frames_in.inc();
                    metrics.bytes_in.add(body.len() as u64);
                    if trace::enabled() {
                        trace::instant(
                            Stage::Parse,
                            conn_trace_id(self.index, conn.token),
                            conn.active.as_ref().map_or(0, |a| a.session.token()),
                            self.index as u16,
                            body.len() as u64,
                        );
                    }
                    match decode_client(&body) {
                        Ok(frame) => {
                            if matches!(frame, ClientFrame::Batch { .. }) {
                                conn.queued_batches += 1;
                            }
                            conn.parsed.push_back(frame);
                        }
                        Err(e) => {
                            self.conn_error(conn, code::MALFORMED, e.to_string());
                            conn.closing = Some(Close::Abrupt);
                        }
                    }
                }
                Ok(None) => break,
                Err(FrameError::Oversized { len, max }) => {
                    self.conn_error(
                        conn,
                        code::OVERSIZED,
                        format!("frame of {len} bytes exceeds maximum {max}"),
                    );
                    conn.closing = Some(Close::Abrupt);
                }
                Err(_) => {
                    conn.closing = Some(Close::Abrupt);
                }
            }
        }
    }

    /// Dispatches parsed frames in order until the connection is busy,
    /// condemned, or out of frames. Consecutive batches are checked out
    /// as one pool job.
    fn dispatch(&mut self, id: u64, conn: &mut ConnState) {
        loop {
            if conn.closing.is_some() || conn.busy {
                return;
            }
            let batch_run = matches!(conn.parsed.front(), Some(ClientFrame::Batch { .. }))
                && conn.active.is_some();
            if batch_run {
                let mut run = Vec::new();
                while matches!(conn.parsed.front(), Some(ClientFrame::Batch { .. })) {
                    if let Some(ClientFrame::Batch { seq, records }) = conn.parsed.pop_front() {
                        conn.queued_batches = conn.queued_batches.saturating_sub(1);
                        run.push((seq, records));
                    }
                }
                let active = conn.active.take().expect("session checked above");
                conn.busy = true;
                if trace::enabled() {
                    trace::instant(
                        Stage::Checkout,
                        conn_trace_id(self.index, id),
                        active.session.token(),
                        self.index as u16,
                        run.len() as u64,
                    );
                }
                self.spawn_batch_job(id, active, run);
                continue;
            }
            let Some(frame) = conn.parsed.pop_front() else {
                return;
            };
            if matches!(frame, ClientFrame::Batch { .. }) {
                conn.queued_batches = conn.queued_batches.saturating_sub(1);
            }
            if let Some(close) = self.process_frame(conn, frame) {
                conn.closing = Some(close);
            }
        }
    }

    /// Ships a run of batches (with the checked-out session) to the
    /// worker pool; the completion comes back through this shard's inbox.
    fn spawn_batch_job(&self, id: u64, mut active: Active, run: Vec<(u32, PackedTrace)>) {
        let metrics = Arc::clone(&self.shared.metrics);
        let me = Arc::clone(&self.me);
        let trace_id = conn_trace_id(self.index, id);
        let shard = self.index as u16;
        self.pool.spawn(move || {
            // Ambient attribution: chunk events inside the engine and
            // any store I/O this job triggers inherit the ids.
            trace::set_ctx(trace_id, active.session.token(), shard);
            let mut acks = Vec::with_capacity(run.len());
            for (seq, records) in run {
                let n = records.len() as u64;
                let span = trace::Span::begin_ctx(Stage::Score);
                let t0 = Instant::now();
                let ack = active.session.apply_batch(seq, &records);
                let service_us = t0.elapsed().as_micros() as u64;
                span.end_with(n);
                if let ServerFrame::BatchAck {
                    mispredicts,
                    low_confidence,
                    ..
                } = &ack
                {
                    metrics.record_batch(n, *mispredicts, *low_confidence, service_us);
                }
                acks.push(ack);
            }
            trace::clear_ctx();
            me.post(ShardMsg::Done(Box::new(Done {
                conn_id: id,
                active,
                acks,
            })));
        });
    }

    /// End-of-stream and drain transitions, once everything parsed has
    /// dispatched.
    fn finish_checks(&mut self, conn: &mut ConnState) {
        if conn.closing.is_some() || conn.busy || !conn.parsed.is_empty() {
            return;
        }
        if conn.read_eof {
            if conn.rbuf.mid_frame() {
                // Mid-frame disconnect: nothing sensible to say to the
                // peer; just clean up (breakdown slot 0).
                self.shared.metrics.protocol_error(0);
            }
            conn.closing = Some(Close::Abrupt);
        } else if self.draining {
            // Everything already accepted is answered; tell the peer,
            // close. The process is going away, so the session is *not*
            // parked here — the handle's final drain persists the park.
            self.send(
                conn,
                &ServerFrame::Error {
                    code: code::SHUTTING_DOWN,
                    message: "server is shutting down".to_owned(),
                },
            );
            conn.closing = Some(Close::Clean);
        }
    }

    /// Tears down now if condemned and quiescent, otherwise re-arms
    /// interest and returns the connection to the map.
    fn dispose(&mut self, id: u64, mut conn: ConnState) {
        if let Some(close) = conn.closing {
            if !conn.busy && (conn.wq.is_empty() || conn.io_dead) {
                self.teardown(conn, close == Close::Clean);
                return;
            }
        }
        self.update_interest(&mut conn);
        self.conns.insert(id, conn);
    }

    /// Recomputes and applies epoll interest: reads gated on dispatch
    /// backlog (backpressure), writes on a non-empty queue.
    fn update_interest(&self, conn: &mut ConnState) {
        let mut want = 0u32;
        let parsed_cap = self.cfg.max_inflight as usize + PARSED_HEADROOM;
        if conn.closing.is_none()
            && !conn.read_eof
            && !conn.io_dead
            && !self.draining
            && conn.queued_batches < self.cfg.max_inflight as usize
            && conn.parsed.len() < parsed_cap
        {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.wq.is_empty() && !conn.io_dead {
            want |= EPOLLOUT;
        }
        if want != conn.interest && self.epoll.modify(conn.fd, want, conn.token).is_ok() {
            conn.interest = want;
        }
    }

    /// Final close: deregister, park-or-destroy the session, shut the
    /// socket down, settle the gauges.
    fn teardown(&mut self, mut conn: ConnState, clean: bool) {
        let _ = self.epoll.del(conn.fd);
        let metrics = &self.shared.metrics;
        if let Some(active) = conn.active.take() {
            if clean {
                metrics.sessions_live.dec();
            } else {
                // Park for RESUME; the last acked batch is durable state.
                self.park_detached(conn.token, active);
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        metrics.connections_active.dec();
        self.smetrics.connections.dec();
        cira_obs::debug!("connection closed");
    }

    /// Serializes one frame onto the write queue (stamping its deadline)
    /// and flushes as much as the socket will take right now.
    fn send(&self, conn: &mut ConnState, frame: &ServerFrame) {
        if conn.io_dead {
            return;
        }
        let body = encode_server(frame);
        if trace::enabled() {
            trace::instant(
                Stage::WriteQueue,
                conn_trace_id(self.index, conn.token),
                conn.active.as_ref().map_or(0, |a| a.session.token()),
                self.index as u16,
                body.len() as u64,
            );
        }
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let deadline = (self.cfg.write_timeout_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(self.cfg.write_timeout_ms));
        conn.wq.push_back(WriteItem {
            off: 0,
            body_len: body.len(),
            buf,
            deadline,
        });
        self.flush(conn);
    }

    /// Flushes the write queue until it empties or the socket would
    /// block; a write error condemns the connection.
    fn flush(&self, conn: &mut ConnState) {
        let span = (trace::enabled() && !conn.wq.is_empty()).then(|| {
            trace::Span::begin(
                Stage::WriteFlush,
                conn_trace_id(self.index, conn.token),
                conn.active.as_ref().map_or(0, |a| a.session.token()),
                self.index as u16,
            )
        });
        let written = self.flush_inner(conn);
        if let Some(span) = span {
            span.end_with(written);
        }
    }

    /// [`flush`](Self::flush) minus the tracing shell; returns the bytes
    /// written this call.
    fn flush_inner(&self, conn: &mut ConnState) -> u64 {
        let ConnState {
            stream,
            wq,
            io_dead,
            closing,
            ..
        } = conn;
        let mut written = 0u64;
        if *io_dead {
            wq.clear();
            return written;
        }
        while let Some(item) = wq.front_mut() {
            while item.off < item.buf.len() {
                match stream.write(&item.buf[item.off..]) {
                    Ok(0) => {
                        *io_dead = true;
                        break;
                    }
                    Ok(n) => {
                        item.off += n;
                        written += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return written,
                    Err(_) => {
                        *io_dead = true;
                        break;
                    }
                }
            }
            if *io_dead {
                wq.clear();
                if closing.is_none() {
                    *closing = Some(Close::Abrupt);
                }
                return written;
            }
            let body_len = item.body_len;
            self.shared.metrics.frames_out.inc();
            self.shared.metrics.bytes_out.add(body_len as u64);
            wq.pop_front();
        }
        written
    }

    /// Counts a protocol violation, queues its `ERROR` frame, and — with
    /// tracing on — snapshots the flight recorder so the events leading
    /// up to the fault survive (throttled to one dump per second).
    fn conn_error(&self, conn: &mut ConnState, error_code: u16, message: String) {
        self.shared.metrics.protocol_error(error_code);
        trace::instant(
            Stage::Fault,
            conn_trace_id(self.index, conn.token),
            0,
            self.index as u16,
            u64::from(error_code),
        );
        if let Some(path) = trace::flight_dump("protocol-error") {
            cira_obs::info!("flight recorder dumped", path = path.display());
        }
        cira_obs::debug!("protocol error", code = error_code, detail = message);
        self.send(
            conn,
            &ServerFrame::Error {
                code: error_code,
                message,
            },
        );
    }

    /// Handles one non-batch frame inline on the shard. Ordering with
    /// respect to batches is structural: frames dispatch strictly in
    /// arrival order and never while a batch run is in flight, so every
    /// `SNAPSHOT`/`RESET`/`PARK`/`GOODBYE` observes all batches that
    /// preceded it. Returns how to close the connection, if it must.
    fn process_frame(&mut self, conn: &mut ConnState, frame: ClientFrame) -> Option<Close> {
        let has_session = conn.active.is_some();
        let metrics = Arc::clone(&self.shared.metrics);
        match frame {
            ClientFrame::Hello { version, config } => {
                if version != PROTO_VERSION {
                    self.conn_error(
                        conn,
                        code::UNSUPPORTED_VERSION,
                        format!(
                            "protocol version {version} not supported; this server speaks {PROTO_VERSION}"
                        ),
                    );
                    return Some(Close::Clean);
                }
                // Load shedding: every live session (attached or parked)
                // holds predictor + table state, so cap them and tell the
                // client when to come back rather than thrash or hang.
                if !has_session
                    && metrics.sessions_live.get().max(0) as usize >= self.cfg.max_sessions
                {
                    metrics.sessions_shed.inc();
                    cira_obs::info!(
                        "session shed at capacity",
                        max_sessions = self.cfg.max_sessions,
                        retry_after_ms = self.cfg.busy_retry_ms,
                    );
                    self.send(
                        conn,
                        &ServerFrame::Busy {
                            retry_after_ms: self.cfg.busy_retry_ms,
                            message: format!(
                                "at capacity ({} sessions); retry later",
                                self.cfg.max_sessions
                            ),
                        },
                    );
                    return Some(Close::Clean);
                }
                let token = self.shared.next_token();
                match Session::from_hello(&config, token) {
                    Ok(session) => {
                        let session_id = self.shared.session_ids.fetch_add(1, Ordering::Relaxed);
                        let ack = ServerFrame::HelloAck {
                            version: PROTO_VERSION,
                            session: session_id,
                            max_frame: self.cfg.max_frame,
                            max_inflight: self.cfg.max_inflight,
                            predictor: session.predictor_desc().to_owned(),
                            mechanism: session.mechanism_desc().to_owned(),
                            token,
                        };
                        cira_obs::info!(
                            "session opened",
                            session = session_id,
                            predictor = session.predictor_desc(),
                            mechanism = session.mechanism_desc(),
                        );
                        let replaced = conn.active.replace(Active {
                            id: session_id,
                            session,
                        });
                        metrics.sessions_opened.inc();
                        // Re-HELLO on a live connection destroys the old
                        // session, so the live gauge only moves for new ones.
                        if replaced.is_none() {
                            metrics.sessions_live.inc();
                        }
                        self.send(conn, &ack);
                        None
                    }
                    Err(message) => {
                        self.conn_error(conn, code::BAD_SPEC, message);
                        Some(Close::Clean)
                    }
                }
            }
            ClientFrame::Resume { version, token } => {
                if version != PROTO_VERSION {
                    self.conn_error(
                        conn,
                        code::UNSUPPORTED_VERSION,
                        format!(
                            "protocol version {version} not supported; this server speaks {PROTO_VERSION}"
                        ),
                    );
                    return Some(Close::Clean);
                }
                metrics.resume_attempts.inc();
                if has_session {
                    self.conn_error(
                        conn,
                        code::MALFORMED,
                        "RESUME on a connection that already has a session".to_owned(),
                    );
                    return Some(Close::Abrupt);
                }
                trace::set_ctx(
                    conn_trace_id(self.index, conn.token),
                    token,
                    self.index as u16,
                );
                let load_span = trace::Span::begin_ctx(Stage::ParkLoad);
                let taken = self.shared.park.take(token);
                load_span.end_with(taken.as_ref().is_ok_and(|r| r.from_disk) as u64);
                trace::clear_ctx();
                match taken {
                    Ok(resumed) => {
                        let session_id = resumed.session_id;
                        let from_disk = resumed.from_disk;
                        let wrote = resumed.wrote;
                        let session = resumed.session;
                        let ack = session.resume_ack(
                            session_id,
                            self.cfg.max_frame,
                            self.cfg.max_inflight,
                        );
                        cira_obs::info!(
                            "session resumed",
                            session = session_id,
                            last_seq = format!("{:?}", session.last_seq()),
                            from_disk = from_disk,
                            shard = self.index,
                        );
                        conn.active = Some(Active {
                            id: session_id,
                            session,
                        });
                        metrics.sessions_resumed.inc();
                        if from_disk {
                            // The hot tier missed: this session was spilled
                            // or recovered, decoded from its checkpoint.
                            metrics.park_loaded.inc();
                        }
                        self.shared.publish_store_gauges();
                        // The removal of the disk copy must be synced
                        // before RESUMED: a crash must not bring back a
                        // session the client has taken.
                        if wrote {
                            self.hold(conn, Held::Resume(ack));
                        } else {
                            self.send(conn, &ack);
                        }
                        None
                    }
                    Err(gone) => {
                        if let NotResumed::Destroyed { wrote } = gone {
                            self.shared.account_destroyed(wrote);
                        }
                        metrics.resume_failures.inc();
                        self.conn_error(
                            conn,
                            code::UNKNOWN_SESSION,
                            "resume token names no parked session (expired or evicted)".to_owned(),
                        );
                        Some(Close::Clean)
                    }
                }
            }
            // STATS and GOODBYE need no session (rev 1.1): a client can
            // connect, read the counters, and disconnect.
            ClientFrame::Stats => {
                self.send(conn, &ServerFrame::StatsReply(metrics.snapshot()));
                None
            }
            ClientFrame::Goodbye => {
                self.send(conn, &ServerFrame::GoodbyeAck);
                Some(Close::Clean)
            }
            _ if !has_session => {
                self.conn_error(
                    conn,
                    code::HELLO_REQUIRED,
                    "first frame must be HELLO".to_owned(),
                );
                Some(Close::Clean)
            }
            ClientFrame::Batch { .. } => {
                // Batches with a session are checked out as pool jobs in
                // `dispatch`; they never reach this inline path.
                debug_assert!(false, "BATCH dispatches to the worker pool");
                None
            }
            ClientFrame::Snapshot => {
                let reply = conn
                    .active
                    .as_ref()
                    .expect("session checked above")
                    .session
                    .snapshot();
                self.send(conn, &reply);
                None
            }
            ClientFrame::Reset => {
                conn.active
                    .as_mut()
                    .expect("session checked above")
                    .session
                    .reset();
                metrics.sessions_reset.inc();
                self.send(conn, &ServerFrame::ResetAck);
                None
            }
            ClientFrame::Park => {
                let Active { id, session } = conn.active.take().expect("session checked above");
                let token = session.token();
                match self.park_insert(conn.token, id, session) {
                    Ok(outcome) => {
                        self.shared.account_park(&outcome);
                        // The ack is the durability receipt: with a disk
                        // tier it waits until a sync covers the checkpoint.
                        if outcome.wrote {
                            self.hold(conn, Held::Park { id, token });
                            return None;
                        }
                        self.parked(conn, id, token);
                        Some(Close::Clean)
                    }
                    Err(ParkRefusal::Full(session)) => {
                        // Transient: hand the session back and mirror BUSY.
                        metrics.park_store_full.inc();
                        conn.active = Some(Active {
                            id,
                            session: *session,
                        });
                        self.store_full(conn);
                        None
                    }
                    Err(ParkRefusal::Disabled(session)) => {
                        // Permanent for this server config; typed ERROR.
                        conn.active = Some(Active {
                            id,
                            session: *session,
                        });
                        self.conn_error(
                            conn,
                            code::STORE_FULL,
                            "parking disabled on this server; session still attached".to_owned(),
                        );
                        None
                    }
                }
            }
        }
    }

    /// Stops accepting and condemns every idle connection; busy ones
    /// drain their in-flight run first.
    fn enter_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.del(listener.as_raw_fd());
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.remove(&id) {
                self.pump_and_dispose(id, conn);
            }
        }
    }

    /// The shard-local timer: park sweeps, the parse-buffer gauge, and
    /// per-connection stall/idle/write-deadline checks.
    fn tick(&mut self, dt: Duration) {
        // SIGUSR1 asks for an on-demand flight-recorder dump; the swap
        // in `take_usr1` means exactly one shard services each signal.
        if crate::shutdown::take_usr1() {
            if !trace::is_initialized() {
                cira_obs::warn!(
                    "SIGUSR1 trace dump skipped (tracing never initialized; start with --trace)"
                );
            } else {
                match trace::dump_to_dir("sigusr1") {
                    Some(path) => {
                        cira_obs::info!("trace dumped on SIGUSR1", path = path.display());
                    }
                    None => cira_obs::warn!(
                        "SIGUSR1 trace dump skipped (CIRA_TRACE_DIR unset or unwritable)"
                    ),
                }
            }
        }
        self.shared.maybe_sweep();
        let dt_ms = dt.as_millis().min(u64::MAX as u128) as u64;
        let now = Instant::now();
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        let mut parse_bytes = 0i64;
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            parse_bytes += conn.rbuf.buffered() as i64;
            // Slow-loris guard: a peer silent mid-frame burns its stall
            // budget; progress is any newly ingested byte.
            if conn.closing.is_none() && conn.rbuf.mid_frame() {
                if conn.ingested == conn.last_seen_ingested {
                    conn.stall_ms = conn.stall_ms.saturating_add(dt_ms);
                    if conn.stall_ms > STALL_MS {
                        self.shared.metrics.protocol_error(0);
                        conn.closing = Some(Close::Abrupt);
                    }
                }
                conn.last_seen_ingested = conn.ingested;
            } else if !conn.rbuf.mid_frame() {
                conn.stall_ms = 0;
                conn.last_seen_ingested = conn.ingested;
            }
            // Idle eviction: sessions park (resumable) rather than dying
            // outright; session-less idlers (stats pollers that wandered
            // off) just close.
            if !idle_timeout.is_zero()
                && conn.closing.is_none()
                && !conn.busy
                && conn.parsed.is_empty()
                && !conn.rbuf.mid_frame()
                && now.duration_since(conn.last_frame) > idle_timeout
            {
                if conn.active.is_some() {
                    self.shared.metrics.sessions_idle_evicted.inc();
                    self.conn_error(
                        &mut conn,
                        code::IDLE_TIMEOUT,
                        format!(
                            "no frame for {} ms; session parked",
                            self.cfg.idle_timeout_ms
                        ),
                    );
                    conn.closing = Some(Close::Abrupt);
                } else {
                    conn.closing = Some(Close::Clean);
                }
            }
            // Write deadline: the oldest queued frame must be consumed
            // before its per-frame deadline (the rev-1.4 semantics of
            // `write_timeout_ms`).
            if let Some(item) = conn.wq.front() {
                if item.deadline.is_some_and(|d| now >= d) {
                    cira_obs::debug!("write deadline missed; dropping connection");
                    trace::instant(
                        Stage::Fault,
                        conn_trace_id(self.index, conn.token),
                        conn.active.as_ref().map_or(0, |a| a.session.token()),
                        self.index as u16,
                        0,
                    );
                    if let Some(path) = trace::flight_dump("write-deadline") {
                        cira_obs::info!("flight recorder dumped", path = path.display());
                    }
                    conn.io_dead = true;
                    conn.wq.clear();
                    if conn.closing.is_none() {
                        conn.closing = Some(Close::Abrupt);
                    }
                }
            }
            self.pump_and_dispose(id, conn);
        }
        self.smetrics.parse_buffer_bytes.set(parse_bytes);
    }
}

/// A running server: its address, metrics, and shutdown control.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    /// The HTTP `/metrics` listener, when configured; shuts down when the
    /// handle drops.
    metrics_http: Option<MetricsServer>,
    shutdown: ShutdownToken,
    shared: Arc<Shared>,
    shard_shared: Vec<Arc<ShardShared>>,
    shards: Option<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (real ephemeral port included).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The registry behind `GET /metrics` (server
    /// counters, per-shard gauges, session histograms, the worker pool).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The bound address of the HTTP `/metrics` listener, if one was
    /// configured via [`ServerConfig::metrics_addr`].
    pub fn metrics_http_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsServer::addr)
    }

    /// The token that stops this server; share it with a signal handler.
    pub fn shutdown_token(&self) -> ShutdownToken {
        self.shutdown.clone()
    }

    /// Triggers shutdown (idempotent) and blocks until every shard —
    /// including every queued batch — has finished.
    pub fn shutdown_and_join(mut self) {
        self.join_inner();
    }

    /// Blocks until the shutdown token triggers (e.g. by a signal
    /// handler), then joins as [`Self::shutdown_and_join`].
    pub fn wait(self) {
        while !self.shutdown.wait_timeout(Duration::from_secs(3600)) {}
        self.shutdown_and_join();
    }

    fn join_inner(&mut self) {
        self.shutdown.trigger();
        let Some(threads) = self.shards.take() else {
            return;
        };
        for s in &self.shard_shared {
            s.wake.wake();
        }
        for t in threads {
            let _ = t.join();
        }
        // No reply waits on a sync any more; finish the syncs the timer
        // paths asked for, then stop the durability thread.
        if let Some(d) = &self.shared.durability {
            d.stop();
        }
        // All shards have exited; drain the park exactly once. With a
        // disk tier one sync covers every park, so every parked session
        // survives the restart; without one they are destroyed (gauge
        // stays honest either way — the process is exiting).
        let dropped = self.shared.park.shutdown_drain();
        self.metrics.sessions_live.add(-(dropped as i64));
        // Sockets still in flight to a shard (shutdown races a late
        // accept) just close.
        for s in &self.shard_shared {
            s.inbox.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves until the
/// returned handle's shutdown token triggers. Batch work runs on `pool`;
/// connection I/O runs on [`ServerConfig::shards`] event-loop threads.
///
/// # Errors
///
/// Returns bind/epoll setup errors; everything after startup is reported
/// per-connection, never fatally.
pub fn serve(addr: &str, cfg: ServerConfig, pool: &'static WorkerPool) -> io::Result<ServerHandle> {
    serve_with_sync_hook(addr, cfg, pool, None)
}

/// Runs on the durability thread after each sync of the park's page
/// file, before the replies it covers are released, and returns the
/// result those replies get.
type SyncHook = Box<dyn FnMut(io::Result<()>) -> io::Result<()> + Send>;

/// [`serve`], with a hook that sees every completed park sync (tests
/// copy the page file there to get crash images, or fail the sync).
fn serve_with_sync_hook(
    addr: &str,
    cfg: ServerConfig,
    pool: &'static WorkerPool,
    mut after_sync: Option<SyncHook>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let nshards = if cfg.shards == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.shards
    };
    let metrics = Arc::new(ServerMetrics::new());
    let shutdown = ShutdownToken::new();
    // Flight recorder: enable-only, so a co-resident server with tracing
    // off never switches off a recorder someone else turned on. The
    // SIGUSR1 dump latch is part of the same opt-in — an untraced server
    // must not displace a handler its embedding application installed.
    if cfg.trace {
        trace::init(cfg.trace_capacity);
        trace::set_enabled(true);
        crate::shutdown::install_usr1_handler();
    }

    // One registry covers the whole process view: server counters,
    // per-shard gauges, session histograms, and the shared worker pool.
    let registry = Arc::new(Registry::new("cira"));
    metrics.register(&registry);
    pool.register_metrics(&registry);
    let shard_metrics: Vec<Arc<ShardMetrics>> = (0..nshards).map(|_| Arc::default()).collect();
    register_shards(&shard_metrics, &registry);
    let token_seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ ((local.port() as u64) << 48)
        ^ (std::process::id() as u64).rotate_left(32);
    let park_ttl = Duration::from_millis(cfg.park_ttl_ms);
    let recovery_start = Instant::now();
    let (park, recovered) = match &cfg.park_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("park.cirstore");
            SessionPark::with_disk(cfg.park_capacity, park_ttl, &path, cfg.park_disk_capacity)
                .map_err(|e| io::Error::other(format!("park store {}: {e}", path.display())))?
        }
        None => (SessionPark::new(cfg.park_capacity, park_ttl), 0),
    };
    if cfg.park_dir.is_some() {
        let ms = recovery_start.elapsed().as_millis().min(i64::MAX as u128) as i64;
        metrics.store_recovery_ms.set(ms);
    }
    if recovered > 0 {
        // Survivors of the previous process (clean restart or crash)
        // are immediately resumable and count as live sessions.
        metrics.sessions_live.add(recovered as i64);
        cira_obs::info!("parked sessions recovered from disk", sessions = recovered);
    }
    let durability = match park.sync_handle()? {
        Some(handle) => {
            let metrics = Arc::clone(&metrics);
            Some(Durability::spawn(move || {
                let t0 = Instant::now();
                let result = handle.sync();
                metrics
                    .park_sync_us
                    .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match after_sync.as_mut() {
                    Some(hook) => hook(result),
                    None => result,
                }
            })?)
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        metrics: Arc::clone(&metrics),
        session_ids: AtomicU64::new(1),
        token_seed,
        token_ids: AtomicU64::new(1),
        park,
        // Sweep at a quarter of the TTL, clamped to a sane band: often
        // enough to keep expiry timely, rarely enough to stay cheap.
        sweep_every: Duration::from_millis((cfg.park_ttl_ms / 4).clamp(10, 1000)),
        next_sweep: Mutex::new(Instant::now()),
        durability,
    });
    shared.publish_store_gauges();
    let metrics_http = match &cfg.metrics_addr {
        Some(http_addr) => {
            let server = cira_obs::http::serve_metrics(http_addr, Arc::clone(&registry))?;
            cira_obs::info!("metrics endpoint listening", addr = server.addr());
            Some(server)
        }
        None => None,
    };
    cira_obs::info!(
        "server listening",
        addr = local,
        shards = nshards,
        workers = pool.workers()
    );

    let shard_shared: Vec<Arc<ShardShared>> = (0..nshards)
        .map(|_| {
            Ok(Arc::new(ShardShared {
                inbox: Mutex::new(VecDeque::new()),
                wake: WakeFd::new()?,
            }))
        })
        .collect::<io::Result<_>>()?;
    // Build every shard before spawning any thread so setup errors
    // (epoll, eventfd) surface as a clean Err from serve().
    let mut built = Vec::with_capacity(nshards);
    let mut listener_slot = Some(listener);
    for index in 0..nshards {
        let epoll = Epoll::new()?;
        epoll.add(shard_shared[index].wake.fd(), EPOLLIN, WAKE_TOKEN)?;
        let listener = if index == 0 {
            let l = listener_slot.take().expect("listener assigned once");
            epoll.add(l.as_raw_fd(), EPOLLIN, LISTEN_TOKEN)?;
            Some(l)
        } else {
            None
        };
        built.push(Shard {
            index,
            cfg: cfg.clone(),
            pool,
            shared: Arc::clone(&shared),
            me: Arc::clone(&shard_shared[index]),
            peers: shard_shared.clone(),
            epoll,
            listener,
            conns: HashMap::new(),
            next_conn: FIRST_CONN_TOKEN,
            rr: 0,
            smetrics: Arc::clone(&shard_metrics[index]),
            shutdown: shutdown.clone(),
            draining: false,
        });
    }
    let mut threads = Vec::with_capacity(nshards);
    for shard in built {
        let name = format!("cira-serve-shard{}", shard.index);
        match std::thread::Builder::new()
            .name(name)
            .spawn(move || shard.run())
        {
            Ok(t) => threads.push(t),
            Err(e) => {
                // Unwind the shards already running.
                shutdown.trigger();
                for s in &shard_shared {
                    s.wake.wake();
                }
                for t in threads {
                    let _ = t.join();
                }
                return Err(e);
            }
        }
    }

    Ok(ServerHandle {
        addr: local,
        metrics,
        registry,
        metrics_http,
        shutdown,
        shared,
        shard_shared,
        shards: Some(threads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    use cira_store::page::PAGE_SIZE;
    use cira_store::SessionStore;

    use crate::proto::HelloConfig;
    use crate::Client;

    /// A session spec whose checkpoint spans a few pages.
    fn small_config() -> HelloConfig {
        HelloConfig {
            predictor: "gshare:10:10".to_owned(),
            mechanism: "resetting:10".to_owned(),
            index: "pcxorbhr:10".to_owned(),
            init: "ones".to_owned(),
            threshold: 8,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cira-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failed_syncs_get_the_replies_failed_writes_got() {
        use std::sync::atomic::AtomicBool;
        let dir = temp_dir("failed-sync");
        let fail = Arc::new(AtomicBool::new(false));
        let hook: SyncHook = {
            let fail = Arc::clone(&fail);
            Box::new(move |result| {
                if fail.load(Ordering::Relaxed) {
                    return Err(io::Error::other("injected sync failure"));
                }
                result
            })
        };
        let cfg = ServerConfig {
            shards: 1,
            park_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let handle =
            serve_with_sync_hook("127.0.0.1:0", cfg, WorkerPool::global(), Some(hook)).unwrap();
        let addr = handle.local_addr().to_string();
        let bench = &cira_trace::suite::ibs_like_suite()[0];
        let first: PackedTrace = bench.walker().take(512).collect();
        let rest: PackedTrace = bench.walker().skip(512).take(512).collect();

        let mut client = Client::connect(&addr, small_config()).unwrap();
        client.send_batch(&first).unwrap();
        // A PARK whose sync fails is refused like a full disk tier, with
        // the session attached again and still usable.
        fail.store(true, Ordering::Relaxed);
        assert!(matches!(
            client.park(),
            Err(crate::client::ClientError::StoreFull { .. })
        ));
        assert_eq!(handle.metrics().park_store_full.get(), 1);
        fail.store(false, Ordering::Relaxed);
        client.send_batch(&rest).unwrap();
        let stats = client.snapshot_stats().unwrap();
        let token = client.park().unwrap();
        // A RESUME whose removal fails to sync is still answered.
        fail.store(true, Ordering::Relaxed);
        let mut resumed = Client::builder(&addr).resume(token).unwrap();
        fail.store(false, Ordering::Relaxed);
        assert_eq!(resumed.snapshot_stats().unwrap(), stats, "nothing lost");
        resumed.goodbye().unwrap();
        handle.shutdown_and_join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_resume_that_finds_its_session_expired_releases_it() {
        let dir = temp_dir("expired-resume");
        let cfg = ServerConfig {
            shards: 1,
            park_dir: Some(dir.clone()),
            park_ttl_ms: 150,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).unwrap();
        let addr = handle.local_addr().to_string();
        let trace: PackedTrace = cira_trace::suite::ibs_like_suite()[0]
            .walker()
            .take(512)
            .collect();
        for _ in 0..10 {
            let mut client = Client::connect(&addr, small_config()).unwrap();
            client.send_batch(&trace).unwrap();
            let token = client.park().unwrap();
            // Past the TTL, but a sweep runs only every 100 ms tick: most
            // RESUMEs find the expired session before a sweep does.
            std::thread::sleep(Duration::from_millis(160));
            match Client::builder(&addr).resume(token) {
                Err(crate::client::ClientError::Server { code: c, .. }) => {
                    assert_eq!(c, code::UNKNOWN_SESSION);
                }
                other => panic!("expected UNKNOWN_SESSION, got {other:?}"),
            }
        }
        // Each session left the park once, by a sweep or by its RESUME.
        let metrics = handle.metrics();
        assert_eq!(metrics.sessions_live.get(), 0, "no session is live");
        assert_eq!(metrics.park_evicted_ttl.get(), 10, "every session expired");
        handle.shutdown_and_join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_images_hold_every_acked_park_and_no_resumed_token() {
        for shards in [1, 2, 4] {
            crash_image_body(shards);
        }
    }

    /// The tokens in the crash image at `image`, read through a private
    /// copy at `scratch` (the hook may replace the image meanwhile).
    fn image_tokens(image: &std::path::Path, scratch: &std::path::Path) -> HashSet<u64> {
        let Ok(bytes) = std::fs::read(image) else {
            return HashSet::new(); // no sync has completed yet
        };
        std::fs::write(scratch, bytes).unwrap();
        let store = SessionStore::open(scratch, 0).unwrap();
        store.entries().into_iter().map(|(t, _)| t).collect()
    }

    /// Client threads run concurrent PARK/RESUME lifecycles while a sync
    /// hook copies the page file after every completed sync. Each copy
    /// is what a power loss right after that sync could leave on disk.
    /// So when a `PARKED_ACK` arrives the latest copy must hold its
    /// token, when a `RESUMED` arrives it must not, and the last copy
    /// must hold exactly the acked parks that were not resumed.
    fn crash_image_body(shards: usize) {
        const THREADS: usize = 4;
        const PARKS: usize = 6;
        let dir = temp_dir(&format!("crash-s{shards}"));
        let file = dir.join("park.cirstore");
        let image = dir.join("image.cirstore");
        let images = Arc::new(AtomicUsize::new(0));
        let hook: SyncHook = {
            let (file, image, images) = (file.clone(), image.clone(), Arc::clone(&images));
            Box::new(move |result| {
                // Whole pages only: the file may grow while it is read.
                let mut bytes = std::fs::read(&file).unwrap();
                bytes.truncate(bytes.len() / PAGE_SIZE * PAGE_SIZE);
                let tmp = image.with_extension("tmp");
                std::fs::write(&tmp, &bytes).unwrap();
                std::fs::rename(&tmp, &image).unwrap();
                images.fetch_add(1, Ordering::Relaxed);
                result
            })
        };
        let cfg = ServerConfig {
            shards,
            park_dir: Some(dir.clone()),
            park_capacity: 2,
            park_ttl_ms: 3_600_000,
            ..ServerConfig::default()
        };
        let handle =
            serve_with_sync_hook("127.0.0.1:0", cfg, WorkerPool::global(), Some(hook)).unwrap();
        let addr = handle.local_addr().to_string();
        let trace: PackedTrace = cira_trace::suite::ibs_like_suite()[0]
            .walker()
            .take(512)
            .collect();

        let (mut parked, mut resumed) = (HashSet::new(), HashSet::new());
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (addr, trace, image) = (&addr, &trace, &image);
                    let scratch = dir.join(format!("check-{thread}.cirstore"));
                    s.spawn(move || {
                        let mut tokens = Vec::new();
                        for _ in 0..PARKS {
                            let mut client = Client::connect(addr, small_config()).unwrap();
                            client.send_batch(trace).unwrap();
                            let token = client.park().unwrap();
                            assert!(
                                image_tokens(image, &scratch).contains(&token),
                                "PARKED_ACK before a sync covered the checkpoint"
                            );
                            tokens.push(token);
                        }
                        // Resume every other token, then leave.
                        let mut taken = Vec::new();
                        for &token in tokens.iter().step_by(2) {
                            let client = Client::builder(addr).resume(token).unwrap();
                            assert!(
                                !image_tokens(image, &scratch).contains(&token),
                                "RESUMED before a sync covered the removal"
                            );
                            client.goodbye().unwrap();
                            taken.push(token);
                        }
                        (tokens, taken)
                    })
                })
                .collect();
            for run in runs {
                let (tokens, taken) = run.join().unwrap();
                parked.extend(tokens);
                resumed.extend(taken);
            }
        });
        assert!(images.load(Ordering::Relaxed) > 0, "the hook never ran");
        let on_disk = image_tokens(&image, &dir.join("check-last.cirstore"));
        let expected: HashSet<u64> = parked.difference(&resumed).copied().collect();
        assert_eq!(expected.len(), THREADS * PARKS / 2);
        assert_eq!(
            on_disk, expected,
            "{shards} shards: the crash image must hold exactly the acked, unresumed parks"
        );
        handle.shutdown_and_join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Polls `done` every 5 ms until it holds, failing after 10 s.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_teardown_park_survives_a_crash_image() {
        for shards in [1, 2] {
            teardown_crash_image_body(shards);
        }
    }

    /// A connection streams records and vanishes without `GOODBYE`. Its
    /// session parks with no `PARK` frame, and a copy of the page file
    /// taken after the next completed sync is a crash image that a fresh
    /// server opens and resumes the session from, with the statistics of
    /// a local reference session fed the same records.
    fn teardown_crash_image_body(shards: usize) {
        let dir = temp_dir(&format!("teardown-s{shards}"));
        let file = dir.join("park.cirstore");
        let image_dir = dir.join("image");
        std::fs::create_dir_all(&image_dir).unwrap();
        let image = image_dir.join("park.cirstore");
        let syncs = Arc::new(AtomicUsize::new(0));
        let hook: SyncHook = {
            let (file, image, syncs) = (file.clone(), image.clone(), Arc::clone(&syncs));
            Box::new(move |result| {
                // Keep the first sync's copy; whole pages only.
                if syncs.load(Ordering::SeqCst) == 0 {
                    let mut bytes = std::fs::read(&file).unwrap();
                    bytes.truncate(bytes.len() / PAGE_SIZE * PAGE_SIZE);
                    std::fs::write(&image, &bytes).unwrap();
                }
                syncs.fetch_add(1, Ordering::SeqCst);
                result
            })
        };
        let cfg = ServerConfig {
            shards,
            park_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let handle =
            serve_with_sync_hook("127.0.0.1:0", cfg, WorkerPool::global(), Some(hook)).unwrap();
        let addr = handle.local_addr().to_string();
        let trace: PackedTrace = cira_trace::suite::ibs_like_suite()[0]
            .walker()
            .take(2_048)
            .collect();
        let mut reference = Session::from_hello(&small_config(), 0).unwrap();
        reference.apply_batch(0, &trace);

        let mut client = Client::connect(&addr, small_config()).unwrap();
        client.stream(&trace, 512).unwrap();
        assert_eq!(syncs.load(Ordering::SeqCst), 0, "a sync before the park");
        drop(client); // no GOODBYE
        wait_for("a sync after the disconnect", || {
            syncs.load(Ordering::SeqCst) > 0
        });
        assert_eq!(handle.metrics().sessions_parked.get(), 1);
        let tokens = image_tokens(&image, &dir.join("check.cirstore"));
        assert_eq!(tokens.len(), 1, "{shards} shards: the image holds the park");
        let token = *tokens.iter().next().unwrap();

        // The first server keeps running; the second sees only the image.
        let cfg = ServerConfig {
            shards,
            park_dir: Some(image_dir),
            ..ServerConfig::default()
        };
        let restarted = serve("127.0.0.1:0", cfg, WorkerPool::global()).unwrap();
        let mut resumed = Client::builder(&restarted.local_addr().to_string())
            .resume(token)
            .unwrap();
        assert_eq!(
            resumed.snapshot().unwrap(),
            reference.snapshot(),
            "{shards} shards: the resumed session matches the local reference"
        );
        assert_eq!(restarted.metrics().park_loaded.get(), 1, "resumed off disk");
        resumed.goodbye().unwrap();
        restarted.shutdown_and_join();
        handle.shutdown_and_join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_teardown_park_the_disk_tier_refuses_destroys_the_session() {
        let dir = temp_dir("teardown-full");
        let cfg = ServerConfig {
            shards: 1,
            park_dir: Some(dir.clone()),
            // Smaller than any checkpoint: every park is refused.
            park_disk_capacity: 1,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).unwrap();
        let addr = handle.local_addr().to_string();
        let trace: PackedTrace = cira_trace::suite::ibs_like_suite()[0]
            .walker()
            .take(512)
            .collect();
        let mut client = Client::connect(&addr, small_config()).unwrap();
        client.send_batch(&trace).unwrap();
        drop(client); // no GOODBYE
        let metrics = handle.metrics();
        // Counted as a park lost at capacity, and no longer live.
        wait_for("the refused park to be counted", || {
            metrics.park_store_full.get() == 1
                && metrics.park_evicted_capacity.get() == 1
                && metrics.sessions_live.get() == 0
        });
        assert_eq!(metrics.sessions_parked.get(), 0);
        assert_eq!(metrics.park_disk_records.get(), 0);
        handle.shutdown_and_join();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
