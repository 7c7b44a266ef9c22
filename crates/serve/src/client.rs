//! A blocking client for the `CIRS` protocol: connect, negotiate, stream
//! batches with a bounded pipeline, and pull statistics.
//!
//! The client is what `cira replay --connect` uses, and what the loopback
//! tests drive: [`Client::stream`] sends a whole trace in windowed batches
//! (up to the server-advertised in-flight limit before waiting for acks)
//! and [`Client::snapshot_stats`] returns the server's accumulated
//! [`BucketStats`] rebuilt bit-for-bit from the wire.
//!
//! Construction goes through [`ClientBuilder`] (address plus
//! connect/read/write timeouts and a [`RetryPolicy`]); the historical
//! [`Client::connect`]/[`Client::connect_raw`] entry points remain as
//! thin builder delegations with the old defaults.
//!
//! # Fault tolerance (rev 1.2)
//!
//! With a non-zero [`RetryPolicy`], the client survives dropped
//! connections without losing session state: every sent-but-unacked
//! batch is buffered, and on a transport fault the client backs off
//! (exponential delay with deterministic seeded jitter), reconnects,
//! `RESUME`s the parked session by token, reconciles its totals against
//! the server's cumulative ack, and retransmits exactly the batches the
//! server never applied. Because the server's [`BATCH_ACK` is
//! cumulative](crate::proto#minor-revisions) and its replay state is
//! deterministic, the final statistics are bit-identical to a faultless
//! run — the property `tests/chaos.rs` checks under a fault-injecting
//! proxy.

use std::fmt;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use cira_analysis::BucketStats;
use cira_trace::codec::PackedTrace;

use crate::frame::{read_frame, write_frame, FrameError, ReadOutcome, DEFAULT_MAX_FRAME};
use crate::proto::{
    code, decode_server, encode_client, ClientFrame, HelloConfig, ServerFrame, PROTO_VERSION,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode, or the stream ended mid-frame.
    Protocol(String),
    /// The server answered with an `ERROR` frame.
    Server {
        /// One of the [`crate::proto::code`] constants.
        code: u16,
        /// The server's message.
        message: String,
    },
    /// The server shed the connection at capacity (`BUSY`, rev 1.2).
    Busy {
        /// The server's suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
        /// The server's message.
        message: String,
    },
    /// The server's disk park tier is at capacity (`STORE_FULL`,
    /// rev 1.3). The session is still attached: keep streaming, or back
    /// off for the hint and ask to park again.
    StoreFull {
        /// The server's suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
        /// The server's message.
        message: String,
    },
    /// The server sent a well-formed frame we did not expect here.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Busy {
                retry_after_ms,
                message,
            } => write!(f, "server busy (retry after {retry_after_ms} ms): {message}"),
            ClientError::StoreFull {
                retry_after_ms,
                message,
            } => write!(
                f,
                "server park store full (retry after {retry_after_ms} ms): {message}"
            ),
            ClientError::Unexpected(m) => write!(f, "unexpected server frame: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// Whether reconnect-and-resume can plausibly cure this error.
    /// Transport faults are recoverable, and so is `IDLE_TIMEOUT`: the
    /// server parks the session when it idle-evicts a connection, so a
    /// `RESUME` picks up exactly where the session left off. Other typed
    /// server answers and protocol confusion are not — retrying verbatim
    /// would just repeat them.
    fn is_recoverable(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Protocol(_)
                | ClientError::Server {
                    code: code::IDLE_TIMEOUT,
                    ..
                }
        )
    }

    /// Transport-level faults only (connect retries use this: a typed
    /// server rejection during the handshake is never cured by redialing).
    fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Protocol(_))
    }
}

/// Reconnect-and-resume schedule: exponential backoff with
/// deterministic, seeded jitter, capped by attempts.
///
/// The default policy is [`RetryPolicy::none`] — faults surface
/// immediately, exactly as before rev 1.2. Opt in with
/// [`RetryPolicy::retries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts per fault before giving up (0 = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
    /// Seed for the jitter PRNG. Equal seeds give equal schedules, which
    /// keeps fault-injection tests reproducible.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Never retry: every fault surfaces immediately.
    pub fn none() -> Self {
        Self {
            max_attempts: 0,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            jitter_seed: 0x5eed_cafe,
        }
    }

    /// Retry up to `max_attempts` times with the default backoff
    /// (100 ms doubling to a 5 s cap).
    pub fn retries(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            ..Self::none()
        }
    }

    /// Replaces the backoff range.
    #[must_use]
    pub fn with_delays(mut self, base: Duration, max: Duration) -> Self {
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Replaces the jitter seed.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The delay before 1-based `attempt`: `base * 2^(attempt-1)` capped
    /// at `max_delay`, then scaled into `[1/2, 1)` by the jitter PRNG so
    /// synchronized clients don't reconnect in lockstep.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        // Deterministic xorshift64 jitter: scale by (512 + r)/1024.
        let jitter = 512 + (xorshift64(rng) % 512) as u32;
        raw.saturating_mul(jitter) / 1024
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// One xorshift64 step (never returns the all-zero state).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    if x == 0 {
        x = 0x9e37_79b9_7f4a_7c15;
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// `a <= b` under wrapping `u32` sequence arithmetic.
fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 0x8000_0000
}

/// Configures and opens [`Client`] connections: address, timeouts, and
/// the retry policy, in one place instead of scattered constants.
///
/// ```no_run
/// use std::time::Duration;
/// use cira_serve::client::{Client, RetryPolicy};
/// use cira_serve::proto::HelloConfig;
///
/// let client = Client::builder("127.0.0.1:9184")
///     .read_timeout(Duration::from_secs(30))
///     .retry(RetryPolicy::retries(5))
///     .connect(HelloConfig::default());
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    connect_timeout: Option<Duration>,
    read_timeout: Duration,
    write_timeout: Option<Duration>,
    retry: RetryPolicy,
}

impl ClientBuilder {
    /// A builder for connections to `addr` with the historical defaults:
    /// no connect/write timeout, a 120 s read timeout, and no retries.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_owned(),
            connect_timeout: None,
            read_timeout: Duration::from_secs(120),
            write_timeout: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Caps the TCP connect itself (per attempt).
    #[must_use]
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = Some(t);
        self
    }

    /// Replaces the 120 s default read timeout.
    #[must_use]
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Sets a socket write timeout (none by default).
    #[must_use]
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = Some(t);
        self
    }

    /// Replaces the no-retry default policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Dials one TCP connection with the configured timeouts.
    fn dial(&self) -> io::Result<TcpStream> {
        let stream = match self.connect_timeout {
            Some(t) => {
                let mut last = None;
                let mut stream = None;
                for a in self.addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, t) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
            None => TcpStream::connect(&self.addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        if let Some(t) = self.write_timeout {
            stream.set_write_timeout(Some(t))?;
        }
        Ok(stream)
    }

    /// Connects and negotiates `config`, retrying connect failures and
    /// `BUSY` sheds under the configured [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with the server's code/message when the
    /// hello is rejected (bad spec, version mismatch); the last
    /// connect/shed error once retries are exhausted.
    pub fn connect(self, config: HelloConfig) -> Result<Client, ClientError> {
        self.connect_inner(Some(config))
    }

    /// Connects **without** negotiating a session (no `HELLO`).
    ///
    /// A raw connection can only use the sessionless rev 1.1 frames:
    /// [`Client::stats`], [`Client::metrics_text`], and
    /// [`Client::goodbye`]. This is what `cira stats` uses to inspect a
    /// live server without disturbing its sessions.
    ///
    /// # Errors
    ///
    /// Connection failures (after retries, if configured).
    pub fn connect_raw(self) -> Result<Client, ClientError> {
        self.connect_inner(None)
    }

    /// Re-attaches to a parked session by resume token (rev 1.3): the
    /// crash-recovery entry point. A *fresh process* — possibly talking
    /// to a freshly restarted server that recovered the park from its
    /// disk tier — adopts the session and continues streaming where the
    /// last cumulative ack left off (`next_seq` continues after the
    /// server's last acked sequence number).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`code::UNKNOWN_SESSION`] when the
    /// token names nothing (expired, evicted, or already resumed);
    /// connect failures and `BUSY` sheds after retries.
    pub fn resume(self, token: u64) -> Result<Client, ClientError> {
        let mut rng = self.retry.jitter_seed;
        let mut attempt = 0u32;
        loop {
            match self.try_resume_fresh(token) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    attempt += 1;
                    let retryable = e.is_transport() || matches!(e, ClientError::Busy { .. });
                    if !retryable || attempt > self.retry.max_attempts {
                        return Err(e);
                    }
                    let mut delay = self.retry.backoff(attempt, &mut rng);
                    if let ClientError::Busy { retry_after_ms, .. } = &e {
                        delay = delay.max(Duration::from_millis(u64::from(*retry_after_ms)));
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// One dial + `RESUME` attempt from a token alone (no prior client
    /// state to reconcile — the server's totals are adopted wholesale).
    fn try_resume_fresh(&self, token: u64) -> Result<Client, ClientError> {
        let stream = self.dial()?;
        let mut client = Client {
            stream,
            builder: self.clone(),
            session: 0,
            token: Some(token),
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 1,
            predictor: String::new(),
            mechanism: String::new(),
            next_seq: 0,
            unacked: Vec::new(),
            totals: StreamTotals::default(),
            retries: 0,
            resumes: 0,
            rng: self.retry.jitter_seed ^ 0xc0ff_ee00,
        };
        client.send(&ClientFrame::Resume {
            version: PROTO_VERSION,
            token,
        })?;
        match client.recv()? {
            ServerFrame::ResumeAck {
                session,
                last_seq,
                batches,
                records,
                mispredicts,
                low_confidence,
                max_frame,
                max_inflight,
            } => {
                client.session = session;
                client.max_frame = max_frame;
                client.max_inflight = max_inflight.max(1);
                client.totals = StreamTotals {
                    batches,
                    records,
                    mispredicts,
                    low_confidence,
                };
                client.next_seq = last_seq.map_or(0, |s| s.wrapping_add(1));
                client.resumes = 1;
                Ok(client)
            }
            ServerFrame::Busy {
                retry_after_ms,
                message,
            } => Err(ClientError::Busy {
                retry_after_ms,
                message,
            }),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn connect_inner(self, config: Option<HelloConfig>) -> Result<Client, ClientError> {
        let mut rng = self.retry.jitter_seed;
        let mut attempt = 0u32;
        loop {
            match self.try_connect_once(config.as_ref()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    attempt += 1;
                    let retryable = e.is_transport() || matches!(e, ClientError::Busy { .. });
                    if !retryable || attempt > self.retry.max_attempts {
                        return Err(e);
                    }
                    let mut delay = self.retry.backoff(attempt, &mut rng);
                    if let ClientError::Busy { retry_after_ms, .. } = &e {
                        delay = delay.max(Duration::from_millis(u64::from(*retry_after_ms)));
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }

    fn try_connect_once(&self, config: Option<&HelloConfig>) -> Result<Client, ClientError> {
        let stream = self.dial()?;
        let mut client = Client {
            stream,
            builder: self.clone(),
            session: 0,
            token: None,
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 1,
            predictor: String::new(),
            mechanism: String::new(),
            next_seq: 0,
            unacked: Vec::new(),
            totals: StreamTotals::default(),
            retries: 0,
            resumes: 0,
            rng: self.retry.jitter_seed ^ 0xc0ff_ee00,
        };
        let Some(config) = config else {
            return Ok(client); // raw: no session
        };
        client.send(&ClientFrame::Hello {
            version: PROTO_VERSION,
            config: config.clone(),
        })?;
        match client.recv()? {
            ServerFrame::HelloAck {
                session,
                max_frame,
                max_inflight,
                predictor,
                mechanism,
                token,
                ..
            } => {
                client.session = session;
                client.token = Some(token);
                client.max_frame = max_frame;
                client.max_inflight = max_inflight.max(1);
                client.predictor = predictor;
                client.mechanism = mechanism;
                Ok(client)
            }
            ServerFrame::Busy {
                retry_after_ms,
                message,
            } => Err(ClientError::Busy {
                retry_after_ms,
                message,
            }),
            // A HELLO rejection names the specs this client offered:
            // "bad spec" from a server that predates part of the grammar
            // (say, `tage:…` or `self:…`) is otherwise undiagnosable from
            // the bare typed ERROR.
            ServerFrame::Error { code, message } => Err(ClientError::Server {
                code,
                message: if code == code::BAD_SPEC || code == code::UNSUPPORTED_VERSION {
                    format!(
                        "{message} (offered predictor={} mechanism={} index={} init={})",
                        config.predictor, config.mechanism, config.index, config.init
                    )
                } else {
                    message
                },
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// Cumulative results of streaming batches through a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Batches acknowledged.
    pub batches: u64,
    /// Records acknowledged.
    pub records: u64,
    /// Mispredicted records.
    pub mispredicts: u64,
    /// Low-confidence records.
    pub low_confidence: u64,
}

impl StreamTotals {
    /// `self - earlier`, fieldwise (used to carve one `stream()` call's
    /// contribution out of the session-lifetime totals).
    fn since(self, earlier: StreamTotals) -> StreamTotals {
        StreamTotals {
            batches: self.batches - earlier.batches,
            records: self.records - earlier.records,
            mispredicts: self.mispredicts - earlier.mispredicts,
            low_confidence: self.low_confidence - earlier.low_confidence,
        }
    }
}

/// A negotiated connection to a `cira-serve` server.
///
/// With a [`RetryPolicy`] configured, the client transparently
/// reconnects and `RESUME`s its session after transport faults; see the
/// [module docs](self) for the recovery protocol.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Everything needed to re-dial and re-attach after a fault.
    builder: ClientBuilder,
    session: u64,
    /// Resume token from `HELLO_ACK`; `None` on raw connections.
    token: Option<u64>,
    max_frame: u32,
    max_inflight: u32,
    predictor: String,
    mechanism: String,
    next_seq: u32,
    /// Sent-but-unacked batches, oldest first, for retransmission after
    /// a resume. Never longer than `max_inflight`.
    unacked: Vec<(u32, PackedTrace)>,
    /// Session-lifetime acked totals (reconciled from `RESUME_ACK` after
    /// a fault, so lost acks are still counted exactly once).
    totals: StreamTotals,
    /// Reconnect attempts made over this client's lifetime.
    retries: u64,
    /// Successful session resumptions.
    resumes: u64,
    /// Jitter PRNG state.
    rng: u64,
}

impl Client {
    /// A [`ClientBuilder`] for `addr` with the historical defaults.
    pub fn builder(addr: &str) -> ClientBuilder {
        ClientBuilder::new(addr)
    }

    /// Connects to `addr` and negotiates `config` with default settings
    /// (120 s read timeout, no retries) — see [`Client::builder`] for
    /// control over timeouts and fault tolerance.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with the server's code/message when the
    /// hello is rejected (bad spec, version mismatch); connection or
    /// protocol errors otherwise.
    pub fn connect(addr: &str, config: HelloConfig) -> Result<Client, ClientError> {
        ClientBuilder::new(addr).connect(config)
    }

    /// Connects to `addr` **without** negotiating a session (no `HELLO`),
    /// with default settings — see [`ClientBuilder::connect_raw`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_raw(addr: &str) -> Result<Client, ClientError> {
        ClientBuilder::new(addr).connect_raw()
    }

    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The server's parsed predictor description.
    pub fn predictor(&self) -> &str {
        &self.predictor
    }

    /// The server's parsed mechanism description.
    pub fn mechanism(&self) -> &str {
        &self.mechanism
    }

    /// Reconnect attempts made over this client's lifetime (rev 1.2).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful session resumptions over this client's lifetime
    /// (rev 1.2).
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    fn send(&mut self, frame: &ClientFrame) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &encode_client(frame))?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerFrame, ClientError> {
        // Tolerate server-side pauses: a blocking client treats read
        // timeouts as "keep waiting" up to the framing stall budget.
        match read_frame(&mut self.stream, u32::MAX, 4)? {
            ReadOutcome::Frame(body) => {
                decode_server(&body).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            ReadOutcome::Eof => Err(ClientError::Protocol(
                "server closed the connection".to_owned(),
            )),
            ReadOutcome::Idle => Err(ClientError::Protocol(
                "timed out waiting for the server".to_owned(),
            )),
        }
    }

    /// Drops retransmit buffer entries up to and including `seq` — acks
    /// are cumulative, so one ack can retire several buffered batches
    /// whose individual acks were lost to a fault.
    fn drop_acked(&mut self, seq: u32) {
        self.unacked.retain(|(s, _)| !seq_le(*s, seq));
    }

    /// Receives frames until one batch ack arrives, folding it into the
    /// session totals. Recovers (resume + retransmit) on transport
    /// faults; `RESUME_ACK` reconciliation may retire buffered batches
    /// without any ack arriving, which also counts as progress.
    fn pump_one_ack(&mut self) -> Result<(), ClientError> {
        let before = self.unacked.len();
        loop {
            match self.recv() {
                Ok(ServerFrame::BatchAck {
                    seq,
                    records,
                    mispredicts,
                    low_confidence,
                    ..
                }) => {
                    self.drop_acked(seq);
                    self.totals.batches += 1;
                    self.totals.records += records;
                    self.totals.mispredicts += mispredicts;
                    self.totals.low_confidence += low_confidence;
                    return Ok(());
                }
                Ok(ServerFrame::Error { code, message }) => {
                    return Err(ClientError::Server { code, message })
                }
                Ok(other) => return Err(ClientError::Unexpected(format!("{other:?}"))),
                Err(e) => {
                    self.recover(e)?;
                    if self.unacked.len() < before {
                        return Ok(()); // reconciliation retired batches
                    }
                }
            }
        }
    }

    /// Blocks until at most `limit` batches are unacked.
    fn pump_acks_until(&mut self, limit: usize) -> Result<(), ClientError> {
        while self.unacked.len() > limit {
            self.pump_one_ack()?;
        }
        Ok(())
    }

    /// Reconnects and re-attaches after a transport fault: backoff,
    /// dial, `RESUME` by token, reconcile totals against the server's
    /// cumulative state, retransmit everything unacked. Returns the
    /// original error when retries are disabled or exhausted, or the
    /// session is unrecoverable (`UNKNOWN_SESSION`).
    fn recover(&mut self, cause: ClientError) -> Result<(), ClientError> {
        if !cause.is_recoverable() || self.builder.retry.max_attempts == 0 {
            return Err(cause);
        }
        // Sever the old connection so the server notices and parks the
        // session — it may still look alive server-side (e.g. after a
        // client-observed stall).
        let _ = self.stream.shutdown(Shutdown::Both);
        let policy = self.builder.retry.clone();
        let mut last = cause;
        for attempt in 1..=policy.max_attempts {
            let mut delay = policy.backoff(attempt, &mut self.rng);
            if let ClientError::Busy { retry_after_ms, .. } = &last {
                delay = delay.max(Duration::from_millis(u64::from(*retry_after_ms)));
            }
            std::thread::sleep(delay);
            self.retries += 1;
            match self.try_resume_once() {
                Ok(()) => {
                    self.resumes += 1;
                    return Ok(());
                }
                // UNKNOWN_SESSION is retried within the budget: the
                // session may simply not be parked *yet* (the server
                // parks when it notices the old connection die). If the
                // state is truly gone, the remaining attempts fail the
                // same way and the error surfaces below.
                Err(e @ ClientError::Server { code: c, .. }) if c == code::UNKNOWN_SESSION => {
                    last = e;
                }
                Err(e @ (ClientError::Server { .. } | ClientError::Unexpected(_))) => {
                    // Other typed rejections are permanent.
                    return Err(e);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// One reconnect + `RESUME` + retransmit attempt.
    fn try_resume_once(&mut self) -> Result<(), ClientError> {
        let Some(token) = self.token else {
            // Raw (sessionless) connections just need a fresh socket.
            self.stream = self.builder.dial()?;
            return Ok(());
        };
        self.stream = self.builder.dial()?;
        self.send(&ClientFrame::Resume {
            version: PROTO_VERSION,
            token,
        })?;
        match self.recv()? {
            ServerFrame::ResumeAck {
                session,
                last_seq,
                batches,
                records,
                mispredicts,
                low_confidence,
                max_frame,
                max_inflight,
            } => {
                self.session = session;
                self.max_frame = max_frame;
                self.max_inflight = max_inflight.max(1);
                // The server's cumulative totals are the truth: acks
                // lost to the fault are already included, retransmits
                // about to happen are not.
                self.totals = StreamTotals {
                    batches,
                    records,
                    mispredicts,
                    low_confidence,
                };
                if let Some(acked) = last_seq {
                    self.drop_acked(acked);
                }
                // Retransmit in order; acks come back through the usual
                // pump. A fault here surfaces as Io and the outer loop
                // tries again (the server parks the session anew when it
                // notices this connection die).
                for i in 0..self.unacked.len() {
                    let (seq, records) = self.unacked[i].clone();
                    self.send(&ClientFrame::Batch { seq, records })?;
                }
                Ok(())
            }
            ServerFrame::Busy {
                retry_after_ms,
                message,
            } => Err(ClientError::Busy {
                retry_after_ms,
                message,
            }),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Enqueues and sends one batch, first making room in the in-flight
    /// window.
    fn push_batch(&mut self, seq: u32, records: PackedTrace) -> Result<(), ClientError> {
        self.pump_acks_until(self.max_inflight.max(1) as usize - 1)?;
        self.unacked.push((seq, records.clone()));
        if let Err(e) = self.send(&ClientFrame::Batch { seq, records }) {
            // The batch is buffered, so recovery retransmits it.
            self.recover(e)?;
        }
        Ok(())
    }

    /// Sends one batch and waits for its ack, returning the batch's own
    /// `(records, mispredicts, low_confidence)` contribution.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures (after recovery, if
    /// a [`RetryPolicy`] is configured).
    pub fn send_batch(&mut self, records: &PackedTrace) -> Result<StreamTotals, ClientError> {
        let start = self.totals;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.push_batch(seq, records.clone())?;
        self.pump_acks_until(0)?;
        Ok(self.totals.since(start))
    }

    /// Streams `trace` in `batch_len`-record batches, keeping up to the
    /// server's advertised in-flight limit outstanding.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures (after recovery, if
    /// a [`RetryPolicy`] is configured).
    ///
    /// # Panics
    ///
    /// Panics if `batch_len` is zero.
    pub fn stream(
        &mut self,
        trace: &PackedTrace,
        batch_len: usize,
    ) -> Result<StreamTotals, ClientError> {
        assert!(batch_len > 0, "batch_len must be positive");
        let start = self.totals;
        let mut at = 0usize;
        while at < trace.len() {
            let end = (at + batch_len).min(trace.len());
            let batch: PackedTrace = (at..end)
                .map(|i| trace.get(i).expect("index in range"))
                .collect();
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.push_batch(seq, batch)?;
            at = end;
        }
        self.pump_acks_until(0)?;
        Ok(self.totals.since(start))
    }

    /// Sends `frame` and receives its reply, recovering once through the
    /// retry policy on a transport fault (the request is re-sent on the
    /// resumed connection — all these request frames are idempotent).
    fn roundtrip(&mut self, frame: &ClientFrame) -> Result<ServerFrame, ClientError> {
        debug_assert!(self.unacked.is_empty(), "roundtrips only between streams");
        let once = |me: &mut Self| -> Result<ServerFrame, ClientError> {
            me.send(frame)?;
            me.recv()
        };
        match once(self) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                self.recover(e)?;
                once(self)
            }
        }
    }

    /// Fetches the session's accumulated statistics.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures.
    pub fn snapshot(&mut self) -> Result<ServerFrame, ClientError> {
        match self.roundtrip(&ClientFrame::Snapshot)? {
            reply @ ServerFrame::SnapshotReply { .. } => Ok(reply),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the session's statistics as a [`BucketStats`], bit-identical
    /// to the server's accumulator.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames, transport failures, and invalid cells.
    pub fn snapshot_stats(&mut self) -> Result<BucketStats, ClientError> {
        match self.snapshot()? {
            ServerFrame::SnapshotReply { cells, .. } => {
                crate::proto::stats_from_cells(&cells).map_err(ClientError::Protocol)
            }
            _ => unreachable!("snapshot() only returns SnapshotReply"),
        }
    }

    /// Fetches server-wide metrics as name/value pairs.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.roundtrip(&ClientFrame::Stats)? {
            ServerFrame::StatsReply(pairs) => Ok(pairs),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the full Prometheus text exposition (server, session, and
    /// pool metrics) over the wire — the same text `GET /metrics` serves.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames (including unknown-frame-type errors from
    /// pre-rev-1.1 servers) and transport failures.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&ClientFrame::Metrics)? {
            ServerFrame::MetricsReply { text } => Ok(text),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the server's flight-recorder contents as Chrome
    /// trace-event JSON (rev 1.5) — the same blob `GET /trace` serves
    /// and `cira trace dump` writes. A server running with tracing
    /// disabled returns a valid but empty trace.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames (including unknown-frame-type errors from
    /// pre-rev-1.5 servers) and transport failures.
    pub fn trace_json(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&ClientFrame::TraceDump)? {
            ServerFrame::TraceDumpReply { json } => Ok(json),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Resets the session to its freshly-negotiated state.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures.
    pub fn reset(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&ClientFrame::Reset)? {
            ServerFrame::ResetAck => {
                self.totals = StreamTotals::default();
                Ok(())
            }
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to checkpoint and park the session durably
    /// (rev 1.3), returning the resume token on success. The server
    /// closes the connection after acking, so the client should be
    /// dropped; re-attach later with [`ClientBuilder::resume`].
    ///
    /// # Errors
    ///
    /// [`ClientError::StoreFull`] when the server's disk park tier is at
    /// capacity — the session is **still attached** and this client
    /// remains usable (keep streaming, or retry after the hint).
    /// Server `ERROR` frames (e.g. [`code::STORE_FULL`] from a server
    /// with parking disabled) and transport failures otherwise.
    pub fn park(&mut self) -> Result<u64, ClientError> {
        // Everything unacked must land first: the checkpoint covers
        // exactly the batches the server has applied.
        self.pump_acks_until(0)?;
        self.send(&ClientFrame::Park)?;
        match self.recv()? {
            ServerFrame::ParkedAck { token } => Ok(token),
            ServerFrame::StoreFull {
                retry_after_ms,
                message,
            } => Err(ClientError::StoreFull {
                retry_after_ms,
                message,
            }),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Orderly close: waits for the server's acknowledgement. Never
    /// retried — a goodbye that raced a fault leaves the session parked
    /// server-side until its TTL expires, which is harmless.
    ///
    /// # Errors
    ///
    /// Server `ERROR` frames and transport failures.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&ClientFrame::Goodbye)?;
        match self.recv()? {
            ServerFrame::GoodbyeAck => Ok(()),
            ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_compare_wraps() {
        assert!(seq_le(0, 0));
        assert!(seq_le(0, 1));
        assert!(!seq_le(1, 0));
        assert!(seq_le(u32::MAX, 0)); // wrap: MAX precedes 0
        assert!(!seq_le(0, u32::MAX));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy::retries(8)
            .with_delays(Duration::from_millis(10), Duration::from_millis(100))
            .with_jitter_seed(42);
        let mut rng1 = p.jitter_seed;
        let mut rng2 = p.jitter_seed;
        let a: Vec<Duration> = (1..=8).map(|i| p.backoff(i, &mut rng1)).collect();
        let b: Vec<Duration> = (1..=8).map(|i| p.backoff(i, &mut rng2)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            // Jitter scales into [1/2, 1) of the raw exponential value.
            let raw = Duration::from_millis(10)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(100));
            assert!(*d >= raw / 2 && *d <= raw, "attempt {}: {d:?}", i + 1);
        }
        let mut other = p.jitter_seed ^ 1;
        let c: Vec<Duration> = (1..=8).map(|i| p.backoff(i, &mut other)).collect();
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn drop_acked_is_cumulative() {
        // Exercise the retain logic without a socket via seq_le directly:
        // acks retire everything at-or-before the acked sequence.
        let unacked: Vec<u32> = vec![3, 4, 5, 6];
        let after: Vec<u32> = unacked.iter().copied().filter(|s| !seq_le(*s, 5)).collect();
        assert_eq!(after, vec![6]);
    }

    #[test]
    fn totals_since_subtracts_fieldwise() {
        let a = StreamTotals {
            batches: 10,
            records: 1000,
            mispredicts: 50,
            low_confidence: 70,
        };
        let b = StreamTotals {
            batches: 4,
            records: 400,
            mispredicts: 20,
            low_confidence: 30,
        };
        assert_eq!(
            a.since(b),
            StreamTotals {
                batches: 6,
                records: 600,
                mispredicts: 30,
                low_confidence: 40,
            }
        );
    }
}
