//! The `CIRS` v1 wire protocol: typed frames and their byte encodings.
//!
//! Every frame travels inside a length prefix (see [`crate::frame`]) and
//! starts with a one-byte frame type. All integers are little-endian;
//! strings are `u16` length + UTF-8 bytes; bitmaps are `u64` words,
//! LSB-first within each word (the same convention as
//! [`PackedTrace`]'s taken bitmap).
//!
//! | type | direction | frame | payload |
//! |------|-----------|-------------------|---------|
//! | 0x01 | c → s | `HELLO` | magic `CIRS`, version `u8`, predictor/mechanism/index/init spec strings, threshold `u64` |
//! | 0x02 | c → s | `BATCH` | seq `u32`, [`PackedTrace::to_bytes`] payload |
//! | 0x03 | c → s | `STATS` | — |
//! | 0x04 | c → s | `SNAPSHOT` | — |
//! | 0x05 | c → s | `RESET` | — |
//! | 0x06 | c → s | `GOODBYE` | — |
//! | 0x08 | c → s | `RESUME` | magic `CIRS`, version `u8`, resume token `u64` (rev 1.2) |
//! | 0x09 | c → s | `PARK` | — (rev 1.3) |
//! | 0x81 | s → c | `HELLO_ACK` | version `u8`, session id `u64`, max frame `u32`, max in-flight `u32`, predictor/mechanism descriptions, resume token `u64` (rev 1.2) |
//! | 0x82 | s → c | `BATCH_ACK` | seq `u32`, batch records/mispredicts/low `u64`×3, session records `u64`, predicted + low bitmaps |
//! | 0x83 | s → c | `STATS_REPLY` | `u32` count, then (name string, value `u64`) pairs |
//! | 0x84 | s → c | `SNAPSHOT_REPLY` | branches/mispredicts/low `u64`×3, `u32` cell count, then (key `u64`, refs `f64`, mispredicts `f64`) sorted by key |
//! | 0x85 | s → c | `RESET_ACK` | — |
//! | 0x86 | s → c | `GOODBYE_ACK` | — |
//! | 0x88 | s → c | `RESUME_ACK` | session `u64`, has-last `u8`, last acked seq `u32`, session batches/records/mispredicts/low `u64`×4, max frame `u32`, max in-flight `u32` (rev 1.2) |
//! | 0x89 | s → c | `PARKED_ACK` | resume token `u64` (rev 1.3) |
//! | 0x7e | s → c | `BUSY` | retry-after hint `u32` (ms), message string (rev 1.2) |
//! | 0x7d | s → c | `STORE_FULL` | retry-after hint `u32` (ms), message string (rev 1.3) |
//! | 0x7f | s → c | `ERROR` | code `u16`, message string |
//!
//! Negotiation rule: the server accepts exactly [`PROTO_VERSION`]; a
//! `HELLO` carrying anything else is answered with an `ERROR` frame (code
//! [`code::UNSUPPORTED_VERSION`]) naming the supported version, then the
//! connection closes. Unknown frame types, malformed payloads, and
//! oversized frames are likewise per-connection errors — the process keeps
//! serving everyone else.
//!
//! # Minor revisions
//!
//! [`PROTO_REV`] tracks changes within major version 1; it is
//! informational and never negotiated. Rev **1.1** adds:
//!
//! * the `METRICS` / `METRICS_REPLY` frame pair, 0x07 / 0x87 (Prometheus
//!   text over the wire; retired in rev 1.6);
//! * `STATS` / `GOODBYE` accepted **before** a session is negotiated, so
//!   a client can read the counters without a `HELLO`;
//! * additional `STATS_REPLY` names (`uptime_seconds`, the
//!   `protocol_errors_*` breakdown) appended after the original thirteen.
//!
//! `STATS_REPLY` pairs are self-describing, so rev 1.0 clients that look
//! up the names they know keep working.
//!
//! Rev **1.2** adds session resumption and load shedding:
//!
//! * `HELLO_ACK` carries a trailing **resume token** (`u64`): an opaque,
//!   unguessable capability for re-attaching to the session after the
//!   connection drops. Pre-1.2 decoders that reject trailing bytes see a
//!   longer ack; 1.2 clients talking to a 1.1 server treat the missing
//!   token as "resume unsupported".
//! * `RESUME` (0x08) opens a connection *instead of* `HELLO`: it names a
//!   parked session by token. The server answers `RESUME_ACK` with the
//!   last acked batch sequence number and the session-lifetime totals so
//!   the client can reconcile its own counters and retransmit everything
//!   newer. An unknown/expired token draws `ERROR` with
//!   [`code::UNKNOWN_SESSION`].
//! * `BUSY` (0x7e): a typed shed signal sent instead of `HELLO_ACK` when
//!   the server is at session capacity, carrying a retry-after hint in
//!   milliseconds. The connection closes after it; the client is expected
//!   to back off and retry.
//! * `BATCH_ACK`'s `seq` is a **cumulative** ack: batches are applied in
//!   submission order, so acking seq *n* implies every earlier sequence
//!   number was applied. Resumption leans on this — the client drops its
//!   retransmit buffer up to the acked sequence.
//!
//! Rev **1.3** adds durable parking:
//!
//! * parked sessions are written through to a `cira-store` disk tier
//!   (when the server runs with `--park-dir`), so a `RESUME` succeeds
//!   across a full server restart — including `kill -9` — with
//!   statistics bit-identical to an uninterrupted session;
//! * `PARK` (0x09): an *explicit, durable* detach. The client asks the
//!   server to checkpoint and park its session now; the server answers
//!   `PARKED_ACK` (0x89) echoing the resume token **only after** the
//!   checkpoint is persisted, then the connection closes. The client
//!   can disconnect, restart — or outlive a server `kill -9` — and
//!   `RESUME` later;
//! * `STORE_FULL` (0x7d): sent instead of `PARKED_ACK` when the disk
//!   park tier cannot persist the checkpoint at its byte budget. The
//!   session stays attached and streaming continues. Mirrors `BUSY`:
//!   it carries a retry-after hint and the condition is transient (TTL
//!   sweeps and resumes free pages). Where a typed frame cannot be
//!   used, the same condition surfaces as [`code::STORE_FULL`] in an
//!   `ERROR` frame (e.g. `PARK` on a server with parking disabled).
//!
//! Rev **1.4** (the thread-per-core event loop) changes no frame
//! encodings; it only appends `STATS_REPLY` names, which the
//! self-describing pair format absorbs: `store_recovery_ms`, and a count
//! of background spills that is gone again now that every park writes
//! its checkpoint when it happens.
//!
//! Rev **1.5** adds the `TRACE_DUMP` / `TRACE_DUMP_REPLY` frame pair,
//! 0x0a / 0x8a: the flight recorder's Chrome trace-event JSON over the
//! wire (retired in rev 1.6).
//!
//! Rev **1.6** retires the type bytes 0x07, 0x87, 0x0a and 0x8a. Their
//! frames sent the exposition text and the trace dump that the server's
//! HTTP listener (`--metrics-port`) serves as `GET /metrics` and
//! `GET /trace`, which is now their only network path. A client that
//! still sends 0x07 or 0x0a gets `ERROR` [`code::MALFORMED`] and is
//! disconnected, as for any unknown type; both decoders report all four
//! bytes as [`ProtoError::UnknownFrameType`].

use std::fmt;

use cira_analysis::BucketStats;
use cira_trace::codec::{PackedBytesError, PackedTrace};

/// Magic bytes opening a `HELLO` payload.
pub const PROTO_MAGIC: &[u8; 4] = b"CIRS";
/// The protocol version this build speaks (negotiated in `HELLO`).
pub const PROTO_VERSION: u8 = 1;
/// Minor revision within [`PROTO_VERSION`] (see the module docs for what
/// each revision changed). Informational — never negotiated.
pub const PROTO_REV: u8 = 6;

/// Frame type bytes.
pub mod frame_type {
    /// Client hello / config negotiation.
    pub const HELLO: u8 = 0x01;
    /// A batch of packed branch records.
    pub const BATCH: u8 = 0x02;
    /// Request server-wide live metrics.
    pub const STATS: u8 = 0x03;
    /// Request the session's accumulated bucket statistics.
    pub const SNAPSHOT: u8 = 0x04;
    /// Reset the session to its freshly-negotiated state.
    pub const RESET: u8 = 0x05;
    /// Orderly close: the server acks then the connection ends.
    pub const GOODBYE: u8 = 0x06;
    /// Re-attach to a parked session by resume token (rev 1.2).
    pub const RESUME: u8 = 0x08;
    /// Detach now: checkpoint the session durably and park it
    /// (rev 1.3).
    pub const PARK: u8 = 0x09;
    /// Server accepts the hello.
    pub const HELLO_ACK: u8 = 0x81;
    /// Per-batch results.
    pub const BATCH_ACK: u8 = 0x82;
    /// Server metrics.
    pub const STATS_REPLY: u8 = 0x83;
    /// Session statistics.
    pub const SNAPSHOT_REPLY: u8 = 0x84;
    /// Reset done.
    pub const RESET_ACK: u8 = 0x85;
    /// Goodbye acknowledged.
    pub const GOODBYE_ACK: u8 = 0x86;
    /// Resume accepted: last acked seq + session totals (rev 1.2).
    pub const RESUME_ACK: u8 = 0x88;
    /// Park accepted: the session checkpoint is durable (rev 1.3).
    pub const PARKED_ACK: u8 = 0x89;
    /// Server at capacity: shed with a retry-after hint (rev 1.2).
    pub const BUSY: u8 = 0x7e;
    /// Disk park tier at capacity: a park could not be persisted; retry
    /// after the hint (rev 1.3).
    pub const STORE_FULL: u8 = 0x7d;
    /// Fatal per-connection error.
    pub const ERROR: u8 = 0x7f;
}

/// Error codes carried by `ERROR` frames.
pub mod code {
    /// The payload could not be decoded.
    pub const MALFORMED: u16 = 1;
    /// The hello's protocol version is not supported.
    pub const UNSUPPORTED_VERSION: u16 = 2;
    /// A spec string failed to parse, or asks for a table wider than
    /// [`crate::session::MAX_TABLE_BITS`].
    pub const BAD_SPEC: u16 = 3;
    /// A frame exceeded the negotiated maximum size.
    pub const OVERSIZED: u16 = 4;
    /// The first frame was not a `HELLO`.
    pub const HELLO_REQUIRED: u16 = 5;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u16 = 6;
    /// A `RESUME` token named no parked session (rev 1.2).
    pub const UNKNOWN_SESSION: u16 = 7;
    /// The session sat idle past the server's idle timeout (rev 1.2).
    pub const IDLE_TIMEOUT: u16 = 8;
    /// The disk park tier is at capacity (rev 1.3).
    pub const STORE_FULL: u16 = 9;
}

/// Configuration negotiated in a `HELLO`, in the CLI `spec` grammar
/// (parsed server-side by [`cira_analysis::spec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloConfig {
    /// Predictor spec, e.g. `gshare:12:12`.
    pub predictor: String,
    /// Confidence-mechanism spec, e.g. `resetting:16`.
    pub mechanism: String,
    /// Index spec, e.g. `pcxorbhr:12`.
    pub index: String,
    /// Table-initialization spec, e.g. `ones`.
    pub init: String,
    /// Low-confidence threshold: keys strictly below it are low.
    pub threshold: u64,
}

impl Default for HelloConfig {
    fn default() -> Self {
        Self {
            predictor: "gshare64k".to_owned(),
            mechanism: "resetting:16".to_owned(),
            index: "pcxorbhr:16".to_owned(),
            init: "ones".to_owned(),
            threshold: 16,
        }
    }
}

/// Frames sent by clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a session with the given configuration.
    Hello {
        /// Requested protocol version.
        version: u8,
        /// Session configuration specs.
        config: HelloConfig,
    },
    /// A batch of records to score and train on.
    Batch {
        /// Client-chosen sequence number, echoed in the ack.
        seq: u32,
        /// The records, in `CIRP` packed layout.
        records: PackedTrace,
    },
    /// Request server metrics.
    Stats,
    /// Request session statistics.
    Snapshot,
    /// Reset the session.
    Reset,
    /// Orderly close.
    Goodbye,
    /// Re-attach to a parked session (rev 1.2). Sent *instead of*
    /// `Hello` as the first frame on a fresh connection.
    Resume {
        /// Requested protocol version.
        version: u8,
        /// The resume token issued in the original `HELLO_ACK`.
        token: u64,
    },
    /// Detach the session now, durably (rev 1.3). Acked with
    /// `PARKED_ACK` once the checkpoint is persisted; refused with
    /// `STORE_FULL` (session stays attached) when the disk tier is at
    /// capacity.
    Park,
}

/// One `(key, refs, mispredicts)` statistics cell on the wire.
pub type SnapshotCell = (u64, f64, f64);

/// Frames sent by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Session accepted.
    HelloAck {
        /// Version the server speaks (== [`PROTO_VERSION`]).
        version: u8,
        /// Server-assigned session id.
        session: u64,
        /// Largest frame body the server accepts, bytes.
        max_frame: u32,
        /// Batches buffered per session before the reader blocks.
        max_inflight: u32,
        /// Parsed predictor description (e.g. `gshare(16,16)`).
        predictor: String,
        /// Parsed mechanism description.
        mechanism: String,
        /// Opaque resume token for re-attaching after a disconnect
        /// (rev 1.2).
        token: u64,
    },
    /// Results for one batch.
    BatchAck {
        /// Echo of the batch's sequence number.
        seq: u32,
        /// Records in this batch.
        records: u64,
        /// Mispredictions in this batch.
        mispredicts: u64,
        /// Low-confidence records in this batch (key < threshold).
        low_confidence: u64,
        /// Session-lifetime records after this batch.
        total_records: u64,
        /// Predicted directions, one bit per record (1 = taken).
        predicted: Vec<u64>,
        /// Low-confidence flags, one bit per record.
        low: Vec<u64>,
    },
    /// Server-wide metrics as name/value pairs.
    StatsReply(Vec<(String, u64)>),
    /// Session statistics snapshot.
    SnapshotReply {
        /// Session-lifetime records.
        branches: u64,
        /// Session-lifetime mispredictions.
        mispredicts: u64,
        /// Session-lifetime low-confidence records.
        low_confidence: u64,
        /// Bucket cells sorted by key, exact-bit `f64` counts.
        cells: Vec<SnapshotCell>,
    },
    /// Reset done.
    ResetAck,
    /// Goodbye acknowledged; connection closes next.
    GoodbyeAck,
    /// Resume accepted: the client reconciles against these totals and
    /// retransmits every batch newer than `last_seq` (rev 1.2).
    ResumeAck {
        /// Server-assigned session id (unchanged across resumes).
        session: u64,
        /// Sequence number of the last applied batch, or `None` if the
        /// session has not applied any batch yet.
        last_seq: Option<u32>,
        /// Session-lifetime applied batches.
        batches: u64,
        /// Session-lifetime records.
        records: u64,
        /// Session-lifetime mispredictions.
        mispredicts: u64,
        /// Session-lifetime low-confidence records.
        low_confidence: u64,
        /// Largest frame body the server accepts, bytes.
        max_frame: u32,
        /// Batches buffered per session before the reader blocks.
        max_inflight: u32,
    },
    /// Park accepted: the session's checkpoint reached durable storage
    /// (or the in-memory park on servers without a disk tier) and the
    /// connection closes next (rev 1.3).
    ParkedAck {
        /// The resume token that re-attaches to the parked session.
        token: u64,
    },
    /// Server at session capacity: the connection closes next and the
    /// client should back off for at least the hint (rev 1.2).
    Busy {
        /// Suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
    /// The disk park tier is full: the session could not be persisted.
    /// Mirrors [`ServerFrame::Busy`] — the condition is transient (TTL
    /// sweeps and resumes free pages), so the client should back off
    /// for at least the hint and retry (rev 1.3).
    StoreFull {
        /// Suggested wait before retrying, milliseconds.
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Fatal per-connection error; connection closes next.
    Error {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// Errors produced while decoding a frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The body ended before a field was complete.
    Truncated,
    /// Bytes remained after the last field.
    TrailingBytes(usize),
    /// A `HELLO` payload did not start with `CIRS`.
    BadMagic([u8; 4]),
    /// Unknown frame type byte.
    UnknownFrameType(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// A string field exceeded [`MAX_STRING`].
    StringTooLong(usize),
    /// The embedded packed trace was malformed.
    BadTrace(PackedBytesError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes in frame body"),
            ProtoError::BadMagic(m) => write!(f, "bad hello magic {m:?}, expected \"CIRS\""),
            ProtoError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::BadString => write!(f, "string field is not valid UTF-8"),
            ProtoError::StringTooLong(n) => write!(f, "string field of {n} bytes too long"),
            ProtoError::BadTrace(e) => write!(f, "bad packed trace: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<PackedBytesError> for ProtoError {
    fn from(e: PackedBytesError) -> Self {
        ProtoError::BadTrace(e)
    }
}

/// Longest string field accepted (spec strings and error messages).
pub const MAX_STRING: usize = 4096;

/// Little-endian cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.at < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u16()? as usize;
        if n > MAX_STRING {
            return Err(ProtoError::StringTooLong(n));
        }
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| ProtoError::BadString)
    }

    /// A `u64`-word bitmap for `bits` bits.
    fn bitmap(&mut self, bits: u64) -> Result<Vec<u64>, ProtoError> {
        let words = usize::try_from(bits.div_ceil(64)).map_err(|_| ProtoError::Truncated)?;
        // Bounded by the already-length-checked body, so no alloc guard
        // is needed beyond the take().
        let raw = self.take(words * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.buf.len() - self.at))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(MAX_STRING).min(u16::MAX as usize);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..n]);
}

fn put_bitmap(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encodes a client frame body (type byte + payload, no length prefix).
pub fn encode_client(frame: &ClientFrame) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        ClientFrame::Hello { version, config } => {
            out.push(frame_type::HELLO);
            out.extend_from_slice(PROTO_MAGIC);
            out.push(*version);
            put_string(&mut out, &config.predictor);
            put_string(&mut out, &config.mechanism);
            put_string(&mut out, &config.index);
            put_string(&mut out, &config.init);
            out.extend_from_slice(&config.threshold.to_le_bytes());
        }
        ClientFrame::Batch { seq, records } => {
            out.push(frame_type::BATCH);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&records.to_bytes());
        }
        ClientFrame::Stats => out.push(frame_type::STATS),
        ClientFrame::Snapshot => out.push(frame_type::SNAPSHOT),
        ClientFrame::Reset => out.push(frame_type::RESET),
        ClientFrame::Goodbye => out.push(frame_type::GOODBYE),
        ClientFrame::Resume { version, token } => {
            out.push(frame_type::RESUME);
            out.extend_from_slice(PROTO_MAGIC);
            out.push(*version);
            out.extend_from_slice(&token.to_le_bytes());
        }
        ClientFrame::Park => out.push(frame_type::PARK),
    }
    out
}

/// Decodes a client frame body.
///
/// # Errors
///
/// Returns [`ProtoError`] on any malformed byte; decoding never panics.
pub fn decode_client(body: &[u8]) -> Result<ClientFrame, ProtoError> {
    let mut c = Cursor::new(body);
    let ty = c.u8()?;
    match ty {
        frame_type::HELLO => {
            let magic = c.take(4)?;
            if magic != PROTO_MAGIC {
                let mut m = [0u8; 4];
                m.copy_from_slice(magic);
                return Err(ProtoError::BadMagic(m));
            }
            let version = c.u8()?;
            let config = HelloConfig {
                predictor: c.string()?,
                mechanism: c.string()?,
                index: c.string()?,
                init: c.string()?,
                threshold: c.u64()?,
            };
            c.finish()?;
            Ok(ClientFrame::Hello { version, config })
        }
        frame_type::BATCH => {
            let seq = c.u32()?;
            let records = PackedTrace::from_bytes(c.rest())?;
            Ok(ClientFrame::Batch { seq, records })
        }
        frame_type::STATS => {
            c.finish()?;
            Ok(ClientFrame::Stats)
        }
        frame_type::SNAPSHOT => {
            c.finish()?;
            Ok(ClientFrame::Snapshot)
        }
        frame_type::RESET => {
            c.finish()?;
            Ok(ClientFrame::Reset)
        }
        frame_type::GOODBYE => {
            c.finish()?;
            Ok(ClientFrame::Goodbye)
        }
        frame_type::RESUME => {
            let magic = c.take(4)?;
            if magic != PROTO_MAGIC {
                let mut m = [0u8; 4];
                m.copy_from_slice(magic);
                return Err(ProtoError::BadMagic(m));
            }
            let version = c.u8()?;
            let token = c.u64()?;
            c.finish()?;
            Ok(ClientFrame::Resume { version, token })
        }
        frame_type::PARK => {
            c.finish()?;
            Ok(ClientFrame::Park)
        }
        other => Err(ProtoError::UnknownFrameType(other)),
    }
}

/// Encodes a server frame body (type byte + payload, no length prefix).
pub fn encode_server(frame: &ServerFrame) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        ServerFrame::HelloAck {
            version,
            session,
            max_frame,
            max_inflight,
            predictor,
            mechanism,
            token,
        } => {
            out.push(frame_type::HELLO_ACK);
            out.push(*version);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&max_frame.to_le_bytes());
            out.extend_from_slice(&max_inflight.to_le_bytes());
            put_string(&mut out, predictor);
            put_string(&mut out, mechanism);
            out.extend_from_slice(&token.to_le_bytes());
        }
        ServerFrame::BatchAck {
            seq,
            records,
            mispredicts,
            low_confidence,
            total_records,
            predicted,
            low,
        } => {
            out.push(frame_type::BATCH_ACK);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&records.to_le_bytes());
            out.extend_from_slice(&mispredicts.to_le_bytes());
            out.extend_from_slice(&low_confidence.to_le_bytes());
            out.extend_from_slice(&total_records.to_le_bytes());
            put_bitmap(&mut out, predicted);
            put_bitmap(&mut out, low);
        }
        ServerFrame::StatsReply(pairs) => {
            out.push(frame_type::STATS_REPLY);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (name, value) in pairs {
                put_string(&mut out, name);
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        ServerFrame::SnapshotReply {
            branches,
            mispredicts,
            low_confidence,
            cells,
        } => {
            out.push(frame_type::SNAPSHOT_REPLY);
            out.extend_from_slice(&branches.to_le_bytes());
            out.extend_from_slice(&mispredicts.to_le_bytes());
            out.extend_from_slice(&low_confidence.to_le_bytes());
            out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
            for (key, refs, miss) in cells {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&refs.to_bits().to_le_bytes());
                out.extend_from_slice(&miss.to_bits().to_le_bytes());
            }
        }
        ServerFrame::ResetAck => out.push(frame_type::RESET_ACK),
        ServerFrame::GoodbyeAck => out.push(frame_type::GOODBYE_ACK),
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
            out.push(frame_type::RESUME_ACK);
            out.extend_from_slice(&session.to_le_bytes());
            out.push(last_seq.is_some() as u8);
            out.extend_from_slice(&last_seq.unwrap_or(0).to_le_bytes());
            out.extend_from_slice(&batches.to_le_bytes());
            out.extend_from_slice(&records.to_le_bytes());
            out.extend_from_slice(&mispredicts.to_le_bytes());
            out.extend_from_slice(&low_confidence.to_le_bytes());
            out.extend_from_slice(&max_frame.to_le_bytes());
            out.extend_from_slice(&max_inflight.to_le_bytes());
        }
        ServerFrame::ParkedAck { token } => {
            out.push(frame_type::PARKED_ACK);
            out.extend_from_slice(&token.to_le_bytes());
        }
        ServerFrame::Busy {
            retry_after_ms,
            message,
        } => {
            out.push(frame_type::BUSY);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            put_string(&mut out, message);
        }
        ServerFrame::StoreFull {
            retry_after_ms,
            message,
        } => {
            out.push(frame_type::STORE_FULL);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            put_string(&mut out, message);
        }
        ServerFrame::Error { code, message } => {
            out.push(frame_type::ERROR);
            out.extend_from_slice(&code.to_le_bytes());
            put_string(&mut out, message);
        }
    }
    out
}

/// Decodes a server frame body.
///
/// The batch-ack bitmaps' lengths are implied by the record count, so the
/// decoder needs no out-of-band state.
///
/// # Errors
///
/// Returns [`ProtoError`] on any malformed byte; decoding never panics.
pub fn decode_server(body: &[u8]) -> Result<ServerFrame, ProtoError> {
    let mut c = Cursor::new(body);
    let ty = c.u8()?;
    let frame = match ty {
        frame_type::HELLO_ACK => ServerFrame::HelloAck {
            version: c.u8()?,
            session: c.u64()?,
            max_frame: c.u32()?,
            max_inflight: c.u32()?,
            predictor: c.string()?,
            mechanism: c.string()?,
            token: c.u64()?,
        },
        frame_type::BATCH_ACK => {
            let seq = c.u32()?;
            let records = c.u64()?;
            let mispredicts = c.u64()?;
            let low_confidence = c.u64()?;
            let total_records = c.u64()?;
            let predicted = c.bitmap(records)?;
            let low = c.bitmap(records)?;
            ServerFrame::BatchAck {
                seq,
                records,
                mispredicts,
                low_confidence,
                total_records,
                predicted,
                low,
            }
        }
        frame_type::STATS_REPLY => {
            let n = c.u32()?;
            let mut pairs = Vec::new();
            for _ in 0..n {
                let name = c.string()?;
                let value = c.u64()?;
                pairs.push((name, value));
            }
            ServerFrame::StatsReply(pairs)
        }
        frame_type::SNAPSHOT_REPLY => {
            let branches = c.u64()?;
            let mispredicts = c.u64()?;
            let low_confidence = c.u64()?;
            let n = c.u32()?;
            let mut cells = Vec::new();
            for _ in 0..n {
                let key = c.u64()?;
                let refs = c.f64()?;
                let miss = c.f64()?;
                cells.push((key, refs, miss));
            }
            ServerFrame::SnapshotReply {
                branches,
                mispredicts,
                low_confidence,
                cells,
            }
        }
        frame_type::RESET_ACK => ServerFrame::ResetAck,
        frame_type::GOODBYE_ACK => ServerFrame::GoodbyeAck,
        frame_type::RESUME_ACK => {
            let session = c.u64()?;
            let has_last = c.u8()? != 0;
            let raw_seq = c.u32()?;
            ServerFrame::ResumeAck {
                session,
                last_seq: has_last.then_some(raw_seq),
                batches: c.u64()?,
                records: c.u64()?,
                mispredicts: c.u64()?,
                low_confidence: c.u64()?,
                max_frame: c.u32()?,
                max_inflight: c.u32()?,
            }
        }
        frame_type::PARKED_ACK => ServerFrame::ParkedAck { token: c.u64()? },
        frame_type::BUSY => ServerFrame::Busy {
            retry_after_ms: c.u32()?,
            message: c.string()?,
        },
        frame_type::STORE_FULL => ServerFrame::StoreFull {
            retry_after_ms: c.u32()?,
            message: c.string()?,
        },
        frame_type::ERROR => ServerFrame::Error {
            code: c.u16()?,
            message: c.string()?,
        },
        other => return Err(ProtoError::UnknownFrameType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Rebuilds a [`BucketStats`] from snapshot cells. Counts cross the wire
/// as raw `f64` bits, so the result is bit-identical to the server's
/// accumulator.
///
/// # Errors
///
/// Returns a message if any cell carries non-finite or inconsistent
/// counts (which a well-behaved server never sends).
pub fn stats_from_cells(cells: &[SnapshotCell]) -> Result<BucketStats, String> {
    let mut stats = BucketStats::new();
    for &(key, refs, miss) in cells {
        if !(refs.is_finite() && miss.is_finite() && (0.0..=refs).contains(&miss)) {
            return Err(format!(
                "invalid snapshot cell: key {key} refs {refs} miss {miss}"
            ));
        }
        stats.merge_cell(key, refs, miss);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cira_trace::BranchRecord;

    fn sample_trace() -> PackedTrace {
        (0..130u64)
            .map(|i| BranchRecord::new(0x1000 + 8 * (i % 5), i % 3 == 0))
            .collect()
    }

    #[test]
    fn client_frames_roundtrip() {
        let frames = [
            ClientFrame::Hello {
                version: PROTO_VERSION,
                config: HelloConfig::default(),
            },
            ClientFrame::Batch {
                seq: 42,
                records: sample_trace(),
            },
            ClientFrame::Stats,
            ClientFrame::Snapshot,
            ClientFrame::Reset,
            ClientFrame::Goodbye,
            ClientFrame::Resume {
                version: PROTO_VERSION,
                token: 0xfeed_face_cafe_f00d,
            },
            ClientFrame::Park,
        ];
        for f in frames {
            let bytes = encode_client(&f);
            assert_eq!(decode_client(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn server_frames_roundtrip() {
        let frames = [
            ServerFrame::HelloAck {
                version: PROTO_VERSION,
                session: 7,
                max_frame: 1 << 20,
                max_inflight: 8,
                predictor: "gshare(16,16)".into(),
                mechanism: "resetting(16)".into(),
                token: 0x0123_4567_89ab_cdef,
            },
            ServerFrame::BatchAck {
                seq: 3,
                records: 130,
                mispredicts: 17,
                low_confidence: 40,
                total_records: 1300,
                predicted: vec![0xdead_beef, 0x3, 0x1],
                low: vec![0x0, 0xffff_ffff_ffff_ffff, 0x2],
            },
            ServerFrame::StatsReply(vec![("frames_in".into(), 12), ("records".into(), 99)]),
            ServerFrame::SnapshotReply {
                branches: 1000,
                mispredicts: 80,
                low_confidence: 200,
                cells: vec![(0, 10.0, 1.0), (5, 990.0, 79.0)],
            },
            ServerFrame::ResetAck,
            ServerFrame::GoodbyeAck,
            ServerFrame::ResumeAck {
                session: 7,
                last_seq: Some(41),
                batches: 42,
                records: 344_064,
                mispredicts: 1234,
                low_confidence: 5678,
                max_frame: 1 << 20,
                max_inflight: 8,
            },
            ServerFrame::ResumeAck {
                session: 9,
                last_seq: None,
                batches: 0,
                records: 0,
                mispredicts: 0,
                low_confidence: 0,
                max_frame: 1 << 20,
                max_inflight: 8,
            },
            ServerFrame::ParkedAck {
                token: 0xfeed_face_cafe_f00d,
            },
            ServerFrame::Busy {
                retry_after_ms: 500,
                message: "at session capacity".into(),
            },
            ServerFrame::StoreFull {
                retry_after_ms: 750,
                message: "disk park tier full".into(),
            },
            ServerFrame::Error {
                code: code::BAD_SPEC,
                message: "invalid predictor spec".into(),
            },
            ServerFrame::Error {
                code: code::STORE_FULL,
                message: "park not persisted".into(),
            },
        ];
        for f in frames {
            let bytes = encode_server(&f);
            assert_eq!(decode_server(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn garbage_rejected_not_panicked() {
        assert!(matches!(decode_client(&[]), Err(ProtoError::Truncated)));
        assert!(matches!(
            decode_client(&[0x55, 1, 2, 3]),
            Err(ProtoError::UnknownFrameType(0x55))
        ));
        // The type bytes rev 1.6 retired (METRICS, TRACE_DUMP and their
        // replies) are unknown to both decoders, bare or with a payload.
        for ty in [0x07, 0x0a, 0x87, 0x8a] {
            for body in [vec![ty], vec![ty, 4, 0, 0, 0, b'{', b'}', b'\n', 0]] {
                assert_eq!(decode_client(&body), Err(ProtoError::UnknownFrameType(ty)));
                assert_eq!(decode_server(&body), Err(ProtoError::UnknownFrameType(ty)));
            }
        }
        // HELLO with the wrong magic.
        let mut hello = encode_client(&ClientFrame::Hello {
            version: 1,
            config: HelloConfig::default(),
        });
        hello[1] = b'X';
        assert!(matches!(
            decode_client(&hello),
            Err(ProtoError::BadMagic(_))
        ));
        // Truncations at every offset decode to an error, never panic.
        let batch = encode_client(&ClientFrame::Batch {
            seq: 1,
            records: sample_trace(),
        });
        for cut in 0..batch.len() {
            assert!(decode_client(&batch[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes are rejected.
        let mut stats = encode_client(&ClientFrame::Stats);
        stats.push(0);
        assert!(matches!(
            decode_client(&stats),
            Err(ProtoError::TrailingBytes(1))
        ));
        // RESUME carries the same magic guard as HELLO, and truncations
        // at every offset decode to an error.
        let mut resume = encode_client(&ClientFrame::Resume {
            version: 1,
            token: 99,
        });
        for cut in 0..resume.len() {
            assert!(decode_client(&resume[..cut]).is_err(), "cut {cut}");
        }
        resume[1] = b'X';
        assert!(matches!(
            decode_client(&resume),
            Err(ProtoError::BadMagic(_))
        ));
        let ack = encode_server(&ServerFrame::ResumeAck {
            session: 1,
            last_seq: Some(2),
            batches: 3,
            records: 4,
            mispredicts: 5,
            low_confidence: 6,
            max_frame: 7,
            max_inflight: 8,
        });
        for cut in 0..ack.len() {
            assert!(decode_server(&ack[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn snapshot_cells_rebuild_bucket_stats() {
        let mut stats = BucketStats::new();
        for i in 0..100 {
            stats.observe(i % 9, i % 4 == 0);
        }
        let mut cells: Vec<SnapshotCell> = stats
            .iter()
            .map(|(k, c)| (k, c.refs, c.mispredicts))
            .collect();
        cells.sort_unstable_by_key(|&(k, _, _)| k);
        let back = stats_from_cells(&cells).unwrap();
        assert_eq!(back, stats);
        assert!(stats_from_cells(&[(0, 1.0, 2.0)]).is_err());
        assert!(stats_from_cells(&[(0, f64::NAN, 0.0)]).is_err());
    }
}
