//! Flight-recorder tracing: per-thread lock-free ring buffers of compact
//! span events, exported as Chrome trace-event JSON.
//!
//! Aggregate metrics ([`crate::metrics`]) answer *how much*; this module
//! answers *where the time went* for one request. Every instrumented
//! thread owns a fixed-capacity SPSC ring of binary span events (48 bytes
//! each: timestamps, trace/span ids, stage, shard, session token). The
//! producer is the owning thread; the single consumer is whoever dumps —
//! an HTTP `GET /trace`, a `SIGUSR1` handler, or an error-path flight
//! dump. The ring **overwrites** its oldest slot
//! when full (that is the flight-recorder contract: the newest window is
//! always retained) and counts what it overwrote, so a dump always reports
//! exactly how much history it lost.
//!
//! # Cost model
//!
//! * **Compiled in, disabled** (the default): every instrumentation site
//!   is gated on [`enabled`] — one relaxed atomic load and a predictable
//!   branch, the same discipline as [`crate::log`] levels. The
//!   `obs_overhead` bench records the measured cost in `BENCH_obs.json`.
//! * **Enabled**: one monotonic clock read per span edge plus six relaxed
//!   atomic stores into the thread's own cache-resident ring. No locks,
//!   no allocation, no cross-thread traffic on the hot path.
//!
//! # Consistency
//!
//! Dumps run concurrently with producers. The reader snapshots a ring by
//! reading `head`, copying the retained window, then re-reading `head`:
//! any slot the producer could have been rewriting during the copy is
//! discarded. Events are therefore never torn — a dump only loses the
//! handful of oldest events that were being overwritten while it ran.
//!
//! # Export
//!
//! [`dump_chrome_json`] renders the merged, time-sorted event set in the
//! Chrome trace-event format, loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): complete (`"X"`) events for
//! spans, instant (`"i"`) events for points, and `thread_name` metadata
//! rows naming each ring.
//!
//! Dumps leave the process over an unauthenticated surface
//! (`GET /trace`), and the raw session resume token is the sole
//! `RESUME` credential — so exports never carry it. The
//! `token` arg in the JSON is [`export_token`]: a per-process keyed
//! one-way hash, stable within a process (every event of one session
//! still correlates) but useless against `RESUME`.

use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `u64` words per ring slot (one encoded event).
const WORDS: usize = 6;

/// Ring capacity (events per thread) used when tracing is switched on
/// without an explicit [`init`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// Shard value recorded for events emitted outside any shard context.
pub const NO_SHARD: u16 = u16::MAX;

/// Lifecycle stage an event belongs to. The discriminants are part of the
/// in-ring encoding; [`Stage::as_str`] is the Chrome event name.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A connection was accepted.
    Accept = 0,
    /// A complete frame was parsed out of a connection's read buffer.
    Parse = 1,
    /// A message crossed a shard inbox (a new connection, a completion
    /// post).
    Inbox = 2,
    /// A batch run was checked out of its connection onto the pool.
    Checkout = 3,
    /// Kernel scoring of one batch run on a worker thread.
    Score = 4,
    /// One kernel chunk inside a scoring call.
    Chunk = 5,
    /// A finished run landed back on its owning shard.
    Complete = 6,
    /// A frame was serialized onto a connection's write queue.
    WriteQueue = 7,
    /// A write-queue flush pushed bytes into the socket.
    WriteFlush = 8,
    /// A parked session was checkpointed to the disk tier.
    ParkSpill = 10,
    /// A parked session was loaded back from the disk tier.
    ParkLoad = 11,
    /// A store page was read.
    PageRead = 12,
    /// A store page was written.
    PageWrite = 13,
    /// The store file was fsynced.
    Fsync = 14,
    /// A fault the flight recorder wants in the timeline (protocol
    /// error, write-deadline miss).
    Fault = 15,
}

impl Stage {
    /// The Chrome trace event name for this stage.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::Inbox => "inbox",
            Stage::Checkout => "checkout",
            Stage::Score => "score",
            Stage::Chunk => "chunk",
            Stage::Complete => "complete",
            Stage::WriteQueue => "write_queue",
            Stage::WriteFlush => "write_flush",
            Stage::ParkSpill => "park_spill",
            Stage::ParkLoad => "park_load",
            Stage::PageRead => "page_read",
            Stage::PageWrite => "page_write",
            Stage::Fsync => "fsync",
            Stage::Fault => "fault",
        }
    }

    fn from_u8(v: u8) -> Stage {
        match v {
            0 => Stage::Accept,
            1 => Stage::Parse,
            2 => Stage::Inbox,
            3 => Stage::Checkout,
            4 => Stage::Score,
            5 => Stage::Chunk,
            6 => Stage::Complete,
            7 => Stage::WriteQueue,
            8 => Stage::WriteFlush,
            10 => Stage::ParkSpill,
            11 => Stage::ParkLoad,
            12 => Stage::PageRead,
            13 => Stage::PageWrite,
            14 => Stage::Fsync,
            _ => Stage::Fault,
        }
    }
}

/// One decoded event, as returned by [`collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the trace epoch (process tracer creation).
    pub start_ns: u64,
    /// Span duration in nanoseconds; `0` marks an instant event.
    pub dur_ns: u64,
    /// Request identity the event belongs to (connection id on the serve
    /// path); `0` when unattributed.
    pub trace_id: u64,
    /// Session resume token, or `0` when no session is attached yet.
    pub token: u64,
    /// Stage-specific payload (records in a batch, page index, bytes).
    pub aux: u64,
    /// Process-unique span id.
    pub span_id: u32,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Shard the event was attributed to, or [`NO_SHARD`].
    pub shard: u16,
    /// Chrome `tid` of the ring that recorded the event.
    pub tid: u16,
}

/// One thread's event ring. Written only by its owning thread; read by
/// dumpers under the seqlock-style discipline described in the module
/// docs. Slots are `AtomicU64` words so concurrent reads of a slot being
/// rewritten are defined (and then discarded by the index check).
#[derive(Debug)]
struct Ring {
    slots: Box<[AtomicU64]>,
    /// Power-of-two event capacity.
    capacity: u64,
    /// Events ever published; `head % capacity` is the next write slot.
    head: AtomicU64,
    /// Chrome `tid` and thread-name metadata for exports.
    tid: u16,
    label: String,
}

impl Ring {
    fn new(capacity: u64, tid: u16, label: String) -> Ring {
        let words = (capacity as usize) * WORDS;
        let mut slots = Vec::with_capacity(words);
        slots.resize_with(words, || AtomicU64::new(0));
        Ring {
            slots: slots.into_boxed_slice(),
            capacity,
            head: AtomicU64::new(0),
            tid,
            label,
        }
    }

    /// Publishes one event (single-producer: only the owning thread).
    fn push(&self, words: &[u64; WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let base = ((head & (self.capacity - 1)) as usize) * WORDS;
        for (i, w) in words.iter().enumerate() {
            self.slots[base + i].store(*w, Ordering::Relaxed);
        }
        // Publish after the slot words: a reader that observes index
        // `head` retained has observed the complete slot.
        self.head.store(head + 1, Ordering::Release);
    }

    /// Events overwritten so far (the wrap-counted drop account).
    fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(self.capacity)
    }

    /// Copies the retained window, discarding any slot the producer
    /// could have been rewriting mid-copy.
    fn collect_into(&self, out: &mut Vec<SpanEvent>) {
        let h1 = self.head.load(Ordering::Acquire);
        let lo = h1.saturating_sub(self.capacity);
        let mut staged: Vec<(u64, [u64; WORDS])> = Vec::with_capacity((h1 - lo) as usize);
        for idx in lo..h1 {
            let base = ((idx & (self.capacity - 1)) as usize) * WORDS;
            let mut w = [0u64; WORDS];
            for (i, word) in w.iter_mut().enumerate() {
                *word = self.slots[base + i].load(Ordering::Relaxed);
            }
            staged.push((idx, w));
        }
        // Seqlock reader fence: the relaxed slot loads above must not be
        // reordered past the head re-read (an Acquire *load* only orders
        // later accesses; on weakly-ordered CPUs a torn slot rewritten
        // after the check could otherwise pass validation).
        std::sync::atomic::fence(Ordering::Acquire);
        let h2 = self.head.load(Ordering::Acquire);
        for (idx, w) in staged {
            // The producer may have been writing any index in `h1..=h2`
            // during the copy; those rewrite slots `idx` with
            // `idx + capacity <= h2`. Everything newer is stable.
            if idx + self.capacity > h2 {
                out.push(decode(&w, self.tid));
            }
        }
    }
}

fn encode(ev: &SpanEvent) -> [u64; WORDS] {
    [
        ev.start_ns,
        ev.dur_ns,
        ev.trace_id,
        ev.token,
        ev.aux,
        u64::from(ev.span_id) | (u64::from(ev.stage as u8) << 32) | (u64::from(ev.shard) << 48),
    ]
}

fn decode(w: &[u64; WORDS], tid: u16) -> SpanEvent {
    SpanEvent {
        start_ns: w[0],
        dur_ns: w[1],
        trace_id: w[2],
        token: w[3],
        aux: w[4],
        span_id: w[5] as u32,
        stage: Stage::from_u8((w[5] >> 32) as u8),
        shard: (w[5] >> 48) as u16,
        tid,
    }
}

/// The process-wide tracer: the ring registry and the trace clock epoch.
#[derive(Debug)]
struct Tracer {
    rings: Mutex<Vec<Arc<Ring>>>,
    capacity: u64,
    epoch: Instant,
    next_span: AtomicU64,
    next_tid: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    /// This thread's ring, registered lazily on first emit.
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    /// Ambient request attribution `(trace_id, token, shard)`, set by the
    /// serve path around work it farms out (scoring, park/store I/O) so
    /// lower layers attribute events without API threading.
    static CTX: std::cell::Cell<(u64, u64, u16)> = const { std::cell::Cell::new((0, 0, NO_SHARD)) };
}

/// Creates the process tracer with `capacity` events per thread ring
/// (rounded up to a power of two, minimum 16). Idempotent: the first call
/// wins; later calls (and [`set_enabled`]) reuse the existing tracer.
/// Recording stays off until [`set_enabled`]`(true)`.
pub fn init(capacity: usize) {
    TRACER.get_or_init(|| Tracer {
        rings: Mutex::new(Vec::new()),
        capacity: capacity.max(16).next_power_of_two() as u64,
        epoch: Instant::now(),
        next_span: AtomicU64::new(1),
        next_tid: AtomicU64::new(0),
    });
}

/// Whether the tracer exists (rings may hold events even while disabled).
pub fn is_initialized() -> bool {
    TRACER.get().is_some()
}

/// Turns event recording on or off. Enabling without a prior [`init`]
/// initializes at [`DEFAULT_CAPACITY`].
pub fn set_enabled(on: bool) {
    if on {
        init(DEFAULT_CAPACITY);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The disabled gate every instrumentation site checks first: one relaxed
/// atomic load, mirroring [`crate::log::enabled`].
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch (`0` before [`init`]).
#[inline]
pub fn now_ns() -> u64 {
    match TRACER.get() {
        Some(t) => t.epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

/// A fresh process-unique span id.
pub fn next_span_id() -> u32 {
    match TRACER.get() {
        Some(t) => t.next_span.fetch_add(1, Ordering::Relaxed) as u32,
        None => 0,
    }
}

/// Registers the calling thread's ring under `label` with Chrome `tid`
/// `tid_hint` (shard threads pass their shard index so trace rows line up
/// with shard numbering). Without this, the ring self-registers on first
/// emit using the thread's name and an allocated tid.
pub fn register_thread(label: &str, tid_hint: Option<u16>) {
    let Some(t) = TRACER.get() else { return };
    let label = label.to_owned();
    LOCAL_RING.with(|cell| {
        cell.get_or_init(|| t.new_ring(label, tid_hint));
    });
}

/// Chrome `tid` base for lazily-registered rings: the upper half of the
/// `u16` range, unreachable by shard tid hints (shard indices are small).
/// Allocation saturates at `u16::MAX` rather than wrapping — colliding
/// tids would merge unrelated threads into one Perfetto row, and a
/// process with 32k+ traced threads has bigger problems.
const LAZY_TID_BASE: u16 = 0x8000;

impl Tracer {
    fn new_ring(&self, label: String, tid_hint: Option<u16>) -> Arc<Ring> {
        let tid = tid_hint.unwrap_or_else(|| {
            let n = self.next_tid.fetch_add(1, Ordering::Relaxed);
            LAZY_TID_BASE.saturating_add(n.min(u64::from(u16::MAX - LAZY_TID_BASE)) as u16)
        });
        let ring = Arc::new(Ring::new(self.capacity, tid, label));
        self.rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    }
}

fn emit(ev: &SpanEvent) {
    let Some(t) = TRACER.get() else { return };
    let words = encode(ev);
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let label = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| "unnamed".to_owned());
            t.new_ring(label, None)
        });
        ring.push(&words);
    });
}

/// Sets the calling thread's ambient request attribution; picked up by
/// [`Span::begin_ctx`]/[`instant_ctx`] in layers that don't know the
/// request (engine chunks, store page I/O).
pub fn set_ctx(trace_id: u64, token: u64, shard: u16) {
    CTX.with(|c| c.set((trace_id, token, shard)));
}

/// Clears the ambient attribution set by [`set_ctx`].
pub fn clear_ctx() {
    CTX.with(|c| c.set((0, 0, NO_SHARD)));
}

/// The calling thread's ambient `(trace_id, token, shard)` attribution.
pub fn ctx() -> (u64, u64, u16) {
    CTX.with(|c| c.get())
}

/// An in-progress span. Created armed only while tracing is enabled;
/// [`end`](Span::end) on a disarmed span is a branch and nothing else.
/// Dropping a span without ending it records nothing by design (error
/// paths bail without cleanup obligations).
#[derive(Debug)]
#[must_use = "a span records only when ended"]
pub struct Span {
    start_ns: u64,
    trace_id: u64,
    token: u64,
    span_id: u32,
    stage: Stage,
    shard: u16,
    armed: bool,
}

impl Span {
    /// Opens a span with explicit attribution. One relaxed load when
    /// tracing is disabled.
    #[inline]
    pub fn begin(stage: Stage, trace_id: u64, token: u64, shard: u16) -> Span {
        if !enabled() {
            return Span {
                start_ns: 0,
                trace_id: 0,
                token: 0,
                span_id: 0,
                stage,
                shard: 0,
                armed: false,
            };
        }
        Span {
            start_ns: now_ns(),
            trace_id,
            token,
            span_id: next_span_id(),
            stage,
            shard,
            armed: true,
        }
    }

    /// Opens a span attributed from the thread's ambient [`ctx`].
    #[inline]
    pub fn begin_ctx(stage: Stage) -> Span {
        if !enabled() {
            return Span::begin(stage, 0, 0, 0); // disarmed: gate re-checked
        }
        let (trace_id, token, shard) = ctx();
        Span::begin(stage, trace_id, token, shard)
    }

    /// Closes the span, recording its duration.
    #[inline]
    pub fn end(self) {
        self.end_with(0);
    }

    /// Closes the span with a stage-specific payload (batch records,
    /// page index, bytes flushed).
    #[inline]
    pub fn end_with(self, aux: u64) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        emit(&SpanEvent {
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns).max(1),
            trace_id: self.trace_id,
            token: self.token,
            aux,
            span_id: self.span_id,
            stage: self.stage,
            shard: self.shard,
            tid: 0,
        });
    }
}

/// Records an instant event with explicit attribution.
#[inline]
pub fn instant(stage: Stage, trace_id: u64, token: u64, shard: u16, aux: u64) {
    if !enabled() {
        return;
    }
    emit(&SpanEvent {
        start_ns: now_ns(),
        dur_ns: 0,
        trace_id,
        token,
        aux,
        span_id: next_span_id(),
        stage,
        shard,
        tid: 0,
    });
}

/// Records an instant event attributed from the thread's ambient [`ctx`].
#[inline]
pub fn instant_ctx(stage: Stage, aux: u64) {
    if !enabled() {
        return;
    }
    let (trace_id, token, shard) = ctx();
    instant(stage, trace_id, token, shard, aux);
}

/// Recorder totals: what is retained and what the wrap overwrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events ever recorded across all rings.
    pub recorded: u64,
    /// Events overwritten by ring wrap (lost to dumps).
    pub dropped: u64,
    /// Registered rings (instrumented threads seen so far).
    pub rings: usize,
}

/// Aggregated recorder totals across every registered ring.
pub fn stats() -> TraceStats {
    let Some(t) = TRACER.get() else {
        return TraceStats::default();
    };
    let rings = t.rings.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = TraceStats {
        rings: rings.len(),
        ..TraceStats::default()
    };
    for ring in rings.iter() {
        out.recorded += ring.head.load(Ordering::Relaxed);
        out.dropped += ring.dropped();
    }
    out
}

/// Collects the retained events from every ring, newest windows merged
/// and sorted by start time. `window_ns = Some(w)` keeps only events
/// ending within the last `w` nanoseconds.
pub fn collect(window_ns: Option<u64>) -> Vec<SpanEvent> {
    let Some(t) = TRACER.get() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    {
        let rings = t.rings.lock().unwrap_or_else(|e| e.into_inner());
        for ring in rings.iter() {
            ring.collect_into(&mut out);
        }
    }
    if let Some(w) = window_ns {
        let cutoff = now_ns().saturating_sub(w);
        out.retain(|ev| ev.start_ns + ev.dur_ns >= cutoff);
    }
    out.sort_by_key(|ev| (ev.start_ns, ev.span_id));
    out
}

/// splitmix64 finalizer: the keyed one-way mix behind [`export_token`].
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-process export key: wall clock, pid, and static-address entropy,
/// minted once and never exported.
fn export_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| {
        let wall = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &KEY as *const _ as u64;
        splitmix64(wall ^ aslr.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(17)) | 1
    })
}

/// The session-token value dumps export in place of the raw resume
/// token. Raw tokens are the sole `RESUME` credential and dumps are
/// served to any client that can reach the metrics port (`GET /trace`),
/// so exports carry a keyed one-way
/// hash instead: stable within a process — every event of one session
/// maps to the same value, preserving correlation — but unusable to
/// hijack a parked session. `0` (no session attached) stays `0`.
pub fn export_token(token: u64) -> u64 {
    if token == 0 {
        return 0;
    }
    splitmix64(token ^ export_key())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the retained events as a Chrome trace-event JSON document
/// (object form, `traceEvents` array), loadable in `chrome://tracing` and
/// Perfetto. Always valid JSON, even before [`init`] (empty event list).
/// Session tokens are exported through [`export_token`] — raw resume
/// credentials never leave the process.
pub fn dump_chrome_json(window_ns: Option<u64>) -> String {
    let events = collect(window_ns);
    let s = stats();
    let mut out = String::with_capacity(events.len() * 120 + 512);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    {
        let push = |s: &mut String, first: &mut bool, line: String| {
            if !*first {
                s.push(',');
            }
            *first = false;
            s.push('\n');
            s.push_str(&line);
        };
        push(
            &mut out,
            &mut first,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"cira\"}}"
                .to_owned(),
        );
        if let Some(t) = TRACER.get() {
            let rings = t.rings.lock().unwrap_or_else(|e| e.into_inner());
            for ring in rings.iter() {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        ring.tid,
                        json_escape(&ring.label)
                    ),
                );
            }
        }
        for ev in &events {
            let ts = ev.start_ns as f64 / 1000.0;
            let common = format!(
                "\"cat\":\"cira\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"trace\":{},\"token\":{},\"span\":{},\"aux\":{},\"shard\":{}}}",
                ev.tid,
                ev.trace_id,
                export_token(ev.token),
                ev.span_id,
                ev.aux,
                ev.shard,
            );
            let line = if ev.dur_ns > 0 {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"dur\":{:.3},{common}}}",
                    ev.stage.as_str(),
                    ev.dur_ns as f64 / 1000.0,
                )
            } else {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",{common}}}",
                    ev.stage.as_str(),
                )
            };
            push(&mut out, &mut first, line);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"recorded\":{},\"dropped\":{},\"rings\":{}}}}}\n",
        s.recorded, s.dropped, s.rings
    ));
    out
}

/// Dump-file sequence number (keeps concurrent dump names unique).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
/// Trace-epoch ns of the last throttled flight dump.
static LAST_FLIGHT_NS: AtomicU64 = AtomicU64::new(0);
/// Minimum spacing between throttled flight dumps.
const FLIGHT_GAP_NS: u64 = 1_000_000_000;

/// Writes the full retained trace to `$CIRA_TRACE_DIR` as
/// `cira-trace-<pid>-<reason>-<seq>.json`. Returns the path written, or
/// `None` when the env var is unset, tracing is off, or the write failed
/// (logged, never fatal).
pub fn dump_to_dir(reason: &str) -> Option<PathBuf> {
    if !is_initialized() {
        return None;
    }
    let dir = std::env::var_os("CIRA_TRACE_DIR")?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let reason: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = PathBuf::from(dir).join(format!(
        "cira-trace-{}-{reason}-{seq}.json",
        std::process::id()
    ));
    match std::fs::write(&path, dump_chrome_json(None)) {
        Ok(()) => {
            crate::info!("trace dumped", path = path.display(), reason = reason);
            Some(path)
        }
        Err(e) => {
            crate::warn!("trace dump failed", path = path.display(), error = e);
            None
        }
    }
}

/// The throttle gate for [`flight_dump`]: claims a dump slot for trace
/// time `now`, refusing within [`FLIGHT_GAP_NS`] of the last claim.
/// `LAST_FLIGHT_NS == 0` means "never dumped" — the first fault after
/// tracer init must dump even though `now` is still near the epoch.
fn flight_gate(now: u64) -> bool {
    let last = LAST_FLIGHT_NS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < FLIGHT_GAP_NS {
        return false;
    }
    // `max(1)` keeps a claim at epoch ns 0 from reading as "never".
    LAST_FLIGHT_NS
        .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// The error-path flight dump: like [`dump_to_dir`] but gated on tracing
/// being enabled and throttled to one dump per second, so a storm of
/// protocol errors cannot flood the disk.
pub fn flight_dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    if !flight_gate(now_ns()) {
        return None;
    }
    dump_to_dir(reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared-process discipline: tests share the one global tracer, so
    /// each filters on its own unique trace ids and never asserts on the
    /// global totals alone.
    fn unique_trace_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0x7000_0000);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    fn setup() {
        init(64);
        set_enabled(true);
    }

    #[test]
    fn disabled_gate_records_nothing() {
        init(64);
        set_enabled(false);
        let id = unique_trace_id();
        let span = Span::begin(Stage::Score, id, 0, 0);
        span.end();
        instant(Stage::Accept, id, 0, 0, 0);
        // Back on for the other tests in this process (enable-only, like
        // the server: concurrent tests must never switch each other off).
        set_enabled(true);
        assert!(
            collect(None).iter().all(|ev| ev.trace_id != id),
            "no event may be recorded while disabled"
        );
    }

    #[test]
    fn span_and_instant_round_trip() {
        setup();
        let id = unique_trace_id();
        let span = Span::begin(Stage::Parse, id, 42, 3);
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.end_with(7);
        instant(Stage::Complete, id, 42, 3, 9);
        let events: Vec<SpanEvent> = collect(None)
            .into_iter()
            .filter(|ev| ev.trace_id == id)
            .collect();
        assert_eq!(events.len(), 2);
        let parse = events.iter().find(|e| e.stage == Stage::Parse).unwrap();
        assert!(parse.dur_ns >= 1_000_000, "span measured its sleep");
        assert_eq!((parse.token, parse.shard, parse.aux), (42, 3, 7));
        let done = events.iter().find(|e| e.stage == Stage::Complete).unwrap();
        assert_eq!(done.dur_ns, 0, "instant events have no duration");
        assert_eq!(done.aux, 9);
    }

    #[test]
    fn ring_wrap_counts_drops_and_keeps_newest() {
        setup();
        let id = unique_trace_id();
        // A dedicated thread gets a fresh ring, so wrap accounting is
        // exact: capacity rounds to 64, so 100 events overwrite 36.
        let (kept, dropped) = std::thread::spawn(move || {
            register_thread("wrap-test", None);
            let before = stats().dropped;
            for i in 0..100u64 {
                instant(Stage::Chunk, id, 0, 0, i);
            }
            let kept: Vec<u64> = collect(None)
                .into_iter()
                .filter(|ev| ev.trace_id == id)
                .map(|ev| ev.aux)
                .collect();
            (kept, stats().dropped - before)
        })
        .join()
        .unwrap();
        assert_eq!(dropped, 36, "wrap-counted drop accounting");
        // A wrapped ring proves capacity-1 slots stable: the oldest
        // retained index shares its slot with the producer's next write,
        // so the snapshot discards it rather than risk a torn read.
        assert_eq!(
            kept,
            (37..100).collect::<Vec<u64>>(),
            "newest window retained"
        );
    }

    #[test]
    fn ctx_flows_into_ctx_spans() {
        setup();
        let id = unique_trace_id();
        set_ctx(id, 77, 5);
        let span = Span::begin_ctx(Stage::Chunk);
        span.end_with(11);
        instant_ctx(Stage::PageRead, 3);
        clear_ctx();
        instant_ctx(Stage::PageWrite, 4);
        let events: Vec<SpanEvent> = collect(None)
            .into_iter()
            .filter(|ev| ev.trace_id == id)
            .collect();
        assert_eq!(events.len(), 2, "cleared ctx no longer attributes");
        assert!(events.iter().all(|ev| ev.token == 77 && ev.shard == 5));
    }

    #[test]
    fn chrome_dump_is_balanced_json_with_events() {
        setup();
        let id = unique_trace_id();
        let span = Span::begin(Stage::Score, id, 1, 0);
        span.end();
        let json = dump_chrome_json(None);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"score\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"dropped\":"));
        // Structural well-formedness: braces and brackets balance and
        // every quote is closed (no registry JSON parser to lean on).
        let bytes = json.as_bytes();
        let (mut depth, mut sq) = (0i64, 0i64);
        let mut in_str = false;
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' if in_str => i += 1,
                b'"' => in_str = !in_str,
                b'{' if !in_str => depth += 1,
                b'}' if !in_str => depth -= 1,
                b'[' if !in_str => sq += 1,
                b']' if !in_str => sq -= 1,
                _ => {}
            }
            assert!(depth >= 0 && sq >= 0);
            i += 1;
        }
        assert_eq!((depth, sq), (0, 0), "balanced braces/brackets");
        assert!(!in_str, "all strings closed");
    }

    #[test]
    fn window_filters_old_events() {
        setup();
        let id = unique_trace_id();
        instant(Stage::Accept, id, 0, 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        instant(Stage::Accept, id, 0, 0, 2);
        let recent: Vec<u64> = collect(Some(10_000_000)) // 10 ms
            .into_iter()
            .filter(|ev| ev.trace_id == id)
            .map(|ev| ev.aux)
            .collect();
        assert_eq!(recent, vec![2], "only the event inside the window");
        let all: Vec<u64> = collect(None)
            .into_iter()
            .filter(|ev| ev.trace_id == id)
            .map(|ev| ev.aux)
            .collect();
        assert_eq!(all, vec![1, 2]);
    }

    #[test]
    fn concurrent_dump_never_tears() {
        setup();
        let id = unique_trace_id();
        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            register_thread("tear-test", None);
            let mut i = 0u64;
            while !writer_stop.load(Ordering::Relaxed) {
                // aux always mirrors token: a torn read would break the
                // invariant.
                instant(Stage::Chunk, id, i, 0, i);
                i += 1;
            }
        });
        for _ in 0..50 {
            for ev in collect(None).into_iter().filter(|ev| ev.trace_id == id) {
                assert_eq!(ev.token, ev.aux, "torn event escaped the seqlock");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn dump_redacts_session_tokens() {
        setup();
        let id = unique_trace_id();
        // A recognizable credential: its raw decimal must never appear in
        // an export, while both events must share one exported value.
        let token = 0xDEAD_BEEF_CAFE_F00Du64;
        instant(Stage::ParkSpill, id, token, 0, 1);
        instant(Stage::ParkLoad, id, token, 0, 2);
        assert_ne!(export_token(token), token);
        assert_eq!(
            export_token(token),
            export_token(token),
            "stable per process"
        );
        assert_eq!(export_token(0), 0, "no-session marker survives");
        let json = dump_chrome_json(None);
        assert!(
            !json.contains(&format!("\"token\":{token}")),
            "raw resume token leaked into the export"
        );
        assert!(
            json.contains(&format!("\"token\":{}", export_token(token))),
            "hashed token missing — correlation lost"
        );
    }

    #[test]
    fn flight_gate_permits_the_first_dump_then_throttles() {
        // Only this test touches the throttle state.
        LAST_FLIGHT_NS.store(0, Ordering::Relaxed);
        assert!(flight_gate(10), "first fault right after init must dump");
        assert!(!flight_gate(20), "second fault inside the gap is throttled");
        assert!(flight_gate(10 + FLIGHT_GAP_NS), "gap elapsed: dump again");
    }

    #[test]
    fn dump_to_dir_requires_env() {
        init(64);
        // The suite must not depend on the environment: only assert the
        // no-env behavior (the env-driven path is covered end to end by
        // the serve flight-recorder tests).
        if std::env::var_os("CIRA_TRACE_DIR").is_none() {
            assert_eq!(dump_to_dir("unit"), None);
        }
    }
}
