//! Spans recorded around the benchmark's calls into each layer.
//!
//! Tracing is off unless the traced run turns it on; off, [`span`] is
//! one relaxed load and a direct call. On, each span records its name,
//! start, end, parent span, request id and record/byte count. Spans stay
//! in memory and are written once, when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Enclosing span on the same thread, `0` at top level.
    pub parent: u64,
    /// Layer-qualified name, e.g. `serve.send_batch`.
    pub name: &'static str,
    /// Start and end, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// The request the work belongs to: a grid cell, a batch or a
    /// lifecycle.
    pub req: u64,
    /// Records (or bytes) the call handled.
    pub count: u64,
    /// Small per-thread number, for the trace viewer.
    pub thread: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A fresh request id, unique across the process: a grid cell, a batch
/// or a lifecycle.
pub fn next_req() -> u64 {
    static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, req: u64, count: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let rec = Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req,
        count,
        thread: THREAD.with(|t| *t),
    };
    SPANS.lock().expect("span buffer poisoned").push(rec);
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Writes `spans` as Chrome trace-event JSON (loadable in Perfetto).
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"count\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
            s.count,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        set_enabled(true);
        span("outer", 7, 2, || span("inner", 7, 1, || ()));
        set_enabled(false);
        span("ignored", 0, 0, || ());
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.name != "ignored"));
    }
}
