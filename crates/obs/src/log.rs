//! Leveled, structured `key=value` logging.
//!
//! A log record is one line of `key=value` pairs on a single sink
//! (stderr by default, or a file):
//!
//! ```text
//! ts=2026-08-06T14:03:55.017Z level=info target=cira_serve::server msg="listening" addr=127.0.0.1:4917
//! ```
//!
//! The filter level is a process-wide atomic read before any formatting
//! happens, so a disabled call site costs one relaxed load. The level is
//! initialized lazily from the `CIRA_LOG` environment variable (default
//! [`Level::Warn`]) the first time any record is attempted, and a binary
//! can override it explicitly with [`init`] (the CLI's `--log-level` flag
//! does). `CIRA_LOG=off` silences everything, which is what makes the
//! library crates' warnings configurable rather than unconditional
//! `eprintln!` noise.
//!
//! Use through the crate-root macros:
//!
//! ```
//! cira_obs::info!("server started", addr = "127.0.0.1:0", workers = 8);
//! cira_obs::warn!("could not write results file", path = "results/x.csv");
//! ```

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed and no fallback exists.
    Error = 1,
    /// Something unexpected that the process survives (the default filter).
    Warn = 2,
    /// High-level lifecycle events (listeners starting, sessions opening).
    Info = 3,
    /// Per-operation detail (cache misses, per-connection events).
    Debug = 4,
    /// Hot-path detail; expect volume.
    Trace = 5,
}

impl Level {
    /// The lowercase name used on the wire and in `CIRA_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive). `off`/`none` parse as
    /// `None`, meaning "log nothing".
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            "off" | "none" | "0" => Ok(None),
            other => Err(format!(
                "unknown log level {other:?}; expected error|warn|info|debug|trace|off"
            )),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where log lines go.
#[derive(Debug)]
enum Sink {
    Stderr,
    File(std::fs::File),
}

/// 0 = off, 1..=5 = Level, UNSET = not yet initialized.
const UNSET: u8 = 0xFF;
static FILTER: AtomicU8 = AtomicU8::new(UNSET);
static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();

fn sink() -> &'static Mutex<Sink> {
    SINK.get_or_init(|| Mutex::new(Sink::Stderr))
}

/// Initializes the filter from `CIRA_LOG` (default warn) and the sink from
/// `CIRA_LOG_FILE` (default stderr). Called lazily on the first record if
/// no explicit [`init`] happened; calling it again is harmless.
fn init_from_env() -> u8 {
    let level = match std::env::var("CIRA_LOG") {
        Ok(v) => Level::parse(&v).unwrap_or(Some(Level::Warn)),
        Err(_) => Some(Level::Warn),
    };
    if let Ok(path) = std::env::var("CIRA_LOG_FILE") {
        let _ = log_to_file(&path);
    }
    let raw = level.map_or(0, |l| l as u8);
    // Racing initializers agree on the value unless an explicit `init`
    // interleaved — in which case keep the explicit choice.
    let _ = FILTER.compare_exchange(UNSET, raw, Ordering::Relaxed, Ordering::Relaxed);
    FILTER.load(Ordering::Relaxed)
}

/// Sets the filter level explicitly (`None` = log nothing), overriding
/// `CIRA_LOG`. Binaries call this at startup; libraries never should.
pub fn init(level: Option<Level>) {
    FILTER.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Redirects log output to a file (appending). Returns the I/O error if
/// the file cannot be opened; the sink is unchanged on failure.
pub fn log_to_file(path: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    *sink().lock().unwrap_or_else(|e| e.into_inner()) = Sink::File(file);
    Ok(())
}

/// Whether a record at `level` would be emitted. This is the cheap gate
/// the macros check before formatting anything.
#[inline]
pub fn enabled(level: Level) -> bool {
    let f = FILTER.load(Ordering::Relaxed);
    if f == UNSET {
        return (level as u8) <= init_from_env();
    }
    (level as u8) <= f
}

/// Quotes a value if it contains whitespace, quotes, or `=` so the line
/// stays machine-parseable as space-separated `key=value` pairs.
fn push_value(out: &mut String, v: &str) {
    let needs_quotes = v.is_empty() || v.chars().any(|c| c.is_whitespace() || c == '"' || c == '=');
    if !needs_quotes {
        out.push_str(v);
        return;
    }
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a Unix timestamp as `YYYY-MM-DDTHH:MM:SS.mmmZ` (UTC).
/// Days-to-civil conversion per Howard Hinnant's algorithm.
fn format_timestamp(out: &mut String, now: SystemTime) {
    use fmt::Write as _;
    let d = now.duration_since(UNIX_EPOCH).unwrap_or_default();
    let secs = d.as_secs() as i64;
    let millis = d.subsec_millis();
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    let _ = write!(
        out,
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60,
    );
}

/// Formats and writes one record. Callers (the macros) must have checked
/// [`enabled`] first; this function formats unconditionally.
pub fn write_record(
    level: Level,
    target: &str,
    msg: &dyn fmt::Display,
    kvs: &[(&str, &dyn fmt::Display)],
) {
    let mut line = String::with_capacity(96);
    line.push_str("ts=");
    format_timestamp(&mut line, SystemTime::now());
    line.push_str(" level=");
    line.push_str(level.as_str());
    line.push_str(" target=");
    line.push_str(target);
    line.push_str(" msg=");
    push_value(&mut line, &msg.to_string());
    for (k, v) in kvs {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        push_value(&mut line, &v.to_string());
    }
    line.push('\n');
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    // A full disk or closed stderr must never take the process down.
    let _ = match &mut *g {
        Sink::Stderr => std::io::stderr().write_all(line.as_bytes()),
        Sink::File(f) => f.write_all(line.as_bytes()),
    };
}

/// Formats one record into a `String` — the testable core of
/// [`write_record`], also used by tests asserting the line grammar.
pub fn format_record(
    level: Level,
    target: &str,
    msg: &dyn fmt::Display,
    kvs: &[(&str, &dyn fmt::Display)],
) -> String {
    let mut line = String::new();
    line.push_str("level=");
    line.push_str(level.as_str());
    line.push_str(" target=");
    line.push_str(target);
    line.push_str(" msg=");
    push_value(&mut line, &msg.to_string());
    for (k, v) in kvs {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        push_value(&mut line, &v.to_string());
    }
    line
}

/// Logs at an explicit [`Level`]: `log_event!(level, "msg", key = value, ...)`.
///
/// The message is any `Display` value; each trailing `key = value` pair
/// becomes a structured field. Nothing is formatted when the level is
/// disabled.
#[macro_export]
macro_rules! log_event {
    ($lvl:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $lvl;
        if $crate::log::enabled(lvl) {
            $crate::log::write_record(
                lvl,
                module_path!(),
                &$msg,
                &[$((stringify!($k), &$v as &dyn ::core::fmt::Display)),*],
            );
        }
    }};
}

/// Logs at [`Level::Error`]; see [`log_event!`] for the grammar.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::log_event!($crate::log::Level::Error, $($t)*) };
}

/// Logs at [`Level::Warn`]; see [`log_event!`] for the grammar.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::log_event!($crate::log::Level::Warn, $($t)*) };
}

/// Logs at [`Level::Info`]; see [`log_event!`] for the grammar.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::log_event!($crate::log::Level::Info, $($t)*) };
}

/// Logs at [`Level::Debug`]; see [`log_event!`] for the grammar.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::log_event!($crate::log::Level::Debug, $($t)*) };
}

/// Logs at [`Level::Trace`]; see [`log_event!`] for the grammar.
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::log_event!($crate::log::Level::Trace, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("INFO").unwrap(), Some(Level::Info));
        assert_eq!(Level::parse("warning").unwrap(), Some(Level::Warn));
        assert_eq!(Level::parse("off").unwrap(), None);
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn record_grammar_quotes_only_when_needed() {
        let line = format_record(
            Level::Info,
            "cira_obs::log",
            &"hello world",
            &[("n", &42u32), ("path", &"a b\"c")],
        );
        assert_eq!(
            line,
            "level=info target=cira_obs::log msg=\"hello world\" n=42 path=\"a b\\\"c\""
        );
        let bare = format_record(Level::Warn, "t", &"plain", &[]);
        assert_eq!(bare, "level=warn target=t msg=plain");
    }

    #[test]
    fn timestamp_is_iso8601_utc() {
        let mut s = String::new();
        // 2026-08-06 00:01:02.345 UTC.
        let t = UNIX_EPOCH + Duration::from_millis(1_785_974_462_345);
        format_timestamp(&mut s, t);
        assert_eq!(s, "2026-08-06T00:01:02.345Z");
        let mut epoch = String::new();
        format_timestamp(&mut epoch, UNIX_EPOCH);
        assert_eq!(epoch, "1970-01-01T00:00:00.000Z");
    }

    #[test]
    fn explicit_init_controls_enabled() {
        init(Some(Level::Info));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        init(None);
        assert!(!enabled(Level::Error));
        init(Some(Level::Warn));
    }
}
