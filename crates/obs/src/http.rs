//! Minimal HTTP/1.0 `GET` responder for exposing `/metrics`, `/healthz`,
//! and `/trace`, and the one-request client ([`get`]) that `cira stats`
//! and `cira trace dump` read it with.
//!
//! Just enough HTTP to satisfy a Prometheus scraper or `curl` over
//! `std::net::TcpListener`: one short-lived connection per request, no
//! keep-alive, no TLS, no routing beyond exact paths. The accept loop
//! runs on its own thread, polls a shutdown flag between accepts
//! (non-blocking listener + short sleep), and renders the registry fresh
//! on every scrape. Requests are served one at a time, each within one
//! deadline for reading the request and writing the response, so a
//! client that trickles its bytes delays the next scrape by at most that
//! deadline.
//!
//! Routes:
//!
//! * `GET /metrics` — the Prometheus text exposition of the registry;
//! * `GET /` and `GET /healthz` — liveness plus build version and the
//!   listener's uptime in seconds;
//! * `GET /trace?ms=N` — the flight recorder's retained events from the
//!   last `N` milliseconds (everything retained when `ms` is absent) as
//!   Chrome trace-event JSON. Always valid JSON; an empty event list
//!   when tracing was never initialized.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Registry;

/// When this process's first metrics listener came up — the `/healthz`
/// uptime epoch.
static STARTED: OnceLock<Instant> = OnceLock::new();

/// `/healthz` body: liveness, the workspace version, and whole seconds
/// since the first [`serve_metrics`] call (`0` before one).
fn healthz_body() -> String {
    let uptime = STARTED.get().map_or(0, |t| t.elapsed().as_secs());
    format!(
        "ok\nversion={}\nuptime_seconds={uptime}\n",
        env!("CARGO_PKG_VERSION")
    )
}

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Deadline for one request, from accept to the last byte of the
/// response, so a stalled or trickling client cannot wedge the loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running `/metrics` listener; shut down explicitly or on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful when the caller asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`) and serves `GET /metrics` from
/// `registry` until shutdown. Returns once the listener is bound, so a
/// scrape issued after this call succeeds.
pub fn serve_metrics(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
    STARTED.get_or_init(Instant::now);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("obs-metrics-http".to_string())
        .spawn(move || accept_loop(listener, registry, flag))?;
    Ok(MetricsServer {
        addr: bound,
        shutdown,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, registry: Arc<Registry>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare and the response is one
                // buffered write, so a worker thread would be overkill.
                let _ = handle(stream, &registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Time left until `deadline`, or `TimedOut` once it has passed.
fn remaining(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

fn handle(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    stream.set_nonblocking(false)?;
    let mut buf = [0u8; 1024];
    let mut filled = 0usize;
    // Read until the end of the request line; ignore any headers.
    loop {
        if filled == buf.len() {
            break;
        }
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].contains(&b'\n') {
            break;
        }
    }
    let request_line = match std::str::from_utf8(&buf[..filled]) {
        Ok(s) => s.lines().next().unwrap_or(""),
        Err(_) => "",
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        let query = path.split_once('?').map(|(_, q)| q).unwrap_or("");
        match path.split('?').next().unwrap_or("") {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                registry.render(),
            ),
            "/" | "/healthz" => ("200 OK", "text/plain", healthz_body()),
            "/trace" => {
                // `?ms=N` bounds the dump to the last N milliseconds.
                let window_ns = query
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("ms="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(|ms| ms.saturating_mul(1_000_000));
                (
                    "200 OK",
                    "application/json",
                    crate::trace::dump_chrome_json(window_ns),
                )
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let mut unsent = response.as_bytes();
    while !unsent.is_empty() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        match stream.write(unsent)? {
            0 => return Err(io::ErrorKind::WriteZero.into()),
            n => unsent = &unsent[n..],
        }
    }
    Ok(())
}

/// Sends one HTTP/1.0 `GET path` to `addr` and returns the response's
/// status line (e.g. `HTTP/1.0 200 OK`) and body. `timeout` bounds the
/// connect and each read and write.
///
/// # Errors
///
/// Address resolution, connect and socket errors, and a response with
/// no blank line after its headers.
pub fn get(
    addr: impl ToSocketAddrs,
    path: &str,
    timeout: Duration,
) -> io::Result<(String, String)> {
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "HTTP response without a blank line",
        )
    })?;
    Ok((
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promtext::Exposition;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        super::get(addr, path, Duration::from_secs(10)).unwrap()
    }

    #[test]
    fn serves_metrics_and_404s() {
        let reg = Arc::new(Registry::new("t"));
        reg.counter("ok_total", "Oks", || 11);
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.0 200 OK");
        let doc = Exposition::parse_validated(&body).unwrap();
        assert_eq!(doc.value("t_ok_total"), Some(11.0));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, "HTTP/1.0 404 Not Found");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.0 200 OK");
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("ok"));
        assert_eq!(
            lines.next(),
            Some(format!("version={}", env!("CARGO_PKG_VERSION")).as_str())
        );
        let uptime = lines.next().unwrap();
        assert!(uptime.starts_with("uptime_seconds="), "got {uptime:?}");
        uptime["uptime_seconds=".len()..].parse::<u64>().unwrap();

        server.shutdown();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn a_dribbling_client_cannot_hold_the_listener_past_its_deadline() {
        let reg = Arc::new(Registry::new("t"));
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = server.addr();
        // One byte of a request line every 300 ms: each read finishes well
        // inside any per-call timeout, and the whole line takes 6 s.
        let dribbler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /metrics HTTP/1.0" {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        // Let the accept loop take the dribbler first.
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        let (status, _) = get(addr, "/healthz");
        let waited = t0.elapsed();
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(
            waited < IO_TIMEOUT + Duration::from_secs(1),
            "a concurrent scrape waited {waited:?} behind a dribbling client"
        );
        dribbler.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn serves_trace_json() {
        crate::trace::init(64);
        crate::trace::set_enabled(true);
        crate::trace::instant(crate::trace::Stage::Accept, 0xbeef, 0, 0, 0);
        let reg = Arc::new(Registry::new("t"));
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/trace");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"name\":\"accept\""));

        // A zero-millisecond window keeps metadata but drops old events.
        std::thread::sleep(Duration::from_millis(5));
        let (status, body) = get(addr, "/trace?ms=0");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(body.contains("\"traceEvents\""));
        assert!(!body.contains(&format!("\"trace\":{}", 0xbeef)));
        server.shutdown();
    }
}
