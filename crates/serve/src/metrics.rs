//! Live server-wide metrics: lock-free counters, gauges, and histograms
//! from [`cira_obs`], read through the `STATS` frame
//! ([`ServerMetrics::snapshot`]) and the registry behind HTTP
//! `GET /metrics` ([`ServerMetrics::register`], [`register_shards`]).
//!
//! Each instrument is declared once, as one line of a `metrics_block!`
//! table: its kind, its field (which is also its `STATS` name), its
//! exposition name, and its help text (which is also the field's doc).
//! The struct, its `Default`, and both readouts come from that table.

use std::sync::Arc;
use std::time::Instant;

use cira_obs::{Counter, Gauge, Histogram, Registry};

use crate::proto::code;

/// Protocol-error codes with a dedicated breakdown slot, in wire order.
/// Index 0 is the catch-all for violations that never produce an `ERROR`
/// frame (mid-frame disconnects and stalls).
const ERROR_SLOTS: usize = 10;

/// The breakdown label for `protocol_errors` slot `i`.
fn error_slot_name(i: usize) -> &'static str {
    match i as u16 {
        code::MALFORMED => "malformed",
        code::UNSUPPORTED_VERSION => "unsupported_version",
        code::BAD_SPEC => "bad_spec",
        code::OVERSIZED => "oversized",
        code::HELLO_REQUIRED => "hello_required",
        code::SHUTTING_DOWN => "shutting_down",
        code::UNKNOWN_SESSION => "unknown_session",
        code::IDLE_TIMEOUT => "idle_timeout",
        code::STORE_FULL => "store_full",
        _ => "stalled",
    }
}

/// How a table entry reaches its instrument in the metrics block `M`;
/// the variant is the instrument's kind.
enum Read<M> {
    Counter(fn(&M) -> &Counter),
    Gauge(fn(&M) -> &Gauge),
    Histogram(fn(&M) -> &Histogram),
}

/// One instrument as its table line declares it.
struct Instrument<M> {
    /// The field name, which is also the `STATS` name.
    name: &'static str,
    /// The exposition name, before the registry's prefix.
    prom: &'static str,
    help: &'static str,
    read: Read<M>,
}

/// Declares a metrics block from one line per instrument,
/// `Kind field, "exposition_name", "help text";`, grouped into named
/// sections. It generates the struct (the help text is each field's
/// doc), its `Default`, and one [`Instrument`] table per section, in
/// line order. Fields written in the struct body are read by hand and
/// start from the value given there.
macro_rules! metrics_block {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$xattr:meta])* $xfield:ident: $xty:ty = $xinit:expr,)*
        }
        $(
            $(#[$sattr:meta])*
            const $section:ident = [$($kind:ident $field:ident, $prom:literal, $help:literal;)*];
        )+
    ) => {
        $(#[$attr])*
        #[derive(Debug)]
        pub struct $name {
            $($(#[$xattr])* $xfield: $xty,)*
            $($(#[doc = $help] pub $field: $kind,)*)+
        }

        impl Default for $name {
            fn default() -> Self {
                Self {
                    $($xfield: $xinit,)*
                    $($($field: $kind::new(),)*)+
                }
            }
        }

        impl $name {
            $(
                $(#[$sattr])*
                const $section: &'static [Instrument<Self>] = &[$(Instrument {
                    name: stringify!($field),
                    prom: $prom,
                    help: $help,
                    read: Read::$kind(|m| &m.$field),
                },)*];
            )+
        }
    };
}

/// Appends the `STATS` pair of every counter and gauge in `table`
/// (gauges clamp at zero); histograms have no `STATS` name.
fn push_stats<M>(m: &M, table: &[Instrument<M>], out: &mut Vec<(String, u64)>) {
    for i in table {
        let value = match i.read {
            Read::Counter(f) => f(m).get(),
            Read::Gauge(f) => f(m).get().max(0) as u64,
            Read::Histogram(_) => continue,
        };
        out.push((i.name.to_owned(), value));
    }
}

/// Registers every instrument in `table` on `reg`, each series carrying
/// `labels`. Takes an [`Arc`] because the registry closures read the
/// block on every scrape.
fn register_table<M: Send + Sync + 'static>(
    m: &Arc<M>,
    table: &[Instrument<M>],
    reg: &Registry,
    labels: &[(&str, &str)],
) {
    for i in table {
        let m = Arc::clone(m);
        match i.read {
            Read::Counter(f) => reg.counter_with(i.prom, i.help, labels, move || f(&m).get()),
            Read::Gauge(f) => reg.gauge_with(i.prom, i.help, labels, move || f(&m).get()),
            Read::Histogram(f) => {
                reg.histogram_with(i.prom, i.help, labels, move || f(&m).snapshot())
            }
        }
    }
}

metrics_block! {
    /// Monotonic counters, gauges, and histograms describing everything the
    /// server has done since start. All updates are relaxed: metrics are
    /// observational and never synchronize data.
    pub struct ServerMetrics {
        /// When this metrics block (i.e. the server) was created.
        started: Instant = Instant::now(),
        /// Connections dropped for protocol violations, broken down by
        /// error code (slot 0 collects violations with no `ERROR` frame:
        /// mid-frame disconnects and stalls). Increment via
        /// [`ServerMetrics::protocol_error`]; total via
        /// [`ServerMetrics::protocol_errors_total`].
        protocol_errors: [Counter; ERROR_SLOTS] = Default::default(),
    }
    /// Rev 1.0. In `STATS` the protocol-error total, `uptime_seconds` and
    /// the breakdown follow them; in the exposition the uptime precedes
    /// them and the per-code family follows.
    const REV_1_0 = [
        Counter connections_total, "server_connections_total", "Connections ever accepted";
        Gauge connections_active, "server_connections_active", "Connections currently open";
        Counter sessions_opened, "server_sessions_opened_total",
            "Sessions successfully negotiated";
        Counter sessions_reset, "server_sessions_reset_total", "Session resets performed";
        Counter frames_in, "server_frames_in_total", "Frames read from clients";
        Counter frames_out, "server_frames_out_total", "Frames written to clients";
        Counter bytes_in, "server_bytes_in_total", "Bytes of frame bodies read";
        Counter bytes_out, "server_bytes_out_total", "Bytes of frame bodies written";
        Counter batches, "session_batches_total", "BATCH frames processed";
        Counter records, "session_records_total", "Branch records scored and trained";
        Counter mispredicts, "session_mispredicts_total", "Mispredicted records";
        Counter low_confidence, "session_low_confidence_total",
            "Low-confidence records (key below the session threshold)";
        Histogram batch_records, "session_batch_records", "Records per BATCH frame";
        Histogram batch_service_us, "session_batch_service_us",
            "Wall-clock time to score one BATCH in microseconds";
    ];
    /// Rev 1.2 on: resumption and shedding (1.2), the durable park tier
    /// (1.3), the event loop's recovery (1.4), and the durability
    /// thread's syncs.
    const REV_1_2 = [
        Gauge sessions_live, "server_sessions_live",
            "Sessions alive right now (attached or parked)";
        Counter sessions_parked, "server_sessions_parked_total",
            "Sessions parked by a PARK frame or an unclean disconnect";
        Counter sessions_resumed, "server_sessions_resumed_total",
            "Sessions re-attached via RESUME";
        Counter resume_attempts, "server_resume_attempts_total",
            "RESUME frames received, successful or not";
        Counter resume_failures, "server_resume_failures_total",
            "RESUME frames that named no parked session";
        Counter sessions_shed, "server_sessions_shed_total",
            "HELLOs shed with BUSY at session capacity";
        Counter park_evicted_ttl, "server_park_evicted_ttl_total",
            "Parked sessions evicted by the TTL sweep";
        Counter park_evicted_capacity, "server_park_evicted_capacity_total",
            "Parked sessions evicted to make room for newer ones";
        Counter sessions_idle_evicted, "server_sessions_idle_evicted_total",
            "Sessions closed by the idle timeout";
        Counter park_spilled, "server_park_spilled_total",
            "Parked sessions dropped from the hot tier with their disk copy kept";
        Counter park_loaded, "server_park_loaded_total",
            "Resumes served by decoding a disk checkpoint";
        Counter park_store_full, "server_park_store_full_total",
            "Parks refused because the disk tier was at capacity";
        Gauge park_disk_records, "server_park_disk_records",
            "Checkpoint records currently in the disk tier";
        Gauge park_disk_bytes, "server_park_disk_bytes",
            "Bytes of live checkpoint pages in the disk tier";
        Gauge store_recovery_ms, "server_store_recovery_ms",
            "Wall-clock milliseconds of the startup park recovery scan";
        Histogram park_sync_us, "server_park_sync_us",
            "Wall-clock microseconds of one park page-file sync";
    ];
}

impl ServerMetrics {
    /// A zeroed metrics block whose uptime clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whole seconds since this server started.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Accounts one scored `BATCH`: its records, mispredictions and
    /// low-confidence records, and the time scoring it took.
    pub fn record_batch(
        &self,
        records: u64,
        mispredicts: u64,
        low_confidence: u64,
        service_us: u64,
    ) {
        self.batches.inc();
        self.records.add(records);
        self.mispredicts.add(mispredicts);
        self.low_confidence.add(low_confidence);
        self.batch_records.record(records);
        self.batch_service_us.record(service_us);
    }

    /// Counts one protocol violation under its `ERROR`-frame code (use
    /// `0` for violations that send no frame: disconnects, stalls).
    pub fn protocol_error(&self, code: u16) {
        let slot = if (code as usize) < ERROR_SLOTS {
            code as usize
        } else {
            0
        };
        self.protocol_errors[slot].inc();
    }

    /// Protocol violations across all error codes.
    pub fn protocol_errors_total(&self) -> u64 {
        self.protocol_errors.iter().map(Counter::get).sum()
    }

    /// Violations recorded under one error code (`0` = no-frame slot).
    pub fn protocol_errors_for(&self, code: u16) -> u64 {
        if (code as usize) < ERROR_SLOTS {
            self.protocol_errors[code as usize].get()
        } else {
            0
        }
    }

    /// All counters and gauges as stable `(name, value)` pairs — the
    /// `STATS_REPLY` payload.
    ///
    /// Protocol rev 1.1 appended names (`uptime_seconds` and the
    /// `protocol_errors_*` breakdown) after the original thirteen, and
    /// later revisions after those; the pair encoding is
    /// self-describing, so clients that look up the names they know keep
    /// working unchanged.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        push_stats(self, Self::REV_1_0, &mut out);
        out.push(("protocol_errors".into(), self.protocol_errors_total()));
        out.push(("uptime_seconds".into(), self.uptime_seconds()));
        for (i, c) in self.protocol_errors.iter().enumerate() {
            out.push((format!("protocol_errors_{}", error_slot_name(i)), c.get()));
        }
        push_stats(self, Self::REV_1_2, &mut out);
        out
    }

    /// Registers every instrument on `reg` under `server_*`/`session_*`
    /// names, plus build provenance and the flight recorder's event
    /// counts. Takes an [`Arc`] because the registry closures read the
    /// metrics on every scrape.
    pub fn register(self: &Arc<Self>, reg: &Registry) {
        let m = Arc::clone(self);
        reg.gauge(
            "server_uptime_seconds",
            "Whole seconds since the server started",
            move || m.uptime_seconds() as i64,
        );
        register_table(self, Self::REV_1_0, reg, &[]);
        for slot in 0..ERROR_SLOTS {
            let m = Arc::clone(self);
            reg.counter_with(
                "server_protocol_errors_total",
                "Connections dropped for protocol violations, by error code",
                &[("code", error_slot_name(slot))],
                move || m.protocol_errors[slot].get(),
            );
        }
        register_table(self, Self::REV_1_2, reg, &[]);
        // Rev 1.5: build provenance and flight-recorder instruments.
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        reg.gauge_with(
            "build_info",
            "Build provenance; the value is always 1",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("rustc", env!("CIRA_RUSTC_VERSION")),
                ("kernel", &kernel),
            ],
            || 1,
        );
        reg.counter(
            "trace_events_recorded_total",
            "Flight-recorder span events recorded across all rings",
            || cira_obs::trace::stats().recorded,
        );
        reg.counter(
            "trace_events_dropped_total",
            "Flight-recorder span events overwritten by ring wrap",
            || cira_obs::trace::stats().dropped,
        );
    }
}

metrics_block! {
    /// One event-loop shard's instruments (rev 1.4). Each shard owns one
    /// block, updated lock-free from its own thread; the registry exposes
    /// them as labeled series (`shard="N"`) under per-family names.
    pub struct ShardMetrics {}
    /// Every shard instrument; none is in `STATS`.
    const ALL = [
        Gauge connections, "serve_shard_connections",
            "Connections currently registered on this shard";
        Counter wakeups, "serve_shard_wakeups_total",
            "epoll_wait returns that delivered events on this shard";
        Gauge ready_depth, "serve_shard_ready_depth",
            "Parsed frames queued on this shard awaiting the pump";
        Gauge parse_buffer_bytes, "serve_shard_parse_buffer_bytes",
            "Bytes buffered in this shard's per-connection parse buffers";
    ];
}

/// Registers every shard's instruments on `reg`, shard `i`'s series
/// labeled `shard="i"`.
pub fn register_shards(shards: &[Arc<ShardMetrics>], reg: &Registry) {
    for (i, shard) in shards.iter().enumerate() {
        register_table(shard, ShardMetrics::ALL, reg, &[("shard", &i.to_string())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServerMetrics::new();
        m.connections_total.inc();
        m.records.add(500);
        let snap = m.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("connections_total"), 1);
        assert_eq!(get("records"), 500);
        assert_eq!(get("batches"), 0);
        // Names are unique and stable.
        let mut names: Vec<_> = snap.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), snap.len());
        // The original 13 rev-1.0 names still lead the payload.
        assert_eq!(snap[0].0, "connections_total");
        assert_eq!(snap[12].0, "protocol_errors");
    }

    #[test]
    fn protocol_errors_break_down_by_code() {
        let m = ServerMetrics::new();
        m.protocol_error(code::MALFORMED);
        m.protocol_error(code::MALFORMED);
        m.protocol_error(code::BAD_SPEC);
        m.protocol_error(0); // stall / disconnect
        m.protocol_error(999); // unknown codes fold into the stall slot
        assert_eq!(m.protocol_errors_total(), 5);
        assert_eq!(m.protocol_errors_for(code::MALFORMED), 2);
        assert_eq!(m.protocol_errors_for(code::BAD_SPEC), 1);
        assert_eq!(m.protocol_errors_for(0), 2);
        let snap = m.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("protocol_errors"), 5);
        assert_eq!(get("protocol_errors_malformed"), 2);
        assert_eq!(get("protocol_errors_stalled"), 2);
        // The lump counter always equals the sum of the breakdown.
        let breakdown: u64 = (0..ERROR_SLOTS as u16)
            .map(|c| m.protocol_errors_for(c))
            .sum();
        assert_eq!(get("protocol_errors"), breakdown);
    }

    #[test]
    fn registry_covers_all_families() {
        let m = Arc::new(ServerMetrics::new());
        m.record_batch(1024, 30, 200, 250);
        m.protocol_error(code::OVERSIZED);
        let reg = Registry::new("cira");
        m.register(&reg);
        let text = reg.render();
        let doc = cira_obs::promtext::Exposition::parse_validated(&text).unwrap();
        assert_eq!(doc.value("cira_session_batches_total"), Some(1.0));
        assert_eq!(doc.value("cira_session_records_total"), Some(1024.0));
        assert_eq!(doc.value("cira_session_mispredicts_total"), Some(30.0));
        assert_eq!(doc.value("cira_session_low_confidence_total"), Some(200.0));
        assert_eq!(
            doc.histogram("cira_session_batch_records").unwrap().count,
            1
        );
        assert_eq!(
            doc.histogram("cira_session_batch_service_us")
                .unwrap()
                .count,
            1
        );
        let errs = doc.family("cira_server_protocol_errors_total").unwrap();
        assert_eq!(errs.samples.len(), ERROR_SLOTS);
        assert!(text.contains("cira_server_protocol_errors_total{code=\"oversized\"} 1"));
    }

    #[test]
    fn resume_counters_in_snapshot_and_exposition() {
        let m = Arc::new(ServerMetrics::new());
        m.sessions_live.inc();
        m.sessions_parked.inc();
        m.sessions_resumed.inc();
        m.resume_attempts.add(2);
        m.resume_failures.inc();
        m.sessions_shed.add(3);
        m.park_evicted_ttl.inc();
        m.park_evicted_capacity.inc();
        m.sessions_idle_evicted.inc();
        let snap = m.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("sessions_live"), 1);
        assert_eq!(get("sessions_parked"), 1);
        assert_eq!(get("sessions_resumed"), 1);
        assert_eq!(get("resume_attempts"), 2);
        assert_eq!(get("resume_failures"), 1);
        assert_eq!(get("sessions_shed"), 3);
        assert_eq!(get("park_evicted_ttl"), 1);
        assert_eq!(get("park_evicted_capacity"), 1);
        assert_eq!(get("sessions_idle_evicted"), 1);
        // And on the Prometheus side.
        let reg = Registry::new("cira");
        m.register(&reg);
        let text = reg.render();
        let doc = cira_obs::promtext::Exposition::parse_validated(&text).unwrap();
        assert_eq!(doc.value("cira_server_sessions_resumed_total"), Some(1.0));
        assert_eq!(doc.value("cira_server_sessions_shed_total"), Some(3.0));
        assert_eq!(doc.value("cira_server_resume_attempts_total"), Some(2.0));
        assert_eq!(doc.value("cira_server_sessions_parked_total"), Some(1.0));
        assert_eq!(doc.value("cira_server_sessions_live"), Some(1.0));
    }

    #[test]
    fn park_store_instruments_in_snapshot_and_exposition() {
        let m = Arc::new(ServerMetrics::new());
        m.park_spilled.add(4);
        m.park_loaded.add(2);
        m.park_store_full.inc();
        m.park_disk_records.set(7);
        m.park_disk_bytes.set(7 * 4096);
        m.protocol_error(code::STORE_FULL);
        let snap = m.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("park_spilled"), 4);
        assert_eq!(get("park_loaded"), 2);
        assert_eq!(get("park_store_full"), 1);
        assert_eq!(get("park_disk_records"), 7);
        assert_eq!(get("park_disk_bytes"), 7 * 4096);
        assert_eq!(get("protocol_errors_store_full"), 1);
        let reg = Registry::new("cira");
        m.register(&reg);
        let text = reg.render();
        let doc = cira_obs::promtext::Exposition::parse_validated(&text).unwrap();
        assert_eq!(doc.value("cira_server_park_spilled_total"), Some(4.0));
        assert_eq!(doc.value("cira_server_park_loaded_total"), Some(2.0));
        assert_eq!(doc.value("cira_server_park_store_full_total"), Some(1.0));
        assert_eq!(doc.value("cira_server_park_disk_records"), Some(7.0));
        assert!(text.contains("cira_server_protocol_errors_total{code=\"store_full\"} 1"));
    }

    #[test]
    fn recovery_and_sync_instruments() {
        let m = Arc::new(ServerMetrics::new());
        m.store_recovery_ms.set(42);
        m.park_sync_us.record(150);
        let snap = m.snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("store_recovery_ms"), 42);
        let reg = Registry::new("cira");
        m.register(&reg);
        let doc = cira_obs::promtext::Exposition::parse_validated(&reg.render()).unwrap();
        assert_eq!(doc.value("cira_server_store_recovery_ms"), Some(42.0));
        assert_eq!(doc.histogram("cira_server_park_sync_us").unwrap().count, 1);
        assert!(
            snap.iter().all(|(n, _)| n != "park_sync_us"),
            "histograms have no STATS name"
        );
    }

    #[test]
    fn shard_metrics_expose_labeled_series() {
        let shards: Vec<Arc<ShardMetrics>> = vec![Arc::default(), Arc::default()];
        shards[0].connections.add(3);
        shards[0].wakeups.add(7);
        shards[1].ready_depth.set(2);
        shards[1].parse_buffer_bytes.set(512);
        let reg = Registry::new("cira");
        register_shards(&shards, &reg);
        let text = reg.render();
        let doc = cira_obs::promtext::Exposition::parse_validated(&text).unwrap();
        let conns = doc.family("cira_serve_shard_connections").unwrap();
        assert_eq!(conns.samples.len(), 2, "one series per shard");
        assert!(text.contains("cira_serve_shard_connections{shard=\"0\"} 3"));
        assert!(text.contains("cira_serve_shard_wakeups_total{shard=\"0\"} 7"));
        assert!(text.contains("cira_serve_shard_ready_depth{shard=\"1\"} 2"));
        assert!(text.contains("cira_serve_shard_parse_buffer_bytes{shard=\"1\"} 512"));
    }

    #[test]
    fn uptime_is_monotone() {
        let m = ServerMetrics::new();
        let a = m.uptime_seconds();
        assert!(m.uptime_seconds() >= a);
        let snap = m.snapshot();
        assert!(snap.iter().any(|(n, _)| n == "uptime_seconds"));
    }
}
