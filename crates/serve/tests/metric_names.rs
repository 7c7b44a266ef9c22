//! Pins every name the server exports, so a refactor of how the
//! instruments are declared cannot rename, reorder or re-describe one.
//!
//! The `STATS` reply is pinned name by name and in order: clients look
//! pairs up by name, and the first thirteen names have held their
//! positions since rev 1.0. The Prometheus exposition of a freshly
//! started server is pinned by its `# HELP` and `# TYPE` lines, in
//! order. Values are not pinned: `cira_build_info` carries the host
//! kernel.

use cira_analysis::engine::pool::WorkerPool;
use cira_serve::server::{serve, ServerConfig};

/// The `STATS_REPLY` names, in wire order.
const STATS: &[&str] = &[
    "connections_total",
    "connections_active",
    "sessions_opened",
    "sessions_reset",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "batches",
    "records",
    "mispredicts",
    "low_confidence",
    "protocol_errors",
    "uptime_seconds",
    "protocol_errors_stalled",
    "protocol_errors_malformed",
    "protocol_errors_unsupported_version",
    "protocol_errors_bad_spec",
    "protocol_errors_oversized",
    "protocol_errors_hello_required",
    "protocol_errors_shutting_down",
    "protocol_errors_unknown_session",
    "protocol_errors_idle_timeout",
    "protocol_errors_store_full",
    "sessions_live",
    "sessions_parked",
    "sessions_resumed",
    "resume_attempts",
    "resume_failures",
    "sessions_shed",
    "park_evicted_ttl",
    "park_evicted_capacity",
    "sessions_idle_evicted",
    "park_spilled",
    "park_loaded",
    "park_store_full",
    "park_disk_records",
    "park_disk_bytes",
    "store_recovery_ms",
];

/// The `# HELP` and `# TYPE` lines of a fresh two-shard server's
/// exposition, in render order.
const EXPOSITION: &str = "\
# HELP cira_server_uptime_seconds Whole seconds since the server started
# TYPE cira_server_uptime_seconds gauge
# HELP cira_server_connections_total Connections ever accepted
# TYPE cira_server_connections_total counter
# HELP cira_server_connections_active Connections currently open
# TYPE cira_server_connections_active gauge
# HELP cira_server_sessions_opened_total Sessions successfully negotiated
# TYPE cira_server_sessions_opened_total counter
# HELP cira_server_sessions_reset_total Session resets performed
# TYPE cira_server_sessions_reset_total counter
# HELP cira_server_frames_in_total Frames read from clients
# TYPE cira_server_frames_in_total counter
# HELP cira_server_frames_out_total Frames written to clients
# TYPE cira_server_frames_out_total counter
# HELP cira_server_bytes_in_total Bytes of frame bodies read
# TYPE cira_server_bytes_in_total counter
# HELP cira_server_bytes_out_total Bytes of frame bodies written
# TYPE cira_server_bytes_out_total counter
# HELP cira_session_batches_total BATCH frames processed
# TYPE cira_session_batches_total counter
# HELP cira_session_records_total Branch records scored and trained
# TYPE cira_session_records_total counter
# HELP cira_session_mispredicts_total Mispredicted records
# TYPE cira_session_mispredicts_total counter
# HELP cira_session_low_confidence_total Low-confidence records (key below the session threshold)
# TYPE cira_session_low_confidence_total counter
# HELP cira_session_batch_records Records per BATCH frame
# TYPE cira_session_batch_records histogram
# HELP cira_session_batch_service_us Wall-clock time to score one BATCH in microseconds
# TYPE cira_session_batch_service_us histogram
# HELP cira_server_protocol_errors_total Connections dropped for protocol violations, by error code
# TYPE cira_server_protocol_errors_total counter
# HELP cira_server_sessions_live Sessions alive right now (attached or parked)
# TYPE cira_server_sessions_live gauge
# HELP cira_server_sessions_parked_total Sessions parked by a PARK frame or an unclean disconnect
# TYPE cira_server_sessions_parked_total counter
# HELP cira_server_sessions_resumed_total Sessions re-attached via RESUME
# TYPE cira_server_sessions_resumed_total counter
# HELP cira_server_resume_attempts_total RESUME frames received, successful or not
# TYPE cira_server_resume_attempts_total counter
# HELP cira_server_resume_failures_total RESUME frames that named no parked session
# TYPE cira_server_resume_failures_total counter
# HELP cira_server_sessions_shed_total HELLOs shed with BUSY at session capacity
# TYPE cira_server_sessions_shed_total counter
# HELP cira_server_park_evicted_ttl_total Parked sessions evicted by the TTL sweep
# TYPE cira_server_park_evicted_ttl_total counter
# HELP cira_server_park_evicted_capacity_total Parked sessions evicted to make room for newer ones
# TYPE cira_server_park_evicted_capacity_total counter
# HELP cira_server_sessions_idle_evicted_total Sessions closed by the idle timeout
# TYPE cira_server_sessions_idle_evicted_total counter
# HELP cira_server_park_spilled_total Parked sessions dropped from the hot tier with their disk copy kept
# TYPE cira_server_park_spilled_total counter
# HELP cira_server_park_loaded_total Resumes served by decoding a disk checkpoint
# TYPE cira_server_park_loaded_total counter
# HELP cira_server_park_store_full_total Parks refused because the disk tier was at capacity
# TYPE cira_server_park_store_full_total counter
# HELP cira_server_park_disk_records Checkpoint records currently in the disk tier
# TYPE cira_server_park_disk_records gauge
# HELP cira_server_park_disk_bytes Bytes of live checkpoint pages in the disk tier
# TYPE cira_server_park_disk_bytes gauge
# HELP cira_server_store_recovery_ms Wall-clock milliseconds of the startup park recovery scan
# TYPE cira_server_store_recovery_ms gauge
# HELP cira_server_park_sync_us Wall-clock microseconds of one park page-file sync
# TYPE cira_server_park_sync_us histogram
# HELP cira_build_info Build provenance; the value is always 1
# TYPE cira_build_info gauge
# HELP cira_trace_events_recorded_total Flight-recorder span events recorded across all rings
# TYPE cira_trace_events_recorded_total counter
# HELP cira_trace_events_dropped_total Flight-recorder span events overwritten by ring wrap
# TYPE cira_trace_events_dropped_total counter
# HELP cira_pool_tasks_executed_total Tasks executed by pool workers (including helping submitters)
# TYPE cira_pool_tasks_executed_total counter
# HELP cira_pool_tasks_stolen_total Tasks claimed from a sibling worker's deque
# TYPE cira_pool_tasks_stolen_total counter
# HELP cira_pool_tasks_injected_total Fire-and-forget tasks pushed through the shared injector
# TYPE cira_pool_tasks_injected_total counter
# HELP cira_pool_task_latency_us Task execution wall-clock latency in microseconds
# TYPE cira_pool_task_latency_us histogram
# HELP cira_pool_workers Number of pool worker threads
# TYPE cira_pool_workers gauge
# HELP cira_pool_injector_depth Jobs waiting in the shared injector queue
# TYPE cira_pool_injector_depth gauge
# HELP cira_pool_queue_depth Jobs waiting in a worker's own deque
# TYPE cira_pool_queue_depth gauge
# HELP cira_serve_shard_connections Connections currently registered on this shard
# TYPE cira_serve_shard_connections gauge
# HELP cira_serve_shard_wakeups_total epoll_wait returns that delivered events on this shard
# TYPE cira_serve_shard_wakeups_total counter
# HELP cira_serve_shard_ready_depth Parsed frames queued on this shard awaiting the pump
# TYPE cira_serve_shard_ready_depth gauge
# HELP cira_serve_shard_parse_buffer_bytes Bytes buffered in this shard's per-connection parse buffers
# TYPE cira_serve_shard_parse_buffer_bytes gauge
";

#[test]
fn stats_and_exposition_names_are_pinned() {
    let cfg = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind");

    let stats: Vec<String> = handle
        .metrics()
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(stats, STATS, "STATS names or their order changed");

    let text = handle.registry().render();
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
    let pinned: Vec<&str> = EXPOSITION.lines().collect();
    assert_eq!(
        headers, pinned,
        "exposition family names, types or help changed"
    );

    handle.shutdown_and_join();
}
