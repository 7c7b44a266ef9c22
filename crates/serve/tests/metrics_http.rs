//! The observability acceptance test: a live server with a `/metrics`
//! HTTP listener, real traffic, and a scrape validated as well-formed
//! Prometheus text exposition covering server, session, and pool metrics.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cira_analysis::engine::pool::WorkerPool;
use cira_serve::cira_obs::http;
use cira_serve::cira_obs::promtext::{Exposition, MetricType};
use cira_serve::server::{serve, ServerConfig};
use cira_serve::{Client, HelloConfig};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// One HTTP/1.0 request against `addr`, returning `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http::get(addr, path, Duration::from_secs(10)).expect("GET")
}

/// The scrape must hold the same exact counts at every shard count.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn live_scrape_is_valid_prometheus_text_covering_all_layers() {
    for shards in SHARD_COUNTS {
        live_scrape_body(shards);
    }
}

fn live_scrape_body(shards: usize) {
    let cfg = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        shards,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind");
    let http_addr = handle.metrics_http_addr().expect("metrics listener");

    // Generate real traffic so the scrape has nonzero series.
    let trace: PackedTrace = ibs_like_suite()[0].walker().take(12_000).collect();
    let mut client =
        Client::connect(&handle.local_addr().to_string(), HelloConfig::default()).expect("connect");
    let totals = client.stream(&trace, 3_000).expect("stream");
    assert_eq!(totals.records, 12_000);
    client.goodbye().expect("goodbye");

    let (status, body) = http_get(http_addr, "/metrics");
    assert!(status.contains("200"), "status: {status}");

    // Well-formed text exposition: one `# TYPE` per family, samples only
    // under their family, counters finite and non-negative, histograms
    // cumulative and monotone — all enforced by the validating parser.
    let doc = Exposition::parse_validated(&body).expect("valid exposition");

    // Server layer.
    assert_eq!(doc.value("cira_server_connections_total"), Some(1.0));
    assert_eq!(doc.value("cira_server_sessions_opened_total"), Some(1.0));
    assert!(doc.value("cira_server_frames_in_total").unwrap() >= 5.0);
    assert!(doc.value("cira_server_uptime_seconds").is_some());
    let errs = doc.family("cira_server_protocol_errors_total").unwrap();
    assert_eq!(errs.kind, MetricType::Counter);
    assert!(errs.samples.len() >= 7, "per-code breakdown present");

    // Shard layer: one labeled series per event loop.
    let shard_conns = doc.family("cira_serve_shard_connections").unwrap();
    assert_eq!(shard_conns.samples.len(), shards, "one series per shard");

    // Session layer, including well-formed latency histograms.
    assert_eq!(doc.value("cira_session_records_total"), Some(12_000.0));
    assert_eq!(doc.value("cira_session_batches_total"), Some(4.0));
    let batch_hist = doc.histogram("cira_session_batch_records").unwrap();
    assert_eq!(batch_hist.count, 4);
    assert_eq!(batch_hist.sum, 12_000.0);
    let service = doc.histogram("cira_session_batch_service_us").unwrap();
    assert_eq!(service.count, 4);

    // Pool layer: the shared worker pool executed the batch drains. A
    // drain task services every batch queued at that moment, so 4
    // batches can legitimately coalesce into as little as one task.
    assert!(doc.value("cira_pool_workers").unwrap() >= 1.0);
    assert!(doc.value("cira_pool_tasks_executed_total").unwrap() >= 1.0);
    let latency = doc.histogram("cira_pool_task_latency_us").unwrap();
    assert!(latency.count >= 1);

    // The other HTTP routes behave.
    let (status, body) = http_get(http_addr, "/healthz");
    assert!(status.contains("200"), "status: {status}");
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("ok"));
    assert!(lines.next().is_some_and(|l| l.starts_with("version=")));
    assert!(lines
        .next()
        .is_some_and(|l| l.starts_with("uptime_seconds=")));
    let (status, _) = http_get(http_addr, "/nope");
    assert!(status.contains("404"), "status: {status}");

    handle.shutdown_and_join();

    // Shutdown also stops the metrics listener.
    assert!(TcpStream::connect(http_addr).is_err());
}
