//! Flight-recorder integration: a real server with tracing **enabled**
//! must stay bit-identical to the offline engine (the recorder may
//! observe the pipeline, never perturb it) and its dump must cover the
//! whole request lifecycle — accept, parse, inbox hand-off, batch
//! checkout, scoring (and its per-chunk kernel spans), completion,
//! write queue/flush — plus a park spill, a park load, and a cross-shard
//! resume migration.

use cira_analysis::engine::pool::WorkerPool;
use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::spec;
use cira_serve::server::{serve, ServerConfig};
use cira_serve::{Client, HelloConfig};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

fn hello() -> HelloConfig {
    HelloConfig {
        predictor: "gshare:12:12".into(),
        mechanism: "resetting:16".into(),
        index: "pcxorbhr:12".into(),
        init: "ones".into(),
        threshold: 16,
    }
}

/// The offline reference: one `StreamingReplay` fed the whole trace.
fn local_reference(config: &HelloConfig, trace: &PackedTrace) -> (u64, cira_analysis::BucketStats) {
    let predictor = spec::parse_predictor(&config.predictor).unwrap();
    let index = spec::parse_index(&config.index).unwrap();
    let init = spec::parse_init(&config.init).unwrap();
    let mechanism = spec::parse_mechanism(&config.mechanism, index, init).unwrap();
    let mut replay = StreamingReplay::new(predictor, mechanism);
    replay.feed(trace);
    (replay.run().mispredicts, replay.stats())
}

/// Pulls the server's Chrome trace JSON over a raw CIRS connection.
fn dump(addr: &str) -> String {
    let mut raw = Client::connect_raw(addr).expect("raw connect");
    let json = raw.trace_json().expect("TRACE_DUMP");
    raw.goodbye().expect("raw goodbye");
    json
}

#[test]
fn traced_server_is_bit_identical_and_dumps_every_lifecycle_stage() {
    let cfg = ServerConfig {
        shards: 2,
        trace: true,
        trace_capacity: 1 << 14,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind");
    let addr = handle.local_addr().to_string();

    let config = hello();
    let trace: PackedTrace = ibs_like_suite()[0].walker().take(30_000).collect();
    let (local_miss, local_stats) = local_reference(&config, &trace);

    // Tracing on: scoring must still be bit-identical to the offline
    // engine — the recorder observes the pipeline without perturbing it.
    let mut client = Client::connect(&addr, config).expect("connect");
    let totals = client.stream(&trace, 4096).expect("stream");
    assert_eq!(totals.records, 30_000);
    assert_eq!(totals.mispredicts, local_miss);
    let server_stats = client.snapshot_stats().expect("snapshot");
    assert_eq!(server_stats, local_stats, "tracing perturbed the results");

    // Park/resume cycles until some resume lands on the shard that does
    // not own the token (owner = token % shards, accepts round-robin, and
    // every park mints a fresh random token — each cycle migrates with
    // probability ~1/2, so 24 cycles cannot all stay home in practice).
    let mut token = client.park().expect("park");
    let mut json = String::new();
    for _ in 0..24 {
        let mut resumed = Client::builder(&addr).resume(token).expect("resume");
        token = resumed.park().expect("re-park");
        json = dump(&addr);
        if json.contains("\"migrate\"") {
            break;
        }
    }

    // A loadable Chrome trace: one JSON object with a traceEvents array.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains("\"traceEvents\""), "{json}");

    // Every lifecycle stage must appear, park spill/load and the
    // cross-shard migration included.
    for stage in [
        "accept",
        "parse",
        "inbox",
        "checkout",
        "score",
        "chunk",
        "complete",
        "write_queue",
        "write_flush",
        "park_spill",
        "park_load",
        "migrate",
    ] {
        assert!(
            json.contains(&format!("\"{stage}\"")),
            "no {stage} event in the dump"
        );
    }

    // The recorder actually captured events, and the build exposes the
    // recorded/dropped accounting through the server registry.
    let text = handle.registry().render();
    let doc = cira_serve::cira_obs::promtext::Exposition::parse_validated(&text)
        .expect("well-formed exposition");
    assert!(
        doc.value("cira_trace_events_recorded_total").unwrap_or(0.0) > 0.0,
        "no events recorded"
    );
    assert!(text.contains("cira_build_info{"), "no build_info gauge");

    handle.shutdown_and_join();
}
