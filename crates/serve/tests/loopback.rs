//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, and the contract the whole crate exists for — server-side
//! statistics bit-identical to the offline engine, under concurrency,
//! abuse, and shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cira_analysis::engine::pool::WorkerPool;
use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::spec;
use cira_serve::frame::{read_frame, write_frame, ReadOutcome};
use cira_serve::proto::{
    code, decode_server, encode_client, ClientFrame, ServerFrame, PROTO_VERSION,
};
use cira_serve::server::{serve, ServerConfig, ServerHandle};
use cira_serve::{Client, ClientError, HelloConfig};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// Every suite runs at each of these shard counts — same traffic, same
/// assertions: the sharded event loop must be observationally identical
/// to a single loop, bit-exact statistics included.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn start_server(shards: usize) -> ServerHandle {
    let cfg = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind")
}

fn bench_trace(bench: usize, len: usize) -> PackedTrace {
    ibs_like_suite()[bench].walker().take(len).collect()
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

#[test]
fn concurrent_sessions_with_different_configs_are_bit_identical() {
    for shards in SHARD_COUNTS {
        concurrent_sessions_body(shards);
    }
}

fn concurrent_sessions_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();

    // Three sessions, three configs, three benchmarks, three batch sizes.
    let cases = [
        (
            HelloConfig {
                predictor: "gshare:12:12".into(),
                mechanism: "resetting:16".into(),
                index: "pcxorbhr:12".into(),
                init: "ones".into(),
                threshold: 16,
            },
            0usize, // gcc
            997usize,
        ),
        (
            HelloConfig {
                predictor: "bimodal:10".into(),
                mechanism: "saturating:8".into(),
                index: "pc:10".into(),
                init: "zeros".into(),
                threshold: 4,
            },
            3, // jpeg
            4096,
        ),
        (
            HelloConfig {
                predictor: "gshare64k".into(),
                mechanism: "two-level:pcxorbhr-cir".into(),
                index: "pcxorbhr:16".into(),
                init: "ones".into(),
                threshold: 100,
            },
            5,
            30_000, // a single big batch
        ),
    ];

    let workers: Vec<_> = cases
        .iter()
        .cloned()
        .map(|(config, bench, batch)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let trace = bench_trace(bench, 30_000);
                let (local_miss, local_stats) = local_reference(&config, &trace);
                let mut client = Client::connect(&addr, config).expect("connect");
                let totals = client.stream(&trace, batch).expect("stream");
                assert_eq!(totals.records, 30_000);
                assert_eq!(totals.mispredicts, local_miss);
                let server_stats = client.snapshot_stats().expect("snapshot");
                assert_eq!(server_stats, local_stats, "server != local engine");
                client.goodbye().expect("goodbye");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("session thread");
    }

    let metrics = handle.metrics().snapshot();
    let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(get("sessions_opened"), 3);
    assert_eq!(get("records"), 90_000);

    // The per-batch histograms must agree with the counters: every record
    // counted arrived in some batch, and every batch was timed.
    let batch_records = handle.metrics().batch_records.snapshot();
    let batch_service = handle.metrics().batch_service_us.snapshot();
    assert_eq!(batch_records.count, get("batches"));
    assert_eq!(batch_records.sum, 90_000);
    assert_eq!(batch_service.count, get("batches"));

    // Rev 1.1: STATS answers on a raw connection, no HELLO.
    let mut raw = Client::connect_raw(&addr).expect("raw connect");
    let wire = raw.stats().expect("pre-session STATS");
    let wget = |name: &str| wire.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(wget("sessions_opened"), 3);
    assert_eq!(wget("records"), 90_000);
    assert!(wire.iter().any(|(n, _)| n == "uptime_seconds"));
    let text = handle.registry().render();
    let doc = cira_serve::cira_obs::promtext::Exposition::parse_validated(&text)
        .expect("well-formed exposition");
    assert_eq!(doc.value("cira_server_sessions_opened_total"), Some(3.0));
    assert_eq!(doc.value("cira_session_records_total"), Some(90_000.0));
    raw.goodbye().expect("raw goodbye");
    handle.shutdown_and_join();
}

#[test]
fn reset_gives_a_fresh_session_over_the_wire() {
    for shards in SHARD_COUNTS {
        reset_fresh_session_body(shards);
    }
}

fn reset_fresh_session_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();
    let trace = bench_trace(1, 8_000);

    let mut client = Client::connect(&addr, HelloConfig::default()).unwrap();
    client.stream(&trace, 1000).unwrap();
    let first = client.snapshot_stats().unwrap();
    client.reset().unwrap();
    client.stream(&trace, 3333).unwrap();
    let second = client.snapshot_stats().unwrap();
    assert_eq!(first, second, "reset must fully restore initial state");
    client.goodbye().unwrap();
    handle.shutdown_and_join();
}

/// Connects raw, sends `frames` bodies, and returns the first decoded
/// server reply.
fn raw_exchange(addr: &str, bodies: &[Vec<u8>]) -> ServerFrame {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for body in bodies {
        write_frame(&mut stream, body).expect("write");
    }
    match read_frame(&mut stream, u32::MAX, 100).expect("read") {
        ReadOutcome::Frame(body) => decode_server(&body).expect("decode"),
        other => panic!("no reply: {other:?}"),
    }
}

fn error_code(frame: ServerFrame) -> u16 {
    match frame {
        ServerFrame::Error { code, .. } => code,
        other => panic!("expected ERROR, got {other:?}"),
    }
}

#[test]
fn retired_metrics_and_trace_dump_frames_are_refused_as_unknown() {
    for shards in SHARD_COUNTS {
        retired_frames_body(shards);
    }
}

fn retired_frames_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();
    // Rev 1.6 retired METRICS (0x07) and TRACE_DUMP (0x0a): a client that
    // still sends one gets MALFORMED and is disconnected, like any other
    // unknown frame type.
    for ty in [0x07u8, 0x0a] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, &[ty]).expect("write");
        match read_frame(&mut stream, u32::MAX, 100).expect("read") {
            ReadOutcome::Frame(body) => {
                assert_eq!(error_code(decode_server(&body).unwrap()), code::MALFORMED)
            }
            other => panic!("no reply to type {ty:#04x}: {other:?}"),
        }
        match read_frame(&mut stream, u32::MAX, 100) {
            Ok(ReadOutcome::Eof) | Err(_) => {}
            other => panic!("connection stayed open after type {ty:#04x}: {other:?}"),
        }
    }
    assert_eq!(handle.metrics().protocol_errors_for(code::MALFORMED), 2);

    // The server serves everyone else: a HELLO on a new connection streams.
    let trace = bench_trace(0, 5_000);
    let mut client = Client::connect(&addr, HelloConfig::default()).expect("connect");
    assert_eq!(client.stream(&trace, 1000).expect("stream").records, 5_000);
    client.goodbye().expect("goodbye");
    handle.shutdown_and_join();
}

#[test]
fn hostile_clients_get_errors_and_the_server_survives() {
    for shards in SHARD_COUNTS {
        hostile_clients_body(shards);
    }
}

fn hostile_clients_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();
    let hello = |version| {
        encode_client(&ClientFrame::Hello {
            version,
            config: HelloConfig::default(),
        })
    };

    // Unknown protocol version.
    assert_eq!(
        error_code(raw_exchange(&addr, &[hello(PROTO_VERSION + 9)])),
        code::UNSUPPORTED_VERSION
    );

    // Garbage frame type.
    assert_eq!(
        error_code(raw_exchange(&addr, &[vec![0xEE, 1, 2, 3]])),
        code::MALFORMED
    );

    // A batch before any HELLO.
    let batch = encode_client(&ClientFrame::Batch {
        seq: 0,
        records: bench_trace(0, 64),
    });
    assert_eq!(
        error_code(raw_exchange(&addr, &[batch])),
        code::HELLO_REQUIRED
    );

    // A bad spec in the HELLO.
    let bad_spec = encode_client(&ClientFrame::Hello {
        version: PROTO_VERSION,
        config: HelloConfig {
            predictor: "frobnicate:1".into(),
            ..HelloConfig::default()
        },
    });
    assert_eq!(error_code(raw_exchange(&addr, &[bad_spec])), code::BAD_SPEC);

    // Through the typed client, a HELLO rejection names the specs the
    // client offered — grammar skew (a server that predates `tage:…` or
    // `self:…`) must be diagnosable from the error alone.
    let skewed = HelloConfig {
        predictor: "frobnicate:1".into(),
        mechanism: "self:tage64k".into(),
        ..HelloConfig::default()
    };
    match Client::connect(&addr, skewed) {
        Err(ClientError::Server { code: c, message }) => {
            assert_eq!(c, code::BAD_SPEC);
            assert!(
                message.contains("predictor=frobnicate:1")
                    && message.contains("mechanism=self:tage64k"),
                "rejection must echo the offered specs, got: {message}"
            );
        }
        other => panic!("expected BAD_SPEC with offered specs, got {other:?}"),
    }

    // An oversized length prefix — body never sent.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let reply = match read_frame(&mut stream, u32::MAX, 100).expect("read") {
            ReadOutcome::Frame(body) => decode_server(&body).expect("decode"),
            other => panic!("no reply: {other:?}"),
        };
        assert_eq!(error_code(reply), code::OVERSIZED);
    }

    // A mid-frame disconnect: length prefix promises 100 bytes, 10 arrive.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[7u8; 10]).unwrap();
        drop(stream);
    }

    // After all that abuse, a well-behaved client still gets exact service.
    let trace = bench_trace(2, 10_000);
    let config = HelloConfig::default();
    let (_, local_stats) = local_reference(&config, &trace);
    let mut client = Client::connect(&addr, config).expect("connect after abuse");
    client.stream(&trace, 2048).expect("stream after abuse");
    assert_eq!(client.snapshot_stats().unwrap(), local_stats);
    client.goodbye().unwrap();

    let metrics = handle.metrics().snapshot();
    let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(get("protocol_errors") >= 5, "metrics: {metrics:?}");

    // Each distinct abuse landed in its own breakdown slot...
    assert!(get("protocol_errors_unsupported_version") >= 1);
    assert!(get("protocol_errors_malformed") >= 1);
    assert!(get("protocol_errors_hello_required") >= 1);
    assert!(get("protocol_errors_bad_spec") >= 1);
    assert!(get("protocol_errors_oversized") >= 1);
    // ...and the lump counter is exactly the sum of the breakdown.
    let breakdown: u64 = metrics
        .iter()
        .filter(|(n, _)| n.starts_with("protocol_errors_"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(get("protocol_errors"), breakdown);
    handle.shutdown_and_join();
}

#[test]
fn oversized_table_hello_is_refused_and_the_server_serves_on() {
    let handle = start_server(1);
    let addr = handle.local_addr().to_string();
    // The grammar accepts 28-bit tables; a 2^28-entry CIR table is 1 GiB
    // built on the shard's event loop. The server refuses it up front.
    let oversized = encode_client(&ClientFrame::Hello {
        version: PROTO_VERSION,
        config: HelloConfig {
            mechanism: "cir:32".into(),
            index: "pcxorbhr:28".into(),
            init: "random:1".into(),
            ..HelloConfig::default()
        },
    });
    assert_eq!(
        error_code(raw_exchange(&addr, &[oversized])),
        code::BAD_SPEC
    );
    let mut client = Client::connect(&addr, HelloConfig::default()).expect("default HELLO");
    let trace = bench_trace(0, 4_096);
    client.stream(&trace, 1_024).expect("stream");
    client.goodbye().unwrap();
    handle.shutdown_and_join();
}

#[test]
fn shutdown_drains_batches_accepted_before_disconnect() {
    for shards in SHARD_COUNTS {
        shutdown_drains_body(shards);
    }
}

fn shutdown_drains_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();

    // Send HELLO + 3 batches, then vanish without reading a single ack:
    // the server still owes itself the work.
    let trace = bench_trace(4, 3 * 2_000);
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(
            &mut stream,
            &encode_client(&ClientFrame::Hello {
                version: PROTO_VERSION,
                config: HelloConfig::default(),
            }),
        )
        .unwrap();
        // Wait for the ack so the session definitely exists.
        match read_frame(&mut stream, u32::MAX, 100).unwrap() {
            ReadOutcome::Frame(body) => {
                assert!(matches!(
                    decode_server(&body).unwrap(),
                    ServerFrame::HelloAck { .. }
                ));
            }
            other => panic!("no hello ack: {other:?}"),
        }
        for (seq, start) in (0..3u32).map(|s| (s, s as usize * 2_000)) {
            let batch: PackedTrace = (start..start + 2_000)
                .map(|i| trace.get(i).unwrap())
                .collect();
            write_frame(
                &mut stream,
                &encode_client(&ClientFrame::Batch {
                    seq,
                    records: batch,
                }),
            )
            .unwrap();
        }
    } // socket dropped: EOF after the buffered frames

    // Every accepted batch must be processed even though the client died.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let records = handle
            .metrics()
            .snapshot()
            .iter()
            .find(|(n, _)| n == "records")
            .unwrap()
            .1;
        if records == 6_000 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {records}/6000 records drained"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown_and_join();
}

#[test]
fn shutting_down_server_tells_idle_clients_and_joins() {
    for shards in SHARD_COUNTS {
        shutting_down_tells_idle_body(shards);
    }
}

fn shutting_down_tells_idle_body(shards: usize) {
    let handle = start_server(shards);
    let addr = handle.local_addr().to_string();
    let trace = bench_trace(0, 5_000);

    let mut client = Client::connect(&addr, HelloConfig::default()).unwrap();
    client.stream(&trace, 1024).unwrap();

    // Trigger shutdown while the client sits idle; the server must finish
    // the connection with a SHUTTING_DOWN error, not a silent close.
    let token = handle.shutdown_token();
    let joiner = std::thread::spawn(move || handle.shutdown_and_join());
    token.trigger();

    // A STATS that lands before the server's next idle tick is still
    // answered, so poll until the connection reports the shutdown.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.stats() {
            Ok(_) => {
                assert!(Instant::now() < deadline, "server never said goodbye");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(ClientError::Server { code: c, .. }) => {
                assert_eq!(c, code::SHUTTING_DOWN);
                break;
            }
            // The race where our STATS lands after the close is also fine.
            Err(ClientError::Io(_) | ClientError::Protocol(_)) => break,
            Err(other) => panic!("{other}"),
        }
    }
    joiner.join().expect("shutdown joins");

    // New connections are refused once the listener is gone.
    assert!(TcpStream::connect(&addr).is_err());
}
