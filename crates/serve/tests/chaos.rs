//! Fault-injection tests: a real server, a [`ChaosProxy`] in the middle,
//! and a retrying client — the rev 1.2 contract is that connection
//! kills, stalls, and idle evictions change *nothing* about the final
//! statistics, which must stay bit-identical to the offline engine.

use std::time::Duration;

use cira_analysis::engine::pool::WorkerPool;
use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::spec;
use cira_serve::chaos::{schedule_from_seed, ChaosProxy, FaultSpec};
use cira_serve::client::RetryPolicy;
use cira_serve::frame::{read_frame, write_frame, ReadOutcome};
use cira_serve::proto::{
    code, decode_server, encode_client, ClientFrame, ServerFrame, PROTO_VERSION,
};
use cira_serve::server::{serve, ServerConfig, ServerHandle};
use cira_serve::{Client, ClientError, HelloConfig};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// Every scenario runs at each of these shard counts — identical fault
/// schedules, identical assertions: sharding must not change what a
/// client (or the offline reference) can observe.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn start_server(cfg: ServerConfig) -> ServerHandle {
    serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind")
}

fn base_cfg(shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        ..ServerConfig::default()
    }
}

fn bench_trace(bench: usize, len: usize) -> PackedTrace {
    ibs_like_suite()[bench].walker().take(len).collect()
}

/// The offline reference: one `StreamingReplay` fed the whole trace.
fn local_reference(config: &HelloConfig, trace: &PackedTrace) -> cira_analysis::BucketStats {
    let predictor = spec::parse_predictor(&config.predictor).unwrap();
    let index = spec::parse_index(&config.index).unwrap();
    let init = spec::parse_init(&config.init).unwrap();
    let mechanism = spec::parse_mechanism(&config.mechanism, index, init).unwrap();
    let mut replay = StreamingReplay::new(predictor, mechanism);
    replay.feed(trace);
    replay.stats()
}

/// A policy tuned for tests: fast, plenty of attempts, deterministic.
fn test_retries(seed: u64) -> RetryPolicy {
    RetryPolicy::retries(12)
        .with_delays(Duration::from_millis(25), Duration::from_millis(250))
        .with_jitter_seed(seed)
}

fn metric(handle: &ServerHandle, name: &str) -> u64 {
    handle
        .metrics()
        .snapshot()
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn mid_batch_connection_kill_resumes_bit_identical() {
    for shards in SHARD_COUNTS {
        mid_batch_kill_body(shards);
    }
}

fn mid_batch_kill_body(shards: usize) {
    let handle = start_server(base_cfg(shards));
    let upstream = handle.local_addr().to_string();
    // Connection 1 dies after 2 KiB client→server — mid-BATCH, since the
    // HELLO is under 100 bytes and every batch frame is far larger.
    // Connection 2 (the RESUME) runs clean.
    let proxy = ChaosProxy::start(&upstream, vec![FaultSpec::kill_c2s(2048)]).unwrap();

    let trace = bench_trace(0, 20_000);
    let config = HelloConfig::default();
    let expected = local_reference(&config, &trace);

    let mut client = Client::builder(&proxy.addr())
        .read_timeout(Duration::from_secs(2))
        .retry(test_retries(1))
        .connect(config)
        .expect("connect through proxy");
    let totals = client.stream(&trace, 1000).expect("stream through faults");
    assert_eq!(totals.records, 20_000, "every record exactly once");
    assert_eq!(client.snapshot_stats().unwrap(), expected, "bit-exactness");

    assert_eq!(proxy.kills(), 1, "the fault actually fired");
    assert!(proxy.connections() >= 2, "client reconnected");
    assert!(client.retries() >= 1);
    assert!(client.resumes() >= 1);
    assert!(metric(&handle, "sessions_parked") >= 1);
    assert!(metric(&handle, "sessions_resumed") >= 1);
    assert!(metric(&handle, "resume_attempts") >= 1);

    // The new instruments reach the Prometheus exposition too.
    let doc =
        cira_serve::cira_obs::promtext::Exposition::parse_validated(&handle.registry().render())
            .expect("well-formed exposition");
    assert!(doc.value("cira_server_sessions_resumed_total").unwrap() >= 1.0);
    assert!(doc.value("cira_server_sessions_parked_total").unwrap() >= 1.0);
    assert_eq!(doc.value("cira_server_sessions_shed_total"), Some(0.0));

    client.goodbye().expect("goodbye");
    proxy.shutdown_and_join();
    handle.shutdown_and_join();
}

#[test]
fn stalled_then_resumed_stream_is_bit_identical() {
    for shards in SHARD_COUNTS {
        stalled_then_resumed_body(shards);
    }
}

fn stalled_then_resumed_body(shards: usize) {
    let handle = start_server(base_cfg(shards));
    let upstream = handle.local_addr().to_string();
    // Connection 1 freezes server→client for 3 s once ~400 bytes of acks
    // have flowed — mid-stream, without closing anything. The client's
    // 300 ms read patience gives up long before the freeze ends, so it
    // must abandon the half-alive connection and RESUME on a fresh one.
    let spec = FaultSpec::clean().with_stall_s2c(400, Duration::from_secs(3));
    let proxy = ChaosProxy::start(&upstream, vec![spec]).unwrap();

    let trace = bench_trace(3, 16_000);
    let config = HelloConfig {
        predictor: "gshare:12:12".into(),
        mechanism: "resetting:16".into(),
        index: "pcxorbhr:12".into(),
        init: "ones".into(),
        threshold: 16,
    };
    let expected = local_reference(&config, &trace);

    let mut client = Client::builder(&proxy.addr())
        .read_timeout(Duration::from_millis(300))
        .retry(test_retries(2))
        .connect(config)
        .expect("connect through proxy");
    let totals = client.stream(&trace, 500).expect("stream through stall");
    assert_eq!(totals.records, 16_000);
    assert_eq!(client.snapshot_stats().unwrap(), expected, "bit-exactness");
    assert!(client.resumes() >= 1, "the stall forced a resume");
    assert!(metric(&handle, "sessions_resumed") >= 1);

    client.goodbye().expect("goodbye");
    proxy.shutdown_and_join();
    handle.shutdown_and_join();
}

#[test]
fn seeded_fault_schedules_stay_bit_identical() {
    for shards in SHARD_COUNTS {
        seeded_fault_schedules_body(shards);
    }
}

fn seeded_fault_schedules_body(shards: usize) {
    // Five seeds, three faulted connections each: kills land anywhere —
    // mid-HELLO, mid-HELLO_ACK, mid-BATCH, mid-ack, mid-RESUME — with
    // chunked dribbling and delays mixed in by the schedule generator.
    for seed in [1u64, 2, 3, 42, 0xC1A0] {
        let handle = start_server(base_cfg(shards));
        let upstream = handle.local_addr().to_string();
        let schedule = schedule_from_seed(seed, 3);
        let proxy = ChaosProxy::start(&upstream, schedule).unwrap();

        let trace = bench_trace((seed % 6) as usize, 12_000);
        let config = HelloConfig::default();
        let expected = local_reference(&config, &trace);

        let mut client = Client::builder(&proxy.addr())
            .read_timeout(Duration::from_secs(1))
            .retry(test_retries(seed))
            .connect(config)
            .unwrap_or_else(|e| panic!("seed {seed}: connect: {e}"));
        let totals = client
            .stream(&trace, 800)
            .unwrap_or_else(|e| panic!("seed {seed}: stream: {e}"));
        assert_eq!(totals.records, 12_000, "seed {seed}: records");
        let got = client
            .snapshot_stats()
            .unwrap_or_else(|e| panic!("seed {seed}: snapshot: {e}"));
        assert_eq!(got, expected, "seed {seed}: server != offline engine");
        assert!(proxy.kills() >= 1, "seed {seed}: no fault fired");

        // Best-effort close: the goodbye itself may hit a fault.
        let _ = client.goodbye();
        proxy.shutdown_and_join();
        handle.shutdown_and_join();
    }
}

#[test]
fn capacity_exhausted_server_sheds_with_busy() {
    for shards in SHARD_COUNTS {
        capacity_exhausted_body(shards);
    }
}

fn capacity_exhausted_body(shards: usize) {
    let cfg = ServerConfig {
        max_sessions: 1,
        busy_retry_ms: 123,
        ..base_cfg(shards)
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    // First session takes the only slot.
    let mut first = Client::connect(&addr, HelloConfig::default()).expect("first connect");
    first.stream(&bench_trace(1, 2_000), 500).unwrap();

    // Second HELLO is shed promptly with the typed BUSY — not a hang,
    // not a silent close.
    match Client::connect(&addr, HelloConfig::default()) {
        Err(ClientError::Busy {
            retry_after_ms,
            message,
        }) => {
            assert_eq!(retry_after_ms, 123, "hint comes from ServerConfig");
            assert!(!message.is_empty());
        }
        other => panic!("expected BUSY, got {other:?}"),
    }
    assert_eq!(metric(&handle, "sessions_shed"), 1);
    assert_eq!(metric(&handle, "sessions_live"), 1);

    // A retrying client waits out the BUSY hints and gets in once the
    // first session says goodbye.
    let waiter = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::builder(&addr)
                .retry(
                    RetryPolicy::retries(40)
                        .with_delays(Duration::from_millis(10), Duration::from_millis(50))
                        .with_jitter_seed(9),
                )
                .connect(HelloConfig::default())
                .expect("retrying connect after capacity frees");
            let totals = client.stream(&bench_trace(2, 1_000), 250).unwrap();
            client.goodbye().unwrap();
            totals.records
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    first.goodbye().expect("first goodbye");
    assert_eq!(waiter.join().expect("waiter thread"), 1_000);
    assert!(metric(&handle, "sessions_shed") >= 1);
    handle.shutdown_and_join();
}

#[test]
fn idle_session_is_evicted_parked_and_resumable() {
    for shards in SHARD_COUNTS {
        idle_evicted_body(shards);
    }
}

fn idle_evicted_body(shards: usize) {
    let cfg = ServerConfig {
        idle_timeout_ms: 150,
        ..base_cfg(shards)
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    let trace = bench_trace(4, 8_000);
    let config = HelloConfig::default();
    let expected = local_reference(&config, &trace);

    let mut client = Client::builder(&addr)
        .read_timeout(Duration::from_millis(500))
        .retry(test_retries(5))
        .connect(config)
        .expect("connect");
    client.stream(&trace, 2_000).expect("stream");

    // Go quiet past the idle budget: the server evicts the connection
    // and parks the session.
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(metric(&handle, "sessions_idle_evicted"), 1);

    // The next request transparently resumes and sees the same state.
    assert_eq!(client.snapshot_stats().expect("snapshot"), expected);
    assert!(client.resumes() >= 1, "idle eviction forced a resume");
    assert!(metric(&handle, "sessions_parked") >= 1);
    client.goodbye().expect("goodbye");
    handle.shutdown_and_join();
}

#[test]
fn server_death_restart_resume_is_bit_identical() {
    for shards in SHARD_COUNTS {
        restart_resume_body(shards, "default", HelloConfig::default());
    }
}

/// The same death/restart/resume scenario, but the session carries TAGE
/// tagged-component state and a shadow-predictor mechanism through the
/// park checkpoint — the richest state blobs the spec grammar can name.
#[test]
fn server_death_restart_resume_is_bit_identical_for_tage() {
    let config = HelloConfig {
        predictor: "tage-sc-lite:10:4:2:32:9".into(),
        mechanism: "self:tage-sc-lite:10:4:2:32:9".into(),
        index: "pcxorbhr:10".into(),
        init: "ones".into(),
        threshold: 8,
    };
    restart_resume_body(2, "tage", config);
}

fn restart_resume_body(shards: usize, tag: &str, config: HelloConfig) {
    let dir = std::env::temp_dir().join(format!(
        "cira-chaos-restart-{}-s{shards}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        park_dir: Some(dir.clone()),
        ..base_cfg(shards)
    };

    let trace = bench_trace(2, 24_000);
    let head: PackedTrace = (0..16_000).map(|i| trace.get(i).unwrap()).collect();
    let tail: PackedTrace = (16_000..24_000).map(|i| trace.get(i).unwrap()).collect();
    let expected = local_reference(&config, &trace);

    // Incarnation one: stream the head, PARK, die. PARKED_ACK is a
    // durability receipt — by the time park() returns, the checkpoint is
    // synced to the page file, so nothing depends on a graceful exit.
    let token = {
        let handle = start_server(cfg.clone());
        let addr = handle.local_addr().to_string();
        let mut client = Client::connect(&addr, config).expect("connect");
        client.stream(&head, 2_000).expect("stream head");
        let token = client.park().expect("park");
        handle.shutdown_and_join();
        token
    };

    // Incarnation two: a fresh server process on the same directory
    // rebuilds its park index from the store at startup.
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();
    assert_eq!(metric(&handle, "sessions_live"), 1, "recovered at startup");
    assert_eq!(metric(&handle, "park_disk_records"), 1);

    let mut client = Client::builder(&addr)
        .resume(token)
        .expect("resume across restart");
    client.stream(&tail, 2_000).expect("stream tail");
    assert_eq!(
        client.snapshot_stats().unwrap(),
        expected,
        "statistics must be bit-identical across a server death"
    );
    assert!(metric(&handle, "park_loaded") >= 1, "resume came off disk");

    client.goodbye().expect("goodbye");
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn park_pressure_spills_cold_sessions_and_reloads_them() {
    for shards in SHARD_COUNTS {
        park_pressure_body(shards);
    }
}

fn park_pressure_body(shards: usize) {
    let dir =
        std::env::temp_dir().join(format!("cira-chaos-spill-{}-s{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        park_capacity: 2,
        park_dir: Some(dir.clone()),
        ..base_cfg(shards)
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();
    let config = HelloConfig::default();

    // Park six sessions against a two-slot hot tier: at least four must
    // be evicted from memory — spilled, not dropped, since every park is
    // written through to disk. The parked population exceeds what the
    // hot tier can hold.
    let mut tokens = Vec::new();
    let mut traces = Vec::new();
    for bench in 0..6 {
        let trace = bench_trace(bench, 4_000);
        let mut client = Client::connect(&addr, config.clone()).expect("connect");
        client.stream(&trace, 1_000).expect("stream");
        tokens.push(client.park().expect("park"));
        traces.push(trace);
    }
    assert_eq!(metric(&handle, "park_disk_records"), 6, "all six durable");
    assert!(metric(&handle, "park_spilled") >= 4, "hot tier held at two");
    assert_eq!(
        metric(&handle, "sessions_live"),
        6,
        "parked sessions count as live"
    );

    // The first-parked session is long gone from the hot tier, so this
    // resume must decode the checkpoint back off the page file.
    let expected = local_reference(&config, &traces[0]);
    let mut client = Client::builder(&addr)
        .resume(tokens[0])
        .expect("resume the coldest session");
    assert_eq!(
        client.snapshot_stats().unwrap(),
        expected,
        "disk reload is bit-identical"
    );
    assert!(metric(&handle, "park_loaded") >= 1);

    client.goodbye().expect("goodbye");
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bogus_and_expired_resume_tokens_are_refused() {
    for shards in SHARD_COUNTS {
        bogus_resume_body(shards);
    }
}

fn bogus_resume_body(shards: usize) {
    let cfg = ServerConfig {
        park_ttl_ms: 50,
        ..base_cfg(shards)
    };
    let handle = start_server(cfg);
    let addr = handle.local_addr().to_string();

    // A RESUME naming no session at all.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(
            &mut stream,
            &encode_client(&ClientFrame::Resume {
                version: PROTO_VERSION,
                token: 0xDEAD_BEEF,
            }),
        )
        .unwrap();
        match read_frame(&mut stream, u32::MAX, 100).unwrap() {
            ReadOutcome::Frame(body) => match decode_server(&body).unwrap() {
                ServerFrame::Error { code: c, .. } => assert_eq!(c, code::UNKNOWN_SESSION),
                other => panic!("expected UNKNOWN_SESSION, got {other:?}"),
            },
            other => panic!("no reply: {other:?}"),
        }
    }
    assert_eq!(metric(&handle, "resume_failures"), 1);

    // A real session, parked by an abrupt disconnect, then left past the
    // 50 ms TTL: the client's resume must fail for good, not hand back
    // stale state.
    let mut client = Client::builder(&addr)
        .read_timeout(Duration::from_millis(500))
        .retry(
            RetryPolicy::retries(3)
                .with_delays(Duration::from_millis(120), Duration::from_millis(200))
                .with_jitter_seed(7),
        )
        .connect(HelloConfig::default())
        .expect("connect");
    client.stream(&bench_trace(5, 2_000), 500).unwrap();
    // Dropping the client closes the socket with no GOODBYE — an abrupt
    // close, so the server parks the session.
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metric(&handle, "sessions_parked") == 0 {
        assert!(std::time::Instant::now() < deadline, "session never parked");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Past the TTL, the accept loop's tick sweeps it out.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metric(&handle, "park_evicted_ttl") == 0 {
        assert!(std::time::Instant::now() < deadline, "TTL sweep never ran");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown_and_join();
}
