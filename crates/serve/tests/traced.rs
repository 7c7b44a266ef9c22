//! Flight-recorder integration: a real server with tracing **enabled**
//! must stay bit-identical to the offline engine (the recorder may
//! observe the pipeline, never perturb it) and its dump must cover the
//! whole request lifecycle — accept, parse, inbox post, batch checkout,
//! scoring (and its per-chunk kernel spans), completion, write
//! queue/flush — plus a park spill and a park load. With a disk park
//! tier, the dump also shows that every `PARKED_ACK` and `RESUMED`
//! waited for an `fsync` on the durability thread that began after the
//! request's page writes, and that every `RESUME` was answered on the
//! shard that accepted its connection.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::Duration;

use cira_analysis::engine::pool::WorkerPool;
use cira_analysis::engine::replay::StreamingReplay;
use cira_analysis::spec;
use cira_serve::cira_obs::http;
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

/// Pulls the server's Chrome trace JSON from its metrics listener.
fn dump(http_addr: SocketAddr) -> String {
    let (status, json) = http::get(http_addr, "/trace", Duration::from_secs(10)).expect("GET");
    assert!(status.contains("200"), "status: {status}");
    json
}

/// One event line of a dump: name, thread, trace id, aux, and its start
/// and end in nanoseconds (equal for an instant).
#[derive(Debug, Clone)]
struct Event {
    name: String,
    tid: u64,
    trace: u64,
    aux: u64,
    start: u64,
    end: u64,
}

/// The text after `"key":` up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// A `µs.nnn` timestamp as whole nanoseconds, exactly.
fn ns(us: &str) -> u64 {
    us.replace('.', "")
        .parse()
        .expect("fixed-point microseconds")
}

/// The dump's span and instant events, plus each thread's name by tid.
/// The dump writes one event per line.
fn parse_dump(json: &str) -> (Vec<Event>, HashMap<u64, String>) {
    let mut events = Vec::new();
    let mut threads = HashMap::new();
    for line in json.lines() {
        let (Some(name), Some(tid)) = (field(line, "name"), field(line, "tid")) else {
            continue;
        };
        let tid: u64 = tid.parse().unwrap();
        if name == "\"thread_name\"" {
            let label = line.rsplit("\"name\":\"").next().unwrap();
            threads.insert(tid, label[..label.find('"').unwrap()].to_owned());
            continue;
        }
        let Some(ts) = field(line, "ts") else {
            continue;
        };
        let start = ns(ts);
        let dur = field(line, "dur").map_or(0, ns);
        events.push(Event {
            name: name.trim_matches('"').to_owned(),
            tid,
            trace: field(line, "trace").unwrap().parse().unwrap(),
            aux: field(line, "aux").unwrap().parse().unwrap(),
            start,
            end: start + dur,
        });
    }
    (events, threads)
}

/// Checks every explicit PARK (a `park_spill` span with aux 1) and
/// every RESUME (`park_load`): the reply it queued next on its
/// connection must come after the end of an `fsync` on the durability
/// thread that began after the request's last `page_write`. Returns how
/// many replies it checked.
fn replies_follow_a_covering_fsync(json: &str) -> usize {
    let (events, threads) = parse_dump(json);
    let durability: Vec<u64> = threads
        .iter()
        .filter(|(_, name)| name.as_str() == "cira-serve-durability")
        .map(|(&tid, _)| tid)
        .collect();
    assert_eq!(durability.len(), 1, "one durability thread: {threads:?}");
    let shard_threads: Vec<u64> = threads
        .iter()
        .filter(|(_, name)| name.starts_with("cira-serve-shard"))
        .map(|(&tid, _)| tid)
        .collect();
    let fsyncs: Vec<&Event> = events.iter().filter(|e| e.name == "fsync").collect();
    assert!(
        fsyncs.iter().all(|e| !shard_threads.contains(&e.tid)),
        "a shard thread ran an fsync"
    );
    let mut checked = 0;
    for req in events.iter().filter(|e| {
        e.trace != 0 && ((e.name == "park_spill" && e.aux == 1) || e.name == "park_load")
    }) {
        let last_write = events
            .iter()
            .filter(|e| {
                e.name == "page_write"
                    && e.trace == req.trace
                    && e.start >= req.start
                    && e.end <= req.end
            })
            .map(|e| e.end)
            .max()
            .unwrap_or_else(|| panic!("{} wrote no page", req.name));
        let reply = events
            .iter()
            .filter(|e| e.name == "write_queue" && e.trace == req.trace && e.start >= req.end)
            .map(|e| e.start)
            .min()
            .unwrap_or_else(|| panic!("{} got no reply", req.name));
        assert!(
            fsyncs
                .iter()
                .any(|f| f.tid == durability[0] && f.start >= last_write && f.end <= reply),
            "{} reply at {reply} ns has no durability-thread fsync between its \
             last page write ({last_write} ns) and it",
            req.name
        );
        checked += 1;
    }
    checked
}

/// Checks that every RESUME was answered on the shard that accepted its
/// connection: each `park_load` span carries the trace id of an
/// `accept` instant, and a trace id packs the shard with the
/// connection's token on it. Returns how many resumes it checked.
fn resumes_stay_on_their_accepting_shard(json: &str) -> usize {
    let (events, _) = parse_dump(json);
    let accepted: HashSet<u64> = events
        .iter()
        .filter(|e| e.name == "accept")
        .map(|e| e.trace)
        .collect();
    let loads: Vec<&Event> = events.iter().filter(|e| e.name == "park_load").collect();
    for load in &loads {
        assert!(
            accepted.contains(&load.trace),
            "a resume was answered off the shard that accepted it (trace id {:#x})",
            load.trace
        );
    }
    loads.len()
}

#[test]
fn traced_server_is_bit_identical_and_dumps_every_lifecycle_stage() {
    let park_dir = std::env::temp_dir().join(format!("cira-traced-park-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&park_dir);
    let cfg = ServerConfig {
        shards: 2,
        trace: true,
        trace_capacity: 1 << 16,
        metrics_addr: Some("127.0.0.1:0".into()),
        park_dir: Some(park_dir.clone()),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind");
    let addr = handle.local_addr().to_string();
    let http_addr = handle.metrics_http_addr().expect("metrics listener");

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

    // Park/resume cycles. Accepts round-robin across the two shards, so
    // the resumes land on both.
    const CYCLES: usize = 8;
    let mut token = client.park().expect("park");
    for _ in 0..CYCLES {
        let mut resumed = Client::builder(&addr).resume(token).expect("resume");
        token = resumed.park().expect("re-park");
    }
    let json = dump(http_addr);

    // The park is durable: each PARKED_ACK and RESUMED waited for a
    // sync on the durability thread that covered its page writes.
    assert_eq!(
        replies_follow_a_covering_fsync(&json),
        1 + 2 * CYCLES,
        "every PARK and RESUME reply checked"
    );
    // A connection never changes shards: each RESUME was answered where
    // its connection was accepted.
    assert_eq!(
        resumes_stay_on_their_accepting_shard(&json),
        CYCLES,
        "every RESUME checked"
    );

    // A loadable Chrome trace: one JSON object with a traceEvents array.
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"traceEvents\""), "{json}");

    // Every lifecycle stage must appear, park spill/load included.
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
    let _ = std::fs::remove_dir_all(&park_dir);
}
