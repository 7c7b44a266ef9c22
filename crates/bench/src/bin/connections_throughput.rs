//! Connection-scale throughput of the sharded `cira-serve` event loop.
//!
//! A real server (N epoll shards, the shared worker pool) on a loopback
//! socket; a fleet of client threads opens sessions back-to-back, each
//! session streaming its share of `CIRA_TRACE_LEN` branches in batches
//! and closing with a GOODBYE. Reported: sessions/s, records/s, and the
//! p50/p99 whole-session service time (connect through GOODBYE_ACK) —
//! the end-to-end figure the thread-per-core rearchitecture is judged
//! on. Results go to `BENCH_serve.json` with toolchain/host provenance.
//!
//! Environment:
//!
//! * `CIRA_TRACE_LEN` — total branches across all sessions (default 1M);
//! * `CIRA_SERVE_SHARDS` — event-loop shards (default: one per core).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cira_analysis::engine::pool::WorkerPool;
use cira_bench::{banner, rustc_version, trace_len};
use cira_serve::server::{serve, ServerConfig};
use cira_serve::{Client, HelloConfig};
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// Sessions opened, streamed, and closed per run.
const SESSIONS: usize = 512;
/// Records per BATCH frame.
const BATCH: usize = 500;
/// Client threads driving sessions back-to-back.
const CLIENT_THREADS: usize = 4;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).max(1) - 1;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let len = trace_len();
    let shards = match std::env::var("CIRA_SERVE_SHARDS") {
        Ok(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("CIRA_SERVE_SHARDS must be an integer, got {v:?}")),
        Err(_) => 0, // serve() resolves 0 to one shard per core
    };
    let per_session = (len as usize / SESSIONS).max(BATCH);
    banner(
        "Serve connection throughput",
        "Session open/stream/close rate against the sharded epoll server",
        len,
    );

    let cfg = ServerConfig {
        shards,
        max_sessions: 2 * SESSIONS,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg, WorkerPool::global()).expect("bind");
    let addr = handle.local_addr().to_string();
    let resolved_shards = if shards == 0 { host_cores() } else { shards };
    println!(
        "{SESSIONS} sessions x {per_session} records (batch {BATCH}), \
         {CLIENT_THREADS} client threads, {resolved_shards} shards"
    );
    println!();

    // Shared work queue: threads claim session indices until none remain.
    let next = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            let addr = addr.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut service_us = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= SESSIONS {
                        return service_us;
                    }
                    let trace: PackedTrace =
                        ibs_like_suite()[i % 6].walker().take(per_session).collect();
                    let s0 = Instant::now();
                    let mut client =
                        Client::connect(&addr, HelloConfig::default()).expect("connect");
                    let totals = client.stream(&trace, BATCH).expect("stream");
                    assert_eq!(totals.records, per_session as u64);
                    client.goodbye().expect("goodbye");
                    service_us.push(s0.elapsed().as_micros() as u64);
                }
            })
        })
        .collect();
    let mut service_us: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    handle.shutdown_and_join();

    service_us.sort_unstable();
    let sessions_per_sec = SESSIONS as f64 / wall;
    let records_per_sec = (SESSIONS * per_session) as f64 / wall;
    let p50 = percentile(&service_us, 0.50);
    let p99 = percentile(&service_us, 0.99);
    println!(
        "wall: {wall:.3}s  ({sessions_per_sec:.1} sessions/s, {:.2} Mrecords/s)",
        records_per_sec / 1e6
    );
    println!("session service time: p50 {p50} us, p99 {p99} us");

    let json = format!(
        "{{\n  \"trace_len\": {len},\n  \"sessions\": {SESSIONS},\n  \"records_per_session\": {per_session},\n  \"batch_records\": {BATCH},\n  \"client_threads\": {CLIENT_THREADS},\n  \"shards\": {resolved_shards},\n  \"wall_seconds\": {wall:.4},\n  \"sessions_per_sec\": {sessions_per_sec:.1},\n  \"records_per_sec\": {records_per_sec:.0},\n  \"service_us\": {{\"p50\": {p50}, \"p99\": {p99}}},\n  \"provenance\": {{\"rustc\": \"{}\", \"kernel\": \"{}\", \"host_cores\": {}}}\n}}\n",
        rustc_version(),
        kernel(),
        host_cores(),
    );
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => cira_obs::warn!("could not write BENCH_serve.json", error = e),
    }
}
