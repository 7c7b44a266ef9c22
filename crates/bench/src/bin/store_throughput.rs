//! Spill, load and recovery throughput of the durable session store.
//!
//! Parking a session pays `Checkpoint::encode` plus a write of its
//! pages and a sync; every cold resume pays `get` + `Checkpoint::decode`;
//! a restarted server pays `SessionStore::open`, which scans the whole
//! page file. This binary measures four legs with an authentic payload:
//! one default-configuration session (gshare64k + resetting:16) is
//! replayed over `CIRA_TRACE_LEN` branches, checkpointed, and that image
//! is spilled and reloaded as a fleet of distinct sessions through a
//! fresh page file. The spill runs twice: once with `SessionStore::put`,
//! one sync per session, and once as a group commit, every session
//! through the write half (`put_unsynced`) and then one sync for all of
//! them, as the server's parks and its durability thread do.
//! The recover leg reopens a group-commit-written file of
//! `RECOVER_SESSIONS` checkpoints, long enough that the open-time scan
//! reads it in many runs.
//!
//! Reported per leg: sessions/s and MB/s. Results go to
//! `BENCH_store.json`.

use std::time::Instant;

use cira_analysis::engine::replay::StreamingReplay;
use cira_bench::{banner, trace_len};
use cira_core::one_level::ResettingConfidence;
use cira_core::{IndexSpec, InitPolicy};
use cira_predictor::Gshare;
use cira_store::page::PAGE_SIZE;
use cira_store::store::SessionStore;
use cira_store::Checkpoint;
use cira_trace::codec::PackedTrace;
use cira_trace::suite::ibs_like_suite;

/// Distinct sessions spilled/reloaded per rep.
const SESSIONS: u64 = 32;
/// Timing repetitions per leg; the best wall time wins.
const REPS: usize = 3;
/// Checkpoints in the file the recover leg reopens: about 21.5k pages.
const RECOVER_SESSIONS: u64 = 1024;

/// Replays the server's default session over `len` branches and returns
/// its full CIRD checkpoint.
fn warm_checkpoint(len: u64) -> Checkpoint {
    let mut replay = StreamingReplay::new(
        Box::new(Gshare::paper_large()),
        Box::new(ResettingConfidence::new(
            IndexSpec::pc_xor_bhr(16),
            16,
            InitPolicy::AllOnes,
        )),
    );
    let trace: PackedTrace = ibs_like_suite()[0].walker().take(len as usize).collect();
    replay.feed(&trace);
    let run = replay.run();
    Checkpoint {
        session_id: 1,
        predictor: "gshare64k".into(),
        mechanism: "resetting:16".into(),
        index: "pcxorbhr:16".into(),
        init: "ones".into(),
        threshold: 16,
        last_seq: Some(0),
        batches: 1,
        low_confidence: 0,
        bhr: replay.bhr_value(),
        branches: run.branches,
        mispredicts: run.mispredicts,
        predictor_state: replay.predictor_state(),
        mechanism_state: replay.mechanism_state(),
        cells: replay.cells(),
    }
}

fn main() {
    let len = trace_len();
    banner(
        "Store spill/load/recover throughput",
        "Checkpoint encode+put (fsync each, or one for all), get+decode, and reopen of a large page file",
        len,
    );

    let checkpoint = warm_checkpoint(len);
    let blob = checkpoint.encode();
    let dir = std::env::temp_dir().join(format!("cira-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.cirstore");
    println!(
        "payload: {} bytes per session ({} sessions, best of {REPS} reps)",
        blob.len(),
        SESSIONS
    );
    println!();

    // Spill: encode + put for each session, fsync included — the cost a
    // PARKED_ACK stands behind.
    let mut spill_best = f64::INFINITY;
    for _ in 0..REPS {
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).expect("open store");
        let t0 = Instant::now();
        for token in 0..SESSIONS {
            let bytes = checkpoint.encode();
            store.put(token, token, 0, &bytes).expect("put checkpoint");
        }
        spill_best = spill_best.min(t0.elapsed().as_secs_f64());
    }
    let spill_mb = SESSIONS as f64 * blob.len() as f64 / 1e6;
    println!(
        "spill: {spill_best:8.3}s  ({:.1} sessions/s, {:.1} MB/s)",
        SESSIONS as f64 / spill_best,
        spill_mb / spill_best
    );

    // Group-commit spill: the same sessions through the write half, then
    // one sync that makes all of them crash-safe.
    let mut group_best = f64::INFINITY;
    for _ in 0..REPS {
        let _ = std::fs::remove_file(&path);
        let mut store = SessionStore::open(&path, 0).expect("open store");
        let t0 = Instant::now();
        for token in 0..SESSIONS {
            let bytes = checkpoint.encode();
            store
                .put_unsynced(token, token, 0, &bytes)
                .expect("write checkpoint");
        }
        store.sync().expect("sync the spill");
        group_best = group_best.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "group: {group_best:8.3}s  ({:.1} sessions/s, {:.1} MB/s; one sync)",
        SESSIONS as f64 / group_best,
        spill_mb / group_best
    );

    // Load: reopen + get + decode for each session — the cost of a
    // RESUME that misses the hot tier.
    let mut load_best = f64::INFINITY;
    for _ in 0..REPS {
        let store = SessionStore::open(&path, 0).expect("reopen store");
        let t0 = Instant::now();
        for token in 0..SESSIONS {
            let (_meta, bytes) = store.get(token).expect("get checkpoint");
            let decoded = Checkpoint::decode(&bytes).expect("decode checkpoint");
            assert_eq!(decoded.branches, checkpoint.branches, "payload integrity");
        }
        load_best = load_best.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "load:  {load_best:8.3}s  ({:.1} sessions/s, {:.1} MB/s)",
        SESSIONS as f64 / load_best,
        spill_mb / load_best
    );

    // Recover: reopen a park of RECOVER_SESSIONS checkpoints written as
    // one group commit — the scan a restarted server runs before it
    // accepts connections.
    let _ = std::fs::remove_file(&path);
    let mut store = SessionStore::open(&path, 0).expect("open store");
    for token in 0..RECOVER_SESSIONS {
        store
            .put_unsynced(token, token, 0, &blob)
            .expect("write checkpoint");
    }
    store.sync().expect("sync the park");
    drop(store);
    let recover_pages = std::fs::metadata(&path).expect("stat store").len() / PAGE_SIZE as u64;
    let mut recover_best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let store = SessionStore::open(&path, 0).expect("recover store");
        recover_best = recover_best.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            store.len(),
            RECOVER_SESSIONS as usize,
            "every record recovered"
        );
    }
    let recover_mb = RECOVER_SESSIONS as f64 * blob.len() as f64 / 1e6;
    println!(
        "recover: {recover_best:6.3}s  ({:.1} sessions/s, {:.1} MB/s; {RECOVER_SESSIONS} sessions, {recover_pages} pages)",
        RECOVER_SESSIONS as f64 / recover_best,
        recover_mb / recover_best
    );

    let json = format!(
        "{{\n  \"trace_len\": {len},\n  \"sessions\": {SESSIONS},\n  \"blob_bytes\": {},\n  \"reps\": {REPS},\n  \"spill\": {{\"wall_seconds\": {spill_best:.4}, \"sessions_per_sec\": {:.1}, \"mb_per_sec\": {:.1}}},\n  \"spill_group_commit\": {{\"wall_seconds\": {group_best:.4}, \"sessions_per_sec\": {:.1}, \"mb_per_sec\": {:.1}}},\n  \"load\": {{\"wall_seconds\": {load_best:.4}, \"sessions_per_sec\": {:.1}, \"mb_per_sec\": {:.1}}},\n  \"recover\": {{\"sessions\": {RECOVER_SESSIONS}, \"pages\": {recover_pages}, \"wall_seconds\": {recover_best:.4}, \"sessions_per_sec\": {:.1}, \"mb_per_sec\": {:.1}}}\n}}\n",
        blob.len(),
        SESSIONS as f64 / spill_best,
        spill_mb / spill_best,
        SESSIONS as f64 / group_best,
        spill_mb / group_best,
        SESSIONS as f64 / load_best,
        spill_mb / load_best,
        RECOVER_SESSIONS as f64 / recover_best,
        recover_mb / recover_best,
    );
    match std::fs::write("BENCH_store.json", &json) {
        Ok(()) => println!("wrote BENCH_store.json"),
        Err(e) => cira_obs::warn!("could not write BENCH_store.json", error = e),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
