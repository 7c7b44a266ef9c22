//! `serve_sessions`: two client threads run short session lifecycles
//! back to back against a server with a durable park. A lifecycle is
//! HELLO, a few batches, PARK; later RESUME, a few more batches,
//! SNAPSHOT and GOODBYE. Each thread parks a wave of [`WAVE`] sessions
//! before resuming them, more than the hot park tier holds, so most
//! resumes load their session from the page file.
//!
//! The operation, and the "session", is one lifecycle; its attached time
//! is HELLO → PARKED_ACK plus RESUME → GOODBYE_ACK.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cira_analysis::BucketStats;
use cira_serve::proto::{stats_from_cells, HelloConfig, ServerFrame};
use cira_serve::server::ServerHandle;
use cira_serve::session::Session;
use cira_serve::{Client, ClientBuilder, ClientError};
use cira_store::{Checkpoint, SessionStore};
use cira_trace::codec::PackedTrace;

use crate::net;
use crate::span::{self, span};
use crate::stats::Sentinels;
use crate::stream::{observe, reference_stats, Seen};
use crate::{suite, Budget, Clock, Op, Params, Phase, Scale, Seconds, Verdict, Workload};

/// Sessions the server keeps decoded in memory (`park_capacity`).
pub const HOT: usize = 4;
/// Sessions each thread parks before resuming them.
pub const WAVE: usize = 8;
/// Client threads, one connection at a time each.
pub const CONNECTIONS: usize = 2;
/// Batches before PARK and after RESUME.
pub const BATCHES: (usize, usize) = (2, 2);
/// Distinct trace segments per benchmark.
const SEGMENTS: usize = 8;

/// Records per batch at `scale`.
pub fn batch_len(scale: Scale) -> usize {
    match scale {
        Scale::Full | Scale::Probe => 1024,
        Scale::Smoke => 256,
    }
}

/// One lifecycle's input: `BATCHES.0 + BATCHES.1` consecutive batches.
struct Segment {
    records: PackedTrace,
    batches: Vec<PackedTrace>,
}

/// A lifecycle between its PARK and its RESUME.
struct Parked {
    req: u64,
    seg: usize,
    token: u64,
    /// Records scored before PARK.
    records: u64,
    attached_s: f64,
    /// Whether the traced run checkpointed a replica into the scratch
    /// store, to restore and compare at RESUME.
    replicated: bool,
}

/// A set-up `serve_sessions` workload.
pub struct Sessions {
    handle: Option<ServerHandle>,
    addr: String,
    cfg: HelloConfig,
    segments: Vec<Segment>,
    /// First final snapshot seen per segment, and how often seen.
    snapshots: Seen<BucketStats>,
    /// The park's directory.
    dir: PathBuf,
    /// Scratch stores for the traced run's replica checkpoints, one per
    /// client thread, beside the park; opened on first use, so set-up
    /// does not pay for them.
    scratch: Vec<Mutex<Option<SessionStore>>>,
    next_segment: AtomicU64,
    /// The run's slice this set-up serves; it keys the latency strata.
    slice: u64,
    corrupt: bool,
}

impl Sessions {
    /// Walks the suite's traces into lifecycle segments and starts a
    /// server whose park lives on disk under the work directory.
    pub fn setup(params: &Params) -> Sessions {
        static SERVERS: AtomicU64 = AtomicU64::new(0);
        let n = SERVERS.fetch_add(1, Ordering::Relaxed);
        let blen = batch_len(params.scale);
        let per = blen * (BATCHES.0 + BATCHES.1);
        let mut segments = Vec::new();
        for bench in suite::seeded_suite(params.seed) {
            let trace = suite::walk(&bench, per * SEGMENTS);
            for s in 0..SEGMENTS {
                let records = suite::slice(&trace, s * per, per);
                let batches = suite::batches(&records, blen);
                segments.push(Segment { records, batches });
            }
        }
        let dir: PathBuf = params.work_dir.join(format!("park-{n}"));
        let handle = net::start(Some((dir.clone(), HOT)));
        let addr = handle.local_addr().to_string();
        Sessions {
            handle: Some(handle),
            addr,
            cfg: net::hello(),
            snapshots: Mutex::new((0..segments.len()).map(|_| None).collect()),
            segments,
            dir,
            scratch: (0..CONNECTIONS).map(|_| Mutex::new(None)).collect(),
            next_segment: AtomicU64::new(params.seed),
            slice: params.slice,
            corrupt: params.corrupt_reference,
        }
    }

    /// Runs `f` on client thread `thread`'s scratch store.
    fn with_scratch<R>(&self, thread: usize, f: impl FnOnce(&mut SessionStore) -> R) -> R {
        let mut store = self.scratch[thread].lock().expect("scratch store poisoned");
        f(store.get_or_insert_with(|| {
            let path = self.dir.join(format!("scratch-{thread}.cirstore"));
            SessionStore::open(&path, 0).expect("open the scratch session store")
        }))
    }

    /// Sends `batches`; returns the records scored.
    fn send_all(
        &self,
        client: &mut Client,
        batches: &[PackedTrace],
        req: u64,
    ) -> Result<u64, ClientError> {
        let mut records = 0;
        for batch in batches {
            let totals = span("serve.lifecycle_batch", req, batch.len() as u64, || {
                client.send_batch(batch)
            })?;
            records += totals.records;
        }
        Ok(records)
    }

    /// HELLO, the first batches, PARK. Returns the parked lifecycle.
    fn first_half(&self, thread: usize, out: &mut Phase) -> Result<Parked, ClientError> {
        let req = span::next_req();
        let seg = self.next_segment.fetch_add(1, Ordering::Relaxed) as usize % self.segments.len();
        let batches = &self.segments[seg].batches[..BATCHES.0];
        let t0 = Instant::now();
        let (records, token) = span("serve.attach", req, 0, || {
            let cfg = self.cfg.clone();
            let mut client = span("serve.hello", req, 0, || {
                ClientBuilder::new(&self.addr).connect(cfg)
            })?;
            let records = self.send_all(&mut client, batches, req)?;
            let token = span("serve.park", req, 0, || client.park());
            out.serve.retries += client.retries();
            Ok::<_, ClientError>((records, token?))
        })?;
        let attached_s = t0.elapsed().as_secs_f64();
        let replicated = span::enabled();
        if replicated {
            let mut session = span("serve.session_build", req, 0, || {
                Session::from_hello(&self.cfg, req).expect("benchmark session spec")
            });
            for (k, b) in batches.iter().enumerate() {
                session.apply_batch(k as u32, b);
            }
            let blob = span("serve.checkpoint", req, 0, || {
                session.to_checkpoint(req).encode()
            });
            self.with_scratch(thread, |store| {
                span("store.put", req, blob.len() as u64, || {
                    store.put(req, req, 0, &blob)
                })
            })
            .expect("scratch store put");
        }
        Ok(Parked {
            req,
            seg,
            token,
            records,
            attached_s,
            replicated,
        })
    }

    /// RESUME, the remaining batches, SNAPSHOT, GOODBYE. Returns the
    /// lifecycle's attached seconds, its records and whether its final
    /// statistics matched.
    fn second_half(
        &self,
        thread: usize,
        p: Parked,
        out: &mut Phase,
    ) -> Result<(f64, u64, bool), ClientError> {
        let req = p.req;
        let seg = &self.segments[p.seg];
        let batches = &seg.batches[BATCHES.0..];
        let t0 = Instant::now();
        let (records, stats) = span("serve.attach", req, 0, || {
            let mut client = span("serve.resume", req, 0, || {
                ClientBuilder::new(&self.addr).resume(p.token)
            })?;
            let records = self.send_all(&mut client, batches, req)?;
            let stats = span("serve.snapshot", req, 0, || client.snapshot_stats())?;
            out.serve.retries += client.retries();
            span("serve.goodbye", req, 0, || client.goodbye())?;
            Ok::<_, ClientError>((records, stats))
        })?;
        let attached_s = p.attached_s + t0.elapsed().as_secs_f64();
        let records = p.records + records;
        let mut ok = true;
        if p.replicated {
            let blob = self.with_scratch(thread, |store| {
                let (_, blob) =
                    span("store.get", req, 0, || store.get(req)).expect("scratch store get");
                store.remove(req).expect("scratch store remove");
                blob
            });
            let mut session = span("serve.restore", req, blob.len() as u64, || {
                let cp = Checkpoint::decode(&blob).expect("replica checkpoint decodes");
                Session::from_checkpoint(&cp, req).expect("replica checkpoint restores")
            });
            for (k, b) in batches.iter().enumerate() {
                session.apply_batch((BATCHES.0 + k) as u32, b);
            }
            let replica_stats = match session.snapshot() {
                ServerFrame::SnapshotReply { cells, .. } => {
                    stats_from_cells(&cells).expect("replica cells")
                }
                other => panic!("snapshot returned {other:?}"),
            };
            ok &= replica_stats == stats;
        }
        ok &= observe(&self.snapshots, p.seg, stats);
        Ok((attached_s, records, ok))
    }

    fn drive(&self, thread: usize, clock: &Clock, budget: &Budget, started: &AtomicU64) -> Phase {
        let mut out = Phase::default();
        let sec = Seconds::new(clock, self.slice, budget);
        loop {
            let mut wave = Vec::new();
            for _ in 0..WAVE {
                if clock.spent(budget, started.fetch_add(1, Ordering::Relaxed)) {
                    break;
                }
                out.attempted += 1;
                match self.first_half(thread, &mut out) {
                    Ok(p) => wave.push(p),
                    Err(e) => {
                        out.serve.count(&e);
                        out.failed += 1;
                    }
                }
            }
            if wave.is_empty() {
                return out;
            }
            for p in wave {
                match self.second_half(thread, p, &mut out) {
                    Ok((attached_s, records, ok)) => {
                        out.session_ms.push(sec.now(), attached_s * 1e3);
                        out.ops.push(Op {
                            end_s: clock.now_s(),
                            records,
                        });
                        out.failed += u64::from(!ok);
                    }
                    Err(e) => {
                        out.serve.count(&e);
                        out.failed += 1;
                    }
                }
            }
        }
    }

    /// The server's `STATS` counters.
    fn server_stats(&self) -> Vec<(String, u64)> {
        let mut client = Client::connect_raw(&self.addr).expect("raw connection for STATS");
        let stats = client.stats().expect("STATS reply");
        let _ = client.goodbye();
        stats
    }
}

impl Workload for Sessions {
    fn run(&mut self, budget: Budget) -> Phase {
        let started = AtomicU64::new(0);
        let clock = Clock::start();
        let me = &*self;
        let outs: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|t| {
                    let (clock, budget, started) = (&clock, &budget, &started);
                    s.spawn(move || me.drive(t, clock, budget, started))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut phase = Phase {
            elapsed_s: clock.now_s(),
            ..Phase::default()
        };
        for o in outs {
            phase.merge(o);
        }
        phase
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let snaps = self.snapshots.lock().expect("result table poisoned");
        for (seg, seen) in self.segments.iter().zip(snaps.iter()) {
            let Some((stats, n)) = seen else { continue };
            let mut want = reference_stats(&self.cfg, &seg.records);
            if self.corrupt {
                want.record_batch(u64::MAX, 1, 1);
            }
            verdict.checked += n;
            if *stats != want {
                verdict.failed += n;
            }
        }
        verdict
    }

    fn sentinels(&self) -> Sentinels {
        Sentinels::of_stats(
            self.segments
                .iter()
                .map(|seg| reference_stats(&self.cfg, &seg.records)),
        )
    }

    fn layer_counts(&mut self) -> Vec<(&'static str, f64)> {
        let stats = self.server_stats();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        let resumed = get("sessions_resumed");
        let (hits, misses) = (get("store_page_hits"), get("store_page_misses"));
        vec![
            (
                "serve.resume_disk_share",
                get("park_loaded") / resumed.max(1.0),
            ),
            ("store.page_hit_ratio", hits / (hits + misses).max(1.0)),
        ]
    }
}

impl Drop for Sessions {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown_and_join();
        }
        // A run sets this workload up many times; keep one park on disk.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
