//! `serve_stream`: two connections, each streaming long sessions of a
//! seeded suite trace in 4096-record `BATCH` frames (the `cira replay`
//! default) with one batch outstanding — a closed loop that needs batch
//! k's answer before it sends batch k+1.
//!
//! A session here is one whole trace, HELLO to GOODBYE_ACK; the
//! operation is one `Client::send_batch` round trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cira_analysis::engine::replay::{replay_mechanisms, StreamingReplay};
use cira_analysis::spec::{parse_index, parse_init, parse_mechanism, parse_predictor};
use cira_analysis::BucketStats;
use cira_serve::proto::{decode_client, decode_server, encode_client, encode_server};
use cira_serve::proto::{ClientFrame, HelloConfig, ServerFrame};
use cira_serve::server::ServerHandle;
use cira_serve::session::Session;
use cira_serve::{Client, ClientBuilder};
use cira_trace::codec::PackedTrace;

use crate::net;
use crate::span::{self, span};
use crate::stats::Sentinels;
use crate::{suite, Budget, Clock, Op, Params, Phase, Scale, Seconds, Verdict, Workload};

/// Records per `BATCH` frame: the `cira replay` default.
pub const BATCH: usize = 4096;

/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;

/// Records per session (one suite trace) at `scale`.
pub fn session_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1 << 19,
        Scale::Probe => 1 << 15,
        Scale::Smoke => 1 << 14,
    }
}

/// The fields of a `BATCH_ACK` the client hands back:
/// `(records, mispredicts, low_confidence)`.
pub type Ack = (u64, u64, u64);

/// The ack fields of a server `BATCH_ACK` frame.
pub fn ack_of(frame: &ServerFrame) -> Ack {
    match frame {
        ServerFrame::BatchAck {
            records,
            mispredicts,
            low_confidence,
            ..
        } => (*records, *mispredicts, *low_confidence),
        other => panic!("apply_batch returned {other:?}"),
    }
}

/// The offline reference for one session: [`replay_mechanisms`] over its
/// records with the session's predictor and mechanism.
pub fn reference_stats(cfg: &HelloConfig, trace: &PackedTrace) -> BucketStats {
    let mut predictor = parse_predictor(&cfg.predictor).expect("benchmark predictor spec");
    let index = parse_index(&cfg.index).expect("benchmark index spec");
    let init = parse_init(&cfg.init).expect("benchmark init spec");
    let mut mechanism =
        parse_mechanism(&cfg.mechanism, index, init).expect("benchmark mechanism spec");
    replay_mechanisms(
        trace,
        trace.len(),
        &mut predictor,
        &mut [mechanism.as_mut()],
    )
    .pop()
    .expect("one mechanism, one result")
}

/// A streaming replay built from the session's specs, for timing
/// [`StreamingReplay::feed`] alone.
fn streaming(cfg: &HelloConfig) -> StreamingReplay {
    let index = parse_index(&cfg.index).expect("benchmark index spec");
    let init = parse_init(&cfg.init).expect("benchmark init spec");
    StreamingReplay::new(
        parse_predictor(&cfg.predictor).expect("benchmark predictor spec"),
        parse_mechanism(&cfg.mechanism, index, init).expect("benchmark mechanism spec"),
    )
}

/// First value seen for one output, and how often it was seen.
pub(crate) type Seen<T> = Mutex<Vec<Option<(T, u64)>>>;

/// Records `value` for slot `i`: the first value is kept, later ones must
/// equal it. Returns false on a mismatch.
pub(crate) fn observe<T: PartialEq>(seen: &Seen<T>, i: usize, value: T) -> bool {
    let mut g = seen.lock().expect("result table poisoned");
    match &mut g[i] {
        Some((first, n)) => {
            *n += 1;
            *first == value
        }
        slot @ None => {
            *slot = Some((value, 1));
            true
        }
    }
}

/// The traced run's in-process copies of one session.
struct Replica {
    session: Session,
    feed: StreamingReplay,
}

/// One client connection and the session it is streaming.
struct Conn {
    client: Option<Client>,
    /// Index of the trace the session streams.
    trace: usize,
    /// Next batch to send.
    next: usize,
    /// When the session's HELLO started, if inside the current phase.
    started: Option<Instant>,
    replica: Option<Replica>,
}

/// A set-up `serve_stream` workload.
pub struct Stream {
    handle: Option<ServerHandle>,
    addr: String,
    cfg: HelloConfig,
    traces: Vec<PackedTrace>,
    batches: Vec<Vec<PackedTrace>>,
    /// Behind a mutex only so the workload can be shared with its client
    /// threads; each phase moves the connections out to them.
    conns: Mutex<Vec<Conn>>,
    /// The run's slice this set-up serves; it keys the latency strata.
    slice: u64,
    acks: Seen<Ack>,
    snapshots: Seen<BucketStats>,
    corrupt: bool,
}

impl Stream {
    /// Walks the suite's traces, starts the server and opens one session
    /// per connection.
    pub fn setup(params: &Params) -> Stream {
        let len = session_len(params.scale);
        let traces: Vec<PackedTrace> = suite::seeded_suite(params.seed)
            .iter()
            .map(|b| suite::walk(b, len))
            .collect();
        let batches: Vec<Vec<PackedTrace>> =
            traces.iter().map(|t| suite::batches(t, BATCH)).collect();
        let handle = net::start(None);
        let addr = handle.local_addr().to_string();
        let nb = batches[0].len();
        let mut me = Stream {
            handle: Some(handle),
            addr,
            cfg: net::hello(),
            acks: Mutex::new(vec![None; traces.len() * nb]),
            snapshots: Mutex::new(vec![None; traces.len()]),
            traces,
            batches,
            conns: Mutex::new(Vec::new()),
            slice: params.slice,
            corrupt: params.corrupt_reference,
        };
        for c in 0..CONNECTIONS {
            let mut conn = Conn {
                client: None,
                // Connection c streams traces c, c + CONNECTIONS, …
                trace: c,
                next: 0,
                started: None,
                replica: None,
            };
            let mut out = Phase::default();
            me.open(&mut conn, &mut out, false);
            assert!(out.failed == 0, "could not open the first sessions");
            me.conns.get_mut().expect("connections poisoned").push(conn);
        }
        me
    }

    /// HELLO on a fresh connection for `conn.trace`.
    fn open(&self, conn: &mut Conn, out: &mut Phase, timed: bool) {
        let req = span::next_req();
        let t0 = Instant::now();
        let cfg = self.cfg.clone();
        match span("serve.hello", req, 0, || {
            ClientBuilder::new(&self.addr).connect(cfg)
        }) {
            Ok(client) => {
                conn.client = Some(client);
                conn.next = 0;
                conn.started = timed.then_some(t0);
                conn.replica = span::enabled().then(|| Replica {
                    session: span("serve.session_build", req, 0, || {
                        Session::from_hello(&self.cfg, 0).expect("benchmark session spec")
                    }),
                    feed: streaming(&self.cfg),
                });
            }
            Err(e) => {
                out.serve.count(&e);
                out.failed += 1;
            }
        }
    }

    /// SNAPSHOT and GOODBYE, then HELLO for the connection's next trace;
    /// `timed` is `Some` inside the timed part of a phase.
    fn rotate(&self, conn: &mut Conn, out: &mut Phase, timed: Option<&Seconds>) {
        if let Some(mut client) = conn.client.take() {
            let req = span::next_req();
            out.serve.retries += client.retries();
            let full = conn.next == self.batches[conn.trace].len();
            match span("serve.snapshot", req, 0, || client.snapshot_stats()) {
                Ok(stats) if full => {
                    if !observe(&self.snapshots, conn.trace, stats) {
                        out.failed += 1;
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    out.serve.count(&e);
                    out.failed += 1;
                }
            }
            match span("serve.goodbye", req, 0, || client.goodbye()) {
                Ok(()) => {
                    if let (Some(t0), Some(sec), true) = (conn.started, timed, full) {
                        out.session_ms
                            .push(sec.now(), t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Err(e) => {
                    out.serve.count(&e);
                    out.failed += 1;
                }
            }
        }
        conn.trace = (conn.trace + CONNECTIONS) % self.traces.len();
        self.open(conn, out, timed.is_some());
    }

    /// Sends the connection's next batch; `clock` is `Some` inside the
    /// timed part of a phase.
    fn send(&self, conn: &mut Conn, out: &mut Phase, clock: Option<&Clock>) {
        let batch = &self.batches[conn.trace][conn.next];
        let slot = conn.trace * self.batches[0].len() + conn.next;
        let seq = conn.next as u32;
        conn.next += 1;
        let Some(client) = conn.client.as_mut() else {
            return;
        };
        let req = span::next_req();
        let n = batch.len() as u64;
        out.attempted += 1;
        match span("serve.send_batch", req, n, || client.send_batch(batch)) {
            Ok(totals) => {
                let ack = (totals.records, totals.mispredicts, totals.low_confidence);
                if let Some(clock) = clock {
                    out.ops.push(Op {
                        end_s: clock.now_s(),
                        records: totals.records,
                    });
                }
                let mut ok = observe(&self.acks, slot, ack);
                if let Some(replica) = conn.replica.as_mut() {
                    ok &= traced_batch(replica, seq, batch, req) == ack;
                }
                out.failed += u64::from(!ok);
            }
            Err(e) => {
                out.serve.count(&e);
                out.failed += 1;
                // Abandon the session; the next batch opens a new one.
                conn.client = None;
                conn.next = self.batches[conn.trace].len();
            }
        }
    }

    fn drive(&self, conn: &mut Conn, clock: &Clock, budget: &Budget, sent: &AtomicU64) -> Phase {
        let mut out = Phase::default();
        let sec = Seconds::new(clock, self.slice, budget);
        let nb = self.batches[0].len();
        if span::enabled() && conn.replica.is_none() {
            // The open session predates tracing and has no replica.
            self.rotate(conn, &mut out, None);
        }
        loop {
            if conn.next == nb || conn.client.is_none() {
                self.rotate(conn, &mut out, Some(&sec));
            }
            if clock.spent(budget, sent.fetch_add(1, Ordering::Relaxed)) {
                break;
            }
            self.send(conn, &mut out, Some(clock));
        }
        // Finish the session untimed so its final statistics are checked,
        // and leave a fresh one open for the next phase.
        while conn.client.is_some() && conn.next < nb {
            self.send(conn, &mut out, None);
        }
        self.rotate(conn, &mut out, None);
        out
    }
}

/// The traced run's extra calls for one batch: the replica session's
/// `apply_batch`, `StreamingReplay::feed`, the CIRP layout and the CIRS
/// codecs, each in its own span under the batch's request id. Returns
/// the replica's ack.
fn traced_batch(replica: &mut Replica, seq: u32, batch: &PackedTrace, req: u64) -> Ack {
    let n = batch.len() as u64;
    let frame = span("serve.apply_batch", req, n, || {
        replica.session.apply_batch(seq, batch)
    });
    span("analysis.feed", req, n, || {
        replica.feed.feed(batch);
    });
    let bytes = span("trace.cirp_encode", req, n, || batch.to_bytes());
    let decoded = span("trace.cirp_decode", req, n, || {
        PackedTrace::from_bytes(&bytes)
    });
    assert!(
        matches!(decoded, Ok(ref d) if d == batch),
        "CIRP round trip changed a batch"
    );
    let request = ClientFrame::Batch {
        seq,
        records: batch.clone(),
    };
    let (back, ack) = span("serve.codec", req, n, || {
        let body = encode_client(&request);
        let back = decode_client(&body).expect("BATCH decodes");
        let reply = encode_server(&frame);
        (back, decode_server(&reply).expect("BATCH_ACK decodes"))
    });
    assert!(
        back == request && ack == frame,
        "CIRS round trip changed a frame"
    );
    ack_of(&frame)
}

impl Workload for Stream {
    fn run(&mut self, budget: Budget) -> Phase {
        let sent = AtomicU64::new(0);
        let clock = Clock::start();
        let mut conns = std::mem::take(self.conns.get_mut().expect("connections poisoned"));
        let me = &*self;
        let outs: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| s.spawn(|| me.drive(conn, &clock, &budget, &sent)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        *self.conns.get_mut().expect("connections poisoned") = conns;
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
        let nb = self.batches[0].len();
        let acks = self.acks.lock().expect("result table poisoned");
        let snaps = self.snapshots.lock().expect("result table poisoned");
        for (t, batches) in self.batches.iter().enumerate() {
            let seen = &acks[t * nb..(t + 1) * nb];
            if seen.iter().all(Option::is_none) && snaps[t].is_none() {
                continue;
            }
            let mut replica = Session::from_hello(&self.cfg, 0).expect("benchmark session spec");
            for (k, (batch, got)) in batches.iter().zip(seen).enumerate() {
                let mut want = ack_of(&replica.apply_batch(k as u32, batch));
                if self.corrupt {
                    want.1 += 1;
                }
                if let Some((ack, n)) = got {
                    verdict.checked += n;
                    if *ack != want {
                        verdict.failed += n;
                    }
                }
            }
            if let Some((stats, n)) = &snaps[t] {
                let mut want = reference_stats(&self.cfg, &self.traces[t]);
                if self.corrupt {
                    want.record_batch(u64::MAX, 1, 1);
                }
                verdict.checked += n;
                if *stats != want {
                    verdict.failed += n;
                }
            }
        }
        verdict
    }

    fn sentinels(&self) -> Sentinels {
        Sentinels::of_stats(self.traces.iter().map(|t| reference_stats(&self.cfg, t)))
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        for conn in self.conns.get_mut().expect("connections poisoned") {
            if let Some(client) = conn.client.take() {
                let _ = client.goodbye();
            }
        }
        if let Some(h) = self.handle.take() {
            h.shutdown_and_join();
        }
    }
}
