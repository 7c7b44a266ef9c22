//! `cira-serve` — an online streaming confidence service.
//!
//! Everything the offline [`cira_analysis`] engine computes in bulk, this
//! crate serves over TCP: a client opens a session, negotiates a branch
//! predictor and confidence mechanism (the same `spec` grammar the CLI
//! uses), streams branch outcomes in packed batches, and gets back
//! per-record predictions, high/low confidence assignments, and — at any
//! point — the session's accumulated [`cira_analysis::BucketStats`],
//! **bit-identical** to an offline run over the same records.
//!
//! Layering, bottom up:
//!
//! * [`event`] — `epoll(7)`/`eventfd(2)` readiness primitives via the
//!   same no-deps FFI style as the `signal(2)` shim in [`shutdown`];
//! * [`frame`] — length-prefixed framing: blocking reads with
//!   idle/stall discrimination for the client side, plus the
//!   incremental [`frame::FrameBuffer`] the nonblocking server parses
//!   from;
//! * [`proto`] — the typed `CIRS` v1 frames and their byte encodings;
//! * [`session`] — one client's isolated predictor + mechanism + stats;
//! * [`park`] — the bounded, TTL-evicting store of detached sessions
//!   awaiting a `RESUME` (rev 1.2); since rev 1.3 a **two-tier** store:
//!   parked sessions are checkpointed to a durable [`cira_store`] page
//!   file (when [`server::ServerConfig::park_dir`] is set), survive
//!   `kill -9`, and are recovered — bit-identically — by the next
//!   server process. Every park, by a `PARK` frame or at a connection's
//!   teardown, writes its checkpoint when it happens;
//! * [`server`] — N sharded epoll event loops (thread-per-core, not
//!   thread-per-connection): nonblocking sockets with per-connection
//!   parse buffers and write queues, each connection on one shard for
//!   its whole life, batch execution on a shared
//!   [`cira_analysis::engine::pool::WorkerPool`] with completions waking
//!   the owning shard, backpressure, graceful drain, capacity shedding,
//!   and session parking;
//! * [`durability`] — the thread that runs the disk park tier's page-file
//!   syncs, so a shard never blocks in `fsync`: `PARKED_ACK` and
//!   `RESUMED` wait for a sync that covers their writes, and requests
//!   that arrive during one sync share the next (group commit);
//! * [`client`] — a blocking client with windowed batch pipelining,
//!   configured via [`client::ClientBuilder`], that transparently
//!   reconnects and resumes under a [`client::RetryPolicy`];
//! * [`chaos`] — a deterministic fault-injecting TCP proxy for tests;
//! * [`metrics`] — live server-wide counters, gauges, and latency
//!   histograms ([`cira_obs`] instruments), each declared once and read
//!   two ways: the `STATS` frame (name/value pairs) and HTTP
//!   `GET /metrics` when [`server::ServerConfig::metrics_addr`] is set.
//!   The server also threads [`cira_obs::trace`](mod@cira_obs::trace)
//!   flight-recorder spans through every pipeline stage (accept → parse →
//!   checkout → score → complete → write, plus park spill/load and
//!   store page I/O), exported as Chrome trace JSON via
//!   `GET /trace` on the same listener, and written to
//!   `CIRA_TRACE_DIR` on `SIGUSR1` and in automatic crash dumps
//!   ([`server::ServerConfig::trace`]);
//! * [`shutdown`] — a waitable token plus optional SIGINT/SIGTERM/SIGUSR1
//!   hooks.
//!
//! Networking is std-only: no async runtime, no registry dependencies.
//!
//! # Example
//!
//! ```
//! use cira_analysis::engine::pool::WorkerPool;
//! use cira_serve::client::Client;
//! use cira_serve::proto::HelloConfig;
//! use cira_serve::server::{serve, ServerConfig};
//! use cira_trace::codec::PackedTrace;
//! use cira_trace::suite::ibs_like_suite;
//!
//! let handle = serve("127.0.0.1:0", ServerConfig::default(), WorkerPool::global()).unwrap();
//! let addr = handle.local_addr().to_string();
//!
//! let trace: PackedTrace = ibs_like_suite()[0].walker().take(4096).collect();
//! let mut client = Client::connect(&addr, HelloConfig::default()).unwrap();
//! let totals = client.stream(&trace, 1024).unwrap();
//! assert_eq!(totals.records, 4096);
//! let stats = client.snapshot_stats().unwrap();
//! assert_eq!(stats.total_refs(), 4096.0);
//! client.goodbye().unwrap();
//! handle.shutdown_and_join();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use cira_obs;

pub mod chaos;
pub mod client;
pub mod durability;
pub mod event;
pub mod frame;
pub mod metrics;
pub mod park;
pub mod proto;
pub mod server;
pub mod session;
pub mod shutdown;

pub use client::{Client, ClientBuilder, ClientError, RetryPolicy, StreamTotals};
pub use proto::HelloConfig;
pub use server::{serve, ServerConfig, ServerHandle};
pub use shutdown::ShutdownToken;
