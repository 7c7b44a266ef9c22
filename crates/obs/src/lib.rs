//! `cira-obs` — workspace-wide observability, std-only.
//!
//! Every other `cira` crate may depend on this one (it depends on
//! nothing), and it provides the three legs a production service needs to
//! stay debuggable under load:
//!
//! * [`log`] — a leveled, structured `key=value` logger. Libraries call
//!   the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`trace!`] macros and
//!   never write to stderr unconditionally; the binary decides the level
//!   (via `CIRA_LOG` or a `--log-level` flag) and the sink (stderr or a
//!   file via `CIRA_LOG_FILE`). Disabled levels cost one relaxed atomic
//!   load.
//! * [`metrics`] — lock-free instruments: [`metrics::Counter`],
//!   [`metrics::Gauge`], and a fixed-bucket log2 [`metrics::Histogram`]
//!   whose snapshots merge associatively, plus a [`Registry`] that renders
//!   the Prometheus text exposition format.
//! * [`promtext`] — a parser/validator for that exposition format, used
//!   by tests (well-formedness assertions) and by `cira stats` to render
//!   histogram quantiles client-side.
//! * [`mod@trace`] — a flight recorder: per-thread lock-free ring buffers of
//!   compact span events covering a request's whole lifecycle, exported
//!   as Chrome trace-event JSON (`GET /trace`, `SIGUSR1`, and automatic
//!   error-path dumps). Disabled tracing
//!   costs one relaxed atomic load per site, like disabled log levels.
//! * [`http`] — a minimal HTTP/1.0 `GET` responder over
//!   `std::net::TcpListener`, enough to expose `/metrics`, `/healthz`,
//!   and `/trace` to a scraper with zero dependencies, and the
//!   one-request client `cira stats` and `cira trace dump` read it with.
//!
//! All hot-path updates use relaxed atomics: metrics are observational
//! and never synchronize data, so instrumentation is cheap enough to
//! leave on permanently (see `BENCH_obs.json` for the measured overhead).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod log;
pub mod metrics;
pub mod promtext;
pub mod trace;

pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
