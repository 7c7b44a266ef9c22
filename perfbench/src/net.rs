//! The in-process server both serve workloads drive.

use std::path::PathBuf;
use std::sync::OnceLock;

use cira_analysis::engine::pool::WorkerPool;
use cira_serve::server::{serve, ServerConfig, ServerHandle};
use cira_serve::{ClientError, HelloConfig};

/// The server's one-worker batch pool, shared by every server this
/// process starts (a pool's threads live as long as the process).
fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(1))
}

/// Starts a one-shard server on an ephemeral loopback port; with
/// `park` set, parked sessions go to a durable page file in that
/// directory and at most `hot` stay decoded in memory.
pub fn start(park: Option<(PathBuf, usize)>) -> ServerHandle {
    let mut cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    if let Some((dir, hot)) = park {
        cfg.park_dir = Some(dir);
        cfg.park_capacity = hot;
        cfg.park_ttl_ms = 3_600_000;
    }
    serve("127.0.0.1:0", cfg, pool()).expect("start the benchmark's server")
}

/// The session configuration both serve workloads negotiate: the
/// `cira replay` default (gshare 2^16, resetting counters on PC⊕BHR).
pub fn hello() -> HelloConfig {
    HelloConfig::default()
}

/// Serve-side failure counts. Every failed call also counts as a failed
/// operation; these say what kind it was.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// `ERROR` frames.
    pub errors: u64,
    /// `BUSY` and `STORE_FULL` replies.
    pub refused: u64,
    /// Reconnects the clients made (`Client::retries`).
    pub retries: u64,
}

impl Failures {
    /// Counts one failed call.
    pub fn count(&mut self, e: &ClientError) {
        match e {
            ClientError::Server { .. } => self.errors += 1,
            ClientError::Busy { .. } | ClientError::StoreFull { .. } => self.refused += 1,
            _ => {}
        }
    }

    /// Adds another thread's or phase's counts.
    pub fn add(&mut self, o: Failures) {
        self.errors += o.errors;
        self.refused += o.refused;
        self.retries += o.retries;
    }
}
