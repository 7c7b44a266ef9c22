//! Graceful-shutdown plumbing: a cloneable trigger token plus optional
//! SIGINT/SIGTERM hooks, and a SIGUSR1 latch for on-demand flight-recorder
//! dumps.
//!
//! The token is the single source of truth: the accept loop polls it
//! between accepts, connection readers poll it on idle ticks, and in-flight
//! batches drain before sockets close. Signal installation uses a minimal
//! `signal(2)` FFI declaration (libc is already linked by std) so the
//! workspace stays free of registry dependencies; the handler only stores
//! an `AtomicBool` — the async-signal-safe minimum — and a watcher thread
//! translates that into a token trigger.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

/// A cloneable, waitable shutdown flag.
///
/// # Examples
///
/// ```
/// use cira_serve::shutdown::ShutdownToken;
///
/// let token = ShutdownToken::new();
/// let t2 = token.clone();
/// assert!(!token.is_triggered());
/// t2.trigger();
/// assert!(token.is_triggered());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShutdownToken {
    inner: Arc<Inner>,
}

impl ShutdownToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the token; all current and future waiters return immediately.
    pub fn trigger(&self) {
        self.inner.flag.store(true, Ordering::Release);
        let _g = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.wake.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// Blocks until the token triggers or `timeout` elapses; returns
    /// whether it is (now) triggered.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        if self.is_triggered() {
            return true;
        }
        let g = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_triggered() {
            return true;
        }
        let (_g, _res) = self
            .inner
            .wake
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.is_triggered()
    }
}

/// Set by the raw signal handler; drained by the watcher thread.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Set by the SIGUSR1 handler; drained by [`take_usr1`].
static USR1: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    #[cfg(target_os = "linux")]
    pub const SIGUSR1: i32 = 10;
    #[cfg(not(target_os = "linux"))]
    pub const SIGUSR1: i32 = 30; // BSD/macOS numbering

    extern "C" {
        /// `signal(2)`. std links libc on every unix target, so declaring
        /// the one symbol we need avoids a registry dependency.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: the async-signal-safe minimum.
    SIGNALED.store(true, std::sync::atomic::Ordering::Release);
}

#[cfg(unix)]
extern "C" fn on_usr1(_signum: i32) {
    USR1.store(true, std::sync::atomic::Ordering::Release);
}

/// Installs a SIGUSR1 handler that sets a flag for [`take_usr1`]. The
/// serve loop polls the flag on its idle tick and dumps the flight
/// recorder to `CIRA_TRACE_DIR` when it fires. `serve()` installs it
/// only when tracing is configured, so an untraced server never
/// displaces a SIGUSR1 handler its embedding application registered.
/// No-op off unix.
pub fn install_usr1_handler() {
    #[cfg(unix)]
    unsafe {
        sys::signal(sys::SIGUSR1, on_usr1 as *const () as usize);
    }
}

/// Consumes a pending SIGUSR1, returning whether one had fired since the
/// last call.
pub fn take_usr1() -> bool {
    USR1.swap(false, Ordering::AcqRel)
}

/// Installs SIGINT + SIGTERM handlers that trigger `token`, so ctrl-c and
/// `kill -TERM` drain in-flight batches instead of killing the process
/// mid-write. Spawns one watcher thread; calling it more than once per
/// process just adds watchers (harmless). On non-unix targets this is a
/// no-op and shutdown must come from [`ShutdownToken::trigger`].
pub fn install_signal_handlers(token: &ShutdownToken) {
    #[cfg(unix)]
    unsafe {
        sys::signal(sys::SIGINT, on_signal as *const () as usize);
        sys::signal(sys::SIGTERM, on_signal as *const () as usize);
    }
    let token = token.clone();
    std::thread::Builder::new()
        .name("cira-serve-signals".into())
        .spawn(move || loop {
            if SIGNALED.load(Ordering::Acquire) {
                token.trigger();
                return;
            }
            if token.is_triggered() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_unblocks_waiters() {
        let token = ShutdownToken::new();
        let t2 = token.clone();
        let waiter = std::thread::spawn(move || t2.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        token.trigger();
        assert!(waiter.join().unwrap());
        assert!(token.is_triggered());
        // Waiting on a triggered token returns immediately.
        assert!(token.wait_timeout(Duration::from_secs(30)));
    }

    #[test]
    fn wait_times_out_untriggered() {
        let token = ShutdownToken::new();
        assert!(!token.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn usr1_flag_is_consumed_once() {
        install_usr1_handler();
        assert!(!take_usr1());
        USR1.store(true, Ordering::Release);
        assert!(take_usr1());
        assert!(!take_usr1());
    }

    #[test]
    fn watcher_translates_signal_flag() {
        let token = ShutdownToken::new();
        install_signal_handlers(&token);
        SIGNALED.store(true, Ordering::Release);
        assert!(token.wait_timeout(Duration::from_secs(5)));
        SIGNALED.store(false, Ordering::Release);
    }
}
