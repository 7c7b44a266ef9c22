//! The durability thread: one per server with a disk park tier, running
//! the park's page-file syncs so no shard ever blocks in `fsync(2)`.
//!
//! A shard writes a checkpoint's pages (or a removal's `FREE` headers)
//! through the store's write halves, then asks for a sync with
//! [`Durability::request`]. A reply that is a durability receipt
//! (`PARKED_ACK`, `RESUMED`) passes a [`Waiter`] and is held until the
//! thread reports a sync that began after the request; the other
//! writers (teardown parks, sweeps, resumes that destroy an expired
//! session) ask with no waiter. Requests that arrive while a sync runs
//! share the next one (group commit), so one sync can release many
//! replies.
//!
//! The thread only runs the sync function it was built with; it never
//! takes the park's lock. Tests pass their own function to hold a sync
//! open or fail it.

use std::fmt;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Runs once on the durability thread with the outcome of the first
/// sync that began after its request: `Err` carries the I/O error text.
pub type Waiter = Box<dyn FnOnce(Result<(), String>) + Send>;

/// Requests not yet picked up by a sync.
#[derive(Default)]
struct Queue {
    /// The thread is running and has allocated its drain buffer.
    started: bool,
    /// A sync was asked for since the thread last began one.
    wanted: bool,
    waiters: Vec<Waiter>,
    stop: bool,
}

#[derive(Default)]
struct Inner {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// The durability thread and its request queue.
pub struct Durability {
    inner: Arc<Inner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durability").finish_non_exhaustive()
    }
}

impl Durability {
    /// Starts the thread (`cira-serve-durability`); `sync` makes every
    /// write made before the call crash-safe.
    ///
    /// Returns once the thread has made its first allocation (its drain
    /// buffer). Threads the server starts afterwards, the shards, then
    /// take their allocator state after it: glibc hands a thread a
    /// malloc arena at its first allocation, and a durability thread
    /// that took one mid-run would hold an arena a shard had grown,
    /// leaving the next shard to grow another (measured on a 2-vCPU
    /// host: +4–5 MB peak RSS over a benchmark run that starts a new
    /// server every ~50 ms).
    ///
    /// # Errors
    ///
    /// The thread could not be spawned.
    pub fn spawn(mut sync: impl FnMut() -> io::Result<()> + Send + 'static) -> io::Result<Self> {
        let inner = Arc::new(Inner::default());
        let queue = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("cira-serve-durability".to_owned())
            .spawn(move || {
                // Swapped with the queue's waiters, so both buffers keep
                // their capacity.
                let mut drained: Vec<Waiter> = Vec::with_capacity(16);
                let mut q = queue.queue.lock().unwrap_or_else(|e| e.into_inner());
                q.started = true;
                queue.ready.notify_all();
                loop {
                    while !q.wanted && !q.stop {
                        q = queue.ready.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    if !q.wanted {
                        return; // stopped with nothing owed
                    }
                    q.wanted = false;
                    std::mem::swap(&mut q.waiters, &mut drained);
                    drop(q);
                    let result = sync().map_err(|e| e.to_string());
                    for waiter in drained.drain(..) {
                        waiter(result.clone());
                    }
                    q = queue.queue.lock().unwrap_or_else(|e| e.into_inner());
                }
            })?;
        let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        while !q.started {
            q = inner.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        drop(q);
        Ok(Self {
            inner,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Asks for a sync that begins after this call. `waiter`, if any,
    /// runs on the durability thread once that sync returns.
    pub fn request(&self, waiter: Option<Waiter>) {
        let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.wanted = true;
        q.waiters.extend(waiter);
        drop(q);
        self.inner.ready.notify_one();
    }

    /// Runs the sync still owed to earlier requests, then stops and
    /// joins the thread. Idempotent.
    pub fn stop(&self) {
        self.inner
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stop = true;
        self.inner.ready.notify_one();
        let thread = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A sync function that reports each sync's start on `started` and
    /// blocks until the test sends its outcome on the returned sender
    /// (or fails after [`LONG`], so a failing test cannot hang in it).
    fn gated() -> (
        impl FnMut() -> io::Result<()> + Send + 'static,
        mpsc::Receiver<()>,
        mpsc::Sender<io::Result<()>>,
    ) {
        let (started_tx, started) = mpsc::channel();
        let (release, outcome) = mpsc::channel::<io::Result<()>>();
        let sync = move || {
            let _ = started_tx.send(());
            outcome
                .recv_timeout(LONG)
                .unwrap_or_else(|_| Err(io::Error::other("no outcome sent")))
        };
        (sync, started, release)
    }

    /// A waiter that forwards its outcome, tagged with `id`.
    fn waiter(id: usize, done: &mpsc::Sender<(usize, Result<(), String>)>) -> Option<Waiter> {
        let done = done.clone();
        Some(Box::new(move |r| done.send((id, r)).unwrap()))
    }

    const SHORT: Duration = Duration::from_millis(50);
    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_waiter_is_released_only_after_its_sync_returns() {
        let (sync, started, release) = gated();
        let d = Durability::spawn(sync).unwrap();
        let (done, released) = mpsc::channel();
        d.request(waiter(1, &done));
        started.recv_timeout(LONG).unwrap();
        assert!(
            released.recv_timeout(SHORT).is_err(),
            "released while its sync was still running"
        );
        release.send(Ok(())).unwrap();
        assert_eq!(released.recv_timeout(LONG).unwrap(), (1, Ok(())));
        d.stop();
    }

    #[test]
    fn requests_during_a_sync_share_the_next_one() {
        let (sync, started, release) = gated();
        let d = Durability::spawn(sync).unwrap();
        let (done, released) = mpsc::channel();
        d.request(waiter(0, &done));
        started.recv_timeout(LONG).unwrap();
        // Sync 1 is open: these three began after it, so it must not
        // release them.
        for id in 1..=3 {
            d.request(waiter(id, &done));
        }
        release.send(Ok(())).unwrap();
        assert_eq!(released.recv_timeout(LONG).unwrap(), (0, Ok(())));
        started.recv_timeout(LONG).unwrap();
        assert!(released.recv_timeout(SHORT).is_err(), "released early");
        release.send(Ok(())).unwrap();
        let mut ids: Vec<usize> = (0..3)
            .map(|_| released.recv_timeout(LONG).unwrap().0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3], "one sync released all three");
        d.stop();
        assert!(started.try_recv().is_err(), "exactly two syncs ran");
    }

    #[test]
    fn a_failed_sync_releases_its_waiters_with_the_error() {
        let (sync, started, release) = gated();
        let d = Durability::spawn(sync).unwrap();
        let (done, released) = mpsc::channel();
        d.request(waiter(0, &done));
        started.recv_timeout(LONG).unwrap();
        d.request(waiter(1, &done));
        d.request(waiter(2, &done));
        release.send(Ok(())).unwrap();
        assert_eq!(released.recv_timeout(LONG).unwrap(), (0, Ok(())));
        started.recv_timeout(LONG).unwrap();
        release.send(Err(io::Error::other("disk on fire"))).unwrap();
        let mut got: Vec<_> = (0..2)
            .map(|_| released.recv_timeout(LONG).unwrap())
            .collect();
        got.sort_by_key(|(id, _)| *id);
        let failed = Err("disk on fire".to_owned());
        assert_eq!(got, [(1, failed.clone()), (2, failed)]);
        d.stop();
    }

    #[test]
    fn stop_runs_the_sync_still_owed() {
        let syncs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&syncs);
        let d = Durability::spawn(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        d.request(None);
        d.stop();
        assert_eq!(syncs.load(Ordering::Relaxed), 1);
        d.stop();
    }
}
