//! Readiness notification for the sharded event loop: `epoll(7)` and
//! `eventfd(2)` via minimal FFI declarations.
//!
//! Like the `signal(2)` shim in [`crate::shutdown`], this declares only
//! the symbols it needs — std already links libc on every unix target,
//! so the workspace stays free of registry dependencies. Everything
//! here is Linux-only (`epoll` has no portable equivalent); the server
//! is gated on it at the module level in `lib.rs`.
//!
//! Two primitives:
//!
//! * [`Epoll`] — a level-triggered interest list. Each registration
//!   carries a `u64` token that comes back in the ready [`Event`]s; the
//!   shard uses it to find the connection (or its wake fd, or the
//!   listener) without a reverse map.
//! * [`WakeFd`] — an eventfd the shard parks on inside
//!   [`Epoll::wait`]. Any thread (a pool worker finishing a batch,
//!   another shard handing off a connection, the shutdown path) can
//!   [`WakeFd::wake`] it; the owning shard [`WakeFd::drain`]s it and
//!   checks its inbox.

use std::io;
use std::os::unix::io::RawFd;

/// Readiness: data to read (or a hangup pending in the read stream).
pub const EPOLLIN: u32 = 0x1;
/// Readiness: the socket's send buffer has room again.
pub const EPOLLOUT: u32 = 0x4;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x8;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x10;
/// Peer shut down its write half (requested alongside `EPOLLIN` so a
/// half-close wakes the shard even with read interest paused).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One ready event as the kernel reports it.
///
/// x86_64 is the one Linux ABI where this struct is packed; everywhere
/// else it has natural alignment. Getting this wrong silently corrupts
/// the token of every second event, so both layouts are spelled out.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    /// Ready `EPOLL*` bits.
    pub events: u32,
    /// The token given at registration.
    pub token: u64,
}

/// One ready event as the kernel reports it (non-x86_64 layout).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    /// Ready `EPOLL*` bits.
    pub events: u32,
    /// The token given at registration.
    pub token: u64,
}

impl Event {
    /// The ready bits (reads through the possibly-packed field).
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The registration token (reads through the possibly-packed field).
    pub fn key(&self) -> u64 {
        self.token
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// A level-triggered epoll interest list.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1(2)` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = Event {
            events: interest,
            token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest bits and token.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces `fd`'s interest bits (token may change too).
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes `fd` from the interest list. Events already harvested for
    /// it may still be in flight; the shard tolerates unknown tokens.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for up to `timeout_ms` (0 polls, negative blocks forever)
    /// and fills `events`, returning how many are ready. A signal
    /// interrupting the wait reads as zero events, not an error.
    ///
    /// # Errors
    ///
    /// The `epoll_wait(2)` errno (except `EINTR`).
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice for the whole call.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// A cross-thread wakeup: an eventfd readable whenever any thread has
/// called [`WakeFd::wake`] since the last [`WakeFd::drain`].
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates a nonblocking eventfd.
    ///
    /// # Errors
    ///
    /// The `eventfd(2)` errno.
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd takes no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// The raw fd, for registration in an [`Epoll`].
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking any epoll parked on it. Safe from
    /// any thread; an 8-byte counter write never short-writes.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is 8 valid bytes; eventfd writes are atomic.
        unsafe { write(self.fd, one.as_ptr(), 8) };
    }

    /// Consumes all pending wakeups (the counter resets to zero).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 valid writable bytes.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and closed exactly once.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wakefd_round_trip_through_epoll() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 7).unwrap();
        let mut events = [Event::default(); 4];

        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // A wake from another thread surfaces with the right token.
        std::thread::scope(|s| {
            s.spawn(|| wake.wake());
        });
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key(), 7);
        assert_ne!(events[0].ready() & EPOLLIN, 0);

        // Drained, the fd goes quiet again (level-triggered would
        // otherwise re-report it forever).
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // Wakes coalesce: many wakes, one drain.
        wake.wake();
        wake.wake();
        wake.wake();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();
        let mut events = [Event::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "idle socket is quiet");

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key(), 42);
        assert_ne!(events[0].ready() & EPOLLIN, 0);

        // Writable interest: a fresh socket's send buffer has room.
        ep.modify(server.as_raw_fd(), EPOLLOUT, 43).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key(), 43, "modify retargets the token");
        assert_ne!(events[0].ready() & EPOLLOUT, 0);

        // Peer close reports a hangup once read interest returns.
        ep.modify(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 44)
            .unwrap();
        let mut buf = [0u8; 16];
        let mut s = &server;
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        drop(client);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(
            events[0].ready() & (EPOLLRDHUP | EPOLLIN | EPOLLHUP),
            0,
            "hangup must be observable"
        );

        ep.del(server.as_raw_fd()).unwrap();
        drop(server);
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
