//! Length-prefixed framing over a byte stream.
//!
//! A frame on the wire is `u32` little-endian body length followed by the
//! body ([`crate::proto`] encodes bodies as type byte + payload). The
//! server parses its nonblocking sockets with [`FrameBuffer`]; the
//! blocking [`read_frame`] serves the client and tests. Both refuse a
//! body longer than the maximum before allocating it, and `read_frame`
//! sizes its buffer by the bytes that arrive, not by the length the
//! prefix claims. `read_frame` distinguishes three non-frame outcomes:
//!
//! * [`ReadOutcome::Eof`] — the peer closed cleanly at a frame boundary;
//! * [`ReadOutcome::Idle`] — a socket read timed out with **no** bytes of
//!   the next frame read yet (the caller decides whether to keep
//!   waiting);
//! * [`FrameError::Stalled`] — the peer went silent *mid-frame* for more
//!   than `stall_ticks` consecutive timeouts (a slow-loris guard).

use std::fmt;
use std::io::{self, Read, Write};

/// Default largest accepted frame body, bytes (8 MiB ≈ 2M records).
pub const DEFAULT_MAX_FRAME: u32 = 8 << 20;

/// Body bytes [`read_frame`] allocates before any arrive.
const FIRST_BODY_ALLOC: usize = 64 << 10;

/// Result of trying to read one frame.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
    /// Read timeout before any byte of the next frame arrived.
    Idle,
}

/// Errors raised by the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The declared body length exceeds the maximum.
    Oversized {
        /// Declared length.
        len: u32,
        /// Accepted maximum.
        max: u32,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// The peer stalled mid-frame past the tick budget.
    Stalled,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds maximum {max}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Stalled => write!(f, "peer stalled mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` completely. `started` says whether earlier bytes of this
/// frame were already consumed (controls Eof-vs-Truncated and whether a
/// timeout may surface as `Idle`). `ticks` is the remaining mid-frame
/// timeout budget.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    mut started: bool,
    ticks: &mut u32,
) -> Result<Option<()>, FrameError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                return if started || at > 0 {
                    Err(FrameError::Truncated)
                } else {
                    Ok(None) // clean EOF
                };
            }
            Ok(n) => {
                at += n;
                started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if !started && at == 0 {
                    return Err(FrameError::Io(e)); // surfaced as Idle above
                }
                if *ticks == 0 {
                    return Err(FrameError::Stalled);
                }
                *ticks -= 1;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(()))
}

/// Reads one frame. The reader's socket read-timeout (if any) becomes the
/// tick: a timeout before the first byte yields [`ReadOutcome::Idle`], and
/// more than `stall_ticks` consecutive timeouts mid-frame yield
/// [`FrameError::Stalled`]. The body buffer starts at 64 KiB at most and
/// doubles as it fills, so the allocation tracks the bytes that arrived,
/// not the length the prefix claims.
///
/// # Errors
///
/// [`FrameError::Oversized`] for a length prefix above `max_frame` (the
/// body is *not* read); [`FrameError::Truncated`] for EOF mid-frame; I/O
/// errors otherwise.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: u32,
    stall_ticks: u32,
) -> Result<ReadOutcome, FrameError> {
    let mut ticks = stall_ticks;
    let mut header = [0u8; 4];
    match fill(r, &mut header, false, &mut ticks) {
        Ok(None) => return Ok(ReadOutcome::Eof),
        Ok(Some(())) => {}
        Err(FrameError::Io(e)) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header);
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let len = len as usize;
    let mut body = vec![0u8; len.min(FIRST_BODY_ALLOC)];
    let mut at = 0;
    loop {
        match fill(r, &mut body[at..], true, &mut ticks) {
            Ok(Some(())) => {}
            Ok(None) => unreachable!("started frames report Truncated at EOF"),
            Err(FrameError::Io(e)) if is_timeout(&e) => return Err(FrameError::Stalled),
            Err(e) => return Err(e),
        }
        at = body.len();
        if at == len {
            return Ok(ReadOutcome::Frame(body));
        }
        let grown = (2 * at).min(len);
        body.reserve_exact(grown - at);
        body.resize(grown, 0);
    }
}

/// Writes one frame (length prefix + body) and flushes.
///
/// # Errors
///
/// Propagates I/O errors (including write timeouts) from the writer.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// How many bytes one [`FrameBuffer::fill_from`] call will read at most,
/// so a firehosing peer cannot starve the other connections on its
/// shard (level-triggered epoll re-reports the fd on the next wait).
const MAX_INGEST_PER_CALL: usize = 256 << 10;

/// What one [`FrameBuffer::fill_from`] call observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `read` would block: everything available was consumed.
    Drained {
        /// Bytes consumed by this call.
        bytes: usize,
    },
    /// The ingest cap was hit with the socket possibly still readable.
    More {
        /// Bytes consumed by this call.
        bytes: usize,
    },
    /// The peer closed its write half (after `bytes` final bytes).
    Eof {
        /// Bytes consumed by this call.
        bytes: usize,
    },
}

/// An incremental frame parser over a per-connection byte buffer — the
/// nonblocking counterpart of [`read_frame`].
///
/// The event loop [`FrameBuffer::fill_from`]s the socket whenever epoll
/// reports it readable, then pulls complete frames out with
/// [`FrameBuffer::next_frame`]. Bytes of an incomplete frame stay
/// buffered across calls; the oversized guard fires on the 4-byte
/// length prefix alone, before any body accumulates, exactly like the
/// blocking reader.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it dominates the buffer.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the buffer holds a partial frame — bytes have arrived but
    /// [`FrameBuffer::next_frame`] cannot produce one yet. Drives the
    /// slow-loris stall clock: silence is only hostile mid-frame.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Reads from `r` (a nonblocking source) until it would block, hits
    /// EOF, or the per-call cap is reached.
    ///
    /// # Errors
    ///
    /// Real I/O errors; `WouldBlock` and `Interrupted` are absorbed.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<Ingest> {
        let mut total = 0usize;
        while total < MAX_INGEST_PER_CALL {
            // Grow in 16 KiB steps; error paths shrink back to old_len.
            let old_len = self.buf.len();
            self.buf.resize(old_len + (16 << 10), 0);
            let n = match r.read(&mut self.buf[old_len..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.buf.truncate(old_len);
                    continue;
                }
                Err(e) if is_timeout(&e) => {
                    self.buf.truncate(old_len);
                    return Ok(Ingest::Drained { bytes: total });
                }
                Err(e) => {
                    self.buf.truncate(old_len);
                    return Err(e);
                }
            };
            self.buf.truncate(old_len + n);
            if n == 0 {
                return Ok(Ingest::Eof { bytes: total });
            }
            total += n;
        }
        Ok(Ingest::More { bytes: total })
    }

    /// Extracts the next complete frame body, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] as soon as a length prefix above
    /// `max_frame` is visible (the body is never waited for).
    pub fn next_frame(&mut self, max_frame: u32) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = self.buffered();
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes checked");
        let len = u32::from_le_bytes(header);
        if len > max_frame {
            return Err(FrameError::Oversized {
                len,
                max: max_frame,
            });
        }
        let need = 4 + len as usize;
        if avail < need {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.start + 4..self.start + need].to_vec();
        self.start += need;
        self.compact();
        Ok(Some(body))
    }

    /// Drops the consumed prefix once it outweighs the live bytes, so
    /// the buffer never grows without bound on a long-lived connection.
    fn compact(&mut self) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 32 << 10) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(bytes: &[u8], max: u32) -> Result<ReadOutcome, FrameError> {
        read_frame(&mut &bytes[..], max, 4)
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r, 1024, 4).unwrap() {
            ReadOutcome::Frame(b) => assert_eq!(b, b"hello"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 1024, 4).unwrap() {
            ReadOutcome::Frame(b) => assert!(b.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_frame(&mut r, 1024, 4).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn oversized_rejected_without_reading_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        // No body at all: the guard must fire on the prefix alone.
        assert!(matches!(
            read_one(&buf, 1024),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn truncated_frames_rejected() {
        // EOF inside the header.
        assert!(matches!(
            read_one(&[1, 0], 1024),
            Err(FrameError::Truncated)
        ));
        // EOF inside the body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(read_one(&buf, 1024), Err(FrameError::Truncated)));
    }

    /// Reader that yields timeouts interleaved with data.
    struct Stutter {
        data: Vec<u8>,
        at: usize,
        timeouts_first: usize,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.timeouts_first > 0 {
                self.timeouts_first -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            if self.at >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn a_huge_length_prefix_allocates_only_what_arrives() {
        // A header claiming 256 MiB, then EOF: no read may be handed a
        // buffer sized by the claim.
        struct ClaimThenEof {
            header: Vec<u8>,
            largest: usize,
        }
        impl Read for ClaimThenEof {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                let n = self.header.len().min(buf.len());
                buf[..n].copy_from_slice(&self.header[..n]);
                self.header.drain(..n);
                Ok(n)
            }
        }
        let mut r = ClaimThenEof {
            header: (256u32 << 20).to_le_bytes().to_vec(),
            largest: 0,
        };
        assert!(matches!(
            read_frame(&mut r, u32::MAX, 4),
            Err(FrameError::Truncated)
        ));
        assert!(r.largest <= 64 << 10, "a read got {} bytes", r.largest);
    }

    #[test]
    fn a_body_longer_than_the_first_allocation_arrives_whole() {
        let body: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        match read_one(&wire, u32::MAX).unwrap() {
            ReadOutcome::Frame(b) => assert_eq!(b, body),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_before_first_byte() {
        let mut r = Stutter {
            data: Vec::new(),
            at: 0,
            timeouts_first: 1,
        };
        assert!(matches!(
            read_frame(&mut r, 1024, 4).unwrap(),
            ReadOutcome::Idle
        ));
    }

    #[test]
    fn stall_budget_spent_mid_frame() {
        // A peer that sends one header byte then goes silent forever must
        // be cut off once the tick budget is spent — not hang.
        struct OneByteThenSilence {
            sent: bool,
        }
        impl Read for OneByteThenSilence {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.sent {
                    self.sent = true;
                    buf[0] = 2;
                    Ok(1)
                } else {
                    Err(io::Error::new(io::ErrorKind::TimedOut, "tick"))
                }
            }
        }
        let mut stall = OneByteThenSilence { sent: false };
        assert!(matches!(
            read_frame(&mut stall, 1024, 3),
            Err(FrameError::Stalled)
        ));
    }

    #[test]
    fn frame_buffer_reassembles_byte_dribble() {
        // Two frames delivered one byte at a time must reassemble
        // exactly, with no frame visible before its last byte.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            match fb.fill_from(&mut &[b][..]).unwrap() {
                Ingest::Eof { bytes: 1 } => {}
                other => panic!("byte {i}: {other:?}"),
            }
            while let Some(body) = fb.next_frame(1024).unwrap() {
                got.push(body);
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new()]);
        assert!(!fb.mid_frame(), "all bytes consumed");
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_mid_frame_tracks_partial_bytes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut &wire[..3]).unwrap();
        assert!(fb.next_frame(1024).unwrap().is_none());
        assert!(fb.mid_frame(), "3 header bytes are a partial frame");
        fb.fill_from(&mut &wire[3..]).unwrap();
        assert_eq!(fb.next_frame(1024).unwrap().unwrap(), b"abcdef");
        assert!(!fb.mid_frame());
    }

    #[test]
    fn frame_buffer_oversized_fires_on_prefix_alone() {
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut &u32::MAX.to_le_bytes()[..]).unwrap();
        assert!(matches!(
            fb.next_frame(1024),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn frame_buffer_many_frames_one_ingest() {
        let mut wire = Vec::new();
        for i in 0..100u32 {
            write_frame(&mut wire, &i.to_le_bytes()).unwrap();
        }
        let mut fb = FrameBuffer::new();
        let Ingest::Eof { bytes } = fb.fill_from(&mut &wire[..]).unwrap() else {
            panic!("slice reader ends in Eof");
        };
        assert_eq!(bytes, wire.len());
        for i in 0..100u32 {
            assert_eq!(fb.next_frame(64).unwrap().unwrap(), i.to_le_bytes());
        }
        assert!(fb.next_frame(64).unwrap().is_none());
    }

    #[test]
    fn frame_buffer_absorbs_wouldblock() {
        struct Chunky {
            chunks: Vec<Vec<u8>>,
        }
        impl Read for Chunky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.chunks.pop() {
                    Some(c) => {
                        buf[..c.len()].copy_from_slice(&c);
                        Ok(c.len())
                    }
                    None => Err(io::Error::new(io::ErrorKind::WouldBlock, "empty")),
                }
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"xyz").unwrap();
        let (a, b) = wire.split_at(2);
        let mut r = Chunky {
            chunks: vec![b.to_vec(), a.to_vec()], // popped back-to-front
        };
        let mut fb = FrameBuffer::new();
        let Ingest::Drained { bytes } = fb.fill_from(&mut r).unwrap() else {
            panic!("WouldBlock surfaces as Drained");
        };
        assert_eq!(bytes, wire.len());
        assert_eq!(fb.next_frame(64).unwrap().unwrap(), b"xyz");
    }

    #[test]
    fn timeouts_within_budget_still_complete() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"xy").unwrap();
        // One tick before the first byte would be Idle, so stutter only
        // after the header byte count begins: start with data immediately,
        // but inject ticks between every byte via a wrapping reader.
        struct EveryOtherTick {
            data: Vec<u8>,
            at: usize,
            tick: bool,
        }
        impl Read for EveryOtherTick {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at > 0 && !self.tick {
                    self.tick = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                }
                self.tick = false;
                if self.at >= self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let mut r = EveryOtherTick {
            data: buf,
            at: 0,
            tick: false,
        };
        assert!(matches!(
            read_frame(&mut r, 1024, 16).unwrap(),
            ReadOutcome::Frame(b) if b == b"xy"
        ));
    }
}
