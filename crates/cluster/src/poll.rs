//! A miniature readiness-driven event loop over non-blocking TCP.
//!
//! `std` exposes no readiness API, so this module declares the one
//! foreign function it needs, Linux `poll(2)`, from the libc that `std`
//! already links (no crate is added). [`Poll::poll`] hands the kernel one
//! `pollfd` set — the waker socket, every listener and every unmuted
//! stream — and blocks until the kernel reports readiness, a [`Waker`]
//! (job completions, shutdown) writes its byte, or the timeout passes.
//! Peer bytes therefore end the wait as soon as they land: the hot path
//! never sleeps while there is work, and the cold path never spins.
//!
//! # Semantics
//!
//! * **Level-triggered.** A stream with buffered bytes reports
//!   [`Event::Readable`] on every poll until drained; owners read until
//!   `WouldBlock`.
//! * **EOF is readable.** A half-closed peer (`POLLHUP`) reports
//!   `Readable`; the owner's next read observes the end-of-stream and
//!   must deregister, otherwise the poll keeps reporting readiness (that
//!   is what level-triggered means). A stream with bytes or EOF pending is
//!   `Readable` even if an error is pending too, so the owner reads what
//!   the peer sent before the error, in `read(2)` order.
//! * **No write events.** Non-blocking writes fail fast with
//!   `WouldBlock`; callers keep per-connection outboxes and retry flushes
//!   each loop iteration instead of tracking write interest.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks in `poll(2)` until an entry of `fds` is ready or `timeout`
/// passes, rounded up to whole milliseconds so a sub-millisecond wait
/// never degrades into a spin. Returns how many entries have `revents`
/// set; a signal interrupting the wait counts as a timeout (`Ok(0)`).
fn sys_poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_nanos().div_ceil(1_000_000);
    let ms = c_int::try_from(ms).unwrap_or(c_int::MAX);
    let nfds = c_ulong::try_from(fds.len()).unwrap_or(c_ulong::MAX);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` records and `nfds` is its length, so the kernel reads and
    // writes only inside it; the call retains no pointer past its return.
    // lint:allow(eventloop, reason = "the park itself: the one place the loop blocks, ended by readiness, the waker socket or the timeout")
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    if ready >= 0 {
        return Ok(usize::try_from(ready).unwrap_or(0));
    }
    let err = io::Error::last_os_error();
    if err.kind() == ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// An opaque registration handle, unique per [`Poll`] for its lifetime.
/// Tokens are never reused, so a stale token in a late completion can
/// never alias a newer connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// One readiness event out of [`Poll::poll`].
#[derive(Debug)]
pub enum Event {
    /// A listener accepted a connection. The stream is already
    /// non-blocking; the owner decides whether to register it.
    Accepted {
        /// The listener's token.
        listener: Token,
        /// The accepted stream.
        stream: TcpStream,
        /// The peer's address.
        peer: SocketAddr,
    },
    /// A registered stream has bytes to read (or a pending EOF).
    Readable(Token),
    /// A registered stream reported an error condition with nothing left
    /// to read (`POLLERR`/`POLLNVAL`); the owner should deregister it.
    Closed(Token),
}

/// A cheap, cloneable handle that interrupts [`Poll::poll`] from another
/// thread — the stand-in for mio's `Waker`. It owns the write end of a
/// non-blocking socket pair whose read end sits in every poll set.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Wakes the owning [`Poll`] if it is blocked, or makes its next poll
    /// return immediately if it is not.
    pub fn wake(&self) {
        // A full socket (`WouldBlock`) already holds a pending wake, and
        // a wake after the poll is gone has nobody to wake: both are
        // fine to drop.
        let _ = (&*self.tx).write(&[1]);
    }
}

#[derive(Debug)]
struct StreamEntry {
    stream: TcpStream,
    /// Muted streams stay registered (writable via [`Poll::stream`]) but
    /// are left out of the readiness set — how an owner stops consuming
    /// a connection (backpressure, half-close) without a hot loop of
    /// redundant `Readable` events.
    muted: bool,
}

/// Who owns one entry of the `pollfd` set.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Wake,
    Listener(u64),
    Stream(u64),
}

/// The event loop core: registered listeners and streams, the waker
/// socket, and the reusable `pollfd` set. Owned by exactly one loop
/// thread; only [`Waker`] handles cross threads.
#[derive(Debug)]
pub struct Poll {
    listeners: BTreeMap<u64, TcpListener>,
    streams: BTreeMap<u64, StreamEntry>,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    fds: Vec<PollFd>,
    slots: Vec<Slot>,
    next_token: u64,
}

impl Poll {
    /// An empty poll with no registrations.
    ///
    /// # Errors
    ///
    /// Creating or configuring the waker's socket pair failed.
    pub fn new() -> io::Result<Self> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Poll {
            listeners: BTreeMap::new(),
            streams: BTreeMap::new(),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            fds: Vec::new(),
            slots: Vec::new(),
            next_token: 0,
        })
    }

    /// A handle other threads can use to interrupt [`Poll::poll`].
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.wake_tx),
        }
    }

    /// Registers a listener, switching it to non-blocking mode.
    pub fn register_listener(&mut self, listener: TcpListener) -> io::Result<Token> {
        listener.set_nonblocking(true)?;
        let token = self.alloc();
        self.listeners.insert(token.0, listener);
        Ok(token)
    }

    /// Registers a stream, switching it to non-blocking mode.
    pub fn register_stream(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        let token = self.alloc();
        self.streams.insert(
            token.0,
            StreamEntry {
                stream,
                muted: false,
            },
        );
        Ok(token)
    }

    /// Removes a stream registration, returning the stream so the owner
    /// can flush, shut down, or drop it.
    pub fn deregister(&mut self, token: Token) -> Option<TcpStream> {
        self.streams.remove(&token.0).map(|entry| entry.stream)
    }

    /// Leaves `token` out of the readiness set without deregistering it.
    /// The stream stays writable via [`Poll::stream`]; use for
    /// backpressure (stop consuming a connection that is ahead of the
    /// runtime) and for half-closed peers awaiting a final flush, where
    /// level-triggered readiness would otherwise spin the loop.
    pub fn mute(&mut self, token: Token) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.muted = true;
        }
    }

    /// Puts a muted stream back into the readiness set.
    pub fn unmute(&mut self, token: Token) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.muted = false;
        }
    }

    /// Removes a listener registration.
    pub fn deregister_listener(&mut self, token: Token) -> Option<TcpListener> {
        self.listeners.remove(&token.0)
    }

    /// Shared access to a registered stream (for reads and writes; the
    /// socket is non-blocking, so `&TcpStream`'s `Read`/`Write` impls
    /// never park).
    #[must_use]
    pub fn stream(&self, token: Token) -> Option<&TcpStream> {
        self.streams.get(&token.0).map(|entry| &entry.stream)
    }

    /// Waits up to `timeout` for readiness and reports it.
    ///
    /// Appends events to `events` and returns how many were added. One
    /// `poll(2)` call covers the waker socket, every listener and every
    /// unmuted stream; it returns early (possibly with zero events) when
    /// a [`Waker`] fires, so the caller can service cross-thread work like
    /// completion queues. A ready listener has its whole accept backlog
    /// drained into [`Event::Accepted`]s.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        let before = events.len();
        self.fds.clear();
        self.slots.clear();
        let entry = |fd: RawFd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        self.fds.push(entry(self.wake_rx.as_raw_fd()));
        self.slots.push(Slot::Wake);
        for (&tok, listener) in &self.listeners {
            self.fds.push(entry(listener.as_raw_fd()));
            self.slots.push(Slot::Listener(tok));
        }
        for (&tok, stream) in &self.streams {
            if !stream.muted {
                self.fds.push(entry(stream.stream.as_raw_fd()));
                self.slots.push(Slot::Stream(tok));
            }
        }
        if sys_poll(&mut self.fds, timeout)? == 0 {
            return Ok(0);
        }
        for (fd, &slot) in self.fds.iter().zip(&self.slots) {
            if fd.revents == 0 {
                continue;
            }
            match slot {
                Slot::Wake => self.drain_wakes(),
                Slot::Listener(tok) => {
                    if let Some(listener) = self.listeners.get(&tok) {
                        accept_backlog(Token(tok), listener, events)?;
                    }
                }
                Slot::Stream(tok) => {
                    if fd.revents & (POLLIN | POLLHUP) != 0 {
                        events.push(Event::Readable(Token(tok)));
                    } else if fd.revents & (POLLERR | POLLNVAL) != 0 {
                        events.push(Event::Closed(Token(tok)));
                    }
                }
            }
        }
        Ok(events.len() - before)
    }

    /// Empties the waker socket so the next poll blocks again.
    fn drain_wakes(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn alloc(&mut self) -> Token {
        let token = Token(self.next_token);
        self.next_token += 1;
        token
    }
}

/// Drains a ready listener's accept backlog into `events`.
fn accept_backlog(tok: Token, listener: &TcpListener, events: &mut Vec<Event>) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(true)?;
                events.push(Event::Accepted {
                    listener: tok,
                    stream,
                    peer,
                });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // `WouldBlock` ends the backlog; transient per-connection
            // accept failures (peer reset mid-handshake) are not listener
            // failures.
            Err(_) => return Ok(()),
        }
    }
}

/// Blocks until `stream` is readable (bytes, EOF, or an error the next
/// read reports) or `timeout` elapses. Returns `Ok(true)` when readable,
/// `Ok(false)` on timeout.
///
/// The client-side counterpart to [`Poll`]: router shard links have no
/// loop thread, and their blocking waits go through one `poll(2)` on the
/// link's socket instead of a sleep-and-retry read.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    wait_one(stream, POLLIN, timeout)
}

/// Blocks until `stream` can take more bytes (or has failed, which the
/// next write reports) or `timeout` elapses. Returns `Ok(true)` when
/// writable, `Ok(false)` on timeout.
pub fn wait_writable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    wait_one(stream, POLLOUT, timeout)
}

fn wait_one(stream: &TcpStream, events: c_short, timeout: Duration) -> io::Result<bool> {
    let mut fd = [PollFd {
        fd: stream.as_raw_fd(),
        events,
        revents: 0,
    }];
    Ok(sys_poll(&mut fd, timeout)? > 0)
}

/// Drains a non-blocking stream into `buf` via `read`, translating the
/// non-blocking idioms: `Ok(Some(0))` is EOF, `Ok(None)` means no bytes
/// were available right now.
pub fn read_nonblocking(mut stream: &TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    match stream.read(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Barrier;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn accept_surfaces_as_an_event() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poll = Poll::new().unwrap();
        let ltok = poll.register_listener(listener).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        let n = poll.poll(&mut events, Duration::from_secs(2)).unwrap();
        assert!(n >= 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Accepted { listener, .. } if *listener == ltok)));
    }

    #[test]
    fn readable_is_level_triggered_until_drained() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        writer.write_all(b"hi").unwrap();
        writer.flush().unwrap();

        for _ in 0..2 {
            let mut events = Vec::new();
            poll.poll(&mut events, Duration::from_secs(2)).unwrap();
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Readable(t) if *t == tok)));
        }

        // Drain, then expect a quiet poll (timeout, zero events).
        let stream = poll.stream(tok).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(read_nonblocking(stream, &mut buf).unwrap(), Some(2));
        let mut events = Vec::new();
        let n = poll.poll(&mut events, Duration::from_millis(20)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn eof_reports_readable() {
        let (writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        drop(writer);
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::from_secs(2)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) | Event::Closed(t) if *t == tok)));
        let stream = poll.stream(tok).unwrap();
        let mut buf = [0u8; 4];
        // The read observes the EOF (or the reset, on some platforms).
        match read_nonblocking(stream, &mut buf) {
            Ok(Some(0)) | Err(_) => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn waker_interrupts_a_long_park() {
        let mut poll = Poll::new().unwrap();
        let waker = poll.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::from_secs(10)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn tokens_are_never_reused() {
        let (_w1, r1) = pair();
        let (_w2, r2) = pair();
        let mut poll = Poll::new().unwrap();
        let t1 = poll.register_stream(r1).unwrap();
        poll.deregister(t1).unwrap();
        let t2 = poll.register_stream(r2).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn muted_streams_are_skipped_until_unmuted() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        writer.write_all(b"hi").unwrap();
        writer.flush().unwrap();
        poll.mute(tok);
        let mut events = Vec::new();
        let n = poll.poll(&mut events, Duration::from_millis(20)).unwrap();
        assert_eq!(n, 0, "muted stream still reported readiness");
        // The stream stays registered and usable while muted.
        assert!(poll.stream(tok).is_some());
        poll.unmute(tok);
        poll.poll(&mut events, Duration::from_secs(2)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) if *t == tok)));
    }

    #[test]
    fn wait_readable_sees_bytes_and_times_out_without() {
        let (mut writer, reader) = pair();
        assert!(!wait_readable(&reader, Duration::from_millis(10)).unwrap());
        writer.write_all(b"x").unwrap();
        writer.flush().unwrap();
        assert!(wait_readable(&reader, Duration::from_secs(2)).unwrap());
    }

    #[test]
    fn wait_writable_reports_room_in_the_send_buffer() {
        let (writer, _reader) = pair();
        assert!(wait_writable(&writer, Duration::from_secs(2)).unwrap());
    }

    #[test]
    fn peer_bytes_end_a_long_poll() {
        let (writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        let release = Arc::new(Barrier::new(2));
        let handle = {
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                release.wait();
                (&writer).write_all(b"go").unwrap();
                writer
            })
        };
        release.wait();
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::from_secs(10)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) if *t == tok)));
        drop(handle.join().unwrap());
    }

    #[test]
    fn reset_peer_reports_readable_or_closed() {
        let (peer, local) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(local).unwrap();
        // A socket closed with unread bytes resets its connection.
        let mut stream = poll.stream(tok).unwrap();
        stream.write_all(b"unread").unwrap();
        assert!(wait_readable(&peer, Duration::from_secs(2)).unwrap());
        drop(peer);
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::from_secs(2)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Readable(t) | Event::Closed(t) if *t == tok)));
        let mut buf = [0u8; 4];
        match read_nonblocking(poll.stream(tok).unwrap(), &mut buf) {
            Ok(Some(0)) | Err(_) => {}
            other => panic!("expected EOF or reset, got {other:?}"),
        }
    }

    #[test]
    fn wake_before_poll_is_not_lost_and_is_consumed() {
        let mut poll = Poll::new().unwrap();
        let waker = poll.waker();
        waker.wake();
        waker.wake();
        let start = Instant::now();
        let mut events = Vec::new();
        assert_eq!(poll.poll(&mut events, Duration::from_secs(10)).unwrap(), 0);
        assert!(start.elapsed() < Duration::from_secs(5));
        // Both wakes were drained: the next poll waits out its timeout.
        let start = Instant::now();
        assert_eq!(
            poll.poll(&mut events, Duration::from_millis(20)).unwrap(),
            0
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn muted_streams_stay_out_of_the_poll_set() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new().unwrap();
        let tok = poll.register_stream(reader).unwrap();
        writer.write_all(b"hi").unwrap();
        poll.mute(tok);
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::ZERO).unwrap();
        assert_eq!(poll.fds.len(), 1, "only the waker socket is polled");
        poll.unmute(tok);
        poll.poll(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(poll.fds.len(), 2);
    }
}
