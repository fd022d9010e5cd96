//! A miniature readiness-driven event loop over non-blocking TCP.
//!
//! `std` exposes no portable `epoll`/`kqueue` wrapper, so this module
//! builds readiness the only way the standard library allows while
//! staying fully offline: sockets are switched to non-blocking mode and
//! probed with zero-consumption [`TcpStream::peek`] calls. Between scans
//! the loop parks on a condvar in short slices, so a cross-thread
//! [`Waker`] (job completions, shutdown) interrupts the park immediately
//! and an idle loop costs no busy-wait — the hot path never sleeps while
//! there is work, and the cold path never spins.
//!
//! # Semantics
//!
//! * **Level-triggered.** A stream with buffered bytes reports
//!   [`Event::Readable`] on every poll until drained; owners read until
//!   `WouldBlock`.
//! * **EOF is readable.** A half-closed peer reports `Readable`; the
//!   owner's next read observes the end-of-stream and must deregister,
//!   otherwise the poll keeps reporting readiness (that is what
//!   level-triggered means).
//! * **No write events.** Non-blocking writes fail fast with
//!   `WouldBlock`; callers keep per-connection outboxes and retry flushes
//!   each loop iteration instead of tracking write interest.

use crate::sync::lock_or_recover;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long one condvar park slice lasts. Socket readiness cannot signal
/// the condvar, so this bounds the latency between a peer's bytes
/// arriving and the loop noticing them while idle.
const PARK_SLICE: Duration = Duration::from_millis(1);

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
    /// A registered stream failed its readiness probe with a real error
    /// (not `WouldBlock`); the owner should deregister it.
    Closed(Token),
}

/// Cross-thread wake signal: a flag under a mutex plus a condvar. The
/// poll loop parks here between scans; any thread holding a [`Waker`]
/// can cut the park short.
#[derive(Debug, Default)]
struct WakeSignal {
    flag: Mutex<bool>,
    cond: Condvar,
}

/// A cheap, cloneable handle that interrupts [`Poll::poll`] from another
/// thread — the stand-in for mio's `Waker`.
#[derive(Debug, Clone)]
pub struct Waker {
    signal: Arc<WakeSignal>,
}

impl Waker {
    /// Wakes the owning [`Poll`] if it is parked, or makes its next park
    /// return immediately if it is mid-scan.
    pub fn wake(&self) {
        // lint:allow(eventloop, reason = "bounded hold: the wake flag is a bool set-and-notify, never held across work")
        let mut flag = lock_or_recover(&self.signal.flag);
        *flag = true;
        drop(flag);
        self.signal.cond.notify_all();
    }
}

#[derive(Debug)]
struct StreamEntry {
    stream: TcpStream,
    /// Muted streams stay registered (writable via [`Poll::stream`]) but
    /// are skipped by the readiness scan — how an owner stops consuming
    /// a connection (backpressure, half-close) without a hot loop of
    /// redundant `Readable` events.
    muted: bool,
}

/// The event loop core: registered listeners and streams, an event
/// queue, and the park/wake signal. Owned by exactly one loop thread;
/// only [`Waker`] handles cross threads.
#[derive(Debug)]
pub struct Poll {
    listeners: BTreeMap<u64, TcpListener>,
    streams: BTreeMap<u64, StreamEntry>,
    signal: Arc<WakeSignal>,
    next_token: u64,
}

impl Default for Poll {
    fn default() -> Self {
        Self::new()
    }
}

impl Poll {
    /// An empty poll with no registrations.
    #[must_use]
    pub fn new() -> Self {
        Poll {
            listeners: BTreeMap::new(),
            streams: BTreeMap::new(),
            signal: Arc::new(WakeSignal::default()),
            next_token: 0,
        }
    }

    /// A handle other threads can use to interrupt [`Poll::poll`].
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            signal: Arc::clone(&self.signal),
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

    /// Stops scanning `token` for readiness without deregistering it.
    /// The stream stays writable via [`Poll::stream`]; use for
    /// backpressure (stop consuming a connection that is ahead of the
    /// runtime) and for half-closed peers awaiting a final flush, where
    /// level-triggered readiness would otherwise spin the loop.
    pub fn mute(&mut self, token: Token) {
        if let Some(entry) = self.streams.get_mut(&token.0) {
            entry.muted = true;
        }
    }

    /// Resumes readiness scanning for a muted stream.
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

    /// Scans for readiness, parking up to `timeout` if nothing is ready.
    ///
    /// Appends events to `events` and returns how many were added. Returns
    /// early (possibly with zero events) when a [`Waker`] fires, so the
    /// caller can service cross-thread work like completion queues.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        // lint:allow(wall-clock, reason = "park-deadline accounting; never feeds a result")
        let deadline = Instant::now() + timeout;
        let before = events.len();
        loop {
            self.scan(events)?;
            if events.len() > before || self.take_wake() {
                return Ok(events.len() - before);
            }
            // lint:allow(wall-clock, reason = "park-deadline accounting; never feeds a result")
            let now = Instant::now();
            if now >= deadline {
                return Ok(0);
            }
            let slice = PARK_SLICE.min(deadline - now);
            if self.park(slice) {
                return Ok(0);
            }
        }
    }

    /// One pass over every registration.
    fn scan(&mut self, events: &mut Vec<Event>) -> io::Result<usize> {
        let before = events.len();
        for (&tok, listener) in &self.listeners {
            // Drain the accept backlog; each poll call reports every
            // connection that is already queued.
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        stream.set_nonblocking(true)?;
                        events.push(Event::Accepted {
                            listener: Token(tok),
                            stream,
                            peer,
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // Transient per-connection accept failures (peer reset
                    // mid-handshake) are not listener failures.
                    Err(_) => break,
                }
            }
        }
        let mut probe = [0u8; 1];
        for (&tok, entry) in &self.streams {
            if entry.muted {
                continue;
            }
            match entry.stream.peek(&mut probe) {
                // Ok(0) is EOF: readable in the level-triggered sense —
                // the owner's read returns 0 and handles the close.
                Ok(_) => events.push(Event::Readable(Token(tok))),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => events.push(Event::Closed(Token(tok))),
            }
        }
        Ok(events.len() - before)
    }

    /// Parks up to `slice`, returning `true` if a waker fired.
    fn park(&self, slice: Duration) -> bool {
        // lint:allow(eventloop, reason = "the park itself: this is where the loop is designed to block, for one bounded slice")
        let flag = lock_or_recover(&self.signal.flag);
        if *flag {
            drop(flag);
            return self.take_wake();
        }
        // lint:allow(eventloop, reason = "the park itself: bounded by `slice`, interrupted by any waker")
        let (mut flag, _timed_out) = match self.signal.cond.wait_timeout(flag, slice) {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        let woken = *flag;
        *flag = false;
        woken
    }

    /// Consumes a pending wake, if any.
    fn take_wake(&self) -> bool {
        // lint:allow(eventloop, reason = "bounded hold: swaps the wake flag, nothing else under the guard")
        let mut flag = lock_or_recover(&self.signal.flag);
        std::mem::replace(&mut *flag, false)
    }

    fn alloc(&mut self) -> Token {
        let token = Token(self.next_token);
        self.next_token += 1;
        token
    }
}

/// Blocks until `stream` is readable (bytes or EOF), a real error
/// surfaces, or `timeout` elapses. Returns `Ok(true)` when readable,
/// `Ok(false)` on timeout.
///
/// The client-side counterpart to [`Poll`]: router shard links are plain
/// non-blocking sockets without a loop thread, and their blocking waits
/// go through here instead of a sleep-and-retry read. The stream must
/// already be in non-blocking mode — on a blocking stream the readiness
/// probe itself would park indefinitely.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    // lint:allow(wall-clock, reason = "wait-deadline accounting; never feeds a result")
    let deadline = Instant::now() + timeout;
    let mut probe = [0u8; 1];
    loop {
        match stream.peek(&mut probe) {
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        // lint:allow(wall-clock, reason = "wait-deadline accounting; never feeds a result")
        let now = Instant::now();
        if now >= deadline {
            return Ok(false);
        }
        // lint:allow(eventloop, reason = "bounded park slice on the client-side wait path; capped by PARK_SLICE and the caller's deadline")
        std::thread::sleep(PARK_SLICE.min(deadline - now));
    }
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
    use std::io::Write;
    use std::net::TcpListener;

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
        let mut poll = Poll::new();
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
        let mut poll = Poll::new();
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
        let mut poll = Poll::new();
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
        let mut poll = Poll::new();
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
    fn wake_before_poll_is_not_lost() {
        let mut poll = Poll::new();
        poll.waker().wake();
        let start = Instant::now();
        let mut events = Vec::new();
        poll.poll(&mut events, Duration::from_secs(10)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn tokens_are_never_reused() {
        let (_w1, r1) = pair();
        let (_w2, r2) = pair();
        let mut poll = Poll::new();
        let t1 = poll.register_stream(r1).unwrap();
        poll.deregister(t1).unwrap();
        let t2 = poll.register_stream(r2).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn muted_streams_are_skipped_until_unmuted() {
        let (mut writer, reader) = pair();
        let mut poll = Poll::new();
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
        reader.set_nonblocking(true).unwrap();
        assert!(!wait_readable(&reader, Duration::from_millis(10)).unwrap());
        writer.write_all(b"x").unwrap();
        writer.flush().unwrap();
        assert!(wait_readable(&reader, Duration::from_secs(2)).unwrap());
    }
}
