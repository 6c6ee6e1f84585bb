//! The `rxd` socket server: unix-socket and TCP front ends over one
//! shared [`ServiceCore`].
//!
//! Each accepted connection gets its own reader thread and its own
//! client id (so per-client queueing, budgets and fairness apply per
//! connection). After the version handshake the reader keeps reading
//! frames while requests run: each accepted [`REQUEST`] is submitted to
//! the core and a waiter thread writes its terminal frame (preceded by
//! any streamed [`EVENT`](crate::protocol::EVENT) frames from the core
//! workers) through the shared, locked write half. That is what lets a
//! [`CANCEL`] frame reach a request already in flight, and lets one
//! connection pipeline requests.
//!
//! Hostile or dead peers cannot wedge the server: reads run under a
//! per-frame progress deadline (a slow-loris trickling bytes is reaped
//! mid-frame) and an idle deadline (a dead TCP half with nothing in
//! flight is reaped between frames), both answered with a typed
//! [`ERR_IDLE`] frame before close; writes carry a socket write
//! timeout. Malformed input is answered, counted and dropped — never
//! panicked on: a frame that fails to decode gets a typed
//! [`ERROR`](crate::protocol::ERROR) frame, bumps
//! [`ServiceStats::protocol_errors`] and closes the connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reflex_driver::{Event, Instrument, NullSink};

use crate::core::{ServiceCore, ServiceError, ServiceStats};
use crate::protocol::{
    decode_hello, decode_request, encode_error, encode_error_retry, encode_reply, encode_stats,
    read_frame, write_frame, Frame, ProtoError, CANCEL, CANCEL_OK, ERROR, ERR_BUSY, ERR_CANCELLED,
    ERR_DEADLINE, ERR_IDLE, ERR_MALFORMED, ERR_OVERLOADED, ERR_OVERSIZED, ERR_REQUEST,
    ERR_SHUTDOWN, ERR_VERSION, EVENT, HELLO, HELLO_OK, REPLY, REQUEST, SHUTDOWN, SHUTDOWN_OK,
    STATS, STATS_REPLY, VERSION,
};

/// Where the server listens and how aggressively it reaps bad peers.
/// At least one of the two endpoints must be set.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Unix-socket path (a stale socket file is replaced).
    pub unix: Option<PathBuf>,
    /// TCP bind address, e.g. `127.0.0.1:7171` (port 0 picks a free
    /// port, reported by [`ServerHandle::tcp_addr`]).
    pub tcp: Option<String>,
    /// Once a frame's first byte arrives, the whole frame must complete
    /// within this long or the peer is reaped (slow-loris guard).
    /// 0 means the default (10 000 ms).
    pub frame_timeout_ms: u64,
    /// A connection with no in-flight requests and no bytes arriving
    /// for this long is reaped (dead-half guard). 0 means the default
    /// (300 000 ms).
    pub idle_timeout_ms: u64,
    /// Socket write timeout, so a peer that stopped draining cannot
    /// block event/reply writers forever. 0 means the default
    /// (30 000 ms).
    pub write_timeout_ms: u64,
}

/// Resolved read/write deadlines for one server.
#[derive(Debug, Clone, Copy)]
struct Timeouts {
    /// Socket-level read poll granularity (how often deadline checks
    /// run while the peer is silent).
    poll: Duration,
    frame: Duration,
    idle: Duration,
    write: Duration,
}

impl Timeouts {
    fn of(config: &ServerConfig) -> Timeouts {
        let or = |v: u64, d: u64| if v == 0 { d } else { v };
        let frame = or(config.frame_timeout_ms, 10_000);
        // Poll fast enough that a small frame deadline is enforced with
        // useful resolution, without spinning.
        let poll = (frame / 8).clamp(5, 100);
        Timeouts {
            poll: Duration::from_millis(poll),
            frame: Duration::from_millis(frame),
            idle: Duration::from_millis(or(config.idle_timeout_ms, 300_000)),
            write: Duration::from_millis(or(config.write_timeout_ms, 30_000)),
        }
    }
}

/// One live transport stream (both halves).
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn close(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

/// Why [`TimedReader`] gave up on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reaped {
    /// A frame started arriving but did not finish inside the frame
    /// deadline (slow-loris).
    SlowFrame,
    /// Nothing in flight and no bytes for the idle deadline (dead
    /// half).
    Idle,
}

/// A deadline-enforcing read adapter over a [`Stream`] whose socket
/// read timeout is set to [`Timeouts::poll`]: timeouts from the socket
/// are absorbed here and turned into deadline checks, so the framed
/// reader above ([`read_frame`]) never sees a spurious timeout mid
/// `read_exact` (which would lose the bytes already consumed).
struct TimedReader<'a> {
    stream: &'a mut Stream,
    timeouts: Timeouts,
    stop: Arc<AtomicBool>,
    /// Requests submitted on this connection and not yet answered;
    /// while nonzero, silence is legitimate (the peer is waiting for
    /// replies) and idle reaping is off.
    inflight: Arc<AtomicUsize>,
    /// Deadline for the frame currently arriving (set at its first
    /// byte, cleared by [`TimedReader::begin_frame`]).
    frame_deadline: Option<Instant>,
    /// Start of the current between-frames gap.
    idle_since: Instant,
    /// Set when a deadline tripped; the connection loop turns it into
    /// a typed [`ERR_IDLE`] frame before closing.
    reaped: Option<Reaped>,
}

impl<'a> TimedReader<'a> {
    fn new(
        stream: &'a mut Stream,
        timeouts: Timeouts,
        stop: Arc<AtomicBool>,
        inflight: Arc<AtomicUsize>,
    ) -> TimedReader<'a> {
        TimedReader {
            stream,
            timeouts,
            stop,
            inflight,
            frame_deadline: None,
            idle_since: Instant::now(),
            reaped: None,
        }
    }

    /// Marks a frame boundary: the next byte starts a new frame (and a
    /// new frame deadline); until it arrives the idle clock runs.
    fn begin_frame(&mut self) {
        self.frame_deadline = None;
        self.idle_since = Instant::now();
    }
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.frame_deadline.is_none() {
                        self.frame_deadline = Some(Instant::now() + self.timeouts.frame);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::Relaxed) {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopping"));
                    }
                    let now = Instant::now();
                    if let Some(deadline) = self.frame_deadline {
                        if now >= deadline {
                            self.reaped = Some(Reaped::SlowFrame);
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "frame read deadline exceeded",
                            ));
                        }
                    } else if self.inflight.load(Ordering::Relaxed) == 0
                        && now.duration_since(self.idle_since) >= self.timeouts.idle
                    {
                        self.reaped = Some(Reaped::Idle);
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "idle deadline exceeded",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Forwards session events as [`EVENT`] frames through the connection's
/// shared write half, tagged with the request they belong to.
struct FrameSink {
    writer: Arc<Mutex<Stream>>,
    request_id: u64,
}

impl Instrument for FrameSink {
    fn event(&self, event: &Event) {
        let frame = Frame {
            kind: EVENT,
            request_id: self.request_id,
            payload: event.to_json().into_bytes(),
        };
        if let Ok(mut w) = self.writer.lock() {
            // A client that stopped reading mid-stream is its own
            // problem; the reply path will surface the broken pipe.
            let _ = write_frame(&mut *w, &frame);
        }
    }
}

/// A running server: its listeners, connection threads and shutdown
/// switchboard.
#[derive(Debug)]
pub struct ServerHandle {
    core: Arc<ServiceCore>,
    /// Tells accept loops and connections to wind down.
    stop: Arc<AtomicBool>,
    /// Set when a client asked the daemon to shut down.
    shutdown_requested: Arc<AtomicBool>,
    accept_threads: Mutex<Vec<JoinHandle<()>>>,
    shared: Arc<Shared>,
    /// The unix socket path actually bound, if any.
    pub unix_path: Option<PathBuf>,
    /// The TCP address actually bound, if any (resolves port 0).
    pub tcp_addr: Option<SocketAddr>,
}

/// State shared by every accept loop and connection thread.
struct Shared {
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    next_client: AtomicU64,
    timeouts: Timeouts,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Read-half clones of live connections, closed on stop to unblock
    /// their reader threads.
    conns: Mutex<Vec<Stream>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish()
    }
}

/// Binds the configured listeners and starts serving `core`.
pub fn serve(core: Arc<ServiceCore>, config: &ServerConfig) -> io::Result<ServerHandle> {
    if config.unix.is_none() && config.tcp.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "server needs a unix socket path or a tcp address",
        ));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let shutdown_requested = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        core: Arc::clone(&core),
        stop: Arc::clone(&stop),
        shutdown_requested: Arc::clone(&shutdown_requested),
        next_client: AtomicU64::new(1),
        timeouts: Timeouts::of(config),
        conn_threads: Mutex::new(Vec::new()),
        conns: Mutex::new(Vec::new()),
    });
    let mut accept_threads = Vec::new();
    let mut unix_path = None;
    if let Some(path) = &config.unix {
        // A previous daemon's stale socket file would make bind fail;
        // replacing it is the standard unix-daemon move.
        if path.exists() {
            let _ = std::fs::remove_file(path);
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        unix_path = Some(path.clone());
        let shared = Arc::clone(&shared);
        accept_threads.push(std::thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Unix(s)));
        }));
    }
    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let shared = Arc::clone(&shared);
        accept_threads.push(std::thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Tcp(s)));
        }));
    }
    Ok(ServerHandle {
        core,
        stop,
        shutdown_requested,
        accept_threads: Mutex::new(accept_threads),
        shared,
        unix_path,
        tcp_addr,
    })
}

impl ServerHandle {
    /// Whether a client has requested daemon shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Blocks until a client requests shutdown (the `rxd` main loop).
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// The core this server fronts.
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Stops accepting, closes live connections, joins every server
    /// thread and removes the unix socket file. The core itself is left
    /// running — call [`ServiceCore::shutdown`] after this to drain and
    /// flush.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in std::mem::take(&mut *self.accept_threads.lock().expect("accept poisoned")) {
            let _ = handle.join();
        }
        for conn in std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned")) {
            conn.close();
        }
        for handle in
            std::mem::take(&mut *self.shared.conn_threads.lock().expect("threads poisoned"))
        {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Polls a nonblocking listener until told to stop, spawning one thread
/// per accepted connection.
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<Stream>) {
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match accept() {
            Ok(stream) => {
                shared
                    .core
                    .stats()
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                if let Ok(reader_clone) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .expect("conns poisoned")
                        .push(reader_clone);
                }
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let mut stream = stream;
                    handle_connection(&shared2, &mut stream, client);
                    // The clone parked in `conns` (for stop()) keeps the
                    // descriptor alive; shut the socket down so the peer
                    // sees the close the moment this connection ends.
                    stream.close();
                });
                shared
                    .conn_threads
                    .lock()
                    .expect("threads poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                // Transient listener trouble (EMFILE, ECONNABORTED, a
                // shutdown race): log, count, back off and keep
                // accepting — one bad accept must never kill the
                // listener for every future client.
                shared
                    .core
                    .stats()
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("rxd: accept error (continuing): {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Sends an [`ERROR`] frame (best-effort) and bumps the protocol-error
/// counter when `count` is set.
fn send_error(
    writer: &Arc<Mutex<Stream>>,
    stats: &ServiceStats,
    request_id: u64,
    code: u16,
    message: &str,
    count: bool,
) {
    if count {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(
            &mut *w,
            &Frame {
                kind: ERROR,
                request_id,
                payload: encode_error(code, message),
            },
        );
    }
}

fn send_frame(writer: &Arc<Mutex<Stream>>, kind: u8, request_id: u64, payload: Vec<u8>) {
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(
            &mut *w,
            &Frame {
                kind,
                request_id,
                payload,
            },
        );
    }
}

/// Sends the typed [`ERROR`] frame for a [`ServiceError`] (carrying the
/// `retry_after_ms` hint when it is an overload shed).
fn send_service_error(writer: &Arc<Mutex<Stream>>, request_id: u64, e: &ServiceError) {
    let retry_after = match e {
        ServiceError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
        _ => None,
    };
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(
            &mut *w,
            &Frame {
                kind: ERROR,
                request_id,
                payload: encode_error_retry(error_code(e), &e.to_string(), retry_after),
            },
        );
    }
}

/// Runs one connection to completion: handshake, then the pipelined
/// request loop — the reader keeps reading (so CANCEL frames land)
/// while waiter threads write each request's terminal frame. Every exit
/// path is a clean close that first joins the waiters, so accepted
/// requests always get their terminal frame; nothing in here panics on
/// hostile input.
fn handle_connection(shared: &Arc<Shared>, reader: &mut Stream, client: u64) {
    let stats = shared.core.stats();
    // The poll-granularity socket timeout drives TimedReader's deadline
    // checks; the write timeout bounds every writer through the shared
    // half (the fd is shared with the clone, so setting it here covers
    // both).
    let _ = reader.set_read_timeout(Some(shared.timeouts.poll));
    let _ = reader.set_write_timeout(Some(shared.timeouts.write));
    let writer = match reader.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let inflight = Arc::new(AtomicUsize::new(0));
    let timeouts = shared.timeouts;
    let mut timed = TimedReader::new(
        reader,
        timeouts,
        Arc::clone(&shared.stop),
        Arc::clone(&inflight),
    );
    let mut waiters: Vec<JoinHandle<()>> = Vec::new();

    // ---- Handshake ------------------------------------------------------
    timed.begin_frame();
    match read_frame(&mut timed) {
        Ok(frame) if frame.kind == HELLO => match decode_hello(&frame.payload) {
            Some(version) if version == VERSION => {
                let mut e = reflex_verify::codec::Enc::new();
                e.u16(VERSION);
                send_frame(&writer, HELLO_OK, frame.request_id, e.buf);
            }
            Some(version) => {
                send_error(
                    &writer,
                    stats,
                    frame.request_id,
                    ERR_VERSION,
                    &format!("unsupported protocol version {version} (server speaks {VERSION})"),
                    true,
                );
                return;
            }
            None => {
                send_error(
                    &writer,
                    stats,
                    frame.request_id,
                    ERR_VERSION,
                    "bad hello payload",
                    true,
                );
                return;
            }
        },
        Ok(frame) => {
            send_error(
                &writer,
                stats,
                frame.request_id,
                ERR_MALFORMED,
                "expected hello frame first",
                true,
            );
            return;
        }
        Err(e) => {
            report_reap(&writer, stats, timed.reaped);
            report_read_error(&writer, stats, &e);
            return;
        }
    }

    // ---- Request loop ---------------------------------------------------
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        timed.begin_frame();
        let frame = match read_frame(&mut timed) {
            Ok(frame) => frame,
            Err(e) => {
                report_reap(&writer, stats, timed.reaped);
                report_read_error(&writer, stats, &e);
                break;
            }
        };
        match frame.kind {
            REQUEST => {
                let Some(request) = decode_request(&frame.payload) else {
                    send_error(
                        &writer,
                        stats,
                        frame.request_id,
                        ERR_MALFORMED,
                        "request payload did not decode",
                        true,
                    );
                    break;
                };
                let want_events = matches!(
                    request,
                    crate::protocol::Request::Verify {
                        want_events: true,
                        ..
                    }
                );
                let sink: Arc<dyn Instrument + Send> = if want_events {
                    Arc::new(FrameSink {
                        writer: Arc::clone(&writer),
                        request_id: frame.request_id,
                    })
                } else {
                    Arc::new(NullSink)
                };
                // Submit on the reader thread (preserving the client's
                // send order in its queue); a waiter thread blocks on
                // the ticket so this loop keeps reading — that is what
                // lets CANCEL reach an in-flight request.
                match shared.core.submit(client, frame.request_id, request, sink) {
                    Ok(ticket) => {
                        inflight.fetch_add(1, Ordering::Relaxed);
                        let writer = Arc::clone(&writer);
                        let inflight = Arc::clone(&inflight);
                        let request_id = frame.request_id;
                        waiters.push(std::thread::spawn(move || {
                            match ticket.wait() {
                                Ok(reply) => {
                                    send_frame(&writer, REPLY, request_id, encode_reply(&reply));
                                }
                                Err(e) => send_service_error(&writer, request_id, &e),
                            }
                            inflight.fetch_sub(1, Ordering::Relaxed);
                        }));
                    }
                    Err(e) => send_service_error(&writer, frame.request_id, &e),
                }
            }
            CANCEL => {
                // Idempotent: unknown/completed ids are acknowledged
                // the same way — the interesting effect (a typed
                // Cancelled terminal frame) travels on the original
                // request's id.
                let _ = shared.core.cancel(client, frame.request_id);
                send_frame(&writer, CANCEL_OK, frame.request_id, Vec::new());
            }
            STATS => {
                send_frame(
                    &writer,
                    STATS_REPLY,
                    frame.request_id,
                    encode_stats(&stats.snapshot()),
                );
            }
            SHUTDOWN => {
                send_frame(&writer, SHUTDOWN_OK, frame.request_id, Vec::new());
                shared.shutdown_requested.store(true, Ordering::Relaxed);
                break;
            }
            _ => {
                send_error(
                    &writer,
                    stats,
                    frame.request_id,
                    ERR_MALFORMED,
                    &format!("unknown frame kind {}", frame.kind),
                    true,
                );
                break;
            }
        }
    }
    // Every accepted request still gets its terminal frame before the
    // connection closes.
    for waiter in waiters {
        let _ = waiter.join();
    }
}

fn error_code(e: &ServiceError) -> u16 {
    match e {
        ServiceError::Busy { .. } => ERR_BUSY,
        ServiceError::Overloaded { .. } => ERR_OVERLOADED,
        ServiceError::Cancelled => ERR_CANCELLED,
        ServiceError::DeadlineExpired => ERR_DEADLINE,
        ServiceError::ShuttingDown => ERR_SHUTDOWN,
        ServiceError::Session(_) => ERR_REQUEST,
    }
}

/// Announces a reaped connection: a typed [`ERR_IDLE`] frame
/// (best-effort — a dead half will not read it, a slow-loris might) and
/// the reaped-connections counter.
fn report_reap(writer: &Arc<Mutex<Stream>>, stats: &ServiceStats, reaped: Option<Reaped>) {
    let Some(why) = reaped else { return };
    stats.reaped_connections.fetch_add(1, Ordering::Relaxed);
    let message = match why {
        Reaped::SlowFrame => "connection reaped: frame did not complete within the read deadline",
        Reaped::Idle => "connection reaped: idle past the deadline with nothing in flight",
    };
    send_error(writer, stats, 0, ERR_IDLE, message, false);
}

/// Classifies a failed read: hostile frames get a typed error reply and
/// count as protocol errors; a peer that just went away does not.
fn report_read_error(writer: &Arc<Mutex<Stream>>, stats: &ServiceStats, e: &ProtoError) {
    match e {
        ProtoError::Oversized { .. } => {
            send_error(writer, stats, 0, ERR_OVERSIZED, &e.to_string(), true);
        }
        ProtoError::Malformed(_) => {
            send_error(writer, stats, 0, ERR_MALFORMED, &e.to_string(), true);
        }
        ProtoError::Closed | ProtoError::Io(_) => {}
    }
}
