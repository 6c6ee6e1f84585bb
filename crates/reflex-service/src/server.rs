//! The `rxd` socket server: unix-socket and TCP front ends over one
//! shared [`ServiceCore`].
//!
//! Each accepted connection gets its own client id (so per-client
//! queueing, budgets and fairness apply per connection) and exactly two
//! threads, however many requests it carries:
//!
//! - the **reader** does the version handshake, then keeps reading
//!   frames while requests run. Each accepted [`REQUEST`] is submitted
//!   to the core, and its [`Ticket`](crate::core::Ticket) gets a
//!   completion hook that queues the terminal REPLY/ERROR frame. That
//!   is what lets a [`CANCEL`] frame reach a request already in flight,
//!   and lets one connection pipeline requests.
//! - the **writer** owns the socket's write half and writes every
//!   outbound frame (handshake answers, streamed
//!   [`EVENT`](crate::protocol::EVENT)s, terminal frames, control acks)
//!   in the order they were queued. Core workers only queue, so a
//!   client that stops reading stalls its own writer, never a worker.
//!
//! A connection ends when the reader stops: it waits until every
//! accepted request's terminal frame is queued, closes the queue and
//! joins the writer, which drains it first. The connection then removes
//! its own entry from the live set, so a finished connection leaves no
//! descriptor and no thread behind.
//!
//! Hostile or dead peers cannot wedge the server: reads run under a
//! per-frame progress deadline (a slow-loris trickling bytes is reaped
//! mid-frame) and an idle deadline (a dead TCP half with nothing in
//! flight is reaped between frames), both answered with a typed
//! [`ERR_IDLE`] frame before close; the writer carries a socket write
//! timeout, and a failed or timed-out write shuts the socket down so
//! the reader exits too. Malformed input is answered, counted and
//! dropped — never panicked on: a frame that fails to decode gets a
//! typed [`ERROR`](crate::protocol::ERROR) frame, bumps
//! [`ServiceStats::protocol_errors`] and closes the connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reflex_driver::{Event, Instrument, NullSink};

use crate::core::{ServiceCore, ServiceError, ServiceStats};
use crate::protocol::{
    decode_hello, decode_request, encode_error, encode_error_retry, encode_reply, encode_stats,
    read_frame, write_frame, Frame, ProtoError, Reply, CANCEL, CANCEL_OK, ERROR, ERR_BUSY,
    ERR_CANCELLED, ERR_DEADLINE, ERR_IDLE, ERR_MALFORMED, ERR_OVERLOADED, ERR_OVERSIZED,
    ERR_REQUEST, ERR_SHUTDOWN, ERR_VERSION, EVENT, HELLO, HELLO_OK, REPLY, REQUEST, SHUTDOWN,
    SHUTDOWN_OK, STATS, STATS_REPLY, VERSION,
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
    /// block its connection's writer forever; when it fires the
    /// connection is closed. 0 means the default (30 000 ms).
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
    stop: &'a AtomicBool,
    /// The connection's outbound queue; while it counts requests in
    /// flight, silence is legitimate (the peer is waiting for replies)
    /// and idle reaping is off.
    outbox: &'a Outbox,
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
        stop: &'a AtomicBool,
        outbox: &'a Outbox,
    ) -> TimedReader<'a> {
        TimedReader {
            stream,
            timeouts,
            stop,
            outbox,
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
                    } else if self.outbox.inflight() == 0
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

/// The REPLY or ERROR frame that ends a request.
fn terminal_frame(request_id: u64, result: Result<Reply, ServiceError>) -> Frame {
    match result {
        Ok(reply) => Frame {
            kind: REPLY,
            request_id,
            payload: encode_reply(&reply),
        },
        Err(e) => {
            let retry_after = match e {
                ServiceError::Overloaded { retry_after_ms } => Some(retry_after_ms),
                _ => None,
            };
            Frame {
                kind: ERROR,
                request_id,
                payload: encode_error_retry(error_code(&e), &e.to_string(), retry_after),
            }
        }
    }
}

#[derive(Default)]
struct OutboxState {
    frames: VecDeque<Frame>,
    /// Requests submitted on this connection whose terminal frame is
    /// not queued yet.
    inflight: usize,
    /// The reader is done and every terminal frame is queued: the
    /// writer exits once the queue is empty.
    closed: bool,
}

/// A connection's outbound queue: every frame the server sends on the
/// connection goes through it, and the connection's one writer thread
/// writes them in queue order. Queueing never blocks, so a core worker
/// (streaming EVENTs, completing a ticket) never waits on a client's
/// socket.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    /// Wakes the writer: a frame was queued, or the outbox closed.
    queued: Condvar,
    /// Wakes the reader's close path: the in-flight count reached 0.
    settled: Condvar,
}

impl Outbox {
    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox poisoned")
    }

    fn push(&self, frame: Frame) {
        self.lock().frames.push_back(frame);
        self.queued.notify_one();
    }

    fn send(&self, kind: u8, request_id: u64, payload: Vec<u8>) {
        self.push(Frame {
            kind,
            request_id,
            payload,
        });
    }

    /// Counts a submitted request as in flight and has its ticket queue
    /// the terminal frame when it completes.
    fn track(self: &Arc<Outbox>, ticket: &crate::core::Ticket, request_id: u64) {
        self.lock().inflight += 1;
        let outbox = Arc::clone(self);
        ticket.on_complete(move |result| {
            let frame = terminal_frame(request_id, result);
            let mut state = outbox.lock();
            state.frames.push_back(frame);
            state.inflight -= 1;
            if state.inflight == 0 {
                outbox.settled.notify_all();
            }
            outbox.queued.notify_one();
        });
    }

    fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Waits until every tracked request's terminal frame is queued,
    /// then closes the outbox so the writer drains it and exits.
    fn close_when_settled(&self) {
        let mut state = self.lock();
        while state.inflight > 0 {
            state = self.settled.wait(state).expect("outbox poisoned");
        }
        state.closed = true;
        self.queued.notify_one();
    }

    /// Blocks for the frames queued since the last call; `None` once
    /// the outbox is closed and drained.
    fn next_batch(&self) -> Option<VecDeque<Frame>> {
        let mut state = self.lock();
        loop {
            if !state.frames.is_empty() {
                return Some(std::mem::take(&mut state.frames));
            }
            if state.closed {
                return None;
            }
            state = self.queued.wait(state).expect("outbox poisoned");
        }
    }
}

/// The writer thread: writes queued frames in order until the outbox
/// closes. A failed or timed-out write shuts the socket down, so the
/// reader sees the close and ends the connection; frames queued after
/// that are drained and dropped.
fn write_loop(outbox: &Outbox, mut stream: Stream) {
    let mut open = true;
    while let Some(batch) = outbox.next_batch() {
        for frame in batch {
            if open && write_frame(&mut stream, &frame).is_err() {
                stream.close();
                open = false;
            }
        }
    }
}

/// Forwards session events as [`EVENT`] frames onto the connection's
/// outbound queue, tagged with the request they belong to.
struct FrameSink {
    outbox: Arc<Outbox>,
    request_id: u64,
}

impl Instrument for FrameSink {
    fn event(&self, event: &Event) {
        self.outbox
            .send(EVENT, self.request_id, event.to_json().into_bytes());
    }
}

/// A listener's accept thread and the address that wakes it.
#[derive(Debug)]
struct Listener {
    thread: JoinHandle<()>,
    wake: Bound,
}

/// An endpoint the server bound.
#[derive(Debug, Clone)]
enum Bound {
    /// The socket path, with the device and inode it had at bind.
    Unix(PathBuf, (u64, u64)),
    Tcp(SocketAddr),
}

impl Bound {
    fn unix(path: &std::path::Path) -> io::Result<Bound> {
        let meta = std::fs::metadata(path)?;
        Ok(Bound::Unix(path.to_owned(), (meta.dev(), meta.ino())))
    }

    /// One throwaway connection, to return a blocked `accept` so its
    /// loop sees the stop flag. Fails when the endpoint cannot be
    /// reached, or when the socket path now names another socket (a
    /// newer server replaced it), whose accept this would not wake.
    fn poke(&self) -> io::Result<()> {
        match self {
            Bound::Unix(path, id) => {
                let meta = std::fs::metadata(path)?;
                if (meta.dev(), meta.ino()) != *id {
                    return Err(io::Error::other("socket path was replaced"));
                }
                UnixStream::connect(path).map(drop)
            }
            // An unspecified bind address (0.0.0.0, [::]) connects to
            // the local host.
            Bound::Tcp(addr) => TcpStream::connect(addr).map(drop),
        }
    }
}

/// A running server: its listeners, connection threads and shutdown
/// switchboard.
#[derive(Debug)]
pub struct ServerHandle {
    core: Arc<ServiceCore>,
    listeners: Mutex<Vec<Listener>>,
    shared: Arc<Shared>,
    /// The unix socket path actually bound, if any.
    pub unix_path: Option<PathBuf>,
    /// The TCP address actually bound, if any (resolves port 0).
    pub tcp_addr: Option<SocketAddr>,
}

/// State shared by every accept loop and connection thread.
struct Shared {
    core: Arc<ServiceCore>,
    /// Tells accept loops and connections to wind down.
    stop: AtomicBool,
    /// Set when a client asked the daemon to shut down.
    shutdown_requested: Mutex<bool>,
    shutdown_signal: Condvar,
    next_client: AtomicU64,
    timeouts: Timeouts,
    /// Connection threads not joined yet. Finished ones are joined at
    /// the next accept; [`ServerHandle::stop`] joins the rest.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// A clone of each live connection's stream, by client id, so stop
    /// can shut it down to unblock its reader. A connection removes its
    /// own entry when it ends.
    conns: Mutex<HashMap<u64, Stream>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish()
    }
}

impl Shared {
    fn request_shutdown(&self) {
        *self.shutdown_requested.lock().expect("shutdown poisoned") = true;
        self.shutdown_signal.notify_all();
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
    let shared = Arc::new(Shared {
        core: Arc::clone(&core),
        stop: AtomicBool::new(false),
        shutdown_requested: Mutex::new(false),
        shutdown_signal: Condvar::new(),
        next_client: AtomicU64::new(1),
        timeouts: Timeouts::of(config),
        conn_threads: Mutex::new(Vec::new()),
        conns: Mutex::new(HashMap::new()),
    });
    let mut listeners = Vec::new();
    let mut unix_path = None;
    if let Some(path) = &config.unix {
        // A previous daemon's stale socket file would make bind fail;
        // replacing it is the standard unix-daemon move.
        if path.exists() {
            let _ = std::fs::remove_file(path);
        }
        let listener = UnixListener::bind(path)?;
        let wake = Bound::unix(path)?;
        unix_path = Some(path.clone());
        let shared = Arc::clone(&shared);
        listeners.push(Listener {
            thread: std::thread::spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Unix(s)));
            }),
            wake,
        });
    }
    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        tcp_addr = Some(local);
        let shared = Arc::clone(&shared);
        listeners.push(Listener {
            thread: std::thread::spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Tcp(s)));
            }),
            wake: Bound::Tcp(local),
        });
    }
    Ok(ServerHandle {
        core,
        listeners: Mutex::new(listeners),
        shared,
        unix_path,
        tcp_addr,
    })
}

impl ServerHandle {
    /// Whether a client has requested daemon shutdown.
    pub fn shutdown_requested(&self) -> bool {
        *self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown poisoned")
    }

    /// Blocks until a client requests shutdown (the `rxd` main loop).
    pub fn wait_for_shutdown(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown poisoned");
        while !*requested {
            requested = self
                .shared
                .shutdown_signal
                .wait(requested)
                .expect("shutdown poisoned");
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
        self.shared.stop.store(true, Ordering::Relaxed);
        for listener in std::mem::take(&mut *self.listeners.lock().expect("listeners poisoned")) {
            // A listener that cannot be woken (its path was replaced, or
            // the process is out of descriptors) stays blocked in
            // accept; it is left to end with the process rather than
            // hang the stop.
            if listener.wake.poke().is_ok() {
                let _ = listener.thread.join();
            }
        }
        for conn in self.shared.conns.lock().expect("conns poisoned").values() {
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

/// Accepts connections until told to stop, starting a reader thread
/// for each one.
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<Stream>) {
    loop {
        let accepted = accept();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok(stream) => start_connection(shared, stream),
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

/// Registers an accepted connection and starts its reader thread, then
/// joins the connection threads that have ended since the last accept.
fn start_connection(shared: &Arc<Shared>, stream: Stream) {
    shared
        .core
        .stats()
        .connections
        .fetch_add(1, Ordering::Relaxed);
    let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .insert(client, handle);
    let shared2 = Arc::clone(shared);
    let thread = std::thread::spawn(move || {
        let mut stream = stream;
        handle_connection(&shared2, &mut stream, client);
        // Shut the socket down so the peer sees the close the moment
        // this connection ends, then drop the stop() clone's descriptor.
        stream.close();
        shared2
            .conns
            .lock()
            .expect("conns poisoned")
            .remove(&client);
    });
    let finished: Vec<JoinHandle<()>> = {
        let mut threads = shared.conn_threads.lock().expect("threads poisoned");
        let (finished, live) = std::mem::take(&mut *threads)
            .into_iter()
            .partition(JoinHandle::is_finished);
        *threads = live;
        threads.push(thread);
        finished
    };
    for handle in finished {
        let _ = handle.join();
    }
}

/// Bumps the protocol-error counter when `count` is set and queues an
/// [`ERROR`] frame.
fn send_error(
    outbox: &Outbox,
    stats: &ServiceStats,
    request_id: u64,
    code: u16,
    message: &str,
    count: bool,
) {
    if count {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    outbox.send(ERROR, request_id, encode_error(code, message));
}

/// Runs one connection to completion: starts its writer, reads frames
/// until the peer leaves, a deadline trips or the server stops, then
/// waits for every accepted request's terminal frame, lets the writer
/// drain and joins it.
fn handle_connection(shared: &Arc<Shared>, reader: &mut Stream, client: u64) {
    // The poll-granularity socket timeout drives TimedReader's deadline
    // checks; the write timeout bounds the writer (the fd is shared
    // with the clone, so setting it here covers both).
    let _ = reader.set_read_timeout(Some(shared.timeouts.poll));
    let _ = reader.set_write_timeout(Some(shared.timeouts.write));
    let Ok(write_half) = reader.try_clone() else {
        return;
    };
    let outbox = Arc::new(Outbox::default());
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || write_loop(&outbox, write_half))
    };
    let shutdown = read_loop(shared, reader, client, &outbox);
    outbox.close_when_settled();
    let _ = writer.join();
    // Raised only once SHUTDOWN_OK is on the wire: the daemon's stop
    // closes every connection, this one included.
    if shutdown {
        shared.request_shutdown();
    }
}

/// The reader: handshake, then the pipelined request loop. Returns
/// whether the peer asked the daemon to shut down. Nothing in here
/// panics on hostile input.
fn read_loop(shared: &Arc<Shared>, reader: &mut Stream, client: u64, outbox: &Arc<Outbox>) -> bool {
    let stats = shared.core.stats();
    let mut timed = TimedReader::new(reader, shared.timeouts, &shared.stop, outbox);

    // ---- Handshake ------------------------------------------------------
    timed.begin_frame();
    match read_frame(&mut timed) {
        Ok(frame) if frame.kind == HELLO => match decode_hello(&frame.payload) {
            Some(version) if version == VERSION => {
                let mut e = reflex_verify::codec::Enc::new();
                e.u16(VERSION);
                outbox.send(HELLO_OK, frame.request_id, e.buf);
            }
            Some(version) => {
                send_error(
                    outbox,
                    stats,
                    frame.request_id,
                    ERR_VERSION,
                    &format!("unsupported protocol version {version} (server speaks {VERSION})"),
                    true,
                );
                return false;
            }
            None => {
                send_error(
                    outbox,
                    stats,
                    frame.request_id,
                    ERR_VERSION,
                    "bad hello payload",
                    true,
                );
                return false;
            }
        },
        Ok(frame) => {
            send_error(
                outbox,
                stats,
                frame.request_id,
                ERR_MALFORMED,
                "expected hello frame first",
                true,
            );
            return false;
        }
        Err(e) => {
            report_reap(outbox, stats, timed.reaped);
            report_read_error(outbox, stats, &e);
            return false;
        }
    }

    // ---- Request loop ---------------------------------------------------
    while !shared.stop.load(Ordering::Relaxed) {
        timed.begin_frame();
        let frame = match read_frame(&mut timed) {
            Ok(frame) => frame,
            Err(e) => {
                report_reap(outbox, stats, timed.reaped);
                report_read_error(outbox, stats, &e);
                break;
            }
        };
        match frame.kind {
            REQUEST => {
                let Some(request) = decode_request(&frame.payload) else {
                    send_error(
                        outbox,
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
                        outbox: Arc::clone(outbox),
                        request_id: frame.request_id,
                    })
                } else {
                    Arc::new(NullSink)
                };
                // Submit on the reader thread (preserving the client's
                // send order in its queue); the ticket's completion
                // hook queues the terminal frame, so this loop keeps
                // reading — that is what lets CANCEL reach an in-flight
                // request.
                match shared.core.submit(client, frame.request_id, request, sink) {
                    Ok(ticket) => outbox.track(&ticket, frame.request_id),
                    Err(e) => outbox.push(terminal_frame(frame.request_id, Err(e))),
                }
            }
            CANCEL => {
                // Idempotent: unknown/completed ids are acknowledged
                // the same way — the interesting effect (a typed
                // Cancelled terminal frame) travels on the original
                // request's id.
                let _ = shared.core.cancel(client, frame.request_id);
                outbox.send(CANCEL_OK, frame.request_id, Vec::new());
            }
            STATS => {
                outbox.send(
                    STATS_REPLY,
                    frame.request_id,
                    encode_stats(&stats.snapshot()),
                );
            }
            SHUTDOWN => {
                outbox.send(SHUTDOWN_OK, frame.request_id, Vec::new());
                return true;
            }
            _ => {
                send_error(
                    outbox,
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
    false
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
fn report_reap(outbox: &Outbox, stats: &ServiceStats, reaped: Option<Reaped>) {
    let Some(why) = reaped else { return };
    stats.reaped_connections.fetch_add(1, Ordering::Relaxed);
    let message = match why {
        Reaped::SlowFrame => "connection reaped: frame did not complete within the read deadline",
        Reaped::Idle => "connection reaped: idle past the deadline with nothing in flight",
    };
    send_error(outbox, stats, 0, ERR_IDLE, message, false);
}

/// Classifies a failed read: hostile frames get a typed error reply and
/// count as protocol errors; a peer that just went away does not.
fn report_read_error(outbox: &Outbox, stats: &ServiceStats, e: &ProtoError) {
    match e {
        ProtoError::Oversized { .. } => {
            send_error(outbox, stats, 0, ERR_OVERSIZED, &e.to_string(), true);
        }
        ProtoError::Malformed(_) => {
            send_error(outbox, stats, 0, ERR_MALFORMED, &e.to_string(), true);
        }
        ProtoError::Closed | ProtoError::Io(_) => {}
    }
}
