//! A minimal pipelining client built from the public protocol functions
//! (`encode_request`, `write_frame`, `read_frame`, `decode_reply`), so the
//! benchmark can time each of them and keep several requests in flight on
//! one connection. `Client` is timed only for connecting.

use std::fs::File;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use reflex_service::protocol::{
    decode_error_retry, decode_reply, encode_hello, read_frame, write_frame, Frame, ProtoError,
    ERROR, HELLO, HELLO_OK, REPLY, REQUEST,
};
use reflex_service::Reply;

use crate::trace::Tracer;

/// A handshaken connection to the scratch daemon.
pub struct Conn {
    stream: UnixStream,
}

/// How the daemon answered one request.
#[derive(Debug)]
pub enum Answer {
    /// A terminal reply.
    Reply(Reply),
    /// An error frame (refusal, deadline, bad request...).
    Error(u16, String),
}

impl Conn {
    /// Connects and performs the version handshake.
    pub fn connect(path: &Path) -> Result<Conn, String> {
        let mut stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let hello = Frame {
            kind: HELLO,
            request_id: 0,
            payload: encode_hello(),
        };
        write_frame(&mut stream, &hello).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut stream).map_err(|e| e.to_string())?;
        if frame.kind != HELLO_OK {
            return Err(format!("handshake answered with frame kind {}", frame.kind));
        }
        Ok(Conn { stream })
    }

    /// A second handle on the same socket, for a receiver thread.
    pub fn try_clone(&self) -> Result<Conn, String> {
        Ok(Conn {
            stream: self.stream.try_clone().map_err(|e| e.to_string())?,
        })
    }

    /// Sends one encoded request.
    pub fn send(&mut self, request_id: u64, payload: &[u8]) -> Result<(), String> {
        let frame = Frame {
            kind: REQUEST,
            request_id,
            payload: payload.to_vec(),
        };
        write_frame(&mut self.stream, &frame).map_err(|e| e.to_string())
    }

    /// Reads the next frame.
    pub fn recv(&mut self) -> Result<Frame, String> {
        read_frame(&mut self.stream).map_err(|e| e.to_string())
    }
}

/// Decodes a terminal frame into an [`Answer`].
pub fn answer_of(frame: &Frame) -> Result<Answer, String> {
    match frame.kind {
        REPLY => decode_reply(&frame.payload)
            .map(Answer::Reply)
            .ok_or_else(|| "reply payload did not decode".to_owned()),
        ERROR => decode_error_retry(&frame.payload)
            .map(|(code, message, _)| Answer::Error(code, message))
            .ok_or_else(|| "error payload did not decode".to_owned()),
        kind => Err(format!("unexpected frame kind {kind}")),
    }
}

/// Reply frames set aside on disk while a timed phase runs, to be
/// decoded and checked after it: checking then neither runs inside the
/// timed region nor holds the replies in memory.
pub struct Spill {
    path: PathBuf,
    out: File,
}

impl Spill {
    /// An empty spill file at `path`.
    pub fn create(path: PathBuf) -> Result<Spill, String> {
        let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Spill { path, out: file })
    }

    /// Appends one frame (one `write`: `write_frame` builds the whole
    /// frame before writing it).
    pub fn push(&mut self, frame: &Frame) -> Result<(), String> {
        write_frame(&mut self.out, frame).map_err(|e| e.to_string())
    }

    /// Hands every frame back in order, one at a time, then deletes the
    /// file.
    pub fn drain(self, mut f: impl FnMut(Frame)) -> Result<(), String> {
        drop(self.out);
        let file = File::open(&self.path).map_err(|e| e.to_string())?;
        let mut input = BufReader::with_capacity(1 << 16, file);
        loop {
            match read_frame(&mut input) {
                Ok(frame) => f(frame),
                Err(ProtoError::Closed) => break,
                Err(e) => return Err(format!("{}: {e}", self.path.display())),
            }
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// One timed round trip, its parts and its sizes.
pub struct Roundtrip {
    /// What came back.
    pub answer: Answer,
    /// The reply frame it was decoded from.
    pub frame: Frame,
    /// Send to decoded reply, ms.
    pub latency_ms: f64,
    /// `write_frame` of the request, ms.
    pub write_ms: f64,
    /// `decode_reply`, ms.
    pub decode_ms: f64,
    /// Reply payload bytes.
    pub reply_bytes: usize,
}

/// Sends `payload` (an already encoded request) and waits for its
/// terminal frame, with `protocol.*` and `server.wait` spans under `root`
/// when tracing. The caller encodes, so it can time `encode_request` too.
pub fn roundtrip(
    conn: &mut Conn,
    request_id: u64,
    payload: &[u8],
    start: Instant,
    tracer: &Tracer,
    trace: u64,
    root: Option<u64>,
) -> Result<Roundtrip, String> {
    let t0 = Instant::now();
    conn.send(request_id, payload)?;
    let t1 = Instant::now();
    let frame = loop {
        let f = conn.recv()?;
        if f.request_id == request_id {
            break f;
        }
    };
    let t2 = Instant::now();
    let answer = answer_of(&frame)?;
    let t3 = Instant::now();
    tracer.record("protocol.write_frame", trace, root, t0, t1);
    tracer.record("server.wait", trace, root, t1, t2);
    tracer.record("protocol.decode_reply", trace, root, t2, t3);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Roundtrip {
        answer,
        reply_bytes: frame.payload.len(),
        frame,
        latency_ms: ms(start, t3),
        write_ms: ms(t0, t1),
        decode_ms: ms(t2, t3),
    })
}
