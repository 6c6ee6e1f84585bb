//! `serve-mix`: an in-process `ServiceCore` behind `serve` on a scratch
//! unix socket, driven over the wire.
//!
//! The daemon runs `workers = nproc`, `jobs = 1`, no store. Its env is
//! warm and the sources repeat: verify each paper kernel, verify a
//! `small` synth kernel, verify `car` with one false property (expected
//! to fail), and `Check` requests. Phase 1 is a closed loop with `nproc`
//! connections, one thread each; phase 2 an open loop on one connection
//! (one sender thread, one receiver thread, pipelined request ids) at
//! three fixed offered rates. Per-request overhead dominates: the wire,
//! the reply-waiter thread, the accept loop, the queue, and re-parsing
//! identical sources. Prover search is a small share.
//!
//! Every reply is checked: verdicts against the expected ones, and each
//! certificate's bytes against a one-shot in-process reference computed
//! after set-up (whose certificates the checker accepted). Checks run
//! outside the timed region: while a phase runs, each reply frame is
//! appended to a spill file ([`wire::Spill`]), and the frames are decoded
//! and checked after the phase.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reflex_driver::{NullSink, SessionConfig, VerifySession};
use reflex_service::protocol::{
    encode_reply, encode_request, Frame, ERR_BUSY, ERR_OVERLOADED, REPLY,
};
use reflex_service::{
    serve, Client, Endpoint, Reply, ServerConfig, ServerHandle, ServiceConfig, ServiceCore,
};
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, check_certificate_with, Abstraction,
    ProverOptions,
};

use crate::gate::{compare_verdicts, verdict_of, Gate};
use crate::gen::{self, MixItem};
use crate::layers::Recorder;
use crate::report::RunResult;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::wire::{self, Answer, Conn, Spill};
use crate::Args;

/// Open-loop offered rates, requests per second: 0.3, 0.6 and 0.9 of the
/// closed-loop capacity (about 420 req/s) measured when this benchmark
/// was created, on a 2-core x86-64 container. Fixed, so that runs on
/// different commits offer the same load.
pub const OPEN_RATES: [f64; 3] = [125.0, 250.0, 380.0];

/// Requests sent at each open-loop rate. The middle rate gets 1 000, so
/// its p99 has ten samples beyond it.
const OPEN_COUNTS: [usize; 3] = [500, 1000, 1000];

/// The p99 latency limit behind `serve.slo_rps`, ms, fixed at creation.
pub const SLO_P99_MS: f64 = 50.0;

/// Closed-loop requests needed for a p99 with ten samples beyond it.
const MIN_CLOSED: usize = 1000;

/// Connections of the closed loop. One: requests then run one at a time,
/// so the process's CPU time across a request is that request's cost (on
/// the client, the wire, the server and its worker). On a shared 2-vCPU
/// machine two busy threads also get little more CPU than one.
const CLOSED_CONNS: usize = 1;

/// Closed-loop requests per second of `--seconds` (rounded up to whole
/// bags of the mix). A run does a fixed amount of work, so runs of one
/// seed send the same requests however fast the machine is; at this rate
/// the closed loop takes about half of `--seconds` on a 2-core x86-64
/// container and the open loop a third.
const CLOSED_PER_SECOND: f64 = 75.0;

/// Set-ups timed per run, each in a fresh process; `setup_s` is their
/// median CPU time.
const SETUP_REPEATS: usize = 3;

/// The daemon's per-client queue cap. The open loop keeps hundreds of
/// one connection's requests queued near capacity; `rxd`'s default (16)
/// would refuse them as Busy, so the benchmark raises it. No phase
/// queues more than this, so `core.busy` stays 0.
const QUEUE_CAP: usize = 8192;

/// A running scratch daemon.
struct Daemon {
    handle: ServerHandle,
    core: Arc<ServiceCore>,
    path: PathBuf,
    conns: Vec<Conn>,
}

impl Daemon {
    fn stop(self) {
        drop(self.conns);
        self.handle.stop();
        self.core.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What a verify reply's certificates must be: `(property, certificate
/// bytes)` for every proved property. Empty for `Check` items.
type Expected = Vec<(String, Vec<u8>)>;

/// One-shot in-process reference: a fresh session per verify item, its
/// certificates checked, then encoded.
fn reference(catalog: &[MixItem], gate: &Gate) -> Result<Vec<Expected>, String> {
    let options = ProverOptions {
        jobs: 1,
        ..ProverOptions::default()
    };
    catalog
        .iter()
        .map(|item| {
            let k = &item.kernel;
            if !item.verify {
                return Ok(Vec::new());
            }
            let session = VerifySession::new(SessionConfig {
                options: options.clone(),
                jobs: 1,
                ..SessionConfig::default()
            })
            .map_err(|e| e.to_string())?;
            let report = session
                .verify_source(&k.name, &k.source, &NullSink)
                .map_err(|e| e.to_string())?;
            let got: Vec<_> = report
                .outcomes
                .iter()
                .map(|(n, o)| (n.clone(), verdict_of(o)))
                .collect();
            gate.check(compare_verdicts(&item.label, &k.expect, &got));
            let program =
                reflex_parser::parse_program(&k.name, &k.source).map_err(|e| e.to_string())?;
            let checked = reflex_typeck::check(&program).map_err(|e| e.to_string())?;
            let abs = Abstraction::build(&checked, &options);
            let mut certs = Vec::new();
            for (name, o) in &report.outcomes {
                if let Some(cert) = o.certificate() {
                    if let Err(e) = check_certificate_with(&abs, cert, &options) {
                        gate.fail(format!("{}: {name}: reference rejected: {e}", item.label));
                    }
                    certs.push((name.clone(), certificate_to_bytes(cert)));
                }
            }
            Ok(certs)
        })
        .collect()
}

/// What one validated answer contributed.
#[derive(Default)]
struct Checked {
    ok: bool,
    props: usize,
    cert_bytes: Vec<usize>,
}

/// Checks one answer against its catalog item and, given one, its
/// reference certificates. When tracing, the certificate codec calls it
/// makes are spans under a `reply-check` root of their own: they run
/// after the latency stamp.
fn validate(
    item: &MixItem,
    expected: Option<&Expected>,
    answer: &Answer,
    gate: &Gate,
    tracer: &Tracer,
) -> Checked {
    let trace = tracer.fresh_id();
    let root = tracer.on().then(|| tracer.fresh_id());
    let start = Instant::now();
    let out = validate_inner(item, expected, answer, gate, tracer, trace, root);
    if let Some(id) = root {
        tracer.push(trace::Span {
            id,
            parent: None,
            trace,
            name: "reply-check".into(),
            start_ns: tracer.ns(start),
            end_ns: tracer.ns(Instant::now()),
        });
    }
    out
}

fn validate_inner(
    item: &MixItem,
    expected: Option<&Expected>,
    answer: &Answer,
    gate: &Gate,
    tracer: &Tracer,
    trace: u64,
    root: Option<u64>,
) -> Checked {
    let mut out = Checked::default();
    match answer {
        Answer::Reply(Reply::Verify(report)) if item.verify => {
            let got: Vec<_> = report
                .outcomes
                .iter()
                .map(|(n, o)| (n.clone(), verdict_of(o)))
                .collect();
            out.ok = gate.check(compare_verdicts(&item.label, &item.kernel.expect, &got));
            out.props = report.outcomes.len();
            let mine: Vec<(&String, &reflex_verify::Certificate)> = report
                .outcomes
                .iter()
                .filter_map(|(n, o)| o.certificate().map(|c| (n, c)))
                .collect();
            let Some(certs) = expected else {
                return out;
            };
            if mine.len() != certs.len() {
                gate.fail(format!("{}: certificate count differs", item.label));
                out.ok = false;
            }
            for ((name, cert), (ref_name, ref_bytes)) in mine.into_iter().zip(certs) {
                let bytes = tracer.time("codec.encode", trace, root, || certificate_to_bytes(cert));
                if tracer.on() {
                    tracer.time("codec.decode", trace, root, || {
                        certificate_from_bytes(&bytes)
                    });
                }
                if name != ref_name || bytes != *ref_bytes {
                    gate.fail(format!(
                        "{}: {name}: certificate bytes differ from the one-shot reference",
                        item.label
                    ));
                    out.ok = false;
                }
                out.cert_bytes.push(bytes.len());
            }
        }
        Answer::Reply(Reply::Checked(summary)) if !item.verify => {
            out.ok = summary.properties == item.kernel.expect.len() as u64;
            if !out.ok {
                gate.fail(format!("{}: check summary disagrees", item.label));
            }
        }
        // A refusal is a failed operation (it counts against the error
        // rate), not a wrong answer.
        Answer::Error(code, _) if *code == ERR_BUSY || *code == ERR_OVERLOADED => {}
        Answer::Error(code, message) => {
            gate.fail(format!("{}: error {code}: {message}", item.label));
        }
        _ => gate.fail(format!("{}: reply of the wrong kind", item.label)),
    }
    out
}

/// Boots a daemon, connects `nproc` clients and runs one warm-up pass,
/// returning the warm-up answers unchecked.
fn set_up(
    dir: &Path,
    catalog: &[MixItem],
    payloads: &[Vec<u8>],
) -> Result<(Daemon, Vec<Answer>), String> {
    let core = Arc::new(
        ServiceCore::start(ServiceConfig {
            jobs: 1,
            workers: crate::nproc(),
            queue_cap: QUEUE_CAP,
            ..ServiceConfig::default()
        })
        .map_err(|e| e.to_string())?,
    );
    let path = dir.join("d.sock");
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            unix: Some(path.clone()),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind {}: {e}", path.display()))?;
    let mut conns = Vec::new();
    for _ in 0..CLOSED_CONNS {
        conns.push(Conn::connect(&path)?);
    }
    let off = Tracer::new(false);
    let mut answers = Vec::with_capacity(catalog.len());
    for (i, payload) in payloads.iter().enumerate() {
        let rt = wire::roundtrip(
            &mut conns[0],
            i as u64 + 1,
            payload,
            Instant::now(),
            &off,
            0,
            None,
        )?;
        answers.push(rt.answer);
    }
    Ok((
        Daemon {
            handle,
            core,
            path,
            conns,
        },
        answers,
    ))
}

/// One timed set-up in this process, which is fresh: the `setup` child.
/// Its warm-up verdicts are checked; certificate bytes are checked on
/// the set-up that serves the run.
pub fn setup_child() -> Result<RunResult, String> {
    let dir = crate::scratch_dir("serve-setup");
    let catalog = gen::serve_catalog();
    let payloads: Vec<Vec<u8>> = catalog
        .iter()
        .map(|i| encode_request(&i.request()))
        .collect();
    let (t, cpu) = (Instant::now(), crate::cpu_s());
    let (daemon, answers) = set_up(&dir, &catalog, &payloads)?;
    let (secs, wall) = (crate::cpu_s() - cpu, t.elapsed().as_secs_f64());
    let gate = Gate::default();
    let off = Tracer::new(false);
    for (item, answer) in catalog.iter().zip(&answers) {
        validate(item, None, answer, &gate, &off);
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let mut result = RunResult::default();
    result.set("setup_s", secs, "s");
    result.set("setup.wall_s", wall, "s");
    result.gate = gate.failures();
    Ok(result)
}

/// One completed wire request, ms.
#[derive(Clone, Copy)]
struct WireRec {
    item: usize,
    latency: f64,
    /// Completion, seconds from the start of the phase.
    done_s: f64,
    /// Process CPU time across the request, ms.
    cpu_ms: f64,
    encode: f64,
    write: f64,
    decode: f64,
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Closed {
    latency_ms: Vec<f64>,
    records: Vec<WireRec>,
    props: usize,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    req_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    cert_bytes: Vec<f64>,
}

/// The daemon's connections, one thread each, each sending `per_conn`
/// requests of its own seeded sequence back to back. Replies are spilled
/// and checked after the phase.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    daemon: &mut Daemon,
    seed: u64,
    tag: &str,
    catalog: &[MixItem],
    refs: &[Expected],
    per_conn: usize,
    gate: &Gate,
    tracer: &Tracer,
) -> Result<Closed, String> {
    let merged = Mutex::new(Closed::default());
    let spills = Mutex::new(Vec::new());
    let spill_dir = daemon.path.with_file_name("");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, conn) in daemon.conns.iter_mut().enumerate() {
            let (merged, spills, spill_dir) = (&merged, &spills, &spill_dir);
            scope.spawn(move || {
                let seq = gen::request_sequence(seed, &format!("{tag}-{c}"), catalog, per_conn);
                let mut mine = Closed::default();
                let mut spill = match Spill::create(spill_dir.join(format!("{tag}-{c}.frames"))) {
                    Ok(s) => s,
                    Err(e) => {
                        gate.fail(e);
                        return;
                    }
                };
                for (i, &idx) in seq.iter().enumerate() {
                    mine.attempted += 1;
                    let trace = tracer.fresh_id();
                    let root = tracer.on().then(|| tracer.fresh_id());
                    let cpu0 = crate::cpu_s();
                    let t0 = Instant::now();
                    let payload = encode_request(&catalog[idx].request());
                    let t_enc = Instant::now();
                    tracer.record("protocol.encode_request", trace, root, t0, t_enc);
                    let rt = wire::roundtrip(conn, i as u64 + 1, &payload, t0, tracer, trace, root);
                    let t1 = Instant::now();
                    let cpu_ms = (crate::cpu_s() - cpu0) * 1e3;
                    let rt = match rt.and_then(|rt| spill.push(&rt.frame).map(|()| rt)) {
                        Ok(rt) => rt,
                        Err(e) => {
                            gate.fail(format!("connection {c}: {e}"));
                            mine.failed += 1;
                            break;
                        }
                    };
                    if let Some(root) = root {
                        tracer.push(trace::Span {
                            id: root,
                            parent: None,
                            trace,
                            name: "request".into(),
                            start_ns: tracer.ns(t0),
                            end_ns: tracer.ns(t1),
                        });
                    }
                    mine.latency_ms.push(rt.latency_ms);
                    mine.records.push(WireRec {
                        item: idx,
                        latency: rt.latency_ms,
                        done_s: (t1 - start).as_secs_f64(),
                        cpu_ms,
                        encode: (t_enc - t0).as_secs_f64() * 1e3,
                        write: rt.write_ms,
                        decode: rt.decode_ms,
                    });
                    mine.req_bytes.push(payload.len() as f64);
                    mine.reply_bytes.push(rt.reply_bytes as f64);
                }
                let mut m = merged.lock().expect("closed-loop merge poisoned");
                m.latency_ms.extend(mine.latency_ms);
                m.records.extend(mine.records);
                m.attempted += mine.attempted;
                m.failed += mine.failed;
                m.req_bytes.extend(mine.req_bytes);
                m.reply_bytes.extend(mine.reply_bytes);
                spills
                    .lock()
                    .expect("spill list poisoned")
                    .push((seq, spill));
            });
        }
    });
    let mut out = merged.into_inner().expect("closed-loop merge poisoned");
    out.wall_s = start.elapsed().as_secs_f64();
    // The phase is over: decode and check every reply.
    for (seq, spill) in spills.into_inner().expect("spill list poisoned") {
        spill.drain(|frame| {
            let idx = seq[frame.request_id as usize - 1];
            let v = match wire::answer_of(&frame) {
                Ok(answer) => validate(&catalog[idx], Some(&refs[idx]), &answer, gate, tracer),
                Err(e) => {
                    gate.fail(format!("{}: {e}", catalog[idx].label));
                    Checked::default()
                }
            };
            if !v.ok {
                out.failed += 1;
            }
            out.props += v.props;
            out.cert_bytes
                .extend(v.cert_bytes.iter().map(|&b| b as f64));
        })?;
    }
    Ok(out)
}

/// What one open-loop rate measured.
struct Open {
    rate: f64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog: bool,
    attempted: u64,
    failed: u64,
}

/// One of the closed loop's connections, now idle, so the generator
/// never holds more than `nproc` connections or threads: a sender thread
/// pacing a seeded Poisson schedule and a receiver thread matching
/// replies by request id. Latency runs from each request's due time, so
/// a stalled sender still shows. The receiver only reads, stamps and
/// spills each reply; the replies are decoded and checked after the
/// schedule.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Conn,
    spill_path: PathBuf,
    seed: u64,
    rate: f64,
    count: usize,
    catalog: &[MixItem],
    payloads: &[Vec<u8>],
    refs: &[Expected],
    gate: &Gate,
) -> Result<Open, String> {
    let tag = format!("open-{rate}");
    let due = gen::arrivals_ns(seed, &tag, rate, count);
    let seq = gen::request_sequence(seed, &tag, catalog, count);
    let mut recv_conn = conn.try_clone()?;
    let send_conn = conn;
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let at = |ns: u64| t0 + Duration::from_nanos(ns);
    let (sent, recv) = std::thread::scope(|scope| {
        let received = &received;
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(count);
            let mut outstanding = Vec::with_capacity(count);
            for (i, &d) in due.iter().enumerate() {
                let target = at(d);
                loop {
                    let now = Instant::now();
                    if now >= target {
                        break;
                    }
                    let left = target - now;
                    if left > Duration::from_micros(300) {
                        std::thread::sleep(left - Duration::from_micros(200));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let now = Instant::now();
                late.push((now - target).as_secs_f64() * 1e3);
                outstanding.push(i - received.load(Ordering::Relaxed).min(i));
                send_conn.send(i as u64 + 1, &payloads[seq[i]])?;
            }
            Ok::<_, String>((late, outstanding))
        });
        let receiver = scope.spawn(|| {
            let mut lat = vec![f64::NAN; count];
            let mut spill = Spill::create(spill_path)?;
            for _ in 0..count {
                let frame = recv_conn.recv()?;
                let now = Instant::now();
                let i = (frame.request_id as usize).wrapping_sub(1);
                if i >= count {
                    return Err(format!("reply for unknown id {}", frame.request_id));
                }
                lat[i] = (now.saturating_duration_since(at(due[i]))).as_secs_f64() * 1e3;
                received.fetch_add(1, Ordering::Relaxed);
                spill.push(&frame)?;
            }
            Ok::<_, String>((lat, spill))
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let (late_ms, outstanding) = sent?;
    let (mut lat, spill) = recv?;
    let off = Tracer::new(false);
    let mut failed = 0u64;
    spill.drain(|frame| {
        let i = frame.request_id as usize - 1;
        let ok = match wire::answer_of(&frame) {
            Ok(answer) => validate(&catalog[seq[i]], Some(&refs[seq[i]]), &answer, gate, &off).ok,
            Err(e) => {
                gate.fail(format!("{}: {e}", catalog[seq[i]].label));
                false
            }
        };
        if !ok {
            failed += 1;
            lat[i] = f64::NAN;
        }
    })?;
    // A growing backlog: the requests still in flight at send time keep
    // climbing from the first quarter of the schedule to the last.
    let q = count / 4;
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    let first = mean(&outstanding[..q]);
    let last = mean(&outstanding[count - q..]);
    Ok(Open {
        rate,
        latency_ms: lat.into_iter().filter(|x| x.is_finite()).collect(),
        late_ms,
        backlog: last > 2.0 * first + 4.0,
        attempted: count as u64,
        failed,
    })
}

/// What the requests of one slice of the closed loop cost.
struct Slice {
    /// Requests per CPU second.
    ops_per_cpu_s: f64,
    /// Properties proved per CPU second.
    props_per_cpu_s: f64,
    /// Median CPU time of a request, ms.
    cpu_p50_ms: f64,
    /// Requests per second.
    rps: f64,
    /// Median latency, ms.
    p50_ms: f64,
}

/// The closed loop cut into slices of `bag` consecutive requests: one
/// shuffled bag of the request mix each, so every slice sends the same
/// requests and slices differ only in how the machine ran them. The
/// end-to-end figures are medians over the slices, so a stall on a shared
/// machine costs one slice, not the run. `props` gives the properties a
/// catalog item proves.
fn slices(closed: &Closed, bag: usize, props: impl Fn(usize) -> usize) -> Vec<Slice> {
    let mut records: Vec<&WireRec> = closed.records.iter().collect();
    records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let mut begin = 0.0;
    records
        .chunks_exact(bag)
        .map(|recs| {
            let med = |f: fn(&WireRec) -> f64| {
                stats::median(&recs.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
            };
            let end = recs[recs.len() - 1].done_s;
            let wall_s = end - begin;
            begin = end;
            let cpu_s: f64 = recs.iter().map(|r| r.cpu_ms).sum::<f64>() / 1e3;
            let proved: usize = recs.iter().map(|r| props(r.item)).sum();
            Slice {
                ops_per_cpu_s: recs.len() as f64 / cpu_s,
                props_per_cpu_s: proved as f64 / cpu_s,
                cpu_p50_ms: med(|r| r.cpu_ms),
                rps: recs.len() as f64 / wall_s,
                p50_ms: med(|r| r.latency),
            }
        })
        .collect()
}

/// The highest tail percentile (≤ 99) the samples support, and its value.
fn supported_tail(v: &[f64]) -> Option<(u32, f64)> {
    let p = stats::highest_tail(v.len(), 99)?;
    Some((p, stats::tail(v, f64::from(p))?))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let dir = crate::scratch_dir("serve-mix");
    let catalog = gen::serve_catalog();
    let payloads: Vec<Vec<u8>> = catalog
        .iter()
        .map(|i| encode_request(&i.request()))
        .collect();
    let gate = Gate::default();
    let mut result = RunResult::default();

    // ---- Set-up: core start, bind, handshake and one warm-up pass, each
    // timed in a fresh process, so each warms an empty interner and memo
    // as a new `rxd` does. Then this process sets up the daemon that
    // serves the run, and only after it computes the one-shot reference
    // its warm-up answers and every later reply are checked against.
    let (setups, setup_wall) = crate::child::timed_setups("serve-mix", SETUP_REPEATS, &gate)?;
    let (mut daemon, warm) = set_up(&dir, &catalog, &payloads)?;
    let refs = reference(&catalog, &gate)?;
    let off = Tracer::new(false);
    for (i, answer) in warm.iter().enumerate() {
        validate(&catalog[i], Some(&refs[i]), answer, &gate, &off);
    }
    let served_before = daemon.core.stats().snapshot();

    // ---- Phase 1: closed loop.
    // Traced runs add a traced closed loop and an in-process one, so the
    // untraced closed loop gets half its requests.
    let share = if args.trace { 0.5 } else { 1.0 };
    // Whole bags of the request mix, so that every slice holds one.
    let bag: usize = catalog.iter().map(|i| i.weight).sum();
    let total = ((args.seconds * share * CLOSED_PER_SECOND) as usize).max(MIN_CLOSED);
    let total = total.div_ceil(bag) * bag;
    let per_conn = total.div_ceil(daemon.conns.len());
    // On one CPU (see `crate::on_one_cpu`): each request passes through
    // four threads (client, connection reader, worker, reply waiter), and
    // spread over two vCPUs its CPU time followed the host's load.
    let closed = crate::on_one_cpu(|| {
        closed_loop(
            &mut daemon,
            args.seed,
            "closed",
            &catalog,
            &refs,
            per_conn,
            &gate,
            &off,
        )
    })?;
    result.attempted += closed.attempted;
    result.failed += closed.failed;

    // ---- Phase 2: open loop at each fixed rate.
    let mut opens = Vec::new();
    for (rate, count) in OPEN_RATES.iter().zip(OPEN_COUNTS) {
        let o = open_loop(
            &mut daemon.conns[0],
            dir.join("open.frames"),
            args.seed,
            *rate,
            count,
            &catalog,
            &payloads,
            &refs,
            &gate,
        )?;
        result.attempted += o.attempted;
        result.failed += o.failed;
        opens.push(o);
    }

    result.quartiles_line("closed-loop latency", &closed.latency_ms);
    result.text.push_str("  closed-loop p50 by kind:");
    let mut labels: Vec<&str> = catalog.iter().map(|i| i.label.as_str()).collect();
    labels.dedup();
    for label in labels {
        let of_kind: Vec<f64> = closed
            .records
            .iter()
            .filter(|r| catalog[r.item].label == label)
            .map(|r| r.latency)
            .collect();
        if let Some(p50) = stats::median(&of_kind) {
            result
                .text
                .push_str(&format!("  {label} {p50:.3} ms (n {})", of_kind.len()));
        }
    }
    result.text.push('\n');
    let per_slice = slices(&closed, bag, |item| refs[item].len());
    let med = |f: fn(&Slice) -> f64| {
        stats::median(&per_slice.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    result.text.push_str(&format!(
        "  closed loop whole phase: {:.2} req/s  {:.2} props/s  p50 {:.3} ms\n",
        closed.latency_ms.len() as f64 / closed.wall_s,
        closed.props as f64 / closed.wall_s,
        stats::median(&closed.latency_ms).unwrap_or(0.0),
    ));
    result
        .text
        .push_str("  closed-loop slices, requests per CPU second:");
    for s in &per_slice {
        result.text.push_str(&format!(" {:.1}", s.ops_per_cpu_s));
    }
    result.text.push('\n');
    result.set("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    result.set(
        "setup.wall_s",
        stats::median(&setup_wall).unwrap_or(0.0),
        "s",
    );
    result.set("ops_per_cpu_s", med(|s| s.ops_per_cpu_s), "1/s");
    result.set("props_per_cpu_s", med(|s| s.props_per_cpu_s), "1/s");
    result.set("cpu_p50_ms", med(|s| s.cpu_p50_ms), "ms");
    result.set("serve.rps", med(|s| s.rps), "1/s");
    result.set("serve.p50_ms", med(|s| s.p50_ms), "ms");
    if let Some(p99) = stats::tail(&closed.latency_ms, 99.0) {
        result.set("serve.p99_ms", p99, "ms");
    }
    let mut slo = 0.0f64;
    for o in &opens {
        let tail = supported_tail(&o.latency_ms);
        let late = stats::tail(&o.late_ms, 99.0).or_else(|| stats::median(&o.late_ms));
        result.text.push_str(&format!(
            "  open loop {:>5.0} req/s: sent {}  failed {}  p50 {:.3} ms  {}  generator late p99 {:.3} ms  backlog {}\n",
            o.rate,
            o.attempted,
            o.failed,
            stats::median(&o.latency_ms).unwrap_or(0.0),
            tail.map_or("tail n/a".to_owned(), |(p, v)| format!("p{p} {v:.3} ms")),
            late.unwrap_or(0.0),
            if o.backlog { "growing" } else { "steady" },
        ));
        if o.failed == 0 && !o.backlog && tail.is_some_and(|(_, v)| v <= SLO_P99_MS) {
            slo = slo.max(o.rate);
        }
    }
    let mid = &opens[1];
    result.set(
        "serve.open_p50_ms",
        stats::median(&mid.latency_ms).unwrap_or(0.0),
        "ms",
    );
    if let Some(p99) = stats::tail(&mid.latency_ms, 99.0) {
        result.set("serve.open_p99_ms", p99, "ms");
    }
    let late: Vec<f64> = opens
        .iter()
        .flat_map(|o| o.late_ms.iter().copied())
        .collect();
    result.set(
        "serve.open_late_ms",
        stats::tail(&late, 99.0).unwrap_or(0.0),
        "ms",
    );
    result.set("serve.slo_rps", slo, "1/s");
    result.text.push_str(&format!(
        "  closed loop: {} connections, {} requests in {:.2} s; SLO p99 <= {SLO_P99_MS} ms\n",
        daemon.conns.len(),
        closed.latency_ms.len(),
        closed.wall_s
    ));

    if args.trace {
        // On one CPU, like the closed loop it is compared with.
        crate::on_one_cpu(|| {
            layer_pass(
                args,
                &mut result,
                &mut daemon,
                &catalog,
                &refs,
                &gate,
                &closed,
                per_conn,
            )
        })?;
    }
    let after = daemon.core.stats().snapshot();
    result.set(
        "core.served",
        (after.requests_served - served_before.requests_served) as f64,
        "count",
    );
    result.set(
        "core.busy",
        (after.rejected_busy - served_before.rejected_busy) as f64,
        "count",
    );
    result.set(
        "core.shed",
        (after.rejected_overloaded - served_before.rejected_overloaded) as f64,
        "count",
    );
    result.set("peak_rss_mb", crate::peak_rss_kb() as f64 / 1024.0, "MB");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    result.set(
        "error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
    );
    result.gate = gate.failures();
    Ok(result)
}

/// One in-process request, ms.
struct CoreRec {
    item: usize,
    total: f64,
    queue: Option<f64>,
    stages: std::collections::BTreeMap<&'static str, f64>,
}

/// The traced extras: the closed loop again with spans, the same mix
/// in-process through `ServiceCore::submit`/`Ticket::wait` with the
/// driver's stage events, and `Client::connect`.
#[allow(clippy::too_many_arguments)]
fn layer_pass(
    args: &Args,
    result: &mut RunResult,
    daemon: &mut Daemon,
    catalog: &[MixItem],
    refs: &[Expected],
    gate: &Gate,
    untraced: &Closed,
    per_conn: usize,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let daemon_dir = daemon.path.with_file_name("");
    // Half the untraced closed loop on the wire, half in-process.
    let per_conn = (per_conn / 2).max(MIN_CLOSED.div_ceil(CLOSED_CONNS));
    let traced = closed_loop(
        daemon, args.seed, "closed", catalog, refs, per_conn, gate, &tracer,
    )?;
    result.attempted += traced.attempted;
    result.failed += traced.failed;

    // The same mix at the same concurrency, in-process. Replies are
    // encoded into spill files, like the wire loop's, and checked after.
    let core = Arc::clone(&daemon.core);
    let threads = CLOSED_CONNS;
    let records: Mutex<Vec<CoreRec>> = Mutex::new(Vec::new());
    let summaries = Mutex::new(Vec::new());
    let spills = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..threads {
            let (core, records, summaries, spills, tracer, daemon_dir) =
                (&core, &records, &summaries, &spills, &tracer, &daemon_dir);
            scope.spawn(move || {
                let tag = format!("closed-{c}");
                let seq = gen::request_sequence(args.seed, &tag, catalog, per_conn);
                let path = daemon_dir.join(format!("core-{c}.frames"));
                let mut spill = match Spill::create(path) {
                    Ok(s) => s,
                    Err(e) => {
                        gate.fail(e);
                        return;
                    }
                };
                for (i, &idx) in seq.iter().enumerate() {
                    let recorder = Arc::new(Recorder::default());
                    let trace = tracer.fresh_id();
                    let root = tracer.fresh_id();
                    let t0 = Instant::now();
                    let request = catalog[idx].request();
                    let client = 1000 + c as u64;
                    let ticket = tracer.time("core.submit", trace, Some(root), || {
                        core.submit(client, i as u64 + 1, request, recorder.clone())
                    });
                    let reply = match ticket {
                        Ok(t) => tracer.time("core.wait", trace, Some(root), || t.wait()),
                        Err(e) => {
                            gate.fail(format!("in-process submit: {e}"));
                            break;
                        }
                    };
                    let t1 = Instant::now();
                    let sum = recorder.drain_spans(tracer, trace, Some(root));
                    tracer.push(trace::Span {
                        id: root,
                        parent: None,
                        trace,
                        name: "request-core".into(),
                        start_ns: tracer.ns(t0),
                        end_ns: tracer.ns(t1),
                    });
                    let spilled = match reply {
                        Ok(r) => spill.push(&Frame {
                            kind: REPLY,
                            request_id: i as u64 + 1,
                            payload: encode_reply(&r),
                        }),
                        Err(e) => Err(format!("in-process request: {e}")),
                    };
                    if let Err(e) = spilled {
                        gate.fail(e);
                    }
                    records.lock().expect("records poisoned").push(CoreRec {
                        item: idx,
                        total: (t1 - t0).as_secs_f64() * 1e3,
                        queue: sum.started.map(|s| (s - t0).as_secs_f64() * 1e3),
                        stages: sum.stages.clone(),
                    });
                    summaries.lock().expect("summaries poisoned").push(sum);
                }
                spills
                    .lock()
                    .expect("spill list poisoned")
                    .push((seq, spill));
            });
        }
    });
    let records = records.into_inner().expect("records poisoned");
    let summaries = summaries.into_inner().expect("summaries poisoned");
    let off = Tracer::new(false);
    for (seq, spill) in spills.into_inner().expect("spill list poisoned") {
        spill.drain(|frame| {
            let idx = seq[frame.request_id as usize - 1];
            match wire::answer_of(&frame) {
                Ok(answer) => {
                    validate(&catalog[idx], Some(&refs[idx]), &answer, gate, &off);
                }
                Err(e) => gate.fail(format!("in-process {}: {e}", catalog[idx].label)),
            }
        })?;
    }

    let mut connects = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let c = Client::connect(&Endpoint::Unix(daemon.path.clone())).map_err(|e| e.to_string())?;
        connects.push(t.elapsed().as_secs_f64() * 1e3);
        drop(c);
    }

    let spans = tracer.spans();
    let groups = trace::by_root(&spans);
    for (root, group) in &groups {
        result.text.push_str(&trace::render_table(
            &format!("  layers: serve-mix / {root}"),
            &trace::layer_table(group),
        ));
    }
    let empty = Vec::new();
    let check_spans = groups.get("reply-check").unwrap_or(&empty);
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let core_ms: Vec<f64> = records.iter().map(|r| r.total).collect();
    let queue_ms: Vec<f64> = records.iter().filter_map(|r| r.queue).collect();
    let exec_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| r.queue.map(|q| r.total - q))
        .collect();
    let wire_p50 = med(&traced.latency_ms);
    // Server overhead: the wire p50 minus the in-process p50 for the same
    // mix and concurrency, both timed here.
    let server_overhead = wire_p50 - med(&core_ms);

    // The client p50 of each catalog item, split into the p50s of its
    // parts. Items differ by orders of magnitude, so p50s only add up
    // within one item.
    const STAGES: [&str; 6] = ["parse", "typecheck", "plan", "prove", "persist", "report"];
    let mut table = format!(
        "  serve-mix client p50 by request kind, split into per-layer p50s (ms):\n    {:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "item", "client", "encode", "write", "decode", "server", "queue"
    );
    for st in STAGES {
        table.push_str(&format!(" {st:>9}"));
    }
    table.push_str(&format!(" {:>12}\n", "unattributed"));
    let mut unattributed = Vec::new();
    let mut labels: Vec<&str> = Vec::new();
    for item in catalog {
        if !labels.contains(&item.label.as_str()) {
            labels.push(&item.label);
        }
    }
    for label in labels {
        let of = |i: usize| catalog[i].label == label;
        let wire: Vec<&WireRec> = traced.records.iter().filter(|r| of(r.item)).collect();
        let core: Vec<&CoreRec> = records.iter().filter(|r| of(r.item)).collect();
        if wire.is_empty() || core.is_empty() {
            continue;
        }
        let p = |f: &dyn Fn(&WireRec) -> f64| med(&wire.iter().map(|r| f(r)).collect::<Vec<_>>());
        let client = p(&|r| r.latency);
        let (encode, write, decode) = (p(&|r| r.encode), p(&|r| r.write), p(&|r| r.decode));
        // The wire and the server's own work: what the client waited
        // beyond the same request in-process, past its own protocol calls.
        let core_p50 = med(&core.iter().map(|r| r.total).collect::<Vec<_>>());
        let parts = [
            encode,
            write,
            decode,
            client - core_p50 - encode - write - decode,
            med(&core.iter().filter_map(|r| r.queue).collect::<Vec<_>>()),
        ];
        let stages: Vec<f64> = STAGES
            .iter()
            .map(|st| {
                med(&core
                    .iter()
                    .map(|r| r.stages.get(st).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>())
            })
            .collect();
        let rest = client - parts.iter().sum::<f64>() - stages.iter().sum::<f64>();
        if label == "verify:car" {
            unattributed.push(rest);
        }
        table.push_str(&format!("    {label:<22} {client:>8.4}"));
        for v in parts.iter().chain(&stages) {
            table.push_str(&format!(" {v:>8.4}"));
        }
        table.push_str(&format!(" {rest:>12.4}\n"));
    }
    result.text.push_str(&table);

    let counters: Vec<_> = summaries.iter().filter_map(|d| d.counters).collect();
    let n = summaries.len().max(1) as f64;
    let csum = |f: &dyn Fn(&reflex_driver::Counters) -> u64| {
        counters.iter().map(|c| f(c) as f64).sum::<f64>()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (mut parse, mut typeck) = (Vec::new(), Vec::new());
    for item in catalog {
        for _ in 0..20 {
            let t = Instant::now();
            let p = reflex_parser::parse_program(&item.kernel.name, &item.kernel.source);
            parse.push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok(p) = p {
                let t = Instant::now();
                let _ = reflex_typeck::check(&p);
                typeck.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let wire_spans = groups.get("request").unwrap_or(&empty);
    let core_spans = groups.get("request-core").unwrap_or(&empty);
    result.set("parser.ms", med(&parse), "ms");
    result.set("parser.count", 1.0, "count");
    result.set("typeck.ms", med(&typeck), "ms");
    result.set("typeck.count", 1.0, "count");
    for stage in ["session", "parse", "typecheck", "plan", "prove", "persist"] {
        let name = format!("driver.{stage}");
        result.set(
            &format!("{name}_ms"),
            trace::p50_ms(core_spans, &name),
            "ms",
        );
    }
    let sessions = core_spans
        .iter()
        .filter(|s| s.name == "driver.session")
        .count();
    result.set("driver.count", sessions as f64 / n, "count");
    result.set(
        "search.paths_explored",
        csum(&|c| c.paths_explored) / n,
        "count",
    );
    result.set(
        "cache.hit_ratio",
        ratio(
            csum(&|c| c.cache_hits),
            csum(&|c| c.cache_hits + c.cache_misses),
        ),
        "ratio",
    );
    result.set("symbolic.queries", csum(&|c| c.solver_queries) / n, "count");
    result.set(
        "symbolic.memo_hit_ratio",
        ratio(csum(&|c| c.solver_memo_hits), csum(&|c| c.solver_queries)),
        "ratio",
    );
    let interned: Vec<f64> = counters.iter().map(|c| c.interned_terms as f64).collect();
    result.set("symbolic.interned_terms", med(&interned), "count");
    let obligations: f64 = summaries.iter().map(|d| d.obligations as f64).sum();
    result.set("search.obligations", obligations / n, "count");
    let eff: Vec<f64> = summaries
        .iter()
        .filter_map(|d| d.sched_efficiency())
        .collect();
    result.set("sched.efficiency", med(&eff), "ratio");
    result.set("core.queue_wait_ms", med(&queue_ms), "ms");
    result.set("core.exec_ms", med(&exec_ms), "ms");
    result.set("client.connect_ms", med(&connects), "ms");
    result.set(
        "protocol.encode_ms",
        trace::p50_ms(wire_spans, "protocol.encode_request"),
        "ms",
    );
    result.set(
        "protocol.decode_ms",
        trace::p50_ms(wire_spans, "protocol.decode_reply"),
        "ms",
    );
    result.set("protocol.req_bytes", med(&traced.req_bytes), "bytes");
    result.set("protocol.reply_bytes", med(&traced.reply_bytes), "bytes");
    result.set("server.overhead_ms", server_overhead, "ms");
    result.set(
        "codec.encode_ms",
        trace::p50_ms(check_spans, "codec.encode"),
        "ms",
    );
    result.set(
        "codec.decode_ms",
        trace::p50_ms(check_spans, "codec.decode"),
        "ms",
    );
    result.set("codec.cert_bytes", med(&traced.cert_bytes), "bytes");
    result.set("unattributed_ms", med(&unattributed), "ms");
    result.set(
        "trace.overhead_ms",
        wire_p50 - med(&untraced.latency_ms),
        "ms",
    );
    tracer.save(&PathBuf::from(format!(
        "perfbench-out/serve-mix-seed{}.spans.jsonl",
        args.seed
    )));
    Ok(())
}
