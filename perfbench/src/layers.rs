//! Timed calls into the program's layers, shared by the workloads.
//!
//! * [`Recorder`] is an `Instrument` sink that timestamps the driver's own
//!   stage events, turned into `driver.*` spans afterwards;
//! * [`layered_prove`] runs the prove pipeline one public call at a time
//!   (parse, typecheck, abstraction, then search, check and the
//!   certificate codec per property on the verify crate's scheduler), so
//!   each layer gets its own span.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reflex_driver::{Counters, Event, Instrument, Stage};
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, check_certificate_with, prove_with_cache,
    Abstraction, ProofCache, ProverOptions,
};

use crate::gate::verdict_of;
use crate::gen::Verdict;
use crate::trace::{Span, Tracer};

/// Timestamps every driver event it receives.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<(Instant, Event)>>,
}

impl Instrument for Recorder {
    fn event(&self, event: &Event) {
        let now = Instant::now();
        if let Ok(mut v) = self.events.lock() {
            v.push((now, event.clone()));
        }
    }
}

/// What one session's events say, beyond its spans.
#[derive(Debug, Default, Clone)]
pub struct DriverSummary {
    /// The session's first event: its parse stage, which the driver
    /// enters before `SessionStart` — the service core's pickup time.
    pub started: Option<Instant>,
    /// Stage wall times by stage name, ms.
    pub stages: BTreeMap<&'static str, f64>,
    /// Σ per-property busy time, ms.
    pub property_busy_ms: f64,
    /// Discharged obligations over every property.
    pub obligations: u64,
    /// Resolved job count.
    pub jobs: usize,
    /// The counter block, when the session reached it.
    pub counters: Option<Counters>,
}

impl DriverSummary {
    /// `Σ property busy / (prove wall × jobs)`: how well the property
    /// fan-out kept the workers busy.
    pub fn sched_efficiency(&self) -> Option<f64> {
        let prove = *self.stages.get("prove")?;
        (prove > 0.0 && self.jobs > 0).then(|| self.property_busy_ms / (prove * self.jobs as f64))
    }
}

impl Recorder {
    /// Turns the recorded events into `driver.*` spans under `parent`
    /// and drains the recorder.
    pub fn drain_spans(&self, tracer: &Tracer, trace: u64, parent: Option<u64>) -> DriverSummary {
        let events = std::mem::take(&mut *self.events.lock().expect("recorder poisoned"));
        let mut sum = DriverSummary::default();
        let mut session: Option<(u64, Instant)> = None;
        let mut open: BTreeMap<&'static str, (u64, Instant)> = BTreeMap::new();
        let mut prove_span: Option<u64> = None;
        let mut pending_props: Vec<(Instant, f64)> = Vec::new();
        sum.started = events.first().map(|(at, _)| *at);
        for (at, event) in events {
            match event {
                Event::SessionStart { jobs, .. } => {
                    sum.jobs = jobs;
                    session = Some((tracer.fresh_id(), at));
                }
                Event::StageStart { stage } => {
                    let id = tracer.fresh_id();
                    if stage == Stage::Prove {
                        prove_span = Some(id);
                    }
                    open.insert(stage.as_str(), (id, at));
                }
                Event::StageFinish { stage, wall_ms } => {
                    *sum.stages.entry(stage.as_str()).or_default() += wall_ms;
                    if let Some((id, start)) = open.remove(stage.as_str()) {
                        let within = session.map(|(sid, _)| sid).or(parent);
                        let within = match stage {
                            // Parse and typecheck run before the session
                            // event; they hang off the caller's span.
                            Stage::Load | Stage::Parse | Stage::Typecheck => parent,
                            _ => within,
                        };
                        tracer.push(span(
                            tracer,
                            id,
                            within,
                            trace,
                            stage_name(stage),
                            start,
                            at,
                        ));
                    }
                }
                Event::Property {
                    obligations,
                    wall_ms,
                    ..
                } => {
                    sum.property_busy_ms += wall_ms;
                    sum.obligations += obligations as u64;
                    pending_props.push((at, wall_ms));
                }
                Event::Counters(c) => sum.counters = Some(c),
                Event::SessionFinish { .. } => {
                    if let Some((id, start)) = session {
                        tracer.push(span(tracer, id, parent, trace, "driver.session", start, at));
                    }
                }
                _ => {}
            }
        }
        for (end, wall_ms) in pending_props {
            let start = end
                .checked_sub(Duration::from_secs_f64(wall_ms / 1e3))
                .unwrap_or(end);
            tracer.record("driver.property", trace, prove_span.or(parent), start, end);
        }
        sum
    }
}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Load => "driver.load",
        Stage::Parse => "driver.parse",
        Stage::Typecheck => "driver.typecheck",
        Stage::Plan => "driver.plan",
        Stage::Prove => "driver.prove",
        Stage::Persist => "driver.persist",
        Stage::Report => "driver.report",
    }
}

fn span(
    tracer: &Tracer,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &str,
    start: Instant,
    end: Instant,
) -> Span {
    Span {
        id,
        parent,
        trace,
        name: name.to_owned(),
        start_ns: tracer.ns(start),
        end_ns: tracer.ns(end),
    }
}

/// What [`layered_prove`] found.
#[derive(Debug, Default)]
pub struct Layered {
    /// `(property, verdict)` in declaration order.
    pub verdicts: Vec<(String, Option<Verdict>)>,
    /// Certificates the checker or the codec round trip rejected.
    pub rejected: Vec<String>,
    /// Behavioral-abstraction paths.
    pub paths: usize,
    /// Cross-property cache hits.
    pub cache_hits: u64,
    /// Cross-property cache lookups.
    pub cache_lookups: u64,
    /// Encoded certificate sizes, bytes.
    pub cert_bytes: Vec<usize>,
}

/// Proves every property of `src` one public call at a time, recording a
/// span per layer call under `root`.
pub fn layered_prove(
    tracer: &Tracer,
    trace: u64,
    root: Option<u64>,
    name: &str,
    src: &str,
    jobs: usize,
) -> Result<Layered, String> {
    let options = ProverOptions {
        jobs,
        ..ProverOptions::default()
    };
    let program = tracer
        .time("parser.parse", trace, root, || {
            reflex_parser::parse_program(name, src)
        })
        .map_err(|e| e.to_string())?;
    let checked = tracer
        .time("typeck.check", trace, root, || {
            reflex_typeck::check(&program)
        })
        .map_err(|e| e.to_string())?;
    let abs = tracer.time("abstraction.build", trace, root, || {
        Abstraction::build(&checked, &options)
    });
    let cache = ProofCache::new();
    let names: Vec<String> = checked
        .program()
        .properties
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let sched_id = tracer.fresh_id();
    let sched_start = Instant::now();
    let parent = Some(sched_id);
    let per_prop = reflex_verify::sched::run_indexed(jobs, names.len(), |i| {
        let prop = &names[i];
        let outcome = tracer
            .time("search.prove", trace, parent, || {
                prove_with_cache(&abs, prop, &options, Some(&cache))
            })
            .map_err(|e| e.to_string())?;
        let mut rejected = None;
        let mut bytes = 0;
        if let Some(cert) = outcome.certificate() {
            if let Err(e) = tracer.time("checker.check", trace, parent, || {
                check_certificate_with(&abs, cert, &options)
            }) {
                rejected = Some(format!("{prop}: {e}"));
            }
            let enc = tracer.time("codec.encode", trace, parent, || certificate_to_bytes(cert));
            let dec = tracer.time("codec.decode", trace, parent, || {
                certificate_from_bytes(&enc)
            });
            if dec.as_ref().map(certificate_to_bytes) != Some(enc.clone()) {
                rejected = Some(format!("{prop}: certificate codec round trip differs"));
            }
            bytes = enc.len();
        }
        Ok::<_, String>((verdict_of(&outcome), rejected, bytes))
    });
    tracer.push(span(
        tracer,
        sched_id,
        root,
        trace,
        "sched.run",
        sched_start,
        Instant::now(),
    ));
    let mut out = Layered {
        paths: abs.path_count(),
        ..Layered::default()
    };
    for (name, r) in names.into_iter().zip(per_prop) {
        let (verdict, rejected, bytes) = r?;
        out.verdicts.push((name, verdict));
        out.rejected.extend(rejected);
        if bytes > 0 {
            out.cert_bytes.push(bytes);
        }
    }
    let c = cache.stats();
    out.cache_hits = c.invariant_hits + c.lemma_hits;
    out.cache_lookups = out.cache_hits + c.invariant_misses + c.lemma_misses;
    Ok(out)
}
