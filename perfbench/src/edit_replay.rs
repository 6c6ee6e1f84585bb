//! `edit-replay`: watch loops over an on-disk proof store.
//!
//! Synth kernels sized between `small` and `medium` are edited in turn,
//! each by its own seeded script: comment insertions (exact store hits),
//! property variable renames (one property re-proves), appended handlers
//! with their property (most properties re-prove and are written) and
//! reverts to earlier versions (all hits). Each edit is parsed and
//! type-checked by the benchmark and handed to the kernel's long-lived
//! `WatchSession`; time to verdict runs from the new source to the
//! session's report. Store loads and saves, the reuse ladder and the
//! checker's re-validation of loaded certificates do the work.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use reflex_driver::{Instrument, NullSink, SessionConfig, VerifySession, WatchSession};
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, check_certificate_with, Abstraction, ProofStore,
    ProverOptions, RealClock,
};

use crate::gate::{compare_verdicts, verdict_of, Gate};
use crate::gen::{self, Verdict};
use crate::layers::{DriverSummary, Recorder};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;

/// Kernels edited in turn. Synth kernels of one size still differ several
/// times over in cost, so a run spreads its edits over this many rather
/// than hinge on one kernel.
const FILES: usize = 12;

/// Edits replayed per second of `--seconds`. A run does a fixed amount
/// of work, so runs of one seed replay the same edits however fast the
/// machine is; the rate was set so that a run takes about `--seconds` on
/// a 2-core x86-64 container.
const EDITS_PER_SECOND: f64 = 8.0;

/// Edits needed for a p90 with ten samples beyond it.
const MIN_EDITS: usize = 100;

/// Set-ups timed per run, each in a fresh process; `setup_s` is their
/// median CPU time.
const SETUP_REPEATS: usize = 3;

/// Prover threads per session, as `rx watch` runs by default.
const JOBS: usize = 1;

fn config(store: &Path) -> SessionConfig {
    SessionConfig {
        options: options(),
        jobs: JOBS,
        store_dir: Some(store.to_string_lossy().into_owned()),
        ..SessionConfig::default()
    }
}

/// One watch loop per kernel over one shared env and fresh store.
struct Loop {
    watches: Vec<WatchSession>,
    store: ProofStore,
    dir: PathBuf,
}

/// Opens a store in a fresh directory and primes it with every base
/// kernel.
fn set_up(root: &Path, files: &[Script], gate: &Gate) -> Result<Loop, String> {
    let dir = root.join("store");
    let cfg = config(&dir);
    let session = VerifySession::new(cfg.clone()).map_err(|e| e.to_string())?;
    let env = std::sync::Arc::clone(session.env());
    let store = env.store().ok_or("store did not attach")?;
    let mut watches = Vec::new();
    for (base, _) in files {
        let session = VerifySession::with_env(std::sync::Arc::clone(&env));
        let mut watch =
            WatchSession::over(session, cfg.store_dir.clone(), None, RealClock::shared());
        let program =
            reflex_parser::parse_program(&base.name, &base.source).map_err(|e| e.to_string())?;
        let checked = reflex_typeck::check(&program).map_err(|e| e.to_string())?;
        let it = watch
            .verify(&checked, &NullSink)
            .map_err(|e| e.to_string())?;
        let got: Vec<_> = it
            .report
            .outcomes
            .iter()
            .map(|(n, o)| (n.clone(), verdict_of(o)))
            .collect();
        gate.check(compare_verdicts(&base.name, &base.expect, &got));
        watches.push(watch);
    }
    Ok(Loop {
        watches,
        store,
        dir,
    })
}

/// A base kernel and its edits.
type Script = (gen::Kernel, Vec<gen::Edit>);

/// What one replay measured.
#[derive(Default)]
struct Replay {
    latency_ms: Vec<f64>,
    /// Process CPU time across each edit, ms.
    cpu_ms: Vec<f64>,
    /// The kind of each edit in `latency_ms`.
    kinds: Vec<gen::EditKind>,
    properties: usize,
    loaded: usize,
    reused: usize,
    attempted: u64,
    failed: u64,
    counters: Vec<DriverSummary>,
    cert_bytes: Vec<f64>,
}

/// Replays `count` edits, the kernels taking turns, and gates each
/// verdict. With a probe store (traced runs), also times the layers each
/// verdict rests on.
fn replay(
    lp: &mut Loop,
    files: &[Script],
    count: usize,
    gate: &Gate,
    tracer: &Tracer,
    probe_store: Option<&ProofStore>,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut checked_fps = HashSet::new();
    for i in 0..count {
        // Kernels take turns: edit i goes to kernel i mod FILES.
        let k = i % files.len();
        let (base, edits) = &files[k];
        let edit = &edits[i / files.len()];
        out.attempted += 1;
        let trace = tracer.fresh_id();
        let root = tracer.fresh_id();
        let recorder = Recorder::default();
        let sink: &dyn Instrument = if tracer.on() { &recorder } else { &NullSink };
        let cpu0 = crate::cpu_s();
        let t0 = Instant::now();
        let program = tracer
            .time("parser.parse", trace, Some(root), || {
                reflex_parser::parse_program(&base.name, &edit.source)
            })
            .map_err(|e| format!("edit {i}: {e}"))?;
        let checked = tracer
            .time("typeck.check", trace, Some(root), || {
                reflex_typeck::check(&program)
            })
            .map_err(|e| format!("edit {i}: {e}"))?;
        let it = match lp.watches[k].verify(&checked, sink) {
            Ok(it) => it,
            Err(e) => {
                out.failed += 1;
                gate.fail(format!("edit {i} ({}): {e}", edit.kind.as_str()));
                continue;
            }
        };
        let t1 = Instant::now();
        out.cpu_ms.push((crate::cpu_s() - cpu0) * 1e3);
        out.latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.kinds.push(edit.kind);
        let report = &it.report;
        out.properties += report.outcomes.len();
        out.loaded += report.store_loaded;
        out.reused += report.reused.len() + report.partial.len();

        // Gate: every property of the edited kernel proves, and each
        // distinct program's certificates pass the checker once.
        let expect: Vec<(String, Verdict)> = program
            .properties
            .iter()
            .map(|p| (p.name.clone(), Verdict::Proved))
            .collect();
        let got: Vec<_> = report
            .outcomes
            .iter()
            .map(|(n, o)| (n.clone(), verdict_of(o)))
            .collect();
        let mut ok = gate.check(compare_verdicts(
            &format!("edit {i} ({})", edit.kind.as_str()),
            &expect,
            &got,
        ));
        if checked_fps.insert(checked.fingerprints().program) {
            let abs = Abstraction::build(&checked, &options());
            for (name, o) in &report.outcomes {
                if let Some(cert) = o.certificate() {
                    if let Err(e) = check_certificate_with(&abs, cert, &options()) {
                        gate.fail(format!("edit {i}: {name}: certificate rejected: {e}"));
                        ok = false;
                    }
                }
            }
        }
        if !ok {
            out.failed += 1;
        }
        if tracer.on() {
            out.counters
                .push(recorder.drain_spans(tracer, trace, Some(root)));
            tracer.push(trace::Span {
                id: root,
                parent: None,
                trace,
                name: "edit".into(),
                start_ns: tracer.ns(t0),
                end_ns: tracer.ns(t1),
            });
            if let Some(probe) = probe_store {
                out.cert_bytes
                    .extend(probe_layers(tracer, &lp.store, probe, &checked, report));
            }
        }
    }
    Ok(out)
}

/// The prover options every session here runs under.
fn options() -> ProverOptions {
    ProverOptions {
        jobs: JOBS,
        ..ProverOptions::default()
    }
}

/// Times the store, codec, abstraction and checker calls one edit's
/// verdict rests on, from outside the session: load each certificate,
/// round-trip it through the codec, re-check it, and write it to a
/// second store. Returns the encoded certificate sizes.
fn probe_layers(
    tracer: &Tracer,
    store: &ProofStore,
    probe: &ProofStore,
    checked: &reflex_typeck::CheckedProgram,
    report: &reflex_driver::SessionReport,
) -> Vec<f64> {
    let options = options();
    let trace = tracer.fresh_id();
    let root_id = tracer.fresh_id();
    let root = Some(root_id);
    let t0 = Instant::now();
    let abs = tracer.time("abstraction.build", trace, root, || {
        Abstraction::build(checked, &options)
    });
    let fps = checked.fingerprints();
    let ofp = options.fingerprint();
    let mut sizes = Vec::new();
    for (name, _) in &report.outcomes {
        let Some(pfp) = fps.property(name) else {
            continue;
        };
        let Some(cert) = tracer.time("store.load", trace, root, || {
            store.load(fps.program, pfp, ofp)
        }) else {
            continue;
        };
        let bytes = tracer.time("codec.encode", trace, root, || certificate_to_bytes(&cert));
        let decoded = tracer.time("codec.decode", trace, root, || {
            certificate_from_bytes(&bytes)
        });
        sizes.push(bytes.len() as f64);
        let _ = tracer.time("checker.check", trace, root, || {
            check_certificate_with(&abs, &cert, &options)
        });
        if let Some(cert) = decoded {
            let _ = tracer.time("store.save", trace, root, || {
                probe.save(fps.program, pfp, ofp, &cert)
            });
        }
    }
    let _ = tracer.time("store.flush", trace, root, || probe.flush());
    tracer.push(trace::Span {
        id: root_id,
        parent: None,
        trace,
        name: "edit-probe".into(),
        start_ns: tracer.ns(t0),
        end_ns: tracer.ns(Instant::now()),
    });
    sizes
}

/// Edits one run replays: a fixed number per second of `--seconds`.
/// Traced runs replay the script twice (untraced, then traced), so each
/// gets half; the p90 still needs its hundred.
fn edit_count(seconds: f64, traced: bool) -> usize {
    let share = if traced { 0.5 } else { 1.0 };
    ((seconds * share * EDITS_PER_SECOND) as usize).max(MIN_EDITS)
}

/// One timed set-up (store open plus priming verification of the base
/// kernels) in this process, which is fresh: the `setup` child.
pub fn setup_child() -> Result<RunResult, String> {
    let scratch = crate::scratch_dir("edit-setup");
    let files: Vec<Script> = (0..FILES)
        .map(|k| (gen::edit_base(k), Vec::new()))
        .collect();
    let gate = Gate::default();
    let (t, cpu) = (Instant::now(), crate::cpu_s());
    let lp = set_up(&scratch, &files, &gate)?;
    let (secs, wall) = (crate::cpu_s() - cpu, t.elapsed().as_secs_f64());
    drop(lp);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut result = RunResult::default();
    result.set("setup_s", secs, "s");
    result.set("setup.wall_s", wall, "s");
    result.gate = gate.failures();
    Ok(result)
}

/// The traced replay, in a fresh process of its own, primed like the
/// untraced one: the `edit-traced` child. Reports the per-layer metrics
/// and its own edit p50 (`edit.traced_p50_ms`).
pub fn traced_child(seed: u64, count: usize) -> Result<RunResult, String> {
    let scratch = crate::scratch_dir("edit-traced");
    let files = gen::edit_scripts(seed, FILES, count.div_ceil(FILES));
    let gate = Gate::default();
    let mut result = RunResult::default();
    let mut lp = set_up(&scratch, &files, &gate)?;
    let tracer = Tracer::new(true);
    let probe = ProofStore::open(scratch.join("probe-store")).map_err(|e| e.to_string())?;
    let traced = replay(&mut lp, &files, count, &gate, &tracer, Some(&probe))?;
    result.attempted = traced.attempted;
    result.failed = traced.failed;
    let mut opens = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let s = ProofStore::open(&lp.dir).map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
        drop(s);
    }
    layer_metrics(&mut result, &tracer, &traced, &opens, &lp.store);
    result.set(
        "edit.traced_p50_ms",
        stats::median(&traced.latency_ms).unwrap_or(0.0),
        "ms",
    );
    tracer.save(&PathBuf::from(format!(
        "perfbench-out/edit-replay-seed{seed}.spans.jsonl"
    )));
    result.gate = gate.failures();
    drop(lp);
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(result)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let count = edit_count(args.seconds, args.trace);
    let files = gen::edit_scripts(args.seed, FILES, count.div_ceil(FILES));
    let gate = Gate::default();
    let mut result = RunResult::default();

    // ---- Set-up: store open plus priming verification, each timed in a
    // fresh process, so each primes on an empty interner and memo as a
    // new `rx watch` does.
    let (setups, setup_wall) = crate::child::timed_setups("edit-replay", SETUP_REPEATS, &gate)?;
    let scratch = crate::scratch_dir("edit-replay");
    let mut lp = set_up(&scratch, &files, &gate)?;

    let untraced = Tracer::new(false);
    let plain = replay(&mut lp, &files, count, &gate, &untraced, None)?;
    result.attempted += plain.attempted;
    result.failed += plain.failed;

    result.quartiles_line("edit CPU", &plain.cpu_ms);
    result.quartiles_line("edit latency", &plain.latency_ms);
    let p50 = stats::median(&plain.latency_ms).unwrap_or(0.0);
    let cpu_s: f64 = plain.cpu_ms.iter().sum::<f64>() / 1e3;
    result.set("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    result.set(
        "setup.wall_s",
        stats::median(&setup_wall).unwrap_or(0.0),
        "s",
    );
    result.set("ops_per_cpu_s", plain.cpu_ms.len() as f64 / cpu_s, "1/s");
    result.set("props_per_cpu_s", plain.properties as f64 / cpu_s, "1/s");
    result.set(
        "cpu_p50_ms",
        stats::median(&plain.cpu_ms).unwrap_or(0.0),
        "ms",
    );
    result.set("edit.p50_ms", p50, "ms");
    if let Some(p90) = stats::tail(&plain.latency_ms, 90.0) {
        result.set("edit.p90_ms", p90, "ms");
    }
    for kind in gen::EditKind::ALL {
        let of_kind: Vec<f64> = plain
            .latency_ms
            .iter()
            .zip(&plain.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(l, _)| *l)
            .collect();
        result.set(
            &format!("edit.{}_p50_ms", kind.as_str()),
            stats::median(&of_kind).unwrap_or(0.0),
            "ms",
        );
    }
    result.set("peak_rss_mb", crate::peak_rss_kb() as f64 / 1024.0, "MB");
    result.text.push_str(&format!(
        "  edits {}  properties {}  store hits {}  reused {}\n",
        plain.latency_ms.len(),
        plain.properties,
        plain.loaded,
        plain.reused
    ));
    drop(lp);
    let _ = std::fs::remove_dir_all(&scratch);

    if args.trace {
        // The same script from the start, traced, in a fresh process
        // primed the same way, so both replays start equally warm.
        let traced = crate::child::run_result(&[
            "edit-traced".into(),
            args.seed.to_string(),
            count.to_string(),
        ])?;
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        for g in &traced.gate {
            gate.fail(format!("traced replay: {g}"));
        }
        for (name, (value, unit)) in &traced.metrics {
            result.set(name, *value, unit);
        }
        result.text.push_str(&traced.text);
        result.set(
            "trace.overhead_ms",
            traced.get("edit.traced_p50_ms").unwrap_or(0.0) - p50,
            "ms",
        );
    }
    result.set(
        "error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
    );
    result.gate = gate.failures();
    Ok(result)
}

fn layer_metrics(
    result: &mut RunResult,
    tracer: &Tracer,
    traced: &Replay,
    opens_ms: &[f64],
    store: &ProofStore,
) {
    let spans = tracer.spans();
    let groups = trace::by_root(&spans);
    for (root, group) in &groups {
        result.text.push_str(&trace::render_table(
            &format!("  layers: edit-replay / {root}"),
            &trace::layer_table(group),
        ));
    }
    let empty = Vec::new();
    let edit = groups.get("edit").unwrap_or(&empty);
    let probe = groups.get("edit-probe").unwrap_or(&empty);
    let n = traced.latency_ms.len().max(1) as f64;
    let count = |g: &[trace::Span], name: &str| g.iter().filter(|s| s.name == name).count() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let counters: Vec<_> = traced.counters.iter().filter_map(|d| d.counters).collect();
    let csum = |f: &dyn Fn(&reflex_driver::Counters) -> u64| {
        counters.iter().map(|c| f(c) as f64).sum::<f64>()
    };

    result.set("parser.ms", trace::p50_ms(edit, "parser.parse"), "ms");
    result.set("parser.count", count(edit, "parser.parse") / n, "count");
    result.set("typeck.ms", trace::p50_ms(edit, "typeck.check"), "ms");
    result.set("typeck.count", count(edit, "typeck.check") / n, "count");
    for stage in ["session", "parse", "typecheck", "plan", "prove", "persist"] {
        result.set(
            &format!("driver.{stage}_ms"),
            trace::p50_ms(edit, &format!("driver.{stage}")),
            "ms",
        );
    }
    result.set("driver.count", count(edit, "driver.session") / n, "count");
    result.set(
        "abstraction.ms",
        trace::p50_ms(probe, "abstraction.build"),
        "ms",
    );
    result.set("checker.ms", trace::p50_ms(probe, "checker.check"), "ms");
    result.set("checker.count", count(probe, "checker.check") / n, "count");
    result.set(
        "codec.encode_ms",
        trace::p50_ms(probe, "codec.encode"),
        "ms",
    );
    result.set(
        "codec.decode_ms",
        trace::p50_ms(probe, "codec.decode"),
        "ms",
    );
    result.set(
        "codec.cert_bytes",
        stats::median(&traced.cert_bytes).unwrap_or(0.0),
        "bytes",
    );
    result.set(
        "store.open_ms",
        stats::median(opens_ms).unwrap_or(0.0),
        "ms",
    );
    result.set("store.load_ms", trace::p50_ms(probe, "store.load"), "ms");
    result.set("store.save_ms", trace::p50_ms(probe, "store.save"), "ms");
    result.set("store.flush_ms", trace::p50_ms(probe, "store.flush"), "ms");
    result.set(
        "store.hit_ratio",
        ratio(traced.loaded as f64, traced.properties as f64),
        "ratio",
    );
    result.set(
        "store.reuse_ratio",
        ratio(traced.reused as f64, traced.properties as f64),
        "ratio",
    );
    result.set("store.io_errors", store.io_errors() as f64, "count");
    result.set(
        "search.obligations",
        traced
            .counters
            .iter()
            .map(|d| d.obligations as f64)
            .sum::<f64>()
            / n,
        "count",
    );
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
    result.set(
        "symbolic.interned_terms",
        stats::median(&interned).unwrap_or(0.0),
        "count",
    );
    let eff: Vec<f64> = traced
        .counters
        .iter()
        .filter_map(DriverSummary::sched_efficiency)
        .collect();
    result.set(
        "sched.efficiency",
        stats::median(&eff).unwrap_or(0.0),
        "ratio",
    );
    result.set(
        "unattributed_ms",
        stats::median(&trace::root_self_ms(edit)).unwrap_or(0.0),
        "ms",
    );
}
