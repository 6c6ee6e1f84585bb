//! Child processes. Each starts with an empty process-global interner and
//! entailment memo, as a fresh `rx verify`, `rx watch` or `rxd` does.
//!
//! ```text
//! reflex-perfbench child check FILE...
//! reflex-perfbench child plain|sink|layers FILE NAME JOBS
//! reflex-perfbench child setup serve-mix|edit-replay
//! reflex-perfbench child edit-traced SEED COUNT
//! ```
//!
//! `setup` times one set-up of a workload and `edit-traced` runs the
//! traced edit replay; both answer with [`RunResult::to_lines`].
//!
//! `check` answers `CPU s`, the CPU seconds the process used.
//!
//! The prove-cold modes prove one kernel per process. They answer on
//! stdout, one fact per line: `VERDICT s` as soon as the verdicts are
//! known, with the CPU seconds used so far (the parent stamps
//! time-to-verdict on it), then
//! `PROP name verdict`, `REJECT name message` for any certificate the
//! checker refuses, `SPAN id parent name start_ns end_ns`, `COUNT key
//! value`, and finally `RSS kib`.

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use reflex_driver::{Instrument, NullSink, SessionConfig, VerifySession};
use reflex_verify::{check_certificate_with, Abstraction, ProverOptions};

use crate::gate::{verdict_of, Gate};
use crate::gen::Verdict;
use crate::layers::{layered_prove, Recorder};
use crate::report::RunResult;
use crate::trace::Tracer;

pub fn main(argv: &[String]) -> ExitCode {
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reflex-perfbench child: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs `reflex-perfbench child ARGS...` to completion and reads back its
/// result lines. A child that exits nonzero is an error.
pub fn run_result(args: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    Ok(RunResult::from_lines(&String::from_utf8_lossy(&out.stdout)))
}

/// Times `repeats` set-ups of `workload`, each in a fresh process, and
/// returns their CPU and wall seconds. Each child times its own set-up, so process
/// start is not part of it; its gate failures join `gate`.
pub fn timed_setups(
    workload: &str,
    repeats: usize,
    gate: &Gate,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut cpu, mut wall) = (Vec::with_capacity(repeats), Vec::with_capacity(repeats));
    for _ in 0..repeats {
        let r = run_result(&["setup".into(), workload.into()])?;
        for g in &r.gate {
            gate.fail(format!("set-up: {g}"));
        }
        cpu.push(r.get("setup_s").ok_or("set-up child reported no setup_s")?);
        wall.push(
            r.get("setup.wall_s")
                .ok_or("set-up child reported no wall time")?,
        );
    }
    Ok((cpu, wall))
}

/// The `setup` and `edit-traced` modes: a workload function's result,
/// printed as lines.
fn run_workload_child(argv: &[String]) -> Result<(), String> {
    let num = |i: usize| -> Result<u64, String> {
        argv.get(i)
            .ok_or("missing argument")?
            .parse()
            .map_err(|e| format!("{e}"))
    };
    let result = match (argv[0].as_str(), argv.get(1).map(String::as_str)) {
        ("setup", Some("serve-mix")) => crate::serve_mix::setup_child()?,
        ("setup", Some("edit-replay")) => crate::edit_replay::setup_child()?,
        ("edit-traced", _) => crate::edit_replay::traced_child(num(1)?, num(2)? as usize)?,
        _ => return Err(format!("unknown child mode {argv:?}")),
    };
    let out = std::io::stdout();
    let mut out = out.lock();
    out.write_all(result.to_lines().as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

fn verdict_word(v: Option<Verdict>) -> &'static str {
    v.map_or("undecided", Verdict::as_str)
}

fn run(argv: &[String]) -> Result<(), String> {
    let out = std::io::stdout();
    let mut out = out.lock();
    let mode = argv.first().ok_or("child needs a mode")?.as_str();
    if mode == "setup" || mode == "edit-traced" {
        drop(out);
        return run_workload_child(argv);
    }
    if mode == "check" {
        for file in &argv[1..] {
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let program =
                reflex_parser::parse_program("kernel", &src).map_err(|e| e.to_string())?;
            reflex_typeck::check(&program).map_err(|e| e.to_string())?;
        }
        writeln!(out, "CPU {}", crate::cpu_s()).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let [_, file, name, jobs] = argv else {
        return Err("expected MODE FILE NAME JOBS".into());
    };
    let jobs: usize = jobs.parse().map_err(|e| format!("jobs: {e}"))?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let tracer = Tracer::new(mode != "plain");
    let trace = 1;
    let root = tracer.fresh_id();
    let start = Instant::now();
    let emit = |out: &mut std::io::StdoutLock, line: String| {
        writeln!(out, "{line}").map_err(|e| e.to_string())
    };
    if mode == "layers" {
        let l = layered_prove(&tracer, trace, Some(root), name, &src, jobs)?;
        let end = Instant::now();
        emit(&mut out, format!("VERDICT {}", crate::cpu_s()))?;
        out.flush().map_err(|e| e.to_string())?;
        tracer.push(crate::trace::Span {
            id: root,
            parent: None,
            trace,
            name: "kernel".into(),
            start_ns: tracer.ns(start),
            end_ns: tracer.ns(end),
        });
        for (p, v) in &l.verdicts {
            emit(&mut out, format!("PROP {p} {}", verdict_word(*v)))?;
        }
        for r in &l.rejected {
            emit(&mut out, format!("REJECT {r}"))?;
        }
        emit(&mut out, format!("COUNT abstraction.paths {}", l.paths))?;
        emit(&mut out, format!("COUNT cache.hits {}", l.cache_hits))?;
        emit(&mut out, format!("COUNT cache.lookups {}", l.cache_lookups))?;
        for b in &l.cert_bytes {
            emit(&mut out, format!("COUNT codec.cert_bytes {b}"))?;
        }
    } else {
        let config = SessionConfig {
            options: ProverOptions {
                jobs,
                ..ProverOptions::default()
            },
            jobs,
            ..SessionConfig::default()
        };
        let recorder = Recorder::default();
        let sink: &dyn Instrument = if mode == "sink" { &recorder } else { &NullSink };
        let session = VerifySession::new(config.clone()).map_err(|e| e.to_string())?;
        let report = session
            .verify_source(name, &src, sink)
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        emit(&mut out, format!("VERDICT {}", crate::cpu_s()))?;
        out.flush().map_err(|e| e.to_string())?;
        for (p, o) in &report.outcomes {
            emit(
                &mut out,
                format!("PROP {p} {}", verdict_word(verdict_of(o))),
            )?;
        }
        // The gate: every certificate must pass the independent checker
        // (against one abstraction, as `check_certificate` would build).
        let program = reflex_parser::parse_program(name, &src).map_err(|e| e.to_string())?;
        let checked = reflex_typeck::check(&program).map_err(|e| e.to_string())?;
        let abs = Abstraction::build(&checked, &config.options);
        for (p, o) in &report.outcomes {
            if let Some(cert) = o.certificate() {
                if let Err(e) = check_certificate_with(&abs, cert, &config.options) {
                    emit(&mut out, format!("REJECT {p}: {e}"))?;
                }
            }
        }
        if mode == "sink" {
            let sum = recorder.drain_spans(&tracer, trace, Some(root));
            tracer.push(crate::trace::Span {
                id: root,
                parent: None,
                trace,
                name: "kernel-driver".into(),
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
            });
            if let Some(e) = sum.sched_efficiency() {
                emit(&mut out, format!("COUNT sched.efficiency {e}"))?;
            }
            emit(
                &mut out,
                format!("COUNT search.obligations {}", sum.obligations),
            )?;
            if let Some(c) = sum.counters {
                emit(
                    &mut out,
                    format!("COUNT search.paths_explored {}", c.paths_explored),
                )?;
                emit(&mut out, format!("COUNT cache.hits {}", c.cache_hits))?;
                emit(
                    &mut out,
                    format!("COUNT cache.lookups {}", c.cache_hits + c.cache_misses),
                )?;
                emit(
                    &mut out,
                    format!("COUNT symbolic.queries {}", c.solver_queries),
                )?;
                emit(
                    &mut out,
                    format!("COUNT symbolic.memo_hits {}", c.solver_memo_hits),
                )?;
                emit(
                    &mut out,
                    format!("COUNT symbolic.interned_terms {}", c.interned_terms),
                )?;
            }
        }
    }
    for s in tracer.spans() {
        emit(
            &mut out,
            format!(
                "SPAN {} {} {} {} {}",
                s.id,
                s.parent.unwrap_or(0),
                s.name,
                s.start_ns,
                s.end_ns
            ),
        )?;
    }
    emit(&mut out, format!("RSS {}", crate::peak_rss_kb()))?;
    out.flush().map_err(|e| e.to_string())
}
