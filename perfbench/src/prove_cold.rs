//! `prove-cold`: one-shot verification, one child process per kernel.
//!
//! Inputs are the seven paper kernels (41 properties, all proved in
//! Figure 6) and a fixed corpus of `small` synth kernels (see
//! `gen::prove_cold_inputs`). A run proves the whole corpus in rounds,
//! each in an order drawn from the workload seed, and reports each
//! kernel's median time to verdict over the rounds: a stall on a shared
//! machine slows one round of a kernel, not its median. Each kernel runs
//! in its own process with `jobs = nproc` and no store, so the interner
//! and memo start empty.
//! Abstraction, search, checker, symbolic and sched do nearly all the
//! work; the service and store layers sit idle.
//!
//! Time to verdict is stamped by this process when the child's `VERDICT`
//! line arrives, so it includes process start, as a user of `rx verify`
//! sees it. The checker re-validation the gate adds runs after that line.

use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::gate::{compare_verdicts, Gate};
use crate::gen::{self, Kernel, Verdict};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::Args;

/// Synth kernels in the corpus. Synth kernels of one size differ up to
/// tenfold in cost; this many put the median one between several of
/// similar cost.
const SYNTH_KERNELS: usize = 24;

/// Rounds over the corpus per second of `--seconds`. A run does a fixed
/// amount of work, so runs of one seed prove the same kernels in the same
/// order however fast the machine is; the rate was set so that a run
/// takes about `--seconds` on a 2-core x86-64 container.
const ROUNDS_PER_SECOND: f64 = 0.5;

/// Set-ups timed per run; `setup_s` is their median CPU time. A set-up
/// here is short (a few hundredths of a second) and mostly file writes
/// and one process start, so it takes more of them to steady the median.
const SETUP_REPEATS: usize = 15;

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildOut {
    verdict_ms: f64,
    /// CPU the child used up to its verdict (`check`: in all), ms.
    cpu_ms: f64,
    props: Vec<(String, Option<Verdict>)>,
    rejects: Vec<String>,
    spans: Vec<Span>,
    counts: Vec<(String, f64)>,
    rss_kb: u64,
}

fn run_child(
    exe: &Path,
    args: &[&str],
    tracer: &Tracer,
    root_prefix: &str,
) -> Result<ChildOut, String> {
    let spawn = Instant::now();
    let mut child = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut out = ChildOut::default();
    let offset = tracer.ns(spawn);
    let trace = tracer.fresh_id();
    let mut ids: BTreeMap<u64, u64> = BTreeMap::new();
    let mut raw_spans = Vec::new();
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child stdout: {e}"))?;
        let mut w = line.split_whitespace();
        match w.next() {
            Some(word @ ("VERDICT" | "CPU")) => {
                if word == "VERDICT" {
                    out.verdict_ms = spawn.elapsed().as_secs_f64() * 1e3;
                }
                out.cpu_ms = w.next().and_then(|v| v.parse().ok()).unwrap_or(0.0) * 1e3;
            }
            Some("PROP") => {
                let name = w.next().unwrap_or_default().to_owned();
                let v = match w.next() {
                    Some("proved") => Some(Verdict::Proved),
                    Some("failed") => Some(Verdict::Failed),
                    _ => None,
                };
                out.props.push((name, v));
            }
            Some("REJECT") => out.rejects.push(line["REJECT ".len()..].to_owned()),
            Some("COUNT") => {
                let key = w.next().unwrap_or_default().to_owned();
                let v: f64 = w.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
                out.counts.push((key, v));
            }
            Some("SPAN") => {
                let f: Vec<&str> = w.collect();
                if let [id, parent, name, start, end] = f[..] {
                    let num = |s: &str| s.parse::<u64>().unwrap_or(0);
                    raw_spans.push((num(id), num(parent), name.to_owned(), num(start), num(end)));
                }
            }
            Some("RSS") => out.rss_kb = w.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait child: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    // Re-base the child's spans onto this process's tracer.
    for (id, ..) in &raw_spans {
        ids.insert(*id, tracer.fresh_id());
    }
    for (id, parent, name, start, end) in raw_spans {
        let parent = ids.get(&parent).copied();
        let name = if parent.is_none() {
            format!("{root_prefix}-{name}")
        } else {
            name
        };
        out.spans.push(Span {
            id: ids[&id],
            parent,
            trace,
            name,
            start_ns: offset + start,
            end_ns: offset + end,
        });
    }
    Ok(out)
}

fn write_inputs(dir: &Path, kernels: &[Kernel]) -> Result<Vec<PathBuf>, String> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let path = dir.join(format!("k{i}.rx"));
            std::fs::write(&path, &k.source).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let jobs = crate::nproc();
    let jobs_s = jobs.to_string();
    let dir = crate::scratch_dir("prove-cold");
    // Traced runs prove each kernel three times (plain, with the stage
    // events, layer by layer), so they take a third of the rounds.
    let share = if args.trace { 1.0 / 3.0 } else { 1.0 };
    let rounds = ((args.seconds * share * ROUNDS_PER_SECOND).round() as usize).max(1);
    let kernels = gen::prove_cold_inputs(SYNTH_KERNELS);
    let paper = gen::paper_kernels().len();
    let tracer = Tracer::new(args.trace);
    let gate = Gate::default();
    let mut result = RunResult::default();

    // ---- Set-up: write the inputs, then parse and type-check them all
    // in one child (which also pages the binary in).
    let mut setups = Vec::new();
    let mut files = Vec::new();
    let mut setup_wall = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (t, cpu) = (Instant::now(), crate::cpu_s());
        files = write_inputs(&dir, &kernels)?;
        let mut check_args = vec!["check"];
        check_args.extend(
            files
                .iter()
                .map(|f| f.to_str().expect("scratch paths are UTF-8")),
        );
        let checked = run_child(&exe, &check_args, &Tracer::new(false), "setup")?;
        setups.push(crate::cpu_s() - cpu + checked.cpu_ms / 1e3);
        setup_wall.push(t.elapsed().as_secs_f64());
    }

    // ---- Measure: every kernel once per round, in a seeded order.
    // Measured time is time to verdict; the gate's checker pass in each
    // child runs outside it.
    let mut verdict_ms: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut cpu_ms: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut proved: Vec<usize> = vec![0; kernels.len()];
    let mut overhead_ms: Vec<f64> = Vec::new();
    let mut counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut synth_traced = 0usize;
    let mut peak_kb = crate::peak_rss_kb();
    for round in 0..rounds {
        for idx in gen::round_order(args.seed, round, kernels.len()) {
            let k = &kernels[idx];
            let synth = idx >= paper;
            let prefix = if synth { "synth" } else { "paper" };
            let file = files[idx].to_str().expect("scratch paths are UTF-8");
            result.attempted += 1;
            let plain = match run_child(&exe, &["plain", file, &k.name, &jobs_s], &tracer, prefix) {
                Ok(o) => o,
                Err(e) => {
                    result.failed += 1;
                    gate.fail(format!("{}: {e}", k.name));
                    continue;
                }
            };
            let mut ok = gate.check(compare_verdicts(&k.name, &k.expect, &plain.props));
            for r in &plain.rejects {
                gate.fail(format!("{}: certificate rejected: {r}", k.name));
                ok = false;
            }
            if !ok {
                result.failed += 1;
            }
            peak_kb = peak_kb.max(plain.rss_kb);
            verdict_ms[idx].push(plain.verdict_ms);
            cpu_ms[idx].push(plain.cpu_ms);
            proved[idx] = plain
                .props
                .iter()
                .filter(|(_, v)| *v == Some(Verdict::Proved))
                .count();
            if !args.trace {
                continue;
            }
            // Traced: the driver's stage events in one cold child, the
            // layer-by-layer pipeline in another.
            let sink = run_child(&exe, &["sink", file, &k.name, &jobs_s], &tracer, prefix)?;
            let layered = run_child(&exe, &["layers", file, &k.name, &jobs_s], &tracer, prefix)?;
            gate.check(compare_verdicts(&k.name, &k.expect, &layered.props));
            for r in &layered.rejects {
                gate.fail(format!("{}: layered run rejected: {r}", k.name));
            }
            overhead_ms.push(sink.verdict_ms - plain.verdict_ms);
            for s in sink.spans.into_iter().chain(layered.spans) {
                tracer.push(s);
            }
            if synth {
                synth_traced += 1;
                for (key, v) in sink.counts.into_iter().chain(layered.counts) {
                    counts.entry(key).or_default().push(v);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Each kernel's median over the rounds; throughput is the corpus
    // proved once at those medians.
    let medians = |v: &[Vec<f64>]| -> Vec<f64> {
        v.iter().map(|k| stats::median(k).unwrap_or(0.0)).collect()
    };
    let (kernel_ms, kernel_cpu_ms) = (medians(&verdict_ms), medians(&cpu_ms));
    let corpus_s: f64 = kernel_ms.iter().sum::<f64>() / 1e3;
    let corpus_cpu_s: f64 = kernel_cpu_ms.iter().sum::<f64>() / 1e3;
    let props: usize = proved.iter().sum();
    result.gate = gate.failures();
    result.quartiles_line(
        "synth kernel median CPU to verdict",
        &kernel_cpu_ms[paper..],
    );
    result.quartiles_line("synth kernel median time to verdict", &kernel_ms[paper..]);
    let props_per_s = props as f64 / corpus_s;
    let kernel_p50 = stats::median(&kernel_ms[paper..]).unwrap_or(0.0);
    result.set("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    result.set(
        "setup.wall_s",
        stats::median(&setup_wall).unwrap_or(0.0),
        "s",
    );
    result.set("ops_per_cpu_s", kernels.len() as f64 / corpus_cpu_s, "1/s");
    result.set("props_per_cpu_s", props as f64 / corpus_cpu_s, "1/s");
    result.set(
        "cpu_p50_ms",
        stats::median(&kernel_cpu_ms[paper..]).unwrap_or(0.0),
        "ms",
    );
    result.set("verify.props_per_s", props_per_s, "1/s");
    result.set("verify.kernel_p50_ms", kernel_p50, "ms");
    result.set("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    result.set(
        "error_rate",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
    );
    result.text.push_str(&format!(
        "  kernels {} (synth {}) x {rounds} rounds, properties proved and checked {props} per round, jobs {jobs}\n",
        kernels.len(),
        kernels.len() - paper
    ));
    if args.trace {
        layer_metrics(&mut result, &tracer, &counts, synth_traced, &overhead_ms);
        tracer.save(&PathBuf::from(format!(
            "perfbench-out/prove-cold-seed{}.spans.jsonl",
            args.seed
        )));
    }
    Ok(result)
}

fn layer_metrics(
    result: &mut RunResult,
    tracer: &Tracer,
    counts: &BTreeMap<String, Vec<f64>>,
    synth_kernels: usize,
    overhead_ms: &[f64],
) {
    let spans = tracer.spans();
    let groups = trace::by_root(&spans);
    for (root, group) in &groups {
        result.text.push_str(&trace::render_table(
            &format!("  layers: prove-cold / {root}"),
            &trace::layer_table(group),
        ));
    }
    let empty = Vec::new();
    let layered = groups.get("synth-kernel").unwrap_or(&empty);
    let driver = groups.get("synth-kernel-driver").unwrap_or(&empty);
    let per_kernel = |n: usize| n as f64 / synth_kernels.max(1) as f64;
    let sum = |k: &str| counts.get(k).map_or(0.0, |v| v.iter().sum::<f64>());
    let med = |k: &str| counts.get(k).and_then(|v| stats::median(v)).unwrap_or(0.0);
    let count = |g: &[Span], name: &str| g.iter().filter(|s| s.name == name).count();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    result.set("search.ms", trace::p50_ms(layered, "search.prove"), "ms");
    result.set(
        "search.count",
        per_kernel(count(layered, "search.prove")),
        "count",
    );
    result.set(
        "search.obligations",
        sum("search.obligations") / synth_kernels.max(1) as f64,
        "count",
    );
    result.set(
        "search.paths_explored",
        sum("search.paths_explored") / synth_kernels.max(1) as f64,
        "count",
    );
    result.set(
        "cache.hit_ratio",
        ratio(sum("cache.hits"), sum("cache.lookups")),
        "ratio",
    );
    result.set(
        "symbolic.queries",
        sum("symbolic.queries") / synth_kernels.max(1) as f64,
        "count",
    );
    result.set(
        "symbolic.memo_hit_ratio",
        ratio(sum("symbolic.memo_hits"), sum("symbolic.queries")),
        "ratio",
    );
    result.set(
        "symbolic.interned_terms",
        med("symbolic.interned_terms"),
        "count",
    );
    result.set("sched.efficiency", med("sched.efficiency"), "ratio");
    result.set("checker.ms", trace::p50_ms(layered, "checker.check"), "ms");
    result.set(
        "checker.count",
        per_kernel(count(layered, "checker.check")),
        "count",
    );
    result.set(
        "abstraction.ms",
        trace::p50_ms(layered, "abstraction.build"),
        "ms",
    );
    result.set("abstraction.paths", med("abstraction.paths"), "count");
    result.set("parser.ms", trace::p50_ms(layered, "parser.parse"), "ms");
    result.set(
        "parser.count",
        per_kernel(count(layered, "parser.parse")),
        "count",
    );
    result.set("typeck.ms", trace::p50_ms(layered, "typeck.check"), "ms");
    result.set(
        "typeck.count",
        per_kernel(count(layered, "typeck.check")),
        "count",
    );
    for stage in ["session", "parse", "typecheck", "plan", "prove", "persist"] {
        result.set(
            &format!("driver.{stage}_ms"),
            trace::p50_ms(driver, &format!("driver.{stage}")),
            "ms",
        );
    }
    result.set(
        "driver.count",
        per_kernel(count(driver, "driver.session")),
        "count",
    );
    result.set(
        "codec.encode_ms",
        trace::p50_ms(layered, "codec.encode"),
        "ms",
    );
    result.set(
        "codec.decode_ms",
        trace::p50_ms(layered, "codec.decode"),
        "ms",
    );
    result.set("codec.cert_bytes", med("codec.cert_bytes"), "bytes");
    result.set(
        "unattributed_ms",
        stats::median(&trace::root_self_ms(layered)).unwrap_or(0.0),
        "ms",
    );
    result.set(
        "trace.overhead_ms",
        stats::median(overhead_ms).unwrap_or(0.0),
        "ms",
    );
}
