//! The CI seed swarm: a seed range fanned across scenarios.
//!
//! [`run_swarm`] executes every `(scenario, seed)` pair of its
//! configuration as one independent [`Sim::run`]. Runs share nothing —
//! each owns its scratch store and derives all randomness from its own
//! seed — so the swarm parallelizes freely across worker threads while
//! the *results* stay a pure function of the configuration: the report
//! is ordered by `(scenario, seed)`, never by completion time, and a
//! determinism test pins `--jobs 1` against `--jobs 8`.
//!
//! Every violating run is shrunk ([`crate::shrink`]) and written out as
//! a `repro.json` next to the bench report, so a red CI job hands the
//! developer a minimal, replayable reproduction instead of a seed range.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::shrink::shrink;
use crate::{repro, Scenario, Sim, SimConfig, SimOutcome, Violation};

/// One seed-swarm invocation.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// The scenarios to fan each seed across.
    pub scenarios: Vec<Scenario>,
    /// The seeds to run.
    pub seeds: Vec<u64>,
    /// Steps per run (`None`: each scenario's default).
    pub steps: Option<usize>,
    /// Store-filesystem fault rate, parts per million.
    pub fs_rate_ppm: u32,
    /// Prover panic-injection rate, parts per million.
    pub panic_rate_ppm: u32,
    /// Deliberately violate an invariant at this step in every run
    /// (CI uses this on one pinned run to prove the shrink/replay
    /// pipeline works end to end).
    pub inject_violation_at: Option<usize>,
    /// Worker threads (`0`: one per available core). Parallelism is
    /// across runs; each run's prover work stays serial.
    pub jobs: usize,
    /// Where to write `repro-*.json` files for violating runs
    /// (`None`: do not write repros).
    pub repro_dir: Option<PathBuf>,
}

impl Default for SwarmConfig {
    fn default() -> SwarmConfig {
        SwarmConfig {
            scenarios: Scenario::ALL.to_vec(),
            seeds: (0..16).collect(),
            steps: None,
            fs_rate_ppm: 50_000,
            panic_rate_ppm: 20_000,
            inject_violation_at: None,
            jobs: 0,
            repro_dir: None,
        }
    }
}

/// One run's row in the swarm report.
#[derive(Debug, Clone)]
pub struct SwarmRun {
    /// The scenario driven.
    pub scenario: Scenario,
    /// The root seed.
    pub seed: u64,
    /// Steps the configuration asked for.
    pub steps: usize,
    /// Steps actually executed.
    pub steps_run: usize,
    /// The run's deterministic trace fingerprint.
    pub trace_fingerprint: u64,
    /// The violation, if the run found one.
    pub violation: Option<Violation>,
    /// The minimized configuration's step count, for violating runs.
    pub shrunk_steps: Option<usize>,
    /// The repro file written for this violation, if any.
    pub repro_path: Option<String>,
}

/// The whole swarm: configuration echo plus per-run rows in
/// `(scenario, seed)` order.
#[derive(Debug, Clone)]
pub struct SwarmBench {
    /// Scenario labels, as run.
    pub scenarios: Vec<Scenario>,
    /// The seed range, as run.
    pub seeds: Vec<u64>,
    /// Worker threads used (informational; results are
    /// jobs-independent).
    pub jobs: usize,
    /// Per-run rows.
    pub runs: Vec<SwarmRun>,
}

impl SwarmBench {
    /// Rows that violated an invariant.
    pub fn violations(&self) -> usize {
        self.runs.iter().filter(|r| r.violation.is_some()).count()
    }

    /// A fingerprint over every run's trace fingerprint, in report
    /// order — one number that changes iff any run's behavior changes.
    pub fn swarm_fingerprint(&self) -> u64 {
        let mut text = String::new();
        for run in &self.runs {
            let _ = writeln!(
                text,
                "{} {} {:#018x}",
                run.scenario, run.seed, run.trace_fingerprint
            );
        }
        reflex_ast::fingerprint::fp_str(&text).0
    }
}

/// The configuration for one `(scenario, seed)` cell of the swarm.
fn cell_config(cfg: &SwarmConfig, scenario: Scenario, seed: u64) -> SimConfig {
    let mut config = SimConfig::new(scenario, seed);
    if let Some(steps) = cfg.steps {
        config.steps = steps;
    }
    config.fs_rate_ppm = cfg.fs_rate_ppm;
    config.panic_rate_ppm = cfg.panic_rate_ppm;
    config.inject_violation_at = cfg.inject_violation_at;
    config
}

/// Executes one cell: run, and on violation shrink and (optionally)
/// write the repro file.
fn run_cell(cfg: &SwarmConfig, config: &SimConfig, index: usize) -> SwarmRun {
    let outcome: SimOutcome = Sim::run(config);
    let (shrunk_steps, repro_path) = match &outcome.violation {
        None => (None, None),
        Some(violation) => {
            let minimized = shrink(config, violation);
            let path = cfg.repro_dir.as_ref().and_then(|dir| {
                let min_outcome = Sim::run(&minimized.minimized);
                let record = repro::Repro::of(&min_outcome);
                let path = dir.join(format!(
                    "repro-{}-seed{}-{index}.json",
                    config.scenario, config.seed
                ));
                std::fs::create_dir_all(dir).ok()?;
                std::fs::write(&path, repro::render(&record)).ok()?;
                Some(path.to_string_lossy().into_owned())
            });
            (Some(minimized.minimized.steps), path)
        }
    };
    SwarmRun {
        scenario: config.scenario,
        seed: config.seed,
        steps: config.steps,
        steps_run: outcome.steps_run,
        trace_fingerprint: outcome.trace_fingerprint,
        violation: outcome.violation,
        shrunk_steps,
        repro_path,
    }
}

/// Runs the swarm. Results are ordered by `(scenario, seed)` and are
/// identical at every worker count.
pub fn run_swarm(cfg: &SwarmConfig) -> SwarmBench {
    let cells: Vec<SimConfig> = cfg
        .scenarios
        .iter()
        .flat_map(|&scenario| {
            cfg.seeds
                .iter()
                .map(move |&seed| cell_config(cfg, scenario, seed))
        })
        .collect();

    let workers = if cfg.jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.jobs
    }
    .min(cells.len().max(1));

    let slots: Mutex<Vec<Option<SwarmRun>>> = Mutex::new(vec![None; cells.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = cells.get(index) else {
                    break;
                };
                let run = run_cell(cfg, config, index);
                slots.lock().expect("swarm slots poisoned")[index] = Some(run);
            });
        }
    });

    let runs = slots
        .into_inner()
        .expect("swarm slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every cell ran"))
        .collect();
    SwarmBench {
        scenarios: cfg.scenarios.clone(),
        seeds: cfg.seeds.clone(),
        jobs: cfg.jobs,
        runs,
    }
}

/// Renders the swarm as a text table.
pub fn render_swarm(bench: &SwarmBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sim swarm: {} scenario(s) x {} seed(s), fingerprint {:#018x}",
        bench.scenarios.len(),
        bench.seeds.len(),
        bench.swarm_fingerprint()
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>18}  violation",
        "scenario", "seed", "steps", "trace"
    );
    for run in &bench.runs {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:#018x}  {}",
            run.scenario.label(),
            run.seed,
            run.steps_run,
            run.trace_fingerprint,
            match &run.violation {
                None => "-".to_owned(),
                Some(v) => match (&run.shrunk_steps, &run.repro_path) {
                    (Some(steps), Some(path)) => format!("{v} (shrunk to {steps} steps, {path})"),
                    (Some(steps), None) => format!("{v} (shrunk to {steps} steps)"),
                    _ => v.to_string(),
                },
            }
        );
    }
    let _ = writeln!(out, "violations: {}", bench.violations());
    out
}

/// Renders the swarm as the `BENCH_sim.json` document.
pub fn render_swarm_json(bench: &SwarmBench) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sim-swarm\",\n");
    let scenarios: Vec<String> = bench.scenarios.iter().map(|s| format!("\"{s}\"")).collect();
    let _ = writeln!(out, "  \"scenarios\": [{}],", scenarios.join(", "));
    let _ = writeln!(
        out,
        "  \"seeds\": {},\n  \"runs\": {},\n  \"violations\": {},",
        bench.seeds.len(),
        bench.runs.len(),
        bench.violations()
    );
    let _ = writeln!(
        out,
        "  \"swarm_fingerprint\": \"{:#018x}\",",
        bench.swarm_fingerprint()
    );
    out.push_str("  \"rows\": [\n");
    for (i, run) in bench.runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"steps\": {}, \"trace_fingerprint\": \"{:#018x}\", \"violation\": {}, \"shrunk_steps\": {}}}",
            run.scenario,
            run.seed,
            run.steps_run,
            run.trace_fingerprint,
            match &run.violation {
                None => "null".to_owned(),
                Some(v) => format!("\"{}\"", v.kind),
            },
            match run.shrunk_steps {
                None => "null".to_owned(),
                Some(s) => s.to_string(),
            }
        );
        out.push_str(if i + 1 < bench.runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
