//! The `rx chaos` report: the [`Scenario::Chaos`] simulation run once per
//! seed and summarised as the `BENCH_chaos.json` document.
//!
//! The scenario is the only chaos engine (see [`crate::scenario`]): a
//! synthetic edit ladder replayed through a watch session over a seeded
//! faulty store with seeded prover panics, then a healed disk, one rotted
//! segment, a scrub and a post-scrub re-verification against the clean
//! baseline. This module only reads each run's counters back out of its
//! trace records, so a row's `trace_fingerprint` is the swarm's for the
//! same seed and the report cannot disagree with `BENCH_sim.json`.
//!
//! The guarded JSON fields mean one thing each: `aborts`,
//! `cert_mismatches` and `quarantine_escapes` count the seeds whose
//! violation has that kind, and `invariants_held` is true iff no seed has
//! any violation. A run stops at its first violation, so a seed is never
//! counted under two kinds.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::{Scenario, Sim, SimConfig, SimOutcome, ViolationKind};

/// One seed's row, read back from its chaos trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosRow {
    /// The root seed.
    pub seed: u64,
    /// The run's trace fingerprint (the swarm's for the same seed).
    pub trace_fingerprint: u64,
    /// Store faults injected during the faulted replay.
    pub faults_injected: u64,
    /// `StoreRetry` events (backoff probes after I/O errors).
    pub store_retries: usize,
    /// `StoreDegraded` events (store detached after failed retries).
    pub degraded_events: usize,
    /// `StoreRecovered` events (store re-attached after a healthy probe).
    pub recovered_events: usize,
    /// Replay iterations that ran in degraded (in-memory) mode.
    pub degraded_iterations: usize,
    /// Segments deliberately bit-rotted after the disk healed.
    pub corrupt_seeded: usize,
    /// Store entries scanned by the post-heal scrub.
    pub scrub_scanned: usize,
    /// Entries the scrub moved to `quarantine/`.
    pub scrub_quarantined: usize,
    /// Leftover temp files the scrub removed.
    pub scrub_tmp_removed: usize,
    /// The kind of the run's violation, if it had one.
    pub violation: Option<ViolationKind>,
}

/// The whole chaos report: per-seed rows plus the invariant totals.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Store-filesystem fault rate, parts per million.
    pub rate_ppm: u32,
    /// Replay iterations per seed (the scenario's steps).
    pub iterations_per_seed: usize,
    /// One row per seed, in seed order.
    pub seeds: Vec<ChaosRow>,
}

impl ChaosReport {
    /// Runs the chaos scenario once per seed at `rate_ppm` store faults
    /// (every other knob at the scenario's default) and reads the rows
    /// back from the traces.
    ///
    /// # Errors
    ///
    /// See [`chaos_row`]: a harness error, never an invariant violation.
    pub fn run(seeds: &[u64], rate_ppm: u32) -> Result<ChaosReport, String> {
        let outcomes: Vec<SimOutcome> = seeds
            .iter()
            .map(|&seed| {
                Sim::run(&SimConfig {
                    fs_rate_ppm: rate_ppm,
                    ..SimConfig::new(Scenario::Chaos, seed)
                })
            })
            .collect();
        ChaosReport::from_outcomes(rate_ppm, &outcomes)
    }

    /// Builds the report from finished chaos runs.
    ///
    /// # Errors
    ///
    /// See [`chaos_row`].
    pub fn from_outcomes(rate_ppm: u32, outcomes: &[SimOutcome]) -> Result<ChaosReport, String> {
        Ok(ChaosReport {
            rate_ppm,
            iterations_per_seed: Scenario::Chaos.default_steps(),
            seeds: outcomes.iter().map(chaos_row).collect::<Result<_, _>>()?,
        })
    }

    /// Store faults injected across all seeds.
    pub fn total_faults(&self) -> u64 {
        self.seeds.iter().map(|s| s.faults_injected).sum()
    }

    /// Seeds whose violation has `kind`.
    pub fn seeds_violating(&self, kind: ViolationKind) -> usize {
        self.seeds
            .iter()
            .filter(|s| s.violation == Some(kind))
            .count()
    }

    /// Whether no seed violated any invariant (the `rx chaos` exit code
    /// is nonzero iff this is false).
    pub fn invariants_held(&self) -> bool {
        self.seeds.iter().all(|s| s.violation.is_none())
    }
}

/// The `key=value` counter of one trace record.
fn counter<T: FromStr>(line: &str, key: &str) -> Result<T, String> {
    line.split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("chaos trace record `{line}` has no valid `{key}=`"))
}

/// Reads one seed's row out of a chaos run's trace records: the per-step
/// `step N chaos … degraded= faults=` lines, `chaos store …` and
/// `chaos scrub …`.
///
/// # Errors
///
/// A run of another scenario, a malformed counter, or a clean run that
/// lacks one of those records. A run with a violation stopped early, so
/// the records it never reached count as zero.
pub fn chaos_row(outcome: &SimOutcome) -> Result<ChaosRow, String> {
    let config = &outcome.config;
    if config.scenario != Scenario::Chaos {
        return Err(format!(
            "seed {}: a {} run has no chaos row",
            config.seed, config.scenario
        ));
    }
    let mut row = ChaosRow {
        seed: config.seed,
        trace_fingerprint: outcome.trace_fingerprint,
        violation: outcome.violation.as_ref().map(|v| v.kind),
        ..ChaosRow::default()
    };
    let (mut steps, mut store, mut scrub) = (0, false, false);
    for line in &outcome.trace {
        if line.starts_with("step ") && line.contains(" chaos kernel=") {
            steps += 1;
            row.faults_injected += counter::<u64>(line, "faults")?;
            if counter::<bool>(line, "degraded")? {
                row.degraded_iterations += 1;
            }
        } else if line.starts_with("chaos store ") {
            store = true;
            row.store_retries = counter(line, "retries")?;
            row.degraded_events = counter(line, "degraded")?;
            row.recovered_events = counter(line, "recovered")?;
        } else if line.starts_with("chaos scrub ") {
            scrub = true;
            row.corrupt_seeded = counter(line, "corrupted")?;
            row.scrub_scanned = counter(line, "scanned")?;
            row.scrub_quarantined = counter(line, "quarantined")?;
            row.scrub_tmp_removed = counter(line, "tmp_removed")?;
        }
    }
    if row.violation.is_none() {
        let missing = if steps != config.steps {
            Some(format!("has {steps} of {} step records", config.steps))
        } else if !store {
            Some("lacks the `chaos store` record".to_owned())
        } else if !scrub {
            Some("lacks the `chaos scrub` record".to_owned())
        } else {
            None
        };
        if let Some(missing) = missing {
            return Err(format!("seed {}: clean chaos trace {missing}", config.seed));
        }
    }
    Ok(row)
}

/// Renders the report as a text table.
pub fn render_chaos(report: &ChaosReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos scenario (sim-chaos): {} iterations/seed at {} ppm store fault rate\n",
        report.iterations_per_seed, report.rate_ppm
    );
    let _ = writeln!(
        out,
        "{:>5} {:>18} {:>6} {:>7} {:>8} {:>9} {:>8} {:>4} {:>7} {:>4}  violation",
        "seed",
        "trace",
        "faults",
        "retries",
        "degraded",
        "recovered",
        "degr-its",
        "rot",
        "scanned",
        "quar"
    );
    for s in &report.seeds {
        let _ = writeln!(
            out,
            "{:>5} {:#018x} {:>6} {:>7} {:>8} {:>9} {:>8} {:>4} {:>7} {:>4}  {}",
            s.seed,
            s.trace_fingerprint,
            s.faults_injected,
            s.store_retries,
            s.degraded_events,
            s.recovered_events,
            s.degraded_iterations,
            s.corrupt_seeded,
            s.scrub_scanned,
            s.scrub_quarantined,
            s.violation.as_ref().map_or("-", ViolationKind::label)
        );
    }
    let _ = writeln!(
        out,
        "\ntotals: {} faults injected, {} aborts, {} certificate mismatches, {} quarantine escapes",
        report.total_faults(),
        report.seeds_violating(ViolationKind::Abort),
        report.seeds_violating(ViolationKind::CertMismatch),
        report.seeds_violating(ViolationKind::QuarantineEscape)
    );
    out.push_str(if report.invariants_held() {
        "all robustness invariants held ✓\n"
    } else {
        "ROBUSTNESS INVARIANT VIOLATED\n"
    });
    out
}

/// Renders the report as the `BENCH_chaos.json` document.
pub fn render_chaos_json(report: &ChaosReport) -> String {
    let rows: Vec<String> = report
        .seeds
        .iter()
        .map(|s| {
            format!(
                "    {{\"seed\": {}, \"trace_fingerprint\": \"{:#018x}\", \
                 \"faults_injected\": {}, \"store_retries\": {}, \"degraded_events\": {}, \
                 \"recovered_events\": {}, \"degraded_iterations\": {}, \
                 \"corrupt_seeded\": {}, \"scrub_scanned\": {}, \"scrub_quarantined\": {}, \
                 \"scrub_tmp_removed\": {}, \"violation\": {}}}",
                s.seed,
                s.trace_fingerprint,
                s.faults_injected,
                s.store_retries,
                s.degraded_events,
                s.recovered_events,
                s.degraded_iterations,
                s.corrupt_seeded,
                s.scrub_scanned,
                s.scrub_quarantined,
                s.scrub_tmp_removed,
                match s.violation {
                    None => "null".to_owned(),
                    Some(kind) => format!("\"{kind}\""),
                }
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": \"chaos\",\n  \"workload\": \"sim-chaos\",\n  \"rate_ppm\": {},\n  \
         \"iterations_per_seed\": {},\n  \"total_faults\": {},\n  \
         \"aborts\": {},\n  \"cert_mismatches\": {},\n  \"quarantine_escapes\": {},\n  \
         \"invariants_held\": {},\n  \"seeds\": [\n{}\n  ]\n}}\n",
        report.rate_ppm,
        report.iterations_per_seed,
        report.total_faults(),
        report.seeds_violating(ViolationKind::Abort),
        report.seeds_violating(ViolationKind::CertMismatch),
        report.seeds_violating(ViolationKind::QuarantineEscape),
        report.invariants_held(),
        rows.join(",\n")
    )
}
