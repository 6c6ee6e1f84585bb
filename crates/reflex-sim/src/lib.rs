//! # reflex-sim — one deterministic simulator driving the whole stack
//!
//! A [`Sim`] harness owns a single root seed and derives every source of
//! nondeterminism the stack exposes from it as independent, labelled
//! streams ([`reflex_rng::derive`]): scheduler interleaving, the
//! runtime's `FaultPlan`, the store's `FaultyFs` schedule, the prover's
//! panic-injection sites and the synthetic-kernel edit scripts. Time is
//! simulated too — sessions run on a [`reflex_verify::VirtualClock`], so
//! proof budgets and the watch loop's retry backoff are deterministic
//! functions of the work performed, never of the host's speed.
//!
//! Every run replays one [`Scenario`] for a bounded number of steps and
//! records a replayable trace: a list of plain-text step records with no
//! wall-clock times, paths or process ids in them, so the same
//! `(scenario, seed, steps)` triple produces a byte-identical trace on
//! every machine and at every worker count. The scenarios check the
//! stack's robustness invariants as they go; the first breach is
//! surfaced as a [`Violation`].
//!
//! On a violation, [`shrink::shrink`] re-runs the scenario to find the
//! minimal step prefix (and the minimal set of fault streams) that still
//! reproduces it, and [`repro`] serializes that minimized configuration
//! as a `repro.json` that `rx sim replay FILE` re-executes bit-for-bit.
//! [`swarm::run_swarm`] fans a seed range across scenarios (this is the
//! CI entry point behind `rx sim swarm`), and [`chaos`] renders the
//! chaos scenario's per-seed runs as the `rx chaos` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod net;
pub mod repro;
pub mod scenario;
pub mod shrink;
pub mod swarm;

use std::sync::atomic::{AtomicU64, Ordering};

/// Which whole-stack scenario a simulation run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scenario {
    /// The chaos replay: a synthetic-kernel edit script through a watch
    /// session over a seeded faulty store, with seeded prover panics,
    /// then external bit rot, a scrub, and a post-scrub re-verification.
    Chaos,
    /// The watch loop under a flapping disk: one kernel re-verified
    /// every step while a seeded gate heals and unheals the store's
    /// filesystem, ending with a forced heal and re-attach.
    Watch,
    /// The supervised runtime soak: seeded workload and fault plans
    /// driven through crash/recovery with the certificate monitor on.
    Soak,
    /// The scale workload: a synthetic kernel's edit ladder verified
    /// step by step, store-backed reuse against a serial baseline.
    ScaleEdits,
    /// Compaction racing live verification: an edit ladder verified
    /// through one handle of a log-structured store while a second
    /// handle compacts the same store every step, over a seeded faulty
    /// disk; compaction must never lose a live entry or let a corrupt
    /// one escape quarantine.
    CompactionRace,
    /// Simulated clients hammering one resident service core: a greedy
    /// client bursts requests while single-shot clients interleave, all
    /// over the shared warm store. Every served certificate must match
    /// the serial clean baseline and the round-robin scheduler must
    /// serve every client every step.
    ClientStorm,
    /// The resident core killed mid-flight: a service core verifies and
    /// group-commits part of an edit ladder, is abandoned with work
    /// queued (no final flush), and a fresh core over the same store
    /// directory must warm-reuse every committed certificate with
    /// nothing quarantined.
    DaemonRestart,
    /// A retrying client talking to a real daemon through FaultyNet, the
    /// seeded fault-injecting transport: frames are dropped, duplicated,
    /// truncated and cut mid-stream. Every logical request must end in a
    /// report or a typed error (never a hang or protocol confusion), the
    /// idempotency window must prevent duplicate proof work, and every
    /// served certificate must match the one-shot baseline bytes.
    NetPartition,
    /// Hostile slow peers against a daemon with tight read deadlines: a
    /// slow-loris connection trickles a frame byte by byte while a
    /// well-behaved client verifies. The slow peer must be reaped with a
    /// typed error within its deadline and the worker pool must keep
    /// serving throughout.
    SlowClient,
}

impl Scenario {
    /// All scenarios, in the order the swarm runs them.
    pub const ALL: [Scenario; 9] = [
        Scenario::Chaos,
        Scenario::Watch,
        Scenario::Soak,
        Scenario::ScaleEdits,
        Scenario::CompactionRace,
        Scenario::ClientStorm,
        Scenario::DaemonRestart,
        Scenario::NetPartition,
        Scenario::SlowClient,
    ];

    /// The scenario's stable command-line / JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Chaos => "chaos",
            Scenario::Watch => "watch",
            Scenario::Soak => "soak",
            Scenario::ScaleEdits => "scale-edits",
            Scenario::CompactionRace => "compaction-race",
            Scenario::ClientStorm => "client-storm",
            Scenario::DaemonRestart => "daemon-crash-restart",
            Scenario::NetPartition => "net-partition",
            Scenario::SlowClient => "slow-client",
        }
    }

    /// Parses a command-line label.
    pub fn parse(label: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|s| s.label() == label)
    }

    /// The default step count: enough work to exercise the scenario's
    /// fault paths while keeping one run comfortably under a second.
    pub fn default_steps(&self) -> usize {
        match self {
            Scenario::Chaos => 5,
            Scenario::Watch => 8,
            Scenario::Soak => 120,
            Scenario::ScaleEdits => 4,
            Scenario::CompactionRace => 4,
            Scenario::ClientStorm => 4,
            Scenario::DaemonRestart => 4,
            Scenario::NetPartition => 8,
            Scenario::SlowClient => 2,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The fault streams a scenario derives from the root seed. Disabling
/// one (see [`SimConfig::disabled`]) zeroes that source of injected
/// nondeterminism; the shrinker uses this to report which streams a
/// violation actually needs.
pub const FAULT_STREAMS: [&str; 4] = ["fs", "world", "panic", "net"];

/// One deterministic simulation run: scenario, root seed, step bound and
/// the knobs the shrinker minimizes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// The scenario to drive.
    pub scenario: Scenario,
    /// The root seed; every per-component stream is derived from it.
    pub seed: u64,
    /// How many scenario steps to execute.
    pub steps: usize,
    /// Store-filesystem fault rate, parts per million (the `fs` stream).
    pub fs_rate_ppm: u32,
    /// Prover panic-injection rate, parts per million (the `panic`
    /// stream).
    pub panic_rate_ppm: u32,
    /// Deliberately violate an invariant at this step — the hook the
    /// shrink/replay pipeline is tested (and CI-demonstrated) with.
    pub inject_violation_at: Option<usize>,
    /// Fault streams (from [`FAULT_STREAMS`]) forced off for this run.
    pub disabled: Vec<String>,
}

impl SimConfig {
    /// The default configuration for `scenario` at `seed`.
    pub fn new(scenario: Scenario, seed: u64) -> SimConfig {
        SimConfig {
            scenario,
            seed,
            steps: scenario.default_steps(),
            fs_rate_ppm: 50_000,
            panic_rate_ppm: 20_000,
            inject_violation_at: None,
            disabled: Vec::new(),
        }
    }

    /// Whether the named fault stream is active in this run.
    pub fn stream_enabled(&self, stream: &str) -> bool {
        !self.disabled.iter().any(|d| d == stream)
    }

    /// The derived seed for the named stream (see [`reflex_rng::derive`]).
    pub fn stream_seed(&self, stream: &str) -> u64 {
        reflex_rng::derive(self.seed, stream)
    }
}

/// Which invariant a simulation run caught being broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A session or harness call returned an error instead of a report.
    Abort,
    /// A certificate differed from the serial clean baseline.
    CertMismatch,
    /// A corrupt entry survived the scrub and reached a later session.
    QuarantineEscape,
    /// A component was still crashed after the recovery cooldown.
    Unrecovered,
    /// The runtime certificate monitor raised an alarm.
    MonitorAlarm,
    /// A compaction pass lost (or conjured) a live store entry.
    CompactionLoss,
    /// The service scheduler failed to serve a client its fair share of
    /// a storm step.
    Starvation,
    /// A certificate group-committed before a crash was not served warm
    /// after the restart.
    RestartLoss,
    /// A logical request ended without a reply *and* without a typed
    /// error: the client hung, or was left protocol-confused.
    LostReply,
    /// The service executed the same idempotent request more than once
    /// inside the dedup window.
    DuplicateWork,
    /// The worker pool (or a hostile peer's reaping) stalled: a
    /// well-behaved request or the reap deadline did not complete.
    Stall,
    /// The deliberate violation scheduled by
    /// [`SimConfig::inject_violation_at`].
    Injected,
}

impl ViolationKind {
    /// The kind's stable JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::Abort => "abort",
            ViolationKind::CertMismatch => "cert-mismatch",
            ViolationKind::QuarantineEscape => "quarantine-escape",
            ViolationKind::Unrecovered => "unrecovered",
            ViolationKind::MonitorAlarm => "monitor-alarm",
            ViolationKind::CompactionLoss => "compaction-loss",
            ViolationKind::Starvation => "starvation",
            ViolationKind::RestartLoss => "restart-loss",
            ViolationKind::LostReply => "lost-reply",
            ViolationKind::DuplicateWork => "duplicate-work",
            ViolationKind::Stall => "stall",
            ViolationKind::Injected => "injected",
        }
    }

    /// Parses a JSON label.
    pub fn parse(label: &str) -> Option<ViolationKind> {
        [
            ViolationKind::Abort,
            ViolationKind::CertMismatch,
            ViolationKind::QuarantineEscape,
            ViolationKind::Unrecovered,
            ViolationKind::MonitorAlarm,
            ViolationKind::CompactionLoss,
            ViolationKind::Starvation,
            ViolationKind::RestartLoss,
            ViolationKind::LostReply,
            ViolationKind::DuplicateWork,
            ViolationKind::Stall,
            ViolationKind::Injected,
        ]
        .into_iter()
        .find(|k| k.label() == label)
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An invariant breach: where it happened and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The 0-based scenario step the breach was detected at.
    pub step: usize,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// A human-readable account of the breach.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}: {}", self.step, self.kind, self.detail)
    }
}

/// What one simulation run did: the deterministic trace and the first
/// invariant breach, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// The configuration that was run.
    pub config: SimConfig,
    /// Scenario steps actually executed (a violation stops the run).
    pub steps_run: usize,
    /// One record per deterministic event — no wall-clock times, paths
    /// or process ids, so equal configurations yield equal traces.
    pub trace: Vec<String>,
    /// FNV-1a fingerprint of the newline-joined trace.
    pub trace_fingerprint: u64,
    /// The first invariant breach, if the run found one.
    pub violation: Option<Violation>,
}

impl SimOutcome {
    /// Renders the trace as the newline-joined text the fingerprint is
    /// computed over.
    pub fn trace_text(&self) -> String {
        self.trace.join("\n")
    }
}

/// The deterministic simulator. Stateless apart from a process-wide
/// nonce that keeps concurrent runs' scratch store directories disjoint;
/// every behavior of a run is a function of its [`SimConfig`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Sim;

impl Sim {
    /// Runs one scenario to completion (or to its first violation) and
    /// returns the outcome. Deterministic: the same configuration yields
    /// a byte-identical trace on every run, machine and worker count.
    ///
    /// # Panics
    ///
    /// If `config.steps` is zero — every scenario needs at least one step.
    pub fn run(config: &SimConfig) -> SimOutcome {
        assert!(config.steps > 0, "a simulation needs at least one step");
        let mut trace = Trace::new(config);
        let violation = match config.scenario {
            Scenario::Chaos => scenario::run_chaos(config, &mut trace),
            Scenario::Watch => scenario::run_watch(config, &mut trace),
            Scenario::Soak => scenario::run_soak(config, &mut trace),
            Scenario::ScaleEdits => scenario::run_scale_edits(config, &mut trace),
            Scenario::CompactionRace => scenario::run_compaction_race(config, &mut trace),
            Scenario::ClientStorm => scenario::run_client_storm(config, &mut trace),
            Scenario::DaemonRestart => scenario::run_daemon_restart(config, &mut trace),
            Scenario::NetPartition => net::run_net_partition(config, &mut trace),
            Scenario::SlowClient => net::run_slow_client(config, &mut trace),
        };
        if let Some(v) = &violation {
            trace.push(format!("violation {} step={} {}", v.kind, v.step, v.detail));
        }
        let fingerprint = reflex_ast::fingerprint::fp_str(&trace.lines.join("\n")).0;
        SimOutcome {
            config: config.clone(),
            steps_run: trace.steps_run,
            trace: trace.lines,
            trace_fingerprint: fingerprint,
            violation,
        }
    }
}

/// The trace under construction: the deterministic record lines plus the
/// step counter the scenarios advance.
#[derive(Debug)]
pub(crate) struct Trace {
    lines: Vec<String>,
    steps_run: usize,
}

impl Trace {
    fn new(config: &SimConfig) -> Trace {
        let mut t = Trace {
            lines: Vec::new(),
            steps_run: 0,
        };
        t.push(format!(
            "sim scenario={} seed={} steps={} fs_ppm={} panic_ppm={} disabled=[{}]",
            config.scenario,
            config.seed,
            config.steps,
            if config.stream_enabled("fs") {
                config.fs_rate_ppm
            } else {
                0
            },
            if config.stream_enabled("panic") {
                config.panic_rate_ppm
            } else {
                0
            },
            config.disabled.join(","),
        ));
        t
    }

    /// Appends one deterministic record line.
    pub(crate) fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Marks one scenario step as executed.
    pub(crate) fn step_done(&mut self) {
        self.steps_run += 1;
    }
}

/// If the configuration schedules an injected violation at `step`,
/// records it in the trace and returns it.
pub(crate) fn injected_violation(
    config: &SimConfig,
    trace: &mut Trace,
    step: usize,
) -> Option<Violation> {
    if config.inject_violation_at != Some(step) {
        return None;
    }
    trace.push(format!("step {step} injecting deliberate violation"));
    Some(Violation {
        step,
        kind: ViolationKind::Injected,
        detail: "deliberate violation scheduled by inject_violation_at".to_owned(),
    })
}

static SCRATCH_NONCE: AtomicU64 = AtomicU64::new(0);

/// A scratch store directory unique to this process *and* this run, so
/// concurrent swarm workers (and repeated runs of the same seed in one
/// process) never share state. Never recorded in the trace.
pub(crate) fn scratch_dir(config: &SimConfig, tag: &str) -> std::path::PathBuf {
    let nonce = SCRATCH_NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rx-sim-{}-{}-{tag}-{}-{nonce}",
        config.scenario,
        config.seed,
        std::process::id()
    ))
}
