//! The reflex benchmark: three workloads, one correctness gate, end-to-end
//! metrics from an untraced run and a per-layer table from a traced one.
//!
//! ```text
//! reflex-perfbench --workload prove-cold|serve-mix|edit-replay|all
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (both lists live in `BENCHMARK.json`). Everything above that line is a
//! human-readable report. A correctness mismatch exits with code 1.

mod child;
mod edit_replay;
mod gate;
mod gen;
mod layers;
mod prove_cold;
mod report;
mod serve_mix;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunResult;

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Worker threads the machine offers (reported with every result).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine's CPU time stolen by the hypervisor for other guests, and
/// all its CPU time, in ticks since boot (`/proc/stat`), if readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// CPU time (user + system) this process and all its threads have used
/// since it started, seconds: the kernel's per-process CPU clock.
///
/// On a shared virtual machine the hypervisor takes CPU time from the
/// guest (steal) and caps what its vCPUs get together; a run's wall time
/// swings with that load, its CPU time does not. The end-to-end timings
/// are CPU time for that reason.
pub fn cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    /// `struct timespec` as Linux lays it out (`time_t` is a `long`).
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// A mask of CPUs, as `cpu_set_t` lays it out (1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut CpuSet) -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const CpuSet)
        -> std::ffi::c_int;
}

/// Runs `f` with every thread of this process, and every thread started
/// meanwhile, on one CPU (the last the calling thread may use), then
/// gives every thread back the CPUs the calling thread had. Call it while
/// no other thread is starting threads.
///
/// Threads handing work to each other on different vCPUs of a virtual
/// machine wake each other with interrupts that exit to the hypervisor;
/// how long those take, which is charged to the threads as CPU time,
/// follows the host's load. On one CPU the hand-offs stay inside the
/// guest. If the CPU mask cannot be read, `f` runs unpinned.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let mut all: CpuSet = [0; 16];
    // SAFETY: `all` is a writable mask of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) } != 0 {
        return f();
    }
    let Some((word, bits)) = all.iter().enumerate().rev().find(|(_, w)| **w != 0) else {
        return f();
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    set_every_thread(&one);
    let out = f();
    set_every_thread(&all);
    out
}

/// Gives every thread of this process the CPUs in `mask`. A thread that
/// exits meanwhile makes its call fail, which is harmless.
fn set_every_thread(mask: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        // SAFETY: `mask` is a readable mask of the size passed.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) };
    }
}

/// This process's peak resident set, KiB (`VmHWM`), or 0 if unknown.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A fresh scratch directory for this run, under `.bench_scratch` in the
/// working directory (the checkout root).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

fn run_workload(args: &Args, workload: &str) -> Result<RunResult, String> {
    match workload {
        "prove-cold" => prove_cold::run(args),
        "serve-mix" => serve_mix::run(args),
        "edit-replay" => edit_replay::run(args),
        other => Err(format!(
            "unknown workload {other} (prove-cold, serve-mix, edit-replay, all)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        return child::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reflex-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        vec!["prove-cold", "serve-mix", "edit-replay"]
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for w in workloads {
        let before = cpu_ticks();
        match run_workload(&args, w) {
            Ok(mut r) => {
                // On a shared virtual machine, time stolen for other
                // guests slows a run without any change to the program.
                if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
                    let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                    r.text
                        .push_str(&format!("  cpu steal during run: {:.1}%\n", share * 100.0));
                }
                print!("{}", r.render_text(w, &args));
                results.push((w.to_owned(), r));
            }
            Err(e) => {
                eprintln!("reflex-perfbench: {w}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let _ = std::fs::remove_dir(".bench_scratch");
    let (line, correct) = report::result_line(&results, args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
