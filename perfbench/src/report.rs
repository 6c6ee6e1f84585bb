//! What a workload run returns, and the two ways it is printed: a
//! human-readable report, and the one-line JSON result that ends stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Args;

/// End-to-end metrics every workload reports with `--trace 0`, with
/// units. Kept in step with `BENCHMARK.json` by a test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("props_per_cpu_s", "1/s"),
    ("cpu_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where a
/// layer does no work in that workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.wall_s", "s"),
    ("verify.props_per_s", "1/s"),
    ("verify.kernel_p50_ms", "ms"),
    ("serve.rps", "1/s"),
    ("serve.p50_ms", "ms"),
    ("edit.p50_ms", "ms"),
    ("search.ms", "ms"),
    ("search.count", "count"),
    ("search.obligations", "count"),
    ("search.paths_explored", "count"),
    ("cache.hit_ratio", "ratio"),
    ("symbolic.queries", "count"),
    ("symbolic.memo_hit_ratio", "ratio"),
    ("symbolic.interned_terms", "count"),
    ("sched.efficiency", "ratio"),
    ("checker.ms", "ms"),
    ("checker.count", "count"),
    ("abstraction.ms", "ms"),
    ("abstraction.paths", "count"),
    ("parser.ms", "ms"),
    ("parser.count", "count"),
    ("typeck.ms", "ms"),
    ("typeck.count", "count"),
    ("driver.session_ms", "ms"),
    ("driver.parse_ms", "ms"),
    ("driver.typecheck_ms", "ms"),
    ("driver.plan_ms", "ms"),
    ("driver.prove_ms", "ms"),
    ("driver.persist_ms", "ms"),
    ("driver.count", "count"),
    ("core.queue_wait_ms", "ms"),
    ("core.exec_ms", "ms"),
    ("core.served", "count"),
    ("core.busy", "count"),
    ("core.shed", "count"),
    ("client.connect_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.reply_bytes", "bytes"),
    ("server.overhead_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.cert_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.reuse_ratio", "ratio"),
    ("store.io_errors", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("error_rate", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.open_late_ms", "ms"),
    ("serve.slo_rps", "1/s"),
    ("edit.p90_ms", "ms"),
    ("edit.comment_p50_ms", "ms"),
    ("edit.rename_p50_ms", "ms"),
    ("edit.append_p50_ms", "ms"),
    ("edit.revert_p50_ms", "ms"),
];

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (kernels, requests or edits).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or were cancelled.
    /// Expected verdicts (the injected false property) are not failures.
    pub failed: u64,
    /// Correctness-gate failures; any one makes the run incorrect.
    pub gate: Vec<String>,
    /// Every metric measured, by name: the contract's names plus the
    /// workload-specific names (`verify.props_per_s`, `serve.rps`, ...).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Extra report text: layer tables, rates, notes.
    pub text: String,
}

impl RunResult {
    /// Records a metric (non-finite values become 0).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_owned(), (v, unit.to_owned()));
    }

    /// A metric's value, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// This result as lines for a parent process to read back with
    /// [`RunResult::absorb`]: counts, gate failures, metrics and text.
    pub fn to_lines(&self) -> String {
        let mut s = format!("ATTEMPTED {}\nFAILED {}\n", self.attempted, self.failed);
        for g in &self.gate {
            let _ = writeln!(s, "GATE {}", g.replace('\n', " "));
        }
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(s, "METRIC {name} {value:?} {unit}");
        }
        for line in self.text.lines() {
            let _ = writeln!(s, "TEXT {line}");
        }
        s
    }

    /// Reads a child process's [`RunResult::to_lines`] output into a
    /// fresh result.
    pub fn from_lines(out: &str) -> RunResult {
        let mut r = RunResult::default();
        for line in out.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "ATTEMPTED" => r.attempted = rest.parse().unwrap_or(0),
                "FAILED" => r.failed = rest.parse().unwrap_or(0),
                "GATE" => r.gate.push(rest.to_owned()),
                "METRIC" => {
                    let mut w = rest.split(' ');
                    if let (Some(name), Some(Ok(value)), Some(unit)) =
                        (w.next(), w.next().map(str::parse::<f64>), w.next())
                    {
                        r.set(name, value, unit);
                    }
                }
                "TEXT" => {
                    r.text.push_str(rest);
                    r.text.push('\n');
                }
                _ => {}
            }
        }
        r
    }

    /// Adds a line with the quartiles of a latency sample.
    pub fn quartiles_line(&mut self, what: &str, samples_ms: &[f64]) {
        if let Some((q1, q2, q3)) = crate::stats::quartiles(samples_ms) {
            self.text.push_str(&format!(
                "  {what}: n {}  q1 {q1:.4} ms  median {q2:.4} ms  q3 {q3:.4} ms\n",
                samples_ms.len()
            ));
        }
    }

    /// The human-readable report for one workload.
    pub fn render_text(&self, workload: &str, args: &Args) -> String {
        let mut s = format!(
            "== {workload}: seed {} seconds {} trace {} nproc {}\n",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            crate::nproc()
        );
        let _ = writeln!(
            s,
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.gate.is_empty()
        );
        for g in &self.gate {
            let _ = writeln!(s, "  GATE FAILURE: {g}");
        }
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(s, "  {name:<28} {value:>14.4} {unit}");
        }
        s.push_str(&self.text);
        s
    }
}

/// The final JSON line and whether every gate passed. A single workload
/// reports the contract's metric names; `all` prefixes each with its
/// workload.
pub fn result_line(results: &[(String, RunResult)], trace: bool) -> (String, bool) {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let correct = results.iter().all(|(_, r)| r.gate.is_empty());
    let attempted: u64 = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    let mut metrics = Vec::new();
    for (workload, r) in results {
        for (name, unit) in list {
            let value = r.metrics.get(*name).map_or(0.0, |(v, _)| *v);
            let key = if results.len() == 1 {
                (*name).to_owned()
            } else {
                format!("{workload}/{name}")
            };
            metrics.push(format!(
                r#""{key}": {{"value": {value:?}, "unit": "{unit}"}}"#
            ));
        }
    }
    (
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
            attempted.max(1),
            metrics.join(", ")
        ),
        correct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = json.matches(r#""unit": "#).count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn lines_round_trip_a_result() {
        let mut r = RunResult {
            attempted: 7,
            failed: 1,
            gate: vec!["edit 3: verdict differs".into()],
            text: "  layers\n    row 1\n".into(),
            ..RunResult::default()
        };
        r.set("setup_s", 0.123456789, "s");
        r.set("edit.p90_ms", 12.5, "ms");
        let back = RunResult::from_lines(&r.to_lines());
        assert_eq!((back.attempted, back.failed), (7, 1));
        assert_eq!(back.gate, r.gate);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.text, r.text);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        for (name, unit) in END_TO_END {
            r.set(name, 1.25, unit);
        }
        r.set("serve.rps", 9.0, "1/s");
        let (line, ok) = result_line(&[("x".into(), r)], false);
        assert!(ok);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 1.25, "unit": "s"}"#));
        assert!(!line.contains("serve.rps"));
    }
}
