//! `repro.json` — serialized minimal reproductions.
//!
//! A repro file records everything [`Sim::run`] needs to re-execute a
//! violating run bit for bit: the (minimized) configuration, the
//! violation it produces and the trace fingerprint of the violating
//! run. `rx sim replay FILE` parses the file, re-runs the scenario and
//! checks that the same violation and the same trace come back.
//!
//! The format is a flat JSON object written and parsed by hand (the
//! repository builds against no external crates); the parser accepts
//! exactly what [`render`] emits.

use std::fmt::Write as _;

use reflex_verify::json_string;

use crate::{Scenario, Sim, SimConfig, SimOutcome, Violation, ViolationKind};

/// The schema tag [`render`] stamps into every repro file.
pub const SCHEMA: &str = "rx-sim-repro-v1";

/// A parsed repro file: the run to replay and what it must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The minimized configuration to re-execute.
    pub config: SimConfig,
    /// The violation the run must reproduce.
    pub violation: Violation,
    /// The violating run's trace fingerprint.
    pub trace_fingerprint: u64,
}

impl Repro {
    /// Builds the repro record for a violating outcome.
    ///
    /// # Panics
    ///
    /// If the outcome has no violation — clean runs have nothing to
    /// reproduce.
    pub fn of(outcome: &SimOutcome) -> Repro {
        Repro {
            config: outcome.config.clone(),
            violation: outcome
                .violation
                .clone()
                .expect("a repro needs a violation"),
            trace_fingerprint: outcome.trace_fingerprint,
        }
    }

    /// Re-runs the recorded configuration and reports the replay
    /// verdict.
    pub fn replay(&self) -> ReplayVerdict {
        let outcome = Sim::run(&self.config);
        let violation_matches = outcome.violation.as_ref() == Some(&self.violation);
        let trace_matches = outcome.trace_fingerprint == self.trace_fingerprint;
        ReplayVerdict {
            outcome,
            violation_matches,
            trace_matches,
        }
    }
}

/// What replaying a repro produced, against what it recorded.
#[derive(Debug)]
pub struct ReplayVerdict {
    /// The replayed run.
    pub outcome: SimOutcome,
    /// Whether the recorded violation came back identically.
    pub violation_matches: bool,
    /// Whether the trace fingerprint came back identically.
    pub trace_matches: bool,
}

impl ReplayVerdict {
    /// Whether the replay reproduced the recorded run bit for bit.
    pub fn reproduced(&self) -> bool {
        self.violation_matches && self.trace_matches
    }
}

/// Renders a repro as its `repro.json` document.
pub fn render(repro: &Repro) -> String {
    let c = &repro.config;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", c.scenario);
    let _ = writeln!(out, "  \"seed\": {},", c.seed);
    let _ = writeln!(out, "  \"steps\": {},", c.steps);
    let _ = writeln!(out, "  \"fs_rate_ppm\": {},", c.fs_rate_ppm);
    let _ = writeln!(out, "  \"panic_rate_ppm\": {},", c.panic_rate_ppm);
    match c.inject_violation_at {
        Some(k) => {
            let _ = writeln!(out, "  \"inject_violation_at\": {k},");
        }
        None => out.push_str("  \"inject_violation_at\": null,\n"),
    }
    let streams: Vec<String> = c.disabled.iter().map(|s| json_string(s)).collect();
    let _ = writeln!(out, "  \"disabled\": [{}],", streams.join(", "));
    out.push_str("  \"violation\": {\n");
    let _ = writeln!(out, "    \"step\": {},", repro.violation.step);
    let _ = writeln!(out, "    \"kind\": \"{}\",", repro.violation.kind);
    let _ = writeln!(
        out,
        "    \"detail\": {}",
        json_string(&repro.violation.detail)
    );
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"trace_fingerprint\": \"{:#018x}\"",
        repro.trace_fingerprint
    );
    out.push_str("}\n");
    out
}

/// Parses a `repro.json` document (the format [`render`] emits).
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn parse(text: &str) -> Result<Repro, String> {
    let schema = str_field(text, "schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported repro schema `{schema}`"));
    }
    let scenario_label = str_field(text, "scenario")?;
    let scenario = Scenario::parse(&scenario_label)
        .ok_or_else(|| format!("unknown scenario `{scenario_label}`"))?;
    let kind_label = str_field(text, "kind")?;
    let kind = ViolationKind::parse(&kind_label)
        .ok_or_else(|| format!("unknown violation kind `{kind_label}`"))?;
    let fingerprint_text = str_field(text, "trace_fingerprint")?;
    let trace_fingerprint = parse_hex_u64(&fingerprint_text)?;
    Ok(Repro {
        config: SimConfig {
            scenario,
            seed: num_field(text, "seed")?,
            steps: usize::try_from(num_field(text, "steps")?)
                .map_err(|_| "steps out of range".to_owned())?,
            fs_rate_ppm: u32::try_from(num_field(text, "fs_rate_ppm")?)
                .map_err(|_| "fs_rate_ppm out of range".to_owned())?,
            panic_rate_ppm: u32::try_from(num_field(text, "panic_rate_ppm")?)
                .map_err(|_| "panic_rate_ppm out of range".to_owned())?,
            inject_violation_at: opt_num_field(text, "inject_violation_at")?
                .map(|n| usize::try_from(n).map_err(|_| "inject_violation_at out of range"))
                .transpose()?,
            disabled: str_array_field(text, "disabled")?,
        },
        violation: Violation {
            step: usize::try_from(num_field(text, "step")?)
                .map_err(|_| "step out of range".to_owned())?,
            kind,
            detail: str_field(text, "detail")?,
        },
        trace_fingerprint,
    })
}

/// Reads, parses and replays a repro file.
///
/// # Errors
///
/// I/O or parse failure, with the path in the message.
pub fn replay_file(path: &std::path::Path) -> Result<ReplayVerdict, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let repro = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(repro.replay())
}

/// The raw text after `"key":`, up to (not including) the value's end,
/// for scalar values. Finds the first occurrence of the quoted key.
fn raw_value<'t>(text: &'t str, key: &str) -> Result<&'t str, String> {
    let marker = format!("\"{key}\"");
    let at = text
        .find(&marker)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    let rest = &text[at + marker.len()..];
    let rest = rest
        .strip_prefix(':')
        .or_else(|| {
            rest.find(':')
                .filter(|i| rest[..*i].trim().is_empty())
                .map(|i| &rest[i + 1..])
        })
        .ok_or_else(|| format!("field `{key}` is not followed by a value"))?;
    Ok(rest.trim_start())
}

fn str_field(text: &str, key: &str) -> Result<String, String> {
    let raw = raw_value(text, key)?;
    let inner = raw
        .strip_prefix('"')
        .ok_or_else(|| format!("field `{key}` is not a string"))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("field `{key}`: bad \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("field `{key}`: bad \\u escape"))?,
                    );
                }
                Some(other) => out.push(other),
                None => return Err(format!("field `{key}`: unterminated escape")),
            },
            c => out.push(c),
        }
    }
    Err(format!("field `{key}`: unterminated string"))
}

fn num_field(text: &str, key: &str) -> Result<u64, String> {
    let raw = raw_value(text, key)?;
    let digits: String = raw.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse::<u64>()
        .map_err(|_| format!("field `{key}` is not a number"))
}

fn opt_num_field(text: &str, key: &str) -> Result<Option<u64>, String> {
    let raw = raw_value(text, key)?;
    if raw.starts_with("null") {
        return Ok(None);
    }
    num_field(text, key).map(Some)
}

fn str_array_field(text: &str, key: &str) -> Result<Vec<String>, String> {
    let raw = raw_value(text, key)?;
    let inner = raw
        .strip_prefix('[')
        .ok_or_else(|| format!("field `{key}` is not an array"))?;
    let end = inner
        .find(']')
        .ok_or_else(|| format!("field `{key}`: unterminated array"))?;
    Ok(inner[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.trim_matches('"').to_owned())
        .collect())
}

fn parse_hex_u64(text: &str) -> Result<u64, String> {
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(digits, 16).map_err(|_| format!("bad fingerprint `{text}`"))
}
