//! The `rx chaos` report: rows are read back from chaos-scenario traces,
//! every guarded violation kind lands in its own JSON field, and a clean
//! trace that lacks a record is a harness error, never a silent zero.

use reflex_sim::chaos::{chaos_row, render_chaos_json, ChaosReport, ChaosRow};
use reflex_sim::{Scenario, Sim, SimConfig, SimOutcome, Violation, ViolationKind};

/// A clean chaos outcome written by hand: five step records (step 1
/// degraded, two faults each), then the store and scrub records.
fn clean_outcome(seed: u64) -> SimOutcome {
    let config = SimConfig::new(Scenario::Chaos, seed);
    let mut trace = vec![format!(
        "sim scenario=chaos seed={seed} steps=5 fs_ppm=50000 panic_ppm=20000 disabled=[]"
    )];
    for step in 0..config.steps {
        trace.push(format!(
            "step {step} chaos kernel=k proved=3 crashed=0 degraded={} faults=2",
            step == 1
        ));
    }
    trace.push("chaos store retries=4 degraded=1 recovered=1".to_owned());
    trace.push("chaos scrub corrupted=1 scanned=30 quarantined=2 tmp_removed=1".to_owned());
    SimOutcome {
        steps_run: config.steps,
        config,
        trace,
        trace_fingerprint: 0x42,
        violation: None,
    }
}

/// A run that stopped at step 2 with a violation of `kind`.
fn violated_outcome(seed: u64, kind: ViolationKind) -> SimOutcome {
    let mut outcome = clean_outcome(seed);
    outcome.trace.truncate(3);
    outcome.trace.push(format!("violation {kind} step=2 test"));
    outcome.steps_run = 2;
    outcome.violation = Some(Violation {
        step: 2,
        kind,
        detail: "test".to_owned(),
    });
    outcome
}

#[test]
fn a_clean_trace_reads_back_every_counter() {
    let row = chaos_row(&clean_outcome(3)).expect("clean trace");
    assert_eq!(
        row,
        ChaosRow {
            seed: 3,
            trace_fingerprint: 0x42,
            faults_injected: 10,
            store_retries: 4,
            degraded_events: 1,
            recovered_events: 1,
            degraded_iterations: 1,
            corrupt_seeded: 1,
            scrub_scanned: 30,
            scrub_quarantined: 2,
            scrub_tmp_removed: 1,
            violation: None,
        }
    );
    let report = ChaosReport::from_outcomes(50_000, &[clean_outcome(0), clean_outcome(1)])
        .expect("clean traces");
    assert!(report.invariants_held());
    let json = render_chaos_json(&report);
    for field in [
        r#""invariants_held": true"#,
        r#""aborts": 0"#,
        r#""cert_mismatches": 0"#,
        r#""quarantine_escapes": 0"#,
        r#""total_faults": 20"#,
        r#""trace_fingerprint": "0x0000000000000042""#,
        r#""violation": null"#,
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
}

#[test]
fn each_guarded_violation_lands_in_its_field_and_breaks_the_invariant() {
    let guarded = [
        (ViolationKind::Abort, "aborts"),
        (ViolationKind::CertMismatch, "cert_mismatches"),
        (ViolationKind::QuarantineEscape, "quarantine_escapes"),
    ];
    for (kind, field) in guarded {
        let report =
            ChaosReport::from_outcomes(50_000, &[clean_outcome(0), violated_outcome(1, kind)])
                .expect("a violated run stops early; its missing records count as zero");
        assert_eq!(report.seeds_violating(kind), 1, "{kind}");
        assert!(!report.invariants_held(), "{kind}");
        assert_eq!(report.seeds[1].faults_injected, 4, "{kind}: two steps ran");
        let json = render_chaos_json(&report);
        assert!(json.contains(&format!("\"{field}\": 1")), "{kind}: {json}");
        for (_, other) in guarded.iter().filter(|(k, _)| *k != kind) {
            assert!(json.contains(&format!("\"{other}\": 0")), "{kind}: {json}");
        }
        assert!(
            json.contains(r#""invariants_held": false"#),
            "{kind}: {json}"
        );
        assert!(
            json.contains(&format!("\"violation\": \"{kind}\"")),
            "{kind}: {json}"
        );
    }
}

#[test]
fn an_injected_violation_through_the_simulator_fails_the_report() {
    let outcome = Sim::run(&SimConfig {
        inject_violation_at: Some(1),
        ..SimConfig::new(Scenario::Chaos, 0)
    });
    let report = ChaosReport::from_outcomes(50_000, &[outcome]).expect("chaos trace");
    assert_eq!(report.seeds[0].violation, Some(ViolationKind::Injected));
    assert!(!report.invariants_held());
    let json = render_chaos_json(&report);
    assert!(json.contains(r#""invariants_held": false"#), "{json}");
    assert!(json.contains(r#""violation": "injected""#), "{json}");
}

#[test]
fn a_clean_trace_missing_a_record_is_an_error() {
    for record in ["step 4 chaos ", "chaos store ", "chaos scrub "] {
        let mut outcome = clean_outcome(0);
        outcome.trace.retain(|line| !line.starts_with(record));
        let err = chaos_row(&outcome).expect_err(record);
        assert!(err.contains("clean chaos trace"), "{record}: {err}");
        assert!(ChaosReport::from_outcomes(50_000, &[outcome]).is_err());
    }

    let mut malformed = clean_outcome(0);
    *malformed.trace.last_mut().expect("scrub record") =
        "chaos scrub corrupted=1 scanned=many quarantined=2 tmp_removed=1".to_owned();
    let err = chaos_row(&malformed).expect_err("malformed counter");
    assert!(err.contains("scanned="), "{err}");

    let mut other = clean_outcome(0);
    other.config.scenario = Scenario::Watch;
    assert!(chaos_row(&other).is_err());
}
