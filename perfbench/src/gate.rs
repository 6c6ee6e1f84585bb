//! The correctness gate. A run whose outputs disagree with what is known
//! about its inputs prints no result and exits nonzero, however fast it
//! was. An expected failure (the injected false property) is a correct
//! answer, not an error.

use std::sync::Mutex;

use reflex_verify::Outcome;

use crate::gen::Verdict;

/// The verdict an outcome stands for; budget stops, cancellations and
/// crashes stand for none.
pub fn verdict_of(outcome: &Outcome) -> Option<Verdict> {
    match outcome {
        Outcome::Proved(_) => Some(Verdict::Proved),
        Outcome::Failed(_) => Some(Verdict::Failed),
        Outcome::Timeout(_) | Outcome::Cancelled(_) | Outcome::Crashed(_) => None,
    }
}

/// Checks that `got` reaches exactly the `expect`ed verdict for every
/// property, with no property missing or extra. Order does not matter.
pub fn compare_verdicts(
    kernel: &str,
    expect: &[(String, Verdict)],
    got: &[(String, Option<Verdict>)],
) -> Result<(), String> {
    let mut e: Vec<(&str, Verdict)> = expect.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut g: Vec<(&str, Option<Verdict>)> = got.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    e.sort_by_key(|(n, _)| *n);
    g.sort_by_key(|(n, _)| *n);
    if e.len() != g.len() || e.iter().zip(&g).any(|(a, b)| a.0 != b.0) {
        return Err(format!(
            "{kernel}: expected properties {:?}, got {:?}",
            e.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            g.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        ));
    }
    for ((name, want), (_, have)) in e.iter().zip(&g) {
        if Some(*want) != *have {
            return Err(format!(
                "{kernel}: property {name} should be {} but was {}",
                want.as_str(),
                have.map_or("undecided", Verdict::as_str)
            ));
        }
    }
    Ok(())
}

/// Collects gate failures from every thread of a run.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Mutex<Vec<String>>,
}

impl Gate {
    /// Records `result`'s error, if any; returns whether it passed.
    pub fn check(&self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    /// Records a failure.
    pub fn fail(&self, message: String) {
        self.failures.lock().expect("gate poisoned").push(message);
    }

    /// Every failure so far.
    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("gate poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn as_got(expect: &[(String, Verdict)]) -> Vec<(String, Option<Verdict>)> {
        expect.iter().map(|(n, v)| (n.clone(), Some(*v))).collect()
    }

    #[test]
    fn matching_verdicts_pass_in_any_order() {
        let k = gen::car_false();
        let mut got = as_got(&k.expect);
        got.reverse();
        assert_eq!(compare_verdicts("car", &k.expect, &got), Ok(()));
    }

    #[test]
    fn a_planted_wrong_paper_verdict_is_caught() {
        let k = &gen::paper_kernels()[0];
        let mut got = as_got(&k.expect);
        got[2].1 = Some(Verdict::Failed);
        let err = compare_verdicts(&k.name, &k.expect, &got).unwrap_err();
        assert!(err.contains(&got[2].0), "{err}");
    }

    #[test]
    fn a_false_property_that_proves_is_caught() {
        let k = gen::car_false();
        let got: Vec<_> = k
            .expect
            .iter()
            .map(|(n, _)| (n.clone(), Some(Verdict::Proved)))
            .collect();
        let err = compare_verdicts("car", &k.expect, &got).unwrap_err();
        assert!(err.contains(gen::CAR_FALSE_NAME), "{err}");
    }

    #[test]
    fn missing_undecided_and_extra_properties_are_caught() {
        let k = &gen::paper_kernels()[1];
        let mut got = as_got(&k.expect);
        got[0].1 = None;
        assert!(compare_verdicts(&k.name, &k.expect, &got).is_err());
        let mut short = as_got(&k.expect);
        short.pop();
        assert!(compare_verdicts(&k.name, &k.expect, &short).is_err());
        let mut extra = as_got(&k.expect);
        extra.push(("Bogus".into(), Some(Verdict::Proved)));
        assert!(compare_verdicts(&k.name, &k.expect, &extra).is_err());
    }
}
