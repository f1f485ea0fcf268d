//! Self-contained repro artifacts.
//!
//! An artifact is one file: a header line describing the scenario and the
//! violation classes it exhibits, followed by the run's full JSONL trace.
//! Everything needed to re-execute the counterexample travels in the
//! header (protocol, n, k, seed, inputs, faults, scheduler, injection), so
//! `btfuzz --replay <file>` can re-run the simulation from scratch and
//! confirm both the violations *and* the byte-identical trace. The trace
//! half additionally feeds [`obs::schedule_of`], which turns the recorded
//! `deliver` lines into a [`ScriptedScheduler`](simnet::scheduler::ScriptedScheduler)
//! script — the same offline-replay path the observability layer uses.

use obs::json::Json;

use crate::exec::{netstack_fault_plan, run_sim};
use crate::invariants::{check, classes, Violation};
use crate::scenario::Scenario;

/// Artifact format version; bump on incompatible header changes.
const VERSION: u64 = 1;

/// A parsed repro artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// The counterexample scenario.
    pub scenario: Scenario,
    /// Violation classes the scenario exhibited when recorded.
    pub classes: Vec<String>,
    /// The recorded JSONL trace (everything after the header line).
    pub trace: String,
}

/// Renders a repro artifact for a violating run.
#[must_use]
pub fn render(scenario: &Scenario, violations: &[Violation], trace: &str) -> String {
    let header = Json::Obj(vec![
        ("kind".into(), Json::str("btfuzz-repro")),
        ("version".into(), Json::num(VERSION)),
        ("scenario".into(), scenario.to_json()),
        (
            "violations".into(),
            Json::Arr(classes(violations).into_iter().map(Json::str).collect()),
        ),
        (
            "detail".into(),
            Json::Arr(
                violations
                    .iter()
                    .map(|v| Json::str(v.to_string()))
                    .collect(),
            ),
        ),
        // Informational, for a human reader: how the same scenario maps
        // onto the socket runtime, as `netstack::FaultPlan`'s spec string.
        // Nothing reads it back; replay rebuilds the plan from the
        // scenario.
        (
            "netstack_fault_plan".into(),
            Json::str(netstack_fault_plan(scenario).to_string()),
        ),
    ]);
    let mut out = header.render();
    out.push('\n');
    out.push_str(trace);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Parses an artifact produced by [`render`].
///
/// # Errors
///
/// Returns a message naming the first malformed header field.
pub fn parse(text: &str) -> Result<Repro, String> {
    let (first, rest) = text
        .split_once('\n')
        .ok_or("artifact needs a header line and a trace")?;
    let header = Json::parse(first).map_err(|e| format!("bad header: {}", e.message))?;
    match header.get("kind").and_then(Json::as_str) {
        Some("btfuzz-repro") => {}
        other => return Err(format!("not a btfuzz repro (kind {other:?})")),
    }
    match header.get("version").and_then(Json::as_u64) {
        Some(VERSION) => {}
        other => return Err(format!("unsupported artifact version {other:?}")),
    }
    let scenario = Scenario::from_json(header.get("scenario").ok_or("artifact needs a scenario")?)?;
    let class_list = match header.get("violations") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "violations must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("artifact needs a violations array".into()),
    };
    Ok(Repro {
        scenario,
        classes: class_list,
        trace: rest.to_string(),
    })
}

/// Re-executes a parsed artifact and confirms it reproduces: the fresh run
/// must exhibit exactly the recorded violation classes *and* a
/// byte-identical JSONL trace.
///
/// # Errors
///
/// Returns a message describing the first divergence.
pub fn verify_replay(repro: &Repro) -> Result<(), String> {
    let out = run_sim(&repro.scenario);
    let trace = obs::parse_trace(&out.trace).map_err(|e| format!("fresh trace: {}", e.message))?;
    let violations = check(&repro.scenario, &out.report, &trace);
    let fresh: Vec<String> = classes(&violations)
        .into_iter()
        .map(str::to_string)
        .collect();
    if fresh != repro.classes {
        return Err(format!(
            "violation classes diverged: recorded {:?}, replayed {:?}",
            repro.classes, fresh
        ));
    }
    if out.trace != repro.trace {
        return Err("trace diverged from the recorded artifact".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use simnet::Value;

    use super::*;
    use crate::scenario::{FaultSpec, Injection, OrderSpec, ProtoKind, SchedSpec};

    /// Finds the first seed whose run on lowered bars breaks agreement
    /// (not just the bars the oracle flags at once); the search is
    /// deterministic, so tests built on it are stable.
    fn violating_scenario() -> Scenario {
        let mut scenario = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 0,
            inputs: vec![Value::Zero, Value::One, Value::Zero, Value::One],
            faults: vec![FaultSpec::Correct; 4],
            sched: SchedSpec::Fair(OrderSpec::Random),
            step_limit: 200_000,
            inject: Some(Injection::broken_fig1_quorums()),
        };
        for seed in 0..500 {
            scenario.seed = seed;
            let out = run_sim(&scenario);
            let trace = obs::parse_trace(&out.trace).expect("trace parses");
            if classes(&check(&scenario, &out.report, &trace)).contains(&"disagreement") {
                return scenario;
            }
        }
        panic!("no seed below 500 disagrees — injection lost its teeth");
    }

    #[test]
    fn artifacts_round_trip_and_replay() {
        let scenario = violating_scenario();
        let out = run_sim(&scenario);
        let trace = obs::parse_trace(&out.trace).expect("trace parses");
        let violations = check(&scenario, &out.report, &trace);
        assert!(
            classes(&violations).contains(&"disagreement"),
            "injection must break agreement: {violations:?}"
        );

        let text = render(&scenario, &violations, &out.trace);
        let repro = parse(&text).expect("artifact parses");
        assert_eq!(repro.scenario, scenario);
        assert_eq!(
            repro.classes,
            classes(&violations)
                .into_iter()
                .map(str::to_string)
                .collect::<Vec<_>>()
        );
        verify_replay(&repro).expect("replay reproduces");
    }

    #[test]
    fn replay_detects_a_tampered_artifact() {
        let scenario = violating_scenario();
        let out = run_sim(&scenario);
        let trace = obs::parse_trace(&out.trace).expect("trace parses");
        let violations = check(&scenario, &out.report, &trace);
        let text = render(&scenario, &violations, &out.trace);
        let mut repro = parse(&text).expect("artifact parses");
        repro.scenario.seed ^= 1;
        assert!(verify_replay(&repro).is_err(), "seed tamper must be caught");
    }

    #[test]
    fn parse_rejects_foreign_headers() {
        assert!(parse("{\"kind\":\"something-else\"}\n").is_err());
        assert!(parse("not json\n{}").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn recorded_trace_feeds_the_scripted_replay_path() {
        let scenario = violating_scenario();
        let out = run_sim(&scenario);
        let trace = obs::parse_trace(&out.trace).expect("trace parses");
        let violations = check(&scenario, &out.report, &trace);
        let text = render(&scenario, &violations, &out.trace);
        let repro = parse(&text).expect("artifact parses");

        let lines = obs::parse_trace(&repro.trace).expect("recorded trace parses");
        let schedule = obs::schedule_of(&lines);
        assert!(!schedule.is_empty(), "trace carries a delivery schedule");
        let replayed = crate::exec::run_sim_scheduled(&repro.scenario, Some(schedule));
        assert_eq!(replayed.trace, repro.trace, "scripted replay is exact");
    }
}
