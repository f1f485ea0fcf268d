//! Greedy delta-debugging: reduce a violating scenario to a minimal one
//! that still exhibits the same violation classes.
//!
//! The reducer walks a fixed ladder of simplifications — drop faults, then
//! tame the scheduler, then flatten inputs, then remove processes — and
//! re-runs the simulator after each candidate edit, keeping the edit only
//! when the *class set* of violations (see [`classes`]) is preserved. It
//! iterates to a fixpoint or until the run budget is spent. Because every
//! probe is a deterministic simulation, the result is reproducible from
//! the shrunk scenario alone.

use crate::exec::run_sim;
use crate::invariants::{check, classes, Violation};
use crate::scenario::{FaultSpec, OrderSpec, ProtoKind, Scenario, SchedSpec};

/// Default probe budget: plenty for the ladder to reach a fixpoint on the
/// small configurations the generator emits (n ≤ 8 ⇒ a full pass is a few
/// dozen runs).
pub const DEFAULT_SHRINK_RUNS: usize = 300;

/// The result of a shrink: the minimal scenario found and its violations.
#[derive(Clone, Debug)]
pub struct Shrunk {
    /// The smallest scenario still violating the original classes.
    pub scenario: Scenario,
    /// The violations that scenario produces.
    pub violations: Vec<Violation>,
    /// Accepted simplification steps.
    pub steps: usize,
    /// Simulator runs spent probing candidates.
    pub runs: usize,
}

/// Runs a candidate and returns its violations when they cover every
/// target class; `None` means the candidate lost the bug.
fn probe(candidate: &Scenario, target: &[&'static str]) -> Option<Vec<Violation>> {
    let out = run_sim(candidate);
    let trace = obs::parse_trace(&out.trace).ok()?;
    let violations = check(candidate, &out.report, &trace);
    let found = classes(&violations);
    target
        .iter()
        .all(|class| found.contains(class))
        .then_some(violations)
}

/// Candidate scheduler simplifications, strictly tamer than `current`.
fn tamer_schedulers(current: &SchedSpec) -> Vec<SchedSpec> {
    let ladder = [
        SchedSpec::Fair(OrderSpec::Fifo),
        SchedSpec::Fair(OrderSpec::Random),
    ];
    match current {
        SchedSpec::Partition { left, .. } => {
            let mut out = vec![SchedSpec::Delaying(left.clone())];
            out.extend(ladder);
            out
        }
        SchedSpec::Delaying(_) => ladder.to_vec(),
        SchedSpec::Fair(OrderSpec::Lifo | OrderSpec::Random) => {
            vec![SchedSpec::Fair(OrderSpec::Fifo)]
        }
        SchedSpec::Fair(OrderSpec::Fifo) => Vec::new(),
    }
}

/// Drops the last process, clamping `k` and every index-bearing field to
/// the smaller ring. Returns `None` when the result would violate the
/// protocol's resilience precondition.
fn drop_last_process(s: &Scenario) -> Option<Scenario> {
    let n = s.n - 1;
    if n < 2 {
        return None;
    }
    let k = s.k.min(ProtoKind::k_bound(s.proto, n));
    if k == 0 {
        return None;
    }
    let mut out = s.clone();
    out.n = n;
    out.k = k;
    out.inputs.truncate(n);
    out.faults.truncate(n);
    out.sched = match &s.sched {
        SchedSpec::Fair(order) => SchedSpec::Fair(*order),
        SchedSpec::Delaying(victims) => {
            SchedSpec::Delaying(victims.iter().copied().filter(|&v| v < n).collect())
        }
        SchedSpec::Partition {
            left,
            epoch_len,
            heal_every,
        } => SchedSpec::Partition {
            left: left.iter().copied().filter(|&v| v < n).collect(),
            epoch_len: *epoch_len,
            heal_every: *heal_every,
        },
    };
    Some(out)
}

/// Shrinks `initial` (which must already violate) to a minimal scenario
/// preserving `target` violation classes, within `max_runs` probes.
#[must_use]
pub fn shrink(initial: &Scenario, target: &[&'static str], max_runs: usize) -> Shrunk {
    let mut best = initial.clone();
    let mut best_violations = probe(&best, target).unwrap_or_default();
    let mut steps = 0usize;
    let mut runs = 1usize;

    let try_adopt = |best: &mut Scenario,
                     best_violations: &mut Vec<Violation>,
                     steps: &mut usize,
                     runs: &mut usize,
                     candidate: Scenario|
     -> bool {
        if *runs >= max_runs || candidate == *best {
            return false;
        }
        *runs += 1;
        if let Some(violations) = probe(&candidate, target) {
            *best = candidate;
            *best_violations = violations;
            *steps += 1;
            true
        } else {
            false
        }
    };

    loop {
        let mut improved = false;

        // 1. Faults: try erasing each fault entirely, then weakening the
        //    exotic ones to plain silence.
        for i in 0..best.n {
            if best.faults[i] == FaultSpec::Correct {
                continue;
            }
            let mut candidate = best.clone();
            candidate.faults[i] = FaultSpec::Correct;
            if try_adopt(
                &mut best,
                &mut best_violations,
                &mut steps,
                &mut runs,
                candidate,
            ) {
                improved = true;
                continue;
            }
            if best.faults[i] != FaultSpec::Silent {
                let mut candidate = best.clone();
                candidate.faults[i] = FaultSpec::Silent;
                improved |= try_adopt(
                    &mut best,
                    &mut best_violations,
                    &mut steps,
                    &mut runs,
                    candidate,
                );
            }
        }

        // 2. Scheduler: step down the ladder toward plain FIFO fairness.
        for sched in tamer_schedulers(&best.sched) {
            let mut candidate = best.clone();
            candidate.sched = sched;
            if try_adopt(
                &mut best,
                &mut best_violations,
                &mut steps,
                &mut runs,
                candidate,
            ) {
                improved = true;
                break;
            }
        }

        // 3. Inputs: flatten toward all-zero, one process at a time.
        for i in 0..best.n {
            if best.inputs[i] == simnet::Value::Zero {
                continue;
            }
            let mut candidate = best.clone();
            candidate.inputs[i] = simnet::Value::Zero;
            improved |= try_adopt(
                &mut best,
                &mut best_violations,
                &mut steps,
                &mut runs,
                candidate,
            );
        }

        // 4. Ring size: drop trailing processes while the bounds allow.
        while let Some(candidate) = drop_last_process(&best) {
            if !try_adopt(
                &mut best,
                &mut best_violations,
                &mut steps,
                &mut runs,
                candidate,
            ) {
                break;
            }
            improved = true;
        }

        if !improved || runs >= max_runs {
            break;
        }
    }

    Shrunk {
        scenario: best,
        violations: best_violations,
        steps,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use simnet::Value;

    use super::*;
    use crate::scenario::Injection;

    /// Whether the run of `scenario` breaks agreement — the consequence
    /// the shrinker must keep, not the lowered bars the oracle flags at
    /// once.
    fn disagrees(scenario: &Scenario) -> bool {
        let out = run_sim(scenario);
        let trace = obs::parse_trace(&out.trace).expect("trace parses");
        classes(&check(scenario, &out.report, &trace)).contains(&"disagreement")
    }

    /// A deliberately broken fail-stop config (thresholds ablated to 1)
    /// under an adversarial scheduler. The correct processes start with
    /// two `Zero`s and three `One`s, so quota windows of four can hold
    /// either majority, and processes that see different ones decide
    /// differently. The
    /// shrinker must strip the decorations and keep the disagreement.
    /// Seed search is deterministic, so the returned scenario is stable.
    fn broken_scenario() -> Scenario {
        let mut scenario = Scenario {
            proto: ProtoKind::FailStop,
            n: 6,
            k: 2,
            seed: 0,
            inputs: vec![
                Value::Zero,
                Value::One,
                Value::Zero,
                Value::One,
                Value::One,
                Value::One,
            ],
            faults: vec![
                FaultSpec::Correct,
                FaultSpec::Correct,
                FaultSpec::Correct,
                FaultSpec::Correct,
                FaultSpec::Correct,
                FaultSpec::Silent,
            ],
            sched: SchedSpec::Partition {
                left: vec![0, 1, 2],
                epoch_len: 8,
                heal_every: 3,
            },
            step_limit: 200_000,
            inject: Some(Injection::broken_fig1_quorums()),
        };
        for seed in 0..500 {
            scenario.seed = seed;
            if disagrees(&scenario) {
                return scenario;
            }
        }
        panic!("no seed below 500 disagrees — injection lost its teeth");
    }

    #[test]
    fn shrinking_a_broken_run_keeps_the_violation_and_simplifies() {
        let initial = broken_scenario();
        let target = ["disagreement"];

        let shrunk = shrink(&initial, &target, DEFAULT_SHRINK_RUNS);
        assert!(
            classes(&shrunk.violations).contains(&"disagreement"),
            "shrink lost the disagreement: {:?}",
            shrunk.violations
        );
        assert!(shrunk.steps > 0, "nothing simplified at all");
        // Structural minimality: no faults left, mild scheduler, small ring.
        assert!(shrunk.scenario.n <= initial.n);
        assert!(
            shrunk.scenario.faults.iter().all(|f| !f.is_faulty()),
            "faults should shrink away: {:?}",
            shrunk.scenario.faults
        );
        // The ladder must at least trade the partition away; whether it
        // reaches plain fairness depends on where the disagreement
        // survives, so don't over-constrain.
        assert!(
            !matches!(shrunk.scenario.sched, SchedSpec::Partition { .. }),
            "scheduler should step down the ladder: {:?}",
            shrunk.scenario.sched
        );
        // And the shrunk scenario reproduces deterministically.
        let replay = run_sim(&shrunk.scenario);
        let replay_trace = obs::parse_trace(&replay.trace).expect("trace parses");
        assert_eq!(
            check(&shrunk.scenario, &replay.report, &replay_trace),
            shrunk.violations
        );
    }

    #[test]
    fn shrink_on_an_already_small_scenario_stays_within_bounds() {
        // Near-minimal to begin with: n=4, k=1, no faults, fair random
        // scheduling, split inputs. Seed-search for a disagreeing
        // instance, then check the shrinker never grows anything.
        let mut s = broken_scenario();
        s.n = 4;
        s.k = 1;
        s.inputs = vec![Value::Zero, Value::One, Value::Zero, Value::One];
        s.faults = vec![FaultSpec::Correct; 4];
        s.sched = SchedSpec::Fair(OrderSpec::Random);
        s.seed = 0;
        while !disagrees(&s) {
            s.seed += 1;
            assert!(s.seed < 500, "no disagreeing seed found");
        }
        let shrunk = shrink(&s, &["disagreement"], DEFAULT_SHRINK_RUNS);
        assert!(shrunk.scenario.n <= s.n);
        assert!(shrunk.scenario.faults.iter().all(|f| !f.is_faulty()));
        assert!(shrunk.runs <= DEFAULT_SHRINK_RUNS);
        assert!(classes(&shrunk.violations).contains(&"disagreement"));
    }
}
