//! The fuzz loop: draw scenarios, run them, check invariants, shrink and
//! package the first counterexample.
//!
//! Two modes share the loop:
//!
//! - **clean** (default): scenarios are drawn as generated; any violation
//!   is a bug in the tree. Every `netstack_every`-th clean, injection-free,
//!   unanimous-input scenario is additionally run over loopback TCP and
//!   held to the same decision properties — a divergence between runtimes
//!   is reported like any other finding.
//! - **inject**: every scenario is rewritten to run the deliberately
//!   ablated fail-stop protocol with split inputs. The harness must find a
//!   violation quickly, shrink it, and produce a replayable artifact —
//!   this is the fuzzer's own end-to-end self test.

use std::time::{Duration, Instant};

use prng::Prng;
use simnet::Value;

use crate::artifact;
use crate::exec::{run_netstack, run_sim, NetMode};
use crate::invariants::{check, classes, Violation};
use crate::scenario::{Injection, ProtoKind, Scenario};
use crate::shrink::{shrink, Shrunk, DEFAULT_SHRINK_RUNS};

/// What kind of counterexample the fuzzer found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A simulated run broke the invariant suite.
    SimViolation,
    /// The socket runtime diverged from the decision properties on a
    /// scenario the simulator ran clean.
    NetstackDivergence,
}

/// The first counterexample found, fully packaged.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which runtime misbehaved.
    pub kind: FindingKind,
    /// Zero-based fuzz case number (useful with the master seed).
    pub case: u64,
    /// The scenario as originally drawn.
    pub scenario: Scenario,
    /// Violations of the original scenario.
    pub violations: Vec<Violation>,
    /// The shrunk counterexample (simulated findings only — netstack
    /// divergence is wall-clock dependent and not shrunk).
    pub shrunk: Option<Shrunk>,
    /// Self-contained repro artifact (header + JSONL trace) for the
    /// minimal scenario.
    pub artifact: String,
}

/// Fuzz loop configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed: determines every scenario drawn.
    pub seed: u64,
    /// Wall-clock budget; the loop stops at the first case past it.
    pub budget: Option<Duration>,
    /// Hard cap on cases (applies alongside the budget).
    pub max_cases: u64,
    /// Whether to cross-check scenarios on the socket runtime.
    pub netstack: bool,
    /// Run netstack on every this-many-th eligible case.
    pub netstack_every: u64,
    /// Per-cluster verdict deadline for netstack runs.
    pub netstack_timeout: Duration,
    /// Deliberate defect to inject into every scenario (self-test mode).
    pub inject: Option<Injection>,
    /// Probe budget for the shrinker.
    pub shrink_runs: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xB70F_2261,
            budget: None,
            max_cases: 500,
            netstack: true,
            netstack_every: 16,
            netstack_timeout: Duration::from_secs(30),
            inject: None,
            shrink_runs: DEFAULT_SHRINK_RUNS,
        }
    }
}

/// Outcome of a fuzz session.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Simulated cases executed.
    pub cases: u64,
    /// Loopback-cluster cross-checks executed.
    pub netstack_runs: u64,
    /// The first counterexample, if any.
    pub finding: Option<Finding>,
}

/// Rewrites a drawn scenario for injection mode: the ablated fail-stop
/// protocol with a lone dissenting input, so the planted bug surfaces
/// within a handful of cases instead of thousands.
///
/// The input shape matters: the ablated decision loop scans values in a
/// fixed order, so with *balanced* split inputs every quota window
/// contains the preferred value and the broken protocol accidentally
/// agrees. One `Zero` among `One`s gives each process a real chance of a
/// window with and without the dissent — a disagreement.
fn apply_injection(mut scenario: Scenario, inject: Injection) -> Scenario {
    scenario.proto = ProtoKind::FailStop;
    scenario.inject = Some(inject);
    scenario.inputs = vec![Value::One; scenario.n];
    let dissenter = (0..scenario.n)
        .find(|&i| !scenario.faults[i].is_faulty())
        .expect("generator leaves a correct majority");
    scenario.inputs[dissenter] = Value::Zero;
    scenario
}

/// Packages a violating scenario: shrink it, re-run the minimum for its
/// trace, and render the artifact.
fn package(
    case: u64,
    scenario: Scenario,
    violations: Vec<Violation>,
    shrink_runs: usize,
) -> Finding {
    let target = classes(&violations);
    let shrunk = shrink(&scenario, &target, shrink_runs);
    let minimal_out = run_sim(&shrunk.scenario);
    let artifact = artifact::render(&shrunk.scenario, &shrunk.violations, &minimal_out.trace);
    Finding {
        kind: FindingKind::SimViolation,
        case,
        scenario,
        violations,
        shrunk: Some(shrunk),
        artifact,
    }
}

/// Runs the fuzz loop until a finding, the case cap, or the wall-clock
/// budget — whichever comes first. `progress` receives occasional
/// human-readable status lines.
pub fn fuzz(config: &FuzzConfig, mut progress: impl FnMut(&str)) -> FuzzOutcome {
    let started = Instant::now();
    let mut rng = Prng::seed_from_u64(config.seed);
    let mut netstack_runs = 0u64;
    let mut eligible = 0u64;

    for case in 0..config.max_cases {
        if let Some(budget) = config.budget {
            if started.elapsed() >= budget {
                progress(&format!("budget exhausted after {case} cases"));
                return FuzzOutcome {
                    cases: case,
                    netstack_runs,
                    finding: None,
                };
            }
        }

        let mut scenario = Scenario::generate(&mut rng);
        if let Some(inject) = config.inject {
            scenario = apply_injection(scenario, inject);
        }

        let out = run_sim(&scenario);
        let trace = match obs::parse_trace(&out.trace) {
            Ok(lines) => lines,
            Err(e) => {
                // A trace the sink wrote but the parser rejects is itself a
                // harness bug; surface it loudly rather than skipping.
                panic!("case {case}: unparseable trace: {}", e.message);
            }
        };
        let violations = check(&scenario, &out.report, &trace);
        if !violations.is_empty() {
            progress(&format!(
                "case {case}: {} violation(s) [{}] in {}",
                violations.len(),
                classes(&violations).join(", "),
                scenario.describe()
            ));
            let finding = package(case, scenario, violations, config.shrink_runs);
            return FuzzOutcome {
                cases: case + 1,
                netstack_runs,
                finding: Some(finding),
            };
        }

        // Cross-runtime conformance: unanimous clean scenarios must decide
        // the unanimous value on the socket runtime too. Alternating
        // cross-checks add a seed-derived crash-restart schedule: a
        // correct node is SIGKILL-equivalent killed mid-run and restarted
        // from its WAL, and the run must *still* satisfy the decision
        // properties — plus observe zero equivocations.
        if config.netstack && scenario.inject.is_none() && scenario.unanimous_input().is_some() {
            eligible += 1;
            if eligible % config.netstack_every == 1 {
                let mode = if (eligible / config.netstack_every) % 2 == 1 {
                    NetMode::Crash
                } else {
                    NetMode::Plain
                };
                if let Some(net) = run_netstack(&scenario, config.netstack_timeout, mode) {
                    netstack_runs += 1;
                    let net_violations = net.violations(&scenario);
                    if !net_violations.is_empty() {
                        progress(&format!(
                            "case {case}: netstack diverged [{}] in {}",
                            classes(&net_violations).join(", "),
                            scenario.describe()
                        ));
                        let artifact = artifact::render(&scenario, &net_violations, &out.trace);
                        return FuzzOutcome {
                            cases: case + 1,
                            netstack_runs,
                            finding: Some(Finding {
                                kind: FindingKind::NetstackDivergence,
                                case,
                                scenario,
                                violations: net_violations,
                                shrunk: None,
                                artifact,
                            }),
                        };
                    }
                }
            }
        }

        if (case + 1) % 100 == 0 {
            progress(&format!(
                "{} cases clean ({netstack_runs} netstack cross-checks)",
                case + 1
            ));
        }
    }

    FuzzOutcome {
        cases: config.max_cases,
        netstack_runs,
        finding: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unmodified tree must survive a decent clean sweep: this is the
    /// fuzzer's steady-state contract (and the reason a CI hit is a bug).
    #[test]
    fn clean_tree_survives_a_fuzz_sweep() {
        let config = FuzzConfig {
            max_cases: 60,
            netstack: false, // covered by the conformance integration test
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&config, |_| {});
        assert_eq!(outcome.cases, 60);
        assert!(
            outcome.finding.is_none(),
            "clean tree violated: {:?}",
            outcome.finding
        );
    }

    /// The end-to-end self test the issue demands: plant a broken quorum
    /// rule, and the fuzzer must find it, shrink it, and emit an artifact
    /// that replays deterministically.
    #[test]
    fn injected_defect_is_found_shrunk_and_replayable() {
        let config = FuzzConfig {
            max_cases: 50,
            netstack: false,
            inject: Some(Injection::WeakenFailStop {
                witness_slack: 100,
                decide_slack: 100,
            }),
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&config, |_| {});
        let finding = outcome.finding.expect("injected defect must be found");
        assert_eq!(finding.kind, FindingKind::SimViolation);
        let shrunk = finding.shrunk.as_ref().expect("sim findings shrink");
        assert!(shrunk.scenario.n <= finding.scenario.n);
        assert!(
            shrunk.scenario.faults.iter().all(|f| !f.is_faulty()),
            "minimal repro should not need faults: {:?}",
            shrunk.scenario.faults
        );

        let repro = artifact::parse(&finding.artifact).expect("artifact parses");
        artifact::verify_replay(&repro).expect("artifact replays deterministically");
    }

    /// Same master seed ⇒ same finding, bit for bit — the property that
    /// makes a CI failure reproducible on a laptop.
    #[test]
    fn findings_are_deterministic_in_the_master_seed() {
        let config = FuzzConfig {
            max_cases: 50,
            netstack: false,
            inject: Some(Injection::WeakenFailStop {
                witness_slack: 100,
                decide_slack: 100,
            }),
            ..FuzzConfig::default()
        };
        let a = fuzz(&config, |_| {});
        let b = fuzz(&config, |_| {});
        let (fa, fb) = (a.finding.expect("found"), b.finding.expect("found"));
        assert_eq!(fa.case, fb.case);
        assert_eq!(fa.scenario, fb.scenario);
        assert_eq!(fa.artifact, fb.artifact);
    }
}
