//! Multi-slot fuzzing: seeded replicated-log scenarios under the
//! simulator, checked against log-level invariants.
//!
//! The one-shot [`Scenario`](crate::scenario::Scenario) pipeline fuzzes a
//! *single* consensus instance; the `rsm` crate composes instances into a
//! replicated log, which has its own properties to break — per-slot
//! agreement, gap-freedom, batch provenance, and exactly-once command
//! application. A [`MultiSlotScenario`] pins everything such a run depends
//! on (system size, pipelining/batching knobs, per-replica preloaded
//! command streams including deliberate cross-replica duplicates, schedule
//! adversary, seed) and [`run_multislot`] executes it deterministically in
//! `simnet`, so any violation replays bit-for-bit from the scenario JSON.
//!
//! The class is deliberately minimal: all replicas are correct (the log's
//! availability follows its leaders — a silent leader legitimately stalls
//! the apply loop, so fault injection here would fuzz an intended
//! property). What varies is load shape and delivery order, which is where
//! the pipelining/gap-fill/dedup machinery can actually get it wrong.

use obs::json::Json;
use prng::Prng;
use rsm::{leader, AppliedState, Command, LogView, Op, Replica, RsmOptions};
use simnet::{ProcessId, Role, Sim, StopWhen};

use crate::scenario::{OrderSpec, SchedSpec};

/// One fully-specified multi-slot fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiSlotScenario {
    /// System size.
    pub n: usize,
    /// Resilience parameter of the underlying Figure 2 instances.
    pub k: usize,
    /// Seed for the simulator run.
    pub seed: u64,
    /// Pipeline window (replica option).
    pub window: u64,
    /// Batch cap (replica option).
    pub max_batch: usize,
    /// Commands preloaded into each replica's pending queue.
    pub loads: Vec<Vec<Command>>,
    /// The schedule adversary.
    pub sched: SchedSpec,
    /// Step budget; hitting it counts as non-convergence.
    pub step_limit: u64,
}

/// A log-level invariant breach found in one multi-slot run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiSlotViolation {
    /// The run hit its step limit before going quiescent.
    NoConvergence {
        /// Steps executed when the budget ran out.
        steps: u64,
    },
    /// Two replicas' applied logs differ (in length or in some entry) —
    /// per-slot agreement is broken.
    LogMismatch {
        /// First replica.
        a: usize,
        /// Second replica.
        b: usize,
        /// First differing slot (or the shorter log's length).
        slot: u64,
    },
    /// A replica's log skips or reorders a slot index.
    LogGap {
        /// The replica.
        pid: usize,
        /// Position in the log where the slot index is wrong.
        index: usize,
    },
    /// A slot's batch contains a command its leader was never given —
    /// validity at the log level (commands cannot be fabricated).
    ForeignCommand {
        /// The replica whose log holds the entry.
        pid: usize,
        /// The offending slot.
        slot: u64,
    },
    /// A preloaded `(client, request)` was applied zero or multiple times.
    ExactlyOnceBroken {
        /// The client id.
        client: u64,
        /// The request id.
        request: u64,
        /// How many times it appears across applied (non-deduped) slots.
        times: u64,
    },
    /// Replicas disagree on the chained log digest despite equal logs —
    /// the digest itself is broken.
    DigestMismatch {
        /// First replica.
        a: usize,
        /// Second replica.
        b: usize,
    },
}

impl MultiSlotViolation {
    /// Stable short name for the violation's class.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            MultiSlotViolation::NoConvergence { .. } => "no-convergence",
            MultiSlotViolation::LogMismatch { .. } => "log-mismatch",
            MultiSlotViolation::LogGap { .. } => "log-gap",
            MultiSlotViolation::ForeignCommand { .. } => "foreign-command",
            MultiSlotViolation::ExactlyOnceBroken { .. } => "exactly-once",
            MultiSlotViolation::DigestMismatch { .. } => "digest-mismatch",
        }
    }
}

impl std::fmt::Display for MultiSlotViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiSlotViolation::NoConvergence { steps } => {
                write!(f, "no convergence within {steps} steps")
            }
            MultiSlotViolation::LogMismatch { a, b, slot } => {
                write!(f, "replicas p{a} and p{b} disagree at slot {slot}")
            }
            MultiSlotViolation::LogGap { pid, index } => {
                write!(f, "replica p{pid} has a gap/reorder at log index {index}")
            }
            MultiSlotViolation::ForeignCommand { pid, slot } => {
                write!(
                    f,
                    "replica p{pid} slot {slot} carries a command its leader never received"
                )
            }
            MultiSlotViolation::ExactlyOnceBroken {
                client,
                request,
                times,
            } => write!(
                f,
                "command ({client}, {request}) applied {times} time(s), expected exactly one"
            ),
            MultiSlotViolation::DigestMismatch { a, b } => {
                write!(f, "replicas p{a} and p{b} computed different log digests")
            }
        }
    }
}

impl MultiSlotScenario {
    /// Draws a random multi-slot scenario: 4–7 all-correct replicas, a
    /// window of 1–8 slots, batches of 1–8 commands, and per-replica
    /// command streams where one client's stream is sometimes duplicated
    /// onto a second replica (the resubmitted-elsewhere client the dedup
    /// watermark exists for).
    pub fn generate(rng: &mut Prng) -> MultiSlotScenario {
        let n = 4 + rng.index(4); // 4..=7
        let k = bt_core::Config::max_malicious_k(n);
        let window = 1 + rng.below_u64(8);
        let max_batch = 1 + rng.index(8);

        // Small key alphabet so streams overwrite each other; values carry
        // the writer so "last writer wins identically everywhere" is
        // checkable through the kv map (via the digest).
        let mut loads: Vec<Vec<Command>> = (0..n)
            .map(|i| {
                let count = rng.index(13) as u64; // 0..=12
                (1..=count)
                    .map(|request| {
                        let client = i as u64 + 1;
                        let op = match rng.index(5) {
                            0 => Op::Del {
                                key: vec![b'a' + rng.index(4) as u8],
                            },
                            1 => Op::Noop,
                            _ => Op::Put {
                                key: vec![b'a' + rng.index(4) as u8],
                                value: format!("c{client}r{request}").into_bytes(),
                            },
                        };
                        Command {
                            client,
                            request,
                            op,
                        }
                    })
                    .collect()
            })
            .collect();
        // Duplicate one replica's stream onto another about half the time.
        if rng.coin() {
            let from = rng.index(n);
            let to = (from + 1 + rng.index(n - 1)) % n;
            let dup = loads[from].clone();
            loads[to].extend(dup);
        }

        let sched = match rng.index(6) {
            0 | 1 => SchedSpec::Fair(OrderSpec::Random),
            2 => SchedSpec::Fair(OrderSpec::Fifo),
            3 => SchedSpec::Fair(OrderSpec::Lifo),
            _ => {
                let count = 1 + rng.index(2.min(n - 1));
                let mut victims: Vec<usize> = Vec::new();
                while victims.len() < count {
                    let v = rng.index(n);
                    if !victims.contains(&v) {
                        victims.push(v);
                    }
                }
                victims.sort_unstable();
                SchedSpec::Delaying(victims)
            }
        };

        MultiSlotScenario {
            n,
            k,
            seed: rng.next_u64(),
            window,
            max_batch,
            loads,
            sched,
            step_limit: 2_000_000,
        }
    }

    /// Serializes to a repro-artifact JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let load_json = |cmds: &[Command]| {
            Json::Arr(
                cmds.iter()
                    .map(|c| {
                        let (kind, key, value) = match &c.op {
                            Op::Put { key, value } => ("put", key.clone(), value.clone()),
                            Op::Del { key } => ("del", key.clone(), Vec::new()),
                            Op::Noop => ("noop", Vec::new(), Vec::new()),
                        };
                        Json::Obj(vec![
                            ("client".into(), Json::num(c.client)),
                            ("request".into(), Json::num(c.request)),
                            ("op".into(), Json::str(kind)),
                            (
                                "key".into(),
                                Json::str(String::from_utf8_lossy(&key).into_owned()),
                            ),
                            (
                                "value".into(),
                                Json::str(String::from_utf8_lossy(&value).into_owned()),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("kind".into(), Json::str("multislot")),
            ("n".into(), Json::num(self.n as u64)),
            ("k".into(), Json::num(self.k as u64)),
            ("seed".into(), Json::num(self.seed)),
            ("window".into(), Json::num(self.window)),
            ("max_batch".into(), Json::num(self.max_batch as u64)),
            (
                "loads".into(),
                Json::Arr(self.loads.iter().map(|l| load_json(l)).collect()),
            ),
            ("sched".into(), self.sched.to_json()),
            ("step_limit".into(), Json::num(self.step_limit)),
        ])
    }

    /// A compact one-line human description.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "multislot n={} k={} seed={:#018x} window={} max_batch={} loads={:?} sched={:?}",
            self.n,
            self.k,
            self.seed,
            self.window,
            self.max_batch,
            self.loads.iter().map(Vec::len).collect::<Vec<_>>(),
            self.sched,
        )
    }
}

/// The observables of one multi-slot run: steps consumed and every
/// replica's applied state.
#[derive(Debug)]
pub struct MultiSlotOutcome {
    /// Steps the simulator executed (== `step_limit` means it never went
    /// quiescent).
    pub steps: u64,
    /// Per-replica applied state at the end of the run.
    pub states: Vec<AppliedState>,
}

/// Runs the scenario to quiescence (or the step limit) in the simulator.
///
/// # Panics
///
/// Panics if the scenario's `(n, k)` violate the Figure 2 bound —
/// generated scenarios never do.
#[must_use]
pub fn run_multislot(scenario: &MultiSlotScenario) -> MultiSlotOutcome {
    let config = bt_core::Config::malicious(scenario.n, scenario.k).expect("generator bound");
    let opts = RsmOptions {
        window: scenario.window,
        max_batch: scenario.max_batch,
    };
    let views: Vec<LogView> = (0..scenario.n).map(|_| LogView::new()).collect();
    let mut builder = Sim::builder();
    for (i, cmds) in scenario.loads.iter().enumerate() {
        let replica = Replica::new(config, ProcessId::new(i), opts)
            .with_view(views[i].clone())
            .with_preload(cmds.clone());
        builder.process(Box::new(replica), Role::Correct);
    }
    builder.scheduler(crate::exec::build_scheduler::<rsm::RsmMsg>(
        scenario.n,
        &scenario.sched,
    ));
    let report = builder
        .seed(scenario.seed)
        .stop_when(StopWhen::Never)
        .step_limit(scenario.step_limit)
        .build()
        .run();
    MultiSlotOutcome {
        steps: report.steps,
        states: views.iter().map(LogView::snapshot).collect(),
    }
}

/// Checks the log-level invariant suite against one run's outcome.
#[must_use]
pub fn check_multislot(
    scenario: &MultiSlotScenario,
    outcome: &MultiSlotOutcome,
) -> Vec<MultiSlotViolation> {
    let mut violations = Vec::new();
    if outcome.steps >= scenario.step_limit {
        violations.push(MultiSlotViolation::NoConvergence {
            steps: outcome.steps,
        });
        // A stalled run's logs are legitimately short; the remaining
        // checks would only echo the stall.
        return violations;
    }

    // Gap-freedom, per replica.
    for (pid, s) in outcome.states.iter().enumerate() {
        for (index, e) in s.log.iter().enumerate() {
            if e.slot != index as u64 {
                violations.push(MultiSlotViolation::LogGap { pid, index });
                break;
            }
        }
    }

    // Per-slot agreement: all logs identical, then digests identical.
    for b in 1..outcome.states.len() {
        let (la, lb) = (&outcome.states[0].log, &outcome.states[b].log);
        if la != lb {
            let slot = la
                .iter()
                .zip(lb.iter())
                .position(|(x, y)| x != y)
                .unwrap_or(la.len().min(lb.len())) as u64;
            violations.push(MultiSlotViolation::LogMismatch { a: 0, b, slot });
        } else if outcome.states[0].digest() != outcome.states[b].digest() {
            violations.push(MultiSlotViolation::DigestMismatch { a: 0, b });
        }
    }

    // Batch provenance: every command in slot s was preloaded into the
    // queue of s's leader.
    for (pid, s) in outcome.states.iter().enumerate() {
        for e in &s.log {
            let lead = leader(e.slot, scenario.n).index();
            if e.commands.iter().any(|c| !scenario.loads[lead].contains(c)) {
                violations.push(MultiSlotViolation::ForeignCommand { pid, slot: e.slot });
            }
        }
    }

    // Exactly-once: each distinct preloaded (client, request) appears
    // exactly once in the applied log (watermark semantics: only the
    // highest-request duplicate's *first* appearance applies; appearing
    // in a later slot's batch again is fine as long as apply skipped it —
    // so count via applied_commands-style accounting: the log stores full
    // batches, dedup happens at apply time. We therefore check the KV
    // effect instead: applied_commands equals the distinct count, on
    // every replica.)
    let mut distinct: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    for load in &scenario.loads {
        for c in load {
            distinct.insert((c.client, c.request));
        }
    }
    for s in &outcome.states {
        if s.applied_commands != distinct.len() as u64 {
            // Find a concrete witness for the report: a pair applied not
            // exactly once, judged by the per-client watermark the state
            // machine keeps.
            let witness = distinct
                .iter()
                .find(|&&(client, request)| !s.is_complete(client, request))
                .copied();
            let (client, request) = witness.unwrap_or((0, 0));
            violations.push(MultiSlotViolation::ExactlyOnceBroken {
                client,
                request,
                times: if witness.is_some() { 0 } else { 2 },
            });
            break;
        }
    }

    violations
}

/// Sweep outcome: cases run and the first violating case, if any.
#[derive(Debug)]
pub struct MultiSlotSweep {
    /// Cases executed.
    pub cases: u64,
    /// The first violating scenario with its violations, if any.
    pub finding: Option<(MultiSlotScenario, Vec<MultiSlotViolation>)>,
}

/// Runs `max_cases` generated multi-slot scenarios (stopping early on a
/// wall-clock `budget` if given), reporting the first violation.
pub fn fuzz_multislot(
    seed: u64,
    max_cases: u64,
    budget: Option<std::time::Duration>,
    mut progress: impl FnMut(&str),
) -> MultiSlotSweep {
    let started = std::time::Instant::now();
    let mut rng = Prng::seed_from_u64(seed);
    for case in 0..max_cases {
        if let Some(budget) = budget {
            if started.elapsed() >= budget {
                progress(&format!("multislot budget exhausted after {case} cases"));
                return MultiSlotSweep {
                    cases: case,
                    finding: None,
                };
            }
        }
        let scenario = MultiSlotScenario::generate(&mut rng);
        let outcome = run_multislot(&scenario);
        let violations = check_multislot(&scenario, &outcome);
        if !violations.is_empty() {
            progress(&format!(
                "multislot case {case}: {} violation(s) [{}] in {}",
                violations.len(),
                violations
                    .iter()
                    .map(MultiSlotViolation::class)
                    .collect::<Vec<_>>()
                    .join(", "),
                scenario.describe()
            ));
            return MultiSlotSweep {
                cases: case + 1,
                finding: Some((scenario, violations)),
            };
        }
    }
    MultiSlotSweep {
        cases: max_cases,
        finding: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        let mut a = Prng::seed_from_u64(41);
        let mut b = Prng::seed_from_u64(41);
        for _ in 0..50 {
            let s = MultiSlotScenario::generate(&mut a);
            assert_eq!(s, MultiSlotScenario::generate(&mut b));
            assert!(s.n >= 4 && s.n <= 7);
            assert!(s.k <= (s.n - 1) / 3);
            assert!(s.window >= 1 && s.window <= 8);
            assert!(s.max_batch >= 1 && s.max_batch <= 8);
            assert_eq!(s.loads.len(), s.n);
        }
    }

    #[test]
    fn clean_tree_survives_a_multislot_sweep() {
        let sweep = fuzz_multislot(0xD0_5107, 25, None, |_| {});
        assert_eq!(sweep.cases, 25);
        assert!(
            sweep.finding.is_none(),
            "clean tree violated: {:?}",
            sweep.finding
        );
    }

    #[test]
    fn runs_replay_identically_per_scenario() {
        let mut rng = Prng::seed_from_u64(6);
        let s = MultiSlotScenario::generate(&mut rng);
        let a = run_multislot(&s);
        let b = run_multislot(&s);
        assert_eq!(a.steps, b.steps);
        assert_eq!(
            a.states
                .iter()
                .map(AppliedState::digest)
                .collect::<Vec<_>>(),
            b.states
                .iter()
                .map(AppliedState::digest)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn tampered_outcome_is_caught() {
        // The checker must actually bite: strip a slot from one replica's
        // log and every agreement-side invariant lights up.
        let mut rng = Prng::seed_from_u64(17);
        let s = loop {
            let s = MultiSlotScenario::generate(&mut rng);
            if s.loads.iter().map(Vec::len).sum::<usize>() > 0 {
                break s;
            }
        };
        let mut out = run_multislot(&s);
        assert!(check_multislot(&s, &out).is_empty());
        let tampered = out.states[0].log.pop();
        assert!(tampered.is_some(), "non-empty load produced slots");
        let violations = check_multislot(&s, &out);
        assert!(
            violations.iter().any(|v| v.class() == "log-mismatch"),
            "truncation not caught: {violations:?}"
        );
    }
}
