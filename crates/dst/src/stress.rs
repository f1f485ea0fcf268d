//! The loopback sweep, and its scale leg: large clusters under
//! crash-restart and partition faults — scale testing for the
//! event-driven runtime.
//!
//! [`sweep_netstack`] is the one budgeted loop over loopback clusters: it
//! climbs a [`NetLeg`]'s size ladder, draws one scenario per rung, runs
//! it through [`run_netstack`] under the leg's [`NetMode`], and holds the
//! outcome to [`NetOutcome::violations`](crate::exec::NetOutcome::violations)
//! — the decision properties, zero observed equivocations, and whatever
//! the mode adds. A violating scenario is reported with its full JSON so
//! `n`, seed, partition, and crash schedule can be replayed by hand. The
//! amnesia leg ([`crate::storage`]) is the same loop under another
//! generator and mode.
//!
//! The per-case fuzz loop ([`crate::fuzz`]) cross-checks small scenarios
//! (`n ≤ 8`) against the socket runtime; the [`STRESS`] leg instead
//! climbs a cluster-size ladder up to `n = 50`, where the single
//! poll-loop thread per node is what makes a run affordable at all
//! (`2 + 2(n−1)` threads per node — about 5000 OS threads for one 50-node
//! case — is what a thread per connection would cost). Every case is a
//! *short schedule*: fail-stop with `k = 1` and unanimous inputs, so the
//! protocol math stays trivial and the stress lands where it should — on
//! the runtime's `O(n²)` connections, its readiness plumbing, and its
//! recovery path:
//!
//! - a seeded healing **partition** cuts a random minority of the cluster
//!   mid-run (exercising reconnect/backoff and backlog replay at scale);
//! - the seed-derived **crash-restart** of [`NetMode::Crash`]:
//!   [`run_netstack`] kills one correct node and restarts it from its WAL
//!   (exercising listener handoff between event loops and byte-identical
//!   re-sends). Nothing else restarts a node, so an event loop that
//!   panics on this input ends its case as a finding.

use std::time::{Duration, Instant};

use prng::Prng;
use simnet::Value;

use crate::exec::{run_netstack, NetMode};
use crate::invariants::{classes, Violation};
use crate::scenario::{FaultSpec, ProtoKind, Scenario, SchedSpec};

/// One loopback sweep: which sizes to climb, what to draw at each, and
/// what [`run_netstack`] injects.
#[derive(Clone, Copy, Debug)]
pub struct NetLeg {
    /// Short name for progress lines (`"stress"`, `"storage"`).
    pub name: &'static str,
    /// The cluster sizes a sweep climbs, one rung per case, wrapping
    /// around for long sweeps.
    pub ladder: &'static [usize],
    /// Draws the case for one rung.
    pub scenario: fn(&mut Prng, usize) -> Scenario,
    /// What every run of the leg injects.
    pub mode: NetMode,
    /// Default master seed.
    pub seed: u64,
    /// Default case cap.
    pub cases: u64,
}

/// The cluster-size ladder of the scale leg. Early rungs catch gross
/// breakage cheaply; the top rung is the 50-node target.
pub const STRESS_LADDER: &[usize] = &[8, 16, 25, 34, 50];

/// The scale leg: [`stress_scenario`] up [`STRESS_LADDER`] under a
/// seed-derived crash-restart.
pub const STRESS: NetLeg = NetLeg {
    name: "stress",
    ladder: STRESS_LADDER,
    scenario: stress_scenario,
    mode: NetMode::Crash,
    seed: 0x57E5_5001,
    cases: STRESS_LADDER.len() as u64,
};

/// Per-cluster verdict deadline.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Cases executed to completion.
    pub cases: u64,
    /// Largest cluster booted.
    pub largest_n: usize,
    /// Restarts observed across the sweep (the crash schedule only fires
    /// when the run outlives its kill time, so this can be below `cases`
    /// on a fast machine — but a sweep where it is *zero* never exercised
    /// recovery at all).
    pub restarts: u64,
    /// WAL corruptions detected across the sweep (a storage sweep injects
    /// one per case, so on a correct tree this equals `cases`).
    pub corruptions: u64,
    /// Quorum state transfers completed across the sweep.
    pub transfers: u64,
    /// The first violating scenario, with its violations.
    pub finding: Option<(Scenario, Vec<Violation>)>,
}

/// Draws one stress case of size `n`: fail-stop, `k = 1`, unanimous
/// inputs, all processes correct at the protocol level (the runtime-level
/// crash-restart comes from [`NetMode::Crash`]), and a healing
/// partition that cuts a random minority.
pub fn stress_scenario(rng: &mut Prng, n: usize) -> Scenario {
    let value = Value::from(rng.coin());
    let size = 1 + rng.index(n / 2);
    let mut left: Vec<usize> = (0..n).collect();
    for i in 0..size {
        let j = i + rng.index(n - i);
        left.swap(i, j);
    }
    left.truncate(size);
    left.sort_unstable();
    Scenario {
        proto: ProtoKind::FailStop,
        n,
        k: 1,
        seed: rng.next_u64(),
        inputs: vec![value; n],
        faults: vec![FaultSpec::Correct; n],
        sched: SchedSpec::Partition {
            left,
            epoch_len: 8 + rng.below_u64(17),
            heal_every: 2,
        },
        step_limit: 200_000,
        inject: None,
    }
}

/// Runs `leg` from master `seed` until a finding, `max_cases`, or the
/// wall-clock `budget` (the sweep stops at the first case past it).
/// Returns `None` when the sandbox forbids loopback sockets (the sweep
/// has nothing to test without them). `progress` receives one status
/// line per case.
pub fn sweep_netstack(
    leg: &NetLeg,
    seed: u64,
    max_cases: u64,
    budget: Option<Duration>,
    mut progress: impl FnMut(&str),
) -> Option<SweepOutcome> {
    let started = Instant::now();
    let mut rng = Prng::seed_from_u64(seed);
    let mut sweep = SweepOutcome {
        cases: 0,
        largest_n: 0,
        restarts: 0,
        corruptions: 0,
        transfers: 0,
        finding: None,
    };
    let name = leg.name;

    while sweep.cases < max_cases {
        if budget.is_some_and(|b| started.elapsed() >= b) {
            let cases = sweep.cases;
            progress(&format!("{name} budget exhausted after {cases} cases"));
            break;
        }
        let n = leg.ladder[(sweep.cases as usize) % leg.ladder.len()];
        let scenario = (leg.scenario)(&mut rng, n);
        let case_started = Instant::now();
        let out = run_netstack(&scenario, TIMEOUT, leg.mode)?;
        sweep.cases += 1;
        sweep.largest_n = sweep.largest_n.max(n);
        let restarts = u64::from(out.restarts.iter().sum::<u32>());
        sweep.restarts += restarts;
        sweep.corruptions += out.corruptions;
        sweep.transfers += out.transfers;

        let cases = sweep.cases;
        let violations = out.violations(&scenario);
        if !violations.is_empty() {
            progress(&format!(
                "{name} case {cases}: n={n} violated [{}] in {}",
                classes(&violations).join(", "),
                scenario.describe()
            ));
            sweep.finding = Some((scenario, violations));
            break;
        }
        progress(&format!(
            "{name} case {cases}: n={n} clean in {:.2?} ({restarts} restart(s), \
             {} corruption(s) detected, {} state transfer(s))",
            case_started.elapsed(),
            out.corruptions,
            out.transfers
        ));
    }
    Some(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator's contract: every drawn case is a legal, unanimous,
    /// all-correct fail-stop scenario whose partition cuts a strict
    /// minority — so any violation it reports indicts the runtime.
    #[test]
    fn stress_scenarios_are_unanimous_minority_cut_failstop() {
        let mut rng = Prng::seed_from_u64(42);
        for case in 0..100 {
            let n = STRESS_LADDER[case % STRESS_LADDER.len()];
            let s = stress_scenario(&mut rng, n);
            assert_eq!(s.proto, ProtoKind::FailStop);
            assert_eq!(s.k, 1);
            assert_eq!(s.faulty_count(), 0);
            assert!(s.unanimous_input().is_some(), "{}", s.describe());
            let SchedSpec::Partition { left, .. } = &s.sched else {
                panic!("stress cases partition: {}", s.describe());
            };
            assert!(
                !left.is_empty() && left.len() <= n / 2,
                "cut a nonempty strict minority: {}",
                s.describe()
            );
            assert!(left.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        }
    }

    /// Same master seed ⇒ same scenarios, so a stress finding in CI
    /// replays on a laptop from the printed seed.
    #[test]
    fn stress_scenarios_are_deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(stress_scenario(&mut a, 16), stress_scenario(&mut b, 16));
        }
    }

    /// One small rung end to end: a real loopback cluster under the
    /// partition + crash-restart schedule must satisfy the decision
    /// properties. (The full ladder is exercised by the budgeted
    /// `btfuzz --netstack-stress` leg in `scripts/check.sh`.)
    #[test]
    fn small_stress_case_runs_clean() {
        let Some(outcome) = sweep_netstack(&STRESS, 0xBEEF, 1, None, |_| {}) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        assert_eq!(outcome.cases, 1);
        assert_eq!(outcome.largest_n, 8);
        assert!(
            outcome.finding.is_none(),
            "clean tree violated under stress: {:?}",
            outcome.finding
        );
    }
}
