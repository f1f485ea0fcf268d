//! The storage-fault leg: corrupt-WAL detection and quorum state
//! transfer under seeded byte flips.
//!
//! [`STORAGE`] is a [`NetLeg`] for [`crate::stress::sweep_netstack`]:
//! every case is a small fail-stop cluster with unanimous inputs, run
//! under [`NetMode::Storage`] — the seed-derived crash-restart plus a
//! byte flip armed in the victim's WAL storage. The restarted victim
//! reopens a corrupted log; the run is held to the full amnesia contract:
//!
//! - the usual decision properties (agreement, validity, convergence) —
//!   a node that silently replayed poisoned state would break these;
//! - zero observed equivocations — the amnesiac muzzle means a node that
//!   lost its log can never contradict its forgotten sends;
//! - the corruption was **detected** (`bt_wal_corruptions_total ≥ 1`)
//!   and **healed** (`bt_state_transfers_total ≥ 1`) — the
//!   storage-specific checks from [`crate::invariants::check_storage`].
//!
//! A violating scenario is reported with its full JSON so the seed (and
//! with it the victim, kill/restart timing, and flip) replays by hand.

use prng::Prng;
use simnet::Value;

use crate::exec::NetMode;
use crate::scenario::{FaultSpec, OrderSpec, ProtoKind, Scenario, SchedSpec};
use crate::stress::NetLeg;

/// The cluster sizes a sweep cycles through. Small on purpose: the leg
/// stresses the recovery path, not the runtime's scale, and `n = 4` is
/// already the minimum where `k + 1 = 2` matching peers exist after the
/// victim drops out.
pub const STORAGE_SIZES: &[usize] = &[4, 5, 7];

/// The amnesia leg: [`storage_scenario`] over [`STORAGE_SIZES`] with a
/// flipped WAL under the crash victim.
pub const STORAGE: NetLeg = NetLeg {
    name: "storage",
    ladder: STORAGE_SIZES,
    scenario: storage_scenario,
    mode: NetMode::Storage,
    seed: 0x5707_A6E1,
    cases: 2 * STORAGE_SIZES.len() as u64,
};

/// Draws one storage case of size `n`: fail-stop, `k = 1`, unanimous
/// inputs, all processes correct at the protocol level, fair delivery.
/// The runtime-level crash, restart, and byte flip all derive from the
/// scenario seed under [`NetMode::Storage`].
pub fn storage_scenario(rng: &mut Prng, n: usize) -> Scenario {
    let value = Value::from(rng.coin());
    Scenario {
        proto: ProtoKind::FailStop,
        n,
        k: 1,
        seed: rng.next_u64(),
        inputs: vec![value; n],
        faults: vec![FaultSpec::Correct; n],
        sched: SchedSpec::Fair(OrderSpec::Random),
        step_limit: 100_000,
        inject: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stress::sweep_netstack;

    /// The generator's contract: every drawn case is a legal, unanimous,
    /// all-correct fail-stop scenario — so any violation it reports
    /// indicts the recovery path, not the setup.
    #[test]
    fn storage_scenarios_are_unanimous_all_correct_failstop() {
        let mut rng = Prng::seed_from_u64(42);
        for case in 0..60 {
            let n = STORAGE_SIZES[case % STORAGE_SIZES.len()];
            let s = storage_scenario(&mut rng, n);
            assert_eq!(s.proto, ProtoKind::FailStop);
            assert_eq!(s.k, 1);
            assert_eq!(s.faulty_count(), 0);
            assert!(s.unanimous_input().is_some(), "{}", s.describe());
            assert!(s.inject.is_none());
        }
    }

    /// Same master seed ⇒ same scenarios, so a storage finding in CI
    /// replays on a laptop from the printed seed.
    #[test]
    fn storage_scenarios_are_deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(storage_scenario(&mut a, 4), storage_scenario(&mut b, 4));
        }
    }

    /// One case end to end: a real loopback cluster whose victim reopens
    /// a flipped WAL must detect the corruption, transfer state, and
    /// still satisfy every decision property. (The budgeted sweep runs
    /// via `btfuzz --storage` in `scripts/check.sh`.)
    #[test]
    fn small_storage_case_runs_clean() {
        let Some(outcome) = sweep_netstack(&STORAGE, 0xFEED, 1, None, |_| {}) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        assert_eq!(outcome.cases, 1);
        assert!(outcome.corruptions >= 1, "the flip was detected");
        assert!(outcome.transfers >= 1, "the amnesiac recovered by quorum");
        assert!(
            outcome.finding.is_none(),
            "clean tree violated under storage faults: {:?}",
            outcome.finding
        );
    }
}
