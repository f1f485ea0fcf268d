//! # bench — shared helpers for the experiment harness
//!
//! The `experiments` binary of this crate computes every table of
//! `EXPERIMENTS.md` (E1–E12, the large-n sweep and the n = 1024 slice)
//! and `BENCH_phases.json`. This library holds its system-assembly
//! helpers, so each experiment reads like the claim it checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adversary::{ContrarianMalicious, CrashPlan, Crashing, Silent};
use bt_core::{Config, FailStop, FailStopMsg, Malicious, MaliciousMsg, Simple, SimpleMsg};
use simnet::{Role, Sim, Value};

/// Alternating 0/1 inputs for `count` processes.
#[must_use]
pub fn alternating_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::from(i % 2 == 0)).collect()
}

/// Inputs with exactly `ones` ones followed by zeros.
#[must_use]
pub fn split_inputs(count: usize, ones: usize) -> Vec<Value> {
    assert!(ones <= count);
    (0..count).map(|i| Value::from(i < ones)).collect()
}

/// A fail-stop system: `n − crashes` correct processes plus `crashes`
/// processes that crash mid-run with staggered plans.
#[must_use]
pub fn failstop_system(
    config: Config,
    inputs: &[Value],
    crashes: usize,
    seed: u64,
) -> Sim<FailStopMsg> {
    assert_eq!(inputs.len(), config.n());
    assert!(crashes <= config.k());
    let mut b = Sim::builder();
    let n = config.n();
    for (i, &input) in inputs.iter().enumerate().take(n - crashes) {
        let _ = i;
        b.process(Box::new(FailStop::new(config, input)), Role::Correct);
    }
    for (j, &input) in inputs.iter().enumerate().skip(n - crashes) {
        // Stagger crash plans: mid-broadcast, phase-boundary, late.
        let plan = match j % 3 {
            0 => CrashPlan::AfterSends(n as u64 / 2),
            1 => CrashPlan::AtPhase(1),
            _ => CrashPlan::AfterSends(3 * n as u64),
        };
        b.process(
            Box::new(Crashing::new(FailStop::new(config, input), plan)),
            Role::Faulty,
        );
    }
    b.seed(seed).step_limit(4_000_000);
    b.build()
}

/// The §4.2 sweep's traitor budget for `n` processes: `k = l·√n/2` at the
/// paper's `l² = 1.5`, clamped to the protocol's `⌊(n−1)/3⌋` ceiling.
#[must_use]
pub fn sweep_k(n: usize) -> usize {
    let ideal = markov::collapsed::paper_l() * (n as f64).sqrt() / 2.0;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = ideal.round() as usize;
    k.min(Config::max_malicious_k(n))
}

/// A step cap for one malicious-protocol run at size `n`: Figure 2 costs
/// `O(n³)` deliveries per phase-bounded run, so the fixed caps the small-n
/// experiments use starve large configurations. Sized with several-fold
/// headroom over measured full-run step counts (≈ 2.6·n³ at n = 128).
#[must_use]
pub fn malicious_sweep_limit(n: usize) -> u64 {
    1_000_000 + 8 * (n as u64).pow(3)
}

/// A step cap for one §4.1 simple-variant run at size `n` (`O(n²)` per
/// run; measured ≈ 2.3·n² at n = 1024).
#[must_use]
pub fn simple_sweep_limit(n: usize) -> u64 {
    1_000_000 + 16 * (n as u64).pow(2)
}

/// A malicious-protocol system: `n − byz` correct processes plus `byz`
/// balancing attackers (the §4.2 worst case).
#[must_use]
pub fn malicious_system(
    config: Config,
    inputs: &[Value],
    byz: usize,
    seed: u64,
) -> Sim<MaliciousMsg> {
    malicious_system_capped(config, inputs, byz, seed, 8_000_000)
}

/// [`malicious_system`] with an explicit step cap, for sweeps whose run
/// length scales with `n` (see [`malicious_sweep_limit`]).
#[must_use]
pub fn malicious_system_capped(
    config: Config,
    inputs: &[Value],
    byz: usize,
    seed: u64,
    step_limit: u64,
) -> Sim<MaliciousMsg> {
    assert_eq!(inputs.len(), config.n());
    assert!(byz <= config.k());
    let mut b = Sim::builder();
    for &input in inputs.iter().take(config.n() - byz) {
        b.process(Box::new(Malicious::new(config, input)), Role::Correct);
    }
    for _ in 0..byz {
        b.process(Box::new(ContrarianMalicious::new(config)), Role::Faulty);
    }
    b.seed(seed).step_limit(step_limit);
    b.build()
}

/// A malicious-protocol system with silent (dead-on-arrival) faults.
#[must_use]
pub fn malicious_system_silent(
    config: Config,
    inputs: &[Value],
    dead: usize,
    seed: u64,
) -> Sim<MaliciousMsg> {
    assert_eq!(inputs.len(), config.n());
    let mut b = Sim::builder();
    for &input in inputs.iter().take(config.n() - dead) {
        b.process(Box::new(Malicious::new(config, input)), Role::Correct);
    }
    for _ in 0..dead {
        b.process(Box::new(Silent::<MaliciousMsg>::new()), Role::Faulty);
    }
    b.seed(seed).step_limit(8_000_000);
    b.build()
}

/// A §4.1 simple-variant system with `crashes` staggered crash faults.
#[must_use]
pub fn simple_system(
    config: Config,
    inputs: &[Value],
    crashes: usize,
    seed: u64,
) -> Sim<SimpleMsg> {
    simple_system_capped(config, inputs, crashes, seed, 4_000_000)
}

/// [`simple_system`] with an explicit step cap, for sweeps whose run
/// length scales with `n` (see [`simple_sweep_limit`]).
#[must_use]
pub fn simple_system_capped(
    config: Config,
    inputs: &[Value],
    crashes: usize,
    seed: u64,
    step_limit: u64,
) -> Sim<SimpleMsg> {
    assert_eq!(inputs.len(), config.n());
    let mut b = Sim::builder();
    let n = config.n();
    for &input in inputs.iter().take(n - crashes) {
        b.process(Box::new(Simple::new(config, input)), Role::Correct);
    }
    for (j, &input) in inputs.iter().enumerate().skip(n - crashes) {
        let plan = match j % 2 {
            0 => CrashPlan::AfterSends(n as u64 + n as u64 / 2),
            _ => CrashPlan::AtPhase(2),
        };
        b.process(
            Box::new(Crashing::new(Simple::new(config, input), plan)),
            Role::Faulty,
        );
    }
    b.seed(seed).step_limit(step_limit);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_helpers() {
        assert_eq!(
            split_inputs(4, 1),
            vec![Value::One, Value::Zero, Value::Zero, Value::Zero]
        );
        let alt = alternating_inputs(4);
        assert_eq!(alt[0], Value::One);
        assert_eq!(alt[1], Value::Zero);
    }

    #[test]
    fn sweep_parameters_scale_with_n() {
        // k = l·√n/2 at l² = 1.5: 0.61·√n, always within ⌊(n−1)/3⌋.
        assert_eq!(sweep_k(32), 3);
        assert_eq!(sweep_k(1024), 20);
        assert_eq!(sweep_k(4096), 39);
        for n in [9usize, 32, 128, 1024, 4096] {
            assert!(sweep_k(n) <= (n - 1) / 3);
            assert!(Config::malicious(n, sweep_k(n)).is_ok());
        }
        // Step caps grow with the protocol's message complexity.
        assert!(malicious_sweep_limit(256) > malicious_sweep_limit(128) * 4);
        assert!(simple_sweep_limit(2048) > simple_sweep_limit(1024) * 2);
    }

    #[test]
    fn systems_run_and_agree() {
        let fs = Config::fail_stop(5, 2).unwrap();
        let r = failstop_system(fs, &alternating_inputs(5), 2, 3).run();
        assert!(r.agreement());

        let mal = Config::malicious(7, 2).unwrap();
        let r = malicious_system(mal, &alternating_inputs(7), 2, 3).run();
        assert!(r.agreement());

        let r = malicious_system_silent(mal, &alternating_inputs(7), 2, 3).run();
        assert!(r.agreement());

        let r = simple_system(mal, &alternating_inputs(7), 2, 3).run();
        assert!(r.agreement());
    }
}
