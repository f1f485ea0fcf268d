//! Cross-runtime and statistical conformance.
//!
//! The simulator and the socket runtime execute the same protocol code;
//! these tests hold them to the same *decision* properties on shared-seed
//! scenarios, and hold the simulator's measured phase counts to the §4
//! analytic predictions of the `markov` crate.

use std::time::Duration;

use dst::{
    check, run_netstack, run_sim, FaultSpec, NetMode, OrderSpec, ProtoKind, Scenario, SchedSpec,
};
use markov::collapsed;
use prng::Prng;
use simnet::{RunStatus, Value};

/// Shared-seed conformance: a clean, unanimous-input scenario must decide
/// the unanimous value on every correct process in *both* runtimes.
/// Unanimity pins the decision (validity), so "identical decisions" is a
/// real cross-runtime invariant rather than a schedule accident.
#[test]
fn shared_seed_scenarios_decide_identically_across_runtimes() {
    if !netstack::sockets_available() {
        eprintln!("skipping: sandbox forbids loopback sockets");
        return;
    }
    let mut rng = Prng::seed_from_u64(0xD57_C0DE);
    let mut compared = 0usize;
    while compared < 4 {
        let mut scenario = Scenario::generate(&mut rng);
        // Force unanimity so the decision value is pinned by validity.
        scenario.inputs = vec![Value::One; scenario.n];
        let unanimous = scenario.unanimous_input().expect("all-One is unanimous");

        let sim = run_sim(&scenario);
        let sim_trace = obs::parse_trace(&sim.trace).expect("trace parses");
        let sim_violations = check(&scenario, &sim.report, &sim_trace);
        assert!(
            sim_violations.is_empty(),
            "simulator violated on {}: {sim_violations:?}",
            scenario.describe()
        );

        let Some(net) = run_netstack(&scenario, Duration::from_secs(60), NetMode::Plain) else {
            eprintln!("skipping: sandbox forbids loopback sockets");
            return;
        };
        let net = net.report;
        let net_violations = check(&scenario, &net, &[]);
        assert!(
            net_violations.is_empty(),
            "netstack violated on {}: {net_violations:?}",
            scenario.describe()
        );
        for i in 0..scenario.n {
            if scenario.faults[i].is_faulty() {
                continue;
            }
            assert_eq!(
                sim.report.decisions[i],
                net.decisions[i],
                "process {i} diverged across runtimes on {}",
                scenario.describe()
            );
            assert_eq!(sim.report.decisions[i], Some(unanimous));
        }
        compared += 1;
    }
}

/// Satellite: the simple-majority variant's measured expected phases under
/// balanced inputs stay below the paper's eq. (13) bound (< 7), and within
/// a shape tolerance of the collapsed chain's own prediction. The collapsed
/// chain is pessimistic by construction (stochastic dominance), so the
/// simulation must come in *under* it; "within tolerance" guards against
/// the simulation being suspiciously fast (a broken phase counter) or the
/// model being wildly off.
#[test]
fn simple_variant_phase_counts_respect_eq13_within_tolerance() {
    let n = 12;
    let k = 3; // the protocol's maximal decidable k = ⌊(n−1)/3⌋
    let trials = 80u64;

    let mut total_phases = 0.0f64;
    let mut decided_runs = 0u64;
    for trial in 0..trials {
        let scenario = Scenario {
            proto: ProtoKind::Simple,
            n,
            k,
            seed: 0x51D_BA5E ^ (trial * 0x9E37_79B9),
            inputs: (0..n).map(|i| Value::from(i % 2 == 0)).collect(),
            faults: vec![FaultSpec::Correct; n],
            sched: SchedSpec::Fair(OrderSpec::Random),
            step_limit: 8_000_000,
            inject: None,
        };
        let out = run_sim(&scenario);
        assert_eq!(
            out.report.status,
            RunStatus::Stopped,
            "trial {trial} failed to converge"
        );
        let phases: Vec<u64> = out
            .report
            .decision_phases
            .iter()
            .map(|p| p.expect("every process decided"))
            .collect();
        total_phases += phases.iter().sum::<u64>() as f64 / phases.len() as f64;
        decided_runs += 1;
    }
    let measured = total_phases / decided_runs as f64;

    // The headline claim: measured mean phases below eq. (13)'s < 7 bound.
    let bound = collapsed::headline_bound(n);
    assert!(bound < 7.0, "eq. (13) bound must itself be < 7: {bound}");
    assert!(
        measured < bound,
        "measured {measured} phases ≥ eq. (13) bound {bound}"
    );

    // Cross-check against the collapsed chain's numeric prediction: the
    // collapse only slows the chain, so the measurement sits below it — but
    // both must stay in the same small ballpark.
    let predicted = collapsed::expected_phases_collapsed(n, collapsed::paper_l());
    assert!(
        measured < predicted * 3.0 + 3.0,
        "measured {measured} far above collapsed prediction {predicted}"
    );
    assert!(
        predicted < measured * 8.0 + 8.0,
        "collapsed prediction {predicted} implausibly far above measured {measured}"
    );
}
