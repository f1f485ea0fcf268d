//! Cross-crate integration: the three consensus properties (consistency,
//! convergence, bivalence/validity) for every protocol, under every
//! scheduler, with every fault mix the paper allows.

use std::sync::{Arc, Mutex};

use obs::PhaseAggregator;
use resilient_consensus::adversary::{
    ContrarianMalicious, CrashPlan, Crashing, EquivocatingEchoer, Silent, TwoFacedMalicious,
};
use resilient_consensus::benor::{BenOrConfig, BenOrProcess};
use resilient_consensus::bt_core::{failstop, Config, FailStop, Malicious, Simple};
use resilient_consensus::simnet::scheduler::{
    DelayingScheduler, FairScheduler, PartitionScheduler, RoundRobinScheduler, Scheduler,
};
use resilient_consensus::simnet::{Event, ProcessId, Role, RunReport, Sim, Subscriber, Value};

/// A named scheduler constructor, rebuilt fresh for every run.
type SchedulerFactory<M> = Box<dyn Fn() -> Box<dyn Scheduler<M>>>;

/// Named scheduler factories, rebuilt fresh for every run.
fn scheduler_factories<M: 'static>(n: usize) -> Vec<(&'static str, SchedulerFactory<M>)> {
    let half: Vec<ProcessId> = ProcessId::all(n).take(n / 2).collect();
    vec![
        ("fair", Box::new(|| Box::new(FairScheduler::new()) as _)),
        (
            "round-robin",
            Box::new(|| Box::new(RoundRobinScheduler::new()) as _),
        ),
        (
            "delaying-p0",
            Box::new(move || Box::new(DelayingScheduler::new(n, &[ProcessId::new(0)])) as _),
        ),
        (
            "partition",
            Box::new(move || Box::new(PartitionScheduler::new(n, &half, 50, 4)) as _),
        ),
    ]
}

#[test]
fn failstop_all_schedulers_all_crash_patterns() {
    let n = 7;
    let k = 3;
    let config = Config::fail_stop(n, k).unwrap();
    for (name, make_scheduler) in scheduler_factories(n) {
        for seed in 0..5 {
            let mut b = Sim::builder();
            for i in 0..4 {
                b.process(
                    Box::new(FailStop::new(config, Value::from(i % 2 == 0))),
                    Role::Correct,
                );
            }
            b.process(
                Box::new(Crashing::new(
                    FailStop::new(config, Value::One),
                    CrashPlan::AfterSends(2),
                )),
                Role::Faulty,
            );
            b.process(
                Box::new(Crashing::new(
                    FailStop::new(config, Value::Zero),
                    CrashPlan::AtPhase(2),
                )),
                Role::Faulty,
            );
            b.process(Box::new(Silent::new()), Role::Faulty);
            b.scheduler(make_scheduler());
            let r = b.seed(seed).step_limit(4_000_000).build().run();
            assert!(r.agreement(), "{name} seed {seed}: consistency violated");
            assert!(
                r.all_correct_decided(),
                "{name} seed {seed}: convergence violated ({:?})",
                r.status
            );
        }
    }
}

#[test]
fn malicious_all_schedulers_mixed_attackers() {
    let n = 10;
    let k = 3;
    let config = Config::malicious(n, k).unwrap();
    for (name, make_scheduler) in scheduler_factories(n) {
        for seed in 0..4 {
            let mut b = Sim::builder();
            for i in 0..n - k {
                b.process(
                    Box::new(Malicious::new(config, Value::from(i % 3 != 0))),
                    Role::Correct,
                );
            }
            // One of each attacker family.
            b.process(Box::new(ContrarianMalicious::new(config)), Role::Faulty);
            b.process(Box::new(TwoFacedMalicious::new(config)), Role::Faulty);
            b.process(Box::new(EquivocatingEchoer::new(config)), Role::Faulty);
            b.scheduler(make_scheduler());
            let r = b.seed(seed).step_limit(16_000_000).build().run();
            assert!(r.agreement(), "{name} seed {seed}: consistency violated");
            assert!(
                r.all_correct_decided(),
                "{name} seed {seed}: convergence violated ({:?})",
                r.status
            );
        }
    }
}

#[test]
fn validity_unanimous_inputs_all_protocols() {
    // Bivalence's flip side: unanimity must decide the common input.
    for v in [Value::Zero, Value::One] {
        // Fig. 1
        let config = Config::fail_stop(5, 2).unwrap();
        let mut b = Sim::builder();
        for _ in 0..5 {
            b.process(Box::new(FailStop::new(config, v)), Role::Correct);
        }
        assert_eq!(b.seed(1).build().run().decided_value(), Some(v));

        // Fig. 2
        let config = Config::malicious(7, 2).unwrap();
        let mut b = Sim::builder();
        for _ in 0..7 {
            b.process(Box::new(Malicious::new(config, v)), Role::Correct);
        }
        assert_eq!(b.seed(1).build().run().decided_value(), Some(v));

        // §4.1 variant
        let mut b = Sim::builder();
        for _ in 0..7 {
            b.process(Box::new(Simple::new(config, v)), Role::Correct);
        }
        assert_eq!(b.seed(1).build().run().decided_value(), Some(v));

        // Ben-Or
        let config = BenOrConfig::fail_stop(5, 2).unwrap();
        let mut b = Sim::builder();
        for _ in 0..5 {
            b.process(Box::new(BenOrProcess::new(config, v)), Role::Correct);
        }
        assert_eq!(b.seed(1).build().run().decided_value(), Some(v));
    }
}

#[test]
fn bivalence_both_values_reachable_mixed_inputs() {
    // With mixed inputs and all processes correct, both decision values
    // occur across seeds (the protocols' bivalence in practice).
    let config = Config::malicious(4, 1).unwrap();
    let mut seen = [false; 2];
    for seed in 0..300 {
        let mut b = Sim::builder();
        for i in 0..4 {
            b.process(
                Box::new(Malicious::new(config, Value::from(i % 2 == 0))),
                Role::Correct,
            );
        }
        let r = b.seed(seed).step_limit(8_000_000).build().run();
        if let Some(v) = r.decided_value() {
            seen[v.index()] = true;
        }
        if seen[0] && seen[1] {
            return;
        }
    }
    panic!("only one decision value ever reached: {seen:?}");
}

/// The decisions a run's event stream announces, in order.
#[derive(Default)]
struct Decisions(Vec<(ProcessId, Value)>);

impl Subscriber for Decisions {
    fn on_event(&mut self, event: &Event) {
        if let Event::Decide { pid, value, .. } = *event {
            self.0.push((pid, value));
        }
    }
}

#[test]
fn reports_are_internally_consistent() {
    let config = Config::fail_stop(5, 2).unwrap();
    let mut b = Sim::builder();
    for i in 0..5 {
        b.process(
            Box::new(FailStop::new(config, Value::from(i % 2 == 0))),
            Role::Correct,
        );
    }
    let decisions = Arc::new(Mutex::new(Decisions::default()));
    let r: RunReport = b.seed(9).subscriber(decisions.clone()).build().run();
    // Decisions in the event stream match the report.
    let decisions = &decisions.lock().unwrap().0;
    assert!(!decisions.is_empty());
    for &(pid, value) in decisions {
        assert_eq!(r.decisions[pid.index()], Some(value));
    }
    // Message accounting balances.
    assert_eq!(
        r.metrics.messages_sent,
        r.metrics.messages_delivered + r.metrics.messages_dropped + r.metrics.in_flight()
    );
    // Every decided process has a decision step no later than the run end.
    for i in r.correct() {
        if r.decisions[i].is_some() {
            assert!(r.decision_steps[i].unwrap() <= r.steps);
        }
    }
}

/// Per-phase sends are a fold over the event stream, not an engine counter:
/// for this seeded Fig. 1 run `PhaseAggregator` gives exactly the vector the
/// engine's former per-phase counter reported.
#[test]
fn per_phase_sends_match_the_engine_counter_they_replace() {
    let config = Config::fail_stop(5, 2).unwrap();
    let inputs: Vec<Value> = (0..5).map(|i| Value::from(i % 2 == 0)).collect();
    let agg = Arc::new(Mutex::new(PhaseAggregator::new()));
    let mut b = Sim::builder();
    failstop::build_correct_system(&mut b, config, &inputs);
    let r = b.seed(3).subscriber(agg.clone()).build().run();
    let phases = agg.lock().unwrap().phases();
    let sent: Vec<u64> = phases.iter().map(|p| p.messages_sent).collect();
    assert_eq!(sent, [25, 25, 25, 20, 30, 50]);
    assert_eq!(sent.iter().sum::<u64>(), r.metrics.messages_sent);
}
