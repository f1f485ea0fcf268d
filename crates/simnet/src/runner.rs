//! Monte-Carlo trial runner: estimate convergence statistics over many seeds.
//!
//! The paper's convergence property is probabilistic ("terminates with
//! probability 1, finite expected time"), so reproducing §4's performance
//! numbers means sampling: run the same configuration under many independent
//! scheduler streams and aggregate phases-to-decision, steps, messages and
//! property violations. Trials run in parallel with `std::thread::scope`;
//! each trial's seed is derived deterministically from the base seed, so
//! any individual failure can be replayed from its reported seed.

use core::fmt;
use std::collections::BTreeMap;

use crate::{RunReport, RunStatus, Sim, SimRng, Value};

/// Aggregated results of a batch of trials.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TrialStats {
    /// Number of trials run.
    pub trials: usize,
    /// Trials in which every correct process decided.
    pub decided: usize,
    /// Trials in which two correct processes decided differently
    /// (consistency violations — must be zero within the resilience bound).
    pub disagreements: usize,
    /// Trials that ended quiescent without full decision (deadlocks).
    pub deadlocks: usize,
    /// Trials that hit the step limit before full decision.
    pub timeouts: usize,
    /// Per-decided-trial phases to decision (max over correct processes).
    pub phases: Summary,
    /// The same samples as [`TrialStats::phases`], as phases → trial count.
    pub phase_histogram: BTreeMap<u64, usize>,
    /// Per-decided-trial steps to decision.
    pub steps: Summary,
    /// Per-trial messages sent.
    pub messages: Summary,
    /// Total scheduler steps (deliveries) executed across **all** trials,
    /// decided or not — the denominator for per-delivery cost metrics.
    pub total_steps: u64,
    /// How often the common decision was `1` (over decided trials).
    pub ones_decided: usize,
    /// Seeds of trials that violated a property, for replay.
    pub violation_seeds: Vec<u64>,
}

impl TrialStats {
    /// Fraction of trials in which every correct process decided.
    #[must_use]
    pub fn termination_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.decided as f64 / self.trials as f64
    }

    /// Fraction of decided trials whose common decision was `1`.
    #[must_use]
    pub fn one_rate(&self) -> f64 {
        if self.decided == 0 {
            return 0.0;
        }
        self.ones_decided as f64 / self.decided as f64
    }

    /// Whether any trial violated agreement or deadlocked.
    #[must_use]
    pub fn all_safe(&self) -> bool {
        self.disagreements == 0 && self.deadlocks == 0
    }
}

/// Summary statistics of a sample.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Sample mean (0 if empty).
    pub mean: f64,
    /// Sample standard deviation (0 if fewer than 2 points).
    pub stddev: f64,
    /// Minimum (0 if empty).
    pub min: f64,
    /// Maximum (0 if empty).
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises a sample. The input need not be sorted.
    #[must_use]
    pub fn of(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let pct = |q: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            values[idx]
        };
        Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min: values[0],
            max: values[count - 1],
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.2} ± {:.2} (min {:.1}, p50 {:.1}, p95 {:.1}, max {:.1}, n={})",
            self.mean, self.stddev, self.min, self.p50, self.p95, self.max, self.count
        )
    }
}

/// Runs `trials` independent simulations in parallel and aggregates them.
///
/// `factory(seed)` must build a fully configured [`Sim`] for that seed; the
/// seeds are derived deterministically from `base_seed`. The factory runs on
/// worker threads, so it must be `Sync` (typically it captures only
/// configuration values).
///
/// # Examples
///
/// ```
/// # use simnet::{runner, Ctx, Envelope, Process, Role, Sim, Value};
/// # #[derive(Debug)]
/// # struct Yes;
/// # impl Process for Yes {
/// #     type Msg = ();
/// #     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) { ctx.broadcast(()); }
/// #     fn on_receive(&mut self, _e: Envelope<()>, _c: &mut Ctx<'_, ()>) {}
/// #     fn decision(&self) -> Option<Value> { Some(Value::One) }
/// #     fn phase(&self) -> u64 { 0 }
/// # }
/// let stats = runner::run_trials(8, 42, |seed| {
///     let mut b = Sim::builder();
///     b.process(Box::new(Yes), Role::Correct).seed(seed);
///     b.build()
/// });
/// assert_eq!(stats.trials, 8);
/// assert_eq!(stats.termination_rate(), 1.0);
/// ```
pub fn run_trials<M, F>(trials: usize, base_seed: u64, factory: F) -> TrialStats
where
    M: Clone + PartialEq + 'static,
    F: Fn(u64) -> Sim<M> + Sync,
{
    let mut seed_gen = SimRng::seed(base_seed);
    let seeds: Vec<u64> = (0..trials)
        .map(|i| seed_gen.fork(i as u64).initial_seed())
        .collect();

    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let chunk = trials.div_ceil(workers).max(1);

    // Each worker runs a contiguous slice of the trials; joining the
    // workers in spawn order puts the reports back in trial order, so the
    // aggregate (`violation_seeds` included) does not depend on which
    // worker finished first.
    let reports: Vec<(u64, RunReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|ids| {
                let factory = &factory;
                scope.spawn(move || {
                    ids.iter()
                        .map(|&seed| (seed, factory(seed).run()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a trial worker panicked"))
            .collect()
    });
    aggregate(&reports)
}

/// Runs `trials` sequentially on the current thread. Useful where the
/// factory cannot be `Sync`, and in tests that want full determinism of
/// aggregation order.
pub fn run_trials_seq<M, F>(trials: usize, base_seed: u64, factory: F) -> TrialStats
where
    M: Clone + PartialEq + 'static,
    F: FnMut(u64) -> Sim<M>,
{
    run_trials_observed(trials, base_seed, factory, |_, _| {})
}

/// Runs `trials` sequentially, invoking `observe(seed, &report)` after each
/// trial, in trial order — the hook telemetry sinks (phase aggregators,
/// JSONL writers) attach through when they need every run of a sweep, not
/// just the aggregate. Sequential on purpose: the observation order is
/// deterministic, so a deterministic sink produces identical output for
/// identical `(trials, base_seed, factory)`.
pub fn run_trials_observed<M, F, O>(
    trials: usize,
    base_seed: u64,
    mut factory: F,
    mut observe: O,
) -> TrialStats
where
    M: Clone + PartialEq + 'static,
    F: FnMut(u64) -> Sim<M>,
    O: FnMut(u64, &RunReport),
{
    let mut seed_gen = SimRng::seed(base_seed);
    let mut reports = Vec::with_capacity(trials);
    for i in 0..trials {
        let seed = seed_gen.fork(i as u64).initial_seed();
        let report = factory(seed).run();
        observe(seed, &report);
        reports.push((seed, report));
    }
    aggregate(&reports)
}

fn aggregate(reports: &[(u64, RunReport)]) -> TrialStats {
    let mut decided = 0;
    let mut disagreements = 0;
    let mut deadlocks = 0;
    let mut timeouts = 0;
    let mut ones_decided = 0;
    let mut phases = Vec::new();
    let mut phase_histogram = BTreeMap::new();
    let mut steps = Vec::new();
    let mut messages = Vec::new();
    let mut violation_seeds = Vec::new();
    let mut total_steps = 0u64;

    for (seed, r) in reports {
        messages.push(r.metrics.messages_sent as f64);
        total_steps += r.steps;
        if !r.agreement() {
            disagreements += 1;
            violation_seeds.push(*seed);
        }
        if r.all_correct_decided() {
            decided += 1;
            if r.decided_value() == Some(Value::One) {
                ones_decided += 1;
            }
            if let Some(p) = r.phases_to_decision() {
                phases.push(p as f64);
                *phase_histogram.entry(p).or_insert(0) += 1;
            }
            if let Some(s) = r.steps_to_decision() {
                steps.push(s as f64);
            }
        } else {
            match r.status {
                RunStatus::Quiescent => {
                    deadlocks += 1;
                    violation_seeds.push(*seed);
                }
                RunStatus::StepLimitReached => timeouts += 1,
                RunStatus::Stopped => {}
            }
        }
    }

    TrialStats {
        trials: reports.len(),
        decided,
        disagreements,
        deadlocks,
        timeouts,
        phases: Summary::of(phases),
        phase_histogram,
        steps: Summary::of(steps),
        messages: Summary::of(messages),
        total_steps,
        ones_decided,
        violation_seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Envelope, Process, Role};

    /// Decides 1 immediately.
    #[derive(Debug)]
    struct Instant;

    impl Process for Instant {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.broadcast(());
        }
        fn on_receive(&mut self, _e: Envelope<()>, _c: &mut Ctx<'_, ()>) {}
        fn decision(&self) -> Option<Value> {
            Some(Value::One)
        }
        fn phase(&self) -> u64 {
            1
        }
    }

    fn sim(seed: u64) -> Sim<()> {
        let mut b = Sim::builder();
        b.process(Box::new(Instant), Role::Correct)
            .process(Box::new(Instant), Role::Correct)
            .seed(seed);
        b.build()
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = Summary::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // stddev of 1..4 with Bessel correction: sqrt(5/3)
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let a = run_trials(16, 7, sim);
        let b = run_trials_seq(16, 7, sim);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.decided, b.decided);
        assert_eq!(a.phases.mean, b.phases.mean);
        assert_eq!(a.messages.mean, b.messages.mean);
        // The step total is a plain sum, so worker scheduling cannot move it.
        assert_eq!(a.total_steps, b.total_steps);
    }

    /// Talks to itself for `rounds` deliveries, then decides 1 — or, with
    /// `decide` unset, falls silent undecided (a deadlock to the runner).
    #[derive(Debug)]
    struct Toy {
        rounds: u64,
        decide: bool,
        decided: Option<Value>,
    }

    impl Process for Toy {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.send(ctx.me(), ());
        }
        fn on_receive(&mut self, _e: Envelope<()>, ctx: &mut Ctx<'_, ()>) {
            if self.rounds > 0 {
                self.rounds -= 1;
                ctx.send(ctx.me(), ());
            } else if self.decide {
                self.decided = Some(Value::One);
            }
        }
        fn decision(&self) -> Option<Value> {
            self.decided
        }
        fn phase(&self) -> u64 {
            1
        }
    }

    /// The parallel runner must aggregate in trial order: `violation_seeds`
    /// is what a user replays, and it used to come out in the order the
    /// workers happened to finish. The first half of the trials is slow so
    /// that a later worker finishes first.
    #[test]
    fn parallel_runner_reports_violations_in_trial_order() {
        const TRIALS: usize = 16;
        let mut seed_gen = SimRng::seed(11);
        let seeds: Vec<u64> = (0..TRIALS)
            .map(|i| seed_gen.fork(i as u64).initial_seed())
            .collect();
        let factory = |seed: u64| {
            let index = seeds.iter().position(|&s| s == seed).expect("a trial seed");
            let toy = Toy {
                rounds: if index < TRIALS / 2 { 50_000 } else { 0 },
                decide: index % 2 == 0,
                decided: None,
            };
            let mut b = Sim::builder();
            b.process(Box::new(toy), Role::Correct).seed(seed);
            b.build()
        };
        let seq = run_trials_seq(TRIALS, 11, factory);
        let odd: Vec<u64> = seeds.iter().copied().skip(1).step_by(2).collect();
        assert_eq!(seq.violation_seeds, odd);
        assert_eq!(seq.deadlocks, TRIALS / 2);
        for _ in 0..5 {
            let par = run_trials(TRIALS, 11, factory);
            // Every field, floats included, through the derived `Debug`.
            assert_eq!(format!("{par:?}"), format!("{seq:?}"));
        }
    }

    #[test]
    fn observed_runner_sees_every_trial_in_order() {
        let mut seen: Vec<u64> = Vec::new();
        let stats = run_trials_observed(8, 7, sim, |seed, report| {
            assert!(report.all_correct_decided());
            seen.push(seed);
        });
        assert_eq!(seen.len(), 8);
        // Observation order matches the deterministic seed derivation.
        let mut seed_gen = SimRng::seed(7);
        let expected: Vec<u64> = (0..8).map(|i| seed_gen.fork(i).initial_seed()).collect();
        assert_eq!(seen, expected);
        assert_eq!(stats.trials, 8);
    }

    #[test]
    fn stats_fields_consistent() {
        let stats = run_trials_seq(10, 1, sim);
        assert_eq!(stats.trials, 10);
        assert_eq!(stats.decided, 10);
        assert_eq!(stats.termination_rate(), 1.0);
        assert_eq!(stats.one_rate(), 1.0);
        assert!(stats.all_safe());
        assert!(stats.violation_seeds.is_empty());
        assert_eq!(stats.phases.mean, 1.0);
        assert_eq!(stats.phase_histogram, BTreeMap::from([(1, 10)]));
    }
}
