//! The simulator workloads: seeded trials of the paper's Figure 2
//! protocol against balancing attackers (`sim-byz-*`) and of five rsm
//! replicas draining a preloaded backlog (`sim-rsm-backlog`). One thread
//! calls `Sim::run` in a loop; no socket, WAL or wall-clock timer runs.

use std::rc::Rc;
use std::time::Instant;

use adversary::ContrarianMalicious;
use bt_core::{Config, Malicious, MaliciousMsg};
use netstack::fnv1a64;
use prng::{splitmix64, Prng};
use rsm::{Command, LogView, Op, Replica, RsmMsg, RsmOptions};
use simnet::{Process, ProcessId, Role, RunReport, RunStatus, Sim, StopWhen, Value, Wire};

use crate::micro;
use crate::spec::{Outcome, RunArgs};
use crate::stats;
use crate::steal;
use crate::trace::{SimSink, TraceLog, Traced};

/// Eq. 13 of the paper bounds the expected phases to decide by 6.53.
const EQ13_PHASES: f64 = 6.53;

/// Constructions timed before the trials, so `setup_s` is a median over
/// a hundred samples even when a run fits only a few n=128 trials (with
/// 24 the medians of two sets of ten runs stood 18 % apart).
const SETUP_REPS: usize = 100;

/// What one simulated trial did.
#[derive(Clone, Debug)]
struct Trial {
    build_s: f64,
    /// CPU seconds inside `Sim::run` (see `steal::timed`: one thread
    /// that never blocks, so this is its wall time on a quiet machine).
    run_s: f64,
    /// Wall seconds inside `Sim::run`.
    wall_s: f64,
    steps: u64,
    msgs_sent: u64,
    /// Units of work: deliveries (`sim-byz-*`) or commands applied.
    work: u64,
    /// Correct processes that decided (`sim-byz-*`), else 0.
    decisions: u64,
    phases: u64,
    /// Log slots committed (`sim-rsm-backlog`), else 0.
    slots: u64,
    peak_occupancy: u64,
    /// Digest of everything the run decided: equal seeds must agree,
    /// traced or not.
    fingerprint: u64,
    error: Option<String>,
}

/// The untraced trials and, in a traced run, their traced twins (same
/// index, same seed).
#[derive(Default)]
struct Trials {
    untraced: Vec<Trial>,
    traced: Vec<Trial>,
}

/// Runs trials until `seconds` have passed and at least `counted` are
/// done. A traced run executes every seed twice — bare and wrapped,
/// alternating which goes first — so the tracing overhead is a
/// difference between runs of identical work.
fn measure(args: &RunArgs, counted: usize, mut trial: impl FnMut(u64, bool) -> Trial) -> Trials {
    let start = Instant::now();
    let mut trials = Trials::default();
    let mut i = 0u64;
    while (i as usize) < counted || start.elapsed().as_secs_f64() < args.seconds {
        if args.trace && i % 2 == 1 {
            trials.traced.push(trial(i, true));
            trials.untraced.push(trial(i, false));
        } else {
            trials.untraced.push(trial(i, false));
            if args.trace {
                trials.traced.push(trial(i, true));
            }
        }
        i += 1;
    }
    trials
}

/// Seed of trial `i` of the workload tagged `tag`.
fn trial_seed(seed: u64, tag: u64, i: u64) -> u64 {
    let mut state = seed ^ tag;
    splitmix64(&mut state).wrapping_add(i)
}

/// Median seconds to construct a system, over [`SETUP_REPS`] throwaway
/// constructions.
fn setup_samples<M>(quick: bool, mut build: impl FnMut() -> Sim<M>) -> Vec<f64> {
    (0..if quick { 1 } else { SETUP_REPS })
        .map(|_| {
            let (sim, cpu, _) = steal::timed(&mut build);
            drop(sim);
            cpu.as_secs_f64()
        })
        .collect()
}

/// Fills the metrics every simulator workload shares and checks each
/// trial. `unit` is the work one `op_ms` sample is normalised to.
fn finish(
    out: &mut Outcome,
    args: &RunArgs,
    trials: &Trials,
    mut setup: Vec<f64>,
    unit: f64,
    counted: usize,
) {
    let all = trials.untraced.iter().chain(&trials.traced);
    out.attempted = all.clone().count() as u64;
    for t in all.clone() {
        if let Some(e) = &t.error {
            out.failed += 1;
            out.errors.push(e.clone());
        }
    }
    for (i, (a, b)) in trials.untraced.iter().zip(&trials.traced).enumerate() {
        if (a.steps, a.msgs_sent, a.phases, a.fingerprint)
            != (b.steps, b.msgs_sent, b.phases, b.fingerprint)
        {
            out.errors.push(format!(
                "trial {i}: the traced run diverged from the bare run"
            ));
        }
    }

    let m = &mut out.metrics;
    let plain = &trials.untraced;
    let n = plain.len() as u64;
    setup.extend(all.map(|t| t.build_s));
    m.set_opt("setup_s", stats::median(&setup), setup.len() as u64, "");
    // Each trial is a slice of the run; its cost is normalised per unit
    // of work because trial length (phases to decide) varies with the
    // seed while cost per delivery does not. The run is represented by
    // its best quartile of trials (see `stats::best_quartile`), and
    // throughput is that cost inverted.
    let per_unit: Vec<f64> = plain
        .iter()
        .map(|t| t.run_s * 1e3 * unit / t.work as f64)
        .collect();
    let op_ms = stats::best_quartile(&per_unit, false);
    m.set_opt("op_ms", op_ms, n, "no trial ran");
    m.set_opt(
        "ops_per_s",
        op_ms.map(|ms| unit * 1e3 / ms),
        n,
        "no trial ran",
    );
    // The share of the trials' wall time their thread was kept off the
    // CPU: stolen from the VM, or given to another thread.
    let run_s: f64 = plain.iter().map(|t| t.run_s).sum();
    let wall_s: f64 = plain.iter().map(|t| t.wall_s).sum();
    m.set("btbench.steal_frac", (1.0 - run_s / wall_s).max(0.0), n);

    if !args.trace {
        return;
    }
    // Exact counts come from the first `counted` trials only: how many
    // more fit in the window depends on the machine.
    let fixed = &plain[..counted];
    let k = counted as u64;
    m.set(
        "simnet.steps_total",
        fixed.iter().map(|t| t.steps).sum::<u64>() as f64,
        k,
    );
    m.set(
        "simnet.msgs_sent_total",
        fixed.iter().map(|t| t.msgs_sent).sum::<u64>() as f64,
        k,
    );
    let overhead: Vec<f64> = plain
        .iter()
        .zip(&trials.traced)
        .map(|(bare, traced)| traced.run_s / bare.run_s - 1.0)
        .collect();
    m.set_opt(
        "btbench.trace_overhead_frac",
        stats::median(&overhead),
        overhead.len() as u64,
        "",
    );
}

/// Engine self time per delivery: traced wall time minus the time spent
/// inside the wrapped processes (which the sinks time by the wall clock
/// too), over the traced steps.
fn engine_ns_per_delivery(trials: &Trials, process_ns: f64) -> f64 {
    let wall_ns: f64 = trials.traced.iter().map(|t| t.wall_s * 1e9).sum();
    let steps: u64 = trials.traced.iter().map(|t| t.steps).sum();
    (wall_ns - process_ns) / steps as f64
}

/// Codec and buffer replays over the message stream `sink` sampled.
fn replay_layers<M: Wire + Clone>(out: &mut Outcome, sink: &SimSink<M>, occupancy: u64, seed: u64) {
    let msgs = sink.msgs.borrow();
    let m = &mut out.metrics;
    let wire = micro::wire_ns(&msgs);
    let why = "no message was sampled";
    m.set_opt(
        "bt-core.wire_encode_ns",
        wire.map(|w| w.0),
        wire.map_or(0, |w| w.2),
        why,
    );
    m.set_opt(
        "bt-core.wire_decode_ns",
        wire.map(|w| w.1),
        wire.map_or(0, |w| w.2),
        why,
    );
    m.set_opt(
        "simnet.buffer_push_take_ns",
        micro::buffer_push_take_ns(&msgs, occupancy as usize, seed),
        occupancy,
        why,
    );
}

fn wrap<P>(process: P, sink: Option<&Rc<SimSink<P::Msg>>>) -> Box<dyn Process<Msg = P::Msg>>
where
    P: Process + 'static,
    P::Msg: Clone + 'static,
{
    match sink {
        Some(s) => Box::new(Traced::new(process, Rc::clone(s))),
        None => Box::new(process),
    }
}

struct ByzSinks {
    correct: Rc<SimSink<MaliciousMsg>>,
    attackers: Rc<SimSink<MaliciousMsg>>,
}

/// Figure 2 at size `n` with `k` balancing attackers and alternating
/// inputs, under the default ε-fair scheduler.
fn byz_system(config: Config, seed: u64, sinks: Option<&ByzSinks>) -> Sim<MaliciousMsg> {
    let (n, k) = (config.n(), config.k());
    let mut b = Sim::builder();
    for i in 0..n - k {
        let p = Malicious::new(config, Value::from(i % 2 == 0));
        b.process(wrap(p, sinks.map(|s| &s.correct)), Role::Correct);
    }
    for _ in 0..k {
        let p = ContrarianMalicious::new(config);
        b.process(wrap(p, sinks.map(|s| &s.attackers)), Role::Faulty);
    }
    b.seed(seed).step_limit(1_000_000 + 8 * (n as u64).pow(3));
    b.build()
}

fn byz_trial(config: Config, seed: u64, sinks: Option<&ByzSinks>) -> Trial {
    let (sim, build, _) = steal::timed(|| byz_system(config, seed, sinks));
    let (report, run, wall) = steal::timed(|| sim.run());
    let error = byz_check(&report)
        .err()
        .map(|e| format!("seed {seed}: {e}"));
    Trial {
        build_s: build.as_secs_f64(),
        run_s: run.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        steps: report.steps,
        msgs_sent: report.metrics.messages_sent,
        work: report.steps,
        decisions: report
            .correct()
            .filter(|&i| report.decisions[i].is_some())
            .count() as u64,
        phases: report.phases_to_decision().unwrap_or(0),
        slots: 0,
        peak_occupancy: report.metrics.max_buffer_occupancy,
        fingerprint: fnv1a64(
            format!("{:?}{:?}", report.decisions, report.decision_phases).as_bytes(),
        ),
        error,
    }
}

fn byz_check(report: &RunReport) -> Result<(), String> {
    if report.status != RunStatus::Stopped {
        return Err(format!("run ended {:?}, not decided", report.status));
    }
    if !report.all_correct_decided() {
        return Err("a correct process never decided".into());
    }
    if !report.agreement() {
        return Err("correct processes disagree".into());
    }
    Ok(())
}

/// `sim-byz-n128` / `sim-byz-n32`.
pub fn byz(args: &RunArgs, n: usize, k: usize, counted: usize) -> Outcome {
    let config = Config::malicious(n, k).expect("k within (n-1)/3");
    let epoch = Instant::now();
    let sinks = ByzSinks {
        correct: SimSink::new("bt-core", "malicious.on_receive", epoch),
        attackers: SimSink::new("adversary", "contrarian.on_receive", epoch),
    };
    let tag = 0x0b42_0000 + n as u64;
    let setup = setup_samples(args.quick, || byz_system(config, args.seed, None));
    let trials = measure(args, counted, |i, traced| {
        byz_trial(
            config,
            trial_seed(args.seed, tag, i),
            traced.then_some(&sinks),
        )
    });

    let mut out = Outcome::default();
    finish(&mut out, args, &trials, setup, 1e6, counted);
    let fixed = &trials.untraced[..counted];
    let phases_mean = fixed.iter().map(|t| t.phases).sum::<u64>() as f64 / counted as f64;
    if phases_mean >= EQ13_PHASES {
        out.errors.push(format!(
            "mean phases to decide {phases_mean} is not under eq. 13's {EQ13_PHASES}"
        ));
    }
    if args.trace {
        let m = &mut out.metrics;
        let decisions: u64 = fixed.iter().map(|t| t.decisions).sum();
        let msgs: u64 = fixed.iter().map(|t| t.msgs_sent).sum();
        m.set(
            "bt-core.msgs_per_decision",
            msgs as f64 / decisions as f64,
            decisions,
        );
        m.set("bt-core.phases_mean", phases_mean, counted as u64);
        m.set_opt(
            "bt-core.malicious_ns_per_delivery",
            sinks.correct.on_receive.borrow().mean_ns(),
            sinks.correct.on_receive.borrow().count,
            "no delivery was timed",
        );
        m.set(
            "simnet.engine_ns_per_delivery",
            engine_ns_per_delivery(
                &trials,
                sinks.correct.process_ns() + sinks.attackers.process_ns(),
            ),
            sinks.correct.calls.get() + sinks.attackers.calls.get(),
        );
        let occupancy = trials.untraced.iter().map(|t| t.peak_occupancy).max();
        replay_layers(&mut out, &sinks.correct, occupancy.unwrap_or(0), args.seed);
        drain(&mut out.trace, &[&sinks.correct, &sinks.attackers]);
    }
    out
}

fn drain<M>(log: &mut TraceLog, sinks: &[&Rc<SimSink<M>>]) {
    for s in sinks {
        s.drain_into(log);
    }
}

const REPLICAS: usize = 5;
/// 64-byte puts preloaded into each replica.
const BACKLOG_PER_REPLICA: u64 = 4_000;

/// The backlog every run of `sim-rsm-backlog` drains, from the seed.
fn backlog(seed: u64, per_replica: u64) -> Vec<Vec<Command>> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x00ba_c109);
    (0..REPLICAS as u64)
        .map(|i| {
            (1..=per_replica)
                .map(|request| Command {
                    client: i + 1,
                    request,
                    op: Op::Put {
                        key: format!("b{i}-{request}").into_bytes(),
                        value: (0..8).flat_map(|_| rng.next_u64().to_le_bytes()).collect(),
                    },
                })
                .collect()
        })
        .collect()
}

fn backlog_system(
    seed: u64,
    preload: &[Vec<Command>],
    views: &[LogView],
    sink: Option<&Rc<SimSink<RsmMsg>>>,
) -> Sim<RsmMsg> {
    let config = Config::malicious(REPLICAS, (REPLICAS - 1) / 3).expect("n=5, k=1");
    let mut b = Sim::builder();
    for (i, cmds) in preload.iter().enumerate() {
        let replica = Replica::new(config, ProcessId::new(i), RsmOptions::default())
            .with_view(views[i].clone())
            .with_preload(cmds.clone());
        b.process(wrap(replica, sink), Role::Correct);
    }
    b.seed(seed)
        .stop_when(StopWhen::Never)
        .step_limit(50_000_000);
    b.build()
}

fn backlog_trial(
    seed: u64,
    preload: &[Vec<Command>],
    sink: Option<&Rc<SimSink<RsmMsg>>>,
) -> (Trial, LogView) {
    let views: Vec<LogView> = (0..REPLICAS).map(|_| LogView::new()).collect();
    let (sim, build, _) = steal::timed(|| backlog_system(seed, preload, &views, sink));
    let (report, run, wall) = steal::timed(|| sim.run());

    let want: u64 = preload.iter().map(|c| c.len() as u64).sum();
    let state: Vec<(u64, u64, u64, u64)> = views
        .iter()
        .map(|v| {
            v.with(|a| {
                (
                    a.next_slot(),
                    a.digest(),
                    a.applied_commands,
                    a.deduped_commands,
                )
            })
        })
        .collect();
    let error = if report.status != RunStatus::Quiescent {
        Some(format!(
            "seed {seed}: run ended {:?}, not quiescent",
            report.status
        ))
    } else if state.iter().any(|s| *s != state[0]) {
        Some(format!(
            "seed {seed}: replicas applied different logs: {state:?}"
        ))
    } else if state[0].2 != want || state[0].3 != 0 {
        Some(format!(
            "seed {seed}: applied {} commands (deduped {}), preloaded {want}",
            state[0].2, state[0].3
        ))
    } else {
        None
    };
    let trial = Trial {
        build_s: build.as_secs_f64(),
        run_s: run.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        steps: report.steps,
        msgs_sent: report.metrics.messages_sent,
        work: want,
        decisions: 0,
        phases: 0,
        slots: state[0].0,
        peak_occupancy: report.metrics.max_buffer_occupancy,
        fingerprint: state[0].1,
        error,
    };
    (trial, views[0].clone())
}

/// `sim-rsm-backlog`.
pub fn rsm_backlog(args: &RunArgs, counted: usize) -> Outcome {
    let per_replica = if args.quick { 400 } else { BACKLOG_PER_REPLICA };
    let preload = backlog(args.seed, per_replica);
    let sink = SimSink::new("rsm", "replica.on_receive", Instant::now());
    let setup = setup_samples(args.quick, || {
        let views: Vec<LogView> = (0..REPLICAS).map(|_| LogView::new()).collect();
        backlog_system(args.seed, &preload, &views, None)
    });
    let mut last_view = LogView::new();
    let trials = measure(args, counted, |i, traced| {
        let (trial, view) = backlog_trial(
            trial_seed(args.seed, 0x00ba_c109, i),
            &preload,
            traced.then_some(&sink),
        );
        last_view = view;
        trial
    });

    let mut out = Outcome::default();
    finish(&mut out, args, &trials, setup, 1e3, counted);
    if args.trace {
        let m = &mut out.metrics;
        let fixed = &trials.untraced[..counted];
        let slots: u64 = fixed.iter().map(|t| t.slots).sum();
        let cmds: u64 = fixed.iter().map(|t| t.work).sum();
        let steps: u64 = fixed.iter().map(|t| t.steps).sum();
        let msgs: u64 = fixed.iter().map(|t| t.msgs_sent).sum();
        m.set("rsm.steps_per_slot", steps as f64 / slots as f64, slots);
        m.set("rsm.msgs_per_slot", msgs as f64 / slots as f64, slots);
        m.set("rsm.slots_per_op", slots as f64 / cmds as f64, cmds);
        m.set("rsm.batch_cmds_mean", cmds as f64 / slots as f64, slots);
        m.set_opt(
            "rsm.replica_ns_per_delivery",
            sink.on_receive.borrow().mean_ns(),
            sink.on_receive.borrow().count,
            "no delivery was timed",
        );
        m.set(
            "simnet.engine_ns_per_delivery",
            engine_ns_per_delivery(&trials, sink.process_ns()),
            sink.calls.get(),
        );
        let apply = micro::apply_ns_per_cmd(&last_view.with(|a| a.log.clone()));
        m.set_opt(
            "rsm.apply_ns_per_cmd",
            apply.map(|a| a.0),
            apply.map_or(0, |a| a.1),
            "the committed log holds no command",
        );
        let occupancy = trials.untraced.iter().map(|t| t.peak_occupancy).max();
        replay_layers(&mut out, &sink, occupancy.unwrap_or(0), args.seed);
        drain(&mut out.trace, &[&sink]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded run through `Traced` wrappers is step-for-step the bare
    /// run: same steps, decisions and phases to decision.
    #[test]
    fn traced_run_equals_bare_run() {
        let config = Config::malicious(10, 3).unwrap();
        let epoch = Instant::now();
        let sinks = ByzSinks {
            correct: SimSink::new("bt-core", "malicious.on_receive", epoch),
            attackers: SimSink::new("adversary", "contrarian.on_receive", epoch),
        };
        for seed in 0..5 {
            let bare = byz_system(config, seed, None).run();
            let traced = byz_system(config, seed, Some(&sinks)).run();
            assert_eq!(bare.steps, traced.steps);
            assert_eq!(bare.decisions, traced.decisions);
            assert_eq!(bare.decision_phases, traced.decision_phases);
            assert_eq!(bare.phases_to_decision(), traced.phases_to_decision());
            assert_eq!(bare.metrics, traced.metrics);
        }
        let calls = sinks.correct.calls.get();
        assert!(calls > 0);
        // One delivery in TIME_EVERY was timed, one in RAW_EVERY kept raw.
        let timed = sinks.correct.on_receive.borrow().count;
        assert_eq!(timed, calls.div_ceil(crate::trace::TIME_EVERY));
        assert_eq!(
            sinks.correct.raw.borrow().len() as u64,
            calls.div_ceil(crate::trace::RAW_EVERY)
        );
        assert_eq!(sinks.correct.on_start.borrow().count, 5 * 7);
    }

    #[test]
    fn backlog_drains_identically_traced_or_bare() {
        let preload = backlog(9, 50);
        let sink = SimSink::new("rsm", "replica.on_receive", Instant::now());
        let (bare, view) = backlog_trial(3, &preload, None);
        let (traced, _) = backlog_trial(3, &preload, Some(&sink));
        assert_eq!(bare.error, None);
        assert_eq!(traced.error, None);
        assert_eq!(
            (bare.steps, bare.msgs_sent, bare.slots, bare.fingerprint),
            (
                traced.steps,
                traced.msgs_sent,
                traced.slots,
                traced.fingerprint
            )
        );
        assert_eq!(view.with(|a| a.applied_commands), 250);
        assert_eq!(sink.calls.get(), traced.steps);
    }
}
