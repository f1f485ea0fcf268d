//! Scenario execution: one [`Scenario`], two runtimes.
//!
//! [`run_sim`] executes a scenario in the deterministic `simnet` simulator
//! with a JSONL trace attached — same scenario, same bytes, every time.
//! [`run_netstack`] executes the *same* scenario over loopback TCP via
//! `netstack::Cluster`, translating the schedule adversary into the
//! nearest wall-clock link-fault plan and, by [`NetMode`], adding a
//! seed-derived crash-restart or corrupt-WAL restart, which it sequences
//! itself through `Cluster::kill` and `Cluster::restart`. The socket runtime is only
//! reproducible in fault *pattern* (the OS interleaves arrivals), so
//! cross-runtime conformance is judged on decision properties, not traces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adversary::TwoFacedMalicious;
use bt_core::{Config, FailStop, Malicious, Simple, Termination};
use netstack::{
    sockets_available, Cluster, ClusterOptions, CrashPlan, DiskFault, FaultPlan, NodeFault, Proto,
    RecoveryOptions,
};
use obs::JsonlSink;
use simnet::scheduler::{
    DelayingScheduler, DeliveryOrder, FairScheduler, PartitionScheduler, ScriptedScheduler,
};
use simnet::{Process, ProcessId, Role, RunReport, Scheduler, Selection, SharedSubscriber, Sim};

use crate::invariants::{check, check_equivocations, check_storage, Violation};
use crate::scenario::{FaultSpec, OrderSpec, ProtoKind, Scenario, SchedSpec};

/// A simulated run's results: the report plus its JSONL trace.
#[derive(Debug)]
pub struct SimOutcome {
    /// The engine's run report.
    pub report: RunReport,
    /// The full JSONL trace (`run_start` line, events, `run_end` line).
    pub trace: String,
}

fn pids(indices: &[usize]) -> Vec<ProcessId> {
    indices.iter().map(|&i| ProcessId::new(i)).collect()
}

/// Builds a schedule adversary for an `n`-process simulator run (shared
/// with the multi-slot pipeline, whose scenarios carry the same
/// [`SchedSpec`]).
pub(crate) fn build_scheduler<M: 'static>(n: usize, sched: &SchedSpec) -> Box<dyn Scheduler<M>> {
    match sched {
        SchedSpec::Fair(order) => Box::new(FairScheduler::new().delivery_order(match order {
            OrderSpec::Random => DeliveryOrder::Random,
            OrderSpec::Fifo => DeliveryOrder::Fifo,
            OrderSpec::Lifo => DeliveryOrder::Lifo,
        })),
        SchedSpec::Delaying(victims) => Box::new(DelayingScheduler::new(n, &pids(victims))),
        SchedSpec::Partition {
            left,
            epoch_len,
            heal_every,
        } => Box::new(PartitionScheduler::new(
            n,
            &pids(left),
            *epoch_len,
            *heal_every,
        )),
    }
}

fn run_generic<M: Clone + PartialEq + 'static>(
    scenario: &Scenario,
    processes: Vec<Box<dyn Process<Msg = M>>>,
    schedule: Option<Vec<Selection>>,
) -> SimOutcome {
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    let mut b = Sim::builder();
    for (i, process) in processes.into_iter().enumerate() {
        let role = if scenario.faults[i].is_faulty() {
            Role::Faulty
        } else {
            Role::Correct
        };
        b.process(process, role);
    }
    match schedule {
        // Replays pin the exact recorded interleaving; the fallback lets a
        // schedule recorded under a *shorter* run still finish delivering.
        Some(script) => b.scheduler(Box::new(ScriptedScheduler::with_fallback(script))),
        None => b.scheduler(build_scheduler::<M>(scenario.n, &scenario.sched)),
    };
    b.seed(scenario.seed)
        .step_limit(scenario.step_limit)
        .subscriber(sink.clone() as SharedSubscriber);
    let report = b.build().run();
    let trace = sink.lock().expect("sink lock").contents();
    SimOutcome { report, trace }
}

/// Wraps a correct process according to its fault spec — the same
/// wrapping a socket node gets.
fn apply_fault<P>(process: P, fault: FaultSpec) -> Box<dyn Process<Msg = P::Msg>>
where
    P: Process + Send + 'static,
    P::Msg: 'static,
{
    node_fault(fault).apply(process)
}

/// Runs the scenario in the simulator; `schedule`, if given, replays an
/// exact recorded interleaving instead of the scenario's scheduler.
///
/// # Panics
///
/// Panics if the scenario's `(n, k)` violate the protocol's config bound —
/// generated and shrunk scenarios never do.
#[must_use]
pub fn run_sim_scheduled(scenario: &Scenario, schedule: Option<Vec<Selection>>) -> SimOutcome {
    // An injected defect lowers the scenario's bars, whatever the protocol.
    let lowered = |config: Config| {
        scenario
            .inject
            .as_ref()
            .map_or(config, |inject| inject.apply(config))
    };
    match scenario.proto {
        ProtoKind::FailStop => {
            let config =
                lowered(Config::fail_stop(scenario.n, scenario.k).expect("generator bound"));
            let processes = (0..scenario.n)
                .map(|i| {
                    apply_fault(
                        FailStop::new(config, scenario.inputs[i]),
                        scenario.faults[i],
                    )
                })
                .collect();
            run_generic(scenario, processes, schedule)
        }
        ProtoKind::Simple => {
            let config =
                lowered(Config::fail_stop(scenario.n, scenario.k).expect("generator bound"));
            let processes = (0..scenario.n)
                .map(|i| apply_fault(Simple::new(config, scenario.inputs[i]), scenario.faults[i]))
                .collect();
            run_generic(scenario, processes, schedule)
        }
        ProtoKind::Malicious => {
            let config =
                lowered(Config::malicious(scenario.n, scenario.k).expect("generator bound"));
            let processes = (0..scenario.n)
                .map(|i| -> Box<dyn Process<Msg = bt_core::MaliciousMsg>> {
                    if scenario.faults[i] == FaultSpec::TwoFaced {
                        Box::new(TwoFacedMalicious::new(config))
                    } else {
                        // The §3.3 exit procedure, not the as-written
                        // infinite loop: under a partition schedule a
                        // laggard's inbox otherwise grows without bound
                        // while deciders churn phases forever, and the
                        // random-delivery catch-up time explodes past any
                        // step limit (found by the fuzzer). Wildcard exit
                        // bounds the backlog so convergence is checkable.
                        apply_fault(
                            Malicious::with_termination(
                                config,
                                scenario.inputs[i],
                                Termination::WildcardExit,
                            ),
                            scenario.faults[i],
                        )
                    }
                })
                .collect();
            run_generic(scenario, processes, schedule)
        }
    }
}

/// Runs the scenario in the simulator with its own scheduler.
#[must_use]
pub fn run_sim(scenario: &Scenario) -> SimOutcome {
    run_sim_scheduled(scenario, None)
}

/// The wall-clock fault plan standing in for the scenario's scheduler:
/// fair ⇒ small reorder jitter, delaying ⇒ larger per-message delay,
/// partition ⇒ a real cut that heals. All are delay-only, so the §2.1
/// reliable-channel assumption — and hence termination — is preserved.
#[must_use]
pub fn netstack_fault_plan(scenario: &Scenario) -> FaultPlan {
    match &scenario.sched {
        SchedSpec::Fair(_) => {
            FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(2))
        }
        SchedSpec::Delaying(_) => {
            FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(15))
        }
        SchedSpec::Partition { left, .. } => FaultPlan::reliable()
            .with_delay(Duration::ZERO, Duration::from_millis(2))
            .with_partition(scenario.n, left, Duration::from_millis(60)),
    }
}

fn node_fault(fault: FaultSpec) -> NodeFault {
    match fault {
        FaultSpec::Correct => NodeFault::Correct,
        FaultSpec::CrashAfterSends(s) => NodeFault::Crash(CrashPlan::AfterSends(s)),
        FaultSpec::CrashAtPhase(p) => NodeFault::Crash(CrashPlan::AtPhase(p)),
        FaultSpec::Silent => NodeFault::Silent,
        FaultSpec::TwoFaced => NodeFault::TwoFaced,
    }
}

/// What a loopback run injects beyond the scenario's own faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetMode {
    /// Nothing: WAL-less nodes under [`netstack_fault_plan`] only.
    Plain,
    /// Journaling nodes plus a crash-restart: one correct node, chosen by
    /// seed, is killed mid-run and restarted from its WAL. [`run_netstack`]
    /// sequences both itself — `Cluster::kill`, a sleep, `Cluster::restart`
    /// — at offsets from just before the cluster boots, then awaits the
    /// verdict; nothing else restarts a node, so a died event loop is a
    /// finding. All timing comes from the seed so a CI finding replays on
    /// a laptop.
    Crash,
    /// [`NetMode::Crash`] plus a byte flip at offset 8 armed in the
    /// victim's WAL storage. Offset 8 is the first body byte of the WAL's
    /// first record, so the flip lands mid-log — unsafely damaged, never
    /// a torn tail — and, because flips apply at open, the fresh boot
    /// writes a clean log and only the post-kill reopen sees the damage:
    /// the restarted node must detect it, boot amnesiac, and recover real
    /// state by quorum transfer.
    Storage,
}

/// A loopback run's results: the report plus the recovery observables
/// the invariant suite checks (all zero/empty-handed under
/// [`NetMode::Plain`], which restarts nobody).
#[derive(Debug)]
pub struct NetOutcome {
    /// The mode the run was executed under.
    pub mode: NetMode,
    /// The cluster's synthesized run report.
    pub report: RunReport,
    /// Per-node equivocation counters: conflicting re-sends each node
    /// *observed*. Must be all-zero on a correct tree — a restarted node
    /// replays its journal, and an amnesiac one is muzzled precisely so
    /// it cannot contradict its own forgotten sends.
    pub equivocations: Vec<u64>,
    /// Restarts performed per node.
    pub restarts: Vec<u32>,
    /// Cluster-lifetime `bt_wal_corruptions_total`: boots that found the
    /// WAL unsafely damaged.
    pub corruptions: u64,
    /// Cluster-lifetime `bt_state_transfers_total`: quorum state
    /// transfers completed by an amnesiac node.
    pub transfers: u64,
    /// The node the mode's crash (and flip) targets.
    pub victim: Option<usize>,
}

impl NetOutcome {
    /// Every invariant this run is held to: the decision properties, zero
    /// observed equivocations, and — where a flip was armed — corruption
    /// detected and healed.
    #[must_use]
    pub fn violations(&self, scenario: &Scenario) -> Vec<Violation> {
        let mut out = check(scenario, &self.report, &[]);
        out.extend(check_equivocations(&self.equivocations));
        if let (NetMode::Storage, Some(victim)) = (self.mode, self.victim) {
            out.extend(check_storage(self.corruptions, self.transfers, victim));
        }
        out
    }
}

/// Distinguishes the scratch WAL directories of concurrent runs in one
/// process (tests run on parallel threads).
static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Runs the scenario over loopback TCP under `mode`, or `None` when the
/// sandbox forbids sockets or the scenario carries an injection (lowered
/// bars are a simulator-only self-test). Journaling modes keep their WALs
/// in a scratch directory that lives only for the run.
#[must_use]
pub fn run_netstack(scenario: &Scenario, timeout: Duration, mode: NetMode) -> Option<NetOutcome> {
    if !sockets_available() || scenario.inject.is_some() {
        return None;
    }
    let proto = match scenario.proto {
        ProtoKind::FailStop => Proto::FailStop,
        ProtoKind::Simple => Proto::Simple,
        ProtoKind::Malicious => Proto::Malicious,
    };
    let mut link_fault = netstack_fault_plan(scenario);
    let mut crash = None;
    let mut recovery = None;
    if mode != NetMode::Plain {
        let correct: Vec<usize> = (0..scenario.n)
            .filter(|&i| !scenario.faults[i].is_faulty())
            .collect();
        let v = correct[(scenario.seed as usize) % correct.len()];
        let kill = Duration::from_millis(20 + (scenario.seed >> 8) % 20);
        let restart = kill + Duration::from_millis(40 + (scenario.seed >> 16) % 40);
        crash = Some((v, kill, restart));
        if mode == NetMode::Storage {
            link_fault = link_fault.with_disk(v, DiskFault::Flip { offset: 8 });
        }
        recovery = Some(RecoveryOptions {
            wal_dir: std::env::temp_dir().join(format!(
                "btdst-wal-{}-{}",
                std::process::id(),
                RUN_ID.fetch_add(1, Ordering::Relaxed)
            )),
            // Crash runs exercise both recovery paths across seeds:
            // genesis replay and snapshot-resume. Storage runs never
            // snapshot: the flip must hit protocol records.
            snapshot_every: if mode == NetMode::Storage || scenario.seed.is_multiple_of(2) {
                0
            } else {
                8
            },
        });
    }
    let wal_dir = recovery.as_ref().map(|r| r.wal_dir.clone());
    let options = ClusterOptions {
        seed: scenario.seed,
        inputs: scenario.inputs.clone(),
        faults: scenario.faults.iter().map(|&f| node_fault(f)).collect(),
        link_fault,
        recovery,
        admin: false,
    };
    // The crash's offsets count from here, just before the cluster boots.
    let began = Instant::now();
    let outcome = Cluster::spawn(scenario.n, scenario.k, proto, options, None)
        .ok()
        .map(|mut cluster| {
            if let Some((v, kill, restart)) = crash {
                std::thread::sleep((began + kill).saturating_duration_since(Instant::now()));
                cluster.kill(v);
                std::thread::sleep((began + restart).saturating_duration_since(Instant::now()));
                // A failed restart leaves the victim down, which the
                // verdict reports at once.
                if let Err(e) = cluster.restart(v) {
                    eprintln!("run_netstack: restart of p{v} failed: {e}");
                }
            }
            let report = cluster.await_verdict(timeout);
            let out = NetOutcome {
                mode,
                report,
                equivocations: cluster.nodes().iter().map(|n| n.equivocations()).collect(),
                restarts: cluster.restarts().to_vec(),
                corruptions: cluster.wal_corruptions(),
                transfers: cluster.state_transfers(),
                victim: crash.map(|(v, _, _)| v),
            };
            cluster.shutdown();
            out
        });
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use prng::Prng;
    use simnet::RunStatus;

    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn generated_scenarios_replay_byte_identically() {
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..10 {
            let s = Scenario::generate(&mut rng);
            let a = run_sim(&s);
            let b = run_sim(&s);
            assert_eq!(a.trace, b.trace, "nondeterministic trace: {}", s.describe());
            assert_eq!(a.report.decisions, b.report.decisions);
        }
    }

    #[test]
    fn recorded_schedule_replays_to_the_same_decisions() {
        let mut rng = Prng::seed_from_u64(9);
        let s = Scenario::generate(&mut rng);
        let original = run_sim(&s);
        let lines = obs::parse_trace(&original.trace).expect("trace parses");
        let schedule = obs::schedule_of(&lines);
        let replayed = run_sim_scheduled(&s, Some(schedule));
        assert_eq!(original.report.decisions, replayed.report.decisions);
        assert_eq!(original.report.status, replayed.report.status);
    }

    /// The same four-node scenario under every run mode: all decide, the
    /// mode's whole invariant set holds (`check_storage` only where a
    /// flip is armed), and the journaling modes really restarted someone.
    #[test]
    fn netstack_cross_check_holds_under_every_mode() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let s = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 0xD15C,
            inputs: vec![simnet::Value::One; 4],
            faults: vec![FaultSpec::Correct; 4],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 100_000,
            inject: None,
        };
        for mode in [NetMode::Plain, NetMode::Crash, NetMode::Storage] {
            let out =
                run_netstack(&s, Duration::from_secs(30), mode).expect("sockets probed available");
            assert_eq!(
                out.report.status,
                RunStatus::Stopped,
                "{mode:?}: all decided"
            );
            let violations = out.violations(&s);
            assert!(
                violations.is_empty(),
                "{mode:?}: {violations:?} (equivocations {:?}, {} corruption(s), {} transfer(s))",
                out.equivocations,
                out.corruptions,
                out.transfers
            );
            assert_eq!(out.victim.is_some(), mode != NetMode::Plain);
            let expected: Vec<u32> = (0..s.n).map(|i| u32::from(out.victim == Some(i))).collect();
            assert_eq!(
                out.restarts, expected,
                "{mode:?}: the run restarts its victim once and nobody else"
            );
        }
    }

    #[test]
    fn injected_scenario_runs_on_the_lowered_bars() {
        let s = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 3,
            inputs: vec![
                simnet::Value::One,
                simnet::Value::Zero,
                simnet::Value::One,
                simnet::Value::Zero,
            ],
            faults: vec![FaultSpec::Correct; 4],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 100_000,
            inject: Some(crate::scenario::Injection::broken_fig1_quorums()),
        };
        let out = run_sim(&s);
        // The fully weakened protocol decides at the end of phase 0 — the
        // run must at least complete; whether it *agrees* is the fuzzer's
        // business.
        assert_eq!(out.report.status, RunStatus::Stopped);
        assert_eq!(out.report.phases_to_decision(), Some(1));
    }

    /// An injection reaches Figure 2 too: at n = 3k+1 against a two-faced
    /// process, seeds that all agree on the paper's bars split once both
    /// Figure 2 bars sit one lower.
    #[test]
    fn injected_fig2_defect_breaks_the_malicious_protocol() {
        use bt_core::Threshold;
        use simnet::Value::{One, Zero};

        use crate::invariants::classes;
        use crate::scenario::Injection;

        let mut s = Scenario {
            proto: ProtoKind::Malicious,
            n: 4,
            k: 1,
            seed: 0,
            inputs: vec![Zero, One, Zero, One],
            faults: vec![
                FaultSpec::TwoFaced,
                FaultSpec::Correct,
                FaultSpec::Correct,
                FaultSpec::Correct,
            ],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 1_000_000,
            inject: None,
        };
        let lowered = Injection {
            lower: vec![
                (Threshold::EchoesToAccept, 1),
                (Threshold::AcceptedToDecide, 1),
            ],
        };
        let mut split = 0;
        for seed in 0..200 {
            s.seed = seed;
            for inject in [None, Some(lowered.clone())] {
                s.inject = inject;
                let out = run_sim(&s);
                let trace = obs::parse_trace(&out.trace).expect("trace parses");
                let disagrees = classes(&check(&s, &out.report, &trace)).contains(&"disagreement");
                assert!(
                    !(disagrees && s.inject.is_none()),
                    "Theorem 4 broken at seed {seed}"
                );
                split += usize::from(disagrees);
            }
        }
        assert!(split > 0, "no seed below 200 disagrees on the lowered bars");
    }
}
