//! Link fault injection: the simnet adversarial schedulers, translated to
//! wall-clock time.
//!
//! In the simulator, the adversary is the *scheduler*: `DelayingScheduler`
//! starves chosen links, `PartitionScheduler` splits the system in two,
//! and the fair scheduler's randomness realises §2.3's probabilistic
//! assumption. Over sockets there is no scheduler to replace, so the same
//! adversities are injected where a real network would produce them — on
//! the sender's outbound path, per link:
//!
//! * **delay** — each message draws a uniform extra latency, the
//!   wall-clock analogue of the fair scheduler's reordering freedom
//!   (messages on *different* links overtake each other; a single link
//!   stays FIFO, which the paper's model permits);
//! * **partition** — messages crossing the cut are held back until the
//!   partition heals, the analogue of `PartitionScheduler`'s deferral.
//!   A healing partition only *delays* traffic, so the §2.1 reliable
//!   channel assumption still holds and consensus must still terminate;
//! * **drop** — true message loss. This one has no simnet counterpart
//!   because the paper's model forbids it; it exists to demonstrate,
//!   on stress runs, that the protocols' liveness (not safety) is what
//!   breaks when reliability is violated.
//!
//! All randomness comes from one seeded [`prng::Prng`], so a given plan +
//! seed injects the same fault pattern per message index on every run
//! (arrival timing still depends on the OS scheduler — networked runs are
//! reproducible in *pattern*, not in interleaving).

use std::fmt;
use std::time::{Duration, Instant};

use prng::Prng;
use simnet::ProcessId;

use crate::storage::DiskFault;

/// Declarative description of the faults to inject on outbound links.
///
/// The default plan is a perfectly reliable network: no delay, no drops,
/// no partition.
///
/// A plan round-trips losslessly through its [`Display`](fmt::Display)
/// spec string (parse it back with [`str::parse`]), so fuzzer repro
/// artifacts can embed the exact network conditions of a failing run:
///
/// ```
/// use std::time::Duration;
/// use netstack::FaultPlan;
///
/// let plan = FaultPlan::reliable()
///     .with_delay(Duration::ZERO, Duration::from_millis(20))
///     .with_partition(4, &[0, 1], Duration::from_millis(50));
/// let spec = plan.to_string();
/// assert_eq!(spec.parse::<FaultPlan>().unwrap(), plan);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    delay: Option<(Duration, Duration)>,
    drop_per_mille: u16,
    partition: Option<Partition>,
    crashes: Vec<CrashRestart>,
    disk: Vec<(usize, DiskFault)>,
}

/// A scheduled process crash with a later restart: kill node `node` at
/// `kill_after` (measured from cluster start), bring it back at
/// `restart_after`. Unlike the link faults above, this is a *process*
/// fault executed by the cluster supervisor, not by the per-link
/// injector — the injector ignores it. The restarted node recovers from
/// its write-ahead log, so the crash is the paper's benign fail-stop
/// fault extended with rejoin, never a Byzantine one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashRestart {
    /// Index of the node to kill.
    pub node: usize,
    /// When (after cluster start) the node is killed.
    pub kill_after: Duration,
    /// When (after cluster start) the node is restarted.
    pub restart_after: Duration,
}

/// A two-sided network partition that heals after a fixed duration.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Partition {
    /// Membership of side A (everything else is side B).
    side_a: Vec<bool>,
    /// How long after node start the cut lasts.
    heal_after: Duration,
}

impl FaultPlan {
    /// A perfectly reliable network (the default).
    #[must_use]
    pub fn reliable() -> Self {
        FaultPlan::default()
    }

    /// Adds a uniform per-message delay in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    #[must_use]
    pub fn with_delay(mut self, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "delay range must be ordered");
        self.delay = Some((min, max));
        self
    }

    /// Drops each message independently with probability
    /// `per_mille / 1000`. Violates the paper's reliable-channel
    /// assumption — use only to study what loss does to liveness.
    ///
    /// # Panics
    ///
    /// Panics if `per_mille > 1000`.
    #[must_use]
    pub fn with_drop(mut self, per_mille: u16) -> Self {
        assert!(per_mille <= 1000, "probability is at most 1000‰");
        self.drop_per_mille = per_mille;
        self
    }

    /// Partitions `side_a` (indices into the system) from the rest for
    /// `heal_after`, measured from injector creation. Cross-cut messages
    /// are delayed until healing, not lost.
    #[must_use]
    pub fn with_partition(mut self, n: usize, side_a: &[usize], heal_after: Duration) -> Self {
        let mut members = vec![false; n];
        for &i in side_a {
            members[i] = true;
        }
        self.partition = Some(Partition {
            side_a: members,
            heal_after,
        });
        self
    }

    /// Schedules a kill of node `node` at `kill_after` with a restart at
    /// `restart_after` (both measured from cluster start). Executed by
    /// the cluster supervisor; requires recovery (a WAL directory) to be
    /// configured on the cluster, and the restarted node rejoins by
    /// replaying its log.
    ///
    /// # Panics
    ///
    /// Panics if `kill_after > restart_after`.
    #[must_use]
    pub fn with_crash(
        mut self,
        node: usize,
        kill_after: Duration,
        restart_after: Duration,
    ) -> Self {
        assert!(
            kill_after <= restart_after,
            "a node must be killed before it restarts"
        );
        self.crashes.push(CrashRestart {
            node,
            kill_after,
            restart_after,
        });
        self
    }

    /// Injects `fault` into node `node`'s write-ahead-log storage layer
    /// (executed by the node's [`FaultyStorage`](crate::storage::FaultyStorage)
    /// wrapper, not by the per-link injector). Operation counts restart
    /// with each node incarnation, and a `flip` only bites once the log
    /// is long enough — so a fresh boot is unaffected and a *restart*
    /// observes the damage, which is the interesting case.
    #[must_use]
    pub fn with_disk(mut self, node: usize, fault: DiskFault) -> Self {
        self.disk.push((node, fault));
        self
    }

    /// The scheduled crash-restart faults, in the order added.
    #[must_use]
    pub fn crashes(&self) -> &[CrashRestart] {
        &self.crashes
    }

    /// Every `(node, fault)` storage-fault clause, in the order added.
    #[must_use]
    pub fn disk(&self) -> &[(usize, DiskFault)] {
        &self.disk
    }

    /// The storage faults aimed at node `node`, in the order added.
    #[must_use]
    pub fn disk_for(&self, node: usize) -> Vec<DiskFault> {
        self.disk
            .iter()
            .filter(|(i, _)| *i == node)
            .map(|&(_, f)| f)
            .collect()
    }

    /// Whether this plan can lose messages (and therefore void the
    /// reliable-channel guarantee consensus termination rests on).
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        self.drop_per_mille > 0
    }

    /// The configured per-message delay range, if any.
    #[must_use]
    pub fn delay(&self) -> Option<(Duration, Duration)> {
        self.delay
    }

    /// The configured per-message drop probability in per-mille.
    #[must_use]
    pub fn drop_per_mille(&self) -> u16 {
        self.drop_per_mille
    }

    /// The configured partition as `(side_a members, n, heal_after)`,
    /// if any.
    #[must_use]
    pub fn partition(&self) -> Option<(Vec<usize>, usize, Duration)> {
        self.partition.as_ref().map(|p| {
            let members = (0..p.side_a.len()).filter(|&i| p.side_a[i]).collect();
            (members, p.side_a.len(), p.heal_after)
        })
    }
}

/// Renders the plan as a compact spec string — `reliable` for the default
/// plan, otherwise `;`-separated clauses with durations in integer
/// nanoseconds: `delay=0..20000000;drop=5;partition=0,1/4@50000000;`
/// `crash=2@50000000..120000000` (kill node 2 at 50 ms, restart at
/// 120 ms); `disk=2:flip@8` (node 2 reads the log byte at offset 8
/// flipped on every open — see [`DiskFault`] for the fault grammar).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses = Vec::new();
        if let Some((min, max)) = self.delay {
            clauses.push(format!("delay={}..{}", min.as_nanos(), max.as_nanos()));
        }
        if self.drop_per_mille > 0 {
            clauses.push(format!("drop={}", self.drop_per_mille));
        }
        if let Some((members, n, heal)) = self.partition() {
            let side: Vec<String> = members.iter().map(ToString::to_string).collect();
            clauses.push(format!(
                "partition={}/{}@{}",
                side.join(","),
                n,
                heal.as_nanos()
            ));
        }
        for c in &self.crashes {
            clauses.push(format!(
                "crash={}@{}..{}",
                c.node,
                c.kill_after.as_nanos(),
                c.restart_after.as_nanos()
            ));
        }
        for (node, fault) in &self.disk {
            clauses.push(format!("disk={node}:{fault}"));
        }
        if clauses.is_empty() {
            write!(f, "reliable")
        } else {
            write!(f, "{}", clauses.join(";"))
        }
    }
}

fn parse_nanos(raw: &str, what: &str) -> Result<Duration, String> {
    raw.parse::<u64>()
        .map(Duration::from_nanos)
        .map_err(|_| format!("{what} must be integer nanoseconds, got {raw:?}"))
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::reliable();
        if spec == "reliable" {
            return Ok(plan);
        }
        for clause in spec.split(';') {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause without '=': {clause:?}"))?;
            match key {
                "delay" => {
                    let (min, max) = val
                        .split_once("..")
                        .ok_or_else(|| format!("delay needs 'min..max', got {val:?}"))?;
                    let min = parse_nanos(min, "delay min")?;
                    let max = parse_nanos(max, "delay max")?;
                    if min > max {
                        return Err(format!("delay range must be ordered, got {val:?}"));
                    }
                    plan = plan.with_delay(min, max);
                }
                "drop" => {
                    let pm = val
                        .parse::<u16>()
                        .map_err(|_| format!("drop needs per-mille, got {val:?}"))?;
                    plan = plan.with_drop(pm);
                }
                "partition" => {
                    let (cut, heal) = val
                        .split_once('@')
                        .ok_or_else(|| format!("partition needs '@heal', got {val:?}"))?;
                    let (side, n) = cut
                        .split_once('/')
                        .ok_or_else(|| format!("partition needs 'side/n', got {val:?}"))?;
                    let n = n
                        .parse::<usize>()
                        .map_err(|_| format!("partition size must be a count, got {n:?}"))?;
                    let mut members = Vec::new();
                    for idx in side.split(',').filter(|s| !s.is_empty()) {
                        let i = idx.parse::<usize>().map_err(|_| {
                            format!("partition member must be an index, got {idx:?}")
                        })?;
                        if i >= n {
                            return Err(format!("partition member {i} out of range for n={n}"));
                        }
                        members.push(i);
                    }
                    plan = plan.with_partition(n, &members, parse_nanos(heal, "partition heal")?);
                }
                "crash" => {
                    let (node, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("crash needs 'node@kill..restart', got {val:?}"))?;
                    let node = node
                        .parse::<usize>()
                        .map_err(|_| format!("crash node must be an index, got {node:?}"))?;
                    let (kill, restart) = window
                        .split_once("..")
                        .ok_or_else(|| format!("crash needs 'kill..restart', got {val:?}"))?;
                    let kill = parse_nanos(kill, "crash kill time")?;
                    let restart = parse_nanos(restart, "crash restart time")?;
                    if kill > restart {
                        return Err(format!("crash must restart after the kill, got {val:?}"));
                    }
                    plan = plan.with_crash(node, kill, restart);
                }
                "disk" => {
                    let (node, fault) = val
                        .split_once(':')
                        .ok_or_else(|| format!("disk needs 'node:fault', got {val:?}"))?;
                    let node = node
                        .parse::<usize>()
                        .map_err(|_| format!("disk node must be an index, got {node:?}"))?;
                    plan = plan.with_disk(node, fault.parse::<DiskFault>()?);
                }
                other => return Err(format!("unknown fault clause {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// What the injector decided for one message on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkAction {
    /// Send immediately.
    Deliver,
    /// Hold the message back for the given duration, then send.
    DelayBy(Duration),
    /// Lose the message.
    Drop,
}

/// Applies a [`FaultPlan`] to a node's outbound messages.
///
/// One injector lives in each node. It never reads the clock: its owner
/// hands it the boot instant (`epoch`, what partition healing is measured
/// against) and the current time of every decision.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Prng,
    epoch: Instant,
}

impl FaultInjector {
    /// Creates an injector, booted at `epoch`, whose random stream is
    /// derived from `seed`.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64, epoch: Instant) -> Self {
        FaultInjector {
            plan,
            rng: Prng::seed_from_u64(seed),
            epoch,
        }
    }

    /// Resumes the random stream from a saved
    /// [`FaultInjector::rng_state`] — recovery uses this so that replayed
    /// sends draw the *same* fate decisions (in particular the same
    /// drops, which gate sequence-number assignment) as the pre-crash
    /// incarnation. The epoch stays this boot's: partition healing is a
    /// wall-clock fault and is not replayed.
    pub fn restore(&mut self, state: [u64; 4]) {
        self.rng = Prng::from_state(state);
    }

    /// The injector's current 256-bit RNG state, for checkpointing.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Decides the fate of one message from `from` to `to` sent at `now`.
    pub fn action(&mut self, from: ProcessId, to: ProcessId, now: Instant) -> LinkAction {
        let rng = &mut self.rng;
        if self.plan.drop_per_mille > 0 && rng.below_u64(1000) < u64::from(self.plan.drop_per_mille)
        {
            return LinkAction::Drop;
        }
        let mut delay = Duration::ZERO;
        if let Some((min, max)) = self.plan.delay {
            let span = max.saturating_sub(min);
            let extra = if span.is_zero() {
                Duration::ZERO
            } else {
                let nanos = u64::try_from(span.as_nanos()).unwrap_or(u64::MAX);
                Duration::from_nanos(rng.below_u64(nanos.saturating_add(1)))
            };
            delay = min + extra;
        }
        if let Some(partition) = &self.plan.partition {
            let cut = partition.side_a.get(from.index()).copied().unwrap_or(false)
                != partition.side_a.get(to.index()).copied().unwrap_or(false);
            if cut {
                let elapsed = now.saturating_duration_since(self.epoch);
                if elapsed < partition.heal_after {
                    delay = delay.max(partition.heal_after - elapsed);
                }
            }
        }
        if delay.is_zero() {
            LinkAction::Deliver
        } else {
            LinkAction::DelayBy(delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_always_delivers() {
        let mut inj = FaultInjector::new(FaultPlan::reliable(), 1, Instant::now());
        for i in 0..50 {
            assert_eq!(
                inj.action(
                    ProcessId::new(i % 4),
                    ProcessId::new((i + 1) % 4),
                    Instant::now()
                ),
                LinkAction::Deliver
            );
        }
    }

    #[test]
    fn full_drop_loses_everything() {
        let mut inj = FaultInjector::new(FaultPlan::reliable().with_drop(1000), 1, Instant::now());
        for _ in 0..20 {
            assert_eq!(
                inj.action(ProcessId::new(0), ProcessId::new(1), Instant::now()),
                LinkAction::Drop
            );
        }
    }

    #[test]
    fn delay_stays_in_range() {
        let min = Duration::from_millis(2);
        let max = Duration::from_millis(9);
        let mut inj = FaultInjector::new(
            FaultPlan::reliable().with_delay(min, max),
            7,
            Instant::now(),
        );
        for _ in 0..100 {
            match inj.action(ProcessId::new(0), ProcessId::new(1), Instant::now()) {
                LinkAction::DelayBy(d) => assert!(d >= min && d <= max, "{d:?}"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_delays_cross_cut_only_until_heal() {
        let plan = FaultPlan::reliable().with_partition(4, &[0, 1], Duration::from_millis(40));
        let boot = Instant::now();
        let mut inj = FaultInjector::new(plan, 3, boot);
        // Cross-cut: delayed by exactly the remaining partition time.
        let at = boot + Duration::from_millis(10);
        assert_eq!(
            inj.action(ProcessId::new(0), ProcessId::new(2), at),
            LinkAction::DelayBy(Duration::from_millis(30))
        );
        // Same side: unaffected.
        assert_eq!(
            inj.action(ProcessId::new(0), ProcessId::new(1), at),
            LinkAction::Deliver
        );
        // Healed: cross-cut flows again.
        let healed = boot + Duration::from_millis(50);
        assert_eq!(
            inj.action(ProcessId::new(0), ProcessId::new(2), healed),
            LinkAction::Deliver
        );
    }

    #[test]
    fn same_plan_and_seed_repeat_the_same_pattern() {
        let plan = FaultPlan::reliable().with_drop(500);
        let mut a = FaultInjector::new(plan.clone(), 42, Instant::now());
        let mut b = FaultInjector::new(plan, 42, Instant::now());
        for _ in 0..64 {
            assert_eq!(
                a.action(ProcessId::new(0), ProcessId::new(1), Instant::now()),
                b.action(ProcessId::new(0), ProcessId::new(1), Instant::now())
            );
        }
    }

    #[test]
    fn lossy_detection() {
        assert!(!FaultPlan::reliable().is_lossy());
        assert!(FaultPlan::reliable().with_drop(1).is_lossy());
    }

    #[test]
    fn spec_round_trips_every_clause() {
        let plans = [
            FaultPlan::reliable(),
            FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(20)),
            FaultPlan::reliable().with_drop(5),
            FaultPlan::reliable().with_partition(4, &[0, 1], Duration::from_millis(50)),
            FaultPlan::reliable()
                .with_delay(Duration::from_micros(100), Duration::from_millis(3))
                .with_drop(999)
                .with_partition(7, &[2, 4, 6], Duration::from_secs(1)),
            FaultPlan::reliable().with_partition(3, &[], Duration::from_millis(1)),
            FaultPlan::reliable().with_crash(
                2,
                Duration::from_millis(50),
                Duration::from_millis(120),
            ),
            FaultPlan::reliable()
                .with_drop(3)
                .with_crash(0, Duration::from_millis(10), Duration::from_millis(10))
                .with_crash(4, Duration::from_millis(20), Duration::from_secs(1)),
            FaultPlan::reliable().with_disk(2, DiskFault::Flip { offset: 8 }),
            FaultPlan::reliable()
                .with_crash(1, Duration::from_millis(15), Duration::from_millis(60))
                .with_disk(1, DiskFault::Flip { offset: 8 })
                .with_disk(1, DiskFault::ShortWrite { nth: 3 })
                .with_disk(0, DiskFault::FsyncErr { nth: 1 })
                .with_disk(3, DiskFault::Enospc { nth: 2 })
                .with_disk(4, DiskFault::LostRename),
        ];
        for plan in plans {
            let spec = plan.to_string();
            let parsed: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(parsed, plan, "spec {spec:?} did not round-trip");
        }
    }

    #[test]
    fn spec_reliable_renders_and_parses() {
        assert_eq!(FaultPlan::reliable().to_string(), "reliable");
        assert_eq!(
            "reliable".parse::<FaultPlan>().unwrap(),
            FaultPlan::reliable()
        );
    }

    #[test]
    fn spec_rejects_malformed_clauses() {
        for bad in [
            "nonsense",
            "delay=5",
            "delay=9..3",
            "drop=many",
            "partition=0,1/4",
            "partition=9/4@100",
            "crash=1",
            "crash=1@500",
            "crash=x@1..2",
            "crash=1@9..3",
            "disk=1",
            "disk=x:flip@8",
            "disk=1:flip",
            "disk=1:flip@tail",
            "disk=1:lostrename@2",
            "disk=1:melt@3",
            "turtles=all-the-way",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rng_state_round_trip_resumes_the_decision_stream() {
        let plan = FaultPlan::reliable().with_drop(500);
        let mut a = FaultInjector::new(plan.clone(), 99, Instant::now());
        // Burn part of the stream, checkpoint, keep going on `a`.
        for _ in 0..17 {
            let _ = a.action(ProcessId::new(0), ProcessId::new(1), Instant::now());
        }
        let state = a.rng_state();
        let mut b = FaultInjector::new(plan, 0, Instant::now());
        b.restore(state);
        for _ in 0..64 {
            assert_eq!(
                a.action(ProcessId::new(0), ProcessId::new(1), Instant::now()),
                b.action(ProcessId::new(0), ProcessId::new(1), Instant::now())
            );
        }
    }

    #[test]
    fn crashes_accessor_and_injector_ignore_crash_faults() {
        let plan = FaultPlan::reliable().with_crash(
            1,
            Duration::from_millis(5),
            Duration::from_millis(30),
        );
        assert_eq!(plan.crashes().len(), 1);
        assert_eq!(plan.crashes()[0].node, 1);
        assert!(!plan.is_lossy(), "a crash-restart is not message loss");
        // The per-link injector executes link faults only; crash-restart
        // belongs to the cluster supervisor.
        let mut inj = FaultInjector::new(plan, 1, Instant::now());
        assert_eq!(
            inj.action(ProcessId::new(1), ProcessId::new(0), Instant::now()),
            LinkAction::Deliver
        );
    }

    #[test]
    fn accessors_expose_the_plan() {
        let plan = FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(2))
            .with_drop(7)
            .with_partition(5, &[1, 3], Duration::from_millis(9));
        assert_eq!(
            plan.delay(),
            Some((Duration::from_millis(1), Duration::from_millis(2)))
        );
        assert_eq!(plan.drop_per_mille(), 7);
        assert_eq!(
            plan.partition(),
            Some((vec![1, 3], 5, Duration::from_millis(9)))
        );
    }
}
