//! Link fault injection: the simnet adversarial schedulers, translated to
//! wall-clock time.
//!
//! In the simulator, the adversary is the *scheduler*: `DelayingScheduler`
//! starves chosen links, `PartitionScheduler` splits the system in two,
//! and the fair scheduler's randomness realises §2.3's probabilistic
//! assumption. Over sockets there is no scheduler to replace, so the same
//! adversities are injected where a real network would produce them — on
//! the sender's outbound link, per frame:
//!
//! * **delay** — each frame draws a uniform extra latency, the wall-clock
//!   analogue of the fair scheduler's reordering freedom (frames on
//!   *different* links overtake each other; a single link stays FIFO,
//!   which the paper's model permits);
//! * **partition** — frames crossing the cut are held back until the
//!   partition heals, the analogue of `PartitionScheduler`'s deferral.
//!
//! Both only change *when* a sealed frame leaves, never its bytes or its
//! sequence number: the §2.1 channels stay reliable, so consensus must
//! still terminate. There is no message loss — the paper's model has
//! none, and its only adversary is the scheduler.
//!
//! All randomness comes from one seeded [`prng::Prng`] per link, so a
//! given plan + seed injects the same delay per frame index on every run
//! (arrival timing still depends on the OS scheduler — networked runs are
//! reproducible in *pattern*, not in interleaving).

use std::fmt;
use std::time::{Duration, Instant};

use prng::Prng;
use simnet::ProcessId;

use crate::storage::DiskFault;

/// Declarative description of the faults to inject on outbound links.
///
/// The default plan is a perfectly reliable network: no delay, no
/// partition.
///
/// The link clauses (delay, partition) only ever hold a sealed frame
/// back; none loses one. A plan renders as a compact spec string through
/// its [`Display`](fmt::Display), so fuzzer repro artifacts can record the
/// exact network conditions of a failing run:
///
/// ```
/// use std::time::Duration;
/// use netstack::FaultPlan;
///
/// assert_eq!(FaultPlan::reliable().to_string(), "reliable");
/// // Every frame waits 0–20 ms; frames between {0, 1} and {2, 3} also
/// // wait until 50 ms after their sender's boot.
/// let plan = FaultPlan::reliable()
///     .with_delay(Duration::ZERO, Duration::from_millis(20))
///     .with_partition(4, &[0, 1], Duration::from_millis(50));
/// assert_eq!(plan.to_string(), "delay=0..20000000;partition=0,1/4@50000000");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    delay: Option<(Duration, Duration)>,
    partition: Option<Partition>,
    disk: Vec<(usize, DiskFault)>,
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

    /// Adds a uniform per-frame delay in `[min, max]`.
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

    /// Partitions `side_a` (indices into the system) from the rest for
    /// `heal_after`, measured from each node incarnation's boot. Cross-cut
    /// frames are delayed until healing, not lost.
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

    /// Injects `fault` into node `node`'s write-ahead-log storage layer
    /// (executed by the node's [`FaultyStorage`](crate::storage::FaultyStorage)
    /// wrapper, not by a link). Operation counts restart
    /// with each node incarnation, and a `flip` only bites once the log
    /// is long enough — so a fresh boot is unaffected and a *restart*
    /// observes the damage, which is the interesting case.
    #[must_use]
    pub fn with_disk(mut self, node: usize, fault: DiskFault) -> Self {
        self.disk.push((node, fault));
        self
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

    /// The configured per-frame delay range, if any.
    #[must_use]
    pub fn delay(&self) -> Option<(Duration, Duration)> {
        self.delay
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
/// nanoseconds: `delay=0..20000000;partition=0,1/4@50000000;`
/// `disk=2:flip@8` (node 2 reads the log byte at offset 8 flipped on
/// every open — see [`DiskFault`] for the fault grammar).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses = Vec::new();
        if let Some((min, max)) = self.delay {
            clauses.push(format!("delay={}..{}", min.as_nanos(), max.as_nanos()));
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

/// Applies a [`FaultPlan`] to one outbound link: when each frame may
/// leave.
///
/// A node's link to each peer owns one, built by
/// [`FaultInjector::for_link`] and consulted once per frame, when the
/// frame first reaches the link. It never reads the clock: its owner hands
/// it the boot instant (`epoch`, what partition healing is measured
/// against — each incarnation's own) and the time of every draw.
#[derive(Debug)]
pub struct FaultInjector {
    delay: Option<(Duration, Duration)>,
    /// When the partition across this link heals, if one cuts it.
    heal_at: Option<Instant>,
    rng: Prng,
}

impl FaultInjector {
    /// The injector for the link `from → to` of a node booted at `epoch`
    /// whose seed is `seed`, or `None` when the plan never holds a frame
    /// on this link (no delay, and no partition across it): a reliable
    /// link does no per-frame work.
    #[must_use]
    pub fn for_link(
        plan: &FaultPlan,
        seed: u64,
        from: ProcessId,
        to: ProcessId,
        epoch: Instant,
    ) -> Option<Self> {
        let side = |p: &Partition, i: ProcessId| p.side_a.get(i.index()).copied().unwrap_or(false);
        let heal_at = (plan.partition.as_ref())
            .filter(|p| side(p, from) != side(p, to))
            .map(|p| epoch + p.heal_after);
        (plan.delay.is_some() || heal_at.is_some()).then(|| FaultInjector {
            delay: plan.delay,
            heal_at,
            // A stream distinct from the protocol's (which `seed` also
            // seeds) and from every other link's.
            rng: Prng::seed_from_u64(seed ^ 0x6e65_7473 ^ ((to.index() as u64) << 32)),
        })
    }

    /// When a frame that reaches the link at `now` may leave.
    pub fn release(&mut self, now: Instant) -> Instant {
        let mut at = now;
        if let Some((min, max)) = self.delay {
            let span = u64::try_from(max.saturating_sub(min).as_nanos()).unwrap_or(u64::MAX);
            let extra = if span == 0 {
                0
            } else {
                self.rng.below_u64(span.saturating_add(1))
            };
            at += min + Duration::from_nanos(extra);
        }
        self.heal_at.map_or(at, |heal| at.max(heal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(plan: &FaultPlan, from: usize, to: usize, epoch: Instant) -> Option<FaultInjector> {
        FaultInjector::for_link(plan, 1, ProcessId::new(from), ProcessId::new(to), epoch)
    }

    #[test]
    fn reliable_plan_always_delivers() {
        // No injector at all: no link of a reliable plan ever holds a frame.
        for i in 0..4 {
            assert!(link(&FaultPlan::reliable(), i, (i + 1) % 4, Instant::now()).is_none());
        }
    }

    #[test]
    fn delay_stays_in_range() {
        let min = Duration::from_millis(2);
        let max = Duration::from_millis(9);
        let plan = FaultPlan::reliable().with_delay(min, max);
        let mut inj = link(&plan, 0, 1, Instant::now()).unwrap();
        for _ in 0..100 {
            let now = Instant::now();
            let d = inj.release(now) - now;
            assert!(d >= min && d <= max, "{d:?}");
        }
    }

    #[test]
    fn partition_delays_cross_cut_only_until_heal() {
        let plan = FaultPlan::reliable().with_partition(4, &[0, 1], Duration::from_millis(40));
        let boot = Instant::now();
        // Cross-cut: held until the partition heals.
        let mut cut = link(&plan, 0, 2, boot).unwrap();
        let at = boot + Duration::from_millis(10);
        assert_eq!(cut.release(at), boot + Duration::from_millis(40));
        // Same side: unaffected.
        assert!(link(&plan, 0, 1, boot).is_none());
        // Healed: cross-cut flows again.
        let healed = boot + Duration::from_millis(50);
        assert_eq!(cut.release(healed), healed);
    }

    #[test]
    fn same_plan_and_seed_repeat_the_same_pattern() {
        let plan = FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(10));
        let now = Instant::now();
        let mut a = link(&plan, 0, 1, now).unwrap();
        let mut b = link(&plan, 0, 1, now).unwrap();
        for _ in 0..64 {
            assert_eq!(a.release(now), b.release(now));
        }
    }

    #[test]
    fn spec_renders_every_clause() {
        assert_eq!(FaultPlan::reliable().to_string(), "reliable");
        let plan = FaultPlan::reliable()
            .with_delay(Duration::from_micros(100), Duration::from_millis(3))
            .with_partition(7, &[2, 4, 6], Duration::from_secs(1))
            .with_disk(1, DiskFault::Flip { offset: 8 })
            .with_disk(1, DiskFault::ShortWrite { nth: 3 })
            .with_disk(0, DiskFault::FsyncErr { nth: 1 })
            .with_disk(3, DiskFault::Enospc { nth: 2 })
            .with_disk(4, DiskFault::LostRename);
        assert_eq!(
            plan.to_string(),
            "delay=100000..3000000;partition=2,4,6/7@1000000000;\
             disk=1:flip@8;disk=1:short@3;disk=0:fsyncerr@1;disk=3:enospc@2;disk=4:lostrename"
        );
    }

    #[test]
    fn accessors_expose_the_plan() {
        let plan = FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(2))
            .with_partition(5, &[1, 3], Duration::from_millis(9));
        assert_eq!(
            plan.delay(),
            Some((Duration::from_millis(1), Duration::from_millis(2)))
        );
        assert_eq!(
            plan.partition(),
            Some((vec![1, 3], 5, Duration::from_millis(9)))
        );
    }
}
