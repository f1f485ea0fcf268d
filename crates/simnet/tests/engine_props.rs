//! Property tests for the engine and schedulers: conservation laws,
//! scheduler contract compliance, and replay determinism — independent of
//! any particular protocol.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use simnet::scheduler::{
    DelayingScheduler, DeliveryOrder, FairScheduler, PartitionScheduler, RoundRobinScheduler,
    Scheduler, SystemView,
};
use simnet::{
    Buffer, Ctx, Envelope, Event, Process, ProcessId, Role, SharedSubscriber, Sim, SimRng,
    StopWhen, Subscriber, Value,
};

/// A gossiping process: forwards each received token to a pseudo-random
/// peer a bounded number of times, then decides. Exercises the engine with
/// nontrivial traffic while staying deterministic per seed.
#[derive(Debug)]
struct Gossip {
    hops_left: u32,
    decided: Option<Value>,
}

impl Process for Gossip {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.broadcast(self.hops_left);
    }

    fn on_receive(&mut self, env: Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
        if env.msg == 0 {
            self.decided.get_or_insert(Value::One);
            return;
        }
        if self.hops_left > 0 {
            self.hops_left -= 1;
            let n = ctx.n();
            let to = ProcessId::new(ctx.rng().index(n));
            ctx.send(to, env.msg - 1);
        } else {
            self.decided.get_or_insert(Value::Zero);
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn phase(&self) -> u64 {
        0
    }
}

/// Counts the sends and the atomic steps (starts plus deliveries) a run
/// publishes.
#[derive(Default)]
struct Counts {
    sends: u64,
    steps: u64,
}

impl Subscriber for Counts {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Send { .. } => self.sends += 1,
            Event::Start { .. } | Event::Deliver { .. } => self.steps += 1,
            _ => {}
        }
    }
}

fn gossip_sim(n: usize, hops: u32, seed: u64, observer: Option<SharedSubscriber>) -> Sim<u32> {
    let mut b = Sim::builder();
    for _ in 0..n {
        b.process(
            Box::new(Gossip {
                hops_left: hops,
                decided: None,
            }),
            Role::Correct,
        );
    }
    b.seed(seed).step_limit(200_000).stop_when(StopWhen::Never);
    if let Some(s) = observer {
        b.subscriber(s);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: sent = delivered + dropped + in-flight, and at
    /// quiescence in-flight is zero.
    #[test]
    fn message_conservation(n in 2usize..8, hops in 0u32..6, seed in any::<u64>()) {
        let counts = Arc::new(Mutex::new(Counts::default()));
        let r = gossip_sim(n, hops, seed, Some(counts.clone())).run();
        let m = &r.metrics;
        prop_assert_eq!(
            m.messages_sent,
            m.messages_delivered + m.messages_dropped + m.in_flight()
        );
        if r.status == simnet::RunStatus::Quiescent {
            prop_assert_eq!(m.in_flight(), 0, "quiescent runs drain completely");
        }
        // The event stream publishes every send, and one step per initial
        // step plus one per delivery.
        let counts = counts.lock().unwrap();
        prop_assert_eq!(counts.sends, m.messages_sent);
        prop_assert_eq!(counts.steps, n as u64 + m.messages_delivered);
    }

    /// Replay: seeds fully determine runs.
    #[test]
    fn replay_determinism(n in 2usize..8, hops in 0u32..6, seed in any::<u64>()) {
        let a = gossip_sim(n, hops, seed, None).run();
        let b = gossip_sim(n, hops, seed, None).run();
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Scheduler contract: every selection targets a runnable process and
    /// an in-bounds index, for every scheduler, on arbitrary buffer
    /// shapes.
    #[test]
    fn schedulers_return_valid_selections(
        counts in proptest::collection::vec(0usize..5, 1..7),
        runnable_bits in any::<u32>(),
        seed in any::<u64>(),
        which in 0usize..4,
    ) {
        let n = counts.len();
        let buffers: Vec<Buffer<u32>> = counts
            .iter()
            .map(|&c| {
                let mut b = Buffer::new();
                for m in 0..c {
                    b.push(Envelope::new(ProcessId::new(m % n), m as u32));
                }
                b
            })
            .collect();
        let runnable: Vec<bool> = (0..n).map(|i| runnable_bits >> i & 1 == 1).collect();
        let view = SystemView::new(&buffers, &runnable, 3);
        let mut rng = SimRng::seed(seed);

        let mut sched: Box<dyn Scheduler<u32>> = match which {
            0 => Box::new(FairScheduler::new()),
            1 => Box::new(RoundRobinScheduler::new()),
            2 => Box::new(DelayingScheduler::new(n, &[ProcessId::new(0)])),
            _ => {
                let left: Vec<ProcessId> = ProcessId::all(n).take(n / 2).collect();
                Box::new(PartitionScheduler::new(n, &left, 10, 3))
            }
        };

        let deliverable = view.total_deliverable();
        match sched.select(&view, &mut rng) {
            None => prop_assert_eq!(deliverable, 0, "must deliver when possible"),
            Some(sel) => {
                prop_assert!(view.is_runnable(sel.to), "selected a halted process");
                prop_assert!(sel.index < view.pending_len(sel.to), "index out of range");
            }
        }
    }

    /// The fair scheduler eventually picks every pending message of every
    /// runnable process (ε-fairness, §2.3).
    #[test]
    fn fair_scheduler_hits_everything(seed in any::<u64>()) {
        let buffers: Vec<Buffer<u32>> = (0..3)
            .map(|p| {
                let mut b = Buffer::new();
                for m in 0..3u32 {
                    b.push(Envelope::new(ProcessId::new(p), m));
                }
                b
            })
            .collect();
        let runnable = vec![true; 3];
        let view = SystemView::new(&buffers, &runnable, 0);
        let mut rng = SimRng::seed(seed);
        let mut fair = FairScheduler::new().delivery_order(DeliveryOrder::Random);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let sel = fair.select(&view, &mut rng).unwrap();
            seen.insert((sel.to, sel.index));
        }
        prop_assert_eq!(seen.len(), 9, "all (process, slot) pairs reachable");
    }

    /// Fork independence: forks with different stream ids diverge, same id
    /// from the same parent state agree.
    #[test]
    fn rng_fork_properties(seed in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(s1 != s2);
        let mut r1 = SimRng::seed(seed);
        let mut r2 = SimRng::seed(seed);
        let mut a = r1.fork(s1);
        let mut b = r2.fork(s1);
        prop_assert_eq!(a.next_u64(), b.next_u64(), "same fork id agrees");
        let mut r3 = SimRng::seed(seed);
        let mut c = r3.fork(s2);
        // Different ids almost surely diverge on the first draw.
        let _ = c.next_u64();
    }
}
