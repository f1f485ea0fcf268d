//! Golden-trace regression: a fully deterministic configuration (fixed
//! seed, round-robin scheduler) must replay the exact same event sequence
//! forever. If this test breaks, either the engine's scheduling semantics
//! or a protocol's deterministic behaviour changed — both are
//! compatibility-relevant events that deserve a deliberate golden update.

use std::sync::{Arc, Mutex};

use simnet::scheduler::RoundRobinScheduler;
use simnet::{Ctx, Envelope, Event, Process, ProcessId, Role, Sim, Subscriber, Value};

/// A tiny deterministic protocol: collect two values, decide their AND.
#[derive(Debug)]
struct TwoVoteAnd {
    input: Value,
    seen: Vec<Value>,
    decision: Option<Value>,
}

impl Process for TwoVoteAnd {
    type Msg = Value;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Value>) {
        ctx.broadcast(self.input);
    }

    fn on_receive(&mut self, env: Envelope<Value>, _ctx: &mut Ctx<'_, Value>) {
        if self.decision.is_some() {
            return;
        }
        self.seen.push(env.msg);
        if self.seen.len() == 2 {
            let both_one = self.seen.iter().all(|v| *v == Value::One);
            self.decision = Some(Value::from(both_one));
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn phase(&self) -> u64 {
        self.seen.len() as u64
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

/// Keeps every event of a run, in order.
#[derive(Default)]
struct Events(Vec<Event>);

impl Subscriber for Events {
    fn on_event(&mut self, event: &Event) {
        self.0.push(*event);
    }
}

/// Runs the fixed configuration; returns its report and its event stream.
fn run() -> (simnet::RunReport, Vec<Event>) {
    let events = Arc::new(Mutex::new(Events::default()));
    let mut b = Sim::builder();
    b.process(
        Box::new(TwoVoteAnd {
            input: Value::One,
            seen: Vec::new(),
            decision: None,
        }),
        Role::Correct,
    );
    b.process(
        Box::new(TwoVoteAnd {
            input: Value::Zero,
            seen: Vec::new(),
            decision: None,
        }),
        Role::Correct,
    );
    b.scheduler(Box::new(RoundRobinScheduler::new()))
        .seed(0)
        .subscriber(events.clone());
    let report = b.build().run();
    let events = std::mem::take(&mut events.lock().unwrap().0);
    (report, events)
}

#[test]
fn golden_event_sequence() {
    let (report, events) = run();
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let expected = vec![
        // Initial steps: each broadcasts to both, in index order.
        Event::Start { pid: p0 },
        Event::Send {
            step: 0,
            from: p0,
            to: p0,
        },
        Event::Send {
            step: 0,
            from: p0,
            to: p1,
        },
        Event::Start { pid: p1 },
        Event::Send {
            step: 0,
            from: p1,
            to: p0,
        },
        Event::Send {
            step: 0,
            from: p1,
            to: p1,
        },
        // Round-robin, FIFO: p0 gets its own message first…
        Event::Deliver {
            step: 1,
            to: p0,
            from: p0,
            index: 0,
        },
        // …then p1 gets p0's.
        Event::Deliver {
            step: 2,
            to: p1,
            from: p0,
            index: 0,
        },
        // Second sweep: both receive p1's broadcast and decide AND = 0.
        Event::Deliver {
            step: 3,
            to: p0,
            from: p1,
            index: 0,
        },
        Event::Decide {
            step: 3,
            pid: p0,
            value: Value::Zero,
        },
        Event::Halt { step: 3, pid: p0 },
        Event::Deliver {
            step: 4,
            to: p1,
            from: p1,
            index: 0,
        },
        Event::Decide {
            step: 4,
            pid: p1,
            value: Value::Zero,
        },
        Event::Halt { step: 4, pid: p1 },
    ];
    assert_eq!(events, expected);
    assert_eq!(report.decided_value(), Some(Value::Zero));
    assert_eq!(report.steps, 4);
}

#[test]
fn golden_is_stable_across_replays() {
    let (_, a) = run();
    let (_, b) = run();
    assert_eq!(a, b, "identical configurations replay identically");
}
