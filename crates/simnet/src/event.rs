//! Run events: what the engine and the protocols publish, step by step,
//! to a run's [`Subscriber`](crate::Subscriber).

use crate::{ProcessId, Value};

/// A structured protocol-level event, emitted by a protocol through
/// [`Ctx::emit`](crate::Ctx::emit) and surfaced as [`Event::Protocol`].
///
/// Engine events ([`Event::Send`], [`Event::Deliver`], …) describe what the
/// *message system* did; `ProtocolEvent`s describe what the *protocol state
/// machine* did with it — the phase transitions, witness counts and echo
/// tallies that §4 of the paper reasons about. Emission is free when
/// observability is off (the engine leaves the context's event buffer
/// disabled unless a subscriber is attached).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// The process advanced to `phase` (`phaseno ← phase`).
    PhaseEntered {
        /// The phase just entered.
        phase: u64,
    },
    /// A value reached witness cardinality at this process (fail-stop
    /// protocol: a message carried `cardinality > n/2`).
    WitnessReached {
        /// The phase in which the witness was observed.
        phase: u64,
        /// The witnessed value.
        value: Value,
        /// The cardinality that made it a witness.
        cardinality: usize,
    },
    /// An initial/echo broadcast instance was accepted (malicious protocol:
    /// more than `(n + k)/2` echoes for one `(subject, value, phase)`).
    EchoAccepted {
        /// The phase of the accepted broadcast.
        phase: u64,
        /// The process whose initial message was echoed.
        subject: ProcessId,
        /// The accepted value.
        value: Value,
        /// Distinct echoes counted at acceptance.
        echoes: usize,
    },
    /// The process's current estimate changed between phases.
    ValueFlipped {
        /// The phase in which the flip happened.
        phase: u64,
        /// The previous estimate.
        from: Value,
        /// The new estimate.
        to: Value,
    },
    /// A randomized protocol drew its local coin (Ben-Or's random step).
    CoinFlipped {
        /// The phase (round) of the flip.
        phase: u64,
        /// The value the coin chose.
        value: Value,
    },
    /// The process irrevocably set `d_p` while in `phase`.
    Decided {
        /// The paper's decision phase (`phaseno` when `d_p` was set).
        phase: u64,
        /// The decision value.
        value: Value,
    },
    /// The process left the protocol (post-decision exit broadcast done).
    Halted {
        /// The phase at halt.
        phase: u64,
    },
}

/// One observable event in a run. Message payloads are deliberately not
/// recorded — traces stay message-type-agnostic and cheap; protocol-level
/// state is carried by the structured [`Event::Protocol`] variant instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A process took its initial atomic step.
    Start {
        /// The process taking the step.
        pid: ProcessId,
    },
    /// A message was delivered (the receiver took an atomic step on it).
    Deliver {
        /// Global step counter at delivery.
        step: u64,
        /// The receiver.
        to: ProcessId,
        /// The authenticated sender.
        from: ProcessId,
        /// The buffer slot the scheduler selected (the `index` of the
        /// [`Selection`](crate::Selection) that caused this delivery).
        /// Together with `to` this pins the exact schedule, so a recorded
        /// trace can be replayed through
        /// [`ScriptedScheduler`](crate::scheduler::ScriptedScheduler).
        /// Runtimes without delivery buffers (the netstack socket runtime)
        /// report 0.
        index: usize,
    },
    /// A message was placed in a buffer.
    Send {
        /// Global step counter at send.
        step: u64,
        /// The sender.
        from: ProcessId,
        /// The recipient.
        to: ProcessId,
    },
    /// A process irrevocably decided.
    Decide {
        /// Global step counter at decision.
        step: u64,
        /// The deciding process.
        pid: ProcessId,
        /// The decision value.
        value: Value,
    },
    /// A process halted (left the protocol, or crashed).
    Halt {
        /// Global step counter at halt.
        step: u64,
        /// The halting process.
        pid: ProcessId,
    },
    /// A protocol-level event emitted by the process taking the step.
    Protocol {
        /// Global step counter when the event was emitted.
        step: u64,
        /// The emitting process.
        pid: ProcessId,
        /// The structured protocol event.
        event: ProtocolEvent,
    },
    /// A crashed process rejoined by replaying its durable log (the
    /// netstack crash-recovery path; the simulator itself never emits
    /// this). Emitted once, after replay completes, carrying the state
    /// the node resumed at.
    Recover {
        /// Local step counter after replay (the step the node resumed at).
        step: u64,
        /// The recovered process.
        pid: ProcessId,
        /// Deliveries replayed from the log during recovery.
        replayed: u64,
    },
}
