//! # simnet — the asynchronous message-passing substrate
//!
//! A deterministic discrete-event simulator of the system model of
//! Bracha & Toueg, *Resilient Consensus Protocols* (PODC 1983):
//!
//! * `n` fully interconnected processes communicating through a **reliable
//!   but completely asynchronous** message system — every process has a
//!   buffer of messages sent to it but not yet received, and `receive`
//!   removes *some* message nondeterministically;
//! * **atomic steps** in which a process receives one message, computes, and
//!   sends a finite set of messages (placed instantaneously in the
//!   recipients' buffers);
//! * **authenticated senders**: the engine stamps the true origin on every
//!   [`Envelope`], so malicious processes can lie in payloads but cannot
//!   impersonate others (the §3.1 requirement);
//! * pluggable [`scheduler`]s resolving the delivery nondeterminism — the
//!   [`scheduler::FairScheduler`] realises the paper's §2.3 probabilistic
//!   assumption under which the protocols terminate with probability 1,
//!   while adversarial schedulers (delaying, partitioning) stress safety;
//! * one way to watch a run: a [`Subscriber`] attached through
//!   [`SimBuilder::subscriber`] receives every engine and protocol
//!   [`Event`] in an order fixed by the seed (the `obs` crate's sinks
//!   record, aggregate and narrate that stream);
//! * a parallel Monte-Carlo [`runner`] for estimating expected
//!   phases-to-decision and violation rates across thousands of seeded runs,
//!   each replayable from its seed.
//!
//! Protocols are [`Process`] implementations; the crates `bt-core` (the
//! paper's protocols), `benor` (the baseline) and `adversary` (fault models)
//! all plug into this engine.
//!
//! ## Quickstart
//!
//! ```
//! use simnet::{Ctx, Envelope, Process, Role, Sim, Value};
//!
//! /// A (non-fault-tolerant) toy: decide the first value you hear.
//! #[derive(Debug)]
//! struct FirstWins {
//!     input: Value,
//!     decided: Option<Value>,
//! }
//!
//! impl Process for FirstWins {
//!     type Msg = Value;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Value>) {
//!         ctx.broadcast(self.input);
//!     }
//!     fn on_receive(&mut self, env: Envelope<Value>, _ctx: &mut Ctx<'_, Value>) {
//!         self.decided.get_or_insert(env.msg);
//!     }
//!     fn decision(&self) -> Option<Value> {
//!         self.decided
//!     }
//!     fn phase(&self) -> u64 {
//!         0
//!     }
//! }
//!
//! let mut b = Sim::builder();
//! for _ in 0..4 {
//!     b.process(
//!         Box::new(FirstWins { input: Value::One, decided: None }),
//!         Role::Correct,
//!     );
//! }
//! let report = b.seed(1).build().run();
//! assert_eq!(report.decided_value(), Some(Value::One));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod envelope;
mod event;
mod id;
mod metrics;
mod process;
mod rng;
pub mod runner;
pub mod scheduler;
mod sim;
mod subscriber;
mod value;
pub mod wire;

pub use buffer::Buffer;
pub use envelope::Envelope;
pub use event::{Event, ProtocolEvent};
pub use id::ProcessId;
pub use metrics::Metrics;
pub use process::{Ctx, Process};
pub use rng::SimRng;
pub use runner::{run_trials, run_trials_observed, run_trials_seq, Summary, TrialStats};
pub use scheduler::{Scheduler, Selection, SystemView};
pub use sim::{Role, RunReport, RunStatus, Sim, SimBuilder, StopWhen};
pub use subscriber::{SharedSubscriber, Subscriber};
pub use value::Value;
pub use wire::{Wire, WireError, WireReader};
