//! # resilient-consensus — facade crate
//!
//! One-stop re-export of the reproduction of Bracha & Toueg, *Resilient
//! Consensus Protocols* (PODC 1983). See the individual crates for depth:
//!
//! * [`simnet`] — the asynchronous message-passing simulator;
//! * [`bt_core`] — the paper's protocols (Figures 1 and 2, §4.1 variant,
//!   §5 footnote protocol);
//! * [`adversary`] — crash schedules and Byzantine strategies;
//! * [`benor`] — Ben-Or's randomized consensus, the §6 baseline;
//! * [`markov`] — the §4 Markov-chain performance analysis;
//! * [`modelcheck`] — executable lower-bound demonstrations;
//! * [`obs`] — observability sinks (per-phase telemetry, JSONL traces,
//!   console narration) for the simulator's subscriber hook;
//! * [`netstack`] — the event-driven TCP runtime running the same
//!   protocol state machines over real sockets (see `docs/NETWORKING.md`);
//! * [`rsm`] — the replicated log service: pipelined multi-decree
//!   consensus with batching, a client-facing TCP API, and WAL-backed
//!   recovery (see `docs/RSM.md`);
//! * [`dst`] — deterministic simulation testing: the seeded `btfuzz`
//!   schedule/fault fuzzer with counterexample shrinking and replayable
//!   repro artifacts across both runtimes (see `docs/TESTING.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adversary;
pub use benor;
pub use bt_core;
pub use dst;
pub use markov;
pub use modelcheck;
pub use netstack;
pub use obs;
pub use rsm;
pub use simnet;

pub use bt_core::{Config, FailStop, InitiallyDead, Malicious, Simple};
pub use simnet::{Role, RunReport, Sim, Value};
