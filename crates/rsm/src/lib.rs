//! # rsm — a replicated log service on Bracha-Toueg consensus
//!
//! The rest of the workspace decides *one value per run*; this crate
//! turns those one-shot protocols into a long-lived **replicated state
//! machine**: a slot-indexed log where each slot is an independent
//! [`bt_core::MultiValued`] consensus instance (the Figure 2 malicious
//! protocol, bitwise-composed), with pipelining (a bounded window of
//! undecided slots in flight), batching (many client commands per slot),
//! and an apply loop folding committed entries into a small KV store.
//!
//! The layers, bottom-up:
//!
//! * [`command`] — client [`Command`]s (`Put`/`Del`/`Noop`) with
//!   per-client request ids for exactly-once application;
//! * [`msg`] — the replica-to-replica wire protocol ([`RsmMsg`]);
//! * [`state`] — the applied side: [`LogEntry`], the [`AppliedState`]
//!   KV fold with chained digests, and the shared [`LogView`];
//! * [`replica`] — the [`Replica`] state machine composing it all, a
//!   [`simnet::Process`] that runs unchanged under the simulator, the
//!   fuzzer, and the `netstack` TCP runtime;
//! * [`service`] — the client-facing TCP API (length-prefixed
//!   [`ClientReq`]/[`ClientResp`] frames) as a sans-IO [`ServiceCore`]
//!   that the replica's node runs on its own event loop: proposals become
//!   the replica's own journaled input in the same wakeup, and are shed
//!   with `Busy` once [`service::MAX_WAITING`] await commitment;
//! * [`cluster`] — a loopback harness ([`RsmCluster`]) that boots an
//!   n-node service with WALs and supervised restarts, for integration
//!   tests, the example, and `btbench`'s loopback workloads.
//!
//! See `docs/RSM.md` for the architecture narrative, the client protocol
//! grammar, and the tuning knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod cluster;
pub mod command;
pub mod msg;
pub mod replica;
pub mod service;
pub mod state;

pub use client::RsmClient;
pub use cluster::{RsmCluster, RsmClusterOptions};
pub use command::{Command, Op, MAX_BATCH_WIRE, MAX_KEY, MAX_VALUE};
pub use msg::RsmMsg;
pub use replica::{leader, word_width, Replica, RsmOptions};
pub use service::{ClientReq, ClientResp, ServiceCore};
pub use state::{AppliedState, LogEntry, LogView};
