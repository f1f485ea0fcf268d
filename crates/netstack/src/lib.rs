//! An event-driven TCP runtime that runs the paper's protocols over real
//! sockets.
//!
//! The simulator (`simnet`) executes [`Process`](simnet::Process) state
//! machines under a discrete-event scheduler; this crate executes the
//! *same* state machines — unchanged, by the same trait — as `n` nodes,
//! each a single nonblocking poll loop, exchanging length-prefixed
//! [`Wire`](simnet::Wire)-encoded frames over `std::net` TCP. The mapping
//! from the paper's model (and the simulator's realisation of it) to
//! sockets is:
//!
//! | paper §2.1 model            | simnet                    | netstack |
//! |-----------------------------|---------------------------|----------|
//! | reliable channel            | buffer, never loses       | ack-gated retransmit + seq-dedup ([`conn`], [`frame`]) |
//! | arbitrary finite delay      | scheduler's choice        | OS scheduling + injected delay ([`fault`]) |
//! | authenticated sender (§3.1) | envelope `from` field     | per-connection `Hello` handshake ([`frame`]) |
//! | atomic step                 | engine calls `on_receive` | one event-loop thread per node ([`node`]) |
//! | adversarial scheduler       | `DelayingScheduler` etc.  | [`FaultPlan`] delay/partition/drop knobs |
//!
//! Module map:
//!
//! * [`frame`] — length-prefixed framing and the connection protocol;
//! * [`conn`] (private) — per-connection state machines: ack-gated
//!   backlogs with reconnect/backoff, coalesced vectored writes;
//! * `poll` (private) — epoll/`poll(2)` readiness over raw syscalls;
//! * [`fault`] — seeded link-fault injection (delay, drop, partition);
//! * [`node`] — one node: sockets, event loop, status, obs publishing;
//! * [`admin`] — HTTP/1.0 `/metrics` + `/status` endpoint and the
//!   dependency-free scraper behind `btstat` and `Cluster::scrape`;
//! * [`cluster`] — the one loopback runner and supervisor:
//!   `Cluster::spawn(n, k, proto)` or `Cluster::host(.., make)`, inject
//!   inputs/faults, `kill`/`restart`, `await_verdict`.
//!
//! The `btnode` binary boots a single node from the command line so a
//! cluster can also be assembled by hand across terminals (or machines).
//!
//! Networked runs publish the same [`Event`](simnet::Event) stream to the
//! same [`Subscriber`](simnet::Subscriber) sinks as simulated runs, so
//! JSONL traces and `btreport` work on both. One honest caveat: event
//! order across *nodes* reflects real concurrency, so unlike the
//! simulator a networked trace is reproducible in content but not in
//! interleaving.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod cluster;
mod conn;
pub mod fault;
pub mod frame;
pub mod node;
// The poller is the one place allowed to touch raw syscalls: epoll and
// poll(2) bindings, plus the nonblocking connect. Everything else in the
// crate stays under the deny above.
#[allow(unsafe_code)]
mod poll;
pub mod storage;
pub mod wal;

pub use admin::{http_get, scrape_all, AdminServer};
pub use cluster::{
    sockets_available, spawn_proto, synthesize_report, Cluster, ClusterOptions, CrashPlan,
    NodeFault, Proto, RecoveryOptions,
};
pub use conn::jittered;
pub use fault::{CrashRestart, FaultInjector, FaultPlan, LinkAction};
pub use frame::{drain_frames, encode_chunk, read_frame, write_frame, Frame, MAX_FRAME_LEN};
pub use node::{fnv1a64, spawn, NetCounters, NodeConfig, NodeHandle, NodeStatus};
pub use storage::{DiskFault, FaultyStorage, RealStorage, Storage};
pub use wal::{BootRecord, DeliveryRecord, Recovered, SnapshotRecord, Wal, WalDamage, WalRecord};
