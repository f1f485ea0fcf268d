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
//! | reliable channel            | buffer, never loses       | ack-gated send queues + seq-dedup (`core`, [`frame`]) |
//! | arbitrary finite delay      | scheduler's choice        | OS scheduling + injected delay ([`fault`]) |
//! | authenticated sender (§3.1) | envelope `from` field     | per-connection `Hello` handshake naming another process ([`frame`]) |
//! | atomic step                 | engine calls `on_receive` | one core, one event-loop thread per node ([`node`]) |
//! | adversarial scheduler       | `DelayingScheduler` etc.  | [`FaultPlan`] delay/partition/drop knobs |
//!
//! Module map — a node is a **core** driven through **links** by a
//! **driver**:
//!
//! * `core` (private) — the sans-IO node state machine: seq-dedup,
//!   durability-gated acks, log-before-send journaling and replay — one
//!   journal write per round and one sealed frame per peer per tick —
//!   equivocation evidence, amnesia and `k + 1` adoption, the per-peer
//!   send queues. No sockets, no clock; tested one frame and one tick at
//!   a time. A new obligation a node must keep goes here;
//! * [`conn`] (private) — the links: per-connection socket machinery
//!   (dial/backoff, framing, coalesced vectored writes) that carries the
//!   core's queues and replies. A new transport concern goes here;
//! * [`node`] — the driver: `spawn`, `NodeHandle`, config/telemetry
//!   types, the optional client port (a listener plus a sans-IO
//!   `ClientService` whose requests become the node's own input), and the
//!   poll loop that moves frames between links, clients and core;
//! * `poll` (private) — epoll/`poll(2)` readiness over raw syscalls;
//! * [`frame`] — length-prefixed framing and the connection protocol;
//! * [`wal`] / [`storage`] — the write-ahead log and the file-I/O trait
//!   under it (the seam disk faults — and in-memory tests — plug into);
//! * [`fault`] — seeded link-fault injection (delay, drop, partition);
//! * [`admin`] — HTTP/1.0 `/metrics` + `/status` endpoint and the
//!   dependency-free scraper behind `btstat` and `Cluster::scrape`;
//! * [`cluster`] — the one loopback runner:
//!   `Cluster::spawn(n, k, proto)` or `Cluster::host(.., make)`, inject
//!   inputs/faults, `kill`/`restart` on the caller's say-so, `await_verdict`.
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
mod core;
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
pub use fault::{FaultInjector, FaultPlan, LinkAction};
pub use frame::{drain_frames, encode_chunk, read_frame, write_frame, Frame, MAX_FRAME_LEN};
pub use node::{fnv1a64, spawn, NetCounters, NodeConfig, NodeHandle, NodeStatus};
pub use storage::{DiskFault, FaultyStorage, RealStorage, Storage};
pub use wal::{
    BootRecord, DeliveryRecord, Recovered, SnapshotRecord, Wal, WalDamage, WalRecord, WAL_VERSION,
};
