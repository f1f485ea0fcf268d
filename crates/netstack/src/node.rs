//! One networked consensus node: [`spawn`], its [`NodeHandle`], and the
//! thin poll-loop driver between the sockets and the node's state machine.
//!
//! A node runs the *same* [`Process`] the simulator runs — the type is
//! `Box<dyn Process<Msg = M> + Send>`, unchanged — and is built from three
//! parts, each owning one kind of thing:
//!
//! ```text
//!           ┌──────────────────────── node (ONE thread) ───────────────────────┐
//! peers ──▶ │ listener ─▶ InConns ──frames──▶ ┌─────────── core ────────────┐  │
//!           │      ▲         ◀──replies────── │ seq dedup · durable acks    │  │
//! clients ▶ │ client port ─▶ service ─submit▶ │ WAL (log-before-send)       │  │
//!           │   poller ── readiness           │ Process ◀── rng (seeded)    │  │
//!           │   Links ◀───── SendQueues ───── │ amnesia · k+1 adoption      │  │
//!           │     │ (dial, backoff, writev)   └─────────────────────────────┘  │
//!           └─────┼────────────────────────────────────────────────────────────┘
//!                 └──▶ peers
//! ```
//!
//! * The **core** (`crate::core`) is every decision: what to deliver,
//!   journal, send, acknowledge, adopt. No sockets, no clock — it is fed
//!   frames and `now`, and answers with per-peer send queues and the ack
//!   each peer is owed. A new *obligation* (something that must hold
//!   across a crash, or about what a peer may be told) goes there, where
//!   a test can check it one frame and one tick at a time.
//! * The **links** (`crate::conn`) are the per-connection socket
//!   machinery: dialing, backoff, framing, coalesced vectored writes. A
//!   new *transport* concern (TLS, a different framing) goes there.
//! * The **driver**, in this file, owns the poller, the listeners and
//!   the connection tables, and nothing else. It resolves each inbound
//!   connection's `Hello` (tearing down anything that skips it, names a
//!   process outside the system, or names this node itself), forwards
//!   decoded frames to the core, ticks it, sends its acks and replies,
//!   and pumps the core's queues through the links. It is also the
//!   node's only clock reader: one `Instant::now()` per wakeup, handed to
//!   everything that tick touches.
//! * The optional **client port** ([`ClientPort`]) is the node's local
//!   input (§2.1): a listener whose connections the driver frames like
//!   peer connections, and a sans-IO [`ClientService`] that turns each
//!   request into an answer, or into a payload it submits to the core in
//!   the same wakeup and answers after a later tick. A node's own input
//!   is local state, not channel traffic: it never enters as a peer
//!   frame.
//!
//! The event thread is the only thread, and the process needs no locking:
//! it keeps the simulator's atomic-step semantics — one delivery, one
//! computation, a finite set of sends staged before the next delivery is
//! consumed.
//!
//! Per tick the driver waits on the poller (capped at [`POLL`] so shutdown
//! stays responsive, shortened to the next deadline — a redial, a
//! fault-injected delay release, or the core's probe timer), handles each
//! readiness event by draining the socket until `WouldBlock` (the
//! edge-triggered contract) and handing the frames to the core, which
//! only admits them; then it ticks the core — one journal write per
//! round, every step, one sealed frame per peer — queues **one ack per
//! connection** that carried frames (the watermark after the tick's
//! appends), lets the client service answer what the tick settled, and
//! pumps every link once: a vectored write per peer.
//!
//! Crash recovery ([`NodeConfig::wal`]) is entirely the core's: it
//! replays the log inside [`spawn`], before the event thread exists. See
//! the core's module docs and `docs/RECOVERY.md`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Histogram, Registry, Snapshot};
use simnet::{Process, ProcessId, SharedSubscriber, Wire};

use crate::conn::{InConn, Link, LoopStats};
use crate::core::NodeCore;
use crate::fault::FaultPlan;
use crate::frame::Frame;
use crate::poll::{connect_nonblocking, Dial, PollEvent, Poller};
use crate::storage::FaultyStorage;
use crate::wal::Wal;

/// Locks a [`NodeStatus`] mutex, tolerating poisoning: the event loop may
/// die mid-update (see [`NodeStatus::died`]) and the snapshot must stay
/// readable afterwards.
pub(crate) fn lock_status(status: &Mutex<NodeStatus>) -> MutexGuard<'_, NodeStatus> {
    status.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The poller-wait cap: how often the loop re-checks the shutdown flag
/// even when no socket stirs and no timer is due.
const POLL: Duration = Duration::from_millis(20);

/// Token of the listening socket in the poller.
const TOKEN_LISTENER: u64 = 0;
/// Token of the client port's listening socket.
const TOKEN_CLIENTS: u64 = 1;
/// Outbound link tokens: `OUT_BASE + peer_index`, stable for the life of
/// the node (each peer has at most one outbound connection at a time).
const OUT_BASE: u64 = 2;
/// Inbound peer connection tokens count up from here, never reused.
const IN_BASE: u64 = 1 << 32;
/// Client connection tokens count up from here, never reused; a
/// [`ClientService`] knows each connection by its token.
const CLIENT_BASE: u64 = 1 << 48;

/// FNV-1a 64-bit hash of a payload — cheap, dependency-free, and plenty
/// for flagging a restarted sender that re-sends different bytes under a
/// sequence number it already used.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Static description of one node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's identity (also its index into `peers`).
    pub id: ProcessId,
    /// System size.
    pub n: usize,
    /// Seed for this node's deterministic random stream (randomized
    /// protocols draw coins from it, exactly as in the simulator).
    pub seed: u64,
    /// Resilience parameter: up to `k` peers may be faulty. Quorum state
    /// transfer accepts state only once `k + 1` peers agree on it, so no
    /// coalition of faulty peers can feed an amnesiac a forged state.
    pub k: usize,
    /// Faults to inject on this node's outbound links (and, via the
    /// `disk=` clauses, on this node's WAL storage).
    pub fault: FaultPlan,
    /// This boot is expected to find durable history on disk — set by
    /// whoever restarts a crashed incarnation (`Cluster::restart`,
    /// `btnode --supervise`). An empty or missing
    /// WAL is then a *lost log* (the node marks itself amnesiac and
    /// requests quorum state transfer) rather than a fresh start.
    pub expect_history: bool,
    /// Path of this node's write-ahead log. `None` (the default for a
    /// plain cluster) runs without durability; `Some` journals every
    /// delivery under the log-before-send invariant and recovers from
    /// the log on spawn if it already has history.
    pub wal: Option<PathBuf>,
    /// Checkpoint cadence: compact the WAL to a snapshot at the first
    /// tick boundary after this many deliveries (0 = never snapshot;
    /// replay runs from genesis), pruning the equivocation evidence to
    /// match. A node without a WAL only prunes, on the same cadence.
    pub snapshot_every: u64,
    /// The metrics registry this node records into. `None` gives the node
    /// a fresh enabled registry of its own. Whoever restarts nodes
    /// should pass the *same* registry to every incarnation: the
    /// cells are keyed by `(name, labels)`, so the replacement's handles
    /// land on the predecessor's cells and long-run totals survive the
    /// restart.
    pub metrics: Option<Arc<Registry>>,
}

impl NodeConfig {
    /// A WAL-less config — the common case for ephemeral clusters.
    #[must_use]
    pub fn new(id: ProcessId, n: usize, seed: u64, fault: FaultPlan) -> Self {
        NodeConfig {
            id,
            n,
            seed,
            k: 0,
            fault,
            expect_history: false,
            wal: None,
            snapshot_every: 0,
            metrics: None,
        }
    }
}

/// A live snapshot of a node's protocol state, published by the event
/// loop once per tick.
#[derive(Clone, Debug, Default)]
pub struct NodeStatus {
    /// The decision `d_p`, once set (irrevocable).
    pub decision: Option<simnet::Value>,
    /// The phase in which the decision was made.
    pub decision_phase: Option<u64>,
    /// The node-local atomic step at which the decision was made.
    pub decision_step: Option<u64>,
    /// Current `phaseno`.
    pub phase: u64,
    /// Node-local atomic steps taken (start + deliveries).
    pub steps: u64,
    /// Whether the process has left the protocol.
    pub halted: bool,
    /// The event-loop thread panicked (a bug, or a hostile input the
    /// defensive layers missed): the node is dead, not merely undecided,
    /// and will never make progress. Surfaced so harnesses can fail fast
    /// instead of hanging until their deadline.
    pub died: bool,
    /// Deliveries replayed from the WAL when this incarnation booted
    /// (0 for a fresh start).
    pub recovered: u64,
    /// The node found its WAL unsafely damaged (mid-log corruption or a
    /// lost log) at boot and is refusing to send protocol messages until
    /// quorum state transfer completes. See `docs/RECOVERY.md`.
    pub amnesiac: bool,
    /// This incarnation (or a predecessor sharing its WAL) rebuilt its
    /// state from `k + 1` matching peer responses rather than from its
    /// own log. The node participates as a learner from then on.
    pub state_transferred: bool,
}

/// Message-level counters for one node, as registry handles labelled
/// `{node}`. Handles address cells in the node's [`Registry`], so a
/// restarted incarnation sharing the registry keeps counting where its
/// predecessor stopped. Cloning is cheap; clones share the cells.
#[derive(Clone, Debug)]
pub struct NetCounters {
    /// Messages the protocol asked to send (including to self).
    pub sent: Counter,
    /// Messages delivered to the process.
    pub delivered: Counter,
    /// Messages the fault injector dropped on purpose.
    pub injected_drops: Counter,
    /// Messages discarded because this process had halted.
    pub dropped_at_halted: Counter,
    /// Inbound payloads rejected at the wire: bytes that did not decode,
    /// or decoded to contents out of range for this system (e.g. a
    /// process id `>= n`). Byzantine bytes land here, not in the process.
    pub wire_rejected: Counter,
    /// Inbound frames whose sequence number skipped ahead of the next
    /// expected one. An honest sender never skips (it replays its whole
    /// unacked backlog in order), so a gap marks a reliability violation
    /// or a hostile peer; the frame is dropped, never delivered.
    pub seq_gaps: Counter,
    /// Re-sent frames whose payload differed from the one first delivered
    /// under the same sequence number. A correct node — including one
    /// that crashed and recovered from its WAL — retransmits only
    /// byte-identical frames, so any count here is a recovery bug or a
    /// hostile peer caught red-handed.
    pub equivocations: Counter,
    /// Boots that found the WAL unsafely damaged: mid-log corruption, a
    /// hostile record, or a log that should exist but does not. Each one
    /// put the node into amnesiac refusal instead of a silent rejoin.
    pub wal_corruptions: Counter,
    /// Quorum state transfers completed: an amnesiac incarnation adopted
    /// state confirmed by `k + 1` matching peer responses and rejoined.
    pub state_transfers: Counter,
    /// [`Frame::StateRequest`] probes this node answered with a
    /// [`Frame::StateChunk`].
    pub state_requests_served: Counter,
}

impl NetCounters {
    /// Registers (or re-attaches to) the message counters for node `me`.
    #[must_use]
    pub fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        NetCounters {
            sent: registry.counter(
                "bt_msgs_sent_total",
                "messages the protocol asked to send, self-sends included",
                labels,
            ),
            delivered: registry.counter(
                "bt_msgs_delivered_total",
                "messages delivered to the process state machine",
                labels,
            ),
            injected_drops: registry.counter(
                "bt_injected_drops_total",
                "messages the fault injector dropped on purpose",
                labels,
            ),
            dropped_at_halted: registry.counter(
                "bt_dropped_at_halted_total",
                "messages discarded because this process had halted",
                labels,
            ),
            wire_rejected: registry.counter(
                "bt_wire_rejected_total",
                "inbound payloads rejected at the wire (undecodable or out of range)",
                labels,
            ),
            seq_gaps: registry.counter(
                "bt_seq_gaps_total",
                "inbound frames dropped for skipping ahead of the expected seq",
                labels,
            ),
            equivocations: registry.counter(
                "bt_equivocations_total",
                "re-sent frames whose payload differed under the same seq",
                labels,
            ),
            wal_corruptions: registry.counter(
                "bt_wal_corruptions_total",
                "boots that found the WAL unsafely damaged (mid-log corruption or lost log)",
                labels,
            ),
            state_transfers: registry.counter(
                "bt_state_transfers_total",
                "quorum state transfers completed by an amnesiac node",
                labels,
            ),
            state_requests_served: registry.counter(
                "bt_state_requests_served_total",
                "state-transfer probes answered with a StateChunk",
                labels,
            ),
        }
    }
}

/// Latency and durability telemetry for one node, labelled `{node}`.
#[derive(Clone, Debug)]
pub(crate) struct NodeMetrics {
    /// Time to seal one outgoing frame — encode its staged messages into
    /// the wire chunk (microseconds), on the send path.
    pub msg_encode_us: Histogram,
    /// Time to decode and validate one inbound frame's messages
    /// (microseconds), on the receive path.
    pub msg_decode_us: Histogram,
    /// WAL append latency (microseconds): the log-before-send write that
    /// makes a group of deliveries durable — one `write(2)` per round of
    /// a tick. The fsync cost lives in compaction, measured separately.
    pub wal_append_us: Histogram,
    /// WAL compactions performed (tmp + fsync + rename checkpoints).
    pub wal_compactions: Counter,
    /// WAL compaction latency (microseconds), fsync included.
    pub wal_compact_us: Histogram,
    /// Times this node booted from a WAL with prior history.
    pub recoveries: Counter,
    /// Deliveries replayed from the WAL across all recoveries.
    pub recovered_deliveries: Counter,
    /// Wall-clock time one recovery replay took (microseconds).
    pub recovery_replay_us: Histogram,
}

impl NodeMetrics {
    pub fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        NodeMetrics {
            msg_encode_us: registry.histogram(
                "bt_msg_encode_us",
                "time to seal one outgoing frame on the send path (microseconds)",
                labels,
            ),
            msg_decode_us: registry.histogram(
                "bt_msg_decode_us",
                "time to decode one inbound frame's messages (microseconds)",
                labels,
            ),
            wal_append_us: registry.histogram(
                "bt_wal_append_us",
                "WAL append latency for one group's log-before-send write (microseconds)",
                labels,
            ),
            wal_compactions: registry.counter(
                "bt_wal_compactions_total",
                "WAL compactions performed (tmp + fsync + rename)",
                labels,
            ),
            wal_compact_us: registry.histogram(
                "bt_wal_compact_us",
                "WAL compaction latency, fsync included (microseconds)",
                labels,
            ),
            recoveries: registry.counter(
                "bt_recoveries_total",
                "boots from a WAL with prior history",
                labels,
            ),
            recovered_deliveries: registry.counter(
                "bt_recovered_deliveries_total",
                "deliveries replayed from the WAL across all recoveries",
                labels,
            ),
            recovery_replay_us: registry.histogram(
                "bt_recovery_replay_us",
                "wall-clock duration of one recovery replay (microseconds)",
                labels,
            ),
        }
    }
}

/// What a [`ClientService`] does with one request.
#[derive(Debug, PartialEq, Eq)]
pub enum Answer {
    /// Reply with this body now.
    Now(Vec<u8>),
    /// The reply comes from a later [`ClientService::after_tick`]; until
    /// then the connection stays open and its next request unread.
    Later,
    /// The request is malformed: close the connection.
    HangUp,
}

/// The sans-IO half of a node's client port: it owns no socket and reads
/// no clock. The driver frames each client connection's requests like
/// peer frames (4-byte length prefix, at most [`MAX_FRAME_LEN`]) and
/// hands their bodies here one at a time per connection: it reads a
/// connection's next request only once its last one is answered. Every
/// method runs on the node's event thread, between two ticks.
///
/// [`MAX_FRAME_LEN`]: crate::frame::MAX_FRAME_LEN
pub trait ClientService: Send + std::fmt::Debug {
    /// A client connection was accepted.
    fn on_open(&mut self, conn: u64);

    /// One request `body` from connection `conn`, read at `now`. Each
    /// payload handed to `submit` — encoded protocol messages, like a
    /// frame's — becomes the node's next frame from itself: journaled,
    /// stepped and crash-replayed by the next tick like a peer's.
    fn on_request(
        &mut self,
        conn: u64,
        body: &[u8],
        now: Instant,
        submit: &mut dyn FnMut(Vec<u8>),
    ) -> Answer;

    /// After every live tick at `now`: push `(conn, body)` for each
    /// request answered [`Answer::Later`] that is now settled.
    fn after_tick(&mut self, now: Instant, replies: &mut Vec<(u64, Vec<u8>)>);
}

/// A node's client port: the listener clients dial and the service that
/// answers them, both run by the node's event loop.
#[derive(Debug)]
pub struct ClientPort {
    /// The bound client listener.
    pub listener: TcpListener,
    /// What answers the requests.
    pub service: Box<dyn ClientService>,
}

/// A handle to a spawned node: status snapshots and shutdown.
#[derive(Debug)]
pub struct NodeHandle {
    id: ProcessId,
    status: Arc<Mutex<NodeStatus>>,
    counters: NetCounters,
    /// `(reconnects, retransmits)` of each outbound link.
    links: Vec<(Counter, Counter)>,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// A snapshot of the node's protocol state.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        lock_status(&self.status).clone()
    }

    /// The live status cell itself — what an admin endpoint polls without
    /// holding the whole handle.
    #[must_use]
    pub fn status_cell(&self) -> Arc<Mutex<NodeStatus>> {
        Arc::clone(&self.status)
    }

    /// The registry this node records its runtime telemetry into.
    #[must_use]
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A point-in-time snapshot of this node's metrics.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Whether the node's event loop died (see [`NodeStatus::died`]).
    #[must_use]
    pub fn died(&self) -> bool {
        self.status().died
    }

    /// The node's decision, if it has made one.
    #[must_use]
    pub fn decision(&self) -> Option<simnet::Value> {
        self.status().decision
    }

    /// Total messages this node's protocol sent (including self-sends).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.counters.sent.get()
    }

    /// Total messages delivered to this node's protocol.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.counters.delivered.get()
    }

    /// Messages lost to fault injection plus messages addressed to this
    /// node after it halted.
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.counters.injected_drops.get() + self.counters.dropped_at_halted.get()
    }

    /// Times any outbound link of this node had to redial.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.links
            .iter()
            .map(|(reconnects, _)| reconnects.get())
            .sum()
    }

    /// Unacked frames this node's links replayed after reconnects.
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.links
            .iter()
            .map(|(_, retransmits)| retransmits.get())
            .sum()
    }

    /// Inbound payloads rejected at the wire (undecodable bytes or
    /// contents out of range for the system).
    #[must_use]
    pub fn wire_rejected(&self) -> u64 {
        self.counters.wire_rejected.get()
    }

    /// Inbound frames dropped because their sequence number skipped ahead
    /// of the next expected one (see [`NetCounters::seq_gaps`]).
    #[must_use]
    pub fn seq_gaps(&self) -> u64 {
        self.counters.seq_gaps.get()
    }

    /// Re-sent frames whose payload differed from the one first seen
    /// under the same sequence number (see [`NetCounters::equivocations`]).
    /// Always 0 for correct peers, crashed-and-recovered ones included.
    #[must_use]
    pub fn equivocations(&self) -> u64 {
        self.counters.equivocations.get()
    }

    /// Boots that found this node's WAL unsafely damaged (see
    /// [`NetCounters::wal_corruptions`]).
    #[must_use]
    pub fn wal_corruptions(&self) -> u64 {
        self.counters.wal_corruptions.get()
    }

    /// Quorum state transfers this node completed (see
    /// [`NetCounters::state_transfers`]).
    #[must_use]
    pub fn state_transfers(&self) -> u64 {
        self.counters.state_transfers.get()
    }

    /// Asks the event thread to stop and joins it. The loop re-checks the
    /// flag at least every [`POLL`], so this returns promptly. Safe to
    /// call more than once.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boots a node: takes ownership of its (already bound) listener, dials
/// its peers lazily, runs `process` on the event loop, streams events
/// to `subscriber` if one is attached, and serves the `client` port, if
/// any, on the same loop.
///
/// Binding the listener *before* spawning (and passing it in) is the
/// loopback-cluster handshake discipline: all addresses exist before any
/// node dials, so a dial failure is transient, never fatal.
///
/// With [`NodeConfig::wal`] set and prior history on disk, recovery runs
/// *synchronously here*, before the event thread starts accepting: the
/// core initializes its sequence tables from the log, restores the
/// snapshot (if any), replays the logged deliveries through the state
/// machine, and re-queues the resulting (byte-identical) frames. Only
/// then does the driver feed it frames, so a frame arriving mid-recovery
/// can never be mistaken for new, and no client is answered from a
/// half-replayed state.
///
/// # Errors
///
/// Propagates listener/poller configuration failures and WAL I/O errors,
/// and rejects a WAL that belongs to a different node/configuration or
/// whose snapshot is inconsistent with this system (`InvalidData`).
pub fn spawn<M>(
    cfg: NodeConfig,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    process: Box<dyn Process<Msg = M> + Send>,
    subscriber: Option<SharedSubscriber>,
    client: Option<ClientPort>,
) -> io::Result<NodeHandle>
where
    M: Wire + Send + 'static,
{
    assert_eq!(peers.len(), cfg.n, "one address per process");
    assert!(cfg.id.index() < cfg.n, "node id within the system");

    let registry = cfg
        .metrics
        .clone()
        .unwrap_or_else(|| Arc::new(Registry::new()));
    let io_stats = LoopStats::new(&registry, cfg.id);

    // Open the WAL (if configured) and let the core catch up with it on
    // this thread, before anything touches a socket.
    let wal = match &cfg.wal {
        None => None,
        Some(path) => {
            let disk = cfg.fault.disk_for(cfg.id.index());
            Some(if disk.is_empty() {
                Wal::open(path)?
            } else {
                Wal::open_with(path, Box::new(FaultyStorage::new(disk)))?
            })
        }
    };
    let now = Instant::now();
    let core = NodeCore::boot(&cfg, process, wal, &registry, subscriber, now)?;

    // Outbound: one passive link per remote peer.
    let mut links = Vec::with_capacity(cfg.n);
    let mut link_counters = Vec::new();
    for (i, addr) in peers.iter().enumerate() {
        links.push(core.queue(i).map(|queue| {
            let stats = queue.stats.clone();
            link_counters.push((stats.reconnects.clone(), stats.retransmits.clone()));
            Link::new(cfg.id, *addr, stats, now)
        }));
    }

    // The poller and the listener registration happen here so
    // configuration failures surface as spawn errors, not a dead node.
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER)?;
    if let Some(port) = &client {
        port.listener.set_nonblocking(true)?;
        poller.register(port.listener.as_raw_fd(), TOKEN_CLIENTS)?;
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let status = Arc::clone(&core.status);
    let counters = core.counters.clone();
    let mut ev = EventLoop {
        me: cfg.id,
        core,
        links,
        poller,
        listener,
        inconns: HashMap::new(),
        next_in_token: 0,
        replying: Vec::new(),
        client,
        io: io_stats,
        shutdown: Arc::clone(&shutdown),
    };
    let loop_status = Arc::clone(&status);
    let thread = thread::Builder::new()
        .name(format!("netstack-loop-p{}", cfg.id.index()))
        .spawn(move || {
            // A panic here (a protocol bug, hostile input the
            // defensive layers missed, or a WAL that can no longer
            // be appended to) must not leave the node as a silent
            // zombie: catch it and mark the node dead so status
            // readers can fail fast. Dying on a WAL write failure is
            // deliberate — without durability the no-equivocation
            // guarantee is gone, and fail-stop is the honest mode.
            if catch_unwind(AssertUnwindSafe(|| ev.run())).is_err() {
                let mut st = lock_status(&loop_status);
                st.died = true;
                st.halted = true;
            }
        })
        .expect("spawning the event loop thread");
    Ok(NodeHandle {
        id: cfg.id,
        status,
        counters,
        links: link_counters,
        registry,
        shutdown,
        thread: Some(thread),
    })
}

/// The driver — the node's one thread: the poller, every socket, and the
/// [`NodeCore`] it feeds.
struct EventLoop<M: Wire> {
    me: ProcessId,
    core: NodeCore<M>,
    /// Outbound links by peer index (`None` at this node's own slot),
    /// each paired with the core's send queue of the same index.
    links: Vec<Option<Link>>,
    poller: Poller,
    listener: TcpListener,
    /// Accepted peer and client connections by token.
    inconns: HashMap<u64, InConn>,
    next_in_token: u64,
    /// Inbound connections with replies to send once the core has
    /// ticked: the tick's ack, a probe's answer.
    replying: Vec<u64>,
    client: Option<ClientPort>,
    io: LoopStats,
    shutdown: Arc<AtomicBool>,
}

impl<M: Wire> EventLoop<M> {
    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        // Boot work the core queued: deliver pending self-sends, issue an
        // amnesiac's first probes, then get the first frames moving.
        let now = Instant::now();
        let mut core_deadline = self.core.tick(now);
        self.pump_links(now);
        while !self.shutdown.load(Ordering::Relaxed) {
            let timeout = self.next_timeout(Instant::now(), core_deadline);
            self.io.loop_ticks.inc();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller (fd exhaustion mid-registration) has
                // no recovery story; back off rather than spin.
                thread::sleep(POLL);
                continue;
            }
            self.io.poll_wakeups.add(events.len() as u64);
            // The tick's one clock read: every frame, ack, send and
            // redial below happens "at" this instant.
            let now = Instant::now();
            for ev in events.drain(..) {
                self.dispatch_event(ev, now, &mut frames);
            }
            // One pass after the batch — the coalescing point. Tick the
            // core: everything the events above admitted is journalled,
            // stepped and sealed into one frame per peer (an amnesiac
            // refreshes its probes so they ride the same flush). Only
            // then acknowledge, once per connection, what is now
            // durable, and answer the clients whose requests the tick
            // settled; then dial due links, release delayed frames, and
            // write what the tick sealed.
            core_deadline = self.core.tick(now);
            self.flush_replies();
            self.answer_clients(now);
            if self.core.has_admitted() {
                // Answered clients' next requests submitted input: it
                // needs a tick now, not at the next readiness event.
                core_deadline = Some(now);
            }
            self.pump_links(now);
        }
    }

    /// How long the poller may sleep: the [`POLL`] cap, shortened to the
    /// earliest deadline — the core's timer, a redial, or a delayed
    /// frame's release.
    fn next_timeout(&self, now: Instant, core_deadline: Option<Instant>) -> Duration {
        let link_deadlines =
            self.links.iter().enumerate().filter_map(|(peer, link)| {
                link.as_ref()?.next_deadline(self.core.queue(peer)?, now)
            });
        (link_deadlines.chain(core_deadline))
            .map(|at| at.saturating_duration_since(now))
            .fold(POLL, Duration::min)
    }

    fn dispatch_event(&mut self, ev: PollEvent, now: Instant, frames: &mut Vec<Frame>) {
        if ev.token == TOKEN_LISTENER || ev.token == TOKEN_CLIENTS {
            if ev.readable {
                self.accept_ready(ev.token == TOKEN_CLIENTS, now, frames);
            }
        } else if ev.token >= CLIENT_BASE {
            // A request to read, or room to finish a blocked answer.
            self.serve_client(ev.token, now);
        } else if ev.token >= IN_BASE {
            self.inbound_event(ev, frames);
        } else {
            let peer = usize::try_from(ev.token - OUT_BASE).expect("peer token fits usize");
            self.outbound_event(peer, ev, now, frames);
        }
    }

    /// Accepts on the peer or the client listener until `WouldBlock` (the
    /// edge-triggered contract) and reads each new connection immediately
    /// — its first bytes may have landed before it was registered, which
    /// with epoll's edge semantics would otherwise never produce an event.
    fn accept_ready(&mut self, clients: bool, now: Instant, frames: &mut Vec<Frame>) {
        loop {
            let listener = match &self.client {
                Some(port) if clients => &port.listener,
                _ => &self.listener,
            };
            let Ok((stream, _)) = listener.accept() else {
                return; // WouldBlock, or transient accept noise
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let base = if clients { CLIENT_BASE } else { IN_BASE };
            let token = base + self.next_in_token;
            self.next_in_token += 1;
            if self.poller.register(stream.as_raw_fd(), token).is_err() {
                continue;
            }
            self.inconns.insert(token, InConn::new(stream));
            match &mut self.client {
                Some(port) if clients => {
                    port.service.on_open(token);
                    self.serve_client(token, now);
                }
                _ => self.inbound_readable(token, frames),
            }
        }
    }

    /// Runs one client connection's request loop ([`InConn::serve`]), the
    /// service's submissions going straight to the core.
    fn serve_client(&mut self, token: u64, now: Instant) {
        let (Some(conn), Some(port)) = (self.inconns.get_mut(&token), self.client.as_mut()) else {
            return;
        };
        let core = &mut self.core;
        let served = conn.serve(&self.io, |body| {
            let mut submit = |payload| core.submit(payload);
            port.service.on_request(token, body, now, &mut submit)
        });
        let (reading, blocked) = (conn.reading(), conn.write_blocked);
        if served.is_ok() {
            self.poller.set_interest(token, reading, blocked);
        } else {
            self.teardown_inbound(token);
        }
    }

    /// After the core's tick: the client service answers the requests the
    /// tick settled, and each answered connection is served again — its
    /// answer written, its next request read.
    fn answer_clients(&mut self, now: Instant) {
        let Some(port) = &mut self.client else {
            return;
        };
        let mut answers = Vec::new();
        port.service.after_tick(now, &mut answers);
        for (token, body) in answers {
            if let Some(conn) = self.inconns.get_mut(&token) {
                conn.queue_answer(&body);
                self.serve_client(token, now);
            }
        }
    }

    fn inbound_event(&mut self, ev: PollEvent, frames: &mut Vec<Frame>) {
        if ev.readable {
            self.inbound_readable(ev.token, frames);
        }
        if ev.writable {
            // Blocked reply writes resume here.
            let Some(conn) = self.inconns.get_mut(&ev.token) else {
                return;
            };
            if conn.write_blocked {
                let failed = conn.on_writable(&self.io).is_err();
                let blocked = conn.write_blocked;
                if failed {
                    self.teardown_inbound(ev.token);
                } else {
                    self.poller.set_interest(ev.token, true, blocked);
                }
            }
        }
    }

    /// Drains one inbound connection and hands every complete frame it
    /// produced to the core, in order; the replies — one ack for all its
    /// protocol frames, a probe's answer — go out after the core's tick.
    /// The handshake is settled here: the first frame must be a `Hello`
    /// from another process of this system, and anything else ends the
    /// connection — the core only ever sees frames with a resolved sender.
    /// A `Hello` naming this node is an impersonation: its own input
    /// arrives through its client port, never as a peer frame.
    fn inbound_readable(&mut self, token: u64, frames: &mut Vec<Frame>) {
        let Some(conn) = self.inconns.get_mut(&token) else {
            return;
        };
        let n = self.links.len();
        frames.clear();
        // A read error or unparseable stream still yields the complete
        // frames that preceded it — process them, then tear down.
        let dead = conn.read_frames(frames, &self.io).unwrap_or(true);
        let mut hostile = false;
        for frame in frames.drain(..) {
            let from = match frame {
                Frame::Hello { from } => {
                    if conn.peer.is_none() {
                        if from.index() >= n || from == self.me {
                            hostile = true; // not a peer of this node
                            break;
                        }
                        conn.peer = Some(from);
                    }
                    continue; // a repeated Hello is meaningless but harmless
                }
                Frame::Msg { .. } => match conn.peer {
                    Some(from) => {
                        conn.ack_due = true;
                        from
                    }
                    None => {
                        hostile = true; // the first frame must be Hello
                        break;
                    }
                },
                Frame::StateRequest { from } => {
                    if from.index() >= n {
                        hostile = true; // not a peer of this system
                        break;
                    }
                    if conn.owes_state() {
                        continue; // still owed the last answer; it re-probes
                    }
                    from
                }
                // Replies; they belong on *our* outbound connections.
                Frame::Ack { .. } | Frame::StateChunk { .. } => continue,
            };
            if let Some(reply) = self.core.on_frame(from, frame) {
                conn.queue_reply(&reply);
            }
        }
        if dead || hostile {
            self.teardown_inbound(token);
        } else {
            self.replying.push(token);
        }
    }

    /// After the core's tick: every connection that carried protocol
    /// frames gets its one cumulative ack — the watermark *after* the
    /// tick's appends, so it covers them — and the replies queued on this
    /// wakeup's connections are written, one coalesced flush each.
    fn flush_replies(&mut self) {
        for i in 0..self.replying.len() {
            let token = self.replying[i];
            let Some(conn) = self.inconns.get_mut(&token) else {
                continue; // torn down since
            };
            if let (true, Some(peer)) = (std::mem::take(&mut conn.ack_due), conn.peer) {
                let next = self.core.ack(peer.index());
                conn.queue_reply(&Frame::Ack { next });
            }
            let flushed = conn.flush(&self.io).is_ok();
            let blocked = conn.write_blocked;
            if flushed {
                self.poller.set_interest(token, true, blocked);
            } else {
                self.teardown_inbound(token);
            }
        }
        self.replying.clear();
    }

    fn teardown_inbound(&mut self, token: u64) {
        if let Some(conn) = self.inconns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd(), token);
            // conn drops here, closing the socket.
        }
    }

    /// A readiness event on an outbound link's connection: connect
    /// completion, inbound replies (acks, probe answers), or room to
    /// resume a blocked write.
    fn outbound_event(
        &mut self,
        peer: usize,
        ev: PollEvent,
        now: Instant,
        frames: &mut Vec<Frame>,
    ) {
        let Some(link) = self.links.get_mut(peer).and_then(Option::as_mut) else {
            return;
        };
        let Some(conn) = link.conn.as_mut() else {
            return;
        };
        if conn.token != ev.token {
            return; // stale event for a predecessor connection
        }
        let mut established = true;
        if conn.connecting {
            if !ev.writable {
                return; // connect still in flight
            }
            // The nonblocking connect resolved: writable + no error
            // is up, anything else failed.
            match conn.stream.take_error() {
                Ok(None) => {
                    conn.connecting = false;
                    link.dial_succeeded();
                }
                _ => established = false,
            }
        }
        let mut ok = established;
        if ok && ev.readable {
            frames.clear();
            ok = link.on_readable(&self.io, frames).is_ok();
            // Frames that parsed count even if the read then failed.
            for frame in frames.drain(..) {
                if let Frame::Ack { next } = frame {
                    link.on_ack(next, now);
                }
                self.core.on_reply(peer, frame);
            }
        }
        if ok && ev.writable {
            let queue = self.core.queue_mut(peer).expect("a link has a queue");
            ok = link.on_writable(queue, now, &self.io).is_ok();
        }
        if ok {
            self.sync_out_interest(peer);
        } else {
            self.teardown_outbound(peer, established, now);
        }
    }

    /// Drops a link's connection and schedules the redial: immediate for
    /// an established connection that died, backed off for a failed dial.
    fn teardown_outbound(&mut self, peer: usize, established: bool, now: Instant) {
        let Some(link) = self.links.get_mut(peer).and_then(Option::as_mut) else {
            return;
        };
        if let Some(conn) = link.conn.take() {
            self.poller.deregister(conn.stream.as_raw_fd(), conn.token);
        }
        link.conn_failed(established, now);
    }

    /// Mirrors a link's write interest into the poll(2) backend (no-op
    /// under epoll): connecting sockets and blocked writers want
    /// writable events; anything else would spin on always-writable.
    fn sync_out_interest(&mut self, peer: usize) {
        let Some(link) = self.links.get(peer).and_then(Option::as_ref) else {
            return;
        };
        if let Some(conn) = &link.conn {
            let token = conn.token;
            let want = conn.connecting || conn.write_blocked;
            self.poller.set_interest(token, true, want);
        }
    }

    /// The once-per-tick outbound pass: dial links that want a connection
    /// and are past their backoff, then move eligible queue frames to
    /// the sockets — one vectored write per peer for the whole batch.
    fn pump_links(&mut self, now: Instant) {
        for peer in 0..self.links.len() {
            let (Some(link), Some(queue)) = (self.links[peer].as_mut(), self.core.queue_mut(peer))
            else {
                continue;
            };
            if link.wants_conn(queue) && now >= link.next_dial {
                let token = OUT_BASE + peer as u64;
                match connect_nonblocking(link.peer_addr) {
                    Ok(dial) => {
                        let (stream, connecting) = match dial {
                            Dial::Connected(s) => (s, false),
                            Dial::InProgress(s) => (s, true),
                        };
                        let _ = stream.set_nodelay(true);
                        if self.poller.register(stream.as_raw_fd(), token).is_ok() {
                            link.adopt(stream, token, connecting);
                            if !connecting {
                                link.dial_succeeded();
                            }
                        } else {
                            link.conn_failed(false, now); // stream drops
                        }
                    }
                    Err(_) => link.conn_failed(false, now),
                }
            }
            if link.conn.is_some() && link.pump(queue, now, &self.io).is_err() {
                self.teardown_outbound(peer, true, now);
            } else {
                self.sync_out_interest(peer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use bt_core::{Config, FailStop};
    use simnet::Value;

    use super::*;

    /// Echoes each request: one whose body starts with 0 after the next
    /// tick, any other at once.
    #[derive(Debug, Default)]
    struct Echo {
        later: Vec<(u64, Vec<u8>)>,
    }

    impl ClientService for Echo {
        fn on_open(&mut self, _conn: u64) {}

        fn on_request(
            &mut self,
            conn: u64,
            body: &[u8],
            _now: Instant,
            _submit: &mut dyn FnMut(Vec<u8>),
        ) -> Answer {
            if body.first() == Some(&0) {
                self.later.push((conn, body.to_vec()));
                Answer::Later
            } else {
                Answer::Now(body.to_vec())
            }
        }

        fn after_tick(&mut self, _now: Instant, replies: &mut Vec<(u64, Vec<u8>)>) {
            replies.append(&mut self.later);
        }
    }

    #[test]
    fn a_client_is_served_one_request_at_a_time_and_hung_up_on_at_shutdown() {
        let (Ok(listener), Ok(clients)) = (
            TcpListener::bind("127.0.0.1:0"),
            TcpListener::bind("127.0.0.1:0"),
        ) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = clients.local_addr().unwrap();
        let port = ClientPort {
            listener: clients,
            service: Box::new(Echo::default()),
        };
        let cfg = NodeConfig::new(ProcessId::new(0), 1, 7, FaultPlan::reliable());
        let process = Box::new(FailStop::new(Config::fail_stop(1, 0).unwrap(), Value::One));
        let peers = vec![listener.local_addr().unwrap()];
        let mut node = spawn(cfg, listener, peers, process, None, Some(port)).unwrap();

        // Two requests in one segment, the first answered after a tick:
        // the second is not read, let alone answered, before it is.
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&[0, 0, 0, 1, 0, 0, 0, 0, 1, 5]).unwrap();
        let mut answers = [0u8; 10];
        c.read_exact(&mut answers).unwrap();
        assert_eq!(answers, [0, 0, 0, 1, 0, 0, 0, 0, 1, 5]);

        node.shutdown();
        assert_eq!(c.read(&mut answers).unwrap(), 0, "EOF once the node stops");
    }
}
