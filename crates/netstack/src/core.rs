//! The sans-IO node core: every decision a node makes, as one state
//! machine over explicit inputs and outputs.
//!
//! [`NodeCore`] owns the [`Process`], its seeded RNG, the write-ahead log,
//! the receiver sequence tables, the equivocation evidence, the amnesia /
//! adoption state and the per-peer [`SendQueue`]s. It owns no socket, no
//! poller and no thread, and it never reads the clock: every entry point
//! that needs the time is handed `now`. (Latency histograms time
//! themselves — [`obs::metrics::Histogram::time_us`] — so telemetry never
//! feeds a decision.) WAL I/O goes through [`crate::storage::Storage`],
//! so a test swaps memory for disk and runs the same code.
//!
//! ```text
//! inputs                                   outputs
//!   boot(config, process, wal, now)          the frames on_start causes, sealed on the SendQueues
//!   on_frame(peer, Msg)                      (admitted: seq-checked, decoded, validated — not yet stepped)
//!   on_frame(peer, StateRequest)          ─▶ the StateChunk to answer with
//!   on_reply(peer, Ack | StateChunk)         (retires queue frames / collects transfer offers)
//!   tick(now)                             ─▶ the next timer deadline; everything admitted is now
//!                                            journalled and stepped, its frames sealed on the SendQueues
//!   ack(peer)                             ─▶ the cumulative ack peer is owed: the durable watermark
//! ```
//!
//! **The tick is the unit.** The paper's §2.1 atomic step is receive →
//! compute → send, and nothing in the model forbids taking several steps
//! before any output leaves: that is one legal schedule. So everything
//! that is not the protocol step itself is paid once per tick, not once
//! per message — one journal write per round of deliveries (the admitted
//! frames, then each round of the self-sends they cause), one frame per
//! peer holding every message the tick produced for it (split only at
//! `FRAME_BUDGET` bytes), one ack per connection, one status
//! publication.
//!
//! Three obligations turn the atomic step and the reliable channel into a
//! node that may crash and restart, and all three are enforced here and
//! nowhere else:
//!
//! * **Log before send — per group.** [`NodeCore::tick`] appends a
//!   round's [`DeliveryRecord`]s in one write *before* it steps any of
//!   them, and what the steps send is only *staged*: frames exist — on
//!   the queues, under sequence numbers — only once the tick's last round
//!   has run and the tick is sealed. A driver cannot hand out a frame
//!   whose cause is not durable, because until every cause is journalled
//!   there is no frame. A failed append panics: the driver surfaces it as
//!   `NodeStatus::died` (fail-stop is the honest mode once durability is
//!   gone).
//! * **One payload per `(sender, seq)`.** A run is a deterministic
//!   function of the configuration and the delivery sequence (coins
//!   included — the RNG is seeded and checkpointed, and so is the fault
//!   injector, whose drops gate what is staged), and where the ticks
//!   ended is in the log too ([`WalRecord::Seal`]), so replaying the log
//!   re-seals at the same points and re-derives byte-identical frames
//!   under the same sequence numbers. Acks are *durability-gated* — with
//!   a WAL, [`NodeCore::ack`] covers only what is journalled — so a
//!   sender never retires a frame this node could still lose. Receivers
//!   cross-check with a `(peer, seq) → hash` table filled from the same
//!   bytes in live delivery and in replay.
//! * **Foreign state needs `k + 1` matching answers.** A node whose log
//!   is unsafely damaged or lost boots *amnesiac*: silent on the protocol
//!   plane, probing peers. It adopts `(decision, digest)` only when
//!   `k + 1` offers match, and stays a silent learner afterwards.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::metrics::Registry;
use simnet::{
    Ctx, Envelope, Event, Process, ProcessId, SharedSubscriber, SimRng, Wire, WireReader,
};

use crate::conn::LinkStats;
use crate::fault::{FaultInjector, LinkAction};
use crate::frame::{encode_chunk, Frame};
use crate::node::{fnv1a64, lock_status, NetCounters, NodeConfig, NodeMetrics, NodeStatus};
use crate::wal::{
    frame_into, BootRecord, DeliveryRecord, Recovered, SnapshotRecord, Wal, WalRecord, WAL_VERSION,
};

/// How often an amnesiac node re-probes its peers with
/// [`Frame::StateRequest`] until `k + 1` matching answers arrive.
const PROBE_EVERY: Duration = Duration::from_millis(25);

/// Most payload bytes of one sealed frame. A tick's messages for a peer
/// fill frames up to this size in order, so where a stage splits depends
/// on the messages alone (replay splits identically); only a single
/// message larger than the budget makes a larger frame. Far under
/// [`crate::frame::MAX_FRAME_LEN`].
const FRAME_BUDGET: usize = 64 * 1024;

/// The published copy of the receiver's next-expected table, read by
/// `NodeHandle::next_expected_from`. Each cell publishes only itself, so
/// `Relaxed` suffices on both sides.
pub(crate) type SeqMirror = Arc<Vec<AtomicU64>>;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Converts a stored RNG state vector back to its fixed-width form.
fn words4(v: &[u64], what: &str) -> io::Result<[u64; 4]> {
    v.try_into().map_err(|_| bad(what))
}

/// Decodes a frame payload: one or more messages back to back. `None`
/// rejects the payload *whole* — if it is empty, or if any message in it
/// does not decode, decodes from no bytes at all (such an encoding does
/// not delimit itself; the loop would never end), or is out of range for
/// a system of `n`. Byzantine bytes end here; they never reach (and
/// possibly kill) the protocol.
fn decode_all<M: Wire>(payload: &[u8], n: usize) -> Option<Vec<M>> {
    let mut reader = WireReader::new(payload);
    let mut msgs = Vec::new();
    while reader.remaining() > 0 {
        let at = reader.offset();
        let msg = M::decode(&mut reader).ok().filter(|m: &M| m.validate(n))?;
        if reader.offset() == at {
            return None;
        }
        msgs.push(msg);
    }
    (!msgs.is_empty()).then_some(msgs)
}

/// One sealed frame queued for a peer, pre-encoded to wire bytes.
#[derive(Debug)]
pub(crate) struct QueuedFrame {
    /// Per-link sequence number (assigned by the core at sealing time).
    pub seq: u64,
    /// Earliest instant the frame may leave (fault injection). Later
    /// frames to the same peer wait behind it, like a slow link.
    pub not_before: Instant,
    /// The full wire chunk: length prefix + encoded [`Frame::Msg`],
    /// shared with whatever write queue is transmitting it.
    pub chunk: Arc<Vec<u8>>,
    /// Payload byte count; the payload is the chunk's tail.
    payload_len: usize,
}

impl QueuedFrame {
    /// The protocol-message bytes inside the chunk.
    pub fn payload(&self) -> &[u8] {
        &self.chunk[self.chunk.len() - self.payload_len..]
    }
}

/// Everything the core wants one peer to receive: the ack-gated frames in
/// sequence order, plus at most one pending state-transfer probe.
///
/// Reliability is **ack-gated**. Handing a frame to a transport proves
/// nothing — a connection that dies afterwards can still lose it — so a
/// frame leaves the queue only when the receiver's cumulative
/// [`Frame::Ack`] covers its sequence number. Until then it survives any
/// number of connections, and because this is the *only* copy of the
/// unacked frames it is also what a checkpoint saves as
/// [`SnapshotRecord::backlogs`].
#[derive(Debug)]
pub(crate) struct SendQueue {
    frames: VecDeque<QueuedFrame>,
    /// Running payload-byte total of `frames`.
    unacked_bytes: u64,
    /// The pending probe chunk. Neither sequenced nor ack-gated: a
    /// transport takes it once and drops it — the core re-probes on a
    /// timer, so a lost probe heals itself.
    control: Option<Arc<Vec<u8>>>,
    /// The `{node, peer}` telemetry this queue shares with its link.
    pub stats: LinkStats,
}

impl SendQueue {
    pub fn new(stats: LinkStats) -> Self {
        SendQueue {
            frames: VecDeque::new(),
            unacked_bytes: 0,
            control: None,
            stats,
        }
    }

    /// Queues one sealed frame under `seq` — the core's job, at sealing
    /// time (and when a checkpoint's backlog is re-offered); nothing else
    /// assigns sequence numbers.
    pub fn push(&mut self, seq: u64, payload: Vec<u8>, not_before: Instant) {
        let payload_len = payload.len();
        let chunk = Arc::new(encode_chunk(&Frame::Msg { seq, payload }));
        self.unacked_bytes += payload_len as u64;
        self.frames.push_back(QueuedFrame {
            seq,
            not_before,
            chunk,
            payload_len,
        });
        self.publish_depth();
    }

    /// Retires every frame a cumulative ack covers.
    pub fn on_ack(&mut self, next: u64) {
        while self.frames.front().is_some_and(|f| f.seq < next) {
            let f = self.frames.pop_front().expect("front was Some");
            self.unacked_bytes -= f.payload_len as u64;
        }
        self.stats.acked.set_max(next);
        self.publish_depth();
    }

    fn publish_depth(&self) {
        self.stats.queue_depth.set(self.frames.len() as u64);
        self.stats.backlog_bytes.set(self.unacked_bytes);
    }

    /// The unacked frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &QueuedFrame> {
        self.frames.iter()
    }

    /// Sets the pending probe, replacing one no transport took yet — so a
    /// dead link never accumulates duplicates.
    pub fn set_control(&mut self, chunk: Arc<Vec<u8>>) {
        self.control = Some(chunk);
    }

    /// Hands the pending probe (if any) to a transport, exactly once.
    pub fn take_control(&mut self) -> Option<Arc<Vec<u8>>> {
        self.control.take()
    }

    /// True when there is something a connection could transmit.
    pub fn wants_transport(&self) -> bool {
        !self.frames.is_empty() || self.control.is_some()
    }
}

/// One frame in the making: what the current tick's steps have sent one
/// peer so far. It has no sequence number and is on no queue — nothing
/// can transmit it — until the tick is sealed.
#[derive(Debug)]
struct StagedFrame {
    /// The messages, encoded back to back.
    payload: Vec<u8>,
    /// The latest release instant among them (fault-injected delays).
    not_before: Instant,
}

/// Adds one message to a peer's stage: onto the open (last) frame, or
/// onto a new one if that would take the open frame over
/// [`FRAME_BUDGET`].
fn stage<M: Wire>(frames: &mut Vec<StagedFrame>, msg: &M, not_before: Instant) {
    let payload = match frames.last_mut() {
        Some(open) => {
            let at = open.payload.len();
            msg.encode(&mut open.payload);
            if open.payload.len() <= FRAME_BUDGET {
                open.not_before = open.not_before.max(not_before);
                return;
            }
            open.payload.split_off(at)
        }
        None => msg.to_bytes(),
    };
    frames.push(StagedFrame {
        payload,
        not_before,
    });
}

/// One peer's answer to a state-transfer probe, held until `k + 1` of
/// them match on `(decision, app_digest)`.
#[derive(Clone, Debug)]
struct TransferOffer {
    decision: Option<simnet::Value>,
    app_digest: u64,
    app: Option<Vec<u8>>,
}

/// The node state machine. See the module docs for the contract.
pub(crate) struct NodeCore<M: Wire> {
    me: ProcessId,
    n: usize,
    k: usize,
    process: Box<dyn Process<Msg = M> + Send>,
    rng: SimRng,
    injector: FaultInjector,
    step: u64,
    out_seq: Vec<u64>,
    outbox: Vec<(ProcessId, M)>,
    /// Frames admitted since the last tick — `(sender, seq, messages)` in
    /// arrival order — awaiting their journal write and their steps.
    admitted: Vec<(ProcessId, u64, Vec<M>)>,
    /// The delivery records of the round about to be stepped, framed for
    /// one [`Wal::append_group`].
    group: Vec<u8>,
    /// The log's tail holds deliveries with no [`WalRecord::Seal`] after
    /// them, though the tick that stepped them has sealed: the next group
    /// starts with the marker.
    seal_owed: bool,
    /// Pending self-deliveries, encoded back to back: the next round.
    /// Self-addressed sends (the paper's broadcasts include the sender)
    /// never leave the core.
    self_stage: Vec<u8>,
    /// What the current tick has sent each peer so far, by peer index.
    stages: Vec<Vec<StagedFrame>>,
    /// Outbound queues by peer index (`None` at this node's own slot).
    queues: Vec<Option<SendQueue>>,
    wal: Option<Wal>,
    boot: BootRecord,
    snapshot_every: u64,
    since_snapshot: u64,
    /// Receiver-side exactly-once: the next sequence number accepted from
    /// each peer, initialized from the log so that frames a previous
    /// incarnation journalled re-arrive as duplicates, not deliveries.
    next_seq: Vec<u64>,
    /// The journalled prefix of `next_seq` — what acks may cover. Lags
    /// `next_seq` across frames rejected at the wire, and across frames
    /// admitted since the last tick.
    durable_next: Vec<u64>,
    /// The published copy of `next_seq`, for the node's handle.
    pub next_seq_mirror: SeqMirror,
    /// Payload hashes of the frames accepted since the last checkpoint,
    /// per peer, for the no-equivocation check on duplicates: what a
    /// restart from that checkpoint would rebuild, and no more.
    hashes: Vec<HashMap<u64, u64>>,
    /// The core's own copy of the node status, updated every step and
    /// published to `status` once per tick.
    st: NodeStatus,
    /// The live status cell, shared with the node's handle.
    pub status: Arc<Mutex<NodeStatus>>,
    /// This node's message counters (handles into its registry).
    pub counters: NetCounters,
    metrics: NodeMetrics,
    subscriber: Option<SharedSubscriber>,
    decided: bool,
    halt_published: bool,
    /// Booted on an unsafely damaged (or missing) WAL: refuse to send
    /// protocol messages or append to the log until state transfer.
    amnesiac: bool,
    /// Rebuilt from quorum state transfer (this incarnation or one it
    /// restored from). An adopted node stays a learner: its pre-crash
    /// send history is unknowable, so a fresh `on_start` could emit a
    /// second, different INITIAL under new sequence numbers — exactly
    /// the protocol-level equivocation amnesia detection exists to stop.
    adopted: bool,
    /// The decision adopted from the quorum, if the peers had one.
    adopted_decision: Option<simnet::Value>,
    /// When the next state-transfer probe is due (`None` = at once;
    /// meaningful only while amnesiac).
    probe_at: Option<Instant>,
    /// Peer answers collected so far, keyed by peer index (ordered, so
    /// the winning class does not depend on hasher state).
    offers: BTreeMap<usize, TransferOffer>,
}

impl<M: Wire> NodeCore<M> {
    /// Builds the node and brings it to where its log says it was, before
    /// it sees a single frame: a log with history is replayed (snapshot
    /// first, if any) and the re-derived frames are re-queued; an empty
    /// log gets its [`BootRecord`] and a live `on_start`; an unsafely
    /// damaged log — or an empty one when `cfg.expect_history` says it
    /// must exist — boots the node amnesiac.
    ///
    /// # Errors
    ///
    /// WAL I/O errors, a log that belongs to a different node or
    /// configuration or was written in another format version, and a
    /// snapshot or delivery inconsistent with this system
    /// (`InvalidData`).
    pub fn boot(
        cfg: &NodeConfig,
        process: Box<dyn Process<Msg = M> + Send>,
        wal: Option<(Wal, Recovered)>,
        registry: &Registry,
        subscriber: Option<SharedSubscriber>,
        now: Instant,
    ) -> io::Result<Self> {
        let me = cfg.id;
        let queues = (0..cfg.n)
            .map(|i| (i != me.index()).then(|| SendQueue::new(LinkStats::new(registry, me, i))))
            .collect();
        let mut core = NodeCore {
            me,
            n: cfg.n,
            k: cfg.k,
            process,
            rng: SimRng::seed(cfg.seed),
            // A distinct stream from the protocol's.
            injector: FaultInjector::new(cfg.fault.clone(), cfg.seed ^ 0x6e65_7473, now),
            step: 0,
            out_seq: vec![0; cfg.n],
            outbox: Vec::new(),
            admitted: Vec::new(),
            group: Vec::new(),
            seal_owed: false,
            self_stage: Vec::new(),
            stages: (0..cfg.n).map(|_| Vec::new()).collect(),
            queues,
            wal: None,
            boot: BootRecord {
                node: me,
                n: cfg.n,
                seed: cfg.seed,
                version: WAL_VERSION,
            },
            snapshot_every: cfg.snapshot_every,
            since_snapshot: 0,
            next_seq: vec![0; cfg.n],
            durable_next: vec![0; cfg.n],
            next_seq_mirror: Arc::new((0..cfg.n).map(|_| AtomicU64::new(0)).collect()),
            hashes: vec![HashMap::new(); cfg.n],
            st: NodeStatus::default(),
            status: Arc::new(Mutex::new(NodeStatus::default())),
            counters: NetCounters::new(registry, me),
            metrics: NodeMetrics::new(registry, me),
            subscriber,
            decided: false,
            halt_published: false,
            amnesiac: false,
            adopted: false,
            adopted_decision: None,
            probe_at: None,
            offers: BTreeMap::new(),
        };
        let Some((mut wal, recovered)) = wal else {
            core.run_start(true, now);
            core.publish_status();
            return Ok(core);
        };
        if recovered.damage.is_unsafe() || (recovered.records.is_empty() && cfg.expect_history) {
            // Mid-log damage: the durable prefix cannot be trusted (the
            // records after the damage are gone, so replay would regress
            // the watermark peers saw acked). A log the supervisor says
            // must exist but is empty was lost (or torn back to nothing).
            // Either way: no `on_start`, no replay, no WAL appends — the
            // damaged log stays untouched as evidence until adoption
            // replaces it, and the node joins the network silently.
            core.counters.wal_corruptions.inc();
            core.amnesiac = true;
            core.st.amnesiac = true;
            core.st.steps = 1;
            core.wal = Some(wal);
        } else if recovered.records.is_empty() {
            wal.append(&WalRecord::Boot(core.boot.clone()))?;
            core.wal = Some(wal);
            core.run_start(true, now);
        } else {
            let on_disk = recovered
                .boot()
                .ok_or_else(|| bad("wal has no boot header"))?;
            if on_disk.version != WAL_VERSION {
                // Another version grouped messages into frames
                // differently, and its frames are already on the wire:
                // replayed under this grouping they would be renumbered.
                return Err(bad("wal was written in another format version"));
            }
            if *on_disk != core.boot {
                return Err(bad("wal belongs to a different node or configuration"));
            }
            core.wal = Some(wal);
            let (snapshot, tail) = recovered.replay_plan();
            let replay_us = core.metrics.recovery_replay_us.clone();
            let replayed = replay_us.time_us(|| core.recover(snapshot.cloned(), tail, now))?;
            core.metrics.recoveries.inc();
            core.metrics.recovered_deliveries.add(replayed);
            core.st.recovered = replayed;
            core.publish(Event::Recover {
                step: core.step,
                pid: me,
                replayed,
            });
        }
        core.publish_status();
        Ok(core)
    }

    /// The outbound queue for `peer` (`None` at this node's own slot).
    pub fn queue_mut(&mut self, peer: usize) -> Option<&mut SendQueue> {
        self.queues.get_mut(peer).and_then(Option::as_mut)
    }

    /// [`NodeCore::queue_mut`], shared.
    pub fn queue(&self, peer: usize) -> Option<&SendQueue> {
        self.queues.get(peer).and_then(Option::as_ref)
    }

    fn publish(&self, event: Event) {
        if let Some(s) = &self.subscriber {
            s.lock().expect("subscriber lock poisoned").on_event(&event);
        }
    }

    /// Copies the core's status to the cell the node's handle reads.
    fn publish_status(&self) {
        lock_status(&self.status).clone_from(&self.st);
    }

    fn set_next_seq(&mut self, peer: usize, next: u64) {
        self.next_seq[peer] = next;
        self.next_seq_mirror[peer].store(next, Relaxed);
    }

    /// Whether deliveries are journalled: there is a log, and it can be
    /// trusted. An amnesiac's damaged file is evidence, not a journal; its
    /// deliveries feed the process as a passive learner only — `dispatch`
    /// stays silent — so skipping durability cannot cause equivocation.
    fn journals(&self) -> bool {
        self.wal.is_some() && !self.amnesiac
    }

    /// One frame a peer sent *to* this node (after the driver resolved
    /// its `Hello`). A protocol frame is *admitted* — sequence-checked,
    /// decoded, validated — and waits for the next [`NodeCore::tick`]; the
    /// driver owes the connection one [`NodeCore::ack`] after that tick.
    /// A state-transfer probe is answered at once: the returned frame
    /// goes back on the same connection.
    pub fn on_frame(&mut self, from: ProcessId, frame: Frame) -> Option<Frame> {
        match frame {
            Frame::Msg { seq, payload } => {
                self.admit(from, seq, payload);
                None
            }
            // Serve our durable state to the prober. An amnesiac has
            // nothing trustworthy to serve and stays silent.
            Frame::StateRequest { .. } if !self.amnesiac => {
                self.counters.state_requests_served.inc();
                Some(Frame::StateChunk {
                    from: self.me,
                    // The status's decision, not the process's: an
                    // adopted learner's decision lives there, and it is
                    // just as quorum-backed as one the process derived.
                    decision: self.st.decision,
                    phase: self.process.phase(),
                    app_digest: self.process.transfer_digest(),
                    app: self.process.transfer_state(),
                })
            }
            // Acks and state chunks are *replies*; they belong on this
            // node's own outbound connections. Harmless noise here.
            _ => None,
        }
    }

    /// The cumulative ack `peer` is owed, sent once per tick on every
    /// connection that carried its frames — duplicates and gaps included,
    /// so a reconnected sender can retire its queue and resync. With a
    /// WAL this is the durable watermark: read after a tick it covers
    /// everything the tick journalled, read before it nothing that is not
    /// journalled yet. An amnesiac journals nothing but may still ack
    /// speculatively: a learner never sends protocol messages, so the
    /// replay-equivocation hazard durable acks exist to prevent cannot
    /// arise, and adoption pins this same watermark durably.
    pub fn ack(&self, peer: usize) -> u64 {
        if self.journals() {
            self.durable_next[peer]
        } else {
            self.next_seq[peer]
        }
    }

    /// One frame `peer` sent back on this node's connection *to it*: a
    /// cumulative ack, or the answer to a state-transfer probe.
    pub fn on_reply(&mut self, peer: usize, frame: Frame) {
        match frame {
            Frame::Ack { next } => {
                if let Some(q) = self.queue_mut(peer) {
                    q.on_ack(next);
                }
            }
            Frame::StateChunk {
                from,
                decision,
                app_digest,
                app,
                ..
            } if from.index() == peer => self.on_offer(
                peer,
                TransferOffer {
                    decision,
                    app_digest,
                    app,
                },
            ),
            _ => {} // outbound connections carry nothing else of note
        }
    }

    /// Runs everything admitted since the last tick, as rounds: the
    /// admitted frames first, then the self-sends they caused, then
    /// theirs, until none is left. Each round is journalled with one
    /// write before any of it is stepped; when the last has run, what the
    /// steps sent is sealed into frames — one per peer — the status is
    /// published and a checkpoint taken if one is due.
    ///
    /// Also the timer input: while amnesiac, (re)issues a
    /// [`Frame::StateRequest`] to every peer each [`PROBE_EVERY`];
    /// answered or lost probes are simply superseded by the next round.
    /// Returns when the core next needs a tick regardless of traffic.
    pub fn tick(&mut self, now: Instant) -> Option<Instant> {
        let journals = self.journals();
        let admitted = std::mem::take(&mut self.admitted);
        // Steps are the only source of self-sends, so a tick with neither
        // input nor pending self-sends has nothing to run or seal.
        let idle = admitted.is_empty() && self.self_stage.is_empty();
        self.append_group();
        for (from, seq, msgs) in admitted {
            if journals {
                // Now — and only now — may acks cover this frame.
                let durable = &mut self.durable_next[from.index()];
                *durable = (*durable).max(seq + 1);
            }
            for msg in msgs {
                self.deliver(from, msg, true, now);
            }
        }
        while !self.self_stage.is_empty() {
            let bytes = std::mem::take(&mut self.self_stage);
            let msgs = decode_all::<M>(&bytes, self.n).expect("locally encoded self-sends decode");
            self.journal(self.me, None, bytes);
            self.append_group();
            for msg in msgs {
                self.deliver(self.me, msg, true, now);
            }
        }
        if !idle {
            self.seal();
            self.seal_owed |= journals;
            self.publish_status();
        }
        self.maybe_snapshot();
        if !self.amnesiac {
            return None;
        }
        if self.probe_at.is_none_or(|at| at <= now) {
            self.probe_at = Some(now + PROBE_EVERY);
            let probe = Arc::new(encode_chunk(&Frame::StateRequest { from: self.me }));
            for q in self.queues.iter_mut().flatten() {
                q.set_control(Arc::clone(&probe));
            }
        }
        self.probe_at
    }

    /// One inbound protocol frame: consult the sequence table, apply the
    /// no-equivocation cross-check, and admit it if it is the next
    /// expected one. Nothing is stepped here.
    fn admit(&mut self, from: ProcessId, seq: u64, payload: Vec<u8>) {
        let peer = from.index();
        let next = self.next_seq[peer];
        match seq.cmp(&next) {
            // The next expected frame: consume the seq and keep its hash,
            // whatever the payload turns out to hold.
            Ordering::Equal => {
                self.set_next_seq(peer, next + 1);
                self.hashes[peer].insert(seq, fnv1a64(&payload));
                let decode_us = &self.metrics.msg_decode_us;
                match decode_us.time_us(|| decode_all::<M>(&payload, self.n)) {
                    Some(msgs) => {
                        self.journal(from, Some(seq), payload);
                        self.admitted.push((from, seq, msgs));
                    }
                    // Rejected whole; the link stays up, and the ack does
                    // not move: no log holds this seq (the next frame
                    // journalled carries the watermark past the hole).
                    // It counts towards the checkpoint cadence, so a
                    // flood of garbage cannot grow the evidence table.
                    None => {
                        self.counters.wire_rejected.inc();
                        self.since_snapshot += 1;
                    }
                }
            }
            // Already accepted (a reconnect replay): ack again, drop. A
            // retransmission must be byte-identical to the frame first
            // accepted under this seq — recovered nodes included.
            // Anything else is equivocation.
            Ordering::Less => {
                let first = self.hashes[peer].get(&seq);
                if first.is_some_and(|&h| h != fnv1a64(&payload)) {
                    self.counters.equivocations.inc();
                }
            }
            // Skipped ahead of the next expected seq. An honest sender
            // replays its unacked queue in order, so this is a
            // reliability violation or a hostile peer: count it and
            // drop, never deliver out of order.
            Ordering::Greater => self.counters.seq_gaps.inc(),
        }
    }

    /// Frames one delivery record into the pending group — behind the
    /// seal marker the previous tick owes, if this is the first record
    /// since.
    fn journal(&mut self, from: ProcessId, seq: Option<u64>, payload: Vec<u8>) {
        if !self.journals() {
            return;
        }
        if std::mem::take(&mut self.seal_owed) {
            frame_into(&mut self.group, &WalRecord::Seal);
        }
        let record = DeliveryRecord { from, seq, payload };
        frame_into(&mut self.group, &WalRecord::Delivery(record));
    }

    /// Log-before-send: appends the pending group with one write. Its
    /// records must be durable before any of them is stepped; a failed
    /// append forfeits that guarantee, so die (the driver catches the
    /// panic and reports `NodeStatus::died`).
    fn append_group(&mut self) {
        if self.group.is_empty() {
            return;
        }
        let wal = self.wal.as_mut().expect("only a journalling node frames");
        (self.metrics.wal_append_us)
            .time_us(|| wal.append_group(&self.group))
            .expect("wal append failed: cannot guarantee no-equivocation");
        self.group.clear();
    }

    /// The initial atomic step, sealed on its own: no delivery causes
    /// `on_start`'s sends, so no seal marker could say where they ended —
    /// they always form the first frames, live and in replay. With `live`
    /// false this is a replay re-derivation: same state, same sends, no
    /// publishing, no counting.
    fn run_start(&mut self, live: bool, now: Instant) {
        if live {
            self.publish(Event::Start { pid: self.me });
        }
        self.step_process(live, now, |process, ctx| process.on_start(ctx));
        self.seal();
    }

    /// Runs the process for one atomic step, then the tail every step
    /// shares: publish what the protocol emitted, stage its sends,
    /// refresh the status.
    fn step_process(
        &mut self,
        live: bool,
        now: Instant,
        step: impl FnOnce(&mut (dyn Process<Msg = M> + Send), &mut Ctx<'_, M>),
    ) {
        let events = {
            let mut ctx = Ctx::new(self.me, self.n, self.step, &mut self.outbox, &mut self.rng)
                .with_obs(self.subscriber.is_some() && live)
                .with_live(live);
            step(self.process.as_mut(), &mut ctx);
            ctx.take_events()
        };
        if live {
            for event in events {
                self.publish(Event::Protocol {
                    step: self.step,
                    pid: self.me,
                    event,
                });
            }
        }
        self.dispatch(live, now);
        self.observe(live);
    }

    /// Restores the snapshot (if any) and replays the log after it — one
    /// pass: deliveries are stepped, seals re-seal where the crashed
    /// incarnation's ticks ended — returning how many messages were
    /// replayed. The end of the log seals implicitly: the tick it cuts
    /// short released no frame, so where it would have ended is not a
    /// fact anyone saw.
    fn recover(
        &mut self,
        snapshot: Option<SnapshotRecord>,
        tail: &[WalRecord],
        now: Instant,
    ) -> io::Result<u64> {
        match snapshot {
            Some(s) => {
                if s.out_seq.len() != self.n
                    || s.backlogs.len() != self.n
                    || s.next_seq.len() != self.n
                {
                    return Err(bad("wal snapshot sized for a different system"));
                }
                self.step = s.step;
                self.rng = SimRng::restore(s.rng_seed, words4(&s.rng_state, "rng state")?);
                let injector_state = words4(&s.injector_state, "injector state")?;
                self.injector.restore(injector_state);
                self.adopted = s.adopted;
                self.adopted_decision = s.adopted_decision;
                // A learner's checkpoint may carry no process bytes
                // (protocols without snapshot support adopt decisions
                // only); the state machine then stays fresh — safe,
                // because a learner never sends.
                let fresh_learner = s.adopted && s.process.is_empty();
                if !fresh_learner && !self.process.restore(&s.process) {
                    return Err(bad("protocol state machine rejected its snapshot"));
                }
                self.out_seq = s.out_seq;
                self.self_stage = s.self_queue.concat();
                for (peer, &next) in s.next_seq.iter().enumerate() {
                    self.set_next_seq(peer, next);
                }
                self.durable_next = s.next_seq;
                // Re-offer the unacked backlog: frames a peer may never
                // have received, byte-identical under their original
                // sequence numbers.
                for (queue, frames) in self.queues.iter_mut().zip(s.backlogs) {
                    let Some(queue) = queue else { continue };
                    for (seq, payload) in frames {
                        queue.push(seq, payload, now);
                    }
                }
            }
            // No checkpoint: re-derive genesis, silently.
            None => self.run_start(false, now),
        }
        let mut replayed = 0;
        for record in tail {
            let d = match record {
                WalRecord::Delivery(d) => d,
                WalRecord::Seal => {
                    self.seal();
                    self.seal_owed = false;
                    continue;
                }
                WalRecord::Boot(_) | WalRecord::Snapshot(_) => continue,
            };
            let peer = d.from.index();
            if peer >= self.n {
                return Err(bad("wal delivery from a process outside the system"));
            }
            match d.seq {
                // A logged round of self-deliveries consumes the pending
                // self-sends, which determinism says must be
                // byte-identical to the record.
                None => {
                    if d.from != self.me {
                        return Err(bad("wal self-delivery not from this node"));
                    }
                    if std::mem::take(&mut self.self_stage) != d.payload {
                        return Err(bad("replay diverged: self-delivery bytes differ from log"));
                    }
                }
                // The equivocation evidence, from the journalled bytes —
                // the frame's payload as it arrived — so that replay
                // rebuilds exactly the table live admission built. The
                // record also *is* the sequence table: the log's highest
                // seq per peer is what was accepted.
                Some(seq) => {
                    self.hashes[peer].insert(seq, fnv1a64(&d.payload));
                    if seq >= self.next_seq[peer] {
                        self.set_next_seq(peer, seq + 1);
                        self.durable_next[peer] = seq + 1;
                    }
                }
            }
            let msgs = decode_all::<M>(&d.payload, self.n)
                .ok_or_else(|| bad("undecodable logged delivery payload"))?;
            replayed += msgs.len() as u64;
            for msg in msgs {
                self.deliver(d.from, msg, false, now);
            }
            self.seal_owed = true;
        }
        self.seal();
        // Refresh the externally visible status from the recovered state
        // even when every delivery was compacted into the snapshot — a
        // decision restored from the checkpoint alone must still be
        // reported (silently: it belongs to the crashed incarnation).
        self.observe(false);
        if self.adopted {
            self.report_adoption();
        }
        Ok(replayed)
    }

    /// One delivery step — the process step, the sends it stages, and the
    /// status/telemetry fallout; its record is already in the log. With
    /// `live` false this is log replay: nothing is published or counted,
    /// but sends are still staged — sealed, they are retransmissions of
    /// frames the crashed incarnation already owned.
    fn deliver(&mut self, from: ProcessId, msg: M, live: bool, now: Instant) {
        if live {
            self.since_snapshot += 1;
        }
        if self.process.halted() {
            if live {
                self.counters.dropped_at_halted.inc();
            }
            return;
        }
        self.step += 1;
        if live {
            self.counters.delivered.inc();
            // A networked node has no delivery buffer the scheduler
            // indexes into — the OS hands messages over in arrival order
            // — so the schedule slot is always 0.
            self.publish(Event::Deliver {
                step: self.step,
                to: self.me,
                from,
                index: 0,
            });
        }
        self.step_process(live, now, |process, ctx| {
            process.on_receive(Envelope::new(from, msg), ctx);
        });
    }

    /// Routes one step's outbox: self-sends join the next round, remote
    /// sends pass the fault injector and are staged for their peer. The
    /// injector is consulted (and its RNG stream advanced) in replay too
    /// — a drop keeps a message out of its frame, so skipping the draws
    /// would change the replayed frames.
    fn dispatch(&mut self, live: bool, now: Instant) {
        // A node without a trusted durable history must stay silent on
        // the protocol plane, forever: its pre-damage send history is
        // unknowable, and any fresh send could contradict it. This is
        // the "treat a state-lossy process as faulty until re-validated"
        // rule — and after adoption the node stays a learner, because
        // re-validation recovers *state*, not the right to re-send.
        if self.amnesiac || self.adopted {
            self.outbox.clear();
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg) in outbox.drain(..) {
            if live {
                self.counters.sent.inc();
                self.publish(Event::Send {
                    step: self.step,
                    from: self.me,
                    to,
                });
            }
            if to == self.me {
                msg.encode(&mut self.self_stage);
                continue;
            }
            let Some(frames) = self.stages.get_mut(to.index()) else {
                continue; // address outside the system: a Byzantine no-op
            };
            let not_before = match self.injector.action(self.me, to, now) {
                LinkAction::Drop => {
                    if live {
                        self.counters.injected_drops.inc();
                    }
                    continue;
                }
                LinkAction::Deliver => now,
                LinkAction::DelayBy(d) => now + d,
            };
            stage(frames, &msg, not_before);
        }
        self.outbox = outbox;
    }

    /// Ends a tick's sending: every staged frame gets the peer's next
    /// sequence number and joins its [`SendQueue`] — the only point at
    /// which protocol frames come to exist.
    fn seal(&mut self) {
        for (to, frames) in self.stages.iter_mut().enumerate() {
            for frame in frames.drain(..) {
                let queue = self.queues[to].as_mut().expect("staged for a peer");
                let seq = self.out_seq[to];
                self.out_seq[to] += 1;
                (self.metrics.msg_encode_us)
                    .time_us(|| queue.push(seq, frame.payload, frame.not_before));
            }
        }
    }

    /// Mirrors `Sim::observe`: records decisions and halts exactly once.
    /// In replay the status still updates (the recovered node resumes
    /// with correct phase/decision) but nothing is re-published — the
    /// world already saw those events from the previous incarnation.
    fn observe(&mut self, live: bool) {
        let halted = self.process.halted();
        self.st.steps = self.step + 1;
        self.st.phase = self.process.phase();
        self.st.halted = halted;
        if !self.decided {
            if let Some(value) = self.process.decision() {
                self.decided = true;
                self.st.decision = Some(value);
                self.st.decision_phase = self.process.decision_phase();
                self.st.decision_step = Some(self.step);
                if live {
                    self.publish(Event::Decide {
                        step: self.step,
                        pid: self.me,
                        value,
                    });
                }
            }
        }
        if halted && !self.halt_published {
            self.halt_published = true;
            if live {
                self.publish(Event::Halt {
                    step: self.step,
                    pid: self.me,
                });
            }
        }
    }

    /// A checkpoint with nothing in flight: no backlogs, no pending
    /// self-sends. Callers fill in what they have.
    fn snapshot_record(&self, process: Vec<u8>, next_seq: Vec<u64>) -> SnapshotRecord {
        let (rng_seed, rng_state) = self.rng.save();
        SnapshotRecord {
            step: self.step,
            rng_seed,
            rng_state: rng_state.to_vec(),
            process,
            out_seq: self.out_seq.clone(),
            next_seq,
            backlogs: vec![Vec::new(); self.n],
            self_queue: Vec::new(),
            injector_state: self.injector.rng_state().to_vec(),
            adopted: self.adopted,
            adopted_decision: self.adopted_decision,
        }
    }

    /// Drops the equivocation evidence a checkpoint supersedes. At a tick
    /// boundary every hashed seq is below `next_seq`, and a restart from
    /// the checkpoint rebuilds none of them — so none is kept. Without
    /// this the table grows with every frame ever accepted, and whether
    /// an old duplicate counts as equivocation would depend on whether
    /// the receiver happened to restart.
    fn prune_evidence(&mut self) {
        self.hashes.iter_mut().for_each(HashMap::clear);
    }

    /// Every `snapshot_every` deliveries (and frames rejected at the
    /// wire), at the tick boundary (nothing staged, no self-send
    /// pending): compacts the WAL to boot + snapshot, if the protocol
    /// supports checkpointing, and prunes the evidence table to match. A
    /// node that journals nothing prunes on the same cadence.
    fn maybe_snapshot(&mut self) {
        if self.snapshot_every == 0 || self.since_snapshot < self.snapshot_every {
            return;
        }
        if !self.journals() {
            self.since_snapshot = 0;
            self.prune_evidence();
            return;
        }
        let Some(process_bytes) = self.process.snapshot() else {
            return; // protocol opted out of checkpointing; replay from genesis
        };
        self.since_snapshot = 0;
        let snapshot = SnapshotRecord {
            // The queues hold exactly the frames no ack has retired —
            // what a restarted node must re-offer.
            backlogs: (self.queues.iter())
                .map(|q| {
                    let frames = q.iter().flat_map(|q| q.frames());
                    frames.map(|f| (f.seq, f.payload().to_vec())).collect()
                })
                .collect(),
            // The durable watermark: what this node has journalled and
            // therefore acked. Anything beyond it was never acked, so a
            // post-crash sender re-offers it.
            ..self.snapshot_record(process_bytes, self.durable_next.clone())
        };
        let wal = self.wal.as_mut().expect("a journalling node has a wal");
        // A failed compaction is not fatal — the log just stays long
        // and replay starts further back.
        let compacted = (self.metrics.wal_compact_us)
            .time_us(|| wal.compact(&self.boot, &snapshot))
            .is_ok();
        if compacted {
            self.metrics.wal_compactions.inc();
            self.seal_owed = false;
            self.prune_evidence();
        }
    }

    /// Files one probe answer and adopts once `k + 1` peers agree on
    /// `(decision, app_digest)` — so up to `k` faulty peers can neither
    /// forge a state nor block transfer (there are `n - k - 1` others).
    fn on_offer(&mut self, peer: usize, offer: TransferOffer) {
        if !self.amnesiac {
            return;
        }
        // An empty offer (undecided, no app state) attests nothing;
        // matching k+1 of them would adopt a vacuous state. Wait for
        // peers that actually have something.
        if offer.decision.is_none() && offer.app_digest == 0 {
            return;
        }
        // Bytes that do not hash to their own digest are forged; drop
        // the offer before it can poison a quorum.
        let forged = |bytes: &[u8]| fnv1a64(bytes) != offer.app_digest;
        if offer.app.as_deref().is_some_and(forged) {
            return;
        }
        self.offers.insert(peer, offer);
        let class = |o: &TransferOffer| (o.decision, o.app_digest);
        let members = |c| self.offers.values().filter(move |o| class(o) == c);
        let mut classes = self.offers.values().map(class);
        let Some(winner) = classes.find(|&c| members(c).count() > self.k) else {
            return;
        };
        // Any offer in the winning class may carry the bytes.
        let app = members(winner).find_map(|o| o.app.clone());
        if !self.adopt(winner.0, winner.1, app) {
            // Adoption failed (no usable bytes, or the disk is still
            // sick): discard the round and keep probing fresh.
            self.offers.clear();
        }
    }

    /// Adopts quorum-confirmed state: installs the replicated bytes (if
    /// the protocol transfers any), writes a fresh Boot + Snapshot WAL
    /// marked `adopted`, and leaves amnesia — as a learner. Returns
    /// `false` when adoption could not complete (garbled bytes or a
    /// still-failing disk); the node keeps probing.
    fn adopt(
        &mut self,
        decision: Option<simnet::Value>,
        digest: u64,
        app: Option<Vec<u8>>,
    ) -> bool {
        if digest != 0 {
            let Some(bytes) = app.as_deref() else {
                return false; // matching digests but nobody sent the bytes
            };
            if fnv1a64(bytes) != digest || !self.process.adopt_transfer(bytes) {
                return false;
            }
        }
        let snapshot = SnapshotRecord {
            adopted: true,
            adopted_decision: decision,
            // The speculative acks this amnesiac already sent become
            // durable here: the snapshot pins the same watermark, so a
            // future restart dedups exactly what was acked.
            ..self.snapshot_record(
                self.process.snapshot().unwrap_or_default(),
                self.next_seq.clone(),
            )
        };
        if let Some(wal) = &mut self.wal {
            if wal.compact(&self.boot, &snapshot).is_err() {
                return false; // disk still sick; stay amnesiac
            }
        }
        self.durable_next.clone_from(&self.next_seq);
        self.prune_evidence();
        self.since_snapshot = 0;
        self.amnesiac = false;
        self.adopted = true;
        self.adopted_decision = decision;
        self.offers.clear();
        self.counters.state_transfers.inc();
        self.st.amnesiac = false;
        self.report_adoption();
        self.publish_status();
        self.publish(Event::Recover {
            step: self.step,
            pid: self.me,
            replayed: 0,
        });
        true
    }

    /// Surfaces learner state in the status: the transfer itself, and the
    /// quorum's decision unless the process already has its own.
    fn report_adoption(&mut self) {
        self.st.state_transferred = true;
        if let Some(v) = self.adopted_decision {
            if self.st.decision.is_none() {
                self.st.decision = Some(v);
                self.st.decision_step = Some(self.step);
            }
            self.decided = true;
        }
    }
}

#[cfg(test)]
mod tests {
    //! A deterministic harness for the core: `n` cores over in-memory
    //! logs, a virtual clock, and a pool of in-flight frames the test
    //! feeds in any order and burst shape, ticking the cores and sending
    //! their acks as a driver would. No socket, no file, no sleep.

    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::Path;

    use bt_core::{Config, Malicious, MaliciousMsg};
    use prng::Prng;
    use simnet::Value;

    use super::*;
    use crate::fault::FaultPlan;
    use crate::frame::drain_frames;
    use crate::storage::Storage;

    const N: usize = 4;
    const K: usize = 1;
    type Core = NodeCore<MaliciousMsg>;

    /// What outlives a core: its log, how often it was appended to, and
    /// an armed write failure.
    #[derive(Debug, Default)]
    struct Platter {
        log: Vec<u8>,
        appends: u64,
        /// Rounds of self-sends ever appended (one record each).
        self_rounds: u64,
        /// The append this many calls from now fails, writing nothing.
        fail_in: Option<u64>,
    }

    /// [`Storage`] over a shared [`Platter`] — the "disk" a rebooted core
    /// recovers from.
    #[derive(Clone, Debug, Default)]
    struct MemDisk {
        platter: Arc<Mutex<Platter>>,
        staged: Vec<u8>,
    }

    impl Storage for MemDisk {
        fn open(&mut self, _: &Path) -> io::Result<Vec<u8>> {
            Ok(self.platter.lock().unwrap().log.clone())
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.platter.lock().unwrap().log.truncate(len as usize);
            Ok(())
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            let group = MemDisk::default();
            group.platter.lock().unwrap().log = bytes.to_vec();
            let self_rounds = group.deliveries().into_iter().filter(|d| d.seq.is_none());
            let mut platter = self.platter.lock().unwrap();
            platter.appends += 1;
            platter.self_rounds += self_rounds.count() as u64;
            if let Some(left) = platter.fail_in.as_mut() {
                *left -= 1;
                if *left == 0 {
                    platter.fail_in = None;
                    return Err(io::Error::other("injected append failure"));
                }
            }
            platter.log.extend_from_slice(bytes);
            Ok(())
        }
        fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.staged = bytes.to_vec();
            Ok(())
        }
        fn commit_replacement(&mut self) -> io::Result<()> {
            self.platter.lock().unwrap().log = std::mem::take(&mut self.staged);
            Ok(())
        }
        fn sync_dir(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MemDisk {
        fn open(&self) -> (Wal, Recovered) {
            Wal::open_with("mem", Box::new(self.clone())).unwrap()
        }

        /// `(append calls, rounds of self-sends appended)` so far.
        fn appends(&self) -> (u64, u64) {
            let platter = self.platter.lock().unwrap();
            (platter.appends, platter.self_rounds)
        }

        /// The log's delivery records, checkpointed ones excluded.
        fn deliveries(&self) -> Vec<DeliveryRecord> {
            let records = self.open().1.records.into_iter();
            records
                .filter_map(|r| match r {
                    WalRecord::Delivery(d) => Some(d),
                    _ => None,
                })
                .collect()
        }

        /// The journalled watermark for `peer`: one past the highest seq
        /// the log vouches for, checkpointed or delivered since.
        fn watermark(&self, peer: usize) -> u64 {
            let (_, recovered) = self.open();
            let (snapshot, _) = recovered.replay_plan();
            let logged = self.deliveries().into_iter();
            (logged.filter(|d| d.from.index() == peer))
                .filter_map(|d| d.seq.map(|s| s + 1))
                .chain(snapshot.map(|s| s.next_seq[peer]))
                .max()
                .unwrap_or(0)
        }
    }

    /// One frame on the wire. `back` marks a reply travelling on the
    /// connection `to` opened (it enters through `on_reply`).
    #[derive(Clone, Debug, PartialEq)]
    struct Packet {
        from: usize,
        to: usize,
        back: bool,
        frame: Frame,
    }

    /// How the wire's contents reach the cores between two ticks.
    #[derive(Clone, Copy, Debug)]
    enum Feed {
        /// One packet, picked at random, per tick: the finest grain, and
        /// it reorders frames within a link.
        OneAtRandom,
        /// Everything in flight, in sending order: the coalesced burst a
        /// busy event loop sees.
        Burst,
        /// The same burst back to front.
        Reversed,
        /// The same burst dealt round-robin across senders.
        Interleaved,
    }

    struct Sim {
        cores: Vec<Option<Core>>,
        disks: Vec<MemDisk>,
        registries: Vec<Registry>,
        inputs: [Value; N],
        /// `handed[i][j]`: the next seq of `i`'s queue to `j` not yet put
        /// on the wire — a connection's written watermark.
        handed: Vec<Vec<u64>>,
        /// `(receiver, sender)` connections that carried protocol frames
        /// since the receiver's last tick: each is owed one ack.
        ack_due: Vec<(usize, usize)>,
        in_flight: Vec<Packet>,
        /// Every packet delivered so far, in order.
        trace: Vec<Packet>,
        /// `sealed[i][j]`: every frame `i` ever queued for `j`, by seq, as
        /// wire bytes — across `i`'s incarnations.
        sealed: Vec<Vec<BTreeMap<u64, Vec<u8>>>>,
        rng: Prng,
        now: Instant,
        snapshot_every: u64,
    }

    impl Sim {
        /// `N` cores with empty logs, none booted yet.
        fn new(seed: u64, snapshot_every: u64) -> Sim {
            Sim {
                cores: (0..N).map(|_| None).collect(),
                disks: (0..N).map(|_| MemDisk::default()).collect(),
                registries: (0..N).map(|_| Registry::new()).collect(),
                inputs: [Value::Zero, Value::One, Value::Zero, Value::One],
                handed: vec![vec![0; N]; N],
                ack_due: Vec::new(),
                in_flight: Vec::new(),
                trace: Vec::new(),
                sealed: vec![vec![BTreeMap::new(); N]; N],
                rng: Prng::seed_from_u64(seed),
                now: Instant::now(), // the virtual epoch; only ever added to
                snapshot_every,
            }
        }

        fn booted(seed: u64, snapshot_every: u64) -> Sim {
            let mut sim = Sim::new(seed, snapshot_every);
            for i in 0..N {
                sim.boot(i, false);
            }
            sim
        }

        /// (Re)boots core `i` from its disk. Every connection touching it
        /// is new, so both directions replay from the queue head.
        fn boot(&mut self, i: usize, expect_history: bool) {
            let cfg = NodeConfig {
                k: K,
                expect_history,
                snapshot_every: self.snapshot_every,
                ..NodeConfig::new(ProcessId::new(i), N, 7 + i as u64, FaultPlan::reliable())
            };
            let config = Config::malicious(N, K).unwrap();
            let process = Box::new(Malicious::new(config, self.inputs[i]));
            let wal = Some(self.disks[i].open());
            let core = Core::boot(&cfg, process, wal, &self.registries[i], None, self.now);
            self.cores[i] = Some(core.unwrap());
            self.ack_due.retain(|&(to, from)| to != i && from != i);
            for j in 0..N {
                self.handed[i][j] = 0;
                self.handed[j][i] = 0;
            }
            self.record_sealed(i);
        }

        /// Drops core `i` where it stands: its queues, tables and process
        /// are gone, only its disk remains.
        fn crash(&mut self, i: usize) {
            self.cores[i] = None;
        }

        fn core(&mut self, i: usize) -> &mut Core {
            self.cores[i].as_mut().expect("core is up")
        }

        fn status(&self, i: usize) -> NodeStatus {
            lock_status(&self.cores[i].as_ref().expect("core is up").status).clone()
        }

        /// Files what core `i` has on its queues under `sealed`. A seq
        /// seen before must carry the bytes seen before: the
        /// no-equivocation obligation, checked at the source on every
        /// tick and every reboot.
        fn record_sealed(&mut self, i: usize) {
            for j in 0..N {
                for (seq, chunk) in self.queued(i, j) {
                    let first = self.sealed[i][j]
                        .entry(seq)
                        .or_insert_with(|| chunk.clone());
                    assert_eq!(
                        *first, chunk,
                        "p{i} re-sealed seq {seq} to p{j} differently"
                    );
                }
            }
        }

        /// Ticks core `i` as a driver does after a wakeup's events: the
        /// tick, then one ack per connection that carried frames, then
        /// everything new on the queues onto the wire, decoded back from
        /// the exact bytes a socket would carry. Checks two obligations
        /// on every tick: a tick costs at most one append plus one per
        /// round of self-sends, and no ack is past the journal.
        fn hand_out(&mut self, i: usize) {
            let now = self.now;
            let Some(core) = self.cores[i].as_mut() else {
                return;
            };
            let disk = &self.disks[i];
            let (appends, rounds) = disk.appends();
            core.tick(now);
            let after = disk.appends();
            assert!(
                after.0 - appends <= 1 + after.1 - rounds,
                "a tick appends once, plus once per round of self-sends"
            );
            for (_, from) in self.ack_due.extract_if(.., |&mut (to, _)| to == i) {
                let next = core.ack(from);
                assert!(
                    core.amnesiac || next <= disk.watermark(from),
                    "ack past the log"
                );
                self.in_flight.push(Packet {
                    from: i,
                    to: from,
                    back: true,
                    frame: Frame::Ack { next },
                });
            }
            for j in 0..N {
                let Some(queue) = core.queue_mut(j) else {
                    continue;
                };
                let mut wire: Vec<u8> = Vec::new();
                wire.extend(queue.take_control().iter().flat_map(|c| c.iter()));
                let start = self.handed[i][j];
                for f in queue.frames().filter(|f| f.seq >= start) {
                    wire.extend_from_slice(&f.chunk);
                    self.handed[i][j] = f.seq + 1;
                }
                let mut frames = Vec::new();
                drain_frames(&mut wire, &mut frames).unwrap();
                assert!(wire.is_empty(), "queues hold whole frames");
                self.in_flight
                    .extend(frames.into_iter().map(|frame| Packet {
                        from: i,
                        to: j,
                        back: false,
                        frame,
                    }));
            }
            self.record_sealed(i);
        }

        /// Feeds in-flight packet `idx` to its target (lost if that is
        /// down): a reply retires frames or files an offer; a protocol
        /// frame is admitted and its connection owed an ack after the
        /// next tick; a probe's answer goes back on the wire.
        fn deliver(&mut self, idx: usize) {
            let p = self.in_flight.remove(idx);
            self.trace.push(p.clone());
            let Some(core) = self.cores[p.to].as_mut() else {
                return;
            };
            if p.back {
                core.on_reply(p.from, p.frame);
                return;
            }
            if matches!(p.frame, Frame::Msg { .. }) && !self.ack_due.contains(&(p.to, p.from)) {
                self.ack_due.push((p.to, p.from));
            }
            if let Some(frame) = core.on_frame(ProcessId::new(p.from), p.frame) {
                self.in_flight.push(Packet {
                    from: p.to,
                    to: p.from,
                    back: true,
                    frame,
                });
            }
        }

        /// Runs a seeded schedule — tick every core, feed the wire to
        /// them in the shape `feed` says, advance the clock — until `done`
        /// or nothing is left to send. Frames reordered within a link are
        /// answered by dropping the gap; so when the wire runs dry every
        /// connection "breaks" and the senders replay their unacked
        /// queues, as a link does after a reconnect.
        fn run_fed(&mut self, feed: Feed, mut done: impl FnMut(&Sim) -> bool) {
            let mut replayed = false;
            for _ in 0..200_000 {
                (0..N).for_each(|i| self.hand_out(i));
                if done(self) {
                    return;
                }
                if self.in_flight.is_empty() {
                    if replayed {
                        return; // every queue is empty: quiescent
                    }
                    self.handed = vec![vec![0; N]; N];
                    replayed = true;
                    continue;
                }
                replayed = false;
                match feed {
                    Feed::OneAtRandom => {
                        let idx = self.rng.index(self.in_flight.len());
                        self.deliver(idx);
                    }
                    Feed::Burst => (0..self.in_flight.len()).for_each(|_| self.deliver(0)),
                    Feed::Reversed => {
                        (0..self.in_flight.len())
                            .rev()
                            .for_each(|idx| self.deliver(idx));
                    }
                    Feed::Interleaved => {
                        let mut sender = 0;
                        while !self.in_flight.is_empty() {
                            let next = self.in_flight.iter().position(|p| p.from == sender % N);
                            next.into_iter().for_each(|idx| self.deliver(idx));
                            sender += 1;
                        }
                    }
                }
                self.now += Duration::from_millis(1);
            }
            panic!("schedule did not finish");
        }

        fn run(&mut self, done: impl FnMut(&Sim) -> bool) {
            self.run_fed(Feed::OneAtRandom, done);
        }

        /// Runs for `ticks` rounds of the schedule: mid-protocol.
        fn run_for(&mut self, ticks: u32) {
            let mut left = ticks;
            self.run(|_| {
                left -= 1;
                left == 0
            });
        }

        fn all_decided(&self) -> bool {
            (0..N).all(|i| self.cores[i].is_none() || self.status(i).decision.is_some())
        }

        /// Runs to the end and checks the verdict every test wants: all
        /// decided the same value, and nobody saw an equivocation.
        fn finish(&mut self, feed: Feed) -> Value {
            self.run_fed(feed, Sim::all_decided);
            let decisions: Vec<_> = (0..N).map(|i| self.status(i).decision).collect();
            assert!(decisions.iter().all(|d| d.is_some() && *d == decisions[0]));
            assert!((0..N).all(|i| self.counter(i, "bt_equivocations_total") == 0));
            decisions[0].unwrap()
        }

        /// Core `i`'s queue to `j` as `(seq, wire bytes)`.
        fn queued(&self, i: usize, j: usize) -> Vec<(u64, Vec<u8>)> {
            let queue = self.cores[i].as_ref().and_then(|c| c.queue(j));
            let frames = queue.into_iter().flat_map(SendQueue::frames);
            frames.map(|f| (f.seq, f.chunk.to_vec())).collect()
        }

        fn counter(&self, i: usize, name: &str) -> u64 {
            self.registries[i]
                .snapshot()
                .scalar_total(name)
                .unwrap_or(0)
        }

        /// The index of an in-flight protocol frame for core `i`.
        fn msg_for(&self, i: usize) -> usize {
            (self.in_flight.iter())
                .position(|p| p.to == i && !p.back && matches!(p.frame, Frame::Msg { .. }))
                .expect("a message for the core is on the wire")
        }
    }

    /// A protocol message core 1 really sent to core 0, as payload bytes
    /// (its INITIAL broadcast) — valid on the wire under any seq.
    fn valid_payload(sim: &Sim) -> Vec<u8> {
        let queue = sim.cores[1].as_ref().unwrap().queue(0).unwrap();
        queue.frames().next().unwrap().payload().to_vec()
    }

    fn msg(seq: u64, payload: &[u8]) -> Frame {
        Frame::Msg {
            seq,
            payload: payload.to_vec(),
        }
    }

    /// Feeds core 0 one frame from peer 1, ticks it, and returns the ack.
    fn feed(sim: &mut Sim, frame: Frame) -> u64 {
        let now = sim.now;
        assert_eq!(sim.core(0).on_frame(ProcessId::new(1), frame), None);
        sim.core(0).tick(now);
        sim.core(0).ack(1)
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_agrees() {
        let run = |seed| {
            let mut sim = Sim::booted(seed, 0);
            sim.finish(Feed::OneAtRandom);
            sim.trace
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same frame order");
        assert_ne!(a, run(12), "the seed picks the schedule");
    }

    /// The Attiya–Flam–Welch obligation: a loop that hands the protocol
    /// coalesced bursts must not be correct only for burst-shaped
    /// arrivals. Every shape must terminate in agreement — which value,
    /// with mixed inputs, legitimately depends on the schedule — and with
    /// unanimous inputs every shape must reach the same decisions.
    #[test]
    fn every_arrival_shape_reaches_agreement() {
        let shapes = [
            Feed::OneAtRandom,
            Feed::Burst,
            Feed::Reversed,
            Feed::Interleaved,
        ];
        for feed in shapes {
            let mut mixed = Sim::booted(21, 0);
            mixed.finish(feed);
            let mut unanimous = Sim::new(21, 0);
            unanimous.inputs = [Value::One; N];
            (0..N).for_each(|i| unanimous.boot(i, false));
            assert_eq!(unanimous.finish(feed), Value::One, "{feed:?}");
        }
    }

    #[test]
    fn sealed_ticks_replay_to_identical_frames_and_the_unsealed_tail_was_never_seen() {
        let mut sim = Sim::booted(3, 0);
        sim.run_for(40);
        // Core 0 is mid-protocol, with sealed ticks behind it. Now a tick
        // that dies between its first append and its seal: the admitted
        // frame is journalled and stepped, the round of self-sends it
        // causes is not.
        let idx = sim.msg_for(0);
        sim.deliver(idx);
        let before: Vec<_> = (1..N).map(|j| sim.queued(0, j)).collect();
        let journalled = sim.disks[0].deliveries().len();
        sim.disks[0].platter.lock().unwrap().fail_in = Some(2);
        let now = sim.now;
        let died = catch_unwind(AssertUnwindSafe(|| sim.core(0).tick(now)));
        assert!(died.is_err(), "a failed append is fail-stop");
        assert_eq!(sim.disks[0].deliveries().len(), journalled + 1);
        let unsealed: Vec<_> = (1..N).map(|j| sim.queued(0, j)).collect();
        assert_eq!(unsealed, before, "no frame exists before the seal");

        sim.crash(0);
        sim.boot(0, true);
        assert!(sim.status(0).recovered > 0);
        // Replay from genesis re-derived every frame ever sealed, acked
        // ones included, byte for byte under its seq (`record_sealed`
        // checked each), and the tail's frames — sealed now, for the
        // first time — follow them.
        for j in 1..N {
            let after = sim.queued(0, j);
            assert!(sim.sealed[0][j].len() as u64 == after.last().unwrap().0 + 1);
            assert!(after.len() > before[j - 1].last().map_or(0, |f| f.0 as usize + 1));
        }
        sim.finish(Feed::OneAtRandom);
    }

    #[test]
    fn a_tick_lost_before_its_append_was_never_visible() {
        let mut sim = Sim::booted(4, 0);
        sim.run_for(40);
        // Admitted — sequence numbers consumed, evidence kept — but the
        // core dies before the tick that would have journalled them.
        let log = sim.disks[0].deliveries();
        while let Some(idx) = (sim.in_flight.iter()).position(|p| p.to == 0 && !p.back) {
            sim.deliver(idx);
        }
        assert!(!sim.core(0).admitted.is_empty());
        assert!((1..N).all(|j| sim.core(0).ack(j) <= sim.disks[0].watermark(j)));
        sim.crash(0);
        assert_eq!(sim.disks[0].deliveries(), log, "nothing reached the log");
        // The reboot knows nothing of them; the peers, never acked,
        // re-offer, and the frames land as fresh deliveries.
        sim.boot(0, true);
        sim.finish(Feed::OneAtRandom);
    }

    #[test]
    fn acks_are_gated_on_the_journal_even_after_a_wire_reject() {
        let mut sim = Sim::booted(5, 0);
        let good = valid_payload(&sim);
        assert_eq!(feed(&mut sim, msg(0, &good)), 1);
        // Garbage consumes the seq but is never journalled: the ack must
        // not move, or the sender would retire a frame no log holds.
        assert_eq!(feed(&mut sim, msg(1, &[0xff; 3])), 1);
        assert_eq!(sim.counter(0, "bt_wire_rejected_total"), 1);
        assert_eq!(sim.disks[0].watermark(1), 1);
        // The next journalled frame carries the watermark past the hole.
        assert_eq!(feed(&mut sim, msg(2, &good)), 3);
        assert_eq!(sim.disks[0].watermark(1), 3);
        // Before its tick an admitted frame is not journalled, and the
        // ack does not cover it.
        let now = sim.now;
        sim.core(0).on_frame(ProcessId::new(1), msg(3, &good));
        assert_eq!(sim.core(0).ack(1), 3);
        sim.core(0).tick(now);
        assert_eq!(sim.core(0).ack(1), 4);
        // Without a WAL there is nothing to gate on: acks are immediate.
        let cfg = NodeConfig::new(ProcessId::new(0), N, 7, FaultPlan::reliable());
        let process = Box::new(Malicious::new(
            Config::malicious(N, K).unwrap(),
            Value::Zero,
        ));
        let mut bare = Core::boot(&cfg, process, None, &Registry::new(), None, sim.now).unwrap();
        bare.on_frame(ProcessId::new(1), msg(0, &[0xff; 3]));
        assert_eq!(bare.ack(1), 1);
    }

    #[test]
    fn one_bad_message_rejects_its_frame_whole() {
        let mut sim = Sim::booted(13, 0);
        let good = valid_payload(&sim);
        let delivered = |sim: &Sim| sim.counter(0, "bt_msgs_delivered_total");
        let base = delivered(&sim);
        // Two messages in one frame are two deliveries under one seq.
        let two = [&good[..], &good[..]].concat();
        assert_eq!(feed(&mut sim, msg(0, &two)), 1);
        assert!(delivered(&sim) >= base + 2);
        assert!(sim.disks[0].deliveries().iter().any(|d| d.payload == two));
        // Valid messages around one that does not decode, and around one
        // that decodes to a process outside the system: nothing of either
        // frame is delivered or journalled, each seq is consumed, and the
        // link stays up for the next frame.
        let alien = MaliciousMsg::echo(ProcessId::new(N), Value::One, 0).to_bytes();
        let settled = delivered(&sim);
        for (seq, bad) in [(1, &[0xff; 3][..]), (2, &alien[..])] {
            assert_eq!(
                feed(&mut sim, msg(seq, &[&good[..], bad, &good[..]].concat())),
                1
            );
            assert_eq!(sim.core(0).next_seq_mirror[1].load(Relaxed), seq + 1);
        }
        assert_eq!(sim.counter(0, "bt_wire_rejected_total"), 2);
        assert_eq!(delivered(&sim), settled);
        assert_eq!(sim.disks[0].watermark(1), 1);
        assert_eq!(feed(&mut sim, msg(3, &good)), 4);
        // A rejected frame's hash is kept: a different re-send is caught.
        feed(&mut sim, msg(1, &good));
        assert_eq!(sim.counter(0, "bt_equivocations_total"), 1);
    }

    #[test]
    fn dispositions_hold_one_frame_at_a_time_in_reverse_order() {
        let mut sim = Sim::booted(6, 0);
        let good = valid_payload(&sim);
        let delivered = |sim: &Sim| sim.counter(0, "bt_msgs_delivered_total");
        sim.hand_out(0); // on_start's self-sends, out of the way
        let base = delivered(&sim);
        // Highest first: both are gaps, neither consumes a seq.
        assert_eq!(feed(&mut sim, msg(2, &good)), 0);
        assert_eq!(feed(&mut sim, msg(1, &good)), 0);
        assert_eq!(sim.counter(0, "bt_seq_gaps_total"), 2);
        assert_eq!(delivered(&sim), base);
        // Then the expected one, and the retransmissions an honest sender
        // would follow a gap with.
        assert_eq!(feed(&mut sim, msg(0, &good)), 1);
        assert_eq!(feed(&mut sim, msg(1, &good)), 2);
        assert!(delivered(&sim) >= base + 2);
        let after_two = delivered(&sim);
        // A duplicate is acked again and dropped.
        assert_eq!(feed(&mut sim, msg(0, &good)), 2);
        assert_eq!(delivered(&sim), after_two);
        assert_eq!(sim.counter(0, "bt_equivocations_total"), 0);
        assert_eq!(feed(&mut sim, msg(2, &good)), 3);
        assert_eq!(sim.core(0).next_seq_mirror[1].load(Relaxed), 3);
    }

    #[test]
    fn equivocation_evidence_is_bounded_and_survives_the_receivers_restart() {
        const EVERY: u64 = 8;
        let mut sim = Sim::booted(8, EVERY);
        let good = valid_payload(&sim);
        let mut forged = good.clone();
        *forged.last_mut().unwrap() ^= 1;
        let bounded = |sim: &mut Sim| {
            let held: usize = sim.core(0).hashes.iter().map(HashMap::len).sum();
            assert!(held as u64 <= 2 * EVERY, "{held} hashes held");
        };
        // Three checkpoints' worth of deliveries, one frame each.
        for seq in 0..3 * EVERY {
            feed(&mut sim, msg(seq, &good));
            bounded(&mut sim);
        }
        let floor = (sim.disks[0].open().1.replay_plan().0)
            .expect("a checkpoint was taken")
            .next_seq[1];
        assert!(floor > 0 && floor < 3 * EVERY, "and frames followed it");
        // A changed re-send of a seq the last checkpoint covers is not
        // evidence, one after it is — in this incarnation and, rebuilt
        // from the journal alone, in the next.
        for incarnation in 0..2 {
            assert_eq!(feed(&mut sim, msg(floor - 1, &forged)), 3 * EVERY);
            assert_eq!(sim.counter(0, "bt_equivocations_total"), incarnation);
            assert_eq!(feed(&mut sim, msg(floor, &forged)), 3 * EVERY);
            assert_eq!(sim.counter(0, "bt_equivocations_total"), incarnation + 1);
            assert_eq!(feed(&mut sim, msg(floor, &good)), 3 * EVERY);
            assert_eq!(sim.counter(0, "bt_equivocations_total"), incarnation + 1);
            sim.crash(0);
            sim.boot(0, true);
        }
        // Frames rejected at the wire are hashed too, and count towards
        // the same cadence: a flood of garbage grows nothing either.
        for seq in 3 * EVERY..9 * EVERY {
            assert_eq!(feed(&mut sim, msg(seq, &[0xff; 3])), 3 * EVERY);
            bounded(&mut sim);
        }
        assert_eq!(sim.counter(0, "bt_wire_rejected_total"), 6 * EVERY);
    }

    fn chunk(from: usize, decision: Option<Value>, app_digest: u64, app: Option<&[u8]>) -> Frame {
        Frame::StateChunk {
            from: ProcessId::new(from),
            decision,
            phase: 1,
            app_digest,
            app: app.map(<[u8]>::to_vec),
        }
    }

    #[test]
    fn amnesiac_stays_silent_and_adopts_only_on_a_matching_quorum() {
        let mut sim = Sim::new(9, 0);
        (1..N).for_each(|i| sim.boot(i, false));
        sim.boot(0, true); // the supervisor expects a log; there is none
        assert!(sim.status(0).amnesiac);
        assert_eq!(sim.counter(0, "bt_wal_corruptions_total"), 1);
        let good = valid_payload(&sim);
        let silent = |sim: &mut Sim| {
            sim.hand_out(0);
            let from_0 = sim.in_flight.iter().filter(|p| p.from == 0 && !p.back);
            let msgs = from_0
                .filter(|p| matches!(p.frame, Frame::Msg { .. }))
                .count();
            assert_eq!(msgs, 0, "an amnesiac or learner never sends a Msg");
            assert!((1..N).all(|j| sim.queued(0, j).is_empty()));
        };
        // It probes every peer, acks what it is sent (speculatively),
        // feeds its process — and sends nothing.
        silent(&mut sim);
        let probes = sim.in_flight.iter().filter(|p| p.from == 0);
        assert_eq!(
            probes
                .filter(|p| matches!(p.frame, Frame::StateRequest { .. }))
                .count(),
            N - 1
        );
        assert_eq!(feed(&mut sim, msg(0, &good)), 1);
        silent(&mut sim);
        assert!(
            sim.disks[0].open().1.records.is_empty(),
            "no journal while amnesiac"
        );

        let one = Some(Value::One);
        let core = sim.core(0);
        // Vacuous offers attest nothing, however many agree.
        core.on_reply(2, chunk(2, None, 0, None));
        core.on_reply(3, chunk(3, None, 0, None));
        // k matching + k forged: no class reaches k + 1.
        core.on_reply(1, chunk(1, one, 0, None));
        core.on_reply(2, chunk(2, Some(Value::Zero), 0, None));
        // Bytes that do not hash to their digest are dropped, not counted.
        core.on_reply(3, chunk(3, one, 7, Some(b"forged")));
        // An answer relayed under another peer's name is ignored.
        core.on_reply(3, chunk(2, one, 0, None));
        assert!(sim.status(0).amnesiac, "no quorum yet");
        assert_eq!(sim.counter(0, "bt_state_transfers_total"), 0);

        sim.core(0).on_reply(3, chunk(3, one, 0, None));
        let st = sim.status(0);
        assert!(!st.amnesiac && st.state_transferred);
        assert_eq!(st.decision, one);
        assert_eq!(sim.counter(0, "bt_state_transfers_total"), 1);
        // A learner journals again (the adopted checkpoint pinned the
        // speculative ack) but stays off the protocol plane for good —
        // in this incarnation and the next.
        assert_eq!(sim.disks[0].watermark(1), 1);
        assert_eq!(feed(&mut sim, msg(1, &good)), 2);
        silent(&mut sim);
        sim.crash(0);
        sim.boot(0, true);
        assert!(sim.status(0).state_transferred && sim.status(0).decision == one);
        assert_eq!(feed(&mut sim, msg(2, &good)), 3);
        silent(&mut sim);
    }

    #[test]
    fn checkpoint_reoffers_exactly_the_unacked_frames() {
        let mut sim = Sim::booted(10, 1); // checkpoint at every tick
        sim.run_for(30);
        // Peer 1 acks a prefix; then one more tick takes a checkpoint
        // with the rest still unacked.
        let first = sim
            .queued(0, 1)
            .first()
            .expect("frames to p1 are unacked")
            .0;
        sim.core(0).on_reply(1, Frame::Ack { next: first + 1 });
        let idx = sim.msg_for(0);
        sim.deliver(idx);
        sim.hand_out(0);
        let before: Vec<_> = (1..N).map(|j| sim.queued(0, j)).collect();
        assert!(
            before[0].iter().all(|(seq, _)| *seq > first),
            "acked frame retired"
        );

        sim.crash(0);
        sim.boot(0, true);
        assert_eq!(
            sim.status(0).recovered,
            0,
            "everything was in the checkpoint"
        );
        let after: Vec<_> = (1..N).map(|j| sim.queued(0, j)).collect();
        assert_eq!(after, before, "exactly the unacked frames, byte for byte");
    }

    /// Sends every peer a burst of large messages at start and on every
    /// delivery: more than one frame's worth per tick.
    #[derive(Debug)]
    struct Blaster;

    impl Process for Blaster {
        type Msg = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<u8>>) {
            for size in [30, 30, 30, 5, 70, 1] {
                ctx.send(ProcessId::new(1), vec![size; usize::from(size) * 1024]);
            }
        }
        fn on_receive(&mut self, _: Envelope<Vec<u8>>, ctx: &mut Ctx<'_, Vec<u8>>) {
            self.on_start(ctx);
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn phase(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_stage_over_the_byte_budget_splits_the_same_live_and_in_replay() {
        let disk = MemDisk::default();
        let cfg = NodeConfig::new(ProcessId::new(0), 2, 7, FaultPlan::reliable());
        let boot = || {
            let wal = Some(disk.open());
            NodeCore::boot(
                &cfg,
                Box::new(Blaster),
                wal,
                &Registry::new(),
                None,
                Instant::now(),
            )
        };
        let frames = |core: &NodeCore<Vec<u8>>| -> Vec<(u64, Vec<u8>)> {
            let frames = core.queue(1).unwrap().frames();
            frames.map(|f| (f.seq, f.chunk.to_vec())).collect()
        };
        let mut core = boot().unwrap();
        // 30+30 fit the 64 KiB budget, the third 30 does not; 30+5 fit,
        // 70 fits no frame but its own; 1 starts the next.
        let sizes = |core: &NodeCore<Vec<u8>>| -> Vec<usize> {
            let frames = core.queue(1).unwrap().frames();
            frames.map(|f| f.payload().len() / 1024).collect()
        };
        assert_eq!(sizes(&core), [60, 35, 70, 1]);
        core.on_frame(ProcessId::new(1), msg(0, &vec![9u8].to_bytes()));
        core.tick(Instant::now());
        assert_eq!(sizes(&core), [60, 35, 70, 1, 60, 35, 70, 1]);
        let live = frames(&core);
        drop(core);
        assert_eq!(frames(&boot().unwrap()), live);
    }

    #[test]
    fn a_log_in_the_format_before_seals_is_refused() {
        // By hand, as the previous format wrote it: a boot header with no
        // version, one delivery record per message, no seal.
        let sim = Sim::booted(14, 0);
        let mut header = vec![0u8];
        ProcessId::new(0).encode(&mut header);
        N.encode(&mut header);
        7u64.encode(&mut header);
        let delivery = WalRecord::Delivery(DeliveryRecord {
            from: ProcessId::new(1),
            seq: Some(0),
            payload: valid_payload(&sim),
        });
        let mut log = Vec::new();
        for body in [header, delivery.to_bytes()] {
            log.extend_from_slice(&(body.len() as u32).to_le_bytes());
            log.extend_from_slice(&crate::wal::crc32(&body).to_le_bytes());
            log.extend_from_slice(&body);
        }
        let disk = MemDisk::default();
        disk.platter.lock().unwrap().log = log;
        let (wal, recovered) = disk.open();
        assert_eq!(recovered.records.len(), 2, "the log itself is intact");
        let cfg = NodeConfig::new(ProcessId::new(0), N, 7, FaultPlan::reliable());
        let config = Config::malicious(N, K).unwrap();
        let process = Box::new(Malicious::new(config, Value::Zero));
        let wal = Some((wal, recovered));
        let refused = Core::boot(&cfg, process, wal, &Registry::new(), None, sim.now);
        assert_eq!(refused.err().unwrap().kind(), io::ErrorKind::InvalidData);
    }
}
