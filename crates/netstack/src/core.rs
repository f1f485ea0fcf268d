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
//! inputs                                     outputs
//!   boot(config, process, wal, now)            frames pushed on the per-peer SendQueues
//!   on_frame(peer, Msg | StateRequest, now) ─▶ the reply frame: Ack{durable watermark} | StateChunk
//!   on_reply(peer, Ack | StateChunk)           (retires queue frames / collects transfer offers)
//!   tick(now)                               ─▶ the next timer deadline
//! ```
//!
//! Three obligations turn the paper's §2.1 atomic step and reliable
//! channel into a node that may crash and restart, and all three are
//! enforced here and nowhere else:
//!
//! * **Log before send.** [`NodeCore::deliver`] appends the
//!   [`DeliveryRecord`] before the step runs, and the frames the step
//!   causes exist only on the queues afterwards — a driver cannot hand
//!   out a frame whose cause is not durable. A failed append panics: the
//!   driver surfaces it as `NodeStatus::died` (fail-stop is the honest
//!   mode once durability is gone).
//! * **One payload per `(sender, seq)`.** A run is a deterministic
//!   function of the configuration and the delivery sequence (coins
//!   included — the RNG is seeded and checkpointed, and so is the fault
//!   injector, whose drops gate seq assignment), so replaying the log
//!   re-derives byte-identical frames under the same sequence numbers.
//!   Acks are *durability-gated* — with a WAL the reply covers only what
//!   is journalled — so a sender never retires a frame this node could
//!   still lose. Receivers cross-check with a `(peer, seq) → hash` table
//!   filled at the same point in live delivery and in replay.
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
use simnet::{Ctx, Envelope, Event, Process, ProcessId, SharedSubscriber, SimRng, Wire};

use crate::conn::LinkStats;
use crate::fault::{FaultInjector, LinkAction};
use crate::frame::{encode_chunk, Frame};
use crate::node::{fnv1a64, lock_status, NetCounters, NodeConfig, NodeMetrics, NodeStatus};
use crate::wal::{BootRecord, DeliveryRecord, Recovered, SnapshotRecord, Wal, WalRecord};

/// How often an amnesiac node re-probes its peers with
/// [`Frame::StateRequest`] until `k + 1` matching answers arrive.
const PROBE_EVERY: Duration = Duration::from_millis(25);

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

/// One message queued for a peer, pre-encoded to wire bytes.
#[derive(Debug)]
pub(crate) struct QueuedFrame {
    /// Per-link sequence number (assigned by the core at queueing time).
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

    /// Queues one protocol message under `seq` — the core's job; nothing
    /// else assigns sequence numbers.
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
    /// Pending self-deliveries (encoded), oldest first. Self-addressed
    /// sends (the paper's broadcasts include the sender) never leave the
    /// core, which also makes them checkpointable.
    self_queue: VecDeque<Vec<u8>>,
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
    /// `next_seq` only across frames rejected at the wire.
    durable_next: Vec<u64>,
    /// The published copy of `next_seq`, for the node's handle.
    pub next_seq_mirror: SeqMirror,
    /// Payload hashes of delivered frames per peer, for the
    /// no-equivocation check on duplicates.
    hashes: Vec<HashMap<u64, u64>>,
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
    /// configuration, and a snapshot or delivery inconsistent with this
    /// system (`InvalidData`).
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
            self_queue: VecDeque::new(),
            queues,
            wal: None,
            boot: BootRecord {
                node: me,
                n: cfg.n,
                seed: cfg.seed,
            },
            snapshot_every: cfg.snapshot_every,
            since_snapshot: 0,
            next_seq: vec![0; cfg.n],
            durable_next: vec![0; cfg.n],
            next_seq_mirror: Arc::new((0..cfg.n).map(|_| AtomicU64::new(0)).collect()),
            hashes: vec![HashMap::new(); cfg.n],
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
            let mut st = lock_status(&core.status);
            st.amnesiac = true;
            st.steps = 1;
            drop(st);
            core.wal = Some(wal);
        } else if recovered.records.is_empty() {
            wal.append(&WalRecord::Boot(core.boot.clone()))?;
            core.wal = Some(wal);
            core.run_start(true, now);
        } else {
            let on_disk = recovered
                .boot()
                .ok_or_else(|| bad("wal has no boot header"))?;
            if *on_disk != core.boot {
                return Err(bad("wal belongs to a different node or configuration"));
            }
            core.wal = Some(wal);
            let (snapshot, deliveries) = recovered.replay_plan();
            let replay_us = core.metrics.recovery_replay_us.clone();
            let replayed =
                replay_us.time_us(|| core.recover(snapshot.cloned(), &deliveries, now))?;
            core.metrics.recoveries.inc();
            core.metrics.recovered_deliveries.add(replayed);
            lock_status(&core.status).recovered = replayed;
            core.publish(Event::Recover {
                step: core.step,
                pid: me,
                replayed,
            });
        }
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

    fn set_next_seq(&mut self, peer: usize, next: u64) {
        self.next_seq[peer] = next;
        self.next_seq_mirror[peer].store(next, Relaxed);
    }

    /// One frame a peer sent *to* this node (after the driver resolved
    /// its `Hello`): a protocol message or a state-transfer probe.
    /// Returns the frame to answer with on the same connection.
    pub fn on_frame(&mut self, from: ProcessId, frame: Frame, now: Instant) -> Option<Frame> {
        match frame {
            Frame::Msg { seq, payload } => Some(Frame::Ack {
                next: self.on_msg(from, seq, &payload, now),
            }),
            // Serve our durable state to the prober. An amnesiac has
            // nothing trustworthy to serve and stays silent.
            Frame::StateRequest { .. } if !self.amnesiac => {
                self.counters.state_requests_served.inc();
                Some(Frame::StateChunk {
                    from: self.me,
                    // The status cell's decision, not the process's: an
                    // adopted learner's decision lives there, and it is
                    // just as quorum-backed as one the process derived.
                    decision: lock_status(&self.status).decision,
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

    /// Timer input: delivers pending self-sends (boot leaves some) and,
    /// while amnesiac, (re)issues a [`Frame::StateRequest`] to every peer
    /// each [`PROBE_EVERY`]; answered or lost probes are simply
    /// superseded by the next round. Returns when the core next needs a
    /// tick regardless of traffic.
    pub fn tick(&mut self, now: Instant) -> Option<Instant> {
        self.drain_self(now);
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

    /// Delivers pending self-sends, oldest first, until the queue is dry
    /// (a delivery may enqueue more).
    fn drain_self(&mut self, now: Instant) {
        while let Some(bytes) = self.self_queue.pop_front() {
            let msg = M::from_bytes(&bytes).expect("locally encoded self-delivery decodes");
            self.deliver(self.me, None, msg, &bytes, true, now);
        }
    }

    /// One inbound protocol message: consult the sequence table, apply
    /// the no-equivocation cross-check, deliver if it is the next
    /// expected frame, and return the cumulative ack.
    fn on_msg(&mut self, from: ProcessId, seq: u64, payload: &[u8], now: Instant) -> u64 {
        let peer = from.index();
        let next = self.next_seq[peer];
        match seq.cmp(&next) {
            // The next expected frame: consume the seq, deliver.
            Ordering::Equal => {
                self.set_next_seq(peer, next + 1);
                // Byzantine bytes: payloads that do not decode, or decode
                // to contents out of range for this system, are dropped
                // here — they must never reach (and possibly kill) the
                // protocol. The link stays up, the seq stays consumed.
                let decode_us = &self.metrics.msg_decode_us;
                match decode_us.time_us(|| M::from_bytes(payload)) {
                    Ok(msg) if msg.validate(self.n) => {
                        let bytes = msg.to_bytes();
                        self.deliver(from, Some(seq), msg, &bytes, true, now);
                        self.drain_self(now);
                    }
                    _ => {
                        self.counters.wire_rejected.inc();
                        self.hashes[peer].insert(seq, fnv1a64(payload));
                    }
                }
            }
            // Already delivered (a reconnect replay): ack again, drop. A
            // retransmission must be byte-identical to the frame first
            // delivered under this seq — recovered nodes included.
            // Anything else is equivocation.
            Ordering::Less => {
                let first = self.hashes[peer].get(&seq);
                if first.is_some_and(|&h| h != fnv1a64(payload)) {
                    self.counters.equivocations.inc();
                }
            }
            // Skipped ahead of the next expected seq. An honest sender
            // replays its unacked queue in order, so this is a
            // reliability violation or a hostile peer: count it and
            // drop, never deliver out of order.
            Ordering::Greater => self.counters.seq_gaps.inc(),
        }
        // Cumulative ack per Msg — re-sent even for duplicates and gaps
        // so a reconnected sender can retire its queue and resync. With a
        // WAL the ack is the durable watermark, read *after* the delivery
        // journalled, so it already covers this frame. An amnesiac
        // journals nothing but may still ack speculatively: a learner
        // never sends protocol messages, so the replay-equivocation
        // hazard durable acks exist to prevent cannot arise, and adoption
        // pins this same watermark durably.
        if self.wal.is_some() && !self.amnesiac {
            self.durable_next[peer]
        } else {
            self.next_seq[peer]
        }
    }

    /// The initial atomic step. With `live` false this is a replay
    /// re-derivation: same state, same sends, no publishing, no counting.
    fn run_start(&mut self, live: bool, now: Instant) {
        if live {
            self.publish(Event::Start { pid: self.me });
        }
        self.step_process(live, now, |process, ctx| process.on_start(ctx));
    }

    /// Runs the process for one atomic step, then the tail every step
    /// shares: publish what the protocol emitted, route its sends,
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

    /// Restores the snapshot (if any) and replays the logged deliveries —
    /// one pass over the log — returning how many were replayed.
    fn recover(
        &mut self,
        snapshot: Option<SnapshotRecord>,
        deliveries: &[&DeliveryRecord],
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
                self.self_queue = s.self_queue.into();
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
        for d in deliveries {
            if d.from.index() >= self.n {
                return Err(bad("wal delivery from a process outside the system"));
            }
            let msg = match d.seq {
                // A logged self-delivery consumes the queue head, which
                // determinism says must be byte-identical to the record.
                None => {
                    if d.from != self.me {
                        return Err(bad("wal self-delivery not from this node"));
                    }
                    let bytes = self
                        .self_queue
                        .pop_front()
                        .ok_or_else(|| bad("wal self-delivery with no pending self-send"))?;
                    if bytes != d.payload {
                        return Err(bad("replay diverged: self-delivery bytes differ from log"));
                    }
                    M::from_bytes(&bytes).map_err(|_| bad("undecodable logged self-delivery"))?
                }
                Some(_) => M::from_bytes(&d.payload)
                    .map_err(|_| bad("undecodable logged delivery payload"))?,
            };
            self.deliver(d.from, d.seq, msg, &d.payload, false, now);
        }
        // Refresh the externally visible status from the recovered state
        // even when every delivery was compacted into the snapshot — a
        // decision restored from the checkpoint alone must still be
        // reported (silently: it belongs to the crashed incarnation).
        self.observe(false);
        if self.adopted {
            self.report_adoption();
        }
        Ok(deliveries.len() as u64)
    }

    /// One delivery step — the WAL append, the process step, the sends it
    /// causes, and the status/telemetry fallout. With `live` false this
    /// is log replay: the append is skipped (the record is the log) and
    /// nothing is published or counted, but sends still queue — they are
    /// retransmissions of frames the crashed incarnation already owned.
    fn deliver(
        &mut self,
        from: ProcessId,
        seq: Option<u64>,
        msg: M,
        payload: &[u8],
        live: bool,
        now: Instant,
    ) {
        if let Some(s) = seq {
            // The equivocation evidence, taken from the journalled bytes
            // so that replay rebuilds exactly the table live delivery
            // built. In replay the record also *is* the sequence table:
            // the log's highest seq per peer is what was accepted.
            self.hashes[from.index()].insert(s, fnv1a64(payload));
            if !live && s >= self.next_seq[from.index()] {
                self.set_next_seq(from.index(), s + 1);
                self.durable_next[from.index()] = s + 1;
            }
        }
        // An amnesiac has no trustworthy log to append to (the damaged
        // file is evidence, not a journal). Its deliveries feed the
        // process as a passive learner only — `dispatch` stays silent —
        // so skipping durability here cannot cause equivocation.
        if live && !self.amnesiac {
            if let Some(wal) = &mut self.wal {
                // Log-before-send: the record must be durable before any
                // message this delivery produces is queued. A failed
                // append forfeits that guarantee, so die (the driver
                // catches the panic and reports NodeStatus::died).
                let record = WalRecord::Delivery(DeliveryRecord {
                    from,
                    seq,
                    payload: payload.to_vec(),
                });
                (self.metrics.wal_append_us)
                    .time_us(|| wal.append(&record))
                    .expect("wal append failed: cannot guarantee no-equivocation");
                if let Some(s) = seq {
                    // Now — and only now — may acks cover this frame.
                    self.durable_next[from.index()] = s + 1;
                }
            }
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
        if live {
            self.maybe_snapshot();
        }
    }

    /// Routes one step's outbox: self-sends join the local queue, remote
    /// sends pass the fault injector and join the peer's [`SendQueue`].
    /// The injector is consulted (and its RNG stream advanced) in replay
    /// too — drop decisions gate sequence-number assignment, so skipping
    /// them would renumber the replayed frames.
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
                self.self_queue.push_back(msg.to_bytes());
                continue;
            }
            let Some(queue) = self.queues.get_mut(to.index()).and_then(Option::as_mut) else {
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
            let seq = self.out_seq[to.index()];
            self.out_seq[to.index()] += 1;
            let payload = self.metrics.msg_encode_us.time_us(|| msg.to_bytes());
            queue.push(seq, payload, not_before);
        }
        self.outbox = outbox;
    }

    /// Mirrors `Sim::observe`: records decisions and halts exactly once.
    /// In replay the status still updates (the recovered node resumes
    /// with correct phase/decision) but nothing is re-published — the
    /// world already saw those events from the previous incarnation.
    fn observe(&mut self, live: bool) {
        let halted = self.process.halted();
        let mut newly_decided = None;
        {
            let mut st = lock_status(&self.status);
            st.steps = self.step + 1;
            st.phase = self.process.phase();
            st.halted = halted;
            if !self.decided {
                if let Some(v) = self.process.decision() {
                    self.decided = true;
                    st.decision = Some(v);
                    st.decision_phase = self.process.decision_phase();
                    st.decision_step = Some(self.step);
                    newly_decided = Some(v);
                }
            }
        }
        if let Some(value) = newly_decided {
            if live {
                self.publish(Event::Decide {
                    step: self.step,
                    pid: self.me,
                    value,
                });
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

    /// Compacts the WAL to boot + snapshot every `snapshot_every`
    /// processed deliveries, if the protocol supports checkpointing.
    fn maybe_snapshot(&mut self) {
        if self.snapshot_every == 0 || self.wal.is_none() || self.amnesiac {
            return;
        }
        self.since_snapshot += 1;
        if self.since_snapshot < self.snapshot_every {
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
            self_queue: self.self_queue.iter().cloned().collect(),
            // The durable watermark: what this node has journalled and
            // therefore acked. Anything beyond it was never acked, so a
            // post-crash sender re-offers it.
            ..self.snapshot_record(process_bytes, self.durable_next.clone())
        };
        if let Some(wal) = &mut self.wal {
            // A failed compaction is not fatal — the log just stays long
            // and replay starts further back.
            let compacted = (self.metrics.wal_compact_us)
                .time_us(|| wal.compact(&self.boot, &snapshot))
                .is_ok();
            if compacted {
                self.metrics.wal_compactions.inc();
            }
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
        self.amnesiac = false;
        self.adopted = true;
        self.adopted_decision = decision;
        self.offers.clear();
        self.counters.state_transfers.inc();
        lock_status(&self.status).amnesiac = false;
        self.report_adoption();
        self.publish(Event::Recover {
            step: self.step,
            pid: self.me,
            replayed: 0,
        });
        true
    }

    /// Surfaces learner state in the status cell: the transfer itself,
    /// and the quorum's decision unless the process already has its own.
    fn report_adoption(&mut self) {
        let mut st = lock_status(&self.status);
        st.state_transferred = true;
        if let Some(v) = self.adopted_decision {
            if st.decision.is_none() {
                st.decision = Some(v);
                st.decision_step = Some(self.step);
            }
            self.decided = true;
        }
    }
}

#[cfg(test)]
mod tests {
    //! A deterministic harness for the core: `n` cores over in-memory
    //! logs, a virtual clock, and a pool of in-flight frames the test
    //! delivers in any order. No socket, no file, no sleep.

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

    /// [`Storage`] over a shared byte vector that outlives the core — the
    /// "disk" a rebooted core recovers from.
    #[derive(Clone, Debug, Default)]
    struct MemDisk {
        log: Arc<Mutex<Vec<u8>>>,
        staged: Vec<u8>,
    }

    impl Storage for MemDisk {
        fn open(&mut self, _: &Path) -> io::Result<Vec<u8>> {
            Ok(self.log.lock().unwrap().clone())
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.log.lock().unwrap().truncate(len as usize);
            Ok(())
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.log.lock().unwrap().extend_from_slice(bytes);
            Ok(())
        }
        fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.staged = bytes.to_vec();
            Ok(())
        }
        fn commit_replacement(&mut self) -> io::Result<()> {
            *self.log.lock().unwrap() = std::mem::take(&mut self.staged);
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

        /// The journalled watermark for `peer`: one past the highest seq
        /// the log vouches for, checkpointed or delivered since.
        fn watermark(&self, peer: usize) -> u64 {
            let (_, recovered) = self.open();
            let (snapshot, deliveries) = recovered.replay_plan();
            let logged = deliveries.iter().filter(|d| d.from.index() == peer);
            (logged.filter_map(|d| d.seq).map(|s| s + 1))
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

    struct Sim {
        cores: Vec<Option<Core>>,
        disks: Vec<MemDisk>,
        registries: Vec<Registry>,
        /// `handed[i][j]`: the next seq of `i`'s queue to `j` not yet put
        /// on the wire — a connection's written watermark.
        handed: Vec<Vec<u64>>,
        in_flight: Vec<Packet>,
        /// Every packet delivered so far, in order.
        trace: Vec<Packet>,
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
                handed: vec![vec![0; N]; N],
                in_flight: Vec::new(),
                trace: Vec::new(),
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
            let input = [Value::Zero, Value::One][i % 2];
            let process = Box::new(Malicious::new(Config::malicious(N, K).unwrap(), input));
            let wal = Some(self.disks[i].open());
            let core = Core::boot(&cfg, process, wal, &self.registries[i], None, self.now);
            self.cores[i] = Some(core.unwrap());
            for j in 0..N {
                self.handed[i][j] = 0;
                self.handed[j][i] = 0;
            }
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

        /// Ticks core `i` and puts everything new on its queues on the
        /// wire, decoded back from the exact bytes a socket would carry.
        fn hand_out(&mut self, i: usize) {
            let now = self.now;
            let Some(core) = self.cores[i].as_mut() else {
                return;
            };
            core.tick(now);
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
        }

        /// Delivers in-flight packet `idx` (lost if its target is down);
        /// a reply goes back on the wire. Checks the ack obligation on
        /// every message: never past the journalled watermark.
        fn deliver(&mut self, idx: usize) {
            let p = self.in_flight.remove(idx);
            self.trace.push(p.clone());
            let now = self.now;
            let Some(core) = self.cores[p.to].as_mut() else {
                return;
            };
            if p.back {
                core.on_reply(p.from, p.frame);
                return;
            }
            let Some(reply) = core.on_frame(ProcessId::new(p.from), p.frame, now) else {
                return;
            };
            if let (Frame::Ack { next }, false) = (&reply, core.amnesiac) {
                assert!(
                    *next <= self.disks[p.to].watermark(p.from),
                    "ack past the log"
                );
            }
            self.in_flight.push(Packet {
                from: p.to,
                to: p.from,
                back: true,
                frame: reply,
            });
        }

        /// Runs a seeded schedule — hand out, deliver one packet picked at
        /// random, advance the clock — until `done` or nothing is left to
        /// send. Random picks reorder frames within a link, which a
        /// receiver answers by dropping the gap; so when the wire runs
        /// dry every connection "breaks" and the senders replay their
        /// unacked queues, as a link does after a reconnect.
        fn run(&mut self, mut done: impl FnMut(&Sim) -> bool) {
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
                let idx = self.rng.index(self.in_flight.len());
                self.deliver(idx);
                self.now += Duration::from_millis(1);
            }
            panic!("schedule did not finish");
        }

        fn all_decided(&self) -> bool {
            (0..N).all(|i| self.cores[i].is_none() || self.status(i).decision.is_some())
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

    /// Feeds core 0 one frame from peer 1 and returns the ack.
    fn feed(sim: &mut Sim, frame: Frame) -> u64 {
        let now = sim.now;
        match sim.core(0).on_frame(ProcessId::new(1), frame, now) {
            Some(Frame::Ack { next }) => next,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_agrees() {
        let run = |seed| {
            let mut sim = Sim::booted(seed, 0);
            sim.run(Sim::all_decided);
            let decisions: Vec<_> = (0..N).map(|i| sim.status(i).decision).collect();
            assert!(decisions.iter().all(|d| d.is_some() && *d == decisions[0]));
            sim.trace
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same frame order");
        assert_ne!(a, run(12), "the seed picks the schedule");
    }

    #[test]
    fn crash_between_append_and_send_rederives_identical_frames() {
        let mut sim = Sim::booted(3, 0);
        // Get core 0 into mid-protocol, then let it journal one more
        // delivery whose frames nobody ever sees.
        let mut steps = 0;
        sim.run(|_| {
            steps += 1;
            steps > 40
        });
        let idx = (sim.in_flight.iter())
            .position(|p| p.to == 0 && !p.back && matches!(p.frame, Frame::Msg { .. }))
            .expect("a message for core 0 is on the wire");
        let delivered_before = sim.counter(0, "bt_msgs_delivered_total");
        sim.deliver(idx);
        assert!(sim.counter(0, "bt_msgs_delivered_total") > delivered_before);
        let before: Vec<_> = (1..N).map(|j| sim.queued(0, j)).collect();
        assert!(before.iter().any(|q| !q.is_empty()));

        sim.crash(0);
        sim.boot(0, true);
        assert!(sim.status(0).recovered > 0);
        for (j, before) in (1..N).zip(before) {
            // Replay from genesis re-derives every frame ever sent, acked
            // ones included; from the crashed queue's head on, the two
            // must match byte for byte, with nothing renumbered or added.
            let after = sim.queued(0, j);
            let head = before.first().map_or(after.len(), |(seq, _)| *seq as usize);
            assert_eq!(after[head..], before[..], "frames to p{j}");
        }
        // And the cluster still finishes, with zero equivocations seen.
        sim.run(Sim::all_decided);
        assert!(sim.all_decided());
        assert!((0..N).all(|i| sim.counter(i, "bt_equivocations_total") == 0));
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
        // Without a WAL there is nothing to gate on: acks are immediate.
        let cfg = NodeConfig::new(ProcessId::new(0), N, 7, FaultPlan::reliable());
        let process = Box::new(Malicious::new(
            Config::malicious(N, K).unwrap(),
            Value::Zero,
        ));
        let mut bare = Core::boot(&cfg, process, None, &Registry::new(), None, sim.now).unwrap();
        let ack = bare.on_frame(ProcessId::new(1), msg(0, &[0xff; 3]), sim.now);
        assert_eq!(ack, Some(Frame::Ack { next: 1 }));
    }

    #[test]
    fn dispositions_hold_one_frame_at_a_time_in_reverse_order() {
        let mut sim = Sim::booted(6, 0);
        let good = valid_payload(&sim);
        let delivered = |sim: &Sim| sim.counter(0, "bt_msgs_delivered_total");
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
    fn equivocation_evidence_survives_the_receivers_restart() {
        let mut sim = Sim::booted(8, 0);
        let good = valid_payload(&sim);
        for seq in 0..3 {
            feed(&mut sim, msg(seq, &good));
        }
        sim.crash(0);
        sim.boot(0, true);
        // The rebuilt core has only the journal to go by — and the
        // journal holds the original payload of seq 1.
        let mut forged = good.clone();
        *forged.last_mut().unwrap() ^= 1;
        assert_eq!(feed(&mut sim, msg(1, &forged)), 3);
        assert_eq!(sim.counter(0, "bt_equivocations_total"), 1);
        assert_eq!(feed(&mut sim, msg(1, &good)), 3);
        assert_eq!(sim.counter(0, "bt_equivocations_total"), 1);
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
        let mut sim = Sim::booted(10, 1); // checkpoint after every delivery
        let mut steps = 0;
        sim.run(|_| {
            steps += 1;
            steps > 30
        });
        // Peer 1 acks a prefix; then one more delivery takes a checkpoint
        // with the rest still unacked.
        let first = sim
            .queued(0, 1)
            .first()
            .expect("frames to p1 are unacked")
            .0;
        sim.core(0).on_reply(1, Frame::Ack { next: first + 1 });
        let idx = (sim.in_flight.iter())
            .position(|p| p.to == 0 && !p.back && matches!(p.frame, Frame::Msg { .. }))
            .expect("a message for core 0 is on the wire");
        sim.deliver(idx);
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
}
