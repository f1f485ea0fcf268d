//! The link: one peer's worth of socket machinery, and the vectored-write
//! plumbing inbound and outbound connections share.
//!
//! The runtime is three parts — see [`crate::node`] for the map. The
//! **core** ([`crate::core`]) decides *what* each peer must receive and
//! keeps it on a per-peer [`SendQueue`] until acked; the **driver**
//! ([`crate::node`]) owns the poller and turns readiness into calls; and
//! the **link**, here, is the part in between that touches a
//! `TcpStream`: [`Link`] dials (with jittered exponential backoff),
//! replays the peer's whole queue in order after every reconnect, and
//! reads the acks and probe answers coming back; [`InConn`] frames an
//! accepted connection's bytes — a peer's frames, or a client's requests
//! one at a time — and writes the replies. A link also applies the
//! node's injected link faults ([`crate::fault`]): it draws each frame's
//! release when the frame first reaches it and holds the frame — and,
//! FIFO, everything behind it — until then; that changes when a frame
//! leaves, never its bytes or its seq. A link holds no protocol state —
//! drop one mid-run and nothing is lost but a connection — so nothing
//! that must survive a crash belongs in this file.
//!
//! Nothing here owns a thread. The driver is the **single writer** for
//! every socket, so no lock is ever taken on a connection, and a frame's
//! bytes are written by exactly one call site.
//!
//! Writes are **coalesced**: the core seals a tick's messages for a peer
//! into one frame, pre-encoded once into a shared [`Arc`] chunk (length
//! prefix + body in one buffer); a flush hands as many queued chunks as
//! possible — a whole backlog, after a reconnect — to one `writev` via
//! [`Write::write_vectored`], so a burst of protocol messages costs one
//! syscall per peer per tick. A chunk retired
//! by an ack while still sitting in a connection's write queue simply
//! flushes as a duplicate the receiver drops — harmless, and cheaper
//! than surgically unqueueing partially-written bytes.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::ProcessId;

use crate::core::SendQueue;
use crate::fault::FaultInjector;
use crate::frame::{complete_body, drain_frames, encode_chunk, Frame};
use crate::node::Answer;

/// Initial redial backoff; doubles per consecutive failure.
pub(crate) const BACKOFF_INITIAL: Duration = Duration::from_millis(5);
/// Backoff ceiling.
pub(crate) const BACKOFF_MAX: Duration = Duration::from_millis(400);
/// Most chunks handed to a single vectored write. Linux's `IOV_MAX` is
/// 1024; staying far below it keeps the slice array cheap to build.
const MAX_IOV: usize = 64;

/// Per-link telemetry, as registry handles with `{node, peer}` labels.
/// Handles address cells get-or-created in the node's [`Registry`] — a
/// replacement link built over the *same* registry (a supervised
/// restart) lands on the same cells, so long-run totals survive the
/// teardown of the incarnation that accumulated them. One clone rides
/// with the peer's [`SendQueue`] (the depth gauges and the ack
/// watermark), one with its [`Link`] (everything a socket write counts).
#[derive(Clone, Debug)]
pub(crate) struct LinkStats {
    /// Frames written to the socket for the first time.
    pub frames_sent: Counter,
    /// Frames rewritten after a reconnect (the unacked backlog replay).
    pub retransmits: Counter,
    /// Times the connection had to be re-established after a failure.
    pub reconnects: Counter,
    /// Highest cumulative ack received: every seq below this was
    /// delivered by the peer and retired from the queue.
    pub acked: Gauge,
    /// Frames currently queued and not yet acked (the backlog depth).
    pub queue_depth: Gauge,
    /// Payload bytes held in the unacked backlog.
    pub backlog_bytes: Gauge,
    /// First socket write → covering ack, per retired frame, in
    /// microseconds. Reconnect-and-replay time is included: the clock
    /// starts at the *first* write, so a frame that needed three redials
    /// reports the full round trip the protocol actually waited.
    pub ack_rtt_us: Histogram,
}

impl LinkStats {
    /// Registers (or re-attaches to) the link metrics for `me → peer`.
    pub fn new(registry: &Registry, me: ProcessId, peer: usize) -> LinkStats {
        let node = me.index().to_string();
        let peer = peer.to_string();
        let labels: &[(&str, &str)] = &[("node", &node), ("peer", &peer)];
        LinkStats {
            frames_sent: registry.counter(
                "bt_frames_sent_total",
                "frames written to a peer socket for the first time",
                labels,
            ),
            retransmits: registry.counter(
                "bt_retransmits_total",
                "unacked frames rewritten after a reconnect",
                labels,
            ),
            reconnects: registry.counter(
                "bt_reconnects_total",
                "times an outbound link was re-established after a failure",
                labels,
            ),
            acked: registry.gauge(
                "bt_acked_seq",
                "highest cumulative ack received on the link (watermark)",
                labels,
            ),
            queue_depth: registry.gauge(
                "bt_send_queue_depth",
                "frames queued on the link and not yet acked",
                labels,
            ),
            backlog_bytes: registry.gauge(
                "bt_send_backlog_bytes",
                "payload bytes held in the link's unacked backlog",
                labels,
            ),
            ack_rtt_us: registry.histogram(
                "bt_ack_rtt_us",
                "first write to covering ack per frame (microseconds)",
                labels,
            ),
        }
    }
}

/// Event-loop I/O telemetry for one node, labelled `{node}`: what the
/// driver's syscall and wakeup economy is judged on.
#[derive(Clone, Debug)]
pub(crate) struct LoopStats {
    /// Event-loop iterations (one poller wait each).
    pub loop_ticks: Counter,
    /// Readiness events the poller delivered to the loop.
    pub poll_wakeups: Counter,
    /// `read(2)`-family syscalls issued by the loop.
    pub read_syscalls: Counter,
    /// `write(2)`/`writev(2)` syscalls issued by the loop.
    pub write_syscalls: Counter,
    /// Frames offered to a single vectored write (the coalescing win:
    /// unbatched, a frame costs a write syscall of its own).
    pub frames_per_writev: Histogram,
}

impl LoopStats {
    pub fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        LoopStats {
            loop_ticks: registry.counter(
                "bt_loop_ticks_total",
                "event-loop iterations (one poller wait each)",
                labels,
            ),
            poll_wakeups: registry.counter(
                "bt_poll_wakeups_total",
                "readiness events delivered by the poller",
                labels,
            ),
            read_syscalls: registry.counter(
                "bt_read_syscalls_total",
                "read-family syscalls issued by the event loop",
                labels,
            ),
            write_syscalls: registry.counter(
                "bt_write_syscalls_total",
                "write/writev syscalls issued by the event loop",
                labels,
            ),
            frames_per_writev: registry.histogram(
                "bt_frames_per_writev",
                "frames offered to one vectored write",
                labels,
            ),
        }
    }
}

/// The actual wait before a retry whose nominal backoff is `nominal`: at
/// least half of it is honoured, the rest is uniform in `draw` — so
/// repeated failures still back off exponentially, but retriers that
/// failed together (links whose shared peer died, restarts after one
/// incident, clients shed by one busy service) do not come back in
/// synchronized waves. The one backoff jitter in the workspace: link
/// redials, both supervisors and the rsm client's retry loop call it.
pub fn jittered(nominal: Duration, draw: u64) -> Duration {
    let half = nominal / 2;
    let span = u64::try_from(half.as_micros())
        .unwrap_or(u64::MAX)
        .saturating_add(1);
    half + Duration::from_micros(draw % span)
}

/// A queued wire chunk: owned bytes, or shared bytes out of a backlog.
trait Chunk {
    fn bytes(&self) -> &[u8];
}

impl Chunk for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Chunk for Arc<Vec<u8>> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

/// Flushes a queue of byte chunks through one socket with vectored
/// writes, resuming mid-chunk at `*off`. Returns `true` if the socket
/// blocked (bytes remain queued), `false` if the queue drained.
///
/// # Errors
///
/// Propagates write errors; `WriteZero` if the peer stopped accepting.
fn flush_chunks<B: Chunk>(
    stream: &mut TcpStream,
    wq: &mut VecDeque<B>,
    off: &mut usize,
    stats: &LoopStats,
) -> io::Result<bool> {
    while !wq.is_empty() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(wq.len().min(MAX_IOV));
        for (i, chunk) in wq.iter().take(MAX_IOV).enumerate() {
            let bytes = chunk.bytes();
            slices.push(IoSlice::new(if i == 0 { &bytes[*off..] } else { bytes }));
        }
        match stream.write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(mut wrote) => {
                stats.write_syscalls.inc();
                stats.frames_per_writev.record(slices.len() as u64);
                while wrote > 0 {
                    let front_left = wq.front().expect("bytes imply a front").bytes().len() - *off;
                    if wrote >= front_left {
                        wrote -= front_left;
                        *off = 0;
                        wq.pop_front();
                    } else {
                        *off += wrote;
                        wrote = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Reads what is available on a nonblocking socket into an accumulation
/// buffer, until `WouldBlock` or until `enough` says the buffer holds
/// what the caller wants. Returns `true` on orderly EOF.
///
/// # Errors
///
/// Propagates read errors (connection reset and friends).
fn drain_readable(
    stream: &mut TcpStream,
    rbuf: &mut Vec<u8>,
    stats: &LoopStats,
    enough: impl Fn(&[u8]) -> bool,
) -> io::Result<bool> {
    let mut buf = [0u8; 16 * 1024];
    while !enough(rbuf) {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(k) => {
                stats.read_syscalls.inc();
                rbuf.extend_from_slice(&buf[..k]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// One live outbound connection: dialing or established, with its write
/// queue and read buffer. Dropped wholesale on any failure — what must
/// outlive it is on the peer's [`SendQueue`].
#[derive(Debug)]
pub(crate) struct OutConn {
    pub stream: TcpStream,
    /// This connection's poller token (stable per peer).
    pub token: u64,
    /// Still waiting for the nonblocking connect to resolve.
    pub connecting: bool,
    /// Highest queue seq handed to this connection's write queue; `None`
    /// right after (re)connecting, which is what makes the whole queue
    /// eligible for replay.
    written: Option<u64>,
    /// Wire chunks accepted for this connection but not yet fully
    /// written; front chunk is `wq_off` bytes in.
    wq: VecDeque<Arc<Vec<u8>>>,
    wq_off: usize,
    /// A write returned `WouldBlock`: wait for a writable event before
    /// flushing again.
    pub write_blocked: bool,
    /// Bytes read off the socket that do not yet form a complete frame.
    rbuf: Vec<u8>,
}

/// The socket half of one peer's outbound path: the current connection
/// (if any) plus redial bookkeeping. Lives as long as the node, across
/// any number of connections; every method that moves frames is handed
/// the peer's [`SendQueue`], which the core owns.
#[derive(Debug)]
pub(crate) struct Link {
    pub peer_addr: SocketAddr,
    stats: LinkStats,
    /// The pre-encoded `Hello` chunk opening every connection.
    hello: Arc<Vec<u8>>,
    /// Highest seq ever written on any connection; writes at or below it
    /// count as retransmits.
    ever_written: Option<u64>,
    /// `(seq, first-write instant)` of frames still awaiting their ack,
    /// in seq order, for the round-trip histogram. Populated only when
    /// the histogram records.
    write_times: VecDeque<(u64, Instant)>,
    pub conn: Option<OutConn>,
    backoff: Duration,
    pub next_dial: Instant,
    /// xorshift64 state for redial jitter, seeded per-link so links
    /// that fail together do not redial in lockstep.
    jitter: u64,
    /// The frames this link holds back under the node's
    /// [`FaultPlan`](crate::FaultPlan); `None` when the plan never holds
    /// one here, so a reliable link does no per-frame work.
    holds: Option<Holds>,
}

/// A faulty link's release bookkeeping. Each frame's release is drawn
/// once, when the frame first reaches the link; a held frame holds every
/// frame behind it (FIFO), and once released it is never held again.
#[derive(Debug)]
struct Holds {
    injector: FaultInjector,
    /// The lowest queue seq whose release is not drawn yet.
    next_draw: u64,
    /// `(seq, release)` of the drawn frames not yet released, oldest
    /// first.
    held: VecDeque<(u64, Instant)>,
}

impl Holds {
    /// Draws a release for every frame that reached `queue` since the
    /// last call, releases what is due at `now`, and returns the seq of
    /// the first frame still held: it and everything behind it wait.
    fn gate(&mut self, queue: &SendQueue, now: Instant) -> Option<u64> {
        for f in queue.frames_from(self.next_draw) {
            self.held.push_back((f.seq, self.injector.release(now)));
            self.next_draw = f.seq + 1;
        }
        while self.held.front().is_some_and(|&(_, at)| at <= now) {
            self.held.pop_front();
        }
        self.held.front().map(|&(seq, _)| seq)
    }
}

impl Link {
    pub fn new(
        me: ProcessId,
        peer_addr: SocketAddr,
        stats: LinkStats,
        injector: Option<FaultInjector>,
        now: Instant,
    ) -> Link {
        Link {
            peer_addr,
            stats,
            hello: Arc::new(encode_chunk(&Frame::Hello { from: me })),
            ever_written: None,
            write_times: VecDeque::new(),
            conn: None,
            backoff: BACKOFF_INITIAL,
            next_dial: now,
            jitter: 0x6a69_7474_6572u64 ^ ((me.index() as u64) << 20) ^ u64::from(peer_addr.port()),
            holds: injector.map(|injector| Holds {
                injector,
                next_draw: 0,
                held: VecDeque::new(),
            }),
        }
    }

    fn next_jitter(&mut self) -> u64 {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        self.jitter
    }

    /// True when `queue` has something to transmit and no connection
    /// exists to carry it.
    pub fn wants_conn(&self, queue: &SendQueue) -> bool {
        self.conn.is_none() && queue.wants_transport()
    }

    /// Adopts a freshly dialed connection (possibly still connecting):
    /// the handshake chunk is queued and the whole send queue becomes
    /// eligible for (re)play.
    pub fn adopt(&mut self, stream: TcpStream, token: u64, connecting: bool) {
        let mut wq = VecDeque::new();
        wq.push_back(Arc::clone(&self.hello));
        self.conn = Some(OutConn {
            stream,
            token,
            connecting,
            written: None,
            wq,
            wq_off: 0,
            write_blocked: false,
            rbuf: Vec::new(),
        });
    }

    /// Resets the redial backoff — called when a connect actually
    /// completes (not when an in-flight dial is merely adopted, so a
    /// dead peer still sees exponential backoff between attempts).
    pub fn dial_succeeded(&mut self) {
        self.backoff = BACKOFF_INITIAL;
    }

    /// Tears down the connection after a failure. `established` marks a
    /// connection that had completed its dial — those count as
    /// reconnects and redial immediately; a failed dial backs off
    /// (jittered, exponential) instead.
    pub fn conn_failed(&mut self, established: bool, now: Instant) {
        self.conn = None;
        if established {
            self.stats.reconnects.inc();
            self.next_dial = now;
        } else {
            let draw = self.next_jitter();
            self.next_dial = now + jittered(self.backoff, draw);
            self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
        }
    }

    /// Moves every transmittable frame of `queue` onto the connection's
    /// write queue and flushes with vectored writes. Transmittable means
    /// past the connection's written watermark and released by the link's
    /// injected faults — a held frame holds later frames back (FIFO).
    /// Frames new on the queue draw their release here, connected or not.
    ///
    /// # Errors
    ///
    /// Propagates socket errors: the caller tears the connection down
    /// (the queue keeps every unacked frame for the replay).
    pub fn pump(
        &mut self,
        queue: &mut SendQueue,
        now: Instant,
        stats: &LoopStats,
    ) -> io::Result<()> {
        let held = self.holds.as_mut().and_then(|h| h.gate(queue, now));
        let Some(conn) = &mut self.conn else {
            return Ok(());
        };
        if conn.connecting {
            return Ok(());
        }
        // The probe jumps the queue: it is not sequenced, so ordering it
        // against protocol frames is meaningless, and a state-transfer
        // probe should not wait behind a delayed frame.
        conn.wq.extend(queue.take_control());
        for f in queue.frames_from(conn.written.map_or(0, |w| w + 1)) {
            if held.is_some_and(|seq| f.seq >= seq) {
                break;
            }
            conn.wq.push_back(Arc::clone(&f.chunk));
            conn.written = Some(f.seq);
            if self.ever_written.is_some_and(|w| f.seq <= w) {
                self.stats.retransmits.inc();
            } else {
                self.ever_written = Some(f.seq);
                self.stats.frames_sent.inc();
                if self.stats.ack_rtt_us.enabled() {
                    self.write_times.push_back((f.seq, now));
                }
            }
        }
        if conn.write_blocked {
            return Ok(()); // wait for the writable event
        }
        conn.write_blocked = flush_chunks(&mut conn.stream, &mut conn.wq, &mut conn.wq_off, stats)?;
        Ok(())
    }

    /// Handles a writable event: clears the block and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, as [`Link::pump`].
    pub fn on_writable(
        &mut self,
        queue: &mut SendQueue,
        now: Instant,
        stats: &LoopStats,
    ) -> io::Result<()> {
        if let Some(conn) = &mut self.conn {
            conn.write_blocked = false;
        }
        self.pump(queue, now, stats)
    }

    /// Handles a readable event on the outbound connection: drains the
    /// socket and parses what the peer sent back — cumulative acks and
    /// answers to state-transfer probes — into `out` for the core.
    ///
    /// # Errors
    ///
    /// Socket errors, EOF (`UnexpectedEof`), and unparseable bytes
    /// (`InvalidData`) — in every case the caller tears down, after
    /// handling the frames that did parse.
    pub fn on_readable(&mut self, stats: &LoopStats, out: &mut Vec<Frame>) -> io::Result<()> {
        let Some(conn) = &mut self.conn else {
            return Ok(());
        };
        let eof = drain_readable(&mut conn.stream, &mut conn.rbuf, stats, |_| false)?;
        drain_frames(&mut conn.rbuf, out)?;
        if eof {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Records the round trip of every frame a cumulative ack covers
    /// (the core retires them from the queue).
    pub fn on_ack(&mut self, next: u64, now: Instant) {
        while self.write_times.front().is_some_and(|&(seq, _)| seq < next) {
            let (_, sent) = self.write_times.pop_front().expect("front was Some");
            self.stats
                .ack_rtt_us
                .record_us(now.saturating_duration_since(sent));
        }
    }

    /// The earliest instant this link needs attention without any
    /// readiness event: its redial time, or the release of a held frame
    /// at the transmit head. `None` when only readiness matters.
    pub fn next_deadline(&self, queue: &SendQueue, now: Instant) -> Option<Instant> {
        let Some(conn) = &self.conn else {
            return queue.wants_transport().then_some(self.next_dial);
        };
        if conn.connecting {
            return None;
        }
        // An untransmitted frame nothing holds back means pump() should
        // run now; report it as an immediate deadline.
        let first = queue
            .frames_from(conn.written.map_or(0, |w| w + 1))
            .next()?;
        let head = self.holds.as_ref().and_then(|h| h.held.front());
        let release = head.filter(|&&(seq, _)| seq <= first.seq);
        Some(release.map_or(now, |&(_, at)| at.max(now)))
    }
}

/// The replies owed on one inbound connection, bounded whatever the peer
/// does. Acks are cumulative, so only the newest unsent one matters; a
/// state-transfer answer is the whole replicated state, and the prober
/// re-probes on a timer, so one unsent answer is enough. A peer that
/// floods frames and never reads its replies therefore holds at most two
/// replies here and two more partly written — not one per frame sent. A
/// client is read only once its last answer is written, so it is owed at
/// most one, queued straight for writing.
#[derive(Debug, Default)]
struct ReplyQueue {
    /// The newest cumulative ack not yet handed to the socket.
    ack: Option<u64>,
    /// The one encoded `StateChunk` not yet handed to the socket.
    state: Option<Vec<u8>>,
    /// Replies handed to the socket and not yet fully written; the front
    /// chunk is `wq_off` bytes in.
    wq: VecDeque<Vec<u8>>,
    wq_off: usize,
}

impl ReplyQueue {
    /// Queues a reply: a newer ack replaces an unsent older one, and a
    /// state chunk is dropped while an earlier one is still unsent.
    fn push(&mut self, reply: &Frame) {
        match reply {
            Frame::Ack { next } => self.ack = Some(*next),
            Frame::StateChunk { .. } if self.state.is_none() => {
                self.state = Some(encode_chunk(reply));
            }
            _ => {}
        }
    }

    /// Hands the pending replies to the write queue — once the replies
    /// before them are fully written, which is what bounds the queue.
    fn load(&mut self) {
        if self.wq.is_empty() {
            let ack = self.ack.take().map(|next| Frame::Ack { next });
            self.wq.extend(ack.map(|frame| encode_chunk(&frame)));
            self.wq.extend(self.state.take());
        }
    }
}

/// One accepted inbound connection — a peer's or a client's:
/// incremental read framing and the (rarely blocking) reply write queue,
/// plus a peer's handshake or a client's one outstanding request.
#[derive(Debug)]
pub(crate) struct InConn {
    pub stream: TcpStream,
    /// The peer that said Hello; `None` until the handshake frame.
    pub peer: Option<ProcessId>,
    /// The connection carried protocol frames since the last tick: the
    /// driver owes it one cumulative ack after the next.
    pub ack_due: bool,
    /// A client's request is answered later: read nothing more until it
    /// is.
    pub awaiting: bool,
    rbuf: Vec<u8>,
    replies: ReplyQueue,
    pub write_blocked: bool,
}

impl InConn {
    pub fn new(stream: TcpStream) -> InConn {
        InConn {
            stream,
            peer: None,
            ack_due: false,
            awaiting: false,
            rbuf: Vec::new(),
            replies: ReplyQueue::default(),
            write_blocked: false,
        }
    }

    /// Whether a client connection wants its next request read: nothing
    /// awaits an answer and every answer is written.
    pub fn reading(&self) -> bool {
        !self.awaiting && !self.write_blocked
    }

    /// Serves a client connection: writes its owed answer (retrying a
    /// blocked write), then reads one request at a time — never past it,
    /// so pipelined requests wait in the kernel's buffer and TCP pushes
    /// back on the client — and hands its body to `handle`. An answer
    /// given at once is written and the next request read; one given
    /// later, or a blocked write, stops the loop until the driver calls
    /// again. Returns when the socket has no whole request left.
    ///
    /// # Errors
    ///
    /// Socket errors, EOF, unparseable bytes, and [`Answer::HangUp`]: the
    /// caller tears down.
    pub fn serve(
        &mut self,
        stats: &LoopStats,
        mut handle: impl FnMut(&[u8]) -> Answer,
    ) -> io::Result<()> {
        self.write_blocked = false;
        loop {
            self.flush(stats)?;
            if !self.reading() {
                return Ok(());
            }
            // Stop at a whole request, or at a prefix that will be refused.
            let whole = |buf: &[u8]| !matches!(complete_body(buf), Ok(None));
            let eof = drain_readable(&mut self.stream, &mut self.rbuf, stats, whole)?;
            let Some(len) = complete_body(&self.rbuf)? else {
                return if eof {
                    Err(io::ErrorKind::UnexpectedEof.into())
                } else {
                    Ok(())
                };
            };
            let answer = handle(&self.rbuf[4..4 + len]);
            self.rbuf.drain(..4 + len);
            match answer {
                Answer::Now(body) => self.queue_answer(&body),
                Answer::Later => self.awaiting = true,
                Answer::HangUp => return Err(io::ErrorKind::InvalidData.into()),
            }
        }
    }

    /// Queues a client's answer, length-prefixed like a frame, for the
    /// next [`InConn::serve`] to write.
    pub fn queue_answer(&mut self, body: &[u8]) {
        let len = u32::try_from(body.len()).expect("an answer fits a frame");
        let chunk = [&len.to_be_bytes(), body].concat();
        self.replies.wq.push_back(chunk);
        self.awaiting = false;
    }

    /// Drains the socket and parses complete frames into `out`.
    /// Returns `true` on orderly EOF (process `out`, then tear down).
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable bytes; the caller tears down.
    pub fn read_frames(&mut self, out: &mut Vec<Frame>, stats: &LoopStats) -> io::Result<bool> {
        let eof = drain_readable(&mut self.stream, &mut self.rbuf, stats, |_| false)?;
        drain_frames(&mut self.rbuf, out)?;
        Ok(eof)
    }

    /// Queues one reply — the tick's cumulative ack, or the core's answer
    /// to a state-transfer probe — for the peer; replies travel on the
    /// connection the request arrived on. Sent by [`InConn::flush`].
    pub fn queue_reply(&mut self, reply: &Frame) {
        self.replies.push(reply);
    }

    /// Whether a state-transfer answer is still waiting to be sent: a
    /// probe arriving now would only have its answer dropped.
    pub fn owes_state(&self) -> bool {
        self.replies.state.is_some()
    }

    /// Writes the queued replies (vectored, one syscall for the lot).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; the caller tears down.
    pub fn flush(&mut self, stats: &LoopStats) -> io::Result<()> {
        let q = &mut self.replies;
        while !self.write_blocked {
            q.load();
            if q.wq.is_empty() {
                break;
            }
            self.write_blocked = flush_chunks(&mut self.stream, &mut q.wq, &mut q.wq_off, stats)?;
        }
        Ok(())
    }

    /// Handles a writable event: clears the block and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; the caller tears down.
    pub fn on_writable(&mut self, stats: &LoopStats) -> io::Result<()> {
        self.write_blocked = false;
        self.flush(stats)
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use crate::fault::FaultPlan;
    use crate::frame::read_frame;

    use super::*;

    /// The seed every test link's fault stream derives from.
    const SEED: u64 = 7;

    fn test_stats() -> LoopStats {
        LoopStats::new(&Registry::new(), ProcessId::new(0))
    }

    /// The `p0 → p1` link's share of `plan`, booted at `epoch`.
    fn injector(plan: &FaultPlan, epoch: Instant) -> Option<FaultInjector> {
        FaultInjector::for_link(plan, SEED, ProcessId::new(0), ProcessId::new(1), epoch)
    }

    /// The socket half and the core-owned half of one `p0 → p1` path
    /// under `plan`, booted now.
    fn link_to(addr: SocketAddr, plan: &FaultPlan) -> (Link, SendQueue) {
        let me = ProcessId::new(0);
        let stats = LinkStats::new(&Registry::new(), me, 1);
        let now = Instant::now();
        let link = Link::new(me, addr, stats.clone(), injector(plan, now), now);
        (link, SendQueue::new(stats))
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_full_nominal() {
        for nominal in [BACKOFF_INITIAL, Duration::from_millis(80), BACKOFF_MAX] {
            for draw in [0u64, 1, 7, 12_345, u64::MAX - 1, u64::MAX] {
                let wait = jittered(nominal, draw);
                assert!(wait >= nominal / 2, "{wait:?} under half of {nominal:?}");
                assert!(wait <= nominal, "{wait:?} over nominal {nominal:?}");
            }
        }
        // Different draws actually spread the waits (the point of jitter).
        let spread: std::collections::HashSet<_> = (0..32u64)
            .map(|d| jittered(Duration::from_millis(400), d * 7919).as_micros())
            .collect();
        assert!(spread.len() > 16, "jitter barely varies: {spread:?}");
    }

    #[test]
    fn a_peer_that_never_reads_its_replies_holds_a_bounded_queue() {
        let state = Frame::StateChunk {
            from: ProcessId::new(0),
            decision: None,
            phase: 0,
            app_digest: 1,
            app: Some(vec![7; 4096]),
        };
        let mut q = ReplyQueue::default();
        for next in 0..10_000 {
            q.push(&Frame::Ack { next });
            q.push(&state);
            if next == 0 {
                q.load(); // the first flush; the socket then blocks for good
            }
        }
        assert_eq!(q.wq.len(), 2, "one ack and one answer partly written");
        assert_eq!(q.ack, Some(9_999), "the newest ack replaced the rest");
        assert!(
            q.state.is_some(),
            "one answer waits; later ones were dropped"
        );
        // When the socket drains, the newest ack is what follows.
        q.wq.clear();
        q.load();
        assert_eq!(q.wq[0], encode_chunk(&Frame::Ack { next: 9_999 }));
        assert_eq!((q.wq.len(), q.ack, q.state.is_some()), (2, None, false));
    }

    #[test]
    fn link_replays_unacked_backlog_across_reconnects() {
        let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stats = test_stats();
        let (mut link, mut queue) = link_to(addr, &FaultPlan::reliable());
        for seq in 0..2 {
            queue.push(seq, vec![seq as u8]);
        }

        // First connection: hello + both frames arrive in one writev.
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, Instant::now(), &stats).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Frame::Hello {
                from: ProcessId::new(0)
            }
        );
        for want in 0..2 {
            match read_frame(&mut conn).unwrap() {
                Frame::Msg { seq, .. } => assert_eq!(seq, want),
                other => panic!("expected Msg, got {other:?}"),
            }
        }
        assert_eq!(stats.write_syscalls.get(), 1, "one coalesced writev");

        // The peer dies without acking: both frames must replay, from 0.
        drop(conn);
        link.conn_failed(true, Instant::now());
        assert!(link.stats.reconnects.get() >= 1);
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, Instant::now(), &stats).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Frame::Hello {
                from: ProcessId::new(0)
            }
        );
        match read_frame(&mut conn).unwrap() {
            Frame::Msg { seq, .. } => assert_eq!(seq, 0, "unacked backlog replays from 0"),
            other => panic!("expected Msg, got {other:?}"),
        }
        assert_eq!(link.stats.retransmits.get(), 2);
    }

    #[test]
    fn acked_frames_are_retired_not_retransmitted() {
        let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stats = test_stats();
        let (mut link, mut queue) = link_to(addr, &FaultPlan::reliable());
        for seq in 0..3 {
            queue.push(seq, vec![seq as u8]);
        }
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, Instant::now(), &stats).unwrap();
        let (_conn, _) = listener.accept().unwrap();
        assert_eq!(link.stats.frames_sent.get(), 3);

        // A cumulative ack retires 0 and 1; a reconnect replays only 2.
        queue.on_ack(2);
        link.on_ack(2, Instant::now());
        assert_eq!(link.stats.acked.get(), 2);
        assert_eq!(link.stats.queue_depth.get(), 1);
        link.conn_failed(true, Instant::now());
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, Instant::now(), &stats).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Frame::Hello {
                from: ProcessId::new(0)
            }
        );
        match read_frame(&mut conn).unwrap() {
            Frame::Msg { seq, .. } => assert_eq!(seq, 2, "acked frames must not replay"),
            other => panic!("expected Msg, got {other:?}"),
        }
        assert_eq!(link.stats.frames_sent.get(), 3);
        let rtt = link.stats.ack_rtt_us.snapshot();
        assert_eq!(rtt.count, 2, "both retired frames record a round trip");
    }

    #[test]
    fn control_chunks_bypass_delay_and_never_replay() {
        let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stats = test_stats();
        let minute = Duration::from_secs(60);
        let (mut link, mut queue) =
            link_to(addr, &FaultPlan::reliable().with_delay(minute, minute));
        let now = Instant::now();
        // A far-future delayed head gates the whole backlog...
        queue.push(0, vec![0]);
        let probe = Frame::StateRequest {
            from: ProcessId::new(0),
        };
        queue.set_control(Arc::new(encode_chunk(&probe)));
        assert!(link.wants_conn(&queue), "a pending probe justifies a dial");
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, now, &stats).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Frame::Hello {
                from: ProcessId::new(0)
            }
        );
        // ...but the control chunk leaves anyway.
        assert_eq!(read_frame(&mut conn).unwrap(), probe);

        // A reconnect replays the backlog machinery only: the control
        // chunk was fire-and-forget and must not reappear.
        drop(conn);
        link.conn_failed(true, Instant::now());
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(&mut queue, now, &stats).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap(),
            Frame::Hello {
                from: ProcessId::new(0)
            }
        );
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        assert!(
            read_frame(&mut conn).is_err(),
            "control chunk must not replay"
        );

        // A re-probe replaces the one no connection took: one leaves.
        queue.set_control(Arc::new(encode_chunk(&probe)));
        queue.set_control(Arc::new(encode_chunk(&probe)));
        link.pump(&mut queue, now, &stats).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), probe);
        assert!(
            read_frame(&mut conn).is_err(),
            "a superseded probe must not transmit"
        );
    }

    #[test]
    fn delayed_frame_holds_later_frames_back() {
        let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stats = test_stats();

        // Under a reliable plan nothing is held: an untransmitted frame is
        // due now, and leaves at the next pump.
        let (mut link, mut queue) = link_to(addr, &FaultPlan::reliable());
        queue.push(0, vec![0]);
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        let (_conn, _) = listener.accept().unwrap();
        let now = Instant::now();
        assert_eq!(link.next_deadline(&queue, now), Some(now), "due at once");
        link.pump(&mut queue, now, &stats).unwrap();
        assert_eq!(link.stats.frames_sent.get(), 1);
        assert_eq!(
            link.next_deadline(&queue, now),
            None,
            "nothing left to send"
        );

        // Under a delay, each frame draws its release when it first
        // reaches the link — the draws a twin of the link's injector
        // predicts — and a frame leaves only once it and every frame
        // before it are released.
        let plan = FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(50));
        let (mut link, mut queue) = link_to(addr, &plan);
        let now = Instant::now();
        let mut twin = injector(&plan, now).unwrap();
        let releases: Vec<Instant> = (0..8).map(|_| twin.release(now)).collect();
        assert!(
            releases.windows(2).any(|w| w[1] < w[0]),
            "some frame is released before the one ahead of it"
        );
        for seq in 0..8 {
            queue.push(seq, vec![seq as u8]);
        }
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        let (_conn, _) = listener.accept().unwrap();
        link.pump(&mut queue, now, &stats).unwrap();
        assert_eq!(
            link.stats.frames_sent.get(),
            0,
            "delayed head gates the link"
        );
        let mut times = releases.clone();
        times.sort();
        for at in times {
            link.pump(&mut queue, at, &stats).unwrap();
            // FIFO: the frames sent are the longest prefix released by now.
            let first_held = releases.iter().position(|&r| r > at);
            let sent = first_held.unwrap_or(releases.len()) as u64;
            assert_eq!(link.stats.frames_sent.get(), sent, "at {at:?}");
            assert_eq!(
                link.next_deadline(&queue, at),
                first_held.map(|i| releases[i]),
                "timer is the held head's release"
            );
        }
        assert_eq!(link.stats.frames_sent.get(), 8, "every frame left");
    }
}
