//! Per-connection state machines for the event loop: outbound links with
//! ack-gated backlogs, inbound connections with incremental framing, and
//! the vectored-write plumbing both share.
//!
//! Nothing here owns a thread. Each node's single event thread (see
//! [`crate::node`]) drives these machines from poller readiness events:
//! the loop is the **single writer** for every socket it owns, so no
//! lock is ever taken on a connection, and a frame's bytes are written
//! by exactly one call site.
//!
//! Reliability is **ack-gated**. A successful `write` only proves the
//! bytes reached the local kernel buffer — a connection that dies
//! afterwards can still lose them — so a frame is retired from
//! [`Link::backlog`] only when the receiver's cumulative [`Frame::Ack`]
//! covers its sequence number.
//! Until then it survives reconnects, and after every reconnect the
//! whole unacked backlog is retransmitted in order. The receiver
//! delivers each sequence number exactly once, so the runtime presents
//! a flaky TCP link to the protocol as the paper's §2.1 reliable
//! channel: arbitrary finite delay, no loss, no duplication.
//!
//! Writes are **coalesced**: frames are pre-encoded once into shared
//! [`Arc`] chunks (length prefix + body in one buffer) and queued; a
//! flush hands as many queued chunks as possible to one `writev` via
//! [`Write::write_vectored`], so a burst of protocol messages costs one
//! syscall per peer per tick instead of two per frame. A chunk retired
//! by an ack while still sitting in a connection's write queue simply
//! flushes as a duplicate the receiver drops — harmless, and cheaper
//! than surgically unqueueing partially-written bytes.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::ProcessId;

use crate::frame::{drain_frames, encode_chunk, Frame};

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
/// teardown of the incarnation that accumulated them.
#[derive(Debug)]
pub(crate) struct LinkStats {
    /// Frames written to the socket for the first time.
    pub frames_sent: Counter,
    /// Frames rewritten after a reconnect (the unacked backlog replay).
    pub retransmits: Counter,
    /// Times the connection had to be re-established after a failure.
    pub reconnects: Counter,
    /// Highest cumulative ack received: every seq below this was
    /// delivered by the peer and retired from the backlog.
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
    pub fn new(registry: &Registry, me: ProcessId, peer: usize) -> Arc<LinkStats> {
        let node = me.index().to_string();
        let peer = peer.to_string();
        let labels: &[(&str, &str)] = &[("node", &node), ("peer", &peer)];
        Arc::new(LinkStats {
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
        })
    }
}

/// Event-loop I/O telemetry for one node, labelled `{node}`: the series
/// the thread-per-connection → poll-loop rewrite is judged on.
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

/// Reads everything currently available on a nonblocking socket into an
/// accumulation buffer. Returns `true` on orderly EOF.
///
/// # Errors
///
/// Propagates read errors (connection reset and friends).
fn drain_readable(
    stream: &mut TcpStream,
    rbuf: &mut Vec<u8>,
    stats: &LoopStats,
) -> io::Result<bool> {
    let mut buf = [0u8; 16 * 1024];
    loop {
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
}

/// One message queued on an outbound link, pre-encoded to wire bytes.
#[derive(Debug)]
pub(crate) struct QueuedFrame {
    /// Per-link sequence number (assigned by the node at enqueue time).
    pub seq: u64,
    /// Earliest wall-clock instant the frame may leave (fault injection).
    /// Later frames on the link wait behind it, like a slow link.
    pub not_before: Instant,
    /// Payload byte count (for the backlog-bytes gauge).
    pub payload_len: usize,
    /// The full wire chunk: length prefix + encoded [`Frame::Msg`].
    pub chunk: Arc<Vec<u8>>,
}

/// One live outbound connection: dialing or established, with its write
/// queue and ack read buffer. Dropped wholesale on any failure — the
/// durable state lives in [`Link`].
#[derive(Debug)]
pub(crate) struct OutConn {
    pub stream: TcpStream,
    /// This connection's poller token (stable per peer).
    pub token: u64,
    /// Still waiting for the nonblocking connect to resolve.
    pub connecting: bool,
    /// Highest backlog seq handed to this connection's write queue;
    /// `None` right after (re)connecting, which is what makes the whole
    /// backlog eligible for replay.
    pub written: Option<u64>,
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

/// The durable per-peer outbound state: the ack-gated backlog plus
/// redial bookkeeping. Lives exactly as long as the node, across any
/// number of connections.
#[derive(Debug)]
pub(crate) struct Link {
    pub peer_addr: SocketAddr,
    pub stats: Arc<LinkStats>,
    /// The pre-encoded `Hello` chunk opening every connection.
    hello: Arc<Vec<u8>>,
    /// Frames written (or waiting to be written) but not yet acked, in
    /// sequence order. The front is the oldest unacked frame.
    backlog: VecDeque<QueuedFrame>,
    /// Running payload-byte total of the backlog.
    unacked_bytes: u64,
    /// Highest seq ever written on any connection; writes at or below it
    /// count as retransmits.
    ever_written: Option<u64>,
    /// First-write instants of frames still awaiting their ack, for the
    /// round-trip histogram. Populated only when the histogram records.
    write_times: HashMap<u64, Instant>,
    /// Control chunks (state-transfer probes) awaiting a connection.
    /// Unlike the backlog these are neither sequenced nor ack-gated:
    /// they are written once on the next live connection and dropped —
    /// the sender re-probes on a timer, so a lost probe heals itself.
    control: Vec<Arc<Vec<u8>>>,
    pub conn: Option<OutConn>,
    backoff: Duration,
    pub next_dial: Instant,
    /// xorshift64 state for redial jitter, seeded per-link so links
    /// that fail together do not redial in lockstep.
    jitter: u64,
}

impl Link {
    pub fn new(me: ProcessId, peer: usize, peer_addr: SocketAddr, registry: &Registry) -> Link {
        Link {
            peer_addr,
            stats: LinkStats::new(registry, me, peer),
            hello: Arc::new(encode_chunk(&Frame::Hello { from: me })),
            backlog: VecDeque::new(),
            unacked_bytes: 0,
            ever_written: None,
            write_times: HashMap::new(),
            control: Vec::new(),
            conn: None,
            backoff: BACKOFF_INITIAL,
            next_dial: Instant::now(),
            jitter: 0x6a69_7474_6572u64 ^ ((me.index() as u64) << 20) ^ u64::from(peer_addr.port()),
        }
    }

    fn next_jitter(&mut self) -> u64 {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        self.jitter
    }

    /// True when the link has something a connection could transmit.
    pub fn wants_conn(&self) -> bool {
        self.conn.is_none() && (!self.backlog.is_empty() || !self.control.is_empty())
    }

    /// Queues one frame on the ack-gated backlog.
    pub fn enqueue(&mut self, frame: QueuedFrame) {
        self.unacked_bytes += frame.payload_len as u64;
        self.backlog.push_back(frame);
        self.stats.queue_depth.set(self.backlog.len() as u64);
        self.stats.backlog_bytes.set(self.unacked_bytes);
    }

    /// Queues one fire-and-forget control chunk (see [`Link::control`]):
    /// written ahead of the backlog on the next pump, never replayed.
    pub fn enqueue_control(&mut self, chunk: Arc<Vec<u8>>) {
        self.control.push(chunk);
    }

    /// Drops control chunks not yet handed to a connection — the probe
    /// path calls this before each re-probe so a dead link does not
    /// accumulate an unbounded pile of identical requests.
    pub fn clear_control(&mut self) {
        self.control.clear();
    }

    /// Adopts a freshly dialed connection (possibly still connecting):
    /// the handshake chunk is queued and the whole backlog becomes
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
    pub fn conn_failed(&mut self, established: bool) {
        self.conn = None;
        if established {
            self.stats.reconnects.inc();
            self.next_dial = Instant::now();
        } else {
            let draw = self.next_jitter();
            self.next_dial = Instant::now() + jittered(self.backoff, draw);
            self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
        }
    }

    /// Moves every transmittable backlog frame onto the connection's
    /// write queue and flushes with vectored writes. Transmittable means
    /// past the connection's written watermark and released by the fault
    /// injector's delay — a delayed frame holds later frames back (FIFO).
    ///
    /// # Errors
    ///
    /// Propagates socket errors: the caller tears the connection down
    /// (the backlog keeps every unacked frame for the replay).
    pub fn pump(&mut self, now: Instant, stats: &LoopStats) -> io::Result<()> {
        let Some(conn) = &mut self.conn else {
            return Ok(());
        };
        if conn.connecting {
            return Ok(());
        }
        // Control chunks jump the queue: they are not sequenced, so
        // ordering them against protocol frames is meaningless, and a
        // state-transfer probe should not wait behind a delayed backlog.
        for chunk in self.control.drain(..) {
            conn.wq.push_back(chunk);
        }
        for f in &self.backlog {
            if conn.written.is_some_and(|w| f.seq <= w) {
                continue;
            }
            if f.not_before > now {
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
                    self.write_times.insert(f.seq, now);
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
    pub fn on_writable(&mut self, now: Instant, stats: &LoopStats) -> io::Result<()> {
        if let Some(conn) = &mut self.conn {
            conn.write_blocked = false;
        }
        self.pump(now, stats)
    }

    /// Handles a readable event on the outbound connection: drains the
    /// socket, parses frames, retires backlog frames covered by acks.
    /// Non-ack frames (a peer answering a state-transfer probe with
    /// [`Frame::StateChunk`]) are pushed to `out` for the caller.
    ///
    /// # Errors
    ///
    /// Socket errors, EOF (`UnexpectedEof`), and unparseable bytes
    /// (`InvalidData`) — in every case the caller tears down.
    pub fn on_readable(&mut self, stats: &LoopStats, out: &mut Vec<Frame>) -> io::Result<()> {
        let Some(conn) = &mut self.conn else {
            return Ok(());
        };
        let eof = drain_readable(&mut conn.stream, &mut conn.rbuf, stats)?;
        let mut frames = Vec::new();
        drain_frames(&mut conn.rbuf, &mut frames)?;
        for frame in frames {
            if let Frame::Ack { next } = frame {
                self.on_ack(next);
            } else {
                out.push(frame);
            }
        }
        if eof {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Retires every backlog frame a cumulative ack covers.
    pub fn on_ack(&mut self, next: u64) {
        while self.backlog.front().is_some_and(|f| f.seq < next) {
            let f = self.backlog.pop_front().expect("front was Some");
            self.unacked_bytes -= f.payload_len as u64;
            if let Some(t) = self.write_times.remove(&f.seq) {
                self.stats.ack_rtt_us.record_us(t.elapsed());
            }
        }
        self.stats.acked.set_max(next);
        self.stats.queue_depth.set(self.backlog.len() as u64);
        self.stats.backlog_bytes.set(self.unacked_bytes);
    }

    /// The earliest instant this link needs attention without any
    /// readiness event: its redial time, or the release of a delayed
    /// frame at the transmit head. `None` when only readiness matters.
    pub fn next_deadline(&self, now: Instant) -> Option<Instant> {
        if self.conn.is_none() {
            return self.wants_conn().then_some(self.next_dial);
        }
        let conn = self.conn.as_ref().expect("checked above");
        if conn.connecting {
            return None;
        }
        for f in &self.backlog {
            if conn.written.is_some_and(|w| f.seq <= w) {
                continue;
            }
            if f.not_before > now {
                return Some(f.not_before);
            }
            // An undelayed untransmitted frame means pump() should run
            // now; report it as an immediate deadline.
            return Some(now);
        }
        None
    }
}

/// One accepted inbound connection: handshake, incremental read
/// framing, and the (rarely blocking) ack write queue.
#[derive(Debug)]
pub(crate) struct InConn {
    pub stream: TcpStream,
    /// The peer that said Hello; `None` until the handshake frame.
    pub peer: Option<ProcessId>,
    rbuf: Vec<u8>,
    /// Encoded ack frames not yet fully written.
    wq: VecDeque<Vec<u8>>,
    wq_off: usize,
    pub write_blocked: bool,
}

impl InConn {
    pub fn new(stream: TcpStream) -> InConn {
        InConn {
            stream,
            peer: None,
            rbuf: Vec::new(),
            wq: VecDeque::new(),
            wq_off: 0,
            write_blocked: false,
        }
    }

    /// Drains the socket and parses complete frames into `out`.
    /// Returns `true` on orderly EOF (process `out`, then tear down).
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable bytes; the caller tears down.
    pub fn read_frames(&mut self, out: &mut Vec<Frame>, stats: &LoopStats) -> io::Result<bool> {
        let eof = drain_readable(&mut self.stream, &mut self.rbuf, stats)?;
        drain_frames(&mut self.rbuf, out)?;
        Ok(eof)
    }

    /// Queues a cumulative ack for the peer; flushed by
    /// [`InConn::flush`] at the end of the event batch.
    pub fn queue_ack(&mut self, next: u64) {
        self.queue_frame(&Frame::Ack { next });
    }

    /// Queues an arbitrary frame for the peer — the reply path for
    /// state-transfer chunks, which travel on the connection the
    /// request arrived on. Flushed with the acks.
    pub fn queue_frame(&mut self, frame: &Frame) {
        self.wq.push_back(encode_chunk(frame));
    }

    /// Flushes queued acks (vectored, one syscall for a whole batch).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; the caller tears down.
    pub fn flush(&mut self, stats: &LoopStats) -> io::Result<()> {
        if self.write_blocked {
            return Ok(());
        }
        self.write_blocked = flush_chunks(&mut self.stream, &mut self.wq, &mut self.wq_off, stats)?;
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

    use crate::frame::read_frame;

    use super::*;

    fn test_stats() -> LoopStats {
        LoopStats::new(&Registry::new(), ProcessId::new(0))
    }

    fn msg_chunk(seq: u64, payload: Vec<u8>) -> QueuedFrame {
        QueuedFrame {
            seq,
            not_before: Instant::now(),
            payload_len: payload.len(),
            chunk: Arc::new(encode_chunk(&Frame::Msg { seq, payload })),
        }
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
    fn link_replays_unacked_backlog_across_reconnects() {
        let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stats = test_stats();
        let registry = Registry::new();
        let mut link = Link::new(ProcessId::new(0), 1, addr, &registry);
        for seq in 0..2 {
            link.enqueue(msg_chunk(seq, vec![seq as u8]));
        }

        // First connection: hello + both frames arrive in one writev.
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(Instant::now(), &stats).unwrap();
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
        link.conn_failed(true);
        assert!(link.stats.reconnects.get() >= 1);
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(Instant::now(), &stats).unwrap();
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
        let registry = Registry::new();
        let mut link = Link::new(ProcessId::new(0), 1, addr, &registry);
        for seq in 0..3 {
            link.enqueue(msg_chunk(seq, vec![seq as u8]));
        }
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(Instant::now(), &stats).unwrap();
        let (_conn, _) = listener.accept().unwrap();
        assert_eq!(link.stats.frames_sent.get(), 3);

        // A cumulative ack retires 0 and 1; a reconnect replays only 2.
        link.on_ack(2);
        assert_eq!(link.stats.acked.get(), 2);
        assert_eq!(link.stats.queue_depth.get(), 1);
        link.conn_failed(true);
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(Instant::now(), &stats).unwrap();
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
        let registry = Registry::new();
        let mut link = Link::new(ProcessId::new(0), 1, addr, &registry);
        let now = Instant::now();
        // A far-future delayed head gates the whole backlog...
        link.enqueue(QueuedFrame {
            not_before: now + Duration::from_secs(60),
            ..msg_chunk(0, vec![0])
        });
        let probe = Frame::StateRequest {
            from: ProcessId::new(0),
        };
        link.enqueue_control(Arc::new(encode_chunk(&probe)));
        assert!(link.wants_conn(), "pending control alone justifies a dial");
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(now, &stats).unwrap();
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
        link.conn_failed(true);
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        link.pump(now, &stats).unwrap();
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

        // Cleared control chunks never leave at all.
        link.enqueue_control(Arc::new(encode_chunk(&probe)));
        link.clear_control();
        link.pump(now, &stats).unwrap();
        assert!(
            read_frame(&mut conn).is_err(),
            "cleared control chunk must not transmit"
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
        let registry = Registry::new();
        let mut link = Link::new(ProcessId::new(0), 1, addr, &registry);
        let now = Instant::now();
        let release = now + Duration::from_millis(50);
        link.enqueue(QueuedFrame {
            not_before: release,
            ..msg_chunk(0, vec![0])
        });
        link.enqueue(msg_chunk(1, vec![1]));
        link.adopt(TcpStream::connect(addr).unwrap(), 1, false);
        let (_conn, _) = listener.accept().unwrap();

        // Before the release instant nothing but the hello may leave —
        // frame 1 is undelayed but FIFO holds it behind frame 0.
        link.pump(now, &stats).unwrap();
        assert_eq!(
            link.stats.frames_sent.get(),
            0,
            "delayed head gates the link"
        );
        assert_eq!(
            link.next_deadline(now),
            Some(release),
            "timer is the release"
        );

        link.pump(release, &stats).unwrap();
        assert_eq!(
            link.stats.frames_sent.get(),
            2,
            "both frames leave at release"
        );
    }
}
