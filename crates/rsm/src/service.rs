//! The client-facing service: a TCP API accepting proposals and reads,
//! with a bounded admission queue in front of the replica.
//!
//! # Client protocol
//!
//! Same framing as the inter-replica transport — a 4-byte big-endian
//! length prefix followed by a [`Wire`] body — carrying [`ClientReq`]
//! requests and [`ClientResp`] responses, one response per request, in
//! order, per connection:
//!
//! ```text
//! request  = propose | read | info
//! propose  = 0x00 client:varint request:varint op
//! read     = 0x01 key:bytes
//! info     = 0x02
//! response = committed | busy | timeout | value | info
//! committed= 0x00 client:varint request:varint log_len:varint
//! busy     = 0x01                      ; admission queue full, retry later
//! timeout  = 0x02                      ; accepted but not committed in time
//! value    = 0x03 present:u8 [bytes]   ; read result (local, committed state)
//! info     = 0x04 applied:varint digest:varint applied_cmds:varint
//!            deduped_cmds:varint kv_len:varint pending:varint
//! ```
//!
//! # Backpressure
//!
//! `Propose` first passes a bounded admission queue
//! ([`ServiceOptions::queue_depth`]); when full the service sheds with
//! [`ClientResp::Busy`] immediately instead of buffering without bound. A
//! batcher thread drains the queue and packs each batch into one
//! [`RsmMsg::Submit`] for the node's event loop (its [`Submitter`]): the
//! replica's own input, journaled and crash-replayed by the machinery
//! every peer message uses, without crossing a socket. The service answers
//! [`ClientResp::Committed`] only once the command's effect is visible in
//! the replica's applied state (via [`LogView::wait_complete`]), i.e.
//! after the slot carrying it committed.
//!
//! Reads are served from the local committed prefix: sequentially
//! consistent (they never see unapplied state) but not linearizable
//! across replicas — a read through a lagging replica can be stale.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use netstack::{Submitter, MAX_FRAME_LEN};
use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::{ProcessId, Wire, WireError, WireReader};

use crate::command::{Command, Op};
use crate::msg::RsmMsg;
use crate::state::LogView;

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientReq {
    /// Propose one operation for commitment.
    Propose {
        /// The issuing client's id.
        client: u64,
        /// The client's request sequence number (increasing from 1).
        request: u64,
        /// The operation.
        op: Op,
    },
    /// Read a key from the local committed state.
    Read {
        /// The key to look up.
        key: Vec<u8>,
    },
    /// Ask for replica progress (applied slots, log digest, counters).
    Info,
}

impl Wire for ClientReq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientReq::Propose {
                client,
                request,
                op,
            } => {
                out.push(0);
                client.encode(out);
                request.encode(out);
                op.encode(out);
            }
            ClientReq::Read { key } => {
                out.push(1);
                key.encode(out);
            }
            ClientReq::Info => out.push(2),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        match r.byte()? {
            0 => Ok(ClientReq::Propose {
                client: u64::decode(r)?,
                request: u64::decode(r)?,
                op: Op::decode(r)?,
            }),
            1 => Ok(ClientReq::Read {
                key: Vec::decode(r)?,
            }),
            2 => Ok(ClientReq::Info),
            _ => Err(WireError::Invalid {
                what: "client request discriminant",
                offset,
            }),
        }
    }

    fn validate(&self, n: usize) -> bool {
        match self {
            ClientReq::Propose { request, op, .. } => *request >= 1 && op.validate(n),
            ClientReq::Read { key } => key.len() <= crate::command::MAX_KEY,
            ClientReq::Info => true,
        }
    }
}

/// One service response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientResp {
    /// The proposal committed; its effect is applied on this replica.
    Committed {
        /// Echo of the proposing client id.
        client: u64,
        /// Echo of the request id.
        request: u64,
        /// The replica's applied log length after commitment.
        log_len: u64,
    },
    /// The admission queue is full; retry after a backoff.
    Busy,
    /// Accepted but not committed within the service's patience; the
    /// client should retry (the request id makes the retry idempotent).
    Timeout,
    /// A read result.
    Value {
        /// The bound value, or `None` if the key is unbound.
        value: Option<Vec<u8>>,
    },
    /// Replica progress.
    Info {
        /// Applied log length (slots).
        applied: u64,
        /// Chained digest of the applied log.
        digest: u64,
        /// Commands applied (duplicates excluded).
        applied_commands: u64,
        /// Commands skipped as duplicates.
        deduped_commands: u64,
        /// Keys currently bound.
        kv_len: u64,
        /// Commands sitting in this service's admission queue.
        pending: u64,
    },
}

impl Wire for ClientResp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientResp::Committed {
                client,
                request,
                log_len,
            } => {
                out.push(0);
                client.encode(out);
                request.encode(out);
                log_len.encode(out);
            }
            ClientResp::Busy => out.push(1),
            ClientResp::Timeout => out.push(2),
            ClientResp::Value { value } => {
                out.push(3);
                value.encode(out);
            }
            ClientResp::Info {
                applied,
                digest,
                applied_commands,
                deduped_commands,
                kv_len,
                pending,
            } => {
                out.push(4);
                applied.encode(out);
                digest.encode(out);
                applied_commands.encode(out);
                deduped_commands.encode(out);
                kv_len.encode(out);
                pending.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        match r.byte()? {
            0 => Ok(ClientResp::Committed {
                client: u64::decode(r)?,
                request: u64::decode(r)?,
                log_len: u64::decode(r)?,
            }),
            1 => Ok(ClientResp::Busy),
            2 => Ok(ClientResp::Timeout),
            3 => Ok(ClientResp::Value {
                value: Option::decode(r)?,
            }),
            4 => Ok(ClientResp::Info {
                applied: u64::decode(r)?,
                digest: u64::decode(r)?,
                applied_commands: u64::decode(r)?,
                deduped_commands: u64::decode(r)?,
                kv_len: u64::decode(r)?,
                pending: u64::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                what: "client response discriminant",
                offset,
            }),
        }
    }
}

/// Writes one length-prefixed client-protocol message.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidInput` for oversized bodies.
pub fn write_client_msg<T: Wire>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let body = msg.to_bytes();
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "client message exceeds frame cap",
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Reads one length-prefixed client-protocol message.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` for malformed bodies.
pub fn read_client_msg<T: Wire>(r: &mut impl Read) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "peer announced an oversized client message",
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    T::from_bytes(&body).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad client message: {e}"),
        )
    })
}

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Admission-queue capacity; a full queue sheds with
    /// [`ClientResp::Busy`].
    pub queue_depth: usize,
    /// Largest number of queued commands one [`RsmMsg::Submit`] carries.
    pub submit_batch: usize,
    /// How long a `Propose` waits for commitment before answering
    /// [`ClientResp::Timeout`].
    pub propose_timeout: Duration,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            queue_depth: 1024,
            submit_batch: 256,
            propose_timeout: Duration::from_secs(10),
        }
    }
}

/// Service-side telemetry, labelled `{node}`.
#[derive(Clone, Debug)]
struct ServiceMetrics {
    /// End-to-end client-operation latency (request read → response
    /// written), labelled further by op kind.
    op_us: Histogram,
    read_us: Histogram,
    /// Proposals shed with `Busy`.
    busy: Counter,
    /// Proposals that timed out waiting for commitment.
    timeouts: Counter,
    /// Commands currently sitting in the admission queue.
    queue: Gauge,
    /// Client connections accepted.
    connections: Counter,
}

impl ServiceMetrics {
    fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        ServiceMetrics {
            op_us: registry.histogram(
                "rsm_client_op_us",
                "client operation latency, request read to response written (microseconds)",
                &[("node", &node), ("op", "propose")],
            ),
            read_us: registry.histogram(
                "rsm_client_op_us",
                "client operation latency, request read to response written (microseconds)",
                &[("node", &node), ("op", "read")],
            ),
            busy: registry.counter(
                "rsm_client_busy_total",
                "proposals shed because the admission queue was full",
                &[("node", &node)],
            ),
            timeouts: registry.counter(
                "rsm_client_timeout_total",
                "proposals that did not commit within the service patience",
                &[("node", &node)],
            ),
            queue: registry.gauge(
                "rsm_admission_queue",
                "commands waiting in the admission queue",
                &[("node", &node)],
            ),
            connections: registry.counter(
                "rsm_client_connections_total",
                "client connections accepted",
                &[("node", &node)],
            ),
        }
    }
}

/// A running client service: acceptor + per-connection handlers + the
/// batcher. Shuts down (and joins its threads) on drop.
#[derive(Debug)]
pub struct RsmService {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl RsmService {
    /// Boots the service on `listener`: client frames in, one
    /// [`RsmMsg::Submit`] per batch out through `node` (the replica's
    /// [`netstack::NodeHandle::submitter`]), completions observed via
    /// `view`.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn spawn(
        listener: TcpListener,
        node: Submitter,
        view: LogView,
        opts: ServiceOptions,
        registry: &Registry,
    ) -> io::Result<RsmService> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let me = node.id();
        let metrics = ServiceMetrics::new(registry, me);
        let mut threads = Vec::new();

        // Admission queue: bounded handoff from connection handlers to
        // the batcher. `try_send` failure is the shed signal.
        let (admit_tx, admit_rx) = mpsc::sync_channel::<Command>(opts.queue_depth);

        // Batcher: drains the queue, packs each batch into one Submit and
        // hands it to the node's event loop.
        {
            let shutdown_flag = Arc::clone(&shutdown);
            let queue_gauge = metrics.queue.clone();
            let max = opts.submit_batch.max(1);
            let handle = thread::Builder::new()
                .name(format!("rsm-batcher-p{}", me.index()))
                .spawn(move || {
                    loop {
                        // Block for the first command, then sweep
                        // whatever else queued behind it into one Submit.
                        let first = match admit_rx.recv_timeout(Duration::from_millis(100)) {
                            Ok(c) => c,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                if shutdown_flag.load(Ordering::Relaxed) {
                                    break;
                                }
                                continue;
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        };
                        let mut batch = vec![first];
                        while batch.len() < max {
                            match admit_rx.try_recv() {
                                Ok(c) => batch.push(c),
                                Err(_) => break,
                            }
                        }
                        queue_gauge.sub(batch.len() as u64);
                        let submit = RsmMsg::Submit { commands: batch };
                        if node.submit(submit.to_bytes()).is_err() {
                            // The node stopped and never comes back under
                            // this handle: its proposals time out, and
                            // later ones are shed as `Busy`.
                            break;
                        }
                    }
                })
                .expect("spawning the rsm batcher thread");
            threads.push(handle);
        }

        // Acceptor: one handler thread per client connection. It keeps a
        // clone of each live connection's stream beside its handler, to
        // unblock the handler's read at shutdown, and drops both once the
        // handler has ended.
        {
            let shutdown_flag = Arc::clone(&shutdown);
            let handle = thread::Builder::new()
                .name(format!("rsm-accept-p{}", me.index()))
                .spawn(move || {
                    let mut handlers: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
                    while !shutdown_flag.load(Ordering::Relaxed) {
                        handlers.retain(|(h, _)| !h.is_finished());
                        match listener.accept() {
                            Ok((stream, _)) => {
                                metrics.connections.inc();
                                let _ = stream.set_nodelay(true);
                                if stream.set_nonblocking(false).is_err() {
                                    continue;
                                }
                                let Ok(clone) = stream.try_clone() else {
                                    continue;
                                };
                                let conn = ClientConn {
                                    stream,
                                    view: view.clone(),
                                    admit: admit_tx.clone(),
                                    metrics: metrics.clone(),
                                    opts,
                                    shutdown: Arc::clone(&shutdown_flag),
                                };
                                if let Ok(h) = thread::Builder::new()
                                    .name(format!("rsm-client-p{}", me.index()))
                                    .spawn(move || conn.run())
                                {
                                    handlers.push((h, clone));
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    drop(admit_tx);
                    for (_, stream) in &handlers {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    }
                    for (h, _) in handlers {
                        let _ = h.join();
                    }
                })
                .expect("spawning the rsm acceptor thread");
            threads.push(handle);
        }

        Ok(RsmService {
            local_addr,
            shutdown,
            threads,
        })
    }

    /// The address clients dial.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the acceptor, unblocks handlers, and joins all threads.
    /// Safe to call more than once.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RsmService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One client connection: request frames in, response frames out, one at
/// a time (pipelining across requests belongs to multiple connections).
struct ClientConn {
    stream: TcpStream,
    view: LogView,
    admit: mpsc::SyncSender<Command>,
    metrics: ServiceMetrics,
    opts: ServiceOptions,
    shutdown: Arc<AtomicBool>,
}

impl ClientConn {
    fn run(mut self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            let req: ClientReq = match read_client_msg(&mut self.stream) {
                Ok(r) => r,
                Err(_) => return, // EOF, reset, or garbage: hang up
            };
            if !req.validate(usize::MAX) {
                return; // hostile contents: hang up rather than serve
            }
            let started = Instant::now();
            let (resp, histogram) = match req {
                ClientReq::Propose {
                    client,
                    request,
                    op,
                } => (self.propose(client, request, op), &self.metrics.op_us),
                ClientReq::Read { key } => (
                    ClientResp::Value {
                        value: self.view.with(|a| a.kv.get(&key).cloned()),
                    },
                    &self.metrics.read_us,
                ),
                ClientReq::Info => (
                    self.view.with(|a| ClientResp::Info {
                        applied: a.next_slot(),
                        digest: a.digest(),
                        applied_commands: a.applied_commands,
                        deduped_commands: a.deduped_commands,
                        kv_len: a.kv.len() as u64,
                        pending: self.metrics.queue.get(),
                    }),
                    &self.metrics.read_us,
                ),
            };
            histogram.record_us(started.elapsed());
            if write_client_msg(&mut self.stream, &resp).is_err() {
                return;
            }
        }
    }

    fn propose(&self, client: u64, request: u64, op: Op) -> ClientResp {
        // Idempotent fast path: an already-committed request id answers
        // immediately (the retry path after a timeout or failover).
        if self.view.with(|a| a.is_complete(client, request)) {
            return ClientResp::Committed {
                client,
                request,
                log_len: self.view.with(super::state::AppliedState::next_slot),
            };
        }
        let cmd = Command {
            client,
            request,
            op,
        };
        match self.admit.try_send(cmd) {
            Ok(()) => self.metrics.queue.add(1),
            Err(mpsc::TrySendError::Full(_)) => {
                self.metrics.busy.inc();
                return ClientResp::Busy;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => return ClientResp::Busy,
        }
        if self
            .view
            .wait_complete(client, request, self.opts.propose_timeout)
        {
            ClientResp::Committed {
                client,
                request,
                log_len: self.view.with(super::state::AppliedState::next_slot),
            }
        } else {
            self.metrics.timeouts.inc();
            ClientResp::Timeout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_protocol_round_trips() {
        let reqs = [
            ClientReq::Propose {
                client: 3,
                request: 9,
                op: Op::Put {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                },
            },
            ClientReq::Read { key: b"k".to_vec() },
            ClientReq::Info,
        ];
        for r in reqs {
            assert_eq!(ClientReq::from_bytes(&r.to_bytes()), Ok(r));
        }
        let resps = [
            ClientResp::Committed {
                client: 3,
                request: 9,
                log_len: 4,
            },
            ClientResp::Busy,
            ClientResp::Timeout,
            ClientResp::Value { value: None },
            ClientResp::Value {
                value: Some(b"v".to_vec()),
            },
            ClientResp::Info {
                applied: 5,
                digest: u64::MAX,
                applied_commands: 9,
                deduped_commands: 1,
                kv_len: 3,
                pending: 0,
            },
        ];
        for r in resps {
            assert_eq!(ClientResp::from_bytes(&r.to_bytes()), Ok(r));
        }
    }

    #[test]
    fn zero_request_id_rejected() {
        let req = ClientReq::Propose {
            client: 1,
            request: 0,
            op: Op::Noop,
        };
        assert!(!req.validate(4));
    }
}
