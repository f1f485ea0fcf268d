//! The client-facing service: a TCP API accepting proposals and reads,
//! one hop in front of the replica.
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
//! busy     = 0x01                      ; MAX_WAITING proposals waiting, retry later
//! timeout  = 0x02                      ; accepted but not committed in time
//! value    = 0x03 present:u8 [bytes]   ; read result (local, committed state)
//! info     = 0x04 applied:varint digest:varint applied_cmds:varint
//!            deduped_cmds:varint kv_len:varint pending:varint
//! ```
//!
//! # One hop, one bound
//!
//! The handler that reads a `Propose` submits it itself, as a one-command
//! [`RsmMsg::Submit`], to the node's event loop (its [`Submitter`]): the
//! replica's own input, journaled and crash-replayed by the machinery
//! every peer message uses, without crossing a socket. Batching happens
//! downstream: the node's tick journals every submission of one wake-up
//! in one group write, and the replica packs up to `max_batch` pending
//! commands into a slot. The service answers
//! [`ClientResp::Committed`] only once the command's effect is visible in
//! the replica's applied state (via [`LogView::wait_complete`]), i.e.
//! after the slot carrying it committed.
//!
//! The one bound is on proposals waiting for commitment: at most
//! [`MAX_WAITING`] per service. Past it the service sheds with
//! [`ClientResp::Busy`] at once instead of buffering without bound. A
//! proposal that waits [`PROPOSE_TIMEOUT`] answers [`ClientResp::Timeout`].
//!
//! Reads are served from the local committed prefix: sequentially
//! consistent (they never see unapplied state) but not linearizable
//! across replicas — a read through a lagging replica can be stale.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use netstack::{Submitter, MAX_FRAME_LEN};
use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::{ProcessId, Wire, WireError, WireReader};

use crate::command::{Command, Op};
use crate::msg::RsmMsg;
use crate::state::{AppliedState, LogView};

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
    /// [`MAX_WAITING`] proposals already wait for commitment here; retry
    /// after a backoff.
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
        /// Proposals submitted through this service and awaiting
        /// commitment.
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

/// Most proposals one service lets wait for commitment at once; the next
/// one is shed with [`ClientResp::Busy`].
pub const MAX_WAITING: u64 = 1024;

/// How long a `Propose` waits for commitment before answering
/// [`ClientResp::Timeout`].
pub const PROPOSE_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// Proposals submitted and awaiting commitment.
    waiting: Gauge,
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
                "proposals shed because too many were awaiting commitment",
                &[("node", &node)],
            ),
            timeouts: registry.counter(
                "rsm_client_timeout_total",
                "proposals that did not commit within the service patience",
                &[("node", &node)],
            ),
            waiting: registry.gauge(
                "rsm_admission_queue",
                "proposals submitted and awaiting commitment",
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

/// What the acceptor and every connection handler of one service share.
#[derive(Debug)]
struct Shared {
    node: Submitter,
    view: LogView,
    metrics: ServiceMetrics,
    /// Proposals submitted and awaiting commitment: the admission bound
    /// reads this, not its `rsm_admission_queue` mirror, which a disabled
    /// registry does not count.
    waiting: AtomicU64,
    /// Set once by [`RsmService::shutdown`].
    stop: AtomicBool,
}

/// A running client service: an acceptor thread and one handler thread
/// per client connection. Shuts down (and joins its threads) on drop.
#[derive(Debug)]
pub struct RsmService {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl RsmService {
    /// Boots the service on `listener`: client frames in, one
    /// [`RsmMsg::Submit`] per proposal out through `node` (the replica's
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
        registry: &Registry,
    ) -> io::Result<RsmService> {
        let local_addr = listener.local_addr()?;
        let me = node.id();
        let shared = Arc::new(Shared {
            metrics: ServiceMetrics::new(registry, me),
            node,
            view,
            waiting: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });

        // Acceptor: blocks in `accept` and spawns one handler per client
        // connection; `shutdown` wakes it with a connection of its own.
        // Beside each handler it keeps only a weak reference to the
        // stream: enough to unblock the handler's read at shutdown, while
        // a handler that ends closes its socket at once.
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("rsm-accept-p{}", me.index()))
                .spawn(move || {
                    let mut handlers: Vec<(JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
                    loop {
                        let accepted = listener.accept();
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok((stream, _)) = accepted else {
                            // Out of descriptors or the like: back off
                            // instead of spinning on the error.
                            thread::sleep(Duration::from_millis(5));
                            continue;
                        };
                        handlers.retain(|(h, _)| !h.is_finished());
                        shared.metrics.connections.inc();
                        let _ = stream.set_nodelay(true);
                        let conn = ClientConn {
                            stream: Arc::new(stream),
                            shared: Arc::clone(&shared),
                        };
                        let weak = Arc::downgrade(&conn.stream);
                        if let Ok(h) = thread::Builder::new()
                            .name(format!("rsm-client-p{}", me.index()))
                            .spawn(move || conn.run())
                        {
                            handlers.push((h, weak));
                        }
                    }
                    for (h, stream) in handlers {
                        if let Some(stream) = stream.upgrade() {
                            let _ = stream.shutdown(Shutdown::Both);
                        }
                        let _ = h.join();
                    }
                })
                .expect("spawning the rsm acceptor thread")
        };

        Ok(RsmService {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients dial.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the acceptor, wakes every handler — whether it is reading a
    /// request or waiting for a commitment — and joins all threads. Safe
    /// to call more than once.
    pub fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Waiters re-check the flag under the view's lock.
        self.shared.view.update(|_| ());
        // One connection of our own wakes the blocking `accept`.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = acceptor.join();
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
    stream: Arc<TcpStream>,
    shared: Arc<Shared>,
}

impl ClientConn {
    fn run(self) {
        let mut stream = &*self.stream;
        while !self.shared.stop.load(Ordering::SeqCst) {
            let req: ClientReq = match read_client_msg(&mut stream) {
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
                } => (
                    self.propose(client, request, op),
                    &self.shared.metrics.op_us,
                ),
                ClientReq::Read { key } => (
                    ClientResp::Value {
                        value: self.shared.view.with(|a| a.kv.get(&key).cloned()),
                    },
                    &self.shared.metrics.read_us,
                ),
                ClientReq::Info => (
                    self.shared.view.with(|a| ClientResp::Info {
                        applied: a.next_slot(),
                        digest: a.digest(),
                        applied_commands: a.applied_commands,
                        deduped_commands: a.deduped_commands,
                        kv_len: a.kv.len() as u64,
                        pending: self.shared.waiting.load(Ordering::Relaxed),
                    }),
                    &self.shared.metrics.read_us,
                ),
            };
            histogram.record_us(started.elapsed());
            if write_client_msg(&mut stream, &resp).is_err() {
                return;
            }
        }
    }

    fn propose(&self, client: u64, request: u64, op: Op) -> ClientResp {
        let shared = &*self.shared;
        let committed = || ClientResp::Committed {
            client,
            request,
            log_len: shared.view.with(AppliedState::next_slot),
        };
        // Idempotent fast path: an already-committed request id answers
        // immediately (the retry path after a timeout or failover).
        if shared.view.with(|a| a.is_complete(client, request)) {
            return committed();
        }
        if shared.waiting.fetch_add(1, Ordering::Relaxed) >= MAX_WAITING {
            shared.waiting.fetch_sub(1, Ordering::Relaxed);
            shared.metrics.busy.inc();
            return ClientResp::Busy;
        }
        shared.metrics.waiting.add(1);
        let submit = RsmMsg::Submit {
            commands: vec![Command {
                client,
                request,
                op,
            }],
        };
        let resp = if shared.node.submit(submit.to_bytes()).is_err() {
            // The node stopped and never comes back under this handle.
            ClientResp::Busy
        } else if shared
            .view
            .wait_complete(client, request, PROPOSE_TIMEOUT, &shared.stop)
        {
            committed()
        } else {
            // A proposal cut short by shutdown did not time out.
            if !shared.stop.load(Ordering::SeqCst) {
                shared.metrics.timeouts.inc();
            }
            ClientResp::Timeout
        };
        shared.waiting.fetch_sub(1, Ordering::Relaxed);
        shared.metrics.waiting.sub(1);
        resp
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
