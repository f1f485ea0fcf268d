//! The client-facing service: a TCP API accepting proposals and reads,
//! served by the replica's own event loop.
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
//! # A local input, one bound
//!
//! [`ServiceCore`] is the sans-IO [`ClientService`] a node's client port
//! runs: the node's event loop accepts and frames the connections, and
//! hands each request here between two ticks, reading a connection's
//! next request only once its last one is answered. A `Propose` becomes
//! one one-command [`RsmMsg::Submit`] handed straight to the node's core
//! in the same wakeup: the replica's own input, journaled and
//! crash-replayed by the machinery every peer message uses, never
//! crossing a socket. Batching happens downstream: the node's tick
//! journals every submission of one wake-up in one group write, and the
//! replica packs up to `max_batch` pending commands into a slot. After
//! each tick the service answers [`ClientResp::Committed`] for every
//! waiting proposal whose effect is visible in the replica's applied
//! state (its [`LogView`]), i.e. whose slot committed.
//!
//! The one bound is on proposals waiting for commitment: at most
//! [`MAX_WAITING`] per service. Past it the service sheds with
//! [`ClientResp::Busy`] at once instead of buffering without bound. A
//! proposal still waiting at the first tick [`PROPOSE_TIMEOUT`] after it
//! was read answers [`ClientResp::Timeout`]. A node that stops closes its
//! client connections: a client waiting on it sees EOF.
//!
//! Reads are served from the local committed prefix: sequentially
//! consistent (they never see unapplied state) but not linearizable
//! across replicas — a read through a lagging replica can be stale.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use netstack::node::{Answer, ClientService};
use netstack::MAX_FRAME_LEN;
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
    // Prefix and body in one buffer and one write: one segment on a
    // `TCP_NODELAY` socket, and one readiness edge for the reader.
    let mut buf = vec![0u8; 4];
    msg.encode(&mut buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "client message exceeds frame cap",
        ));
    }
    buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&buf)?;
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
    /// Client-operation latency, labelled further by op kind: from the
    /// tick that read the request to the tick that answered it (zero for
    /// an answer given at once).
    op_us: Histogram,
    read_us: Histogram,
    /// Proposals shed with `Busy`.
    busy: Counter,
    /// Proposals that timed out waiting for commitment.
    timeouts: Counter,
    /// Proposals submitted and awaiting commitment: a mirror of the
    /// service's own count, which the admission bound reads.
    waiting: Gauge,
    /// Client connections accepted.
    connections: Counter,
}

impl ServiceMetrics {
    fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let op_us = |op| {
            let help = "client operation latency, request tick to answer tick (microseconds)";
            registry.histogram("rsm_client_op_us", help, &[("node", &node), ("op", op)])
        };
        ServiceMetrics {
            op_us: op_us("propose"),
            read_us: op_us("read"),
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

/// A proposal submitted and awaiting commitment.
#[derive(Debug)]
struct Waiting {
    conn: u64,
    client: u64,
    request: u64,
    /// The tick that read it.
    admitted: Instant,
}

/// The client service of one replica, as a sans-IO state machine: client
/// requests in, answers and one [`RsmMsg::Submit`] per admitted proposal
/// out. It owns no socket and reads no clock; a node's event loop runs it
/// as its client port's [`ClientService`].
#[derive(Debug)]
pub struct ServiceCore {
    view: LogView,
    metrics: ServiceMetrics,
    /// At most one per connection: its next request is not read before
    /// this one is answered.
    waiting: Vec<Waiting>,
}

impl ServiceCore {
    /// The service of replica `me`, answering from `view` and counting
    /// into `registry`.
    #[must_use]
    pub fn new(view: LogView, registry: &Registry, me: ProcessId) -> ServiceCore {
        ServiceCore {
            view,
            metrics: ServiceMetrics::new(registry, me),
            waiting: Vec::new(),
        }
    }
}

impl ClientService for ServiceCore {
    fn on_open(&mut self, _conn: u64) {
        self.metrics.connections.inc();
    }

    fn on_request(
        &mut self,
        conn: u64,
        body: &[u8],
        now: Instant,
        submit: &mut dyn FnMut(Vec<u8>),
    ) -> Answer {
        let Ok(req) = ClientReq::from_bytes(body) else {
            return Answer::HangUp; // garbage: hang up rather than serve
        };
        if !req.validate(usize::MAX) {
            return Answer::HangUp; // hostile contents, likewise
        }
        let (resp, histogram) = match req {
            ClientReq::Propose {
                client,
                request,
                op,
            } => {
                // Idempotent fast path: an already-committed request id
                // answers at once (the retry after a timeout or failover).
                let view = &self.view;
                let done = view.with(|a| a.is_complete(client, request).then(|| a.next_slot()));
                let resp = match done {
                    Some(log_len) => ClientResp::Committed {
                        client,
                        request,
                        log_len,
                    },
                    None if self.waiting.len() as u64 >= MAX_WAITING => {
                        self.metrics.busy.inc();
                        ClientResp::Busy
                    }
                    None => {
                        let commands = vec![Command {
                            client,
                            request,
                            op,
                        }];
                        submit(RsmMsg::Submit { commands }.to_bytes());
                        self.waiting.push(Waiting {
                            conn,
                            client,
                            request,
                            admitted: now,
                        });
                        self.metrics.waiting.set(self.waiting.len() as u64);
                        return Answer::Later;
                    }
                };
                (resp, &self.metrics.op_us)
            }
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
                    pending: self.waiting.len() as u64,
                }),
                &self.metrics.read_us,
            ),
        };
        histogram.record_us(Duration::ZERO);
        Answer::Now(resp.to_bytes())
    }

    fn after_tick(&mut self, now: Instant, replies: &mut Vec<(u64, Vec<u8>)>) {
        if self.waiting.is_empty() {
            return;
        }
        let metrics = &self.metrics;
        self.view.with(|a| {
            self.waiting.retain(|w| {
                let waited = now.saturating_duration_since(w.admitted);
                let resp = if a.is_complete(w.client, w.request) {
                    ClientResp::Committed {
                        client: w.client,
                        request: w.request,
                        log_len: a.next_slot(),
                    }
                } else if waited >= PROPOSE_TIMEOUT {
                    metrics.timeouts.inc();
                    ClientResp::Timeout
                } else {
                    return true;
                };
                metrics.op_us.record_us(waited);
                replies.push((w.conn, resp.to_bytes()));
                false
            });
        });
        metrics.waiting.set(self.waiting.len() as u64);
    }
}

impl Drop for ServiceCore {
    fn drop(&mut self) {
        // A stopped node's proposals wait no more: its clients saw EOF.
        self.metrics.waiting.set(0);
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

    /// A [`ServiceCore`] driven the way a node's event loop drives it,
    /// with submissions collected and time virtual.
    struct Driven {
        core: ServiceCore,
        view: LogView,
        registry: Registry,
        submitted: Vec<Vec<u8>>,
        t0: Instant,
    }

    impl Driven {
        fn new() -> Driven {
            let (view, registry) = (LogView::new(), Registry::new());
            Driven {
                core: ServiceCore::new(view.clone(), &registry, ProcessId::new(0)),
                view,
                registry,
                submitted: Vec::new(),
                t0: Instant::now(),
            }
        }

        fn request(&mut self, conn: u64, req: &ClientReq, at: Duration) -> Answer {
            let submitted = &mut self.submitted;
            let mut submit = |payload| submitted.push(payload);
            (self.core).on_request(conn, &req.to_bytes(), self.t0 + at, &mut submit)
        }

        fn tick(&mut self, at: Duration) -> Vec<(u64, ClientResp)> {
            let mut replies = Vec::new();
            self.core.after_tick(self.t0 + at, &mut replies);
            (replies.into_iter())
                .map(|(conn, body)| (conn, ClientResp::from_bytes(&body).unwrap()))
                .collect()
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.counter(name, "", &[("node", "0")]).get()
        }

        fn commit(&self, client: u64, request: u64, key: &[u8], value: &[u8]) {
            let op = Op::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            };
            self.view.update(|a| {
                a.apply(crate::state::LogEntry {
                    slot: a.next_slot(),
                    winner: 0,
                    commands: vec![Command {
                        client,
                        request,
                        op,
                    }],
                });
            });
        }
    }

    fn put(client: u64, request: u64) -> ClientReq {
        ClientReq::Propose {
            client,
            request,
            op: Op::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        }
    }

    #[test]
    fn proposals_past_max_waiting_are_shed_busy() {
        let mut d = Driven::new();
        for conn in 0..MAX_WAITING {
            assert_eq!(
                d.request(conn, &put(conn, 1), Duration::ZERO),
                Answer::Later
            );
        }
        let busy = Answer::Now(ClientResp::Busy.to_bytes());
        assert_eq!(
            d.request(MAX_WAITING, &put(MAX_WAITING, 1), Duration::ZERO),
            busy
        );
        assert_eq!(d.counter("rsm_client_busy_total"), 1);
        assert_eq!(
            d.submitted.len() as u64,
            MAX_WAITING,
            "the shed one was not submitted"
        );
        let waiting = d
            .registry
            .gauge("rsm_admission_queue", "", &[("node", "0")]);
        assert_eq!(waiting.get(), MAX_WAITING);
    }

    #[test]
    fn a_complete_request_id_answers_committed_without_submitting() {
        let mut d = Driven::new();
        d.commit(7, 3, b"k", b"v");
        let committed = ClientResp::Committed {
            client: 7,
            request: 2,
            log_len: 1,
        };
        let answer = d.request(1, &put(7, 2), Duration::ZERO);
        assert_eq!(answer, Answer::Now(committed.to_bytes()));
        assert!(d.submitted.is_empty());
    }

    #[test]
    fn a_proposal_times_out_at_the_first_tick_past_its_patience() {
        let mut d = Driven::new();
        let admitted = Duration::from_millis(5);
        assert_eq!(d.request(4, &put(1, 1), admitted), Answer::Later);
        let just_before = admitted + PROPOSE_TIMEOUT - Duration::from_millis(1);
        assert_eq!(d.tick(just_before), []);
        assert_eq!(d.counter("rsm_client_timeout_total"), 0);
        let deadline = admitted + PROPOSE_TIMEOUT;
        assert_eq!(d.tick(deadline), [(4, ClientResp::Timeout)]);
        assert_eq!(d.counter("rsm_client_timeout_total"), 1);
        assert_eq!(d.tick(deadline), [], "answered once");
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        // The loop hands the connection's second request (a read of the
        // key the first one puts) only once the first is answered.
        let mut d = Driven::new();
        let read = ClientReq::Read { key: b"k".to_vec() };
        assert_eq!(d.request(9, &put(2, 1), Duration::ZERO), Answer::Later);
        assert_eq!(d.tick(Duration::from_millis(1)), [], "not committed yet");
        d.commit(2, 1, b"k", b"v");
        let committed = ClientResp::Committed {
            client: 2,
            request: 1,
            log_len: 1,
        };
        assert_eq!(d.tick(Duration::from_millis(2)), [(9, committed)]);
        let value = ClientResp::Value {
            value: Some(b"v".to_vec()),
        };
        let answer = d.request(9, &read, Duration::from_millis(2));
        assert_eq!(
            answer,
            Answer::Now(value.to_bytes()),
            "the read sees the put"
        );
        assert_eq!(d.submitted.len(), 1);
    }

    #[test]
    fn a_zero_request_id_or_garbage_hangs_up() {
        let mut d = Driven::new();
        assert_eq!(d.request(1, &put(1, 0), Duration::ZERO), Answer::HangUp);
        let mut submit = |_| panic!("nothing to submit");
        let garbage = d.core.on_request(1, &[0xff], d.t0, &mut submit);
        assert_eq!(garbage, Answer::HangUp);
        assert!(d.submitted.is_empty());
    }
}
