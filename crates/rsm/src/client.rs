//! A minimal synchronous client for the rsm service protocol.
//!
//! One [`RsmClient`] is one TCP connection issuing one request at a time;
//! drive several clients (or several connections) for pipelined load.
//! Request ids increase monotonically per client id, which makes retries
//! after [`ClientResp::Timeout`] idempotent — the service's watermark
//! dedup applies each `(client, request)` at most once no matter how many
//! times it is resubmitted.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use prng::Prng;

use crate::command::Op;
use crate::service::{read_client_msg, write_client_msg, ClientReq, ClientResp};

/// A connected service client.
#[derive(Debug)]
pub struct RsmClient {
    stream: TcpStream,
    client: u64,
    next_request: u64,
}

impl RsmClient {
    /// Connects to a service endpoint as client id `client`.
    ///
    /// Two live clients must not share an id: the per-client request-id
    /// watermark would silently drop one of their command streams.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr, client: u64) -> io::Result<RsmClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(RsmClient {
            stream,
            client,
            next_request: 1,
        })
    }

    /// Sets a read timeout for responses (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// This client's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.client
    }

    /// The request id the next proposal will use.
    #[must_use]
    pub fn next_request(&self) -> u64 {
        self.next_request
    }

    /// Repositions the id stream so the next proposal uses `request` —
    /// for callers resuming a client id on a *fresh* connection (a
    /// reconnect after transport loss), where a new `RsmClient` would
    /// otherwise restart at 1 and collide with already-used ids.
    pub fn seek_request(&mut self, request: u64) {
        self.next_request = request;
    }

    fn call(&mut self, req: &ClientReq) -> io::Result<ClientResp> {
        write_client_msg(&mut self.stream, req)?;
        read_client_msg(&mut self.stream)
    }

    /// Proposes `op` under a fresh request id and waits for the service's
    /// verdict. The request id is consumed even on `Busy`/`Timeout`; use
    /// [`RsmClient::retry`] to resubmit the same id.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (the proposal may still commit).
    pub fn propose(&mut self, op: Op) -> io::Result<ClientResp> {
        let request = self.next_request;
        self.next_request += 1;
        self.call(&ClientReq::Propose {
            client: self.client,
            request,
            op,
        })
    }

    /// Resubmits `op` under an already-used request id (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn retry(&mut self, request: u64, op: Op) -> io::Result<ClientResp> {
        self.call(&ClientReq::Propose {
            client: self.client,
            request,
            op,
        })
    }

    /// Proposes `op` and keeps resubmitting it — same request id, so the
    /// service's watermark dedup makes every retry idempotent — through
    /// [`ClientResp::Busy`] and [`ClientResp::Timeout`] verdicts until it
    /// commits or `deadline` elapses. Retries back off exponentially
    /// (2 ms nominal doubling to a 200 ms cap, at least half honoured,
    /// the rest uniform jitter) so a busy service sees a thinning retry
    /// stream instead of a synchronized hammer.
    ///
    /// Returns the last verdict when the deadline expires — `Busy` or
    /// `Timeout`, never silently dropped — so callers can distinguish an
    /// overloaded service from an unreachable one.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (the proposal may still commit).
    pub fn propose_with_retry(&mut self, op: Op, deadline: Duration) -> io::Result<ClientResp> {
        let give_up = Instant::now() + deadline;
        let request = self.next_request;
        let mut jitter =
            Prng::seed_from_u64(self.client.wrapping_mul(0x9E37_79B9).rotate_left(17) ^ request);
        let mut resp = self.propose(op.clone())?;
        let mut backoff = Duration::from_millis(2);
        while matches!(resp, ClientResp::Busy | ClientResp::Timeout) {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            let wait = netstack::jittered(backoff, jitter.next_u64()).min(give_up - now);
            std::thread::sleep(wait);
            backoff = (backoff * 2).min(Duration::from_millis(200));
            resp = self.retry(request, op.clone())?;
        }
        Ok(resp)
    }

    /// Proposes `Put(key, value)`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<ClientResp> {
        self.propose(Op::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Proposes `Del(key)`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn del(&mut self, key: &[u8]) -> io::Result<ClientResp> {
        self.propose(Op::Del { key: key.to_vec() })
    }

    /// Proposes a no-op (still consumes a slot position; handy for
    /// benchmarks and liveness probes).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn noop(&mut self) -> io::Result<ClientResp> {
        self.propose(Op::Noop)
    }

    /// Reads `key` from the replica's committed state. `Ok(None)` means
    /// unbound. Local to the contacted replica — a lagging replica can
    /// answer stale.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and protocol violations.
    pub fn read(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.call(&ClientReq::Read { key: key.to_vec() })? {
            ClientResp::Value { value } => Ok(value),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a read result, got {other:?}"),
            )),
        }
    }

    /// Fetches replica progress (applied length, digest, counters).
    ///
    /// # Errors
    ///
    /// Propagates transport failures and protocol violations.
    pub fn info(&mut self) -> io::Result<ClientResp> {
        match self.call(&ClientReq::Info)? {
            resp @ ClientResp::Info { .. } => Ok(resp),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected an info result, got {other:?}"),
            )),
        }
    }
}
