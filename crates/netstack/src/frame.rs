//! Length-prefixed framing: how [`Wire`]-encoded payloads cross a socket.
//!
//! Every frame on a connection is a 4-byte big-endian length followed by
//! that many body bytes; the body is the [`Wire`] encoding of a [`Frame`].
//! The first frame on any connection must be [`Frame::Hello`], announcing
//! the dialing node's identity — the runtime's implementation of the
//! paper's §3.1 requirement that "the message system must provide a way
//! for correct processes to verify the identity of the sender". A `Hello`
//! naming the receiving node itself is refused: a node's own input never
//! crosses a socket. On loopback clusters the announcement is trusted; a
//! deployment would pin it with transport authentication (mTLS), which
//! changes nothing above this module.
//!
//! [`Frame::Msg`] carries a per-link sequence number, assigned when the
//! sender *seals* the frame, and a payload of one or more protocol
//! messages back to back: everything one event-loop tick produced for
//! that peer ([`Wire`] encodings are self-delimiting, so the receiver
//! decodes until the payload is exhausted — and rejects the frame whole if
//! any message in it is malformed). The receiver answers with a
//! cumulative [`Frame::Ack`] on the same connection, one per tick in which
//! the connection carried messages, however many. A sender retires a
//! frame only once it is acked — a successful `write` merely parks bytes
//! in the kernel buffer, where a dying connection can still lose them —
//! and retransmits its whole unacked backlog, in order, after every
//! reconnect. The receiver delivers each sequence number exactly once,
//! dropping retransmitted duplicates. Together these uphold the paper's
//! reliable-channel assumption (§2.1) over flaky connections: every
//! queued message is delivered exactly once, eventually.

use std::io::{self, Read, Write};

use simnet::{ProcessId, Value, Wire, WireError, WireReader};

/// Hard cap on a frame body, far above any real protocol message; a peer
/// announcing more is treated as malformed rather than allocated for.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One unit of the connection protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: the dialing node's identity.
    Hello {
        /// The sender's process id.
        from: ProcessId,
    },
    /// One or more protocol messages, opaque to the framing layer.
    Msg {
        /// Per-link sequence number, assigned at sealing time; the
        /// receiver delivers each sequence number at most once.
        seq: u64,
        /// The [`Wire`] encodings of the protocol messages, back to back.
        payload: Vec<u8>,
    },
    /// Cumulative receiver acknowledgment, sent back on the same
    /// connection the messages arrived on, once per tick: every sequence
    /// number below `next` has been delivered, so the sender may retire
    /// those frames from its retransmission backlog.
    Ack {
        /// The receiver's next expected sequence number.
        next: u64,
    },
    /// An amnesiac node asking a peer for its durable state (see
    /// `docs/RECOVERY.md`). Sent on the amnesiac's ordinary outbound
    /// connection; the peer answers with [`Frame::StateChunk`] on the
    /// same connection.
    StateRequest {
        /// The requesting (amnesiac) node's identity.
        from: ProcessId,
    },
    /// One peer's answer to a [`Frame::StateRequest`]: its decision (if
    /// any) plus a digest — and optionally the bytes — of its replicated
    /// application state. An amnesiac adopts state only once `k + 1`
    /// peers answered with *matching* `(decision, app_digest)`, so no
    /// coalition of `k` faulty peers can feed it a forged state.
    StateChunk {
        /// The answering peer's identity.
        from: ProcessId,
        /// The peer's irrevocable decision, if it has made one.
        decision: Option<Value>,
        /// The peer's current phase (diagnostic, not matched).
        phase: u64,
        /// FNV-1a digest of the peer's replicated application state
        /// (0 when the protocol has no transferable state).
        app_digest: u64,
        /// The replicated application state itself, when the protocol
        /// serves one (see `Process::transfer_state`).
        app: Option<Vec<u8>>,
    },
}

impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { from } => {
                out.push(0);
                from.encode(out);
            }
            Frame::Msg { seq, payload } => {
                out.push(1);
                seq.encode(out);
                payload.encode(out);
            }
            Frame::Ack { next } => {
                out.push(2);
                next.encode(out);
            }
            Frame::StateRequest { from } => {
                out.push(3);
                from.encode(out);
            }
            Frame::StateChunk {
                from,
                decision,
                phase,
                app_digest,
                app,
            } => {
                out.push(4);
                from.encode(out);
                decision.encode(out);
                phase.encode(out);
                app_digest.encode(out);
                app.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        match r.byte()? {
            0 => Ok(Frame::Hello {
                from: Wire::decode(r)?,
            }),
            1 => Ok(Frame::Msg {
                seq: Wire::decode(r)?,
                payload: Wire::decode(r)?,
            }),
            2 => Ok(Frame::Ack {
                next: Wire::decode(r)?,
            }),
            3 => Ok(Frame::StateRequest {
                from: Wire::decode(r)?,
            }),
            4 => Ok(Frame::StateChunk {
                from: Wire::decode(r)?,
                decision: Wire::decode(r)?,
                phase: Wire::decode(r)?,
                app_digest: Wire::decode(r)?,
                app: Wire::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                what: "frame tag",
                offset,
            }),
        }
    }

    fn validate(&self, n: usize) -> bool {
        match self {
            Frame::Hello { from } => from.validate(n),
            // Payloads are validated after their own decode; seq numbers
            // are bounded by the dedup table, not the system size.
            Frame::Msg { .. } | Frame::Ack { .. } => true,
            Frame::StateRequest { from } => from.validate(n),
            Frame::StateChunk { from, .. } => from.validate(n),
        }
    }
}

/// Writes one frame (length prefix + body) and flushes.
///
/// # Errors
///
/// Propagates I/O errors; [`io::ErrorKind::InvalidInput`] if the frame
/// exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body = frame.to_bytes();
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_FRAME_LEN", body.len()),
        ));
    }
    let len = body.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Encodes one frame to its on-wire bytes — length prefix and body in a
/// single buffer, ready to be handed to a vectored write (and shared via
/// `Arc` between a retransmission backlog and an in-flight write queue
/// without copying).
///
/// # Panics
///
/// Panics if the frame body exceeds [`MAX_FRAME_LEN`] — protocol
/// messages are orders of magnitude smaller, so an oversized *outbound*
/// frame is a bug, not an input.
#[must_use]
pub fn encode_chunk(frame: &Frame) -> Vec<u8> {
    let mut chunk = vec![0u8; 4];
    frame.encode(&mut chunk);
    let len = chunk.len() - 4;
    assert!(len <= MAX_FRAME_LEN, "outbound frame of {len} bytes");
    chunk[..4].copy_from_slice(&u32::try_from(len).expect("len fits u32").to_be_bytes());
    chunk
}

/// Extracts every complete frame from the front of an accumulation
/// buffer, leaving a partial frame (if any) in place for the next read.
/// The nonblocking read path's counterpart to [`read_frame`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the stream is unparseable: a
/// length prefix above [`MAX_FRAME_LEN`] or a body that is not a valid
/// [`Frame`]. The connection carrying such bytes is beyond resync and
/// should be dropped.
pub fn drain_frames(buf: &mut Vec<u8>, out: &mut Vec<Frame>) -> io::Result<()> {
    let mut consumed = 0;
    while let Some(len) = complete_body(&buf[consumed..])? {
        let body = &buf[consumed + 4..consumed + 4 + len];
        consumed += 4 + len;
        let frame = Frame::from_bytes(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))?;
        out.push(frame);
    }
    buf.drain(..consumed);
    Ok(())
}

/// The body length of the frame at the front of `buf`, once all of it is
/// there: the framing under [`drain_frames`], and under a client port's
/// opaque request bodies.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a length prefix above
/// [`MAX_FRAME_LEN`].
pub(crate) fn complete_body(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame"),
        ));
    }
    Ok((buf.len() - 4 >= len).then_some(len))
}

/// Reads one frame, blocking until it is complete.
///
/// # Errors
///
/// Propagates I/O errors (including [`io::ErrorKind::UnexpectedEof`] when
/// the peer closes mid-frame); [`io::ErrorKind::InvalidData`] when the
/// length prefix exceeds [`MAX_FRAME_LEN`] or the body is not a valid
/// [`Frame`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::from_bytes(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_pipe() {
        let frames = [
            Frame::Hello {
                from: ProcessId::new(3),
            },
            Frame::Msg {
                seq: 0,
                payload: vec![],
            },
            Frame::Msg {
                seq: u64::MAX,
                payload: vec![1, 2, 3, 255],
            },
            Frame::Ack { next: 0 },
            Frame::Ack { next: u64::MAX },
            Frame::StateRequest {
                from: ProcessId::new(1),
            },
            Frame::StateChunk {
                from: ProcessId::new(2),
                decision: Some(Value::One),
                phase: 7,
                app_digest: 0xdead_beef,
                app: Some(vec![1, 2, 3]),
            },
            Frame::StateChunk {
                from: ProcessId::new(0),
                decision: None,
                phase: 0,
                app_digest: 0,
                app: None,
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        // Stream exhausted: the next read reports EOF.
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn encode_chunk_matches_write_frame_bytes() {
        let frame = Frame::Msg {
            seq: 9,
            payload: vec![4, 5, 6],
        };
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, &frame).unwrap();
        assert_eq!(encode_chunk(&frame), via_writer);
    }

    #[test]
    fn drain_frames_handles_partials_and_batches() {
        let frames = [
            Frame::Ack { next: 3 },
            Frame::Msg {
                seq: 1,
                payload: vec![7; 40],
            },
            Frame::Hello {
                from: ProcessId::new(2),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_chunk(f));
        }
        // Feed the bytes in awkward slices: every prefix length from 0
        // to the full stream must yield exactly the completed frames.
        for split in 0..wire.len() {
            let mut buf = wire[..split].to_vec();
            let mut out = Vec::new();
            drain_frames(&mut buf, &mut out).unwrap();
            let mut rest = wire[split..].to_vec();
            buf.append(&mut rest);
            drain_frames(&mut buf, &mut out).unwrap();
            assert_eq!(out, frames, "split at {split}");
            assert!(buf.is_empty(), "split at {split} left residue");
        }
        // A poisoned length prefix is an error, not a hang.
        let mut bad = u32::MAX.to_be_bytes().to_vec();
        let mut out = Vec::new();
        assert_eq!(
            drain_frames(&mut bad, &mut out).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn state_frames_validate_their_sender() {
        assert!(Frame::StateRequest {
            from: ProcessId::new(3)
        }
        .validate(4));
        assert!(!Frame::StateRequest {
            from: ProcessId::new(4)
        }
        .validate(4));
        let chunk = Frame::StateChunk {
            from: ProcessId::new(5),
            decision: None,
            phase: 0,
            app_digest: 0,
            app: None,
        };
        assert!(chunk.validate(6));
        assert!(!chunk.validate(5));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_body_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[9, 9]);
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let frame = Frame::Msg {
            seq: 7,
            payload: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
