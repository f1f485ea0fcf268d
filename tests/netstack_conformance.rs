//! Transport-conformance suite for `crates/netstack`.
//!
//! These tests pin the *observable* delivery contract of the socket
//! runtime — per-link FIFO framing, cumulative-ack monotonicity,
//! byte-identical backlog replay after a reconnect — through the public
//! API only (`spawn`, `Cluster`, and the exported frame codec). They are
//! written to pass identically on any implementation of that contract,
//! so they gate transport rewrites rather than implementation details:
//! a runtime that reorders a link, regresses an ack, or replays a
//! different byte for a used sequence number fails here before any
//! consensus-level symptom appears.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use resilient_consensus::bt_core::{Config, FailStop, FailStopMsg};
use resilient_consensus::netstack::{
    read_frame, sockets_available, spawn, write_frame, Cluster, ClusterOptions, FaultPlan, Frame,
    NodeConfig, NodeHandle, Proto,
};
use resilient_consensus::simnet::{ProcessId, RunStatus, Value, Wire};

macro_rules! require_sockets {
    () => {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
    };
    // Inside `proptest!` bodies the early return must carry `Ok(())`.
    (prop) => {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return Ok(());
        }
    };
}

/// Boots one real node (id 0, fail-stop, no WAL) whose peers are fake
/// listeners owned by the test. Returns the handle, the fake peers'
/// listeners (ids 1..n), and node 0's own address.
fn spawn_probe_node(n: usize, seed: u64) -> (NodeHandle, Vec<TcpListener>, SocketAddr) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let mut listeners = listeners.into_iter();
    let node_listener = listeners.next().expect("node 0 listener");
    let fake_peers: Vec<TcpListener> = listeners.collect();

    let config = Config::fail_stop(n, (n - 1) / 2).expect("within the fail-stop bound");
    let cfg = NodeConfig {
        id: ProcessId::new(0),
        n,
        seed,
        k: (n - 1) / 2,
        fault: FaultPlan::reliable(),
        expect_history: false,
        wal: None,
        snapshot_every: 0,
        metrics: None,
    };
    let node = spawn(
        cfg,
        node_listener,
        addrs.clone(),
        Box::new(FailStop::new(config, Value::One)),
        None,
        None,
    )
    .expect("boot the probe node");
    (node, fake_peers, addrs[0])
}

/// Accepts one connection and reads `Msg` frames until `window` elapses
/// with no traffic; the connection drops when this returns.
fn capture_msgs(listener: &TcpListener, window: Duration) -> Vec<(u64, Vec<u8>)> {
    let (mut conn, _) = listener.accept().expect("node dials the fake peer");
    conn.set_read_timeout(Some(window)).expect("read timeout");
    let mut msgs = Vec::new();
    loop {
        match read_frame(&mut conn) {
            Ok(Frame::Msg { seq, payload }) => msgs.push((seq, payload)),
            Ok(_) => {}
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::UnexpectedEof =>
            {
                break;
            }
            Err(e) => panic!("unexpected read error from node under test: {e}"),
        }
    }
    msgs
}

/// A valid fail-stop payload for inbound probes (contents irrelevant to
/// the framing layer, but honest enough to survive wire validation).
fn probe_payload(value: Value) -> Vec<u8> {
    FailStopMsg {
        phase: 0,
        value,
        cardinality: 1,
    }
    .to_bytes()
}

/// Polls a counter until it reaches `want` or two seconds elapse —
/// counters advance in runtime threads, a beat behind the ack we read.
fn await_counter(read: impl Fn() -> u64, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while read() < want {
        assert!(Instant::now() < deadline, "{what} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls a counter until it holds the same value for 300ms — delivery
/// happens a beat behind the ack, so comparisons snapshot at quiescence.
fn quiesce(read: impl Fn() -> u64) -> u64 {
    let mut last = read();
    let mut stable_since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = read();
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_millis(300) {
            return last;
        }
    }
}

/// Per-link FIFO: on a fresh connection every link carries sequence
/// numbers 0,1,2,… in arrival order — the transport may coalesce frames
/// but may not reorder or skip within a link.
#[test]
fn outbound_links_are_fifo_and_contiguous() {
    require_sockets!();
    let (mut node, fake_peers, my_addr) = spawn_probe_node(3, 11);

    // Feed one inbound message so the node's state machine advances and
    // sends beyond its initial broadcast.
    let mut from_p1 = TcpStream::connect(my_addr).expect("dial node 0");
    write_frame(
        &mut from_p1,
        &Frame::Hello {
            from: ProcessId::new(1),
        },
    )
    .expect("hello");
    write_frame(
        &mut from_p1,
        &Frame::Msg {
            seq: 0,
            payload: probe_payload(Value::One),
        },
    )
    .expect("probe msg");

    for (peer, listener) in fake_peers.iter().enumerate() {
        let msgs = capture_msgs(listener, Duration::from_millis(600));
        assert!(!msgs.is_empty(), "fake peer {peer} saw traffic");
        for (i, (seq, _)) in msgs.iter().enumerate() {
            assert_eq!(
                *seq, i as u64,
                "fake peer {peer}: link seqs must arrive contiguous from 0"
            );
        }
    }
    node.shutdown();
}

/// A connection whose `Hello` names the receiving node itself is an
/// impersonation — a node's own input never crosses a socket — so the
/// node hangs up on it: no ack, and nothing it carried is delivered.
#[test]
fn a_hello_naming_the_node_itself_is_refused() {
    require_sockets!();
    let (mut node, _fake_peers, my_addr) = spawn_probe_node(3, 5);
    let delivered = quiesce(|| node.messages_delivered());

    let mut conn = TcpStream::connect(my_addr).expect("dial node 0");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let me = ProcessId::new(0);
    write_frame(&mut conn, &Frame::Hello { from: me }).expect("hello");
    // The node may already have hung up; the write's outcome is moot.
    let _ = write_frame(
        &mut conn,
        &Frame::Msg {
            seq: 0,
            payload: probe_payload(Value::One),
        },
    );
    match read_frame(&mut conn) {
        Ok(frame) => panic!("the node answered a self-named connection: {frame:?}"),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the node must close the connection, not leave it open: {e}"
        ),
    }
    assert_eq!(quiesce(|| node.messages_delivered()), delivered);
    node.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cumulative-ack monotonicity, exercised from the sender's side of
    /// the wire: a fake peer streams in-order frames and must read back
    /// an ack of exactly `sent` after each; a duplicate or a skipped-
    /// ahead seq re-elicits the *unchanged* cumulative ack (and the gap
    /// is counted, never delivered); delivery then resumes at the
    /// expected seq as if the probe never happened.
    #[test]
    fn inbound_acks_are_cumulative_and_monotone(
        seed in any::<u64>(),
        batch in 3u64..12,
    ) {
        require_sockets!(prop);
        let (mut node, _fake_peers, my_addr) = spawn_probe_node(3, seed);
        let me = ProcessId::new(1);

        let mut conn = TcpStream::connect(my_addr).expect("dial node 0");
        conn.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        write_frame(&mut conn, &Frame::Hello { from: me }).expect("hello");

        let read_ack = |conn: &mut TcpStream| -> u64 {
            loop {
                match read_frame(conn).expect("node answers every Msg with an Ack") {
                    Frame::Ack { next } => return next,
                    _ => continue,
                }
            }
        };

        // In-order stream: ack after frame i is exactly i+1.
        let mut last_ack = 0;
        for seq in 0..batch {
            let value = if seq % 2 == 0 { Value::One } else { Value::Zero };
            write_frame(&mut conn, &Frame::Msg { seq, payload: probe_payload(value) })
                .expect("in-order msg");
            let ack = read_ack(&mut conn);
            prop_assert_eq!(ack, seq + 1, "cumulative ack after in-order delivery");
            prop_assert!(ack >= last_ack, "acks never regress");
            last_ack = ack;
        }

        // Duplicate of an already-delivered seq: re-acked, not re-delivered.
        let delivered_before = quiesce(|| node.messages_delivered());
        write_frame(&mut conn, &Frame::Msg { seq: 0, payload: probe_payload(Value::One) })
            .expect("duplicate msg");
        prop_assert_eq!(read_ack(&mut conn), batch, "duplicate re-elicits the cumulative ack");

        // Skipping ahead: acked at the unchanged watermark, counted as a
        // gap, never delivered out of order.
        write_frame(&mut conn, &Frame::Msg { seq: batch + 5, payload: probe_payload(Value::One) })
            .expect("gap msg");
        prop_assert_eq!(read_ack(&mut conn), batch, "a gap cannot advance the cumulative ack");
        await_counter(|| node.seq_gaps(), 1, "seq-gap counter");

        // The link recovers: the genuinely-next seq still delivers.
        write_frame(&mut conn, &Frame::Msg { seq: batch, payload: probe_payload(Value::Zero) })
            .expect("resume in order");
        prop_assert_eq!(read_ack(&mut conn), batch + 1, "in-order delivery resumes after a gap");

        // A duplicate seq carrying *different* bytes is equivocation.
        write_frame(&mut conn, &Frame::Msg { seq: 0, payload: probe_payload(Value::Zero) })
            .expect("equivocating duplicate");
        prop_assert_eq!(read_ack(&mut conn), batch + 1);
        await_counter(|| node.equivocations(), 1, "equivocation counter");

        // Of the four probes since the snapshot (duplicate, gap, resume,
        // equivocating duplicate), exactly the in-order resume delivered.
        prop_assert_eq!(quiesce(|| node.messages_delivered()), delivered_before + 1,
            "neither duplicates nor gaps are delivered");

        node.shutdown();
    }

    /// Reconnect replay: a peer that accepts frames but never acks, then
    /// drops the connection, must be re-offered the *entire* backlog on
    /// the next connection — in seq order, from the first unacked frame,
    /// byte-for-byte identical to the original transmission.
    #[test]
    fn reconnect_replays_unacked_backlog_byte_identically(seed in any::<u64>()) {
        require_sockets!(prop);
        let (mut node, fake_peers, my_addr) = spawn_probe_node(3, seed);

        let mut from_p1 = TcpStream::connect(my_addr).expect("dial node 0");
        write_frame(&mut from_p1, &Frame::Hello { from: ProcessId::new(1) }).expect("hello");
        write_frame(
            &mut from_p1,
            &Frame::Msg { seq: 0, payload: probe_payload(Value::One) },
        )
        .expect("probe msg");

        let window = Duration::from_millis(600);
        let peer = &fake_peers[0];
        // First connection: capture everything, ack nothing, hang up.
        let first = capture_msgs(peer, window);
        prop_assert!(!first.is_empty(), "the node sent something before the hangup");

        // The node must redial and replay. Nothing was acked, so the
        // replay begins again at seq 0.
        let second = capture_msgs(peer, window);
        prop_assert!(second.len() >= first.len(), "the full backlog is re-offered");
        for (i, (seq, _)) in second.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64, "replay runs in seq order from the first unacked");
        }
        for ((seq_a, bytes_a), (seq_b, bytes_b)) in first.iter().zip(&second) {
            prop_assert_eq!(seq_a, seq_b);
            prop_assert_eq!(bytes_a, bytes_b, "replayed frame {seq_a} must be byte-identical");
        }
        prop_assert!(node.reconnects() >= 1, "the hangup forced a reconnect");
        node.shutdown();
    }
}

/// Cluster-level closure of the same contract: under link delays and a
/// lossy link schedule (forcing retransmission and reconnect paths), a
/// full consensus run completes with zero observed seq gaps and zero
/// equivocations at every node — the per-link properties above are what
/// make this hold.
#[test]
fn faulty_cluster_run_preserves_link_invariants() {
    require_sockets!();
    let n = 5;
    let options = ClusterOptions {
        seed: 0x00C0_F012,
        inputs: vec![Value::One; n],
        link_fault: FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(4)),
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(n, 2, Proto::FailStop, options, None).expect("loopback spawn");
    let report = cluster.await_verdict(Duration::from_secs(60));

    assert_eq!(report.status, RunStatus::Stopped, "all nodes decided");
    assert!(report.agreement(), "agreement under link faults");
    for (i, node) in cluster.nodes().iter().enumerate() {
        assert_eq!(node.seq_gaps(), 0, "p{i}: an honest link never skips a seq");
        assert_eq!(
            node.equivocations(),
            0,
            "p{i}: no equivocation on an honest run"
        );
    }
    cluster.shutdown();
}
