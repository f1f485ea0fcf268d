//! Crash-recovery integration: nodes restarted from their write-ahead
//! logs rejoin the cluster without equivocating.
//!
//! The property under test is wire-level, not just state-level: a
//! restarted node may only ever re-send **byte-identical** frames under
//! sequence numbers it used before the crash. Peers absorb those replays
//! through seq-dedup; a node that re-sent *different* bytes for a seq it
//! had already used would be manufacturing equivocation out of a benign
//! crash, which is exactly what the log-before-send invariant forbids.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bt_core::{Config, FailStop, FailStopMsg};
use netstack::{
    read_frame, sockets_available, spawn, write_frame, Cluster, ClusterOptions, FaultPlan, Frame,
    NodeConfig, RecoveryOptions,
};
use simnet::{ProcessId, RunStatus, Value, Wire};

const DEADLINE: Duration = Duration::from_secs(60);

macro_rules! require_sockets {
    () => {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
    };
}

/// A scratch directory under the system temp dir, unique to this test
/// process, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("btrec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reads frames from one accepted connection until `window` elapses with
/// no traffic, returning every `Msg` frame as `(seq, payload)`.
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

/// Like [`capture_msgs`], but tolerant of husks: a crashing incarnation
/// can die between redialing a peer and writing anything, leaving an
/// empty connection in the accept queue ahead of the restarted node's
/// live one. Skip such connections until real frames arrive.
fn capture_replay(listener: &TcpListener, window: Duration) -> Vec<(u64, Vec<u8>)> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let msgs = capture_msgs(listener, window);
        if !msgs.is_empty() || std::time::Instant::now() >= deadline {
            return msgs;
        }
    }
}

/// Satellite (d): kill a WAL-journaling node and restart it from the log;
/// every frame it re-sends under a previously-used sequence number must
/// be byte-for-byte identical to the original. The fake peers never ack,
/// so the entire backlog is re-offered after the restart.
#[test]
fn restarted_node_resends_byte_identical_frames() {
    require_sockets!();
    let scratch = ScratchDir::new("identical");
    let n = 3;
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let mut listeners = listeners.into_iter();
    let node_listener = listeners.next().expect("node 0 listener");
    let relisten = node_listener.try_clone().expect("retain the port");
    let fake_peers: Vec<TcpListener> = listeners.collect();

    let config = Config::fail_stop(n, 1).expect("within the fail-stop bound");
    let cfg = NodeConfig {
        id: ProcessId::new(0),
        n,
        seed: 42,
        k: 1,
        fault: FaultPlan::reliable(),
        expect_history: false,
        wal: Some(scratch.0.join("node0.wal")),
        snapshot_every: 0, // replay from genesis: the hardest replay path
        metrics: None,
    };
    let mut node = spawn(
        cfg.clone(),
        node_listener,
        addrs.clone(),
        Box::new(FailStop::new(config, Value::One)),
        None,
        None,
    )
    .expect("boot incarnation one");

    // Feed one message from "peer 1" so the WAL holds a real delivery
    // (beyond the node's own self-delivery) and the state advances.
    let mut from_p1 = TcpStream::connect(addrs[0]).expect("dial node 0");
    write_frame(
        &mut from_p1,
        &Frame::Hello {
            from: ProcessId::new(1),
        },
    )
    .expect("hello");
    let msg = FailStopMsg {
        phase: 0,
        value: Value::One,
        cardinality: 1,
    };
    write_frame(
        &mut from_p1,
        &Frame::Msg {
            seq: 0,
            payload: msg.to_bytes(),
        },
    )
    .expect("deliver from peer 1");

    // Capture everything the first incarnation sends to each peer.
    let window = Duration::from_millis(600);
    let first: Vec<Vec<(u64, Vec<u8>)>> =
        fake_peers.iter().map(|l| capture_msgs(l, window)).collect();
    assert!(
        first.iter().all(|msgs| !msgs.is_empty()),
        "the node broadcast something before the crash"
    );

    // Crash. Nothing was ever acked, so the WAL is the only survivor.
    node.shutdown();
    drop(from_p1);

    let config = Config::fail_stop(n, 1).expect("within the fail-stop bound");
    let mut node = spawn(
        cfg,
        relisten,
        addrs,
        Box::new(FailStop::new(config, Value::One)),
        None,
        None,
    )
    .expect("boot incarnation two from the WAL");
    assert!(
        node.status().recovered >= 2,
        "both logged deliveries (self + peer 1) were replayed"
    );

    let second: Vec<Vec<(u64, Vec<u8>)>> = fake_peers
        .iter()
        .map(|l| capture_replay(l, window))
        .collect();
    node.shutdown();

    // No equivocation, checked at the wire: every seq the first
    // incarnation used reappears with identical bytes.
    for (peer, (before, after)) in first.iter().zip(&second).enumerate() {
        let replayed: HashMap<u64, &Vec<u8>> =
            after.iter().map(|(seq, bytes)| (*seq, bytes)).collect();
        assert!(
            !before.is_empty() && !after.is_empty(),
            "traffic flowed to fake peer {peer} in both incarnations"
        );
        for (seq, bytes) in before {
            let again = replayed.get(seq).unwrap_or_else(|| {
                panic!("fake peer {peer}: unacked seq {seq} was not re-sent after restart")
            });
            assert_eq!(
                *again, bytes,
                "fake peer {peer}: restarted node re-sent different bytes for seq {seq}"
            );
        }
    }
}

/// The poll-loop ownership handoff: a restarted incarnation inherits the
/// listening socket via `try_clone`, registers it with a fresh poller in
/// a new event-loop thread, and must still accept inbound dials and
/// deliver frames. This is the regression the event-driven rewrite could
/// have introduced silently — with one thread owning every socket, the
/// listener's edge-triggered readiness must not be stranded in the dead
/// incarnation's (closed) poller, and `Cluster::restart` leans on exactly
/// this handoff.
#[test]
fn relistened_socket_accepts_dials_in_the_next_event_loop() {
    require_sockets!();
    let scratch = ScratchDir::new("handoff");
    let n = 3;
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let mut listeners = listeners.into_iter();
    let node_listener = listeners.next().expect("node 0 listener");
    let relisten = node_listener.try_clone().expect("retain the port");
    let _fake_peers: Vec<TcpListener> = listeners.collect();

    let config = Config::fail_stop(n, 1).expect("within the fail-stop bound");
    let cfg = NodeConfig {
        id: ProcessId::new(0),
        n,
        seed: 7,
        k: 1,
        fault: FaultPlan::reliable(),
        expect_history: false,
        wal: Some(scratch.0.join("node0.wal")),
        snapshot_every: 0,
        metrics: None,
    };
    let mut node = spawn(
        cfg.clone(),
        node_listener,
        addrs.clone(),
        Box::new(FailStop::new(config, Value::One)),
        None,
        None,
    )
    .expect("boot incarnation one");

    // Incarnation one accepts a dial and delivers a frame, so the
    // listener's readiness has been consumed inside the first event
    // loop's poller before the handoff. The cumulative ack says the
    // frame is journaled: acks never run ahead of the WAL.
    let mut from_p1 = TcpStream::connect(addrs[0]).expect("dial incarnation one");
    write_frame(
        &mut from_p1,
        &Frame::Hello {
            from: ProcessId::new(1),
        },
    )
    .expect("hello");
    let msg = FailStopMsg {
        phase: 0,
        value: Value::One,
        cardinality: 1,
    };
    write_frame(
        &mut from_p1,
        &Frame::Msg {
            seq: 0,
            payload: msg.to_bytes(),
        },
    )
    .expect("deliver from peer 1");
    from_p1
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loop {
        match read_frame(&mut from_p1) {
            Ok(Frame::Ack { next }) if next >= 1 => break,
            Ok(_) => {}
            Err(e) => panic!("incarnation one never journaled the frame: {e}"),
        }
    }
    node.shutdown();
    drop(from_p1);

    // Incarnation two: same file descriptor, fresh poller, fresh thread.
    let config = Config::fail_stop(n, 1).expect("within the fail-stop bound");
    let mut node = spawn(
        cfg,
        relisten,
        addrs.clone(),
        Box::new(FailStop::new(config, Value::One)),
        None,
        None,
    )
    .expect("boot incarnation two from the WAL");
    assert!(
        node.status().recovered >= 2,
        "the WAL replayed before the new loop took over"
    );

    // A fresh dial must be accepted by the new loop, and the cumulative
    // ack proves the full inbound path — accept, read, dedup against the
    // recovered seq table, deliver, journal, write back — runs there:
    // `next = 2` covers seq 0 (delivered by incarnation one, replayed
    // from the WAL) plus seq 1 (delivered live by incarnation two).
    let mut from_p1 = TcpStream::connect(addrs[0]).expect("dial incarnation two");
    write_frame(
        &mut from_p1,
        &Frame::Hello {
            from: ProcessId::new(1),
        },
    )
    .expect("hello to the new loop");
    let msg = FailStopMsg {
        phase: 0,
        value: Value::One,
        cardinality: 2,
    };
    write_frame(
        &mut from_p1,
        &Frame::Msg {
            seq: 1,
            payload: msg.to_bytes(),
        },
    )
    .expect("deliver to the new loop");
    from_p1
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loop {
        match read_frame(&mut from_p1) {
            Ok(Frame::Ack { next }) if next >= 2 => break,
            Ok(_) => {}
            Err(e) => panic!("no cumulative ack from the restarted event loop: {e}"),
        }
    }
    node.shutdown();
}

/// Sleeps until `offset` past `began`.
fn sleep_until(began: Instant, offset: Duration) {
    std::thread::sleep((began + offset).saturating_duration_since(Instant::now()));
}

/// A crash-restart sequenced by the caller: node 1 is killed
/// mid-consensus and restarted from its WAL. All correct nodes — the
/// restarted one included — decide, agree, and observe zero
/// equivocations.
#[test]
fn killed_node_restarts_from_its_wal_and_cluster_decides() {
    require_sockets!();
    let scratch = ScratchDir::new("restarted");
    let options = ClusterOptions {
        seed: 0x5EC0_7E12,
        inputs: vec![Value::One; 4],
        // Delay stretches the run so the kill lands mid-consensus on fast
        // machines; correctness must hold either way.
        link_fault: FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(6)),
        recovery: Some(RecoveryOptions {
            wal_dir: scratch.0.clone(),
            snapshot_every: 8,
        }),
        ..ClusterOptions::default()
    };
    let began = Instant::now();
    let mut cluster =
        Cluster::spawn(4, 1, netstack::Proto::FailStop, options, None).expect("loopback spawn");
    sleep_until(began, Duration::from_millis(25));
    cluster.kill(1);
    sleep_until(began, Duration::from_millis(80));
    cluster.restart(1).expect("restart from WAL");
    let report = cluster.await_verdict(DEADLINE);

    assert_eq!(report.status, RunStatus::Stopped, "all nodes decided");
    assert!(report.agreement(), "agreement across the crash-restart");
    for i in 0..4 {
        assert_eq!(report.decisions[i], Some(Value::One), "validity at p{i}");
    }
    let recoveries = cluster
        .node_registry(1)
        .snapshot()
        .scalar_total("bt_recoveries_total");
    assert_eq!(
        recoveries,
        Some(1),
        "node 1 came back from its WAL, not from scratch"
    );
    for (i, node) in cluster.nodes().iter().enumerate() {
        assert_eq!(
            node.equivocations(),
            0,
            "p{i} observed an equivocation — a restarted node re-sent different bytes"
        );
    }
    cluster.shutdown();
}

/// With recovery configured and nobody killed, a healthy run performs
/// zero restarts and still decides.
#[test]
fn healthy_journaling_run_restarts_nobody() {
    require_sockets!();
    let scratch = ScratchDir::new("inert");
    let options = ClusterOptions {
        seed: 9,
        inputs: vec![Value::Zero; 4],
        recovery: Some(RecoveryOptions::in_dir(scratch.0.clone())),
        ..ClusterOptions::default()
    };
    let mut cluster =
        Cluster::spawn(4, 1, netstack::Proto::FailStop, options, None).expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped);
    assert!(report.agreement());
    assert_eq!(report.decisions[0], Some(Value::Zero), "validity");
    assert!(
        cluster.restarts().iter().all(|&r| r == 0),
        "no restarts on a healthy run"
    );
}

/// Instant checkpoint cadence: with `snapshot_every: 1` the WAL compacts
/// aggressively, so a scheduled crash restarts from a snapshot rather
/// than genesis — the snapshot path must preserve agreement and
/// no-equivocation exactly like full replay.
#[test]
fn snapshot_restart_preserves_agreement() {
    require_sockets!();
    let scratch = ScratchDir::new("snapshot");
    let options = ClusterOptions {
        seed: 77,
        inputs: vec![Value::One, Value::Zero, Value::One, Value::One],
        link_fault: FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(5)),
        recovery: Some(RecoveryOptions {
            wal_dir: scratch.0.clone(),
            snapshot_every: 1,
        }),
        ..ClusterOptions::default()
    };
    let began = Instant::now();
    let mut cluster =
        Cluster::spawn(4, 1, netstack::Proto::FailStop, options, None).expect("loopback spawn");
    sleep_until(began, Duration::from_millis(20));
    cluster.kill(2);
    sleep_until(began, Duration::from_millis(60));
    cluster.restart(2).expect("restart from WAL");
    let report = cluster.await_verdict(DEADLINE);

    assert_eq!(report.status, RunStatus::Stopped);
    assert!(report.agreement(), "agreement across a snapshot restart");
    for (i, node) in cluster.nodes().iter().enumerate() {
        assert_eq!(node.equivocations(), 0, "no equivocation observed at p{i}");
    }
    cluster.shutdown();

    // The run must complete promptly even with per-step checkpointing;
    // sanity-check the WALs actually exist on disk.
    let wals = std::fs::read_dir(&scratch.0)
        .expect("wal dir readable")
        .count();
    assert_eq!(wals, 4, "one WAL per node");
}
