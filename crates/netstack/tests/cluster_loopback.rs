//! Loopback cluster integration: the paper's protocols reaching consensus
//! over real TCP sockets, under process faults, Byzantine attackers, and
//! injected link faults.
//!
//! Every test binds OS-assigned ports on 127.0.0.1 and skips gracefully
//! (with a note on stderr) where the sandbox forbids sockets. Runs are
//! seeded and wall-clock-bounded; the bounds are generous because the OS
//! scheduler — unlike the simulator's — is not ours to control.

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bt_core::{Config, Malicious, MaliciousKind, MaliciousMsg, Phase};
use netstack::{
    sockets_available, spawn, write_frame, Cluster, ClusterOptions, CrashPlan, FaultPlan, Frame,
    NodeConfig, NodeFault, Proto,
};
use obs::{parse_trace, render_report, JsonlSink, PhaseAggregator};
use simnet::{ProcessId, RunStatus, SharedSubscriber, Value, Wire};

/// Generous per-test deadline: loopback consensus finishes in milliseconds,
/// but CI machines under load deserve slack.
const DEADLINE: Duration = Duration::from_secs(60);

macro_rules! require_sockets {
    () => {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
    };
}

/// The acceptance-criteria run: the Figure 2 malicious protocol, n=7 k=2,
/// five correct processes starting at `One` against one two-faced
/// Byzantine attacker plus one process that crashes mid-broadcast, over
/// real sockets, with a JSONL trace that `btreport`'s pipeline can
/// consume.
///
/// Correctness of the expected verdict: deciding needs more than
/// `(n+k)/2 = 4.5` accepted messages for one value; the attacker and the
/// crasher together can back `Zero` with at most 2, so only `One` —
/// validity — can ever be decided, and all five correct processes must
/// decide it.
#[test]
fn malicious_seven_nodes_byzantine_plus_crash_decide_over_tcp() {
    require_sockets!();
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    let options = ClusterOptions {
        seed: 0xB7_1983,
        inputs: vec![Value::One; 7],
        faults: vec![
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::TwoFaced,
            NodeFault::Crash(CrashPlan::AfterSends(3)),
        ],
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(
        7,
        2,
        Proto::Malicious,
        options,
        Some(sink.clone() as SharedSubscriber),
    )
    .expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped, "all correct decided");
    assert!(report.agreement(), "agreement over real sockets");
    for i in 0..5 {
        assert_eq!(report.decisions[i], Some(Value::One), "validity at p{i}");
    }
    assert!(report.metrics.messages_sent > 0);

    // The JSONL trace feeds the same pipeline btreport uses.
    let contents = sink.lock().unwrap().contents();
    let lines = parse_trace(&contents).expect("networked trace parses");
    assert!(lines.len() > 2, "run brackets plus events");
    let rendered = render_report(&lines);
    assert!(
        rendered.contains("decided"),
        "report mentions decisions:\n{rendered}"
    );
}

/// Fail-stop protocol, n=7 k=2, with both crash flavours: one process
/// dies mid-broadcast (splitting it) and one dies on entering phase 1.
/// The five survivors exceed the `n-k` quota and must decide.
#[test]
fn failstop_survives_two_crashes_over_tcp() {
    require_sockets!();
    let options = ClusterOptions {
        seed: 7,
        inputs: vec![Value::One; 7],
        faults: vec![
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Correct,
            NodeFault::Crash(CrashPlan::AfterSends(3)),
            NodeFault::Crash(CrashPlan::AtPhase(1)),
        ],
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(7, 2, Proto::FailStop, options, None).expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped);
    assert!(report.agreement());
    for i in 0..5 {
        assert_eq!(report.decisions[i], Some(Value::One), "validity at p{i}");
    }
}

/// Link faults: uniform per-message delay plus a partition that heals.
/// Both only postpone delivery, so the §2.1 reliable-channel assumption
/// still holds and the simple protocol must still terminate.
#[test]
fn simple_protocol_decides_through_delay_and_healing_partition() {
    require_sockets!();
    let options = ClusterOptions {
        seed: 21,
        inputs: vec![Value::Zero; 4],
        link_fault: FaultPlan::reliable()
            .with_delay(Duration::from_millis(1), Duration::from_millis(8))
            .with_partition(4, &[0, 1], Duration::from_millis(150)),
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(4, 1, Proto::Simple, options, None).expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped);
    assert!(report.agreement());
    assert_eq!(report.decisions[0], Some(Value::Zero), "validity");
}

/// The Ben-Or baseline also runs over the socket runtime — the runtime is
/// protocol-agnostic, exactly like the simulator.
#[test]
fn benor_decides_over_tcp() {
    require_sockets!();
    let options = ClusterOptions {
        seed: 5,
        inputs: vec![Value::One; 5],
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(5, 1, Proto::BenOr, options, None).expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped);
    assert!(report.agreement());
    assert_eq!(report.decisions[0], Some(Value::One), "unanimous input");
}

/// Regression for the wire-validation layer: a Byzantine peer speaking
/// well-formed frames whose *contents* are hostile — an `Echo` naming a
/// subject outside the system, and a sequence number that skips ahead —
/// must not kill any node or block consensus.
///
/// Before validation, the out-of-range subject panicked the event loop
/// (`echo_count[subject.index()]`) and the node hung silently. Now the
/// payload dies at the reader (`wire_rejected`), the skipped seq is
/// counted and dropped (`seq_gaps`), and the three correct nodes decide:
/// with n=4, k=1 they exceed both the `n−k = 3` quota and the
/// `(n+k)/2 = 2.5` echo quorum among themselves.
#[test]
fn out_of_range_subject_bytes_do_not_kill_liveness() {
    require_sockets!();
    let n = 4;
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();

    // Nodes 1..3 are honest; the test itself plays Byzantine "p0" on the
    // listener it kept.
    let config = Config::malicious(n, 1).expect("within the malicious bound");
    let mut nodes = Vec::new();
    let mut listeners = listeners.into_iter();
    let p0_listener = listeners.next().expect("p0 listener");
    for (i, listener) in listeners.enumerate() {
        let id = i + 1;
        let cfg = NodeConfig::new(
            ProcessId::new(id),
            n,
            0xBAD_BEEF + id as u64,
            FaultPlan::reliable(),
        );
        let node = spawn(
            cfg,
            listener,
            addrs.clone(),
            Box::new(Malicious::new(config, Value::One)),
            None,
            None,
        )
        .expect("loopback spawn");
        nodes.push(node);
    }
    drop(p0_listener); // p0 never answers; honest senders just redial

    // The attack: per node, a valid handshake followed by a well-formed
    // Echo whose subject (77) is outside the n=4 system, then a frame
    // whose sequence number skips ahead.
    let hostile = MaliciousMsg {
        kind: MaliciousKind::Echo,
        subject: ProcessId::new(77),
        value: Value::One,
        phase: Phase::At(0),
    };
    let mut attack_conns = Vec::new();
    for addr in &addrs[1..] {
        let mut conn = TcpStream::connect(addr).expect("dial victim");
        write_frame(
            &mut conn,
            &Frame::Hello {
                from: ProcessId::new(0),
            },
        )
        .expect("hello");
        write_frame(
            &mut conn,
            &Frame::Msg {
                seq: 0,
                payload: hostile.to_bytes(),
            },
        )
        .expect("hostile echo");
        write_frame(
            &mut conn,
            &Frame::Msg {
                seq: 100,
                payload: hostile.to_bytes(),
            },
        )
        .expect("seq gap");
        attack_conns.push(conn); // keep open: EOF must not be the savior
    }

    // Liveness: every honest node decides One despite the attack.
    let deadline = Instant::now() + DEADLINE;
    loop {
        assert!(
            nodes.iter().all(|node| !node.died()),
            "no event loop may die on hostile bytes"
        );
        if nodes.iter().all(|node| node.decision().is_some()) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "nodes must decide despite attack"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The hostile frames race the decision: a node can decide off the
    // honest traffic before its reader has consumed the attack bytes, so
    // poll for the counters rather than asserting a snapshot.
    let counters = Instant::now() + DEADLINE;
    for node in &nodes {
        assert_eq!(node.decision(), Some(Value::One), "validity under attack");
        while (node.wire_rejected() < 1 || node.seq_gaps() < 1) && Instant::now() < counters {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            node.wire_rejected() >= 1,
            "the out-of-range subject was rejected at the wire"
        );
        assert!(node.seq_gaps() >= 1, "the skipped seq was counted, dropped");
    }
    drop(attack_conns);
    for mut node in nodes {
        node.shutdown();
    }
}

/// The `PhaseAggregator` sink consumes a networked run exactly as it does
/// a simulated one: per-phase counters populate and the run is recorded.
#[test]
fn phase_aggregator_consumes_networked_runs() {
    require_sockets!();
    let agg = Arc::new(Mutex::new(PhaseAggregator::new()));
    let options = ClusterOptions {
        seed: 3,
        inputs: vec![Value::One; 4],
        ..ClusterOptions::default()
    };
    let mut cluster = Cluster::spawn(
        4,
        1,
        Proto::FailStop,
        options,
        Some(agg.clone() as SharedSubscriber),
    )
    .expect("loopback spawn");
    let report = cluster.await_verdict(DEADLINE);
    cluster.shutdown();

    assert_eq!(report.status, RunStatus::Stopped);
    let agg = agg.lock().unwrap();
    assert!(!agg.phases().is_empty(), "per-phase stats were collected");
}
