//! The client path is one hop: the node's event loop hands each proposal
//! to its service, which submits it to the node's core in the same
//! wakeup, and the service bounds only the proposals awaiting
//! commitment. These tests stall the log by killing a leader, then check
//! that the count of waiting proposals is exact, that killing a node
//! does not wait out a stalled proposal, and that concurrent proposals
//! share slots: the replica packs them, nothing upstream does.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rsm::{ClientResp, RsmClient, RsmCluster, RsmClusterOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rsm-test-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 4-node cluster with one committed put through node 2 and node 1
/// killed: the log stalls at node 1's next slot, so every later proposal
/// waits for commitment until node 1 comes back.
fn stalled_cluster(dir: &std::path::Path) -> RsmCluster {
    let mut cluster = RsmCluster::start(RsmClusterOptions::new(4, dir.to_path_buf())).unwrap();
    let mut first = RsmClient::connect(cluster.client_addr(2), 1).unwrap();
    let resp = first.put(b"before", b"stall").unwrap();
    assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
    cluster.kill(1);
    cluster
}

/// Proposes one put through `addr` on a thread of its own.
fn put_in_background(
    addr: std::net::SocketAddr,
    client: u64,
) -> thread::JoinHandle<std::io::Result<ClientResp>> {
    thread::spawn(move || {
        let mut c = RsmClient::connect(addr, client)?;
        c.set_timeout(Some(Duration::from_secs(30)))?;
        c.put(format!("k{client}").as_bytes(), b"v")
    })
}

/// Node 2's count of proposals awaiting commitment, as its gauge reports
/// it.
fn gauge(cluster: &RsmCluster) -> u64 {
    cluster
        .registry(2)
        .gauge("rsm_admission_queue", "", &[("node", "2")])
        .get()
}

/// Node 2's count of proposals awaiting commitment, as its gauge and as
/// its `Info` answer report it.
fn waiting(cluster: &RsmCluster, info: &mut RsmClient) -> (u64, u64) {
    let gauge = gauge(cluster);
    let Ok(ClientResp::Info { pending, .. }) = info.info() else {
        panic!("node 2 did not answer Info");
    };
    (gauge, pending)
}

#[test]
fn killing_a_node_does_not_wait_out_a_stalled_proposal() {
    let dir = temp_dir("stall-kill");
    let mut cluster = stalled_cluster(&dir);
    let stalled = put_in_background(cluster.client_addr(2), 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge(&cluster) != 1 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(gauge(&cluster), 1, "the proposal never started waiting");

    let started = Instant::now();
    cluster.kill(2);
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "kill(2) took {took:?} with a proposal waiting"
    );
    let resp = stalled.join().unwrap();
    assert!(
        !matches!(resp, Ok(ClientResp::Committed { .. })),
        "the log was not stalled: {resp:?}"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn waiting_proposals_are_counted_until_they_commit() {
    let dir = temp_dir("stall-count");
    let mut cluster = stalled_cluster(&dir);
    let mut info = RsmClient::connect(cluster.client_addr(2), 99).unwrap();
    let proposals: Vec<_> = (10..13)
        .map(|client| put_in_background(cluster.client_addr(2), client))
        .collect();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = waiting(&cluster, &mut info);
    while seen != (3, 3) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        seen = waiting(&cluster, &mut info);
    }
    assert_eq!(
        seen,
        (3, 3),
        "(gauge, Info.pending) with three proposals waiting"
    );

    cluster.restart(1).unwrap();
    for p in proposals {
        let resp = p.join().unwrap().unwrap();
        assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
    }
    // The service releases a proposal's count as it answers it.
    assert_eq!(waiting(&cluster, &mut info), (0, 0));

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_clients_share_slots() {
    const CLIENTS: u64 = 64;
    let dir = temp_dir("batches");
    let mut cluster = RsmCluster::start(RsmClusterOptions::new(4, dir.clone())).unwrap();
    let addr = cluster.client_addr(0);
    let go = Arc::new(Barrier::new(CLIENTS as usize));
    let clients: Vec<_> = (1..=CLIENTS)
        .map(|client| {
            let go = Arc::clone(&go);
            thread::spawn(move || {
                let mut c = RsmClient::connect(addr, client).unwrap();
                go.wait();
                c.put(format!("k{client}").as_bytes(), b"v").unwrap()
            })
        })
        .collect();
    for c in clients {
        let resp = c.join().unwrap();
        assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
    }

    cluster
        .await_identical(Duration::from_secs(30))
        .expect("replicas did not converge");
    for i in 0..cluster.n() {
        assert_eq!(
            cluster.view(i).with(|a| a.applied_commands),
            CLIENTS,
            "node {i} applied each command exactly once"
        );
    }
    let largest = cluster
        .registry(0)
        .histogram("rsm_batch_commands", "", &[("node", "0")])
        .snapshot()
        .max;
    assert!(
        largest > 1,
        "no committed slot carried more than one command"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
