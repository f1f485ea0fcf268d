//! A client costs a node a socket and nothing more: the node's event loop
//! serves every client connection, so connecting clients start no
//! thread; and a closed client gives its socket back, so short-lived
//! clients cannot pile up in CLOSE_WAIT and run a long-lived node out of
//! descriptors. This file holds one test on purpose: no other test shares
//! the process, so nothing else moves its thread or descriptor count.

use std::time::{Duration, Instant};

use rsm::{RsmClient, RsmCluster, RsmClusterOptions};

/// How many descriptors this process has open, or `None` without `/proc`.
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// How many threads this process runs.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn clients_start_no_threads_and_closed_clients_release_their_sockets() {
    if open_fds().is_none() {
        eprintln!("skipping: /proc/self/fd is unavailable");
        return;
    }
    let dir = std::env::temp_dir().join(format!("rsm-test-fds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cluster = match RsmCluster::start(RsmClusterOptions::new(1, dir.clone())) {
        Ok(cluster) => cluster,
        Err(err) => {
            eprintln!("skipping: cannot start a loopback node: {err}");
            return;
        }
    };
    let addr = cluster.client_addr(0);
    let serve_one = |client: u64| {
        let mut c = RsmClient::connect(addr, client).expect("connect");
        // A served read means the node accepted the connection.
        assert_eq!(c.read(b"k").expect("read"), None);
        c
    };
    drop(serve_one(1));
    let (baseline, idle_threads) = (open_fds().unwrap(), threads());

    let connected: Vec<RsmClient> = (2..66).map(serve_one).collect();
    assert_eq!(
        threads(),
        idle_threads,
        "threads with 64 clients connected, against none"
    );
    drop(connected);
    // The node reads each EOF on its next wakeup and closes that socket.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_fds().unwrap();
    while open > baseline + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_fds().unwrap();
    }
    assert!(
        open <= baseline + 4,
        "{open} descriptors open after 64 clients came and went; {baseline} before"
    );

    drop(cluster);
    let _ = std::fs::remove_dir_all(dir);
}
