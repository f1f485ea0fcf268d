//! A closed client gives its socket back: once a connection's handler has
//! ended, the service holds no file descriptor for it, so short-lived
//! clients cannot pile up in CLOSE_WAIT and run a long-lived node out of
//! descriptors. This file holds one test on purpose: no other test shares
//! the process, so nothing else moves its descriptor count.

use std::time::{Duration, Instant};

use rsm::{RsmClient, RsmCluster, RsmClusterOptions};

/// How many descriptors this process has open, or `None` without `/proc`.
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn closed_clients_release_their_sockets() {
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
        // A served read means the handler thread is up before we hang up.
        assert_eq!(c.read(b"k").expect("read"), None);
    };
    serve_one(1);
    let baseline = open_fds().unwrap();

    for client in 2..66 {
        serve_one(client);
    }
    // Each handler sees EOF and ends; the acceptor prunes it on its next
    // pass, every few milliseconds.
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
