//! End-to-end service tests on a real loopback cluster: clients over
//! TCP, commands through the journaled gateway, one replica killed and
//! recovered from its WAL mid-stream, logs byte-identical at the end.

use std::time::Duration;

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

#[test]
fn clients_commit_and_read_through_the_service() {
    let dir = temp_dir("basic");
    let mut cluster = RsmCluster::start(RsmClusterOptions::new(4, dir.clone())).unwrap();

    // Two clients on two different nodes, interleaved.
    let mut a = RsmClient::connect(cluster.client_addr(0), 1).unwrap();
    let mut b = RsmClient::connect(cluster.client_addr(2), 2).unwrap();
    for i in 0..20u32 {
        let resp = a
            .put(format!("a{i}").as_bytes(), format!("va{i}").as_bytes())
            .unwrap();
        assert!(
            matches!(resp, ClientResp::Committed { client: 1, .. }),
            "unexpected response: {resp:?}"
        );
        let resp = b
            .put(format!("b{i}").as_bytes(), format!("vb{i}").as_bytes())
            .unwrap();
        assert!(matches!(resp, ClientResp::Committed { client: 2, .. }));
    }
    // Delete through one node, observe through another once quiescent.
    assert!(matches!(
        a.del(b"a0").unwrap(),
        ClientResp::Committed { .. }
    ));

    let (applied, digest) = cluster
        .await_identical(Duration::from_secs(30))
        .expect("cluster did not converge to identical logs");
    assert!(applied > 0);

    assert_eq!(a.read(b"a1").unwrap(), Some(b"va1".to_vec()));
    assert_eq!(b.read(b"a0").unwrap(), None);
    assert_eq!(b.read(b"b19").unwrap(), Some(b"vb19".to_vec()));

    // Idempotent retry: re-proposing an applied request id answers
    // Committed immediately without growing the state.
    let before = cluster.view(0).with(|s| s.applied_commands);
    assert!(matches!(
        a.retry(
            1,
            rsm::Op::Put {
                key: b"a0".to_vec(),
                value: b"va0".to_vec()
            }
        )
        .unwrap(),
        ClientResp::Committed { .. }
    ));
    let _ = cluster.await_identical(Duration::from_secs(10));
    assert_eq!(cluster.view(0).with(|s| s.applied_commands), before);

    // Digest equality really means byte-identical logs.
    for i in 1..cluster.n() {
        assert_eq!(
            cluster.view(i).with(|s| (s.next_slot(), s.digest())),
            (applied, digest)
        );
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn killed_replica_recovers_from_wal_and_converges() {
    let dir = temp_dir("recover");
    let mut opts = RsmClusterOptions::new(5, dir.clone());
    opts.snapshot_every = 64; // exercise checkpoint + tail replay
    let mut cluster = RsmCluster::start(opts).unwrap();
    let victim = 3;

    // Phase 1: load through every node, including the future victim.
    let mut clients: Vec<RsmClient> = (0..5)
        .map(|i| RsmClient::connect(cluster.client_addr(i), 10 + i as u64).unwrap())
        .collect();
    for round in 0..10u32 {
        for c in &mut clients {
            let id = c.id();
            let resp = c
                .put(
                    format!("k{id}-{round}").as_bytes(),
                    format!("v{round}").as_bytes(),
                )
                .unwrap();
            assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
        }
    }

    // Kill the victim mid-stream (its WAL keeps everything it journaled;
    // its client connection dies with it). The log's availability follows
    // its leaders: slots led by the dead replica cannot be announced, so
    // commits pause at its first unfilled slot until the supervised
    // restart — proposals accepted meanwhile queue and commit after
    // recovery.
    cluster.kill(victim);
    assert!(!cluster.is_up(victim));
    drop(clients.remove(victim));

    // Phase 2: keep proposing through the survivors *while* the victim is
    // down, from a background thread (the proposals block server-side
    // until recovery lets them commit).
    let phase2 = {
        let addrs: Vec<_> = (0..5)
            .filter(|&i| i != victim)
            .map(|i| cluster.client_addr(i))
            .collect();
        std::thread::spawn(move || {
            let mut clients: Vec<RsmClient> = addrs
                .iter()
                .enumerate()
                .map(|(j, &a)| RsmClient::connect(a, 20 + j as u64).unwrap())
                .collect();
            for round in 0..8u32 {
                for c in &mut clients {
                    let id = c.id();
                    let op = rsm::Op::Put {
                        key: format!("m{id}-{round}").into_bytes(),
                        value: format!("w{round}").into_bytes(),
                    };
                    let resp = c.propose_with_retry(op, Duration::from_secs(60)).unwrap();
                    assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
                }
            }
        })
    };

    // Let the in-flight load pile up against the dead leader's slots,
    // then restart it from the WAL on the original ports.
    std::thread::sleep(Duration::from_millis(500));
    cluster.restart(victim).unwrap();
    assert!(cluster.is_up(victim));
    phase2
        .join()
        .expect("in-flight proposals failed to commit across the restart");

    // Phase 3: more load after recovery, through every node again.
    let mut probe3 = RsmClient::connect(cluster.client_addr(victim), 30).unwrap();
    for round in 0..5u32 {
        let resp = probe3.put(format!("p{round}").as_bytes(), b"post").unwrap();
        assert!(matches!(resp, ClientResp::Committed { .. }), "{resp:?}");
    }

    let (applied, digest) = cluster
        .await_identical(Duration::from_secs(60))
        .expect("cluster (incl. the recovered replica) did not converge");
    assert!(applied > 0);
    let recovered = cluster.view(victim).with(|s| (s.next_slot(), s.digest()));
    assert_eq!(
        recovered,
        (applied, digest),
        "the recovered replica's log diverged"
    );

    // The recovered replica serves reads of data proposed while it was
    // down (client 21's phase-2 writes committed after recovery).
    let mut probe = RsmClient::connect(cluster.client_addr(victim), 99).unwrap();
    assert_eq!(probe.read(b"m21-7").unwrap(), Some(b"w7".to_vec()));
    // No replica saw an equivocation while rejoining.
    // (Equivocation counters live in each node's metrics registry.)
    for i in 0..cluster.n() {
        let snap = cluster.registry(i).snapshot();
        let text = snap.render_prometheus();
        for line in text.lines() {
            if line.starts_with("bt_equivocations_total") {
                let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap_or(0.0);
                assert_eq!(v, 0.0, "node {i} saw an equivocation: {line}");
            }
        }
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
