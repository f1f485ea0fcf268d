//! Amnesia-tolerant recovery, end to end over real sockets: a correct
//! node is killed mid-consensus, a storage fault flips a byte in the
//! middle of its write-ahead log, and the restart must detect
//! the corruption, refuse to replay the poisoned state, and rejoin by
//! fetching state confirmed by a quorum of peers — all without a single
//! equivocation on the wire.
//!
//! Each test sequences its own crash: `Cluster::kill` and
//! `Cluster::restart` at fixed offsets from just before the cluster
//! boots. The same shape runs as a shell smoke leg in
//! `scripts/smoke_recovery.sh`.

use std::time::{Duration, Instant};

use netstack::{
    sockets_available, Cluster, ClusterOptions, DiskFault, FaultPlan, Proto, RecoveryOptions,
    WalDamage,
};
use simnet::{RunStatus, Value};

const DEADLINE: Duration = Duration::from_secs(60);

macro_rules! require_sockets {
    () => {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
    };
}

/// Sleeps until `offset` past `began`.
fn sleep_until(began: Instant, offset: Duration) {
    std::thread::sleep((began + offset).saturating_duration_since(Instant::now()));
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bt-amnesia-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The seeded acceptance run: n=4 k=1 fail-stop, node 2 killed at 30ms
/// and restarted at 90ms onto a WAL whose byte at offset 8 — inside the
/// boot record's body — has been flipped by the injected storage layer.
///
/// Required outcome: the corruption is detected (`bt_wal_corruptions_total
/// ≥ 1`), nobody equivocates, a quorum state transfer completes
/// (`bt_state_transfers_total ≥ 1`), and the verdict is unanimous — the
/// amnesiac rejoins as a learner carrying the quorum-confirmed decision.
#[test]
fn flipped_wal_byte_triggers_quorum_state_transfer() {
    require_sockets!();
    let wal_dir = scratch("flip");
    let victim = 2usize;
    let options = ClusterOptions {
        seed: 0xA3_1983,
        inputs: vec![Value::One; 4],
        // Applied at every WAL open: a no-op on the first boot (the
        // file is empty, offset 8 is past EOF) and a mid-log flip on the
        // restart — exactly a bit rot discovered at reboot.
        link_fault: FaultPlan::reliable().with_disk(victim, DiskFault::Flip { offset: 8 }),
        recovery: Some(RecoveryOptions::in_dir(&wal_dir)),
        ..ClusterOptions::default()
    };
    let began = Instant::now();
    let mut cluster = Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("spawn cluster");
    sleep_until(began, Duration::from_millis(30));
    cluster.kill(victim);
    sleep_until(began, Duration::from_millis(90));
    cluster
        .restart(victim)
        .expect("restart from the flipped WAL");
    let report = cluster.await_verdict(DEADLINE);

    assert_eq!(report.status, RunStatus::Stopped, "every node decided");
    assert!(report.agreement(), "agreement despite the amnesiac");
    for i in 0..4 {
        assert_eq!(report.decisions[i], Some(Value::One), "validity at p{i}");
    }
    assert!(
        cluster.wal_corruptions() >= 1,
        "the flipped byte was detected as mid-log damage"
    );
    assert!(
        cluster.state_transfers() >= 1,
        "the amnesiac completed a quorum state transfer"
    );
    let equivocations: Vec<u64> = cluster.nodes().iter().map(|n| n.equivocations()).collect();
    assert!(
        equivocations.iter().all(|&e| e == 0),
        "zero equivocations: {equivocations:?}"
    );
    let st = cluster.nodes()[victim].status();
    assert!(st.state_transferred, "the victim rejoined via transfer");
    cluster.shutdown();

    // The poisoned log was preserved as evidence, not truncated: the
    // damage must still be classified as mid-log on a later inspection.
    let (_, recovered) = netstack::Wal::open_with(
        wal_dir.join(format!("node{victim}.wal")),
        Box::new(netstack::FaultyStorage::new(vec![DiskFault::Flip {
            offset: 8,
        }])),
    )
    .expect("reopen the evidence");
    assert!(
        matches!(recovered.damage, WalDamage::MidLog { .. }),
        "evidence preserved: {:?}",
        recovered.damage
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A vanished WAL is amnesia too: the victim's log is deleted while it is
/// down (the restart boots on an empty file with `expect_history` set by
/// the cluster), so the node must refuse to masquerade as a fresh
/// process and instead rejoin through the quorum transfer path.
#[test]
fn lost_wal_on_restart_is_detected_and_transferred() {
    require_sockets!();
    let wal_dir = scratch("lost");
    let victim = 1usize;
    let options = ClusterOptions {
        seed: 0xBEE,
        inputs: vec![Value::One; 4],
        // LostRename never fires here (no compaction in so short a run);
        // the clause's presence routes the node through the
        // fault-injecting storage layer.
        link_fault: FaultPlan::reliable().with_disk(victim, DiskFault::LostRename),
        recovery: Some(RecoveryOptions::in_dir(&wal_dir)),
        ..ClusterOptions::default()
    };
    let began = Instant::now();
    let mut cluster = Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("spawn cluster");
    sleep_until(began, Duration::from_millis(30));
    cluster.kill(victim);
    // Erase the victim's journal while it is down.
    std::fs::remove_file(wal_dir.join(format!("node{victim}.wal")))
        .expect("the victim's WAL exists and can be deleted");
    sleep_until(began, Duration::from_millis(120));
    cluster.restart(victim).expect("restart onto the lost WAL");
    let report = cluster.await_verdict(DEADLINE);
    assert_eq!(report.status, RunStatus::Stopped, "every node decided");
    assert!(report.agreement());
    assert!(
        cluster.wal_corruptions() >= 1,
        "the lost log was detected (expect_history on restart)"
    );
    assert!(
        cluster.state_transfers() >= 1,
        "the amnesiac completed a quorum state transfer"
    );
    let equivocations: Vec<u64> = cluster.nodes().iter().map(|n| n.equivocations()).collect();
    assert!(
        equivocations.iter().all(|&e| e == 0),
        "zero equivocations: {equivocations:?}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
