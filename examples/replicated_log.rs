//! The replicated log as a *service*: a loopback [`RsmCluster`] of four
//! nodes, each slot an independent multi-valued Byzantine consensus
//! instance, serving clients over the length-prefixed TCP protocol.
//!
//! The walk-through hits the three things the `rsm` crate adds on top of
//! the one-shot protocols:
//!
//! 1. a single client puts, reads, and deletes through the KV state
//!    machine (exactly-once via `(client, request)` ids);
//! 2. several concurrent clients share the pipeline, many slots in
//!    flight at once (batching kicks in when demand outruns slot
//!    supply — `btbench`'s `loopback-put` workload measures that regime);
//! 3. a node is killed and restarted, recovers its log from the WAL, and
//!    the cluster converges back to byte-identical logs.
//!
//! ```sh
//! cargo run --release --example replicated_log
//! ```
//!
//! See `docs/RSM.md` for the architecture and the protocol grammar.

use std::time::Duration;

use resilient_consensus::rsm::{ClientResp, Op, RsmClient, RsmCluster, RsmClusterOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let wal_dir = std::env::temp_dir().join(format!("rsm-example-{}", std::process::id()));
    let mut opts = RsmClusterOptions::new(n, wal_dir.clone());
    opts.seed = 0x10C;
    let mut cluster = RsmCluster::start(opts)?;
    println!(
        "booted a {n}-node replicated-log cluster (k = {})",
        (n - 1) / 3
    );

    // ---- 1. one client, the whole surface ------------------------------
    let mut alice = RsmClient::connect(cluster.client_addr(0), 1)?;
    alice.set_timeout(Some(Duration::from_secs(60)))?;
    for (key, value) in [(&b"x"[..], &b"1"[..]), (b"y", b"2"), (b"x", b"3")] {
        // propose_with_retry rides out Busy shedding and service timeouts
        // with jittered backoff; each retry reuses the same request id,
        // so the command still applies exactly once.
        let op = Op::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        };
        match alice.propose_with_retry(op, Duration::from_secs(30))? {
            ClientResp::Committed { log_len, .. } => println!(
                "put {}={} committed (log length {log_len})",
                String::from_utf8_lossy(key),
                String::from_utf8_lossy(value),
            ),
            other => return Err(format!("put not committed: {other:?}").into()),
        }
    }
    let x = alice.read(b"x")?;
    println!("read x -> {:?}", x.as_deref().map(String::from_utf8_lossy));
    assert_eq!(x.as_deref(), Some(&b"3"[..]), "last write wins");
    alice.del(b"y")?;
    assert_eq!(alice.read(b"y")?, None, "deleted keys read as unbound");

    // ---- 2. concurrent clients, one shared pipeline --------------------
    let addrs: Vec<_> = (0..n).map(|i| cluster.client_addr(i)).collect();
    let writers: Vec<_> = (0..8u64)
        .map(|w| {
            let addr = addrs[(w as usize + 1) % n];
            std::thread::spawn(move || -> std::io::Result<()> {
                // Ids 2..=9; id 1 is taken by `alice` above.
                let mut c = RsmClient::connect(addr, 2 + w)?;
                c.set_timeout(Some(Duration::from_secs(60)))?;
                for i in 0..8u32 {
                    let op = Op::Put {
                        key: format!("w{w}.k{i}").into_bytes(),
                        value: i.to_be_bytes().to_vec(),
                    };
                    c.propose_with_retry(op, Duration::from_secs(30))?;
                }
                Ok(())
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread")?;
    }

    // ---- 3. kill a node, restart it, converge --------------------------
    cluster.kill(n - 1);
    println!("killed node {} (its WAL survives it)", n - 1);
    cluster.restart(n - 1)?;
    println!("restarted node {} from its WAL on the same ports", n - 1);

    let (applied, digest) = cluster
        .await_identical(Duration::from_secs(60))
        .ok_or("cluster did not converge")?;
    let (commands_applied, loaded_slots, batched_commands) = cluster.view(0).with(|a| {
        let loaded = a.log.iter().filter(|e| !e.commands.is_empty());
        (
            a.applied_commands,
            loaded.clone().count(),
            loaded.map(|e| e.commands.len()).sum::<usize>(),
        )
    });
    println!("\nall {n} logs identical: {applied} slots applied, digest {digest:#018x}");
    println!(
        "{commands_applied} commands over {loaded_slots} non-empty slots \
         (mean batch {:.2} commands/slot)",
        batched_commands as f64 / loaded_slots.max(1) as f64,
    );

    cluster.shutdown();
    std::fs::remove_dir_all(&wal_dir).ok();
    Ok(())
}
