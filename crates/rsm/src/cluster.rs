//! A loopback rsm cluster: a [`netstack::Cluster`] hosting `n`
//! [`Replica`]s, each serving clients through a client port — its client
//! listener and a [`ServiceCore`] answering from the replica's
//! [`LogView`]. The harness behind the integration tests, the example,
//! and `btbench`'s loopback workloads.
//!
//! The node side — bound-first retained listeners, WAL recovery before
//! the first frame, `expect_history` from the second incarnation on, one
//! registry per node across restarts — is the `netstack::Cluster`'s; this
//! module adds the client side with the same discipline. Every client
//! listener is bound before any node boots and kept by the harness, so a
//! killed node's client port survives it and [`RsmCluster::restart`]
//! serves the replacement on the same socket, re-attached to the
//! recovered [`LogView`] — its core numbers the next client commands
//! after those the WAL holds.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bt_core::Config;
use netstack::node::ClientPort;
use netstack::{Cluster, ClusterOptions, NodeStatus, RecoveryOptions};
use obs::metrics::Registry;
use simnet::{Process, ProcessId, Role};

use crate::msg::RsmMsg;
use crate::replica::{Replica, RsmOptions};
use crate::service::ServiceCore;
use crate::state::{AppliedState, LogView};

/// Cluster shape and tuning.
#[derive(Clone, Debug)]
pub struct RsmClusterOptions {
    /// System size (the resilience is `k = ⌊(n−1)/3⌋`).
    pub n: usize,
    /// Base seed; node `i` runs with `seed + i`.
    pub seed: u64,
    /// Directory holding one `rsm<i>.wal` per node. Created if absent.
    pub wal_dir: PathBuf,
    /// WAL checkpoint cadence (deliveries between snapshots; 0 replays
    /// from genesis).
    pub snapshot_every: u64,
}

impl RsmClusterOptions {
    /// Sensible defaults for an `n`-node cluster journaling under
    /// `wal_dir`.
    #[must_use]
    pub fn new(n: usize, wal_dir: PathBuf) -> Self {
        RsmClusterOptions {
            n,
            seed: 0xb70a_d001,
            wal_dir,
            snapshot_every: 4096,
        }
    }
}

/// A running loopback cluster. Shuts everything down on drop.
#[derive(Debug)]
pub struct RsmCluster {
    nodes: Cluster,
    client_addrs: Vec<SocketAddr>,
    /// Each node's applied state, live across its incarnations.
    views: Vec<LogView>,
}

impl RsmCluster {
    /// Binds all listeners, creates the WAL directory, and boots every
    /// node with its client port.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn/WAL failures.
    ///
    /// # Panics
    ///
    /// Panics if `opts.n` is 0.
    pub fn start(opts: RsmClusterOptions) -> io::Result<RsmCluster> {
        let n = opts.n;
        assert!(n >= 1, "a cluster needs at least one node");
        let config = Config::malicious(n, Config::max_malicious_k(n))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

        // Bound once and kept here, so a client port outlives the node
        // serving it; each incarnation serves a clone.
        let mut client_listeners = Vec::with_capacity(n);
        let mut client_addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            client_addrs.push(listener.local_addr()?);
            client_listeners.push(listener);
        }
        let views: Vec<LogView> = (0..n).map(|_| LogView::new()).collect();

        let node_views = views.clone();
        let make = move |i: usize, registry: &Arc<Registry>| {
            let (me, view) = (ProcessId::new(i), &node_views[i]);
            // The replica rebuilds the applied state deterministically
            // during WAL replay. The snapshot path resets the shared view
            // itself, but a from-genesis replay (no checkpoint yet)
            // re-applies from slot 0 — which must land on an empty fold,
            // not on the pre-kill state still held by the retained view.
            view.update(|a| *a = AppliedState::default());
            let replica = Replica::new(config, me, RsmOptions::default())
                .with_view(view.clone())
                .with_metrics(registry);
            let client = ClientPort {
                listener: client_listeners[i].try_clone()?,
                service: Box::new(ServiceCore::new(view.clone(), registry, me)),
            };
            let process: Box<dyn Process<Msg = RsmMsg> + Send> = Box::new(replica);
            Ok((process, Some(client)))
        };
        let options = ClusterOptions {
            seed: opts.seed,
            recovery: Some(RecoveryOptions {
                snapshot_every: opts.snapshot_every,
                ..RecoveryOptions::in_dir(&opts.wal_dir)
            }),
            ..ClusterOptions::default()
        };
        let wals = (0..n)
            .map(|i| opts.wal_dir.join(format!("rsm{i}.wal")))
            .collect();
        let roles = vec![Role::Correct; n];
        let nodes = Cluster::host(n, config.k(), roles, options, wals, make, None)?;
        Ok(RsmCluster {
            nodes,
            client_addrs,
            views,
        })
    }

    /// System size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.views.len()
    }

    /// The client-facing service address of node `i`.
    #[must_use]
    pub fn client_addr(&self, i: usize) -> SocketAddr {
        self.client_addrs[i]
    }

    /// Every node's client-facing service address.
    #[must_use]
    pub fn client_addrs(&self) -> &[SocketAddr] {
        &self.client_addrs
    }

    /// Node `i`'s applied-state view (live even while the node is down).
    #[must_use]
    pub fn view(&self, i: usize) -> LogView {
        self.views[i].clone()
    }

    /// Node `i`'s metrics registry (shared across restarts).
    #[must_use]
    pub fn registry(&self, i: usize) -> Arc<Registry> {
        self.nodes.node_registry(i)
    }

    /// Node `i`'s protocol status, if it is up.
    #[must_use]
    pub fn status(&self, i: usize) -> Option<NodeStatus> {
        self.is_up(i).then(|| self.nodes.nodes()[i].status())
    }

    /// Whether node `i` is currently up.
    #[must_use]
    pub fn is_up(&self, i: usize) -> bool {
        self.nodes.is_up(i)
    }

    /// Kills node `i`: stops its event loop abruptly (no protocol goodbye
    /// — peers see a dead connection, exactly as after a crash, and its
    /// clients see EOF). The WAL keeps everything the node journaled; the
    /// listeners stay bound for the replacement.
    pub fn kill(&mut self, i: usize) {
        self.nodes.kill(i);
    }

    /// Restarts a killed node `i` from its WAL on its original ports.
    ///
    /// # Errors
    ///
    /// Propagates spawn/WAL failures.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        self.nodes.restart(i)
    }

    /// Polls until every *live* node reports the same applied length and
    /// digest twice in a row with no growth in between (the cluster went
    /// quiescent and identical), or `timeout` elapses. Returns the common
    /// `(applied, digest)` on success.
    #[must_use]
    pub fn await_identical(&self, timeout: Duration) -> Option<(u64, u64)> {
        let deadline = Instant::now() + timeout;
        let mut last: Option<Vec<(u64, u64)>> = None;
        loop {
            let now: Vec<(u64, u64)> = (0..self.n())
                .filter(|&i| self.is_up(i))
                .map(|i| self.views[i].with(|a| (a.next_slot(), a.digest())))
                .collect();
            let uniform = now.windows(2).all(|w| w[0] == w[1]);
            if uniform && !now.is_empty() && last.as_ref() == Some(&now) {
                return Some(now[0]);
            }
            if Instant::now() >= deadline {
                return None;
            }
            last = Some(now);
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    /// Shuts every node down.
    pub fn shutdown(&mut self) {
        for i in 0..self.n() {
            self.kill(i);
        }
    }
}

impl Drop for RsmCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster core is agnostic to what it hosts: a `Cluster` of rsm
    /// replicas (no `Proto` involved) kills and restarts a member on the
    /// same port and the same registry cells, and the second incarnation
    /// boots with `expect_history` — so a WAL that vanished while the
    /// node was down is a lost log (amnesia), not a fresh start.
    #[test]
    fn hosted_replica_survives_kill_and_restart() {
        if !netstack::sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let dir = std::env::temp_dir().join(format!("rsm-hosted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config::malicious(4, 1).unwrap();
        let options = ClusterOptions {
            seed: 7,
            recovery: Some(RecoveryOptions::in_dir(&dir)),
            ..ClusterOptions::default()
        };
        let wals: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("r{i}.wal"))).collect();
        let make = move |i: usize, registry: &Arc<Registry>| {
            let replica = Replica::new(config, ProcessId::new(i), RsmOptions::default())
                .with_metrics(registry);
            let process: Box<dyn Process<Msg = RsmMsg> + Send> = Box::new(replica);
            Ok((process, None))
        };
        let roles = vec![Role::Correct; 4];
        let mut cluster = Cluster::host(4, 1, roles, options, wals.clone(), make, None).unwrap();

        let (port, registry) = (cluster.peers()[3], cluster.node_registry(3));
        let ticks = registry.counter("bt_loop_ticks_total", "", &[("node", "3")]);
        let ticks_pass = |floor: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while ticks.get() <= floor && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            ticks.get() > floor
        };
        assert!(ticks_pass(0), "the first incarnation ran its loop");
        cluster.kill(3);
        assert!(!cluster.is_up(3));
        let ticks_at_kill = ticks.get();
        std::fs::remove_file(&wals[3]).expect("the killed node left a WAL behind");

        cluster
            .restart(3)
            .expect("restart on the retained listener");
        assert!(cluster.is_up(3));
        assert_eq!(cluster.peers()[3], port, "same port");
        assert!(Arc::ptr_eq(&registry, &cluster.node_registry(3)));
        assert_eq!(
            cluster.nodes()[3].wal_corruptions(),
            1,
            "expect_history was set: the missing WAL counted as a lost log"
        );
        assert!(
            ticks_pass(ticks_at_kill),
            "the second incarnation counts into the first one's cells"
        );
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
