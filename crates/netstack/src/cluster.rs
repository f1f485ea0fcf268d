//! Loopback clusters: boot `n` nodes on 127.0.0.1, await a verdict, and
//! own every node's lifecycle — kill it, restart it from its write-ahead
//! log, let it rejoin without equivocating.
//!
//! [`Cluster`] is the one runner in the workspace and is agnostic to what
//! its nodes run: [`Cluster::host`] takes a closure building node `i`'s
//! [`Process`]; [`Cluster::spawn`] hosts one of the paper's protocols
//! through [`spawn_proto`]; the `rsm` service cluster and the `dst` fuzz
//! legs drive a `Cluster` rather than booting nodes themselves. The
//! experiment shape is the simulator's — a resilience `k`, per-process
//! inputs and roles, run, get back a [`RunReport`] — but the execution is
//! `n` event-loop nodes exchanging Wire-encoded frames over real TCP.
//! Every listener is bound (on an OS-assigned port) *before* any node
//! boots, so peers never dial an address that does not exist yet, and
//! the cluster keeps each listening socket for its own lifetime: the port
//! survives the node, and every incarnation runs on a clone of it.
//!
//! # Lifecycle
//!
//! [`Cluster::kill`] stops a node abruptly; [`Cluster::restart`] boots
//! its replacement at once on the same port and metrics registry. A
//! restarted node recovers from its WAL before it accepts a single frame,
//! so to its peers the crash is indistinguishable from a slow link: same
//! frames, same bytes, same sequence numbers.
//!
//! These two calls are the only way a member goes down or comes back.
//! When to crash a node and when to restart it belongs to the experiment,
//! so the caller sequences them; the cluster itself never restarts
//! anything. A node whose event loop died stays dead, and
//! [`Cluster::await_verdict`] reports it at once.
//!
//! A networked run has no global step counter, so the synthesized report's
//! `steps` is the sum of per-node atomic steps, and `RunStatus` reduces to
//! two outcomes: [`RunStatus::Stopped`] when every correct node decided
//! within the deadline, [`RunStatus::StepLimitReached`] when wall-clock
//! time ran out first (the networked analogue of a step budget).

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adversary::{Crashing, Silent, TwoFacedMalicious};
use benor::{BenOrConfig, BenOrProcess};
use bt_core::{Config, FailStop, Malicious, Simple};
use obs::metrics::{Registry, Snapshot};
use simnet::{
    Metrics, Process, ProcessId, Role, RunReport, RunStatus, SharedSubscriber, Value, Wire,
};

use crate::admin::{self, AdminServer};
use crate::fault::FaultPlan;
use crate::node::{spawn, ClientPort, NodeConfig, NodeHandle, NodeStatus};

pub use adversary::CrashPlan;

/// Which of the paper's protocols a node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Figure 1 fail-stop protocol (`k ≤ ⌊(n−1)/2⌋`).
    FailStop,
    /// §4.1 simple protocol (same bound, no witnesses).
    Simple,
    /// Figure 2 malicious protocol (`k ≤ ⌊(n−1)/3⌋`).
    Malicious,
    /// The Ben-Or baseline under its fail-stop configuration.
    BenOr,
}

impl FromStr for Proto {
    type Err = String;

    /// Parses the command-line names `failstop`, `simple`, `malicious`,
    /// `benor`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "failstop" => Ok(Proto::FailStop),
            "simple" => Ok(Proto::Simple),
            "malicious" => Ok(Proto::Malicious),
            "benor" => Ok(Proto::BenOr),
            other => Err(format!("unknown protocol {other:?}")),
        }
    }
}

/// The fault a node exhibits (process faults, as opposed to the *link*
/// faults a [`FaultPlan`] injects).
#[derive(Clone, Debug, Default)]
pub enum NodeFault {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Correct behaviour until the [`CrashPlan`] triggers, then silence —
    /// the paper's fail-stop fault.
    Crash(CrashPlan),
    /// Sends nothing at all (an initially dead process).
    Silent,
    /// Echoes `One` to low-indexed peers and `Zero` to high-indexed peers
    /// (malicious protocol only; treated as [`NodeFault::Silent`] under
    /// other protocols, where the message type differs).
    TwoFaced,
}

impl NodeFault {
    fn role(&self) -> Role {
        match self {
            NodeFault::Correct => Role::Correct,
            _ => Role::Faulty,
        }
    }

    /// Wraps a correct `process` in this fault.
    pub fn apply<P>(self, process: P) -> Box<dyn Process<Msg = P::Msg> + Send>
    where
        P: Process + Send + 'static,
        P::Msg: 'static,
    {
        match self {
            NodeFault::Correct => Box::new(process),
            NodeFault::Crash(plan) => Box::new(Crashing::new(process, plan)),
            // A two-faced process only exists for the malicious message
            // type; `spawn_proto` intercepts it there.
            NodeFault::Silent | NodeFault::TwoFaced => Box::new(Silent::new()),
        }
    }
}

/// Boots one node running `proto` from `input` under `fault` — the only
/// place in the workspace that maps a protocol name to a state machine
/// for a socket node. [`Cluster::spawn`] boots every member through it
/// and `btnode` boots its single node through it; everything else about
/// the node (identity, WAL, registry, link faults) is `cfg`.
///
/// # Errors
///
/// `InvalidInput` if `(cfg.n, cfg.k)` violates `proto`'s resilience
/// bound; otherwise whatever [`spawn`] returns.
pub fn spawn_proto(
    proto: Proto,
    input: Value,
    fault: NodeFault,
    cfg: NodeConfig,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    subscriber: Option<SharedSubscriber>,
) -> io::Result<NodeHandle> {
    fn bound(e: impl fmt::Display) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
    }
    let (n, k) = (cfg.n, cfg.k);
    match proto {
        Proto::FailStop => {
            let config = Config::fail_stop(n, k).map_err(bound)?;
            let process = fault.apply(FailStop::new(config, input));
            spawn(cfg, listener, peers, process, subscriber, None)
        }
        Proto::Simple => {
            let config = Config::fail_stop(n, k).map_err(bound)?;
            let process = fault.apply(Simple::new(config, input));
            spawn(cfg, listener, peers, process, subscriber, None)
        }
        Proto::Malicious => {
            let config = Config::malicious(n, k).map_err(bound)?;
            let process = match fault {
                NodeFault::TwoFaced => Box::new(TwoFacedMalicious::new(config)),
                fault => fault.apply(Malicious::new(config, input)),
            };
            spawn(cfg, listener, peers, process, subscriber, None)
        }
        Proto::BenOr => {
            let config = BenOrConfig::fail_stop(n, k).map_err(bound)?;
            let process = fault.apply(BenOrProcess::new(config, input));
            spawn(cfg, listener, peers, process, subscriber, None)
        }
    }
}

/// Durability policy for a cluster.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Directory holding the nodes' WALs (created if absent);
    /// [`Cluster::spawn`] names them `node<i>.wal`.
    pub wal_dir: PathBuf,
    /// Per-node checkpoint cadence (see [`NodeConfig::snapshot_every`]);
    /// 0 replays from genesis.
    pub snapshot_every: u64,
}

impl RecoveryOptions {
    /// A policy journaling into `wal_dir`, replaying from genesis.
    #[must_use]
    pub fn in_dir(wal_dir: impl Into<PathBuf>) -> Self {
        RecoveryOptions {
            wal_dir: wal_dir.into(),
            snapshot_every: 0,
        }
    }
}

/// Everything about a cluster run that is not `(n, k)` and what the
/// nodes run.
#[derive(Clone, Debug, Default)]
pub struct ClusterOptions {
    /// Base seed; node `i` runs on `seed + i` so coin flips differ across
    /// nodes but the whole cluster is reproducible from one number.
    pub seed: u64,
    /// Initial value per node; nodes beyond the vector's length get
    /// [`Value::Zero`]. Read by [`Cluster::spawn`] only.
    pub inputs: Vec<Value>,
    /// Process fault per node; nodes beyond the vector's length are
    /// correct. Read by [`Cluster::spawn`] only.
    pub faults: Vec<NodeFault>,
    /// Link faults, applied to every node's outbound messages, and disk
    /// faults, applied to the WALs (these require
    /// [`ClusterOptions::recovery`]).
    pub link_fault: FaultPlan,
    /// Durable WALs, which [`Cluster::restart`] needs. `None` (the
    /// default) runs without durability: nodes can be killed but never
    /// restarted.
    pub recovery: Option<RecoveryOptions>,
    /// Serve an HTTP admin endpoint (`/metrics`, `/metrics.json`,
    /// `/status`) per node on an OS-assigned loopback port — what `btstat`
    /// and [`Cluster::scrape`] talk to. Off by default: in-process callers
    /// can read [`Cluster::metrics_snapshot`] without sockets.
    pub admin: bool,
}

/// What [`Cluster::host`]'s `make` builds for one incarnation of a node:
/// its state machine and its client port, if it serves one.
pub type Hosted<M> = (Box<dyn Process<Msg = M> + Send>, Option<ClientPort>);

/// Boots one incarnation of a member from its config, a clone of its
/// retained listener, and the peer address list.
type Boot = Box<
    dyn Fn(
            NodeConfig,
            TcpListener,
            Vec<SocketAddr>,
            Option<SharedSubscriber>,
        ) -> io::Result<NodeHandle>
        + Send,
>;

/// A running loopback cluster. Shuts every node down on drop.
pub struct Cluster {
    k: usize,
    options: ClusterOptions,
    boot: Boot,
    nodes: Vec<NodeHandle>,
    roles: Vec<Role>,
    subscriber: Option<SharedSubscriber>,
    reported: bool,
    /// Every node's listening socket, kept for the cluster's lifetime:
    /// the port outlives the node, so peers redial the same address after
    /// a restart. Incarnations run on clones.
    listeners: Vec<TcpListener>,
    peers: Vec<SocketAddr>,
    /// One WAL path per node, or empty without recovery.
    wals: Vec<PathBuf>,
    /// One metrics registry per node, shared across that node's
    /// incarnations: a restart re-attaches to the same cells, so the
    /// node's counters survive it.
    registries: Vec<Arc<Registry>>,
    /// Per-node HTTP admin endpoints (empty unless
    /// [`ClusterOptions::admin`] is set). An endpoint outlives its node's
    /// incarnations: a restart swaps the status source but keeps the port.
    admins: Vec<AdminServer>,
    /// Nodes stopped by [`Cluster::kill`] and not restarted since.
    down: Vec<bool>,
    restarts_used: Vec<u32>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes)
            .field("roles", &self.roles)
            .field("observed", &self.subscriber.is_some())
            .field("reported", &self.reported)
            .field("recovery", &self.options.recovery)
            .field("down", &self.down)
            .field("restarts_used", &self.restarts_used)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Boots an `n`-node cluster of `proto` with resilience `k` and starts
    /// the protocol on every node, with the inputs and process faults in
    /// `options` and WALs named `node<i>.wal` under the recovery
    /// directory. See [`Cluster::host`] for the subscriber, errors (plus
    /// `InvalidInput` if `(n, k)` violates `proto`'s resilience bound)
    /// and panics.
    pub fn spawn(
        n: usize,
        k: usize,
        proto: Proto,
        mut options: ClusterOptions,
        subscriber: Option<SharedSubscriber>,
    ) -> io::Result<Self> {
        let inputs = std::mem::take(&mut options.inputs);
        let faults = std::mem::take(&mut options.faults);
        let fault = move |i: usize| faults.get(i).cloned().unwrap_or_default();
        let roles = (0..n).map(|i| fault(i).role()).collect();
        let wals = options.recovery.as_ref().map_or_else(Vec::new, |rec| {
            (0..n)
                .map(|i| rec.wal_dir.join(format!("node{i}.wal")))
                .collect()
        });
        let boot: Boot = Box::new(move |cfg, listener, peers, subscriber| {
            let i = cfg.id.index();
            let input = inputs.get(i).copied().unwrap_or(Value::Zero);
            spawn_proto(proto, input, fault(i), cfg, listener, peers, subscriber)
        });
        Cluster::start(n, k, roles, options, wals, boot, subscriber)
    }

    /// Boots an `n`-node cluster of arbitrary processes on loopback TCP:
    /// `make(i, registry)` builds node `i`'s state machine and its client
    /// port, if any, and is called again for every later incarnation of
    /// that node with the same registry. `roles` says which nodes
    /// [`Cluster::await_verdict`] waits on; `wals` holds one WAL path per
    /// node when `options.recovery` is set (and is empty otherwise).
    ///
    /// If a `subscriber` is given it receives `on_run_start` now, every
    /// node's events as they happen (interleaved in real arrival order —
    /// networked runs are not deterministically ordered across nodes),
    /// and `on_run_end` from [`Cluster::await_verdict`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if loopback listeners cannot be bound (some
    /// sandboxes forbid sockets) — callers treat that as "skip" — if the
    /// recovery WAL directory cannot be created, or a node fails to boot.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan carries disk faults without
    /// [`ClusterOptions::recovery`] (there is no storage to corrupt), or
    /// if `roles`/`wals` do not have one entry per node.
    pub fn host<M: Wire + Send + 'static>(
        n: usize,
        k: usize,
        roles: Vec<Role>,
        options: ClusterOptions,
        wals: Vec<PathBuf>,
        make: impl Fn(usize, &Arc<Registry>) -> io::Result<Hosted<M>> + Send + 'static,
        subscriber: Option<SharedSubscriber>,
    ) -> io::Result<Self> {
        let boot: Boot = Box::new(move |cfg, listener, peers, subscriber| {
            let registry = cfg.metrics.as_ref().expect("members share a registry");
            let (process, client) = make(cfg.id.index(), registry)?;
            spawn(cfg, listener, peers, process, subscriber, client)
        });
        Cluster::start(n, k, roles, options, wals, boot, subscriber)
    }

    fn start(
        n: usize,
        k: usize,
        roles: Vec<Role>,
        options: ClusterOptions,
        wals: Vec<PathBuf>,
        boot: Boot,
        subscriber: Option<SharedSubscriber>,
    ) -> io::Result<Self> {
        assert!(
            options.link_fault.disk().is_empty() || options.recovery.is_some(),
            "disk faults require ClusterOptions::recovery: \
             without a WAL there is no storage to corrupt"
        );
        assert_eq!(roles.len(), n, "one role per node");
        let durable = if options.recovery.is_some() { n } else { 0 };
        assert_eq!(wals.len(), durable, "one WAL per node iff recovery is set");
        if let Some(rec) = &options.recovery {
            std::fs::create_dir_all(&rec.wal_dir)?;
        }

        // Bind every listener first: all addresses exist before any dial.
        let mut listeners = Vec::with_capacity(n);
        let mut peers = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            peers.push(l.local_addr()?);
            listeners.push(l);
        }

        if let Some(s) = &subscriber {
            s.lock()
                .expect("subscriber lock poisoned")
                .on_run_start(n, options.seed);
        }

        let mut cluster = Cluster {
            k,
            options,
            boot,
            nodes: Vec::with_capacity(n),
            roles,
            subscriber,
            reported: false,
            listeners,
            peers,
            wals,
            registries: (0..n).map(|_| Arc::new(Registry::new())).collect(),
            admins: Vec::new(),
            down: vec![false; n],
            restarts_used: vec![0; n],
        };
        for i in 0..n {
            let node = cluster.boot(i)?;
            cluster.nodes.push(node);
        }
        // One admin endpoint per node, bound after the nodes so /status
        // always has a live status cell to read.
        if cluster.options.admin {
            for node in &cluster.nodes {
                let server = admin::serve_node(([127, 0, 0, 1], 0).into(), node, n)?;
                cluster.admins.push(server);
            }
        }
        Ok(cluster)
    }

    /// Boots the next incarnation of node `i` on a clone of its retained
    /// listener — the one place a cluster member's [`NodeConfig`] is
    /// written down.
    fn boot(&self, i: usize) -> io::Result<NodeHandle> {
        let cfg = NodeConfig {
            id: ProcessId::new(i),
            n: self.listeners.len(),
            seed: self.options.seed.wrapping_add(i as u64),
            k: self.k,
            fault: self.options.link_fault.clone(),
            // `restarts_used` is bumped before every re-boot, so it is 0
            // exactly on the first incarnation. Any later one follows a
            // node that journalled at least its boot record: an empty WAL
            // then is a lost log — amnesia, not a fresh start.
            expect_history: self.restarts_used[i] > 0,
            wal: self.wals.get(i).cloned(),
            snapshot_every: self
                .options
                .recovery
                .as_ref()
                .map_or(0, |r| r.snapshot_every),
            // Every incarnation records into the same registry, so the
            // node's counters survive its own restarts.
            metrics: Some(Arc::clone(&self.registries[i])),
        };
        (self.boot)(
            cfg,
            self.listeners[i].try_clone()?,
            self.peers.clone(),
            self.subscriber.clone(),
        )
    }

    /// The nodes' handles, indexed by process id. A killed node's handle
    /// stays (answering with its last status) until a restart replaces it.
    #[must_use]
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// The nodes' listening addresses, indexed by process id.
    #[must_use]
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Restarts performed so far, per node.
    #[must_use]
    pub fn restarts(&self) -> &[u32] {
        &self.restarts_used
    }

    /// Node `i`'s metrics registry — stable across that node's restarts.
    #[must_use]
    pub fn node_registry(&self, i: usize) -> Arc<Registry> {
        Arc::clone(&self.registries[i])
    }

    /// One merged snapshot of every node's metrics. Registries are read
    /// in-process (no sockets): this is the cluster-wide view a scrape of
    /// all the admin endpoints would assemble, minus the HTTP hop.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for r in &self.registries {
            merged.merge(&r.snapshot());
        }
        merged
    }

    /// Boots across the cluster that found a WAL unsafely damaged
    /// (mid-log corruption or a lost log), over all incarnations.
    #[must_use]
    pub fn wal_corruptions(&self) -> u64 {
        let snapshot = self.metrics_snapshot();
        snapshot
            .scalar_total("bt_wal_corruptions_total")
            .unwrap_or(0)
    }

    /// Quorum state transfers completed by amnesiac nodes, cluster-wide.
    #[must_use]
    pub fn state_transfers(&self) -> u64 {
        let snapshot = self.metrics_snapshot();
        snapshot
            .scalar_total("bt_state_transfers_total")
            .unwrap_or(0)
    }

    /// The admin endpoints' addresses, indexed by process id — empty when
    /// [`ClusterOptions::admin`] was off. Stable across node restarts.
    #[must_use]
    pub fn admin_addrs(&self) -> Vec<SocketAddr> {
        self.admins.iter().map(AdminServer::addr).collect()
    }

    /// Scrapes every admin endpoint over HTTP and merges the snapshots —
    /// the same cluster-wide view as [`Cluster::metrics_snapshot`], but
    /// assembled the way an external monitor would assemble it. Nodes that
    /// do not answer within `timeout` are skipped; the second element
    /// lists the addresses that did.
    #[must_use]
    pub fn scrape(&self, timeout: Duration) -> (Snapshot, Vec<SocketAddr>) {
        admin::scrape_all(&self.admin_addrs(), timeout)
    }

    /// Whether node `i` is running: not killed since its last boot, and
    /// its event loop has not died.
    #[must_use]
    pub fn is_up(&self, i: usize) -> bool {
        !self.down[i] && !self.nodes[i].died()
    }

    /// Kills node `i`: stops its event loop abruptly (no protocol goodbye
    /// — peers see a dead connection, exactly as after a crash). The WAL
    /// keeps everything the node journaled and the port stays bound for
    /// the replacement. Idempotent.
    pub fn kill(&mut self, i: usize) {
        self.nodes[i].shutdown();
        self.down[i] = true;
    }

    /// Restarts node `i` from its WAL, now: stops the old incarnation if
    /// it is still running and boots the next one on a clone of the
    /// original listener, the same registry, and `expect_history` set.
    /// Counted in [`Cluster::restarts`].
    ///
    /// # Errors
    ///
    /// `Unsupported` without [`ClusterOptions::recovery`] (a node
    /// rebooted without its journal could equivocate); otherwise the
    /// listener-clone, WAL or spawn failure — the node then stays down.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        if self.wals.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "restart requires ClusterOptions::recovery: \
                 a node rebooted without its WAL could equivocate",
            ));
        }
        self.kill(i);
        self.restarts_used[i] += 1;
        let handle = self.boot(i)?;
        let node = i.to_string();
        self.registries[i]
            .counter(
                "bt_restarts_total",
                "restarts of this node performed by Cluster::restart",
                &[("node", &node)],
            )
            .inc();
        // The admin endpoint keeps its port; point /status at the new
        // incarnation's status cell.
        if let Some(a) = self.admins.get(i) {
            a.set_status(admin::status_source(
                handle.id(),
                self.nodes.len(),
                handle.status_cell(),
                handle.metrics(),
            ));
        }
        self.nodes[i] = handle;
        self.down[i] = false;
        Ok(())
    }

    /// Waits (polling) until every correct node has decided or `timeout`
    /// elapses, then synthesizes the run's [`RunReport`], forwards it to
    /// the subscriber's `on_run_end` (first call only), and returns it.
    ///
    /// An undecided correct node that is down — killed, or its event
    /// loop died — will never decide, since nothing here restarts it: the
    /// wait ends at once, and waiting out the deadline would only
    /// disguise a crash as slowness. Undecided nodes are reported to
    /// stderr with their last observed phases, so a `StepLimitReached`
    /// names who held it up.
    ///
    /// The cluster keeps running afterwards — post-decision traffic (the
    /// paper's exit broadcasts) still flows until [`Cluster::shutdown`].
    pub fn await_verdict(&mut self, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        let undecided = loop {
            let undecided: Vec<(usize, NodeStatus)> = (0..self.nodes.len())
                .filter(|&i| self.roles[i] == Role::Correct)
                .map(|i| (i, self.nodes[i].status()))
                .filter(|(_, st)| st.decision.is_none())
                .collect();
            let hopeless = undecided.iter().any(|&(i, _)| !self.is_up(i));
            if undecided.is_empty() || hopeless || Instant::now() >= deadline {
                break undecided;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let all_decided = undecided.is_empty();
        for (i, st) in &undecided {
            eprintln!(
                "await_verdict: p{i} undecided — phase {}, {} steps, {} restarts{}{}",
                st.phase,
                st.steps,
                self.restarts_used[*i],
                if st.died { ", event loop died" } else { "" },
                if self.down[*i] { ", down" } else { "" }
            );
        }

        let report = synthesize_report(self.roles.clone(), &self.nodes, all_decided);
        if !self.reported {
            self.reported = true;
            if let Some(s) = &self.subscriber {
                s.lock()
                    .expect("subscriber lock poisoned")
                    .on_run_end(&report);
            }
        }
        report
    }

    /// Stops every node and joins all their threads.
    pub fn shutdown(&mut self) {
        for i in 0..self.nodes.len() {
            self.kill(i);
        }
    }
}

/// Synthesizes the [`RunReport`] of a `roles.len()`-process run from the
/// nodes this process can observe: all of them for a [`Cluster`], only
/// its own for `btnode` — the other rows stay unknown, since one node
/// cannot see its peers' decisions.
#[must_use]
pub fn synthesize_report<'a>(
    roles: Vec<Role>,
    nodes: impl IntoIterator<Item = &'a NodeHandle>,
    all_decided: bool,
) -> RunReport {
    let n = roles.len();
    let mut decisions = vec![None; n];
    let mut decision_steps = vec![None; n];
    let mut decision_phases = vec![None; n];
    let mut metrics = Metrics::default();
    let mut steps = 0u64;
    let mut max_phase = 0u64;
    for node in nodes {
        let i = node.id().index();
        let st = node.status();
        decisions[i] = st.decision;
        decision_steps[i] = st.decision_step;
        decision_phases[i] = st.decision_phase;
        steps += st.steps;
        max_phase = max_phase.max(st.phase);
        metrics.messages_sent += node.messages_sent();
        metrics.messages_delivered += node.messages_delivered();
        metrics.messages_dropped += node.messages_dropped();
        metrics.recovered += st.recovered;
        metrics.equivocations += node.equivocations();
    }
    let status = if all_decided {
        RunStatus::Stopped
    } else {
        RunStatus::StepLimitReached
    };
    RunReport::synthesize(
        status,
        decisions,
        roles,
        steps,
        decision_steps,
        decision_phases,
        max_phase,
        metrics,
    )
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether this environment allows binding loopback TCP sockets; tests use
/// it to skip gracefully inside socket-less sandboxes.
#[must_use]
pub fn sockets_available() -> bool {
    TcpListener::bind(("127.0.0.1", 0)).is_ok()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use bt_core::FailStopMsg;
    use simnet::{Ctx, Envelope};

    use super::*;

    #[test]
    fn verdict_counts_and_shapes_are_consistent() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let options = ClusterOptions {
            seed: 11,
            inputs: vec![Value::One; 4],
            ..ClusterOptions::default()
        };
        let mut cluster =
            Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("loopback spawn");
        let report = cluster.await_verdict(Duration::from_secs(30));
        assert_eq!(report.status, RunStatus::Stopped);
        assert_eq!(report.decisions.len(), 4);
        assert!(report.agreement(), "correct nodes agree");
        assert_eq!(
            report.decisions[0],
            Some(Value::One),
            "validity: all-One input"
        );
        assert!(report.metrics.messages_sent > 0);
        cluster.shutdown();
    }

    fn recovering(tag: &str, link_fault: FaultPlan) -> ClusterOptions {
        let wal_dir = std::env::temp_dir().join(format!("btcluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        ClusterOptions {
            seed: 5,
            inputs: vec![Value::One; 4],
            link_fault,
            recovery: Some(RecoveryOptions::in_dir(wal_dir)),
            ..ClusterOptions::default()
        }
    }

    /// A killed node stays down until its caller restarts it; the verdict
    /// must say so at once instead of burning the whole deadline on a
    /// node that nothing will bring back.
    #[test]
    fn a_killed_node_makes_the_verdict_hopeless_at_once() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        // The delay keeps node 1 from deciding before the kill lands.
        let plan =
            FaultPlan::reliable().with_delay(Duration::from_millis(5), Duration::from_millis(10));
        let options = recovering("killed", plan);
        let wal_dir = options.recovery.as_ref().unwrap().wal_dir.clone();
        let mut cluster =
            Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("loopback spawn");
        cluster.kill(1);
        let began = Instant::now();
        let report = cluster.await_verdict(Duration::from_secs(20));
        let took = began.elapsed();
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(wal_dir);

        assert_eq!(report.status, RunStatus::StepLimitReached);
        assert_eq!(report.decisions[1], None, "the victim never decided");
        assert!(took < Duration::from_secs(5), "verdict took {took:?}");
        assert_eq!(cluster.restarts()[1], 0, "nobody restarted the victim");
        assert!(!cluster.is_up(1));
    }

    /// Fail-stop, except that the first delivery to any incarnation of
    /// it panics the event loop.
    #[derive(Debug)]
    struct PanicsOnce {
        inner: FailStop,
        armed: Arc<AtomicBool>,
    }

    impl Process for PanicsOnce {
        type Msg = FailStopMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, FailStopMsg>) {
            self.inner.on_start(ctx);
        }

        fn on_receive(&mut self, env: Envelope<FailStopMsg>, ctx: &mut Ctx<'_, FailStopMsg>) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected: the event loop dies on its first delivery");
            }
            self.inner.on_receive(env, ctx);
        }

        fn decision(&self) -> Option<Value> {
            self.inner.decision()
        }

        fn phase(&self) -> u64 {
            self.inner.phase()
        }
    }

    /// A died event loop is a finding, not something to paper over: the
    /// cluster restarts nobody on its own, so a journaling node whose loop
    /// panics stays down and the verdict names it at once.
    #[test]
    fn a_died_loop_is_a_finding_not_a_restart() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let wal_dir = std::env::temp_dir().join(format!("btcluster-died-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let options = ClusterOptions {
            seed: 9,
            recovery: Some(RecoveryOptions::in_dir(&wal_dir)),
            ..ClusterOptions::default()
        };
        let wals = (0..4)
            .map(|i| wal_dir.join(format!("node{i}.wal")))
            .collect();
        let armed = Arc::new(AtomicBool::new(true));
        let make = move |i: usize, _: &Arc<Registry>| -> io::Result<Hosted<_>> {
            let config = Config::fail_stop(4, 1).expect("within the fail-stop bound");
            let inner = FailStop::new(config, Value::One);
            let process: Box<dyn Process<Msg = _> + Send> = if i == 3 {
                let armed = Arc::clone(&armed);
                Box::new(PanicsOnce { inner, armed })
            } else {
                Box::new(inner)
            };
            Ok((process, None))
        };
        let roles = vec![Role::Correct; 4];
        let mut cluster =
            Cluster::host(4, 1, roles, options, wals, make, None).expect("loopback host");
        let began = Instant::now();
        let report = cluster.await_verdict(Duration::from_secs(20));
        let took = began.elapsed();
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);

        assert_eq!(report.status, RunStatus::StepLimitReached);
        assert!(took < Duration::from_secs(5), "verdict took {took:?}");
        assert!(!cluster.is_up(3), "the died node stays down");
        assert_eq!(cluster.restarts(), &[0; 4], "nobody was restarted");
    }

    /// An explicit restart is the caller's decision: it happens now, on
    /// the same port — and without a WAL it is refused outright.
    #[test]
    fn explicit_restart_is_immediate_and_needs_a_wal() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let options = recovering("explicit", FaultPlan::reliable());
        let wal_dir = options.recovery.as_ref().unwrap().wal_dir.clone();
        let mut cluster =
            Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("loopback spawn");
        let port = cluster.peers()[2];
        cluster.kill(2);
        assert!(!cluster.is_up(2));
        let began = Instant::now();
        cluster.restart(2).expect("restart from WAL");
        let took = began.elapsed();
        assert!(took < Duration::from_secs(1), "restart took {took:?}");
        assert!(cluster.is_up(2));
        assert_eq!(cluster.peers()[2], port, "same port");
        assert_eq!(cluster.restarts(), &[0, 0, 1, 0]);
        let report = cluster.await_verdict(Duration::from_secs(30));
        assert_eq!(report.status, RunStatus::Stopped);
        assert!(report.agreement());
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(wal_dir);

        let mut ephemeral = Cluster::spawn(4, 1, Proto::FailStop, ClusterOptions::default(), None)
            .expect("loopback spawn");
        ephemeral.kill(0);
        let refused = ephemeral.restart(0).expect_err("no WAL, no restart");
        assert_eq!(refused.kind(), io::ErrorKind::Unsupported);
        assert!(!ephemeral.is_up(0));
    }

    #[test]
    fn proto_names_parse() {
        assert_eq!("failstop".parse(), Ok(Proto::FailStop));
        assert_eq!("benor".parse(), Ok(Proto::BenOr));
        assert!("rsm".parse::<Proto>().is_err());
    }

    #[test]
    fn sockets_probe_is_callable() {
        // Either answer is fine; the probe itself must not panic.
        let _ = sockets_available();
    }
}
