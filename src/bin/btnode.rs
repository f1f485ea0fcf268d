//! `btnode` — boot one networked consensus node from the command line.
//!
//! Usage:
//!
//! ```text
//! btnode --id I --n N --k K --proto failstop|simple|malicious|benor|rsm \
//!        [--input 0|1] --listen HOST:PORT --peer HOST:PORT [--peer ...] \
//!        [--seed S] [--timeout SECS] [--jsonl PATH] [--admin PORT] \
//!        [--client PORT] [--window W] [--max-batch B]
//! ```
//!
//! `--peer` must appear exactly `N` times, in process-id order; entry `I`
//! is this node's own address (nothing dials a node as itself — the node
//! refuses such a connection — so it is only positional). Start all `N`
//! nodes in any order — dials retry with backoff until the whole cluster
//! is up, so there is no required boot sequence. The process exits 0 once
//! this node decides, printing the decision, or 1 on timeout.
//!
//! With `--jsonl` the node writes its own perspective of the run (its
//! events only — each node sees its own trace) as `obs`-format JSONL
//! consumable by `btreport`.
//!
//! # Crash recovery
//!
//! With `--wal PATH` the node journals every delivery to a write-ahead
//! log *before* acting on it (log-before-send); booting on an existing
//! WAL recovers the pre-crash state and re-sends the unacknowledged
//! backlog byte-for-byte, so a restart can never turn into equivocation.
//!
//! `--supervise` (requires `--wal`) adds the supervisor: the parent
//! binds the listening socket once, hands a duplicate of it to a worker
//! child via stdin, and if the worker dies to a signal (SIGKILL, SIGSEGV,
//! OOM-killer) restarts it from the WAL — on the *same* port, with
//! jittered exponential backoff, up to `--max-restarts` times (default
//! 4). Normal exits, success or timeout, are propagated as-is.
//!
//! # Live telemetry
//!
//! `--admin PORT` serves the node's runtime metrics while it runs: an
//! HTTP/1.0 endpoint on the listen host at `PORT` answering `/metrics`
//! (Prometheus text exposition), `/metrics.json` (the same snapshot as
//! JSON), and `/status` (decision, phase, per-peer link liveness). Point
//! `btstat` — or anything that speaks HTTP — at it. Under `--supervise`
//! the admin port, like the protocol port, survives worker restarts
//! because each worker incarnation binds it afresh after the old worker
//! died.
//!
//! # The replicated log (`--proto rsm`)
//!
//! `--proto rsm` runs the node as one replica of the multi-decree
//! replicated log (see `docs/RSM.md`) instead of a one-shot consensus:
//! `--client PORT` (required) serves the length-prefixed client API on
//! the listen host, and `--window`/`--max-batch` tune the replica's
//! pipelining and batching. The node's one event loop serves the client
//! port too: each proposal enters the replica as its own journaled input
//! in the wakeup that read it, and no thread runs per client. `--input`
//! does not apply;
//! `--timeout` becomes the serving duration (0 = serve until killed). The
//! `/status` admin endpoint gains an `rsm` section (applied slots, log
//! digest, command counters), and `--supervise`/`--wal` work unchanged —
//! a SIGKILLed replica restarts from its journal and rejoins without
//! equivocation, resuming its client service on the same port.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bt_core::Config;
use netstack::admin::AdminServer;
use netstack::{
    jittered, spawn, spawn_proto, synthesize_report, FaultPlan, NodeConfig, NodeFault, NodeHandle,
    Proto,
};
use obs::metrics::Registry;
use obs::JsonlSink;
use rsm::RsmOptions;
use simnet::{ProcessId, Role, SharedSubscriber, Subscriber, Value};

const USAGE: &str = "usage: btnode --id I --n N --k K \
--proto failstop|simple|malicious|benor|rsm [--input 0|1] \
--listen HOST:PORT --peer HOST:PORT [--peer ...] \
[--seed S] [--timeout SECS] [--jsonl PATH] [--admin PORT] \
[--client PORT] [--window W] [--max-batch B] \
[--wal PATH [--snapshot-every STEPS] [--supervise] [--max-restarts R]]";

struct Args {
    id: usize,
    n: usize,
    k: usize,
    /// The one-shot protocol to run; `None` is `--proto rsm`.
    proto: Option<Proto>,
    input: Option<Value>,
    /// Client-API port for `--proto rsm`.
    client: Option<u16>,
    /// `--window`/`--max-batch` over the replica's defaults.
    replica: RsmOptions,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    seed: u64,
    timeout: Duration,
    jsonl: Option<String>,
    admin: Option<u16>,
    wal: Option<PathBuf>,
    snapshot_every: u64,
    supervise: bool,
    max_restarts: u32,
    /// Internal (set by the supervisor on the worker it spawns): the
    /// listening socket is inherited on stdin instead of bound fresh.
    listen_stdin: bool,
    /// Internal (set by the supervisor on respawns): this boot follows a
    /// crash that journaled at least a boot record, so an empty WAL means
    /// the log was lost — boot amnesiac instead of starting fresh.
    expect_wal: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut n = None;
    let mut k = None;
    let mut proto = None;
    let mut input = None;
    let mut client = None;
    let mut replica = RsmOptions::default();
    let mut listen = None;
    let mut peers = Vec::new();
    let mut seed = 0u64;
    let mut timeout = Duration::from_secs(60);
    let mut jsonl = None;
    let mut admin = None;
    let mut wal = None;
    let mut snapshot_every = 0u64;
    let mut supervise = false;
    let mut max_restarts = 4u32;
    let mut listen_stdin = false;
    let mut expect_wal = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(parse(&value("--id")?, "--id")?),
            "--n" => n = Some(parse(&value("--n")?, "--n")?),
            "--k" => k = Some(parse(&value("--k")?, "--k")?),
            "--proto" => {
                proto = Some(match value("--proto")?.as_str() {
                    "rsm" => None,
                    name => Some(name.parse::<Proto>()?),
                });
            }
            "--input" => {
                input = Some(match value("--input")?.as_str() {
                    "0" => Value::Zero,
                    "1" => Value::One,
                    other => return Err(format!("--input must be 0 or 1, got {other}")),
                });
            }
            "--client" => client = Some(parse(&value("--client")?, "--client")?),
            "--window" => replica.window = parse(&value("--window")?, "--window")?,
            "--max-batch" => replica.max_batch = parse(&value("--max-batch")?, "--max-batch")?,
            "--listen" => listen = Some(parse_addr(&value("--listen")?)?),
            "--peer" => peers.push(parse_addr(&value("--peer")?)?),
            "--seed" => seed = parse(&value("--seed")?, "--seed")?,
            "--timeout" => {
                timeout = Duration::from_secs(parse(&value("--timeout")?, "--timeout")?);
            }
            "--jsonl" => jsonl = Some(value("--jsonl")?),
            "--admin" => admin = Some(parse(&value("--admin")?, "--admin")?),
            "--wal" => wal = Some(PathBuf::from(value("--wal")?)),
            "--snapshot-every" => {
                snapshot_every = parse(&value("--snapshot-every")?, "--snapshot-every")?;
            }
            "--supervise" => supervise = true,
            "--max-restarts" => max_restarts = parse(&value("--max-restarts")?, "--max-restarts")?,
            "--listen-stdin" => listen_stdin = true,
            "--expect-wal" => expect_wal = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let args = Args {
        id: id.ok_or("--id is required")?,
        n: n.ok_or("--n is required")?,
        k: k.ok_or("--k is required")?,
        proto: proto.ok_or("--proto is required")?,
        input,
        client,
        replica,
        listen: listen.ok_or("--listen is required")?,
        peers,
        seed,
        timeout,
        jsonl,
        admin,
        wal,
        snapshot_every,
        supervise,
        max_restarts,
        listen_stdin,
        expect_wal,
    };
    if args.proto.is_none() {
        if args.client.is_none() {
            return Err("--proto rsm requires --client PORT (the client-API port)".to_string());
        }
        if args.jsonl.is_some() {
            return Err("--jsonl applies to one-shot runs, not --proto rsm".to_string());
        }
        if args.replica.window == 0 || args.replica.max_batch == 0 {
            return Err("--window and --max-batch must be at least 1".to_string());
        }
    } else if args.input.is_none() {
        return Err("--input is required (except under --proto rsm)".to_string());
    }
    if args.supervise && args.wal.is_none() {
        return Err(
            "--supervise requires --wal: a worker restarted without its \
             journal could equivocate"
                .to_string(),
        );
    }
    if args.peers.len() != args.n {
        return Err(format!(
            "--peer must appear exactly n={} times (got {}), in process-id order",
            args.n,
            args.peers.len()
        ));
    }
    if args.id >= args.n {
        return Err(format!("--id {} is outside 0..{}", args.id, args.n));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot parse {s:?} as a number"))
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {s:?} as HOST:PORT"))
}

fn main() -> ExitCode {
    let outcome = parse_args()
        .map_err(|err| format!("{err}\n{USAGE}"))
        .and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("btnode: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the node (or its supervisor) to completion: `Ok(true)` when it
/// decided — or, under `--proto rsm`, served its full duration — and
/// `Ok(false)` when it ran out of time; `Err` is a setup failure.
fn run(args: &Args) -> Result<bool, String> {
    if args.supervise {
        return run_supervisor(args);
    }
    let listener = if args.listen_stdin {
        listener_from_stdin().map_err(|e| format!("cannot inherit listener from stdin: {e}"))?
    } else {
        TcpListener::bind(args.listen).map_err(|e| format!("cannot bind {}: {e}", args.listen))?
    };
    let Some(proto) = args.proto else {
        return run_rsm(args, listener);
    };

    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    let subscriber: Option<SharedSubscriber> = if args.jsonl.is_some() {
        sink.lock()
            .expect("sink lock")
            .on_run_start(args.n, args.seed);
        Some(sink.clone() as SharedSubscriber)
    } else {
        None
    };

    // Each worker incarnation gets a fresh registry; under --supervise
    // the counters' pre-crash values live in the WAL's replay, not in
    // memory.
    let mut node = spawn_proto(
        proto,
        args.input.expect("validated in parse_args"),
        NodeFault::Correct,
        node_config(args, None),
        listener,
        args.peers.clone(),
        subscriber,
    )
    .map_err(|e| format!("cannot boot node: {e}"))?;
    let _admin = serve_admin(args, &node)?;

    // Wait for this node's decision (or the deadline).
    let deadline = Instant::now() + args.timeout;
    let mut reported_amnesiac = false;
    let mut reported_transfer = false;
    let decided = loop {
        let status = node.status();
        if status.amnesiac && !reported_amnesiac {
            reported_amnesiac = true;
            eprintln!(
                "btnode: p{} booted amnesiac (WAL unsafe or missing); \
                 requesting quorum state transfer",
                args.id
            );
        }
        if status.state_transferred && !reported_transfer {
            reported_transfer = true;
            eprintln!(
                "btnode: p{} completed quorum state transfer; rejoined as learner",
                args.id
            );
        }
        if let Some(value) = status.decision {
            println!(
                "p{} decided {:?} in phase {} after {} steps",
                args.id,
                value,
                status.decision_phase.unwrap_or(0),
                status.steps,
            );
            break true;
        }
        if Instant::now() >= deadline {
            eprintln!("btnode: p{} undecided after {:?}", args.id, args.timeout);
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    // Post-decision grace: let exit broadcasts drain so peers can finish.
    if decided {
        std::thread::sleep(Duration::from_millis(300));
    }
    node.shutdown();

    // The final summary surfaces what the run went through, not just how
    // it ended: deliveries replayed from the WAL at boot and equivocation
    // attempts observed on the wire would otherwise vanish with the
    // process.
    let status = node.status();
    println!(
        "p{} summary: recovered={} equivocations={} retransmits={} reconnects={} \
         seq_gaps={} wal_corruptions={} state_transferred={}",
        args.id,
        status.recovered,
        node.equivocations(),
        node.retransmits(),
        node.reconnects(),
        node.seq_gaps(),
        node.wal_corruptions(),
        status.state_transferred,
    );

    if let Some(path) = &args.jsonl {
        // This node's perspective of the run: only its own row is known.
        let report = synthesize_report(vec![Role::Correct; args.n], [&node], decided);
        let mut sink = sink.lock().expect("sink lock");
        sink.on_run_end(&report);
        sink.write_to_file(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(decided)
}

/// Live telemetry: with `--admin PORT`, serves the node's `/metrics` and
/// `/status` on the listen host for as long as the returned server lives.
fn serve_admin(args: &Args, node: &NodeHandle) -> Result<Option<AdminServer>, String> {
    let Some(port) = args.admin else {
        return Ok(None);
    };
    let bind = SocketAddr::new(args.listen.ip(), port);
    let server = netstack::admin::serve_node(bind, node, args.n)
        .map_err(|e| format!("cannot bind admin endpoint {bind}: {e}"))?;
    eprintln!("btnode: admin endpoint on http://{}/metrics", server.addr());
    Ok(Some(server))
}

/// The worker side of `--supervise`: the parent passed a duplicate of the
/// listening socket as our stdin; reclaim it with safe std conversions.
fn listener_from_stdin() -> std::io::Result<TcpListener> {
    use std::os::fd::AsFd;
    let fd = std::io::stdin().as_fd().try_clone_to_owned()?;
    let listener = TcpListener::from(fd);
    // Sanity: stdin must actually be a listening TCP socket, not a pipe.
    listener.local_addr()?;
    Ok(listener)
}

/// The parent side of `--supervise`: bind the port once, run the worker
/// on a duplicate of the socket, and restart it from the WAL — same port,
/// jittered exponential backoff, bounded by `--max-restarts` — whenever
/// it dies to a signal. Normal worker exits (decided, timed out, usage
/// errors) are propagated unchanged.
fn run_supervisor(args: &Args) -> Result<bool, String> {
    use std::os::fd::OwnedFd;
    use std::process::{Command, Stdio};

    let listener =
        TcpListener::bind(args.listen).map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    // The worker runs with our exact arguments minus --supervise, plus
    // the marker telling it the socket arrives on stdin.
    let worker_args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--supervise")
        .chain(std::iter::once("--listen-stdin".to_string()))
        .collect();

    let mut jitter = prng::Prng::seed_from_u64(args.seed ^ 0x7375_7056_6274u64);
    let mut restarts = 0u32;
    let mut backoff = Duration::from_millis(10);
    loop {
        let socket = listener
            .try_clone()
            .map_err(|e| format!("cannot duplicate listener for worker: {e}"))?;
        // From the first restart on, the worker follows a crash whose WAL
        // journaled at least the boot record: an empty or vanished log is
        // then amnesia, not a fresh start.
        let mut incarnation_args = worker_args.clone();
        if restarts > 0 && !incarnation_args.iter().any(|a| a == "--expect-wal") {
            incarnation_args.push("--expect-wal".to_string());
        }
        let status = Command::new(&exe)
            .args(&incarnation_args)
            .stdin(Stdio::from(OwnedFd::from(socket)))
            .status()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        if status.code().is_some() {
            // Clean exit — the worker decided (0) or gave up (1).
            return Ok(status.success());
        }
        // Signal death: the crash the WAL exists for.
        if restarts >= args.max_restarts {
            return Err(format!(
                "worker for p{} killed again; restart budget ({}) exhausted",
                args.id, args.max_restarts
            ));
        }
        restarts += 1;
        // Jittered exponential backoff: 10ms · 2^r nominal.
        let wait = jittered(backoff, jitter.next_u64());
        backoff = backoff.saturating_mul(2);
        eprintln!(
            "btnode: worker for p{} died to a signal; restarting from WAL \
             in {wait:?} (attempt {restarts}/{})",
            args.id, args.max_restarts
        );
        std::thread::sleep(wait);
    }
}

/// This process's one node, as `--id`/`--n`/`--k`/`--seed`/`--wal` and
/// friends describe it, recording into `metrics` (or a registry of its
/// own).
fn node_config(args: &Args, metrics: Option<Arc<Registry>>) -> NodeConfig {
    NodeConfig {
        id: ProcessId::new(args.id),
        n: args.n,
        seed: args.seed.wrapping_add(args.id as u64),
        k: args.k,
        fault: FaultPlan::reliable(),
        expect_history: args.expect_wal,
        wal: args.wal.clone(),
        snapshot_every: args.snapshot_every,
        metrics,
    }
}

/// `--proto rsm`: run this node as one replica of the replicated log,
/// serving the client API on `--client` until `--timeout` elapses (0 =
/// until killed) or the event loop dies.
fn run_rsm(args: &Args, listener: TcpListener) -> Result<bool, String> {
    use netstack::node::ClientPort;
    use obs::json::Json;
    use rsm::{LogView, Replica, ServiceCore};

    let config = Config::malicious(args.n, args.k).map_err(|e| e.to_string())?;
    let me = ProcessId::new(args.id);
    let registry = Arc::new(Registry::new());
    let view = LogView::new();
    let replica = Replica::new(config, me, args.replica)
        .with_view(view.clone())
        .with_metrics(&registry);

    let client_port = args.client.expect("validated in parse_args");
    let client_bind = SocketAddr::new(args.listen.ip(), client_port);
    let client_listener = TcpListener::bind(client_bind)
        .map_err(|e| format!("cannot bind client port {client_bind}: {e}"))?;
    let client_addr = client_listener.local_addr().map_err(|e| e.to_string())?;
    let client = ClientPort {
        listener: client_listener,
        service: Box::new(ServiceCore::new(view.clone(), &registry, me)),
    };
    let cfg = node_config(args, Some(Arc::clone(&registry)));
    let peers = args.peers.clone();
    let mut node = spawn(cfg, listener, peers, Box::new(replica), None, Some(client))
        .map_err(|e| format!("cannot boot rsm replica: {e}"))?;
    eprintln!(
        "btnode: rsm replica p{} serving clients on {client_addr}",
        args.id
    );

    // Admin endpoint with the node's status plus an `rsm` section.
    let admin = serve_admin(args, &node)?;
    if let Some(admin) = &admin {
        let base = netstack::admin::status_source(me, args.n, node.status_cell(), node.metrics());
        let status_view = view.clone();
        admin.set_status(Box::new(move || {
            let Json::Obj(mut fields) = base() else {
                return Json::Null;
            };
            let rsm = status_view.with(|a| {
                Json::Obj(vec![
                    ("applied".into(), Json::num(a.next_slot())),
                    ("digest".into(), Json::str(format!("{:016x}", a.digest()))),
                    ("applied_commands".into(), Json::num(a.applied_commands)),
                    ("deduped_commands".into(), Json::num(a.deduped_commands)),
                    ("kv_len".into(), Json::num(a.kv.len() as u64)),
                ])
            });
            fields.push(("rsm".into(), rsm));
            Json::Obj(fields)
        }));
    }

    // Serve until the deadline (0 = forever) or the event loop dies.
    let deadline = (args.timeout > Duration::ZERO).then(|| Instant::now() + args.timeout);
    let healthy = loop {
        if node.died() {
            eprintln!("btnode: rsm replica p{} event loop died", args.id);
            break false;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break true;
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    node.shutdown();
    let (applied, digest, commands) =
        view.with(|a| (a.next_slot(), a.digest(), a.applied_commands));
    println!(
        "p{} rsm summary: applied={applied} digest={digest:016x} commands={commands} recovered={}",
        args.id,
        node.status().recovered,
    );
    Ok(healthy)
}
