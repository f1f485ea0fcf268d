//! The loopback workloads: a five-node `rsm::RsmCluster` on 127.0.0.1
//! with WALs on, driven through its client ports by `min(nproc, 2)`
//! connections with one op in flight each. No delay is injected between
//! nodes, so latency is processor, syscall and timer time only.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use netstack::{drain_frames, encode_chunk, fnv1a64, DeliveryRecord, Frame, Wal, WalRecord};
use obs::metrics::{Gauge, HistogramSnapshot, Registry, SeriesValue, Snapshot};
use prng::Prng;
use rsm::service::{read_client_msg, write_client_msg};
use rsm::{ClientReq, ClientResp, Op, RsmCluster, RsmClusterOptions, RsmMsg};
use simnet::Wire;

use crate::micro;
use crate::spec::{Metrics, Outcome, RunArgs};
use crate::stats;
use crate::steal;
use crate::trace::Span;
use crate::verify::{check_puts, check_reads, AckedPut, AnsweredRead};

const NODES: usize = 5;
/// The node `loopback-kill` kills: a follower of both clients' nodes.
const VICTIM: usize = 4;
/// An op slower than this counts as failed.
const OP_LIMIT: Duration = Duration::from_millis(1_000);
/// How long a client waits for a response before giving the op up.
const READ_TIMEOUT: Duration = Duration::from_secs(3);
/// The same for set-up and pre-fill, which are not measured and retry
/// until committed: longer than the service's own 10 s propose timeout,
/// so every request is answered, however slow the host is running.
const PATIENT_TIMEOUT: Duration = Duration::from_secs(15);
/// Clusters set up per run, the last of which the workload runs on. The
/// first in a process is cold and takes 3-8 times as long as the rest;
/// the median of five is the middle one of the warm four.
const SETUP_REPS: usize = 5;
/// What one set-up commit, or the whole pre-fill, may take with retries
/// before the run is given up (a run must end within 180 s).
const SETUP_LIMIT: Duration = Duration::from_secs(30);
const PREFILL_LIMIT: Duration = Duration::from_secs(90);
const WORKING_SET: usize = 1_024;
/// `loopback-kill` sends on a fixed schedule of 40 ops/s per client.
const KILL_PERIOD: Duration = Duration::from_millis(25);
const RESTART_AFTER: Duration = Duration::from_millis(500);
/// How often the traced run samples gauges that only hold a current
/// value.
const POLL: Duration = Duration::from_millis(20);
/// The closed-loop window is judged by its best quartile of slices.
const SLICE: Duration = Duration::from_secs(1);

/// What the clients send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop, unique key + 64 B value.
    Put,
    /// Closed loop, alternating 4 KiB put and read over a working set.
    Mixed4k,
    /// Scheduled 64 B puts while one node is killed and restarted.
    Kill,
}

/// Client connections: one per core, at most two.
fn client_count() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One client connection speaking the service protocol, with the write
/// and the wait for the response timed apart.
struct Conn {
    stream: TcpStream,
    addr: SocketAddr,
    timeout: Duration,
}

impl Conn {
    fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            addr,
            timeout,
        })
    }

    /// Replaces the stream with a fresh one to the same node: after a
    /// timed-out read a late response would desynchronise the old one.
    /// A refused dial is retried for a second.
    fn reconnect(&mut self) -> io::Result<()> {
        let give_up = Instant::now() + Duration::from_secs(1);
        loop {
            match Conn::connect(self.addr, self.timeout) {
                Ok(fresh) => {
                    *self = fresh;
                    return Ok(());
                }
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends `req`; returns the response and when the write finished.
    fn call(&mut self, req: &ClientReq) -> io::Result<(ClientResp, Instant)> {
        write_client_msg(&mut self.stream, req)?;
        let written = Instant::now();
        Ok((read_client_msg(&mut self.stream)?, written))
    }

    /// Sends the put `req` until the service acknowledges it as
    /// committed. A busy or timed-out verdict and a lost connection are
    /// retried under the same request id, which the service applies once.
    /// For set-up and pre-fill: unmeasured work that a slow spell of the
    /// host must not fail.
    fn commit(&mut self, req: &ClientReq, give_up: Instant) -> io::Result<()> {
        loop {
            let verdict = match self.call(req) {
                Ok((ClientResp::Committed { .. }, _)) => return Ok(()),
                Ok((other, _)) => format!("answered {other:?}"),
                Err(e) => {
                    self.reconnect()?;
                    e.to_string()
                }
            };
            if Instant::now() >= give_up {
                return Err(io::Error::other(format!("put not committed: {verdict}")));
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Put,
    Read,
}

/// One client op's timeline.
#[derive(Clone, Debug)]
struct OpRecord {
    kind: Kind,
    /// When the op was due: the schedule slot in the open loop, the
    /// moment the previous op finished in the closed loop.
    due: Instant,
    sent: Instant,
    written: Instant,
    done: Instant,
    ok: bool,
    /// How late the generator itself ran: `sent` minus the later of
    /// `due` and the previous op's completion.
    lag: Duration,
}

impl OpRecord {
    /// Latency from the due time, so an op queued behind a stall is
    /// charged for the wait.
    fn latency(&self) -> Duration {
        self.done - self.due
    }

    fn failed(&self) -> bool {
        !self.ok || self.latency() > OP_LIMIT
    }
}

/// Everything one client thread saw.
#[derive(Default)]
struct ClientLog {
    ops: Vec<OpRecord>,
    acked: Vec<AckedPut>,
    reads: Vec<AnsweredRead>,
}

/// Generates one client's requests from the seed.
struct Gen {
    rng: Prng,
    load: Load,
    client: u64,
    request: u64,
}

fn working_key(i: usize) -> Vec<u8> {
    format!("w{i}").into_bytes()
}

fn value(rng: &mut Prng, len: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..len.div_ceil(8))
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    v.truncate(len);
    v
}

impl Gen {
    fn new(seed: u64, load: Load, client: u64) -> Gen {
        Gen {
            rng: Prng::seed_from_u64(seed ^ client.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            load,
            client,
            request: 0,
        }
    }

    fn put(&mut self, key: Vec<u8>, len: usize) -> ClientReq {
        self.request += 1;
        ClientReq::Propose {
            client: self.client,
            request: self.request,
            op: Op::Put {
                key,
                value: value(&mut self.rng, len),
            },
        }
    }

    fn next(&mut self, nth: u64) -> ClientReq {
        match self.load {
            Load::Put | Load::Kill => {
                let key = format!("p{}-{}", self.client, self.request + 1).into_bytes();
                self.put(key, 64)
            }
            Load::Mixed4k => {
                let key = working_key(self.rng.index(WORKING_SET));
                if nth.is_multiple_of(2) {
                    self.put(key, 4096)
                } else {
                    ClientReq::Read { key }
                }
            }
        }
    }
}

/// When a client's ops are due.
#[derive(Clone, Copy)]
enum Pace {
    /// Send the next op when the previous one completes.
    Closed,
    /// Send op `i` at `first + i·period`, one in flight: an op whose
    /// slot passed while its predecessor was stalled goes out at once
    /// and is timed from its slot.
    Scheduled { first: Instant, period: Duration },
}

/// Drives one connection until `end`, recording every op.
fn run_client(addr: SocketAddr, mut gen: Gen, pace: Pace, end: Instant) -> io::Result<ClientLog> {
    let mut conn = Conn::connect(addr, READ_TIMEOUT)?;
    let mut log = ClientLog::default();
    let mut prev_done = Instant::now();
    for nth in 0u64.. {
        let due = match pace {
            Pace::Closed => prev_done,
            Pace::Scheduled { first, period } => first + period * nth as u32,
        };
        if due.max(Instant::now()) >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let req = gen.next(nth);
        let sent = Instant::now();
        let result = conn.call(&req);
        let done = Instant::now();
        let (ok, written) = match (&req, &result) {
            (ClientReq::Propose { .. }, Ok((ClientResp::Committed { .. }, written))) => {
                log.acked.extend(AckedPut::of(&req));
                (true, *written)
            }
            (ClientReq::Read { key }, Ok((ClientResp::Value { value }, written))) => {
                log.reads.push(AnsweredRead {
                    key: key.clone(),
                    value_digest: value.as_deref().map(fnv1a64),
                });
                (true, *written)
            }
            // Busy, Timeout, a mismatched response or a transport error:
            // the op failed; a late response would desynchronise the
            // stream, so start over on a fresh connection.
            (_, Ok((_, written))) => (false, *written),
            (_, Err(_)) => {
                conn.reconnect()?;
                (false, done)
            }
        };
        log.ops.push(OpRecord {
            kind: match req {
                ClientReq::Read { .. } => Kind::Read,
                _ => Kind::Put,
            },
            due,
            sent,
            written,
            done,
            ok,
            lag: sent - due.max(prev_done),
        });
        prev_done = done;
    }
    Ok(log)
}

/// Boots a cluster journaling under `dir` and commits one put through
/// node 0; returns it with the set-up time: the seconds `start` took plus
/// the seconds the first put took.
///
/// Between the two the client connects and makes one `Info` exchange,
/// untimed: the service polls for new connections every 5 ms, and a
/// client that dials 2.4 ms or 2.6 ms after the poll waits 2.6 ms or
/// 2.4 ms + 5 ms — timed through, ten runs' set-up times fell into two
/// heaps, 3.5 ms and 7.4 ms, that a 5 % change in start-up speed moves
/// a run between.
fn start_cluster(seed: u64, dir: &Path) -> io::Result<(RsmCluster, f64)> {
    let t0 = Instant::now();
    let mut opts = RsmClusterOptions::new(NODES, dir.to_path_buf());
    opts.seed = seed;
    let cluster = RsmCluster::start(opts)?;
    let started = t0.elapsed();
    let mut conn = Conn::connect(cluster.client_addr(0), PATIENT_TIMEOUT)?;
    // A failed exchange is `commit`'s to repair.
    let _ = conn.call(&ClientReq::Info);
    let first = ClientReq::Propose {
        client: u64::MAX,
        request: 1,
        op: Op::Put {
            key: b"setup".to_vec(),
            value: b"first".to_vec(),
        },
    };
    let t1 = Instant::now();
    conn.commit(&first, t1 + SETUP_LIMIT)?;
    Ok((cluster, (started + t1.elapsed()).as_secs_f64()))
}

/// Writes every working-set key once, through 32 connections to one
/// node so its leader turns carry full batches instead of a slot per
/// key.
fn prefill(cluster: &RsmCluster, seed: u64) -> io::Result<Vec<AckedPut>> {
    const FILLERS: usize = 32;
    let addrs = [cluster.client_addr(0)];
    let give_up = Instant::now() + PREFILL_LIMIT;
    thread::scope(|s| {
        let fillers: Vec<_> = (0..FILLERS)
            .map(|f| {
                let addr = addrs[f % addrs.len()];
                s.spawn(move || -> io::Result<Vec<AckedPut>> {
                    let mut gen = Gen::new(seed, Load::Mixed4k, 1_000 + f as u64);
                    let mut conn = Conn::connect(addr, PATIENT_TIMEOUT)?;
                    let mut acked = Vec::new();
                    for i in (f..WORKING_SET).step_by(FILLERS) {
                        let req = gen.put(working_key(i), 4096);
                        conn.commit(&req, give_up)?;
                        acked.extend(AckedPut::of(&req));
                    }
                    Ok(acked)
                })
            })
            .collect();
        let mut all = Vec::new();
        for f in fillers {
            all.extend(f.join().expect("pre-fill thread panicked")?);
        }
        Ok(all)
    })
}

/// Registry readings at the two edges of the measured window, merged
/// across nodes.
struct Window {
    before: Snapshot,
    after: Snapshot,
}

fn snapshot_all(registries: &[Arc<Registry>]) -> Snapshot {
    let mut merged = Snapshot::default();
    for r in registries {
        merged.merge(&r.snapshot());
    }
    merged
}

/// The histogram of `name` over series carrying `label` (all series
/// when `None`).
fn histogram(
    snap: &Snapshot,
    name: &str,
    label: Option<(&str, &str)>,
) -> Option<HistogramSnapshot> {
    let mut total: Option<HistogramSnapshot> = None;
    for (labels, value) in &snap.families.get(name)?.series {
        let wanted = label.is_none_or(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v));
        if let (true, SeriesValue::Histogram(h)) = (wanted, value) {
            total
                .get_or_insert_with(HistogramSnapshot::default)
                .merge(h);
        }
    }
    total
}

impl Window {
    /// How much counter `name` grew over the window; `None` if the
    /// series is absent.
    fn counter(&self, name: &str) -> Option<f64> {
        let after = self.after.scalar_total(name)?;
        Some((after - self.before.scalar_total(name).unwrap_or(0)) as f64)
    }

    /// The observations histogram `name` gained over the window.
    fn hist(&self, name: &str, label: Option<(&str, &str)>) -> Option<HistogramSnapshot> {
        let mut delta = histogram(&self.after, name, label)?;
        if let Some(before) = histogram(&self.before, name, label) {
            delta.count -= before.count;
            delta.sum = delta.sum.wrapping_sub(before.sum);
            for (idx, count) in &mut delta.buckets {
                if let Ok(i) = before.buckets.binary_search_by_key(idx, |b| b.0) {
                    *count -= before.buckets[i].1;
                }
            }
            delta.buckets.retain(|b| b.1 > 0);
        }
        Some(delta)
    }
}

const ABSENT: &str = "the series is absent from the registries";
const EMPTY: &str = "no observation fell in the measured window";

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// What the kill schedule observed.
struct KillReport {
    killed_at: Instant,
    restarted_at: Instant,
    /// What the surviving nodes had applied when the victim came back.
    applied_at_restart: u64,
    caught_up_at: Option<Instant>,
}

/// What the main thread gathered while the clients ran.
struct Watch {
    window: Window,
    wal_growth: i64,
    pipeline_peak: u64,
    /// Time the traced run's gauge polling kept the main thread busy.
    poll_busy: Duration,
    kill: Option<KillReport>,
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
}

/// Runs on the main thread from warm-up to `end`: reads the registries
/// at the window's edges, executes the kill schedule, and (traced)
/// polls the gauges.
fn watch(
    cluster: &mut RsmCluster,
    args: &RunArgs,
    load: Load,
    start: Instant,
    end: Instant,
) -> io::Result<Watch> {
    let registries: Vec<Arc<Registry>> = (0..NODES).map(|i| cluster.registry(i)).collect();
    let open: Vec<Gauge> = registries
        .iter()
        .enumerate()
        .map(|(i, r)| r.gauge("rsm_pipeline_open", "", &[("node", &i.to_string())]))
        .collect();
    let wal_dir = args.scratch.join("wal");

    sleep_until(start);
    let before = snapshot_all(&registries);
    let wal_before = dir_bytes(&wal_dir);

    let kill_at = start + (end - start).mul_f64(0.4);
    let applied =
        |cluster: &RsmCluster, i: usize| cluster.view(i).with(rsm::AppliedState::next_slot);
    let survivors = |cluster: &RsmCluster| {
        (0..NODES)
            .filter(|&i| i != VICTIM)
            .map(|i| applied(cluster, i))
            .min()
            .expect("four survivors")
    };
    let mut kill: Option<KillReport> = None;
    let (mut pipeline_peak, mut poll_busy) = (0u64, Duration::ZERO);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if load == Load::Kill && kill.is_none() && now >= kill_at {
            let killed_at = Instant::now();
            cluster.kill(VICTIM);
            thread::sleep(RESTART_AFTER);
            cluster.restart(VICTIM)?;
            kill = Some(KillReport {
                killed_at,
                restarted_at: Instant::now(),
                applied_at_restart: survivors(cluster),
                caught_up_at: None,
            });
        }
        if let Some(k) = kill.as_mut().filter(|k| k.caught_up_at.is_none()) {
            // Caught up: commits have resumed, and the victim has applied
            // as much as the slowest node that never went down.
            let others = survivors(cluster);
            if others > k.applied_at_restart && applied(cluster, VICTIM) >= others {
                k.caught_up_at = Some(Instant::now());
            }
        }
        if args.trace {
            let t0 = Instant::now();
            pipeline_peak = pipeline_peak.max(open.iter().map(Gauge::get).max().unwrap_or(0));
            poll_busy += t0.elapsed();
        }
        let catching_up = kill.as_ref().is_some_and(|k| k.caught_up_at.is_none());
        let next = if catching_up { POLL / 10 } else { POLL };
        let deadline = if kill.is_none() && load == Load::Kill {
            end.min(kill_at)
        } else {
            end
        };
        sleep_until(deadline.min(Instant::now() + next));
    }
    let after = snapshot_all(&registries);
    Ok(Watch {
        window: Window { before, after },
        wal_growth: dir_bytes(&wal_dir) as i64 - wal_before as i64,
        pipeline_peak,
        poll_busy,
        kill,
    })
}

/// Runs one loopback workload.
///
/// # Errors
///
/// An error means the workload could not run at all (no sockets, a node
/// failed to boot, a client could not connect): there is no result.
pub fn run(args: &RunArgs, load: Load) -> Result<Outcome, String> {
    if !netstack::sockets_available() {
        return Err("loopback sockets are unavailable: no loopback result can be measured".into());
    }
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: io::Error| format!("{what}: {e}")
    };

    // Set-up, several times over: throwaway clusters first, then the one
    // the workload runs on.
    let mut setup = Vec::new();
    for rep in 0..if args.quick { 0 } else { SETUP_REPS - 1 } {
        let dir = args.scratch.join(format!("setup{rep}"));
        let (mut cluster, s) = start_cluster(args.seed, &dir).map_err(io_err("set-up"))?;
        setup.push(s);
        cluster.shutdown();
    }
    let (mut cluster, s) =
        start_cluster(args.seed, &args.scratch.join("wal")).map_err(io_err("set-up"))?;
    setup.push(s);

    // Warm-up: the same load, discarded. The mixed workload's starts
    // with the working-set pre-fill, ~3 s of puts on the same path.
    let mut acked = Vec::new();
    let mut warmup = Duration::from_secs_f64(if args.quick { 0.3 } else { 2.0 });
    if load == Load::Mixed4k {
        acked = prefill(&cluster, args.seed).map_err(io_err("pre-fill"))?;
        warmup = warmup.min(Duration::from_millis(500));
    }
    let warm_start = Instant::now();
    let start = warm_start + warmup;
    let end = start + Duration::from_secs_f64(args.seconds);
    let clients = client_count();
    let addrs: Vec<SocketAddr> = (0..clients).map(|c| cluster.client_addr(c)).collect();

    let (logs, watched) = thread::scope(|s| {
        let handles: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(c, &addr)| {
                let gen = Gen::new(args.seed, load, c as u64 + 1);
                let pace = match load {
                    Load::Kill => Pace::Scheduled {
                        first: warm_start + KILL_PERIOD * c as u32 / clients as u32,
                        period: KILL_PERIOD,
                    },
                    _ => Pace::Closed,
                };
                s.spawn(move || run_client(addr, gen, pace, end))
            })
            .collect();
        let watched = watch(&mut cluster, args, load, start, end);
        let logs: Vec<io::Result<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, watched)
    });
    let watched = watched.map_err(io_err("kill schedule"))?;
    let mut ops = Vec::new();
    let mut reads = Vec::new();
    for log in logs {
        let log = log.map_err(io_err("client"))?;
        ops.extend(log.ops);
        acked.extend(log.acked);
        reads.extend(log.reads);
    }

    // Verification: identical replicas, and the log holds what the
    // clients were told.
    let mut out = Outcome::default();
    if cluster.await_identical(Duration::from_secs(15)).is_none() {
        out.errors
            .push("live replicas did not converge on one applied length and digest".into());
    }
    let log = cluster.view(0).with(|a| a.log.clone());
    out.errors.extend(check_puts(&log, &acked).err());
    out.errors.extend(check_reads(&log, &reads).err());
    cluster.shutdown();

    let measured: Vec<&OpRecord> = ops.iter().filter(|o| o.due >= start).collect();
    let client_put_us = client_metrics(&mut out, args, load, &measured, start, end);
    let m = &mut out.metrics;
    m.set_opt("setup_s", stats::median(&setup), setup.len() as u64, "");
    let completed = measured.iter().filter(|o| o.ok).count() as f64;
    registry_metrics(m, &watched.window, completed, args.seconds, client_put_us);
    m.set(
        "netstack.wal_bytes_per_op",
        watched.wal_growth as f64 / completed,
        completed as u64,
    );
    if let Some(k) = &watched.kill {
        // Whether the victim converged at all is `await_identical`'s
        // verdict above; inside the window is a timing, not a correctness.
        m.set_opt(
            "netstack.catchup_ms",
            k.caught_up_at
                .map(|t| (t - k.restarted_at).as_secs_f64() * 1e3),
            1,
            "the restarted node was still catching up when the window closed",
        );
    }
    if !args.trace {
        // The registry counters above are always on; what follows costs
        // time of its own and belongs to the traced run.
        return Ok(out);
    }
    m.set("rsm.pipeline_open_peak", watched.pipeline_peak as f64, 0);
    let apply = micro::apply_ns_per_cmd(&log);
    m.set_opt(
        "rsm.apply_ns_per_cmd",
        apply.map(|a| a.0),
        apply.map_or(0, |a| a.1),
        "the committed log holds no command",
    );
    // Client spans are built after the run from timestamps both kinds
    // of run take, so the traced run's only extra work inside the window
    // is the gauge polling: its busy time over the window is the overhead.
    m.set(
        "btbench.trace_overhead_frac",
        watched.poll_busy.as_secs_f64() / args.seconds,
        0,
    );
    replay_wal(m, &args.scratch).map_err(io_err("WAL replay"))?;

    let ns = |t: Instant| (t - warm_start).as_nanos() as u64;
    let spans = &mut out.trace.spans;
    let mut push = |layer, name, from: Instant, to: Instant, parent, op| {
        spans.push(Span {
            layer,
            name,
            start_ns: ns(from),
            end_ns: ns(to),
            parent,
            op,
        });
    };
    for (i, o) in ops.iter().enumerate() {
        let (parent, op) = (Some(i * 4), i as u64);
        push("client", "client.op", o.due, o.done, None, op);
        push("client", "client.queue", o.due, o.sent, parent, op);
        push("client", "client.write", o.sent, o.written, parent, op);
        push("client", "client.wait", o.written, o.done, parent, op);
    }
    if let Some(k) = &watched.kill {
        let (parent, caught_up) = (Some(ops.len() * 4), k.caught_up_at.unwrap_or(end));
        push(
            "btbench",
            "fault.outage",
            k.killed_at,
            caught_up,
            None,
            u64::MAX,
        );
        push(
            "btbench",
            "fault.kill_restart",
            k.killed_at,
            k.restarted_at,
            parent,
            u64::MAX,
        );
        push(
            "btbench",
            "fault.catchup",
            k.restarted_at,
            caught_up,
            parent,
            u64::MAX,
        );
    }
    Ok(out)
}

/// What the clients saw: `attempted`/`failed`, the bounded end-to-end
/// metrics, and the unsliced figures over every op of the window.
/// Returns the mean put time, send → response, in microseconds.
fn client_metrics(
    out: &mut Outcome,
    args: &RunArgs,
    load: Load,
    measured: &[&OpRecord],
    start: Instant,
    end: Instant,
) -> Option<f64> {
    out.attempted = measured.len() as u64;
    out.failed = measured.iter().filter(|o| o.failed()).count() as u64;
    let completed = measured.iter().filter(|o| o.ok).count() as f64;
    // Time stolen from the VM is taken out of every time base, spread
    // over the CPUs, which the cluster keeps busy: out of an interval's
    // length, and out of a latency for the steal the op overlapped.
    let cpus = thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let net = |from: Instant, to: Instant| {
        steal::net(to - from, args.steal.stolen(from, to) / cpus).as_secs_f64()
    };
    // (completion time, latency in ms) of every completed op of `kind`.
    let latencies = |kind: Kind| -> Vec<(Instant, f64)> {
        let of_kind = measured.iter().filter(|o| o.kind == kind && o.ok);
        of_kind
            .map(|o| (o.done, net(o.due, o.done) * 1e3))
            .collect()
    };
    let sorted_ms = |timed: &[(Instant, f64)]| {
        let mut v: Vec<f64> = timed.iter().map(|t| t.1).collect();
        stats::sort(&mut v);
        v
    };
    let puts = latencies(Kind::Put);
    let put_ms = sorted_ms(&puts);
    let read_ms = sorted_ms(&latencies(Kind::Read));
    let n_put = put_ms.len() as u64;
    let put_p99 = stats::tail_percentile(&put_ms, 0.99);
    const NO_P99: &str = "fewer than 1000 puts: no ten samples beyond p99";

    let m = &mut out.metrics;
    let why = "no op completed";
    if load == Load::Kill {
        // Open loop: throughput is the schedule's unless ops fail, and the
        // latency that shows the outage is p99 from the due time — ops due
        // while commits were stalled are 3-4 % of the window's. (Their
        // mean would show it too, but moved 22 % between runs where p99
        // moved 5 %.) The bounded figure is the highest percentile with ten
        // samples beyond it — p99.1 of the schedule's 1 120 puts — so a run
        // that completed fewer than the 1 000 that p99 needs still has
        // one. A smoke run is too short for either: the slowest op.
        let last_done = puts.iter().map(|p| p.0).max();
        m.set_opt(
            "ops_per_s",
            last_done.map(|t| completed / net(start, t)),
            completed as u64,
            why,
        );
        let slowest = put_ms.last().copied().filter(|_| args.quick);
        m.set_opt(
            "op_ms",
            slowest.or(stats::highest_tail(&put_ms)),
            n_put,
            "fewer than eleven puts completed",
        );
    } else {
        // Closed loop: the window is cut into one-second slices, each
        // with its own completion rate and median put latency, and the
        // run is represented by its best quartile of slices (see
        // `stats::best_quartile`).
        let (mut rates, mut medians) = (Vec::new(), Vec::new());
        for i in 0..(args.seconds as u32).max(1) {
            let from = start + SLICE * i;
            let to = (from + SLICE).min(end);
            let inside = |t: Instant| t >= from && t < to;
            let done = measured.iter().filter(|o| o.ok && inside(o.done)).count();
            rates.push(done as f64 / net(from, to));
            let in_slice = puts.iter().filter(|p| inside(p.0)).map(|p| p.1);
            medians.extend(stats::median(&in_slice.collect::<Vec<_>>()));
        }
        let slices = rates.len() as u64;
        m.set_opt("ops_per_s", stats::best_quartile(&rates, true), slices, why);
        m.set_opt("op_ms", stats::best_quartile(&medians, false), slices, why);
    }
    m.set(
        "btbench.steal_frac",
        args.steal.stolen(start, end).as_secs_f64() / f64::from(cpus) / args.seconds,
        0,
    );

    // Over every op of the window, unsliced; some exist on some
    // workloads only, so none carries a bound.
    m.set_opt(
        "e2e.put_p50_ms",
        stats::percentile(&put_ms, 0.5),
        n_put,
        why,
    );
    m.set_opt("e2e.put_p99_ms", put_p99, n_put, NO_P99);
    m.set_opt(
        "e2e.read_p50_ms",
        stats::percentile(&read_ms, 0.5),
        read_ms.len() as u64,
        "this workload sends no reads",
    );
    let mut done: Vec<Instant> = measured.iter().filter(|o| o.ok).map(|o| o.done).collect();
    done.extend([start, end]);
    done.sort();
    let stall = done.windows(2).map(|w| w[1] - w[0]).max();
    m.set(
        "e2e.stall_ms",
        stall.unwrap_or_default().as_secs_f64() * 1e3,
        n_put,
    );

    let mut lag_ms: Vec<f64> = measured.iter().map(|o| o.lag.as_secs_f64() * 1e3).collect();
    stats::sort(&mut lag_ms);
    // A validity check on the generator, not a tail of the system: the
    // ten-samples-beyond rule does not apply.
    let gen_lag = stats::percentile(&lag_ms, 0.99);
    m.set_opt(
        "btbench.gen_lag_p99_ms",
        gen_lag,
        lag_ms.len() as u64,
        "no op was sent",
    );
    // Said, not failed: the sender is late when the host takes the CPU
    // from it, which says nothing about the program's outputs.
    if let Some(lag) = gen_lag.filter(|&l| load == Load::Kill && l > 5.0) {
        out.warnings.push(format!(
            "the scheduled sender ran {lag:.1} ms late at p99 (> 5 ms): latencies are not the schedule's"
        ));
    }
    let served = measured.iter().filter(|o| o.kind == Kind::Put && o.ok);
    let served_us: f64 = served.map(|o| (o.done - o.sent).as_secs_f64() * 1e6).sum();
    (n_put > 0).then(|| served_us / n_put as f64)
}

/// Per-layer metrics read from the nodes' registries: deltas over the
/// measured window `w`, in which `ops` client ops completed and a put
/// took the client `client_put_us` on average.
fn registry_metrics(
    m: &mut Metrics,
    w: &Window,
    ops: f64,
    seconds: f64,
    client_put_us: Option<f64>,
) {
    let frames = w.counter("bt_frames_sent_total");
    // (metric, counter, what one unit of the metric is per)
    for (name, counter, per) in [
        ("rsm.noop_slots", "rsm_noop_slots_total", None),
        ("rsm.busy_total", "rsm_client_busy_total", None),
        ("rsm.timeout_total", "rsm_client_timeout_total", None),
        ("rsm.deduped_total", "rsm_commands_deduped_total", None),
        ("netstack.frames_per_op", "bt_frames_sent_total", Some(ops)),
        (
            "netstack.write_syscalls_per_frame",
            "bt_write_syscalls_total",
            frames,
        ),
        (
            "netstack.read_syscalls_per_op",
            "bt_read_syscalls_total",
            Some(ops),
        ),
        (
            "netstack.poll_wakeups_per_op",
            "bt_poll_wakeups_total",
            Some(ops),
        ),
        (
            "netstack.loop_ticks_per_op",
            "bt_loop_ticks_total",
            Some(ops),
        ),
        ("netstack.wal_compactions", "bt_wal_compactions_total", None),
        ("netstack.retransmits", "bt_retransmits_total", None),
        ("netstack.reconnects", "bt_reconnects_total", None),
        ("netstack.seq_gaps", "bt_seq_gaps_total", None),
    ] {
        let value = w.counter(counter).map(|c| per.map_or(c, |p| c / p));
        m.set_opt(name, value, per.unwrap_or(0.0) as u64, ABSENT);
    }
    let slots = w.counter("rsm_slots_committed_total");
    let cmds = w.counter("rsm_commands_applied_total");
    m.set_opt(
        "rsm.slots_per_op",
        slots.zip(cmds).map(|(s, c)| s / c),
        cmds.unwrap_or(0.0) as u64,
        ABSENT,
    );

    let commit = w.hist("rsm_commit_latency_us", None);
    let service_put = w.hist("rsm_client_op_us", Some(("op", "propose")));
    let service_read = w.hist("rsm_client_op_us", Some(("op", "read")));
    let append = w.hist("bt_wal_append_us", None);
    for (name, hist, q) in [
        ("rsm.commit_us_p50", &commit, 0.5),
        ("rsm.commit_us_p99", &commit, 0.99),
        ("rsm.service_put_us_p50", &service_put, 0.5),
        ("rsm.service_read_us_p50", &service_read, 0.5),
        (
            "netstack.ack_rtt_us_p50",
            &w.hist("bt_ack_rtt_us", None),
            0.5,
        ),
        ("netstack.wal_append_us_p50", &append, 0.5),
        ("netstack.wal_append_us_p99", &append, 0.99),
        (
            "netstack.wal_compact_us_p50",
            &w.hist("bt_wal_compact_us", None),
            0.5,
        ),
        (
            "netstack.recovery_replay_us",
            &w.hist("bt_recovery_replay_us", None),
            0.5,
        ),
    ] {
        match hist {
            None => m.set_opt(name, None, 0, ABSENT),
            Some(h) => m.set_opt(name, h.quantile(q).map(|v| v as f64), h.count, EMPTY),
        }
    }
    for (name, hist) in [
        ("rsm.batch_cmds_mean", "rsm_batch_commands"),
        ("netstack.frames_per_writev_mean", "bt_frames_per_writev"),
    ] {
        let h = w.hist(hist, None);
        let (mean, count) = (
            h.as_ref().and_then(HistogramSnapshot::mean),
            h.map_or(0, |h| h.count),
        );
        m.set_opt(name, mean, count, ABSENT);
    }
    m.set_opt(
        "netstack.wal_busy_frac",
        append
            .as_ref()
            .map(|h| h.sum as f64 / 1e6 / seconds / NODES as f64),
        append.as_ref().map_or(0, |h| h.count),
        ABSENT,
    );

    let p50 = |h: &Option<HistogramSnapshot>| h.as_ref()?.quantile(0.5).map(|v| v as f64);
    let n_put = service_put.as_ref().map_or(0, |h| h.count);
    m.set_opt(
        "rsm.outside_commit_us",
        p50(&service_put).zip(p50(&commit)).map(|(s, c)| s - c),
        n_put,
        EMPTY,
    );
    // The client hop is a few hundred microseconds, below the
    // histograms' 6.25 % bucket width at these latencies: take it from
    // the means, which a histogram's exact sum gives to the microsecond.
    let service_mean_us = service_put.as_ref().and_then(HistogramSnapshot::mean);
    m.set_opt(
        "rsm.client_hop_us",
        client_put_us.zip(service_mean_us).map(|(c, s)| c - s),
        n_put,
        EMPTY,
    );
}

/// Layer replay on node 0's real WAL after shutdown: recovery scan,
/// re-append, frame encode and drain, and the message codec, each timed
/// over the records the workload left behind.
fn replay_wal(m: &mut Metrics, scratch: &Path) -> io::Result<()> {
    let t0 = Instant::now();
    let (_, recovered) = Wal::open(scratch.join("wal").join("rsm0.wal"))?;
    let open_us = t0.elapsed().as_secs_f64() * 1e6;
    let records = recovered.records.len() as u64;
    m.set(
        "netstack.wal_open_us_per_krec",
        open_us / (records as f64 / 1e3),
        records,
    );

    let deliveries: Vec<&DeliveryRecord> = recovered
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Delivery(d) => Some(d),
            _ => None,
        })
        .collect();
    let n = deliveries.len() as u64;
    if n == 0 {
        for name in ["wal_append_ns", "frame_encode_ns", "frame_drain_ns"] {
            m.set_opt(
                &format!("netstack.{name}"),
                None,
                0,
                "node 0's WAL holds no delivery",
            );
        }
        return Ok(());
    }

    let replay = scratch.join("replay.wal");
    let _ = std::fs::remove_file(&replay);
    let (mut fresh, _) = Wal::open(&replay)?;
    let records: Vec<WalRecord> = deliveries
        .iter()
        .map(|d| WalRecord::Delivery((*d).clone()))
        .collect();
    let t0 = Instant::now();
    for r in &records {
        fresh.append(r)?;
    }
    m.set(
        "netstack.wal_append_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n,
    );

    let frames: Vec<Frame> = deliveries
        .iter()
        .map(|d| Frame::Msg {
            seq: d.seq.unwrap_or(0),
            payload: d.payload.clone(),
        })
        .collect();
    let t0 = Instant::now();
    let chunks: Vec<Vec<u8>> = frames.iter().map(encode_chunk).collect();
    m.set(
        "netstack.frame_encode_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n,
    );

    let mut stream = chunks.concat();
    let mut drained = Vec::with_capacity(frames.len());
    let t0 = Instant::now();
    drain_frames(&mut stream, &mut drained)?;
    m.set(
        "netstack.frame_drain_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n,
    );
    if drained != frames {
        return Err(io::Error::other(
            "drained frames differ from the encoded ones",
        ));
    }

    let msgs: Vec<RsmMsg> = deliveries
        .iter()
        .filter_map(|d| RsmMsg::from_bytes(&d.payload).ok())
        .collect();
    let wire = micro::wire_ns(&msgs);
    let why = "node 0's WAL holds no decodable message";
    m.set_opt(
        "bt-core.wire_encode_ns",
        wire.map(|w| w.0),
        wire.map_or(0, |w| w.2),
        why,
    );
    m.set_opt(
        "bt-core.wire_decode_ns",
        wire.map(|w| w.1),
        wire.map_or(0, |w| w.2),
        why,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An op due at its slot but sent late (its predecessor was stalled)
    /// is charged from the slot, and the generator is charged only for
    /// the time it was free to send and did not.
    #[test]
    fn scheduled_ops_are_timed_from_their_due_time() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let op = OpRecord {
            kind: Kind::Put,
            due: t + ms(25),
            // The previous op completed at t+600; this one went out 2 ms
            // after that.
            sent: t + ms(602),
            written: t + ms(603),
            done: t + ms(610),
            ok: true,
            lag: (t + ms(602)) - (t + ms(25)).max(t + ms(600)),
        };
        assert_eq!(op.latency(), ms(585), "from the due time, not the send");
        assert_eq!(op.lag, ms(2), "the stall is not the generator's lateness");
        assert!(!op.failed());
        let slow = OpRecord {
            done: t + ms(1_026),
            ..op.clone()
        };
        assert!(slow.failed(), "over 1000 ms counts as failed");
        let refused = OpRecord { ok: false, ..op };
        assert!(refused.failed());
    }

    #[test]
    fn window_histograms_subtract_bucketwise() {
        let r = Registry::new();
        let h = r.histogram("lat", "", &[("op", "propose")]);
        let other = r.histogram("lat", "", &[("op", "read")]);
        for v in [10, 10, 500] {
            h.record(v);
        }
        other.record(7);
        let before = r.snapshot();
        for v in [500, 9000] {
            h.record(v);
        }
        let w = Window {
            before,
            after: r.snapshot(),
        };
        let d = w.hist("lat", Some(("op", "propose"))).unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 9500);
        assert_eq!(d.buckets.iter().map(|b| b.1).sum::<u64>(), 2);
        assert!(d.quantile(0.5).unwrap() >= 500 && d.quantile(0.5).unwrap() < 540);
        assert_eq!(w.hist("lat", Some(("op", "read"))).unwrap().count, 0);
        assert_eq!(w.hist("lat", None).unwrap().count, 2);
        assert!(w.hist("absent", None).is_none());
        assert!(w.counter("absent").is_none());
    }

    #[test]
    fn generated_inputs_repeat_with_the_seed() {
        let reqs = |seed| {
            let mut g = Gen::new(seed, Load::Mixed4k, 1);
            (0..6).map(|i| g.next(i)).collect::<Vec<_>>()
        };
        assert_eq!(reqs(5), reqs(5));
        assert_ne!(reqs(5), reqs(6));
        assert!(matches!(reqs(5)[1], ClientReq::Read { .. }));
    }
}
