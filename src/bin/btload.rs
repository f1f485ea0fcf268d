//! `btload` — drive committed puts into a running replicated-log cluster
//! and check that every replica applied the same log.
//!
//! Usage:
//!
//! ```text
//! btload --targets HOST:PORT,HOST:PORT,... [--clients C] [--ops OPS]
//! ```
//!
//! `C` client threads, spread round-robin over the targets' client ports
//! (e.g. `btnode --proto rsm --client PORT`), each put `OPS / C` unique
//! keys (rounded up). An op is retried idempotently, by request id,
//! through `Busy` shedding, service timeouts and reconnects, until it
//! commits or [`OP_DEADLINE`] runs out. btload then polls every target's
//! `Info` until all report the same applied length and digest, prints
//! one summary line and exits 0. A target that is down or wedged, an op
//! that does not commit in time, or logs that do not converge end the run
//! with a message naming the target and exit status 1.
//!
//! Throughput and latency are measured by `btbench` (`loopback-put`,
//! `loopback-kill`), not here.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsm::{ClientResp, Op, RsmClient};

const USAGE: &str = "usage: btload --targets HOST:PORT,... [--clients C] [--ops OPS]";

/// How long one op may take, reconnects included; also the read timeout
/// of every connection, so a wedged target cannot hold a client forever.
const OP_DEADLINE: Duration = Duration::from_secs(10);

/// How long the targets may take to apply the same log once every op has
/// committed (laggards may still be catching up).
const CONVERGE_DEADLINE: Duration = Duration::from_secs(60);

struct Args {
    targets: Vec<SocketAddr>,
    clients: usize,
    ops: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        targets: Vec::new(),
        clients: 32,
        ops: 2000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--clients" => a.clients = parse(&value()?, &flag)?,
            "--ops" => a.ops = parse(&value()?, &flag)?,
            "--targets" => {
                for part in value()?.split(',').filter(|s| !s.is_empty()) {
                    a.targets.push(
                        part.parse()
                            .map_err(|_| format!("cannot parse {part:?} as HOST:PORT"))?,
                    );
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.targets.is_empty() {
        return Err("--targets is required".to_string());
    }
    if a.clients == 0 || a.ops == 0 {
        return Err("--clients and --ops must be positive".to_string());
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot parse {s:?} as a number"))
}

/// Connects to `addr` as `client`, with [`OP_DEADLINE`] as read timeout.
fn connect(addr: SocketAddr, client: u64) -> std::io::Result<RsmClient> {
    let mut c = RsmClient::connect(addr, client)?;
    c.set_timeout(Some(OP_DEADLINE))?;
    Ok(c)
}

/// One client thread: `ops` puts through `addr`, each retried by request
/// id until its `Committed` arrives or [`OP_DEADLINE`] runs out.
/// Busy/Timeout verdicts are consumed inside
/// [`RsmClient::propose_with_retry`] (jittered exponential backoff); this
/// loop only handles reconnects, reseating the id stream on each fresh
/// connection so retries stay idempotent.
fn run_client(addr: SocketAddr, client_id: u64, ops: u64) -> Result<(), String> {
    let mut conn: Option<RsmClient> = None;
    for request in 1..=ops {
        let op = Op::Put {
            key: format!("c{client_id}-{request}").into_bytes(),
            value: vec![0x62u8; 64],
        };
        let give_up = Instant::now() + OP_DEADLINE;
        loop {
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "{addr}: put {client_id}/{request} did not commit within {}s",
                    OP_DEADLINE.as_secs()
                ));
            }
            let c = match conn.as_mut() {
                Some(c) => c,
                None => match connect(addr, client_id) {
                    Ok(c) => conn.insert(c),
                    Err(_) => {
                        std::thread::sleep(left.min(Duration::from_millis(50)));
                        continue;
                    }
                },
            };
            c.seek_request(request);
            match c.propose_with_retry(op.clone(), left) {
                Ok(ClientResp::Committed { .. }) => break,
                Ok(_) => {}            // deadline ran out Busy/Timeout: go again
                Err(_) => conn = None, // reconnect and retry the same id
            }
        }
    }
    Ok(())
}

/// Every target's `(applied, digest)`, polled until they all agree.
fn await_identical(targets: &[SocketAddr]) -> Result<(u64, u64), String> {
    let give_up = Instant::now() + CONVERGE_DEADLINE;
    loop {
        let mut infos = Vec::new();
        for (i, &addr) in targets.iter().enumerate() {
            let resp = connect(addr, 1_000_000 + i as u64)
                .and_then(|mut c| c.info())
                .map_err(|e| format!("{addr}: info failed: {e}"))?;
            match resp {
                ClientResp::Info {
                    applied, digest, ..
                } => infos.push((applied, digest)),
                other => return Err(format!("{addr}: unexpected info response {other:?}")),
            }
        }
        if infos.windows(2).all(|w| w[0] == w[1]) {
            return Ok(infos[0]);
        }
        if Instant::now() >= give_up {
            return Err(format!("target logs did not converge: {infos:?}"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn run(args: &Args) -> Result<(), String> {
    let ops_per_client = args.ops.div_ceil(args.clients as u64);
    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let addr = args.targets[c % args.targets.len()];
            std::thread::spawn(move || run_client(addr, 1 + c as u64, ops_per_client))
        })
        .collect();
    // The first failed client ends the run; the rest die with the process.
    for w in workers {
        w.join()
            .map_err(|_| "client thread panicked".to_string())??;
    }
    let elapsed = started.elapsed();
    let (applied, digest) = await_identical(&args.targets)?;
    println!(
        "btload: {} ops committed by {} clients in {:.2}s; all {} targets applied {applied} slots, digest {digest:016x}",
        ops_per_client * args.clients as u64,
        args.clients,
        elapsed.as_secs_f64(),
        args.targets.len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args()
        .map_err(|err| format!("{err}\n{USAGE}"))
        .and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("btload: {err}");
            ExitCode::FAILURE
        }
    }
}
