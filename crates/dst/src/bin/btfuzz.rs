//! `btfuzz` — seeded schedule/fault fuzzer for the consensus protocols.
//!
//! ```text
//! btfuzz [--budget SECS] [--cases N] [--seed SEED] [--inject]
//!        [--no-netstack] [--multislot N] [--out PATH]
//! btfuzz --netstack-stress [--budget SECS] [--cases N] [--seed SEED] [--out PATH]
//! btfuzz --storage [--budget SECS] [--cases N] [--seed SEED] [--out PATH]
//! btfuzz --replay PATH
//! ```
//!
//! Default mode fuzzes the unmodified tree: exit 0 when every case runs
//! clean, exit 1 with a repro artifact written to `--out` (default
//! `btfuzz-repro.jsonl`) when an invariant breaks. A clean one-shot sweep
//! is followed by `--multislot N` (default 25, 0 disables) replicated-log
//! scenarios — seeded per-replica command preloads driven through the
//! `rsm` multi-decree pipeline under the same schedule adversaries, held
//! to per-slot agreement, gap-freedom, batch provenance, and exactly-once
//! invariants; a violating multi-slot scenario is written to `--out` as
//! its scenario JSON. `--inject` is the harness self-test: it plants a
//! broken fail-stop quorum rule and exits 0 only if the fuzzer finds it,
//! shrinks it, and the artifact replays. `--replay` re-executes a
//! previously written artifact and byte-verifies the trace.
//! `--netstack-stress` runs the scale leg instead of the fuzz loop:
//! loopback clusters up a size ladder to n=50, each under a healing
//! partition and a seeded crash-restart, held to the decision properties
//! and zero equivocations; a violating scenario is written to `--out` as
//! its scenario JSON. `--storage` runs the amnesia leg: small clusters
//! whose seeded crash victim reopens a byte-flipped WAL, held to
//! corruption detection, quorum state transfer, zero equivocations, and
//! the decision properties; findings are reported the same way. Seeds
//! accept decimal or `0x`-prefixed hex.

use std::process::ExitCode;
use std::time::Duration;

use dst::{fuzz, FindingKind, FuzzConfig, Injection};
use obs::json::Json;

struct Args {
    budget: Option<Duration>,
    cases: Option<u64>,
    seed: Option<u64>,
    inject: bool,
    netstack: bool,
    stress: bool,
    storage: bool,
    multislot: u64,
    out: String,
    replay: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: btfuzz [--budget SECS] [--cases N] [--seed SEED] [--inject] \
         [--no-netstack] [--netstack-stress] [--storage] [--multislot N] [--out PATH] \
         | btfuzz --replay PATH"
    );
    std::process::exit(2);
}

fn parse_seed(raw: &str) -> Option<u64> {
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Parses a numeric flag value, or exits with the usage message.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("bad {flag} {raw:?}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        budget: None,
        cases: None,
        seed: None,
        inject: false,
        netstack: true,
        stress: false,
        storage: false,
        multislot: 25,
        out: "btfuzz-repro.jsonl".to_string(),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--budget" => {
                args.budget = Some(Duration::from_secs(number(&flag, &value("seconds value"))));
            }
            "--cases" => args.cases = Some(number(&flag, &value("count"))),
            "--seed" => {
                let raw = value("seed");
                match parse_seed(&raw) {
                    Some(s) => args.seed = Some(s),
                    None => {
                        eprintln!("bad --seed {raw:?}");
                        usage()
                    }
                }
            }
            "--inject" => args.inject = true,
            "--no-netstack" => args.netstack = false,
            "--netstack-stress" => args.stress = true,
            "--storage" => args.storage = true,
            "--multislot" => args.multislot = number(&flag, &value("count")),
            "--out" => args.out = value("path"),
            "--replay" => args.replay = Some(value("path")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

/// How many cases a leg runs: `--cases` if given; else no cap under a
/// `--budget` (the clock is the limit, not the case count); else the
/// leg's own default.
fn case_cap(args: &Args, default: u64) -> u64 {
    let unbudgeted = if args.budget.is_some() {
        u64::MAX
    } else {
        default
    };
    args.cases.unwrap_or(unbudgeted)
}

/// Re-executes the artifact at `path` and byte-verifies its trace.
fn replay(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let repro = dst::parse_artifact(&text).map_err(|e| format!("bad artifact {path}: {e}"))?;
    println!("replaying {}", repro.scenario.describe());
    dst::verify_replay(&repro).map_err(|e| format!("replay FAILED: {e}"))?;
    println!(
        "replay ok: classes [{}] and trace reproduced byte-identically",
        repro.classes.join(", ")
    );
    Ok(())
}

fn exit_code(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("btfuzz: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The replicated-log leg of a clean run: generated multi-slot scenarios
/// through the `rsm` pipeline, log-level invariants, scenario-JSON repro
/// on a hit. Derives its seed from the master seed so one `--seed`
/// reproduces the whole session.
fn multislot_sweep(args: &Args, master_seed: u64) -> ExitCode {
    if args.multislot == 0 {
        return ExitCode::SUCCESS;
    }
    let seed = master_seed ^ 0x6d75_6c74_695f_736c; // "multi_sl", one stream per leg
    println!(
        "btfuzz: multislot sweep, seed {seed:#018x}, {} cases max",
        args.multislot
    );
    let sweep = dst::fuzz_multislot(seed, args.multislot, args.budget, |line| {
        println!("btfuzz: {line}");
    });
    println!("btfuzz: {} multislot cases", sweep.cases);
    let finding = sweep.finding.map(|(s, v)| (s.describe(), s.to_json(), v));
    sweep_verdict(args, "multislot", finding)
}

/// The common tail of every sweep leg: exit 0 on a clean sweep; on a
/// finding, print the violating scenario and its violations, write the
/// scenario JSON to `--out`, and exit 1.
fn sweep_verdict<V: std::fmt::Display>(
    args: &Args,
    name: &str,
    finding: Option<(String, Json, Vec<V>)>,
) -> ExitCode {
    let Some((scenario, json, violations)) = finding else {
        println!("btfuzz: no {name} violations");
        return ExitCode::SUCCESS;
    };
    println!("btfuzz: {name} violated: {scenario}");
    for v in &violations {
        println!("btfuzz:   {v}");
    }
    if let Err(e) = std::fs::write(&args.out, json.render() + "\n") {
        eprintln!("btfuzz: cannot write artifact {}: {e}", args.out);
    } else {
        println!("btfuzz: {name} scenario written to {}", args.out);
    }
    ExitCode::FAILURE
}

/// A loopback sweep leg (`--netstack-stress`: clusters up the size ladder
/// to n=50, each under a healing partition and a seeded crash-restart;
/// `--storage`: small clusters whose seeded crash victim reopens a
/// byte-flipped WAL). Exit 0 on a clean sweep (or a sandbox skip), exit 1
/// with the scenario JSON in `--out` on a violation.
fn netstack_sweep(args: &Args, leg: &dst::NetLeg) -> ExitCode {
    let name = leg.name;
    let seed = args.seed.unwrap_or(leg.seed);
    let cases = case_cap(args, leg.cases);
    println!(
        "btfuzz: netstack {name} sweep, seed {seed:#018x}, sizes {:?}, budget {:?}",
        leg.ladder, args.budget
    );
    let progress = |line: &str| println!("btfuzz: {line}");
    let Some(outcome) = dst::sweep_netstack(leg, seed, cases, args.budget, progress) else {
        println!("btfuzz: skipping {name} sweep: loopback sockets unavailable in this sandbox");
        return ExitCode::SUCCESS;
    };
    println!(
        "btfuzz: {} {name} cases, largest n={}, {} restart(s), {} corruption(s) detected, \
         {} state transfer(s)",
        outcome.cases, outcome.largest_n, outcome.restarts, outcome.corruptions, outcome.transfers
    );
    let finding = outcome.finding.map(|(s, v)| (s.describe(), s.to_json(), v));
    sweep_verdict(args, name, finding)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.replay {
        return exit_code(replay(path));
    }
    if args.stress {
        return netstack_sweep(&args, &dst::STRESS);
    }
    if args.storage {
        return netstack_sweep(&args, &dst::STORAGE);
    }

    let mut config = FuzzConfig {
        netstack: args.netstack,
        ..FuzzConfig::default()
    };
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    config.budget = args.budget;
    config.max_cases = case_cap(&args, config.max_cases);
    if args.inject {
        config.inject = Some(Injection::WeakenFailStop {
            witness_slack: 100,
            decide_slack: 100,
        });
        // The ablated protocol only exists in the simulator.
        config.netstack = false;
    }

    println!(
        "btfuzz: seed {:#018x}, {} cases max, budget {:?}, netstack {}",
        config.seed,
        config.max_cases,
        config.budget,
        if config.netstack { "on" } else { "off" }
    );
    let outcome = fuzz(&config, |line| println!("btfuzz: {line}"));
    println!(
        "btfuzz: {} cases, {} netstack cross-checks",
        outcome.cases, outcome.netstack_runs
    );

    let Some(finding) = outcome.finding else {
        if args.inject {
            eprintln!("btfuzz: --inject planted a defect but nothing was found");
            return ExitCode::FAILURE;
        }
        println!("btfuzz: no violations");
        return multislot_sweep(&args, config.seed);
    };

    println!(
        "btfuzz: case {} violated: {}",
        finding.case,
        finding.scenario.describe()
    );
    for v in &finding.violations {
        println!("btfuzz:   {v}");
    }
    if let Some(shrunk) = &finding.shrunk {
        println!(
            "btfuzz: shrunk in {} step(s) / {} run(s) to: {}",
            shrunk.steps,
            shrunk.runs,
            shrunk.scenario.describe()
        );
    }
    if finding.kind == FindingKind::NetstackDivergence {
        println!(
            "btfuzz: divergence is against the netstack runtime (artifact holds the sim trace)"
        );
    }

    if let Err(e) = std::fs::write(&args.out, &finding.artifact) {
        eprintln!("btfuzz: cannot write artifact {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "btfuzz: artifact written to {} (replay: btfuzz --replay {})",
        args.out, args.out
    );

    if args.inject {
        // Self-test: found, shrunk — now the artifact must replay.
        return exit_code(replay(&args.out).map(|()| {
            println!("btfuzz: self-test passed — injected defect found, shrunk, replayed");
        }));
    }
    ExitCode::FAILURE
}
