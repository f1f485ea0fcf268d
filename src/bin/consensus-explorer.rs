//! `consensus-explorer` — run one consensus scenario and watch it.
//!
//! A command-line front end over the whole workspace: pick a protocol, a
//! system size, an attacker, a scheduler and a seed; get the run's verdict
//! and (optionally) its full event trace. Every run is reproducible from
//! its printed configuration.
//!
//! ```sh
//! cargo run --release --bin consensus-explorer -- \
//!     --protocol malicious --n 7 --k 2 --attacker contrarian \
//!     --scheduler delay --seed 42 --trace
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use obs::{parse_line, ConsoleReporter, JsonlSink, TraceLine};

use resilient_consensus::adversary::{
    ContrarianMalicious, CrashPlan, Crashing, EquivocatingEchoer, RandomMalicious, Silent,
    TwoFacedMalicious,
};
use resilient_consensus::benor::{BenOrConfig, BenOrProcess};
use resilient_consensus::bt_core::{
    Config, FailStop, InitiallyDead, Malicious, Simple, Termination,
};
use resilient_consensus::simnet::scheduler::{
    DelayingScheduler, DeliveryOrder, FairScheduler, PartitionScheduler, RoundRobinScheduler,
    Scheduler,
};
use resilient_consensus::simnet::{ProcessId, Role, RunReport, Sim, SimBuilder, Subscriber, Value};

#[derive(Debug)]
struct Options {
    protocol: String,
    n: usize,
    k: usize,
    attacker: String,
    scheduler: String,
    termination: String,
    seed: u64,
    trace: bool,
    jsonl: Option<String>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut opts = Options {
            protocol: "malicious".into(),
            n: 7,
            k: 2,
            attacker: "silent".into(),
            scheduler: "fair".into(),
            termination: "continue".into(),
            seed: 1,
            trace: false,
            jsonl: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("missing value for {what}"))
            };
            match flag.as_str() {
                "--protocol" => opts.protocol = value("--protocol")?,
                "--n" => opts.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
                "--k" => opts.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
                "--attacker" => opts.attacker = value("--attacker")?,
                "--scheduler" => opts.scheduler = value("--scheduler")?,
                "--termination" => opts.termination = value("--termination")?,
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--trace" => opts.trace = true,
                "--jsonl" => opts.jsonl = Some(value("--jsonl")?),
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

const USAGE: &str = "usage: consensus-explorer [--protocol failstop|malicious|simple|benor|dead]
                          [--n N] [--k K] [--seed S] [--trace] [--jsonl FILE]
                          [--attacker silent|contrarian|twofaced|equivocator|noise|crash]
                          [--scheduler fair|lifo|rr|delay|partition]
                          [--termination continue|wildcard]   (malicious only)";

fn scheduler_for<M: 'static>(name: &str, n: usize) -> Result<Box<dyn Scheduler<M>>, String> {
    Ok(match name {
        "fair" => Box::new(FairScheduler::new()),
        "lifo" => Box::new(FairScheduler::new().delivery_order(DeliveryOrder::Lifo)),
        "rr" => Box::new(RoundRobinScheduler::new()),
        "delay" => Box::new(DelayingScheduler::new(n, &[ProcessId::new(0)])),
        "partition" => {
            let left: Vec<ProcessId> = ProcessId::all(n).take(n / 2).collect();
            Box::new(PartitionScheduler::new(n, &left, 50, 4))
        }
        other => return Err(format!("unknown scheduler {other}\n{USAGE}")),
    })
}

fn inputs(count: usize) -> impl Iterator<Item = Value> {
    (0..count).map(|i| Value::from(i % 2 == 0))
}

/// The run's one observer: `--jsonl` writes its lines, `--trace` narrates
/// its events.
type Sink = Arc<Mutex<JsonlSink>>;

/// Attaches `sink`, when either flag asked for one, and runs.
fn observe_and_run<M: Clone + PartialEq + 'static>(
    b: &mut SimBuilder<M>,
    sink: Option<&Sink>,
) -> RunReport {
    if let Some(s) = sink {
        b.subscriber(s.clone());
    }
    b.build().run()
}

/// Narrates the recorded events, one line each.
fn narrate(sink: &JsonlSink) -> String {
    let mut reporter = ConsoleReporter::new();
    for line in sink.lines() {
        if let Ok(TraceLine::Event(event)) = parse_line(line) {
            reporter.on_event(&event);
        }
    }
    reporter.text()
}

fn run_malicious(o: &Options, sink: Option<&Sink>) -> Result<RunReport, String> {
    let config = Config::malicious(o.n, o.k).map_err(|e| e.to_string())?;
    let termination = match o.termination.as_str() {
        "continue" => Termination::Continue,
        "wildcard" => Termination::WildcardExit,
        other => return Err(format!("unknown termination {other}\n{USAGE}")),
    };
    let mut b = Sim::builder();
    for input in inputs(o.n - o.k) {
        b.process(
            Box::new(Malicious::with_termination(config, input, termination)),
            Role::Correct,
        );
    }
    for _ in 0..o.k {
        let attacker: Box<dyn resilient_consensus::simnet::Process<Msg = _>> =
            match o.attacker.as_str() {
                "silent" => Box::new(Silent::new()),
                "contrarian" => Box::new(ContrarianMalicious::new(config)),
                "twofaced" => Box::new(TwoFacedMalicious::new(config)),
                "equivocator" => Box::new(EquivocatingEchoer::new(config)),
                "noise" => Box::new(RandomMalicious::new(config, 6)),
                other => return Err(format!("unknown attacker {other}\n{USAGE}")),
            };
        b.process(attacker, Role::Faulty);
    }
    b.scheduler(scheduler_for(&o.scheduler, o.n)?);
    b.seed(o.seed).step_limit(16_000_000);
    Ok(observe_and_run(&mut b, sink))
}

fn run_failstop(o: &Options, sink: Option<&Sink>) -> Result<RunReport, String> {
    let config = Config::fail_stop(o.n, o.k).map_err(|e| e.to_string())?;
    let mut b = Sim::builder();
    for input in inputs(o.n - o.k) {
        b.process(Box::new(FailStop::new(config, input)), Role::Correct);
    }
    for j in 0..o.k {
        // `--attacker` selects the crash flavour here; anything other than
        // "silent" uses staggered mid-run crashes.
        if o.attacker == "silent" {
            b.process(Box::new(Silent::new()), Role::Faulty);
        } else {
            let plan = if j % 2 == 0 {
                CrashPlan::AfterSends(o.n as u64 / 2)
            } else {
                CrashPlan::AtPhase(1 + j as u64)
            };
            b.process(
                Box::new(Crashing::new(FailStop::new(config, Value::Zero), plan)),
                Role::Faulty,
            );
        }
    }
    b.scheduler(scheduler_for(&o.scheduler, o.n)?);
    b.seed(o.seed).step_limit(8_000_000);
    Ok(observe_and_run(&mut b, sink))
}

fn run_simple(o: &Options, sink: Option<&Sink>) -> Result<RunReport, String> {
    let config = Config::malicious(o.n, o.k).map_err(|e| e.to_string())?;
    let mut b = Sim::builder();
    for input in inputs(o.n) {
        b.process(Box::new(Simple::new(config, input)), Role::Correct);
    }
    b.scheduler(scheduler_for(&o.scheduler, o.n)?);
    b.seed(o.seed).step_limit(8_000_000);
    Ok(observe_and_run(&mut b, sink))
}

fn run_benor(o: &Options, sink: Option<&Sink>) -> Result<RunReport, String> {
    let config = BenOrConfig::fail_stop(o.n, o.k).map_err(|e| e.to_string())?;
    let mut b = Sim::builder();
    for input in inputs(o.n) {
        b.process(Box::new(BenOrProcess::new(config, input)), Role::Correct);
    }
    b.scheduler(scheduler_for(&o.scheduler, o.n)?);
    b.seed(o.seed).step_limit(16_000_000);
    Ok(observe_and_run(&mut b, sink))
}

fn run_dead(o: &Options, sink: Option<&Sink>) -> Result<RunReport, String> {
    let mut b = Sim::builder();
    for input in inputs(o.n - o.k) {
        b.process(Box::new(InitiallyDead::new(o.n, input)), Role::Correct);
    }
    for _ in 0..o.k {
        b.process(Box::new(Silent::new()), Role::Faulty);
    }
    b.scheduler(scheduler_for(&o.scheduler, o.n)?);
    b.seed(o.seed).step_limit(2_000_000);
    Ok(observe_and_run(&mut b, sink))
}

fn main() -> ExitCode {
    let opts = match Options::parse() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let sink = (opts.trace || opts.jsonl.is_some()).then(|| Arc::new(Mutex::new(JsonlSink::new())));
    let report = match opts.protocol.as_str() {
        "malicious" => run_malicious(&opts, sink.as_ref()),
        "failstop" => run_failstop(&opts, sink.as_ref()),
        "simple" => run_simple(&opts, sink.as_ref()),
        "benor" => run_benor(&opts, sink.as_ref()),
        "dead" => run_dead(&opts, sink.as_ref()),
        other => Err(format!("unknown protocol {other}\n{USAGE}")),
    };
    let report = match report {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let sink = sink.map(|s| std::mem::take(&mut *s.lock().expect("trace sink poisoned")));
    if let (Some(path), Some(sink)) = (&opts.jsonl, &sink) {
        if let Err(err) = sink.write_to_file(path) {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote JSONL trace to {path} (replay with: btreport {path})");
    }
    let narration = sink.filter(|_| opts.trace).map(|s| narrate(&s));

    // Write through a fallible handle so a closed pipe (e.g. `| head`)
    // ends the program quietly instead of panicking.
    let mut out = std::io::stdout().lock();
    let verdict_ok = report.agreement();
    let mut emit = || -> std::io::Result<()> {
        writeln!(out, "configuration:   {opts:?}")?;
        writeln!(out, "status:          {:?}", report.status)?;
        writeln!(out, "agreement:       {}", report.agreement())?;
        writeln!(out, "all decided:     {}", report.all_correct_decided())?;
        writeln!(out, "decided value:   {:?}", report.decided_value())?;
        writeln!(out, "phases:          {:?}", report.phases_to_decision())?;
        writeln!(out, "steps:           {}", report.steps)?;
        writeln!(out, "messages sent:   {}", report.metrics.messages_sent)?;
        writeln!(out, "messages dropped:{}", report.metrics.messages_dropped)?;
        if let Some(text) = &narration {
            writeln!(out, "\n--- trace ({} events) ---", text.lines().count())?;
            write!(out, "{text}")?;
        }
        Ok(())
    };
    let _ = emit(); // a broken pipe is the reader's choice, not an error
    if verdict_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
