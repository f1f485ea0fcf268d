//! `btbench` — one end-to-end + per-layer benchmark for the
//! rsm → bt-core → netstack → simnet stack. See `README.md` beside this
//! crate's manifest for the metric glossary and the layer map.
//!
//! ```text
//! btbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! btbench compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures one workload (all six without `--workload`), checks
//! its outputs, prints every metric by name with unit and sample count,
//! and ends with one JSON line holding the metrics `BENCHMARK.json`
//! declares for that kind of run: end-to-end for `--trace 0`, per-layer
//! for `--trace 1`.

mod compare;
mod loopback;
mod micro;
mod simwl;
mod spec;
mod stats;
mod steal;
mod trace;
mod verify;

use std::fs::{self, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use obs::json::Json;

use loopback::Load;
use spec::{MetricSpec, Outcome, RunArgs, Spec};

const USAGE: &str = "usage: btbench run [--workload W] [--seed S] [--seconds N] \
[--trace 0|1] [--quick] [--out FILE] | btbench compare A.jsonl B.jsonl";
const DEFAULT_SEED: u64 = 1983;
const TRACE_FILE: &str = "results/btbench-trace.jsonl";
/// Not exercised: the metric's layer does no work in this workload.
const NOT_EXERCISED: &str = "this workload does not exercise it";

struct Cli {
    workload: Option<String>,
    out: Option<PathBuf>,
    run: RunArgs,
}

fn parse_run(mut args: impl Iterator<Item = String>, spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        out: None,
        run: RunArgs {
            seed: DEFAULT_SEED,
            seconds: spec.run_seconds as f64,
            trace: false,
            quick: false,
            scratch: PathBuf::new(),
            steal: Arc::default(),
        },
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            cli.run.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value),
            "--out" => cli.out = Some(value.into()),
            "--seed" => cli.run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.run.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(cli)
}

/// Trials whose exact counts are reported (the first ones of each run,
/// so the counts do not depend on how many more fit in the window).
fn counted(args: &RunArgs, full: usize) -> usize {
    if args.quick {
        1
    } else {
        full
    }
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "loopback-put" => loopback::run(args, Load::Put),
        "loopback-mixed-4k" => loopback::run(args, Load::Mixed4k),
        "loopback-kill" => loopback::run(args, Load::Kill),
        "sim-byz-n128" => Ok(simwl::byz(args, 128, 7, counted(args, 3))),
        "sim-byz-n32" => Ok(simwl::byz(args, 32, 3, counted(args, 100))),
        "sim-rsm-backlog" => Ok(simwl::rsm_backlog(args, counted(args, 10))),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// One memory line of `/proc/self/status` (`VmRSS:`, `VmHWM:`) in MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `work` while a second thread reads the steal counter every
/// 10 ms into `steal` and the resident set every 50 ms; returns the
/// latter's samples. The peak (`VmHWM`) jumps by tens of MiB with the
/// timing of one compaction; the median of samples is what a run
/// typically holds.
fn with_samplers<T>(steal: &steal::Timeline, work: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut rss = Vec::new();
            for tick in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                steal.sample();
                if tick.is_multiple_of(5) {
                    rss.extend(status_mb("VmRSS:"));
                }
                thread::sleep(Duration::from_millis(10));
            }
            rss
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("the sampler does not panic"))
    })
}

/// Where this run may create files: beside the executable, inside the
/// cargo target directory, which is inside the checkout.
fn scratch_dir(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory")?;
    Ok(target
        .join("btbench-scratch")
        .join(format!("{}-{workload}", std::process::id())))
}

fn metric_json(m: &MetricSpec, metric: Option<&spec::Metric>) -> Json {
    let mut fields = vec![
        (
            "value".to_string(),
            metric.and_then(|x| x.value).map_or(Json::Null, Json::Num),
        ),
        ("unit".to_string(), Json::str(&m.unit)),
        (
            "samples".to_string(),
            Json::num(metric.map_or(0, |x| x.samples)),
        ),
    ];
    let note = metric.map_or(NOT_EXERCISED, |x| x.note);
    if !note.is_empty() {
        fields.push(("note".to_string(), Json::str(note)));
    }
    Json::Obj(fields)
}

fn print_table(title: &str, specs: &[MetricSpec], outcome: &Outcome) {
    println!("{title}");
    let mut idle = 0;
    for m in specs {
        match outcome.metrics.0.get(&m.name) {
            Some(spec::Metric {
                value: Some(v),
                samples,
                ..
            }) => println!("  {:<36} {v:>18.6} {:<6} n={samples}", m.name, m.unit),
            Some(x) => println!("  {:<36} {:>18} {:<6} ({})", m.name, "null", m.unit, x.note),
            None => idle += 1,
        }
    }
    if idle > 0 {
        println!("  ({idle} more are null: {NOT_EXERCISED})");
    }
}

/// Runs one workload and reports it; returns whether it was correct.
fn run_one(
    name: &str,
    cli: &Cli,
    spec: &Spec,
    trace_out: &mut Option<BufWriter<fs::File>>,
) -> Result<bool, String> {
    let mut args = cli.run.clone();
    args.scratch = scratch_dir(name)?;
    args.steal = Arc::default();
    fs::create_dir_all(&args.scratch).map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    // VmHWM only rises; start each workload's peak from here.
    let _ = fs::write("/proc/self/clear_refs", "5");

    let (result, rss) = with_samplers(&args.steal, || run_workload(name, &args));
    let _ = fs::remove_dir_all(&args.scratch);
    let mut outcome = result?;
    let m = &mut outcome.metrics;
    m.set_opt("rss_mb", stats::median(&rss), rss.len() as u64, "");
    m.set_opt(
        "btbench.peak_rss_mb",
        status_mb("VmHWM:"),
        1,
        "VmHWM is unreadable",
    );
    for m in &spec.end_to_end {
        if outcome
            .metrics
            .0
            .get(&m.name)
            .and_then(|x| x.value)
            .is_none()
        {
            outcome
                .errors
                .push(format!("end-to-end metric {} was not measured", m.name));
        }
    }
    let correct = outcome.errors.is_empty();

    println!(
        "== {name}  seed={} seconds={} trace={} ==",
        args.seed, args.seconds, args.trace as u8
    );
    print_table("end-to-end", &spec.end_to_end, &outcome);
    print_table(
        if args.trace {
            "per-layer (traced run)"
        } else {
            "per-layer (registry counters only; --trace 1 for all)"
        },
        &spec.per_layer,
        &outcome,
    );
    println!(
        "attempted={} failed={} verification={}",
        outcome.attempted,
        outcome.failed,
        if correct { "ok" } else { "FAILED" }
    );
    for e in &outcome.errors {
        println!("  error: {e}");
    }
    for w in &outcome.warnings {
        println!("  warning: {w}");
    }

    if let Some(w) = trace_out {
        let header = Json::Obj(vec![
            ("type".into(), Json::str("workload")),
            ("name".into(), Json::str(name)),
            ("seed".into(), Json::num(args.seed)),
        ]);
        writeln!(w, "{}", header.render())
            .and_then(|()| outcome.trace.write_jsonl(w))
            .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }

    let head = |metrics: Json| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::num(outcome.attempted.max(1))),
            ("failed".to_string(), Json::num(outcome.failed)),
            ("metrics".to_string(), metrics),
        ]
    };
    if let Some(path) = &cli.out {
        let all = spec.end_to_end.iter().chain(&spec.per_layer);
        let mut line = vec![
            ("workload".to_string(), Json::str(name)),
            ("seed".to_string(), Json::num(args.seed)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("trace".to_string(), Json::Bool(args.trace)),
        ];
        line.extend(head(Json::Obj(
            all.map(|m| {
                (
                    m.name.clone(),
                    metric_json(m, outcome.metrics.0.get(&m.name)),
                )
            })
            .collect(),
        )));
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", Json::Obj(line).render()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The contract line: exactly the declared metrics of this kind of
    // run, numbers only — a per-layer metric the workload does not
    // exercise reads 0 here (and `null`, with the reason, above).
    let declared = spec.metrics(args.trace).iter().map(|m| {
        let value = outcome.metrics.0.get(&m.name).and_then(|x| x.value);
        let fields = vec![
            ("value".to_string(), Json::Num(value.unwrap_or(0.0))),
            ("unit".to_string(), Json::str(&m.unit)),
        ];
        (m.name.clone(), Json::Obj(fields))
    });
    println!(
        "{}",
        Json::Obj(head(Json::Obj(declared.collect()))).render()
    );
    Ok(correct)
}

fn run(cli: &Cli, spec: &Spec) -> Result<bool, String> {
    let names: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => spec
            .workloads
            .iter()
            .map(|(name, _)| name.clone())
            .collect(),
    };
    let mut trace_out = None;
    if cli.run.trace {
        fs::create_dir_all("results").map_err(|e| format!("results: {e}"))?;
        let file = fs::File::create(TRACE_FILE).map_err(|e| format!("{TRACE_FILE}: {e}"))?;
        trace_out = Some(BufWriter::new(file));
    }
    let mut all_correct = true;
    for name in &names {
        all_correct &= run_one(name, cli, spec, &mut trace_out)?;
    }
    if let Some(mut w) = trace_out {
        w.flush().map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => parse_run(args, &spec).and_then(|cli| run(&cli, &spec)),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => {
                let read = |p: &String| fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                read(&a)
                    .and_then(|a| Ok((a, read(&b)?)))
                    .and_then(|(a, b)| compare::compare(&a, &b, &spec))
                    .map(|any_worse| !any_worse)
            }
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("btbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload in `BENCHMARK.json` runs, verifies, and emits
    /// every end-to-end metric untraced and every per-layer metric its
    /// layers produce traced.
    #[test]
    fn every_declared_workload_and_metric_is_emitted() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 6);
        let mut emitted = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(!why.is_empty());
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 7,
                    // The kill schedule needs room for the 500 ms outage
                    // and the catch-up inside the window.
                    seconds: if name == "loopback-kill" { 3.0 } else { 1.0 },
                    trace,
                    quick: true,
                    scratch: scratch_dir(&format!("test-{name}-{trace}")).unwrap(),
                    steal: Arc::default(),
                };
                fs::create_dir_all(&args.scratch).unwrap();
                let (outcome, rss) = with_samplers(&args.steal, || run_workload(name, &args));
                let outcome = outcome.unwrap();
                assert!(rss.iter().all(|mb| *mb > 0.0) && !rss.is_empty());
                let _ = fs::remove_dir_all(&args.scratch);
                assert_eq!(outcome.errors, Vec::<String>::new(), "{name} trace={trace}");
                // `failed` counts ops over 1 s too, which a robbed host
                // produces by itself: reported, not asserted.
                assert!(outcome.attempted > outcome.failed, "{name}");
                for m in &spec.end_to_end {
                    if m.name == "rss_mb" {
                        continue; // sampled by the caller, around the workload
                    }
                    let v = outcome.metrics.0.get(&m.name).and_then(|x| x.value);
                    assert!(v.is_some_and(|v| v > 0.0), "{name}: {} = {v:?}", m.name);
                }
                for produced in outcome.metrics.0.keys() {
                    let declared = spec.end_to_end.iter().chain(&spec.per_layer);
                    assert!(
                        declared.clone().any(|m| m.name == *produced),
                        "{name} emits undeclared metric {produced}"
                    );
                    emitted.insert(produced.clone());
                }
                assert_eq!(
                    !outcome.trace.spans.is_empty(),
                    trace,
                    "{name}: spans iff traced"
                );
            }
        }
        assert!(status_mb("VmHWM:").is_some_and(|mb| mb > 0.0));
        emitted.extend(["rss_mb".to_string(), "btbench.peak_rss_mb".to_string()]);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(emitted.contains(&m.name), "no workload emits {}", m.name);
        }
    }

    #[test]
    fn run_flags_parse() {
        let spec = Spec::load();
        let parse = |s: &str| parse_run(s.split_whitespace().map(String::from), &spec);
        let cli = parse("--workload sim-byz-n32 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(cli.workload.as_deref(), Some("sim-byz-n32"));
        assert_eq!(
            (cli.run.seed, cli.run.seconds, cli.run.trace),
            (9, 3.0, true)
        );
        let cli = parse("").unwrap();
        assert_eq!(cli.run.seed, DEFAULT_SEED);
        assert_eq!(cli.run.seconds, spec.run_seconds as f64);
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate 1").is_err());
    }
}
