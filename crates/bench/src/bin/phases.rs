//! Emits `BENCH_phases.json`: phase-count distributions for the phase-bound
//! experiments, plus the large-n §4 sweep —
//!
//! * **E3** (§4.1): phases-to-decision of the simple majority variant from a
//!   balanced start (the "< 7 expected phases" bound);
//! * **E4** (§4.2): phases-to-decision of the malicious protocol against the
//!   balancing adversary;
//! * **E8** (§3.3): decision lag in phases (last − first correct decision)
//!   for `k < n/5` versus `n/5 ≤ k ≤ (n−1)/3`;
//! * **large_n_sweep**: phases-to-decision versus `n` for `k = l·√n/2`
//!   (`l² = 1.5`), charted against the closed-form eq. 13 envelope — the
//!   paper's O(1)-phases claim as a measured trajectory, with per-delivery
//!   wall-clock cost recorded as the engine's perf regression baseline.
//!
//! The small-n sections carry full histograms (value → run count); sweep
//! points carry summary statistics, wall time, and ns-per-delivery. All
//! values derive deterministically from the base seeds; trials of one sweep
//! point fan across worker threads via `simnet::run_trials`.
//!
//! Usage: `phases [OPTIONS] [OUTPUT.json]` (default `BENCH_phases.json`):
//!
//! * `--sweep-n LIST` — comma-separated sweep sizes
//!   (default `32,64,128,256,512,1024,2048,4096`; env `BT_SWEEP_N`);
//! * `--trials N` — trials per sweep point before budget scaling
//!   (default 25; env `BT_SWEEP_TRIALS`);
//! * `--seed S` — sweep base seed (default `0x5EE9`; env `BT_SWEEP_SEED`);
//! * `--malicious-cap N` — largest malicious sweep size (default 256: the
//!   protocol is O(n³) deliveries per run, so larger points cost minutes
//!   each; env `BT_SWEEP_MALICIOUS_CAP`);
//! * `--quick` — shrunken everything, for CI schema gates.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bench::{
    malicious_sweep_limit, malicious_system, malicious_system_capped, simple_sweep_limit,
    simple_system, simple_system_capped, split_inputs, sweep_k,
};
use bt_core::Config;
use markov::collapsed::{eq13_bound, paper_l};
use obs::json::Json;
use simnet::{run_trials, run_trials_observed, RunReport, Summary, TrialStats};

/// Per-sweep-point step budget: trials are trimmed (never below 3) so one
/// point costs at most about this many deliveries, keeping the default
/// regeneration under a few minutes on one core.
const POINT_STEP_BUDGET: u64 = 60_000_000;

/// Resolved command-line / environment parameters.
struct Params {
    output: String,
    sweep_n: Vec<usize>,
    trials: usize,
    seed: u64,
    malicious_cap: usize,
    quick: bool,
}

impl Params {
    fn parse() -> Result<Params, String> {
        let env_or =
            |flag_val: Option<String>, env: &str| flag_val.or_else(|| std::env::var(env).ok());
        let mut output = None;
        let mut sweep_n = None;
        let mut trials = None;
        let mut seed = None;
        let mut malicious_cap = None;
        let mut quick = false;

        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--sweep-n" => sweep_n = Some(value("--sweep-n")?),
                "--trials" => trials = Some(value("--trials")?),
                "--seed" => seed = Some(value("--seed")?),
                "--malicious-cap" => malicious_cap = Some(value("--malicious-cap")?),
                "--quick" => quick = true,
                "--help" | "-h" => return Err("help".into()),
                other if other.starts_with('-') => {
                    return Err(format!("unknown option {other}"));
                }
                positional => {
                    if output.replace(positional.to_string()).is_some() {
                        return Err("more than one OUTPUT argument".into());
                    }
                }
            }
        }

        let sweep_n = match env_or(sweep_n, "BT_SWEEP_N") {
            None if quick => vec![32, 64],
            None => vec![32, 64, 128, 256, 512, 1024, 2048, 4096],
            Some(list) => list
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad sweep size {p:?}"))
                        .and_then(|n| {
                            if n >= 4 {
                                Ok(n)
                            } else {
                                Err(format!("sweep sizes must be at least 4, got {n}"))
                            }
                        })
                })
                .collect::<Result<_, _>>()?,
        };
        let parse_u64 = |text: Option<String>, name: &str, default: u64| {
            text.map_or(Ok(default), |t| {
                t.parse::<u64>().map_err(|_| format!("bad {name} {t:?}"))
            })
        };
        let trials = parse_u64(
            env_or(trials, "BT_SWEEP_TRIALS"),
            "--trials",
            if quick { 5 } else { 25 },
        )? as usize;
        let seed = parse_u64(env_or(seed, "BT_SWEEP_SEED"), "--seed", 0x5EE9)?;
        let malicious_cap = parse_u64(
            env_or(malicious_cap, "BT_SWEEP_MALICIOUS_CAP"),
            "--malicious-cap",
            if quick { 64 } else { 256 },
        )? as usize;
        if trials == 0 {
            return Err("--trials must be positive".into());
        }
        Ok(Params {
            output: output.unwrap_or_else(|| "BENCH_phases.json".to_string()),
            sweep_n,
            trials,
            seed,
            malicious_cap,
            quick,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "sweep_n".into(),
                Json::Arr(self.sweep_n.iter().map(|&n| Json::num(n as u64)).collect()),
            ),
            ("trials".into(), Json::num(self.trials as u64)),
            ("seed".into(), Json::num(self.seed)),
            ("malicious_cap".into(), Json::num(self.malicious_cap as u64)),
            ("quick".into(), Json::Bool(self.quick)),
        ])
    }
}

/// One small-n configuration's sampled distribution (E3/E4/E8).
struct Distribution {
    n: usize,
    k: usize,
    trials: usize,
    samples: Vec<f64>,
    histogram: BTreeMap<u64, u64>,
}

impl Distribution {
    fn collect<M: Clone + PartialEq + 'static>(
        n: usize,
        k: usize,
        trials: usize,
        base_seed: u64,
        factory: impl FnMut(u64) -> simnet::Sim<M>,
        mut metric: impl FnMut(&RunReport) -> Option<u64>,
    ) -> Self {
        let mut samples = Vec::new();
        let mut histogram = BTreeMap::new();
        run_trials_observed(trials, base_seed, factory, |_, report| {
            if let Some(value) = metric(report) {
                samples.push(value as f64);
                *histogram.entry(value).or_insert(0) += 1;
            }
        });
        Distribution {
            n,
            k,
            trials,
            samples,
            histogram,
        }
    }

    fn to_json(&self) -> Json {
        let summary = Summary::of(self.samples.clone());
        Json::Obj(vec![
            ("n".into(), Json::num(self.n as u64)),
            ("k".into(), Json::num(self.k as u64)),
            ("trials".into(), Json::num(self.trials as u64)),
            ("decided".into(), Json::num(self.samples.len() as u64)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("mean".into(), Json::Num(summary.mean)),
                    ("p50".into(), Json::Num(summary.p50)),
                    ("p95".into(), Json::Num(summary.p95)),
                    ("max".into(), Json::Num(summary.max)),
                ]),
            ),
            (
                "histogram".into(),
                Json::Obj(
                    self.histogram
                        .iter()
                        .map(|(value, count)| (value.to_string(), Json::num(*count)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Decision lag in phases: last − first correct decision phase.
fn lag_phases(report: &RunReport) -> Option<u64> {
    if !report.all_correct_decided() {
        return None;
    }
    let phases: Vec<u64> = report
        .correct()
        .filter_map(|i| report.decision_phases[i])
        .collect();
    Some(phases.iter().max()? - phases.iter().min()?)
}

/// Trials affordable for one sweep point under [`POINT_STEP_BUDGET`],
/// given an estimated per-trial step count: at least 3 for a usable
/// spread, at most the configured maximum.
fn budgeted_trials(max_trials: usize, est_steps_per_trial: u64) -> usize {
    #[allow(clippy::cast_possible_truncation)]
    let affordable = (POINT_STEP_BUDGET / est_steps_per_trial.max(1)) as usize;
    affordable.max(3).min(max_trials.max(1))
}

/// One sweep point's JSON record: configuration, decision statistics, the
/// eq. 13 envelope, and the engine cost counters.
#[allow(clippy::too_many_arguments)]
fn sweep_point_json(
    protocol: &str,
    n: usize,
    k: usize,
    trials: usize,
    step_limit: u64,
    stats: &TrialStats,
    wall_ns: u128,
    bound: f64,
) -> Json {
    let ns_per_delivery = if stats.total_steps == 0 {
        0.0
    } else {
        wall_ns as f64 / stats.total_steps as f64
    };
    Json::Obj(vec![
        ("protocol".into(), Json::str(protocol)),
        ("n".into(), Json::num(n as u64)),
        ("k".into(), Json::num(k as u64)),
        ("l".into(), Json::Num(paper_l())),
        ("trials".into(), Json::num(trials as u64)),
        ("decided".into(), Json::num(stats.decided as u64)),
        ("timeouts".into(), Json::num(stats.timeouts as u64)),
        ("deadlocks".into(), Json::num(stats.deadlocks as u64)),
        (
            "disagreements".into(),
            Json::num(stats.disagreements as u64),
        ),
        ("step_limit".into(), Json::num(step_limit)),
        ("steps_total".into(), Json::num(stats.total_steps)),
        ("messages_mean".into(), Json::Num(stats.messages.mean)),
        ("wall_ms".into(), Json::Num(wall_ns as f64 / 1_000_000.0)),
        ("ns_per_delivery".into(), Json::Num(ns_per_delivery)),
        (
            "phases".into(),
            Json::Obj(vec![
                ("mean".into(), Json::Num(stats.phases.mean)),
                ("p50".into(), Json::Num(stats.phases.p50)),
                ("p95".into(), Json::Num(stats.phases.p95)),
                ("max".into(), Json::Num(stats.phases.max)),
            ]),
        ),
        ("eq13_bound".into(), Json::Num(bound)),
        (
            "mean_within_bound".into(),
            Json::Bool(stats.phases.mean <= bound),
        ),
    ])
}

/// The large-n trajectory: for each `n`, `k = l·√n/2` attackers (§4.2
/// malicious points, up to the cap) and the §4.1 simple variant (to the
/// full sweep), fanned across threads per point.
fn large_n_sweep(params: &Params) -> Json {
    let l = paper_l();
    let mut malicious = Vec::new();
    let mut simple = Vec::new();

    for &n in &params.sweep_n {
        let k = sweep_k(n);
        let bound = eq13_bound(n, l);

        if n <= params.malicious_cap {
            let config = Config::malicious(n, k).expect("sweep_k stays within (n-1)/3");
            let inputs = split_inputs(n, n / 2);
            let limit = malicious_sweep_limit(n);
            let trials = budgeted_trials(params.trials, 3 * (n as u64).pow(3));
            eprintln!("phases: sweep malicious n={n} k={k} trials={trials}…");
            let start = Instant::now();
            let stats = run_trials(trials, params.seed ^ (n as u64), |seed| {
                malicious_system_capped(config, &inputs, k, seed, limit)
            });
            malicious.push(sweep_point_json(
                "malicious",
                n,
                k,
                trials,
                limit,
                &stats,
                start.elapsed().as_nanos(),
                bound,
            ));
        }

        let config = Config::unchecked(n, k);
        let inputs = split_inputs(n, n / 2);
        let limit = simple_sweep_limit(n);
        let trials = budgeted_trials(params.trials, 3 * (n as u64).pow(2));
        eprintln!("phases: sweep simple n={n} k={k} trials={trials}…");
        let start = Instant::now();
        let stats = run_trials(trials, params.seed ^ (n as u64).rotate_left(32), |seed| {
            simple_system_capped(config, &inputs, 0, seed, limit)
        });
        simple.push(sweep_point_json(
            "simple",
            n,
            k,
            trials,
            limit,
            &stats,
            start.elapsed().as_nanos(),
            bound,
        ));
    }

    Json::Obj(vec![
        ("l".into(), Json::Num(l)),
        ("malicious".into(), Json::Arr(malicious)),
        ("simple".into(), Json::Arr(simple)),
    ])
}

fn main() -> ExitCode {
    let params = match Params::parse() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!(
                "phases: {msg}\nusage: phases [--sweep-n LIST] [--trials N] [--seed S] \
                 [--malicious-cap N] [--quick] [OUTPUT.json]"
            );
            return ExitCode::FAILURE;
        }
    };
    let scale = |full: usize, quick: usize| if params.quick { quick } else { full };

    // E3: §4.1 simple variant, balanced inputs, maximal decidable k.
    let mut e3 = Vec::new();
    for n in [12usize, 18] {
        let k = (n - 1) / 3;
        let config = Config::unchecked(n, k);
        let inputs = split_inputs(n, n / 2);
        eprintln!("phases: E3 n={n} k={k}…");
        e3.push(
            Distribution::collect(
                n,
                k,
                scale(200, 20),
                0xE3,
                |seed| simple_system(config, &inputs, 0, seed),
                RunReport::phases_to_decision,
            )
            .to_json(),
        );
    }

    // E4: malicious protocol vs the balancing adversary.
    let mut e4 = Vec::new();
    for (n, k) in [(16usize, 1usize), (25, 2)] {
        let config = Config::malicious(n, k).expect("within the (n-1)/3 bound");
        let inputs = split_inputs(n, n / 2);
        eprintln!("phases: E4 n={n} k={k}…");
        e4.push(
            Distribution::collect(
                n,
                k,
                scale(100, 10),
                0xE4,
                |seed| malicious_system(config, &inputs, k, seed),
                RunReport::phases_to_decision,
            )
            .to_json(),
        );
    }

    // E8: decision lag across the k < n/5 boundary.
    let mut e8 = Vec::new();
    for (n, k) in [(16usize, 1usize), (16, 5)] {
        let config = Config::malicious(n, k).expect("within the (n-1)/3 bound");
        let inputs = split_inputs(n, n / 2);
        eprintln!("phases: E8 n={n} k={k}…");
        e8.push(
            Distribution::collect(
                n,
                k,
                scale(100, 10),
                0xE8,
                |seed| malicious_system(config, &inputs, k, seed),
                lag_phases,
            )
            .to_json(),
        );
    }

    let sweep = large_n_sweep(&params);

    let doc = Json::Obj(vec![
        ("params".into(), params.to_json()),
        ("e3_simple_phases".into(), Json::Arr(e3)),
        ("e4_malicious_phases".into(), Json::Arr(e4)),
        ("e8_decision_lag".into(), Json::Arr(e8)),
        ("large_n_sweep".into(), sweep),
    ]);
    match std::fs::write(&params.output, doc.render() + "\n") {
        Ok(()) => {
            eprintln!("phases: wrote {}", params.output);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("phases: cannot write {}: {err}", params.output);
            ExitCode::FAILURE
        }
    }
}
