//! `experiments` — regenerates every table of EXPERIMENTS.md (E1–E12,
//! the large-n sweep and the n = 1024 slice) and `BENCH_phases.json`.
//!
//! Each `eN` function runs one experiment with fixed seeds, trial counts
//! and step limits, and returns its table. The `assert!`s inside are the
//! paper's claims: Theorem 2/4 agreement at maximal `k`, the 3-phase and
//! 2-phase fast paths, E8's lag ≤ 1 for `k < n/5`, the E5 lower-bound
//! demonstrations, E11's safe paper bars (and unsafe lowered Figure 2
//! bars at `n = 4`), E12's scheduler-independent safety, and the slice's
//! exact work within its wall budget. A run that finishes is a run in
//! which all of them held.
//!
//! `main` prints every table to stdout and writes one CSV per table, with
//! the same rows, to the output directory (default `results/`). E3, E4,
//! E8 and the sweep also write their trials' histograms and the sweep's
//! rows to `OUT_DIR/BENCH_phases.json`; the repository root holds the
//! committed copy:
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- [OUT_DIR]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use adversary::{ContrarianMalicious, EquivocatingEchoer, Silent, TwoFacedMalicious};
use bench::{
    alternating_inputs, failstop_system, malicious_sweep_limit, malicious_system,
    malicious_system_capped, malicious_system_silent, simple_sweep_limit, simple_system,
    simple_system_capped, split_inputs, sweep_k,
};
use benor::BenOrConfig;
use bt_core::{Config, DeadMsg, InitiallyDead, Malicious, MaliciousMsg, Threshold};
use markov::{collapsed, FailStopChain, MaliciousChain};
use modelcheck::demos;
use obs::json::Json;
use simnet::scheduler::{
    DelayingScheduler, DeliveryOrder, FairScheduler, PartitionScheduler, RoundRobinScheduler,
    Scheduler,
};
use simnet::{
    run_trials, run_trials_seq, Process, ProcessId, Role, RunStatus, Sim, SimRng, Summary,
    TrialStats, Value,
};

/// One experiment's result: printed as aligned text, written as CSV.
struct Table {
    /// CSV file stem.
    name: &'static str,
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    /// How to read the table; printed under it, empty for none.
    note: &'static str,
    /// The table's section of `BENCH_phases.json`, if it has one.
    phases: Option<(&'static str, Json)>,
}

impl Table {
    /// A table whose columns are named by the CSV `header`.
    fn new(name: &'static str, title: String, header: &'static str) -> Self {
        Table {
            name,
            title,
            columns: header.split(',').collect(),
            rows: Vec::new(),
            note: "",
            phases: None,
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: ragged row", self.name);
        self.rows.push(cells);
    }

    fn print(&self) {
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].chars().count())
                    .chain([self.columns[c].chars().count()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        fn line<S: AsRef<str>>(cells: &[S], widths: &[usize]) {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(cell, &w)| format!("{:>w$}", cell.as_ref()))
                .collect();
            println!("  {}", padded.join("  "));
        }
        println!("\n{}", self.title);
        line(&self.columns, &widths);
        for row in &self.rows {
            line(row, &widths);
        }
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
    }

    fn csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains([',', '"']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = self.columns.join(",") + "\n";
        for row in &self.rows {
            out += &row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",");
            out.push('\n');
        }
        out
    }
}

/// One row of a `BENCH_phases.json` distribution section: a
/// configuration's trial count, and the summary and histogram (value →
/// trial count) of its decided trials' samples.
fn distribution_json(
    n: usize,
    k: usize,
    trials: usize,
    summary: &Summary,
    histogram: &BTreeMap<u64, usize>,
) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::num(n as u64)),
        ("k".into(), Json::num(k as u64)),
        ("trials".into(), Json::num(trials as u64)),
        ("decided".into(), Json::num(summary.count as u64)),
        ("summary".into(), summary_json(summary)),
        (
            "histogram".into(),
            Json::Obj(
                histogram
                    .iter()
                    .map(|(value, &count)| (value.to_string(), Json::num(count as u64)))
                    .collect(),
            ),
        ),
    ])
}

fn summary_json(summary: &Summary) -> Json {
    Json::Obj(vec![
        ("mean".into(), Json::Num(summary.mean)),
        ("p50".into(), Json::Num(summary.p50)),
        ("p95".into(), Json::Num(summary.p95)),
        ("max".into(), Json::Num(summary.max)),
    ])
}

/// `part` of `whole` as a whole-number percentage (rounded down).
fn pct(part: usize, whole: usize) -> String {
    (100 * part / whole).to_string()
}

/// E1 — Theorem 2: Figure 1 agrees for every `k ≤ ⌊(n−1)/2⌋` with the
/// full `k` crashes occurring.
fn e1() -> Table {
    let mut t = Table::new(
        "e1_failstop",
        "E1: fail-stop resilience sweep (200 trials/point, max crashes)".into(),
        "n,k,agree_pct,decide_pct,mean_phases,mean_msgs",
    );
    for n in [3usize, 5, 7, 9, 11, 15, 21] {
        let mut ks = vec![0, (n - 1) / 4, Config::max_fail_stop_k(n)];
        ks.dedup();
        for k in ks {
            let config = Config::fail_stop(n, k).expect("within bound");
            let inputs = alternating_inputs(n);
            let s = run_trials(200, 0xE1, |seed| failstop_system(config, &inputs, k, seed));
            assert_eq!(s.disagreements, 0, "Theorem 2 violated at n={n} k={k}");
            t.row(vec![
                n.to_string(),
                k.to_string(),
                pct(s.trials - s.disagreements, s.trials),
                pct(s.decided, s.trials),
                format!("{:.2}", s.phases.mean),
                format!("{:.0}", s.messages.mean),
            ]);
        }
    }
    t
}

type Attacker = fn(Config) -> Box<dyn Process<Msg = MaliciousMsg>>;

/// The attacker families of E2 (the last two also attack E11's Figure 2
/// rows).
const ATTACKERS: [(&str, Attacker); 4] = [
    ("silent", |_c| Box::new(Silent::<MaliciousMsg>::new())),
    ("contrarian", |c| Box::new(ContrarianMalicious::new(c))),
    ("two-faced", |c| Box::new(TwoFacedMalicious::new(c))),
    ("equiv-echo", |c| Box::new(EquivocatingEchoer::new(c))),
];

/// E2's 100 trials: `n − k` correct Figure 2 processes with alternating
/// inputs against `k` copies of one attacker, all on `config`.
fn e2_trials(config: Config, make: Attacker) -> TrialStats {
    let (n, k) = (config.n(), config.k());
    run_trials(100, 0xE2, |seed| {
        let mut b = Sim::builder();
        for i in 0..n - k {
            b.process(
                Box::new(Malicious::new(config, Value::from(i % 2 == 0))),
                Role::Correct,
            );
        }
        for _ in 0..k {
            b.process(make(config), Role::Faulty);
        }
        b.seed(seed).step_limit(16_000_000);
        b.build()
    })
}

/// E2 — Theorem 4: Figure 2 agrees at maximal `k` against four attacker
/// families.
fn e2() -> Table {
    let mut t = Table::new(
        "e2_malicious_resilience",
        "E2: malicious resilience sweep (100 trials/point, max k)".into(),
        "n,k,strategy,agree_pct,decide_pct,mean_phases",
    );
    for n in [4usize, 7, 10, 13] {
        let k = Config::max_malicious_k(n);
        let config = Config::malicious(n, k).expect("within bound");
        for (name, make) in ATTACKERS {
            let s = e2_trials(config, make);
            assert_eq!(
                s.disagreements, 0,
                "Theorem 4 violated: n={n} k={k} vs {name}"
            );
            t.row(vec![
                n.to_string(),
                k.to_string(),
                name.to_string(),
                pct(s.trials - s.disagreements, s.trials),
                pct(s.decided, s.trials),
                format!("{:.2}", s.phases.mean),
            ]);
        }
    }
    t
}

/// E3 — §4.1 / eq. (13): expected phases of the simple variant from a
/// balanced start, exact chain vs closed-form bound vs simulation.
fn e3() -> Table {
    let mut t = Table::new(
        "e3_phases",
        "E3: §4.1 fail-stop expected phases, k = n/3, balanced inputs (400 simulated trials)"
            .into(),
        "n,exact_chain,eq13_bound,simulated,under_7",
    );
    let mut phases = Vec::new();
    for n in [12usize, 18, 24, 30] {
        let chain = FailStopChain::paper(n);
        let bound = collapsed::headline_bound(n);
        // Simulate at the protocol's maximal decidable k = ⌊(n−1)/3⌋ (at
        // the analysis's idealized k = n/3 the decide threshold equals the
        // quota and no process can decide — see EXPERIMENTS.md).
        let config = Config::unchecked(n, Config::max_malicious_k(n));
        let inputs = split_inputs(n, n / 2);
        let s = run_trials(400, 0xE3, |seed| simple_system(config, &inputs, 0, seed));
        assert!(bound < 7.0, "eq. (13) must stay below 7");
        t.row(vec![
            n.to_string(),
            format!("{:.3}", chain.expected_phases_balanced()),
            format!("{bound:.3}"),
            format!("{:.3}", s.phases.mean),
            (if s.phases.mean < 7.0 { "yes" } else { "NO" }).to_string(),
        ]);
        phases.push(distribution_json(
            n,
            config.k(),
            s.trials,
            &s.phases,
            &s.phase_histogram,
        ));
    }
    t.phases = Some(("e3_simple_phases", Json::Arr(phases)));
    t
}

/// E4 — §4.2: against the balancing adversary, expected phases stay under
/// `1/(2Φ(l))` for `k = l√n/2`.
fn e4() -> Table {
    let mut t = Table::new(
        "e4_malicious_phases",
        "E4: §4.2 malicious expected phases vs balancing adversary (150 simulated trials)".into(),
        "n,k,l,exact_chain,paper_bound,simulated",
    );
    let mut phases = Vec::new();
    for &(n, k) in &[(16usize, 1usize), (25, 2), (36, 3), (49, 3)] {
        let chain = MaliciousChain::new(n, k);
        let l = chain.l_parameter();
        let config = Config::malicious(n, k).expect("k ≤ n/5 ≤ (n−1)/3 here");
        let inputs = split_inputs(n, n / 2);
        let s = run_trials(150, 0xE4, |seed| malicious_system(config, &inputs, k, seed));
        assert_eq!(s.disagreements, 0);
        t.row(vec![
            n.to_string(),
            k.to_string(),
            format!("{l:.3}"),
            format!("{:.3}", chain.expected_phases_balanced()),
            format!("{:.3}", MaliciousChain::paper_bound(l)),
            format!("{:.3}", s.phases.mean),
        ]);
        phases.push(distribution_json(
            n,
            k,
            s.trials,
            &s.phases,
            &s.phase_histogram,
        ));
    }
    t.note = "k = o(√n) ⇒ l → 0 ⇒ bound → 1: constant expected phases.";
    t.phases = Some(("e4_malicious_phases", Json::Arr(phases)));
    t
}

/// E5 — Lemma 2, Theorems 1 and 3: what happens at and beyond the
/// resilience bounds (exhaustive exploration, then a seed search).
fn e5() -> Table {
    let mut t = Table::new(
        "e5_lower_bounds",
        "E5: lower-bound demonstrations".into(),
        "claim,setup,result",
    );

    let bivalent = demos::find_bivalent_initial(Config::fail_stop(3, 1).unwrap(), 1);
    assert!(bivalent.is_some());
    t.row(vec![
        "Lemma 2: bivalent initial inputs".into(),
        "n=3 k=1".into(),
        format!("{bivalent:?}"),
    ]);

    let stuck = demos::failstop_beyond_bound_never_decides(2, 1);
    assert!(stuck);
    t.row(vec![
        "Thm 1: no schedule decides".into(),
        "n=2 k=1 (> bound 0)".into(),
        stuck.to_string(),
    ]);

    // Theorem 3 flip side: a protocol tuned for k=1 faces 2 attackers.
    let tuned = Config::malicious(4, 1).unwrap();
    let mut first_violation = None;
    for seed in 0..3_000u64 {
        let mut b = Sim::builder();
        for i in 0..2 {
            b.process(
                Box::new(Malicious::new(tuned, Value::from(i == 0))),
                Role::Correct,
            );
        }
        for _ in 0..2 {
            b.process(Box::new(TwoFacedMalicious::new(tuned)), Role::Faulty);
        }
        let r = b.seed(seed).step_limit(150_000).build().run();
        if !r.agreement() {
            first_violation = Some((seed, "agreement"));
            break;
        }
        if !r.all_correct_decided() {
            first_violation = Some((seed, "termination"));
            break;
        }
    }
    assert!(
        first_violation.is_some(),
        "guarantees must break beyond the bound"
    );
    t.row(vec![
        "Thm 3: first violation".into(),
        "n=4 tuned k=1, 2 attackers".into(),
        format!("{first_violation:?}"),
    ]);
    t
}

/// One row of a fast-path table: `ones` inputs of 1 decided 1 every time,
/// within `max_phases`.
fn fast_path_row(t: &mut Table, ones: usize, s: &TrialStats, max_phases: f64) {
    assert_eq!(s.one_rate(), 1.0, "supermajority input must win");
    assert!(s.phases.max <= max_phases, "{max_phases}-phase claim");
    t.row(vec![
        ones.to_string(),
        format!("{:.0}", s.one_rate() * 100.0),
        s.phases.p50.to_string(),
        s.phases.max.to_string(),
    ]);
}

const FAST_PATH_COLUMNS: &str = "ones,p_decide_1_pct,phases_p50,phases_max";

/// E6a — §2.3: more than `(n+k)/2` equal inputs are decided "in just three
/// phases" by Figure 1.
fn e6a() -> Table {
    let mut t = Table::new(
        "e6a_failstop_fast_path",
        "E6a: fail-stop supermajority fast path (n=9, k=4, 300 trials)".into(),
        FAST_PATH_COLUMNS,
    );
    let config = Config::fail_stop(9, 4).unwrap();
    // (n+k)/2 = 6.5 ⇒ at least 7 ones forces value 1.
    for ones in [7usize, 8, 9] {
        let inputs = split_inputs(9, ones);
        let s = run_trials(300, 0xE6, |seed| failstop_system(config, &inputs, 0, seed));
        fast_path_row(&mut t, ones, &s, 3.0);
    }
    t
}

/// E6b — §3.3: more than `(n+k)/2` equal correct inputs are decided "in
/// just two phases" by Figure 2.
fn e6b() -> Table {
    let mut t = Table::new(
        "e6b_malicious_fast_path",
        "E6b: malicious supermajority fast path (n=9, k=2, 300 trials)".into(),
        FAST_PATH_COLUMNS,
    );
    let config = Config::malicious(9, 2).unwrap();
    // (n+k)/2 = 5.5 ⇒ at least 6 correct ones forces value 1.
    for ones in [6usize, 7] {
        let inputs = split_inputs(9, ones);
        let s = run_trials(300, 0xE6, |seed| malicious_system(config, &inputs, 0, seed));
        fast_path_row(&mut t, ones, &s, 2.0);
    }
    t
}

/// E6c — the decision approximates the majority of the inputs.
fn e6c() -> Table {
    let n = 9;
    let mut t = Table::new(
        "e6c_majority_approx",
        "E6c: decision ≈ majority of inputs (n=9, fail-stop k=2, 300 trials)".into(),
        "ones,p_decide_1_pct",
    );
    let config = Config::fail_stop(n, 2).unwrap();
    for ones in 0..=n {
        let inputs = split_inputs(n, ones);
        let s = run_trials(300, 0xE6C, |seed| failstop_system(config, &inputs, 0, seed));
        // Unanimity is exactly the bivalence/validity corner.
        if ones == 0 {
            assert_eq!(s.one_rate(), 0.0);
        }
        if ones == n {
            assert_eq!(s.one_rate(), 1.0);
        }
        t.row(vec![
            ones.to_string(),
            format!("{:.1}", s.one_rate() * 100.0),
        ]);
    }
    t
}

/// E7 — §6: Bracha-Toueg's §4.1 variant vs Ben-Or's fail-stop protocol,
/// same substrate, same fair scheduler, alternating inputs, no faults.
fn e7() -> Table {
    let mut t = Table::new(
        "e7_vs_benor",
        "E7: phases/rounds to decide, 50/50 inputs, no faults (200 trials)".into(),
        "n,bt_mean,bt_std,benor_mean,benor_std",
    );
    for n in [4usize, 6, 8, 10, 12] {
        let inputs = alternating_inputs(n);
        let bt_cfg = Config::malicious(n, Config::max_malicious_k(n)).unwrap();
        let bt = run_trials(200, 0xE7, |seed| {
            let mut b = Sim::builder();
            bt_core::simple::build_correct_system(&mut b, bt_cfg, &inputs);
            b.seed(seed).step_limit(8_000_000);
            b.build()
        });
        let bo_cfg = BenOrConfig::fail_stop(n, Config::max_fail_stop_k(n)).unwrap();
        let bo = run_trials(200, 0xE7, |seed| {
            let mut b = Sim::builder();
            benor::build_correct_system(&mut b, bo_cfg, &inputs);
            b.seed(seed).step_limit(8_000_000);
            b.build()
        });
        t.row(vec![
            n.to_string(),
            format!("{:.2}", bt.phases.mean),
            format!("{:.1}", bt.phases.stddev),
            format!("{:.2}", bo.phases.mean),
            format!("{:.1}", bo.phases.stddev),
        ]);
    }
    t.note = "resilience: Bracha-Toueg tolerates n/3 malicious, Ben-Or only n/5.";
    t
}

/// E8 — §3.3: "if k < n/5, once a correct process decides, all the other
/// processes also decide within one phase". The lag is the last minus the
/// first correct decision phase of a run, against balancing attackers.
fn e8() -> Table {
    let mut t = Table::new(
        "e8_decision_lag",
        "E8: decision lag (last − first correct decision phase), 60 trials".into(),
        "n,k,k_below_n_5,mean_lag,max_lag,lag_le_1_pct",
    );
    let mut rng = SimRng::seed(0xE8);
    let mut lag_section = Vec::new();
    for &(n, k) in &[(11usize, 2usize), (16, 3), (13, 4)] {
        let config = Config::malicious(n, k).expect("within bound");
        let inputs = alternating_inputs(n);
        let lags: Vec<u64> = (0..60)
            .filter_map(|i| {
                let seed = rng.fork(i).initial_seed();
                let r = malicious_system_capped(config, &inputs, k, seed, 6_000_000).run();
                if !r.all_correct_decided() {
                    return None;
                }
                let phases: Vec<u64> = r.correct().filter_map(|p| r.decision_phases[p]).collect();
                Some(phases.iter().max().unwrap() - phases.iter().min().unwrap())
            })
            .collect();
        let mut histogram = BTreeMap::new();
        for &lag in &lags {
            *histogram.entry(lag).or_insert(0) += 1;
        }
        let lag = Summary::of(lags.iter().map(|&l| l as f64).collect());
        let small_k = 5 * k < n;
        let within = lags.iter().filter(|&&l| l <= 1).count() * 100 / lags.len();
        if small_k {
            assert_eq!(within, 100, "k < n/5 must give lag ≤ 1 (n={n}, k={k})");
        }
        t.row(vec![
            n.to_string(),
            k.to_string(),
            (if small_k { "yes" } else { "no" }).to_string(),
            format!("{:.2}", lag.mean),
            lag.max.to_string(),
            within.to_string(),
        ]);
        lag_section.push(distribution_json(n, k, 60, &lag, &histogram));
    }
    t.phases = Some(("e8_decision_lag", Json::Arr(lag_section)));
    t
}

/// E9 — message complexity: Figure 1 costs Θ(n²) per phase, Figure 2's
/// echo stage Θ(n³).
fn e9() -> Table {
    let mut t = Table::new(
        "e9_message_complexity",
        "E9: messages per run and per phase·n² (100 trials, balanced inputs)".into(),
        "n,fs_msgs,fs_per_phase_n2,mal_msgs,mal_per_phase_n2",
    );
    for n in [4usize, 7, 10, 13, 16] {
        let inputs = split_inputs(n, n / 2);
        let fs_cfg = Config::fail_stop(n, Config::max_fail_stop_k(n)).unwrap();
        let fs = run_trials(100, 0xE9, |seed| failstop_system(fs_cfg, &inputs, 0, seed));
        let mal_cfg = Config::malicious(n, Config::max_malicious_k(n)).unwrap();
        let mal = run_trials(100, 0xE9, |seed| {
            malicious_system_silent(mal_cfg, &inputs, 0, seed)
        });
        let per_phase_n2 =
            |s: &TrialStats| s.messages.mean / ((s.phases.mean + 1.0) * (n * n) as f64);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", fs.messages.mean),
            format!("{:.2}", per_phase_n2(&fs)),
            format!("{:.0}", mal.messages.mean),
            format!("{:.2}", per_phase_n2(&mal)),
        ]);
    }
    t.note = "FS column stays O(1) per phase·n²; MAL column grows ~n (the echo factor).";
    t
}

/// E10 — the §5 footnote protocol: with every process correct both values
/// are reachable; any initially-dead process pins the decision to 0.
fn e10() -> Table {
    let n = 6;
    let mut t = Table::new(
        "e10_initially_dead",
        format!("E10: §5 initially-dead protocol, n = {n}, majority-1 live inputs (300 trials)"),
        "dead,decided_pct,p1_pct,p0_pct,mean_steps",
    );
    for dead in 0..=2usize {
        // Every live process votes 1.
        let s = run_trials(300, 0xE10, |seed| {
            let mut b = Sim::builder();
            for _ in 0..n - dead {
                b.process(Box::new(InitiallyDead::new(n, Value::One)), Role::Correct);
            }
            for _ in 0..dead {
                b.process(Box::new(Silent::<DeadMsg>::new()), Role::Faulty);
            }
            b.seed(seed).step_limit(1_000_000);
            b.build()
        });
        assert_eq!(s.disagreements, 0);
        assert_eq!(s.decided, s.trials, "within quorum tolerance");
        if dead > 0 {
            assert_eq!(
                s.one_rate(),
                0.0,
                "intermediate bivalence: any fault pins the decision to 0"
            );
        } else {
            assert!(
                s.one_rate() > 0.0,
                "all-correct majority-1 runs must sometimes decide 1"
            );
        }
        t.row(vec![
            dead.to_string(),
            pct(s.decided, s.trials),
            format!("{:.1}", s.one_rate() * 100.0),
            format!("{:.1}", (1.0 - s.one_rate()) * 100.0),
            format!("{:.0}", s.steps.mean),
        ]);
    }
    t.note = "dead = 0 splits between outcomes (bivalent); dead ≥ 1 is always 0.";
    t
}

/// E11 — ablation of Figure 1's witness (`> n/2`) and decision (`> k`)
/// bars: lowering either trades safety for speed.
fn e11() -> Table {
    let paper = Config::fail_stop(8, 3).unwrap();
    let inputs = alternating_inputs(paper.n());
    let mut t = Table::new(
        "e11_threshold_ablation",
        "E11: Figure 1 threshold ablation (n=8, k=3, split inputs, 400 trials)".into(),
        "witness_at,decide_at,agree_pct,decide_pct,mean_phases",
    );
    for witness_slack in [0usize, 1, 2, 3, 4] {
        for decide_slack in [0usize, 2] {
            let config = paper
                .ablate(Threshold::Witness, witness_slack)
                .ablate(Threshold::WitnessesToDecide, decide_slack);
            let s = run_trials(400, 0xE11, |seed| {
                let mut b = Sim::builder();
                bt_core::failstop::build_correct_system(&mut b, config, &inputs);
                b.seed(seed).step_limit(2_000_000);
                b.build()
            });
            if config == paper {
                assert_eq!(s.disagreements, 0, "the paper's rule must be safe");
            }
            t.row(vec![
                config.bar(Threshold::Witness).to_string(),
                config.bar(Threshold::WitnessesToDecide).to_string(),
                format!(
                    "{:.1}",
                    100.0 * (s.trials - s.disagreements) as f64 / s.trials as f64
                ),
                format!("{:.1}", 100.0 * s.decided as f64 / s.trials as f64),
                format!("{:.2}", s.phases.mean),
            ]);
        }
    }
    t.note = "lower bars decide faster — and start disagreeing. The paper's bars are tight.";
    t
}

/// E11, Figure 2 — ablation of the accept and decide bars (both
/// `> (n+k)/2`) in E2's setup at `n = 3k+1`, where the paper's bars have
/// no slack: at `n = 4` lowering either one by a single count breaks
/// agreement.
fn e11_fig2() -> Table {
    let mut t = Table::new(
        "e11_fig2_threshold_ablation",
        "E11: Figure 2 threshold ablation (E2 setup, n = 3k+1, 100 trials)".into(),
        "n,k,strategy,accept_at,decide_at,disagreements,decide_pct,mean_phases",
    );
    let lowered: [(usize, usize); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];
    // Whether lowering only the [accept, decide] bar disagreed at n = 4.
    let mut broke_at_4 = [false; 2];
    for n in [4usize, 7] {
        let paper = Config::malicious(n, Config::max_malicious_k(n)).expect("within bound");
        for (name, make) in &ATTACKERS[2..] {
            for (accept_slack, decide_slack) in lowered {
                let config = paper
                    .ablate(Threshold::EchoesToAccept, accept_slack)
                    .ablate(Threshold::AcceptedToDecide, decide_slack);
                let s = e2_trials(config, *make);
                if config == paper {
                    assert_eq!(s.disagreements, 0, "Theorem 4 violated: n={n} vs {name}");
                }
                if n == 4 && accept_slack + decide_slack == 1 && s.disagreements > 0 {
                    broke_at_4[decide_slack] = true;
                }
                t.row(vec![
                    n.to_string(),
                    paper.k().to_string(),
                    (*name).to_string(),
                    config.bar(Threshold::EchoesToAccept).to_string(),
                    config.bar(Threshold::AcceptedToDecide).to_string(),
                    s.disagreements.to_string(),
                    pct(s.decided, s.trials),
                    format!("{:.2}", s.phases.mean),
                ]);
            }
        }
    }
    assert_eq!(
        broke_at_4,
        [true, true],
        "at n = 4 either bar lowered alone must break agreement somewhere"
    );
    t.note = "n = 3k+1 leaves no slack: at n = 4 either bar lowered by one lets an attacker split a run.";
    t
}

fn make_scheduler(which: &str, n: usize) -> Box<dyn Scheduler<MaliciousMsg>> {
    match which {
        "fair-random" => Box::new(FairScheduler::new()),
        "fair-fifo" => Box::new(FairScheduler::new().delivery_order(DeliveryOrder::Fifo)),
        "fair-lifo" => Box::new(FairScheduler::new().delivery_order(DeliveryOrder::Lifo)),
        "round-robin" => Box::new(RoundRobinScheduler::new()),
        "delay-two" => Box::new(DelayingScheduler::new(
            n,
            &[ProcessId::new(0), ProcessId::new(1)],
        )),
        "partition" => {
            let left: Vec<ProcessId> = ProcessId::all(n).take(n / 2).collect();
            Box::new(PartitionScheduler::new(n, &left, 40, 3))
        }
        "skewed-speeds" => {
            let weights: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 4) as i32)).collect();
            Box::new(FairScheduler::new().with_weights(weights))
        }
        other => unreachable!("unknown scheduler {other}"),
    }
}

/// E12 — ablation of the §2.3 fairness assumption: safety never depends on
/// the scheduler, convergence speed does.
fn e12() -> Table {
    let n = 9;
    let config = Config::malicious(n, 2).unwrap();
    let mut t = Table::new(
        "e12_scheduler_ablation",
        format!("E12: scheduler ablation (n={n}, all correct, split inputs, 150 trials)"),
        "scheduler,agree_pct,decide_pct,mean_phases,mean_steps",
    );
    for which in [
        "fair-random",
        "fair-fifo",
        "fair-lifo",
        "round-robin",
        "delay-two",
        "partition",
        "skewed-speeds",
    ] {
        let s = run_trials_seq(150, 0xE12, |seed| {
            let mut b = Sim::builder();
            for i in 0..n {
                b.process(
                    Box::new(Malicious::new(config, Value::from(i % 2 == 0))),
                    Role::Correct,
                );
            }
            b.scheduler(make_scheduler(which, n));
            b.seed(seed).step_limit(16_000_000);
            b.build()
        });
        assert_eq!(
            s.disagreements, 0,
            "{which}: safety must not depend on scheduling"
        );
        t.row(vec![
            which.to_string(),
            pct(s.trials - s.disagreements, s.trials),
            pct(s.decided, s.trials),
            format!("{:.2}", s.phases.mean),
            format!("{:.0}", s.steps.mean),
        ]);
    }
    t
}

/// The large-n sweep's sizes, trials per point before
/// [`POINT_STEP_BUDGET`] trims them, and base seed.
const SWEEP_N: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];
const SWEEP_TRIALS: usize = 25;
const SWEEP_SEED: u64 = 0x5EE9;
/// The largest malicious sweep size: Figure 2 costs `O(n³)` deliveries
/// per run, so larger points cost minutes each.
const SWEEP_MALICIOUS_CAP: usize = 256;
/// Per-point step budget: trials are trimmed (never below 3) so one point
/// costs at most about this many deliveries.
const POINT_STEP_BUDGET: u64 = 60_000_000;

/// One large-n sweep point's `BENCH_phases.json` row: `k = l·√n/2`
/// (`l² = 1.5`) from split inputs, Figure 2 against `k` balancing
/// attackers or the §4.1 simple variant with `k` as its quota slack, its
/// trials fanned across workers. Every field but `wall_ms` and
/// `ns_per_delivery` is a seeded count, the same on any machine.
fn sweep_point(malicious: bool, n: usize) -> Json {
    let k = sweep_k(n);
    let inputs = split_inputs(n, n / 2);
    // Trials affordable under the budget at ≈ 3n³ (Figure 2) or 3n²
    // (simple) deliveries per trial.
    let per_trial = 3 * (n as u64).pow(if malicious { 3 } else { 2 });
    let trials = ((POINT_STEP_BUDGET / per_trial) as usize).clamp(3, SWEEP_TRIALS);
    let start = Instant::now();
    let (protocol, step_limit, s) = if malicious {
        let config = Config::malicious(n, k).expect("sweep_k stays within (n-1)/3");
        let limit = malicious_sweep_limit(n);
        let s = run_trials(trials, SWEEP_SEED ^ (n as u64), |seed| {
            malicious_system_capped(config, &inputs, k, seed, limit)
        });
        ("malicious", limit, s)
    } else {
        let config = Config::unchecked(n, k);
        let limit = simple_sweep_limit(n);
        let s = run_trials(trials, SWEEP_SEED ^ (n as u64).rotate_left(32), |seed| {
            simple_system_capped(config, &inputs, 0, seed, limit)
        });
        ("simple", limit, s)
    };
    let wall_ns = start.elapsed().as_nanos() as f64;
    let l = collapsed::paper_l();
    let bound = collapsed::eq13_bound(n, l);
    Json::Obj(vec![
        ("protocol".into(), Json::str(protocol)),
        ("n".into(), Json::num(n as u64)),
        ("k".into(), Json::num(k as u64)),
        ("n_minus_k".into(), Json::num((n - k) as u64)),
        ("l".into(), Json::Num(l)),
        ("trials".into(), Json::num(s.trials as u64)),
        ("decided".into(), Json::num(s.decided as u64)),
        ("timeouts".into(), Json::num(s.timeouts as u64)),
        ("deadlocks".into(), Json::num(s.deadlocks as u64)),
        ("disagreements".into(), Json::num(s.disagreements as u64)),
        ("step_limit".into(), Json::num(step_limit)),
        ("steps_total".into(), Json::num(s.total_steps)),
        ("messages_mean".into(), Json::Num(s.messages.mean)),
        ("wall_ms".into(), Json::Num(wall_ns / 1e6)),
        (
            "ns_per_delivery".into(),
            Json::Num(wall_ns / s.total_steps.max(1) as f64),
        ),
        ("phases".into(), summary_json(&s.phases)),
        ("eq13_bound".into(), Json::Num(bound)),
        (
            "mean_within_bound".into(),
            Json::Bool(s.phases.mean <= bound),
        ),
    ])
}

/// §4's O(1) expected phases as a trajectory in `n`: Figure 2 up to
/// [`SWEEP_MALICIOUS_CAP`], the simple variant over the whole sweep. The
/// table's rows are the JSON rows, `phases_*` read from `phases`.
fn sweep() -> Table {
    let mut t = Table::new(
        "large_n_sweep",
        "Large-n sweep: phases to decide vs n, k = l·√n/2, split inputs".into(),
        "protocol,n,k,n_minus_k,trials,decided,timeouts,deadlocks,disagreements,steps_total,\
         messages_mean,phases_mean,phases_p50,phases_p95,phases_max,eq13_bound,wall_ms,\
         ns_per_delivery",
    );
    let malicious: Vec<Json> = SWEEP_N
        .iter()
        .filter(|&&n| n <= SWEEP_MALICIOUS_CAP)
        .map(|&n| sweep_point(true, n))
        .collect();
    let simple: Vec<Json> = SWEEP_N.iter().map(|&n| sweep_point(false, n)).collect();
    let cell = |value: &Json| match value {
        Json::Str(s) => s.clone(),
        Json::Num(x) if x.fract() != 0.0 => format!("{x:.2}"),
        other => other.render(),
    };
    for row in malicious.iter().chain(&simple) {
        let field = |column: &str| match column.strip_prefix("phases_") {
            Some(stat) => row.get("phases").and_then(|p| p.get(stat)),
            None => row.get(column),
        };
        assert_eq!(
            field("disagreements").and_then(Json::as_u64),
            Some(0),
            "agreement violated: {}",
            row.render()
        );
        t.row(t.columns.iter().map(|c| cell(field(c).unwrap())).collect());
    }
    t.phases = Some((
        "large_n_sweep",
        Json::Obj(vec![
            ("l".into(), Json::Num(collapsed::paper_l())),
            ("malicious".into(), Json::Arr(malicious)),
            ("simple".into(), Json::Arr(simple)),
        ]),
    ));
    t.note = "wall_ms and ns_per_delivery are this machine's clock; every other column is \
              seeded. Simple rows read 1 phase where n−k is even: ties break to 0.";
    t
}

/// The delivery-engine regression gate: the first million deliveries of
/// one seeded Figure 2 trial at n = 1024 (a full run is ≈ 2.8·10⁹) must
/// stay safe, do exactly the work they always did, and finish in 8 s.
fn slice() -> Table {
    const N: usize = 1024;
    const SEED: u64 = 42;
    const STEP_CAP: u64 = 1_000_000;
    const MAX_SECONDS: u64 = 8;
    let mut t = Table::new(
        "large_n_slice",
        format!("Large-n slice: first {STEP_CAP} deliveries of one Figure 2 trial at n = {N}"),
        "n,k,seed,steps,messages_sent,status,wall_ms,ns_per_delivery",
    );
    let k = sweep_k(N);
    let config = Config::malicious(N, k).expect("k = l·√n/2 is within (n-1)/3");
    let start = Instant::now();
    let r = malicious_system_capped(config, &split_inputs(N, N / 2), k, SEED, STEP_CAP).run();
    let elapsed = start.elapsed();
    assert!(r.agreement(), "agreement violated");
    assert!(
        r.status != RunStatus::Quiescent || r.all_correct_decided(),
        "deadlocked before the step cap"
    );
    assert_eq!(
        (r.steps, r.metrics.messages_sent),
        (STEP_CAP, 46_018_560),
        "the seeded slice no longer delivers the cap and sends 46 018 560 messages"
    );
    let ns_per_delivery = elapsed.as_nanos() as f64 / r.steps as f64;
    assert!(
        elapsed.as_secs() <= MAX_SECONDS,
        "{} deliveries took {elapsed:.1?} (budget {MAX_SECONDS} s, {ns_per_delivery:.0} ns/delivery)",
        r.steps
    );
    t.row(vec![
        N.to_string(),
        k.to_string(),
        SEED.to_string(),
        r.steps.to_string(),
        r.metrics.messages_sent.to_string(),
        format!("{:?}", r.status),
        format!("{:.0}", elapsed.as_secs_f64() * 1e3),
        format!("{ns_per_delivery:.0}"),
    ]);
    t
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("creating output directory");
    let experiments: [fn() -> Table; 17] = [
        e1, e2, e3, e4, e5, e6a, e6b, e6c, e7, e8, e9, e10, e11, e11_fig2, e12, sweep, slice,
    ];
    let params = Json::Obj(vec![
        (
            "sweep_n".into(),
            Json::Arr(SWEEP_N.iter().map(|&n| Json::num(n as u64)).collect()),
        ),
        ("trials".into(), Json::num(SWEEP_TRIALS as u64)),
        ("seed".into(), Json::num(SWEEP_SEED)),
        (
            "malicious_cap".into(),
            Json::num(SWEEP_MALICIOUS_CAP as u64),
        ),
    ]);
    let mut phases = vec![("params".to_string(), params)];
    for run in experiments {
        let table = run();
        table.print();
        let path = dir.join(format!("{}.csv", table.name));
        std::fs::write(&path, table.csv())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        phases.extend(table.phases.map(|(key, json)| (key.to_string(), json)));
    }
    let path = dir.join("BENCH_phases.json");
    std::fs::write(&path, Json::Obj(phases).render() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!(
        "\nwrote {} CSV tables and BENCH_phases.json to {}",
        experiments.len(),
        dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's n = 32 points reproduce the committed
    /// `BENCH_phases.json` rows in every field but the two clock readings.
    #[test]
    fn sweep_n32_rows_match_the_committed_artifact() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_phases.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let committed = Json::parse(&text).expect("BENCH_phases.json parses");
        let seeded = |row: &Json| match row {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(key, _)| key != "wall_ms" && key != "ns_per_delivery")
                .cloned()
                .collect::<Vec<_>>(),
            other => panic!("a sweep row is an object, not {other:?}"),
        };
        for (malicious, protocol) in [(true, "malicious"), (false, "simple")] {
            let Some(Json::Arr(rows)) = committed
                .get("large_n_sweep")
                .and_then(|sweep| sweep.get(protocol))
            else {
                panic!("no large_n_sweep.{protocol} array");
            };
            let row = rows
                .iter()
                .find(|row| row.get("n").and_then(Json::as_u64) == Some(32))
                .expect("a committed n = 32 row");
            assert_eq!(
                seeded(&sweep_point(malicious, 32)),
                seeded(row),
                "{protocol}"
            );
        }
    }
}
