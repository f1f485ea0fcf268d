//! The fuzzer's unit of work: one fully-specified run.
//!
//! A [`Scenario`] pins down everything a consensus run depends on —
//! protocol, system size, resilience parameter, per-process inputs and
//! faults, scheduler (the §2.1 *schedule* adversary), RNG seed, and an
//! optional deliberate protocol injection — so that executing it twice
//! yields byte-identical traces. Scenarios are drawn from a seeded
//! [`Prng`] under the paper's resilience constraints (so every generated
//! scenario *should* satisfy the invariant suite), serialize to a single
//! JSON object for repro artifacts, and compare by value so shrinking and
//! determinism tests can assert exact equality.

use bt_core::{Config, Threshold};
use obs::json::Json;
use prng::Prng;
use simnet::Value;

/// Which protocol a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoKind {
    /// Figure 1 fail-stop protocol (`k ≤ ⌊(n−1)/2⌋`).
    FailStop,
    /// §4.1 simple-majority variant (needs `n > 3k` to stay live).
    Simple,
    /// Figure 2 malicious protocol (`k ≤ ⌊(n−1)/3⌋`).
    Malicious,
}

impl ProtoKind {
    /// The resilience bound the *generator* respects for this protocol.
    ///
    /// For the simple variant this is deliberately tighter than the
    /// protocol's own `⌊(n−1)/2⌋` config bound: deciding needs more than
    /// `(n+k)/2` same-value messages, which only `n − k` live senders can
    /// supply when `n > 3k`.
    #[must_use]
    pub fn k_bound(self, n: usize) -> usize {
        match self {
            ProtoKind::FailStop => Config::max_fail_stop_k(n),
            ProtoKind::Simple | ProtoKind::Malicious => Config::max_malicious_k(n),
        }
    }

    /// Short stable name used in artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtoKind::FailStop => "failstop",
            ProtoKind::Simple => "simple",
            ProtoKind::Malicious => "malicious",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "failstop" => Some(ProtoKind::FailStop),
            "simple" => Some(ProtoKind::Simple),
            "malicious" => Some(ProtoKind::Malicious),
            _ => None,
        }
    }
}

/// Per-process fault assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Follows the protocol.
    Correct,
    /// Dies after the given number of sends (splitting a broadcast).
    CrashAfterSends(u64),
    /// Dies on entering the given phase.
    CrashAtPhase(u64),
    /// Never sends anything (initially dead).
    Silent,
    /// Byzantine two-faced sender (malicious protocol only; the generator
    /// never assigns it elsewhere).
    TwoFaced,
}

impl FaultSpec {
    /// Whether this process ever stops (or never starts) sending — the
    /// count that the liveness constraints below are about.
    #[must_use]
    pub fn is_faulty(self) -> bool {
        !matches!(self, FaultSpec::Correct)
    }

    /// Whether this process's input can honestly enter the system: it
    /// follows the protocol for at least one send before (ever) failing.
    /// A crash-faulty process is not a liar — the messages it does send
    /// carry its real input, so fail-stop validity must account for it.
    /// Silent and zero-send crashes contribute nothing; a two-faced
    /// process's announcements are arbitrary, and the Figure 2 quorums
    /// defend validity against them without counting its input.
    #[must_use]
    pub fn bears_input(self) -> bool {
        match self {
            FaultSpec::Correct | FaultSpec::CrashAtPhase(_) => true,
            FaultSpec::CrashAfterSends(sends) => sends > 0,
            FaultSpec::Silent | FaultSpec::TwoFaced => false,
        }
    }

    fn to_json(self) -> Json {
        match self {
            FaultSpec::Correct => Json::str("correct"),
            FaultSpec::CrashAfterSends(s) => Json::str(format!("crash-after-sends:{s}")),
            FaultSpec::CrashAtPhase(p) => Json::str(format!("crash-at-phase:{p}")),
            FaultSpec::Silent => Json::str("silent"),
            FaultSpec::TwoFaced => Json::str("two-faced"),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let s = j.as_str().ok_or("fault must be a string")?;
        if let Some(rest) = s.strip_prefix("crash-after-sends:") {
            let v = rest.parse().map_err(|_| format!("bad sends in {s:?}"))?;
            return Ok(FaultSpec::CrashAfterSends(v));
        }
        if let Some(rest) = s.strip_prefix("crash-at-phase:") {
            let v = rest.parse().map_err(|_| format!("bad phase in {s:?}"))?;
            return Ok(FaultSpec::CrashAtPhase(v));
        }
        match s {
            "correct" => Ok(FaultSpec::Correct),
            "silent" => Ok(FaultSpec::Silent),
            "two-faced" => Ok(FaultSpec::TwoFaced),
            other => Err(format!("unknown fault {other:?}")),
        }
    }
}

/// Which delivery-order flavour a fair scheduler uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderSpec {
    /// Uniform random slot (the paper's §2.3 probabilistic assumption).
    Random,
    /// Oldest message first.
    Fifo,
    /// Newest message first.
    Lifo,
}

/// The schedule adversary: which scheduler drives the simulated run.
///
/// Every variant is *reliable* — each keeps delivering (delaying and
/// partitioning only defer), so a generated scenario must always converge
/// and non-convergence is a reportable violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedSpec {
    /// Fair scheduling with the given slot order.
    Fair(OrderSpec),
    /// Starves the given victims' deliveries as long as possible.
    Delaying(Vec<usize>),
    /// Alternates a two-sided partition with healing epochs.
    Partition {
        /// Members of the left side.
        left: Vec<usize>,
        /// Steps per partition epoch.
        epoch_len: u64,
        /// Healed epoch frequency (every `heal_every`-th epoch).
        heal_every: u64,
    },
}

impl SchedSpec {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            SchedSpec::Fair(order) => Json::Obj(vec![
                ("kind".into(), Json::str("fair")),
                (
                    "order".into(),
                    Json::str(match order {
                        OrderSpec::Random => "random",
                        OrderSpec::Fifo => "fifo",
                        OrderSpec::Lifo => "lifo",
                    }),
                ),
            ]),
            SchedSpec::Delaying(victims) => Json::Obj(vec![
                ("kind".into(), Json::str("delaying")),
                (
                    "victims".into(),
                    Json::Arr(victims.iter().map(|&v| Json::num(v as u64)).collect()),
                ),
            ]),
            SchedSpec::Partition {
                left,
                epoch_len,
                heal_every,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("partition")),
                (
                    "left".into(),
                    Json::Arr(left.iter().map(|&v| Json::num(v as u64)).collect()),
                ),
                ("epoch_len".into(), Json::num(*epoch_len)),
                ("heal_every".into(), Json::num(*heal_every)),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("sched needs a kind")?;
        let indices = |key: &str| -> Result<Vec<usize>, String> {
            match j.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| i.as_usize().ok_or_else(|| format!("bad index in {key}")))
                    .collect(),
                _ => Err(format!("sched needs array {key}")),
            }
        };
        match kind {
            "fair" => {
                let order = match j.get("order").and_then(Json::as_str) {
                    Some("random") => OrderSpec::Random,
                    Some("fifo") => OrderSpec::Fifo,
                    Some("lifo") => OrderSpec::Lifo,
                    other => return Err(format!("bad fair order {other:?}")),
                };
                Ok(SchedSpec::Fair(order))
            }
            "delaying" => Ok(SchedSpec::Delaying(indices("victims")?)),
            "partition" => Ok(SchedSpec::Partition {
                left: indices("left")?,
                epoch_len: j
                    .get("epoch_len")
                    .and_then(Json::as_u64)
                    .ok_or("partition needs epoch_len")?,
                heal_every: j
                    .get("heal_every")
                    .and_then(Json::as_u64)
                    .ok_or("partition needs heal_every")?,
            }),
            other => Err(format!("unknown sched kind {other:?}")),
        }
    }
}

/// A deliberate protocol defect, injected to prove the harness catches it:
/// the scenario's [`Config`] with some of the paper's quorum bars lowered,
/// whatever the protocol. The invariant oracle keeps the paper's own
/// arithmetic, so it judges the weakened run against the real bars.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Each `(bar, by)` lowers `bar` by `by` (floored at 1), in order.
    pub lower: Vec<(Threshold, usize)>,
}

/// Artifact names of the thresholds an [`Injection`] can lower.
const THRESHOLD_NAMES: [(Threshold, &str); 4] = [
    (Threshold::Witness, "witness"),
    (Threshold::WitnessesToDecide, "witnesses-to-decide"),
    (Threshold::EchoesToAccept, "echoes-to-accept"),
    (Threshold::AcceptedToDecide, "accepted-to-decide"),
];

impl Injection {
    /// The classic broken-quorum bug the fuzzer must find: both Figure 1
    /// bars lowered by 100, reducing "witness" to "any message" and
    /// "decide" to "one witness".
    #[must_use]
    pub fn broken_fig1_quorums() -> Self {
        Injection {
            lower: vec![
                (Threshold::Witness, 100),
                (Threshold::WitnessesToDecide, 100),
            ],
        }
    }

    /// `config` with every listed bar lowered.
    #[must_use]
    pub fn apply(&self, config: Config) -> Config {
        self.lower
            .iter()
            .fold(config, |c, &(bar, by)| c.ablate(bar, by))
    }

    fn to_json(&self) -> Json {
        let lowering = |&(bar, by): &(Threshold, usize)| {
            let (_, name) = THRESHOLD_NAMES
                .iter()
                .find(|(t, _)| *t == bar)
                .expect("every threshold is named");
            Json::Arr(vec![Json::str(*name), Json::num(by as u64)])
        };
        Json::Obj(vec![(
            "lower".into(),
            Json::Arr(self.lower.iter().map(lowering).collect()),
        )])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let Some(Json::Arr(items)) = j.get("lower") else {
            return Err("injection needs a lower array".into());
        };
        let lowering = |item: &Json| match item {
            Json::Arr(pair) if pair.len() == 2 => {
                let bar = pair[0]
                    .as_str()
                    .and_then(|s| THRESHOLD_NAMES.iter().find(|(_, n)| *n == s))
                    .map(|(t, _)| *t)
                    .ok_or_else(|| format!("unknown threshold {:?}", pair[0]))?;
                let by = pair[1].as_usize().ok_or("lowering needs a count")?;
                Ok((bar, by))
            }
            other => Err(format!("bad lowering {other:?}")),
        };
        Ok(Injection {
            lower: items.iter().map(lowering).collect::<Result<_, String>>()?,
        })
    }
}

/// One fully-specified fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Protocol under test.
    pub proto: ProtoKind,
    /// System size.
    pub n: usize,
    /// Resilience parameter.
    pub k: usize,
    /// Seed for the run itself (scheduler randomness, netstack faults).
    pub seed: u64,
    /// Initial value per process.
    pub inputs: Vec<Value>,
    /// Fault per process.
    pub faults: Vec<FaultSpec>,
    /// The schedule adversary.
    pub sched: SchedSpec,
    /// Step budget; hitting it counts as non-convergence.
    pub step_limit: u64,
    /// Deliberate defect, if the harness is self-testing.
    pub inject: Option<Injection>,
}

impl Scenario {
    /// Number of processes that ever stop (or never start) sending.
    #[must_use]
    pub fn faulty_count(&self) -> usize {
        self.faults.iter().filter(|f| f.is_faulty()).count()
    }

    /// The value every input-bearing process starts with, if they are
    /// unanimous — the premise of the paper's validity property.
    ///
    /// Crash-faulty processes that send at least once are counted: they
    /// follow the protocol up to the crash, so their inputs reach the
    /// system honestly, and a decision for such an input is legal even
    /// when all *surviving* processes started with the other value.
    #[must_use]
    pub fn unanimous_input(&self) -> Option<Value> {
        let mut bearing = (0..self.n).filter(|&i| self.faults[i].bears_input());
        let first = self.inputs[bearing.next()?];
        bearing.all(|i| self.inputs[i] == first).then_some(first)
    }

    /// Draws a random scenario under the paper's resilience constraints.
    ///
    /// The generated scenario always has enough live, correct senders for
    /// the chosen protocol to terminate (see [`ProtoKind::k_bound`] and
    /// the per-protocol liveness floor), so a violation reported against
    /// it indicts the implementation, not the scenario.
    pub fn generate(rng: &mut Prng) -> Scenario {
        let proto = match rng.index(3) {
            0 => ProtoKind::FailStop,
            1 => ProtoKind::Simple,
            _ => ProtoKind::Malicious,
        };
        let n = 4 + rng.index(5); // 4..=8
        let k_bound = proto.k_bound(n).max(1);
        let k = 1 + rng.index(k_bound);

        // Liveness floor: how many processes may go quiet. Fail-stop
        // tolerates any k deaths; the quorum protocols additionally need
        // enough live senders to reach their decide bar.
        let decide_bar = Config::unchecked(n, k).bar(Threshold::AcceptedToDecide);
        let max_faulty = match proto {
            ProtoKind::FailStop => k,
            ProtoKind::Simple | ProtoKind::Malicious => k.min(n.saturating_sub(decide_bar)),
        };
        let mut faults = vec![FaultSpec::Correct; n];
        let budget = rng.index(max_faulty + 1);
        let mut assigned = 0;
        while assigned < budget {
            let victim = rng.index(n);
            if faults[victim].is_faulty() {
                continue;
            }
            faults[victim] = match (proto, rng.index(4)) {
                (ProtoKind::Malicious, 3) => FaultSpec::TwoFaced,
                (_, 0) => FaultSpec::CrashAfterSends(rng.below_u64(2 * n as u64 + 1)),
                (_, 1) => FaultSpec::CrashAtPhase(rng.below_u64(3)),
                _ => FaultSpec::Silent,
            };
            assigned += 1;
        }

        let inputs = if rng.coin() {
            vec![Value::from(rng.coin()); n]
        } else {
            (0..n).map(|_| Value::from(rng.coin())).collect()
        };

        let sched = match rng.index(10) {
            0..=3 => SchedSpec::Fair(OrderSpec::Random),
            4 => SchedSpec::Fair(OrderSpec::Fifo),
            5 => SchedSpec::Fair(OrderSpec::Lifo),
            6 | 7 => {
                let count = 1 + rng.index(2.min(n - 1));
                let mut victims: Vec<usize> = Vec::new();
                while victims.len() < count {
                    let v = rng.index(n);
                    if !victims.contains(&v) {
                        victims.push(v);
                    }
                }
                victims.sort_unstable();
                SchedSpec::Delaying(victims)
            }
            _ => {
                let size = 1 + rng.index(n - 1);
                let mut left: Vec<usize> = (0..n).collect();
                // Partial Fisher-Yates: the first `size` entries become a
                // uniform random subset.
                for i in 0..size {
                    let j = i + rng.index(n - i);
                    left.swap(i, j);
                }
                left.truncate(size);
                left.sort_unstable();
                SchedSpec::Partition {
                    left,
                    epoch_len: 8 + rng.below_u64(57),
                    heal_every: 2 + rng.below_u64(4),
                }
            }
        };

        Scenario {
            proto,
            n,
            k,
            seed: rng.next_u64(),
            inputs,
            faults,
            sched,
            step_limit: 200_000,
            inject: None,
        }
    }

    /// Serializes to the artifact JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("proto".into(), Json::str(self.proto.name())),
            ("n".into(), Json::num(self.n as u64)),
            ("k".into(), Json::num(self.k as u64)),
            ("seed".into(), Json::num(self.seed)),
            (
                "inputs".into(),
                Json::Arr(
                    self.inputs
                        .iter()
                        .map(|v| Json::num(v.index() as u64))
                        .collect(),
                ),
            ),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(|f| f.to_json()).collect()),
            ),
            ("sched".into(), self.sched.to_json()),
            ("step_limit".into(), Json::num(self.step_limit)),
            (
                "inject".into(),
                self.inject.as_ref().map_or(Json::Null, Injection::to_json),
            ),
        ])
    }

    /// Deserializes from the artifact JSON object.
    pub fn from_json(j: &Json) -> Result<Scenario, String> {
        let proto = j
            .get("proto")
            .and_then(Json::as_str)
            .and_then(ProtoKind::from_name)
            .ok_or("scenario needs a proto")?;
        let n = j
            .get("n")
            .and_then(Json::as_usize)
            .ok_or("scenario needs n")?;
        let k = j
            .get("k")
            .and_then(Json::as_usize)
            .ok_or("scenario needs k")?;
        let seed = j
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("scenario needs seed")?;
        let inputs = match j.get("inputs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .and_then(|v| match v {
                            0 => Some(Value::Zero),
                            1 => Some(Value::One),
                            _ => None,
                        })
                        .ok_or_else(|| "inputs must be 0/1".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("scenario needs inputs".into()),
        };
        let faults = match j.get("faults") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("scenario needs faults".into()),
        };
        let sched = SchedSpec::from_json(j.get("sched").ok_or("scenario needs sched")?)?;
        let step_limit = j
            .get("step_limit")
            .and_then(Json::as_u64)
            .ok_or("scenario needs step_limit")?;
        let inject = match j.get("inject") {
            None | Some(Json::Null) => None,
            Some(inj) => Some(Injection::from_json(inj)?),
        };
        if inputs.len() != n || faults.len() != n {
            return Err(format!("inputs/faults must have length n={n}"));
        }
        Ok(Scenario {
            proto,
            n,
            k,
            seed,
            inputs,
            faults,
            sched,
            step_limit,
            inject,
        })
    }

    /// A compact one-line human description.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} n={} k={} seed={:#018x} inputs={:?} faults={:?} sched={:?} inject={:?}",
            self.proto.name(),
            self.n,
            self.k,
            self.seed,
            self.inputs.iter().map(|v| v.index()).collect::<Vec<_>>(),
            self.faults,
            self.sched,
            self.inject,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_respects_resilience_and_liveness_bounds() {
        let mut rng = Prng::seed_from_u64(11);
        for _ in 0..500 {
            let s = Scenario::generate(&mut rng);
            assert!(s.k >= 1 && s.k <= s.proto.k_bound(s.n), "{}", s.describe());
            assert!(s.faulty_count() <= s.k, "{}", s.describe());
            assert_eq!(s.inputs.len(), s.n);
            assert_eq!(s.faults.len(), s.n);
            if matches!(s.proto, ProtoKind::Simple | ProtoKind::Malicious) {
                let live = s.n - s.faulty_count();
                assert!(2 * live > s.n + s.k, "liveness floor: {}", s.describe());
            }
            if s.proto != ProtoKind::Malicious {
                assert!(
                    !s.faults.contains(&FaultSpec::TwoFaced),
                    "two-faced outside malicious: {}",
                    s.describe()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(77);
        let mut b = Prng::seed_from_u64(77);
        for _ in 0..50 {
            assert_eq!(Scenario::generate(&mut a), Scenario::generate(&mut b));
        }
    }

    #[test]
    fn json_round_trips_generated_scenarios() {
        let mut rng = Prng::seed_from_u64(23);
        for _ in 0..200 {
            let mut s = Scenario::generate(&mut rng);
            if rng.coin() {
                let lower = (0..rng.index(4))
                    .map(|_| (THRESHOLD_NAMES[rng.index(4)].0, rng.index(9)))
                    .collect();
                s.inject = Some(Injection { lower });
            }
            let j = s.to_json();
            let text = j.render();
            let parsed = Json::parse(&text).expect("renders valid JSON");
            assert_eq!(Scenario::from_json(&parsed).expect("parses"), s);
        }
    }

    #[test]
    fn unanimity_counts_exactly_the_input_bearing_processes() {
        let mut s = Scenario {
            proto: ProtoKind::FailStop,
            n: 3,
            k: 1,
            seed: 0,
            inputs: vec![Value::One, Value::Zero, Value::One],
            faults: vec![FaultSpec::Correct, FaultSpec::Silent, FaultSpec::Correct],
            sched: SchedSpec::Fair(OrderSpec::Random),
            step_limit: 1000,
            inject: None,
        };
        // A silent dissenter's input never enters the system.
        assert_eq!(s.unanimous_input(), Some(Value::One));
        // Nor does a zero-send crasher's.
        s.faults[1] = FaultSpec::CrashAfterSends(0);
        assert_eq!(s.unanimous_input(), Some(Value::One));
        // A crasher that sends even once injects its real input, so the
        // premise of validity no longer holds (found by btfuzz: two crash
        // processes carried the only 1s and the survivors decided 1 —
        // legal fail-stop behaviour, not a violation).
        s.faults[1] = FaultSpec::CrashAfterSends(1);
        assert_eq!(s.unanimous_input(), None);
        s.faults[1] = FaultSpec::CrashAtPhase(2);
        assert_eq!(s.unanimous_input(), None);
        s.faults[1] = FaultSpec::Correct;
        assert_eq!(s.unanimous_input(), None);
    }
}
