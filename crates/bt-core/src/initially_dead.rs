//! The §5 footnote protocol: consensus when all faulty processes are
//! *initially dead*, under the intermediate interpretation of bivalence.
//!
//! §5 observes that the interpretations of bivalence are not equivalent: for
//! the initially-dead fault model, [Fisc83]'s protocol is optimal
//! (`⌊(n−1)/2⌋` faults) under *strong* bivalence, while under the paper's
//! intermediate interpretation a protocol may fix the decision to `0`
//! whenever any process is faulty. The footnote sketches the modification:
//! construct the transitive closure `G⁺` as in [Fisc83]; *"if `G⁺` turns out
//! to be strongly connected, and it contains all the processes, then all the
//! processes will know it, and they will decide using an agreed bivalent
//! function of all the inputs. Otherwise, they all decide 0."*
//!
//! # Reconstruction
//!
//! The footnote is a sketch; this module implements it as the following
//! two-stage protocol (the [Fisc83] construction, with the footnote's
//! decision rule — see `DESIGN.md` for the substitution note):
//!
//! 1. **Stage 1** — broadcast `(p, v_p)`; collect stage-1 messages until
//!    `L` distinct senders (including `p` itself) have been heard, then
//!    freeze that set as `p`'s *ancestors* `E_p` (the edges of `G` into
//!    `p`). The quorum `L` is a majority, `⌊n/2⌋ + 1`.
//! 2. **Stage 2** — broadcast `(p, v_p, E_p)`; collect everyone's edge
//!    lists until `p`'s *ancestor closure* (the least set containing `p`
//!    and closed under `q ↦ E_q`) is fully covered.
//! 3. **Decide** — compute the unique **source strongly-connected
//!    component** `C` of the collected graph (unique because each `E_q` is
//!    a majority and two disjoint closed sets cannot both hold majorities —
//!    the [Fisc83] initial-clique argument). If `C` contains **all** `n`
//!    processes — equivalently, `G⁺` is strongly connected and spans
//!    everything — decide the majority of all `n` inputs (an agreed
//!    bivalent function); otherwise decide `0`.
//!
//! Every process that decides computes the same `C`, so decisions agree.
//! If even one process is initially dead it appears in nobody's edge list,
//! `C ≠ [n]`, and the decision is pinned to `0` — exactly the intermediate
//! bivalence behaviour. If all processes are correct, schedules exist
//! realising both `C = [n]` (decide the input majority) and `C ⊊ [n]`
//! (decide 0), so both values are reachable.

use std::collections::{BTreeMap, BTreeSet};

use simnet::{Ctx, Envelope, Process, ProcessId, Value};

use crate::config::majority;

/// Wire messages of the initially-dead protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeadMsg {
    /// Stage 1: the sender announces its input value.
    Stage1 {
        /// The sender's input.
        value: Value,
    },
    /// Stage 2: the sender reports its input and frozen ancestor set.
    Stage2 {
        /// The sender's input.
        value: Value,
        /// The sender's stage-1 ancestors (senders it heard, incl. itself).
        ancestors: Vec<ProcessId>,
    },
}

/// Which decision rule an [`InitiallyDead`] instance applies once it has
/// computed the initial clique `C` (the unique source strongly-connected
/// component of `G⁺`).
///
/// The two rules realise the two interpretations of bivalence §5
/// contrasts:
///
/// * [`DecisionRule::BrachaToueg`] — the footnote's rule: decide an agreed
///   bivalent function of **all** inputs if `C` spans every process,
///   otherwise `0`. *Intermediate* bivalence: any fault pins the decision.
/// * [`DecisionRule::FischerLynchPaterson`] — the \[Fisc83\] rule the
///   footnote modifies: decide the agreed function of the **clique
///   members'** inputs, whatever the clique is. *Strong* bivalence: both
///   values stay reachable even with dead processes (their inputs simply
///   drop out of the vote).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DecisionRule {
    /// The §5 footnote rule (intermediate bivalence).
    #[default]
    BrachaToueg,
    /// The original [Fisc83] rule (strong bivalence).
    FischerLynchPaterson,
}

/// One process of the reconstructed §5 initially-dead protocol.
///
/// # Examples
///
/// All processes correct: the decision tracks the input majority whenever
/// the schedule lets `G⁺` span everyone (and is `0` otherwise — both are
/// reachable, which is the point of intermediate bivalence):
///
/// ```
/// use bt_core::InitiallyDead;
/// use simnet::{Role, Sim, Value};
///
/// let mut b = Sim::builder();
/// for _ in 0..4 {
///     b.process(Box::new(InitiallyDead::new(4, Value::One)), Role::Correct);
/// }
/// let report = b.seed(2).build().run();
/// assert!(report.agreement());
/// assert!(report.all_correct_decided());
/// ```
#[derive(Debug)]
pub struct InitiallyDead {
    n: usize,
    quorum: usize,
    input: Value,
    /// Stage-1 senders heard so far (includes self once own broadcast loops
    /// back). `None` entries of `inputs` mean "not heard yet".
    heard: BTreeSet<ProcessId>,
    inputs: Vec<Option<Value>>,
    /// Frozen at stage-1 completion.
    ancestors: Option<Vec<ProcessId>>,
    /// Everyone's reported edge lists (stage 2).
    edge_lists: BTreeMap<ProcessId, Vec<ProcessId>>,
    rule: DecisionRule,
    decision: Option<Value>,
    halted: bool,
}

impl InitiallyDead {
    /// Creates a process whose stage-1 quorum `L` is a majority,
    /// `⌊n/2⌋ + 1` (the same bar as a Figure 1 witness), which tolerates up
    /// to `⌊(n−1)/2⌋` initially-dead processes and makes the source
    /// component unique.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, input: Value) -> Self {
        assert!(n > 0, "a system needs at least one process");
        InitiallyDead {
            n,
            quorum: majority(n),
            input,
            heard: BTreeSet::new(),
            inputs: vec![None; n],
            ancestors: None,
            edge_lists: BTreeMap::new(),
            rule: DecisionRule::default(),
            decision: None,
            halted: false,
        }
    }

    /// Creates a process using the original [Fisc83] decision rule — the
    /// strong-bivalence protocol the footnote modifies. Tolerates the same
    /// `⌊(n−1)/2⌋` dead processes, but decides the majority of the *initial
    /// clique's* inputs instead of pinning faulty runs to 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn flp(n: usize, input: Value) -> Self {
        let mut p = InitiallyDead::new(n, input);
        p.rule = DecisionRule::FischerLynchPaterson;
        p
    }

    /// The decision rule in force.
    #[must_use]
    pub fn rule(&self) -> DecisionRule {
        self.rule
    }

    /// Number of dead processes this instance tolerates: `n − L`.
    #[must_use]
    pub fn tolerated_dead(&self) -> usize {
        self.n - self.quorum
    }

    /// The ancestor closure of `me`: least set containing `me` closed under
    /// the collected edge lists. `None` if some member's list is missing.
    fn closure(&self, me: ProcessId) -> Option<BTreeSet<ProcessId>> {
        let mut set = BTreeSet::new();
        let mut stack = vec![me];
        while let Some(q) = stack.pop() {
            if !set.insert(q) {
                continue;
            }
            let list = self.edge_lists.get(&q)?;
            for r in list {
                if !set.contains(r) {
                    stack.push(*r);
                }
            }
        }
        Some(set)
    }

    /// The unique source SCC of the collected graph, computed over an
    /// ancestor-closed vertex set. A vertex `q` is in the source SCC iff
    /// every member of its own closure can reach it; with majority edge
    /// lists the source SCC is the set of vertices whose closure equals the
    /// closure of every one of their ancestors — computed here directly as
    /// the set of `q` in `closed` whose closure contains no vertex that
    /// fails to reach `q`. For the small `n` of interest an `O(n²)`
    /// reachability sweep is plenty.
    fn source_component(&self, closed: &BTreeSet<ProcessId>) -> BTreeSet<ProcessId> {
        // reaches[a] = set of vertices reachable from a by following
        // ancestor edges (a → its ancestors).
        let mut source = BTreeSet::new();
        for &q in closed {
            let Some(cl_q) = self.closure(q) else {
                continue;
            };
            // q is in the source SCC iff q is reachable from every vertex of
            // its own closure (i.e. the closure is mutually reachable).
            let mutually = cl_q
                .iter()
                .all(|&r| self.closure(r).is_some_and(|cl_r| cl_r.contains(&q)));
            if mutually {
                source.insert(q);
            }
        }
        source
    }

    /// Tries to decide; runs whenever new stage-2 information arrives.
    fn try_decide(&mut self, me: ProcessId) {
        if self.decision.is_some() {
            return;
        }
        let Some(closed) = self.closure(me) else {
            return; // still missing edge lists
        };
        let clique = self.source_component(&closed);
        if std::env::var_os("BT_DEBUG_DEAD").is_some() {
            eprintln!(
                "p{} closed={:?} clique={:?} lists={:?}",
                me.index(),
                closed.iter().map(|p| p.index()).collect::<Vec<_>>(),
                clique.iter().map(|p| p.index()).collect::<Vec<_>>(),
                self.edge_lists
            );
        }
        debug_assert!(
            !clique.is_empty(),
            "a covered closure always contains its source SCC"
        );
        let value = match self.rule {
            DecisionRule::BrachaToueg => {
                if clique.len() == self.n {
                    // The agreed bivalent function: majority of all inputs,
                    // ties to one. All inputs are known: every process is
                    // in the clique and its stage-2 carried its input.
                    let ones = (0..self.n)
                        .filter(|i| self.inputs[*i] == Some(Value::One))
                        .count();
                    Value::from(2 * ones >= self.n)
                } else {
                    Value::Zero
                }
            }
            DecisionRule::FischerLynchPaterson => {
                // [Fisc83]: the agreed function over the clique's inputs.
                // Every clique member's input is known (its stage-2 is in
                // hand — the clique is inside the covered closure).
                let ones = clique
                    .iter()
                    .filter(|q| self.inputs[q.index()] == Some(Value::One))
                    .count();
                Value::from(2 * ones >= clique.len())
            }
        };
        self.decision = Some(value);
        self.halted = true;
    }
}

impl Process for InitiallyDead {
    type Msg = DeadMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DeadMsg>) {
        // A process knows its own input even if its self-addressed messages
        // are still in flight when it decides.
        self.inputs[ctx.me().index()] = Some(self.input);
        ctx.broadcast(DeadMsg::Stage1 { value: self.input });
    }

    fn on_receive(&mut self, env: Envelope<DeadMsg>, ctx: &mut Ctx<'_, DeadMsg>) {
        if self.halted {
            return;
        }
        let me = ctx.me();
        match env.msg {
            DeadMsg::Stage1 { value } => {
                if self.ancestors.is_some() {
                    return; // edges frozen; late stage-1 messages ignored
                }
                self.heard.insert(env.from);
                self.inputs[env.from.index()] = Some(value);
                if self.heard.len() >= self.quorum {
                    let ancestors: Vec<ProcessId> = self.heard.iter().copied().collect();
                    self.ancestors = Some(ancestors.clone());
                    self.edge_lists.insert(me, ancestors.clone());
                    ctx.broadcast(DeadMsg::Stage2 {
                        value: self.input,
                        ancestors,
                    });
                    self.try_decide(me);
                }
            }
            DeadMsg::Stage2 { value, ancestors } => {
                if ancestors.iter().any(|p| p.index() >= self.n) {
                    return; // out-of-system ancestor ids: Byzantine garbage
                }
                self.inputs[env.from.index()] = Some(value);
                self.edge_lists.entry(env.from).or_insert(ancestors);
                if self.ancestors.is_some() {
                    self.try_decide(me);
                }
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn phase(&self) -> u64 {
        match (&self.ancestors, self.decision) {
            (None, _) => 0,
            (Some(_), None) => 1,
            (_, Some(_)) => 2,
        }
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Role, Sim};

    /// A process that is dead from the start.
    #[derive(Debug)]
    struct Dead;

    impl Process for Dead {
        type Msg = DeadMsg;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, DeadMsg>) {}
        fn on_receive(&mut self, _e: Envelope<DeadMsg>, _ctx: &mut Ctx<'_, DeadMsg>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
        fn phase(&self) -> u64 {
            0
        }
        fn halted(&self) -> bool {
            true
        }
    }

    fn run(n: usize, dead: usize, inputs: &[Value], seed: u64) -> simnet::RunReport {
        let mut b = Sim::builder();
        for (i, &v) in inputs.iter().enumerate() {
            if i < n - dead {
                b.process(Box::new(InitiallyDead::new(n, v)), Role::Correct);
            } else {
                b.process(Box::new(Dead), Role::Faulty);
            }
        }
        b.seed(seed).step_limit(1_000_000).build().run()
    }

    #[test]
    fn all_correct_agree_and_terminate() {
        let inputs = [Value::One, Value::Zero, Value::One, Value::One, Value::Zero];
        for seed in 0..30 {
            let report = run(5, 0, &inputs, seed);
            assert!(report.agreement(), "seed {seed}");
            assert!(report.all_correct_decided(), "seed {seed}");
        }
    }

    #[test]
    fn with_any_dead_process_decision_is_zero() {
        // Intermediate bivalence: one or more faulty ⇒ decision fixed to 0,
        // even if every live input is 1.
        let inputs = [Value::One; 6];
        for dead in 1..=2 {
            for seed in 0..15 {
                let report = run(6, dead, &inputs, seed);
                assert!(report.all_correct_decided(), "dead={dead} seed={seed}");
                assert_eq!(
                    report.decided_value(),
                    Some(Value::Zero),
                    "dead={dead} seed={seed}: faulty runs must decide 0"
                );
            }
        }
    }

    #[test]
    fn too_many_dead_blocks_instead_of_misdeciding() {
        // 4 dead of 6 exceeds the quorum's tolerance (n−L = 2): the live
        // processes can never complete stage 1, and must not decide at all.
        let inputs = [Value::One; 6];
        let report = run(6, 4, &inputs, 3);
        assert!(!report.all_correct_decided());
        assert!(report.agreement(), "vacuous agreement still holds");
    }

    #[test]
    fn both_values_reachable_when_all_correct() {
        // Bivalence under the intermediate interpretation: with all-correct
        // majority-1 inputs, some schedules decide 1 (G⁺ spans everyone) and
        // some decide 0 (it does not).
        let inputs = [Value::One, Value::One, Value::One, Value::Zero, Value::Zero];
        let mut saw = [false, false];
        for seed in 0..200 {
            let report = run(5, 0, &inputs, seed);
            if let Some(v) = report.decided_value() {
                saw[v.index()] = true;
            }
            if saw[0] && saw[1] {
                break;
            }
        }
        assert!(saw[0], "the 0 outcome (incomplete G⁺) must be reachable");
        assert!(saw[1], "the majority outcome must be reachable");
    }

    #[test]
    fn unanimous_zero_always_decides_zero() {
        let inputs = [Value::Zero; 4];
        for seed in 0..10 {
            let report = run(4, 0, &inputs, seed);
            assert_eq!(report.decided_value(), Some(Value::Zero));
        }
    }

    #[test]
    fn single_process_decides_own_input() {
        let report = run(1, 0, &[Value::One], 0);
        assert_eq!(report.decided_value(), Some(Value::One));
    }

    #[test]
    fn flp_rule_decides_live_majority_despite_dead() {
        // Strong bivalence: with dead processes, the FLP rule still
        // decides from the live clique's inputs — here all-1 live inputs
        // give 1 even though a process is dead (where the BT rule gives 0).
        let n = 6;
        for seed in 0..10 {
            let mut b = Sim::builder();
            for _ in 0..n - 1 {
                b.process(Box::new(InitiallyDead::flp(n, Value::One)), Role::Correct);
            }
            b.process(Box::new(Dead), Role::Faulty);
            let report = b.seed(seed).step_limit(1_000_000).build().run();
            assert!(report.agreement(), "seed {seed}");
            assert!(report.all_correct_decided(), "seed {seed}");
            assert_eq!(
                report.decided_value(),
                Some(Value::One),
                "seed {seed}: FLP rule decides the live majority"
            );
        }
    }

    #[test]
    fn flp_and_bt_rules_agree_when_all_correct_and_unanimous() {
        for rule_is_flp in [false, true] {
            let n = 4;
            let mut b = Sim::builder();
            for _ in 0..n {
                let p = if rule_is_flp {
                    InitiallyDead::flp(n, Value::One)
                } else {
                    InitiallyDead::new(n, Value::One)
                };
                b.process(Box::new(p), Role::Correct);
            }
            let report = b.seed(5).step_limit(1_000_000).build().run();
            // Unanimous 1 inputs: BT decides 1 only when the clique spans
            // everyone; FLP always decides 1. Either way agreement holds
            // and the decided value is 1 or (BT, partial clique) 0.
            assert!(report.agreement());
            assert!(report.all_correct_decided());
            if rule_is_flp {
                assert_eq!(report.decided_value(), Some(Value::One));
            }
        }
    }

    #[test]
    fn tolerated_dead_reports_slack() {
        let p = InitiallyDead::new(7, Value::One);
        assert_eq!(p.tolerated_dead(), 3); // L = 4
    }
}
