//! The Figure 1 protocol: `⌊(n−1)/2⌋`-resilient consensus for fail-stop
//! faults.
//!
//! Each phase a process broadcasts `(phaseno, value, cardinality)` and waits
//! for `n−k` phase-`phaseno` messages. A message whose cardinality exceeds
//! `n/2` is a **witness** for its value; the paper proves no process can
//! collect witnesses for both values in the same phase. At the end of a
//! phase the process adopts the witnessed value if any (else the majority
//! value), sets its cardinality to the size of that value's message set, and
//! advances. It **decides** `i` on collecting more than `k` witnesses for
//! `i` — enough witnesses remain in the system to force every other process
//! to the same value. After deciding it broadcasts
//! `(phaseno, v, n−k)` and `(phaseno+1, v, n−k)` — both witnesses, since
//! `n−k > n/2` — so nobody blocks on its departure, and exits the protocol.
//!
//! Messages stamped with a *future* phase are buffered and replayed when the
//! process gets there (the paper re-sends them to self, which is
//! equivalent); messages from *past* phases are discarded.

use std::collections::BTreeMap;

use simnet::{Ctx, Envelope, Process, ProtocolEvent, Value, Wire, WireReader};

use crate::{Config, FailStopMsg};

/// One process of the Figure 1 fail-stop consensus protocol.
///
/// # Examples
///
/// Run seven processes, three of which may crash (`k = 3 = ⌊(7−1)/2⌋`):
///
/// ```
/// use bt_core::{Config, FailStop};
/// use simnet::{Role, Sim, Value};
///
/// let config = Config::fail_stop(7, 3)?;
/// let mut b = Sim::builder();
/// for i in 0..7 {
///     let input = Value::from(i % 2 == 0);
///     b.process(Box::new(FailStop::new(config, input)), Role::Correct);
/// }
/// let report = b.seed(7).build().run();
/// assert!(report.agreement());
/// assert!(report.all_correct_decided());
/// # Ok::<(), bt_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FailStop {
    config: Config,
    value: Value,
    cardinality: usize,
    phase: u64,
    message_count: [usize; 2],
    witness_count: [usize; 2],
    deferred: BTreeMap<u64, Vec<FailStopMsg>>,
    decision: Option<Value>,
    halted: bool,
}

impl FailStop {
    /// Creates a process with the given initial value (`i_p`).
    #[must_use]
    pub fn new(config: Config, input: Value) -> Self {
        FailStop {
            config,
            value: input,
            cardinality: 1,
            phase: 0,
            message_count: [0; 2],
            witness_count: [0; 2],
            deferred: BTreeMap::new(),
            decision: None,
            halted: false,
        }
    }

    /// The process's current value (`value` in Figure 1).
    #[must_use]
    pub fn value(&self) -> Value {
        self.value
    }

    /// The configuration this process runs under.
    #[must_use]
    pub fn config(&self) -> Config {
        self.config
    }

    /// Handles one phase-current message; returns `true` if the phase
    /// completed (so deferred messages for the next phase may now apply).
    fn count_message(&mut self, msg: FailStopMsg, ctx: &mut Ctx<'_, FailStopMsg>) -> bool {
        debug_assert_eq!(msg.phase, self.phase);
        self.message_count[msg.value.index()] += 1;
        if self.config.is_witness(msg.cardinality) {
            self.witness_count[msg.value.index()] += 1;
            ctx.emit(ProtocolEvent::WitnessReached {
                phase: self.phase,
                value: msg.value,
                cardinality: msg.cardinality,
            });
        }
        if self.message_count[0] + self.message_count[1] < self.config.quota() {
            return false;
        }
        self.end_phase(ctx);
        true
    }

    /// The end-of-phase block of Figure 1: value update, decision check,
    /// next-phase broadcast.
    fn end_phase(&mut self, ctx: &mut Ctx<'_, FailStopMsg>) {
        // "if there is i such that witness_count(i) > 0 then value := i
        //  else value := majority". Theorem 2's proof shows witnesses for
        // both values cannot coexist in one phase under the fail-stop
        // model; should out-of-model (Byzantine) traffic produce both
        // anyway, the larger witness set wins — a deterministic total
        // extension of Figure 1's "there is i" selection.
        let previous = self.value;
        if self.witness_count[0] > 0 || self.witness_count[1] > 0 {
            self.value = if self.witness_count[0] == self.witness_count[1] {
                Value::majority_of(self.message_count)
            } else {
                Value::from(self.witness_count[1] > self.witness_count[0])
            };
        } else {
            self.value = Value::majority_of(self.message_count);
        }
        if self.value != previous {
            ctx.emit(ProtocolEvent::ValueFlipped {
                phase: self.phase,
                from: previous,
                to: self.value,
            });
        }
        self.cardinality = self.message_count[self.value.index()];
        self.phase += 1;
        ctx.emit(ProtocolEvent::PhaseEntered { phase: self.phase });

        // Loop guard of Figure 1: exit once either witness count exceeds k.
        // Check the adopted value first so that out-of-model double-witness
        // phases decide the value they adopted.
        for v in [self.value, !self.value] {
            if self.config.enough_witnesses(self.witness_count[v.index()]) {
                self.decide(v, ctx);
                return;
            }
        }

        // Start the next phase.
        self.message_count = [0; 2];
        self.witness_count = [0; 2];
        ctx.broadcast(FailStopMsg {
            phase: self.phase,
            value: self.value,
            cardinality: self.cardinality,
        });
    }

    fn decide(&mut self, v: Value, ctx: &mut Ctx<'_, FailStopMsg>) {
        // Under the fail-stop model the witnessed value is always the
        // adopted value; align them explicitly so the exit broadcasts are
        // coherent even under out-of-model traffic.
        self.value = v;
        self.decision = Some(v);
        ctx.emit(ProtocolEvent::Decided {
            phase: self.phase,
            value: v,
        });
        // The exit broadcasts: cardinality n−k > n/2 makes both witnesses,
        // releasing everyone who would otherwise wait on this process in the
        // next two phases.
        ctx.broadcast(FailStopMsg {
            phase: self.phase,
            value: v,
            cardinality: self.config.quota(),
        });
        ctx.broadcast(FailStopMsg {
            phase: self.phase + 1,
            value: v,
            cardinality: self.config.quota(),
        });
        self.halted = true;
        self.deferred.clear();
        ctx.emit(ProtocolEvent::Halted { phase: self.phase });
    }

    /// Replays buffered messages that have become current. Completing a
    /// phase can make the next batch current, so loop.
    fn drain_deferred(&mut self, ctx: &mut Ctx<'_, FailStopMsg>) {
        while !self.halted {
            let Some(mut batch) = self.deferred.remove(&self.phase) else {
                return;
            };
            let mut ended = false;
            while let Some(msg) = batch.pop() {
                if self.count_message(msg, ctx) {
                    ended = true;
                    break;
                }
            }
            if ended {
                // Phase advanced; any unconsumed current-phase messages in
                // `batch` are now stale and correctly discarded.
                continue;
            }
            return;
        }
    }
}

impl Process for FailStop {
    type Msg = FailStopMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FailStopMsg>) {
        ctx.broadcast(FailStopMsg {
            phase: 0,
            value: self.value,
            cardinality: self.cardinality,
        });
    }

    fn on_receive(&mut self, env: Envelope<FailStopMsg>, ctx: &mut Ctx<'_, FailStopMsg>) {
        if self.halted {
            return;
        }
        let msg = env.msg;
        if msg.phase < self.phase {
            return; // stale
        }
        if msg.phase > self.phase {
            self.deferred.entry(msg.phase).or_default().push(msg);
            return;
        }
        if self.count_message(msg, ctx) {
            self.drain_deferred(ctx);
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn phase(&self) -> u64 {
        self.phase
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        // Config is rebuilt by the constructor; everything mutable goes in.
        // BTreeMap iterates in key order, so the bytes are canonical.
        let mut out = Vec::new();
        self.value.encode(&mut out);
        self.cardinality.encode(&mut out);
        self.phase.encode(&mut out);
        for c in self.message_count.iter().chain(&self.witness_count) {
            c.encode(&mut out);
        }
        let deferred: Vec<(u64, Vec<FailStopMsg>)> = self
            .deferred
            .iter()
            .map(|(&phase, msgs)| (phase, msgs.clone()))
            .collect();
        deferred.encode(&mut out);
        self.decision.encode(&mut out);
        self.halted.encode(&mut out);
        Some(out)
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(value) = Value::decode(&mut r) else {
            return false;
        };
        let Ok(cardinality) = usize::decode(&mut r) else {
            return false;
        };
        let Ok(phase) = u64::decode(&mut r) else {
            return false;
        };
        let mut counts = [0usize; 4];
        for c in &mut counts {
            let Ok(v) = usize::decode(&mut r) else {
                return false;
            };
            *c = v;
        }
        let Ok(deferred) = Vec::<(u64, Vec<FailStopMsg>)>::decode(&mut r) else {
            return false;
        };
        let Ok(decision) = Option::<Value>::decode(&mut r) else {
            return false;
        };
        let Ok(halted) = bool::decode(&mut r) else {
            return false;
        };
        if r.finish().is_err() {
            return false;
        }
        self.value = value;
        self.cardinality = cardinality;
        self.phase = phase;
        self.message_count = [counts[0], counts[1]];
        self.witness_count = [counts[2], counts[3]];
        self.deferred = deferred.into_iter().collect();
        self.decision = decision;
        self.halted = halted;
        true
    }
}

/// Convenience: a boxed [`FailStop`] process, for [`simnet::SimBuilder`].
#[must_use]
pub fn fail_stop_process(config: Config, input: Value) -> Box<dyn Process<Msg = FailStopMsg>> {
    Box::new(FailStop::new(config, input))
}

/// Ignore `_pid`-style helper: builds the full system of `n` correct
/// fail-stop processes with the given inputs.
///
/// # Panics
///
/// Panics if `inputs.len() != config.n()`.
pub fn build_correct_system(
    builder: &mut simnet::SimBuilder<FailStopMsg>,
    config: Config,
    inputs: &[Value],
) {
    assert_eq!(inputs.len(), config.n(), "one input per process");
    for &input in inputs {
        builder.process(fail_stop_process(config, input), simnet::Role::Correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Threshold;
    use simnet::{ProcessId, RunStatus, Sim};

    fn run_inputs(n: usize, k: usize, inputs: &[Value], seed: u64) -> simnet::RunReport {
        let config = Config::fail_stop(n, k).unwrap();
        let mut b = Sim::builder();
        build_correct_system(&mut b, config, inputs);
        b.seed(seed).step_limit(2_000_000).build().run()
    }

    #[test]
    fn unanimous_one_decides_one_quickly() {
        let inputs = vec![Value::One; 5];
        let report = run_inputs(5, 2, &inputs, 11);
        assert_eq!(report.status, RunStatus::Stopped);
        assert_eq!(report.decided_value(), Some(Value::One));
        // Paper: unanimous input decides "within two steps" — witnesses
        // appear in phase 1, decision on entering phase 2.
        assert_eq!(report.phases_to_decision(), Some(2));
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let inputs = vec![Value::Zero; 4];
        let report = run_inputs(4, 1, &inputs, 3);
        assert_eq!(report.decided_value(), Some(Value::Zero));
    }

    #[test]
    fn mixed_inputs_reach_agreement_over_many_seeds() {
        let inputs = [
            Value::Zero,
            Value::One,
            Value::Zero,
            Value::One,
            Value::One,
            Value::Zero,
            Value::One,
        ];
        for seed in 0..30 {
            let report = run_inputs(7, 3, &inputs, seed);
            assert!(report.agreement(), "seed {seed} broke agreement");
            assert!(
                report.all_correct_decided(),
                "seed {seed} failed to terminate: {:?}",
                report.status
            );
        }
    }

    #[test]
    fn weakened_witness_rule_eventually_breaks_agreement() {
        // Drop the witness bar to 1: any message certifies its value, so
        // split inputs can produce "witnessed" both ways and fast, wrong
        // decisions. Some seed must disagree.
        let paper = Config::fail_stop(6, 2).unwrap();
        let config = paper.ablate(Threshold::Witness, paper.bar(Threshold::Witness) - 1);
        assert_eq!(config.bar(Threshold::Witness), 1);
        let inputs: Vec<Value> = (0..6).map(|i| Value::from(i % 2 == 0)).collect();
        let broke = (0..400).any(|seed| {
            let mut b = Sim::builder();
            build_correct_system(&mut b, config, &inputs);
            !b.seed(seed).step_limit(2_000_000).build().run().agreement()
        });
        assert!(broke, "witness bar 1 should violate agreement on some seed");
    }

    #[test]
    fn strong_majority_decides_that_value() {
        // More than (n+k)/2 = (7+3)/2 = 5 processes start with 1 → the
        // decision is forced to 1 (paper's closing note of §2.3).
        let inputs = [
            Value::One,
            Value::One,
            Value::One,
            Value::One,
            Value::One,
            Value::One,
            Value::Zero,
        ];
        for seed in 0..20 {
            let report = run_inputs(7, 3, &inputs, seed);
            assert_eq!(
                report.decided_value(),
                Some(Value::One),
                "seed {seed} did not decide the supermajority value"
            );
            assert!(
                report.phases_to_decision().unwrap() <= 3,
                "supermajority should decide within three phases"
            );
        }
    }

    #[test]
    fn k_zero_single_process_decides_own_input() {
        let report = run_inputs(1, 0, &[Value::One], 0);
        assert_eq!(report.decided_value(), Some(Value::One));
    }

    #[test]
    fn decided_process_halts_and_clears_deferrals() {
        let config = Config::fail_stop(3, 1).unwrap();
        let mut p = FailStop::new(config, Value::One);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);

        // Feed phase-0 then phase-1 witness messages by hand.
        for sender in 0..2 {
            let env = Envelope::new(
                ProcessId::new(sender),
                FailStopMsg {
                    phase: 0,
                    value: Value::One,
                    cardinality: 1,
                },
            );
            p.on_receive(env, &mut ctx);
        }
        assert_eq!(p.phase(), 1);
        assert!(p.decision().is_none());

        for sender in 0..2 {
            let env = Envelope::new(
                ProcessId::new(sender),
                FailStopMsg {
                    phase: 1,
                    value: Value::One,
                    cardinality: 2, // 2 > 3/2 ⇒ witness
                },
            );
            p.on_receive(env, &mut ctx);
        }
        assert_eq!(p.decision(), Some(Value::One));
        assert!(p.halted());

        // Post-decision deliveries are ignored.
        let env = Envelope::new(
            ProcessId::new(1),
            FailStopMsg {
                phase: 2,
                value: Value::Zero,
                cardinality: 2,
            },
        );
        p.on_receive(env, &mut ctx);
        assert_eq!(p.decision(), Some(Value::One));
    }

    #[test]
    fn future_phase_messages_are_deferred_not_counted() {
        let config = Config::fail_stop(3, 1).unwrap();
        let mut p = FailStop::new(config, Value::Zero);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);

        // A phase-5 message must not complete phase 0.
        let env = Envelope::new(
            ProcessId::new(1),
            FailStopMsg {
                phase: 5,
                value: Value::One,
                cardinality: 2,
            },
        );
        p.on_receive(env, &mut ctx);
        assert_eq!(p.phase(), 0);
        assert_eq!(p.message_count, [0, 0]);
    }

    #[test]
    fn stale_messages_are_discarded() {
        let config = Config::fail_stop(3, 1).unwrap();
        let mut p = FailStop::new(config, Value::Zero);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);

        // Complete phase 0 (quota n−k = 2).
        for sender in 0..2 {
            let env = Envelope::new(
                ProcessId::new(sender),
                FailStopMsg {
                    phase: 0,
                    value: Value::Zero,
                    cardinality: 1,
                },
            );
            p.on_receive(env, &mut ctx);
        }
        assert_eq!(p.phase(), 1);
        // A late phase-0 message is ignored.
        let env = Envelope::new(
            ProcessId::new(2),
            FailStopMsg {
                phase: 0,
                value: Value::One,
                cardinality: 1,
            },
        );
        p.on_receive(env, &mut ctx);
        assert_eq!(p.message_count, [0, 0]);
    }

    #[test]
    fn majority_tie_breaks_to_zero() {
        // quota 4, split 2/2, no witnesses → value becomes 0.
        let config = Config::fail_stop(5, 1).unwrap();
        let mut p = FailStop::new(config, Value::One);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 5, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);
        for (sender, v) in [
            (0, Value::Zero),
            (1, Value::Zero),
            (2, Value::One),
            (3, Value::One),
        ] {
            let env = Envelope::new(
                ProcessId::new(sender),
                FailStopMsg {
                    phase: 0,
                    value: v,
                    cardinality: 1,
                },
            );
            p.on_receive(env, &mut ctx);
        }
        assert_eq!(p.phase(), 1);
        assert_eq!(p.value(), Value::Zero);
        assert_eq!(p.cardinality, 2);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_phase_state() {
        let config = Config::fail_stop(5, 2).unwrap();
        let mut p = FailStop::new(config, Value::One);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 5, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);
        // A current-phase message and a deferred future one.
        p.on_receive(
            Envelope::new(
                ProcessId::new(1),
                FailStopMsg {
                    phase: 0,
                    value: Value::Zero,
                    cardinality: 1,
                },
            ),
            &mut ctx,
        );
        p.on_receive(
            Envelope::new(
                ProcessId::new(2),
                FailStopMsg {
                    phase: 3,
                    value: Value::One,
                    cardinality: 4,
                },
            ),
            &mut ctx,
        );

        let snap = p.snapshot().expect("fail-stop supports snapshots");
        let mut q = FailStop::new(config, Value::One);
        assert!(q.restore(&snap));
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
        // Identical states must produce identical bytes (canonical form).
        assert_eq!(q.snapshot().unwrap(), snap);

        // Garbage must be rejected without mutating the process.
        let mut fresh = FailStop::new(config, Value::Zero);
        assert!(!fresh.restore(&[0xFF, 0xFF, 0xFF]));
        assert!(!fresh.restore(b""));
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(!fresh.restore(&trailing));
        assert_eq!(fresh.phase(), 0);
    }

    #[test]
    fn exit_broadcasts_release_both_following_phases() {
        let config = Config::fail_stop(3, 1).unwrap();
        let mut p = FailStop::new(config, Value::One);
        let mut outbox = Vec::new();
        let mut rng = simnet::SimRng::seed(0);
        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        p.on_start(&mut ctx);
        outbox.clear();

        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        for sender in 0..2 {
            p.on_receive(
                Envelope::new(
                    ProcessId::new(sender),
                    FailStopMsg {
                        phase: 0,
                        value: Value::One,
                        cardinality: 1,
                    },
                ),
                &mut ctx,
            );
        }
        outbox.clear();
        let mut ctx = Ctx::new(ProcessId::new(0), 3, 0, &mut outbox, &mut rng);
        for sender in 0..2 {
            p.on_receive(
                Envelope::new(
                    ProcessId::new(sender),
                    FailStopMsg {
                        phase: 1,
                        value: Value::One,
                        cardinality: 2,
                    },
                ),
                &mut ctx,
            );
        }
        assert_eq!(p.decision(), Some(Value::One));
        // Decision at phase 2: exit messages for phases 2 and 3, to all 3
        // processes each.
        let phases: Vec<u64> = outbox.iter().map(|(_, m)| m.phase).collect();
        assert_eq!(outbox.len(), 6);
        assert_eq!(phases.iter().filter(|&&t| t == 2).count(), 3);
        assert_eq!(phases.iter().filter(|&&t| t == 3).count(), 3);
        assert!(outbox
            .iter()
            .all(|(_, m)| m.cardinality == 2 && m.value == Value::One));
    }
}
