//! The simulation engine: drives processes through atomic steps.

use core::fmt;

use crate::buffer::Store;
use crate::scheduler::{FairScheduler, Scheduler, SystemView};
use crate::{
    Ctx, Envelope, Event, Metrics, Process, ProcessId, SharedSubscriber, SimRng, Trace, Value,
};

/// Whether a process is counted as correct when checking consensus
/// properties.
///
/// The engine never peeks inside a process: a Byzantine strategy and a
/// correct protocol instance are both just [`Process`] implementations. The
/// role tag tells the engine (and the invariant checks in
/// [`RunReport`]) which processes the consensus properties quantify over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// A process that follows the protocol; agreement/validity/termination
    /// are asserted over these.
    Correct,
    /// A faulty process (fail-stop or malicious); exempt from the properties.
    Faulty,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every correct process decided (the configured stop condition held).
    Stopped,
    /// No runnable process had a pending message: the system went quiescent
    /// before the stop condition held. For a deadlock-free protocol under a
    /// reliable scheduler this indicates a bug or an impossible configuration
    /// (e.g. beyond the resilience bound).
    Quiescent,
    /// The step budget ran out first.
    StepLimitReached,
}

/// When the engine stops a run early (the step limit always applies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StopWhen {
    /// Stop as soon as every correct process has decided. The default: the
    /// paper's convergence property is about decisions, not halting.
    #[default]
    AllCorrectDecided,
    /// Stop only when every correct process has halted (useful for checking
    /// post-decision shutdown behaviour).
    AllCorrectHalted,
    /// Never stop early; run to quiescence or the step limit (useful for
    /// observing post-decision message traffic).
    Never,
}

/// Builder for a [`Sim`].
///
/// # Examples
///
/// Assemble and run a two-process "echo once" toy system:
///
/// ```
/// use simnet::{Ctx, Envelope, Process, ProcessId, Sim, Role, Value};
///
/// #[derive(Debug)]
/// struct Shout(Option<Value>);
///
/// impl Process for Shout {
///     type Msg = Value;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, Value>) {
///         ctx.broadcast(Value::One);
///     }
///     fn on_receive(&mut self, env: Envelope<Value>, _ctx: &mut Ctx<'_, Value>) {
///         self.0 = Some(env.msg);
///     }
///     fn decision(&self) -> Option<Value> {
///         self.0
///     }
///     fn phase(&self) -> u64 {
///         0
///     }
/// }
///
/// let report = Sim::builder()
///     .process(Box::new(Shout(None)), Role::Correct)
///     .process(Box::new(Shout(None)), Role::Correct)
///     .seed(1)
///     .build()
///     .run();
/// assert!(report.agreement());
/// assert_eq!(report.decided_value(), Some(Value::One));
/// ```
#[allow(missing_debug_implementations)] // holds unboxed user closures via dyn Process
pub struct SimBuilder<M> {
    procs: Vec<(Box<dyn Process<Msg = M>>, Role)>,
    scheduler: Option<Box<dyn Scheduler<M>>>,
    seed: u64,
    step_limit: u64,
    stop_when: StopWhen,
    trace_capacity: usize,
    subscriber: Option<SharedSubscriber>,
}

impl<M: 'static> SimBuilder<M> {
    fn new() -> Self {
        SimBuilder {
            procs: Vec::new(),
            scheduler: None,
            seed: 0,
            step_limit: 1_000_000,
            stop_when: StopWhen::default(),
            trace_capacity: 0,
            subscriber: None,
        }
    }

    /// Adds a process with the given role. Processes receive dense ids in
    /// the order they are added.
    pub fn process(&mut self, process: Box<dyn Process<Msg = M>>, role: Role) -> &mut Self {
        self.procs.push((process, role));
        self
    }

    /// Adds `count` processes produced by `make(pid)`, all with `role`.
    pub fn processes(
        &mut self,
        count: usize,
        role: Role,
        mut make: impl FnMut(ProcessId) -> Box<dyn Process<Msg = M>>,
    ) -> &mut Self {
        for _ in 0..count {
            let pid = ProcessId::new(self.procs.len());
            self.procs.push((make(pid), role));
        }
        self
    }

    /// Sets the scheduler. Defaults to [`FairScheduler`], the one satisfying
    /// the paper's §2.3 probabilistic assumption.
    pub fn scheduler(&mut self, scheduler: Box<dyn Scheduler<M>>) -> &mut Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the seed for the run's deterministic random stream.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Caps the number of atomic steps (defaults to 1,000,000).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn step_limit(&mut self, limit: u64) -> &mut Self {
        assert!(limit > 0, "step limit must be positive");
        self.step_limit = limit;
        self
    }

    /// Sets the early-stop condition (defaults to
    /// [`StopWhen::AllCorrectDecided`]).
    pub fn stop_when(&mut self, stop: StopWhen) -> &mut Self {
        self.stop_when = stop;
        self
    }

    /// Enables event tracing with the given capacity (0 disables, the
    /// default).
    pub fn trace_capacity(&mut self, capacity: usize) -> &mut Self {
        self.trace_capacity = capacity;
        self
    }

    /// Attaches a [`Subscriber`](crate::Subscriber) that will receive every
    /// run event (engine and protocol level), unbounded by the trace
    /// capacity. `None` by default; an unobserved run pays only an
    /// `Option` check per event site. Callers keep their own clone of the
    /// `Arc` to read the sink back after [`Sim::run`] consumes the `Sim`.
    pub fn subscriber(&mut self, subscriber: SharedSubscriber) -> &mut Self {
        self.subscriber = Some(subscriber);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no processes were added.
    pub fn build(&mut self) -> Sim<M> {
        assert!(!self.procs.is_empty(), "a simulation needs processes");
        let n = self.procs.len();
        let (procs, roles): (Vec<_>, Vec<_>) = std::mem::take(&mut self.procs).into_iter().unzip();
        Sim {
            procs,
            roles,
            store: Store::new(n),
            scheduler: self
                .scheduler
                .take()
                .unwrap_or_else(|| Box::new(FairScheduler::new())),
            rng: SimRng::seed(self.seed),
            step_limit: self.step_limit,
            stop_when: self.stop_when,
            trace: if self.trace_capacity > 0 {
                Some(Trace::with_capacity(self.trace_capacity))
            } else {
                None
            },
            subscriber: self.subscriber.take(),
            metrics: Metrics::new(n),
            decision_steps: vec![None; n],
            decision_phases: vec![None; n],
            halt_recorded: vec![false; n],
            runnable: Vec::new(),
            ready: Vec::new(),
            decided_seen: Vec::new(),
            undecided_correct: 0,
            unhalted_correct: 0,
            step: 0,
        }
    }
}

/// A configured simulation, ready to [`run`](Sim::run).
///
/// The run is a pure function of the added processes, the scheduler and the
/// seed: re-building with the same inputs replays the identical execution.
pub struct Sim<M> {
    procs: Vec<Box<dyn Process<Msg = M>>>,
    roles: Vec<Role>,
    /// Every message in flight: one shared send log, one mailbox per process.
    store: Store<M>,
    scheduler: Box<dyn Scheduler<M>>,
    rng: SimRng,
    step_limit: u64,
    stop_when: StopWhen,
    trace: Option<Trace>,
    subscriber: Option<SharedSubscriber>,
    metrics: Metrics,
    decision_steps: Vec<Option<u64>>,
    decision_phases: Vec<Option<u64>>,
    halt_recorded: Vec<bool>,
    // Incrementally maintained run state. `Process::halted`/`decision` can
    // only change during the process's own atomic step, and every step is
    // followed by `observe`, so these stay exact mirrors of the O(n) scans
    // the engine used to redo on every delivery.
    /// `!procs[i].halted()`, kept current by [`Sim::observe`].
    runnable: Vec<bool>,
    /// Bit `i` set iff process `i` is runnable with a non-empty buffer —
    /// the scheduler's candidate set, maintained across deliveries.
    ready: Vec<u64>,
    /// Whether a decision by process `i` has been counted.
    decided_seen: Vec<bool>,
    /// Correct processes that have not yet decided (stop condition).
    undecided_correct: usize,
    /// Correct processes that have not yet halted (stop condition).
    unhalted_correct: usize,
    step: u64,
}

impl<M: Clone + PartialEq + 'static> Sim<M> {
    /// Starts building a simulation.
    #[must_use]
    pub fn builder() -> SimBuilder<M> {
        SimBuilder::new()
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Records an event in the bounded trace and forwards it to the
    /// subscriber, when either is attached.
    fn publish(&mut self, event: Event) {
        if let Some(t) = &mut self.trace {
            t.record(event);
        }
        if let Some(s) = &self.subscriber {
            s.lock().expect("subscriber lock poisoned").on_event(&event);
        }
    }

    /// Whether protocol-level emission should be collected at all.
    fn observed(&self) -> bool {
        self.trace.is_some() || self.subscriber.is_some()
    }

    fn deliver_outbox(&mut self, from: ProcessId, outbox: &mut Vec<(ProcessId, M)>) {
        // Sends are attributed to the sender's phase when the step commits.
        let phase = self.procs[from.index()].phase();
        // The sender may have halted during the very step being committed
        // (a crash wrapper truncating mid-broadcast); refresh its flag so
        // self-addressed sends are dropped exactly as a fresh `halted()`
        // query would have. No other process can have changed state since
        // its own last observed step.
        self.runnable[from.index()] = !self.procs[from.index()].halted();
        for (to, msg) in outbox.drain(..) {
            self.metrics.record_send(from.index(), phase);
            self.publish(Event::Send {
                step: self.step,
                from,
                to,
            });
            let ti = to.index();
            if !self.runnable[ti] {
                self.metrics.messages_dropped += 1;
            } else {
                let occupancy = self.store.send(ti, Envelope::new(from, msg));
                self.metrics.observe_occupancy(occupancy);
                self.ready[ti >> 6] |= 1u64 << (ti & 63);
            }
        }
    }

    /// Observes decisions/halts of `pid` after a step, updating bookkeeping.
    fn observe(&mut self, pid: ProcessId) {
        let i = pid.index();
        if self.decision_steps[i].is_none() {
            if let Some(v) = self.procs[i].decision() {
                self.decision_steps[i] = Some(self.step);
                self.decision_phases[i] = self.procs[i].decision_phase();
                self.publish(Event::Decide {
                    step: self.step,
                    pid,
                    value: v,
                });
            }
        }
        if !self.decided_seen[i] && self.procs[i].decision().is_some() {
            self.decided_seen[i] = true;
            if self.roles[i] == Role::Correct {
                self.undecided_correct -= 1;
            }
        }
        if self.procs[i].halted() && !self.halt_recorded[i] {
            self.halt_recorded[i] = true;
            self.runnable[i] = false;
            self.ready[i >> 6] &= !(1u64 << (i & 63));
            if self.roles[i] == Role::Correct {
                self.unhalted_correct -= 1;
            }
            self.metrics.messages_dropped += self.store.clear(i) as u64;
            self.publish(Event::Halt {
                step: self.step,
                pid,
            });
        }
    }

    fn stop_condition_met(&self) -> bool {
        match self.stop_when {
            StopWhen::AllCorrectDecided => self.undecided_correct == 0,
            StopWhen::AllCorrectHalted => self.unhalted_correct == 0,
            StopWhen::Never => false,
        }
    }

    /// Runs the simulation to completion and reports what happened.
    pub fn run(mut self) -> RunReport {
        let status = self.drive();
        let subscriber = self.subscriber.take();
        let report = RunReport {
            status,
            decisions: self.procs.iter().map(|p| p.decision()).collect(),
            roles: self.roles,
            steps: self.step,
            decision_steps: self.decision_steps,
            decision_phases: self.decision_phases,
            max_phase: self.procs.iter().map(|p| p.phase()).max().unwrap_or(0),
            metrics: self.metrics,
            trace: self.trace,
        };
        if let Some(s) = &subscriber {
            s.lock()
                .expect("subscriber lock poisoned")
                .on_run_end(&report);
        }
        report
    }

    /// Takes atomic steps until the run ends; [`Sim::run`] minus the report.
    fn drive(&mut self) -> RunStatus {
        let n = self.n();
        let observed = self.observed();
        // One outbox reused for every step of the run: `deliver_outbox`
        // drains it in place, so after warm-up no step allocates.
        let mut outbox: Vec<(ProcessId, M)> = Vec::new();

        // Seed the incremental mirrors from the processes' build-time state
        // (a restored checkpoint may arrive already decided or halted).
        self.runnable = self.procs.iter().map(|p| !p.halted()).collect();
        self.ready = vec![0u64; n.div_ceil(64)];
        self.decided_seen = self.procs.iter().map(|p| p.decision().is_some()).collect();
        self.undecided_correct = (0..n)
            .filter(|&i| self.roles[i] == Role::Correct && !self.decided_seen[i])
            .count();
        self.unhalted_correct = (0..n)
            .filter(|&i| self.roles[i] == Role::Correct && self.runnable[i])
            .count();

        if let Some(s) = &self.subscriber {
            let seed = self.rng.initial_seed();
            s.lock()
                .expect("subscriber lock poisoned")
                .on_run_start(n, seed);
        }

        // Initial atomic steps, in index order.
        for pid in ProcessId::all(n) {
            if !self.runnable[pid.index()] {
                continue;
            }
            self.publish(Event::Start { pid });
            let mut ctx =
                Ctx::new(pid, n, self.step, &mut outbox, &mut self.rng).with_obs(observed);
            self.procs[pid.index()].on_start(&mut ctx);
            let emitted = ctx.take_events();
            self.metrics.steps_by[pid.index()] += 1;
            for event in emitted {
                self.publish(Event::Protocol {
                    step: self.step,
                    pid,
                    event,
                });
            }
            self.deliver_outbox(pid, &mut outbox);
            self.observe(pid);
        }

        loop {
            if self.stop_condition_met() {
                break RunStatus::Stopped;
            }
            if self.step >= self.step_limit {
                break RunStatus::StepLimitReached;
            }

            let selection = {
                let view =
                    SystemView::with_ready(&self.store, &self.runnable, &self.ready, self.step);
                self.scheduler.select(&view, &mut self.rng)
            };
            let Some(sel) = selection else {
                break RunStatus::Quiescent;
            };

            let ti = sel.to.index();
            let env = self.store.take(ti, sel.index);
            if self.store.len(ti) == 0 {
                self.ready[ti >> 6] &= !(1u64 << (ti & 63));
            }
            self.step += 1;
            self.metrics.messages_delivered += 1;
            self.metrics.steps_by[sel.to.index()] += 1;
            self.publish(Event::Deliver {
                step: self.step,
                to: sel.to,
                from: env.from,
                index: sel.index,
            });
            let mut ctx =
                Ctx::new(sel.to, n, self.step, &mut outbox, &mut self.rng).with_obs(observed);
            self.procs[sel.to.index()].on_receive(env, &mut ctx);
            let emitted = ctx.take_events();
            for event in emitted {
                self.publish(Event::Protocol {
                    step: self.step,
                    pid: sel.to,
                    event,
                });
            }
            self.deliver_outbox(sel.to, &mut outbox);
            self.observe(sel.to);
        }
    }
}

impl<M> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("n", &self.procs.len())
            .field("step", &self.step)
            .field("step_limit", &self.step_limit)
            .finish()
    }
}

/// Everything observable about a finished run.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunReport {
    /// Why the run ended.
    pub status: RunStatus,
    /// Final decision of each process (`d_p`), by index.
    pub decisions: Vec<Option<Value>>,
    /// Role of each process, by index.
    pub roles: Vec<Role>,
    /// Total atomic steps taken.
    pub steps: u64,
    /// Step at which each process decided, if it did.
    pub decision_steps: Vec<Option<u64>>,
    /// Phase in which each process decided, if it did.
    pub decision_phases: Vec<Option<u64>>,
    /// Highest phase any process reached.
    pub max_phase: u64,
    /// Message/step counters.
    pub metrics: Metrics,
    /// The event trace, if enabled.
    pub trace: Option<Trace>,
}

impl RunReport {
    /// Assembles a report from externally collected run facts.
    ///
    /// [`Sim::run`] builds reports internally; this constructor exists for
    /// *other* runtimes that host [`Process`] state machines — the
    /// `netstack` socket runtime synthesizes one per cluster run so the
    /// `obs` sinks (`Subscriber::on_run_end`, `btreport`) consume simulated
    /// and networked executions identically.
    ///
    /// `steps` is the runtime's own step notion (for a networked run, the
    /// sum of per-node atomic steps); per-process vectors are indexed by
    /// [`ProcessId`].
    ///
    /// # Panics
    ///
    /// Panics unless `decisions`, `roles`, `decision_steps` and
    /// `decision_phases` all have the same length.
    #[allow(clippy::too_many_arguments)] // mirrors the report's fields 1:1
    #[must_use]
    pub fn synthesize(
        status: RunStatus,
        decisions: Vec<Option<Value>>,
        roles: Vec<Role>,
        steps: u64,
        decision_steps: Vec<Option<u64>>,
        decision_phases: Vec<Option<u64>>,
        max_phase: u64,
        metrics: Metrics,
    ) -> Self {
        let n = decisions.len();
        assert!(
            roles.len() == n && decision_steps.len() == n && decision_phases.len() == n,
            "per-process vectors must agree on n"
        );
        RunReport {
            status,
            decisions,
            roles,
            steps,
            decision_steps,
            decision_phases,
            max_phase,
            metrics,
            trace: None,
        }
    }

    /// Iterates over the indices of correct processes.
    pub fn correct(&self) -> impl Iterator<Item = usize> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Role::Correct)
            .map(|(i, _)| i)
    }

    /// The paper's **consistency** property: no two correct processes
    /// decided different values. (Vacuously true if none decided.)
    #[must_use]
    pub fn agreement(&self) -> bool {
        let mut seen: Option<Value> = None;
        for i in self.correct() {
            if let Some(v) = self.decisions[i] {
                match seen {
                    None => seen = Some(v),
                    Some(w) if w != v => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }

    /// Whether every correct process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.correct().all(|i| self.decisions[i].is_some())
    }

    /// The common decision value, if all correct processes decided and agree.
    #[must_use]
    pub fn decided_value(&self) -> Option<Value> {
        if !self.all_correct_decided() || !self.agreement() {
            return None;
        }
        self.correct().find_map(|i| self.decisions[i])
    }

    /// The largest phase in which any correct process decided (a run-level
    /// "phases to consensus" figure), if all decided.
    #[must_use]
    pub fn phases_to_decision(&self) -> Option<u64> {
        let mut max = None;
        for i in self.correct() {
            match self.decision_phases[i] {
                None => return None,
                Some(p) => max = Some(max.map_or(p, |m: u64| m.max(p))),
            }
        }
        max
    }

    /// The step at which the last correct process decided, if all decided.
    #[must_use]
    pub fn steps_to_decision(&self) -> Option<u64> {
        let mut max = None;
        for i in self.correct() {
            match self.decision_steps[i] {
                None => return None,
                Some(s) => max = Some(max.map_or(s, |m: u64| m.max(s))),
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LogStats;

    /// Decides its input as soon as it hears from anyone (including itself).
    #[derive(Debug)]
    struct EchoOnce {
        input: Value,
        decided: Option<Value>,
    }

    impl Process for EchoOnce {
        type Msg = Value;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Value>) {
            ctx.broadcast(self.input);
        }

        fn on_receive(&mut self, env: Envelope<Value>, _ctx: &mut Ctx<'_, Value>) {
            if self.decided.is_none() {
                self.decided = Some(env.msg);
            }
        }

        fn decision(&self) -> Option<Value> {
            self.decided
        }

        fn phase(&self) -> u64 {
            0
        }

        fn halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    fn echo(v: Value) -> Box<dyn Process<Msg = Value>> {
        Box::new(EchoOnce {
            input: v,
            decided: None,
        })
    }

    #[test]
    fn runs_to_stop_condition() {
        let report = Sim::builder()
            .process(echo(Value::One), Role::Correct)
            .process(echo(Value::One), Role::Correct)
            .process(echo(Value::One), Role::Correct)
            .seed(3)
            .build()
            .run();
        assert_eq!(report.status, RunStatus::Stopped);
        assert!(report.all_correct_decided());
        assert!(report.agreement());
        assert_eq!(report.decided_value(), Some(Value::One));
        assert_eq!(report.metrics.messages_sent, 9, "3 broadcasts of 3");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            Sim::builder()
                .process(echo(Value::Zero), Role::Correct)
                .process(echo(Value::One), Role::Correct)
                .process(echo(Value::One), Role::Correct)
                .seed(seed)
                .trace_capacity(1000)
                .build()
                .run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.steps, b.steps);
        assert_eq!(
            a.trace.as_ref().unwrap().events(),
            b.trace.as_ref().unwrap().events()
        );
    }

    #[test]
    fn quiescence_detected() {
        /// Never sends, never decides.
        #[derive(Debug)]
        struct Mute;
        impl Process for Mute {
            type Msg = Value;
            fn on_start(&mut self, _ctx: &mut Ctx<'_, Value>) {}
            fn on_receive(&mut self, _e: Envelope<Value>, _ctx: &mut Ctx<'_, Value>) {}
            fn decision(&self) -> Option<Value> {
                None
            }
            fn phase(&self) -> u64 {
                0
            }
        }
        let report = Sim::builder()
            .process(Box::new(Mute), Role::Correct)
            .seed(0)
            .build()
            .run();
        assert_eq!(report.status, RunStatus::Quiescent);
        assert!(!report.all_correct_decided());
    }

    #[test]
    fn step_limit_enforced() {
        let report = Sim::builder()
            .process(Box::new(Chatter), Role::Correct)
            .process(Box::new(Chatter), Role::Correct)
            .seed(0)
            .step_limit(500)
            .build()
            .run();
        assert_eq!(report.status, RunStatus::StepLimitReached);
        assert_eq!(report.steps, 500);
    }

    #[test]
    fn messages_to_halted_processes_are_dropped() {
        let report = Sim::builder()
            .process(echo(Value::One), Role::Correct)
            .process(echo(Value::One), Role::Correct)
            .seed(9)
            .stop_when(StopWhen::Never)
            .build()
            .run();
        // Both processes halt after their first delivery; remaining
        // buffered/in-flight messages get dropped.
        assert_eq!(report.status, RunStatus::Quiescent);
        assert_eq!(report.metrics.messages_sent, 4);
        assert_eq!(report.metrics.in_flight(), 0);
        assert!(report.metrics.messages_dropped > 0);
    }

    /// Replies to whoever it hears from, forever.
    #[derive(Debug)]
    struct Chatter;

    impl Process for Chatter {
        type Msg = Value;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Value>) {
            ctx.broadcast(Value::Zero);
        }
        fn on_receive(&mut self, env: Envelope<Value>, ctx: &mut Ctx<'_, Value>) {
            ctx.send(env.from, env.msg);
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn phase(&self) -> u64 {
            0
        }
    }

    /// Sum of buffer lengths, and what the send log holds.
    fn store_state(sim: &Sim<Value>) -> (u64, LogStats) {
        let pending: usize = (0..sim.n()).map(|i| sim.store.len(i)).sum();
        (pending as u64, sim.store.log_stats())
    }

    #[test]
    fn halting_with_shared_entries_pending_releases_the_share() {
        // Every broadcast is one log entry shared by the three buffers;
        // each process halts on its first delivery with two more pending.
        let mut sim = {
            let mut b = Sim::builder();
            for _ in 0..3 {
                b.process(echo(Value::One), Role::Correct);
            }
            b.seed(5).stop_when(StopWhen::Never).build()
        };
        assert_eq!(sim.drive(), RunStatus::Quiescent);
        let (pending, log) = store_state(&sim);
        assert_eq!(sim.metrics.messages_dropped, 6);
        assert_eq!((pending, log.live), (0, 0), "nothing pending, log empty");
        assert_eq!(sim.metrics.in_flight(), 0);

        // Cut short instead: what the metrics call in flight is exactly what
        // the buffers hold, and the log holds no entry nobody waits for.
        let mut sim = {
            let mut b = Sim::builder();
            b.process(echo(Value::One), Role::Correct);
            for _ in 0..4 {
                b.process(Box::new(Chatter), Role::Correct);
            }
            b.seed(5).stop_when(StopWhen::Never).step_limit(777).build()
        };
        assert_eq!(sim.drive(), RunStatus::StepLimitReached);
        let (pending, log) = store_state(&sim);
        assert!(pending > 0);
        assert_eq!(sim.metrics.in_flight(), pending);
        assert!(log.live as u64 <= pending);
    }

    /// The retention bound of `buffer.rs` under starvation: one process is
    /// partitioned away for the whole run, with every other process's
    /// opening broadcast pending in its buffer, while the rest exchange
    /// more than 10^5 messages. The log keeps the chunks that pending
    /// entries sit in — not the traffic in between.
    #[test]
    fn starved_destination_pins_only_its_own_chunks() {
        use crate::scheduler::PartitionScheduler;
        const N: usize = 8;
        let mut sim = {
            let mut b = Sim::builder();
            b.processes(N, Role::Correct, |_| Box::new(Chatter));
            // One epoch longer than the run: the partition never heals.
            let cut = PartitionScheduler::new(N, &[ProcessId::new(0)], u64::MAX, 2);
            b.scheduler(Box::new(cut))
                .seed(3)
                .stop_when(StopWhen::Never)
                .step_limit(120_000)
                .build()
        };
        assert_eq!(sim.drive(), RunStatus::StepLimitReached);
        assert!(sim.metrics.messages_delivered >= 100_000);
        let unheard = sim.store.pending(0).filter(|e| e.from.index() != 0);
        assert_eq!(unheard.count(), N - 1, "p0 never heard from the others");
        let (pending, log) = store_state(&sim);
        assert!(log.live as u64 <= pending);
        assert!(log.in_use <= 64 * (log.live + 1), "{log:?}");
        // The opening broadcasts' chunk and the chunks the ~N*N replies in
        // flight are scattered over — hundreds of slots allocated (spares
        // included: the peak of what was in use), not 10^5.
        assert!(log.in_use + log.spare < 1_000, "{log:?}");
    }

    #[test]
    fn disagreement_is_reported() {
        // Two isolated echoers with different inputs each hear themselves
        // first under a seed where self-delivery happens first; force it by
        // giving each only its own broadcast (n=2, different inputs, and
        // EchoOnce decides on whatever arrives first). Find a seed where they
        // disagree.
        let mut saw_disagreement = false;
        for seed in 0..50 {
            let report = Sim::builder()
                .process(echo(Value::Zero), Role::Correct)
                .process(echo(Value::One), Role::Correct)
                .seed(seed)
                .build()
                .run();
            if !report.agreement() {
                saw_disagreement = true;
                assert_eq!(report.decided_value(), None);
            }
        }
        assert!(
            saw_disagreement,
            "EchoOnce is not a consensus protocol; some seed must split it"
        );
    }

    #[test]
    fn faulty_roles_excluded_from_properties() {
        let report = Sim::builder()
            .process(echo(Value::Zero), Role::Faulty)
            .process(echo(Value::One), Role::Correct)
            .process(echo(Value::One), Role::Correct)
            .seed(7)
            .build()
            .run();
        // The property checks quantify over correct processes only.
        let correct: Vec<_> = report.correct().collect();
        assert_eq!(correct, vec![1, 2]);
        assert!(report.all_correct_decided());
        // agreement() must ignore whatever p0 (faulty) decided: force a
        // disagreement that involves only the faulty process and recheck.
        let mut rigged = report.clone();
        rigged.decisions[1] = Some(Value::One);
        rigged.decisions[2] = Some(Value::One);
        rigged.decisions[0] = Some(Value::Zero);
        assert!(rigged.agreement());
    }
}
