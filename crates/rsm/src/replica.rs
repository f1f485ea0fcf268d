//! The multi-decree replica: a [`Process`] that composes slot-indexed
//! [`MultiValued`] consensus instances into a gap-free replicated log.
//!
//! # Design
//!
//! * **Rotating leadership.** Slot `s` belongs to process `s mod n`. Every
//!   correct replica inputs the *leader's id* to slot `s`'s consensus
//!   instance, so unanimity validity (Figure 2) forces the decided winner
//!   to be the leader whenever the correct replicas participate — the
//!   decision orders *who speaks at slot `s`*, and the leader's
//!   [`RsmMsg::Announce`] carries *what it says* (the command batch).
//!   A decided word that is not the leader's id (impossible without a
//!   protocol violation, but decoded bytes are adversary-controlled) is
//!   applied as a deterministic no-op, preserving agreement.
//! * **Batching.** An announcement drains up to `max_batch` pending
//!   commands into one slot, so one consensus round orders many commands.
//! * **Pipelining.** Up to `window` slots run concurrently: a leader may
//!   announce slot `s+1` before slot `s` decides. Commits still apply in
//!   slot order (the apply loop never skips), so the state machine sees a
//!   gap-free prefix. Messages for slots beyond the window are deferred
//!   and replayed once the window slides — the transport's reliable
//!   in-order delivery is never forfeited.
//! * **Message-driven gap-fill.** There are no timers: on seeing traffic
//!   for slot `s`, a replica first announces every one of its own slots
//!   below `s` it has not yet announced (with whatever commands are
//!   pending, else an empty no-op batch). An idle system is therefore
//!   fully quiescent, while under load every slot below an announced one
//!   is eventually filled and the apply loop never stalls behind an idle
//!   leader.
//! * **Retired instances stay decidable for laggards.** Instances run
//!   with [`Termination::WildcardExit`] (§3.3): a deciding instance
//!   broadcasts its wildcard exit messages before leaving, and the
//!   transport retransmits everything unacknowledged, so a replica that
//!   fell behind (or recovered from its WAL) can finish a slot from the
//!   recorded message history alone even after its peers dropped the
//!   instance.
//!
//! Everything the replica does is a deterministic function of the
//! delivered message sequence (client commands arrive as journaled
//! [`RsmMsg::Submit`] deliveries), which is exactly the property the
//! netstack WAL needs to replay a crashed replica back to byte-identical
//! state without equivocation.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use bt_core::{Config, MultiMsg, MultiValued, Termination};
use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::{Ctx, Envelope, Process, ProcessId, Value, Wire, WireReader};

use crate::command::Command;
use crate::msg::RsmMsg;
use crate::state::{LogEntry, LogView};

/// The process id that leads (announces the batch for) slot `slot` in a
/// system of `n` processes.
#[must_use]
pub fn leader(slot: u64, n: usize) -> ProcessId {
    ProcessId::new((slot % n as u64) as usize)
}

/// Bits needed to carry a process id of a system of `n` processes through
/// the bitwise consensus reduction.
#[must_use]
pub fn word_width(n: usize) -> u8 {
    let bits = 64 - (n as u64 - 1).leading_zeros();
    bits.max(1) as u8
}

/// Tuning knobs for pipelining and batching.
#[derive(Clone, Copy, Debug)]
pub struct RsmOptions {
    /// Maximum undecided slots in flight (≥ 1). Messages for slots at or
    /// beyond `applied + window` are deferred until the window slides.
    pub window: u64,
    /// Maximum commands one announcement packs into a slot (≥ 1).
    pub max_batch: usize,
}

impl Default for RsmOptions {
    fn default() -> Self {
        RsmOptions {
            window: 8,
            max_batch: 64,
        }
    }
}

/// Replica-side telemetry, labelled `{node}`.
#[derive(Clone, Debug)]
struct RsmMetrics {
    /// Slots committed and applied (no-op slots included).
    slots_committed: Counter,
    /// Commands applied to the KV state machine.
    commands_applied: Counter,
    /// Commands skipped as duplicates at apply time.
    commands_deduped: Counter,
    /// Slots applied as deterministic no-ops (gap-fill announcements
    /// count as ordinary empty batches, not no-ops).
    noop_slots: Counter,
    /// Commands per applied slot.
    batch_commands: Histogram,
    /// Open-to-decide latency per locally observed slot (microseconds).
    commit_latency_us: Histogram,
    /// Consensus instances currently open.
    pipeline_open: Gauge,
    /// Commands accepted but not yet announced.
    pending_queue: Gauge,
    /// Messages parked for slots beyond the pipeline window.
    deferred_msgs: Gauge,
    /// Submit messages refused because they came from another process,
    /// not from this replica's own service.
    foreign_submits: Counter,
    /// Messages for already-applied slots (stragglers), dropped.
    late_messages: Counter,
}

impl RsmMetrics {
    fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        RsmMetrics {
            slots_committed: registry.counter(
                "rsm_slots_committed_total",
                "log slots committed and applied, no-op slots included",
                labels,
            ),
            commands_applied: registry.counter(
                "rsm_commands_applied_total",
                "client commands applied to the state machine",
                labels,
            ),
            commands_deduped: registry.counter(
                "rsm_commands_deduped_total",
                "client commands skipped as duplicate request ids",
                labels,
            ),
            noop_slots: registry.counter(
                "rsm_noop_slots_total",
                "slots applied as defensive no-ops (winner was not the leader)",
                labels,
            ),
            batch_commands: registry.histogram(
                "rsm_batch_commands",
                "commands per applied slot",
                labels,
            ),
            commit_latency_us: registry.histogram(
                "rsm_commit_latency_us",
                "slot open-to-decide latency (microseconds)",
                labels,
            ),
            pipeline_open: registry.gauge(
                "rsm_pipeline_open",
                "consensus instances currently open",
                labels,
            ),
            pending_queue: registry.gauge(
                "rsm_pending_queue",
                "commands accepted but not yet announced",
                labels,
            ),
            deferred_msgs: registry.gauge(
                "rsm_deferred_msgs",
                "messages parked for slots beyond the pipeline window",
                labels,
            ),
            foreign_submits: registry.counter(
                "rsm_foreign_submits_total",
                "Submit messages dropped for coming from another process, not this replica's own service",
                labels,
            ),
            late_messages: registry.counter(
                "rsm_late_messages_total",
                "messages for already-applied slots, dropped",
                labels,
            ),
        }
    }
}

/// One replica of the multi-decree log. See the module docs for the
/// protocol; construct with [`Replica::new`] and the builder methods,
/// then drive it under `simnet` or hand it to `netstack::spawn`.
#[derive(Debug)]
pub struct Replica {
    config: Config,
    me: ProcessId,
    opts: RsmOptions,
    width: u8,
    /// Commands injected at `on_start` (deterministic workloads for
    /// simulator runs and fuzzing; empty for networked services).
    preload: Vec<Command>,
    /// Accepted commands not yet packed into an announcement.
    pending: VecDeque<Command>,
    /// My lowest led slot not yet announced (always ≡ me mod n).
    announce_floor: u64,
    /// The next slot to apply; everything below is in the log.
    applied: u64,
    /// Open consensus instances, keyed by slot.
    instances: BTreeMap<u64, MultiValued>,
    /// Announced batches awaiting application, keyed by slot.
    batches: BTreeMap<u64, Vec<Command>>,
    /// Decided-but-not-yet-applied slot winners.
    decided: BTreeMap<u64, u64>,
    /// Messages for slots beyond the window, replayed when it slides.
    deferred: BTreeMap<u64, Vec<(ProcessId, RsmMsg)>>,
    deferred_len: u64,
    view: LogView,
    metrics: Option<RsmMetrics>,
    /// Wall-clock instance-open times for live commit-latency samples.
    /// Never part of snapshots and never consulted for protocol
    /// decisions, so replayed runs stay byte-identical.
    opened_at: HashMap<u64, Instant>,
}

impl Replica {
    /// Creates a replica for process `me` of the Figure 2 system in
    /// `config`, with a fresh (unshared) log view.
    #[must_use]
    pub fn new(config: Config, me: ProcessId, opts: RsmOptions) -> Self {
        assert!(opts.window >= 1, "window must be at least 1");
        assert!(opts.max_batch >= 1, "max_batch must be at least 1");
        assert!(me.index() < config.n(), "replica id within the system");
        Replica {
            config,
            me,
            opts,
            width: word_width(config.n()),
            preload: Vec::new(),
            pending: VecDeque::new(),
            announce_floor: me.index() as u64,
            applied: 0,
            instances: BTreeMap::new(),
            batches: BTreeMap::new(),
            decided: BTreeMap::new(),
            deferred: BTreeMap::new(),
            deferred_len: 0,
            view: LogView::new(),
            metrics: None,
            opened_at: HashMap::new(),
        }
    }

    /// Shares `view` as this replica's applied-state sink (services hold
    /// the other clone and block on it for completions).
    #[must_use]
    pub fn with_view(mut self, view: LogView) -> Self {
        self.view = view;
        self
    }

    /// Registers this replica's telemetry in `registry`.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(RsmMetrics::new(registry, self.me));
        self
    }

    /// Seeds `commands` into the pending queue at `on_start` — the
    /// deterministic workload hook for simulator runs and fuzzing, where
    /// no client service submits [`RsmMsg::Submit`] deliveries.
    #[must_use]
    pub fn with_preload(mut self, commands: Vec<Command>) -> Self {
        self.preload = commands;
        self
    }

    /// A handle onto this replica's applied state.
    #[must_use]
    pub fn view(&self) -> LogView {
        self.view.clone()
    }

    /// The next slot to apply (the committed, applied prefix length).
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Currently open consensus instances (the live pipeline depth).
    #[must_use]
    pub fn open_instances(&self) -> usize {
        self.instances.len()
    }

    fn n(&self) -> usize {
        self.config.n()
    }

    /// Whether `slot` may have an open instance right now.
    fn in_window(&self, slot: u64) -> bool {
        slot < self.applied + self.opts.window
    }

    /// Runs `f` on `slot`'s instance inside a re-tagging context: the
    /// sends the inner Figure 2 instance performs leave re-wrapped as
    /// [`RsmMsg::Decree`]s for `slot`.
    fn with_slot(
        &mut self,
        slot: u64,
        ctx: &mut Ctx<'_, RsmMsg>,
        f: impl FnOnce(&mut MultiValued, &mut Ctx<'_, MultiMsg>),
    ) {
        let mut inner_out: Vec<(ProcessId, MultiMsg)> = Vec::new();
        {
            let Some(inst) = self.instances.get_mut(&slot) else {
                return;
            };
            let mut inner_ctx = Ctx::new(ctx.me(), ctx.n(), ctx.step(), &mut inner_out, ctx.rng());
            f(inst, &mut inner_ctx);
        }
        for (to, msg) in inner_out {
            ctx.send(to, RsmMsg::Decree { slot, msg });
        }
    }

    /// Opens `slot`'s consensus instance (idempotent; a no-op outside the
    /// window — the slot's announcement re-arrives through the deferred
    /// buffer once the window slides, and opens it then). Every correct
    /// replica inputs the slot leader's id, so unanimity validity pins
    /// the decision to the leader.
    fn open_slot(&mut self, slot: u64, ctx: &mut Ctx<'_, RsmMsg>) {
        if self.instances.contains_key(&slot) || slot < self.applied || !self.in_window(slot) {
            return;
        }
        let input = leader(slot, self.n()).index() as u64;
        let inst = MultiValued::with_termination(
            self.config,
            self.width,
            input,
            Termination::WildcardExit,
        );
        self.instances.insert(slot, inst);
        if ctx.live() {
            if let Some(m) = &self.metrics {
                if m.commit_latency_us.enabled() {
                    self.opened_at.insert(slot, Instant::now());
                }
            }
        }
        self.with_slot(slot, ctx, |inst, c| inst.on_start(c));
        self.note_decision(slot, ctx);
    }

    /// Announces my slot `announce_floor`: drains up to `max_batch`
    /// pending commands into a batch (possibly empty, for gap-fill),
    /// broadcasts it, and opens the instance if the window allows. An
    /// announcement *beyond* the window is legal (and necessary: a
    /// leader whose next led slot lies past the window is exactly what
    /// prompts the leaders of the lower slots to gap-fill them); its
    /// instance opens when its self-broadcast drains from the deferred
    /// buffer.
    fn announce_next(&mut self, ctx: &mut Ctx<'_, RsmMsg>) {
        let slot = self.announce_floor;
        debug_assert_eq!(leader(slot, self.n()), self.me);
        self.announce_floor += self.n() as u64;
        let take = self.pending.len().min(self.opts.max_batch);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        self.batches.insert(slot, batch.clone());
        ctx.broadcast(RsmMsg::Announce {
            slot,
            commands: batch,
        });
        self.open_slot(slot, ctx);
    }

    /// How far past the applied prefix this replica may announce. The
    /// overhang must cover a full leader stride (`n` slots) on top of the
    /// window: a leader's consecutive led slots are `n` apart, so any
    /// tighter bound can leave its *next* led slot permanently
    /// unannounceable once every other leader has gone idle — the
    /// multi-slot fuzzer found exactly that tail stall at `window = 1`,
    /// `n = 7` (the final short batch never shipped). `window + n` keeps
    /// the next stride reachable while still bounding how many slots a
    /// hostile peer can make a correct replica announce.
    fn announce_horizon(&self) -> u64 {
        self.applied + self.opts.window + self.n() as u64
    }

    /// Gap-fill: announces every led slot of mine below `slot` that is
    /// still unannounced, so the apply loop can never stall behind me.
    /// Capped at the announce horizon — the same overhang bound
    /// spontaneous announcements obey — so a hostile `slot` cannot make
    /// a correct replica announce unboundedly.
    fn announce_up_to(&mut self, slot: u64, ctx: &mut Ctx<'_, RsmMsg>) {
        let target = slot.min(self.announce_horizon());
        while self.announce_floor < target {
            self.announce_next(ctx);
        }
    }

    /// Records `slot`'s decision once its instance completes.
    fn note_decision(&mut self, slot: u64, ctx: &mut Ctx<'_, RsmMsg>) {
        let Some(word) = self
            .instances
            .get(&slot)
            .and_then(MultiValued::decided_word)
        else {
            return;
        };
        if self.decided.contains_key(&slot) {
            return;
        }
        self.decided.insert(slot, word);
        if ctx.live() {
            if let (Some(m), Some(t0)) = (&self.metrics, self.opened_at.remove(&slot)) {
                m.commit_latency_us.record_us(t0.elapsed());
            }
        }
    }

    /// Applies every decided slot at the head of the log, slides the
    /// window, replays newly in-window deferred messages (via `work`),
    /// and keeps the pipeline fed from the pending queue.
    fn progress(&mut self, ctx: &mut Ctx<'_, RsmMsg>, work: &mut VecDeque<(ProcessId, RsmMsg)>) {
        loop {
            let slot = self.applied;
            let Some(&word) = self.decided.get(&slot) else {
                break;
            };
            let lead = leader(slot, self.n());
            let entry = if word == lead.index() as u64 {
                match self.batches.get(&slot) {
                    Some(batch) => LogEntry {
                        slot,
                        winner: word,
                        commands: batch.clone(),
                    },
                    // Decided before the leader's announcement reached us:
                    // the batch is on its way (reliable channel), wait.
                    None => break,
                }
            } else {
                if let Some(m) = &self.metrics {
                    m.noop_slots.inc();
                }
                LogEntry {
                    slot,
                    winner: word,
                    commands: Vec::new(),
                }
            };
            if let Some(m) = &self.metrics {
                m.slots_committed.inc();
                m.batch_commands.record(entry.commands.len() as u64);
            }
            let (applied_delta, deduped_delta) = self.view.update(|a| {
                let before = (a.applied_commands, a.deduped_commands);
                a.apply(entry);
                (a.applied_commands - before.0, a.deduped_commands - before.1)
            });
            if let Some(m) = &self.metrics {
                m.commands_applied.add(applied_delta);
                m.commands_deduped.add(deduped_delta);
            }
            self.decided.remove(&slot);
            self.batches.remove(&slot);
            self.instances.remove(&slot);
            self.opened_at.remove(&slot);
            self.applied += 1;

            // The window slid: park-released messages re-enter the
            // worklist in slot order, ahead of nothing they depend on
            // (their slots are now processable immediately).
            let horizon = self.applied + self.opts.window;
            while let Some((&s, _)) = self.deferred.iter().next() {
                if s >= horizon {
                    break;
                }
                let msgs = self.deferred.remove(&s).unwrap_or_default();
                self.deferred_len -= msgs.len() as u64;
                work.extend(msgs);
            }
        }
        // Parked messages are *standing* traffic: receipt-time gap-fill is
        // capped by the then-current horizon, so a high-slot announcement
        // that arrived early (LIFO schedules do this) would otherwise
        // never be gap-filled toward again and the slots below it stay
        // empty forever — the multi-slot fuzzer caught exactly that stall.
        // Re-aiming at the lowest deferred slot on every window slide
        // keeps the chain reaction going until the slot opens.
        if let Some((&lowest, _)) = self.deferred.iter().next() {
            self.announce_up_to(lowest, ctx);
        }
        // Feed the pipeline: announce as many of my slots as pending
        // commands allow, up to the announce horizon. The overhang keeps
        // a loaded-but-unlucky leader (whose led slots all lie past the
        // window) from deadlocking the system: its out-of-window
        // announcement is the traffic that makes the lower slots' leaders
        // fill them.
        while !self.pending.is_empty() && self.announce_floor < self.announce_horizon() {
            self.announce_next(ctx);
        }
    }

    fn refresh_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.pipeline_open.set(self.instances.len() as u64);
            m.pending_queue.set(self.pending.len() as u64);
            m.deferred_msgs.set(self.deferred_len);
        }
    }

    fn defer(&mut self, slot: u64, from: ProcessId, msg: RsmMsg) {
        self.deferred.entry(slot).or_default().push((from, msg));
        self.deferred_len += 1;
    }

    fn handle(
        &mut self,
        from: ProcessId,
        msg: RsmMsg,
        ctx: &mut Ctx<'_, RsmMsg>,
        work: &mut VecDeque<(ProcessId, RsmMsg)>,
    ) {
        match msg {
            RsmMsg::Submit { commands } => {
                // Only this replica's own service may feed it commands:
                // they arrive as its node's journaled local input, the
                // one way to be delivered from `me` (the node refuses a
                // connection claiming its id). A Submit from any other
                // process is a protocol violation.
                if from != self.me {
                    if let Some(m) = &self.metrics {
                        m.foreign_submits.inc();
                    }
                    return;
                }
                let view = &self.view;
                let fresh = view.with(|a| {
                    commands
                        .into_iter()
                        .filter(|c| !a.is_complete(c.client, c.request))
                        .collect::<Vec<_>>()
                });
                self.pending.extend(fresh);
            }
            RsmMsg::Announce { slot, commands } => {
                if slot < self.applied {
                    if let Some(m) = &self.metrics {
                        m.late_messages.inc();
                    }
                    return;
                }
                if from != leader(slot, self.n()) {
                    return; // only the leader speaks for its slot
                }
                // Gap-fill *before* the window check: traffic for a slot
                // past the window is precisely the signal that the lower
                // slots (some of them mine) need filling so the window
                // can slide far enough to open it.
                self.announce_up_to(slot, ctx);
                if !self.in_window(slot) {
                    self.defer(slot, from, RsmMsg::Announce { slot, commands });
                    return;
                }
                self.batches.entry(slot).or_insert(commands);
                self.open_slot(slot, ctx);
            }
            RsmMsg::Decree { slot, msg } => {
                if slot < self.applied {
                    if let Some(m) = &self.metrics {
                        m.late_messages.inc();
                    }
                    return;
                }
                self.announce_up_to(slot, ctx);
                if !self.in_window(slot) {
                    self.defer(slot, from, RsmMsg::Decree { slot, msg });
                    return;
                }
                self.open_slot(slot, ctx);
                self.with_slot(slot, ctx, |inst, c| {
                    inst.on_receive(Envelope::new(from, msg), c);
                });
                self.note_decision(slot, ctx);
            }
        }
        self.progress(ctx, work);
    }

    /// Canonical encoding of the applied log — the bytes behind the
    /// state-transfer hooks. Entries encode in slot order, so identical
    /// applied prefixes produce identical bytes on every replica.
    fn transfer_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view.with(|a| a.log.clone()).encode(&mut out);
        out
    }
}

impl Process for Replica {
    type Msg = RsmMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RsmMsg>) {
        let preload = std::mem::take(&mut self.preload);
        if preload.is_empty() {
            return; // quiescent until the service or a peer speaks
        }
        self.pending.extend(preload);
        let mut work = VecDeque::new();
        self.progress(ctx, &mut work);
        debug_assert!(work.is_empty(), "nothing can be deferred before slot 0");
        self.refresh_gauges();
    }

    fn on_receive(&mut self, env: Envelope<RsmMsg>, ctx: &mut Ctx<'_, RsmMsg>) {
        let mut work = VecDeque::new();
        work.push_back((env.from, env.msg));
        while let Some((from, msg)) = work.pop_front() {
            self.handle(from, msg, ctx, &mut work);
        }
        self.refresh_gauges();
    }

    /// The one-shot decision facade does not apply to a long-lived log;
    /// always `None`. Read progress through [`Replica::view`].
    fn decision(&self) -> Option<Value> {
        None
    }

    /// The applied-prefix length — the natural progress counter for
    /// status displays built around phase numbers.
    fn phase(&self) -> u64 {
        self.applied
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut instances: Vec<(u64, Vec<u8>)> = Vec::with_capacity(self.instances.len());
        for (&slot, inst) in &self.instances {
            instances.push((slot, inst.snapshot()?));
        }
        let mut out = Vec::new();
        self.applied.encode(&mut out);
        self.announce_floor.encode(&mut out);
        self.view.with(|a| a.log.clone()).encode(&mut out);
        let pending: Vec<Command> = self.pending.iter().cloned().collect();
        pending.encode(&mut out);
        let decided: Vec<(u64, u64)> = self.decided.iter().map(|(&s, &w)| (s, w)).collect();
        decided.encode(&mut out);
        let batches: Vec<(u64, Vec<Command>)> =
            self.batches.iter().map(|(&s, b)| (s, b.clone())).collect();
        batches.encode(&mut out);
        instances.encode(&mut out);
        let deferred: Vec<(u64, Vec<(ProcessId, RsmMsg)>)> = self
            .deferred
            .iter()
            .map(|(&s, msgs)| (s, msgs.clone()))
            .collect();
        deferred.encode(&mut out);
        Some(out)
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(applied) = u64::decode(&mut r) else {
            return false;
        };
        let Ok(announce_floor) = u64::decode(&mut r) else {
            return false;
        };
        let Ok(log) = Vec::<LogEntry>::decode(&mut r) else {
            return false;
        };
        let Ok(pending) = Vec::<Command>::decode(&mut r) else {
            return false;
        };
        let Ok(decided) = Vec::<(u64, u64)>::decode(&mut r) else {
            return false;
        };
        let Ok(batches) = Vec::<(u64, Vec<Command>)>::decode(&mut r) else {
            return false;
        };
        let Ok(instances) = Vec::<(u64, Vec<u8>)>::decode(&mut r) else {
            return false;
        };
        let Ok(deferred) = Vec::<(u64, Vec<(ProcessId, RsmMsg)>)>::decode(&mut r) else {
            return false;
        };
        if r.finish().is_err() || log.len() as u64 != applied {
            return false;
        }
        if announce_floor % self.n() as u64 != self.me.index() as u64 {
            return false;
        }
        // Rebuild the instances first — a failure must leave self intact.
        let mut restored = BTreeMap::new();
        for (slot, state) in instances {
            let input = leader(slot, self.n()).index() as u64;
            let mut inst = MultiValued::with_termination(
                self.config,
                self.width,
                input,
                Termination::WildcardExit,
            );
            if !inst.restore(&state) {
                return false;
            }
            restored.insert(slot, inst);
        }
        // Re-derive the applied state by folding the log; apply()'s
        // in-order assertion doubles as a structural check.
        if log.iter().enumerate().any(|(i, e)| e.slot != i as u64) {
            return false;
        }
        self.view.update(|a| {
            *a = crate::state::AppliedState::default();
            for entry in log {
                a.apply(entry);
            }
        });
        self.applied = applied;
        self.announce_floor = announce_floor;
        self.pending = pending.into();
        self.decided = decided.into_iter().collect();
        self.batches = batches.into_iter().collect();
        self.instances = restored;
        self.deferred_len = deferred.iter().map(|(_, m)| m.len() as u64).sum();
        self.deferred = deferred.into_iter().collect();
        self.preload.clear();
        self.opened_at.clear();
        self.refresh_gauges();
        true
    }

    /// The replicated portion of a replica's state is exactly the applied
    /// log: every correct replica holding the same prefix encodes the
    /// same bytes, unlike [`Process::snapshot`], whose bytes carry
    /// process-local state (announce floor, open instances, pending
    /// queue) that legitimately differs across replicas.
    fn transfer_digest(&self) -> u64 {
        netstack::fnv1a64(&self.transfer_bytes())
    }

    fn transfer_state(&self) -> Option<Vec<u8>> {
        Some(self.transfer_bytes())
    }

    /// Installs a quorum-confirmed applied log onto a fresh (amnesiac)
    /// replica. Everything process-local restarts from scratch: open
    /// instances, batches and queued commands are rebuilt by the live
    /// protocol, and the announce floor resumes at this replica's first
    /// owned slot at or past the adopted prefix — so the rejoiner can
    /// never re-announce a slot the quorum already filled.
    fn adopt_transfer(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(log) = Vec::<LogEntry>::decode(&mut r) else {
            return false;
        };
        if r.finish().is_err() {
            return false;
        }
        if log.iter().enumerate().any(|(i, e)| e.slot != i as u64) {
            return false;
        }
        let applied = log.len() as u64;
        self.view.update(|a| {
            *a = crate::state::AppliedState::default();
            for entry in log {
                a.apply(entry);
            }
        });
        self.applied = applied;
        let n = self.n() as u64;
        let me = self.me.index() as u64;
        self.announce_floor = applied + ((me + n - applied % n) % n);
        self.pending.clear();
        self.decided.clear();
        self.batches.clear();
        self.instances.clear();
        self.deferred.clear();
        self.deferred_len = 0;
        self.preload.clear();
        self.opened_at.clear();
        self.refresh_gauges();
        true
    }
}
