//! In-memory per-phase aggregation over one or many runs.
//!
//! [`PhaseAggregator`] is the telemetry workhorse: attach it to a `Sim` (or
//! to every trial of a `run_trials_observed` sweep) and it folds the event
//! stream into per-phase counters plus run-level samples — the
//! phases-to-decision distribution §4.1/§4.2 bound, and the decision lag
//! between the first and last correct decision of each run. Aggregation is
//! pure folding over the deterministic event order, so identical seeds
//! produce identical aggregator state.

use std::collections::{BTreeMap, HashMap};

use simnet::{Event, ProcessId, ProtocolEvent, RunReport, Subscriber, Summary};

/// Counters for a single protocol phase, accumulated across runs.
///
/// Message and step counts are attributed to the phase the acting process
/// was in when the event fired (tracked from its `phase_entered` stream;
/// processes start in phase 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PhaseStat {
    /// `phase_entered` events for this phase.
    pub entries: u64,
    /// Messages sent by processes while in this phase.
    pub messages_sent: u64,
    /// Deliveries (atomic receive steps) taken by processes in this phase.
    pub deliveries: u64,
    /// Witness observations (`witness_reached`) in this phase.
    pub witnesses: u64,
    /// Broadcast acceptances (`echo_accepted`) in this phase.
    pub echo_accepts: u64,
    /// Estimate changes (`value_flipped`) in this phase.
    pub value_flips: u64,
    /// Local coin draws (`coin_flipped`) in this phase.
    pub coin_flips: u64,
    /// Decisions made in this phase.
    pub decisions: u64,
}

/// One phase's row in a [`PhaseFold`]: its counters, plus the first
/// `(step, pid)` at which any process entered it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseRow {
    pub(crate) first_entry: Option<(u64, ProcessId)>,
    pub(crate) stat: PhaseStat,
}

/// The per-phase fold over an event stream: the one place an [`Event`] is
/// attributed to a phase. [`PhaseAggregator`] folds live runs through it;
/// `btreport` folds parsed JSONL traces through it.
///
/// Both maps are sparse — a row exists only for a phase some event named,
/// and a process's phase is stored only once it enters one — so memory
/// grows with the number of events folded, not with the phase or process
/// numbers they carry.
#[derive(Clone, Debug, Default)]
pub(crate) struct PhaseFold {
    /// Rows by phase number.
    pub(crate) rows: BTreeMap<u64, PhaseRow>,
    /// Each process's current phase; absent means phase 0, where every
    /// process starts.
    current: HashMap<ProcessId, u64>,
    /// `recover` events folded.
    pub(crate) recoveries: u64,
    /// Deliveries those recoveries replayed.
    pub(crate) replayed_deliveries: u64,
}

impl PhaseFold {
    /// A new run begins: every process is back in phase 0. The rows and
    /// recovery counts keep accumulating.
    pub(crate) fn start_run(&mut self) {
        self.current.clear();
    }

    fn row(&mut self, phase: u64) -> &mut PhaseRow {
        self.rows.entry(phase).or_default()
    }

    fn stat(&mut self, phase: u64) -> &mut PhaseStat {
        &mut self.row(phase).stat
    }

    fn phase_of(&self, pid: ProcessId) -> u64 {
        self.current.get(&pid).copied().unwrap_or(0)
    }

    /// Folds one event into the rows of the phase it belongs to.
    pub(crate) fn fold(&mut self, event: &Event) {
        match *event {
            Event::Send { from, .. } => self.stat(self.phase_of(from)).messages_sent += 1,
            Event::Deliver { to, .. } => self.stat(self.phase_of(to)).deliveries += 1,
            Event::Protocol { step, pid, event } => match event {
                ProtocolEvent::PhaseEntered { phase } => {
                    self.current.insert(pid, phase);
                    let row = self.row(phase);
                    row.stat.entries += 1;
                    row.first_entry.get_or_insert((step, pid));
                }
                ProtocolEvent::WitnessReached { phase, .. } => self.stat(phase).witnesses += 1,
                ProtocolEvent::EchoAccepted { phase, .. } => self.stat(phase).echo_accepts += 1,
                ProtocolEvent::ValueFlipped { phase, .. } => self.stat(phase).value_flips += 1,
                ProtocolEvent::CoinFlipped { phase, .. } => self.stat(phase).coin_flips += 1,
                ProtocolEvent::Decided { phase, .. } => self.stat(phase).decisions += 1,
                ProtocolEvent::Halted { .. } => {}
            },
            Event::Recover { replayed, .. } => {
                self.recoveries += 1;
                self.replayed_deliveries += replayed;
            }
            Event::Start { .. } | Event::Decide { .. } | Event::Halt { .. } => {}
        }
    }
}

/// A [`Subscriber`] that folds run events into per-phase telemetry.
///
/// One aggregator may observe many runs back to back (e.g. through
/// `run_trials_observed`); per-run tracking state resets on each
/// `on_run_start`, while the phase counters and run-level samples
/// accumulate.
///
/// # Examples
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use obs::PhaseAggregator;
///
/// let agg = Arc::new(Mutex::new(PhaseAggregator::new()));
/// // ... builder.subscriber(agg.clone()); run ...
/// let agg = agg.lock().unwrap();
/// assert_eq!(agg.runs(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhaseAggregator {
    fold: PhaseFold,
    runs: u64,
    decided_runs: u64,
    phases_to_decision: Vec<f64>,
    decision_lags: Vec<f64>,
}

impl PhaseAggregator {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        PhaseAggregator::default()
    }

    /// Per-phase counters, indexed by phase number; a phase no event named
    /// reads as zeros.
    #[must_use]
    pub fn phases(&self) -> Vec<PhaseStat> {
        let mut dense = Vec::new();
        for (&phase, row) in &self.fold.rows {
            dense.resize(phase as usize, PhaseStat::default());
            dense.push(row.stat);
        }
        dense
    }

    /// Runs observed so far.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs in which every correct process decided.
    #[must_use]
    pub fn decided_runs(&self) -> u64 {
        self.decided_runs
    }

    /// Crash-recovery events observed (netstack runs only; the simulator
    /// never emits them).
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.fold.recoveries
    }

    /// Total deliveries replayed from write-ahead logs across all
    /// observed recoveries.
    #[must_use]
    pub fn replayed_deliveries(&self) -> u64 {
        self.fold.replayed_deliveries
    }

    /// Raw per-run phases-to-decision samples (decided runs only).
    #[must_use]
    pub fn phases_to_decision_samples(&self) -> &[f64] {
        &self.phases_to_decision
    }

    /// The phases-to-decision distribution (p50/p95/max/mean and friends)
    /// over all decided runs — the quantity the paper's §4 bounds speak
    /// about.
    #[must_use]
    pub fn phases_histogram(&self) -> Summary {
        Summary::of(self.phases_to_decision.clone())
    }

    /// The decision-lag distribution: per decided run, the number of steps
    /// between the first and the last correct process deciding. Small lag
    /// means decisions cluster; large lag means stragglers.
    #[must_use]
    pub fn decision_lag(&self) -> Summary {
        Summary::of(self.decision_lags.clone())
    }

    /// Renders the per-phase table plus the run-level distributions.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9}",
            "phase",
            "entries",
            "sent",
            "delivered",
            "witnesses",
            "accepts",
            "flips",
            "coins",
            "decisions"
        );
        for (phase, row) in &self.fold.rows {
            let s = row.stat;
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9}",
                phase,
                s.entries,
                s.messages_sent,
                s.deliveries,
                s.witnesses,
                s.echo_accepts,
                s.value_flips,
                s.coin_flips,
                s.decisions
            );
        }
        let _ = writeln!(out, "runs: {} ({} decided)", self.runs, self.decided_runs);
        if self.fold.recoveries > 0 {
            let _ = writeln!(
                out,
                "recoveries: {} ({} deliveries replayed)",
                self.fold.recoveries, self.fold.replayed_deliveries
            );
        }
        let _ = writeln!(out, "phases to decision: {}", self.phases_histogram());
        let _ = writeln!(out, "decision lag (steps): {}", self.decision_lag());
        out
    }
}

impl Subscriber for PhaseAggregator {
    fn on_run_start(&mut self, _n: usize, _seed: u64) {
        self.fold.start_run();
    }

    fn on_event(&mut self, event: &Event) {
        self.fold.fold(event);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        self.runs += 1;
        if report.all_correct_decided() {
            self.decided_runs += 1;
            if let Some(p) = report.phases_to_decision() {
                self.phases_to_decision.push(p as f64);
            }
            let steps: Vec<u64> = report
                .correct()
                .filter_map(|i| report.decision_steps[i])
                .collect();
            if let (Some(first), Some(last)) = (steps.iter().min(), steps.iter().max()) {
                self.decision_lags.push((last - first) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn sends_and_deliveries_follow_the_actor_phase() {
        let mut agg = PhaseAggregator::new();
        agg.on_run_start(2, 0);
        // p0 still in phase 0: attributed there.
        agg.on_event(&Event::Send {
            step: 0,
            from: p(0),
            to: p(1),
        });
        // p0 advances to phase 2; later activity lands there.
        agg.on_event(&Event::Protocol {
            step: 1,
            pid: p(0),
            event: ProtocolEvent::PhaseEntered { phase: 2 },
        });
        agg.on_event(&Event::Send {
            step: 2,
            from: p(0),
            to: p(1),
        });
        agg.on_event(&Event::Deliver {
            step: 3,
            to: p(0),
            from: p(1),
            index: 0,
        });
        assert_eq!(agg.phases()[0].messages_sent, 1);
        assert_eq!(agg.phases()[2].messages_sent, 1);
        assert_eq!(agg.phases()[2].deliveries, 1);
        assert_eq!(agg.phases()[2].entries, 1);
    }

    #[test]
    fn protocol_events_tally_into_their_phase() {
        let mut agg = PhaseAggregator::new();
        agg.on_run_start(1, 0);
        for event in [
            ProtocolEvent::WitnessReached {
                phase: 1,
                value: simnet::Value::One,
                cardinality: 3,
            },
            ProtocolEvent::EchoAccepted {
                phase: 1,
                subject: p(0),
                value: simnet::Value::One,
                echoes: 4,
            },
            ProtocolEvent::ValueFlipped {
                phase: 1,
                from: simnet::Value::Zero,
                to: simnet::Value::One,
            },
            ProtocolEvent::CoinFlipped {
                phase: 1,
                value: simnet::Value::Zero,
            },
            ProtocolEvent::Decided {
                phase: 1,
                value: simnet::Value::One,
            },
        ] {
            agg.on_event(&Event::Protocol {
                step: 1,
                pid: p(0),
                event,
            });
        }
        let s = agg.phases()[1];
        assert_eq!(
            (
                s.witnesses,
                s.echo_accepts,
                s.value_flips,
                s.coin_flips,
                s.decisions
            ),
            (1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn phase_tracking_resets_between_runs() {
        let mut agg = PhaseAggregator::new();
        agg.on_run_start(1, 0);
        agg.on_event(&Event::Protocol {
            step: 1,
            pid: p(0),
            event: ProtocolEvent::PhaseEntered { phase: 5 },
        });
        agg.on_run_start(1, 1);
        agg.on_event(&Event::Send {
            step: 0,
            from: p(0),
            to: p(0),
        });
        // The second run's send must land in phase 0, not phase 5.
        assert_eq!(agg.phases()[0].messages_sent, 1);
        assert_eq!(agg.phases()[5].messages_sent, 0);
    }

    #[test]
    fn recover_events_accumulate_run_level_counters() {
        let mut agg = PhaseAggregator::new();
        agg.on_run_start(2, 0);
        agg.on_event(&Event::Recover {
            step: 4,
            pid: p(1),
            replayed: 3,
        });
        agg.on_event(&Event::Recover {
            step: 9,
            pid: p(0),
            replayed: 5,
        });
        assert_eq!(agg.recoveries(), 2);
        assert_eq!(agg.replayed_deliveries(), 8);
        assert!(agg
            .render()
            .contains("recoveries: 2 (8 deliveries replayed)"));
    }

    #[test]
    fn render_mentions_each_column_and_summary() {
        let agg = PhaseAggregator::new();
        let text = agg.render();
        for needle in [
            "phase",
            "sent",
            "decisions",
            "phases to decision",
            "decision lag",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
