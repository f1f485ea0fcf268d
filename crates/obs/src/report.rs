//! Offline trace analysis: turn a parsed JSONL trace back into a per-phase
//! timeline and a cross-run summary table. This is the engine behind the
//! `btreport` binary.

use simnet::Summary;

use crate::aggregate::PhaseFold;
use crate::jsonl::TraceLine;

/// One run of a trace: its header and its events folded per phase.
#[derive(Debug, Default)]
struct RunState {
    header: Option<(usize, u64)>,
    fold: PhaseFold,
}

impl RunState {
    fn render(&self, out: &mut String, index: usize, footer: Option<&TraceLine>) {
        use std::fmt::Write as _;
        match self.header {
            Some((n, seed)) => {
                let _ = writeln!(out, "run {index}: n={n} seed={seed}");
            }
            None => {
                let _ = writeln!(out, "run {index}: (no run_start header)");
            }
        }
        let _ = writeln!(
            out,
            "  {:>5} {:>12} {:>8} {:>6} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9}",
            "phase",
            "first entry",
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
            let first = row
                .first_entry
                .map_or_else(|| "-".to_string(), |(step, pid)| format!("{pid}@{step}"));
            let s = row.stat;
            let _ = writeln!(
                out,
                "  {:>5} {:>12} {:>8} {:>6} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9}",
                phase,
                first,
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
        if self.fold.recoveries > 0 {
            let _ = writeln!(
                out,
                "  recoveries: {} ({} deliveries replayed from WAL)",
                self.fold.recoveries, self.fold.replayed_deliveries
            );
        }
        if let Some(TraceLine::RunEnd {
            status,
            steps,
            decided,
            max_phase,
            recovered,
            equivocations,
        }) = footer
        {
            let mut extras = String::new();
            if *recovered > 0 {
                let _ = write!(extras, "; recovered: {recovered}");
            }
            if *equivocations > 0 {
                let _ = write!(extras, "; equivocations: {equivocations}");
            }
            let _ = writeln!(
                out,
                "  {status} after {steps} steps; decided: {decided}; max phase: {max_phase}{extras}"
            );
        }
    }

    /// Phases-to-decision for this run: the largest phase in which any
    /// `decided` protocol event fired (`None` if nothing decided).
    fn phases_to_decision(&self) -> Option<u64> {
        let mut rows = self.fold.rows.iter().rev();
        rows.find(|(_, row)| row.stat.decisions > 0)
            .map(|(&phase, _)| phase)
    }
}

/// Renders a full report — per-run timelines plus a cross-run summary — from
/// a parsed trace.
#[must_use]
pub fn render_report(lines: &[TraceLine]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut runs: Vec<(RunState, Option<TraceLine>)> = Vec::new();
    let mut current: Option<RunState> = None;

    for line in lines {
        match line {
            TraceLine::RunStart { n, seed } => {
                if let Some(open) = current.take() {
                    runs.push((open, None));
                }
                current = Some(RunState {
                    header: Some((*n, *seed)),
                    ..RunState::default()
                });
            }
            TraceLine::Event(event) => {
                current
                    .get_or_insert_with(RunState::default)
                    .fold
                    .fold(event);
            }
            TraceLine::RunEnd { .. } => {
                let open = current.take().unwrap_or_default();
                runs.push((open, Some(line.clone())));
            }
        }
    }
    if let Some(open) = current.take() {
        runs.push((open, None));
    }

    let mut decided_phases = Vec::new();
    for (index, (state, footer)) in runs.iter().enumerate() {
        state.render(&mut out, index, footer.as_ref());
        if let Some(p) = state.phases_to_decision() {
            decided_phases.push(p as f64);
        }
    }
    let _ = writeln!(out, "runs: {}", runs.len());
    if !decided_phases.is_empty() {
        let _ = writeln!(out, "phases to decision: {}", Summary::of(decided_phases));
    }
    out
}

#[cfg(test)]
mod tests {
    use simnet::{Event, ProcessId, ProtocolEvent, Value};

    use super::*;

    #[test]
    fn report_shows_timeline_and_summary() {
        let p = ProcessId::new;
        let lines = vec![
            TraceLine::RunStart { n: 2, seed: 7 },
            TraceLine::Event(Event::Start { pid: p(0) }),
            TraceLine::Event(Event::Send {
                step: 0,
                from: p(0),
                to: p(1),
            }),
            TraceLine::Event(Event::Protocol {
                step: 1,
                pid: p(1),
                event: ProtocolEvent::PhaseEntered { phase: 1 },
            }),
            TraceLine::Event(Event::Protocol {
                step: 2,
                pid: p(1),
                event: ProtocolEvent::Decided {
                    phase: 1,
                    value: Value::One,
                },
            }),
            TraceLine::Event(Event::Recover {
                step: 3,
                pid: p(0),
                replayed: 2,
            }),
            TraceLine::RunEnd {
                status: "stopped".into(),
                steps: 2,
                decided: true,
                max_phase: 1,
                recovered: 2,
                equivocations: 1,
            },
        ];
        let text = render_report(&lines);
        for needle in [
            "run 0: n=2 seed=7",
            "p1@1",
            "stopped after 2 steps",
            "recoveries: 1 (2 deliveries replayed from WAL)",
            "recovered: 2",
            "equivocations: 1",
            "runs: 1",
            "phases to decision",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// A two-line trace naming phase 2^40 once asked the fold for a row per
    /// phase up to it (~96 TB) and aborted `btreport`.
    #[test]
    fn a_huge_phase_number_costs_one_row() {
        let text = "{\"kind\":\"run_start\",\"n\":2,\"seed\":1}\n\
                    {\"kind\":\"phase_entered\",\"step\":1,\"pid\":0,\"phase\":1099511627776}\n";
        let err = crate::parse_trace(text).unwrap_err();
        assert!(err.message.starts_with("line 2: "), "{err}");
        // Past the parser's checks, the fold still holds one row.
        let lines: Vec<TraceLine> = text
            .lines()
            .map(|l| crate::parse_line(l).unwrap())
            .collect();
        let report = render_report(&lines);
        assert!(
            report.contains("1099511627776         p0@1        1"),
            "{report}"
        );
        assert_eq!(report.lines().count(), 4, "{report}");
    }

    #[test]
    fn headerless_events_still_report() {
        let lines = vec![TraceLine::Event(Event::Start {
            pid: ProcessId::new(0),
        })];
        let text = render_report(&lines);
        assert!(text.contains("no run_start header"), "{text}");
    }
}
