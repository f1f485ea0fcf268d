//! Human-readable run narration.
//!
//! [`ConsoleReporter`] turns the event stream into one line per event —
//! the format you paste into a bug report next to the seed that produced
//! it. This is the workspace's one narration of an [`Event`]: attach the
//! reporter as a subscriber, or feed it the events of a parsed JSONL trace
//! (`consensus-explorer --trace` does the latter).

use simnet::{Event, ProtocolEvent, RunReport, RunStatus, Subscriber};

/// A [`Subscriber`] that narrates a run in human-readable lines.
#[derive(Debug, Default)]
pub struct ConsoleReporter {
    lines: Vec<String>,
}

impl ConsoleReporter {
    /// An empty reporter; read the narration back with
    /// [`ConsoleReporter::text`].
    #[must_use]
    pub fn new() -> Self {
        ConsoleReporter::default()
    }

    /// The narration so far, newline-terminated.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

fn narrate_protocol(e: &ProtocolEvent) -> String {
    match e {
        ProtocolEvent::PhaseEntered { phase } => format!("enters phase {phase}"),
        ProtocolEvent::WitnessReached {
            phase,
            value,
            cardinality,
        } => format!("sees witness for {value} (cardinality {cardinality}) in phase {phase}"),
        ProtocolEvent::EchoAccepted {
            phase,
            subject,
            value,
            echoes,
        } => format!("accepts {subject}'s {value} ({echoes} echoes) in phase {phase}"),
        ProtocolEvent::ValueFlipped { phase, from, to } => {
            format!("flips {from} → {to} in phase {phase}")
        }
        ProtocolEvent::CoinFlipped { phase, value } => {
            format!("flips coin → {value} in phase {phase}")
        }
        ProtocolEvent::Decided { phase, value } => format!("decides {value} in phase {phase}"),
        ProtocolEvent::Halted { phase } => format!("leaves the protocol in phase {phase}"),
    }
}

impl Subscriber for ConsoleReporter {
    fn on_run_start(&mut self, n: usize, seed: u64) {
        self.lines.push(format!("=== run: n={n} seed={seed} ==="));
    }

    fn on_event(&mut self, event: &Event) {
        let line = match *event {
            Event::Start { pid } => format!("[    0] {pid} starts"),
            Event::Send { step, from, to } => format!("[{step:>5}] {from} sends to {to}"),
            Event::Deliver { step, to, from, .. } => {
                format!("[{step:>5}] {to} receives from {from}")
            }
            Event::Decide { step, pid, value } => format!("[{step:>5}] {pid} decides {value}"),
            Event::Halt { step, pid } => format!("[{step:>5}] {pid} halts"),
            Event::Recover {
                step,
                pid,
                replayed,
            } => format!("[{step:>5}] {pid} recovers ({replayed} deliveries replayed)"),
            Event::Protocol { step, pid, event } => {
                format!("[{step:>5}] {pid} {}", narrate_protocol(&event))
            }
        };
        self.lines.push(line);
    }

    fn on_run_end(&mut self, report: &RunReport) {
        let status = match report.status {
            RunStatus::Stopped => "stopped",
            RunStatus::Quiescent => "quiescent",
            RunStatus::StepLimitReached => "step limit reached",
        };
        let decision = report
            .decided_value()
            .map_or_else(|| "none".to_string(), |v| v.to_string());
        self.lines.push(format!(
            "=== {status} after {} steps; decision: {decision}; phases to decision: {} ===",
            report.steps,
            report
                .phases_to_decision()
                .map_or_else(|| "n/a".to_string(), |p| p.to_string()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use simnet::{ProcessId, Value};

    use super::*;

    fn narrate(events: &[Event]) -> String {
        let mut c = ConsoleReporter::new();
        for e in events {
            c.on_event(e);
        }
        c.text()
    }

    #[test]
    fn narration_covers_every_event_kind() {
        let p = ProcessId::new;
        let text = narrate(&[
            Event::Start { pid: p(0) },
            Event::Send {
                step: 1,
                from: p(0),
                to: p(1),
            },
            Event::Deliver {
                step: 2,
                to: p(1),
                from: p(0),
                index: 0,
            },
            Event::Decide {
                step: 3,
                pid: p(1),
                value: Value::Zero,
            },
            Event::Halt { step: 4, pid: p(1) },
            Event::Recover {
                step: 9,
                pid: p(1),
                replayed: 4,
            },
        ]);
        assert_eq!(
            text,
            "[    0] p0 starts\n\
             [    1] p0 sends to p1\n\
             [    2] p1 receives from p0\n\
             [    3] p1 decides 0\n\
             [    4] p1 halts\n\
             [    9] p1 recovers (4 deliveries replayed)\n"
        );
    }

    #[test]
    fn narration_covers_every_protocol_event_kind() {
        let text = narrate(
            &[
                ProtocolEvent::PhaseEntered { phase: 3 },
                ProtocolEvent::WitnessReached {
                    phase: 3,
                    value: Value::One,
                    cardinality: 4,
                },
                ProtocolEvent::EchoAccepted {
                    phase: 3,
                    subject: ProcessId::new(2),
                    value: Value::One,
                    echoes: 5,
                },
                ProtocolEvent::ValueFlipped {
                    phase: 3,
                    from: Value::Zero,
                    to: Value::One,
                },
                ProtocolEvent::CoinFlipped {
                    phase: 3,
                    value: Value::Zero,
                },
                ProtocolEvent::Decided {
                    phase: 3,
                    value: Value::One,
                },
                ProtocolEvent::Halted { phase: 3 },
            ]
            .map(|event| Event::Protocol {
                step: 5,
                pid: ProcessId::new(0),
                event,
            }),
        );
        for needle in [
            "[    5] p0 enters phase 3",
            "sees witness for 1 (cardinality 4) in phase 3",
            "accepts p2's 1 (5 echoes) in phase 3",
            "flips 0 → 1 in phase 3",
            "flips coin → 0 in phase 3",
            "decides 1 in phase 3",
            "leaves the protocol in phase 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn run_boundaries_frame_the_narration() {
        let mut c = ConsoleReporter::new();
        c.on_run_start(3, 42);
        assert!(c.text().contains("n=3 seed=42"), "{}", c.text());
    }
}
