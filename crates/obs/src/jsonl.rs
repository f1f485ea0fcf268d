//! JSONL trace encoding: one JSON object per line, one line per event.
//!
//! The format is deliberately flat and stable — it is the on-disk interface
//! between an instrumented run ([`JsonlSink`]) and offline tooling
//! (`btreport`, future regression diffing). A trace file holds one or more
//! runs, each bracketed by a `run_start` and a `run_end` record:
//!
//! ```text
//! {"kind":"run_start","n":4,"seed":7}
//! {"kind":"start","pid":0}
//! {"kind":"send","step":0,"from":0,"to":1}
//! {"kind":"deliver","step":1,"to":1,"from":0,"index":0}
//! {"kind":"phase_entered","step":1,"pid":1,"phase":1}
//! {"kind":"decide","step":9,"pid":1,"value":1}
//! {"kind":"run_end","status":"stopped","steps":9,"decided":true,"max_phase":2}
//! ```
//!
//! Encoding then decoding any [`Event`] is the identity (tested), so a
//! trace replays exactly.

use simnet::{Event, ProcessId, ProtocolEvent, RunReport, RunStatus, Selection, Subscriber, Value};

use crate::json::{Json, JsonError};

/// One parsed line of a JSONL trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLine {
    /// A run began: `n` processes under `seed`.
    RunStart {
        /// Number of processes.
        n: usize,
        /// The run's seed.
        seed: u64,
    },
    /// An event within the current run.
    Event(Event),
    /// The current run finished.
    RunEnd {
        /// Why it ended (`stopped` / `quiescent` / `step_limit`).
        status: String,
        /// Total atomic steps taken.
        steps: u64,
        /// Whether every correct process decided.
        decided: bool,
        /// Highest phase any process reached.
        max_phase: u64,
        /// Deliveries replayed from a WAL during crash recovery. Written
        /// only when nonzero (simulated runs never recover), so simulator
        /// traces are byte-identical to those of earlier versions.
        recovered: u64,
        /// Equivocation attempts observed on the wire. Written only when
        /// nonzero, like `recovered`.
        equivocations: u64,
    },
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn value_json(v: Value) -> Json {
    Json::num(v.index() as u64)
}

fn pid_json(p: ProcessId) -> Json {
    Json::num(p.index() as u64)
}

/// Encodes one event as a single-line JSON object.
#[must_use]
pub fn event_to_json(event: &Event) -> Json {
    match *event {
        Event::Start { pid } => obj(vec![("kind", Json::str("start")), ("pid", pid_json(pid))]),
        Event::Send { step, from, to } => obj(vec![
            ("kind", Json::str("send")),
            ("step", Json::num(step)),
            ("from", pid_json(from)),
            ("to", pid_json(to)),
        ]),
        Event::Deliver {
            step,
            to,
            from,
            index,
        } => obj(vec![
            ("kind", Json::str("deliver")),
            ("step", Json::num(step)),
            ("to", pid_json(to)),
            ("from", pid_json(from)),
            ("index", Json::num(index as u64)),
        ]),
        Event::Decide { step, pid, value } => obj(vec![
            ("kind", Json::str("decide")),
            ("step", Json::num(step)),
            ("pid", pid_json(pid)),
            ("value", value_json(value)),
        ]),
        Event::Halt { step, pid } => obj(vec![
            ("kind", Json::str("halt")),
            ("step", Json::num(step)),
            ("pid", pid_json(pid)),
        ]),
        Event::Recover {
            step,
            pid,
            replayed,
        } => obj(vec![
            ("kind", Json::str("recover")),
            ("step", Json::num(step)),
            ("pid", pid_json(pid)),
            ("replayed", Json::num(replayed)),
        ]),
        Event::Protocol { step, pid, event } => {
            let mut pairs = vec![
                ("kind", Json::str(protocol_kind(&event))),
                ("step", Json::num(step)),
                ("pid", pid_json(pid)),
            ];
            match event {
                ProtocolEvent::PhaseEntered { phase } => {
                    pairs.push(("phase", Json::num(phase)));
                }
                ProtocolEvent::WitnessReached {
                    phase,
                    value,
                    cardinality,
                } => {
                    pairs.push(("phase", Json::num(phase)));
                    pairs.push(("value", value_json(value)));
                    pairs.push(("cardinality", Json::num(cardinality as u64)));
                }
                ProtocolEvent::EchoAccepted {
                    phase,
                    subject,
                    value,
                    echoes,
                } => {
                    pairs.push(("phase", Json::num(phase)));
                    pairs.push(("subject", pid_json(subject)));
                    pairs.push(("value", value_json(value)));
                    pairs.push(("echoes", Json::num(echoes as u64)));
                }
                ProtocolEvent::ValueFlipped { phase, from, to } => {
                    pairs.push(("phase", Json::num(phase)));
                    pairs.push(("from_value", value_json(from)));
                    pairs.push(("to_value", value_json(to)));
                }
                ProtocolEvent::CoinFlipped { phase, value } => {
                    pairs.push(("phase", Json::num(phase)));
                    pairs.push(("value", value_json(value)));
                }
                ProtocolEvent::Decided { phase, value } => {
                    pairs.push(("phase", Json::num(phase)));
                    pairs.push(("value", value_json(value)));
                }
                ProtocolEvent::Halted { phase } => {
                    pairs.push(("phase", Json::num(phase)));
                }
            }
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
    }
}

fn protocol_kind(event: &ProtocolEvent) -> &'static str {
    match event {
        ProtocolEvent::PhaseEntered { .. } => "phase_entered",
        ProtocolEvent::WitnessReached { .. } => "witness_reached",
        ProtocolEvent::EchoAccepted { .. } => "echo_accepted",
        ProtocolEvent::ValueFlipped { .. } => "value_flipped",
        ProtocolEvent::CoinFlipped { .. } => "coin_flipped",
        ProtocolEvent::Decided { .. } => "decided",
        ProtocolEvent::Halted { .. } => "halted",
    }
}

fn field_u64(j: &Json, key: &str) -> Result<u64, JsonError> {
    j.get(key).and_then(Json::as_u64).ok_or_else(|| JsonError {
        message: format!("missing or non-integer field `{key}`"),
        offset: 0,
    })
}

fn field_pid(j: &Json, key: &str) -> Result<ProcessId, JsonError> {
    Ok(ProcessId::new(field_u64(j, key)? as usize))
}

fn field_value(j: &Json, key: &str) -> Result<Value, JsonError> {
    match field_u64(j, key)? {
        0 => Ok(Value::Zero),
        1 => Ok(Value::One),
        other => Err(JsonError {
            message: format!("field `{key}` must be 0 or 1, got {other}"),
            offset: 0,
        }),
    }
}

/// Decodes one event from its JSON object form.
///
/// # Errors
///
/// Returns a [`JsonError`] when the object's `kind` is unknown or a field
/// is missing or of the wrong type.
pub fn event_from_json(j: &Json) -> Result<Event, JsonError> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError {
            message: "missing `kind`".into(),
            offset: 0,
        })?;
    let event = match kind {
        "start" => Event::Start {
            pid: field_pid(j, "pid")?,
        },
        "send" => Event::Send {
            step: field_u64(j, "step")?,
            from: field_pid(j, "from")?,
            to: field_pid(j, "to")?,
        },
        "deliver" => Event::Deliver {
            step: field_u64(j, "step")?,
            to: field_pid(j, "to")?,
            from: field_pid(j, "from")?,
            // Traces written before the buffer index was recorded lack the
            // field; default to slot 0 so they still parse (they just can't
            // drive an exact scripted replay).
            index: j.get("index").and_then(Json::as_u64).unwrap_or(0) as usize,
        },
        "decide" => Event::Decide {
            step: field_u64(j, "step")?,
            pid: field_pid(j, "pid")?,
            value: field_value(j, "value")?,
        },
        "halt" => Event::Halt {
            step: field_u64(j, "step")?,
            pid: field_pid(j, "pid")?,
        },
        "recover" => Event::Recover {
            step: field_u64(j, "step")?,
            pid: field_pid(j, "pid")?,
            replayed: field_u64(j, "replayed")?,
        },
        _ => {
            let step = field_u64(j, "step")?;
            let pid = field_pid(j, "pid")?;
            let phase = field_u64(j, "phase")?;
            let protocol = match kind {
                "phase_entered" => ProtocolEvent::PhaseEntered { phase },
                "witness_reached" => ProtocolEvent::WitnessReached {
                    phase,
                    value: field_value(j, "value")?,
                    cardinality: field_u64(j, "cardinality")? as usize,
                },
                "echo_accepted" => ProtocolEvent::EchoAccepted {
                    phase,
                    subject: field_pid(j, "subject")?,
                    value: field_value(j, "value")?,
                    echoes: field_u64(j, "echoes")? as usize,
                },
                "value_flipped" => ProtocolEvent::ValueFlipped {
                    phase,
                    from: field_value(j, "from_value")?,
                    to: field_value(j, "to_value")?,
                },
                "coin_flipped" => ProtocolEvent::CoinFlipped {
                    phase,
                    value: field_value(j, "value")?,
                },
                "decided" => ProtocolEvent::Decided {
                    phase,
                    value: field_value(j, "value")?,
                },
                "halted" => ProtocolEvent::Halted { phase },
                other => {
                    return Err(JsonError {
                        message: format!("unknown event kind `{other}`"),
                        offset: 0,
                    })
                }
            };
            Event::Protocol {
                step,
                pid,
                event: protocol,
            }
        }
    };
    Ok(event)
}

fn status_name(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Stopped => "stopped",
        RunStatus::Quiescent => "quiescent",
        RunStatus::StepLimitReached => "step_limit",
    }
}

/// Extracts the delivery schedule of a parsed single-run trace: one
/// [`Selection`] per `deliver` line, in delivery order.
///
/// Together with the recorded seed this is the bridge back into the
/// simulator's scripted-replay path: feed the result to
/// [`ScriptedScheduler::exact`](simnet::scheduler::ScriptedScheduler::exact)
/// on an identically configured [`Sim`](simnet::Sim) and the original
/// execution replays step for step. Traces written before the buffer index
/// was recorded parse with `index: 0` and can only replay faithfully when
/// every buffer held a single message at each delivery.
#[must_use]
pub fn schedule_of(lines: &[TraceLine]) -> Vec<Selection> {
    lines
        .iter()
        .filter_map(|line| match line {
            TraceLine::Event(Event::Deliver { to, index, .. }) => Some(Selection {
                to: *to,
                index: *index,
            }),
            _ => None,
        })
        .collect()
}

/// Parses a full JSONL trace (empty lines ignored).
///
/// Each event is checked against its run as it is read. Every process id it
/// names must be below the `run_start` header's `n`. Until the run has a
/// `recover` event, no phase may exceed the line number: a process reaches
/// phase p only after p `phase_entered` lines of its own, and only a
/// recovery (a silent WAL replay or state adoption) skips them.
///
/// # Errors
///
/// Returns the first [`JsonError`] hit, with the offending line number in
/// the message.
pub fn parse_trace(text: &str) -> Result<Vec<TraceLine>, JsonError> {
    let mut lines = Vec::new();
    // The open run's size (unbounded outside a run), and whether it recovered.
    let mut n = usize::MAX;
    let mut recovered = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let at_line = |message: String, offset| JsonError {
            message: format!("line {lineno}: {message}"),
            offset,
        };
        let parsed = parse_line(line).map_err(|e| at_line(e.message, e.offset))?;
        match &parsed {
            TraceLine::RunStart { n: size, .. } => (n, recovered) = (*size, false),
            TraceLine::RunEnd { .. } => (n, recovered) = (usize::MAX, false),
            TraceLine::Event(event) => {
                recovered |= matches!(event, Event::Recover { .. });
                let max_phase = if recovered { u64::MAX } else { lineno as u64 };
                check_event(event, n, max_phase).map_err(|m| at_line(m, 0))?;
            }
        }
        lines.push(parsed);
    }
    Ok(lines)
}

/// Rejects an event naming a process id `>= n` or a phase above
/// `max_phase` (engine events name no phase).
fn check_event(event: &Event, n: usize, max_phase: u64) -> Result<(), String> {
    let (ids, phase) = match *event {
        Event::Start { pid }
        | Event::Decide { pid, .. }
        | Event::Halt { pid, .. }
        | Event::Recover { pid, .. } => ([pid, pid], 0),
        Event::Send { from, to, .. } | Event::Deliver { from, to, .. } => ([from, to], 0),
        Event::Protocol { pid, event, .. } => match event {
            ProtocolEvent::EchoAccepted { phase, subject, .. } => ([pid, subject], phase),
            ProtocolEvent::PhaseEntered { phase }
            | ProtocolEvent::WitnessReached { phase, .. }
            | ProtocolEvent::ValueFlipped { phase, .. }
            | ProtocolEvent::CoinFlipped { phase, .. }
            | ProtocolEvent::Decided { phase, .. }
            | ProtocolEvent::Halted { phase } => ([pid, pid], phase),
        },
    };
    if let Some(id) = ids.iter().find(|id| id.index() >= n) {
        return Err(format!("{id} is outside the run's n={n}"));
    }
    if phase > max_phase {
        return Err(format!(
            "phase {phase} is unreachable this early in the trace"
        ));
    }
    Ok(())
}

/// Parses one line of a JSONL trace.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or an unknown record shape.
pub fn parse_line(line: &str) -> Result<TraceLine, JsonError> {
    let j = Json::parse(line)?;
    match j.get("kind").and_then(Json::as_str) {
        Some("run_start") => Ok(TraceLine::RunStart {
            n: field_u64(&j, "n")? as usize,
            seed: field_u64(&j, "seed")?,
        }),
        Some("run_end") => Ok(TraceLine::RunEnd {
            status: j
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            steps: field_u64(&j, "steps")?,
            decided: matches!(j.get("decided"), Some(Json::Bool(true))),
            max_phase: field_u64(&j, "max_phase")?,
            // Optional — absent in simulator traces and traces predating
            // crash recovery; absence means zero.
            recovered: j.get("recovered").and_then(Json::as_u64).unwrap_or(0),
            equivocations: j.get("equivocations").and_then(Json::as_u64).unwrap_or(0),
        }),
        _ => event_from_json(&j).map(TraceLine::Event),
    }
}

/// A [`Subscriber`] that accumulates the run as JSONL text.
///
/// The sink is deterministic: identical runs produce byte-identical
/// contents. It buffers in memory; call [`JsonlSink::contents`] for the
/// text or [`JsonlSink::write_to_file`] to persist it. Several runs may be
/// recorded back to back — each is bracketed by `run_start`/`run_end`.
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Vec<String>,
}

impl JsonlSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The recorded lines, in order.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The whole trace as newline-terminated text.
    #[must_use]
    pub fn contents(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.contents())
    }
}

impl Subscriber for JsonlSink {
    fn on_run_start(&mut self, n: usize, seed: u64) {
        self.lines.push(
            obj(vec![
                ("kind", Json::str("run_start")),
                ("n", Json::num(n as u64)),
                ("seed", Json::num(seed)),
            ])
            .render(),
        );
    }

    fn on_event(&mut self, event: &Event) {
        self.lines.push(event_to_json(event).render());
    }

    fn on_run_end(&mut self, report: &RunReport) {
        let mut pairs = vec![
            ("kind", Json::str("run_end")),
            ("status", Json::str(status_name(report.status))),
            ("steps", Json::num(report.steps)),
            ("decided", Json::Bool(report.all_correct_decided())),
            ("max_phase", Json::num(report.max_phase)),
        ];
        // Only networked runs recover or witness equivocation; omitting
        // the zeros keeps simulator traces byte-identical across versions.
        if report.metrics.recovered > 0 {
            pairs.push(("recovered", Json::num(report.metrics.recovered)));
        }
        if report.metrics.equivocations > 0 {
            pairs.push(("equivocations", Json::num(report.metrics.equivocations)));
        }
        self.lines.push(obj(pairs).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let p = ProcessId::new;
        vec![
            Event::Start { pid: p(0) },
            Event::Send {
                step: 1,
                from: p(0),
                to: p(2),
            },
            Event::Deliver {
                step: 2,
                to: p(2),
                from: p(0),
                index: 3,
            },
            Event::Decide {
                step: 3,
                pid: p(2),
                value: Value::One,
            },
            Event::Halt { step: 4, pid: p(2) },
            Event::Recover {
                step: 7,
                pid: p(1),
                replayed: 3,
            },
            Event::Protocol {
                step: 5,
                pid: p(1),
                event: ProtocolEvent::PhaseEntered { phase: 2 },
            },
            Event::Protocol {
                step: 6,
                pid: p(1),
                event: ProtocolEvent::WitnessReached {
                    phase: 2,
                    value: Value::Zero,
                    cardinality: 3,
                },
            },
            Event::Protocol {
                step: 7,
                pid: p(1),
                event: ProtocolEvent::EchoAccepted {
                    phase: 2,
                    subject: p(0),
                    value: Value::One,
                    echoes: 5,
                },
            },
            Event::Protocol {
                step: 8,
                pid: p(1),
                event: ProtocolEvent::ValueFlipped {
                    phase: 2,
                    from: Value::Zero,
                    to: Value::One,
                },
            },
            Event::Protocol {
                step: 9,
                pid: p(1),
                event: ProtocolEvent::CoinFlipped {
                    phase: 3,
                    value: Value::Zero,
                },
            },
            Event::Protocol {
                step: 10,
                pid: p(1),
                event: ProtocolEvent::Decided {
                    phase: 3,
                    value: Value::One,
                },
            },
            Event::Protocol {
                step: 11,
                pid: p(1),
                event: ProtocolEvent::Halted { phase: 3 },
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in sample_events() {
            let line = event_to_json(&event).render();
            let back = event_from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(event, back, "round trip of {line}");
        }
    }

    #[test]
    fn trace_lines_parse_including_run_markers() {
        let text = "\n{\"kind\":\"run_start\",\"n\":3,\"seed\":9}\n\
                    {\"kind\":\"start\",\"pid\":0}\n\
                    {\"kind\":\"run_end\",\"status\":\"stopped\",\"steps\":5,\"decided\":true,\"max_phase\":2}\n";
        let lines = parse_trace(text).unwrap();
        assert_eq!(
            lines,
            vec![
                TraceLine::RunStart { n: 3, seed: 9 },
                TraceLine::Event(Event::Start {
                    pid: ProcessId::new(0)
                }),
                TraceLine::RunEnd {
                    status: "stopped".into(),
                    steps: 5,
                    decided: true,
                    max_phase: 2,
                    recovered: 0,
                    equivocations: 0
                },
            ]
        );
    }

    #[test]
    fn legacy_deliver_lines_default_to_slot_zero() {
        let j = Json::parse(r#"{"kind":"deliver","step":4,"to":1,"from":2}"#).unwrap();
        assert_eq!(
            event_from_json(&j).unwrap(),
            Event::Deliver {
                step: 4,
                to: ProcessId::new(1),
                from: ProcessId::new(2),
                index: 0,
            }
        );
    }

    #[test]
    fn schedule_extraction_keeps_order_and_slots() {
        let text = "{\"kind\":\"run_start\",\"n\":2,\"seed\":1}\n\
                    {\"kind\":\"deliver\",\"step\":1,\"to\":1,\"from\":0,\"index\":2}\n\
                    {\"kind\":\"send\",\"step\":1,\"from\":1,\"to\":0}\n\
                    {\"kind\":\"deliver\",\"step\":2,\"to\":0,\"from\":1,\"index\":0}\n";
        let lines = parse_trace(text).unwrap();
        assert_eq!(
            schedule_of(&lines),
            vec![
                Selection {
                    to: ProcessId::new(1),
                    index: 2
                },
                Selection {
                    to: ProcessId::new(0),
                    index: 0
                },
            ]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("{\"kind\":\"start\",\"pid\":0}\nnot json\n").unwrap_err();
        assert!(err.message.contains("line 2"), "{err}");
    }

    #[test]
    fn ids_outside_the_run_are_rejected_with_their_line() {
        let header = "{\"kind\":\"run_start\",\"n\":2,\"seed\":1}\n";
        for event in [
            "{\"kind\":\"start\",\"pid\":2}",
            "{\"kind\":\"send\",\"step\":0,\"from\":0,\"to\":7}",
            "{\"kind\":\"echo_accepted\",\"step\":1,\"pid\":1,\"phase\":0,\"subject\":2,\"value\":1,\"echoes\":2}",
        ] {
            let err = parse_trace(&format!("{header}{event}\n")).unwrap_err();
            assert!(err.message.starts_with("line 2: "), "{err}");
            assert!(err.message.contains("outside the run's n=2"), "{err}");
        }
        // Outside a run there is no `n` to check against.
        assert!(parse_trace("{\"kind\":\"start\",\"pid\":9}\n").is_ok());
    }

    #[test]
    fn phases_beyond_the_lines_read_are_rejected_until_a_recovery() {
        let text = "{\"kind\":\"run_start\",\"n\":2,\"seed\":1}\n\
                    {\"kind\":\"phase_entered\",\"step\":1,\"pid\":0,\"phase\":2}\n\
                    {\"kind\":\"phase_entered\",\"step\":1,\"pid\":0,\"phase\":4}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.message.starts_with("line 3: phase 4"), "{err}");
        // A recovered node resumes at whatever phase its WAL held.
        let text = "{\"kind\":\"run_start\",\"n\":2,\"seed\":1}\n\
                    {\"kind\":\"recover\",\"step\":9,\"pid\":0,\"replayed\":4}\n\
                    {\"kind\":\"phase_entered\",\"step\":10,\"pid\":0,\"phase\":40}\n";
        assert_eq!(parse_trace(text).unwrap().len(), 3);
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let j = Json::parse(r#"{"kind":"teleport","step":1,"pid":0,"phase":0}"#).unwrap();
        assert!(event_from_json(&j).is_err());
    }
}
