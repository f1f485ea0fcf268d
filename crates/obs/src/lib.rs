//! # obs — observability sinks for the simulator's subscriber hook
//!
//! `simnet` exposes a [`Subscriber`](simnet::Subscriber) slot that streams
//! every engine event (send, deliver, decide, halt) and every protocol-level
//! event (phase entered, witness reached, echo accepted, value flipped, coin
//! flipped, decided, halted) out of a run. That stream is the simulator's
//! only observer; this crate provides the sinks that make it useful:
//!
//! * [`PhaseAggregator`] — in-memory per-phase telemetry: message/step
//!   counts attributed to the actor's phase, a phases-to-decision histogram
//!   (p50/p95/max/mean) and decision-lag tracking across runs;
//! * [`JsonlSink`] — a deterministic JSONL trace writer whose output
//!   round-trips through [`parse_trace`] for offline replay;
//! * [`ConsoleReporter`] — a human-readable narration of the run, one line
//!   per event;
//! * [`render_report`] — the per-phase timeline + summary renderer behind
//!   the `btreport` binary. It folds a parsed trace per phase through the
//!   same code as [`PhaseAggregator`].
//!
//! All sinks share one convention: attach them as
//! `Arc<Mutex<Sink>>` through `SimBuilder::subscriber` (the
//! [`SharedSubscriber`](simnet::SharedSubscriber) alias), keep your own
//! clone of the `Arc`, and read the sink back after the run.
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use obs::JsonlSink;
//! use simnet::SharedSubscriber;
//!
//! let sink = Arc::new(Mutex::new(JsonlSink::new()));
//! let shared: SharedSubscriber = sink.clone();
//! // builder.subscriber(shared); let report = builder.build().run();
//! // let trace_text = sink.lock().unwrap().contents();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggregate;
mod console;
pub mod json;
mod jsonl;
pub mod metrics;
mod report;

pub use aggregate::{PhaseAggregator, PhaseStat};
pub use console::ConsoleReporter;
pub use jsonl::{
    event_from_json, event_to_json, parse_line, parse_trace, schedule_of, JsonlSink, TraceLine,
};
pub use report::render_report;
