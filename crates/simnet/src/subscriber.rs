//! Run observability: the subscriber hook the engine publishes events to.
//!
//! A [`Subscriber`] is the engine's only observer. It receives every
//! [`Event`] of a run — engine events *and* the structured
//! [`ProtocolEvent`](crate::ProtocolEvent)s emitted by instrumented
//! protocols — plus run-boundary callbacks, in a deterministic order fixed
//! by the seed. Sinks live in the `obs` crate (in-memory per-phase
//! aggregation, JSONL trace files, console narration); this trait lives
//! here so the engine can hold one without depending on any sink.
//!
//! The slot is optional and `None` by default: an unobserved run performs
//! exactly one `Option` discriminant check per event site, so the hot path
//! of benches and Monte-Carlo sweeps is unaffected.

use std::sync::{Arc, Mutex};

use crate::{Event, RunReport};

/// Receives structured events from a running simulation.
///
/// Methods default to no-ops so sinks implement only what they consume.
/// Callback order within a run is deterministic (a pure function of the
/// seed), so any sink that is itself deterministic produces identical
/// output across identical runs.
pub trait Subscriber: Send {
    /// The run is about to start: `n` processes, driven by `seed`.
    fn on_run_start(&mut self, n: usize, seed: u64) {
        let _ = (n, seed);
    }

    /// One event, in execution order. Called for every event of the run.
    fn on_event(&mut self, event: &Event) {
        let _ = event;
    }

    /// The run finished; `report` is the same value [`Sim::run`] returns.
    ///
    /// [`Sim::run`]: crate::Sim::run
    fn on_run_end(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// The shared handle a simulation holds its subscriber through.
///
/// [`Sim::run`](crate::Sim::run) consumes the simulation, so callers keep
/// their own clone of the `Arc` and read the sink back out after the run:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use simnet::{Event, Role, Sim, SharedSubscriber, Subscriber, Value};
/// # use simnet::{Ctx, Envelope, Process};
/// # #[derive(Debug)]
/// # struct Yes;
/// # impl Process for Yes {
/// #     type Msg = ();
/// #     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) { ctx.broadcast(()); }
/// #     fn on_receive(&mut self, _e: Envelope<()>, _c: &mut Ctx<'_, ()>) {}
/// #     fn decision(&self) -> Option<Value> { Some(Value::One) }
/// #     fn phase(&self) -> u64 { 0 }
/// # }
///
/// #[derive(Default)]
/// struct Counter(u64);
/// impl Subscriber for Counter {
///     fn on_event(&mut self, _event: &Event) { self.0 += 1; }
/// }
///
/// let sink: SharedSubscriber = Arc::new(Mutex::new(Counter::default()));
/// let mut b = Sim::builder();
/// b.process(Box::new(Yes), Role::Correct).seed(1);
/// b.subscriber(Arc::clone(&sink));
/// b.build().run();
/// // The sink outlives the consumed Sim.
/// # drop(sink);
/// ```
pub type SharedSubscriber = Arc<Mutex<dyn Subscriber>>;
