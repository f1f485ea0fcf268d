//! In-memory tracing for the traced run: raw spans for client ops,
//! log-bucket aggregates plus a sparse raw sample for the millions of
//! simulator deliveries, all written out as JSON lines at exit.
//!
//! Spans are recorded from outside the product crates — around calls
//! into their public functions and by wrapping [`Process`] impls in
//! [`Traced`] — because the benchmark may not touch product files.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use obs::json::Json;
use simnet::{Ctx, Envelope, Process, Value};

/// One timed interval. `parent` indexes the span that caused it within
/// the same list; spans of one client op share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Durations of one (layer, name) pair in power-of-two nanosecond
/// buckets.
#[derive(Clone, Debug)]
pub struct LogAgg {
    pub count: u64,
    pub sum_ns: u64,
    buckets: [u64; 64],
}

impl Default for LogAgg {
    fn default() -> Self {
        LogAgg {
            count: 0,
            sum_ns: 0,
            buckets: [0; 64],
        }
    }
}

impl LogAgg {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.buckets[(64 - ns.leading_zeros()).min(63) as usize] += 1;
    }

    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }
}

/// Everything one traced run collected, in the order it is written out.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub spans: Vec<Span>,
    pub aggs: Vec<(&'static str, &'static str, LogAgg)>,
}

impl TraceLog {
    /// Appends `spans`, re-basing their parent indices.
    pub fn extend_spans(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per line: raw spans (a parent's
    /// `self_ns` is its duration minus its children's), then aggregates.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let line = Json::Obj(vec![
                ("type".into(), Json::str("span")),
                ("id".into(), Json::num(i as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                ),
                ("op".into(), Json::num(s.op)),
                ("layer".into(), Json::str(s.layer)),
                ("name".into(), Json::str(s.name)),
                ("start_ns".into(), Json::num(s.start_ns)),
                ("end_ns".into(), Json::num(s.end_ns)),
                ("self_ns".into(), Json::num(dur.saturating_sub(child_ns[i]))),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        for (layer, name, agg) in &self.aggs {
            let buckets = agg
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(log2, &c)| Json::Arr(vec![Json::num(log2 as u64), Json::num(c)]))
                .collect();
            let line = Json::Obj(vec![
                ("type".into(), Json::str("agg")),
                ("layer".into(), Json::str(*layer)),
                ("name".into(), Json::str(*name)),
                ("count".into(), Json::num(agg.count)),
                ("sum_ns".into(), Json::num(agg.sum_ns)),
                ("log2_ns_buckets".into(), Json::Arr(buckets)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        Ok(())
    }
}

/// One delivery in [`TIME_EVERY`] is timed: a clock-read pair costs
/// ~75 ns on the reference box, against ~175 ns for a whole n=32
/// delivery, so timing every call would itself be the workload.
pub const TIME_EVERY: u64 = 16;
/// One delivery in `RAW_EVERY` also keeps a raw span and a copy of the
/// message (the real stream the codec micro-timings run over).
pub const RAW_EVERY: u64 = 1024;

/// Where the [`Traced`] processes of one kind (one layer/name) report.
/// Shared by `Rc`: a simulation is single-threaded.
pub struct SimSink<M> {
    pub layer: &'static str,
    pub name: &'static str,
    epoch: Instant,
    /// `on_receive` calls seen (timed or not).
    pub calls: Cell<u64>,
    pub on_receive: RefCell<LogAgg>,
    pub on_start: RefCell<LogAgg>,
    pub raw: RefCell<Vec<Span>>,
    pub msgs: RefCell<Vec<M>>,
}

impl<M> SimSink<M> {
    pub fn new(layer: &'static str, name: &'static str, epoch: Instant) -> Rc<Self> {
        Rc::new(SimSink {
            layer,
            name,
            epoch,
            calls: Cell::new(0),
            on_receive: RefCell::default(),
            on_start: RefCell::default(),
            raw: RefCell::default(),
            msgs: RefCell::default(),
        })
    }

    /// Estimated wall time inside the wrapped processes: every
    /// `on_start` is timed, `on_receive` is the sampled mean times the
    /// exact call count.
    pub fn process_ns(&self) -> f64 {
        let recv = self.on_receive.borrow().mean_ns().unwrap_or(0.0) * self.calls.get() as f64;
        recv + self.on_start.borrow().sum_ns as f64
    }

    /// Moves this sink's aggregates and raw sample into `log`.
    pub fn drain_into(&self, log: &mut TraceLog) {
        log.extend_spans(std::mem::take(&mut self.raw.borrow_mut()));
        log.aggs
            .push((self.layer, self.name, self.on_receive.borrow().clone()));
        log.aggs
            .push((self.layer, "on_start", self.on_start.borrow().clone()));
    }
}

/// A [`Process`] that times its inner process's atomic steps and
/// otherwise delegates every trait method unchanged, so a seeded run is
/// step-for-step the run of the bare process.
pub struct Traced<P: Process> {
    inner: P,
    sink: Rc<SimSink<P::Msg>>,
}

impl<P: Process> Traced<P> {
    pub fn new(inner: P, sink: Rc<SimSink<P::Msg>>) -> Self {
        Traced { inner, sink }
    }
}

impl<P: Process> fmt::Debug for Traced<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Traced").field(&self.inner).finish()
    }
}

impl<P: Process> Process for Traced<P>
where
    P::Msg: Clone,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.sink.on_start.borrow_mut().record(ns);
    }

    fn on_receive(&mut self, env: Envelope<Self::Msg>, ctx: &mut Ctx<'_, Self::Msg>) {
        let seen = self.sink.calls.get();
        self.sink.calls.set(seen + 1);
        if !seen.is_multiple_of(TIME_EVERY) {
            return self.inner.on_receive(env, ctx);
        }
        let raw = seen.is_multiple_of(RAW_EVERY);
        if raw {
            self.sink.msgs.borrow_mut().push(env.msg.clone());
        }
        let t0 = Instant::now();
        self.inner.on_receive(env, ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.sink.on_receive.borrow_mut().record(ns);
        if raw {
            let start_ns = (t0 - self.sink.epoch).as_nanos() as u64;
            self.sink.raw.borrow_mut().push(Span {
                layer: self.sink.layer,
                name: self.sink.name,
                start_ns,
                end_ns: start_ns + ns,
                parent: None,
                op: ctx.step(),
            });
        }
    }

    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }

    fn phase(&self) -> u64 {
        self.inner.phase()
    }

    fn decision_phase(&self) -> Option<u64> {
        self.inner.decision_phase()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore(bytes)
    }

    fn transfer_digest(&self) -> u64 {
        self.inner.transfer_digest()
    }

    fn transfer_state(&self) -> Option<Vec<u8>> {
        self.inner.transfer_state()
    }

    fn adopt_transfer(&mut self, bytes: &[u8]) -> bool {
        self.inner.adopt_transfer(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = TraceLog::default();
        let span = |name, start_ns, end_ns, parent| Span {
            layer: "client",
            name,
            start_ns,
            end_ns,
            parent,
            op: 7,
        };
        log.extend_spans(vec![span("client.op", 0, 100, None)]);
        // A second batch's parent indices are local to the batch.
        log.extend_spans(vec![
            span("client.op", 200, 300, None),
            span("client.write", 200, 210, Some(0)),
            span("client.wait", 210, 290, Some(0)),
        ]);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[0].get("self_ns").and_then(Json::as_u64), Some(100));
        assert_eq!(lines[1].get("self_ns").and_then(Json::as_u64), Some(10));
        assert_eq!(lines[2].get("parent").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn log_agg_buckets_by_magnitude() {
        let mut a = LogAgg::default();
        for ns in [0, 1, 2, 3, 1000] {
            a.record(ns);
        }
        assert_eq!(a.count, 5);
        assert_eq!(a.mean_ns(), Some(1006.0 / 5.0));
        assert_eq!(a.buckets[0], 1); // 0
        assert_eq!(a.buckets[1], 1); // 1
        assert_eq!(a.buckets[2], 2); // 2..=3
        assert_eq!(a.buckets[10], 1); // 512..=1023
    }
}
