//! A zero-dependency runtime metrics registry: counters, gauges, and
//! log-linear histograms with mergeable snapshots.
//!
//! The paper's §4–§6 claims are all *rates* — expected phases to decision,
//! messages per phase — so a live runtime needs a measurement substrate
//! cheap enough to leave on. This module provides one:
//!
//! * [`Registry`] — a named collection of metrics. Registration (the
//!   get-or-create lookup) takes a mutex; the returned handles are
//!   lock-free `Arc`'d atomics, so hot paths never contend.
//! * [`Counter`] — a monotonically increasing `u64`.
//! * [`Gauge`] — a current-value `u64` (queue depths, watermarks).
//! * [`Histogram`] — a log-linear bucket histogram: values below 2⁴ get
//!   exact buckets, every power-of-two octave above is split into 16
//!   linear sub-buckets, so any recorded value lands in a bucket whose
//!   width is at most 1/16 (6.25 %) of its lower bound. Percentiles read
//!   from bucket boundaries therefore bound the true percentiles within
//!   that relative error.
//! * [`Snapshot`] — a point-in-time copy of a whole registry, mergeable
//!   across nodes (merge is associative and commutative), renderable as
//!   Prometheus text exposition format or as JSON (round-trippable, for
//!   scraping over the admin endpoint).
//!
//! Labels give metrics per-peer / per-protocol dimensions: the same family
//! name with different label sets forms distinct series, exactly as in
//! Prometheus.
//!
//! A registry can also be constructed *disabled* ([`Registry::disabled`]):
//! handles still exist but every mutation is a no-op behind one predictable
//! branch. The committed `BENCH_metrics.json` overhead bench compares the
//! two modes on the frame hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;

/// Linear sub-buckets per octave, as a power of two: 2⁴ = 16 sub-buckets,
/// bounding the relative bucket error at 1/16.
const SUB_BITS: u32 = 4;
/// 2^SUB_BITS.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: `SUB` exact buckets for values `< SUB`, then 16
/// sub-buckets for each of the `64 - SUB_BITS` octaves above.
const NBUCKETS: usize = SUB as usize + (64 - SUB_BITS as usize) * SUB as usize;

/// The bucket index a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
    SUB as usize + octave * SUB as usize + sub
}

/// The `[lo, hi]` value range of bucket `idx` (inclusive on both ends).
#[must_use]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NBUCKETS, "bucket index out of range");
    if idx < SUB as usize {
        return (idx as u64, idx as u64);
    }
    let octave = ((idx - SUB as usize) / SUB as usize) as u32;
    let sub = ((idx - SUB as usize) % SUB as usize) as u64;
    let lo = (SUB + sub) << octave;
    let hi = lo + ((1u64 << octave) - 1);
    (lo, hi)
}

/// What a metric family is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// A current value.
    Gauge,
    /// A value distribution in log-linear buckets.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parses an exposition-format kind name (`"counter"` / `"gauge"` /
    /// `"histogram"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// Sorted `(key, value)` label pairs identifying one series of a family.
pub type Labels = Vec<(String, String)>;

/// A monotonically increasing counter handle. Cloning is cheap; all clones
/// share the same cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A current-value gauge handle (non-negative). Cloning is cheap; all
/// clones share the same cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.on {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` if it is higher (a watermark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.on {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared storage of one histogram.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-linear histogram handle. Cloning is cheap; all clones share the
/// same buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    on: bool,
}

impl Histogram {
    /// Whether recording does anything — call sites that must pay for a
    /// clock read to produce the value can skip it when the registry is
    /// disabled.
    #[must_use]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.on {
            return;
        }
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        // No count cell: the observation count is the sum of the buckets.
        // fetch_max has no native instruction on x86 (it compiles to a CAS
        // loop), so guard it with a plain load — almost every observation
        // is below the running maximum.
        if v > self.core.max.load(Ordering::Relaxed) {
            self.core.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_us(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Runs `f` and records how long it took, in microseconds. The clock
    /// is read here and only when the histogram records, so a caller
    /// that must not read the clock itself (a deterministic state
    /// machine) can still report latencies.
    #[inline]
    pub fn time_us<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = std::time::Instant::now();
        let out = f();
        self.record_us(started.elapsed());
        out
    }

    /// A point-in-time copy of this histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v > 0).then_some((i, v))
            })
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: sparse nonzero buckets plus count/sum/max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// `(bucket index, count)` for every nonzero bucket, index-ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (`0.0 ≤ q ≤ 1.0`), or `None` when empty. Because bucket
    /// widths are at most 1/16 of their lower bound, the result is within
    /// 6.25 % above the true quantile (and never below it).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(idx).1);
            }
        }
        self.buckets.last().map(|&(idx, _)| bucket_bounds(idx).1)
    }

    /// The mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Folds `other` into `self`. Associative and commutative: merging a
    /// set of node snapshots gives the same totals in any order or
    /// grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        // Wrapping, to match the recording path: the live sum is an atomic
        // fetch_add, which wraps rather than panics if a pathological
        // value stream exceeds u64. Real latency sums never get close.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(idx, c) in &other.buckets {
            *merged.entry(idx).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// One series' frozen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeriesValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl SeriesValue {
    /// The scalar reading of a counter or gauge (`None` for histograms).
    #[must_use]
    pub fn scalar(&self) -> Option<u64> {
        match self {
            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => Some(*v),
            SeriesValue::Histogram(_) => None,
        }
    }

    fn merge(&mut self, other: &SeriesValue) {
        match (self, other) {
            (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
            // Gauges merge by sum: cluster-wide queue depth is the sum of
            // per-node depths. Watermark-style gauges merged across nodes
            // are label-disjoint in practice, so the sum degenerates to
            // the single series.
            (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a += b,
            (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
            // A kind clash only happens when two nodes disagree on what a
            // family is — keep self, the scrape is best-effort.
            _ => {}
        }
    }
}

/// One metric family in a snapshot: kind, help text, and every series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Family {
    /// What the family is. `None` only for the empty default.
    pub kind: Option<MetricKind>,
    /// One-line description.
    pub help: String,
    /// Series keyed by their sorted label pairs.
    pub series: BTreeMap<Labels, SeriesValue>,
}

/// A point-in-time copy of a registry (or a merge of several).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Families keyed by metric name, name-ascending.
    pub families: BTreeMap<String, Family>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Associative and commutative.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, fam) in &other.families {
            let mine = self.families.entry(name.clone()).or_default();
            if mine.kind.is_none() {
                mine.kind = fam.kind;
                mine.help.clone_from(&fam.help);
            }
            for (labels, value) in &fam.series {
                match mine.series.get_mut(labels) {
                    Some(existing) => existing.merge(value),
                    None => {
                        mine.series.insert(labels.clone(), value.clone());
                    }
                }
            }
        }
    }

    /// The scalar reading of `name`'s series with exactly `labels`
    /// (order-insensitive), if present.
    #[must_use]
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = sorted_labels(labels);
        self.families.get(name)?.series.get(&key)?.scalar()
    }

    /// The sum of every series' scalar reading in `name`'s family.
    #[must_use]
    pub fn scalar_total(&self, name: &str) -> Option<u64> {
        let fam = self.families.get(name)?;
        let mut total = 0u64;
        let mut any = false;
        for v in fam.series.values() {
            if let Some(s) = v.scalar() {
                total += s;
                any = true;
            }
        }
        any.then_some(total)
    }

    /// A merged histogram over every series of `name`'s family.
    #[must_use]
    pub fn histogram_total(&self, name: &str) -> Option<HistogramSnapshot> {
        let fam = self.families.get(name)?;
        let mut total = HistogramSnapshot::default();
        let mut any = false;
        for v in fam.series.values() {
            if let SeriesValue::Histogram(h) = v {
                total.merge(h);
                any = true;
            }
        }
        any.then_some(total)
    }

    /// Renders the snapshot in Prometheus text exposition format 0.0.4:
    /// `# HELP` / `# TYPE` headers, then one sample per line. Histograms
    /// use the standard `_bucket{le=...}` / `_sum` / `_count` convention
    /// with cumulative bucket counts and a closing `+Inf` bucket.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, fam) in &self.families {
            let Some(kind) = fam.kind else { continue };
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", fam.help.replace('\n', " "));
            }
            let _ = writeln!(out, "# TYPE {name} {}", kind.name());
            for (labels, value) in &fam.series {
                match value {
                    SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    SeriesValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for &(idx, c) in &h.buckets {
                            cumulative += c;
                            let le = bucket_bounds(idx).1.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some("+Inf")),
                            h.count
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum);
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Encodes the snapshot as JSON (the admin endpoint's `/metrics.json`);
    /// [`Snapshot::from_json`] inverts it exactly.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let families = self
            .families
            .iter()
            .map(|(name, fam)| {
                let series = fam
                    .series
                    .iter()
                    .map(|(labels, value)| {
                        let labels_json = Json::Obj(
                            labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                                .collect(),
                        );
                        let mut pairs = vec![("labels".to_string(), labels_json)];
                        match value {
                            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                                pairs.push(("value".into(), Json::num(*v)));
                            }
                            SeriesValue::Histogram(h) => {
                                pairs.push(("count".into(), Json::num(h.count)));
                                pairs.push(("sum".into(), Json::num(h.sum)));
                                pairs.push(("max".into(), Json::num(h.max)));
                                pairs.push((
                                    "buckets".into(),
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(i, c)| {
                                                Json::Arr(vec![Json::num(i as u64), Json::num(c)])
                                            })
                                            .collect(),
                                    ),
                                ));
                            }
                        }
                        Json::Obj(pairs)
                    })
                    .collect();
                (
                    name.clone(),
                    Json::Obj(vec![
                        (
                            "kind".into(),
                            Json::str(fam.kind.map_or("unknown", MetricKind::name)),
                        ),
                        ("help".into(), Json::str(fam.help.clone())),
                        ("series".into(), Json::Arr(series)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![("families".into(), Json::Obj(families))])
    }

    /// Decodes a snapshot encoded by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field.
    pub fn from_json(j: &Json) -> Result<Snapshot, String> {
        let Some(Json::Obj(families)) = j.get("families") else {
            return Err("snapshot needs a `families` object".into());
        };
        let mut out = Snapshot::default();
        for (name, fam_json) in families {
            let kind = fam_json
                .get("kind")
                .and_then(Json::as_str)
                .and_then(MetricKind::parse);
            let help = fam_json
                .get("help")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let Some(Json::Arr(series_json)) = fam_json.get("series") else {
                return Err(format!("family `{name}` needs a series array"));
            };
            let mut series = BTreeMap::new();
            for s in series_json {
                let labels = match s.get("labels") {
                    Some(Json::Obj(pairs)) => {
                        let mut labels: Labels = pairs
                            .iter()
                            .map(|(k, v)| {
                                v.as_str()
                                    .map(|v| (k.clone(), v.to_string()))
                                    .ok_or_else(|| format!("family `{name}`: non-string label"))
                            })
                            .collect::<Result<_, _>>()?;
                        labels.sort();
                        labels
                    }
                    _ => return Err(format!("family `{name}`: series needs a labels object")),
                };
                let value = if let Some(v) = s.get("value").and_then(Json::as_u64) {
                    match kind {
                        Some(MetricKind::Gauge) => SeriesValue::Gauge(v),
                        _ => SeriesValue::Counter(v),
                    }
                } else {
                    let buckets = match s.get("buckets") {
                        Some(Json::Arr(items)) => items
                            .iter()
                            .map(|b| match b {
                                Json::Arr(pair) if pair.len() == 2 => {
                                    let idx =
                                        pair[0].as_usize().filter(|&i| i < NBUCKETS).ok_or_else(
                                            || format!("family `{name}`: bad bucket index"),
                                        )?;
                                    let c = pair[1].as_u64().ok_or_else(|| {
                                        format!("family `{name}`: bad bucket count")
                                    })?;
                                    Ok((idx, c))
                                }
                                _ => Err(format!("family `{name}`: bucket must be [idx,count]")),
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err(format!("family `{name}`: series needs value or buckets")),
                    };
                    SeriesValue::Histogram(HistogramSnapshot {
                        count: s.get("count").and_then(Json::as_u64).unwrap_or(0),
                        sum: s.get("sum").and_then(Json::as_u64).unwrap_or(0),
                        max: s.get("max").and_then(Json::as_u64).unwrap_or(0),
                        buckets,
                    })
                };
                series.insert(labels, value);
            }
            out.families
                .insert(name.clone(), Family { kind, help, series });
        }
        Ok(out)
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|&(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

/// One registered metric's shared cell.
#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// The mutable interior of a registry.
#[derive(Debug, Default)]
struct Inner {
    /// `(family, labels)` → cell.
    series: BTreeMap<(String, Labels), Cell>,
    /// family → (kind, help); first registration wins.
    families: BTreeMap<String, (MetricKind, String)>,
}

/// A named collection of metrics.
///
/// Handle creation (get-or-create by `(name, labels)`) takes the registry
/// mutex; the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles are
/// lock-free and cheap to clone, so instrumented hot paths never lock.
/// Registering the same `(name, labels)` twice returns handles to the same
/// cell — which is what lets a restarted component keep counting where its
/// predecessor left off.
#[derive(Debug)]
pub struct Registry {
    inner: Mutex<Inner>,
    on: bool,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            on: true,
        }
    }

    /// A disabled registry: handles work but record nothing — the "off"
    /// arm of the overhead bench.
    #[must_use]
    pub fn disabled() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            on: false,
        }
    }

    /// Whether handles from this registry record anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: MetricKind) -> Cell {
        let key = (name.to_string(), sorted_labels(labels));
        let mut inner = self.lock();
        let registered = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| (kind, help.to_string()));
        assert!(
            registered.0 == kind,
            "metric family `{name}` registered as {:?} and {kind:?}",
            registered.0
        );
        let cell = inner.series.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Cell::Gauge(Arc::new(AtomicU64::new(0))),
            MetricKind::Histogram => Cell::Histogram(Arc::new(HistogramCore::new())),
        });
        match cell {
            Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
            Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        }
    }

    /// The counter `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter) {
            Cell::Counter(cell) => Counter { cell, on: self.on },
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// The gauge `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge) {
            Cell::Gauge(cell) => Gauge { cell, on: self.on },
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// The histogram `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, MetricKind::Histogram) {
            Cell::Histogram(core) => Histogram { core, on: self.on },
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// A point-in-time copy of every registered series.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut out = Snapshot::default();
        for ((name, labels), cell) in &inner.series {
            let (kind, help) = &inner.families[name];
            let fam = out.families.entry(name.clone()).or_insert_with(|| Family {
                kind: Some(*kind),
                help: help.clone(),
                series: BTreeMap::new(),
            });
            let value = match cell {
                Cell::Counter(c) => SeriesValue::Counter(c.load(Ordering::Relaxed)),
                Cell::Gauge(g) => SeriesValue::Gauge(g.load(Ordering::Relaxed)),
                Cell::Histogram(h) => SeriesValue::Histogram(
                    Histogram {
                        core: Arc::clone(h),
                        on: true,
                    }
                    .snapshot(),
                ),
            };
            fam.series.insert(labels.clone(), value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        for v in (0..2000u64).chain([1 << 20, (1 << 20) + 7, u64::MAX / 3, u64::MAX - 1, u64::MAX])
        {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
            // Relative bucket error bound: width ≤ lo/16 above the exact
            // range.
            if lo >= SUB {
                assert!(hi - lo <= lo / SUB, "v={v} lo={lo} hi={hi}");
            } else {
                assert_eq!(lo, hi, "exact bucket below {SUB}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn counters_gauges_histograms_register_and_read_back() {
        let r = Registry::new();
        let c = r.counter("bt_frames_total", "frames", &[("peer", "2")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) → same cell.
        assert_eq!(r.counter("bt_frames_total", "", &[("peer", "2")]).get(), 5);
        // Different labels → a fresh series.
        assert_eq!(r.counter("bt_frames_total", "", &[("peer", "3")]).get(), 0);

        let g = r.gauge("bt_depth", "queue depth", &[]);
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7, "set_max never lowers");
        g.set_max(11);
        assert_eq!(g.get(), 11);
        g.set(2);
        assert_eq!(g.get(), 2, "set lowers");

        let h = r.histogram("bt_lat_us", "latency", &[]);
        for v in [1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        assert_eq!(s.quantile(0.5), Some(2));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let c = r.counter("c", "", &[]);
        let g = r.gauge("g", "", &[]);
        let h = r.histogram("h", "", &[]);
        c.inc();
        g.set(9);
        h.record(1);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(!h.enabled());
    }

    #[test]
    fn snapshot_renders_prometheus_exposition() {
        let r = Registry::new();
        r.counter("bt_sent_total", "messages sent", &[("peer", "1")])
            .add(3);
        r.gauge("bt_depth", "queue depth", &[]).set(2);
        let h = r.histogram("bt_lat_us", "latency", &[]);
        h.record(5);
        h.record(100);
        let text = r.snapshot().render_prometheus();
        for needle in [
            "# TYPE bt_sent_total counter",
            "bt_sent_total{peer=\"1\"} 3",
            "# TYPE bt_depth gauge",
            "bt_depth 2",
            "# TYPE bt_lat_us histogram",
            "bt_lat_us_bucket{le=\"5\"} 1",
            "bt_lat_us_bucket{le=\"+Inf\"} 2",
            "bt_lat_us_sum 105",
            "bt_lat_us_count 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let r = Registry::new();
        r.counter(
            "c_total",
            "a counter",
            &[("peer", "0"), ("proto", "malicious")],
        )
        .add(42);
        r.gauge("g", "a gauge", &[]).set(7);
        let h = r.histogram("h_us", "a histogram", &[("peer", "1")]);
        for v in [0, 1, 17, 300, 70_000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("round trip parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn merge_combines_and_totals_read_across_series() {
        let a = Registry::new();
        a.counter("c_total", "", &[("peer", "0")]).add(2);
        a.histogram("h_us", "", &[]).record(10);
        let b = Registry::new();
        b.counter("c_total", "", &[("peer", "0")]).add(3);
        b.counter("c_total", "", &[("peer", "1")]).add(5);
        b.histogram("h_us", "", &[]).record(1000);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.scalar("c_total", &[("peer", "0")]), Some(5));
        assert_eq!(merged.scalar("c_total", &[("peer", "1")]), Some(5));
        assert_eq!(merged.scalar_total("c_total"), Some(10));
        let h = merged.histogram_total("h_us").expect("histogram family");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
    }
}
