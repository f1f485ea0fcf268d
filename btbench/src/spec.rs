//! The benchmark's contract (`BENCHMARK.json`, compiled in so names,
//! units, directions and bounds have one source) and the shape of one
//! workload run's result.

use std::collections::BTreeMap;

use obs::json::Json;

use crate::trace::TraceLog;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric. `bound` is set for end-to-end metrics only.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` per workload, in declaration order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the compiled-in contract.
    ///
    /// # Panics
    ///
    /// Panics on a malformed `BENCHMARK.json` — a build-time defect.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json: {key} is not a list"),
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The declared metrics of one run kind: per-layer when traced,
    /// end-to-end otherwise.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One measured value with its sample count, or `None` with the reason
/// it could not be measured.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: Option<f64>,
    pub samples: u64,
    pub note: &'static str,
}

/// Metrics of one run, by declared name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Records `value`, measured over `samples` observations.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let metric = if value.is_finite() {
            Metric {
                value: Some(value),
                samples,
                note: "",
            }
        } else {
            Metric {
                value: None,
                samples,
                note: "not a finite number (no samples in the divisor)",
            }
        };
        self.0.insert(name.to_string(), metric);
    }

    /// Records `value` when present, else a `null` carrying `why`.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, samples: u64, why: &'static str) {
        match value {
            Some(v) => self.set(name, v, samples),
            None => {
                self.0.insert(
                    name.to_string(),
                    Metric {
                        value: None,
                        samples,
                        note: why,
                    },
                );
            }
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (client ops, or simulator trials) in the measured
    /// window, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output-verification failures; empty means the run is correct.
    pub errors: Vec<String>,
    /// What makes the run's timings doubtful without making its outputs
    /// wrong.
    pub warnings: Vec<String>,
    pub metrics: Metrics,
    pub trace: TraceLog,
}

/// Parameters of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizing: one counted trial, one set-up, short warm-up.
    pub quick: bool,
    /// A directory this run may create files in (WALs, replay copies).
    pub scratch: std::path::PathBuf,
    /// Steal readings a background thread takes while the workload runs.
    pub steal: std::sync::Arc<crate::steal::Timeline>,
}
