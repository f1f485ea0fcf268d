//! `btbench compare A B`: judges set of runs B against set A by the
//! bounds `BENCHMARK.json` fixes, one row per (workload, metric).

use std::collections::BTreeMap;

use obs::json::Json;

use crate::spec::{MetricSpec, Spec};
use crate::stats;

/// The verdict on one (workload, metric) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse, but a side's run-to-run spread is wider than the
    /// bound, so "no change" cannot be told from a change.
    Unresolved,
}

/// Values of every end-to-end metric in one result file (the JSON lines
/// `run --out` appends), keyed by (workload, metric). Traced runs are
/// skipped: end-to-end figures come from untraced runs.
fn load(text: &str, spec: &Spec) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        for m in &spec.end_to_end {
            let value = doc
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64);
            if let Some(v) = value {
                values
                    .entry((workload.to_string(), m.name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// Judges medians `a` → `b` of metric `m`, given each side's values.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let (med_a, med_b) = (
        stats::median(a).expect("non-empty"),
        stats::median(b).expect("non-empty"),
    );
    let worse = if m.higher_is_better {
        med_b < med_a * (1.0 - bound)
    } else {
        med_b > med_a * (1.0 + bound)
    };
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    if worse {
        Verdict::Worse
    } else if wide(a) || wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison table; returns whether any row was `worse`.
pub fn compare(a_text: &str, b_text: &str, spec: &Spec) -> Result<bool, String> {
    let a = load(a_text, spec)?;
    let b = load(b_text, spec)?;
    let mut any_worse = false;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<18} {name:<12} missing from B");
            continue;
        };
        let m = spec
            .end_to_end
            .iter()
            .find(|m| m.name == *name)
            .expect("loaded by declared name");
        let verdict = judge(m, va, vb);
        any_worse |= verdict == Verdict::Worse;
        let (med_a, med_b) = (stats::median(va).unwrap(), stats::median(vb).unwrap());
        let spreads = match (stats::spread(va), stats::spread(vb)) {
            (Some(sa), Some(sb)) => format!(" spread A {:.1}% B {:.1}%", sa * 100.0, sb * 100.0),
            _ => String::new(),
        };
        println!(
            "{workload:<18} {name:<12} {med_a:>14.4} {med_b:>14.4} {:>9.4} {:>5.0}%  {}{} (base A = {med_a:.4} {}, n={}/{})",
            med_b / med_a,
            m.bound.unwrap_or(0.0) * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            },
            spreads,
            m.unit,
            va.len(),
            vb.len(),
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(judge(&metric(false), &steady, &[105.0]), Verdict::Ok);
        assert_eq!(judge(&metric(false), &steady, &[111.0]), Verdict::Worse);
        assert_eq!(judge(&metric(false), &steady, &[80.0]), Verdict::Ok);
        assert_eq!(judge(&metric(true), &steady, &[89.0]), Verdict::Worse);
        assert_eq!(judge(&metric(true), &steady, &[120.0]), Verdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&metric(false), &noisy, &[100.0]), Verdict::Unresolved);
        assert_eq!(judge(&metric(false), &steady, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn loads_untraced_lines_only() {
        let spec = Spec::load();
        let name = &spec.end_to_end[0].name;
        let line = |trace: bool, v: f64| {
            format!(
                r#"{{"workload":"w","trace":{trace},"metrics":{{"{name}":{{"value":{v},"unit":"x"}}}}}}"#
            )
        };
        let text = format!(
            "{}\n{}\n\n{}\n",
            line(false, 1.5),
            line(true, 9.0),
            line(false, 2.5)
        );
        let values = load(&text, &spec).unwrap();
        assert_eq!(values[&("w".to_string(), name.clone())], vec![1.5, 2.5]);
        assert!(load("not json", &spec).is_err());
    }
}
