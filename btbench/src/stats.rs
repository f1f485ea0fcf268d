//! Order statistics: the nearest-rank percentile rule every latency
//! metric uses, and the quartile spread `compare` judges steadiness by.

/// Samples that must lie beyond a percentile for it to be reported, so
/// a tail figure is never set by one or two outliers.
const BEYOND: usize = 10;

/// Sorts `values` ascending (samples are never NaN: they are measured
/// durations and counts).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
}

/// 1-based nearest rank of quantile `q` among `n` samples: `⌈q·n⌉`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile of an ascending slice, `None` when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// [`percentile`], but only when at least [`BEYOND`] samples lie beyond
/// the reported one — p99 therefore needs 1 000 samples, p90 needs 100.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, q) >= BEYOND).then(|| sorted[rank(n, q) - 1])
}

/// The highest percentile that still has [`BEYOND`] samples beyond it:
/// the sample of rank `n − 10`; `None` with ten samples or fewer.
pub fn highest_tail(sorted: &[f64]) -> Option<f64> {
    sorted.len().checked_sub(BEYOND + 1).map(|i| sorted[i])
}

/// The median by the nearest-rank rule.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the driver applies to ten runs — or `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The figure that stands for a run cut into slices (seconds of a
/// loopback window, trials of a simulator workload): the quartile cut
/// point on the good side of the per-slice figures — the upper one when
/// `higher_is_better`, else the lower.
///
/// The sandbox is a small VM on a shared host whose speed sags by 10–40 %
/// for seconds to minutes at a time; interference only ever slows a
/// slice, so the fast end of the distribution is the part that repeats
/// from run to run (measured: the median of n=32 trial costs moved 25 %
/// between back-to-back runs, the lower quartile 6 %). A change in the
/// program moves every slice, this quartile included.
pub fn best_quartile(per_slice: &[f64], higher_is_better: bool) -> Option<f64> {
    match quartiles(per_slice) {
        Some([lower, _, upper]) => Some(if higher_is_better { upper } else { lower }),
        None => per_slice.first().copied(),
    }
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), None, "999 samples: 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0), "10 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.99), None);
        assert_eq!(highest_tail(&v), Some(90.0), "ten samples beyond");
        assert_eq!(highest_tail(&v[..11]), Some(1.0));
        assert_eq!(highest_tail(&v[..10]), None);
    }

    #[test]
    fn best_quartile_takes_the_good_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(best_quartile(&v, false), Some(2.75));
        assert_eq!(best_quartile(&v, true), Some(8.25));
        assert_eq!(best_quartile(&[4.0], true), Some(4.0));
        assert_eq!(best_quartile(&[], true), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
