//! Property tests for the metrics registry's log-linear histograms and
//! snapshot merging.
//!
//! The two guarantees the observability layer leans on:
//!
//! * **Quantile bounds** — a histogram quantile is never below the true
//!   quantile of the recorded values, and never more than one bucket
//!   width above it (bucket widths are at most 1/16 of their lower bound,
//!   so the relative error is ≤ 6.25 %). Dashboards can over-report a
//!   latency slightly; they can never under-report it.
//! * **Merge algebra** — `Snapshot::merge` (and histogram merging under
//!   it) is associative and commutative, so a cluster-wide scrape
//!   assembles to the same totals regardless of the order nodes answer.

use proptest::collection::vec;
use proptest::prelude::*;

use obs::metrics::{bucket_bounds, Histogram, HistogramSnapshot, Registry, Snapshot};

/// Builds a recorded histogram snapshot from raw values.
fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let registry = Registry::new();
    let h: Histogram = registry.histogram("h_test_us", "test data", &[]);
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The true `q`-quantile under the same rank convention the histogram
/// uses: the `ceil(q·count)`-th smallest value, rank clamped to
/// `[1, count]`.
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let count = sorted.len() as f64;
    let rank = ((q * count).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Values spanning the interesting bucket regimes: the exact region
/// (< 16), small octaves, and large magnitudes near the top buckets.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,
        16u64..4096,
        4096u64..1_000_000,
        (0u32..63).prop_map(|shift| 1u64 << shift),
        any::<u64>(),
    ]
}

/// Builds a snapshot with a mixed family population derived from `vals`,
/// tagged by `node` so merging across "nodes" exercises both the
/// same-series and disjoint-series paths.
fn snapshot_of(node: &str, vals: &[u64]) -> Snapshot {
    let registry = Registry::new();
    let shared: &[(&str, &str)] = &[("node", "shared")];
    let own: &[(&str, &str)] = &[("node", node)];
    let c = registry.counter("m_count_total", "test counter", shared);
    let g = registry.gauge("m_gauge", "test gauge", own);
    let h = registry.histogram("m_lat_us", "test histogram", shared);
    for &v in vals {
        c.add(v % 1000);
        g.set_max(v % 97);
        h.record(v);
    }
    registry.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn quantiles_bound_true_quantiles_within_bucket_error(
        values in vec(arb_value(), 1..200),
        qx in 0u32..101,
    ) {
        let q = f64::from(qx) / 100.0;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let truth = true_quantile(&sorted, q);

        let snap = hist_of(&values);
        let got = snap.quantile(q).expect("non-empty histogram");

        prop_assert!(
            got >= truth,
            "histogram quantile {got} under-reports true quantile {truth} (q={q})"
        );
        // The result is the upper bound of the bucket holding the true
        // quantile; that bucket's width is at most ⌊lo/16⌋, so the
        // overshoot is bounded by the bucket error.
        let (lo, hi) = bucket_bounds_containing(truth);
        prop_assert!(
            got <= hi,
            "histogram quantile {got} beyond the bucket [{lo}, {hi}] of the \
             true quantile {truth} (q={q})"
        );
        prop_assert!(
            hi - lo <= lo / 16,
            "bucket [{lo}, {hi}] wider than lo/16"
        );
    }

    #[test]
    fn histogram_count_sum_max_are_exact(values in vec(arb_value(), 1..200)) {
        let snap = hist_of(&values);
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(
            snap.sum,
            values.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        );
        prop_assert_eq!(snap.max, values.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn histogram_merge_is_commutative_and_order_free(
        a in vec(arb_value(), 0..100),
        b in vec(arb_value(), 0..100),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge is commutative");

        // Merging equals recording the concatenation directly.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let direct = hist_of(&all);
        prop_assert_eq!(
            &ab, &direct,
            "merge of parts equals histogram of the whole"
        );
    }

    #[test]
    fn histogram_merge_is_associative(
        a in vec(arb_value(), 0..60),
        b in vec(arb_value(), 0..60),
        c in vec(arb_value(), 0..60),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn snapshot_merge_is_commutative_and_associative(
        a in vec(arb_value(), 1..50),
        b in vec(arb_value(), 1..50),
        c in vec(arb_value(), 1..50),
    ) {
        let (sa, sb, sc) = (
            snapshot_of("a", &a),
            snapshot_of("b", &b),
            snapshot_of("c", &c),
        );

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "Snapshot::merge is commutative");

        let mut left = ab.clone();
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "Snapshot::merge is associative");

        // Totals add: the merged counter equals the sum of the parts'.
        let total = |s: &Snapshot| s.scalar_total("m_count_total").unwrap_or(0);
        prop_assert_eq!(total(&left), total(&sa) + total(&sb) + total(&sc));
    }
}

/// The `[lo, hi]` bounds of the bucket that would hold `v`.
fn bucket_bounds_containing(v: u64) -> (u64, u64) {
    // Probe via a single-value histogram: its only nonzero bucket is the
    // one containing v.
    let snap = hist_of(&[v]);
    let (idx, _) = snap.buckets[0];
    bucket_bounds(idx)
}
