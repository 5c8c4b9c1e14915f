//! Sample statistics, and the checks that keep impossible numbers out of a
//! report.
//!
//! Every quantile is computed as a float from the raw samples (linear
//! interpolation between the two nearest order statistics), never read
//! from a bucketed histogram.

/// The `p`-quantile of ascending `sorted` samples, interpolating linearly
/// at rank `(n - 1) * p`.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// The median of `values` (any order).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// A latency sample reduced to the numbers a report prints, with the
/// sample size that backs them.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Samples strictly above `p99`: the tail the percentile rests on.
    pub beyond_p99: usize,
}

impl Latency {
    /// Summarize raw samples; `None` when there are none.
    ///
    /// # Panics
    /// Panics when the summary would be impossible (`p50 > p99`,
    /// `p99 > max`, or a non-finite sample): a bug in the benchmark, not a
    /// property of the program under test.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        assert!(
            samples.iter().all(|x| x.is_finite() && *x >= 0.0),
            "latency samples must be finite and non-negative"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = quantile_sorted(&sorted, 0.50);
        let p99 = quantile_sorted(&sorted, 0.99);
        let max = sorted[sorted.len() - 1];
        assert!(
            p50 <= p99 && p99 <= max,
            "impossible latency summary: p50 {p50} p99 {p99} max {max}"
        );
        Some(Latency {
            n: sorted.len(),
            p50,
            p99,
            max,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            beyond_p99: sorted.iter().filter(|&&x| x > p99).count(),
        })
    }
}

/// Which slices of the measured windows to keep: every slice whose steal
/// share is at most `clean`, or, when those span less than half the
/// measured time, the least-stolen slices up to half of it (ties in time
/// order). The choice looks only at steal, time the machine's CPUs were
/// handed to other guests, never at the program's own timings, so a slow
/// program cannot select its slow stretches away.
pub fn keep_slices(steal: &[f64], len_s: &[f64], clean: f64) -> Vec<bool> {
    let total: f64 = len_s.iter().sum();
    let keep: Vec<bool> = steal.iter().map(|&s| s <= clean).collect();
    let kept: f64 = len_s
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(l, _)| l)
        .sum();
    if 2.0 * kept >= total {
        return keep;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut keep = vec![false; steal.len()];
    let mut kept = 0.0;
    for i in order {
        if 2.0 * kept >= total {
            break;
        }
        keep[i] = true;
        kept += len_s[i];
    }
    keep
}

/// `(median, min, max)` of repeated measurements of one quantity.
pub fn spread(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (median(values), min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_summary_is_ordered_and_counts_its_tail() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let l = Latency::of(&xs).expect("non-empty");
        assert!(l.p50 <= l.p99 && l.p99 <= l.max);
        assert_eq!(l.n, 2000);
        assert_eq!(l.beyond_p99, 20);
        assert!(Latency::of(&[]).is_none());
    }

    #[test]
    fn slices_keep_the_clean_ones_or_the_cleanest_half() {
        let len = [1.0; 6];
        let all_clean = keep_slices(&[0.0, 0.01, 0.0, 0.02, 0.0, 0.0], &len, 0.02);
        assert!(all_clean.iter().all(|&k| k));
        let mostly_clean = keep_slices(&[0.0, 0.3, 0.0, 0.3, 0.0, 0.3], &len, 0.02);
        assert_eq!(mostly_clean, [true, false, true, false, true, false]);
        let disturbed = keep_slices(&[0.2, 0.1, 0.3, 0.1, 0.5, 0.05], &len, 0.02);
        assert_eq!(disturbed, [false, true, false, true, false, true]);
        assert!(keep_slices(&[], &[], 0.02).is_empty());
    }
}
