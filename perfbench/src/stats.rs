//! The benchmark's own arithmetic: percentiles with their sample counts,
//! time windows and the quiet ones among them, goodput with
//! failures counted as misses, histogram deltas and medians.

use dtdbd_serve::HistogramSnapshot;

/// A percentile together with the samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly above the chosen rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `values` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `values` (the mean of the two middle samples for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Answers per second within `limit_ms` at an offered rate of
/// `offered_rps`: the rate times the share of the sent requests that were
/// answered in time. Dividing by the requests actually sent, not by the
/// window's length, cancels the noise of the Poisson arrival count. Each
/// outcome is the request's latency in milliseconds, or `None` for a failed
/// request; a failure is a miss however fast it failed. 0 when nothing was
/// sent.
pub fn goodput(outcomes: &[Option<f64>], limit_ms: f64, offered_rps: f64) -> f64 {
    let good = outcomes
        .iter()
        .filter(|o| matches!(o, Some(ms) if *ms <= limit_ms))
        .count();
    offered_rps * ratio(good as f64, outcomes.len() as f64)
}

/// Split timed outcomes into consecutive windows of `window_s` seconds by
/// their time stamp (seconds from the phase start). Only whole windows
/// inside `span_s` are kept, so every window covers the same time.
pub fn windows(
    samples: &[(f64, Option<f64>)],
    window_s: f64,
    span_s: f64,
) -> Vec<Vec<Option<f64>>> {
    let n = (span_s / window_s).floor() as usize;
    let mut out = vec![Vec::new(); n];
    for &(t, outcome) in samples {
        let w = (t / window_s).floor();
        if w >= 0.0 && (w as usize) < n {
            out[w as usize].push(outcome);
        }
    }
    out
}

/// The windows a run's figures are read from: every window whose steal
/// share is at most `limit`, or, when fewer than `min` are, the `min`
/// windows with the least steal (ties in window order). On a shared host,
/// time stolen by other tenants only ever makes a window slower, so the
/// quiet windows track the program and the others absorb the host.
pub fn quiet_windows(steal: &[f64], limit: f64, min: usize) -> Vec<usize> {
    let quiet: Vec<usize> = (0..steal.len()).filter(|&w| steal[w] <= limit).collect();
    if quiet.len() >= min {
        return quiet;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(min);
    order.sort_unstable();
    order
}

/// The outcomes of the chosen windows, pooled.
pub fn pooled(windows: &[Vec<Option<f64>>], chosen: &[usize]) -> Vec<Option<f64>> {
    chosen
        .iter()
        .filter_map(|&w| windows.get(w))
        .flatten()
        .copied()
        .collect()
}

/// The `q`-percentile of the successful outcomes among `outcomes`.
pub fn outcome_percentile(outcomes: &[Option<f64>], q: f64) -> Option<Percentile> {
    percentile(&outcomes.iter().flatten().copied().collect::<Vec<_>>(), q)
}

/// The observations recorded into a cumulative histogram between two of
/// its snapshots.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = after.clone();
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets.iter()) {
        *d -= b;
    }
    delta.sum_ns -= before.sum_ns;
    delta.count -= before.count;
    delta
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_sample_count() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        let p90 = percentile(&values, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = percentile(&values, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        // Small samples: the rank rounds up and never leaves the range.
        let three = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&three, 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&three, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&three, 1.0).unwrap().beyond, 0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn goodput_counts_failures_as_misses() {
        let outcomes = [Some(1.0), Some(10.0), None, Some(25.0), None, Some(20.0)];
        // Within 20 ms: 1.0, 10.0 and 20.0 of six sent; the two failures
        // never count.
        assert_eq!(goodput(&outcomes, 20.0, 600.0), 300.0);
        assert_eq!(goodput(&[None, None], 1e9, 100.0), 0.0);
        // The same share of a window with more arrivals gives the same
        // goodput: the arrival count cancels.
        let more: Vec<_> = outcomes.iter().cycle().take(12).copied().collect();
        assert_eq!(goodput(&more, 20.0, 600.0), 300.0);
        assert_eq!(goodput(&[], 20.0, 600.0), 0.0);
    }

    #[test]
    fn windows_keep_only_whole_windows() {
        let samples = [
            (0.1, Some(1.0)),
            (0.9, None),
            (1.2, Some(3.0)),
            (2.5, Some(9.0)), // beyond the last whole window of a 2.5 s span
        ];
        let w = windows(&samples, 1.0, 2.5);
        assert_eq!(w, vec![vec![Some(1.0), None], vec![Some(3.0)]]);
    }

    #[test]
    fn quiet_windows_keep_the_quiet_ones_or_the_least_stolen() {
        let steal = [0.10, 0.01, 0.05, 0.00, 0.03, 0.20];
        // Three windows are within 3%: all of them, in window order.
        assert_eq!(quiet_windows(&steal, 0.03, 2), vec![1, 3, 4]);
        // Too few within 1%: the four least stolen instead.
        assert_eq!(quiet_windows(&steal, 0.01, 4), vec![1, 2, 3, 4]);
        // Never more windows than there are.
        assert_eq!(quiet_windows(&steal[..2], 0.0, 5), vec![0, 1]);
    }

    #[test]
    fn pooled_percentile_reads_only_the_chosen_windows() {
        let w = vec![
            vec![Some(3.0), Some(3.0)],
            vec![Some(2.0), None],
            vec![Some(100.0), Some(100.0), Some(100.0)],
        ];
        let chosen = pooled(&w, &[0, 1]);
        assert_eq!(chosen.len(), 4);
        // The failure is skipped: the median of 2, 3, 3.
        let p = outcome_percentile(&chosen, 0.5).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (3.0, 3, 1));
        assert!(outcome_percentile(&[None], 0.5).is_none());
    }

    #[test]
    fn histogram_delta_subtracts_every_field() {
        let mut before = HistogramSnapshot::empty();
        before.buckets[3] = 2;
        before.sum_ns = 100;
        before.count = 2;
        let mut after = before.clone();
        after.buckets[3] = 5;
        after.buckets[7] = 1;
        after.sum_ns = 400;
        after.count = 6;
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.buckets[3], 3);
        assert_eq!(delta.buckets[7], 1);
        assert_eq!((delta.sum_ns, delta.count), (300, 4));
    }
}
