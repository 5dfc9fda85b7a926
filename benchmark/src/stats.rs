//! Exact-sort statistics. The benchmark carries its own so that no
//! histogram type of the program under test can change what a number
//! means.

/// Nearest-rank percentile of an ascending-sorted series: the
/// smallest value with at least `q` of the samples at or below it.
/// `q` is in `0.0..=1.0`; an empty series reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `values` and return the requested percentiles, in microseconds.
pub fn percentiles_us(mut nanos: Vec<u64>, qs: &[f64]) -> Vec<f64> {
    nanos.sort_unstable();
    qs.iter()
        .map(|&q| percentile(&nanos, q) as f64 / 1e3)
        .collect()
}

/// Median of a series (mean of the middle two when the count is even);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The largest of a series; 0 when empty. A run's throughput is this
/// over its windows: interference only ever slows a window down.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The smallest of a series; 0 when empty. A run's latencies and its
/// set-up time are this over its windows and set-ups.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The quiet windows of a run, as indices into `rps`: the tenth of the
/// windows (at least one) that completed the most ops per second. A
/// window's latencies count only if it is one of these: when the host
/// takes the CPU away for half a window one client can starve, and the
/// other then reads a lower latency than the quiet machine ever gives.
pub fn quiet_windows(rps: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rps.len()).collect();
    order.sort_by(|&a, &b| rps[b].total_cmp(&rps[a]));
    order.truncate((rps.len() / 10).max(1).min(rps.len()));
    order
}

/// `(max − min) / median`: how far the windows of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (highest(values) - lowest(values)) / mid
}

/// `numerator / denominator`, 0 when the denominator is 0 (a metric
/// that does not apply to a workload reads 0).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, written the slow way: count samples at or below
    /// each candidate.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let need = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        *sorted
            .iter()
            .find(|&&v| sorted.iter().filter(|&&w| w <= v).count() >= need)
            .unwrap()
    }

    #[test]
    fn nearest_rank_matches_the_counting_definition() {
        let mut state = 9u64;
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut series: Vec<u64> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 40
                })
                .collect();
            series.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    percentile(&series, q),
                    oracle(&series, q),
                    "len {len} q {q}"
                );
            }
        }
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), 50);
        assert_eq!(percentile(&hundred, 0.9), 90);
        assert_eq!(percentile(&hundred, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn best_of_windows_ignores_every_slowed_window() {
        assert_eq!(highest(&[61.0, 70.5, 52.0, 70.0]), 70.5);
        assert_eq!(lowest(&[31.0, 25.5, 40.0]), 25.5);
        assert_eq!((highest(&[]), lowest(&[])), (0.0, 0.0));
    }

    #[test]
    fn quiet_windows_are_the_fastest_tenth() {
        let rps: Vec<f64> = (0..30).map(|i| ((i * 7) % 30) as f64).collect();
        let mut quiet = quiet_windows(&rps);
        quiet.sort_unstable();
        // 27, 28 and 29 ops/s sit at i * 7 % 30: i = 21, 4, 17.
        assert_eq!(quiet, vec![4, 17, 21]);
        assert_eq!(quiet_windows(&[5.0, 9.0, 7.0]), vec![1]);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn median_ignores_one_stalled_window() {
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 3.0]), 100.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
