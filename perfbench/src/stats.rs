//! Order statistics the benchmark reports: medians and tail percentiles.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a p99 needs at least 1000 samples. The closed and open
//! loops size their runs with [`min_samples_for`].
//!
//! Runs report each statistic as its median over consecutive windows of the
//! run (at least [`TAIL_WINDOW`] samples for a p99): on a shared machine, a
//! spell of host contention then moves the windows it falls in, not the
//! reported figure. A p99 is taken over the whole run instead when fewer
//! than [`MIN_TAIL_WINDOWS`] windows fit, since the median of two window
//! p99s is only their mean.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of length `n`:
/// the smallest index whose rank covers `q·n` samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Number of samples beyond the nearest-rank quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank_index(n, q)
}

/// Smallest sample size with at least [`MIN_BEYOND`] samples beyond `q`.
pub fn min_samples_for(q: f64) -> usize {
    let mut n = 1;
    while beyond(n, q) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Nearest-rank quantile of an unsorted sample (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), q)]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile that has at least [`MIN_BEYOND`] samples beyond it,
/// or `None` when the sample is too small to support it.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    (!values.is_empty() && beyond(values.len(), q) >= MIN_BEYOND).then(|| quantile(values, q))
}

/// Samples per window for a p99 with [`MIN_BEYOND`] samples beyond it.
pub const TAIL_WINDOW: usize = 1100;
/// Fewest windows whose median a tail percentile is reported as.
pub const MIN_TAIL_WINDOWS: usize = 3;

/// Consecutive windows covering `n` samples: `per` samples each, the last
/// one taking the remainder (a single window when there are fewer).
pub fn windows(n: usize, per: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / per).max(1);
    (0..k)
        .map(|i| i * per..if i + 1 == k { n } else { (i + 1) * per })
        .collect()
}

/// Median over the `per`-sample windows of `values` of a statistic.
pub fn windowed(values: &[f64], per: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let each: Vec<f64> = windows(values.len(), per)
        .into_iter()
        .map(|r| stat(&values[r]))
        .collect();
    median(&each)
}

/// Tail percentile `q` of a run: the median over its `per`-sample windows
/// when at least [`MIN_TAIL_WINDOWS`] fit, else over the whole run; `None`
/// when the run is too small to support it.
pub fn windowed_tail(values: &[f64], per: usize, q: f64) -> Option<f64> {
    if values.len() / per < MIN_TAIL_WINDOWS {
        return tail(values, q);
    }
    let each: Option<Vec<f64>> = windows(values.len(), per)
        .into_iter()
        .map(|r| tail(&values[r], q))
        .collect();
    each.map(|v| median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(min_samples_for(0.5), 20);
    }

    #[test]
    fn tail_refuses_small_samples() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: the 990th value; ten values (991..=1000) lie beyond.
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn windows_cover_the_sample_and_hold_a_p99() {
        for n in [0, 5, 1099, 1100, 2199, 2200, 3302, 10_000] {
            let w = windows(n, TAIL_WINDOW);
            assert_eq!(w.first().map(|r| r.start), Some(0));
            assert_eq!(w.last().map(|r| r.end), Some(n));
            assert!(w.windows(2).all(|p| p[0].end == p[1].start));
            if n >= TAIL_WINDOW {
                assert!(w
                    .iter()
                    .all(|r| r.len() >= TAIL_WINDOW && beyond(r.len(), 0.99) >= MIN_BEYOND));
            } else {
                assert_eq!(w.len(), 1);
            }
        }
    }

    #[test]
    fn windowed_median_ignores_one_bad_window() {
        let mut v = vec![1.0; 3 * TAIL_WINDOW];
        for x in v.iter_mut().take(TAIL_WINDOW) {
            *x = 50.0;
        }
        assert_eq!(windowed(&v, 100, median), 1.0);
        assert_eq!(windowed(&v, TAIL_WINDOW, |w| tail(w, 0.99).unwrap()), 1.0);
        assert_eq!(windowed_tail(&v, TAIL_WINDOW, 0.99), Some(1.0));
    }

    #[test]
    fn windowed_tail_takes_the_whole_run_below_three_windows() {
        // Two windows: one p99 over all 2200 samples (22 beyond it), not the
        // mean of the two window p99s.
        let mut v = vec![1.0; 2 * TAIL_WINDOW];
        for x in v.iter_mut().rev().take(15) {
            *x = 50.0;
        }
        assert_eq!(windowed_tail(&v, TAIL_WINDOW, 0.99), Some(1.0));
        assert_eq!(windowed(&v, TAIL_WINDOW, |w| tail(w, 0.99).unwrap()), 25.5);
        assert_eq!(windowed_tail(&v[..999], TAIL_WINDOW, 0.99), None);
        assert_eq!(windowed_tail(&v[..1000], TAIL_WINDOW, 0.99), Some(1.0));
    }

    #[test]
    fn quantile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }
}
