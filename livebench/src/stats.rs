//! Sample summaries: medians, the tail-percentile rule, and counts.

use std::ops::Range;

/// Tail percentiles considered, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in integer arithmetic on tenths of a percent (so 99.9 % of 10 000 is
/// exactly rank 9 990, not one more through rounding error).
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(p, n)
}

/// The highest percentile in [`TAIL_CANDIDATES`] that keeps at least
/// [`MIN_BEYOND`] samples beyond it, or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (sorted in place): always a
/// measured value, never an interpolation.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    samples.get(rank(p, samples.len()) - 1).copied()
}

/// Median by the same nearest-rank rule.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Splits `0..n` into `parts` contiguous ranges whose lengths differ by
/// at most one (fewer parts when `n` is smaller than `parts`).
pub fn split_even(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts)
        .map(|i| i * n / parts..(i + 1) * n / parts)
        .collect()
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        // The benchmark's floor of 200 frames per subscriber buys p95...
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(beyond(95.0, 200), 10);
        assert_eq!(tail_percentile(999), Some(95.0));
        // ...and p99 needs five times as many.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 100..3_000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n = {n}");
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&c| c > p) {
                assert!(
                    beyond(higher, n) < MIN_BEYOND,
                    "n = {n}: {higher} also qualifies"
                );
            }
        }
    }

    #[test]
    fn percentiles_are_measured_values_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 95.0), Some(190.0));
        assert_eq!(median(&mut v), Some(100.0));
        assert_eq!(percentile(&mut v, 100.0), Some(200.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&mut []), None);
        // Exactly the samples above the p95 value are "beyond" it.
        let p95 = percentile(&mut v, 95.0).unwrap();
        assert_eq!(
            v.iter().filter(|&&x| x > p95).count(),
            beyond(95.0, v.len())
        );
    }

    #[test]
    fn even_splits_cover_every_index_once_in_order() {
        for n in [0, 1, 5, 199, 200, 2_345] {
            for parts in 1..9 {
                let w = split_even(n, parts);
                assert_eq!(w.first().unwrap().start, 0);
                assert_eq!(w.last().unwrap().end, n);
                assert!(w.windows(2).all(|p| p[0].end == p[1].start));
                let (lo, hi) = (n / parts.min(n.max(1)), n.div_ceil(parts.min(n.max(1))));
                assert!(
                    w.iter().all(|r| (lo..=hi).contains(&r.len())),
                    "n {n} parts {parts}"
                );
            }
        }
    }

    #[test]
    fn means_and_ratios_of_nothing_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
