//! Order statistics over a handful of timing samples.
//!
//! Quantiles are nearest-rank, the convention the simulator's own
//! `Histogram` and `QuantileSketch` use: the q-quantile of n sorted samples
//! is the one at 1-based rank `ceil(q·n)`. It always returns a value that
//! was measured, never an interpolation between two.

/// Five-number summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count. With `n < 20` only the median is a reportable
    /// percentile; quartiles and extremes are printed as context.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Nearest-rank quantile of an ascending-sorted, non-empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarize `samples` (any order, non-empty, no NaN).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: nearest_rank(&sorted, 0.25),
        median: nearest_rank(&sorted, 0.5),
        q3: nearest_rank(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_n_picks_the_middle_sample() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // ranks ceil(1.25)=2, ceil(2.5)=3, ceil(3.75)=4
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn even_n_picks_the_lower_middle_sample() {
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]);
        // ranks ceil(1)=1, ceil(2)=2, ceil(3)=3
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 10.0, 20.0));
    }

    #[test]
    fn one_sample_is_every_quantile() {
        let s = summarize(&[7.5]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!(nearest_rank(&[7.5], 0.0), 7.5);
        assert_eq!(nearest_rank(&[7.5], 1.0), 7.5);
    }
}
