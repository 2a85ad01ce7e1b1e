//! A deterministic streaming quantile sketch with bounded *relative*
//! error, in the spirit of DDSketch: values are counted in logarithmic
//! buckets `(γ^(i-1), γ^i]` with `γ = (1+α)/(1-α)`, so any quantile
//! estimate is within `α` of the true sample value — regardless of how
//! many samples stream through — while memory stays bounded by the
//! *dynamic range* of the data, not its volume.
//!
//! Unlike randomized sketches (KLL, sampling reservoirs), bucketing is a
//! pure function of the value, so identical input streams produce
//! identical sketches in any order-preserving replay — exactly the
//! property the seed-sweep determinism harness asserts.

/// Smallest value tracked with relative error; anything below (including
/// zero) lands in a dedicated zero bucket reported as `0.0`.
const MIN_TRACKED: f64 = 1e-9;

/// Streaming quantile sketch with a guaranteed relative error bound.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Log-bucket counts: `buckets[i]` counts bucket index `offset + i`,
    /// where a value's index is `ceil(ln(v) / ln γ)`. The store spans
    /// exactly the occupied index range (first and last entries are never
    /// zero), so equal sample multisets give equal sketches whatever the
    /// insertion order, and an insert is one indexed add.
    buckets: Vec<u64>,
    offset: i32,
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// A sketch whose quantile estimates are within `alpha` relative
    /// error (`0 < alpha < 1`) of the true sample values.
    pub fn new(alpha: f64) -> QuantileSketch {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            buckets: Vec::new(),
            offset: 0,
            zeros: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default 1% relative-error sketch used by the replay harness.
    pub fn with_default_error() -> QuantileSketch {
        QuantileSketch::new(0.01)
    }

    /// The configured relative error bound `α`.
    pub fn relative_error(&self) -> f64 {
        self.alpha
    }

    /// Record one (non-negative) sample.
    pub fn insert(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < MIN_TRACKED {
            self.zeros += 1;
        } else {
            let idx = (v.ln() / self.ln_gamma).ceil() as i32;
            *self.bucket_mut(idx) += 1;
        }
    }

    /// The count for bucket `idx`, growing the store to reach it. Callers
    /// add a nonzero amount, which keeps both ends of the store occupied.
    fn bucket_mut(&mut self, idx: i32) -> &mut u64 {
        if self.buckets.is_empty() {
            self.offset = idx;
        }
        if idx < self.offset {
            let grow = (self.offset - idx) as usize;
            self.buckets.splice(0..0, vec![0; grow]);
            self.offset = idx;
        }
        let i = (idx - self.offset) as usize;
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        &mut self.buckets[i]
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, not sketched).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all samples (exact, not sketched).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample seen (exact), `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (exact), `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Number of live buckets — the sketch's memory footprint, bounded by
    /// the data's dynamic range, not the sample count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.iter().filter(|&&n| n > 0).count() + usize::from(self.zeros > 0)
    }

    /// Estimate the `q`-quantile using the same nearest-rank convention
    /// as [`faasim_simcore::nearest_rank`], so differential tests compare
    /// like with like. The estimate is within `α` relative error of the
    /// sample an exact sorted-vector lookup would return.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count - 1) as f64 * q).round() as u64;
        let mut cum = self.zeros;
        if target < cum {
            return 0.0;
        }
        for (idx, &n) in (self.offset..).zip(&self.buckets) {
            cum += n;
            if target < cum {
                // Harmonic midpoint of (γ^(i-1), γ^i]: relative error to
                // any value in the bucket is at most (γ-1)/(γ+1) = α.
                return 2.0 * self.gamma.powi(idx) / (self.gamma + 1.0);
            }
        }
        self.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Fold another sketch into this one.
    ///
    /// # Panics
    /// Panics if the two sketches were built with different `α`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different error bounds"
        );
        for (idx, &n) in (other.offset..).zip(&other.buckets) {
            if n > 0 {
                *self.bucket_mut(idx) += n;
            }
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zero() {
        let s = QuantileSketch::with_default_error();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_value_within_bound() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(0.302);
        let est = s.p50();
        assert!((est - 0.302).abs() <= 0.01 * 0.302 + 1e-12, "est {est}");
    }

    #[test]
    fn uniform_ramp_quantiles_within_bound() {
        let mut s = QuantileSketch::new(0.01);
        let mut exact: Vec<f64> = Vec::new();
        for i in 1..=10_000u64 {
            let v = i as f64 / 1000.0;
            s.insert(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let idx = ((exact.len() - 1) as f64 * q).round() as usize;
            let truth = exact[idx];
            let est = s.quantile(q);
            assert!(
                (est - truth).abs() <= 0.01 * truth + 1e-12,
                "q={q}: est {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn zeros_are_exact() {
        let mut s = QuantileSketch::new(0.05);
        for _ in 0..10 {
            s.insert(0.0);
        }
        s.insert(5.0);
        assert_eq!(s.p50(), 0.0);
        let top = s.quantile(1.0);
        assert!((top - 5.0).abs() <= 0.05 * 5.0, "top {top}");
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut whole = QuantileSketch::new(0.02);
        for i in 1..=1000u64 {
            let v = (i as f64).sqrt();
            whole.insert(v);
            if i % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = QuantileSketch::new(0.01);
        for i in 0..1_000_000u64 {
            // Six decades of dynamic range.
            s.insert(1e-3 + (i % 997) as f64);
        }
        assert!(s.bucket_count() < 2000, "buckets {}", s.bucket_count());
    }
}
