//! Seeded randomness for deterministic simulations.
//!
//! All randomness in a simulation flows from a single root `u64` seed.
//! Components derive independent named streams with [`SimRng::stream`], so
//! adding a component (or reordering calls) never perturbs the draws seen
//! by another component.
//!
//! Samplers beyond the uniform ones are hand-rolled (Box–Muller for the
//! normal family) to keep the dependency set minimal.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::time::SimDuration;

/// Deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    rng: SmallRng,
}

/// FNV-1a, used to mix a stream label into the root seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; decorrelates seeds that differ in few bits.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// A stream derived directly from a seed.
    pub fn from_seed(seed: u64) -> SimRng {
        SimRng {
            rng: SmallRng::seed_from_u64(splitmix64(seed)),
        }
    }

    /// The stream identified by `(root_seed, label)`.
    pub fn stream(root_seed: u64, label: &str) -> SimRng {
        SimRng::from_seed(root_seed ^ fnv1a(label.as_bytes()))
    }

    /// Uniform `u64` in `range`.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        self.rng.random_range(range)
    }

    /// Uniform `usize` in `range`.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        self.rng.random_range(range)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit_f64()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Log-normal parameterized by the *mean* of the distribution itself and
    /// the coefficient of variation (`std_dev / mean`) — the natural way to
    /// specify a latency model ("53 ms mean, 20% spread").
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if cv <= 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.std_normal()).exp()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit_f64();
        -mean * u.ln()
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` (s=1 is classic).
    ///
    /// Uses inverse-CDF over precomputable weights; for simulation-sized `n`
    /// a rejection-free linear scan over a cached CDF would be heavy to
    /// rebuild per call, so this uses the approximation of Gray's method:
    /// rejection sampling against a bounding envelope. Deterministic given
    /// the stream state.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let n_f = n as f64;
        if (s - 1.0).abs() < 1e-9 {
            // Envelope for s = 1: H(n) ~ ln(n) + gamma.
            loop {
                let u = self.unit_f64();
                let x = (n_f + 1.0).powf(u) - 1.0; // inverse of envelope CDF
                let k = x.floor() as usize;
                if k >= n {
                    continue;
                }
                let accept = (k as f64 + 1.0) / (k as f64 + 2.0) * (x + 1.0) / (k as f64 + 1.0);
                if self.unit_f64() < accept.min(1.0) {
                    return k;
                }
            }
        }
        // General s: inverse transform on the continuous envelope
        // f(x) = x^-s over [1, n+1], then accept/reject.
        let one_minus_s = 1.0 - s;
        let b = (n_f + 1.0).powf(one_minus_s);
        loop {
            let u = self.unit_f64();
            let x = (1.0 + u * (b - 1.0)).powf(1.0 / one_minus_s);
            let k = (x.floor() as usize).saturating_sub(1);
            if k >= n {
                continue;
            }
            let accept = ((k + 1) as f64 / x).powf(s);
            if self.unit_f64() < accept.min(1.0) {
                return k;
            }
        }
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range_usize(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.range_usize(0..xs.len())])
        }
    }

    /// Raw access to the underlying RNG for `rand` APIs.
    pub fn raw(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A parameterized latency distribution used throughout the service crates.
///
/// Every service latency in the cloud profile is one of these, so an
/// experiment can switch between exact paper-calibrated constants and
/// realistic spreads without touching service code.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this long.
    Constant(SimDuration),
    /// Uniform between the two bounds.
    Uniform(SimDuration, SimDuration),
    /// Normal with mean/std, truncated below at `floor`.
    Normal {
        /// Mean of the untruncated distribution.
        mean: SimDuration,
        /// Standard deviation.
        std_dev: SimDuration,
        /// Samples below this are clamped up to it.
        floor: SimDuration,
    },
    /// Log-normal given mean and coefficient of variation, floored.
    LogNormal {
        /// Mean of the distribution itself (not of the underlying normal).
        mean: SimDuration,
        /// Coefficient of variation (`std_dev / mean`).
        cv: f64,
        /// Samples below this are clamped up to it.
        floor: SimDuration,
    },
    /// Exponential with the given mean, shifted up by `base`.
    ShiftedExponential {
        /// Constant added to every sample.
        base: SimDuration,
        /// Mean of the exponential component.
        mean_extra: SimDuration,
    },
}

impl LatencyModel {
    /// Draw one latency.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                SimDuration::from_secs_f64(rng.uniform(lo.as_secs_f64(), hi.as_secs_f64()))
            }
            LatencyModel::Normal {
                mean,
                std_dev,
                floor,
            } => {
                let v = rng.normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                SimDuration::from_secs_f64(v).max(floor)
            }
            LatencyModel::LogNormal { mean, cv, floor } => {
                let v = rng.lognormal_mean_cv(mean.as_secs_f64(), cv);
                SimDuration::from_secs_f64(v).max(floor)
            }
            LatencyModel::ShiftedExponential { base, mean_extra } => {
                base + SimDuration::from_secs_f64(rng.exponential(mean_extra.as_secs_f64()))
            }
        }
    }

    /// The exact mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(lo, hi) => (lo + hi) / 2,
            LatencyModel::Normal { mean, .. } => mean,
            LatencyModel::LogNormal { mean, .. } => mean,
            LatencyModel::ShiftedExponential { base, mean_extra } => base + mean_extra,
        }
    }

    /// Replace the distribution with a constant at its mean — used by the
    /// "exact reproduction" cloud profile.
    pub fn to_constant(&self) -> LatencyModel {
        LatencyModel::Constant(self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let mut a1 = SimRng::stream(7, "alpha");
        let mut a2 = SimRng::stream(7, "alpha");
        let mut b = SimRng::stream(7, "beta");
        let xs1: Vec<u64> = (0..10).map(|_| a1.range_u64(0..1_000_000)).collect();
        let xs2: Vec<u64> = (0..10).map(|_| a2.range_u64(0..1_000_000)).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.range_u64(0..1_000_000)).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::from_seed(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.06, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.06, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_mean_matches_parameter() {
        let mut rng = SimRng::from_seed(12);
        let n = 40_000;
        let mean = (0..n)
            .map(|_| rng.lognormal_mean_cv(0.053, 0.2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.053).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn lognormal_degenerate_cases() {
        let mut rng = SimRng::from_seed(13);
        assert_eq!(rng.lognormal_mean_cv(0.0, 0.5), 0.0);
        assert_eq!(rng.lognormal_mean_cv(2.0, 0.0), 2.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::from_seed(14);
        let n = 40_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.08, "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SimRng::from_seed(15);
        let n = 1_000;
        let mut counts = vec![0u32; n];
        for _ in 0..50_000 {
            let k = rng.zipf(n, 1.0);
            assert!(k < n);
            counts[k] += 1;
        }
        // Rank 0 must dominate rank 99 heavily under s=1.
        assert!(counts[0] > counts[99] * 10, "{} vs {}", counts[0], counts[99]);
        // And the tail must still be reachable.
        assert!(counts[500..].iter().any(|&c| c > 0));
    }

    #[test]
    fn zipf_general_exponent() {
        let mut rng = SimRng::from_seed(16);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[rng.zipf(100, 1.5)] += 1;
        }
        assert!(counts[0] > counts[9] * 5);
        assert_eq!(rng.zipf(1, 1.5), 0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::from_seed(17);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = SimRng::from_seed(18);
        let empty: &[u32] = &[];
        assert!(rng.choose(empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn latency_models_sample_near_mean() {
        let mut rng = SimRng::from_seed(19);
        let models = [
            LatencyModel::Constant(SimDuration::from_millis(53)),
            LatencyModel::Uniform(SimDuration::from_millis(40), SimDuration::from_millis(66)),
            LatencyModel::Normal {
                mean: SimDuration::from_millis(53),
                std_dev: SimDuration::from_millis(5),
                floor: SimDuration::from_millis(1),
            },
            LatencyModel::LogNormal {
                mean: SimDuration::from_millis(53),
                cv: 0.1,
                floor: SimDuration::from_millis(1),
            },
            LatencyModel::ShiftedExponential {
                base: SimDuration::from_millis(50),
                mean_extra: SimDuration::from_millis(3),
            },
        ];
        for m in &models {
            let n = 20_000;
            let total: f64 = (0..n).map(|_| m.sample(&mut rng).as_secs_f64()).sum();
            let mean = total / n as f64;
            let want = m.mean().as_secs_f64();
            assert!(
                (mean - want).abs() < want * 0.03,
                "{m:?}: got {mean}, want {want}"
            );
        }
    }

    #[test]
    fn to_constant_collapses_spread() {
        let m = LatencyModel::LogNormal {
            mean: SimDuration::from_millis(53),
            cv: 0.10,
            floor: SimDuration::from_micros(26_500),
        }
        .to_constant();
        let mut rng = SimRng::from_seed(20);
        let a = m.sample(&mut rng);
        let b = m.sample(&mut rng);
        assert_eq!(a, b);
        assert_eq!(a, SimDuration::from_millis(53));
    }
}
