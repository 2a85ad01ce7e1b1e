//! Seeded randomness for deterministic simulations.
//!
//! All randomness in a simulation flows from a single root `u64` seed.
//! Components derive independent named streams with [`SimRng::stream`], so
//! adding a component (or reordering calls) never perturbs the draws seen
//! by another component.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, and every
//! sampler is hand-rolled here (Box–Muller for the log-normal), so this
//! file alone fixes each stream bit for bit.

use std::ops::Range;

use crate::time::SimDuration;

/// Deterministic random stream: xoshiro256++ state.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

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
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// A stream derived directly from a seed: SplitMix64 expands the
    /// mixed seed into the four state words.
    pub fn from_seed(seed: u64) -> SimRng {
        let base = splitmix64(seed);
        let mut s = [0u64, 1, 2, 3].map(|i| splitmix64(base.wrapping_add(i.wrapping_mul(GOLDEN))));
        // xoshiro must not be seeded with all zeros.
        if s == [0; 4] {
            s[0] = GOLDEN;
        }
        SimRng { s }
    }

    /// The stream identified by `(root_seed, label)`.
    pub fn stream(root_seed: u64, label: &str) -> SimRng {
        SimRng::from_seed(root_seed ^ fnv1a(label.as_bytes()))
    }

    /// The next 64 uniform bits (one xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let (s2, s3) = (s2 ^ s0, s3 ^ s1);
        self.s = [s0 ^ s3, s1 ^ s2, s2 ^ (s1 << 17), s3.rotate_left(45)];
        result
    }

    /// Uniform `u64` in `range`, by widening multiply (no rejection).
    /// Panics on an empty range.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = (range.end - range.start) as u128;
        range.start + ((self.next_u64() as u128 * span) >> 64) as u64
    }

    /// Uniform `usize` in `range`. Panics on an empty range.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
    fn std_normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
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

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.range_usize(0..xs.len())])
        }
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
    /// Log-normal given mean and coefficient of variation, floored.
    LogNormal {
        /// Mean of the distribution itself (not of the underlying normal).
        mean: SimDuration,
        /// Coefficient of variation (`std_dev / mean`).
        cv: f64,
        /// Samples below this are clamped up to it.
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// Draw one latency.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::LogNormal { mean, cv, floor } => {
                let v = rng.lognormal_mean_cv(mean.as_secs_f64(), cv);
                SimDuration::from_secs_f64(v).max(floor)
            }
        }
    }

    /// The exact mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) | LatencyModel::LogNormal { mean: d, .. } => d,
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
        let xs: Vec<f64> = (0..n).map(|_| rng.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.03, "std {}", var.sqrt());
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
            LatencyModel::LogNormal {
                mean: SimDuration::from_millis(53),
                cv: 0.1,
                floor: SimDuration::from_millis(1),
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

    /// The first 8 results of every draw non-test code makes. Every golden
    /// pin rests on these streams; a generator, sampler or libm change
    /// that moves one fails here, at the draw, before it moves a digest.
    #[test]
    fn known_answers() {
        fn first8<T>(mut draw: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
            let mut rng = SimRng::stream(2019, "kat");
            (0..8).map(|_| draw(&mut rng)).collect()
        }
        let lat = LatencyModel::LogNormal {
            mean: SimDuration::from_millis(53),
            cv: 0.1,
            floor: SimDuration::from_micros(26_500),
        };
        assert_eq!(
            first8(|r| r.range_u64(0..1 << 40)),
            [
                347290212594,
                661359870342,
                833714842228,
                542144884603,
                605310221890,
                109408809363,
                766732765687,
                600961793758
            ]
        );
        assert_eq!(
            first8(|r| r.range_usize(3..17)),
            [7, 11, 13, 9, 10, 4, 12, 10]
        );
        assert_eq!(
            first8(SimRng::unit_f64),
            [
                0.3158586083325682,
                0.6015032980414616,
                0.7582592317959025,
                0.49307790013992236,
                0.5505264397379726,
                0.09950673244349817,
                0.6973393880687543,
                0.5465715673916324
            ]
        );
        assert_eq!(
            first8(|r| r.uniform(-1.0, 1.0)),
            [
                -0.36828278333486364,
                0.20300659608292326,
                0.516518463591805,
                -0.01384419972015527,
                0.1010528794759451,
                -0.8009865351130037,
                0.39467877613750857,
                0.09314313478326475
            ]
        );
        assert_eq!(
            first8(|r| r.chance(0.3)),
            [false, false, false, false, false, true, false, false]
        );
        assert_eq!(
            first8(|r| r.exponential(3.0)),
            [
                1.1387720092730578,
                2.760168170775872,
                4.259667998233802,
                2.0381938091621055,
                2.3990347413889177,
                0.3144377721999846,
                3.5854295816444908,
                2.372753499323586
            ]
        );
        assert_eq!(
            first8(|r| r.lognormal_mean_cv(0.053, 0.2)),
            [
                0.04524286196461452,
                0.03723553376111823,
                0.06367292983002253,
                0.03876480194855138,
                0.0575110448300119,
                0.06279371771622633,
                0.06184188790896614,
                0.03998075568496985
            ]
        );
        assert_eq!(
            first8(|r| r.zipf(1000, 1.0)),
            [7, 187, 43, 122, 3, 91, 14, 197]
        );
        assert_eq!(first8(|r| r.zipf(100, 1.5)), [8, 2, 6, 1, 9, 6, 0, 1]);
        assert_eq!(
            first8(|r| *r.choose(&[2u8, 3, 5, 7, 11]).unwrap()),
            [3, 7, 7, 5, 5, 2, 7, 5]
        );
        assert_eq!(
            first8(|r| lat.sample(r).as_nanos()),
            [49180009, 44584145, 58416859, 45497223, 55497500, 58009165, 57564592, 46210542]
        );
    }
}
