//! Differential tests for the streaming quantile sketch: on sample sets
//! small enough to materialize, the sketch's percentile estimates must sit
//! within its configured relative-error bound of the exact nearest-rank
//! percentiles over the sorted sample vector. And the sketch's contiguous
//! bucket store must answer exactly like the sparse `BTreeMap` store it
//! replaced, kept here as the oracle.

use std::collections::BTreeMap;

use faasim_simcore::{nearest_rank, Histogram, SimRng};
use faasim_trace::{replay_with, QuantileSketch, ReplayConfig, TraceConfig};
use proptest::prelude::*;

/// The sketch as it was first written: one `BTreeMap` entry per occupied
/// log bucket. Same bucketing, same nearest-rank walk, same midpoint
/// estimate — only the store differs — so every answer must match the
/// production sketch to the bit.
struct BTreeSketch {
    gamma: f64,
    buckets: BTreeMap<i32, u64>,
    zeros: u64,
    count: u64,
    sum: f64,
    max: f64,
}

impl BTreeSketch {
    fn new(alpha: f64) -> BTreeSketch {
        BTreeSketch {
            gamma: (1.0 + alpha) / (1.0 - alpha),
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn insert(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        if v < 1e-9 {
            self.zeros += 1;
        } else {
            let idx = (v.ln() / self.gamma.ln()).ceil() as i32;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    fn merge(&mut self, other: &BTreeSketch) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zeros > 0)
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cum = self.zeros;
        if target < cum {
            return 0.0;
        }
        for (&idx, &n) in &self.buckets {
            cum += n;
            if target < cum {
                return 2.0 * self.gamma.powi(idx) / (self.gamma + 1.0);
            }
        }
        self.max
    }
}

/// A sample stream that moves the store's ends both ways: lognormal
/// latencies spread over `decades`, with zeros, sub-threshold values,
/// negatives and non-finite junk mixed in.
fn messy_samples(seed: u64, n: usize, decades: f64) -> Vec<f64> {
    let mut rng = SimRng::stream(seed, "sketch.oracle");
    (0..n)
        .map(|_| match rng.range_u64(0..20) {
            0 => 0.0,
            1 => 1e-12,
            2 => -3.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => 10f64.powf((rng.unit_f64() - 0.5) * decades),
        })
        .collect()
}

fn assert_same_answers(sketch: &QuantileSketch, oracle: &BTreeSketch) {
    assert_eq!(sketch.count(), oracle.count);
    assert_eq!(sketch.sum().to_bits(), oracle.sum.to_bits());
    assert_eq!(sketch.bucket_count(), oracle.bucket_count());
    for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(sketch.quantile(q).to_bits(), oracle.quantile(q).to_bits(), "q={q}");
    }
}

/// `n` execution times drawn the way the replay's handler draws them: a
/// function picked as the trace picks it (Zipf app, Zipf function), its
/// mean from `function_profile`'s log-uniform draw on the function's own
/// stream, then one `lognormal_mean_cv` sample around that mean.
fn handler_draws(cfg: &TraceConfig, seed: u64, n: usize) -> Vec<f64> {
    let (lo, hi) = cfg.exec_mean_ms;
    let mean_secs = |app: usize, func: usize| {
        let mut rng = SimRng::stream(seed, &format!("trace.fn.{app}.{func}"));
        lo * (hi / lo).powf(rng.unit_f64()) / 1e3
    };
    let mut rng = SimRng::stream(seed, "sketch.handler");
    (0..n)
        .map(|_| {
            let app = rng.zipf(cfg.apps as usize, cfg.zipf_s);
            let func = rng.zipf(cfg.funcs_per_app as usize, cfg.func_zipf_s);
            rng.lognormal_mean_cv(mean_secs(app, func), cfg.exec_cv)
        })
        .collect()
}

#[test]
fn sketch_matches_exact_percentiles_on_a_50k_replay() {
    let mut cfg = ReplayConfig::small();
    cfg.trace.total_rate = 180.0; // ~54k arrivals over five minutes ...
    cfg.trace.max_events = 50_000; // ... capped at the 50k bound
    // Wiring: with no gateway and no retry layer the client's latency and
    // the platform's `InvokeOutcome::total` span the same two instants and
    // complete in the same order, so the report's sketch and the
    // recorder's `faas.invoke.total` summarize the same series.
    cfg.gateway = None;
    cfg.retry = None;
    let mut recorded = Histogram::new();
    let out = replay_with(&cfg, 2019, &|_| {}, &mut |cloud| {
        recorded = cloud.recorder.histogram("faas.invoke.total");
    });
    assert_eq!(recorded.count() as u64, out.report.invocations);
    assert!(out.report.invocations > 40_000, "trace came out too small");
    let mean = recorded.mean();
    assert!((out.report.latency_mean - mean).abs() <= 1e-9 * mean);

    // Accuracy: over 50k samples of the handler's distribution every
    // reported percentile sits within α of the exact nearest-rank value.
    let samples = handler_draws(&cfg.trace, 2019, 50_000);
    let mut sketch = QuantileSketch::with_default_error();
    for &v in &samples {
        sketch.insert(v);
    }
    let mut sorted = samples;
    sorted.sort_by(f64::total_cmp);
    let alpha = sketch.relative_error();
    for (q, est) in [
        (0.50, sketch.p50()),
        (0.95, sketch.p95()),
        (0.99, sketch.p99()),
        (0.999, sketch.p999()),
    ] {
        let exact = nearest_rank(&sorted, q);
        assert!(
            (est - exact).abs() <= alpha * exact + 1e-12,
            "q={q}: sketch {est} vs exact {exact} (α={alpha})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contiguous_store_answers_like_the_btreemap_store(
        seed in 0u64..10_000,
        n in 0usize..2_000,
        decades in 0.0f64..16.0,
        alpha in 0.005f64..0.2,
    ) {
        let samples = messy_samples(seed, n, decades);
        let mut sketch = QuantileSketch::new(alpha);
        let mut oracle = BTreeSketch::new(alpha);
        for &v in &samples {
            sketch.insert(v);
            oracle.insert(v);
        }
        assert_same_answers(&sketch, &oracle);

        // Merging a disjoint-range sketch extends the store on both sides.
        let mut other = QuantileSketch::new(alpha);
        let mut other_oracle = BTreeSketch::new(alpha);
        for &v in &messy_samples(seed + 1, n / 2, decades + 4.0) {
            other.insert(v);
            other_oracle.insert(v);
        }
        sketch.merge(&other);
        oracle.merge(&other_oracle);
        assert_same_answers(&sketch, &oracle);
    }

    #[test]
    fn sketch_tracks_exact_quantiles_on_lognormal_data(
        seed in 0u64..10_000,
        n in 100usize..3_000,
        cv in 0.2f64..3.0,
    ) {
        let mut rng = SimRng::stream(seed, "sketch.diff");
        let mut sketch = QuantileSketch::with_default_error();
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.lognormal_mean_cv(0.25, cv);
            sketch.insert(v);
            vals.push(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = nearest_rank(&vals, q);
            let est = sketch.quantile(q);
            prop_assert!(
                (est - exact).abs() <= sketch.relative_error() * exact + 1e-12,
                "q={}: sketch {} vs exact {}", q, est, exact
            );
        }
    }
}
