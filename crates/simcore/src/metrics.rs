//! Measurement collection: counters and summary histograms.
//!
//! Experiments record latencies and throughputs into a [`Recorder`], then
//! summarize them into the tables they print. A histogram keeps what its
//! readers read — count, insertion-order sum, min and max — so a series
//! costs four numbers however many samples it sees, and its mean is the
//! one a sample vector would give to the bit. Percentiles are for callers
//! that keep their own sorted samples ([`nearest_rank`]) or a sketch.
//!
//! Metric names are interned: the first `record`/`add` under a name pays
//! one allocation to register it, and every subsequent hit is a hash
//! lookup into a `u32` handle — no per-record `String` allocation, no
//! `BTreeMap` walk. Services skip even the hash lookup: they hold a
//! [`LazyCounter`] / [`LazyHist`] per series, which resolves its name on
//! first use and indexes from then on. Recording by name is for names
//! built at run time, tests and one-off call sites.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::fxhash::FxHashMap;
use crate::time::SimDuration;

/// A running summary of a sample series. Each statistic folds the samples
/// in insertion order exactly as the sample-vector formulas did
/// (`iter().sum() / n`, `reduce(f64::min)`, `reduce(f64::max)`), so every
/// reading is bit-identical to theirs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Histogram {
    count: usize,
    /// Starts at `-0.0`, the identity `Iterator::<f64>::sum` folds from.
    sum: f64,
    /// 0 until the first sample, which `reduce` starts from.
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: -0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. Non-finite samples are rejected with a panic —
    /// they always indicate a modeling bug.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "histogram sample must be finite, got {v}");
        if self.is_empty() {
            (self.min, self.max) = (v, v);
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Nearest-rank `q`-quantile of an ascending slice: the element at
/// `round((n - 1) · q)`, with `q` clamped to `[0, 1]`; 0 when empty. The
/// workspace's one percentile rule (`QuantileSketch` walks its buckets to
/// the same rank).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Interned handle to a histogram series (see [`Recorder::hist_id`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HistId(u32);

/// Interned handle to a counter series (see [`Recorder::counter_id`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CounterId(u32);

/// A counter handle that interns its name on first increment, then hits
/// the `u32` fast path forever after.
///
/// Services embed these for their hot-path counters. The lazy resolve
/// matters for determinism, not just startup cost: [`Recorder::digest`]
/// prints *every* interned series, zero-valued ones included, so
/// interning at construction would leak `counter x = 0` lines into the
/// digests of runs that never touch the counter. First-use interning is
/// byte-identical to recording by name.
#[derive(Clone)]
pub struct LazyCounter {
    name: &'static str,
    id: Cell<Option<CounterId>>,
}

impl LazyCounter {
    /// A handle for `name`, not yet interned.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            id: Cell::new(None),
        }
    }

    /// Add `n`, interning the name on first use.
    pub fn add(&self, recorder: &Recorder, n: u64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = recorder.counter_id(self.name);
                self.id.set(Some(id));
                id
            }
        };
        recorder.add_id(id, n);
    }

    /// Add 1, interning the name on first use.
    pub fn incr(&self, recorder: &Recorder) {
        self.add(recorder, 1);
    }
}

/// A histogram handle that interns its name on first sample; the
/// histogram twin of [`LazyCounter`], with the same digest rationale.
pub struct LazyHist {
    name: &'static str,
    id: Cell<Option<HistId>>,
}

impl LazyHist {
    /// A handle for `name`, not yet interned.
    pub const fn new(name: &'static str) -> LazyHist {
        LazyHist {
            name,
            id: Cell::new(None),
        }
    }

    /// Record one sample, interning the name on first use.
    pub fn record(&self, recorder: &Recorder, v: f64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = recorder.hist_id(self.name);
                self.id.set(Some(id));
                id
            }
        };
        recorder.record_id(id, v);
    }

    /// Record a duration in seconds, interning the name on first use.
    pub fn record_duration(&self, recorder: &Recorder, d: SimDuration) {
        self.record(recorder, d.as_secs_f64());
    }
}

/// One side of the registry: an intern table from name to `u32` handle
/// plus the values, indexed by handle.
struct Series<T> {
    index: FxHashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    values: Vec<T>,
}

impl<T> Default for Series<T> {
    fn default() -> Series<T> {
        Series {
            index: FxHashMap::default(),
            names: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Default> Series<T> {
    /// Handle for `name`, interning it on first use. The fast path is a
    /// single hash lookup with no allocation.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.index.insert(Box::from(name), id);
        self.names.push(Box::from(name));
        self.values.push(T::default());
        id
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&id| &self.values[id as usize])
    }

    /// Handles in name-sorted order, so reports stay byte-identical to
    /// the old `BTreeMap` layout regardless of interning order.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
        ids.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        ids
    }

    fn sorted_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.names.iter().map(|n| n.to_string()).collect();
        names.sort();
        names
    }
}

/// A shared registry of named histograms and counters.
///
/// Names are free-form; the convention in this workspace is
/// `"<service>.<operation>"`, e.g. `"blob.get"` or `"faas.invoke.cold"`.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Rc<RefCell<RecorderInner>>,
}

#[derive(Default)]
struct RecorderInner {
    histograms: Series<Histogram>,
    counters: Series<u64>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Interned handle for histogram `name`; lets hot loops skip the
    /// per-record name lookup entirely via [`Recorder::record_id`].
    pub fn hist_id(&self, name: &str) -> HistId {
        HistId(self.inner.borrow_mut().histograms.intern(name))
    }

    /// Interned handle for counter `name` (see [`Recorder::add_id`]).
    pub fn counter_id(&self, name: &str) -> CounterId {
        CounterId(self.inner.borrow_mut().counters.intern(name))
    }

    /// Record a floating-point sample under `name`.
    pub fn record(&self, name: &str, v: f64) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.histograms.intern(name);
        inner.histograms.values[id as usize].record(v);
    }

    /// Record a sample under a pre-interned handle — no name lookup.
    pub fn record_id(&self, id: HistId, v: f64) {
        self.inner.borrow_mut().histograms.values[id.0 as usize].record(v);
    }

    /// Record a duration sample (stored in seconds) under `name`.
    pub fn record_duration(&self, name: &str, d: SimDuration) {
        self.record(name, d.as_secs_f64());
    }

    /// Add `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.counters.intern(name);
        inner.counters.values[id as usize] += n;
    }

    /// Add `n` under a pre-interned handle — no name lookup.
    pub fn add_id(&self, id: CounterId, n: u64) {
        self.inner.borrow_mut().counters.values[id.0 as usize] += n;
    }

    /// Increment the counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the histogram `name` (empty if never touched).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .borrow()
            .histograms
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// All histogram names with at least one sample, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        self.inner.borrow().histograms.sorted_names()
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.inner.borrow().counters.sorted_names()
    }

    /// A plain-text digest of everything recorded, for debugging and for
    /// byte-exact determinism assertions in tests.
    pub fn digest(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        use fmt::Write;
        for id in inner.counters.sorted_ids() {
            let name = &inner.counters.names[id as usize];
            let count = inner.counters.values[id as usize];
            writeln!(out, "counter {name} = {count}").unwrap();
        }
        for id in inner.histograms.sorted_ids() {
            let name = &inner.histograms.names[id as usize];
            let h = &inner.histograms.values[id as usize];
            writeln!(
                out,
                "hist {name}: n={} mean={:.9} min={:.9} max={:.9}",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn basic_statistics() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn nearest_rank_picks_the_rounded_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 0.95), 95.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        // Out-of-range q clamps.
        assert_eq!(nearest_rank(&sorted, 2.0), 100.0);
        assert_eq!(nearest_rank(&sorted, -1.0), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        Histogram::new().record(f64::NAN);
    }

    /// The summary against the sample-vector formulas it replaced: mean,
    /// min and max to the bit, and the same digest line.
    fn assert_reads_like_the_sample_vector(samples: &[f64]) {
        let r = Recorder::new();
        let mut h = Histogram::new();
        for &v in samples {
            r.record("x", v);
            h.record(v);
        }
        let n = samples.len();
        let mean = if n == 0 {
            0.0
        } else {
            samples.iter().sum::<f64>() / n as f64
        };
        let min = samples.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let max = samples.iter().copied().reduce(f64::max).unwrap_or(0.0);
        assert_eq!(h.count(), n);
        assert_eq!(h.mean().to_bits(), mean.to_bits(), "mean of {n}");
        assert_eq!(h.min().to_bits(), min.to_bits(), "min of {n}");
        assert_eq!(h.max().to_bits(), max.to_bits(), "max of {n}");
        let line = if n == 0 {
            String::new()
        } else {
            format!("hist x: n={n} mean={mean:.9} min={min:.9} max={max:.9}\n")
        };
        assert_eq!(r.digest(), line);
    }

    #[test]
    fn signed_zeros_and_overflow_read_like_the_sample_vector() {
        for samples in [
            &[][..],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[f64::MAX, f64::MAX],
            &[f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 8.0],
        ] {
            assert_reads_like_the_sample_vector(samples);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn summary_reads_like_the_sample_vector(
            samples in prop::collection::vec(
                prop_oneof![
                    Just(0.0),
                    Just(-0.0),
                    // Subnormals of either sign.
                    (1u64..1 << 52, any::<bool>()).prop_map(|(bits, neg)| {
                        let v = f64::from_bits(bits);
                        if neg { -v } else { v }
                    }),
                    -1e3f64..1e3,
                    0.0f64..1.0,
                    (-1.0f64..1.0).prop_map(|x| x * 1e300),
                ],
                0..5_001,
            ),
        ) {
            assert_reads_like_the_sample_vector(&samples);
        }
    }

    #[test]
    fn recorder_counters_and_histograms() {
        let r = Recorder::new();
        r.incr("faas.invocations");
        r.add("faas.invocations", 2);
        r.record("blob.get", 0.05);
        r.record("blob.get", 0.07);
        r.record_duration("blob.put", SimDuration::from_millis(53));
        assert_eq!(r.counter("faas.invocations"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("blob.get").count(), 2);
        assert!((r.histogram("blob.get").mean() - 0.06).abs() < 1e-12);
        assert_eq!(r.histogram("blob.put").mean(), 0.053);
        assert_eq!(r.histogram_names(), vec!["blob.get", "blob.put"]);
        assert_eq!(r.counter_names(), vec!["faas.invocations"]);
    }

    #[test]
    fn recorder_digest() {
        let r = Recorder::new();
        assert!(r.digest().is_empty());
        r.incr("x");
        r.record("y", 1.0);
        let d1 = r.digest();
        assert!(d1.contains("counter x = 1"));
        assert!(d1.contains("hist y"));
        // Digest is deterministic.
        assert_eq!(d1, r.digest());
    }

    #[test]
    fn recorder_clones_share_state() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.incr("shared");
        assert_eq!(r.counter("shared"), 1);
    }

    #[test]
    fn interned_ids_alias_names() {
        let r = Recorder::new();
        let h = r.hist_id("lat");
        let c = r.counter_id("hits");
        r.record_id(h, 1.0);
        r.record("lat", 3.0);
        r.record_id(h, 5.0);
        r.add_id(c, 3);
        r.add("hits", 4);
        assert_eq!(r.histogram("lat").count(), 3);
        assert_eq!(r.histogram("lat").mean(), 3.0);
        assert_eq!(r.counter("hits"), 7);
        // Re-interning the same name yields the same handle.
        assert_eq!(r.hist_id("lat"), h);
        assert_eq!(r.counter_id("hits"), c);

        // A few hundred names sharing prefixes and lengths: every name
        // keeps a handle of its own, whichever way it is reached.
        let names: Vec<String> = (0..300)
            .map(|i| format!("svc{}.op{}.latency", i % 7, i))
            .collect();
        let ids: Vec<CounterId> = names.iter().map(|n| r.counter_id(n)).collect();
        for (i, (name, &id)) in names.iter().zip(&ids).enumerate() {
            r.add(name, i as u64);
            r.add_id(id, 1);
        }
        let lazy = LazyCounter::new("svc3.op3.latency");
        lazy.incr(&r);
        for (i, (name, &id)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(r.counter_id(name), id);
            assert_eq!(r.counter(name), i as u64 + 1 + u64::from(i == 3), "{name}");
        }
        assert_eq!(r.counter_names().len(), 301);
    }

    #[test]
    fn digest_is_name_sorted_regardless_of_interning_order() {
        let r = Recorder::new();
        r.record("zzz", 1.0);
        r.record("aaa", 2.0);
        r.incr("m");
        r.incr("b");
        let d = r.digest();
        let aaa = d.find("hist aaa").unwrap();
        let zzz = d.find("hist zzz").unwrap();
        assert!(aaa < zzz, "{d}");
        let b = d.find("counter b").unwrap();
        let m = d.find("counter m").unwrap();
        assert!(b < m, "{d}");
        assert_eq!(r.histogram_names(), vec!["aaa", "zzz"]);
        assert_eq!(r.counter_names(), vec!["b", "m"]);
    }
}
