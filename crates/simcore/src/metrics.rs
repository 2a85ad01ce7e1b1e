//! Measurement collection: counters, gauges, and sample histograms.
//!
//! Experiments record latencies and throughputs into a [`Recorder`], then
//! summarize them into the tables they print. The
//! histogram keeps raw samples (experiments here record at most a few
//! hundred thousand), which makes quantiles exact and the determinism
//! tests trivial: identical runs produce identical sample vectors.
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

/// An exact-sample histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
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
        self.samples.push(v);
        self.sorted = false;
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Quantile `q in [0,1]` by nearest-rank on sorted samples; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Immutable view of the raw samples (insertion order not guaranteed
    /// after a quantile call).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
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
            .cloned()
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

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p50(), 0.0);
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
        assert_eq!(h.p50(), 3.0);
        assert_eq!(h.total(), 15.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.p99(), 99.0);
        // Out-of-range q clamps.
        assert_eq!(h.quantile(2.0), 100.0);
        assert_eq!(h.quantile(-1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
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
