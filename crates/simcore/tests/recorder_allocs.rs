//! What a recorder series costs the heap, pinned with a counting
//! allocator: once a series is interned, its samples allocate nothing —
//! a series is four numbers, not a growing vector — and a digest leaves
//! nothing behind but the `String` it returns.

use faasim_simcore::{Histogram, LazyHist, Recorder};

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::{allocations_of, live_bytes};

#[test]
fn a_million_samples_allocate_nothing() {
    assert_eq!(std::mem::size_of::<Histogram>(), 32, "count, sum, min, max");
    let recorder = Recorder::new();
    let series = [LazyHist::new("svc.get"), LazyHist::new("svc.put")];
    // The first sample interns each series: that is the one-off cost.
    for hist in &series {
        hist.record(&recorder, 0.5);
    }

    let live = live_bytes();
    let allocs = allocations_of(|| {
        for i in 0..1_000_000 {
            series[i % 2].record(&recorder, i as f64 * 1e-6);
        }
    });
    assert_eq!(allocs, 0, "recording allocated");
    assert_eq!(live_bytes(), live);

    let digest = recorder.digest();
    assert_eq!(digest.lines().count(), series.len(), "{digest}");
    assert!(digest.contains("hist svc.get: n=500001 "), "{digest}");
    assert_eq!(
        live_bytes() - live,
        digest.capacity() as i64,
        "the digest left more than its String behind"
    );
}
