//! `DirtyWordModel::censor` is on the prediction-serving hot path (40 000
//! documents per paper-scale pass): pin its heap traffic with a counting
//! allocator. The budget is the output buffer plus one spare.

use faasim_ml::{synthetic_document, DirtyWordModel};

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocations_of;

#[test]
fn censoring_a_100_word_document_allocates_at_most_twice() {
    let model = DirtyWordModel::synthetic(500);
    let doc = synthetic_document(500, 100, 7);
    // The same document as prose: capitals and punctuation take every
    // token through the stack-buffer path instead of the in-place probe.
    let prose: String = doc.split(' ').map(|w| format!("D{}, ", &w[1..])).collect();

    for text in [&doc, &prose] {
        let mut out = None;
        let allocs = allocations_of(|| out = Some(model.censor(text)));
        let out = out.expect("censored");
        assert_eq!(out.word_count, 100);
        assert!(out.dirty_count > 0, "the document must exercise the rewrite path");
        assert!(allocs <= 2, "censor made {allocs} heap allocations for one document");
    }
}
