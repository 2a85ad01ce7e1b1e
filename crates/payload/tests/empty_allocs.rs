//! An empty body costs the heap nothing. Every handler that returns no
//! data returns `Payload::new()`, once per invocation, so the empty
//! payload must not allocate even its buffer's reference counts.

use faasim_payload::{Bytes, Payload};

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocations_of;

#[test]
fn an_empty_payload_allocates_nothing() {
    let mut kept = Vec::with_capacity(3);
    let allocs = allocations_of(|| {
        kept.push(Payload::new());
        kept.push(Payload::default());
        kept.push(Payload::new().clone());
    });
    assert_eq!(allocs, 0, "an empty payload allocated");
    assert!(kept.iter().all(|p| p.is_empty()));

    let mut kept = Vec::with_capacity(3);
    let allocs = allocations_of(|| {
        kept.push(Bytes::new());
        kept.push(Bytes::default());
        kept.push(Bytes::new().slice(0..0));
    });
    assert_eq!(allocs, 0, "an empty buffer allocated");
    assert!(kept.iter().all(|b| b.is_empty()));
    assert_eq!(kept[0], Bytes::from(Vec::new()));
}
