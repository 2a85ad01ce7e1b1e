//! [`Bytes`], the buffer behind every payload's real bytes.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply cloneable, sliceable view of a shared immutable buffer:
/// what an inline [`Payload`](crate::Payload) and a synthetic pattern
/// hold, and what [`Payload::bytes`](crate::Payload::bytes) returns.
/// A clone or a slice shares the buffer; each `From` makes one
/// allocation and copies the bytes in once.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer. Allocates nothing: every empty `Bytes` shares
    /// the one static buffer std keeps for `Arc::<[u8]>::default()`.
    pub fn new() -> Bytes {
        Bytes {
            data: Arc::default(),
            start: 0,
            end: 0,
        }
    }

    /// The bytes at `range`, sharing this buffer. Panics when `range`
    /// is not within `0..len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice range out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_and_a_slice_share_the_buffer() {
        let a = Bytes::from(vec![1, 2, 3, 4, 5]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ptr(), a.as_ptr());
        let s = a.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(s.as_ptr(), a[1..].as_ptr());
        assert_eq!(s.slice(1..2).as_ptr(), a[2..].as_ptr());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default(), Bytes::from(""));
        assert_eq!(format!("{s:?}"), "[2, 3, 4]");
    }

    #[test]
    #[should_panic(expected = "slice range out of bounds")]
    fn slicing_past_the_end_panics() {
        let _ = Bytes::from("abc").slice(2..4);
    }
}
