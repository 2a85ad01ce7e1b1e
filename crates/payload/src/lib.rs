//! # faasim-payload
//!
//! The **symbolic payload data plane**: the one body type every service
//! of the simulated cloud takes and returns. It carries payload
//! *metadata* on the hot path and only materializes bytes when content
//! actually matters; its real bytes sit in a shared [`Bytes`] buffer.
//!
//! The simulated cloud times transfers, meters NICs, and bills storage
//! purely off `len()` — so a 20 GB log file does not need 20 GB of RAM
//! or a 20 GB memcpy to be simulated faithfully. A [`Payload`] is one
//! of:
//!
//! - [`Payload::inline`] — real bytes, byte-for-byte what was written;
//! - [`Payload::synthetic`] — `pattern` repeated `repeats` times,
//!   stored in O(|pattern|) regardless of total length;
//! - a concatenation of the above (produced by [`Payload::concat`] and
//!   [`Payload::slice`], which stay O(1) in the total length).
//!
//! Content-dependent consumers either materialize ([`Payload::bytes`],
//! [`Payload::to_vec`]) or — for the aggregation kernels the paper's
//! data-shipping ablation runs — use the **analytic fast paths**
//! ([`Payload::line_count`], [`LineRunScanner`]) that compute
//! per-pattern results once and multiply by `repeats`. The
//! differential tests in this crate pin the equivalence: every kernel
//! answer equals a naive scan of the fully materialized bytes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

mod bytes;
mod text;

pub use bytes::Bytes;
pub use text::{byte_positions, BytePositions};

/// A cheaply cloneable payload: inline bytes, a synthetic repetition,
/// or a concatenation of payloads. See the crate docs.
#[derive(Clone)]
pub struct Payload {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Real bytes.
    Inline(Bytes),
    /// `pattern` repeated `repeats` times; `pattern` is non-empty and
    /// `repeats >= 2` (lesser cases normalize to `Inline`).
    Synthetic { pattern: Bytes, repeats: u64 },
    /// Concatenation of non-empty parts (none of which is a `Concat`);
    /// at least two parts (lesser cases normalize away).
    Concat { parts: Arc<Vec<Payload>>, len: u64 },
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Payload {
        Payload {
            repr: Repr::Inline(Bytes::new()),
        }
    }

    /// A payload of real bytes.
    pub fn inline(data: impl Into<Bytes>) -> Payload {
        Payload {
            repr: Repr::Inline(data.into()),
        }
    }

    /// A payload of a static byte string.
    pub fn from_static(data: &'static [u8]) -> Payload {
        Payload::inline(Bytes::from(data))
    }

    /// `pattern` repeated `repeats` times, stored in O(|pattern|).
    /// An empty pattern or zero repeats is the empty payload.
    pub fn synthetic(pattern: impl Into<Bytes>, repeats: u64) -> Payload {
        let pattern = pattern.into();
        if pattern.is_empty() || repeats == 0 {
            return Payload::new();
        }
        if repeats == 1 {
            return Payload::inline(pattern);
        }
        assert!(
            (pattern.len() as u128) * (repeats as u128) <= u64::MAX as u128,
            "synthetic payload length overflows u64"
        );
        Payload {
            repr: Repr::Synthetic { pattern, repeats },
        }
    }

    /// `len` zero bytes in O(1) memory (a synthetic all-zero pattern).
    pub fn zeros(len: usize) -> Payload {
        const CHUNK: usize = 64 * 1024;
        if len == 0 {
            return Payload::new();
        }
        let chunk = len.min(CHUNK);
        let pattern = Bytes::from(vec![0u8; chunk]);
        let (reps, rem) = (len / chunk, len % chunk);
        let mut parts = vec![Payload::synthetic(pattern.clone(), reps as u64)];
        if rem > 0 {
            parts.push(Payload::inline(pattern.slice(0..rem)));
        }
        Payload::concat(parts)
    }

    /// Concatenation. O(total parts), never copies the bytes.
    pub fn concat(parts: impl IntoIterator<Item = Payload>) -> Payload {
        let mut flat: Vec<Payload> = Vec::new();
        for p in parts {
            if p.is_empty() {
                continue;
            }
            match p.repr {
                Repr::Concat { parts, .. } => {
                    // Parts of a normalized Concat are themselves
                    // normalized non-Concat payloads.
                    flat.extend(parts.iter().cloned());
                }
                _ => flat.push(p),
            }
        }
        match flat.len() {
            0 => Payload::new(),
            1 => flat.pop().unwrap(),
            _ => {
                let len = flat.iter().map(|p| p.len() as u64).sum();
                Payload {
                    repr: Repr::Concat {
                        parts: Arc::new(flat),
                        len,
                    },
                }
            }
        }
    }

    /// Length in bytes. O(1).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(b) => b.len(),
            Repr::Synthetic { pattern, repeats } => pattern.len() * *repeats as usize,
            Repr::Concat { len, .. } => *len as usize,
        }
    }

    /// True when `len() == 0`. O(1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range of the payload, sharing all underlying storage: O(1)
    /// in the byte length (O(parts) for concatenations). Slicing a
    /// synthetic payload yields at most `[partial, synthetic, partial]`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => Some(n),
            Bound::Excluded(&n) => n.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1),
            Bound::Excluded(&n) => Some(n),
            Bound::Unbounded => Some(len),
        };
        let (start, end) = match (start, end) {
            (Some(start), Some(end)) if start <= end && end <= len => (start, end),
            _ => panic!("slice range out of bounds"),
        };
        if start == end {
            return Payload::new();
        }
        if start == 0 && end == len {
            return self.clone();
        }
        match &self.repr {
            Repr::Inline(b) => Payload::inline(b.slice(start..end)),
            Repr::Synthetic { pattern, repeats: _ } => {
                let plen = pattern.len();
                let first_rep = start / plen;
                let last_rep = (end - 1) / plen;
                if first_rep == last_rep {
                    let off = start - first_rep * plen;
                    return Payload::inline(pattern.slice(off..off + (end - start)));
                }
                let mut parts = Vec::with_capacity(3);
                let head_off = start - first_rep * plen;
                let whole_start = if head_off > 0 {
                    parts.push(Payload::inline(pattern.slice(head_off..plen)));
                    first_rep + 1
                } else {
                    first_rep
                };
                let tail_len = end - last_rep * plen;
                let (whole_end, tail) = if tail_len == plen {
                    (last_rep + 1, None)
                } else {
                    (last_rep, Some(pattern.slice(0..tail_len)))
                };
                if whole_end > whole_start {
                    parts.push(Payload::synthetic(
                        pattern.clone(),
                        (whole_end - whole_start) as u64,
                    ));
                }
                if let Some(t) = tail {
                    parts.push(Payload::inline(t));
                }
                Payload::concat(parts)
            }
            Repr::Concat { parts, .. } => {
                let mut out = Vec::new();
                let mut off = 0usize;
                for p in parts.iter() {
                    let (ps, pe) = (off, off + p.len());
                    if pe > start && ps < end {
                        out.push(p.slice(start.max(ps) - ps..end.min(pe) - ps));
                    }
                    off = pe;
                    if off >= end {
                        break;
                    }
                }
                Payload::concat(out)
            }
        }
    }

    /// Iterate the payload's bytes as contiguous chunks, in order.
    /// A synthetic payload yields its pattern `repeats` times — O(len)
    /// in total; prefer the analytic kernels on hot paths.
    pub fn chunks(&self) -> Chunks<'_> {
        Chunks {
            stack: vec![frame_for(self)],
        }
    }

    /// Materialize to a contiguous buffer. O(len) — only call when the
    /// content itself is needed.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Materialize to [`Bytes`]. Free for inline payloads; O(len)
    /// otherwise.
    pub fn bytes(&self) -> Bytes {
        match &self.repr {
            Repr::Inline(b) => b.clone(),
            _ => Bytes::from(self.to_vec()),
        }
    }

    /// Content equality against a byte slice without materializing.
    pub fn eq_bytes(&self, other: &[u8]) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut off = 0;
        for c in self.chunks() {
            if other[off..off + c.len()] != *c {
                return false;
            }
            off += c.len();
        }
        true
    }

    /// Visit every non-empty line (maximal `b'\n'`-free run) with its
    /// multiplicity. For synthetic payloads whose pattern contains a
    /// newline this is **analytic**: O(|pattern|) regardless of
    /// `repeats`, with interior lines reported once at multiplicity
    /// `repeats` — so treat the visits as a *multiset*, not a stream
    /// (order is only preserved for fully inline payloads). Lines that
    /// span chunk or repeat boundaries are stitched together exactly as
    /// a scan of the materialized bytes would see them; the
    /// differential tests below pin that equivalence.
    ///
    /// A synthetic payload whose pattern holds *no* newline is one line
    /// of `len()` bytes, and handing that line to `f` materializes it:
    /// O(len) time and memory. [`Payload::line_count`] does not.
    ///
    /// The [`LineRunScanner`] proptest's oracle.
    #[cfg(test)]
    pub fn for_each_line_run(&self, mut f: impl FnMut(&[u8], u64)) {
        let mut carry: Vec<u8> = Vec::new();
        self.walk_lines(&mut carry, &mut f);
        if !carry.is_empty() {
            f(&carry, 1);
        }
    }

    fn walk_lines<F: FnMut(&[u8], u64)>(&self, carry: &mut Vec<u8>, f: &mut F) {
        match &self.repr {
            Repr::Inline(b) => text::scan_lines(b, carry, f),
            Repr::Synthetic { pattern, repeats } => {
                let Some(first_nl) = byte_positions(pattern, b'\n').next() else {
                    // No newline in the pattern: the whole payload is a
                    // fragment of one line. O(len) — acceptable because
                    // line kernels over non-line data are not a hot path.
                    for _ in 0..*repeats {
                        carry.extend_from_slice(pattern);
                    }
                    return;
                };
                let last_nl = pattern.iter().rposition(|&c| c == b'\n').unwrap();
                // First completed line: carry + head segment.
                carry.extend_from_slice(&pattern[..first_nl]);
                if !carry.is_empty() {
                    f(carry, 1);
                    carry.clear();
                }
                // Interior segments appear once per repeat.
                if last_nl > first_nl {
                    for seg in pattern[first_nl + 1..last_nl].split(|&c| c == b'\n') {
                        if !seg.is_empty() {
                            f(seg, *repeats);
                        }
                    }
                }
                // The repeat boundary joins the tail of one copy to the
                // head of the next: `repeats - 1` such joins.
                if *repeats > 1 {
                    let mut boundary = pattern[last_nl + 1..].to_vec();
                    boundary.extend_from_slice(&pattern[..first_nl]);
                    if !boundary.is_empty() {
                        f(&boundary, *repeats - 1);
                    }
                }
                // Carry out: the unterminated tail of the last copy.
                carry.extend_from_slice(&pattern[last_nl + 1..]);
            }
            Repr::Concat { parts, .. } => {
                for p in parts.iter() {
                    p.walk_lines(carry, f);
                }
            }
        }
    }

    /// Number of non-empty `b'\n'`-separated lines — what
    /// `split(b'\n').filter(non_empty).count()` over the materialized
    /// bytes returns. A count-only walk: no line is ever assembled, so it
    /// allocates nothing and a synthetic part costs O(|pattern|) whether
    /// or not its pattern holds a newline.
    pub fn line_count(&self) -> u64 {
        let mut open = false;
        let ended = self.count_line_ends(&mut open);
        ended + u64::from(open)
    }

    /// Lines that end inside this payload, given (and updating) whether a
    /// non-empty line is open at its edge.
    fn count_line_ends(&self, open: &mut bool) -> u64 {
        match &self.repr {
            Repr::Inline(b) => text::count_line_ends(b, open),
            Repr::Synthetic { pattern, repeats } => {
                // Every copy after the first starts in the state a copy
                // leaves behind, so they all end the same number of lines.
                let first = text::count_line_ends(pattern, open);
                let mut after = *open;
                let later = text::count_line_ends(pattern, &mut after);
                first + later * (*repeats - 1)
            }
            Repr::Concat { parts, .. } => parts.iter().map(|p| p.count_line_ends(open)).sum(),
        }
    }
}

/// Streaming line kernel over a *sequence* of payload chunks.
///
/// `Payload::for_each_line_run` scans one self-contained payload; a
/// streaming consumer (e.g. a query-scan worker fetching an object in
/// ranged reads) instead sees the same bytes as a series of arbitrary
/// chunks, and a line may straddle any chunk boundary. The scanner
/// carries the unterminated tail of each chunk into the next `feed`, so
/// feeding the chunks of a split payload in order visits exactly the
/// line runs `Payload::concat(chunks).for_each_line_run` would — the
/// differential proptests below pin that equivalence. Each chunk keeps
/// its own analytic fast path: a synthetic chunk still costs
/// O(|pattern|), not O(bytes).
#[derive(Default)]
pub struct LineRunScanner {
    carry: Vec<u8>,
}

impl LineRunScanner {
    /// A scanner with an empty carry.
    pub fn new() -> LineRunScanner {
        LineRunScanner::default()
    }

    /// Scan the next chunk, visiting every *completed* non-empty line
    /// with its multiplicity. The trailing unterminated fragment is
    /// retained for the next `feed` (or `finish`).
    pub fn feed(&mut self, chunk: &Payload, mut f: impl FnMut(&[u8], u64)) {
        chunk.walk_lines(&mut self.carry, &mut f);
    }

    /// End of the stream: flush the final unterminated line, if any
    /// (matching how a scan of the whole materialized body treats a
    /// missing trailing newline).
    pub fn finish(self, mut f: impl FnMut(&[u8], u64)) {
        if !self.carry.is_empty() {
            f(&self.carry, 1);
        }
    }
}

/// Iterator over a payload's contiguous chunks (see [`Payload::chunks`]).
pub struct Chunks<'a> {
    stack: Vec<Frame<'a>>,
}

enum Frame<'a> {
    One(&'a [u8]),
    Synth { pattern: &'a [u8], left: u64 },
    Parts { parts: &'a [Payload], idx: usize },
}

fn frame_for(p: &Payload) -> Frame<'_> {
    match &p.repr {
        Repr::Inline(b) => Frame::One(b),
        Repr::Synthetic { pattern, repeats } => Frame::Synth {
            pattern,
            left: *repeats,
        },
        Repr::Concat { parts, .. } => Frame::Parts { parts, idx: 0 },
    }
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::One(s) => {
                    if !s.is_empty() {
                        return Some(s);
                    }
                }
                Frame::Synth { pattern, left } => {
                    if left > 1 {
                        self.stack.push(Frame::Synth {
                            pattern,
                            left: left - 1,
                        });
                    }
                    if left >= 1 {
                        return Some(pattern);
                    }
                }
                Frame::Parts { parts, idx } => {
                    if idx < parts.len() {
                        self.stack.push(Frame::Parts {
                            parts,
                            idx: idx + 1,
                        });
                        self.stack.push(frame_for(&parts[idx]));
                    }
                }
            }
        }
        None
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::new()
    }
}

impl fmt::Debug for Payload {
    /// Structural summary — never materializes (a synthetic payload can
    /// be tens of GB).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Inline(b) if b.len() <= 64 => write!(f, "Payload::inline({:?})", &b[..]),
            Repr::Inline(b) => write!(f, "Payload::inline(len={})", b.len()),
            Repr::Synthetic { pattern, repeats } => write!(
                f,
                "Payload::synthetic(|pattern|={}, repeats={}, len={})",
                pattern.len(),
                repeats,
                self.len()
            ),
            Repr::Concat { parts, len } => {
                write!(f, "Payload::concat({} parts, len={})", parts.len(), len)
            }
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // Structural fast path: identical synthetic shape.
        if let (
            Repr::Synthetic { pattern: a, repeats: ra },
            Repr::Synthetic { pattern: b, repeats: rb },
        ) = (&self.repr, &other.repr)
        {
            if ra == rb && a == b {
                return true;
            }
        }
        // General path: streaming two-cursor chunk comparison.
        let mut ca = self.chunks();
        let mut cb = other.chunks();
        let (mut xa, mut xb): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if xa.is_empty() {
                xa = match ca.next() {
                    Some(c) => c,
                    None => return true, // equal lengths: cb is spent too
                };
            }
            if xb.is_empty() {
                xb = match cb.next() {
                    Some(c) => c,
                    None => return true,
                };
            }
            let n = xa.len().min(xb.len());
            if xa[..n] != xb[..n] {
                return false;
            }
            xa = &xa[n..];
            xb = &xb[n..];
        }
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.eq_bytes(other)
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.eq_bytes(other)
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.eq_bytes(other)
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload::inline(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::inline(Bytes::from(v))
    }
}

impl From<&'static [u8]> for Payload {
    fn from(s: &'static [u8]) -> Payload {
        Payload::from_static(s)
    }
}

impl From<&'static str> for Payload {
    fn from(s: &'static str) -> Payload {
        Payload::from_static(s.as_bytes())
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Payload {
        Payload::inline(Bytes::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_lines(bytes: &[u8]) -> std::collections::BTreeMap<Vec<u8>, u64> {
        let mut out = std::collections::BTreeMap::new();
        for line in bytes.split(|&c| c == b'\n').filter(|l| !l.is_empty()) {
            *out.entry(line.to_vec()).or_insert(0) += 1;
        }
        out
    }

    fn line_multiset(p: &Payload) -> std::collections::BTreeMap<Vec<u8>, u64> {
        let mut out = std::collections::BTreeMap::new();
        p.for_each_line_run(|line, n| {
            *out.entry(line.to_vec()).or_insert(0) += n;
        });
        out
    }

    #[test]
    fn synthetic_len_is_o1_and_content_matches() {
        let p = Payload::synthetic("ab\n", 1_000);
        assert_eq!(p.len(), 3_000);
        assert_eq!(p.to_vec(), "ab\n".repeat(1_000).into_bytes());
        assert!(p.eq_bytes(&"ab\n".repeat(1_000).into_bytes()));
    }

    #[test]
    fn huge_synthetic_is_cheap() {
        // 50 GB in O(|pattern|): len, slice, and line_count all work
        // without materializing.
        let line = "GET /assets/app.js 200\n";
        let reps = 50_000_000_000 / line.len() as u64;
        let p = Payload::synthetic(line, reps);
        assert_eq!(p.len() as u64, reps * line.len() as u64);
        assert_eq!(p.line_count(), reps);
        let s = p.slice(7..p.len() - 11);
        assert_eq!(s.len(), p.len() - 18);
    }

    #[test]
    fn slice_of_synthetic_matches_materialized() {
        let p = Payload::synthetic("abcd", 5); // 20 bytes
        let whole = p.to_vec();
        for start in 0..=20 {
            for end in start..=20 {
                assert_eq!(
                    p.slice(start..end).to_vec(),
                    whole[start..end].to_vec(),
                    "slice {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn concat_and_nested_slices() {
        let p = Payload::concat([
            Payload::from_static(b"head|"),
            Payload::synthetic("xy", 3),
            Payload::from_static(b"|tail"),
        ]);
        assert_eq!(p.to_vec(), b"head|xyxyxy|tail");
        assert_eq!(p.slice(3..13).to_vec(), b"d|xyxyxy|t");
        assert_eq!(p.slice(5..11), Payload::synthetic("xy", 3));
    }

    #[test]
    fn line_count_matches_naive_scan() {
        for (pattern, reps) in [
            ("GET / 200\n", 7u64),
            ("a\nbb\nccc", 4),
            ("\n\n", 3),
            ("no-newline", 5),
            ("trailing\nmid", 6),
            ("x", 1),
        ] {
            let p = Payload::synthetic(pattern, reps);
            let mat = pattern.repeat(reps as usize).into_bytes();
            let naive = mat
                .split(|&c| c == b'\n')
                .filter(|l| !l.is_empty())
                .count() as u64;
            assert_eq!(p.line_count(), naive, "pattern {pattern:?} x{reps}");
            assert_eq!(line_multiset(&p), naive_lines(&mat), "pattern {pattern:?} x{reps}");
        }
    }

    #[test]
    fn line_count_of_a_newline_free_synthetic_never_materializes() {
        // 10 TB that is one line: the old carry-building walk would
        // have allocated all of it to answer "1".
        assert_eq!(Payload::synthetic("no-newline", 1 << 40).line_count(), 1);
        assert_eq!(Payload::synthetic("\n", 1 << 40).line_count(), 0);
        assert_eq!(Payload::synthetic("\nab", 1 << 40).line_count(), 1 << 40);
        assert_eq!(Payload::synthetic("", 1 << 40).line_count(), 0);
        assert_eq!(Payload::synthetic("no-newline", 0).line_count(), 0);
        // The open line runs through both parts and ends in the third.
        let p = Payload::concat([
            Payload::from_static(b"x\nhead"),
            Payload::synthetic("-", 1 << 40),
            Payload::from_static(b"tail\n\nlast"),
        ]);
        assert_eq!(p.line_count(), 3);
    }

    #[test]
    fn line_runs_stitch_across_concat_boundaries() {
        // "ab" + "c\nd" + "e\n" materializes to "abc\nde\n": lines
        // [abc, de] even though no single part contains them.
        let p = Payload::concat([
            Payload::from_static(b"ab"),
            Payload::from_static(b"c\nd"),
            Payload::from_static(b"e\n"),
        ]);
        let mut got = Vec::new();
        p.for_each_line_run(|l, n| got.push((l.to_vec(), n)));
        assert_eq!(got, vec![(b"abc".to_vec(), 1), (b"de".to_vec(), 1)]);
    }

    #[test]
    fn equality_is_content_based() {
        let a = Payload::synthetic("ab", 3);
        let b = Payload::from_static(b"ababab");
        let c = Payload::concat([Payload::from_static(b"aba"), Payload::from_static(b"bab")]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(b, c);
        assert_ne!(a, Payload::from_static(b"ababaX"));
        assert_ne!(a, Payload::from_static(b"abab"));
        assert!(a.eq_bytes(b"ababab"));
        assert!(a == *b"ababab".as_slice());
    }

    #[test]
    fn zeros_and_empty_normalization() {
        assert!(Payload::new().is_empty());
        assert!(Payload::synthetic("", 9).is_empty());
        assert!(Payload::synthetic("x", 0).is_empty());
        assert!(Payload::concat([]).is_empty());
        let z = Payload::zeros(200_000);
        assert_eq!(z.len(), 200_000);
        assert!(z.chunks().all(|c| c.iter().all(|&b| b == 0)));
        assert_eq!(z.chunks().map(|c| c.len()).sum::<usize>(), 200_000);
    }

    #[test]
    fn an_inline_payload_shares_its_buffer() {
        let buf = Bytes::from(b"hello world".to_vec());
        let p = Payload::inline(buf.clone());
        // "Free for inline payloads": `bytes()` hands back the same buffer.
        assert_eq!(p.bytes().as_ptr(), buf.as_ptr());
        assert_eq!(p.slice(6..).bytes().as_ptr(), buf[6..].as_ptr());
        assert_eq!(p.slice(6..), *b"world".as_slice());
    }

    #[test]
    #[should_panic(expected = "slice range out of bounds")]
    fn slice_to_an_included_usize_max_panics() {
        let _ = Payload::from_static(b"hello world").slice(..=usize::MAX);
    }

    #[test]
    #[should_panic(expected = "slice range out of bounds")]
    fn slice_from_an_excluded_usize_max_panics() {
        let _ = Payload::from_static(b"hello world")
            .slice((Bound::Excluded(usize::MAX), Bound::Unbounded));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A recipe for one payload part plus its materialization.
    #[derive(Clone, Debug)]
    enum Part {
        Inline(Vec<u8>),
        Synthetic(Vec<u8>, u64),
    }

    impl Part {
        fn build(&self) -> Payload {
            match self {
                Part::Inline(v) => Payload::inline(v.clone()),
                Part::Synthetic(p, r) => Payload::synthetic(p.clone(), *r),
            }
        }

        fn materialize(&self) -> Vec<u8> {
            match self {
                Part::Inline(v) => v.clone(),
                Part::Synthetic(p, r) => p.repeat(*r as usize),
            }
        }
    }

    /// Small alphabet with plenty of newlines so line-kernel edge cases
    /// (leading/trailing/repeated separators) occur often.
    fn byte_strategy() -> impl Strategy<Value = u8> {
        (0u8..6).prop_map(|b| *b"a b\nc\n".get(b as usize).unwrap())
    }

    fn part_strategy() -> impl Strategy<Value = Part> {
        prop_oneof![
            prop::collection::vec(byte_strategy(), 0..24).prop_map(Part::Inline),
            (prop::collection::vec(byte_strategy(), 0..10), 0u64..9)
                .prop_map(|(p, r)| Part::Synthetic(p, r)),
        ]
    }

    fn naive_lines(bytes: &[u8]) -> std::collections::BTreeMap<Vec<u8>, u64> {
        let mut out = std::collections::BTreeMap::new();
        for line in bytes.split(|&c| c == b'\n').filter(|l| !l.is_empty()) {
            *out.entry(line.to_vec()).or_insert(0) += 1;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The differential guarantee: any payload built from inline,
        /// synthetic, concat, and slice materializes to exactly the
        /// bytes the analytic kernels claim to have scanned.
        #[test]
        fn kernels_match_materialized_scan(
            parts in prop::collection::vec(part_strategy(), 0..6),
            cut in (0u16..1000, 0u16..1000),
        ) {
            let payload = Payload::concat(parts.iter().map(Part::build));
            let expected: Vec<u8> =
                parts.iter().flat_map(|p| p.materialize()).collect();

            // Materialization parity.
            prop_assert_eq!(payload.len(), expected.len());
            prop_assert_eq!(payload.to_vec(), expected.clone());
            prop_assert!(payload.eq_bytes(&expected));
            prop_assert_eq!(&payload, &Payload::inline(expected.clone()));

            // Line-kernel parity: multiset of (line, multiplicity)
            // visits equals a naive split of the materialized bytes.
            let mut got = std::collections::BTreeMap::new();
            payload.for_each_line_run(|line, n| {
                *got.entry(line.to_vec()).or_insert(0u64) += n;
            });
            // The count-only walk agrees with the visiting one.
            prop_assert_eq!(payload.line_count(), got.values().sum::<u64>());
            prop_assert_eq!(got, naive_lines(&expected));
            prop_assert_eq!(
                payload.line_count() as usize,
                expected.split(|&c| c == b'\n').filter(|l| !l.is_empty()).count()
            );

            // Slice parity: an arbitrary sub-range equals the same
            // sub-range of the materialized bytes, and the kernels
            // agree on the sliced payload too.
            let n = expected.len();
            let (a, b) = (cut.0 as usize % (n + 1), cut.1 as usize % (n + 1));
            let (start, end) = (a.min(b), a.max(b));
            let sliced = payload.slice(start..end);
            let expected_slice = expected[start..end].to_vec();
            prop_assert_eq!(sliced.to_vec(), expected_slice.clone());
            prop_assert_eq!(
                {
                    let mut got = std::collections::BTreeMap::new();
                    sliced.for_each_line_run(|line, n| {
                        *got.entry(line.to_vec()).or_insert(0u64) += n;
                    });
                    got
                },
                naive_lines(&expected_slice)
            );
        }

        /// Streaming parity: slicing a payload into arbitrary-size
        /// chunks and feeding them through a [`LineRunScanner`] visits
        /// the same line multiset as scanning the whole payload at once,
        /// whatever the chunk size — lines straddling chunk boundaries
        /// are stitched by the carry.
        #[test]
        fn chunked_scanner_matches_whole_payload_scan(
            parts in prop::collection::vec(part_strategy(), 0..6),
            chunk in 1usize..17,
        ) {
            let payload = Payload::concat(parts.iter().map(Part::build));
            let expected: Vec<u8> =
                parts.iter().flat_map(|p| p.materialize()).collect();

            let mut scanner = LineRunScanner::new();
            let mut got = std::collections::BTreeMap::new();
            let mut visit = |line: &[u8], n: u64| {
                *got.entry(line.to_vec()).or_insert(0u64) += n;
            };
            let mut off = 0;
            while off < payload.len() {
                let end = (off + chunk).min(payload.len());
                scanner.feed(&payload.slice(off..end), &mut visit);
                off = end;
            }
            scanner.finish(&mut visit);
            prop_assert_eq!(got, naive_lines(&expected));
        }
    }
}
