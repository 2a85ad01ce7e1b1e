//! Per-aggregate **scan kernels**: the operator-specialized fold each
//! streamed chunk lands in.
//!
//! The old one-size-fits-all accumulator built a full distinct-line
//! `BTreeMap<String, u64>` — a `String` allocation per distinct line —
//! regardless of the aggregate, then dispatched in `finish()`. Here each
//! [`crate::Aggregate`] gets its own kernel behind the [`ScanKernel`]
//! trait:
//!
//! - [`Aggregate::CountAll`] is pure
//!   line-count arithmetic: zero allocation, zero per-line state;
//! - [`Aggregate::GroupCount`] keys only
//!   the extracted field *value*, never the whole line.
//!
//! Kernels consume *line runs* — `(line, multiplicity)` visits from the
//! payload crate's analytic scanner — so a `Concat` of
//! `Synthetic{pattern × n}` bodies folds per-pattern results scaled by
//! `n` without the kernel ever touching the repeated bytes. That is the
//! multi-pattern `GROUP BY` cardinality shortcut: a terabyte of repeated
//! log lines costs O(patterns) kernel work.
//!
//! The scan worker hands a kernel whole *chunks*
//! ([`ScanKernel::fold_chunk`]): one virtual call per streamed range,
//! with the per-line [`ScanKernel::visit`] calls inside it resolved
//! statically.

use std::borrow::Cow;

use faasim_payload::{LineRunScanner, Payload};
use faasim_simcore::FxHashMap;

use crate::{Aggregate, QueryError};

/// A streaming aggregate fold. One kernel instance is shared by every
/// scan worker (the simulation is single-threaded, so interleaving is
/// deterministic); results are order-independent multiset folds.
pub trait ScanKernel {
    /// Fold one non-empty line (trailing `\r` already trimmed) that
    /// occurs `n` times.
    fn visit(&mut self, line: &[u8], n: u64);

    /// Fold every record the next chunk of an object completes;
    /// `scanner` carries the object's unterminated line between chunks.
    /// The provided body is compiled once per kernel type, so a caller
    /// holding a `dyn ScanKernel` pays one dynamic call per chunk and
    /// none per line.
    fn fold_chunk(&mut self, scanner: &mut LineRunScanner, chunk: &Payload) {
        scanner.feed(chunk, |line, n| visit_record(self, line, n));
    }

    /// End of an object: fold the unterminated last line `scanner`
    /// still holds, exactly like a scan of the full body would.
    fn fold_end(&mut self, scanner: LineRunScanner) {
        scanner.finish(|line, n| visit_record(self, line, n));
    }

    /// Produce the result rows.
    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError>;
}

/// Build the kernel for an aggregate.
pub fn kernel_for(agg: &Aggregate) -> Box<dyn ScanKernel> {
    match agg {
        Aggregate::CountAll => Box::new(CountAll { count: 0 }),
        Aggregate::GroupCount { field } => Box::new(GroupCount {
            field: *field,
            groups: FxHashMap::default(),
        }),
    }
}

/// Record normalization in front of every kernel: trim one trailing
/// `\r` (CRLF logs) and skip empty records.
#[inline]
fn visit_record<K: ScanKernel + ?Sized>(kernel: &mut K, line: &[u8], n: u64) {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if !line.is_empty() {
        kernel.visit(line, n);
    }
}

/// The whitespace `str::split_whitespace` splits ASCII text on:
/// `char::is_whitespace` restricted to ASCII. Not
/// `u8::is_ascii_whitespace`, which leaves out vertical tab (`0x0B`).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, 0x09..=0x0D | b' ')
}

/// The nth whitespace-separated field, as the bytes of its decoding
/// under the record model (lossy UTF-8, Unicode whitespace) — so the
/// result is always valid UTF-8.
///
/// An all-ASCII line — every line of a text corpus — decodes to itself
/// and is split bytewise. Anything else goes through the decoder, which
/// borrows when the line is valid UTF-8 and allocates only for a line
/// that needed replacement characters.
fn nth_field(line: &[u8], field: usize) -> Option<Cow<'_, [u8]>> {
    if line.is_ascii() {
        return line
            .split(|&b| is_ascii_space(b))
            .filter(|value| !value.is_empty())
            .nth(field)
            .map(Cow::Borrowed);
    }
    match String::from_utf8_lossy(line) {
        Cow::Borrowed(text) => text
            .split_whitespace()
            .nth(field)
            .map(|value| Cow::Borrowed(value.as_bytes())),
        Cow::Owned(text) => text
            .split_whitespace()
            .nth(field)
            .map(|value| Cow::Owned(value.as_bytes().to_vec())),
    }
}

struct CountAll {
    count: u64,
}

impl ScanKernel for CountAll {
    fn visit(&mut self, _line: &[u8], n: u64) {
        self.count = self.count.saturating_add(n);
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        Ok(vec![(String::new(), self.count as f64)])
    }
}

struct GroupCount {
    field: usize,
    /// Keyed on the decoded field's bytes: hashed per line, decoded and
    /// ordered once in `finish`.
    groups: FxHashMap<Vec<u8>, u64>,
}

impl ScanKernel for GroupCount {
    fn visit(&mut self, line: &[u8], n: u64) {
        if let Some(value) = nth_field(line, self.field) {
            // get_mut-first: only a group's first line pays for a key.
            match self.groups.get_mut(value.as_ref()) {
                Some(count) => *count += n,
                None => {
                    self.groups.insert(value.into_owned(), n);
                }
            }
        }
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        if self.groups.is_empty() {
            return Err(QueryError::NoSuchField(self.field));
        }
        let mut rows: Vec<(Vec<u8>, u64)> = self.groups.into_iter().collect();
        // Byte order is `String` order: rows come out sorted by group.
        rows.sort_unstable();
        Ok(rows
            .into_iter()
            .map(|(key, count)| {
                let group = String::from_utf8(key).expect("nth_field yields UTF-8");
                (group, count as f64)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// The field splitter `nth_field` replaced, kept as its reference:
    /// decode the whole line, split on Unicode whitespace.
    fn nth_field_oracle(line: &[u8], field: usize) -> Option<String> {
        String::from_utf8_lossy(line)
            .split_whitespace()
            .nth(field)
            .map(str::to_owned)
    }

    /// The group store `GroupCount` replaced, kept as its reference: an
    /// ordered map keyed on the decoded field.
    fn group_count_oracle(lines: &[Vec<u8>], field: usize) -> Vec<(String, f64)> {
        let mut groups: BTreeMap<String, u64> = BTreeMap::new();
        for line in lines {
            if let Some(value) = nth_field_oracle(line, field) {
                *groups.entry(value).or_default() += 1;
            }
        }
        groups.into_iter().map(|(k, v)| (k, v as f64)).collect()
    }

    /// Lines glued from separators and words that stress the splitter:
    /// every ASCII whitespace byte (vertical tab and form feed included),
    /// control bytes that are *not* whitespace, Unicode separators, and
    /// invalid or truncated UTF-8. `ascii` keeps to the first `ASCII`
    /// pieces, so the fast path sees rich input too.
    fn tricky_lines(ascii: bool) -> Vec<Vec<u8>> {
        const ASCII: usize = 14;
        #[rustfmt::skip]
        const PIECES: &[&[u8]] = &[
            b" ", b"\t", b"\x0b", b"\x0c", b"\r", b"  ", b"\x1c", b"\x1f",
            b"GET", b"/a", b"200", b"x", b"404", b"/b/c",
            // U+00A0, U+0085, U+2003: whitespace only once decoded.
            b"\xc2\xa0", b"\xc2\x85", b"\xe2\x80\x83",
            // U+00E9, then invalid, truncated and overlong sequences.
            b"\xc3\xa9", b"\xff", b"\xfe", b"\xc3", b"\xe2\x80", b"\xc0\xa0",
        ];
        let choices = if ascii { ASCII } else { PIECES.len() };
        let mut state = 0x2019u64;
        (0..1500)
            .map(|i| {
                let mut line = Vec::new();
                for _ in 0..i % 9 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    line.extend_from_slice(PIECES[(state >> 33) as usize % choices]);
                }
                line
            })
            .collect()
    }

    #[test]
    fn nth_field_matches_the_decode_and_split_oracle() {
        for line in tricky_lines(true).into_iter().chain(tricky_lines(false)) {
            for field in 0..5 {
                assert_eq!(
                    nth_field(&line, field).map(Cow::into_owned),
                    nth_field_oracle(&line, field).map(String::into_bytes),
                    "field {field} of {line:?}"
                );
            }
        }
        // Vertical tab separates fields; `u8::is_ascii_whitespace` says no.
        assert_eq!(nth_field(b"a\x0bb", 1).as_deref(), Some(&b"b"[..]));
    }

    #[test]
    fn group_count_matches_the_ordered_map_oracle() {
        for ascii in [true, false] {
            let lines = tricky_lines(ascii);
            for field in 0..3 {
                let mut k = kernel_for(&Aggregate::GroupCount { field });
                for line in &lines {
                    k.visit(line, 1);
                }
                let want = group_count_oracle(&lines, field);
                assert!(want.len() > 4, "corpus must spread over several groups");
                assert_eq!(k.finish().unwrap(), want, "field {field}, ascii {ascii}");
            }
        }
        // Different invalid bytes decode to the same U+FFFD group.
        let mut k = kernel_for(&Aggregate::GroupCount { field: 0 });
        k.visit(b"\xff", 1);
        k.visit(b"\xfe x", 2);
        k.visit(b"\xc3", 4);
        assert_eq!(k.finish().unwrap(), vec![("\u{fffd}".to_owned(), 7.0)]);
    }

    #[test]
    fn group_count_keys_only_the_field() {
        let mut k = kernel_for(&Aggregate::GroupCount { field: 1 });
        k.visit(b"GET /a 200", 2);
        k.visit(b"PUT /a 200", 1);
        k.visit(b"GET /b 404", 1);
        assert_eq!(
            k.finish().unwrap(),
            vec![("/a".to_owned(), 3.0), ("/b".to_owned(), 1.0)]
        );
    }

    #[test]
    fn invalid_utf8_fields_decode_lossily_and_still_group() {
        let mut k = kernel_for(&Aggregate::GroupCount { field: 1 });
        k.visit(b"GET /\xff 200", 2);
        k.visit(b"PUT /\xff 500", 3);
        k.visit(b"GET /ok 200", 1);
        assert_eq!(
            k.finish().unwrap(),
            vec![("/ok".to_owned(), 1.0), ("/\u{fffd}".to_owned(), 5.0)]
        );
    }

    #[test]
    fn missing_field_surfaces_after_finish() {
        let mut k = kernel_for(&Aggregate::GroupCount { field: 3 });
        k.visit(b"a b", 1);
        assert_eq!(k.finish().unwrap_err(), QueryError::NoSuchField(3));
    }
}
