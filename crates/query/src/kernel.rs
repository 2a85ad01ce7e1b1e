//! Per-aggregate **scan kernels**: the operator-specialized fold each
//! streamed chunk lands in.
//!
//! The old one-size-fits-all accumulator built a full distinct-line
//! `BTreeMap<String, u64>` — a `String` allocation per distinct line —
//! regardless of the aggregate, then dispatched in `finish()`. Here each
//! [`crate::Aggregate`] gets its own kernel behind the [`ScanKernel`]
//! trait:
//!
//! - [`Aggregate::CountAll`](crate::Aggregate::CountAll) is pure
//!   line-count arithmetic: zero allocation, zero per-line state;
//! - [`Aggregate::CountMatching`](crate::Aggregate::CountMatching) is a
//!   byte-level substring test per line run — no histogram;
//! - [`Aggregate::GroupCount`](crate::Aggregate::GroupCount) keys only
//!   the extracted field *value*, never the whole line;
//! - [`Aggregate::SumField`](crate::Aggregate::SumField) keeps a running
//!   sum and a seen-flag — no map at all;
//! - [`Aggregate::Exists`](crate::Aggregate::Exists) flips a bool and
//!   **saturates**, letting the pipeline cancel unfetched partitions.
//!
//! Kernels consume *line runs* — `(line, multiplicity)` visits from the
//! payload crate's analytic scanner — so a `Concat` of
//! `Synthetic{pattern × n}` bodies folds per-pattern results scaled by
//! `n` without the kernel ever touching the repeated bytes. That is the
//! multi-pattern `GROUP BY` cardinality shortcut: a terabyte of repeated
//! log lines costs O(patterns) kernel work.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::{Aggregate, QueryError};

/// A streaming aggregate fold. One kernel instance is shared by every
/// scan worker (the simulation is single-threaded, so interleaving is
/// deterministic); results are order-independent multiset folds.
pub trait ScanKernel {
    /// Fold one non-empty line (trailing `\r` already trimmed) that
    /// occurs `n` times.
    fn visit(&mut self, line: &[u8], n: u64);

    /// True once the kernel provably cannot change its answer — the
    /// pipeline stops issuing fetches and cancels unfetched partitions.
    fn saturated(&self) -> bool {
        false
    }

    /// Produce the result rows.
    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError>;
}

/// Build the kernel for an aggregate. `limit` caps how many matching
/// records the counting aggregates fold before saturating; it is
/// ignored by `GroupCount`/`SumField` (their partial results would be
/// scan-order-dependent) and by `Exists` (which saturates on its own).
pub fn kernel_for(agg: &Aggregate, limit: Option<u64>) -> Box<dyn ScanKernel> {
    match agg {
        Aggregate::CountAll => Box::new(CountAll { count: 0, limit }),
        Aggregate::CountMatching(needle) => Box::new(CountMatching {
            needle: needle.as_bytes().to_vec(),
            count: 0,
            limit,
        }),
        Aggregate::GroupCount { field } => Box::new(GroupCount {
            field: *field,
            groups: BTreeMap::new(),
            matched: false,
        }),
        Aggregate::SumField { field } => Box::new(SumField {
            field: *field,
            sum: 0.0,
            matched: false,
        }),
        Aggregate::Exists(needle) => Box::new(Exists {
            needle: needle.as_bytes().to_vec(),
            found: false,
        }),
    }
}

/// Byte-level substring test (what `str::contains` does for the ASCII
/// corpora these queries scan). An empty needle matches everything.
fn contains(hay: &[u8], needle: &[u8]) -> bool {
    needle.is_empty() || hay.windows(needle.len()).any(|w| w == needle)
}

/// The nth whitespace-separated field, decoded like the record model
/// specifies (lossy UTF-8, Unicode whitespace).
///
/// Borrows from `line` when it is valid UTF-8 — every scanned line of a
/// text corpus — and allocates only for a line that needed replacement
/// characters.
fn nth_field(line: &[u8], field: usize) -> Option<Cow<'_, str>> {
    match String::from_utf8_lossy(line) {
        Cow::Borrowed(text) => text.split_whitespace().nth(field).map(Cow::Borrowed),
        Cow::Owned(text) => text
            .split_whitespace()
            .nth(field)
            .map(|value| Cow::Owned(value.to_owned())),
    }
}

/// Clamped add: the counting kernels never report more than `limit`
/// records, so an in-flight chunk folded after saturation cannot
/// overshoot the answer.
fn add_clamped(count: u64, n: u64, limit: Option<u64>) -> u64 {
    let next = count.saturating_add(n);
    match limit {
        Some(l) => next.min(l),
        None => next,
    }
}

struct CountAll {
    count: u64,
    limit: Option<u64>,
}

impl ScanKernel for CountAll {
    fn visit(&mut self, _line: &[u8], n: u64) {
        self.count = add_clamped(self.count, n, self.limit);
    }

    fn saturated(&self) -> bool {
        self.limit.is_some_and(|l| self.count >= l)
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        Ok(vec![(String::new(), self.count as f64)])
    }
}

struct CountMatching {
    needle: Vec<u8>,
    count: u64,
    limit: Option<u64>,
}

impl ScanKernel for CountMatching {
    fn visit(&mut self, line: &[u8], n: u64) {
        if contains(line, &self.needle) {
            self.count = add_clamped(self.count, n, self.limit);
        }
    }

    fn saturated(&self) -> bool {
        self.limit.is_some_and(|l| self.count >= l)
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        Ok(vec![(String::new(), self.count as f64)])
    }
}

struct GroupCount {
    field: usize,
    groups: BTreeMap<String, u64>,
    matched: bool,
}

impl ScanKernel for GroupCount {
    fn visit(&mut self, line: &[u8], n: u64) {
        if let Some(value) = nth_field(line, self.field) {
            self.matched = true;
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
        if !self.matched {
            return Err(QueryError::NoSuchField(self.field));
        }
        Ok(self
            .groups
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect())
    }
}

struct SumField {
    field: usize,
    sum: f64,
    matched: bool,
}

impl ScanKernel for SumField {
    fn visit(&mut self, line: &[u8], n: u64) {
        if let Some(value) = nth_field(line, self.field) {
            self.matched = true;
            if let Ok(v) = value.parse::<f64>() {
                self.sum += v * n as f64;
            }
        }
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        if !self.matched {
            return Err(QueryError::NoSuchField(self.field));
        }
        Ok(vec![(String::new(), self.sum)])
    }
}

struct Exists {
    needle: Vec<u8>,
    found: bool,
}

impl ScanKernel for Exists {
    fn visit(&mut self, line: &[u8], _n: u64) {
        if !self.found && contains(line, &self.needle) {
            self.found = true;
        }
    }

    fn saturated(&self) -> bool {
        self.found
    }

    fn finish(self: Box<Self>) -> Result<Vec<(String, f64)>, QueryError> {
        Ok(vec![(String::new(), if self.found { 1.0 } else { 0.0 })])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_all_clamps_at_limit() {
        let mut k = kernel_for(&Aggregate::CountAll, Some(10));
        k.visit(b"x", 7);
        assert!(!k.saturated());
        k.visit(b"x", 7); // overshoot clamps to exactly the limit
        assert!(k.saturated());
        assert_eq!(k.finish().unwrap(), vec![(String::new(), 10.0)]);
    }

    #[test]
    fn count_matching_is_byte_level() {
        let mut k = kernel_for(&Aggregate::CountMatching("b c".into()), None);
        k.visit(b"a b c", 3);
        k.visit(b"a bc", 5);
        k.visit(b"zzz", 1);
        assert_eq!(k.finish().unwrap(), vec![(String::new(), 3.0)]);
        // Empty needle matches every line, like `str::contains("")`.
        let mut k = kernel_for(&Aggregate::CountMatching(String::new()), None);
        k.visit(b"anything", 4);
        assert_eq!(k.finish().unwrap(), vec![(String::new(), 4.0)]);
    }

    #[test]
    fn group_count_keys_only_the_field() {
        let mut k = kernel_for(&Aggregate::GroupCount { field: 1 }, None);
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
        let mut k = kernel_for(&Aggregate::GroupCount { field: 1 }, None);
        k.visit(b"GET /\xff 200", 2);
        k.visit(b"PUT /\xff 500", 3);
        k.visit(b"GET /ok 200", 1);
        assert_eq!(
            k.finish().unwrap(),
            vec![("/ok".to_owned(), 1.0), ("/\u{fffd}".to_owned(), 5.0)]
        );
        let mut k = kernel_for(&Aggregate::SumField { field: 1 }, None);
        k.visit(b"\xff 2.5", 4);
        k.visit(b"a \xff", 1);
        assert_eq!(k.finish().unwrap(), vec![(String::new(), 10.0)]);
    }

    #[test]
    fn missing_field_surfaces_after_finish() {
        let mut k = kernel_for(&Aggregate::SumField { field: 3 }, None);
        k.visit(b"a b", 1);
        assert_eq!(k.finish().unwrap_err(), QueryError::NoSuchField(3));
    }

    #[test]
    fn exists_saturates_on_first_match() {
        let mut k = kernel_for(&Aggregate::Exists("404".into()), None);
        k.visit(b"GET / 200", 9);
        assert!(!k.saturated());
        k.visit(b"GET /x 404", 1);
        assert!(k.saturated());
        assert_eq!(k.finish().unwrap(), vec![(String::new(), 1.0)]);
    }
}
