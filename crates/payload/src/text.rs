//! Word-at-a-time text kernels: the byte scanner under every line walk.
//!
//! One portable SWAR (`u64`) byte matcher finds newlines eight bytes per
//! step. It backs [`byte_positions`] (an iterator over every occurrence of
//! a byte, which [`scan_lines`] turns into line visits and the query
//! crate uses for its substring test) and [`count_line_ends`] (the
//! count-only walk behind [`crate::Payload::line_count`], which never
//! looks at a line's content at all).

const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HI: u64 = !LO7;

const fn splat(byte: u8) -> u64 {
    u64::from_le_bytes([byte; 8])
}

/// Bit 7 of every byte of `word` that equals the byte `splat` repeats,
/// and nothing else.
///
/// A byte of `x` is zero iff it matched. Adding `0x7f` to its low seven
/// bits sets bit 7 iff one of them is set and cannot carry into the next
/// byte, so — unlike the shorter `(x - 0x01…) & !x & 0x80…` — a match
/// never flags its neighbour (`0x0A` next to `0x0B`, or `0x8A`).
#[inline]
fn match_mask(word: u64, splat: u64) -> u64 {
    let x = word ^ splat;
    !(((x & LO7) + LO7) | x) & HI
}

/// Iterator over the offsets of one byte value in a slice (see
/// [`byte_positions`]).
pub struct BytePositions<'a> {
    hay: &'a [u8],
    splat: u64,
    /// Offset of the next unread word of `hay`.
    next: usize,
    /// Offset of the word `mask` was taken from.
    base: usize,
    /// Matches in that word not yet reported.
    mask: u64,
}

/// Every offset at which `byte` occurs in `hay`, ascending. Reads `hay`
/// a `u64` at a time, so a miss costs an eighth of a byte loop's steps.
pub fn byte_positions(hay: &[u8], byte: u8) -> BytePositions<'_> {
    BytePositions {
        hay,
        splat: splat(byte),
        next: 0,
        base: 0,
        mask: 0,
    }
}

impl Iterator for BytePositions<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            let rest = &self.hay[self.next..];
            let word = match rest.first_chunk::<8>() {
                Some(word) => *word,
                None if rest.is_empty() => return None,
                None => {
                    // Short tail: pad with a byte that cannot match.
                    let mut word = [!self.splat as u8; 8];
                    word[..rest.len()].copy_from_slice(rest);
                    word
                }
            };
            self.base = self.next;
            self.next += rest.len().min(8);
            self.mask = match_mask(u64::from_le_bytes(word), self.splat);
        }
        let at = self.base + (self.mask.trailing_zeros() / 8) as usize;
        self.mask &= self.mask - 1;
        Some(at)
    }
}

/// Visit every line `b` completes. `carry` holds the unterminated
/// fragment the previous bytes left and receives the one `b` leaves.
pub(crate) fn scan_lines<F: FnMut(&[u8], u64)>(b: &[u8], carry: &mut Vec<u8>, f: &mut F) {
    let mut start = 0;
    for nl in byte_positions(b, b'\n') {
        let line = &b[start..nl];
        start = nl + 1;
        if !carry.is_empty() {
            carry.extend_from_slice(line);
            f(carry, 1);
            carry.clear();
        } else if !line.is_empty() {
            f(line, 1);
        }
    }
    carry.extend_from_slice(&b[start..]);
}

/// How many non-empty lines end inside `b`, i.e. how many newlines follow
/// a non-newline byte. `open` says whether the bytes before `b` left a
/// non-empty line unterminated and is updated for the bytes after it.
pub(crate) fn count_line_ends(b: &[u8], open: &mut bool) -> u64 {
    const NL: u64 = splat(b'\n');
    // A byte lane of `lanes` gains at most one per word: 255 words fit.
    const BLOCK: usize = 8 * 255;
    const EVEN_LANES: u64 = 0x00ff_00ff_00ff_00ff;
    let (words, tail) = b.split_at(b.len() & !7);
    let mut ends = 0u64;
    // Bit 7 of byte 0 iff the byte before this word belongs to a line.
    let mut before = if *open { 0x80 } else { 0 };
    for block in words.chunks(BLOCK) {
        // Line ends seen at each of the eight byte offsets of a word.
        let mut lanes = 0u64;
        for word in block.chunks_exact(8) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            let newline = match_mask(word, NL);
            let text = newline ^ HI;
            // Little-endian: `<< 8` moves each byte's flag onto its successor.
            lanes += (newline & (text << 8 | before)) >> 7;
            before = text >> 56;
        }
        let pairs = (lanes & EVEN_LANES) + (lanes >> 8 & EVEN_LANES);
        ends += pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;
    }
    let mut in_line = before != 0;
    for &c in tail {
        if c != b'\n' {
            in_line = true;
        } else if in_line {
            ends += 1;
            in_line = false;
        }
    }
    *open = in_line;
    ends
}

#[cfg(test)]
mod oracle {
    //! The byte-at-a-time scanner this module replaced, kept as the
    //! reference the differential tests compare against.

    pub(super) fn scan_lines(b: &[u8], carry: &mut Vec<u8>, f: &mut dyn FnMut(&[u8], u64)) {
        let mut rest = b;
        while let Some(pos) = rest.iter().position(|&c| c == b'\n') {
            if carry.is_empty() {
                if pos > 0 {
                    f(&rest[..pos], 1);
                }
            } else {
                carry.extend_from_slice(&rest[..pos]);
                f(carry, 1);
                carry.clear();
            }
            rest = &rest[pos + 1..];
        }
        carry.extend_from_slice(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineRunScanner, Payload};

    /// Bytes that differ from `\n` in one bit or sit next to it, the
    /// inputs a borrow-propagating SWAR test gets wrong.
    const TRICKY: &[u8] = b"\n\n\n\r\x0b\x09\x8a\x0a\x00ab";

    /// Deterministic bodies covering every length 0..=200 (so a newline
    /// lands on every byte of a word, and every tail length occurs).
    fn bodies() -> Vec<Vec<u8>> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            TRICKY[(state >> 33) as usize % TRICKY.len()]
        };
        (0..=200usize)
            .flat_map(|len| [len; 4])
            .map(|len| (0..len).map(|_| next()).collect())
            .collect()
    }

    /// The lines the bytewise oracle sees in `body`.
    fn oracle_lines(body: &[u8]) -> Vec<Vec<u8>> {
        let mut carry = Vec::new();
        let mut out = Vec::new();
        oracle::scan_lines(body, &mut carry, &mut |line, n| {
            assert_eq!(n, 1);
            out.push(line.to_vec());
        });
        if !carry.is_empty() {
            out.push(carry);
        }
        out
    }

    /// The lines a [`LineRunScanner`] fed `pieces` in order sees.
    fn scanner_lines(pieces: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut scanner = LineRunScanner::new();
        let mut out = Vec::new();
        let mut visit = |line: &[u8], n: u64| {
            assert_eq!(n, 1);
            out.push(line.to_vec());
        };
        for piece in pieces {
            scanner.feed(&Payload::inline(piece.to_vec()), &mut visit);
        }
        scanner.finish(&mut visit);
        out
    }

    #[test]
    fn byte_positions_match_a_byte_loop() {
        for body in bodies() {
            for byte in [b'\n', 0x00, 0x8a, b'a'] {
                let want: Vec<usize> = (0..body.len()).filter(|&i| body[i] == byte).collect();
                let got: Vec<usize> = byte_positions(&body, byte).collect();
                assert_eq!(got, want, "byte {byte:#04x} in {body:?}");
            }
        }
    }

    #[test]
    fn scanner_matches_the_bytewise_oracle_whole_and_split_anywhere() {
        for body in bodies() {
            let want = oracle_lines(&body);
            assert_eq!(scanner_lines(&[&body]), want, "whole {body:?}");
            for cut in 0..=body.len() {
                let (head, tail) = body.split_at(cut);
                assert_eq!(
                    scanner_lines(&[head, tail]),
                    want,
                    "{body:?} split at {cut}"
                );
            }
        }
    }

    #[test]
    fn count_line_ends_matches_the_oracle_across_any_split() {
        for body in bodies() {
            let want = oracle_lines(&body).len() as u64;
            for cut in 0..=body.len() {
                let (head, tail) = body.split_at(cut);
                let mut open = false;
                let ends = count_line_ends(head, &mut open) + count_line_ends(tail, &mut open);
                assert_eq!(ends + u64::from(open), want, "{body:?} split at {cut}");
            }
        }
    }

    #[test]
    fn a_line_end_on_a_word_boundary_needs_the_carried_flag() {
        // "abcdefgh" fills one word; the newline that ends it is byte 0
        // of the next, so only the flag carried between words sees it.
        let mut open = false;
        assert_eq!(count_line_ends(b"abcdefgh\nabcdefg\n", &mut open), 2);
        assert!(!open);
        // And a word of newlines after a closed line ends nothing.
        assert_eq!(count_line_ends(b"abcdefg\n\n\n\n\n\n\n\n\n", &mut open), 1);
    }

    #[test]
    fn dense_line_ends_do_not_overflow_a_byte_lane() {
        // Four line ends in every word, on the same four lanes: a lane
        // counter summed over more than 255 words would wrap.
        for words in [255, 256, 257, 1000] {
            let body = b"a\n".repeat(4 * words);
            let mut open = false;
            assert_eq!(count_line_ends(&body, &mut open), 4 * words as u64);
        }
    }
}
