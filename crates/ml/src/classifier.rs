//! The prediction-serving workload from §3.1's second case study: a
//! document classifier that marks each word "dirty" or not against a
//! blacklist and rewrites the document with dirty words replaced by
//! punctuation — "our model in this experiment is a simple blacklist of
//! dirty words".

use faasim_payload::byte_positions;
use faasim_simcore::FxHashSet;

/// Tokens up to this long have their core built on the stack. Real words
/// fit; a longer token's core goes to the heap, so a blacklisted word of
/// any length still matches.
const CORE_STACK: usize = 64;

/// A token's core: its ASCII-alphanumeric bytes, lowercased.
fn core_bytes(token: &[u8]) -> impl Iterator<Item = u8> + '_ {
    token
        .iter()
        .filter(|b| b.is_ascii_alphanumeric())
        .map(u8::to_ascii_lowercase)
}

/// A token's core built in `stack`, or in `spill` when the token is too
/// long for it.
fn core_of<'a>(
    token: &[u8],
    stack: &'a mut [u8; CORE_STACK],
    spill: &'a mut Vec<u8>,
) -> &'a [u8] {
    let core = core_bytes(token);
    if token.len() <= CORE_STACK {
        let mut n = 0usize;
        for b in core {
            stack[n] = b;
            n += 1;
        }
        &stack[..n]
    } else {
        spill.clear();
        spill.extend(core);
        spill
    }
}

/// The blacklist "model".
#[derive(Clone, Debug)]
pub struct DirtyWordModel {
    /// The core of every blacklisted word, so a token's core — built
    /// without going through `str` — probes the set by borrowed slice.
    blacklist: FxHashSet<Box<[u8]>>,
    /// By a token's first byte: whether its core can be blacklisted. An
    /// ASCII letter or digit is the first byte of the core too, so it
    /// must (lowercased) begin some blacklisted core; any other byte says
    /// nothing about where the core begins. Most tokens of any text stop
    /// here, before a pass over their bytes, a hash or a probe.
    may_start_dirty: [bool; 256],
}

/// Result of censoring one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Censored {
    /// The rewritten document.
    pub text: String,
    /// How many words were replaced.
    pub dirty_count: usize,
    /// Total words inspected.
    pub word_count: usize,
}

impl DirtyWordModel {
    /// Build from a word list. A word stands for its core — its ASCII
    /// letters and digits, lowercased — which is what [`Self::censor`]
    /// compares; a word with an empty core can match nothing and is
    /// dropped.
    pub fn new<I, S>(words: I) -> DirtyWordModel
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let blacklist: FxHashSet<Box<[u8]>> = words
            .into_iter()
            .map(|w| core_bytes(w.as_ref().as_bytes()).collect::<Box<[u8]>>())
            .filter(|core| !core.is_empty())
            .collect();
        let mut may_start_dirty: [bool; 256] =
            std::array::from_fn(|b| !(b as u8).is_ascii_alphanumeric());
        for core in &blacklist {
            may_start_dirty[usize::from(core[0])] = true;
            may_start_dirty[usize::from(core[0].to_ascii_uppercase())] = true;
        }
        DirtyWordModel {
            blacklist,
            may_start_dirty,
        }
    }

    /// A deterministic synthetic blacklist of `n` words, for workloads.
    pub fn synthetic(n: usize) -> DirtyWordModel {
        DirtyWordModel::new((0..n).map(|i| format!("dirty{i}")))
    }

    /// Number of blacklisted words.
    pub fn len(&self) -> usize {
        self.blacklist.len()
    }

    /// True when the blacklist is empty.
    pub fn is_empty(&self) -> bool {
        self.blacklist.is_empty()
    }

    /// Serialized size of the model in bytes (what a Lambda would fetch
    /// from the object store on every invocation in the unoptimized
    /// deployment).
    pub fn wire_bytes(&self) -> u64 {
        self.blacklist.iter().map(|w| w.len() as u64 + 1).sum()
    }

    /// Classify one word: whether its core is blacklisted. The censor
    /// oracle's reference.
    #[cfg(test)]
    pub fn is_dirty(&self, word: &str) -> bool {
        let core: Vec<u8> = core_bytes(word.as_bytes()).collect();
        self.blacklist.contains(core.as_slice())
    }

    /// Censor a document: dirty words are replaced by punctuation marks of
    /// the same length.
    ///
    /// Tokens are the runs between ASCII spaces; a token is dirty when its
    /// ASCII-alphanumeric bytes, lowercased, are blacklisted. Byte-level,
    /// with one allocation (the output): it starts as a copy of the input —
    /// separators and clean tokens are already right — and only a dirty
    /// token's alphanumeric bytes are overwritten, which leaves every
    /// multi-byte character intact.
    pub fn censor(&self, text: &str) -> Censored {
        let text = text.as_bytes();
        let mut out = text.to_vec();
        let mut dirty = 0usize;
        let mut words = 0usize;
        let mut stack = [0u8; CORE_STACK];
        let mut spill: Vec<u8> = Vec::new();
        let mut start = 0usize;
        for end in byte_positions(text, b' ').chain([text.len()]) {
            let at = std::mem::replace(&mut start, end + 1);
            let token = &text[at..end];
            let Some(&first) = token.first() else {
                continue;
            };
            words += 1;
            if !self.may_start_dirty[usize::from(first)] {
                continue;
            }
            // A token of lowercase letters and digits is its own core
            // and probes the set in place.
            let plain = |b: &u8| b.is_ascii_lowercase() || b.is_ascii_digit();
            let core = if token.iter().all(plain) {
                token
            } else {
                core_of(token, &mut stack, &mut spill)
            };
            if self.blacklist.contains(core) {
                dirty += 1;
                for b in &mut out[at..end] {
                    if b.is_ascii_alphanumeric() {
                        *b = b'*';
                    }
                }
            }
        }
        Censored {
            text: String::from_utf8(out).expect("only ASCII bytes were replaced, by ASCII"),
            dirty_count: dirty,
            word_count: words,
        }
    }
}

/// Deterministic synthetic document generator for the serving workload.
pub fn synthetic_document(blacklist_size: usize, words: usize, seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut out = Vec::with_capacity(words);
    for _ in 0..words {
        let r = next();
        if r % 10 == 0 && blacklist_size > 0 {
            out.push(format!("dirty{}", r as usize % blacklist_size));
        } else {
            out.push(format!("clean{}", r % 5000));
        }
    }
    out.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original `char`/`String` implementation, kept as the reference
    /// the byte-level [`DirtyWordModel::censor`] must agree with.
    fn censor_oracle(model: &DirtyWordModel, text: &str) -> Censored {
        let mut out = String::with_capacity(text.len());
        let mut dirty = 0usize;
        let mut words = 0usize;
        for (i, token) in text.split(' ').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if token.is_empty() {
                continue;
            }
            words += 1;
            let core: String = token
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect();
            if !core.is_empty() && model.is_dirty(&core) {
                dirty += 1;
                for c in token.chars() {
                    out.push(if c.is_ascii_alphanumeric() { '*' } else { c });
                }
            } else {
                out.push_str(token);
            }
        }
        Censored {
            text: out,
            dirty_count: dirty,
            word_count: words,
        }
    }

    /// Document fragments the differential test splices together: dirty
    /// words in mixed case and with punctuation or non-ASCII characters
    /// inside and in front of them (a first byte the table cannot judge),
    /// a blacklisted word that starts with a digit, near misses, single
    /// and repeated separators up to runs longer than the scanner's
    /// 8-byte word, tabs and newlines (which are *not* separators), and
    /// bare punctuation. Lengths are mixed, so tokens and space runs
    /// land on every offset of a word, and a document may be shorter than
    /// one word or end without a space.
    const FRAGMENTS: [&str; 30] = [
        " ", " ", "  ", "darn", "DaRn", "d'ar-n", "d\u{e9}arn", "he\u{4e16}ck", "heck!", "darnx", "x", "dar",
        "\t", "\n", "?!", "\u{e9}", "clean42", "9", "-", "Heck",
        "'darn", "\u{e9}heck", "(X)", "4x4", "4X4,", "4x5", "44", "        ", "         ", "hexk",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_level_censor_matches_the_oracle(
            picks in prop::collection::vec((0usize..FRAGMENTS.len() + 2, 1usize..4), 0..40),
        ) {
            // Two words longer than the stack buffer: one blacklisted, one
            // that differs from it only past the buffer's end.
            let long_dirty = "Ab3".repeat(CORE_STACK / 2);
            let long_clean = format!("{}z", &long_dirty[..long_dirty.len() - 1]);
            let model = DirtyWordModel::new(["darn", "heck", "x", "4x4", long_dirty.as_str()]);
            let mut doc = String::new();
            for (pick, times) in picks {
                let fragment = match pick.checked_sub(FRAGMENTS.len()) {
                    None => FRAGMENTS[pick],
                    Some(0) => long_dirty.as_str(),
                    Some(_) => long_clean.as_str(),
                };
                for _ in 0..times {
                    doc.push_str(fragment);
                }
            }
            prop_assert_eq!(model.censor(&doc), censor_oracle(&model, &doc));
            let nothing = DirtyWordModel::new([""; 0]);
            prop_assert_eq!(nothing.censor(&doc), censor_oracle(&nothing, &doc));
        }
    }

    /// The oracle test has to notice a wrong table: one entry cleared, and
    /// the word it guarded goes uncensored.
    #[test]
    fn a_wrong_table_entry_is_caught() {
        let mut model = DirtyWordModel::new(["darn", "4x4"]);
        for doc in ["darn", "Darn it", "a 4X4"] {
            assert_eq!(model.censor(doc), censor_oracle(&model, doc));
        }
        model.may_start_dirty[usize::from(b'D')] = false;
        assert_eq!(model.censor("darn"), censor_oracle(&model, "darn"));
        assert_ne!(model.censor("Darn it"), censor_oracle(&model, "Darn it"));
        model.may_start_dirty[usize::from(b'4')] = false;
        assert_ne!(model.censor("a 4X4"), censor_oracle(&model, "a 4X4"));
    }

    #[test]
    fn the_table_admits_exactly_what_could_be_dirty() {
        let model = DirtyWordModel::new(["Darn", "4x4", "-heck"]);
        for b in 0..=u8::MAX {
            let expected = !b.is_ascii_alphanumeric() || b"dD4hH".contains(&b);
            assert_eq!(
                model.may_start_dirty[usize::from(b)],
                expected,
                "byte {b:#04x}"
            );
        }
        let nothing = DirtyWordModel::new([""; 0]);
        assert!(!nothing.may_start_dirty[usize::from(b'a')]);
        assert!(nothing.may_start_dirty[usize::from(b'-')]);
    }

    /// A blacklisted word stands for its core in `is_dirty` and `censor`
    /// alike: `"f-word"` used to be `is_dirty` and never censored.
    #[test]
    fn punctuated_and_mixed_case_entries_are_censored() {
        let model = DirtyWordModel::new(["f-word", "L33t!", "!!!", ""]);
        assert_eq!(model.len(), 2, "entries with an empty core are dropped");
        for word in ["f-word", "fword", "F-WORD", "l33t", "L33T!", "(l33t)"] {
            assert!(model.is_dirty(word), "{word}");
        }
        for word in ["f", "word", "!!!", "", "l33"] {
            assert!(!model.is_dirty(word), "{word}");
        }
        let doc = "an f-word, so L33T! !!! f word";
        let out = model.censor(doc);
        assert_eq!(out, censor_oracle(&model, doc));
        assert_eq!(out.text, "an *-****, so ****! !!! f word");
        assert_eq!(out.dirty_count, 2);
    }

    #[test]
    fn tokens_longer_than_the_stack_buffer() {
        let long = "w".repeat(CORE_STACK + 9);
        let model = DirtyWordModel::new([long.as_str()]);
        let doc = format!("a {}- {}w  {long}", long.to_uppercase(), long);
        let out = model.censor(&doc);
        assert_eq!(out, censor_oracle(&model, &doc));
        assert_eq!(out.dirty_count, 2);
        assert_eq!(out.word_count, 4);
        assert!(out.text.ends_with(&"*".repeat(long.len())));
    }

    #[test]
    fn censors_dirty_words_preserving_shape() {
        let model = DirtyWordModel::new(["darn", "heck"]);
        let out = model.censor("well darn that Heck-ish thing");
        assert_eq!(out.text, "well **** that Heck-ish thing");
        assert_eq!(out.dirty_count, 1);
        assert_eq!(out.word_count, 5);
    }

    #[test]
    fn punctuation_inside_dirty_word_is_kept() {
        let model = DirtyWordModel::new(["darn"]);
        let out = model.censor("d'arn? no: darn!");
        // "d'arn?" strips to "darn" => censored keeping the apostrophe.
        assert_eq!(out.text, "*'***? no: ****!");
        assert_eq!(out.dirty_count, 2);
    }

    #[test]
    fn case_insensitive() {
        let model = DirtyWordModel::new(["BAD"]);
        assert!(model.is_dirty("bad"));
        assert!(model.is_dirty("BaD"));
        assert!(!model.is_dirty("good"));
    }

    #[test]
    fn empty_and_clean_documents() {
        let model = DirtyWordModel::synthetic(10);
        let out = model.censor("");
        assert_eq!(out.word_count, 0);
        assert_eq!(out.dirty_count, 0);
        let clean = model.censor("all fine here");
        assert_eq!(clean.text, "all fine here");
        assert_eq!(clean.dirty_count, 0);
    }

    #[test]
    fn synthetic_blacklist_and_documents_interact() {
        let model = DirtyWordModel::synthetic(50);
        assert_eq!(model.len(), 50);
        assert!(!model.is_empty());
        assert!(model.wire_bytes() > 0);
        let doc = synthetic_document(50, 200, 9);
        let out = model.censor(&doc);
        assert_eq!(out.word_count, 200);
        // ~10% of tokens are dirty by construction.
        assert!(
            out.dirty_count > 5 && out.dirty_count < 60,
            "dirty {}",
            out.dirty_count
        );
    }

    #[test]
    fn synthetic_document_is_deterministic() {
        assert_eq!(synthetic_document(10, 50, 4), synthetic_document(10, 50, 4));
        assert_ne!(synthetic_document(10, 50, 4), synthetic_document(10, 50, 5));
    }
}
