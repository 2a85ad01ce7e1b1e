//! Bag-of-words featurization.
//!
//! The paper featurizes Amazon product reviews "with a bag-of-words model,
//! resulting in 6,787 features". We reproduce that pipeline: tokenize,
//! build a vocabulary of the most frequent tokens (capped at the feature
//! budget), then map documents to sparse count vectors, L2-normalized.

use std::collections::HashMap;

use crate::sparse::SparseVec;

/// The paper's feature count.
pub const PAPER_FEATURES: usize = 6_787;

/// Lowercase alphabetic tokenization.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// A fitted bag-of-words vocabulary.
#[derive(Clone, Debug)]
pub struct BagOfWords {
    vocab: HashMap<String, u32>,
    dim: usize,
}

impl BagOfWords {
    /// Fit a vocabulary of at most `max_features` tokens from `documents`,
    /// keeping the most frequent (ties broken lexicographically so fitting
    /// is deterministic).
    pub fn fit<'a>(documents: impl IntoIterator<Item = &'a str>, max_features: usize) -> BagOfWords {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for doc in documents {
            for tok in tokenize(doc) {
                *counts.entry(tok).or_default() += 1;
            }
        }
        let mut by_freq: Vec<(String, u64)> = counts.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_freq.truncate(max_features);
        let vocab: HashMap<String, u32> = by_freq
            .into_iter()
            .enumerate()
            .map(|(i, (tok, _))| (tok, i as u32))
            .collect();
        let dim = vocab.len();
        BagOfWords { vocab, dim }
    }

    /// Fit with the paper's 6,787-feature budget.
    pub fn fit_paper<'a>(documents: impl IntoIterator<Item = &'a str>) -> BagOfWords {
        BagOfWords::fit(documents, PAPER_FEATURES)
    }

    /// Vocabulary size (= feature dimension).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Featurize one document into a normalized sparse count vector.
    /// Out-of-vocabulary tokens are dropped.
    pub fn transform(&self, text: &str) -> SparseVec {
        let pairs: Vec<(u32, f32)> = tokenize(text)
            .into_iter()
            .filter_map(|tok| self.vocab.get(&tok).map(|&i| (i, 1.0f32)))
            .collect();
        let mut v = SparseVec::from_pairs(pairs);
        v.normalize();
        v
    }

    /// Featurize a batch.
    pub fn transform_batch<'a>(
        &self,
        documents: impl IntoIterator<Item = &'a str>,
    ) -> Vec<SparseVec> {
        documents.into_iter().map(|d| self.transform(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("Great product!! Works well..."),
            vec!["great", "product", "works", "well"]
        );
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("a-b_c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn fit_keeps_most_frequent() {
        let docs = ["apple apple apple banana banana cherry", "apple banana"];
        let bow = BagOfWords::fit(docs, 2);
        assert_eq!(bow.dim(), 2);
        assert!(bow.vocab.contains_key("apple"));
        assert!(bow.vocab.contains_key("banana"));
        assert!(!bow.vocab.contains_key("cherry"));
    }

    #[test]
    fn fit_is_deterministic_under_ties() {
        let docs = ["zeta alpha", "zeta alpha"];
        let a = BagOfWords::fit(docs, 2);
        let b = BagOfWords::fit(docs, 2);
        assert_eq!(a.vocab.get("alpha"), b.vocab.get("alpha"));
        assert_eq!(a.vocab.get("zeta"), b.vocab.get("zeta"));
        // Lexicographic tiebreak puts alpha first.
        assert_eq!(a.vocab.get("alpha"), Some(&0));
    }

    #[test]
    fn transform_counts_and_normalizes() {
        let docs = ["dog cat", "dog"];
        let bow = BagOfWords::fit(docs, 10);
        let v = bow.transform("dog dog cat unknownword");
        assert_eq!(v.nnz(), 2);
        assert!((v.norm() - 1.0).abs() < 1e-6);
        // dog appears twice, cat once: dog's weight is larger.
        let dog = bow.vocab["dog"];
        let cat = bow.vocab["cat"];
        let get = |idx: u32| {
            v.indices
                .iter()
                .position(|&i| i == idx)
                .map(|p| v.values[p])
                .unwrap()
        };
        assert!(get(dog) > get(cat));
    }

    #[test]
    fn oov_document_is_empty() {
        let bow = BagOfWords::fit(["known words here"], 10);
        let v = bow.transform("totally different text");
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn transform_batch_matches_singles() {
        let bow = BagOfWords::fit(["a b c"], 10);
        let batch = bow.transform_batch(["a b", "c"]);
        assert_eq!(batch[0], bow.transform("a b"));
        assert_eq!(batch[1], bow.transform("c"));
    }
}
